"""The record every experiment returns (a leaf: stdlib imports only).

The runner imports :class:`ExperimentResult` before it knows which
experiment will run, so it lives apart from the sweep machinery in
:mod:`repro.experiments.common`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.util.tables import format_table


@dataclass
class ExperimentResult:
    """One regenerated table/figure: rows plus paper-vs-measured notes."""

    experiment_id: str  # e.g. "fig8"
    title: str
    headers: List[str]
    rows: List[List[object]]
    notes: List[str] = field(default_factory=list)
    paper_expectation: str = ""

    def render(self) -> str:
        parts = [
            format_table(
                self.headers,
                self.rows,
                title=f"[{self.experiment_id}] {self.title}",
            )
        ]
        if self.paper_expectation:
            parts.append(f"paper: {self.paper_expectation}")
        parts.extend(f"note: {n}" for n in self.notes)
        return "\n".join(parts)

    def column(self, name: str) -> List[object]:
        """Extract one column by header name."""
        idx = self.headers.index(name)
        return [row[idx] for row in self.rows]

    def to_dict(self) -> dict:
        """JSON-serializable form (for ``repro-experiments --json``)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
            "paper_expectation": self.paper_expectation,
        }
