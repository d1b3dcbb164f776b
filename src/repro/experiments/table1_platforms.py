"""Table 1: specification of the hybrid platforms used in experiments."""

from __future__ import annotations

from repro.experiments.result import ExperimentResult
from repro.hpu import PLATFORMS


def run(fast: bool = False) -> ExperimentResult:
    """Reproduce Table 1 from the platform presets."""
    rows = []
    for name, hpu in sorted(PLATFORMS.items()):
        cpu, gpu = hpu.cpu_spec, hpu.gpu_spec
        rows.append(
            [
                name,
                f"{cpu.name} ({cpu.physical_cores} cores @ "
                f"{cpu.clock_ghz} GHz, {cpu.llc_bytes >> 20} MB cache)",
                gpu.name,
            ]
        )
    return ExperimentResult(
        experiment_id="table1",
        title="Specification of hybrid platforms used in experiments",
        headers=["Platform", "CPU", "GPU"],
        rows=rows,
        paper_expectation=(
            "HPU1: Intel Core 2 Extreme Q6850 + ATI Radeon HD 5970; "
            "HPU2: AMD A6-3650 + ATI Radeon HD 6530D"
        ),
    )
