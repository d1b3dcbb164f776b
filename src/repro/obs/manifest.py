"""Run manifests: every experiment invocation as a diffable artifact.

A :class:`RunManifest` records everything needed to interpret (and
re-run) one ``repro-experiments`` invocation: the CLI arguments, the
experiments selected, the platform presets with their calibrated
parameters (the paper's ``p``, ``g``, ``γ`` plus our ``λ``, ``δ`` and
cache constants), the library seed and measurement-noise amplitude, the
per-experiment result notes, and a compact metrics summary when tracing
was enabled.  The runner writes it to
``results/<run-id>/manifest.json`` so figure outputs become artifacts
that can be diffed across commits and machines.
"""

from __future__ import annotations

import json
import platform as _platform
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

#: Format marker checked on load (bump on incompatible changes).
MANIFEST_FORMAT = "repro.obs.manifest/v1"

#: Schema version written into new manifests.  Unlike the format marker
#: (which gates *incompatible* layouts), the schema version counts
#: additive evolutions: readers accept any version and ignore keys they
#: do not know, so a v2 reader loads v1 files (missing fields default)
#: and a v1 reader loads v2 files (extra keys skipped).  v1: PR-2
#: manifests.  v2: adds ``schema_version``, ``conformance``,
#: ``analysis``; writes are key-sorted and append an index line.
#: v3: adds ``queue_backend`` and ``macro`` (event-core selection).
#: v4: adds ``cache_key`` and ``request`` (the canonical request and
#: its content hash — what ``repro.serve`` answers repeats from).
#: v5: adds ``workload`` (the registered :mod:`repro.workloads` id the
#: run swept; pre-registry manifests read back as ``"mergesort"``).
SCHEMA_VERSION = 5


def platform_manifest(hpu) -> dict:
    """The calibrated parameter sheet of one HPU preset.

    Accepts any object with the :class:`~repro.hpu.hpu.HPU` surface
    (``name``, ``cpu_spec``, ``gpu_spec``); kept duck-typed so the
    manifest layer has no dependency on the device stack.
    """
    cpu, gpu = hpu.cpu_spec, hpu.gpu_spec
    return {
        "name": hpu.name,
        "cpu": {
            "name": cpu.name,
            "p": cpu.p,
            "llc_bytes": cpu.llc_bytes,
            "cache_kappa": cpu.cache_kappa,
            "thread_spawn_overhead": cpu.thread_spawn_overhead,
            "clock_ghz": cpu.clock_ghz,
        },
        "gpu": {
            "name": gpu.name,
            "g": gpu.g,
            "gamma": gpu.gamma,
            "lambda": gpu.transfer_latency,
            "delta": gpu.transfer_per_word,
            "launch_overhead": gpu.launch_overhead,
            "lane_efficiency": gpu.lane_efficiency,
            "preferred_workgroup": gpu.preferred_workgroup,
        },
    }


@dataclass
class RunManifest:
    """One experiment invocation, serialized for the results directory."""

    run_id: str
    created_unix: int
    argv: List[str]
    experiments: List[str]
    fast: bool
    platforms: Dict[str, dict]
    seed: int
    noise_amplitude: float
    repro_version: str
    python_version: str = field(
        default_factory=_platform.python_version
    )
    machine: str = field(default_factory=_platform.machine)
    #: Sweep worker count recorded by older manifests; read for them,
    #: never written (sweeps run serially, so new runs load as 1).
    jobs: int = 1
    #: Host cores visible to the run (``os.cpu_count()``).
    host_cpus: int = 1
    #: Per-experiment result digest: {id: {"title": ..., "notes": [...]}}.
    results: Dict[str, dict] = field(default_factory=dict)
    #: Compact metric totals (MetricsRegistry.summary()) when traced.
    metrics_summary: Dict[str, object] = field(default_factory=dict)
    #: Paths of sibling artifacts (trace/metrics JSON), when written.
    outputs: Dict[str, Optional[str]] = field(default_factory=dict)
    #: The fault plan in effect (``FaultPlan.to_dict()``); empty when
    #: the run injected no faults.
    fault_plan: Dict[str, object] = field(default_factory=dict)
    #: Recovery actions taken across the run (retries, timeouts, CPU
    #: fallbacks), as ``RecoveryAction.to_dict()`` entries in order.
    recovery: List[dict] = field(default_factory=list)
    #: Event-queue backend the simulator cores used (``"heap"`` or
    #: ``"array"``; see ``repro.sim.events.QUEUE_BACKENDS``).
    queue_backend: str = "heap"
    #: Whether the macro fast path was permitted (False when the run
    #: forced the DES with ``--no-macro`` / ``REPRO_NO_MACRO=1``).
    macro: bool = True
    #: Content address of the run's canonical request
    #: (``repro.serve.cache.cache_key``); empty for uncacheable runs
    #: (active fault injection) and pre-v4 manifests.
    cache_key: str = ""
    #: The canonical request this run answers
    #: (``repro.serve.protocol.canonical_request``): every behavioural
    #: knob with defaults resolved.  Empty for pre-v4 manifests.
    request: Dict[str, object] = field(default_factory=dict)
    #: Registered workload id the run's sweeps targeted (v5; earlier
    #: manifests predate the registry and were all mergesort).
    workload: str = "mergesort"
    #: Additive schema evolution counter (see :data:`SCHEMA_VERSION`).
    schema_version: int = SCHEMA_VERSION
    #: Model-conformance block (``repro.core.model.oracle.
    #: conformance_summary``): predicted-vs-simulated residual
    #: aggregates and the ok/warn verdict.  Empty when the run was not
    #: checked against the model.
    conformance: Dict[str, object] = field(default_factory=dict)
    #: Trace-analytics block (``repro.obs.analysis.TraceAnalysis.
    #: summary`` of the sweep's longest run): per-device and per-level
    #: utilization, bubbles, critical path.  Empty when untraced.
    analysis: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format": MANIFEST_FORMAT,
            "run_id": self.run_id,
            "created_unix": self.created_unix,
            "argv": list(self.argv),
            "experiments": list(self.experiments),
            "fast": self.fast,
            "platforms": self.platforms,
            "seed": self.seed,
            "noise_amplitude": self.noise_amplitude,
            "repro_version": self.repro_version,
            "python_version": self.python_version,
            "machine": self.machine,
            "host_cpus": self.host_cpus,
            "results": self.results,
            "metrics_summary": self.metrics_summary,
            "outputs": self.outputs,
            "fault_plan": self.fault_plan,
            "recovery": self.recovery,
            "queue_backend": self.queue_backend,
            "macro": self.macro,
            "cache_key": self.cache_key,
            "request": self.request,
            "workload": self.workload,
            "schema_version": self.schema_version,
            "conformance": self.conformance,
            "analysis": self.analysis,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        """Inverse of :meth:`to_dict`; validates the format marker.

        Forward-compatible by construction: keys are picked explicitly,
        so a manifest written by a *newer* schema version (extra keys,
        higher ``schema_version``) still loads — the unknown keys are
        ignored and the known ones keep their meaning.  Manifests from
        before the field default to ``schema_version`` 1.
        """
        fmt = data.get("format")
        if fmt != MANIFEST_FORMAT:
            raise ValueError(
                f"not a run manifest (format {fmt!r}, "
                f"expected {MANIFEST_FORMAT!r})"
            )
        return cls(
            run_id=data["run_id"],
            created_unix=data["created_unix"],
            argv=list(data["argv"]),
            experiments=list(data["experiments"]),
            fast=data["fast"],
            platforms=data["platforms"],
            seed=data["seed"],
            noise_amplitude=data["noise_amplitude"],
            repro_version=data["repro_version"],
            python_version=data["python_version"],
            machine=data["machine"],
            jobs=data.get("jobs", 1),
            host_cpus=data.get("host_cpus", 1),
            results=data.get("results", {}),
            metrics_summary=data.get("metrics_summary", {}),
            outputs=data.get("outputs", {}),
            fault_plan=data.get("fault_plan", {}),
            recovery=data.get("recovery", []),
            queue_backend=data.get("queue_backend", "heap"),
            macro=data.get("macro", True),
            cache_key=data.get("cache_key", ""),
            request=data.get("request", {}),
            workload=data.get("workload", "mergesort"),
            schema_version=data.get("schema_version", 1),
            conformance=data.get("conformance", {}),
            analysis=data.get("analysis", {}),
        )

    # ------------------------------------------------------------------
    def write(self, path: Union[str, Path], index: bool = True) -> Path:
        """Serialize to ``path`` (parent directories created).

        Output is key-sorted, so two identical runs produce
        byte-identical manifests.  Unless ``index=False``, a compact
        line for the run is also appended to the results directory's
        ``index.jsonl`` (the manifest's grandparent — the layout is
        ``results/<run-id>/manifest.json``), which is what ``repro-obs
        list``/``diff`` enumerate.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        if index:
            from repro.obs.index import append_entry  # lazy: no cycle

            append_entry(self, path)
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunManifest":
        """Read a manifest previously written with :meth:`write`."""
        return cls.from_dict(json.loads(Path(path).read_text()))
