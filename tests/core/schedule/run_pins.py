"""``float.hex`` fingerprints of executor runs, for pinned-run tests.

:func:`pinned_run` runs one plan twice under keyed measurement noise:
on a default executor (the macro replay where eligible) and traced on
a ``macro=False`` executor (the DES).  The two results must be equal;
the fingerprint holds the run's timings as ``float.hex``, a digest of
each interval list, the recovery record, and the DES's event and
process counts.
"""

import hashlib

from repro.core.schedule import ScheduleExecutor
from repro.obs.tracer import Tracer, tracing
from repro.util.rng import NoiseModel

NOISE = NoiseModel(amplitude=0.015)


def digest(intervals) -> str:
    """``count:sha256-prefix`` of an interval list's ``float.hex`` text."""
    text = ",".join(f"{s.hex()}:{e.hex()}" for s, e in intervals)
    return f"{len(intervals)}:{hashlib.sha256(text.encode()).hexdigest()[:16]}"


def fingerprint(result) -> dict:
    return {
        "makespan": result.makespan.hex(),
        "cpu_side_time": result.cpu_side_time.hex(),
        "gpu_side_time": result.gpu_side_time.hex(),
        "gpu_kernel_time": result.gpu_kernel_time.hex(),
        "transfer_time": result.transfer_time.hex(),
        "cpu_intervals": digest(result.cpu_intervals),
        "gpu_intervals": digest(result.gpu_intervals),
        "recovery": result.recovery,
    }


def pinned_run(hpu, workload, method: str, plan) -> dict:
    """The fingerprint of ``executor.<method>(plan)``, checked equal
    between the default executor and the traced DES."""
    result = getattr(ScheduleExecutor(hpu, workload, noise=NOISE), method)(
        plan
    )
    tracer = Tracer()
    with tracing(tracer):
        des = getattr(
            ScheduleExecutor(hpu, workload, noise=NOISE, macro=False), method
        )(plan)
    assert des == result
    pins = fingerprint(result)
    pins["events"] = tracer.metrics.counter("sim.events").total()
    pins["processes"] = tracer.metrics.counter("sim.processes").total()
    return pins
