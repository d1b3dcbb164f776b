"""Probe ambient sessions without loading the packages behind them.

A resilience session can only be installed through
:mod:`repro.resilience.runtime`, and a tracer only activated through
:mod:`repro.obs.tracer`, so while the module has not been imported
nothing is active.  The schedule executor, the macro replay, the DES
team batches, the auto-tuner and the OpenCL queue ask these probes on
every run; a timing-only process therefore never imports the
resilience package or the tracer just to learn that they are off.
"""

from __future__ import annotations

import sys


def resilience_session():
    """The installed :class:`~repro.resilience.runtime.ResilienceSession`,
    or ``None``."""
    runtime = sys.modules.get("repro.resilience.runtime")
    return None if runtime is None else runtime.active()


def active_tracer():
    """The active :class:`~repro.obs.tracer.Tracer`, or ``None``."""
    tracer = sys.modules.get("repro.obs.tracer")
    return None if tracer is None else tracer.active()
