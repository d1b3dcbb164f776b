"""Probe the ambient resilience session without loading the package.

A session can only be installed through :mod:`repro.resilience.runtime`,
so while that module has not been imported no session is active.  The
schedule executor, the macro replay and the OpenCL queue ask this probe
on every run; a timing-only process therefore never imports the
resilience package just to learn that it is off.
"""

from __future__ import annotations

import sys


def resilience_session():
    """The installed :class:`~repro.resilience.runtime.ResilienceSession`,
    or ``None``."""
    runtime = sys.modules.get("repro.resilience.runtime")
    return None if runtime is None else runtime.active()
