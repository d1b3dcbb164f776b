"""Exception hierarchy for :mod:`repro`.

Every error raised by the library derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
still being able to discriminate by subsystem.

Two historical names carried a trailing underscore to dodge the
builtins (``MemoryError_``, ``TimeoutError_``).  The clean spellings
:class:`DeviceMemoryError` and :class:`DeviceTimeoutError` are now the
canonical classes; the underscored names remain importable as
deprecated aliases (module ``__getattr__``) and will be removed in a
future major release.
"""

from __future__ import annotations

import warnings


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class SpecError(ReproError):
    """An invalid divide-and-conquer specification was supplied."""


class SimulationError(ReproError):
    """The discrete-event simulation engine detected an invalid state."""


class DeadlockError(SimulationError):
    """The simulation ran out of events while processes were still waiting."""


class DeviceError(ReproError):
    """A simulated device (CPU or GPU) was used incorrectly."""


class KernelError(DeviceError):
    """A simulated OpenCL kernel launch or execution failed."""


class TransferError(DeviceError):
    """A simulated CPU↔GPU transfer failed."""


class DeviceMemoryError(DeviceError):
    """A simulated device-memory operation failed (allocation, OOB copy)."""


class DeviceTimeoutError(DeviceError):
    """A simulated device operation exceeded its policy deadline."""


class DeviceLostError(DeviceError):
    """A simulated device failed permanently and is no longer usable."""


class FaultInjectionError(ReproError):
    """A fault plan or resilience policy was configured incorrectly."""


class ScheduleError(ReproError):
    """A work-division schedule could not be constructed or executed."""


class ModelError(ReproError):
    """The analytical performance model was queried with invalid inputs."""


class CalibrationError(ReproError):
    """A device-parameter calibration procedure failed to converge."""


class MissingExtraError(ReproError, ImportError):
    """An optional dependency is not installed.

    The message names the ``pip install`` extra that provides it; see
    :func:`repro.util.host.require_numpy`.
    """


#: Deprecated aliases, resolved lazily so each use warns exactly where
#: it happens (PEP 562).
_DEPRECATED_ALIASES = {
    "MemoryError_": DeviceMemoryError,
    "TimeoutError_": DeviceTimeoutError,
}


def __getattr__(name: str):
    replacement = _DEPRECATED_ALIASES.get(name)
    if replacement is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    warnings.warn(
        f"repro.errors.{name} is deprecated; use "
        f"repro.errors.{replacement.__name__} instead",
        DeprecationWarning,
        stacklevel=2,
    )
    return replacement
