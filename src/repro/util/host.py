"""The optional ``host`` extra: numpy, for the real-array paths.

The timing path -- every ``repro-experiments`` id and the serve daemon
-- runs on the standard library alone.  Real arrays need numpy, which
``pip install 'repro[host]'`` installs: host-backed workload runs,
:func:`~repro.util.rng.make_rng` generators and simulated device
buffers.  Those entry points call :func:`require_numpy`, so a missing
install fails there with one typed error that names the extra, not
with a bare ``ImportError`` from deep inside an algorithm.
"""

from __future__ import annotations

from repro.errors import MissingExtraError


def require_numpy():
    """Import and return numpy, or raise :class:`MissingExtraError`."""
    try:
        import numpy
    except ImportError as exc:
        raise MissingExtraError(
            "numpy is required for real arrays (host-backed runs, "
            "make_rng, device buffers); install it with "
            "pip install 'repro[host]'"
        ) from exc
    return numpy
