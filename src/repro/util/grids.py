"""Parameter grids as plain float lists, bit-equal to numpy's.

The α and size grids of the sweeps used to be ``np.arange``,
``np.linspace`` and ``np.round`` arrays.  Their values feed golden
outputs, so these helpers reproduce numpy's own formulas — not the
textbook ones — and return Python floats:

- ``np.round(x, d)`` is ``rint(x * 10**d) / 10**d`` (half to even on
  the scaled value), which is not Python's correctly rounded
  ``round(x, d)``;
- a float ``np.arange`` stores ``start`` and ``start + step``, then fills
  element ``i >= 2`` with ``start + i * ((start + step) - start)``;
- ``np.linspace`` computes ``i * ((stop - start) / (num - 1)) + start``
  and then sets its last point to ``stop`` exactly;
- ``np.geomspace`` raises 10 to a ``linspace`` of the endpoints' log10
  and then sets both endpoints exactly.  numpy's vectorized power is not
  libm's ``pow`` (SIMD builds differ from it in the last bits), so the
  interior points agree to a few ulps, not bit for bit; the truncated
  thread grid the g sweep builds from them is exact.

``tests/util/test_grids.py`` pins every helper against numpy.
"""

from __future__ import annotations

import math
from typing import Iterable, List


def round_decimals(x: float, decimals: int) -> float:
    """``float(np.round(x, decimals))`` for ``decimals >= 0``."""
    scale = 10.0**decimals
    scaled = x * scale
    if not math.isfinite(scaled):
        return scaled / scale
    # round() on a float is round-half-even, i.e. rint; keep rint's
    # signed zero.
    rounded = float(round(scaled)) or math.copysign(0.0, scaled)
    return rounded / scale


def round_all(values: Iterable[float], decimals: int) -> List[float]:
    """``np.round(values, decimals).tolist()``."""
    return [round_decimals(v, decimals) for v in values]


def arange(start: float, stop: float, step: float) -> List[float]:
    """``np.arange(start, stop, step).tolist()`` for float arguments."""
    start, stop, step = float(start), float(stop), float(step)
    length = math.ceil((stop - start) / step)
    if length <= 0:
        return []
    values = [start, start + step][:length]
    delta = (start + step) - start
    values.extend(start + i * delta for i in range(2, length))
    return values


def linspace(start: float, stop: float, num: int) -> List[float]:
    """``np.linspace(start, stop, num).tolist()`` (``endpoint=True``)."""
    start, stop = float(start), float(stop)
    if num < 0:
        raise ValueError(f"number of samples must be non-negative, got {num}")
    if num <= 1:
        return [start][:num]
    div = num - 1
    delta = stop - start
    step = delta / div
    if step == 0.0:
        values = [i / div * delta + start for i in range(num)]
    else:
        values = [i * step + start for i in range(num)]
    values[-1] = stop
    return values


def geomspace(start: float, stop: float, num: int) -> List[float]:
    """``np.geomspace(start, stop, num).tolist()`` for ``start, stop > 0``
    (``ValueError`` otherwise), to a few ulps in the interior and exact
    at both endpoints."""
    start, stop = float(start), float(stop)
    values = [
        10.0**e for e in linspace(math.log10(start), math.log10(stop), num)
    ]
    if num > 0:
        values[0] = start
        if num > 1:
            values[-1] = stop
    return values
