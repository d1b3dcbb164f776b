"""Cooley–Tukey FFT as a DCSpec.

The radix-2 decimation-in-time FFT is the textbook member of the
balanced family after mergesort: ``T(n) = 2·T(n/2) + Θ(n)`` (the
butterfly pass).  Unlike mergesort its divide step is *interleaving*
(even/odd indices) rather than contiguous halving — a useful check
that nothing in the generic framework silently assumes contiguous
splits.

Solutions are complex spectra; the reference is ``numpy.fft.fft``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.spec import DCSpec
from repro.errors import SpecError
from repro.util.intmath import is_power_of_two

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


def fft_recursive(signal: np.ndarray) -> np.ndarray:
    """Direct radix-2 Cooley–Tukey (the sequential baseline)."""
    import numpy as np

    data = np.asarray(signal, dtype=np.complex128)
    if data.ndim != 1 or not is_power_of_two(max(data.size, 1)):
        raise SpecError(
            f"radix-2 FFT needs a 1-D power-of-two array, got shape "
            f"{data.shape}"
        )

    def recurse(x: np.ndarray) -> np.ndarray:
        n = x.size
        if n == 1:
            return x.copy()
        even = recurse(x[0::2])
        odd = recurse(x[1::2])
        twiddle = np.exp(-2j * np.pi * np.arange(n // 2) / n) * odd
        return np.concatenate([even + twiddle, even - twiddle])

    return recurse(data)


def butterfly(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """One radix-2 DIT butterfly pass combining two half-spectra."""
    import numpy as np

    size = even.size + odd.size
    twiddle = np.exp(-2j * np.pi * np.arange(size // 2) / size) * odd
    return np.concatenate([even + twiddle, even - twiddle])


def fft_spec() -> DCSpec:
    """Cooley–Tukey through the generic framework: a=b=2, f(n)=Θ(n).

    The divide is the even/odd interleave; the combine is the butterfly
    pass (one twiddle multiply and two adds per output pair).
    """
    import numpy as np

    def divide(view: np.ndarray):
        return (view[0::2], view[1::2])

    def combine(subs, view: np.ndarray):
        even, odd = subs
        return butterfly(even, odd)

    return DCSpec(
        name="fft",
        a=2,
        b=2,
        is_base=lambda view: view.size == 1,
        base_case=lambda view: np.asarray(view, dtype=np.complex128).copy(),
        divide=divide,
        combine=combine,
        size_of=lambda view: int(view.size),
        f_cost=lambda n: float(n),  # one butterfly pass over n outputs
        leaf_cost=1.0,
    )
