"""Deterministic randomness helpers.

All stochastic behaviour in the library flows through :func:`make_rng`
so that experiments are reproducible run-to-run.  The paper's plots show
small run-to-run jitter in "measured" series; :class:`NoiseModel`
recreates that jitter deterministically (and can be disabled entirely by
constructing it with ``amplitude=0``).

The noise draw runs on every timing-only run, so it is computed here
with the standard library alone: :func:`_pcg64_uniform` is a port of
numpy's ``SeedSequence`` → ``PCG64`` → ``Generator.uniform`` chain and
returns the very same double numpy would.  :func:`make_rng` still hands
out real numpy generators (host data, fault plans) and imports numpy
only when called.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

#: Library-wide default seed. Experiments derive their streams from it.
DEFAULT_SEED = 20140131  # IJNC 4(1), January 2014


def _stable_hash(value: object) -> int:
    """A 32-bit hash of ``value`` that is identical across processes.

    The builtin ``hash`` is randomized per process for strings
    (PYTHONHASHSEED), which would make "measured" series drift between
    runs of different interpreters and break golden tests.
    """
    digest = hashlib.blake2b(repr(value).encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little")


def _entropy(seed: int | None, salt: Sequence[object]) -> List[int]:
    """The integer entropy list both seeding paths feed a SeedSequence."""
    root = DEFAULT_SEED if seed is None else seed
    return [root] + [_stable_hash(s) for s in salt]


def make_rng(seed: int | None = None, *salt: object) -> "np.random.Generator":
    """Create a :class:`numpy.random.Generator` from a seed and salt values.

    ``salt`` items (strings, ints) are hashed into the seed sequence so
    that independent subsystems get decorrelated streams from the same
    root seed.
    """
    from repro.util.host import require_numpy

    np = require_numpy()

    material = _entropy(seed, salt)
    return np.random.default_rng(np.random.SeedSequence(material))


# ----------------------------------------------------------------------
# stdlib port of SeedSequence(entropy) -> PCG64 -> uniform(low, high)
# ----------------------------------------------------------------------
_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(value: int) -> List[int]:
    """numpy's ``_int_to_uint32_array``: little-endian 32-bit words."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    if value == 0:
        return [0]
    words = []
    while value > 0:
        words.append(value & _M32)
        value >>= 32
    return words


def _seed_pool(entropy: Sequence[int]) -> List[int]:
    """``SeedSequence(entropy).pool`` (no spawn key, pool size 4)."""
    words = [w for value in entropy for w in _uint32_words(value)]
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _M32
        value = (value * hash_const) & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ (result >> 16)

    pool = [
        hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)
    ]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, len(words)):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(words[i_src]))
    return pool


def _generate_state64(pool: Sequence[int], n_words: int) -> List[int]:
    """``SeedSequence.generate_state(n_words, np.uint64)``."""
    hash_const = _INIT_B
    state32 = []
    for i in range(2 * n_words):
        value = pool[i % len(pool)] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _M32
        value = (value * hash_const) & _M32
        state32.append(value ^ (value >> 16))
    return [
        state32[2 * i] | (state32[2 * i + 1] << 32) for i in range(n_words)
    ]


def _pcg64_uniform(entropy: Sequence[int], low: float, high: float) -> float:
    """First ``default_rng(SeedSequence(entropy)).uniform(low, high)``.

    PCG64 (XSL-RR 128/64) seeded the way numpy seeds it: state and
    increment come from four 64-bit SeedSequence words, high word first;
    the double is ``low + (high - low) * ((next64 >> 11) * 2**-53)``.
    """
    s0, s1, i0, i1 = _generate_state64(_seed_pool(entropy), 4)
    inc = ((((i0 << 64) | i1) << 1) | 1) & _M128
    state = inc  # step from state 0
    state = (state + ((s0 << 64) | s1)) & _M128
    state = (state * _PCG_MULT + inc) & _M128
    state = (state * _PCG_MULT + inc) & _M128  # next64() steps first
    value = ((state >> 64) ^ state) & _M64
    rot = state >> 122
    word = ((value >> rot) | (value << ((-rot) & 63))) & _M64
    return low + (high - low) * ((word >> 11) * (1.0 / 9007199254740992.0))


@dataclass(frozen=True)
class NoiseModel:
    """Multiplicative measurement noise: ``t -> t * (1 + eps)``.

    ``eps`` is drawn uniformly from ``[-amplitude, +amplitude]`` with a
    stream derived deterministically from ``seed`` and the measurement
    key, so the *same* measurement always receives the *same* jitter.
    """

    amplitude: float = 0.0
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError(
                f"noise amplitude must be in [0, 1), got {self.amplitude!r}"
            )
        # eps depends only on the key, so the (hash + generator
        # construction + draw) per apply() is memoized.  The cache is
        # invisible to dataclass eq/hash (not a field) and bounded by
        # the number of distinct measurement keys in a process.
        object.__setattr__(self, "_eps_cache", {})

    def apply(self, value: float, *key: object) -> float:
        """Jitter ``value`` deterministically based on ``key``."""
        if self.amplitude == 0.0:
            return value
        cache = self._eps_cache
        eps = cache.get(key)
        if eps is None:
            eps = _pcg64_uniform(
                _entropy(self.seed, ("noise",) + key),
                -self.amplitude,
                self.amplitude,
            )
            cache[key] = eps
        return value * (1.0 + eps)


#: Convenience: a noise model that does nothing.
NO_NOISE = NoiseModel(amplitude=0.0)
