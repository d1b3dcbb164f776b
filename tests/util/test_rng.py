import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.util.rng import (
    DEFAULT_SEED,
    NO_NOISE,
    NoiseModel,
    _entropy,
    _pcg64_uniform,
    _stable_hash,
    make_rng,
)


class TestStableHash:
    def test_pinned_values(self):
        """These constants guard cross-process reproducibility: the salt
        hash must not depend on PYTHONHASHSEED or the interpreter run.
        If this fails, every golden test of a "measured" series is
        invalidated — do not repin these lightly."""
        assert _stable_hash("noise") == 2811796334
        assert _stable_hash(0) == _stable_hash(0)
        assert _stable_hash("a") != _stable_hash("b")

    def test_noise_jitter_pinned(self):
        nm = NoiseModel(amplitude=0.05)
        assert nm.apply(100.0, "golden", 7) == pytest.approx(
            104.50748180154233, abs=1e-12
        )


class TestMakeRng:
    def test_deterministic_for_same_seed(self):
        a = make_rng(7, "x").random(5)
        b = make_rng(7, "x").random(5)
        assert (a == b).all()

    def test_salt_decorrelates(self):
        a = make_rng(7, "x").random(5)
        b = make_rng(7, "y").random(5)
        assert (a != b).any()

    def test_default_seed_is_stable(self):
        assert (make_rng().random(3) == make_rng().random(3)).all()


class TestNoiseModel:
    def test_zero_amplitude_is_identity(self):
        assert NO_NOISE.apply(123.456, "k") == 123.456

    def test_bounded(self):
        nm = NoiseModel(amplitude=0.05)
        for key in range(50):
            v = nm.apply(100.0, key)
            assert 95.0 <= v <= 105.0

    def test_deterministic_per_key(self):
        nm = NoiseModel(amplitude=0.05)
        assert nm.apply(10.0, "a", 1) == nm.apply(10.0, "a", 1)
        assert nm.apply(10.0, "a", 1) != nm.apply(10.0, "a", 2)

    def test_rejects_invalid_amplitude(self):
        with pytest.raises(ValueError):
            NoiseModel(amplitude=1.0)
        with pytest.raises(ValueError):
            NoiseModel(amplitude=-0.1)


class TestStdlibNoiseDraw:
    """NoiseModel.apply draws with a stdlib port of numpy's
    SeedSequence -> PCG64 -> uniform chain; every draw must be the
    double numpy would produce."""

    @staticmethod
    def numpy_eps(seed, amplitude, *key):
        import numpy as np

        rng = np.random.default_rng(
            np.random.SeedSequence(
                [seed, _stable_hash("noise")] + [_stable_hash(k) for k in key]
            )
        )
        return rng.uniform(-amplitude, amplitude)

    def test_matches_numpy_over_seeded_keys(self):
        import random

        rnd = random.Random(2014)
        seeds = [0, 1, 7, DEFAULT_SEED, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1]
        shapes = [
            ("advanced", 4, 9, 11),
            ("basic", 12),
            ("cpu-only", 4),
            ("parallel-tail", 3, 9, 10, 12),
            ("multi-gpu", 2, 4, 9, 11),
            (None,),
            (),
        ]
        for i in range(10_000):
            seed = seeds[i % len(seeds)] if i % 3 else rnd.getrandbits(64)
            amplitude = rnd.choice([0.015, 0.05, rnd.uniform(0.0, 0.99)])
            shape = rnd.choice(shapes)
            key = ("mergesort",) + tuple(
                rnd.randrange(1 << 24) if isinstance(v, int) else v
                for v in shape
            )
            expected = self.numpy_eps(seed, amplitude, *key)
            entropy = _entropy(seed, ("noise",) + key)
            assert _pcg64_uniform(entropy, -amplitude, amplitude) == expected
            model = NoiseModel(amplitude=amplitude, seed=seed)
            assert model.apply(2.0, *key) == 2.0 * (1.0 + expected)

    def test_entropy_words_follow_numpy(self):
        """Roots above 32 bits span several SeedSequence words; zero is
        one word, negative roots are rejected like numpy does."""
        import numpy as np

        for entropy in ([0], [0, 0], [2**64 + 3, 5], [1, 2, 3, 4, 5, 6, 7, 8, 9]):
            expected = np.random.default_rng(
                np.random.SeedSequence(entropy)
            ).uniform(-0.5, 0.5)
            assert _pcg64_uniform(entropy, -0.5, 0.5) == expected
        with pytest.raises(ValueError):
            _pcg64_uniform([-1], -0.5, 0.5)
        with pytest.raises(ValueError):
            np.random.SeedSequence([-1])

    def test_draw_loads_no_numpy(self):
        code = (
            "import sys; from repro.util.rng import NoiseModel; "
            "NoiseModel(amplitude=0.05).apply(1.0, 'k', 3); "
            "print('numpy' in sys.modules)"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.strip() == "False"
