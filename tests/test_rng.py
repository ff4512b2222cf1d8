"""Deterministic stream: reference words, ranges, state advancement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deeplda.rng import SplitMix64

# Oracle: pure-integer reference implementation of the same mixing
# function (matches the generator's published seed-0 word sequence).
_M = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _ref_mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M
    return z ^ (z >> 31)


def _ref_words(seed: int, n: int) -> list:
    return [_ref_mix((seed + i * _GAMMA) & _M) for i in range(1, n + 1)]


# First four words for seed 0, frozen from the reference implementation.
SEED0_WORDS = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
]


def test_seed0_matches_frozen_reference_words():
    rng = SplitMix64(0)
    words = rng._next_words(4)
    assert [int(w) for w in words] == SEED0_WORDS
    assert _ref_words(0, 4) == SEED0_WORDS


def test_doubles_are_top_53_bits_of_reference_words():
    rng = SplitMix64(42)
    vals = rng.uniforms(4)
    expect = [(w >> 11) * 2.0**-53 for w in _ref_words(42, 4)]
    assert vals.tolist() == expect


def test_same_seed_identical_sequences():
    a = SplitMix64(12345).uniforms(1000)
    b = SplitMix64(12345).uniforms(1000)
    assert np.array_equal(a, b)


def test_counter_state_resumes_mid_stream():
    whole = SplitMix64(9).uniforms(10)
    head = SplitMix64(9)
    first = head.uniforms(4)
    resumed = SplitMix64(9, counter=head.counter).uniforms(6)
    assert np.array_equal(np.concatenate([first, resumed]), whole)


def test_seed_wraps_to_64_bits():
    assert SplitMix64(1 << 64).seed == 0
    assert SplitMix64(-1).seed == (1 << 64) - 1


def test_range_containment_100k_draws():
    vals = SplitMix64(7).uniforms(100_000)
    assert np.all(vals >= 0.0)
    assert np.all(vals < 1.0)


def test_mean_of_100k_draws_near_half():
    vals = SplitMix64(1).uniforms(100_000)
    assert abs(float(vals.mean()) - 0.5) < 0.01


def test_bounded_interval_and_exclusive_upper():
    vals = SplitMix64(3).uniforms(10_000, -2.0, 3.0)
    assert np.all(vals >= -2.0)
    assert np.all(vals < 3.0)


def test_negative_draw_count_rejected_without_advancing():
    rng = SplitMix64(0, counter=3)
    for draw in (rng.uniforms, rng._next_words):
        with pytest.raises(ValueError, match="non-negative"):
            draw(-1)
    assert rng.counter == 3


def test_empty_interval_rejected():
    rng = SplitMix64(0)
    with pytest.raises(ValueError):
        rng.uniforms(1, 1.0, 1.0)
    with pytest.raises(ValueError):
        rng.next_uniform(2.0, -2.0)


def test_next_uniform_advances_one_draw():
    rng = SplitMix64(5)
    v = rng.next_uniform()
    assert rng.counter == 1
    assert v == SplitMix64(5).uniforms(1)[0]


def test_uniform_matrix_is_row_major_block():
    flat = SplitMix64(8).uniforms(12, -1.0, 1.0)
    mat = SplitMix64(8).uniform_matrix(3, 4, -1.0, 1.0)
    assert mat.shape == (3, 4)
    assert np.array_equal(mat.reshape(-1), flat)


def test_uniform_matrix_rejects_empty_dims():
    with pytest.raises(ValueError):
        SplitMix64(0).uniform_matrix(0, 4)


def test_permutation_is_a_permutation():
    perm = SplitMix64(13).permutation(257)
    assert sorted(perm.tolist()) == list(range(257))


def test_permutation_matches_argsort_of_keys():
    keys = SplitMix64(13).uniforms(50)
    perm = SplitMix64(13).permutation(50)
    assert np.array_equal(perm, np.argsort(keys, kind="stable"))


@given(seed=st.integers(min_value=0, max_value=_M), n=st.integers(1, 200))
@settings(max_examples=40, deadline=None)
def test_any_seed_matches_reference_words(seed, n):
    words = SplitMix64(seed)._next_words(n)
    assert [int(w) for w in words] == _ref_words(seed, n)


@given(seed=st.integers(min_value=0, max_value=_M))
@settings(max_examples=40, deadline=None)
def test_draws_always_inside_unit_interval(seed):
    vals = SplitMix64(seed).uniforms(64)
    assert np.all((vals >= 0.0) & (vals < 1.0))


def _whole_array_words(seed: int, counter: int, n: int) -> np.ndarray:
    """The single-pass form: every index, product and mix step full-size."""
    idx = np.arange(counter + 1, counter + 1 + n, dtype=np.uint64)
    z = np.uint64(seed) + idx * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _whole_array_uniforms(seed: int, counter: int, n: int, lo: float, hi: float) -> np.ndarray:
    u = (_whole_array_words(seed, counter, n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return np.minimum(lo + u * (hi - lo), np.nextafter(hi, lo))


@pytest.mark.parametrize("n", [0, 1, 16383, 16385, 100003])
@pytest.mark.parametrize("seed,counter", [(0, 0), (_M, 2**40), (2**63 + 17, 16383)])
def test_blocked_draws_match_whole_array_form(seed, counter, n):
    rng = SplitMix64(seed, counter)
    words = rng._next_words(n)
    assert words.dtype == np.uint64
    assert np.array_equal(words, _whole_array_words(seed, counter, n))
    assert rng.counter == counter + n
    for lo, hi in ((0.0, 1.0), (-0.05, 0.05), (2.5, 3.0)):
        rng = SplitMix64(seed, counter)
        got = rng.uniforms(n, lo, hi)
        want = _whole_array_uniforms(seed, counter, n, lo, hi)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert rng.counter == counter + n


def test_uniforms_peak_memory_is_near_its_output():
    import tracemalloc

    n = 2**20
    tracemalloc.start()
    SplitMix64(3).uniforms(n)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1.5 * n * 8
