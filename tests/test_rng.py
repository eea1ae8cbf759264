import math

import numpy as np
import pytest

from dpvideo import rng
from oracles import inverse_normal_cdf

TOP_WORD = (1 << 53) - 1
EXP_M2 = 0.13533528323661269189  # exp(-2), where ndtri leaves its central branch


def assert_bitwise(actual, expected):
    actual, expected = np.asarray(actual, dtype=np.float64), np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    differ = np.flatnonzero(actual.view(np.uint64) != expected.view(np.uint64))
    assert differ.size == 0, f"{differ.size} of {actual.size} differ, first at index {differ[:5]}"


def ulps_around(center: float, count: int) -> np.ndarray:
    """The 2*count+1 consecutive doubles centred on a positive center."""
    return (np.float64(center).view(np.int64) + np.arange(-count, count + 1)).view(np.float64)


@pytest.mark.parametrize("u", [
    rng.uniforms(np.arange(0, 10**5, dtype=np.uint64)),  # the lower tail, P2/Q2 below word 114
    rng.uniforms(np.arange(TOP_WORD - 10**5 + 1, TOP_WORD + 1, dtype=np.uint64)),  # the upper tail
    ulps_around(EXP_M2, 2000),
    ulps_around(1.0 - EXP_M2, 2000),
    np.array([0.5]),
    rng.uniforms(np.random.default_rng(20).integers(0, 1 << 53, size=10**6, dtype=np.uint64)),
], ids=["low_words", "top_words", "around_exp_m2", "around_1_minus_exp_m2", "half", "random_words"])
def test_ndtri_is_scipys_bit_for_bit(u):
    assert_bitwise(rng.ndtri(u), inverse_normal_cdf(u))


def test_the_low_words_reach_every_tail_branch():
    x = np.sqrt(-2.0 * np.log(rng.uniforms(np.array([0, 113, 114, 10**5], dtype=np.uint64))))
    assert list(x >= 8.0) == [True, True, False, False]


@pytest.mark.parametrize("seed, step, n", [(0, 0, 1), (7, 3, 1000), (2**64 - 1, 2**48 - 1, 20000)])
def test_standard_normal_is_ndtri_of_its_uniforms(seed, step, n):
    words = rng.stream(seed, rng.NOISE, step).integers(0, 1 << 53, size=n, dtype=np.uint64)
    u = np.minimum((words.astype(np.float64) + 0.5) / 2.0**53, math.nextafter(1.0, 0.0))
    assert_bitwise(rng.standard_normal(seed, rng.NOISE, step, n), inverse_normal_cdf(u))


def test_the_top_word_draws_a_finite_value():
    assert (float(TOP_WORD) + 0.5) * 2.0**-53 == 1.0  # the sum rounds up to 2**53
    u = rng.uniforms(np.array([TOP_WORD], dtype=np.uint64))
    assert u[0] == 1.0 - 2.0**-53
    draw = rng.ndtri(u)[0]
    assert math.isfinite(draw)
    assert draw == inverse_normal_cdf(1.0 - 2.0**-53) == pytest.approx(8.2095, abs=1e-4)


def test_uniforms_below_two_to_the_52_are_exact_midpoints():
    words = np.array([0, 1, 12345, (1 << 52) - 1], dtype=np.uint64)
    assert rng.uniforms(words).tolist() == [(int(w) + 0.5) / 2**53 for w in words]
