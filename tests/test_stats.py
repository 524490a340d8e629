import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from uncloneq.linalg import make_rng
from uncloneq.stats import ERLANG_MAX_CONSTANT, max_over_sum_estimate

from oracles import ErlangParams, NegativeX, erlang_cdf


class TestCdf:
    def test_at_zero(self):
        assert erlang_cdf(ErlangParams(3, 2.0), 0.0) == 0.0

    def test_exponential_median(self):
        assert abs(erlang_cdf(ErlangParams(1, 1.0), math.log(2)) - 0.5) < 1e-15

    def test_saturates(self):
        assert abs(erlang_cdf(ErlangParams(1, 1.0), 50.0) - 1.0) < 1e-20

    def test_nondecreasing_and_bounded(self):
        p = ErlangParams(4, 1.5)
        vals = [erlang_cdf(p, x) for x in np.linspace(0, 20, 200)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("k", [1, 3, 200])
    @pytest.mark.parametrize("x", [1e200, math.inf])
    def test_huge_x_is_one(self, k, x):
        # the tail's terms overflow and exp(-x) underflows; their product is no nan
        assert erlang_cdf(ErlangParams(k, 1.0), x) == 1.0

    @pytest.mark.parametrize("k, x", [(1000, 800.0), (1000, 1000.0), (1000, 1200.0)])
    def test_large_shape_past_underflow_matches_scipy(self, k, x):
        # exp(-x) underflows, yet the cdf of a large shape is not yet 1
        ref = sps.erlang.cdf(x, k)
        assert abs(erlang_cdf(ErlangParams(k, 1.0), x) - ref) < 1e-12

    def test_matches_scipy(self):
        for k, lam in [(2, 1.0), (4, 0.5)]:
            p = ErlangParams(k, lam)
            for x in np.linspace(0.0, 15.0, 31):
                ref = sps.erlang.cdf(x, k, scale=1.0 / lam)
                assert abs(erlang_cdf(p, float(x)) - ref) < 1e-12


class TestSampling:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            ErlangParams(0, 1.0)
        with pytest.raises(ValueError):
            ErlangParams(2, 0.0)
        for rate in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                ErlangParams(2, rate)
        # a float shape is refused, not read as an integer
        for shape in (2.0, 1.5, True):
            with pytest.raises(ValueError, match="positive integer"):
                ErlangParams(shape, 1.0)

    def test_cdf_refuses_nan(self):
        with pytest.raises(NegativeX):
            erlang_cdf(ErlangParams(2, 1.0), math.nan)


class TestMaxOverSum:
    def test_single_block_is_one(self, rng):
        assert max_over_sum_estimate([5], 100, rng) == (1.0, 0.0)

    def test_two_exponentials(self):
        mean, stderr = max_over_sum_estimate([1, 1], 100_000, make_rng(11))
        assert abs(mean - 0.75) < 0.005
        assert stderr < 0.002

    def test_scale_invariance(self):
        # Erlang draws at rates 0.5 and 7.0 give one ratio law: the unit-rate
        # estimate agrees with each rate's direct draws
        m1, s1 = max_over_sum_estimate([1] * 8, 50_000, make_rng(12))
        for rate, seed in ((0.5, 13), (7.0, 14)):
            draws = make_rng(seed).exponential(1.0 / rate, (50_000, 8))
            ratios = draws.max(axis=1) / draws.sum(axis=1)
            m2, s2 = ratios.mean(), ratios.std(ddof=1) / math.sqrt(len(ratios))
            assert abs(m1 - m2) < 3 * (s1 + s2)

    def test_heterogeneous_shapes(self):
        # the big block dominates: ratio concentrates near its share
        mean, _ = max_over_sum_estimate([50, 1, 1], 20_000, make_rng(14))
        assert 0.8 < mean < 1.0

    @pytest.mark.parametrize("n", [4, 16, 64, 256, 1024])
    def test_logarithmic_lower_bound(self, n):
        mean, stderr = max_over_sum_estimate([1] * n, 100_000, make_rng(n))
        bound = ERLANG_MAX_CONSTANT * math.log2(n) / n
        assert mean >= bound - 3 * stderr

    def test_unit_shapes_match_direct_ratio(self):
        # each lane draws its share of the rows from its own spawned stream and
        # adds its ratios one after another; the lanes' sums are added in lane
        # order.  The draws are unit-rate
        n, trials = 6, 1000
        mean, stderr = max_over_sum_estimate([1] * n, trials, make_rng(15))
        acc = acc_sq = 0.0
        for gen in make_rng(15).spawn(2):
            block = gen.standard_exponential((trials // 2, n))
            ratios = block.max(axis=1) / block.sum(axis=1)
            acc += float(np.cumsum(ratios)[-1])
            acc_sq += float(np.cumsum(ratios * ratios)[-1])
        want = acc / trials
        var = (acc_sq - trials * want * want) / (trials - 1)
        assert mean == want
        assert stderr == math.sqrt(var / trials)

    @pytest.mark.parametrize("n", [4, 64, 1024])
    def test_unit_shapes_match_exact_mean(self, n):
        # the normalized draws are independent of their sum, so the mean of
        # max/sum over n unit exponentials is E[max]/E[sum] = H_n / n
        mean, stderr = max_over_sum_estimate([1] * n, 20_000, make_rng(16))
        exact = sum(1.0 / k for k in range(1, n + 1)) / n
        assert abs(mean - exact) <= 4 * stderr

    def test_memory_is_one_block(self, rng):
        # one chunk of 2**16 entries (512 KB) per lane, not 16000 x 1024 draws
        tracemalloc.start()
        try:
            max_over_sum_estimate([1] * 1024, 16000, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_input_validation(self, rng):
        with pytest.raises(ValueError):
            max_over_sum_estimate([], 10, rng)
        with pytest.raises(ValueError):
            max_over_sum_estimate([1, 0], 10, rng)
        with pytest.raises(ValueError):
            max_over_sum_estimate([1], 0, rng)
        # non-integers are refused, not truncated
        with pytest.raises(ValueError, match="positive integers"):
            max_over_sum_estimate([1.7, 1], 10, rng)
        with pytest.raises(ValueError, match="integer"):
            max_over_sum_estimate([1, 1], 2.5, rng)


def test_explicit_constant_value():
    # (1 - 1/e - 1/2) / (2 log2 e), quoted rounded as 0.0457
    assert abs(ERLANG_MAX_CONSTANT - 0.0457) < 2e-4
    assert ERLANG_MAX_CONSTANT > 0.0457


@given(
    k=st.integers(min_value=1, max_value=12),
    lam=st.floats(min_value=0.05, max_value=20.0),
    x=st.floats(min_value=0.0, max_value=200.0),
)
@settings(max_examples=200, deadline=None)
def test_pdf_nonnegative_cdf_bounded(k, lam, x):
    p = ErlangParams(k, lam)
    c = erlang_cdf(p, x)
    assert -1e-15 <= c <= 1.0 + 1e-15


@given(
    k=st.integers(min_value=1, max_value=8),
    lam=st.floats(min_value=0.1, max_value=5.0),
    x=st.floats(min_value=0.0, max_value=30.0),
    dx=st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=200, deadline=None)
def test_cdf_monotone(k, lam, x, dx):
    p = ErlangParams(k, lam)
    assert erlang_cdf(p, x + dx) >= erlang_cdf(p, x) - 1e-12
