import math

import pytest

from proxyssl.numerics import Rng
from proxyssl.stats import paired_t_test, t_two_tailed_p


def quad_incomplete_beta(a, b, x, h=1.0 / 64, u_max=4.0):
    """Tanh-sinh quadrature of the beta integrand over (0, x).

    An oracle independent of the closed-form series in ``t_two_tailed_p``; the
    double-exponential node spacing absorbs the integrable endpoint
    singularity when a < 1.
    """
    if x == 0.0:
        return 0.0
    total = 0.0
    k = -int(u_max / h)
    while k * h <= u_max:
        u = k * h
        y = 0.5 * math.pi * math.sinh(u)
        one_plus_s = 2.0 / (1.0 + math.exp(-2.0 * y))  # 1 + tanh(y), stable
        t = 0.5 * x * one_plus_s
        w = 0.5 * math.pi * math.cosh(u) / math.cosh(y) ** 2
        if 0.0 < t < 1.0:
            total += w * t ** (a - 1.0) * (1.0 - t) ** (b - 1.0)
        k += 1
    integral = total * h * 0.5 * x
    norm = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    return integral / norm


class TestTTailProbability:
    def test_t_zero_gives_p_one(self):
        assert t_two_tailed_p(0.0, 4) == 1.0

    def test_published_critical_values(self):
        # classic two-tailed critical points of the t table
        for t, df, p in [
            (2.131847, 4, 0.10),
            (2.776445, 4, 0.05),
            (1.761310, 14, 0.10),
            (2.144787, 14, 0.05),
            (1.812461, 10, 0.10),
        ]:
            assert abs(t_two_tailed_p(t, df) - p) < 1e-5

    def test_symmetric_in_t(self):
        assert t_two_tailed_p(2.5, 6) == t_two_tailed_p(-2.5, 6)

    def test_infinite_t(self):
        assert t_two_tailed_p(math.inf, 3) == 0.0

    def test_against_quadrature_oracle(self):
        # P(|T_df| >= t) = I_x(df/2, 1/2) at x = df / (df + t^2)
        for df in (1, 2, 3, 7, 14, 29):
            for t in (1e-4, 0.3, 1.7, 4.0, 11.0):
                got = t_two_tailed_p(t, df)
                want = quad_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))
                assert abs(got - want) < 1e-8, (df, t, got, want)

    def test_analytic_low_df(self):
        for t in (0.0, 1e-4, 0.3, -1.7, 4.0, 11.0, 1e6):
            assert abs(t_two_tailed_p(t, 1) - (1.0 - 2.0 * math.atan(abs(t)) / math.pi)) < 1e-14
            assert abs(t_two_tailed_p(t, 2) - (1.0 - abs(t) / math.sqrt(2.0 + t * t))) < 1e-14

    @pytest.mark.parametrize("df", [2.5, 0])
    def test_df_not_a_positive_integer_rejected(self, df):
        with pytest.raises(ValueError, match="degrees of freedom"):
            t_two_tailed_p(1.0, df)


class TestPairedTTest:
    def test_equal_vectors_not_significant(self):
        a = [1.0, 2.0, 3.0, 4.0]
        res = paired_t_test(a, a)
        assert res.t_stat == 0.0
        assert not res.significant
        assert res.direction == 0

    def test_constant_shift_is_degenerate_significant(self):
        a = [5.0, 6.0, 7.0]
        b = [4.0, 5.0, 6.0]
        res = paired_t_test(a, b)
        assert res.significant and res.degenerate
        assert res.direction == 1
        assert math.isinf(res.t_stat)

    def test_hand_computed_t(self):
        # differences (0.5, 1.5, 1.0, 0.8, 1.2): mean 1.0, var 0.145
        # t = mean / sqrt(var/n) = sqrt(5 / 0.145)
        b = [10.0, 10.0, 10.0, 10.0, 10.0]
        a = [10.5, 11.5, 11.0, 10.8, 11.2]
        res = paired_t_test(a, b)
        assert abs(res.t_stat - 5.872202195147034) < 1e-6
        assert res.significant and res.direction == 1

    def test_direction_flips_on_swap(self):
        rng = Rng(92)
        a = list(rng.uniform(0, 1, 15) + 0.3)
        b = list(rng.uniform(0, 1, 15))
        fwd = paired_t_test(a, b)
        rev = paired_t_test(b, a)
        assert fwd.t_stat == -rev.t_stat
        assert fwd.significant == rev.significant
        assert fwd.direction == -rev.direction

    def test_pairing_invariance_under_shared_permutation(self):
        rng = Rng(93)
        a = list(rng.uniform(0, 1, 12))
        b = list(rng.uniform(0, 1, 12))
        perm = rng.permutation(12)
        base = paired_t_test(a, b)
        shuf = paired_t_test([a[i] for i in perm], [b[i] for i in perm])
        assert abs(base.t_stat - shuf.t_stat) < 1e-12
        assert base.significant == shuf.significant

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0, 2.0], [1.0])

    def test_single_pair_rejected(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [0.5])

    def test_null_false_positive_rate(self):
        # quick version of the null simulation; the acceptance suite runs
        # the full 1000-trial variant
        rng = Rng(94)
        hits = 0
        trials = 300
        for _ in range(trials):
            a = rng.normal(0.0, 1.0, 15)
            b = rng.normal(0.0, 1.0, 15)
            if paired_t_test(list(a), list(b)).significant:
                hits += 1
        assert 0.04 < hits / trials < 0.16
