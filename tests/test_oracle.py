import math

import mpmath as mp
import numpy as np
import pytest

from tdlinnik import (
    DomainError,
    InsufficientSample,
    NegativeBinomialParams,
    PoissonParams,
    SibuyaParams,
    SingularComposition,
    TdlParams,
    TdsParams,
    UnknownLaw,
    UnsupportedOuterFunction,
    chi_square_gof,
    empirical_pgf,
    sample_batch,
    series_binomial_power,
    series_compose_outer,
    series_pmf,
)
from tdlinnik.analytic import PmfTable
from tdlinnik.oracle import ORACLE_DPS, TruncatedSeries, _chi2_sf
from tdlinnik.sampler import SampleBatch


def geometric_pmf(pi, kmax):
    return np.array([(1 - pi) * pi**k for k in range(kmax + 1)])


def poisson_pmf(lam, kmax):
    return np.array([math.exp(-lam) * lam**k / math.factorial(k) for k in range(kmax + 1)])


class TestSeriesBasics:
    def test_binomial_power_damping_zero(self):
        s = series_binomial_power(0.0, 0.7, 5)
        assert s.to_floats() == pytest.approx([1, 0, 0, 0, 0, 0], abs=0)

    def test_binomial_power_linear_case(self):
        s = series_binomial_power(0.3, 1.0, 4)
        assert s.to_floats() == pytest.approx([1.0, -0.3, 0.0, 0.0, 0.0], abs=1e-40)

    def test_binomial_power_half(self):
        s = series_binomial_power(1.0, 0.5, 3)
        assert float(s.coeffs[2]) == pytest.approx(-1 / 8, rel=1e-15, abs=0)

    def test_order_carries_minimum(self):
        a = series_binomial_power(0.5, 0.5, 6)
        b = series_binomial_power(0.5, 0.3, 3)
        assert (a + b).order == 3

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            series_binomial_power(1.5, 0.5, 3)
        with pytest.raises(DomainError):
            series_binomial_power(0.5, 0.5, -1)


class TestComposeOuter:
    def test_exp_of_zero_series(self):
        zero = TruncatedSeries(tuple(map(float, [0, 0, 0, 0])))
        out = series_compose_outer(zero, "exp")
        assert out.to_floats() == pytest.approx([1, 0, 0, 0], abs=0)

    def test_power_minus_one_is_geometric(self):
        inner = TruncatedSeries((1.5, -0.5, 0.0, 0.0, 0.0))
        out = series_compose_outer(inner, ("power", -1.0)).to_floats()
        want = (2 / 3) * (1 / 3) ** np.arange(5)
        assert out == pytest.approx(want, rel=1e-14, abs=0)

    def test_exp_of_tds_inner_at_a_one_is_poisson(self):
        # a = 1, b = 2, c = 1/2 collapses the tempered discrete stable to
        # Poisson(b c) = Poisson(1)
        p = TdsParams(1.0, 2.0, 0.5)
        out = series_pmf("tds", p, 12)
        assert out.p == pytest.approx(poisson_pmf(1.0, 12), rel=1e-12, abs=0)

    def test_power_then_inverse_power_roundtrip(self):
        for d in (0.5, 1.0, 4.0):
            inner = TruncatedSeries(tuple(1.7 * 0.4**k * (-1) ** k for k in range(12)))
            once = series_compose_outer(inner, ("power", -1.0 / d))
            back = series_compose_outer(once, ("power", -d))
            assert back.to_floats() == pytest.approx(inner.to_floats(), rel=1e-12, abs=0)

    @pytest.mark.parametrize("outer", ["exp", ("power", -1.0 / 0.3), ("power", 2.5)])
    def test_matches_naive_miller_loop_at_order_60(self, outer):
        inner = series_binomial_power(0.95, -1.5, 60)
        with mp.workdps(ORACLE_DPS):
            u = inner.scaled(-0.3).shifted_constant(1 + 0.3 * mp.mpf(0.05) ** -1.5)
            a = u.coeffs
            if outer == "exp":
                b = [mp.e ** a[0]]
                for n in range(1, 61):
                    acc = mp.mpf(0)
                    for j in range(1, n + 1):
                        acc += j * a[j] * b[n - j]
                    b.append(acc / n)
            else:
                p = mp.mpf(outer[1])
                b = [a[0] ** p]
                for n in range(1, 61):
                    acc = mp.mpf(0)
                    for j in range(1, n + 1):
                        acc += (j * (p + 1) - n) * a[j] * b[n - j]
                    b.append(acc / (n * a[0]))
            got = series_compose_outer(u, outer).coeffs
            assert max(abs(x - y) / abs(y) for x, y in zip(got, b)) <= mp.mpf("1e-35")

    def test_singular_constant_term(self):
        inner = TruncatedSeries((0.0, 1.0, 0.5))
        with pytest.raises(SingularComposition):
            series_compose_outer(inner, ("power", -0.5))

    def test_unknown_outer(self):
        inner = TruncatedSeries((1.0, 0.5))
        with pytest.raises(UnsupportedOuterFunction):
            series_compose_outer(inner, "log")


class TestSeriesPmf:
    def test_tdl_geometric_case(self):
        p = TdlParams(1.0, 1.0, 0.5, 1.0)
        table = series_pmf("tdl", p, 10)
        assert table.p == pytest.approx(geometric_pmf(1 / 3, 10), rel=1e-13, abs=0)

    def test_degenerate_tdl(self):
        table = series_pmf("tdl", TdlParams(0.0, 1.0, 0.5, 1.0), 5)
        assert table.p == pytest.approx([1, 0, 0, 0, 0, 0], abs=0)
        assert table.tail_mass == 0.0

    @pytest.mark.parametrize("law, params", [
        ("tdl", TdlParams(0.5, 1.0, 0.0, 1.0)),
        ("tdl", TdlParams(-1.0, 1e45, 0.0, 1.0)),  # 1 - b d is inexact at 40 digits
        ("tdl", TdlParams(0.5, 1e300, 0.0, 1e-5)),
        ("tdl", TdlParams(-1.0, 1e-30, 0.0, 1e-30)),
        ("tds", TdsParams(0.5, 1e45, 0.0)),
        ("tds", TdsParams(0.0, 2.0, 0.5)),
    ])
    def test_point_mass_series_is_exact(self, law, params):
        # the series itself is the point mass at a = 0 or c = 0, at any scale
        table = series_pmf(law, params, 8)
        assert table.p.tolist() == [1.0] + [0.0] * 8
        assert table.tail_mass == 0.0

    def test_d_zero_routes_to_tds(self):
        p = TdlParams(0.5, 1.0, 0.5, 0.0)
        a = series_pmf("tdl", p, 15)
        b = series_pmf("tds", TdsParams(0.5, 1.0, 0.5), 15)
        assert a.p == pytest.approx(b.p, abs=0)

    def test_nb_series_matches_recurrence(self):
        p = NegativeBinomialParams(0.4, 2.5)
        table = series_pmf("nb", p, 20)
        want = [(1 - p.pi) ** p.delta]
        for k in range(20):
            want.append(want[-1] * p.pi * (p.delta + k) / (k + 1))
        assert table.p == pytest.approx(want, rel=1e-13, abs=0)

    def test_sibuya_series_matches_recurrence(self):
        table = series_pmf("sibuya", SibuyaParams(0.5), 15)
        want = [0.0, 0.5]
        for k in range(1, 15):
            want.append(want[-1] * (k - 0.5) / (k + 1))
        assert table.p == pytest.approx(want, rel=1e-13, abs=0)
        assert table.p[1] == pytest.approx(0.5)
        assert table.p[2] == pytest.approx(0.125)

    def test_poisson_series(self):
        table = series_pmf("poisson", PoissonParams(3.0), 25)
        assert table.p == pytest.approx(poisson_pmf(3.0, 25), rel=1e-12, abs=0)

    def test_order_cap(self):
        with pytest.raises(DomainError):
            series_pmf("poisson", PoissonParams(1.0), 201)

    def test_unknown_law(self):
        with pytest.raises(UnknownLaw):
            series_pmf("zeta", PoissonParams(1.0), 5)


class TestChiSquareGof:
    def test_degenerate_match_has_zero_statistic(self):
        pmf = PmfTable(
            law="poisson", params=None, kmax=3,
            p=np.array([1.0, 0.0, 0.0, 0.0]), tail_mass=0.0,
        )
        batch = SampleBatch(
            law="poisson", params=None, n=2000,
            values=np.zeros(2000, dtype=np.int64), seed=0,
        )
        report = chi_square_gof(batch, pmf)
        assert report.statistic == 0.0
        assert report.dof == 1
        assert report.p_value == 1.0

    def test_exact_sampling_passes(self):
        p = PoissonParams(4.0)
        pmf = series_pmf("poisson", p, 40)
        for seed in (1, 2, 3, 4, 5):
            batch = sample_batch("poisson", p, 20000, seed)
            report = chi_square_gof(batch, pmf)
            assert report.p_value > 0.001, seed

    def test_wrong_law_fails(self):
        pmf = series_pmf("poisson", PoissonParams(4.0), 40)
        batch = sample_batch("poisson", PoissonParams(5.0), 20000, 7)
        assert chi_square_gof(batch, pmf).p_value < 1e-6

    def test_pooling_respects_min_expected(self):
        pmf = series_pmf("poisson", PoissonParams(4.0), 40)
        batch = sample_batch("poisson", PoissonParams(4.0), 2000, 11)
        report = chi_square_gof(batch, pmf)
        expected = batch.n * pmf.p
        for lo, hi in report.bins:
            if hi == -1:
                e = expected[lo:].sum() + batch.n * pmf.tail_mass
            else:
                e = expected[lo : hi + 1].sum()
            assert e >= 5.0 - 1e-9

    def test_insufficient_sample(self):
        pmf = series_pmf("poisson", PoissonParams(4.0), 10)
        batch = sample_batch("poisson", PoissonParams(4.0), 100, 1)
        with pytest.raises(InsufficientSample):
            chi_square_gof(batch, pmf)


class TestChiSquareTail:
    """The p-value tail is mpmath's regularized upper incomplete gamma."""

    XS = [0.0] + list(np.geomspace(1e-6, 200.0, 80))

    @pytest.mark.parametrize(
        "dof, closed",
        [
            (2, lambda x: math.exp(-x / 2)),
            (4, lambda x: math.exp(-x / 2) * (1 + x / 2)),
        ],
    )
    def test_closed_forms(self, dof, closed):
        for x in self.XS:
            assert _chi2_sf(x, dof) == pytest.approx(closed(x), rel=1e-12, abs=0), x

    def test_zero_statistic_is_exactly_one(self):
        for dof in range(1, 50):
            assert _chi2_sf(0.0, dof) == 1.0


class TestEmpiricalPgf:
    def test_s_one_is_exact(self):
        batch = sample_batch("poisson", PoissonParams(2.0), 5000, 3)
        est, se = empirical_pgf(batch, 1.0)
        assert (est, se) == (1.0, 0.0)

    def test_s_zero_is_zero_frequency(self):
        batch = sample_batch("poisson", PoissonParams(2.0), 5000, 3)
        est, _ = empirical_pgf(batch, 0.0)
        assert est == pytest.approx((batch.values == 0).mean(), abs=0)

    def test_matches_analytic_pgf(self):
        from tdlinnik.analytic import tdl_pgf

        p = TdlParams(0.5, 1.0, 0.5, 1.0)
        batch = sample_batch("tdl", p, 50000, 12)
        est, se = empirical_pgf(batch, 0.5)
        assert abs(est - tdl_pgf(p, 0.5)) < 4 * se
