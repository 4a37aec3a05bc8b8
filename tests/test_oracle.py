import decimal
import math
from decimal import Decimal

import mpmath as mp
import numpy as np
import pytest

from tdlinnik import (
    DomainError,
    GdsSibuyaParams,
    InsufficientSample,
    LinnikParams,
    NegativeBinomialParams,
    PoissonParams,
    SibuyaParams,
    SingularComposition,
    StableParams,
    TdlParams,
    TdsParams,
    UnknownLaw,
    chi_square_gof,
    empirical_pgf,
    sample_batch,
    series_binomial_power,
    series_compose_outer,
    series_pmf,
)
from tdlinnik import oracle
from tdlinnik.analytic import PmfTable
from tdlinnik.oracle import ORACLE_DPS, _chi2_sf
from tdlinnik.sampler import SampleBatch


def geometric_pmf(pi, kmax):
    return np.array([(1 - pi) * pi**k for k in range(kmax + 1)])


def poisson_pmf(lam, kmax):
    return np.array([math.exp(-lam) * lam**k / math.factorial(k) for k in range(kmax + 1)])


def mp_miller(a, power, order):
    """Miller's recurrence for the power ``power`` (exp where None) of the mpf
    series ``a``, in mpmath at the ambient working precision, each inner sum
    one mp.fdot."""
    if power is None:
        b = [mp.e ** a[0]]
        for n in range(1, order + 1):
            b.append(mp.fdot([j * a[j] for j in range(1, n + 1)], b[::-1]) / n)
        return b
    p = mp.mpf(power)
    b = [a[0] ** p]
    for n in range(1, order + 1):
        terms = [(j * (p + 1) - n) * a[j] for j in range(1, n + 1)]
        b.append(mp.fdot(terms, b[::-1]) / (n * a[0]))
    return b


def mp_binomial_power(c, a, order):
    """Taylor coefficients binom(a, k) (-c)^k of (1 - c s)^a in mpmath."""
    out = [mp.mpf(1)]
    for k in range(order):
        out.append(out[-1] * -mp.mpf(c) * (mp.mpf(a) - k) / (k + 1))
    return out


def scaled_shifted(coeffs, factor, constant):
    """The coefficients times ``factor``, plus ``constant`` on the 0th, at
    the ambient decimal precision."""
    u = [Decimal(factor) * x for x in coeffs]
    u[0] += constant
    return u


class TestSeriesBasics:
    def test_binomial_power_damping_zero(self):
        s = series_binomial_power(0.0, 0.7, 5)
        assert list(map(float, s)) == pytest.approx([1, 0, 0, 0, 0, 0], abs=0)

    def test_binomial_power_linear_case(self):
        s = series_binomial_power(0.3, 1.0, 4)
        assert list(map(float, s)) == pytest.approx([1.0, -0.3, 0.0, 0.0, 0.0], abs=1e-40)

    def test_binomial_power_half(self):
        s = series_binomial_power(1.0, 0.5, 3)
        assert float(s[2]) == pytest.approx(-1 / 8, rel=1e-15, abs=0)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            series_binomial_power(1.5, 0.5, 3)
        with pytest.raises(DomainError):
            series_binomial_power(0.5, 0.5, -1)


class TestComposeOuter:
    def test_exp_of_zero_series(self):
        out = series_compose_outer([0.0, 0.0, 0.0, 0.0])
        assert list(map(float, out)) == pytest.approx([1, 0, 0, 0], abs=0)

    def test_power_minus_one_is_geometric(self):
        out = list(map(float, series_compose_outer((1.5, -0.5, 0.0, 0.0, 0.0), -1.0)))
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
            inner = [1.7 * 0.4**k * (-1) ** k for k in range(12)]
            once = series_compose_outer(inner, -1.0 / d)
            back = series_compose_outer(once, -d)
            assert list(map(float, back)) == pytest.approx(inner, rel=1e-12, abs=0)

    @pytest.mark.parametrize("power", [None, -1.0 / 0.3, 2.5], ids=["exp", "outer1", "outer2"])
    def test_matches_naive_miller_loop_at_order_60(self, power):
        inner = series_binomial_power(0.95, -1.5, 60)
        with decimal.localcontext(decimal.Context(prec=ORACLE_DPS)):
            c0 = 1 + Decimal(0.3) * Decimal(0.05) ** Decimal(-1.5)
            a = u = scaled_shifted(inner, -0.3, c0)
            if power is None:
                b = [a[0].exp()]
                for n in range(1, 61):
                    acc = Decimal(0)
                    for j in range(1, n + 1):
                        acc += j * a[j] * b[n - j]
                    b.append(acc / n)
            else:
                p = Decimal(power)
                b = [a[0] ** p]
                for n in range(1, 61):
                    acc = Decimal(0)
                    for j in range(1, n + 1):
                        acc += (j * (p + 1) - n) * a[j] * b[n - j]
                    b.append(acc / (n * a[0]))
            got = series_compose_outer(u, power)
            assert max(abs(x - y) / abs(y) for x, y in zip(got, b)) <= Decimal("1e-35")

    @pytest.mark.parametrize("order", [60, 200])
    @pytest.mark.parametrize("power", [None, -1.0 / 0.3, 2.5], ids=["exp", "outer1", "outer2"])
    def test_matches_an_mpmath_miller_recurrence(self, power, order):
        # the same expansion in a second arbitrary-precision engine (binary
        # mpmath at 40 digits, inner sums by mp.fdot), built from the floats
        with mp.workdps(ORACLE_DPS):
            a = [-0.3 * x for x in mp_binomial_power(0.95, -1.5, order)]
            a[0] += 1 + 0.3 * mp.mpf(0.05) ** -1.5
            b = mp_miller(a, power, order)
        with decimal.localcontext(decimal.Context(prec=ORACLE_DPS)):
            c0 = 1 + Decimal(0.3) * Decimal(0.05) ** Decimal(-1.5)
            u = scaled_shifted(series_binomial_power(0.95, -1.5, order), -0.3, c0)
        got = series_compose_outer(u, power)
        with mp.workdps(ORACLE_DPS):
            got = [mp.mpf(str(x)) for x in got]
            assert max(abs(x - y) / abs(y) for x, y in zip(got, b)) <= mp.mpf("1e-35")

    def test_inner_sums_have_exact_products(self):
        # (1 + 1e-39)^2 - (1 + 2e-39) = 1e-78 exactly; products rounded to
        # 40 digits would cancel to 0
        with decimal.localcontext(decimal.Context(prec=ORACLE_DPS)):
            x, y = 1 + Decimal("1e-39"), 1 + Decimal("2e-39")
            assert oracle._dot([x, -1], [x, y]) == Decimal("1e-78")

    def test_singular_constant_term(self):
        with pytest.raises(SingularComposition):
            series_compose_outer((0.0, 1.0, 0.5), -0.5)

    def test_ignores_a_low_ambient_precision(self):
        # the composition keeps its own 40 digits: at an ambient 15 the
        # coefficients would differ from the 16th digit on
        inner = [1.7 * 0.4**k * (-1) ** k for k in range(12)]
        want = series_compose_outer(inner, -1.0 / 0.3)
        with decimal.localcontext(decimal.Context(prec=15)):
            got = series_compose_outer(inner, -1.0 / 0.3)
        assert list(map(str, got)) == list(map(str, want))


class TestSeriesPmf:
    @pytest.mark.parametrize("law, params", [
        ("tdl", TdlParams(-0.5, 2.0, 0.9, 0.3)),
        ("tds", TdsParams(0.75, 0.3, 0.1)),
        ("nb", NegativeBinomialParams(0.4, 3.0)),
    ])
    def test_ignores_a_low_ambient_precision(self, law, params):
        # series_pmf sets the oracle's 40 digits once for the whole
        # expansion, the family coordinates included
        want = series_pmf(law, params, 60).p
        with decimal.localcontext(decimal.Context(prec=15)):
            got = series_pmf(law, params, 60).p
        assert got.tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("law, params", [
        ("tdl", TdlParams(-1.5, 1.0, 0.9, 4.0)),
        ("tds", TdsParams(0.5, 2.7, 0.5)),
        ("dl", LinnikParams(0.5, 1.0, 0.25)),
        ("ds", StableParams(0.5, 2.7)),
        ("nb", NegativeBinomialParams(0.9, 0.3)),
        ("sibuya", SibuyaParams(0.25)),
        ("gds", GdsSibuyaParams(0.5, 0.9)),
        ("poisson", PoissonParams(40.0)),
    ])
    def test_40_digits_give_the_80_digit_table(self, law, params, monkeypatch):
        # at the top order, every double of the 40-digit table is the 80-digit
        # value rounded; the ambient 80 digits also cover any arithmetic a
        # builder might do outside the oracle's precision
        at_40 = series_pmf(law, params, oracle.MAX_SERIES_ORDER)
        monkeypatch.setattr(oracle, "ORACLE_DPS", 80)
        with mp.workdps(80):
            at_80 = series_pmf(law, params, oracle.MAX_SERIES_ORDER)
        assert at_40.p.tolist() == at_80.p.tolist()

    @pytest.mark.parametrize("d", [0.1, 0.3, 0.7, 1.3])
    def test_tdl_outer_exponent_is_exact(self, d):
        # the exponent is -1/d itself, not the double -1.0/d: every double of
        # the table is the expansion with -1/d taken at 60 digits, rounded
        for a, b, c in [(-1.5, 0.7, 0.6), (-0.5, 2.0, 0.3), (0.25, 1.0, 0.9),
                        (0.5, 2.7, 0.5), (1.0, 1.5, 0.4)]:
            got = series_pmf("tdl", TdlParams(a, b, c, d), 100).p
            with mp.workdps(60):
                beta = mp.mpf(math.copysign(b, a)) * d
                u = [beta * x for x in mp_binomial_power(c, a, 100)]
                u[0] += 1 - beta * (1 - mp.mpf(c)) ** a
                want = mp_miller(u, mp.mpf(-1) / d, 100)
                for g, w in zip(got, want):
                    f = float(w)
                    if g != f:  # allowed only at a round-half tie of two adjacent doubles
                        assert math.nextafter(g, f) == f, (a, b, c, g, f)
                        assert abs(w - (mp.mpf(g) + f) / 2) <= abs(w) * mp.mpf("1e-35")

    def test_nb_series_matches_recurrence(self):
        p = NegativeBinomialParams(0.4, 2.5)
        table = series_pmf("nb", p, 200)
        with mp.workdps(50):
            want = [(1 - mp.mpf(p.pi)) ** p.delta]
            for k in range(200):
                want.append(want[-1] * p.pi * (p.delta + k) / (k + 1))
        assert table.p == pytest.approx([float(w) for w in want], rel=1e-15, abs=0)

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

    @pytest.mark.parametrize("lam", [3.0, 40.0])
    def test_poisson_series_matches_recurrence_at_order_200(self, lam):
        table = series_pmf("poisson", PoissonParams(lam), 200)
        with mp.workdps(50):
            want = [mp.exp(-mp.mpf(lam))]
            for k in range(200):
                want.append(want[-1] * lam / (k + 1))
        assert table.p == pytest.approx([float(w) for w in want], rel=1e-15, abs=0)

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
    """The p-value tail is the regularized upper incomplete gamma Q(dof/2, x/2)
    in double precision, checked against closed forms and mpmath's."""

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

    def test_non_finite_statistics(self):
        assert _chi2_sf(math.inf, 3) == 0.0
        assert math.isnan(_chi2_sf(math.nan, 3))

    @pytest.mark.parametrize("dof", [*range(1, 61), 99, 100, 199, 400, 1001])
    def test_matches_mpmath_gammainc(self, dof):
        # both sides of the series / continued-fraction switch at x = dof + 2
        near = [dof * (1 - 1e-3), dof - 1, dof, dof + 1, dof + 2, dof + 2.5, dof * (1 + 1e-3)]
        for x in [*np.geomspace(1e-6, 3000.0, 60), *(v for v in near if v > 0)]:
            want = float(mp.gammainc(dof / 2, x / 2, regularized=True))
            if want >= 1e-300:
                assert _chi2_sf(x, dof) == pytest.approx(want, rel=1e-12, abs=0), x


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
