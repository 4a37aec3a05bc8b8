import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tdlinnik import (
    DomainError,
    GammaParams,
    GdsSibuyaParams,
    LinnikParams,
    NegativeBinomialParams,
    PoissonParams,
    SibuyaParams,
    StableParams,
    TdlParams,
    TdsParams,
    TemperedLinnikParams,
    TemperedStableParams,
    UnknownLaw,
    build_pmf_table,
    build_table,
    family_laplace,
    family_pgf,
    general_pmf_coefficient_form,
    moments_from_pmf,
    series_pmf,
    tdl_moments,
    tdl_pgf,
    tdl_pmf,
    tds_pgf,
    tds_pmf,
)
from tdlinnik.analytic import _panjer, _panjer_stop

S_GRID = [i / 20 for i in range(21)]


def nb_pmf_ref(pi, delta, kmax):
    out = [(1 - pi) ** delta]
    for k in range(kmax):
        out.append(out[-1] * pi * (delta + k) / (k + 1))
    return np.array(out)


def poisson_pmf_ref(lam, kmax):
    return np.array(
        [math.exp(-lam) * lam**k / math.factorial(k) for k in range(kmax + 1)]
    )


valid_tdl_points = st.tuples(
    st.sampled_from([-2.0, -1.0, -0.5, 0.25, 0.5, 0.75, 1.0]),
    st.floats(0.1, 3.0),
    st.floats(0.05, 0.95),
    st.sampled_from([0.0, 0.25, 1.0, 4.0]),
).map(lambda t: TdlParams(*t))


class TestPgfs:
    def test_normalization_at_one(self):
        for p in (
            TdlParams(0.5, 1.0, 0.5, 1.0),
            TdlParams(-2.0, 2.0, 0.9, 0.25),
            TdlParams(1.0, 0.5, 1.0, 4.0),
        ):
            assert tdl_pgf(p, 1.0) == 1.0
        assert tds_pgf(TdsParams(-1.0, 2.0, 0.3), 1.0) == 1.0

    def test_geometric_value_at_zero(self):
        assert tdl_pgf(TdlParams(1.0, 1.0, 0.5, 1.0), 0.0) == pytest.approx(
            2 / 3, abs=1e-15
        )

    def test_degenerate_is_constant_one(self):
        p = TdlParams(0.0, 1.0, 0.5, 1.0)
        assert all(tdl_pgf(p, s) == 1.0 for s in S_GRID)

    def test_d_zero_is_the_tds_pgf(self):
        # the tds law is the d = 0 member: one p.g.f. serves both records
        assert tds_pgf is tdl_pgf
        for a, b, c in ((0.5, 1.0, 0.5), (-1.5, 2.0, 0.8)):
            p = TdlParams(a, b, c, 0.0)
            for s in (0.0, 0.5, 1.0):
                want = math.exp(math.copysign(b, a) * ((1 - c) ** a - (1 - c * s) ** a))
                assert tdl_pgf(p, s) == tds_pgf(p.tds(), s)
                assert tdl_pgf(p, s) == pytest.approx(want, rel=1e-14, abs=0)

    def test_family_pgf_serves_d_zero_tdl_as_tds(self):
        p = TdlParams(0.5, 1.0, 0.5, 0.0)
        for s in (0.0, 0.5, 1.0):
            assert family_pgf("tdl", p, s) == tds_pgf(p.tds(), s)

    def test_s_outside_unit_interval_rejected(self):
        with pytest.raises(DomainError):
            tdl_pgf(TdlParams(0.5, 1.0, 0.5, 1.0), 1.5)

    def test_tds_exponential_value(self):
        # a = 1: exp(b((1-c) - 1)) = exp(-b c) at s = 0
        assert tds_pgf(TdsParams(1.0, 2.0, 0.5), 0.0) == pytest.approx(
            math.exp(-1.0), rel=1e-15, abs=0
        )

    def test_tds_untempered_limit_is_discrete_stable(self):
        for a in (0.25, 0.5, 1.0):
            p = TdsParams(a, 1.5, 1.0)
            ds = StableParams(a, 1.5)
            for s in S_GRID:
                assert tds_pgf(p, s) == pytest.approx(
                    family_pgf("ds", ds, s), abs=1e-15
                )

    @settings(max_examples=40)
    @given(p=valid_tdl_points, s=st.floats(0, 1))
    def test_pgf_lies_in_unit_interval_and_is_monotone(self, p, s):
        fn = tds_pgf if p.d == 0 else tdl_pgf
        q = p.tds() if p.d == 0 else p
        val = fn(q, s)
        assert 0.0 < val <= 1.0
        assert fn(q, min(1.0, s + 0.05)) >= val - 1e-15

    def test_family_pgf_examples(self):
        assert family_pgf("sibuya", SibuyaParams(1.0), 0.3) == pytest.approx(0.3)
        assert family_pgf("nb", NegativeBinomialParams(1 / 3, 1.0), 0.0) == pytest.approx(2 / 3)
        assert family_pgf("poisson", PoissonParams(2.0), 1.0) == 1.0
        assert family_pgf("gds", GdsSibuyaParams(1.0, 0.7), 0.0) == pytest.approx(0.3)

    def test_linnik_shape_limit_reaches_discrete_stable(self):
        dl = LinnikParams(0.5, 1.0, 1e6)
        ds = StableParams(0.5, 1.0)
        for s in S_GRID:
            assert abs(family_pgf("dl", dl, s) - family_pgf("ds", ds, s)) < 1e-5

    def test_unknown_law(self):
        with pytest.raises(UnknownLaw):
            family_pgf("cauchy", None, 0.5)


class TestLaplace:
    def test_ps_point_values(self):
        assert family_laplace("ps", StableParams(1.0, 2.0), 1.0) == pytest.approx(
            math.exp(-2.0)
        )

    def test_tps_tempering_off_reduces_to_ps(self):
        ps = StableParams(0.5, 1.5)
        tps = TemperedStableParams(0.5, 1.5, 0.0)
        for t in (0.25, 0.5, 1.0, 2.0):
            assert family_laplace("tps", tps, t) == pytest.approx(
                family_laplace("ps", ps, t), rel=1e-15, abs=0
            )

    def test_tps_is_exponential_tilt_of_ps(self):
        ps = StableParams(0.5, 1.0)
        theta = 0.8
        tps = TemperedStableParams(0.5, 1.0, theta)
        for t in (0.25, 0.5, 1.0, 2.0):
            want = family_laplace("ps", ps, theta + t) / family_laplace(
                "ps", ps, theta
            )
            assert family_laplace("tps", tps, t) == pytest.approx(want, rel=1e-14, abs=0)

    def test_tpl_shape_limit_reaches_tps(self):
        tpl = TemperedLinnikParams(-1.0, 1.0, 0.5, 1e7)
        tps = TemperedStableParams(-1.0, 1.0, 0.5)
        for t in (0.5, 1.0, 2.0):
            assert abs(
                family_laplace("tpl", tpl, t) - family_laplace("tps", tps, t)
            ) < 1e-6

    @pytest.mark.parametrize("law, p", [
        ("tps", TemperedStableParams(0.5, 1e12, 1.0)),
        ("tps", TemperedStableParams(-0.5, 1e12, 1.0)),
        ("tpl", TemperedLinnikParams(0.5, 1e12, 1.0, 2.0)),
        ("tpl", TemperedLinnikParams(-0.5, 1e12, 1.0, 2.0)),
    ])
    def test_tempered_transforms_keep_their_digits_at_a_small_t(self, law, p):
        # (theta+t)^gamma and theta^gamma agree in 10 of their digits, and
        # lam times their difference is 50
        t = 1e-10
        with mp.workdps(60):
            g, lam, theta = mp.mpf(p.gamma), mp.mpf(p.lam), mp.mpf(p.theta)
            x = mp.sign(g) * lam * ((theta + t) ** g - theta**g)
            want = mp.exp(-x) if law == "tps" else mp.exp(-p.delta * mp.log1p(x / p.delta))
        assert family_laplace(law, p, t) == pytest.approx(float(want), rel=1e-12, abs=0)

    def test_gamma_transform(self):
        assert family_laplace("gamma", GammaParams(2.0, 3.0), 0.5) == pytest.approx(
            (1 + 2 * 0.5) ** -3.0
        )

    def test_values_in_unit_interval(self):
        for law, params in (
            ("ps", StableParams(0.5, 1.0)),
            ("tps", TemperedStableParams(-2.0, 1.0, 0.5)),
            ("pl", LinnikParams(0.5, 1.0, 2.0)),
            ("tpl", TemperedLinnikParams(0.5, 1.0, 0.5, 2.0)),
            ("gamma", GammaParams(1.0, 1.0)),
        ):
            for t in (0.25, 1.0, 4.0):
                assert 0.0 < family_laplace(law, params, t) <= 1.0

    def test_nonpositive_t_rejected(self):
        with pytest.raises(DomainError):
            family_laplace("ps", StableParams(0.5, 1.0), 0.0)

    def test_unknown_law(self):
        with pytest.raises(UnknownLaw):
            family_laplace("nb", NegativeBinomialParams(0.5, 1.0), 1.0)


class TestPmfScalars:
    def test_pmf_at_zero_equals_pgf_at_zero(self):
        for p in (
            TdlParams(0.5, 1.0, 0.5, 1.0),
            TdlParams(-1.5, 2.0, 0.8, 0.25),
        ):
            assert tdl_pmf(p, 0) == pytest.approx(tdl_pgf(p, 0.0), rel=1e-14, abs=0)
        q = TdsParams(-0.5, 1.0, 0.6)
        assert tds_pmf(q, 0) == pytest.approx(tds_pgf(q, 0.0), rel=1e-14, abs=0)

    def test_geometric_reduction(self):
        p = TdlParams(1.0, 1.0, 0.5, 1.0)
        assert tdl_pmf(p, 1) == pytest.approx(2 / 9, abs=1e-16)
        table = build_table(1.0, 25)
        want = nb_pmf_ref(1 / 3, 1.0, 25)
        for k in range(26):
            assert tdl_pmf(p, k, table) == pytest.approx(want[k], abs=1e-15)

    def test_tds_poisson_reduction(self):
        q = TdsParams(1.0, 2.0, 0.5)
        want = poisson_pmf_ref(1.0, 20)
        table = build_table(1.0, 20)
        for k in range(21):
            assert tds_pmf(q, k, table) == pytest.approx(want[k], rel=1e-13, abs=0)

    def test_oracle_agreement_spot_checks(self):
        p = TdlParams(0.5, 1.0, 0.5, 1.0)
        ref = series_pmf("tdl", p, 10)
        assert tdl_pmf(p, 3) == pytest.approx(ref.p[3], rel=1e-12, abs=0)
        q = TdsParams(-1.0, 1.0, 0.5)
        ref = series_pmf("tds", q, 10)
        assert tds_pmf(q, 2) == pytest.approx(ref.p[2], rel=1e-12, abs=0)

    def test_degenerate_point_mass(self):
        p = TdlParams(0.0, 1.0, 0.5, 1.0)
        assert tdl_pmf(p, 0) == 1.0
        assert tdl_pmf(p, 3) == 0.0

    def test_d_zero_is_the_tds_pmf(self):
        assert tds_pmf is tdl_pmf
        for a, b, c in ((0.5, 1.0, 0.5), (-1.5, 2.0, 0.8)):
            p = TdlParams(a, b, c, 0.0)
            ref = series_pmf("tds", p.tds(), 12)
            for k in range(13):
                assert tdl_pmf(p, k) == tds_pmf(p.tds(), k)
                assert tdl_pmf(p, k) == pytest.approx(ref.p[k], rel=1e-12, abs=0)

    def test_table_mismatch_rejected(self):
        p = TdlParams(0.5, 1.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            tdl_pmf(p, 3, build_table(0.25, 10))
        with pytest.raises(DomainError):
            tdl_pmf(p, 30, build_table(0.5, 10))


class TestGeneralCoefficientForm:
    def test_specializes_to_tds(self):
        a, b, c = -1.0, 1.5, 0.4
        q = TdsParams(a, b, c)
        for k in (0, 1, 5, 9):
            got = general_pmf_coefficient_form(
                alpha=-b * (1 - c) ** a,
                beta=b,
                gamma=a,
                phi_damp=c,
                k=k,
            )
            assert got == pytest.approx(tds_pmf(q, k), rel=1e-13, abs=0)

    def test_specializes_to_tdl(self):
        a, b, c, d = 0.5, 1.0, 0.5, 2.0
        p = TdlParams(a, b, c, d)
        for k in (0, 1, 4, 8):
            got = general_pmf_coefficient_form(
                alpha=1 - b * d * (1 - c) ** a,
                beta=b * d,
                gamma=a,
                phi_damp=c,
                k=k,
                power=-1 / d,
            )
            assert got == pytest.approx(tdl_pmf(p, k), rel=1e-13, abs=0)

    def test_k_zero_is_outer_at_constant(self):
        got = general_pmf_coefficient_form(
            alpha=0.3, beta=-0.8, gamma=0.5, phi_damp=0.5, k=0
        )
        assert got == pytest.approx(math.exp(-0.5), rel=1e-15, abs=0)


class TestBuildPmfTable:
    def test_degenerate_table(self):
        table = build_pmf_table(TdlParams(0.0, 1.0, 0.5, 1.0), 5)
        assert table.p == pytest.approx([1, 0, 0, 0, 0, 0], abs=0)
        assert table.tail_mass == 0.0

    def test_geometric_values_and_tail(self):
        table = build_pmf_table(TdlParams(1.0, 1.0, 0.5, 1.0), 20)
        assert table.p == pytest.approx(nb_pmf_ref(1 / 3, 1.0, 20), rel=1e-13, abs=0)
        # tail_mass is 1 - sum(p), so it carries about 1.3e-16 of absolute rounding
        assert table.tail_mass == pytest.approx((1 / 3) ** 21, abs=1e-15)

    def test_matches_scalar_path(self):
        for p in (TdlParams(0.5, 1.0, 0.5, 1.0), TdlParams(-1.5, 2.0, 0.7, 0.25)):
            table = build_pmf_table(p, 30)
            coeff_table = build_table(p.a, 30)
            for k in (0, 1, 7, 19, 30):
                assert table.p[k] == pytest.approx(
                    tdl_pmf(p, k, coeff_table), rel=1e-12, abs=1e-300
                )

    def test_tds_params_accepted(self):
        q = TdsParams(0.5, 1.0, 0.5)
        table = build_pmf_table(q, 25)
        ref = series_pmf("tds", q, 25)
        np.testing.assert_allclose(table.p, ref.p, rtol=1e-12)

    def test_d_zero_matches_tds(self):
        a = build_pmf_table(TdlParams(0.5, 1.0, 0.5, 0.0), 15)
        b = build_pmf_table(TdsParams(0.5, 1.0, 0.5), 15)
        np.testing.assert_array_equal(a.p, b.p)
        assert a.law == "tds"

    @settings(max_examples=30, deadline=None)
    @given(p=valid_tdl_points)
    def test_table_invariants(self, p):
        table = build_pmf_table(p, 50)
        assert np.all(table.p >= 0.0) and np.all(table.p <= 1.0)
        assert table.tail_mass >= -1e-9
        assert table.p.sum() + table.tail_mass == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(p=valid_tdl_points)
    def test_partial_sums_match_pgf(self, p):
        table = build_pmf_table(p, 60)
        ks = np.arange(61)
        fn = tds_pgf if p.d == 0 else tdl_pgf
        q = p.tds() if p.d == 0 else p
        for s in (0.0, 0.25, 0.5, 0.75):
            partial = float(table.p @ s**ks)
            assert abs(partial - fn(q, s)) <= 1e-8 + table.tail_mass

    def test_continuity_at_d_zero(self):
        for a, b, c in ((0.5, 1.0, 0.5), (-1.0, 2.0, 0.3), (0.25, 0.5, 0.9)):
            tiny = TdlParams(a, b, c, 1e-8)
            zero = TdsParams(a, b, c)
            dev = max(
                abs(tdl_pgf(tiny, s) - tds_pgf(zero, s)) for s in np.linspace(0, 1, 101)
            )
            assert dev < 1e-6

    def test_negative_kmax_rejected(self):
        with pytest.raises(DomainError):
            build_pmf_table(TdlParams(0.5, 1.0, 0.5, 1.0), -1)

    def test_wrong_params_type_rejected(self):
        with pytest.raises(DomainError):
            build_pmf_table(StableParams(0.5, 1.0), 5)


class TestPanjer:
    @pytest.mark.parametrize("d", [0.0, 0.25, 4.0])
    @pytest.mark.parametrize("c", [0.5, 0.95])
    @pytest.mark.parametrize("a", [-1.5, -1.0, 0.5, 1.0])
    def test_matches_oracle_at_order_200(self, a, c, d):
        p = TdlParams(a, 1.5, c, d)
        got = build_pmf_table(p, 200).p
        ref = series_pmf("tdl", p, 200).p
        rel = np.abs(got - ref) / np.maximum(ref, 1e-290)
        assert rel.max() <= 1e-12

    @pytest.mark.parametrize("p", [
        TdlParams(0.5, 1e12, 1e-10, 0.0), TdlParams(0.5, 1e12, 1e-10, 0.5),
        TdlParams(-1.0, 1e9, 1e-8, 0.0), TdlParams(-1.0, 1e9, 1e-8, 1.0),
    ])
    def test_matches_oracle_at_a_small_c(self, p):
        # (1-c)^a and 1 agree in all but the last few of their digits, and b
        # times their difference is a mean of 50 or 10
        got = build_pmf_table(p, 200).p
        ref = series_pmf("tdl", p, 200).p
        rel = np.abs(got - ref) / np.maximum(ref, 1e-290)
        assert rel.max() <= 1e-12

    @pytest.mark.parametrize("d", [0.0, 0.0005])
    def test_underflowing_p0_keeps_the_mass_inside_kmax(self, d):
        # P(0) is about 1e-382 (d = 0) or 5e-317 (d = 0.0005), below the
        # normal double range; the mean is about 1060 and the sd about 40
        # to 46, far inside kmax = 2000
        p = TdlParams(0.5, 3000.0, 0.5, d)
        table = build_pmf_table(p, 2000)
        assert table.p[0] < 1e-307
        assert table.tail_mass < 1e-9
        got, want = moments_from_pmf(table), tdl_moments(p)
        assert got.mu == pytest.approx(want.mu, rel=1e-7, abs=0)
        assert got.sigma2 == pytest.approx(want.sigma2, rel=1e-7, abs=0)

    def test_mass_beyond_kmax_stays_in_the_tail(self):
        # compound Poisson(2000) of geometric(1/2) jumps (Polya-Aeppli),
        # mean 4000 and sd about 110: all but about 3e-100 of the mass lies
        # beyond kmax = 2000, and the entries below k ~ 850 underflow
        table = build_pmf_table(TdlParams(-1.0, 2000.0, 0.5, 0.0), 2000)
        assert table.tail_mass > 1.0 - 1e-9
        assert not table.p[:850].any()
        k = 2000
        with mp.workdps(30):
            lam = mp.mpf(2000)
            want = mp.fsum(
                mp.exp(-lam) * lam**n / mp.factorial(n) * mp.binomial(k - 1, n - 1)
                for n in range(1, k + 1)
            ) * mp.mpf(2) ** -k
        assert table.p[k] == pytest.approx(float(want), rel=1e-12, abs=0)

    @pytest.mark.parametrize("a, b, c", [(-2.6, 0.245, 0.9999998), (-1.54, 34582.0, 0.99998)])
    def test_mean_far_past_kmax_gives_an_all_zero_table(self, a, b, c):
        # means 8.3e23 and beyond: log2 P(0) lies outside int32, and no
        # entry up to kmax reaches the double range
        table = build_pmf_table(TdlParams(a, b, c, 0.0), 400)
        assert not table.p.any()
        assert table.tail_mass == 1.0

    @pytest.mark.parametrize("b, c, d", [(2.0, 0.9, 1.0), (1.5, 0.95, 4.0), (3.0, 0.8, 0.25)])
    def test_matches_the_exact_geometric_compound_past_order_200(self, b, c, d):
        # at a = -1 the law is an NB(1/d, q/(1+q)) number N of geometric
        # jumps P(J = j) = (1-c) c^(j-1), j >= 1, with q = b d c/(1-c), so
        # P(X = k) = sum_{n=1..k} P(N = n) binom(k-1, n-1) (1-c)^n c^(k-n)
        table = build_pmf_table(TdlParams(-1.0, b, c, d), 3200)
        for k in (500, 1600, 3200):
            with mp.workdps(30):
                cm, r = mp.mpf(c), 1 / mp.mpf(d)
                q = mp.mpf(b) * mp.mpf(d) * cm / (1 - cm)
                pn = q / (1 + q)
                term = r * (1 - pn) ** r * pn * (1 - cm) * cm ** (k - 1)  # n = 1
                want = term
                for n in range(1, k):
                    term *= pn * (1 - cm) / cm * (n + r) * (k - n) / ((n + 1) * n)
                    want += term
            assert table.p[k] == pytest.approx(float(want), rel=1e-12, abs=0)

    def test_tail_past_the_chernoff_stop_is_zero(self):
        # the entries fall by about c = 0.55 per step from 1.7e-290 at
        # k = 1106, so from k ~ 1237 on their true values round to 0; the
        # recursion run to kmax leaves 4.9e-323 at every k from 1236 to 1600
        p = TdlParams(0.75, 10.0, 0.55, 0.0)
        stop = _panjer_stop(p, 1600)
        assert 1237 <= stop <= 1300
        table = build_pmf_table(p, 1600)
        assert not table.p[stop + 1:].any()
        assert table.p[1106] == pytest.approx(1.7e-290, rel=0.01)
        # the bound in 30 digits: G(s) / s^(stop+1) < 2^-1075 at one s in
        # (1, 1/c), with G(s) = exp(b ((1-c)^a - (1-cs)^a)); at a > 0, G is
        # finite at 1/c and the best s lies near it
        with mp.workdps(30):
            a, b, c = mp.mpf(p.a), mp.mpf(p.b), mp.mpf(p.c)
            log_bound = min(
                b * ((1 - c) ** a - (1 - c * s) ** a) - (stop + 1) * mp.log(s)
                for s in (c ** -(1 - mp.mpf(2) ** -j) for j in range(1, 60))
            )
        assert log_bound < -1075 * math.log(2.0)

    @pytest.mark.parametrize("c", [1e-6, 1e-3, 0.05, 0.3, 0.55, 0.8, 0.95])
    @pytest.mark.parametrize("a", [-3.0, -1.0, -0.3, 0.2, 0.75, 1.0])
    def test_stop_drops_no_normal_range_entry(self, a, c):
        # the stopped table equals the recursion run to kmax bit for bit up
        # to the stop, where that recursion has left the normal range, and
        # is 0 past it; b = 3000 at d = 0 rescales on the way
        stopped = 0
        for b in (1e-3, 1.0, 10.0, 3000.0):
            for d in (0.0, 1e-3, 1.0, 30.0):
                for kmax in (400, 3200):
                    p = TdlParams(a, b, c, d)
                    stop = _panjer_stop(p, kmax)
                    if stop == kmax:
                        continue  # the table is the recursion run to kmax
                    stopped += 1
                    table = build_pmf_table(p, kmax).p
                    full = _panjer(a, b, c, kmax, d=d)
                    np.testing.assert_array_equal(table[: stop + 1], full[: stop + 1])
                    assert np.all(full[stop + 1:] < 2.0**-1022)
                    assert not table[stop + 1:].any()
        # no ladder point cuts where kmax (-log c) <= 1076 log 2 + 1
        assert stopped == 0 if c > 0.75 else stopped > 0

    def test_longer_table_extends_the_shorter_one(self):
        # the point rescales by 2^800 on the way (P(0) is about 1e-382)
        p = TdlParams(0.5, 3000.0, 0.5, 0.0)
        short, long = build_pmf_table(p, 2000).p, build_pmf_table(p, 3200).p
        assert long[:2001] == pytest.approx(short, rel=1e-14, abs=0)


class TestCompoundIdentities:
    def test_positive_a_compound_nb_of_gds(self):
        a, b, c, d = 0.5, 1.0, 0.5, 1.0
        p = TdlParams(a, b, c, d)
        gds = GdsSibuyaParams(a, c)
        for s in S_GRID:
            inner = family_pgf("gds", gds, s)
            want = (1 + b * d * (1 - inner)) ** (-1 / d)
            assert abs(tdl_pgf(p, s) - want) < 1e-12

    def test_negative_a_compound_nb_of_nb(self):
        a, b, c, d = -1.0, 2.0, 0.3, 0.5
        p = TdlParams(a, b, c, d)
        nb = NegativeBinomialParams(c, -a)
        for s in S_GRID:
            inner = family_pgf("nb", nb, s)
            want = (1 + b * d * (1 - c) ** a * (1 - inner)) ** (-1 / d)
            assert abs(tdl_pgf(p, s) - want) < 1e-12

    def test_c_one_collapses_to_discrete_linnik(self):
        for a, b, d in ((0.5, 1.0, 1.0), (0.25, 2.0, 0.5), (1.0, 0.5, 4.0)):
            p = TdlParams(a, b, 1.0, d)
            dl = LinnikParams(a, b, 1.0 / d)
            for s in S_GRID:
                assert abs(tdl_pgf(p, s) - family_pgf("dl", dl, s)) < 1e-12
