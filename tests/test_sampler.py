import math
import time

import numpy as np
import pytest

from tdlinnik import (
    GammaParams,
    GdsSibuyaParams,
    HeavyTailOverflow,
    IncompatibleRoute,
    LinnikParams,
    NegativeBinomialParams,
    PoissonParams,
    RejectionBudgetExceeded,
    RngStream,
    SibuyaParams,
    StableParams,
    TdlParams,
    TdsParams,
    TemperedStableParams,
    build_pmf_table,
    chi_square_gof,
    empirical_laplace,
    empirical_pgf,
    family_laplace,
    family_pgf,
    gen_binom,
    sample_batch,
    series_pmf,
)
from tdlinnik.sampler import _gds_pmf_cdf

N = 50000


def assert_laplace_match(batch, law, params, ts=(0.25, 0.5, 1.0, 2.0)):
    for t in ts:
        est, se = empirical_laplace(batch, t)
        want = family_laplace(law, params, t)
        assert abs(est - want) < 4 * max(se, 1e-12), (law, t, est, want, se)


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(123).generator.random(10)
        b = RngStream(123).generator.random(10)
        np.testing.assert_array_equal(a, b)

    def test_streams_are_independent(self):
        a = RngStream(123, 0).generator.random(10)
        b = RngStream(123, 1).generator.random(10)
        assert not np.array_equal(a, b)

    def test_split(self):
        r = RngStream(7)
        s = r.split(3)
        assert (s.seed, s.stream) == (7, 3)

    def test_batch_determinism(self):
        p = TdlParams(0.5, 1.0, 0.5, 1.0)
        a = sample_batch("tdl", p, 200, seed=9, route="a")
        b = sample_batch("tdl", p, 200, seed=9, route="a")
        np.testing.assert_array_equal(a.values, b.values)
        c = sample_batch("tdl", p, 200, seed=10, route="a")
        assert not np.array_equal(a.values, c.values)


class TestPrimitives:
    def test_poisson_mean_band(self):
        batch = sample_batch("poisson", PoissonParams(4.0), N, seed=5)
        assert abs(batch.values.mean() - 4.0) < 4 * math.sqrt(4.0 / N)

    def test_poisson_gof(self):
        batch = sample_batch("poisson", PoissonParams(4.0), N, seed=6)
        report = chi_square_gof(batch, series_pmf("poisson", PoissonParams(4.0), 40))
        assert report.p_value > 0.001

    def test_gamma_mean_band(self):
        batch = sample_batch("gamma", GammaParams(scale=2.0, shape=3.0), N, seed=7)
        assert abs(batch.values.mean() - 6.0) < 4 * math.sqrt(12.0 / N)

    def test_gamma_laplace(self):
        params = GammaParams(scale=2.0, shape=3.0)
        batch = sample_batch("gamma", params, N, seed=8)
        est, se = empirical_laplace(batch, 0.5)
        assert abs(est - 1 / 8) < 4 * se

    def test_thinning_is_stable_scaling(self):
        # lam^(1/gamma) thinning of DS(gamma, 1) has the DS(gamma, lam) law
        gamma, lam = 0.5, 0.5
        alpha = lam ** (1 / gamma)
        base = sample_batch("ds", StableParams(gamma, 1.0), N, seed=11)
        thinned = RngStream(12).generator.binomial(base.values, alpha)
        target = sample_batch("ds", StableParams(gamma, lam), N, seed=13)
        s = 0.5
        est1 = (s**thinned.astype(float)).mean()
        se1 = (s**thinned.astype(float)).std(ddof=1) / math.sqrt(N)
        est2, se2 = empirical_pgf(target, s)
        assert abs(est1 - est2) < 4 * math.hypot(se1, se2)


class TestSibuya:
    def test_gamma_one_is_constant_one(self):
        batch = sample_batch("sibuya", SibuyaParams(1.0), 50, seed=3)
        assert np.all(batch.values == 1)

    def test_head_probabilities(self):
        # fixed seed dodging the (expected ~once per 50k draws at gamma=0.5)
        # excursion past the support cap
        batch = sample_batch("sibuya", SibuyaParams(0.5), N, seed=22)
        p1 = (batch.values == 1).mean()
        p2 = (batch.values == 2).mean()
        assert abs(p1 - 0.5) < 4 * math.sqrt(0.25 / N)
        assert abs(p2 - 0.125) < 4 * math.sqrt(0.125 * 0.875 / N)

    def test_gof_on_truncated_support(self):
        batch = sample_batch("sibuya", SibuyaParams(0.6), N, seed=22)
        report = chi_square_gof(batch, series_pmf("sibuya", SibuyaParams(0.6), 120))
        assert report.p_value > 0.001

    def test_empirical_pgf(self):
        batch = sample_batch("sibuya", SibuyaParams(0.7), N, seed=23)
        est, se = empirical_pgf(batch, 0.5)
        assert abs(est - (1 - 0.5**0.7)) < 4 * se

    def test_support_cap_raises(self):
        # gamma = 0.05 puts ~1/3 of the mass above 1e9; a modest batch hits it
        with pytest.raises(HeavyTailOverflow):
            sample_batch("sibuya", SibuyaParams(0.05), 1000, seed=1)


class TestGdsSibuya:
    def test_tau_one_reduces_to_sibuya(self):
        batch = sample_batch("gds", GdsSibuyaParams(0.5, 1.0), 5000, seed=31)
        assert batch.values.min() >= 1  # P(0) = 0 at tau = 1

    def test_gamma_one_is_bernoulli(self):
        tau = 0.7
        batch = sample_batch("gds", GdsSibuyaParams(1.0, tau), N, seed=32)
        assert set(np.unique(batch.values)) <= {0, 1}
        assert abs(batch.values.mean() - tau) < 4 * math.sqrt(tau * (1 - tau) / N)

    def test_zero_probability(self):
        gamma, tau = 0.5, 0.6
        batch = sample_batch("gds", GdsSibuyaParams(gamma, tau), N, seed=33)
        want = (1 - tau) ** gamma
        assert abs((batch.values == 0).mean() - want) < 4 * math.sqrt(want / N)

    def test_empirical_pgf_matches_family(self):
        params = GdsSibuyaParams(0.5, 0.6)
        batch = sample_batch("gds", params, N, seed=34)
        est, se = empirical_pgf(batch, 0.5)
        assert abs(est - family_pgf("gds", params, 0.5)) < 4 * se

    def test_gof(self):
        params = GdsSibuyaParams(0.3, 0.8)
        batch = sample_batch("gds", params, N, seed=35)
        report = chi_square_gof(batch, series_pmf("gds", params, 150))
        assert report.p_value > 0.001

    @pytest.mark.parametrize("gamma,tau", [(0.2, 0.3), (0.5, 0.95), (0.9, 0.99)])
    def test_table_matches_series(self, gamma, tau):
        cdf = _gds_pmf_cdf(gamma, tau)
        m = min(len(cdf), 201)
        ref = np.cumsum(series_pmf("gds", GdsSibuyaParams(gamma, tau), 200).p)
        np.testing.assert_allclose(cdf[:m], ref[:m], rtol=1e-13, atol=0)
        # the table ends at the first k whose tail bound p_k tau/(1-tau) is below 1e-17
        k = len(cdf) - 1
        bound = [abs(gen_binom(gamma, j)) * tau**j * tau / (1 - tau) for j in (k - 1, k)]
        assert bound[1] < 1e-17 <= bound[0]

    @pytest.mark.parametrize(
        "law,params,route",
        [
            ("gds", GdsSibuyaParams(0.5, 0.999999), "a"),
            ("tdl", TdlParams(0.5, 1.0, 0.999999, 1.0), "d"),
        ],
    )
    def test_tau_near_one_fails_fast(self, law, params, route):
        t0 = time.perf_counter()
        with pytest.raises(HeavyTailOverflow):
            sample_batch(law, params, 10, seed=1, route=route)
        assert time.perf_counter() - t0 < 0.5


class TestPositiveStable:
    def test_gamma_one_is_point_mass(self):
        batch = sample_batch("ps", StableParams(1.0, 2.0), 20, seed=4)
        assert np.all(batch.values == 2.0)

    @pytest.mark.parametrize("gamma,lam", [(0.5, 1.0), (0.25, 2.0), (0.75, 0.5)])
    def test_laplace_transform(self, gamma, lam):
        params = StableParams(gamma, lam)
        batch = sample_batch("ps", params, N, seed=41)
        assert_laplace_match(batch, "ps", params)

    def test_scale_property(self):
        # draws at lam = 3 agree in law with 3^(1/gamma) times draws at lam = 1
        gamma = 0.5
        a = sample_batch("ps", StableParams(gamma, 3.0), N, seed=42)
        b = sample_batch("ps", StableParams(gamma, 1.0), N, seed=43)
        scaled = 3.0 ** (1 / gamma) * b.values
        for t in (0.5, 1.0):
            e1 = np.exp(-t * a.values)
            e2 = np.exp(-t * scaled)
            gap = abs(e1.mean() - e2.mean())
            se = math.hypot(e1.std(ddof=1), e2.std(ddof=1)) / math.sqrt(N)
            assert gap < 4 * se


class TestTemperedPositiveStable:
    def test_zero_atom_for_negative_gamma(self):
        params = TemperedStableParams(-1.0, 1.0, 1.0)
        batch = sample_batch("tps", params, N, seed=51)
        want = math.exp(-1.0)
        assert abs((batch.values == 0).mean() - want) < 4 * math.sqrt(want / N)

    @pytest.mark.parametrize(
        "gamma,lam,theta",
        [(0.5, 1.0, 1.0), (0.25, 0.5, 2.0), (-1.0, 1.0, 1.0), (-0.5, 2.0, 0.5)],
    )
    def test_laplace_transform(self, gamma, lam, theta):
        params = TemperedStableParams(gamma, lam, theta)
        batch = sample_batch("tps", params, N, seed=52)
        assert_laplace_match(batch, "tps", params)

    def test_theta_zero_is_plain_stable(self):
        tps = TemperedStableParams(0.5, 1.0, 0.0)
        ps = StableParams(0.5, 1.0)
        batch = sample_batch("tps", tps, N, seed=53)
        assert_laplace_match(batch, "ps", ps)

    def test_rejection_budget(self):
        # acceptance rate exp(-30 * 5^0.5) is astronomically small
        with pytest.raises(RejectionBudgetExceeded):
            sample_batch("tps", TemperedStableParams(0.5, 30.0, 5.0), 1, seed=1, max_tries=50)


class TestTdlRoutes:
    def test_degenerate_always_zero(self):
        for route in ("a", "b", "c", "d"):
            p = TdlParams(0.0, 1.0, 0.5, 1.0)
            assert np.all(sample_batch("tdl", p, 20, seed=5, route=route).values == 0)
        assert np.all(sample_batch("tdl", TdlParams(0.5, 1.0, 0.0, 1.0), 20, seed=5).values == 0)

    def test_route_compatibility(self):
        for p, route in (
            (TdlParams(0.5, 1.0, 0.5, 1.0), "b"),
            (TdlParams(0.5, 1.0, 0.5, 1.0), "c"),
            (TdlParams(-1.0, 1.0, 0.5, 1.0), "d"),
            (TdlParams(0.5, 1.0, 0.5, 1.0), "x"),
        ):
            with pytest.raises(IncompatibleRoute):
                sample_batch("tdl", p, 1, seed=5, route=route)

    def test_route_a_geometric_gof(self):
        p = TdlParams(1.0, 1.0, 0.5, 1.0)
        batch = sample_batch("tdl", p, N, seed=61, route="a")
        report = chi_square_gof(batch, build_pmf_table(p, 120))
        assert report.p_value > 0.001

    @pytest.mark.parametrize("route", ["a", "b", "c"])
    def test_negative_a_routes_gof(self, route):
        p = TdlParams(-1.0, 1.0, 0.5, 1.0)
        batch = sample_batch("tdl", p, N, seed=62, route=route)
        report = chi_square_gof(batch, build_pmf_table(p, 200))
        assert report.p_value > 0.001, route

    def test_route_d_gof(self):
        p = TdlParams(0.5, 1.0, 0.5, 1.0)
        batch = sample_batch("tdl", p, N, seed=63, route="d")
        report = chi_square_gof(batch, build_pmf_table(p, 200))
        assert report.p_value > 0.001

    def test_d_zero_dispatches_to_tds(self):
        p = TdlParams(0.5, 1.0, 0.5, 0.0)
        batch = sample_batch("tdl", p, N, seed=64)
        report = chi_square_gof(batch, build_pmf_table(TdsParams(0.5, 1.0, 0.5), 200))
        assert report.p_value > 0.001


class TestOtherLaws:
    def test_tds_poisson_reduction_gof(self):
        q = TdsParams(1.0, 2.0, 0.5)
        batch = sample_batch("tds", q, N, seed=71)
        report = chi_square_gof(batch, series_pmf("poisson", PoissonParams(1.0), 40))
        assert report.p_value > 0.001

    def test_ds_empirical_pgf(self):
        params = StableParams(0.5, 1.0)
        batch = sample_batch("ds", params, N, seed=72)
        est, se = empirical_pgf(batch, 0.5)
        assert abs(est - family_pgf("ds", params, 0.5)) < 4 * se

    def test_dl_gof(self):
        params = LinnikParams(0.5, 1.0, 2.0)
        batch = sample_batch("dl", params, N, seed=73)
        report = chi_square_gof(batch, series_pmf("dl", params, 200))
        assert report.p_value > 0.001

    def test_nb_gof(self):
        params = NegativeBinomialParams(0.4, 2.5)
        batch = sample_batch("nb", params, N, seed=74)
        report = chi_square_gof(batch, series_pmf("nb", params, 120))
        assert report.p_value > 0.001

    def test_pl_matches_laplace(self):
        params = LinnikParams(0.5, 1.0, 2.0)
        batch = sample_batch("pl", params, N, seed=75)
        assert_laplace_match(batch, "pl", params)

    def test_tpl_matches_laplace(self):
        from tdlinnik import TemperedLinnikParams

        params = TemperedLinnikParams(-1.0, 1.0, 0.5, 2.0)
        batch = sample_batch("tpl", params, N, seed=76)
        assert_laplace_match(batch, "tpl", params)

    def test_batch_length_invariant(self):
        batch = sample_batch("poisson", PoissonParams(1.0), 17, seed=1)
        assert batch.n == len(batch.values) == 17
