import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from tdlinnik import (
    DomainError,
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
    tdl_moments,
)
from tdlinnik import sampler
from tdlinnik.sampler import (
    DEFAULT_MAX_TRIES,
    GDS_TABLE_MAX,
    _compound_gds,
    _gds_pmf_cdf,
    _gds_sampler,
    _gds_table_len,
)

import test_acceptance

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

    @pytest.mark.parametrize("seed, stream", [(-1, 0), (1, -1), (-5, -2)])
    def test_negative_seed_or_stream_is_a_domain_error(self, seed, stream):
        with pytest.raises(DomainError, match="must be >= 0"):
            RngStream(seed, stream)
        with pytest.raises(DomainError):
            sample_batch("poisson", PoissonParams(1.0), 3, seed, stream=stream)

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

    @pytest.mark.parametrize("gamma,tau", [(0.5, 0.9999), (0.2, 0.99995)])
    def test_thinning_gof(self, gamma, tau):
        assert _gds_table_len(gamma, tau) > GDS_TABLE_MAX  # past the inversion table
        params = GdsSibuyaParams(gamma, tau)
        batch = sample_batch("gds", params, N, seed=36)
        report = chi_square_gof(batch, series_pmf("gds", params, 200))
        assert report.p_value > 0.001

    @pytest.mark.parametrize("gamma,tau", [(0.3, 0.8), (0.7, 0.5)])
    def test_thinning_gof_on_short_tails(self, gamma, tau, monkeypatch):
        # thinning where the series sees nearly all the mass
        monkeypatch.setattr(sampler, "GDS_TABLE_MAX", 0)
        params = GdsSibuyaParams(gamma, tau)
        batch = sample_batch("gds", params, N, seed=37)
        report = chi_square_gof(batch, series_pmf("gds", params, 150))
        assert report.p_value > 0.001

    @pytest.mark.parametrize(
        "law,params",
        [("gds", GdsSibuyaParams(0.5, 0.999999)), ("tdl", TdlParams(0.5, 1.0, 0.999999, 1.0))],
    )
    def test_tau_near_one_draws_fast(self, law, params):
        n = 10000
        t0 = time.perf_counter()
        batch = sample_batch(law, params, n, seed=1)
        assert time.perf_counter() - t0 < 0.5
        if law == "gds":
            g, t = params.gamma, params.tau
            mu = g * t * (1 - t) ** (g - 1)
            var = g * (1 - g) * t * t * (1 - t) ** (g - 2) + mu - mu * mu
        else:
            m = tdl_moments(params)
            mu, var = m.mu, m.sigma2
        assert abs(batch.values.mean() - mu) < 6 * math.sqrt(var / n)

    def test_thinning_budget_fails_fast(self):
        # acceptance rate 1 - (1e-4)^1e-4 = 9.2e-4: about 1087 tries per draw
        t0 = time.perf_counter()
        with pytest.raises(RejectionBudgetExceeded):
            sample_batch("gds", GdsSibuyaParams(1e-4, 0.9999), 10, seed=1, max_tries=100)
        assert time.perf_counter() - t0 < 0.05


class TestCompoundGds:
    def test_blocks_match_one_pass(self, monkeypatch):
        # jumps drawn in blocks of 7 sum as one pass over all of them does
        counts = np.array([0, 3, 0, 0, 12, 1, 7, 0, 25, 2, 0])
        ref = RngStream(81).generator
        jumps = _gds_sampler(0.5, 0.9, DEFAULT_MAX_TRIES)(ref, int(counts.sum()))
        csum = np.concatenate(([0], np.cumsum(jumps)))
        ends = np.cumsum(counts)
        want = csum[ends] - csum[ends - counts]
        monkeypatch.setattr(sampler, "JUMP_BLOCK", 7)
        got = _compound_gds(RngStream(81).generator, counts, 0.5, 0.9, DEFAULT_MAX_TRIES)
        np.testing.assert_array_equal(got, want)

    def test_route_d_memory_is_bounded(self):
        # 1e7 jumps at b = 100: about 230 MB when drawn in one piece
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import resource\n"
            "from tdlinnik import TdlParams, sample_batch\n"
            "p = TdlParams(0.5, 100.0, 0.5, 1.0)\n"
            "sample_batch('tdl', p, 10, seed=1, route='d')\n"
            "r0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "sample_batch('tdl', p, 100000, seed=1, route='d')\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - r0)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert int(out.stdout) < 100 * 1024  # ru_maxrss is in KiB on Linux


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

    @pytest.mark.parametrize(
        "p", [p for p, _ in test_acceptance.TestAcceptance.POS_POINTS]
        + [TdlParams(0.75, 2.0, 0.9, 0.0)],
    )
    def test_default_route_gof(self, p):
        batch = sample_batch("tdl", p, N, seed=65)
        report = chi_square_gof(batch, build_pmf_table(p, 300))
        assert report.p_value > 0.001

    @pytest.mark.parametrize("idx", [0, 2])
    def test_default_route_matches_route_a(self, idx):
        # criterion 6's test at two a > 0 points where route a rejects
        # rarely (b d (1-c)^a < 1)
        p = test_acceptance.TestAcceptance.POS_POINTS[idx][0]
        assert p.b * p.d * (1 - p.c) ** p.a < 1
        n = 100000
        table = build_pmf_table(p, 400)
        kcap = table.kmax
        expected_tv = float(
            np.sum(np.sqrt(table.p * (1 - table.p) / (math.pi * n)))
        ) + math.sqrt(max(table.tail_mass, 0.0) / (math.pi * n))
        hists = []
        for stream, route in enumerate(("a", "auto")):
            batch = sample_batch("tdl", p, n, seed=66, stream=stream, route=route)
            hists.append(np.bincount(np.minimum(batch.values, kcap + 1), minlength=kcap + 2) / n)
        tv = 0.5 * float(np.abs(hists[0] - hists[1]).sum())
        assert tv < 3.0 * expected_tv

    @pytest.mark.parametrize("p", [
        TdlParams(-2.0, 1.0, 0.5, 0.25),
        TdlParams(-1.0, 2.7, 0.93, 1.0),
        TdlParams(-0.5, 0.5, 0.05, 4.0),
        TdlParams(-1.3, 1.0, 0.5, 0.0),
    ])
    def test_route_b_draws_route_a(self, p):
        # for a < 0 route a's tempering step is route b's Poisson-Gamma compound
        a = sample_batch("tdl", p, 5000, seed=67, route="a").values
        b = sample_batch("tdl", p, 5000, seed=67, route="b").values
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("law, p, route", [
        ("tds", TdsParams(-1.0, 1.0, 0.7), "c"),
        ("tdl", TdlParams(-0.5, 2.0, 0.9, 0.0), "c"),
        ("tds", TdsParams(0.5, 2.0, 0.9), "d"),
        ("tdl", TdlParams(0.75, 3.0, 0.5, 0.0), "d"),
    ])
    def test_compound_routes_at_d_zero_gof(self, law, p, route):
        # at d = 0 routes c and d draw a Poisson number of jumps
        batch = sample_batch(law, p, N, seed=68, route=route)
        report = chi_square_gof(batch, build_pmf_table(p, 300))
        assert report.p_value > 0.001

    def test_d_zero_dispatches_to_tds(self):
        p = TdlParams(0.5, 1.0, 0.5, 0.0)
        batch = sample_batch("tdl", p, N, seed=64)
        report = chi_square_gof(batch, build_pmf_table(TdsParams(0.5, 1.0, 0.5), 200))
        assert report.p_value > 0.001


class TestOtherLaws:
    @pytest.mark.parametrize(
        "q",
        [
            TdsParams(0.5, 1.0, 0.5),
            TdsParams(0.25, 2.0, 0.1),
            TdsParams(0.9, 5.0, 0.95),
            TdsParams(1.0, 1.5, 0.5),  # Poisson(0.75): Bernoulli(0.5) jumps
        ],
    )
    def test_tds_compound_gof(self, q):
        batch = sample_batch("tds", q, N, seed=70)
        report = chi_square_gof(batch, build_pmf_table(q, 300))
        assert report.p_value > 0.001

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
