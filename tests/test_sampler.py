import dataclasses
import itertools
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import mpmath as mp
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
    TemperedLinnikParams,
    TemperedStableParams,
    build_pmf_table,
    chi_square_gof,
    empirical_laplace,
    empirical_pgf,
    family_laplace,
    family_pgf,
    sample_batch,
    series_pmf,
    tdl_moments,
)
from tdlinnik import sampler
from tdlinnik.sampler import (
    _compound,
    _count_cdf,
    _family_cdf,
    _family_table_max,
    _jump_cdf,
    _table_draws,
    _tdl_family,
)

import test_acceptance

N = 50000


def assert_laplace_match(batch, law, params, ts=(0.25, 0.5, 1.0, 2.0)):
    for t in ts:
        est, se = empirical_laplace(batch, t)
        want = family_laplace(law, params, t)
        assert abs(est - want) < 4 * max(se, 1e-12), (law, t, est, want, se)


class _Fed:
    """A generator that hands out given uniforms and exponentials."""

    def __init__(self, u, e):
        self._u, self._e = u, e

    def random(self, n):
        assert n == len(self._u)
        return self._u.copy()

    def standard_exponential(self, n):
        assert n == len(self._e)
        return self._e.copy()


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
        # uncapped draws: about one in 50k passes the support cap at gamma = 0.5
        x = sampler._sibuya_float(RngStream(22).generator, 0.5, N)
        p1 = (x == 1).mean()
        p2 = (x == 2).mean()
        assert abs(p1 - 0.5) < 4 * math.sqrt(0.25 / N)
        assert abs(p2 - 0.125) < 4 * math.sqrt(0.125 * 0.875 / N)

    @pytest.mark.parametrize("gamma", [0.3, 0.6, 0.95])
    def test_gof_across_the_first_step_split(self, gamma):
        # below and above _ZERO_SPLIT_MIN = 0.4, where X = 1 is split off
        params = SibuyaParams(gamma)
        x = sampler._sibuya_float(RngStream(24).generator, gamma, N)
        batch = sampler.SampleBatch("sibuya", params, N, x, seed=24)
        report = chi_square_gof(batch, series_pmf("sibuya", params, 120))
        assert report.p_value > 0.001

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

    # P(0) = 0.62, 0.067 and 0.93; drawn by inverting the law's own table
    @pytest.mark.parametrize("gamma,tau", [(0.3, 0.8), (0.9, 0.95), (0.2, 0.3)])
    def test_gof(self, gamma, tau):
        params = GdsSibuyaParams(gamma, tau)
        batch = sample_batch("gds", params, N, seed=35)
        report = chi_square_gof(batch, series_pmf("gds", params, 150))
        assert report.p_value > 0.001

    @pytest.mark.parametrize("gamma,tau", [(0.5, 0.9999), (0.2, 0.99995)])
    def test_thinning_gof(self, gamma, tau):
        # past the inversion table: Sibuya draws kept with probability tau^Y
        assert _jump_cdf(gamma, tau, zero=True) is None
        params = GdsSibuyaParams(gamma, tau)
        batch = sample_batch("gds", params, N, seed=36)
        report = chi_square_gof(batch, series_pmf("gds", params, 200))
        assert report.p_value > 0.001

    @pytest.mark.parametrize("gamma,tau", [(0.3, 0.8), (0.7, 0.5)])
    def test_thinning_gof_on_short_tails(self, gamma, tau, monkeypatch):
        # down-weighting where the series sees nearly all the mass
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

    def test_thinning_needs_no_budget(self):
        # 1 - (1e-4)^1e-4 = 9.2e-4 of the Sibuya draws are kept: a rejection
        # sampler of the non-zero values would take about 1087 tries per draw
        gamma, tau, n = 1e-4, 0.9999, 100000
        assert _jump_cdf(gamma, tau, zero=True) is None
        t0 = time.perf_counter()
        batch = sample_batch("gds", GdsSibuyaParams(gamma, tau), n, seed=1, max_tries=100)
        assert time.perf_counter() - t0 < 0.5
        want = (1 - tau) ** gamma
        assert abs((batch.values == 0).mean() - want) < 4 * math.sqrt(want * (1 - want) / n)

    @pytest.mark.parametrize("gamma, tau", [(0.2, 0.3), (0.5, 0.95), (0.9, 0.99)])
    def test_table_matches_series(self, gamma, tau):
        cdf = _jump_cdf(gamma, tau, zero=True)
        m = min(len(cdf), 200)
        with mp.workdps(40):
            want = np.cumsum([mp.mpf(v) for v in series_pmf("gds", GdsSibuyaParams(gamma, tau), 200).p])
            want = np.array([float(x) for x in want])
            tail = _mass_past(gamma, tau, len(cdf) - 1)
        np.testing.assert_allclose(cdf[:m], want[:m], rtol=1e-13, atol=0)
        assert cdf[-1] == 1.0
        assert tail < 1e-17


class TestCompoundGds:
    def test_blocks_match_one_pass(self, monkeypatch):
        # jumps drawn in blocks of 7 sum as one pass over all of them does
        counts = np.array([0, 3, 0, 0, 12, 1, 7, 0, 25, 2, 0])
        search = sampler._table_search(_jump_cdf(0.5, 0.9))

        def draw(gen, m):
            return search(gen.random(m))

        jumps = draw(RngStream(81).generator, int(counts.sum()))
        csum = np.concatenate(([0], np.cumsum(jumps)))
        ends = np.cumsum(counts)
        want = csum[ends] - csum[ends - counts]
        monkeypatch.setattr(sampler, "JUMP_BLOCK", 7)
        got = _compound(RngStream(81).generator, counts, draw)
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


def _mass_past(a, c, k):
    """sum over j > k of |binom(a, j)| c^j in mpmath: the mass a jump or
    gds table over j <= k leaves out, times |h| for the jumps given X > 0."""
    term = abs(mp.binomial(a, k + 1)) * mp.mpf(c) ** (k + 1)
    total, j = mp.mpf(0), k + 1
    while term > total * mp.mpf(10) ** -30:
        total += term
        term *= mp.mpf(c) * (j - mp.mpf(a)) / (j + 1)
        j += 1
    return total


def _zero_truncated(law, params, order, p0):
    """CDF over k = 1..order of the series law given X > 0; p0 = P(0) in mpmath."""
    p = series_pmf(law, params, order).p[1:]
    return np.array([float(x) for x in np.cumsum([mp.mpf(v) for v in p]) / (1 - p0)])


class TestThinnedCompound:
    """Routes c and d draw a thinned count of non-zero jumps: a Poisson or NB
    count of mean b |(1-c)^a - 1| and zero-truncated NB(c, -a) or
    GDS-Sibuya(a, c) jumps, both by inverting CDF tables.  Past the jump
    table, route d draws the unthinned count of down-weighted Sibuya jumps."""

    @pytest.mark.parametrize("a, c", [
        (0.5, 1e-7), (0.3, 0.5), (0.9, 0.95), (1.0, 0.3),
        (0.2, 0.3), (0.5, 0.95), (0.9, 0.99),
        (-1.0, 1e-7), (-0.5, 0.5), (-2.5, 0.9),
    ])
    def test_jump_cdf_matches_series_given_nonzero(self, a, c):
        cdf = _jump_cdf(a, c)
        assert cdf[0] == 0.0  # no zero jumps given X > 0
        cdf = cdf[1:]
        m = min(len(cdf), 200)
        with mp.workdps(40):
            if a > 0:
                want = _zero_truncated("gds", GdsSibuyaParams(a, c), 200,
                                       (1 - mp.mpf(c)) ** mp.mpf(a))
            else:
                want = _zero_truncated("nb", NegativeBinomialParams(c, -a), 200,
                                       (1 - mp.mpf(c)) ** mp.mpf(-a))
            tail = _mass_past(a, c, len(cdf)) / abs((1 - mp.mpf(c)) ** mp.mpf(a) - 1)
        np.testing.assert_allclose(cdf[:m], want[:m], rtol=1e-13, atol=0)
        assert cdf[-1] == 1.0
        assert tail < 1e-17
        if a > 0:
            # the bound r_j / |h| <= c^(j-1) once sized these tables at the
            # smallest K with c^K / (1-c) below 1e-17; the Chernoff bound at
            # s -> 1/c is c^(K+1) / |h|, above it where |h| < c (1-c)
            old = math.ceil(math.log(1e-17 * (1 - c)) / math.log(c))
            assert len(cdf) <= old + (abs((1 - c) ** a - 1) < c * (1 - c))

    @pytest.mark.parametrize("cdf", [
        _count_cdf(20.0, 0.0), _jump_cdf(0.9, 0.95),
        _family_cdf(*_tdl_family(TdlParams(-1.0, 1.0, 0.925, 1.0))),
        # steps of zero mass, entries on bucket edges, a last entry below 1
        np.array([0.0, 0.0, 0.25, 0.25, 0.5, 0.75, 0.75, 1.0 - 2**-40]),
        np.array([1.0]),
    ])
    def test_table_search_equals_searchsorted(self, cdf):
        m = 4 * len(cdf)
        edges = np.arange(m) / m
        u = np.concatenate((np.random.default_rng(79).random(20000), cdf[cdf < 1], edges,
                            np.nextafter(edges, 1.0), np.nextafter(edges[1:], 0.0),
                            [0.0, np.nextafter(1.0, 0.0)]))
        np.testing.assert_array_equal(sampler._table_search(cdf)(u),
                                      np.searchsorted(cdf, u, side="right"))

    @pytest.mark.parametrize("mean", [0.3, 3.0])  # P(0) 0.74 (zeros split off) and 0.05
    def test_table_draws_invert_one_uniform_each(self, mean):
        cdf = _count_cdf(mean, 0.0)
        u = RngStream(80).generator.random(5000)
        np.testing.assert_array_equal(_table_draws(RngStream(80).generator, cdf, 5000),
                                      np.searchsorted(cdf, u, side="right"))

    @pytest.mark.parametrize("mean, d", [
        (1e-7, 0.0), (0.3, 0.0), (4.0, 0.0), (40.0, 0.0),
        (1e-7, 1.0), (0.3, 0.5), (4.0, 2.0), (40.0, 0.1),
    ])
    def test_count_cdf_matches_closed_form(self, mean, d):
        cdf = _count_cdf(mean, d)
        with mp.workdps(30):
            if d == 0:
                want = [mp.gammainc(k + 1, mean, mp.inf, regularized=True)
                        for k in range(len(cdf))]
            else:
                q, delta = mp.mpf(d) * mean, 1 / mp.mpf(d)
                want = [mp.betainc(delta, k + 1, 0, 1 / (1 + q), regularized=True)
                        for k in range(len(cdf))]
        np.testing.assert_allclose(cdf, [float(w) for w in want], rtol=1e-12, atol=0)
        # the table leaves out less than 1e-17 of the mass
        assert 1.0 - float(want[-1]) < 1e-16

    @pytest.mark.parametrize("a", [-0.5, 0.5])
    @pytest.mark.parametrize("c", [0.02, 0.95])
    @pytest.mark.parametrize("d", [0.0, 1.0])
    @pytest.mark.parametrize("route", ["named", "auto"])
    def test_gof(self, a, c, d, route):
        # two non-zero jumps per draw on average; at a < 0 below the
        # crossover to the closed form, so the thinned compound draws them
        b = 2.0 / abs((1 - c) ** a - 1)
        p = TdlParams(a, b, c, d)
        named = "c" if a < 0 else "d"
        batch = sample_batch("tdl", p, N, seed=69, route=named if route == "named" else "auto")
        report = chi_square_gof(batch, build_pmf_table(p, 400))
        assert report.p_value > 0.001

    @pytest.mark.parametrize("p", [
        TdlParams(-1.5, 2.0, 0.95, 1.0), TdlParams(-1.0, 300.0, 0.05, 0.0),
    ])
    def test_closed_form_above_the_crossover_gof(self, p):
        assert p.b * abs((1 - p.c) ** p.a - 1) > sampler.NEG_JUMPS_MAX
        batch = sample_batch("tdl", p, N, seed=70, route="c")
        report = chi_square_gof(batch, build_pmf_table(p, 400))
        assert report.p_value > 0.001

    @pytest.mark.parametrize("p", [
        TdlParams(0.5, 1.0, 0.999999, 1.0),
        # 9.2e-4 non-zero jumps per draw; drawing only those took about 1087
        # Sibuya tries each, past max_tries = 100
        TdlParams(1e-4, 1.0, 0.9999, 0.0),
    ])
    def test_route_d_past_the_jump_table_gof(self, p):
        assert _jump_cdf(p.a, p.c) is None
        batch = sample_batch("tdl", p, N, seed=73, route="d", max_tries=100)
        report = chi_square_gof(batch, build_pmf_table(p, 400))
        assert report.p_value > 0.001

    @pytest.mark.parametrize("p, n", [
        # past GDS_TABLE_MAX: NB counts with q = 1e4 of heavy GDS-Sibuya jumps
        (TdlParams(0.5, 1e4, 0.5, 1.0), 100),
        # tables of 24772 and 18563 entries would cost more than route c's draws
        (TdlParams(-2.0, 10.0, 0.9, 0.0), 1000),
        (TdlParams(-0.5, 1e3, 0.9, 0.0), 1000),
        # a subnormal beta = b d: no family table is built
        (TdlParams(-5.0, 1e-10, 0.99, 1e-305), 100000),
    ])
    def test_auto_is_the_compound_route_where_the_table_does_not_fit(self, p, n):
        assert _family_cdf(*_tdl_family(p), _family_table_max(p, n)) is None
        named = "c" if p.a < 0 else "d"
        np.testing.assert_array_equal(
            sample_batch("tdl", p, n, seed=71).values,
            sample_batch("tdl", p, n, seed=71, route=named).values,
        )

    @pytest.mark.parametrize("law, p, spied", [
        # Poisson(2e5) counts of GDS-Sibuya jumps, NB counts with q = 2e8
        ("tds", TdsParams(0.5, 2e5 / (1 - 0.5**0.5), 0.5), "_poisson_mix"),
        ("tdl", TdlParams(0.5, 2.0 / (1 - 0.5**0.5), 0.5, 1e8), "_nb_vec"),
    ])
    def test_count_past_the_table_max_draws_from_numpy(self, law, p, spied, monkeypatch):
        mean = p.b * (1 - (1 - p.c) ** p.a)
        assert _count_cdf(mean, p.d) is None
        calls = []
        real = getattr(sampler, spied)

        def spy(gen, *args):
            calls.append(args)
            return real(gen, *args)

        monkeypatch.setattr(sampler, spied, spy)
        n = 20
        values = sample_batch(law, p, n, seed=72, route="d").values
        assert len(calls) == 1 and calls[0][-1] == n
        m = tdl_moments(p)
        assert abs(values.mean() - m.mu) < 6 * math.sqrt(m.sigma2 / n)


class TestFamilyTable:
    """Route auto inverts the law's own PMF table, one inverse FFT of its
    closed-form p.g.f.; checked against the series oracle, and its draws
    against the Panjer tables, which share no code with it."""

    @pytest.mark.parametrize("a", [-2.0, -0.5, 0.3, 0.75, 1.0])
    @pytest.mark.parametrize("c", [0.05, 0.5, 0.95])
    def test_matches_series(self, a, c):
        # a small d makes |power| = 1/d large, which multiplies any digits
        # log |G| loses: 1e-3, 1e-8 and 1e-20 check that it loses none
        ds = (0.0, 1e-20, 1e-8, 1e-3, 0.3, 1.0, 4.0)
        for b, d in itertools.product((0.3, 2.0, 20.0), ds):
            p = TdlParams(a, b, c, d)
            ref = series_pmf("tdl", p, 200).p
            cdf = _family_cdf(*_tdl_family(p))
            if cdf is None:
                # longer than GDS_TABLE_MAX: the series shows mass past 200
                assert math.fsum(ref) < 1.0 - 1e-15, p
                continue
            m = min(len(cdf), len(ref))
            np.testing.assert_allclose(np.diff(cdf, prepend=0.0)[:m], ref[:m], rtol=0, atol=1e-13,
                                       err_msg=str(p))
            np.testing.assert_allclose(cdf[:m], np.cumsum(ref)[:m], rtol=0, atol=1e-13,
                                       err_msg=str(p))
            # the table leaves out less than 1e-16 of the series' mass
            assert math.fsum(ref[len(cdf):]) < 1e-16, p

    @pytest.mark.parametrize("p, kmax", [
        (TdlParams(0.5, 1e3, 0.5, 0.0), 700),
        (TdlParams(-1.0, 1e3, 0.05, 0.0), 300),
        (TdlParams(0.75, 1e3, 0.3, 0.5), 3000),
        (TdlParams(-0.5, 2e3, 0.2, 1.0), 8000),
        # a small d: |power| = 1/d = 1e20
        (TdlParams(0.5, 1.0, 0.5, 1e-20), 300),
        (TdlParams(-1.0, 2.0, 0.5, 1e-20), 300),
    ])
    def test_auto_gof_in_the_table_regime(self, p, kmax):
        assert _family_cdf(*_tdl_family(p), _family_table_max(p, N)) is not None
        batch = sample_batch("tdl", p, N, seed=77)
        report = chi_square_gof(batch, build_pmf_table(p, kmax))
        assert report.p_value > 0.001

    def test_auto_gof_at_a_million_draws(self):
        # acceptance criterion 5 once drew this point on seed 20260808,
        # stream 1008, and got p = 9.0e-4 at 1e5 draws; the same uniforms
        # begin a batch of 1e6, whose GOF shows no departure from the law
        p, n = TdlParams(0.75, 1.0, 0.3, 0.5), 10**5
        first = sample_batch("tdl", p, n, seed=20260808, stream=1008)
        batch = sample_batch("tdl", p, 10 * n, seed=20260808, stream=1008)
        np.testing.assert_array_equal(batch.values[:n], first.values)
        assert chi_square_gof(batch, build_pmf_table(p, 300)).p_value > 0.001

    @pytest.mark.parametrize("p", [
        # beta = b d is subnormal: |power| = 1/d would multiply its lost digits
        TdlParams(-5.0, 1e-10, 0.99, 1e-305), TdlParams(-2.0, 1e-6, 0.999, 1e-308),
        # power = -1/d overflows
        TdlParams(0.5, 1e10, 0.5, 1e-310),
    ])
    def test_no_family_table_at_a_subnormal_beta_or_an_infinite_power(self, p):
        assert _family_cdf(*_tdl_family(p)) is None

    @pytest.mark.parametrize("p", [TdlParams(-50.0, 1e300, 1e-300, 0.0),
                                   TdlParams(-50.0, 1e12, 1e-10, 0.0)])
    def test_auto_keeps_the_mean_at_a_tiny_c(self, p):
        # (1-cs)^a and (1-c)^a share all but their last few digits, but b
        # times their difference is a mean of 50 and of 5000
        values = sample_batch("tdl", p, N, seed=83).values
        m = tdl_moments(p)
        assert abs(values.mean() - m.mu) < 4 * math.sqrt(m.sigma2 / N)

    @pytest.mark.parametrize("p", [
        TdlParams(-1.0, 1.0, 0.5, 1.0), TdlParams(-0.5, 3.0, 0.05, 0.0),
        TdlParams(0.5, 1.0, 0.5, 1.0), TdlParams(0.75, 2.0, 0.9, 0.0),
    ])
    def test_auto_inverts_the_family_table_where_it_fits(self, p):
        n = 1000
        cdf = _family_cdf(*_tdl_family(p), _family_table_max(p, n))
        want = _table_draws(RngStream(71).generator, cdf, n)
        np.testing.assert_array_equal(sample_batch("tdl", p, n, seed=71).values, want)

    @pytest.mark.parametrize("law, params, order", [
        ("poisson", PoissonParams(0.3), 40),
        ("poisson", PoissonParams(20.0), 120),
        ("poisson", PoissonParams(100.0), 200),
        ("nb", NegativeBinomialParams(0.2, 0.5), 60),
        ("nb", NegativeBinomialParams(0.8, 8.0), 200),
    ])
    def test_count_law_gof(self, law, params, order):
        # drawn by inverting _count_cdf; the oracle's series is the reference
        batch = sample_batch(law, params, N, seed=78)
        report = chi_square_gof(batch, series_pmf(law, params, order))
        assert report.p_value > 0.001


class TestGofPower:
    """A negative control for the GOF checks of the samplers: draws of a
    perturbed law must fail the chi-square test against the unperturbed
    table.  Each mutant scales one parameter of a criterion-5 point so
    that the chi-square noncentrality lambda = n sum (p' - p)^2 / p, from
    exact tables before any draw, is at least 60, where the test at
    p <= 0.001 detects a departure with near certainty (Cochran 1952,
    *Ann. Math. Statist.* 23(3))."""

    @pytest.mark.parametrize("p, name, factor", [
        (TdlParams(-1.0, 1.0, 0.5, 1.0), "a", 1.03),
        (TdlParams(-1.0, 2.0, 0.3, 1.0), "b", 1.05),
        (TdlParams(0.5, 1.0, 0.5, 1.0), "c", 1.05),
        (TdlParams(0.25, 2.0, 0.5, 4.0), "d", 1.2),
    ])
    def test_auto_draws_of_a_perturbed_law_are_rejected(self, p, name, factor):
        n = 100000
        mutant = dataclasses.replace(p, **{name: getattr(p, name) * factor})
        table = build_pmf_table(p, 200)
        t, u = table.p, build_pmf_table(mutant, 200).p
        keep = t > 0
        assert n * np.sum((u[keep] - t[keep]) ** 2 / t[keep]) >= 60.0
        batch = sample_batch("tdl", mutant, n, seed=82)
        assert chi_square_gof(batch, table).p_value <= 0.001


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

    @pytest.mark.parametrize("gamma", [1e-300, 0.01, 0.1, 0.5, 0.9, 0.999])
    @pytest.mark.parametrize("log_lam", [0.0, -2.5])
    def test_kanter_matches_the_40_digit_formula(self, gamma, log_lam):
        # the same (U, E), U at both ends of [0, 1) included, through
        # X = lam^(1/g) [sin(g u)^g sin((1-g) u)^(1-g) / sin u]^(1/g) E^(-(1-g)/g),
        # u = pi (1 - U), at 40 digits.  Both sides take u from the double
        # h = u/2 = (1 - U) pi/2: near U = 0 sin u is as small as the
        # rounding of u, so the bound is on the formula, not on that rounding.
        # At gamma = 1e-300 every draw is 0 or inf, and g h is subnormal at
        # the smallest h: no warning either way
        twin = RngStream(44).generator
        u = np.concatenate(([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53], twin.random(196)))
        e = twin.standard_exponential(len(u))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = sampler._kanter_vec(_Fed(u, e), gamma, log_lam, len(u))
        h = (1.0 - u) * (0.5 * math.pi)
        with mp.workdps(40):
            g = mp.mpf(gamma)
            for hi, ei, xi in zip(h, e, x):
                v = 2 * mp.mpf(float(hi))
                log_x = (g * mp.log(mp.sin(g * v)) + (1 - g) * mp.log(mp.sin((1 - g) * v))
                         - mp.log(mp.sin(v)) - (1 - g) * mp.log(mp.mpf(float(ei)))
                         + mp.mpf(log_lam)) / g
                if log_x > mp.log(sys.float_info.max):
                    assert xi == math.inf, (hi, ei)
                elif log_x < mp.log(sys.float_info.min):
                    assert xi < 2 * sys.float_info.min, (hi, ei)
                else:
                    want = mp.exp(log_x)
                    assert abs(xi - want) <= 1e-12 * want, (hi, ei, xi, want)


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

    @pytest.mark.parametrize("params, ts", [
        # intensity lam theta^gamma = 0.5: P(N = 0) = 0.61, split off the table
        (TemperedStableParams(-0.7, 0.5, 1.0), (0.25, 0.5, 1.0, 2.0)),
        # intensity 1e6: past the count table, so numpy draws the counts
        (TemperedStableParams(-0.7, 1e6, 1.0), (2.5e-7, 5e-7, 1e-6, 2e-6)),
    ])
    def test_negative_gamma_counts_inside_and_past_the_count_table(self, params, ts):
        intensity = params.lam * params.theta**params.gamma
        assert (_count_cdf(intensity, 0.0) is None) == (intensity > 1e5)
        batch = sample_batch("tps", params, N, seed=54)
        assert_laplace_match(batch, "tps", params, ts)

    def test_theta_zero_is_plain_stable(self):
        tps = TemperedStableParams(0.5, 1.0, 0.0)
        ps = StableParams(0.5, 1.0)
        batch = sample_batch("tps", tps, N, seed=53)
        assert_laplace_match(batch, "ps", ps)

    def test_rejection_budget(self):
        # acceptance rate exp(-30 * 5^0.5) is astronomically small
        with pytest.raises(RejectionBudgetExceeded):
            sample_batch("tps", TemperedStableParams(0.5, 30.0, 5.0), 1, seed=1, max_tries=50)

    def test_rejection_budget_fails_up_front(self):
        # exp(30 * 5^0.5) = 1.4e29 expected tries per draw is known before the
        # first proposal, so the batch is refused without 50 rounds of Kanter
        t0 = time.perf_counter()
        with pytest.raises(RejectionBudgetExceeded, match="expects"):
            sample_batch("tps", TemperedStableParams(0.5, 30.0, 5.0), 10**5, seed=1, max_tries=50)
        assert time.perf_counter() - t0 < 0.05


class TestTdlRoutes:
    @pytest.mark.parametrize("params, message", [
        pytest.param(TdlParams(0.001, 0.0062, 1.0, 0.00034), "overflowed double precision",
                     id="params0"),
        # here no stable draw of the seeded batch overflows, but one passes
        # the cap of the Poisson intensity it becomes
        pytest.param(TdlParams(0.001, 0.00034, 1.0, 0.0), "Poisson intensity exceeded",
                     id="params1"),
    ])
    def test_overflowing_stable_draw_is_a_typed_error(self, params, message):
        # lam^(1/a) underflows and the Kanter factor overflows, but the scale
        # enters in logs, so no 0 * inf arises; the error comes without a
        # RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(HeavyTailOverflow, match=message):
                sample_batch("tdl", params, 1000, seed=1)

    @pytest.mark.parametrize("law, params, route", [
        ("ps", StableParams(5e-324, 1.0), "auto"),
        ("tps", TemperedStableParams(5e-324, 1.0, 1.0), "auto"),
        ("pl", LinnikParams(5e-324, 1.0, 1.0), "auto"),
        ("tpl", TemperedLinnikParams(5e-324, 1.0, 1.0, 1.0), "auto"),
        ("tdl", TdlParams(5e-324, 1.0, 1.0, 0.0), "a"),
    ])
    def test_subnormal_gamma_is_a_typed_error_without_a_warning(self, law, params, route):
        # gamma h rounds to 0, so some Kanter draws are 0 * inf = nan: a
        # proposal the tempering cannot accept or reject
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(HeavyTailOverflow, match="overflowed double precision"):
                sample_batch(law, params, 1000, seed=3, route=route)

    def test_small_gamma_tempering_rejects_overflowing_proposals(self):
        # at gamma = 0.01 about 8e-4 of Kanter proposals overflow to inf; their
        # acceptance probability exp(-theta inf) is 0, so they are redrawn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = sample_batch("tps", TemperedStableParams(0.01, 1.0, 1.0), 10**4, seed=1).values
            k = sample_batch("tdl", TdlParams(0.01, 1.0, 0.5, 0.0), 10**4, seed=1,
                             route="a").values
        assert np.isfinite(x).all() and (x >= 0).all()
        assert (k >= 0).all()

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


class TestGeneratorCaps:
    """Intensities past numpy's Poisson and negative binomial caps raise a
    typed error, not numpy's ValueError, and no RuntimeWarning."""

    @pytest.mark.parametrize("law, params, route", [
        *[("tds", TdsParams(-2.0, 1e5, 0.9999999), r) for r in ("auto", "a", "b")],
        *[("tdl", TdlParams(-1.0, 1e19, 0.5, 1.0), r) for r in ("auto", "a", "b", "c")],
        ("tps", TemperedStableParams(-1.0, 1e19, 1.0), "auto"),
        ("tpl", TemperedLinnikParams(-1.0, 1e19, 1.0, 1.0), "auto"),
        ("poisson", PoissonParams(1e19), "auto"),
        ("nb", NegativeBinomialParams(0.999999999, 1e15), "auto"),
        # q / (1 + q) rounds to 1, so 1 - pi is 0
        ("tdl", TdlParams(-3.0, 1e5, 0.999999, 1e3), "c"),
        # N's mean b (1-c)^a = 1e20 passes the cap, and the thinned count's
        # b |h| = 1e13 jumps per draw are too many to draw one by one
        *[("tdl", TdlParams(-1.0, 1e20, 1e-7, 0.0), r) for r in ("auto", "c")],
    ])
    def test_intensity_past_the_cap_is_a_typed_error(self, law, params, route):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(HeavyTailOverflow, match="generator cap"):
                sample_batch(law, params, 5, seed=1, route=route)

    @pytest.mark.parametrize("law, params", [
        # lam theta^gamma = 1e310 overflows the product
        ("tps", TemperedStableParams(-1.0, 1e300, 1e-10)),
        ("tpl", TemperedLinnikParams(-1.0, 1e300, 1e-10, 1.0)),
        # theta^gamma = 1e600 overflows the power
        ("tps", TemperedStableParams(-3.0, 1.0, 1e-200)),
        ("tpl", TemperedLinnikParams(-3.0, 1.0, 1e-200, 1.0)),
        # Gamma(1e10, 1e-10) mixture scales are about 1, so lam theta^gamma
        # is about 1e600 for every draw
        ("tpl", TemperedLinnikParams(-3.0, 1.0, 1e-200, 1e10)),
    ])
    def test_tempered_intensity_overflow_is_a_typed_error(self, law, params):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(HeavyTailOverflow, match="generator cap"):
                sample_batch(law, params, 5, seed=1)

    @pytest.mark.parametrize("law, params, route", [
        *[("tds", TdsParams(-50.0, 1.0, 1e-7), r) for r in ("auto", "a", "b", "c")],
        *[("tdl", TdlParams(-50.0, 1.0, 1e-7, 1.0), r) for r in ("auto", "a", "b", "c")],
    ])
    def test_intensity_of_order_one_draws_although_c_to_the_a_overflows(self, law, params, route):
        # c^a = 1e350, but the tempering intensity b (1-c)^a is about 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = sample_batch(law, params, 1000, seed=1, route=route).values
        # the mean is b |a| c (1-c)^(a-1) = 5e-6 per draw
        assert values.dtype == np.int64 and values.min() >= 0 and values.sum() <= 3

    def test_route_c_thins_where_the_closed_forms_count_passes_the_cap(self):
        # N ~ Poisson(b (1-c)^a) has mean 1e300, past the cap, but the law's
        # mean is 50: about 50 non-zero jumps per draw.  Route auto at n = 10
        # takes route c too, its family table costing more than the draws
        p = TdlParams(-50.0, 1e300, 1e-300, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for route in ("c", "auto"):
                assert sample_batch("tdl", p, 10, seed=1, route=route).values.min() >= 0
            n = 10**4
            values = sample_batch("tdl", p, n, seed=1, route="c").values
        m = tdl_moments(p)
        assert abs(values.mean() - m.mu) < 4 * math.sqrt(m.sigma2 / n)

    def test_route_a_at_a_subnormal_c_draws(self):
        # theta = 1/c - 1 overflows, but the tempering intensity b (1-c)^a
        # is about 1: the draws are Poisson(TPS) of a scale near 1e-323
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = sample_batch("tdl", TdlParams(0.3, 1.0, 5e-324, 1.0), 5, 1, route="a").values
        np.testing.assert_array_equal(values, np.zeros(5))

    def test_zero_mixture_scales_draw_zero(self):
        # Gamma(1e-10) mixture scales underflow to 0: a zero intensity, so
        # each draw is 0 although theta^gamma = 1e600 overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params = TemperedLinnikParams(-3.0, 1.0, 1e-200, 1e-10)
            values = sample_batch("tpl", params, 5, 1).values
        np.testing.assert_array_equal(values, np.zeros(5))

    def test_gamma_draw_past_double_precision_is_a_typed_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(HeavyTailOverflow, match="gamma draw"):
                sample_batch("gamma", GammaParams(1e300, 1e300), 5, seed=1)

    def test_nb_just_below_the_cap_draws(self):
        # mean 8.9e18 < 9e18
        params = NegativeBinomialParams(0.5, 8.9e18)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = sample_batch("nb", params, 5, seed=1).values
        assert (values > 8e18).all()


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
