import math

import numpy as np
import pytest

from tdlinnik import (
    DegenerateDistribution,
    DomainError,
    EmptyGrid,
    TailTooHeavy,
    TdlParams,
    build_pmf_table,
    moments_from_pmf,
    sample_batch,
    skew_kurt_trace,
    tdl_moments,
)

#: frozen from the geometric law with success probability 2/3 on {0,1,...}
#: (mu = q/p, sigma2 = q/p^2, m3 = q(1+q)/p^3, m4 via the first four raw
#: moments E[X] = 1/2, E[X^2] = 1, E[X^3] = 11/4, E[X^4] = 10)
GEOMETRIC_POINT = TdlParams(1.0, 1.0, 0.5, 1.0)
GEOMETRIC_SUMMARY = dict(mu=0.5, sigma2=0.75, m3=1.5, m4=5.8125)


class TestTdlMoments:
    def test_geometric_case(self):
        m = tdl_moments(GEOMETRIC_POINT)
        assert m.mu == pytest.approx(GEOMETRIC_SUMMARY["mu"], rel=1e-15, abs=0)
        assert m.sigma2 == pytest.approx(GEOMETRIC_SUMMARY["sigma2"], rel=1e-15, abs=0)
        assert m.m3 == pytest.approx(GEOMETRIC_SUMMARY["m3"], rel=1e-15, abs=0)
        assert m.m4 == pytest.approx(GEOMETRIC_SUMMARY["m4"], rel=1e-15, abs=0)
        assert m.alpha3 == pytest.approx(m.m3 / m.sigma2**1.5, rel=1e-15, abs=0)
        assert m.alpha4 == pytest.approx(m.m4 / m.sigma2**2, rel=1e-15, abs=0)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateDistribution):
            tdl_moments(TdlParams(0.0, 1.0, 0.5, 1.0))
        with pytest.raises(DegenerateDistribution):
            tdl_moments(TdlParams(0.5, 1.0, 0.0, 1.0))

    def test_c_one_rejected(self):
        with pytest.raises(DomainError):
            tdl_moments(TdlParams(0.5, 1.0, 1.0, 1.0))

    def test_poisson_tweedie_dispersion(self):
        # at d = 0 the dispersion index is (1 - a c)/(1 - c) and is >= 1
        m = tdl_moments(TdlParams(0.5, 1.0, 0.5, 0.0))
        assert m.D == pytest.approx(1.5, rel=1e-15, abs=0)
        for a in (-2.0, -0.5, 0.25, 1.0):
            for c in (0.1, 0.5, 0.9):
                assert tdl_moments(TdlParams(a, 1.0, c, 0.0)).D >= 1.0

    def test_mu_is_bitwise_independent_of_d(self):
        for a, b, c in ((0.5, 1.0, 0.5), (-1.0, 2.0, 0.3), (0.25, 0.5, 0.9)):
            mus = {
                tdl_moments(TdlParams(a, b, c, d)).mu for d in (0.0, 0.25, 1.0, 4.0)
            }
            assert len(mus) == 1

    def test_dispersion_offset_is_exactly_d_mu(self):
        for a, b, c in ((0.5, 1.0, 0.5), (-1.0, 2.0, 0.3)):
            base = tdl_moments(TdlParams(a, b, c, 0.0)).D
            for d in (0.25, 1.0, 4.0):
                m = tdl_moments(TdlParams(a, b, c, d))
                assert (m.D - base) == pytest.approx(d * m.mu, rel=1e-12, abs=0)

    def test_moment_inequality(self):
        for a in (-2.0, -0.5, 0.5, 1.0):
            for d in (0.0, 1.0, 4.0):
                m = tdl_moments(TdlParams(a, 1.0, 0.5, d))
                assert m.alpha4 >= m.alpha3**2 + 1.0


class TestMomentsFromPmf:
    def test_degenerate_table(self):
        table = build_pmf_table(TdlParams(0.0, 1.0, 0.5, 1.0), 5)
        m = moments_from_pmf(table)
        assert (m.mu, m.sigma2, m.m3, m.m4) == (0.0, 0.0, 0.0, 0.0)
        assert math.isnan(m.alpha3)

    def test_geometric_table(self):
        table = build_pmf_table(GEOMETRIC_POINT, 120)
        m = moments_from_pmf(table)
        assert m.mu == pytest.approx(0.5, rel=1e-12, abs=0)
        assert m.sigma2 == pytest.approx(0.75, rel=1e-12, abs=0)

    def test_tail_too_heavy(self):
        table = build_pmf_table(TdlParams(0.5, 1.0, 0.5, 1.0), 5)
        with pytest.raises(TailTooHeavy):
            moments_from_pmf(table)

    @pytest.mark.parametrize(
        "point",
        [
            (0.5, 1.0, 0.5, 1.0),
            (-1.0, 1.0, 0.3, 0.5),
            (-0.5, 2.0, 0.5, 2.0),
            (0.75, 0.5, 0.2, 0.25),
        ],
    )
    def test_formulas_match_pmf_sums(self, point):
        p = TdlParams(*point)
        want = tdl_moments(p)
        got = moments_from_pmf(build_pmf_table(p, 600))
        assert got.mu == pytest.approx(want.mu, rel=1e-9, abs=0)
        assert got.sigma2 == pytest.approx(want.sigma2, rel=1e-9, abs=0)
        assert got.m3 == pytest.approx(want.m3, rel=1e-7, abs=0)
        assert got.m4 == pytest.approx(want.m4, rel=1e-6, abs=0)

    def test_monte_carlo_mean_agreement(self):
        p = TdlParams(-1.0, 1.0, 0.5, 1.0)
        m = tdl_moments(p)
        n = 100000
        batch = sample_batch("tdl", p, n, seed=2024)
        band = 4.0 * math.sqrt(m.sigma2 / n)
        assert abs(batch.values.mean() - m.mu) < band


class TestSkewKurtTrace:
    def test_single_point_matches_moments(self):
        rows = skew_kurt_trace(0.25, 1.0, (0.5, 0.5), (1.0, 1.0), (1, 1))
        assert len(rows) == 1
        c, d, a3, a4 = rows[0]
        m = tdl_moments(TdlParams(0.25, 1.0, 0.5, 1.0))
        assert (c, d) == (0.5, 1.0)
        assert a3 == pytest.approx(m.alpha3, rel=1e-15, abs=0)
        assert a4 == pytest.approx(m.alpha4, rel=1e-15, abs=0)

    def test_grid_shape_and_inequality(self):
        rows = skew_kurt_trace(0.25, 1.0, (0.3, 0.7), (0.0, 3.0), (10, 7))
        assert len(rows) == 70
        for _, _, a3, a4 in rows:
            assert a4 >= a3**2 + 1.0

    def test_negative_d_skipped_with_warning(self):
        with pytest.warns(UserWarning, match="clipped"):
            rows = skew_kurt_trace(-1.0, 1.0, (0.1, 0.9), (-1.0, 3.0), (3, 5))
        assert all(d >= 0 for _, d, _, _ in rows)

    def test_all_negative_d_is_empty(self):
        with pytest.warns(UserWarning):
            with pytest.raises(EmptyGrid):
                skew_kurt_trace(0.5, 1.0, (0.3, 0.7), (-2.0, -1.0), (3, 3))

    def test_c_range_outside_unit_interval_rejected(self):
        with pytest.raises(DomainError):
            skew_kurt_trace(0.5, 1.0, (0.0, 0.7), (0.0, 1.0), (3, 3))
        with pytest.raises(DomainError):
            skew_kurt_trace(0.5, 1.0, (0.3, 1.0), (0.0, 1.0), (3, 3))
