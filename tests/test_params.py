import math

import pytest
from hypothesis import given, strategies as st

from tdlinnik import (
    DomainError,
    GdsSibuyaParams,
    LinnikParams,
    NegativeBinomialParams,
    SibuyaParams,
    StableParams,
    TdlParams,
    TdsParams,
    TemperedStableParams,
    reduce_special_case,
    sample_batch,
    series_pmf,
    validate_tdl,
)
from tdlinnik.analytic import nb_pgf, tdl_pgf
from tdlinnik.laws import LAWS


def in_tdl_domain(a, b, c, d):
    if not all(map(math.isfinite, (a, b, c, d))):
        return False
    if a <= 0:
        return b > 0 and 0 <= c < 1 and d >= 0
    return a <= 1 and b > 0 and 0 <= c <= 1 and d >= 0


class TestValidateTdl:
    def test_interior_point_accepted(self):
        p = validate_tdl(0.5, 1.0, 0.5, 1.0)
        assert (p.a, p.b, p.c, p.d) == (0.5, 1.0, 0.5, 1.0)
        assert not p.is_degenerate and not p.is_poisson_tweedie

    def test_c_equal_one_rejected_for_negative_a(self):
        with pytest.raises(DomainError, match="c must be < 1"):
            validate_tdl(-1.0, 1.0, 1.0, 1.0)

    def test_a_above_one_rejected(self):
        with pytest.raises(DomainError):
            validate_tdl(1.5, 1.0, 0.5, 1.0)

    @pytest.mark.parametrize(
        "point",
        [
            (0.5, 0.0, 0.5, 1.0),   # b = 0
            (0.5, -2.0, 0.5, 1.0),  # b < 0
            (0.5, 1.0, -0.1, 1.0),  # c < 0
            (0.5, 1.0, 1.1, 1.0),   # c > 1
            (0.5, 1.0, 0.5, -0.5),  # d < 0: out-of-scope branch
            (math.nan, 1.0, 0.5, 1.0),
            (0.5, math.inf, 0.5, 1.0),
        ],
    )
    def test_rejections(self, point):
        with pytest.raises(DomainError):
            validate_tdl(*point)

    def test_boundary_flags(self):
        assert validate_tdl(0.0, 1.0, 0.5, 1.0).is_degenerate
        assert validate_tdl(0.5, 1.0, 0.0, 1.0).is_degenerate
        assert validate_tdl(0.5, 1.0, 0.5, 0.0).is_poisson_tweedie
        assert validate_tdl(1.0, 1.0, 1.0, 1.0).c == 1.0  # c = 1 fine for a > 0
        assert validate_tdl(-5.0, 1.0, 0.999, 2.0).a == -5.0  # a unbounded below

    @given(
        a=st.floats(-4, 2),
        b=st.floats(-1, 3),
        c=st.floats(-0.5, 1.5),
        d=st.floats(-1, 5),
    )
    def test_acceptance_matches_union_domain(self, a, b, c, d):
        if in_tdl_domain(a, b, c, d):
            validate_tdl(a, b, c, d)
        else:
            with pytest.raises(DomainError):
                validate_tdl(a, b, c, d)

    def test_grid_straddles_every_boundary(self):
        eps = 1e-9
        for a in (-eps, 0.0, eps, 1.0, 1.0 + eps):
            for c in (0.0, eps, 1.0 - eps, 1.0):
                for d in (0.0, eps):
                    # a tds record is the d = 0 member and obeys the same rules
                    builds = [lambda: validate_tdl(a, 1.0, c, d)]
                    if d == 0:
                        builds.append(lambda: TdsParams(a, 1.0, c))
                    for build in builds:
                        if in_tdl_domain(a, 1.0, c, d):
                            build()
                        else:
                            with pytest.raises(DomainError):
                                build()


class TestOtherRecords:
    def test_tds_domain(self):
        TdsParams(-1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            TdsParams(-1.0, 1.0, 1.0)
        TdsParams(0.5, 1.0, 1.0)

    @pytest.mark.parametrize("point, message", [
        ((1.5, 1.0, 0.5), "a must be <= 1, got 1.5"),
        ((0.5, 0.0, 0.5), "b must be > 0, got 0.0"),
        ((0.5, 1.0, 1.1), "c must lie in [0, 1], got 1.1"),
        ((-1.0, 1.0, 1.0), "c must be < 1 when a <= 0"),
        ((math.nan, 1.0, 0.5), "a must be a finite real, got nan"),
    ])
    def test_tds_rejections_read_as_tdl_at_d_zero(self, point, message):
        for build in (lambda: TdsParams(*point), lambda: TdlParams(*point, 0.0)):
            with pytest.raises(DomainError) as err:
                build()
            assert str(err.value) == message

    def test_tempered_stable_needs_theta_for_negative_gamma(self):
        TemperedStableParams(0.5, 1.0, 0.0)
        TemperedStableParams(-1.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            TemperedStableParams(-1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            TemperedStableParams(0.0, 1.0, 0.0)

    def test_stable_domain(self):
        StableParams(1.0, 2.0)
        for gamma, lam in ((0.0, 1.0), (1.5, 1.0), (0.5, 0.0)):
            with pytest.raises(DomainError):
                StableParams(gamma, lam)

    def test_aux_records(self):
        NegativeBinomialParams(0.5, 2.0)
        with pytest.raises(DomainError):
            NegativeBinomialParams(1.0, 2.0)
        SibuyaParams(1.0)
        with pytest.raises(DomainError):
            SibuyaParams(0.0)
        GdsSibuyaParams(0.5, 1.0)
        with pytest.raises(DomainError):
            GdsSibuyaParams(0.5, 0.0)
        with pytest.raises(DomainError):
            LinnikParams(0.5, 1.0, 0.0)

    def test_records_are_immutable(self):
        p = validate_tdl(0.5, 1.0, 0.5, 1.0)
        with pytest.raises(AttributeError):
            p.a = 0.9


def same_series(p: TdlParams | TdsParams) -> tuple:
    """The pair of a reducible point, after checking that its order-60
    series equals the point's own, entry by entry to 1e-12 relative."""
    pair = reduce_special_case(p)
    assert pair is not None and pair[0] in LAWS
    want = series_pmf("tds" if isinstance(p, TdsParams) else "tdl", p, 60).p
    assert series_pmf(*pair, 60).p == pytest.approx(want, rel=1e-12, abs=0)
    return pair


class TestReduceSpecialCase:
    def test_a_one_gives_negative_binomial(self):
        for b, c, d in ((1.0, 0.5, 1.0), (2.0, 0.3, 0.25), (0.5, 0.9, 4.0), (1.5, 1.0, 0.7)):
            assert same_series(validate_tdl(1.0, b, c, d))[0] == "nb"

    def test_a_zero_degenerates(self):
        # a point mass at zero is no registered law; every front end serves it
        p = validate_tdl(0.0, 2.0, 0.7, 3.0)
        assert p.is_degenerate and reduce_special_case(p) is None

    def test_c_zero_degenerates_even_at_a_one(self):
        # a == 1 with c == 0 would give pi == 0, which NB rejects; no pair, no error
        p = validate_tdl(1.0, 1.0, 0.0, 1.0)
        assert p.is_degenerate and reduce_special_case(p) is None

    def test_d_zero_gives_poisson_tweedie(self):
        for p in (validate_tdl(0.5, 1.0, 0.5, 0.0), validate_tdl(-1.0, 2.0, 0.3, 0.0),
                  TdsParams(0.75, 1.5, 1.0)):
            assert same_series(p) == ("tds", TdsParams(p.a, p.b, p.c))

    def test_c_one_gives_discrete_linnik(self):
        for a, b, d in ((0.5, 2.0, 0.5), (0.25, 1.0, 3.0), (0.9, 0.7, 1.3)):
            assert same_series(validate_tdl(a, b, 1.0, d))[0] == "dl"

    def test_discrete_linnik_pair_samples_as_its_tdl_point(self):
        # 1/d is exact at these d, so the pair's TDL member is the point itself
        for a, b, d in ((0.5, 2.0, 0.5), (0.75, 1.0, 0.25)):
            p = validate_tdl(a, b, 1.0, d)
            tag, params = reduce_special_case(p)
            got = sample_batch(tag, params, 2000, 7).values
            want = sample_batch("tdl", p, 2000, 7).values
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_interior_point_gives_none(self):
        assert reduce_special_case(validate_tdl(0.5, 1.0, 0.5, 1.0)) is None

    def test_every_pair_is_a_registered_law_and_record(self):
        for a in (-1.0, 0.0, 0.5, 1.0):
            for c in (0.0, 0.5, 1.0):
                for d in (0.0, 0.5):
                    if a <= 0 and c == 1.0:
                        continue
                    pair = reduce_special_case(validate_tdl(a, 1.0, c, d))
                    if pair is not None:
                        assert isinstance(pair[1], LAWS[pair[0]].params), pair

    @pytest.mark.parametrize("b,c,d", [(1.0, 0.5, 1.0), (2.0, 0.3, 0.25), (0.5, 0.9, 4.0)])
    def test_nb_reduction_reproduces_pgf_pointwise(self, b, c, d):
        p = validate_tdl(1.0, b, c, d)
        tag, params = reduce_special_case(p)
        for i in range(51):
            s = i / 50.0
            assert abs(tdl_pgf(p, s) - nb_pgf(params, s)) < 1e-12
