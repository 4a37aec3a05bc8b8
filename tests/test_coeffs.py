import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tdlinnik import (
    DomainError,
    build_table,
    coeff_c,
    coeff_half,
    coeff_half_step,
    coeff_neg1,
    coeff_neg1_step,
    gen_binom,
)

#: the cross-check grid: tail indexes of interest on both sides of zero
GAMMAS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, -0.5, -1.0, -2.0]


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-12)


class TestGenBinom:
    def test_small_cases(self):
        assert gen_binom(0.5, 1) == 0.5
        assert gen_binom(-1.0, 2) == 1.0
        assert gen_binom(0.37, 0) == 1.0
        assert gen_binom(3.0, 5) == 0.0  # integer x below k

    def test_negative_k_rejected(self):
        with pytest.raises(DomainError):
            gen_binom(1.0, -1)

    @given(x=st.integers(-30, 30), k=st.integers(0, 12))
    def test_matches_integer_comb(self, x, k):
        if x >= 0:
            want = math.comb(x, k)
        else:
            want = (-1) ** k * math.comb(-x + k - 1, k)
        assert gen_binom(float(x), k) == pytest.approx(want, rel=1e-12, abs=0)

    @given(x=st.floats(-5, 5), k=st.integers(1, 15))
    def test_pascal_identity(self, x, k):
        lhs = gen_binom(x, k)
        rhs = gen_binom(x - 1, k) + gen_binom(x - 1, k - 1)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestDirectSum:
    def test_trivial_entries(self):
        assert coeff_c(0.37, 0, 0) == 1.0
        assert coeff_c(0.5, 1, 1) == -0.5
        assert coeff_c(-1.0, 1, 1) == 1.0

    @pytest.mark.parametrize("gamma", [0.3, 0.5, -1.0, -2.0, 1.0])
    def test_k_zero_convention(self, gamma):
        # binomial theorem: sum_j (-1)^j C(m,j) = [m == 0]
        assert coeff_c(gamma, 0, 0) == 1.0
        for m in range(1, 6):
            assert coeff_c(gamma, m, 0) == 0.0

    @pytest.mark.parametrize("gamma", [0.3, 0.5, -1.0])
    def test_row_zero_vanishes(self, gamma):
        for k in range(1, 8):
            assert coeff_c(gamma, 0, k) == 0.0

    def test_vanishes_above_diagonal(self):
        # m-th finite difference of a degree-k polynomial in j
        for gamma in (0.3, -0.7):
            for k in range(5):
                for m in range(k + 1, k + 4):
                    assert coeff_c(gamma, m, k) == pytest.approx(0.0, abs=1e-300)

    @pytest.mark.parametrize("gamma", [0.5, -1.0, 0.3, -1.7, 1e-3])
    def test_equals_the_rounded_rational_sum(self, gamma):
        # the defining sum in Fraction arithmetic, rounded once: the integer
        # evaluation must give the same double, not merely a close one
        g = Fraction(gamma)
        for k in range(0, 25, 3):
            for m in range(k + 3):
                want = sum(
                    (-1) ** j * math.comb(m, j) * math.prod(g * j - i for i in range(k))
                    for j in range(m + 1)
                ) / math.factorial(k)
                assert coeff_c(gamma, m, k) == float(want), (m, k)

    def test_diagonal_closed_form(self):
        for gamma in (0.3, 0.5, -0.5, -2.0):
            for m in range(8):
                assert coeff_c(gamma, m, m) == pytest.approx(
                    (-gamma) ** m, rel=1e-13, abs=0
                )


class TestHalfReductions:
    def test_known_values(self):
        assert coeff_half(1, 1) == -0.5
        assert coeff_half(0, 0) == 1.0
        assert coeff_half(2, 3) == pytest.approx(coeff_c(0.5, 2, 3), rel=1e-13, abs=0)

    def test_regression_against_misprinted_step_factor(self):
        # the defining sum fixes C_{1/2,1}(2) = 1/8; a single-factor step
        # ratio would have produced 1/24 here
        assert coeff_c(0.5, 1, 2) == 0.125
        assert coeff_half(1, 2) == 0.125
        assert coeff_half_step(1, 1, coeff_half(1, 1)) == pytest.approx(0.125, rel=1e-14, abs=0)

    def test_step_matches_closed_form_on_grid(self):
        for m in range(0, 21):
            cur = coeff_half(m, max(m, 1)) if m else coeff_half(0, 1)
            for k in range(max(m, 1), 20):
                nxt = coeff_half_step(m, k, cur)
                assert rel_err(nxt, coeff_half(m, k + 1)) < 1e-13
                cur = nxt

    def test_step_preserves_zero_row(self):
        assert coeff_half_step(0, 3, 0.0) == 0.0

    def test_step_requires_k_at_least_m(self):
        with pytest.raises(DomainError):
            coeff_half_step(4, 2, 1.0)


class TestNegOneReductions:
    def test_known_values(self):
        assert coeff_neg1(1, 1) == 1.0
        assert coeff_neg1(2, 1) == 0.0
        assert coeff_neg1(2, 3) == pytest.approx(coeff_c(-1.0, 2, 3), rel=1e-13, abs=0)

    def test_closed_form_on_grid(self):
        for k in range(1, 15):
            for m in range(0, k + 1):
                assert rel_err(coeff_neg1(m, k), coeff_c(-1.0, m, k)) < 1e-13

    def test_step_consistency(self):
        for m in range(1, 12):
            cur = coeff_neg1(m, m)
            for k in range(m, 15):
                cur = coeff_neg1_step(m, k, cur)
                assert rel_err(cur, coeff_neg1(m, k + 1)) < 1e-13


class TestBuildTable:
    def test_kmax_zero(self):
        table = build_table(0.5, 0)
        assert table.values.shape == (1, 1)
        assert table.values[0, 0] == 1.0

    def test_row_zero_structure(self):
        table = build_table(0.3, 10)
        assert table.values[0, 0] == 1.0
        assert np.all(table.values[0, 1:] == 0.0)
        assert np.all(table.values[1:, 0] == 0.0)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_agrees_with_direct_sum_to_k25(self, gamma):
        # closed-form/recurrence/convolution paths vs the exact alternating sum
        kmax = 25
        table = build_table(gamma, kmax)
        for k in range(kmax + 1):
            for m in range(k + 1):
                want = coeff_c(gamma, m, k)
                got = table.values[m, k]
                assert abs(got - want) <= max(1e-10 * abs(want), 1e-12), (
                    gamma, m, k, got, want,
                )

    def test_gamma_one_is_kronecker_diagonal(self):
        table = build_table(1.0, 8)
        for k in range(9):
            for m in range(9):
                want = (-1.0) ** k if m == k else 0.0
                assert table.values[m, k] == pytest.approx(want, abs=1e-15)

    def test_values_are_frozen(self):
        table = build_table(0.5, 4)
        with pytest.raises(ValueError):
            table.values[0, 0] = 2.0

    def test_negative_kmax_rejected(self):
        with pytest.raises(DomainError):
            build_table(0.5, -1)
