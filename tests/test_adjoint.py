"""Operator calculus: primitives, balanced maps, shift maps, truncated sums."""

import random
from fractions import Fraction

import pytest

from qonsager.adjoint import (
    FORWARD,
    INVERSE,
    ImageCache,
    apply_ad,
    apply_bad,
    apply_badprod,
    apply_S,
    truncated_sum,
)
from qonsager.freealg import Alphabet, NcPoly
from qonsager.matrices import ExactMatrix
from qonsager.qcoeff import NumericQ, SYMBOLIC as m
from qonsager.repn import spectral_data

AXY = Alphabet(["A", "X", "Y"])
A = NcPoly.generator(AXY, "A")
X = NcPoly.generator(AXY, "X")
Y = NcPoly.generator(AXY, "Y")


class TestPrimitive:
    def test_plain_commutator(self):
        assert apply_ad(0, A, X) == A * X - X * A

    def test_on_identity(self):
        one = NcPoly.one(AXY)
        assert apply_ad(1, A, one) == m.qnum(1) * A

    def test_on_base_itself(self):
        for r in (-2, 1, 3):
            assert apply_ad(r, A, A) == m.qnum(r) * (A * A)


class TestBalanced:
    def test_order_zero(self):
        assert apply_bad(0, A, X) == (m.one() / m.qnum(1)) * (A * X - X * A)

    def test_order_one_against_expansion_oracle(self):
        # oracle: expand the twist pair by plain free-algebra products
        s, t = m.qnum(2), m.qnum(3)
        oracle = (m.one() / (s * t)) * (
            (s * s) * X + A * A * X - (m.q_pow(2) + m.q_pow(-2)) * (A * X * A) + X * A * A
        )
        assert apply_bad(1, A, X) == oracle

    def test_order_two_on_identity(self):
        one = NcPoly.one(AXY)
        s, t = m.qnum(4), m.qnum(5)
        expected = (m.one() / (s * t)) * (
            (s * s) * one - (m.qnum(2) * m.qnum(2)) * (A * A)
        )
        assert apply_bad(2, A, one) == expected

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            apply_bad(-1, A, X)


def composed_bad(n, base, V, mode):
    """The balanced map of twist n as the composition of its two twist
    primitives, scaled: the oracle for apply_bad's four-term sum."""
    if n == 0:
        return (mode.one() / mode.qnum(1)) * apply_ad(0, base, V, mode)
    s, t = mode.qnum(2 * n), mode.qnum(2 * n + 1)
    inner = apply_ad(n, base, apply_ad(-n, base, V, mode), mode)
    return (mode.one() / (s * t)) * ((s * s) * V + inner)


class TestBalancedOracle:
    @pytest.mark.parametrize("operands", ["poly-symbolic", "poly-numeric", "poly-base-sum",
                                          "matrix-d3"])
    @pytest.mark.parametrize("seed", range(4))
    def test_four_term_sum_equals_the_composition(self, operands, seed):
        rng = random.Random(seed)
        if operands == "matrix-d3":
            sd = spectral_data(3, 3, 2)
            mode, base = sd.mode, sd.A
            V = ExactMatrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
                             for _ in range(4)])
        else:
            mode = NumericQ(Fraction(5, 3)) if operands == "poly-numeric" else m
            base = NcPoly.generator(AXY, "A", mode)
            if operands == "poly-base-sum":  # not a word: products take the general path
                base = base + mode.q_pow(1) * NcPoly.generator(AXY, "Y", mode)
            scalar = rng.choice([mode.q_pow(-2), mode.one() / mode.qnum(3)])
            V = random_poly(rng, mode) + scalar * random_poly(rng, mode)
        for n in range(4):
            assert apply_bad(n, base, V, mode) == composed_bad(n, base, V, mode)


class TestBalancedProduct:
    def test_order_zero_is_identity_map(self):
        assert apply_badprod(0, A, X) == X

    def test_single_factor(self):
        assert apply_badprod(1, A, X) == apply_bad(0, A, X)

    def test_order_two_is_relation_defect(self):
        th = m.qint(3)
        rho = m.qnum(2) * m.qnum(2)
        den = m.qnum(1) * m.qnum(2) * m.qnum(3)
        defect = (
            A * A * A * X
            - th * (A * A * X * A)
            + th * (A * X * A * A)
            - X * A * A * A
            + rho * (A * X - X * A)
        )
        assert apply_badprod(2, A, X) == (m.one() / den) * defect

    def test_factorization(self):
        for n in range(5):
            assert apply_badprod(n + 1, A, X) == apply_bad(
                n, A, apply_badprod(n, A, X)
            )


class TestShift:
    def test_order_zero(self):
        assert apply_S(0, A, X, FORWARD) == X

    def test_order_one_forward_closed_form(self):
        den = m.qnum(1) * m.qnum(2)
        expected = (m.one() / den) * (
            m.q_pow(1) * (A * A * X)
            - (m.q_pow(1) + m.q_pow(-1)) * (A * X * A)
            + m.q_pow(-1) * (X * A * A)
        )
        assert apply_S(1, A, X, FORWARD) == expected

    def test_order_one_inverse_closed_form(self):
        den = m.qnum(1) * m.qnum(2)
        expected = (m.one() / den) * (
            m.q_pow(-1) * (A * A * X)
            - (m.q_pow(1) + m.q_pow(-1)) * (A * X * A)
            + m.q_pow(1) * (X * A * A)
        )
        assert apply_S(1, A, X, INVERSE) == expected

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            apply_S(1, A, X, "sideways")


class TestTruncatedSum:
    def test_bound_zero(self):
        assert truncated_sum(A, X, 0, FORWARD) == X

    def test_bound_one_matches_shift_sum(self):
        assert truncated_sum(A, X, 1, FORWARD) == X + apply_S(1, A, X, FORWARD)

    def test_fixes_base_element(self):
        assert truncated_sum(A, A, 3, FORWARD) == A
        assert truncated_sum(A, A, 3, INVERSE) == A

    @pytest.mark.parametrize("mode", [m, NumericQ(Fraction(5, 3))], ids=["symbolic", "numeric"])
    def test_polynomial_sum_is_one_lazy_combine(self, mode):
        base = NcPoly.generator(AXY, "A", mode)
        V = random_poly(random.Random(5), mode)
        got = truncated_sum(base, V, 3, FORWARD, mode)
        assert got._terms is None  # a running + would have built the coefficients
        assert got == V + sum((apply_S(n, base, V, FORWARD, mode) for n in (1, 2, 3)), NcPoly.zero(AXY))

    def test_matrix_sum_makes_5n_minus_1_products(self, monkeypatch):
        """A*image and image*A of each balanced product serve its shift map and
        the next balanced map, so order N costs 5N - 1 matrix products."""
        sd = spectral_data(3, 3, 2)
        V = ExactMatrix([[sd.mode.from_fraction(i - j) for j in range(4)] for i in range(4)])
        products = []
        mul = ExactMatrix.__mul__

        def spy(M, other):
            if isinstance(other, ExactMatrix):
                products.append(other)
            return mul(M, other)

        for N in (1, 2, 3):
            products.clear()
            monkeypatch.setattr(ExactMatrix, "__mul__", spy)
            got = truncated_sum(sd.A, V, N, FORWARD, sd.mode)
            monkeypatch.undo()
            assert len(products) == 5 * N - 1
            assert got == sum((apply_S(n, sd.A, V, FORWARD, sd.mode) for n in range(1, N + 1)), V)

    @pytest.mark.parametrize("operands", ["poly-symbolic", "poly-numeric", "matrix-d3"])
    def test_matches_naive_shift_sum(self, operands):
        """The sum built from one growing balanced product equals the sum of
        shift maps each rebuilt from scratch, in either composition order."""
        if operands == "matrix-d3":
            sd = spectral_data(3, 3, 2)
            mode, base = sd.mode, sd.A
            rng = random.Random(3)
            V = ExactMatrix(
                [[mode.from_fraction(rng.randint(-9, 9)) for _ in range(4)] for _ in range(4)]
            )
        else:
            mode = m if operands == "poly-symbolic" else NumericQ(Fraction(5, 3))
            base = NcPoly.generator(AXY, "A", mode)
            V = random_poly(random.Random(7), mode)
        for direction, e in ((FORWARD, 1), (INVERSE, -1)):
            naive = bp_after_ad = V
            for N in range(5):
                if N:
                    naive = naive + apply_S(N, base, V, direction, mode)
                    bp_after_ad = bp_after_ad + (mode.one() / mode.qnum(2 * N)) * apply_badprod(
                        N, base, apply_ad(e * N, base, V, mode), mode
                    )
                assert truncated_sum(base, V, N, direction, mode) == naive == bp_after_ad


def random_poly(rng, mode=m):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        w = tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 3)))
        terms[w] = mode.from_fraction(rng.randint(1, 3))
    return NcPoly(AXY, terms)


class TestCommutation:
    def test_primitives_commute(self):
        rng = random.Random(20240)
        for _ in range(6):
            V = random_poly(rng)
            for r in range(-3, 4):
                for s in range(-3, 4):
                    lhs = apply_ad(r, A, apply_ad(s, A, V))
                    rhs = apply_ad(s, A, apply_ad(r, A, V))
                    assert lhs == rhs

    def test_operator_composition_order_is_immaterial(self):
        # what lets a shift map apply its primitive after its balanced product
        rng = random.Random(20241)
        for _ in range(4):
            V = random_poly(rng)
            for n in range(4):
                for r in range(-3, 4):
                    assert apply_bad(n, A, apply_ad(r, A, V)) == apply_ad(r, A, apply_bad(n, A, V))


class TestOperatorForm:
    def test_cached_images_match_eager_application(self):
        maps = ImageCache(A)
        for V in (X, X * Y + A):
            for n in range(4):
                assert maps.bp(n, V) == apply_badprod(n, A, V)
                assert maps.S(n, V, FORWARD) == apply_S(n, A, V, FORWARD)
                assert maps.S(n, V, INVERSE) == apply_S(n, A, V, INVERSE)
                assert maps.bad(n, V) == apply_bad(n, A, V)
                assert maps.ad(-n, V) == apply_ad(-n, A, V)
        # a repeated request is answered from the cache
        assert maps.S(3, X, INVERSE) is maps.S(3, X, INVERSE)

    def test_sum_and_scale(self):
        expected = (m.q_pow(1) + m.q_pow(-1)) * apply_ad(0, A, X)
        assert apply_ad(1, A, X) + apply_ad(-1, A, X) == expected
