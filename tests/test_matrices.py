"""ExactMatrix against a nested-list Fraction reference that shares no code
with matrices.py, and the canonical num / den form that == and hash rely on."""

import random
from fractions import Fraction
from math import gcd

import pytest

from qonsager.errors import DimensionMismatch
from qonsager.matrices import ExactMatrix
from qonsager.qcoeff import SYMBOLIC


# -- the reference: lists of Fraction rows, schoolbook arithmetic --------------

def ref_add(x, y):
    return [[a + b for a, b in zip(r, s)] for r, s in zip(x, y)]


def ref_sub(x, y):
    return [[a - b for a, b in zip(r, s)] for r, s in zip(x, y)]


def ref_mul(x, y):
    return [
        [sum((x[i][k] * y[k][j] for k in range(len(y))), Fraction(0)) for j in range(len(y[0]))]
        for i in range(len(x))
    ]


def ref_scale(c, x):
    return [[c * a for a in r] for r in x]


def ref_pow(x, n):
    out = [[Fraction(int(i == j)) for j in range(len(x))] for i in range(len(x))]
    for _ in range(n):
        out = ref_mul(out, x)
    return out


def random_rows(rng, nrows, ncols):
    """Mixed denominators, negative entries, ints beside Fractions, zero rows."""
    rows = []
    for _ in range(nrows):
        if rng.random() < 0.2:
            rows.append([Fraction(0)] * ncols)
            continue
        row = []
        for _ in range(ncols):
            num = rng.choice((0, 0, rng.randint(-30, 30)))
            den = rng.choice((1, 2, 3, 4, 6, 9, 10, 35, 49))
            row.append(Fraction(num, den) if rng.random() < 0.7 else num)
        rows.append(row)
    return rows


def entries(M):
    return [[M[i, j] for j in range(M.ncols)] for i in range(M.nrows)]


def assert_canonical(M):
    assert M.den > 0
    assert gcd(M.den, *(x for r in M.num for x in r)) == 1
    assert all(type(x) is int for r in M.num for x in r)
    if M.is_zero():
        assert M.den == 1


def assert_matches(M, ref):
    assert_canonical(M)
    assert entries(M) == ref
    assert [list(r) for r in M.rows] == ref
    assert M.is_zero() == all(not a for r in ref for a in r)


SEEDS = range(12)
SCALARS = (0, 1, -3, Fraction(0), Fraction(3, 7), Fraction(-10, 9), Fraction(1, 35))


class TestAgainstReference:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_construction(self, seed):
        rng = random.Random(seed)
        rows = random_rows(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert_matches(ExactMatrix(rows), [[Fraction(a) for a in r] for r in rows])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sum_and_difference(self, seed):
        rng = random.Random(seed)
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        x, y = random_rows(rng, n, m), random_rows(rng, n, m)
        X, Y = ExactMatrix(x), ExactMatrix(y)
        assert_matches(X + Y, ref_add(x, y))
        assert_matches(X - Y, ref_sub(x, y))
        assert_matches(X - X, ref_sub(x, x))
        assert_matches(-X, ref_scale(-1, x))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rectangular_product(self, seed):
        rng = random.Random(seed)
        n, k, m = (rng.randint(1, 4) for _ in range(3))
        x, y = random_rows(rng, n, k), random_rows(rng, k, m)
        assert_matches(ExactMatrix(x) * ExactMatrix(y), ref_mul(x, y))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_scalar_products(self, seed):
        rng = random.Random(seed)
        x = random_rows(rng, rng.randint(1, 4), rng.randint(1, 4))
        X = ExactMatrix(x)
        for c in SCALARS:
            assert_matches(c * X, ref_scale(c, x))
            assert_matches(X * c, ref_scale(c, x))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_powers(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        x = random_rows(rng, n, n)
        for e in range(6):
            assert_matches(ExactMatrix(x) ** e, ref_pow(x, e))


def random_diagonal(rng, n):
    """Diagonal rows: zero, negative and non-integer entries, the first
    entry -5/6 so that the denominator exceeds 1."""
    values = [Fraction(-5, 6)] + [
        rng.choice((0, -1, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.choice((2, 7)))))
        for _ in range(n - 1)
    ]
    return [[Fraction(values[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def random_dense(rng, nrows, ncols):
    """random_rows with 1/4 in the top left corner, so that the denominator
    exceeds 1, and -2/3 in the bottom left one, off the diagonal."""
    rows = [[Fraction(a) for a in r] for r in random_rows(rng, nrows, ncols)]
    rows[-1][0] = Fraction(-2, 3)
    rows[0][0] = Fraction(1, 4)
    return rows


class TestDiagonalProduct:
    """A product with a diagonal factor scales rows or columns; checked
    against the Fraction triple loop ref_mul."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("probed", [False, True])
    def test_diagonal_beside_dense(self, seed, probed):
        """Each factor fresh, or probed before the product."""
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        d, x, e = random_diagonal(rng, n), random_dense(rng, n, n), random_diagonal(rng, n)
        rows = {"d": d, "x": x, "e": e}
        known = {k: ExactMatrix(v) for k, v in rows.items()}
        assert known["d"].den > 1 and known["x"].den > 1
        assert known["d"].is_diagonal() and known["e"].is_diagonal()
        assert known["x"].is_diagonal() == (n == 1)
        M = known.__getitem__ if probed else (lambda k: ExactMatrix(rows[k]))
        assert_matches(M("d") * M("x"), ref_mul(d, x))
        assert_matches(M("x") * M("d"), ref_mul(x, d))
        assert_matches(M("d") * M("e"), ref_mul(d, e))
        assert_matches(M("d") * M("x") * M("e"), ref_mul(ref_mul(d, x), e))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_non_square_factor_beside_diagonal(self, seed):
        rng = random.Random(seed)
        x, d, y = random_dense(rng, 2, 3), random_diagonal(rng, 3), random_dense(rng, 3, 2)
        X, D, Y = ExactMatrix(x), ExactMatrix(d), ExactMatrix(y)
        assert not X.is_diagonal() and not Y.is_diagonal()
        assert_matches(X * D, ref_mul(x, d))
        assert_matches(D * Y, ref_mul(d, y))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_zero_and_identity_factors(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        x = random_dense(rng, n, n)
        X, Z, I = ExactMatrix(x), ExactMatrix.zeros(n), ExactMatrix.identity(n)
        zero = [[Fraction(0)] * n for _ in range(n)]
        assert Z.is_diagonal() and I.is_diagonal()
        for M in (Z * X, X * Z, Z * Z):
            assert_matches(M, zero)
        assert_matches(I * X, x)
        assert_matches(X * I, x)

    def test_which_matrices_are_diagonal(self):
        assert ExactMatrix([[Fraction(-3, 2)]]).is_diagonal()
        assert ExactMatrix.diagonal([0, Fraction(1, 3), -2]).is_diagonal()
        assert not ExactMatrix([[1, 0], [Fraction(1, 5), 1]]).is_diagonal()
        assert not ExactMatrix([[1, 0, 0], [0, 1, 0]]).is_diagonal()  # not square
        assert not ExactMatrix([[0, 0], [0, 0], [0, 0]]).is_diagonal()

    def test_probed_matrix_equals_and_hashes_like_an_unprobed_one(self):
        rows = [[Fraction(7, 4), 0], [0, -3]]
        probed, fresh = ExactMatrix(rows), ExactMatrix(rows)
        assert probed.is_diagonal()
        dense, fresh_dense = ExactMatrix([[1, 2], [3, 4]]), ExactMatrix([[1, 2], [3, 4]])
        assert not dense.is_diagonal()
        for left, right in ((probed, fresh), (dense, fresh_dense), (probed * dense, fresh * fresh_dense)):
            assert left == right and right == left
            assert hash(left) == hash(right)
            assert len({left, right}) == 1


def ref_combine(pairs):
    """Entry by entry, sum of c * x over (c, rows) pairs in Fractions."""
    _, first = pairs[0]
    return [
        [sum((Fraction(c) * Fraction(x[i][j]) for c, x in pairs), Fraction(0))
         for j in range(len(first[0]))]
        for i in range(len(first))
    ]


class TestCombine:
    """ExactMatrix.combine, one pass over (scalar, matrix) pairs, against the
    entry-by-entry Fraction sum."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_against_fraction_sums(self, seed):
        rng = random.Random(seed)
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        pairs = [(rng.choice(SCALARS), random_rows(rng, n, m)) for _ in range(rng.randint(1, 6))]
        got = ExactMatrix.combine([(c, ExactMatrix(x)) for c, x in pairs])
        assert_matches(got, ref_combine(pairs))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cancelling_combination_is_the_zero_matrix(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        x, y = random_rows(rng, n, n), random_rows(rng, n, n)
        c = rng.choice((2, -3, Fraction(3, 7), Fraction(-10, 9)))
        X, Y = ExactMatrix(x), ExactMatrix(y)
        got = ExactMatrix.combine([(c, X), (1, Y), (-c, X), (Fraction(-1), Y)])
        assert got == ExactMatrix.zeros(n)
        assert got.den == 1
        assert hash(got) == hash(ExactMatrix.zeros(n))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_single_pair_is_the_scalar_product(self, seed):
        rng = random.Random(seed)
        X = ExactMatrix(random_rows(rng, rng.randint(1, 4), rng.randint(1, 4)))
        for c in SCALARS:
            assert ExactMatrix.combine([(c, X)]) == c * X

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            ExactMatrix.combine([(1, ExactMatrix.zeros(2)), (2, ExactMatrix.zeros(3))])
        with pytest.raises(DimensionMismatch):
            ExactMatrix.combine([(1, ExactMatrix([[1, 2]])), (1, ExactMatrix([[1], [2]]))])

    def test_rational_function_scalar_raises(self):
        X = ExactMatrix([[Fraction(1, 2), 3], [0, -1]])
        with pytest.raises(TypeError):
            ExactMatrix.combine([(1, X), (SYMBOLIC.q_pow(1), X)])


class TestCanonicalForm:
    def test_zero_matrix_has_denominator_one(self):
        X = ExactMatrix([[Fraction(1, 6), Fraction(-5, 4)], [0, Fraction(7, 9)]])
        for Z in (X - X, 0 * X, Fraction(0) * X, ExactMatrix.zeros(2),
                  ExactMatrix([[Fraction(0, 7)] * 2] * 2)):
            assert (Z.num, Z.den) == (((0, 0), (0, 0)), 1)

    def test_cleared_to_lowest_terms(self):
        X = ExactMatrix([[Fraction(1, 6), Fraction(-5, 4)], [0, Fraction(7, 9)]])
        assert (X.num, X.den) == (((6, -45), (0, 28)), 36)
        Y = ExactMatrix([[Fraction(1, 2), Fraction(1, 2)], [Fraction(3, 2), 0]])
        assert (Y + Y).den == 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_equal_values_by_different_routes(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        X, Y, Z = (ExactMatrix(random_rows(rng, n, n)) for _ in range(3))
        pairs = [
            ((X * Y) * Z, X * (Y * Z)),
            (X + X, 2 * X),
            ((X * Fraction(3, 7)) * Fraction(7, 3), X),
            (X * Y - X * Y, ExactMatrix.zeros(n)),
            (Fraction(1, 2) * X + Fraction(1, 2) * X, X),
            (ExactMatrix(X.rows), X),
        ]
        for left, right in pairs:
            assert_canonical(left)
            assert left == right
            assert hash(left) == hash(right)
            assert len({left, right}) == 1

    def test_unequal_values_differ(self):
        X = ExactMatrix([[Fraction(1, 2)]])
        assert X != 2 * X
        assert X != ExactMatrix([[Fraction(1, 2), 0]])
        assert X != [[Fraction(1, 2)]]


class TestInputTypes:
    """Only ints and Fractions are entries or scalars; nothing is stored silently."""

    @pytest.mark.parametrize("entry", ["1", 1.0, 0.5, None])
    def test_non_rational_entry_raises(self, entry):
        with pytest.raises(TypeError):
            ExactMatrix([[Fraction(1), entry]])

    @pytest.mark.parametrize("scalar", [SYMBOLIC.q_pow(1), SYMBOLIC.one(), 0.5, "2"])
    def test_non_rational_scalar_raises(self, scalar):
        X = ExactMatrix([[Fraction(1, 2), 3], [0, -1]])
        with pytest.raises(TypeError):
            scalar * X
        with pytest.raises(TypeError):
            X * scalar
