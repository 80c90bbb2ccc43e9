"""Dense exact matrices and the small amount of linear algebra the engine needs.

A matrix is integer numerators over one common denominator, kept in lowest
terms, so a product is integer dot products and one gcd pass, and so is a
linear combination (ExactMatrix.combine, which + and - also take): its
scalars and matrices are cleared to one denominator first.  A product with
a diagonal factor (probed once per matrix) scales the other factor's rows
or columns: n^2 multiplications, not n^3.  Everything here is elementary
and done over the rationals with no rounding: Gaussian elimination for
solving.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from numbers import Rational
from operator import mul

from .errors import DimensionMismatch


def _rational(x):
    """x itself when it is an int or a Fraction (a numbers.Rational)."""
    if not isinstance(x, Rational):
        raise TypeError(f"matrix entries and scalars must be rational, not {type(x).__name__}")
    return x


def _reduced(num, den: int) -> "ExactMatrix":
    """The matrix num / den, den > 0, divided through by its content."""
    g = gcd(den, *chain.from_iterable(num))
    if g != 1:
        num = [[x // g for x in r] for r in num]
        den //= g
    m = object.__new__(ExactMatrix)
    object.__setattr__(m, "num", tuple(map(tuple, num)))
    object.__setattr__(m, "den", den)
    object.__setattr__(m, "_diagonal", None)
    return m


class ExactMatrix:
    """Immutable rational matrix num / den: rows of integer numerators over
    one denominator den > 0 with gcd(den, every numerator) = 1.

    The form is unique (the zero matrix has den 1), so == and hash are
    structural and exact; they ignore _diagonal, is_diagonal's memo.
    """

    __slots__ = ("num", "den", "_diagonal")

    def __init__(self, rows):
        rows = tuple(tuple(map(_rational, r)) for r in rows)
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise DimensionMismatch("rows must be nonempty and of equal length")
        # cleared to the lcm of the entries' denominators, which is lowest terms
        den = lcm(*(x.denominator for x in chain.from_iterable(rows)))
        object.__setattr__(self, "num", tuple(
            tuple(x.numerator * (den // x.denominator) for x in r) for r in rows
        ))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_diagonal", None)

    def __setattr__(self, *a):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix.diagonal([1] * n)

    @staticmethod
    def zeros(n: int) -> "ExactMatrix":
        return ExactMatrix([[0] * n for _ in range(n)])

    @staticmethod
    def diagonal(values) -> "ExactMatrix":
        values = list(values)
        n = len(values)
        return ExactMatrix(
            [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )

    # -- structure ---------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.num)

    @property
    def ncols(self) -> int:
        return len(self.num[0])

    @property
    def dimension(self) -> int:
        if self.nrows != self.ncols:
            raise DimensionMismatch("matrix is not square")
        return self.nrows

    @property
    def rows(self) -> tuple:
        """The entries as rows of Fractions."""
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in r) for r in self.num)

    def __getitem__(self, rc):
        r, c = rc
        return Fraction(self.num[r][c], self.den)

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def is_diagonal(self) -> bool:
        """Square with no nonzero off-diagonal entry; probed once per matrix,
        up to the first nonzero off-diagonal numerator."""
        if self._diagonal is None:
            num = self.num
            out = len(num) == len(num[0])
            for i, r in enumerate(num if out else ()):
                if any(r[:i]) or any(r[i + 1:]):
                    out = False
                    break
            object.__setattr__(self, "_diagonal", out)
        return self._diagonal

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "ExactMatrix"):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch(
                f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )

    @staticmethod
    def combine(pairs) -> "ExactMatrix":
        """The sum of c * M over (rational scalar c, matrix M) pairs, in one
        pass: every c * M is cleared to the lcm of the c.den * M.den, each
        entry is one integer dot product of the multipliers with the
        matrices' numerators, and the sum is reduced once."""
        pairs = [(_rational(c), M) for c, M in pairs]
        if not pairs:
            raise ValueError("a linear combination needs at least one matrix")
        first = pairs[0][1]
        for _, M in pairs[1:]:
            first._check(M)
        den = lcm(*(c.denominator * M.den for c, M in pairs))
        ks = [c.numerator * (den // (c.denominator * M.den)) for c, M in pairs]
        return _reduced(
            [
                [sum(map(mul, ks, entries)) for entries in zip(*rows)]
                for rows in zip(*(M.num for _, M in pairs))
            ],
            den,
        )

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return ExactMatrix.combine([(1, self), (1, other)])

    def __neg__(self) -> "ExactMatrix":
        return self._scaled(-1)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return ExactMatrix.combine([(1, self), (-1, other)])

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return self._scaled(other)
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.ncols} columns vs {other.nrows} rows")
        # scale the rows of other; a factor known to be diagonal spares the
        # other its probe
        if self._diagonal or (not other._diagonal and self.is_diagonal()):
            diag = [r[i] for i, r in enumerate(self.num)]
            num = [[k * x for x in row] for k, row in zip(diag, other.num)]
        elif other.is_diagonal():  # scale self's columns
            diag = [r[i] for i, r in enumerate(other.num)]
            num = [list(map(mul, row, diag)) for row in self.num]
        else:
            cols = list(zip(*other.num))
            num = [[sum(map(mul, row, col)) for col in cols] for row in self.num]
        return _reduced(num, self.den * other.den)

    def __rmul__(self, scalar) -> "ExactMatrix":
        return self._scaled(scalar)

    def _scaled(self, scalar) -> "ExactMatrix":
        n = _rational(scalar).numerator
        return _reduced([[x * n for x in r] for r in self.num], self.den * scalar.denominator)

    def __pow__(self, n: int) -> "ExactMatrix":
        if n < 0:
            raise ValueError("negative matrix powers are not supported")
        out = ExactMatrix.identity(self.dimension)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"ExactMatrix[{body}]"


# ---------------------------------------------------------------------------
# exact linear algebra over Fractions
# ---------------------------------------------------------------------------

def solve_linear(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Solve rows * x = rhs exactly; None if inconsistent, free vars -> 1."""
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    nrows, ncols = len(m), len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if m[i][ncols]:
            return None
    x = [Fraction(1)] * ncols
    for i, c in enumerate(pivots):
        x[c] = m[i][ncols] - sum(
            (m[i][j] * x[j] for j in range(ncols) if j != c and m[i][j]),
            Fraction(0),
        )
    return x
