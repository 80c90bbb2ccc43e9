"""Dense exact matrices and the small amount of linear algebra the engine needs.

Entries are Fractions.  Everything here is elementary and done over the
rationals with no rounding: Gaussian elimination for solving.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch


class ExactMatrix:
    """Immutable matrix with Fraction entries."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise DimensionMismatch("rows must be nonempty and of equal length")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *a):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix.diagonal([Fraction(1)] * n)

    @staticmethod
    def zeros(n: int) -> "ExactMatrix":
        return ExactMatrix([[Fraction(0)] * n for _ in range(n)])

    @staticmethod
    def diagonal(values) -> "ExactMatrix":
        values = list(values)
        zero = 0 * values[0]
        n = len(values)
        return ExactMatrix(
            [[values[i] if i == j else zero for j in range(n)] for i in range(n)]
        )

    # -- structure ---------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def dimension(self) -> int:
        if self.nrows != self.ncols:
            raise DimensionMismatch("matrix is not square")
        return self.nrows

    def __getitem__(self, rc):
        r, c = rc
        return self.rows[r][c]

    def is_zero(self) -> bool:
        return all(not x for row in self.rows for x in row)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "ExactMatrix"):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch(
                f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check(other)
        return ExactMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ]
        )

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix([[-a for a in r] for r in self.rows])

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return ExactMatrix([[a * other for a in r] for r in self.rows])
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.ncols} columns vs {other.nrows} rows")
        cols = list(zip(*other.rows))
        return ExactMatrix(
            [
                [_dot(row, col) for col in cols]
                for row in self.rows
            ]
        )

    def __rmul__(self, scalar) -> "ExactMatrix":
        return ExactMatrix([[scalar * a for a in r] for r in self.rows])

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
        return isinstance(other, ExactMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"ExactMatrix[{body}]"


def _dot(u, v):
    out = None
    for a, b in zip(u, v):
        p = a * b
        out = p if out is None else out + p
    return out


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
