"""Exact matrix realizations: eigenvalue arrays, idempotents, twisting.

On a module where the first generator acts diagonalizably with eigenvalue
array theta_i = a*q^(d-2i) + a^(-1)*q^(2i-d), the primitive idempotents E_i
come from Lagrange interpolation, the scalars t_i = a^(2i)*q^(2i(d-i))
assemble the invertible twisting element Psi = sum t_i E_i, and the shift
automorphism acts by conjugation: its image of X equals Psi^(-1) X Psi.
Three routes reach that map and are checked against each other exactly:
the adjoint engine's truncated shift-map sum on the whole model; the same
sum on each eigenline, diag(theta_i, theta_j) acting on the unit e_01,
whose (0, 1) entry must be the scalar t_j / t_i; and conjugation by Psi.

Tridiagonal pairs are realized with exact rational entries.  The diameter-1
pair has a closed form; larger diameters go through a file import or a
split-form search that solves the first defining relation (linear in the
second generator) for the superdiagonal of an upper-bidiagonal candidate
and then validates every invariant, reporting failure without prejudice.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import product

from .adjoint import FORWARD, INVERSE, ImageCache, apply_badprod, truncated_sum
from .errors import (
    DegenerateEigenvalues,
    DimensionMismatch,
    InvalidQ,
    InvariantViolation,
    NotDiagonalizable,
    ParseError,
)
from .freealg import Alphabet
from .matrices import ExactMatrix, solve_linear
from .onsager import defining_relations
from .qcoeff import NumericQ, json_fraction, json_int
from .report import CheckRecord, FAIL, PASS


def theta_sequence(d: int, a, q0, name: str = "a") -> list[Fraction]:
    """Eigenvalue array a*q0^(d-2i) + a^(-1)*q0^(2i-d) for i = 0..d.

    Rejects forbidden q0 and eigenvalue collisions, calling the parameter
    `name` in messages ("b" for the dual array), and asserts the two
    facts the array is used for downstream: adjacent pairs are roots of
    the adjacency polynomial and the interior satisfies the three-term
    recurrence with coefficient q^2 + q^-2.
    """
    if d < 1:
        raise ValueError("diameter must be at least 1")
    a = Fraction(a)
    if not a:
        raise ValueError(f"{name} must be nonzero")
    q0 = Fraction(q0)
    if q0 in (0, 1, -1):
        raise InvalidQ(f"q0 = {q0} is forbidden")
    theta = [a * q0 ** (d - 2 * i) + q0 ** (2 * i - d) / a for i in range(d + 1)]
    if len(set(theta)) != d + 1:
        raise DegenerateEigenvalues(f"eigenvalue collision for {name}={a}, q0={q0}, d={d}")
    if any(_adjacency(theta[i], theta[i + 1], q0) for i in range(d)):
        raise AssertionError("adjacent eigenvalue constraint violated")
    c2 = q0 ** 2 + q0 ** -2
    for j in range(1, d):
        if theta[j - 1] - c2 * theta[j] + theta[j + 1]:
            raise AssertionError("three-term recurrence violated")
    return theta


def _adjacency(x, y, q0):
    """x^2 - (q^2+q^-2)xy + y^2 + (q^2-q^-2)^2, zero on adjacent eigenvalues."""
    return x ** 2 - (q0 ** 2 + q0 ** -2) * x * y + y ** 2 + (q0 ** 2 - q0 ** -2) ** 2


def _idempotents(M: ExactMatrix, eigs: list[Fraction]) -> list[ExactMatrix] | None:
    """Lagrange idempotents E_i = prod_{j != i} (M - eigs[j]) / (eigs[i] - eigs[j]),
    or None unless M has exactly the spectrum eigs, one eigenline each.

    (M - eigs[0]) E_0 is the product of all M - eigs[i] over a nonzero
    scalar, so it is zero exactly when M is diagonalizable with eigenvalues
    among eigs; E_i is then the projection onto the eigs[i]-eigenspace.
    Those ranks sum to the dimension, so when it is len(eigs) and every E_i
    is nonzero, each has rank one.
    """
    ident = ExactMatrix.identity(M.dimension)
    factors = [M - mu * ident for mu in eigs]
    out = []
    for i, lam in enumerate(eigs):
        P = ident
        for j, mu in enumerate(eigs):
            if j != i:
                P = (1 / (lam - mu)) * (P * factors[j])
        out.append(P)
    if not (factors[0] * out[0]).is_zero() or any(P.is_zero() for P in out):
        return None
    return out


@dataclass
class SpectralData:
    """Eigenstructure of the first generator plus the twisting element."""

    d: int
    a: Fraction
    q0: Fraction
    mode: NumericQ
    A: ExactMatrix
    theta: list[Fraction]
    t: list[Fraction]
    E: list[ExactMatrix]
    Psi: ExactMatrix
    PsiInv: ExactMatrix
    lines: dict = field(default_factory=dict, compare=False, repr=False)  # (i, j) -> ImageCache


def spectral_data(d: int, a, q0, A: ExactMatrix | None = None,
                  E: list[ExactMatrix] | None = None) -> SpectralData:
    """Idempotents by Lagrange interpolation, twist scalars, and the twist.

    With A omitted the diagonal model is used, but the Lagrange route is
    kept so that imported non-diagonal matrices (for example split-form
    pairs) are supported identically.  One matrix product validates the
    idempotents: sum E_i = I holds for every A because the Lagrange basis
    sums to 1, and once (A - theta_0) E_0, the product of all A - theta_i up
    to a nonzero scalar, vanishes, A E_i = theta_i E_i and
    E_i E_j = delta_ij E_i follow.  The d + 1 ranks of the E_i then sum to
    d + 1, so requiring every E_i nonzero makes each of rank one: A has
    every theta_i as an eigenvalue, none repeated.

    E, when given, must be those idempotents of A, as the validated TDPair
    of A caches them; they are then neither computed nor checked again.
    """
    a = Fraction(a)
    mode = NumericQ(q0)
    theta = theta_sequence(d, a, q0)
    q0 = mode.q0
    t = [a ** (2 * i) * q0 ** (2 * i * (d - i)) for i in range(d + 1)]
    if A is None:
        A = ExactMatrix.diagonal(theta)
    if A.dimension != d + 1:
        raise DimensionMismatch("matrix dimension must be d + 1")
    if E is None:
        E = _idempotents(A, theta)
        if E is None:
            raise NotDiagonalizable("matrix does not act by its eigenvalue array")
    Psi = ExactMatrix.combine(zip(t, E))
    PsiInv = ExactMatrix.combine((1 / ti, Ei) for ti, Ei in zip(t, E))
    assert Psi * PsiInv == ExactMatrix.identity(d + 1)
    return SpectralData(d, a, q0, mode, A, theta, t, E, Psi, PsiInv)


# ---------------------------------------------------------------------------
# scalar sums
# ---------------------------------------------------------------------------

_E01 = ExactMatrix([[0, 1], [0, 0]])


def _eigenline(i: int, j: int, sd: SpectralData) -> ImageCache:
    """The adjoint maps over diag(theta_i, theta_j), memoized on sd.  Like the
    first generator on e_ij, this base scales e_01 by theta_i on the left and
    theta_j on the right, so each map acts on e_01 by its (i, j) scalar."""
    maps = sd.lines.get((i, j))
    if maps is None:
        A = ExactMatrix.diagonal([sd.theta[i], sd.theta[j]])
        maps = sd.lines[i, j] = ImageCache(A, sd.mode)
    return maps


def sigma_prefactor(n: int, i: int, j: int, sd: SpectralData):
    """Scalar of the order-n balanced product on the (i, j) eigenline.

    It is 1 for n = 0 and vanishes for n > |i - j|.
    """
    return _eigenline(i, j, sd).bp(n, _E01)[0, 1]


def scalar_S_ratio(i: int, j: int, sd: SpectralData, direction: str = FORWARD):
    """Truncated shift-map sum on the (i, j) eigenline.

    Forward it equals t_j / t_i and inverse t_i / t_j; truncation at
    n = |i - j| is exact because the balanced products vanish beyond it.
    """
    return _eigenline(i, j, sd).truncated_sum(_E01, abs(i - j), direction)[0, 1]


# ---------------------------------------------------------------------------
# the automorphism on matrices
# ---------------------------------------------------------------------------

def matrix_lusztig(X: ExactMatrix, sd: SpectralData, direction: str = FORWARD) -> ExactMatrix:
    """Truncated shift-map sum computed with matrix products.

    Truncation at the diameter is exact: on each eigenline the summand
    scalar vanishes beyond the index distance, which is at most d.
    """
    if X.dimension != sd.d + 1:
        raise DimensionMismatch("matrix dimension must be d + 1")
    return truncated_sum(sd.A, X, sd.d, direction, sd.mode)


def verify_conjugation(sd: SpectralData, trials: int, seed: int) -> CheckRecord:
    """Seeded random matrices: the operator sum equals twist conjugation."""
    if trials < 1:
        raise ValueError("at least one trial required")
    rng = random.Random(seed)
    n = sd.d + 1
    failures = []
    for k in range(trials):
        X = ExactMatrix(
            [[sd.mode.from_fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
        )
        fwd = matrix_lusztig(X, sd, FORWARD)
        inv = matrix_lusztig(X, sd, INVERSE)
        if fwd != sd.PsiInv * X * sd.Psi or inv != sd.Psi * X * sd.PsiInv:
            failures.append(k)
    return CheckRecord(
        name="conjugation",
        params=(sd.d, str(sd.a), str(sd.q0), trials, seed),
        status=FAIL if failures else PASS,
        anchor="twist-conjugation",
        detail=f"{trials} random matrices" + (f"; failing trials {failures}" if failures else ""),
    )


def random_a1_matrix(sd: SpectralData, seed: int) -> ExactMatrix:
    """Seeded random tridiagonal matrix with nonzero off-diagonals.

    In the eigenbasis of the diagonal model such a matrix is annihilated by
    the order-2 balanced product; this is asserted at construction.
    """
    rng = random.Random(seed)
    n = sd.d + 1
    f = sd.mode.from_fraction

    def nonzero():
        x = 0
        while not x:
            x = rng.randint(-5, 5)
        return x

    rows = [[f(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = f(rng.randint(-5, 5))
        if i + 1 < n:
            rows[i][i + 1] = f(nonzero())
            rows[i + 1][i] = f(nonzero())
    X = ExactMatrix(rows)
    assert apply_badprod(2, sd.A, X, sd.mode).is_zero()
    return X


def higher_dg_matrix(r: int, sd: SpectralData, seed: int) -> CheckRecord:
    """Order r + 1 balanced product annihilates the r-th power, exactly."""
    if r < 1:
        raise ValueError("order must be a positive integer")
    X = random_a1_matrix(sd, seed)
    value = apply_badprod(r + 1, sd.A, X ** r, sd.mode)
    return CheckRecord(
        name=f"higher-dg-matrix-r{r}",
        params=(r, sd.d, str(sd.a), str(sd.q0), seed),
        status=PASS if value.is_zero() else FAIL,
        anchor="higher-dg",
        detail=f"d={sd.d}",
    )


# ---------------------------------------------------------------------------
# tridiagonal pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TDPair:
    """Exact matrix pair acting tridiagonally on each other's eigenbases.

    Eigenvalue arrays and idempotents are computed once, on first use; E
    (E_star) is None unless A (B) has the spectrum theta (theta_star).
    """

    d: int
    a: Fraction
    b: Fraction
    q0: Fraction
    A: ExactMatrix
    B: ExactMatrix

    @cached_property
    def theta(self) -> list[Fraction]:
        return theta_sequence(self.d, self.a, self.q0)

    @cached_property
    def theta_star(self) -> list[Fraction]:
        return theta_sequence(self.d, self.b, self.q0, "b")

    @cached_property
    def E(self) -> list[ExactMatrix] | None:
        return _idempotents(self.A, self.theta)

    @cached_property
    def E_star(self) -> list[ExactMatrix] | None:
        return _idempotents(self.B, self.theta_star)


def _dg_defect(first: ExactMatrix, second: ExactMatrix, q0: Fraction) -> ExactMatrix:
    """Defect of the first defining relation at A = first, B = second."""
    relation = defining_relations(Alphabet(["A", "B"]), NumericQ(q0))[0]
    return relation.evaluate({"A": first, "B": second}, ExactMatrix.identity(first.dimension))


def _in_eigenbasis(E: list[ExactMatrix], M: ExactMatrix) -> ExactMatrix:
    """(first nonzero row of E_i) M (first nonzero column of E_j), over i, j.

    E are nonzero orthogonal idempotents summing to I, one per dimension
    (else DimensionMismatch), so each has rank one, E_i = x_i y_i, and entry
    (i, j), a nonzero multiple of y_i M x_j, is zero exactly when E_i M E_j is.
    """
    n = M.dimension
    if len(E) != n:
        raise DimensionMismatch(f"{len(E)} idempotents on a space of dimension {n}")
    rows = ExactMatrix([next(r for r in P.rows if any(r)) for P in E])
    cols = ExactMatrix(zip(*(next(c for c in zip(*P.rows) if any(c)) for P in E)))
    return rows * M * cols


def _strongly_connected(P: ExactMatrix) -> bool:
    """Whether the nonzero off-diagonal entries of P link every index to every other."""
    n = P.dimension
    for linked in (lambda i, j: P[i, j], lambda i, j: P[j, i]):
        seen = {0}
        for _ in range(n):
            seen |= {j for i in seen for j in range(n) if linked(i, j)}
        if len(seen) < n:
            return False
    return True


def validate_td_pair(tp: TDPair) -> list[str]:
    """All structural invariants; returns the list of violations (empty = ok).

    The idempotents of a generator with its d + 1 distinct eigenvalues are
    d + 1 nonzero orthogonal projections summing to I on a (d + 1)-space,
    so each has rank one and the tridiagonal action is an entry test on the
    other generator in that eigenbasis.  By Burnside's theorem the pair is
    irreducible exactly when it generates the full matrix algebra.  The E_i
    of A are polynomials in A and E_i B E_j != 0 puts the matrix unit e_ij
    in that algebra, so it is full exactly when these entries link every
    eigenline to every other (else the eigenlines reachable from one span
    an invariant subspace).
    """
    violations = []
    n = tp.d + 1
    if tp.A.dimension != n or tp.B.dimension != n:
        return ["dimension"]
    try:
        EA, EB = tp.E, tp.E_star
    except (DegenerateEigenvalues, InvalidQ, ValueError) as e:
        return [f"eigenvalue-arrays: {e}"]
    if EA is None:
        violations.append("first-generator-diagonalizable")
    if EB is None:
        violations.append("second-generator-diagonalizable")
    B_on_A = None if EA is None else _in_eigenbasis(EA, tp.B)
    if B_on_A is not None and EB is not None:
        A_on_B = _in_eigenbasis(EB, tp.A)
        for P, label in ((B_on_A, "second-on-first"), (A_on_B, "first-on-second")):
            for i, j in product(range(n), repeat=2):
                if abs(i - j) > 1 and P[i, j]:
                    violations.append(f"band-{label}-({i},{j})")
                if abs(i - j) == 1 and not P[i, j]:
                    violations.append(f"offdiagonal-vanishes-{label}-({i},{j})")
    if not _dg_defect(tp.A, tp.B, tp.q0).is_zero():
        violations.append("relation-1")
    if not _dg_defect(tp.B, tp.A, tp.q0).is_zero():
        violations.append("relation-2")
    if B_on_A is not None and not _strongly_connected(B_on_A):
        violations.append("irreducibility")
    return violations


def td_pair_d1(a, b, q0) -> TDPair:
    """Closed-form diameter-1 pair: A diagonal, B symmetric with the dual array."""
    a, b, q0 = Fraction(a), Fraction(b), Fraction(q0)
    A = ExactMatrix.diagonal(theta_sequence(1, a, q0))
    theta_star = theta_sequence(1, b, q0, "b")
    mid = (theta_star[0] + theta_star[1]) / 2
    off = (theta_star[0] - theta_star[1]) / 2
    B = ExactMatrix([[mid, off], [off, mid]])
    tp = TDPair(1, a, b, q0, A, B)
    violations = validate_td_pair(tp)
    if violations:
        raise InvariantViolation(violations)
    return tp


def _spectral_eigenlines(E: list[ExactMatrix], M: ExactMatrix, theta: list[Fraction],
                         q0: Fraction) -> list[tuple[int, int]]:
    """Eigenlines (i, j) where (theta_i - theta_j) p(theta_i, theta_j) E_i M E_j != 0, p the
    adjacency polynomial; E has one idempotent per dimension (else DimensionMismatch)."""
    P = _in_eigenbasis(E, M)
    return [(i, j) for i, j in product(range(M.dimension), repeat=2)
            if P[i, j] and (theta[i] - theta[j]) * _adjacency(theta[i], theta[j], q0)]


def check_dg_spectral(tp: TDPair) -> CheckRecord:
    """Both defining relations by the spectral criterion, on a pair that passed
    validate_td_pair (which evaluated them directly).  As A E_i = theta_i E_i,
    one product gives E_i D E_j = (theta_i - theta_j) p(theta_i, theta_j) E_i B E_j
    for the first relation's defect D; as sum E_i = I, D = 0 exactly when no
    eigenline is found.  The second relation is the first with A and B swapped.
    """
    problems = [f"{label}-({i},{j})"
                for label, E, M, theta in (("spectral", tp.E, tp.B, tp.theta),
                                           ("dual-spectral", tp.E_star, tp.A, tp.theta_star))
                for i, j in _spectral_eigenlines(E, M, theta, tp.q0)]
    return CheckRecord(
        name="dg-spectral",
        status=FAIL if problems else PASS,
        anchor="spectral-criterion",
        detail="; ".join(problems) or "both relations, spectral + direct",
    )


# ---------------------------------------------------------------------------
# import / export / twist / search
# ---------------------------------------------------------------------------

def matrix_to_json(M: ExactMatrix) -> dict:
    return {
        "dimension": M.dimension,
        "entries": [[str(x) for x in row] for row in M.rows],
    }


def matrix_from_json(data, name: str = "matrix") -> ExactMatrix:
    try:
        n = json_int(data["dimension"], "matrix dimension")
        rows = [[json_fraction(x, f"{name}.entries[{r}][{c}]") for c, x in enumerate(row)]
                for r, row in enumerate(data["entries"])]
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"malformed matrix JSON: {e}")
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ParseError("matrix entries do not match the declared dimension")
    if n < 1:
        raise ParseError(f"matrix dimension must be at least 1, got {n}")
    return ExactMatrix(rows)


def td_pair_to_json(tp: TDPair) -> dict:
    return {
        "A": matrix_to_json(tp.A),
        "B": matrix_to_json(tp.B),
        "a": str(tp.a),
        "b": str(tp.b),
        "q": str(tp.q0),
        "d": tp.d,
    }


def td_pair_from_json(data) -> TDPair:
    try:
        d = json_int(data["d"], "pair field d")
        a, b, q0 = (json_fraction(data[k], k) for k in "abq")
        A = matrix_from_json(data["A"], "A")
        B = matrix_from_json(data["B"], "B")
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"malformed pair JSON: {e}")
    return TDPair(d, a, b, q0, A, B)


def import_td_pair(path) -> TDPair:
    """Load and fully validate a pair file; name every violated invariant."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}", location=str(path))
    tp = td_pair_from_json(data)
    violations = validate_td_pair(tp)
    if violations:
        raise InvariantViolation(violations)
    return tp


def twist_module(tp: TDPair, sd: SpectralData, direction: str = FORWARD) -> TDPair:
    """Action of the pair on the twisted module: conjugate B by the twist.

    The first generator commutes with the twist and is unchanged; the
    output is revalidated, keeps both eigenvalue arrays and carries over
    the idempotents of the first generator.
    """
    if sd.A != tp.A:
        raise DimensionMismatch("spectral data does not belong to this pair")
    left, right = (sd.Psi, sd.PsiInv) if direction == FORWARD else (sd.PsiInv, sd.Psi)
    out = replace(tp, B=left * tp.B * right)
    if "E" in vars(tp):  # cached on tp; out has the same A and the same array
        vars(out)["E"] = vars(tp)["E"]
    violations = validate_td_pair(out)
    if violations:
        raise InvariantViolation(violations)
    return out


def search_td_pair(d: int, a, b, q0) -> TDPair | None:
    """Split-form search for a pair of the given diameter, or None.

    Candidate: the first generator lower bidiagonal with eigenvalue diagonal
    and unit subdiagonal; the second upper bidiagonal with the dual
    eigenvalues (in either orientation) on the diagonal and unknown
    superdiagonal.  The first relation is linear in the candidate, so the
    unknowns solve a linear system; any exact solution is accepted only if
    the full invariant set validates.
    """
    a, b, q0 = Fraction(a), Fraction(b), Fraction(q0)
    try:
        theta = theta_sequence(d, a, q0)
        theta_star = theta_sequence(d, b, q0, "b")
    except (DegenerateEigenvalues, InvalidQ, ValueError):
        return None
    n = d + 1
    rows_A = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows_A[i][i] = theta[i]
        if i + 1 < n:
            rows_A[i + 1][i] = Fraction(1)
    A = ExactMatrix(rows_A)
    units = []
    for k in range(1, n):
        rows = [[Fraction(0)] * n for _ in range(n)]
        rows[k - 1][k] = Fraction(1)
        units.append(ExactMatrix(rows))
    # the defect is linear in B: its value at each unit is an equation column
    cols = [_dg_defect(A, U, q0) for U in units]
    for diag in (theta_star[::-1], theta_star):
        B0 = ExactMatrix.diagonal(diag)
        const = _dg_defect(A, B0, q0)
        eq_rows = []
        rhs = []
        for r in range(n):
            for c in range(n):
                eq_rows.append([col[r, c] for col in cols])
                rhs.append(-const[r, c])
        phi = solve_linear(eq_rows, rhs)
        if phi is None or any(not x for x in phi):
            continue
        B = B0
        for x, U in zip(phi, units):
            B = B + x * U
        tp = TDPair(d, a, b, q0, A, B)
        if not validate_td_pair(tp):
            return tp
    return None
