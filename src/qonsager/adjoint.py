"""Quantum adjoint operator calculus.

For a fixed element A of an associative algebra the primitive map with twist
r sends X to q^r*A*X - q^-r*X*A.  ad_terms states it once, as the two
(scalar, product) pairs of that sum, so a caller that collects linear
combinations (the identity verifier) can take them unexpanded; apply_ad is
their sum.  From these primitives the module builds

* the balanced maps: twist 0 is the plain commutator divided by q - q^-1,
  and for n >= 1 the combination
  [(q^2n - q^-2n)^2 X + twist(n, twist(-n, X))] / [(q^2n - q^-2n)(q^2n+1 - q^-2n-1)],
  whose inner part expands to A*A*X - (q^2n + q^-2n) A*X*A + X*A*A, so the
  map is one four-term sum;
* their running compositions (balanced product of order n applies the
  balanced maps 0 .. n-1 in turn, order 0 being the identity);
* the shift maps: order 0 is the identity, order n composes the balanced
  product of order n with the twist-n primitive (twist -n for the inverse
  direction) divided by q^2n - q^-2n;
* truncated sums of the shift maps, which realize the automorphism on
  elements annihilated by a balanced product, and the closed form of the
  sum truncated at order 1.

Everything works uniformly for free-algebra polynomials and exact matrices;
only +, -, *, left scalar action and one-pass linear combinations (_sum)
are used.  A balanced map, and the last step of a shift map, is one linear
combination: for polynomials one NcPoly.combine, whose products with a
generator A are word shifts of the operand that all carry its one integer
form; for matrices one ExactMatrix.combine, a single reduction.  Both are
stated once as (scalar, operand) pairs over the products A*X and X*A
(_bad_terms, _shift_terms).  Primitives with distinct twists commute, so
the twist primitive of a shift map may be applied after its balanced
product.  ImageCache states the balanced product and the shift maps once
over a fixed base, and memoizes them together with products of operands;
its twist primitive ad is apply_ad, not memoized.  The apply_* functions
and truncated_sum are the same maps without the memo: apply_badprod is a
loop over apply_bad, and the last step of every shift map, cached or not,
is the pairs of _shift_terms; truncated_sum takes A*X and X*A of each
balanced product once for its shift map and the next balanced map.
"""

from __future__ import annotations

from .freealg import NcPoly
from .matrices import ExactMatrix
from .qcoeff import SYMBOLIC

FORWARD = "forward"
INVERSE = "inverse"


def _check_direction(direction: str):
    if direction not in (FORWARD, INVERSE):
        raise ValueError(f"direction must be {FORWARD!r} or {INVERSE!r}")


def ad_terms(r: int, A, X, mode=SYMBOLIC):
    """The twist-r primitive q^r*A*X - q^-r*X*A as (scalar, product) pairs."""
    return [(mode.q_pow(r), A * X), (-mode.q_pow(-r), X * A)]


def apply_ad(r: int, A, X, mode=SYMBOLIC):
    """q^r*A*X - q^-r*X*A: the sum of ad_terms."""
    (a, ax), (b, xa) = ad_terms(r, A, X, mode)
    return a * ax + b * xa


def apply_bad(n: int, A, X, mode=SYMBOLIC):
    """Apply the balanced map of twist n (n >= 0) as one sum (of four terms
    for n >= 1, two for n = 0)."""
    if n < 0:
        raise ValueError("balanced map needs n >= 0")
    return _sum(_bad_terms(n, A, X, A * _with_form(X), X * A, mode))


def _bad_terms(n: int, A, X, ax, xa, mode):
    """The balanced map of twist n as (scalar, operand) pairs, given the
    products ax = A*X and xa = X*A."""
    if n == 0:
        u = mode.one() / mode.qnum(1)
        return [(u, ax), (-u, xa)]
    s, t = mode.qnum(2 * n), mode.qnum(2 * n + 1)
    u = mode.one() / (s * t)
    mid = -(mode.q_pow(2 * n) + mode.q_pow(-2 * n)) * u
    return [(s / t, X), (u, A * ax), (mid, ax * A), (u, xa * A)]


def _with_form(X):
    """X, its integer form made first if it is a polynomial, for its shifts to share."""
    if isinstance(X, NcPoly):
        X._integer_form()
    return X


def _sum(pairs):
    """The sum of c * P over (scalar, operand) pairs in one pass: one
    NcPoly.combine for polynomials, one ExactMatrix.combine for matrices."""
    P = pairs[0][1]
    if isinstance(P, NcPoly):
        return NcPoly.combine(P.alphabet, pairs)
    return ExactMatrix.combine(pairs)


class ImageCache:
    """Balanced products, shift maps and products of operands over a fixed
    base A, memoized.

    Keys are (operation, order, operand), the operation of a shift map
    being its direction, so an image computed once is reused by every
    later request, including as a prefix of a longer balanced product.
    Each image is stored under one key: a balanced product is not also
    stored as the balanced map of the product one order lower.
    A product is keyed by its factors, so it is built once however many
    twists are later applied to it.  The twist primitive ad is not
    memoized: its operand is mostly such a product under a twist that no
    later request repeats.
    """

    def __init__(self, A, mode=SYMBOLIC):
        self.A = A
        self.mode = mode
        self._cache: dict = {}

    def ad(self, r: int, V):
        return apply_ad(r, self.A, V, self.mode)

    def ad_terms(self, r: int, V):
        return ad_terms(r, self.A, V, self.mode)

    def mul(self, *factors):
        """The product of factors, left to right."""
        key = ("mul", factors)
        out = self._cache.get(key)
        if out is None:
            out = factors[0]
            for f in factors[1:]:
                out = out * f
            self._cache[key] = out
        return out

    def bad(self, n: int, V):
        key = ("bad", n, V)
        out = self._cache.get(key)
        if out is None:
            out = self._cache[key] = apply_bad(n, self.A, V, self.mode)
        return out

    def bp(self, n: int, V):
        """Balanced product of order n: the balanced maps 0 .. n-1 in turn."""
        if n == 0:
            return V
        key = ("bp", n, V)
        out = self._cache.get(key)
        if out is None:
            out = self._cache[key] = apply_bad(n - 1, self.A, self.bp(n - 1, V), self.mode)
        return out

    def S(self, n: int, V, direction: str = FORWARD):
        """Shift map of order n; order 0 is the identity."""
        if n == 0:
            return V
        key = (direction, n, V)
        out = self._cache.get(key)
        if out is None:
            _check_direction(direction)
            out = self._cache[key] = _outer_shift(n, self.A, self.bp(n, V), direction, self.mode)
        return out


def _outer_shift(n: int, A, image, direction: str, mode):
    """The shift map of order n, given the balanced product of order n of its
    operand: the twist +-n primitive of image, divided by q^2n - q^-2n."""
    return _sum(_shift_terms(n, A * _with_form(image), image * A, direction, mode))


def _shift_terms(n: int, ax, xa, direction: str, mode):
    """The shift map of order n as (scalar, product) pairs, given the
    products ax = A*image and xa = image*A of the order-n balanced product."""
    r = n if direction == FORWARD else -n
    w = mode.qnum(2 * n)
    return [(mode.q_pow(r) / w, ax), (-mode.q_pow(-r) / w, xa)]


def apply_badprod(n: int, A, X, mode=SYMBOLIC):
    """Apply the balanced maps 0 .. n-1 in turn; n = 0 is the identity."""
    if n < 0:
        raise ValueError("balanced product needs n >= 0")
    for k in range(n):
        X = apply_bad(k, A, X, mode)
    return X


def apply_S(n: int, A, X, direction: str = FORWARD, mode=SYMBOLIC):
    """Apply the shift map of order n; order 0 is the identity."""
    _check_direction(direction)
    if n < 0:
        raise ValueError("shift map needs n >= 0")
    if n == 0:
        return X
    return _outer_shift(n, A, apply_badprod(n, A, X, mode), direction, mode)


def truncated_sum(A, X, N: int, direction: str = FORWARD, mode=SYMBOLIC):
    """Sum of the shift maps of orders 0 .. N applied to X.

    On an element annihilated by the balanced product of order N + 1 this
    equals the full formal sum, since every higher shift map contains that
    balanced product as a factor.  One balanced product of X is extended a
    factor at a time, so the sum costs N balanced maps, not N(N+1)/2.  The
    products A*image and image*A of the order-n balanced product serve both
    the shift map of order n and the balanced map that builds order n + 1,
    so for matrices the sum costs 5N - 1 products; X and the 2N pairs of
    the shift maps are then added as one _sum.
    """
    _check_direction(direction)
    if N <= 0:
        return X
    image, pairs = X, [(1, X)]
    for n in range(N + 1):
        ax, xa = A * _with_form(image), image * A
        if n:
            pairs += _shift_terms(n, ax, xa, direction, mode)
        if n < N:
            image = _sum(_bad_terms(n, A, image, ax, xa, mode))
    return _sum(pairs)


def closed_form_sum(A, X, direction: str = FORWARD, mode=SYMBOLIC):
    """truncated_sum(A, X, 1, direction) written out in products with A.

    This is the image of X when the order-2 balanced product kills it.
    """
    _check_direction(direction)
    e = 1 if direction == FORWARD else -1
    num = (
        mode.q_pow(e) * (A * A * X)
        - (mode.q_pow(1) + mode.q_pow(-1)) * (A * X * A)
        + mode.q_pow(-e) * (X * A * A)
    )
    return X + (mode.one() / (mode.qnum(1) * mode.qnum(2))) * num
