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
are used.  ImageCache over a fixed base A is the one engine: a balanced
map, and the last step of a shift map, is one linear combination of
(scalar, operand) pairs over the products A*V and V*A of an image V
(_bad_terms, ImageCache._shift_terms); for polynomials one NcPoly.combine
over word shifts of the operand's one integer form, for matrices one
ExactMatrix.combine.  Primitives with distinct twists commute, so the twist
primitive of a shift map may be applied after its balanced product.
apply_bad, apply_badprod, apply_S and truncated_sum check their arguments
and ask a fresh ImageCache; closed_form_sum writes the order-1 sum out in
products with A, apart from the engine.
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


def _sum(pairs):
    """The sum of c * P over (scalar, operand) pairs in one pass: one
    NcPoly.combine for polynomials, one ExactMatrix.combine for matrices."""
    P = pairs[0][1]
    if isinstance(P, NcPoly):
        return NcPoly.combine(P.alphabet, pairs)
    return ExactMatrix.combine(pairs)


class ImageCache:
    """Balanced products, shift maps and their truncated sums over a fixed
    base A, memoized: the one place that computes them.

    Keys are (operation, order, operand), the operation of a shift map
    being its direction, so an image computed once is reused by every
    later request, including as a prefix of a longer balanced product.
    The products A*V and V*A of an image V are one entry (_sides), read by
    the balanced map of V and by the shift map that ends at V, so the
    shift map of order n and the balanced product of order n + 1 share
    them.  A product of factors is keyed by its factors, so it is built
    once however many twists are later applied to it.  The twist
    primitive ad is not memoized: its operand is mostly such a product
    under a twist that no later request repeats.
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

    def _sides(self, V):
        """The products A*V and V*A.  A polynomial is keyed by the object,
        which the entry keeps alive, as polynomials with the same words hash
        alike; a matrix by value, so equal images (a zero tail) share one."""
        poly = isinstance(V, NcPoly)
        key = ("sides", id(V) if poly else V)
        out = self._cache.get(key)
        if out is None:
            if poly:  # its integer form made first, for its shifts to share
                V._integer_form()
            out = self._cache[key] = (V, self.A * V, V * self.A)
        return out[1:]

    def bad(self, n: int, V):
        """Balanced map of twist n."""
        key = ("bad", n, V)
        out = self._cache.get(key)
        if out is None:
            out = self._cache[key] = _sum(_bad_terms(n, self.A, V, *self._sides(V), self.mode))
        return out

    def bp(self, n: int, V):
        """Balanced product of order n: the balanced maps 0 .. n-1 in turn."""
        if n == 0:
            return V
        key = ("bp", n, V)
        out = self._cache.get(key)
        if out is None:
            image = self.bp(n - 1, V)
            out = self._cache[key] = _sum(
                _bad_terms(n - 1, self.A, image, *self._sides(image), self.mode))
        return out

    def S(self, n: int, V, direction: str = FORWARD):
        """Shift map of order n; order 0 is the identity."""
        if n == 0:
            return V
        key = (direction, n, V)
        out = self._cache.get(key)
        if out is None:
            _check_direction(direction)
            out = self._cache[key] = _sum(self._shift_terms(n, V, direction))
        return out

    def _shift_terms(self, n: int, V, direction: str):
        """The shift map of order n of V as (scalar, product) pairs: the
        twist +-n primitive of the order-n balanced product, divided by
        q^2n - q^-2n."""
        ax, xa = self._sides(self.bp(n, V))
        r = n if direction == FORWARD else -n
        w = self.mode.qnum(2 * n)
        return [(self.mode.q_pow(r) / w, ax), (-self.mode.q_pow(-r) / w, xa)]

    def truncated_sum(self, V, N: int, direction: str = FORWARD):
        """Sum of the shift maps of orders 0 .. N applied to V.

        On an element annihilated by the balanced product of order N + 1
        this equals the full formal sum, since every higher shift map
        contains that balanced product as a factor.  The shift maps share
        one growing balanced product of V and the sides of each image, so
        for matrices on a fresh cache the sum costs 5N - 1 products, and
        the sum in the other direction on the same cache costs none more:
        it adds only its own combination.  V and the 2N pairs of the shift
        maps are added as one _sum.
        """
        _check_direction(direction)
        if N <= 0:
            return V
        pairs = [(1, V)]
        for n in range(1, N + 1):
            pairs += self._shift_terms(n, V, direction)
        return _sum(pairs)


def apply_bad(n: int, A, X, mode=SYMBOLIC):
    """Apply the balanced map of twist n (n >= 0) as one sum (of four terms
    for n >= 1, two for n = 0)."""
    if n < 0:
        raise ValueError("balanced map needs n >= 0")
    return ImageCache(A, mode).bad(n, X)


def apply_badprod(n: int, A, X, mode=SYMBOLIC):
    """Apply the balanced maps 0 .. n-1 in turn; n = 0 is the identity."""
    if n < 0:
        raise ValueError("balanced product needs n >= 0")
    return ImageCache(A, mode).bp(n, X)


def apply_S(n: int, A, X, direction: str = FORWARD, mode=SYMBOLIC):
    """Apply the shift map of order n; order 0 is the identity."""
    _check_direction(direction)
    if n < 0:
        raise ValueError("shift map needs n >= 0")
    return ImageCache(A, mode).S(n, X, direction)


def truncated_sum(A, X, N: int, direction: str = FORWARD, mode=SYMBOLIC):
    """ImageCache.truncated_sum on a fresh cache."""
    return ImageCache(A, mode).truncated_sum(X, N, direction)


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
