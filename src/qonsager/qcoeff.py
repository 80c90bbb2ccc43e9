"""Exact arithmetic in the field of rational functions of q over the rationals.

Values are quotients of Laurent polynomials in q with rational coefficients,
kept in a canonical form so that structural equality coincides with equality
in the field:

* the denominator is an ordinary polynomial with nonzero constant term,
  integer coefficients of content 1 and positive leading coefficient;
* any power of q is carried by the numerator's exponent offset;
* numerator and denominator share no polynomial factor.

Internally a Laurent polynomial is a primitive integer coefficient vector
with positive leading entry times one rational scale; products of primitive
vectors stay primitive (Gauss), so multiplication is a single integer
convolution.  The integer kernels run on Python's big integers by Kronecker
substitution: a vector whose entries fit a balanced 16-, 32- or 64-bit digit
is packed into one int, its value at xi = 2^w.  A product is then one big-int
multiply, and a gcd is the heuristic gcd (GCDHEU, Char, Geddes and Gonnet
1989): the integer gcd of the two values at xi, read back as balanced
digits, is the polynomial gcd whenever it divides both inputs within the
digit bound.  Short products, vectors too large for 64-bit digits and gcds
the heuristic cannot certify go to a schoolbook convolution and to a
primitive pseudo-remainder sequence with exact division.

Field operations take their gcds on the reduced factors, never on expanded
products (Henrici 1956; Knuth, TAOCP vol. 2, 4.5.1).  For (a/b)(c/d) with
g1 = gcd(a, d) and g2 = gcd(c, b), (a/g1 c/g2) / (b/g2 d/g1) is reduced
because a/b and c/d are; a quotient multiplies by 1/(c/d) = d/c, canonical
as it stands.  For a/b + c/d with g = gcd(b, d), t = a (d/g) + c (b/g) is
prime to (b/g)(d/g), so only g2 = gcd(t, g) can cancel, and the sum is
(t/g2) / ((b/g)(d/g)(g/g2)); g = 1 needs no second gcd.  Exact quotients of
primitive positive-leading vectors by their gcd are again such vectors, and
so are their products (Gauss), so every result is already canonical: the
same form that one gcd of the expanded products gives.

The identity catalogue computes in a second symbolic mode that takes no
gcds.  Each divisor there is a product of q-numbers, and q^n - q^-n =
q^-n prod_{d | 2n} Phi_d(q), so a value is kept as num / prod Phi_d(q): a
Laurent polynomial over a multiset of cyclotomic indices.  A product
convolves numerators and adds multisets; a sum brings both numerators to
the lcm multiset; a quotient factors the divisor into a unit, a power of q
and Phi_d's by exact trial division, and refuses any other divisor.  The
form is not reduced, but its zero test is exact: the denominator is a
nonzero polynomial, so the value is zero exactly when the numerator is.
Values leave the engine converted to the canonical form above.

A numeric mode is provided in which q is pinned to a fixed rational q0 with
q0 not in {0, 1, -1}; scalars are then plain Fractions.  Symbolic values are
exact and the arithmetic never leaves the rationals, so identity checks made
with this module are proofs, not approximations.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from math import gcd as _gcd
from operator import add as _add, sub as _sub

from .errors import DivisionByZero, InvalidQ, NotCyclotomic, PoleAtPoint

Rat = Fraction
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# integer polynomial helpers (dense lists, index = degree offset)
# ---------------------------------------------------------------------------

def _int_content(cs) -> int:
    return _gcd(*cs) or 1


def _exact_div_int(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials; remainder must be zero."""
    if len(den) == 1:
        d = den[0]
        return [c // d for c in num]
    out = [0] * (len(num) - len(den) + 1)
    rem = list(num)
    for k in range(len(out) - 1, -1, -1):
        c = rem[k + len(den) - 1]
        if c % den[-1]:
            raise ArithmeticError("inexact polynomial division")
        q = c // den[-1]
        out[k] = q
        if q:
            for i, dc in enumerate(den):
                rem[k + i] -= q * dc
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return out


def _primitive_gcd(a, b) -> list[int]:
    """GCD of integer polynomials via a primitive remainder sequence."""
    u, v = list(a), list(b)
    while v:
        r = list(u)
        lv = v[-1]
        while len(r) >= len(v):
            lr = r[-1]
            shift = len(r) - len(v)
            r = [lv * c for c in r]
            for i, vc in enumerate(v):
                r[shift + i] -= lr * vc
            while r and not r[-1]:
                r.pop()
            if not r:
                break
        c = _int_content(r)
        u, v = v, ([x // c for x in r] if r else [])
    if u and u[-1] < 0:
        u = [-c for c in u]
    return u


def _convolve_loop(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


# ---------------------------------------------------------------------------
# Kronecker substitution: a coefficient vector as its value at xi = 2^w
# ---------------------------------------------------------------------------
#
# A digit format is an array typecode of width w plus the byte pattern of one
# digit 2^(w-1).  Vectors go through array's native two's-complement bytes,
# read in host order, so no Python loop runs per coefficient.  On a
# big-endian host every vector is packed reversed; products, exact quotients
# and gcds of vectors with nonzero end entries commute with reversal, and
# _unpack reverses back, so every kernel returns the same vectors.

def _format(code: str):
    """(2^(w-1), digit format) for the array typecode of width w."""
    half = 1 << (8 * array(code).itemsize - 1)
    return half, (code, array(code, [-half]).tobytes())


_HOST = sys.byteorder
_FORMATS = tuple(_format(code) for code in ("h", "i", "q"))


def _norm(cs) -> int:
    return max(max(cs), -min(cs))


def _digits(bound: int):
    """The narrowest digit format whose balanced range holds |c| <= bound."""
    for half, digits in _FORMATS:
        if bound < half:
            return digits
    return None


def _pack(cs, digits) -> int:
    """Value at xi of a vector whose entries fit the balanced digit range."""
    code, pattern = digits
    mask = int.from_bytes(pattern * len(cs), _HOST)  # sum of 2^(w-1) xi^i
    return (int.from_bytes(array(code, cs).tobytes(), _HOST) ^ mask) - mask


def _unpack(v: int, n: int, digits) -> list[int]:
    """The n balanced digits of v; OverflowError when v has no such form."""
    code, pattern = digits
    mask = int.from_bytes(pattern * n, _HOST)
    out = array(code)
    out.frombytes(((v + mask) ^ mask).to_bytes(len(pattern) * n, _HOST))
    return out.tolist()


# Up to this many partial products the loop is faster than packing; the
# crossover measured between 48 and 72 (CPython 3.11, x86-64).
_LOOP_MAX_PRODUCTS = 64


def _convolve(a, b) -> list[int]:
    """Product of integer coefficient vectors, neither all zero.

    One big-int multiply when the product is long enough to repay packing
    and every entry of it fits a digit; the loop otherwise.
    """
    if len(a) * len(b) <= _LOOP_MAX_PRODUCTS:
        return _convolve_loop(a, b)
    digits = _digits(min(len(a), len(b)) * _norm(a) * _norm(b))
    if digits is None:
        return _convolve_loop(a, b)
    return _unpack(_pack(a, digits) * _pack(b, digits), len(a) + len(b) - 1, digits)


def _heuristic_gcd(a, b):
    """GCDHEU for primitive vectors with nonzero end entries.

    Returns (h, a/h, b/h) with h the gcd, primitive with positive leading
    entry, or None when no digit width certifies a candidate.  A miss at
    one width is tried again at the next wider one, since cofactors may
    need wider digits than the inputs.
    """
    bound = max(_norm(a), _norm(b))
    for half, digits in _FORMATS:
        if bound < half:
            split = _gcdheu(a, b, half, digits)
            if split is not None:
                return split
    return None


def _gcdheu(a, b, half: int, digits):
    """One GCDHEU attempt at xi = 2*half, with |a|, |b| < half.

    Then xi >= 2 max(|a|, |b|) + 2, so the primitive part h of the balanced
    digits of gcd(a(xi), b(xi)) is the gcd as soon as it divides a and b.
    Exact integer quotients A = a(xi)/h(xi) prove that division once the
    polynomial a - h*A, whose entries are below |A| |h| min(len) + |a|, has
    all entries under xi/2: it vanishes at xi, so it is zero.
    """
    va, vb = _pack(a, digits), _pack(b, digits)
    gamma = _gcd(va, vb)
    h = _unpack(gamma, gamma.bit_length() // (8 * len(digits[1])) + 2, digits)
    # zero top digits pad the front of h on a big-endian host, the end otherwise
    lo, hi = 0, len(h)
    while not h[hi - 1]:
        hi -= 1
    while not h[lo]:
        lo += 1
    h = h[lo:hi]
    if len(h) == 1:
        return [1], list(a), list(b)
    if len(h) > min(len(a), len(b)):
        return None
    c = _int_content(h)
    # gamma > 0 makes its top digit positive, but on a big-endian host that
    # digit is h[0] and the leading entry h[-1] may be negative
    if h[-1] < 0:
        c = -c
    h = [x // c for x in h]
    vh = _pack(h, digits)
    qa, ra = divmod(va, vh)
    qb, rb = divmod(vb, vh)
    if ra or rb:
        return None
    try:
        ca = _unpack(qa, len(a) - len(h) + 1, digits)
        cb = _unpack(qb, len(b) - len(h) + 1, digits)
    except OverflowError:
        return None
    nh = _norm(h)
    for x, cx in ((a, ca), (b, cb)):
        if _norm(cx) * nh * min(len(cx), len(h)) + _norm(x) >= half:
            return None
    return h, ca, cb


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------

class LaurentPoly:
    """Immutable Laurent polynomial in q with exact rational coefficients.

    Stored as an exponent offset, a primitive integer coefficient tuple with
    nonzero first entry and positive last entry, and one rational scale; the
    empty tuple with scale 1 is zero.  Coefficient k of q^(offset+i) equals
    scale * coeffs[i].
    """

    __slots__ = ("offset", "coeffs", "scale")

    def __init__(self, offset: int, fraction_coeffs):
        """Build from rational coefficients for q^offset, q^(offset+1), ..."""
        fraction_coeffs = [Fraction(c) for c in fraction_coeffs]
        den = 1
        for c in fraction_coeffs:
            den = den * c.denominator // _gcd(den, c.denominator)
        ints = [int(c * den) for c in fraction_coeffs]
        lp = _make(offset, ints, Fraction(1, den))
        object.__setattr__(self, "offset", lp.offset)
        object.__setattr__(self, "coeffs", lp.coeffs)
        object.__setattr__(self, "scale", lp.scale)

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def q_power(n: int, coeff=_ONE) -> "LaurentPoly":
        coeff = Fraction(coeff)
        if not coeff:
            return _LP_ZERO
        return _make(n, [1], coeff)

    @staticmethod
    def from_terms(terms) -> "LaurentPoly":
        """Build from an iterable of (exponent, coefficient) pairs."""
        by_exp: dict[int, Rat] = {}
        for e, c in terms:
            by_exp[e] = by_exp.get(e, Fraction(0)) + Fraction(c)
        by_exp = {e: c for e, c in by_exp.items() if c}
        if not by_exp:
            return _LP_ZERO
        lo, hi = min(by_exp), max(by_exp)
        return LaurentPoly(lo, [by_exp.get(e, Fraction(0)) for e in range(lo, hi + 1)])

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self) -> tuple[tuple[int, Rat], ...]:
        """Nonzero (exponent, coefficient) pairs in increasing exponent order."""
        return tuple(
            (self.offset + i, self.scale * c)
            for i, c in enumerate(self.coeffs)
            if c
        )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(self.coeffs), other.offset + len(other.coeffs))
        a, b = self.scale, other.scale
        out = map(
            _add,
            _placed(self, a.numerator * b.denominator, lo, hi),
            _placed(other, b.numerator * a.denominator, lo, hi),
        )
        den = a.denominator * b.denominator
        return _make(lo, list(out), _ONE if den == 1 else Fraction(1, den))

    def __neg__(self) -> "LaurentPoly":
        if self.is_zero:
            return self
        return _raw(self.offset, self.coeffs, -self.scale)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero or other.is_zero:
            return _LP_ZERO
        a, b = self.scale, other.scale
        return _raw(
            self.offset + other.offset,
            _times(self.coeffs, other.coeffs),
            b if a == 1 else a if b == 1 else a * b,
        )

    def eval_at(self, q0: Rat) -> Rat:
        if not q0:
            raise InvalidQ("q must be nonzero")
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return acc * self.scale * q0 ** self.offset

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.offset == other.offset
            and self.scale == other.scale
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.offset, self.coeffs, self.scale))

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for e, c in reversed(self.terms()):
            if e == 0:
                body = str(c)
            else:
                mag = "q" if e == 1 else f"q^{e}"
                if c == 1:
                    body = mag
                elif c == -1:
                    body = f"-{mag}"
                else:
                    body = f"{c}*{mag}"
            if parts and not body.startswith("-"):
                parts.extend(["+", body])
            elif parts:
                parts.extend(["-", body[1:]])
            else:
                parts.append(body)
        return " ".join(parts)


def _raw(offset: int, coeffs: tuple[int, ...], scale: Rat) -> LaurentPoly:
    """Wrap already-primitive positive-leading coefficients without checks."""
    lp = object.__new__(LaurentPoly)
    object.__setattr__(lp, "offset", offset)
    object.__setattr__(lp, "coeffs", coeffs)
    object.__setattr__(lp, "scale", scale)
    return lp


def _placed(p: LaurentPoly, m: int, lo: int, hi: int) -> list[int]:
    """m times the coefficients of p, padded with zeros to exponents lo .. hi-1."""
    cs = list(p.coeffs) if m == 1 else list(map(m.__mul__, p.coeffs))
    return [0] * (p.offset - lo) + cs + [0] * (hi - p.offset - len(cs))


def _make(offset: int, ints: list[int], scale: Rat) -> LaurentPoly:
    """Normalize integer coefficients: trim, extract content, fix lead sign."""
    lo, hi = 0, len(ints)
    while hi > lo and not ints[hi - 1]:
        hi -= 1
    while lo < hi and not ints[lo]:
        lo += 1
    if lo == hi:
        return _LP_ZERO
    ints = ints[lo:hi]
    c = _int_content(ints)
    if ints[-1] < 0:
        c = -c
    if c == 1:
        return _raw(offset + lo, tuple(ints), scale)
    return _raw(offset + lo, tuple([x // c for x in ints]), scale * c)


_LP_ZERO = _raw(0, (), _ONE)
_LP_ONE = _raw(0, (1,), _ONE)


# ---------------------------------------------------------------------------
# rational functions in q
# ---------------------------------------------------------------------------

class RationalFunctionQ:
    """Canonical quotient of Laurent polynomials in q over the rationals."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly, _canonical: bool = False):
        if not _canonical:
            num, den = _canonicalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RationalFunctionQ is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "RationalFunctionQ":
        return RF_ZERO

    @staticmethod
    def one() -> "RationalFunctionQ":
        return RF_ONE

    @staticmethod
    def from_laurent(p: LaurentPoly) -> "RationalFunctionQ":
        return RationalFunctionQ(p, _LP_ONE, _canonical=True)

    @staticmethod
    def from_fraction(f) -> "RationalFunctionQ":
        f = Fraction(f)
        if not f:
            return RF_ZERO
        return RationalFunctionQ(_raw(0, (1,), f), _LP_ONE, _canonical=True)

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "RationalFunctionQ":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        # a/b + c/d = (t/g2) / ((b/g)(d/g)(g/g2)), g = gcd(b, d), g2 = gcd(t, g)
        if self.den == other.den:
            t = self.num + other.num
            if t.is_zero:
                return RF_ZERO
            if len(self.den.coeffs) == 1:
                return RationalFunctionQ(t, self.den, _canonical=True)
            g, b1, d1 = self.den.coeffs, (1,), (1,)
        else:
            g, b1, d1 = _split(self.den.coeffs, other.den.coeffs)
            t = _times_lp(self.num, d1) + _times_lp(other.num, b1)
        _, t1, g1 = _split(t.coeffs, g)
        return RationalFunctionQ(
            _raw(t.offset, tuple(t1), t.scale),
            _den(_times(_times(b1, d1), g1)),
            _canonical=True,
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFunctionQ":
        return RationalFunctionQ(-self.num, self.den, _canonical=True)

    def __sub__(self, other) -> "RationalFunctionQ":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalFunctionQ":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RF_ZERO
        return _mul(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunctionQ":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise DivisionByZero("division by zero rational function")
        if self.is_zero:
            return RF_ZERO
        # 1/(c/d) in canonical form: d over c's coefficients, q^-offset/scale
        c, d = other.num, other.den
        return _mul(
            self.num, self.den, _raw(-c.offset, d.coeffs, 1 / c.scale), _den(c.coeffs)
        )

    def __rtruediv__(self, other) -> "RationalFunctionQ":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    # -- evaluation --------------------------------------------------------

    def eval_at(self, q0) -> Rat:
        """Exact substitution q -> q0; q0 must avoid 0, 1, -1 and poles."""
        q0 = Fraction(q0)
        if q0 in (0, 1, -1):
            raise InvalidQ(f"q0 = {q0} is forbidden")
        d = self.den.eval_at(q0)
        if not d:
            raise PoleAtPoint(f"denominator vanishes at q = {q0}")
        return self.num.eval_at(q0) / d

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFunctionQ.from_fraction(other)
        if not isinstance(other, RationalFunctionQ):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        if self.den == _LP_ONE:
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


def _coerce(x):
    if isinstance(x, RationalFunctionQ):
        return x
    if isinstance(x, (int, Fraction)):
        return RationalFunctionQ.from_fraction(x)
    return NotImplemented


def _split(x, y):
    """(gcd, x/gcd, y/gcd) of primitive positive-leading vectors."""
    if len(x) == 1 or len(y) == 1:
        return (1,), x, y
    split = _heuristic_gcd(x, y)
    if split is not None:
        return split
    g = _primitive_gcd(x, y)
    return g, _exact_div_int(x, g), _exact_div_int(y, g)


def _times(x, y) -> tuple[int, ...]:
    """Product of primitive positive-leading vectors, (1,) being the unit."""
    if len(x) == 1:
        return tuple(y)
    if len(y) == 1:
        return tuple(x)
    return tuple(_convolve(x, y))


def _times_lp(p: LaurentPoly, cs) -> LaurentPoly:
    """p times the polynomial with primitive positive-leading coefficients cs."""
    return _raw(p.offset, _times(p.coeffs, cs), p.scale)


def _den(cs) -> LaurentPoly:
    """The canonical denominator with coefficients cs."""
    return _LP_ONE if len(cs) == 1 else _raw(0, tuple(cs), _ONE)


def _mul(a: LaurentPoly, b: LaurentPoly, c: LaurentPoly, d: LaurentPoly):
    """(a/b)(c/d) for canonical a/b and c/d, neither zero (Henrici)."""
    _, a1, d1 = _split(a.coeffs, d.coeffs)
    _, c1, b1 = _split(c.coeffs, b.coeffs)
    num = _raw(a.offset + c.offset, _times(a1, c1), a.scale * c.scale)
    return RationalFunctionQ(num, _den(_times(b1, d1)), _canonical=True)


def _canonicalize(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    if den.is_zero:
        raise DivisionByZero("zero denominator")
    if num.is_zero:
        return _LP_ZERO, _LP_ONE
    _, na, da = _split(num.coeffs, den.coeffs)
    shift = num.offset - den.offset
    return _raw(shift, tuple(na), num.scale / den.scale), _den(da)


RF_ZERO = RationalFunctionQ(_LP_ZERO, _LP_ONE, _canonical=True)
RF_ONE = RationalFunctionQ(_LP_ONE, _LP_ONE, _canonical=True)


def qint(n: int) -> RationalFunctionQ:
    """The q-integer (q^n - q^-n)/(q - q^-1) as an explicit Laurent polynomial."""
    if n == 0:
        return RF_ZERO
    sign = 1 if n > 0 else -1
    m = abs(n)
    p = LaurentPoly.from_terms((m - 1 - 2 * k, Fraction(sign)) for k in range(m))
    return RationalFunctionQ.from_laurent(p)


# ---------------------------------------------------------------------------
# values over products of cyclotomic polynomials
# ---------------------------------------------------------------------------
#
# A denominator is a multiset of cyclotomic indices, held as the exponent
# tuple e with e[d - 1] the multiplicity of Phi_d and no trailing zero.  The
# tables below hold plain integer tuples and grow on first use.

_PHI: dict[int, tuple[int, ...]] = {}
_PHI_PRODUCTS: dict[tuple[int, ...], tuple[int, ...]] = {(): (1,)}
_FACTORS: dict[tuple[int, ...], tuple[int, ...]] = {(1,): ()}


def _phi(d: int) -> tuple[int, ...]:
    """Coefficients of the cyclotomic polynomial Phi_d, lowest degree first."""
    out = _PHI.get(d)
    if out is None:
        p = [-1] + [0] * (d - 1) + [1]  # q^d - 1 is the product of Phi_e, e | d
        for e in range(1, d):
            if d % e == 0:
                p = _exact_div_int(p, _phi(e))
        out = _PHI[d] = tuple(p)
    return out


def _phi_product(e: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of prod Phi_d^e[d-1]; trailing zeros of e are allowed."""
    out = _PHI_PRODUCTS.get(e)
    if out is None:
        d = len(e)
        if not e[-1]:
            out = _phi_product(e[:-1])
        else:
            out = _times(_phi_product(e[:-1] + (e[-1] - 1,)), _phi(d))
        _PHI_PRODUCTS[e] = out
    return out


def _totient(n: int) -> int:
    out, p = n, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            out -= out // p
        p += 1
    return out - out // n if n > 1 else out


def _cyclotomic_factors(cs: tuple[int, ...]) -> tuple[int, ...]:
    """The exponent tuple e with cs = prod Phi_d^e[d-1], by trial division.

    cs is primitive with positive leading and nonzero constant entry.  Phi_d
    has degree totient(d) >= sqrt(d/2), so a factor of degree <= m has
    d <= 2 m^2, and the search ends once d passes that bound for the
    cofactor left.
    """
    out = _FACTORS.get(cs)
    if out is None:
        rest, e = list(cs), []
        while len(rest) > 1:
            d, m = len(e) + 1, len(rest) - 1
            if d > 2 * m * m:
                raise NotCyclotomic(f"divisor {list(cs)} is not a product of cyclotomics")
            k = 0
            if _totient(d) <= m:
                phi = _phi(d)
                while len(phi) <= len(rest):
                    try:
                        rest = _exact_div_int(rest, phi)
                    except ArithmeticError:
                        break
                    k += 1
            e.append(k)
        out = _FACTORS[cs] = tuple(e)
    return out


def _merge(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The multiset sum of a and b."""
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    return tuple(map(_add, a, b)) + a[len(b):]


def _lcm(a: tuple[int, ...], b: tuple[int, ...]):
    """(lcm, lcm - a, lcm - b) of two multisets."""
    if len(a) < len(b):
        lcm = tuple(map(max, a, b)) + b[len(a):]
    else:
        lcm = tuple(map(max, a, b)) + a[len(b):]
    return lcm, tuple(map(_sub, lcm, a)) + lcm[len(a):], tuple(map(_sub, lcm, b)) + lcm[len(b):]


class CyclotomicFraction:
    """num / prod_{d in den} Phi_d(q): an element of Q(q), kept unreduced.

    num is a LaurentPoly and den the exponent tuple of the cyclotomic
    multiset.  The form is not canonical: equality and hashing are
    structural, so two equal values reached by different routes may compare
    unequal.  That only costs a cache miss; is_zero is exact, since the
    denominator is a nonzero polynomial.  canonical() gives the
    RationalFunctionQ of the value.
    """

    __slots__ = ("num", "den")

    def __setattr__(self, *a):
        raise AttributeError("CyclotomicFraction is immutable")

    @staticmethod
    def from_laurent(p: LaurentPoly) -> "CyclotomicFraction":
        return _cf(p, ()) if p.coeffs else CF_ZERO

    @property
    def is_zero(self) -> bool:
        return not self.num.coeffs

    def __bool__(self) -> bool:
        return bool(self.num.coeffs)

    def __add__(self, other: "CyclotomicFraction") -> "CyclotomicFraction":
        if not self.num.coeffs:
            return other
        if not other.num.coeffs:
            return self
        if self.den == other.den:
            den, t = self.den, self.num + other.num
        else:
            den, ca, cb = _lcm(self.den, other.den)
            t = _times_lp(self.num, _phi_product(ca)) + _times_lp(other.num, _phi_product(cb))
        return _cf(t, den) if t.coeffs else CF_ZERO

    def __neg__(self) -> "CyclotomicFraction":
        return _cf(-self.num, self.den)

    def __sub__(self, other: "CyclotomicFraction") -> "CyclotomicFraction":
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not CyclotomicFraction:
            return NotImplemented  # a polynomial's __rmul__ scales it
        if not self.num.coeffs or not other.num.coeffs:
            return CF_ZERO
        return _cf(self.num * other.num, _merge(self.den, other.den))

    def __truediv__(self, other: "CyclotomicFraction") -> "CyclotomicFraction":
        """Divide by a unit times a power of q times cyclotomic polynomials;
        any other divisor raises NotCyclotomic."""
        c = other.num
        if not c.coeffs:
            raise DivisionByZero("division by zero rational function")
        factors = _cyclotomic_factors(c.coeffs)
        if not self.num.coeffs:
            return CF_ZERO
        a = self.num
        num = _raw(a.offset - c.offset, _times(a.coeffs, _phi_product(other.den)),
                   a.scale / c.scale)
        return _cf(num, _merge(self.den, factors))

    def eval_at(self, q0) -> Rat:
        """Exact substitution q -> q0; q0 must avoid 0, 1, -1 and poles."""
        q0 = Fraction(q0)
        if q0 in (0, 1, -1):
            raise InvalidQ(f"q0 = {q0} is forbidden")
        d = _raw(0, _phi_product(self.den), _ONE).eval_at(q0)
        if not d:
            raise PoleAtPoint(f"denominator vanishes at q = {q0}")
        return self.num.eval_at(q0) / d

    def canonical(self) -> RationalFunctionQ:
        """The same value in the canonical form of RationalFunctionQ."""
        den = _raw(0, _phi_product(self.den), _ONE)
        return RationalFunctionQ.from_laurent(self.num) / RationalFunctionQ.from_laurent(den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclotomicFraction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        if not self.den:
            return repr(self.num)
        den = "*".join(f"Phi{d}^{k}" for d, k in enumerate(self.den, 1) if k)
        return f"({self.num!r})/({den})"


def _cf(num: LaurentPoly, den: tuple[int, ...]) -> CyclotomicFraction:
    x = object.__new__(CyclotomicFraction)
    object.__setattr__(x, "num", num)
    object.__setattr__(x, "den", den)
    return x


CF_ZERO = _cf(_LP_ZERO, ())


def canonical(c):
    """A coefficient as it leaves the engine: CyclotomicFraction values in
    canonical RationalFunctionQ form, every other value as it is."""
    return c.canonical() if isinstance(c, CyclotomicFraction) else c


# ---------------------------------------------------------------------------
# coefficient modes
# ---------------------------------------------------------------------------

class SymbolicQ:
    """Coefficient mode with q an indeterminate; scalars are RationalFunctionQ."""

    is_symbolic = True
    _lift = staticmethod(RationalFunctionQ.from_laurent)

    def __init__(self):
        self._qpow: dict = {}
        self._qnum: dict = {}
        self._zero, self._one = self._lift(_LP_ZERO), self._lift(_LP_ONE)

    def one(self):
        return self._one

    def zero(self):
        return self._zero

    def from_fraction(self, f):
        return self._lift(LaurentPoly.q_power(0, f))

    def q_pow(self, n: int):
        out = self._qpow.get(n)
        if out is None:
            out = self._lift(LaurentPoly.q_power(n))
            self._qpow[n] = out
        return out

    def qnum(self, n: int):
        """q^n - q^-n."""
        out = self._qnum.get(n)
        if out is None:
            if n == 0:
                out = self.zero()
            else:
                out = self._lift(LaurentPoly.from_terms([(n, _ONE), (-n, -_ONE)]))
            self._qnum[n] = out
        return out

    def qint(self, n: int):
        return self._lift(qint(n).num)

    def __repr__(self):
        return "SymbolicQ"


class CyclotomicQ(SymbolicQ):
    """Coefficient mode with q an indeterminate; scalars are
    CyclotomicFraction, and every divisor must be a product of q-numbers."""

    _lift = staticmethod(CyclotomicFraction.from_laurent)

    def __repr__(self):
        return "CyclotomicQ"


class NumericQ:
    """Coefficient mode with q pinned to a rational q0 not in {0, 1, -1}."""

    is_symbolic = False

    def __init__(self, q0):
        q0 = Fraction(q0)
        if q0 in (0, 1, -1):
            raise InvalidQ(f"q0 = {q0} is forbidden")
        self.q0 = q0

    def one(self):
        return _ONE

    def zero(self):
        return Fraction(0)

    def from_fraction(self, f):
        return Fraction(f)

    def q_pow(self, n: int):
        return self.q0 ** n

    def qnum(self, n: int):
        return self.q0 ** n - self.q0 ** (-n)

    def qint(self, n: int):
        if n == 0:
            return Fraction(0)
        return self.qnum(n) / self.qnum(1)

    def __repr__(self):
        return f"NumericQ({self.q0})"


SYMBOLIC = SymbolicQ()
CYCLOTOMIC = CyclotomicQ()


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------

def laurent_to_json(p: LaurentPoly) -> list:
    return [[e, str(c)] for e, c in p.terms()]


def laurent_from_json(data) -> LaurentPoly:
    return LaurentPoly.from_terms((int(e), Fraction(str(c))) for e, c in data)


def rf_to_json(x: RationalFunctionQ) -> dict:
    return {"num": laurent_to_json(x.num), "den": laurent_to_json(x.den)}


def rf_from_json(data) -> RationalFunctionQ:
    return RationalFunctionQ(
        laurent_from_json(data["num"]), laurent_from_json(data["den"])
    )
