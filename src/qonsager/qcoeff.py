"""Exact arithmetic in the field of rational functions of q over the rationals.

There is one symbolic scalar, RationalFunctionQ.  Every divisor the engine
meets is a product of q-numbers, and q^n - q^-n = q^-n prod_{d | 2n}
Phi_d(q), so a value is kept as

    num / (prod_d Phi_d(q)^phi[d-1] * rest(q)):

a Laurent polynomial num over a multiset of cyclotomic indices, held as the
exponent tuple phi, times one primitive integer polynomial rest that no
Phi_d divides.  rest is 1 for every value the engine builds; only a divisor
that is not a product of cyclotomic polynomials, which an expression file
may hold, leaves anything there.

No operation takes a gcd of numerators.  A product convolves numerators
and adds multisets; a sum brings both numerators to the lcm of the
denominators; a quotient factors the divisor into a rational, a power of q
and Phi_d's by exact trial division, and whatever is left joins rest.  The
form is not reduced, but its zero test is exact: the denominator is a
nonzero polynomial, so a value is zero exactly when its numerator is.
Equality compares values, by cross multiplication over the common
denominator, and every value has the same hash, so values reached by
different routes compare and hash alike.

Denominators meet in one place, common_denominator: the lcm of triples
(Phi_d multiset, rest, D) and the cofactors that carry each to it, for a
scalar sum and comparison, the integer forms and the rewriter's Delta
alike.  A long linear combination is cheaper over one denominator for the
whole sum.  lifted_form holds rationals as integers over their lcm and
symbolic values as integer vectors over their common denominator, and
lifted_sum adds their multiples, as ints or as packed big integers; a
free-algebra product is such a sum.  A symbolic form keeps its vectors
packed at the width of the last sum, and a sum's result form holds only
the packed big integers it made, so a value summed again at that width is
neither lifted nor packed again.  Its exact height, which fixes the widths
of later sums, comes from one decode of all its digits; its vectors are
unpacked only when first read (form_vectors), and no value is made until
form_values is asked for them.

The reduced canonical form is made only where a value leaves the engine:
canonical(), and through it rf_to_json and so every emitted coefficient and
witness.  It divides the numerator by the Phi_d of the denominator as long
as they divide exactly, and takes one gcd against rest when rest is not 1.
In that form the denominator is an ordinary polynomial with nonzero constant
term, integer coefficients of content 1 and positive leading coefficient,
any power of q is carried by the numerator, and numerator and denominator
share no polynomial factor; equal values have the same canonical form.

Internally a Laurent polynomial is a primitive integer coefficient vector
with positive leading entry times one rational scale; products of primitive
vectors stay primitive (Gauss), so multiplication is a single integer
convolution.  Long products run on Python's big integers by Kronecker
substitution: a vector is packed into one int, its value at xi = 2^w, with
balanced digits of the narrowest width w, 16, 32 or a multiple of 64 bits,
that holds every entry of the product, and the product is one big-int
multiply; short products go to a schoolbook convolution.  One codec, pack
and unpack, serves every packed path, the rewriter's included, with digits
little-endian on every host at any width.

A numeric mode is provided in which q is pinned to a fixed rational q0 with
q0 not in {0, 1, -1}; scalars are then plain Fractions.  Symbolic values are
exact and the arithmetic never leaves the rationals, so identity checks made
with this module are proofs, not approximations.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from math import gcd as _gcd, lcm as _int_lcm
from operator import add as _add, sub as _sub

from .errors import DivisionByZero, InvalidQ, ParseError, PoleAtPoint

Rat = Fraction
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# integer polynomial helpers (dense lists, index = degree offset)
# ---------------------------------------------------------------------------

def _int_content(cs) -> int:
    return _gcd(*cs) or 1


def _exact_div_int(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials; remainder must be zero."""
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
# A digit format of width w, 16, 32 or any multiple of 64, is (w, array
# typecode of that item size or None, little-endian bytes of the digit
# 2^(w-1)).  Digits are little-endian on every host: up to 64 bits they go
# through array's two's-complement entries, byteswapped on a big-endian
# host, so no Python loop runs per coefficient; wider ones through
# int.to_bytes per entry.  Adding the mask, the sum of 2^(w-1) xi^i, turns
# balanced digits into unsigned ones and back.

_BIG_ENDIAN = sys.byteorder == "big"
_CODES = {8 * array(code).itemsize: code for code in "hilq"}
_WIDTHS: dict = {}


def _norm(cs) -> int:
    return max(max(cs), -min(cs))


def _digits(bound: int):
    """The digit format of the narrowest width whose balanced range holds
    |c| <= bound."""
    w = 16 if bound < 1 << 15 else 32 if bound < 1 << 31 else 64 * (bound.bit_length() // 64 + 1)
    digits = _WIDTHS.get(w)
    if digits is None:
        digits = _WIDTHS[w] = (w, _CODES.get(w), bytes(w // 8 - 1) + b"\x80")
    return digits


def pack(cs, digits) -> int:
    """Value at xi = 2^w of a vector whose entries fit the balanced digit range."""
    w, code, pattern = digits
    if code:
        raw = array(code, cs)
        if _BIG_ENDIAN:
            raw.byteswap()
        raw = raw.tobytes()
    else:
        raw = b"".join([c.to_bytes(w // 8, "little", signed=True) for c in cs])
    mask = int.from_bytes(pattern * len(cs), "little")
    return (int.from_bytes(raw, "little") ^ mask) - mask


def unpack(v: int, digits, n: int | None = None) -> list[int]:
    """The n balanced digits of v, lowest first, by default as many as v
    needs (a leading digit may be 0); OverflowError when v has no such form."""
    w, code, pattern = digits
    if n is None:
        n = v.bit_length() // w + 1
    mask = int.from_bytes(pattern * n, "little")
    out = _decoded(((v + mask) ^ mask).to_bytes(w // 8 * n, "little"), digits)
    return out.tolist() if code else out


def _decoded(raw: bytes, digits):
    """The signed little-endian w-bit digits that raw holds: an array, in one
    C-level pass, up to 64 bits, and a list, one entry at a time, past that."""
    w, code, _ = digits
    if code:
        out = array(code)
        out.frombytes(raw)
        if _BIG_ENDIAN:
            out.byteswap()
        return out
    step = w // 8
    return [int.from_bytes(raw[i:i + step], "little", signed=True) for i in range(0, len(raw), step)]


def _digit_runs(packed, digits):
    """The balanced digits of the packed values, lowest first, all decoded at
    once, and how many of them belong to each value, in order."""
    w, _, pattern = digits
    sizes = [v.bit_length() // w + 1 for v in packed]
    masks = {n: int.from_bytes(pattern * n, "little") for n in set(sizes)}
    step = w // 8
    raw = b"".join([((v + mask) ^ mask).to_bytes(step * n, "little")
                    for v, n, mask in zip(packed, sizes, map(masks.__getitem__, sizes))])
    return _decoded(raw, digits), sizes


# Up to this many partial products the loop is faster than packing; the
# crossover measured between 48 and 72 (CPython 3.11, x86-64).
_LOOP_MAX_PRODUCTS = 64


def _convolve(a, b) -> list[int]:
    """Product of integer coefficient vectors, neither all zero.

    One big-int multiply, at the width that holds every entry of the
    product, when the product is long enough to repay packing; the loop
    otherwise.
    """
    if len(a) * len(b) <= _LOOP_MAX_PRODUCTS:
        return _convolve_loop(a, b)
    digits = _digits(min(len(a), len(b)) * _norm(a) * _norm(b))
    return unpack(pack(a, digits) * pack(b, digits), digits, len(a) + len(b) - 1)


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
# cyclotomic polynomials
# ---------------------------------------------------------------------------
#
# A multiset of cyclotomic indices is held as the exponent tuple e with
# e[d - 1] the multiplicity of Phi_d and no trailing zero.  The tables below
# hold plain integer tuples and grow on first use; they never call the
# operators of RationalFunctionQ, so a warm table changes no operation count.

_PHI: dict[int, tuple[int, ...]] = {}
_PHI_PRODUCTS: dict[tuple[int, ...], tuple[int, ...]] = {(): (1,)}
_FACTORS: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {(1,): ((), (1,))}
_COMMON: dict = {}


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


def _cyclotomic_factors(cs: tuple[int, ...]):
    """(e, rest) with cs = prod Phi_d^e[d-1] * rest, by trial division.

    cs is primitive with positive leading and nonzero constant entry, and so
    is rest, which no Phi_d divides.  Phi_d has degree totient(d) >=
    sqrt(d/2), so a factor of degree <= m has d <= 2 m^2, and the search
    ends once d passes that bound for the cofactor left.
    """
    out = _FACTORS.get(cs)
    if out is None:
        rest, e, d = list(cs), [], 1
        while len(rest) > 1 and d <= 2 * (len(rest) - 1) ** 2:
            k = 0
            if _totient(d) < len(rest):
                phi = _phi(d)
                while len(phi) <= len(rest):
                    try:
                        rest = _exact_div_int(rest, phi)
                    except ArithmeticError:
                        break
                    k += 1
            e.append(k)
            d += 1
        while e and not e[-1]:
            e.pop()
        out = _FACTORS[cs] = (tuple(e), tuple(rest))
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


def common_denominator(dens):
    """(lcm, lifts) of a tuple of triples (Phi_d multiset, rest, D): their
    lcm, a triple, and per triple in order (vector, k), the primitive
    positive-leading prod Phi_d^(lcm - phi) * (lcm rest / rest) and lcm D
    / D, which carry a numerator over that triple to the lcm.  Rests are
    primitive with positive leading entry, so is their lcm, and every
    quotient is exact.  Kept per dens: meeting again is one lookup."""
    out = _COMMON.get(dens)
    if out is None:
        phi, rest, d = (), (1,), 1
        for e, r, k in dens:
            if e != phi:
                phi = tuple(map(max, phi, e)) + (phi[len(e):] or e[len(phi):])
            if r != rest:
                rest = _times(rest, _exact_div_int(r, _primitive_gcd(rest, r)))
            d = _int_lcm(d, k)
        out = _COMMON[dens] = ((phi, rest, d), tuple(
            (_times(_phi_product(tuple(map(_sub, phi, e)) + phi[len(e):]), _exact_div_int(rest, r)),
             d // k) for e, r, k in dens))
    return out


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


# ---------------------------------------------------------------------------
# rational functions in q
# ---------------------------------------------------------------------------

class RationalFunctionQ:
    """num / (prod Phi_d^phi[d-1] * rest): an element of Q(q), kept unreduced.

    num is a LaurentPoly, phi the exponent tuple of a cyclotomic multiset
    and rest a primitive integer vector with positive leading and nonzero
    constant entry that no Phi_d divides, (1,) unless a divisor had another
    factor.  canonical() gives the same value in reduced form.
    """

    __slots__ = ("num", "phi", "rest")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = _LP_ONE):
        """The value num / den."""
        if den.is_zero:
            raise DivisionByZero("zero denominator")
        if num.is_zero:
            num, phi, rest = _LP_ZERO, (), (1,)
        else:
            phi, rest = _cyclotomic_factors(den.coeffs)
            num = _raw(num.offset - den.offset, num.coeffs, num.scale / den.scale)
        _SET_NUM(self, num)
        _SET_PHI(self, phi)
        _SET_REST(self, rest)

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
        return _rf(p, (), (1,)) if p.coeffs else RF_ZERO

    @staticmethod
    def from_fraction(f) -> "RationalFunctionQ":
        f = Fraction(f)
        return _rf(_raw(0, (1,), f), (), (1,)) if f else RF_ZERO

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num.coeffs

    def __bool__(self) -> bool:
        return bool(self.num.coeffs)

    @property
    def den(self) -> LaurentPoly:
        """The denominator as one polynomial, offset 0 and scale 1."""
        return _raw(0, _times(_phi_product(self.phi), self.rest), _ONE)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "RationalFunctionQ":
        if type(other) is not RationalFunctionQ:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, c = self.num, other.num
        if not a.coeffs:
            return other
        if not c.coeffs:
            return self
        phi, rest = self.phi, self.rest
        if phi == other.phi and rest == other.rest:
            t = a + c
        else:
            (phi, rest, _), ((ma, _), (mc, _)) = common_denominator(
                ((phi, rest, 1), (other.phi, other.rest, 1)))
            t = _times_lp(a, ma) + _times_lp(c, mc)
        return _rf(t, phi, rest) if t.coeffs else RF_ZERO

    __radd__ = __add__

    def __neg__(self) -> "RationalFunctionQ":
        return _rf(-self.num, self.phi, self.rest)

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
        if type(other) is not RationalFunctionQ:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented  # a polynomial's or a matrix's __rmul__ scales it
        a, c = self.num, other.num
        if not a.coeffs or not c.coeffs:
            return RF_ZERO
        return _rf(a * c, _merge(self.phi, other.phi), _times(self.rest, other.rest))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunctionQ":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        c = other.num
        if not c.coeffs:
            raise DivisionByZero("division by zero rational function")
        a = self.num
        if not a.coeffs:
            return RF_ZERO
        # a/(F r) divided by c/(G s) is a G s / (F r c), c split into Phi_d's and the rest
        phi, rest = _cyclotomic_factors(c.coeffs)
        up = _times(_times(a.coeffs, _phi_product(other.phi)), other.rest)
        num = _raw(a.offset - c.offset, up, a.scale / c.scale)
        return _rf(num, _merge(self.phi, phi), _times(self.rest, rest))

    def __rtruediv__(self, other) -> "RationalFunctionQ":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    # -- the reduced form and evaluation -------------------------------------

    def canonical(self) -> "RationalFunctionQ":
        """The same value with numerator and denominator sharing no factor.

        Each Phi_d of the denominator is divided out of the numerator as long
        as it divides exactly, and the gcd with rest, when rest is not 1, by
        the primitive remainder sequence.  Quotients of primitive
        positive-leading vectors by such divisors are again such vectors.
        """
        a = self.num
        if not a.coeffs:
            return RF_ZERO
        cs, phi = list(a.coeffs), list(self.phi)
        for d, k in enumerate(self.phi, 1):
            while k and len(cs) > 1:
                try:
                    cs = _exact_div_int(cs, _phi(d))
                except ArithmeticError:
                    break
                k -= 1
            phi[d - 1] = k
        while phi and not phi[-1]:
            phi.pop()
        rest = self.rest
        if len(rest) > 1 and len(cs) > 1:
            g = _primitive_gcd(cs, rest)
            if len(g) > 1:
                cs, rest = _exact_div_int(cs, g), tuple(_exact_div_int(list(rest), g))
        return _rf(_raw(a.offset, tuple(cs), a.scale), tuple(phi), rest)

    def eval_at(self, q0) -> Rat:
        """Exact substitution q -> q0; q0 must avoid 0, 1, -1 and poles.

        Phi_d has no rational root but 1 and -1, so only rest can vanish at
        q0, and then the reduced form decides whether q0 is a pole.
        """
        q0 = Fraction(q0)
        if q0 in (0, 1, -1):
            raise InvalidQ(f"q0 = {q0} is forbidden")
        x = self if len(self.rest) == 1 else self.canonical()
        d = x.den.eval_at(q0)
        if not d:
            raise PoleAtPoint(f"denominator vanishes at q = {q0}")
        return x.num.eval_at(q0) / d

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is not RationalFunctionQ:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.phi == other.phi and self.rest == other.rest:
            return self.num == other.num
        # a/M = c/N iff a (L/M) = c (L/N) over the lcm L of M, N
        _, ((ma, _), (mc, _)) = common_denominator(
            ((self.phi, self.rest, 1), (other.phi, other.rest, 1)))
        return _times_lp(self.num, ma) == _times_lp(other.num, mc)

    def __hash__(self) -> int:
        # equal values may be held over different denominators, and only
        # canonical() would tell which, so every value hashes alike
        return 0

    def __repr__(self) -> str:
        x = self.canonical()
        if not x.phi and x.rest == (1,):
            return repr(x.num)
        return f"({x.num!r})/({x.den!r})"


# the slot descriptors store past the __setattr__ guard, and faster than
# object.__setattr__, which looks each slot up by name
_SET_NUM, _SET_PHI, _SET_REST = (
    RationalFunctionQ.num.__set__, RationalFunctionQ.phi.__set__, RationalFunctionQ.rest.__set__
)


def _rf(num: LaurentPoly, phi: tuple[int, ...], rest: tuple[int, ...]) -> RationalFunctionQ:
    """Wrap the parts of a value without checks."""
    x = object.__new__(RationalFunctionQ)
    _SET_NUM(x, num)
    _SET_PHI(x, phi)
    _SET_REST(x, rest)
    return x


def _coerce(x):
    """x as a RationalFunctionQ when it is one, an int or a Fraction."""
    if isinstance(x, RationalFunctionQ):
        return x
    if isinstance(x, (int, Fraction)):
        return RationalFunctionQ.from_fraction(x)
    return NotImplemented


RF_ZERO = _rf(_LP_ZERO, (), (1,))
RF_ONE = _rf(_LP_ONE, (), (1,))


# ---------------------------------------------------------------------------
# integer forms: coefficient lists and their sums over one denominator
# ---------------------------------------------------------------------------

_RATIONAL = (int, Fraction)


def is_symbolic(form) -> bool:
    """Whether an integer form is symbolic (a list), not numeric (D, nums)."""
    return type(form) is list


def lifted_form(xs):
    """Coefficients xs as integers over one denominator, in their order.

    All-rational xs (int, Fraction) give the numeric form (D, nums), value i
    being nums[i] / D.  Other xs, rationals among them coerced, give the
    symbolic form [phi, rest, D, offsets, vectors, height, packs], value i
    being q^offsets[i] * vectors[i] / (D * prod Phi_d^phi[d-1] * rest),
    the common_denominator of the values' (phi, rest, scale denominator),
    and each vector is the value's coefficient tuple times its lift, the
    tuple itself, shared, when that is 1.  height is the largest |entry| of
    the vectors, and packs, None here, the vectors packed at the width of
    the last sum that read them, (w, packed ints).
    """
    xs = list(xs)
    if all(isinstance(x, _RATIONAL) for x in xs):
        d = _int_lcm(*(x.denominator for x in xs))
        return (d, tuple([x.numerator * (d // x.denominator) for x in xs]))
    xs = [_coerce(x) for x in xs]
    dens = [(x.phi, x.rest, x.num.scale.denominator) for x in xs]
    (phi, rest, d), lift = _lifts(dens)
    vectors = []
    for x, den in zip(xs, dens):
        vec, k = lift[den]
        vec = _times(x.num.coeffs, vec)
        k *= x.num.scale.numerator
        vectors.append(vec if k == 1 else tuple([k * c for c in vec]))
    vectors = tuple(vectors)
    height = max(map(_norm, vectors), default=0)
    return [phi, rest, d, tuple([x.num.offset for x in xs]), vectors, height, None]


def symbolic_form(form):
    """A numeric form (D, nums) of nonzero values as the symbolic form of the
    same constants over D; a symbolic form as it is."""
    if is_symbolic(form):
        return form
    d, nums = form
    height = max(map(abs, nums), default=0)
    return [(), (1,), d, (0,) * len(nums), tuple([(n,) for n in nums]), height, None]


def _lifts(dens):
    """common_denominator of the distinct triples of dens, lifts by triple."""
    distinct = tuple(dict.fromkeys(dens))
    lcm, lifts = common_denominator(distinct)
    return lcm, dict(zip(distinct, lifts))


def form_vectors(form):
    """The numerator vectors of a symbolic lifted form, the one reader of them.

    A sum's form holds none (unpacked_form): on the first read they are
    unpacked from its packed values, all at its one width, in one decode,
    and kept in the form.
    """
    vectors = form[4]
    if vectors is None:
        w, packed = form[6]
        decoded, sizes = _digit_runs(packed, _WIDTHS[w])
        vectors, i = [], 0
        for n in sizes:
            j = i + n
            while not decoded[j - 1]:  # a leading 0 digit
                j -= 1
            vectors.append(tuple(decoded[i:j]))
            i += n
        vectors = form[4] = tuple(vectors)
    return vectors


def lifted_sum(items):
    """The sum of c * x over (c, form, keys) items, grouped by key: (keys,
    form) for the keys whose sum is nonzero, form the sums' own.

    form is lifted_form of values x in the order of keys, and c a
    RationalFunctionQ, int or Fraction.  Rational c over numeric forms sum
    as ints over the lcm m of the c / D denominators, (m, nums).  Otherwise
    a numeric form is lifted as constants (symbolic_form) and the sum goes
    over the common_denominator (phi, rest, m) of all its products, at xi =
    2^w: one packed multiplier per item (c's numerator times its lift), one
    packing of a form's vectors per width, kept in its packs, one big-int
    product per value and one big-int sum per key.  A key takes at most one
    value from each item, so the heights bound every sum's entries, which
    fixes w.  The result form (unpacked_form) holds only the packed sums.
    """
    acc: dict = {}
    get = acc.get
    if all(isinstance(c, _RATIONAL) and not is_symbolic(form) for c, form, _ in items):
        scales = [Fraction(c.numerator, c.denominator * form[0]) for c, form, _ in items]
        m = _int_lcm(*(f.denominator for f in scales))
        for f, (_, form, keys) in zip(scales, items):
            k = f.numerator * (m // f.denominator)
            for key, n in zip(keys, form[1]):
                acc[key] = get(key, 0) + k * n
        acc = {key: v for key, v in acc.items() if v}
        return tuple(acc), (m, tuple(acc.values()))
    parts = []
    for c, form, keys in items:
        c = _coerce(c)
        form = symbolic_form(form)
        den = (_merge(c.phi, form[0]), _times(c.rest, form[1]), c.num.scale.denominator * form[2])
        parts.append((c.num, den, form, keys))
    (phi, rest, m), lift = _lifts([den for _, den, _, _ in parts])
    low = min((num.offset + min(form[3]) for num, _, form, _ in parts), default=0)
    bound, mults = 0, []
    for num, den, form, _ in parts:
        vec, k = lift[den]
        mult = _times(num.coeffs, vec)
        f = num.scale.numerator * k
        bound += abs(f) * len(mult) * _norm(mult) * form[5]
        mults.append((mult, f))
    digits = _digits(bound)
    w = digits[0]
    for (num, _, form, keys), (mult, f) in zip(parts, mults):
        packs = form[6]
        if packs is None or packs[0] != w:  # the vectors are read before the packs go
            packs = form[6] = (w, [pack(vec, digits) for vec in form_vectors(form)])
        pm = pack(mult, digits) * f
        base = num.offset - low
        for key, off, v in zip(keys, form[3], packs[1]):
            acc[key] = get(key, 0) + (v * pm << w * (base + off))
    return unpacked_form(((key, low, v) for key, v in acc.items() if v), phi, rest, m, digits)


def unpacked_form(items, phi, rest, m, digits):
    """(keys, lifted form) of the values q^offset * P / (m prod
    Phi_d^phi[d-1] * rest) over (key, offset, v) items, P the nonzero
    polynomial whose balanced digits at xi = 2^w v is, w the width of digits.

    The zero low digits are shifted off v, which is exact (the lowest set
    bit of v lies in its lowest nonzero digit), and what is left is all the
    form holds: its packs are (w, the shifted ints) and its vectors None
    until form_vectors reads them.  Its height is exact, the largest digit
    of all the values, decoded at once; it fixes the width of every later
    sum.  No value is made.
    """
    w = digits[0]
    keys, offsets, packed = [], [], []
    for key, offset, v in items:
        lo = ((v & -v).bit_length() - 1) // w
        keys.append(key)
        offsets.append(offset + lo)
        packed.append(v >> w * lo)
    height = _norm(_digit_runs(packed, digits)[0]) if packed else 0
    return tuple(keys), [phi, rest, m, tuple(offsets), None, height, (w, packed)]


def form_values(form):
    """The values an integer form stands for, in its order: Fractions for a
    numeric form, RationalFunctionQ values for a symbolic one."""
    if not is_symbolic(form):
        return [Fraction(n, form[0]) for n in form[1]]
    phi, rest, d, offsets = form[:4]
    one = Fraction(1, d)
    return [_rf(_make(offset, vec, one), phi, rest)
            for offset, vec in zip(offsets, form_vectors(form))]


def qint(n: int) -> RationalFunctionQ:
    """The q-integer (q^n - q^-n)/(q - q^-1) as an explicit Laurent polynomial."""
    if n == 0:
        return RF_ZERO
    sign = 1 if n > 0 else -1
    m = abs(n)
    p = LaurentPoly.from_terms((m - 1 - 2 * k, Fraction(sign)) for k in range(m))
    return RationalFunctionQ.from_laurent(p)


# ---------------------------------------------------------------------------
# coefficient modes
# ---------------------------------------------------------------------------

class SymbolicQ:
    """Coefficient mode with q an indeterminate; scalars are RationalFunctionQ."""

    is_symbolic = True

    def __init__(self):
        self._qpow: dict = {}
        self._qnum: dict = {}

    def one(self):
        return RF_ONE

    def zero(self):
        return RF_ZERO

    def from_fraction(self, f):
        return RationalFunctionQ.from_fraction(f)

    def q_pow(self, n: int):
        out = self._qpow.get(n)
        if out is None:
            out = self._qpow[n] = RationalFunctionQ.from_laurent(LaurentPoly.q_power(n))
        return out

    def qnum(self, n: int):
        """q^n - q^-n."""
        out = self._qnum.get(n)
        if out is None:
            p = LaurentPoly.from_terms([(n, _ONE), (-n, -_ONE)]) if n else _LP_ZERO
            out = self._qnum[n] = RationalFunctionQ.from_laurent(p)
        return out

    def qint(self, n: int):
        return qint(n)

    def __repr__(self):
        return "SymbolicQ"


class NumericQ:
    """Coefficient mode with q pinned to a rational q0 not in {0, 1, -1}."""

    is_symbolic = False

    def __init__(self, q0):
        q0 = Fraction(q0)
        if q0 in (0, 1, -1):
            raise InvalidQ(f"q0 = {q0} is forbidden")
        self.q0 = q0
        self._qpow: dict = {}
        self._qnum: dict = {}

    def one(self):
        return _ONE

    def zero(self):
        return Fraction(0)

    def from_fraction(self, f):
        return Fraction(f)

    def q_pow(self, n: int):
        out = self._qpow.get(n)
        if out is None:
            out = self._qpow[n] = self.q0 ** n
        return out

    def qnum(self, n: int):
        """q0^n - q0^-n."""
        out = self._qnum.get(n)
        if out is None:
            out = self._qnum[n] = self.q_pow(n) - self.q_pow(-n)
        return out

    def qint(self, n: int):
        if n == 0:
            return Fraction(0)
        return self.qnum(n) / self.qnum(1)

    def __repr__(self):
        return f"NumericQ({self.q0})"


SYMBOLIC = SymbolicQ()


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------

def laurent_to_json(p: LaurentPoly) -> list:
    return [[e, str(c)] for e, c in p.terms()]


def json_int(value, field: str) -> int:
    """value when it is a JSON integer; int() would truncate a float and
    take a boolean."""
    if type(value) is not int:
        raise ParseError(f"{field} must be a JSON integer, got {value!r}")
    return value


def json_fraction(value, field: str = "") -> Fraction:
    """The rational a JSON coefficient spells; a ParseError at field, or for
    the caller to locate, for a boolean, a zero denominator and a literal
    Fraction cannot read."""
    if type(value) is not bool:
        try:
            return Fraction(str(value))
        except ZeroDivisionError:
            raise ParseError("zero denominator", location=field)
        except ValueError:
            pass
    raise ParseError(f"cannot decode coefficient {value!r}", location=field)


def laurent_from_json(data) -> LaurentPoly:
    return LaurentPoly.from_terms((json_int(e, "exponent"), json_fraction(c)) for e, c in data)


def rf_to_json(x: RationalFunctionQ) -> dict:
    """The canonical form of x as JSON."""
    x = x.canonical()
    return {"num": laurent_to_json(x.num), "den": laurent_to_json(x.den)}


def rf_from_json(data) -> RationalFunctionQ:
    return RationalFunctionQ(
        laurent_from_json(data["num"]), laurent_from_json(data["den"])
    )
