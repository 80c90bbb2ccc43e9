"""Catalogue of exact operator identities and their verifier.

Each identity is a statement about the adjoint calculus that holds in every
associative algebra.  The automorphism and its inverse are formal sums of
quantum adjoints, so each side is a linear combination of adjoint images and
their products; a builder returns it as (scalar, polynomial) pairs, leaving
a twist primitive as its two ad_terms.  The verifier instantiates an
identity with A, X, Y as free generators of a three-letter alphabet, forms
lhs - rhs as one sum of these pairs (NcPoly.combine), and reports pass
exactly when it is the zero polynomial.  Failures carry the nonzero
difference as a witness.

Fifteen families are five rules over factors.  With w(n) = q^n - q^-n, a
factor is (U, twist t, ad_t(U) as pairs): the balanced product
(bp_i V, i, w(2i) S_i V), the shift map (S_i V, -i, w(2i+1) bp_i+1 V -
w(2i) bp_i V) or the plain (V, t, ad_t V).  For factors U of X, V of Y with
twists a, b:

* Leibniz (LEIBNIZ, ADA_BB, ADA_SS, ADA_SB, ADA_BS): ad_h(UV) = q^(h-a)
  ad_a(U) V + q^(b-h) U ad_b(V) + q^(b-a) (q^(h-a-b) - q^(a+b-h)) U A V;
* twist change (AD_BAD, AD_I_SJ): ad_i(U) = q^(i-a) ad_a(U) + q^-a
  (q^(i-a) - q^(a-i)) U A, ad_i(V) = q^(b-i) ad_b(V) + q^b (q^(i-b) -
  q^(b-i)) A V;
* bp_n+1(XY) (TXY_B, PRIMEVER_B, BADPROD_1, BADPROD_2): the sum over
  r + s = n of q^(-ex r) S_r(X) bp_s+1(Y) + q^(ey s) bp_r+1(X) S_s(Y), with
  shift maps of direction ex on X and ey on Y (+1 forward, -1 inverse),
  less ex times the sum over r + s = n - 1 of bp_r+1(X) A bp_s+1(Y) when
  ex = ey;
* shift sum (TXY_S, PRIMEVER_S): the shift maps of direction e of orders
  0 .. n on XY sum to the S_r(X) S_s(Y) over r + s <= n plus the
  q^(e(r-s)) bp_r+1(X) bp_s+1(Y) over r + s = n - 1;
* SP by side (SP1, SP2): q^-i S_i(X) - q^i S'_i(X) = bp_i(X) A and
  q^i S_i(Y) - q^-i S'_i(Y) = A bp_i(Y), S' the inverse shift map.

Identity ids, the number and typing of their integer parameters, and the
builder for each side are registered in IDENTITIES.  Parameter types:
"int" ranges over all integers, "pos" over positive integers, "nat" over
naturals; the twist pair of XA_AY must be distinct.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .adjoint import FORWARD, INVERSE, ImageCache
from .errors import InvalidParams
from .freealg import Alphabet, NcPoly, ncpoly_to_json
from .qcoeff import SYMBOLIC
from .report import CheckRecord, FAIL, PASS


@dataclass
class IdentityRecord(CheckRecord):
    """Check record whose JSON uses the identity-report schema."""

    mode_label: str = "symbolic"

    def to_json(self) -> dict:
        out = {
            "identity": self.name,
            "params": list(self.params),
            "mode": self.mode_label,
            "status": self.status,
        }
        if self.witness is not None:
            out["witness"] = ncpoly_to_json(self.witness)
        return out


class _Ctx(ImageCache):
    """Free generators A, X, Y over the image cache of base A.

    The builders reuse images like the balanced product of X many times per
    instance, and products such as S_i(X) S_j(Y) across instances that
    differ only in a twist; the cache keeps the sweep fast without changing
    any value.
    """

    def __init__(self, mode, A: NcPoly, X: NcPoly, Y: NcPoly):
        super().__init__(A, mode)
        self.X, self.Y = X, Y

    def Sp(self, n, V):
        return self.S(n, V, INVERSE)

    def q(self, n):
        return self.mode.q_pow(n)

    def w(self, n):
        return self.mode.qnum(n)


def make_context(mode=SYMBOLIC) -> _Ctx:
    """Free A, X, Y over mode."""
    al = Alphabet(["A", "X", "Y"])
    return _Ctx(mode, *(NcPoly.generator(al, name, mode) for name in "AXY"))


# ---------------------------------------------------------------------------
# identity builders: params -> (lhs, rhs), each a list of (scalar, polynomial)
# pairs summing to that side; after XA_AY, three factors and five rules
# ---------------------------------------------------------------------------

def _scaled(k, terms):
    return [(k * c, p) for c, p in terms]


def _plus(c: _Ctx, i: int):
    lhs = c.ad_terms(i, c.X) + c.ad_terms(-i, c.X)
    rhs = _scaled(c.q(i) + c.q(-i), c.ad_terms(0, c.X))
    return lhs, rhs


def _s_plus_sp(c: _Ctx, i: int):
    lhs = [(1, c.S(i, c.X)), (1, c.Sp(i, c.X))]
    rhs = [(c.mode.one() / c.w(i), c.bp(i, c.ad(0, c.X)))]
    return lhs, rhs


def _adad(c: _Ctx, i: int):
    lhs = _scaled(c.mode.one() / (c.w(2 * i) * c.w(2 * i)), c.ad_terms(i, c.ad(-i, c.X)))
    lhs.append((1, c.X))
    rhs = [(c.w(2 * i + 1) / c.w(2 * i), c.bad(i, c.X))]
    return lhs, rhs


def _ss(c: _Ctx, i: int):
    lhs = [(1, c.S(i, c.Sp(i, c.X))), (1, c.bp(i, c.bp(i, c.X)))]
    rhs = [(c.w(2 * i + 1) / c.w(2 * i), c.bp(i, c.bp(i + 1, c.X)))]
    return lhs, rhs


def _pm_ad(c: _Ctx, i: int, j: int):
    lhs = _scaled(
        c.mode.one() / (c.w(2 * i) * c.w(2 * j)),
        c.ad_terms(i, c.ad(-j, c.X)) + c.ad_terms(-i, c.ad(j, c.X)),
    )
    lhs.append((c.q(i - j) + c.q(j - i), c.X))
    rhs = [
        (c.w(2 * i + 1) / c.w(i + j), c.bad(i, c.X)),
        (c.w(2 * j + 1) / c.w(i + j), c.bad(j, c.X)),
    ]
    return lhs, rhs


def _pm_ss(c: _Ctx, i: int, j: int):
    lhs = [
        (1, c.S(i, c.Sp(j, c.X))),
        (1, c.Sp(i, c.S(j, c.X))),
        (c.q(i - j) + c.q(j - i), c.bp(i, c.bp(j, c.X))),
    ]
    rhs = [
        (c.w(2 * i + 1) / c.w(i + j), c.bp(i + 1, c.bp(j, c.X))),
        (c.w(2 * j + 1) / c.w(i + j), c.bp(i, c.bp(j + 1, c.X))),
    ]
    return lhs, rhs


def _ttp(c: _Ctx, n: int):
    al = c.X.alphabet
    inner = NcPoly.combine(al, [(1, c.Sp(j, c.X)) for j in range(n + 1)])
    lhs = [(1, c.S(i, inner)) for i in range(n + 1)]
    acc = NcPoly.combine(
        al, [(c.w(2 * n + 1) / c.w(n + r + 1), c.bp(r + 1, c.X)) for r in range(n)]
    )
    rhs = [(1, c.X), (1, c.bp(n + 1, acc))]
    return lhs, rhs


def _xa_ay(c: _Ctx, i: int, j: int):
    scale = c.mode.one() / (c.q(i - j) - c.q(j - i))
    lhs = [(1, c.X * c.A), (1, c.A * c.Y)]
    rhs = (
        _scaled(scale * c.q(j), c.ad_terms(i, c.X))
        + _scaled(-scale * c.q(i), c.ad_terms(j, c.X))
        + _scaled(scale * c.q(-j), c.ad_terms(i, c.Y))
        + _scaled(-scale * c.q(-i), c.ad_terms(j, c.Y))
    )
    return lhs, rhs


def _bp(c: _Ctx, i: int, V):
    return c.bp(i, V), i, [(c.w(2 * i), c.S(i, V))]


def _S(c: _Ctx, i: int, V):
    return c.S(i, V), -i, [(c.w(2 * i + 1), c.bp(i + 1, V)), (-c.w(2 * i), c.bp(i, V))]


def _plain(c: _Ctx, t: int, V):
    return V, t, [(1, c.ad(t, V))]


def _with_a(c: _Ctx, side: int, U):
    """U A on the side of X (side 1), A U on the side of Y (side -1)."""
    return c.mul(U, c.A) if side > 0 else c.mul(c.A, U)


def _leibniz(left, right):
    """ad_h of a factor of X (left) times a factor of Y (right)."""

    def terms(c: _Ctx, h: int, i: int, j: int):
        U, a, ad_u = left(c, i, c.X)
        V, b, ad_v = right(c, j, c.Y)
        rhs = [(c.q(h - a) * k, c.mul(P, V)) for k, P in ad_u]
        rhs += [(c.q(b - h) * k, c.mul(U, P)) for k, P in ad_v]
        rhs.append((c.q(b - a) * (c.q(h - a - b) - c.q(a + b - h)), c.mul(U, c.A, V)))
        return c.ad_terms(h, c.mul(U, V)), rhs

    return terms


def _twist_change(factor):
    """ad_i of the factor of order j, on X and on Y, from its own twist."""

    def terms(c: _Ctx, i: int, j: int):
        lhs, rhs = [], []
        for side, V in ((1, c.X), (-1, c.Y)):
            U, t, ad_u = factor(c, j, V)
            lhs += c.ad_terms(i, U)
            rhs += _scaled(c.q(side * (i - t)), ad_u)
            rhs.append((c.q(-side * t) * (c.q(i - t) - c.q(t - i)), _with_a(c, side, U)))
        return lhs, rhs

    return terms


_DIRECTION = {1: FORWARD, -1: INVERSE}


def _bp_of_product(ex: int, ey: int):
    """bp_n+1(XY) under shift maps of direction ex on X and ey on Y."""
    dx, dy = _DIRECTION[ex], _DIRECTION[ey]

    def terms(c: _Ctx, n: int):
        rhs = []
        for r in range(n + 1):
            s = n - r
            rhs.append((c.q(-ex * r), c.mul(c.S(r, c.X, dx), c.bp(s + 1, c.Y))))
            rhs.append((c.q(ey * s), c.mul(c.bp(r + 1, c.X), c.S(s, c.Y, dy))))
        if ex == ey:
            rhs += [(-ex, c.mul(c.bp(r + 1, c.X), c.A, c.bp(n - r, c.Y))) for r in range(n)]
        return [(1, c.bp(n + 1, c.mul(c.X, c.Y)))], rhs

    return terms


def _shift_sum(e: int):
    """The shift maps of direction e of orders 0 .. n, summed on XY."""
    d = _DIRECTION[e]

    def terms(c: _Ctx, n: int):
        lhs = [(1, c.S(i, c.mul(c.X, c.Y), d)) for i in range(n + 1)]
        rhs = [(1, c.mul(c.S(r, c.X, d), c.S(s, c.Y, d)))
               for r in range(n + 1) for s in range(n + 1 - r)]
        for r in range(n):
            s = n - 1 - r
            rhs.append((c.q(e * (r - s)), c.mul(c.bp(r + 1, c.X), c.bp(s + 1, c.Y))))
        return lhs, rhs

    return terms


def _sp(side: int):
    """S_i - S'_i on X (side 1) or Y (side -1), with A on that side."""

    def terms(c: _Ctx, i: int):
        V = c.X if side > 0 else c.Y
        lhs = [(c.q(-side * i), c.S(i, V)), (-c.q(side * i), c.Sp(i, V))]
        return lhs, [(1, _with_a(c, side, c.bp(i, V)))]

    return terms


INT, POS, NAT = "int", "pos", "nat"


@dataclass(frozen=True)
class IdentitySpec:
    name: str
    params: tuple[tuple[str, str], ...]  # (param name, type)
    terms: Callable  # (ctx, *params) -> (lhs pairs, rhs pairs)

    def build(self, ctx: _Ctx, *params) -> tuple[NcPoly, NcPoly]:
        """Both sides of one instance, each summed into a polynomial."""
        lhs, rhs = self.terms(ctx, *params)
        al = ctx.X.alphabet
        return NcPoly.combine(al, lhs), NcPoly.combine(al, rhs)

    def difference(self, ctx: _Ctx, *params) -> NcPoly:
        """lhs - rhs of one instance as one linear combination: zero exactly
        when the instance holds."""
        lhs, rhs = self.terms(ctx, *params)
        return NcPoly.combine(ctx.X.alphabet, lhs + [(-c, p) for c, p in rhs])

    def validate(self, values: tuple[int, ...]):
        if len(values) != len(self.params):
            raise InvalidParams(
                f"{self.name} takes {len(self.params)} parameters, got {len(values)}"
            )
        for (pname, ptype), v in zip(self.params, values):
            if ptype == POS and v < 1:
                raise InvalidParams(f"{self.name}: {pname} must be positive, got {v}")
            if ptype == NAT and v < 0:
                raise InvalidParams(f"{self.name}: {pname} must be natural, got {v}")
        if self.name == "XA_AY" and values[0] == values[1]:
            raise InvalidParams("XA_AY: twists must be distinct")


IDENTITIES: dict[str, IdentitySpec] = {
    s.name: s
    for s in [
        IdentitySpec("PLUS", (("i", INT),), _plus),
        IdentitySpec("S_PLUS_SP", (("i", POS),), _s_plus_sp),
        IdentitySpec("ADAD", (("i", POS),), _adad),
        IdentitySpec("SS", (("i", POS),), _ss),
        IdentitySpec("PM_AD", (("i", POS), ("j", POS)), _pm_ad),
        IdentitySpec("PM_SS", (("i", POS), ("j", POS)), _pm_ss),
        IdentitySpec("TTP", (("n", NAT),), _ttp),
        IdentitySpec("XA_AY", (("i", INT), ("j", INT)), _xa_ay),
        IdentitySpec("AD_BAD", (("i", INT), ("j", POS)), _twist_change(_bp)),
        IdentitySpec("AD_I_SJ", (("i", INT), ("j", NAT)), _twist_change(_S)),
        IdentitySpec("LEIBNIZ", (("h", INT), ("i", INT), ("j", INT)), _leibniz(_plain, _plain)),
        IdentitySpec("ADA_BB", (("h", INT), ("i", POS), ("j", POS)), _leibniz(_bp, _bp)),
        IdentitySpec("ADA_SS", (("h", INT), ("i", NAT), ("j", NAT)), _leibniz(_S, _S)),
        IdentitySpec("ADA_SB", (("h", INT), ("i", NAT), ("j", POS)), _leibniz(_S, _bp)),
        IdentitySpec("ADA_BS", (("h", INT), ("i", POS), ("j", NAT)), _leibniz(_bp, _S)),
        IdentitySpec("TXY_S", (("n", NAT),), _shift_sum(1)),
        IdentitySpec("TXY_B", (("n", NAT),), _bp_of_product(1, 1)),
        IdentitySpec("PRIMEVER_S", (("n", NAT),), _shift_sum(-1)),
        IdentitySpec("PRIMEVER_B", (("n", NAT),), _bp_of_product(-1, -1)),
        IdentitySpec("BADPROD_1", (("n", NAT),), _bp_of_product(1, -1)),
        IdentitySpec("BADPROD_2", (("n", NAT),), _bp_of_product(-1, 1)),
        IdentitySpec("SP1", (("i", POS),), _sp(1)),
        IdentitySpec("SP2", (("i", POS),), _sp(-1)),
    ]
}


def verify_identity(
    name: str, params: tuple[int, ...], mode=SYMBOLIC, _ctx: _Ctx | None = None
) -> CheckRecord:
    """Form lhs - rhs of one identity instance and test it for zero exactly."""
    if name not in IDENTITIES:
        raise InvalidParams(f"unknown identity {name!r}")
    spec = IDENTITIES[name]
    params = tuple(int(p) for p in params)
    spec.validate(params)
    ctx = _ctx if _ctx is not None else make_context(mode)
    diff = spec.difference(ctx, *params)
    return IdentityRecord(
        name=name,
        params=params,
        status=PASS if diff.is_zero else FAIL,
        anchor=name,
        witness=None if diff.is_zero else diff,
        mode_label="symbolic" if mode.is_symbolic else "numeric",
    )


def parameter_grid(spec: IdentitySpec, max_index: int = 3):
    """Cartesian sweep: pos in 1..m, nat in 0..m, int in -(m-1)..m, keeping
    the combinations that spec.validate accepts."""
    low = {POS: 1, NAT: 0, INT: 1 - max_index}
    domains = [range(low[ptype], max_index + 1) for _, ptype in spec.params]
    for combo in itertools.product(*domains):
        try:
            spec.validate(combo)
        except InvalidParams:
            continue
        yield combo


def run_identity_suite(max_index: int = 3, mode=SYMBOLIC) -> list[CheckRecord]:
    """Run the catalogue over the default parameter grid, in a fixed order.

    Records come in catalogue order, each family's instances in ascending
    parameter order (the order of the grid).

    The instances are independent pure checks; one shared context is used
    only as a cache of operator images.
    """
    ctx = make_context(mode)
    records = []
    for name, spec in IDENTITIES.items():
        for combo in parameter_grid(spec, max_index):
            records.append(verify_identity(name, combo, mode, _ctx=ctx))
    return records
