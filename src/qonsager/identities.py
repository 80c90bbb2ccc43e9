"""Catalogue of exact operator identities and their verifier.

Each identity is a statement about the adjoint calculus that holds in every
associative algebra.  Each side is a linear combination of adjoint images
and their products (the automorphism and its inverse are formal sums of
quantum adjoints), so a builder returns each side as (scalar, polynomial)
pairs, leaving a twist primitive as its two ad_terms.  The verifier
instantiates an identity with A, X, Y as free generators of a three-letter
alphabet, forms lhs - rhs as one sum of these pairs (NcPoly.combine), and
reports pass exactly when it is the zero polynomial.  Failures carry the
nonzero difference as a witness.

Identity ids, the number and typing of their integer parameters, and the
builder for each side are registered in IDENTITIES.  Parameter types:
"int" ranges over all integers, "pos" over positive integers, "nat" over
naturals; the twist pair of XA_AY must be distinct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .adjoint import INVERSE, ImageCache
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
    return _Ctx(
        mode,
        NcPoly.generator(al, "A", mode),
        NcPoly.generator(al, "X", mode),
        NcPoly.generator(al, "Y", mode),
    )


# ---------------------------------------------------------------------------
# identity builders: params -> (lhs terms, rhs terms), each side a list of
# (scalar, polynomial) pairs whose sum is that side
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


def _ad_bad(c: _Ctx, i: int, j: int):
    lhs = c.ad_terms(i, c.bp(j, c.X)) + c.ad_terms(i, c.bp(j, c.Y))
    rhs = [
        (c.q(i - j) * c.w(2 * j), c.S(j, c.X)),
        (c.q(-j) * (c.q(i - j) - c.q(j - i)), c.mul(c.bp(j, c.X), c.A)),
        (c.q(j - i) * c.w(2 * j), c.S(j, c.Y)),
        (c.q(j) * (c.q(i - j) - c.q(j - i)), c.mul(c.A, c.bp(j, c.Y))),
    ]
    return lhs, rhs


def _ad_i_sj(c: _Ctx, i: int, j: int):
    lhs = c.ad_terms(i, c.S(j, c.X)) + c.ad_terms(i, c.S(j, c.Y))
    rhs = [
        (c.q(i + j) * c.w(2 * j + 1), c.bp(j + 1, c.X)),
        (-(c.q(i + j) * c.w(2 * j)), c.bp(j, c.X)),
        (c.q(j) * (c.q(i + j) - c.q(-i - j)), c.mul(c.S(j, c.X), c.A)),
        (c.q(-i - j) * c.w(2 * j + 1), c.bp(j + 1, c.Y)),
        (-(c.q(-i - j) * c.w(2 * j)), c.bp(j, c.Y)),
        (c.q(-j) * (c.q(i + j) - c.q(-i - j)), c.mul(c.A, c.S(j, c.Y))),
    ]
    return lhs, rhs


def _leibniz(c: _Ctx, h: int, i: int, j: int):
    lhs = c.ad_terms(h, c.X * c.Y)
    rhs = [
        (c.q(h - i), c.ad(i, c.X) * c.Y),
        (c.q(j - h), c.X * c.ad(j, c.Y)),
        (c.q(j - i) * (c.q(h - i - j) - c.q(i + j - h)), c.X * c.A * c.Y),
    ]
    return lhs, rhs


def _ada_bb(c: _Ctx, h: int, i: int, j: int):
    bx, by = c.bp(i, c.X), c.bp(j, c.Y)
    lhs = c.ad_terms(h, c.mul(bx, by))
    rhs = [
        (c.q(h - i) * c.w(2 * i), c.mul(c.S(i, c.X), by)),
        (c.q(j - h) * c.w(2 * j), c.mul(bx, c.S(j, c.Y))),
        (c.q(j - i) * (c.q(h - i - j) - c.q(i + j - h)), c.mul(bx, c.A, by)),
    ]
    return lhs, rhs


def _ada_ss(c: _Ctx, h: int, i: int, j: int):
    sx, sy = c.S(i, c.X), c.S(j, c.Y)
    lhs = c.ad_terms(h, c.mul(sx, sy))
    rhs = [
        (c.q(h + i) * c.w(2 * i + 1), c.mul(c.bp(i + 1, c.X), sy)),
        (-(c.q(h + i) * c.w(2 * i)), c.mul(c.bp(i, c.X), sy)),
        (c.q(-h - j) * c.w(2 * j + 1), c.mul(sx, c.bp(j + 1, c.Y))),
        (-(c.q(-h - j) * c.w(2 * j)), c.mul(sx, c.bp(j, c.Y))),
        (c.q(i - j) * (c.q(h + i + j) - c.q(-h - i - j)), c.mul(sx, c.A, sy)),
    ]
    return lhs, rhs


def _ada_sb(c: _Ctx, h: int, i: int, j: int):
    sx, by = c.S(i, c.X), c.bp(j, c.Y)
    lhs = c.ad_terms(h, c.mul(sx, by))
    rhs = [
        (c.q(h + i) * c.w(2 * i + 1), c.mul(c.bp(i + 1, c.X), by)),
        (-(c.q(h + i) * c.w(2 * i)), c.mul(c.bp(i, c.X), by)),
        (c.q(j - h) * c.w(2 * j), c.mul(sx, c.S(j, c.Y))),
        (c.q(i + j) * (c.q(h + i - j) - c.q(j - h - i)), c.mul(sx, c.A, by)),
    ]
    return lhs, rhs


def _ada_bs(c: _Ctx, h: int, i: int, j: int):
    bx, sy = c.bp(i, c.X), c.S(j, c.Y)
    lhs = c.ad_terms(h, c.mul(bx, sy))
    rhs = [
        (c.q(-h - j) * c.w(2 * j + 1), c.mul(bx, c.bp(j + 1, c.Y))),
        (-(c.q(-h - j) * c.w(2 * j)), c.mul(bx, c.bp(j, c.Y))),
        (c.q(h - i) * c.w(2 * i), c.mul(c.S(i, c.X), sy)),
        (c.q(-i - j) * (c.q(h - i + j) - c.q(i - h - j)), c.mul(bx, c.A, sy)),
    ]
    return lhs, rhs


def _txy_s(c: _Ctx, n: int):
    xy = c.X * c.Y
    lhs = [(1, c.S(i, xy)) for i in range(n + 1)]
    rhs = [(1, c.S(r, c.X) * c.S(s, c.Y)) for r in range(n + 1) for s in range(n + 1 - r)]
    for r in range(n):
        s = n - 1 - r
        rhs.append((c.q(r - s), c.bp(r + 1, c.X) * c.bp(s + 1, c.Y)))
    return lhs, rhs


def _txy_b(c: _Ctx, n: int):
    lhs = [(1, c.bp(n + 1, c.X * c.Y))]
    rhs = []
    for r in range(n + 1):
        s = n - r
        rhs.append((c.q(-r), c.S(r, c.X) * c.bp(s + 1, c.Y)))
        rhs.append((c.q(s), c.bp(r + 1, c.X) * c.S(s, c.Y)))
    for r in range(n):
        s = n - 1 - r
        rhs.append((-1, c.bp(r + 1, c.X) * c.A * c.bp(s + 1, c.Y)))
    return lhs, rhs


def _primever_s(c: _Ctx, n: int):
    xy = c.X * c.Y
    lhs = [(1, c.Sp(i, xy)) for i in range(n + 1)]
    rhs = [(1, c.Sp(r, c.X) * c.Sp(s, c.Y)) for r in range(n + 1) for s in range(n + 1 - r)]
    for r in range(n):
        s = n - 1 - r
        rhs.append((c.q(s - r), c.bp(r + 1, c.X) * c.bp(s + 1, c.Y)))
    return lhs, rhs


def _primever_b(c: _Ctx, n: int):
    lhs = [(1, c.bp(n + 1, c.X * c.Y))]
    rhs = []
    for r in range(n + 1):
        s = n - r
        rhs.append((c.q(r), c.Sp(r, c.X) * c.bp(s + 1, c.Y)))
        rhs.append((c.q(-s), c.bp(r + 1, c.X) * c.Sp(s, c.Y)))
    for r in range(n):
        s = n - 1 - r
        rhs.append((1, c.bp(r + 1, c.X) * c.A * c.bp(s + 1, c.Y)))
    return lhs, rhs


def _badprod_1(c: _Ctx, n: int):
    lhs = [(1, c.bp(n + 1, c.X * c.Y))]
    rhs = []
    for r in range(n + 1):
        s = n - r
        rhs.append((c.q(-r), c.S(r, c.X) * c.bp(s + 1, c.Y)))
        rhs.append((c.q(-s), c.bp(r + 1, c.X) * c.Sp(s, c.Y)))
    return lhs, rhs


def _badprod_2(c: _Ctx, n: int):
    lhs = [(1, c.bp(n + 1, c.X * c.Y))]
    rhs = []
    for r in range(n + 1):
        s = n - r
        rhs.append((c.q(r), c.Sp(r, c.X) * c.bp(s + 1, c.Y)))
        rhs.append((c.q(s), c.bp(r + 1, c.X) * c.S(s, c.Y)))
    return lhs, rhs


def _sp1(c: _Ctx, i: int):
    lhs = [(c.q(-i), c.S(i, c.X)), (-c.q(i), c.Sp(i, c.X))]
    rhs = [(1, c.bp(i, c.X) * c.A)]
    return lhs, rhs


def _sp2(c: _Ctx, i: int):
    lhs = [(c.q(i), c.S(i, c.Y)), (-c.q(-i), c.Sp(i, c.Y))]
    rhs = [(1, c.A * c.bp(i, c.Y))]
    return lhs, rhs


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
        IdentitySpec("AD_BAD", (("i", INT), ("j", POS)), _ad_bad),
        IdentitySpec("AD_I_SJ", (("i", INT), ("j", NAT)), _ad_i_sj),
        IdentitySpec("LEIBNIZ", (("h", INT), ("i", INT), ("j", INT)), _leibniz),
        IdentitySpec("ADA_BB", (("h", INT), ("i", POS), ("j", POS)), _ada_bb),
        IdentitySpec("ADA_SS", (("h", INT), ("i", NAT), ("j", NAT)), _ada_ss),
        IdentitySpec("ADA_SB", (("h", INT), ("i", NAT), ("j", POS)), _ada_sb),
        IdentitySpec("ADA_BS", (("h", INT), ("i", POS), ("j", NAT)), _ada_bs),
        IdentitySpec("TXY_S", (("n", NAT),), _txy_s),
        IdentitySpec("TXY_B", (("n", NAT),), _txy_b),
        IdentitySpec("PRIMEVER_S", (("n", NAT),), _primever_s),
        IdentitySpec("PRIMEVER_B", (("n", NAT),), _primever_b),
        IdentitySpec("BADPROD_1", (("n", NAT),), _badprod_1),
        IdentitySpec("BADPROD_2", (("n", NAT),), _badprod_2),
        IdentitySpec("SP1", (("i", POS),), _sp1),
        IdentitySpec("SP2", (("i", POS),), _sp2),
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
    """Cartesian sweep: pos in 1..m, nat in 0..m, int in -(m-1)..m."""
    import itertools

    domains = []
    for _, ptype in spec.params:
        if ptype == POS:
            domains.append(range(1, max_index + 1))
        elif ptype == NAT:
            domains.append(range(0, max_index + 1))
        else:
            domains.append(range(-(max_index - 1), max_index + 1))
    for combo in itertools.product(*domains):
        if spec.name == "XA_AY" and combo[0] == combo[1]:
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
