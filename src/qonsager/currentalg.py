"""The infinitely presented current algebra, instantiated up to a cutoff.

Generators W(n) for n in -K..K+1 (W(0) and W(1) play the roles of the two
presentation generators), G(k+1) and Gt(k+1) for k in 0..K, with
rho = -(q^2 - q^-2)^2.  The relations are uniform in their indices, so every
claim is checked per instantiated index.  Six relation families are
instantiated, the ones something reads:

  3p1a  [W(0), W(k+1)] = (Gt(k+1) - G(k+1)) / (q + q^-1)
  3p1b  [W(-k), W(1)]  = (Gt(k+1) - G(k+1)) / (q + q^-1)
  3p2a  [W(0), G(k+1)]_q  = rho W(-k-1) - rho W(k+1)
  3p2b  [Gt(k+1), W(0)]_q = rho W(-k-1) - rho W(k+1)
  3p4a  [W(-k), W(-l)] = 0 for k < l
  3p4b  [W(k+1), W(l+1)] = 0 for k < l

Each relation instance is oriented once, when the context is built; a
subsystem selects the rules of the named families, the first rule per left
side in relation order, and is built once per set of families and kept on
the context.  The rewrite system behind the class and image checks selects
all six; the proof chains cite 3p1a, 3p2a, 3p2b and 3p4a, replayed each in
the subsystem of its cited families, so a context builds six systems.  The
1/(q + q^-1) of 3p1a/3p1b is a cyclotomic denominator, so every symbolic
reduction here runs on packed integers (rewrite).  A class check reduces
one element, the bracket difference, and derives the balanced product from
it by an exact free-algebra identity.  Orientation pushes
W(0) to the right past W(k+1), W(-k) and G(k+1); the tilde family brackets
W(0) from the other side, so that rule is oriented by giving the tilde
generators precedence over W(0).  Zero normal forms are sound regardless of
completeness.
"""

from __future__ import annotations

from .adjoint import FORWARD, INVERSE, apply_badprod, closed_form_sum, truncated_sum
from .errors import IndexOutOfRange, InvalidCutoff
from .freealg import Alphabet, NcPoly
from .qcoeff import SYMBOLIC
from .report import CheckRecord, FAIL, PASS
from .rewrite import MonomialOrder, RewriteSystem, orient


def _w(n: int) -> str:
    return f"W{n}"


def _g(k: int) -> str:
    return f"G{k}"


def _gt(k: int) -> str:
    return f"Gt{k}"


class AqContext:
    """Instantiated presentation with oriented fragment and relation store."""

    def __init__(self, K: int, mode=SYMBOLIC):
        if K < 1:
            raise InvalidCutoff("cutoff must be at least 1")
        self.K = K
        self.mode = mode
        self.rho = -(mode.qnum(2) * mode.qnum(2))
        names = (
            [_gt(k + 1) for k in range(K + 1)]
            + [_w(0)]
            + [_g(k + 1) for k in range(K + 1)]
            + [_w(n) for n in range(1, K + 2)]
            + [_w(-n) for n in range(1, K + 1)]
        )
        self.alphabet = Alphabet(names)
        # each generator is built once, so its integer form is made once
        self._gens = {name: NcPoly.generator(self.alphabet, name, mode) for name in names}
        self.order = MonomialOrder(self.alphabet)
        self.relations: list[tuple[str, tuple[int, ...], NcPoly]] = []
        self._build_relations()
        self.rules = [(rid, orient(p, p.leading_word())) for rid, _, p in self.relations]
        self._subsystems: dict = {}
        self.system = self.subsystem("3p1a", "3p1b", "3p2a", "3p2b", "3p4a", "3p4b")

    # -- generators ----------------------------------------------------------

    def W(self, n: int) -> NcPoly:
        if not -self.K <= n <= self.K + 1:
            raise IndexOutOfRange(f"W({n}) not instantiated at cutoff {self.K}")
        return self._gens[_w(n)]

    def G(self, k: int) -> NcPoly:
        if not 1 <= k <= self.K + 1:
            raise IndexOutOfRange(f"G({k}) not instantiated at cutoff {self.K}")
        return self._gens[_g(k)]

    def Gt(self, k: int) -> NcPoly:
        if not 1 <= k <= self.K + 1:
            raise IndexOutOfRange(f"Gt({k}) not instantiated at cutoff {self.K}")
        return self._gens[_gt(k)]

    # -- brackets -------------------------------------------------------------

    def br(self, x: NcPoly, y: NcPoly) -> NcPoly:
        return x * y - y * x

    def qbr(self, x: NcPoly, y: NcPoly, sign: int = 1) -> NcPoly:
        q = self.mode.q_pow
        return q(sign) * (x * y) - q(-sign) * (y * x)

    # -- relation instances ----------------------------------------------------

    def _build_relations(self):
        K, rho = self.K, self.rho
        inv_p = self.mode.one() / (self.mode.q_pow(1) + self.mode.q_pow(-1))
        rel = self.relations.append
        for k in range(K + 1):
            gdiff = inv_p * (self.Gt(k + 1) - self.G(k + 1))
            rel(("3p1a", (k,), self.br(self.W(0), self.W(k + 1)) - gdiff))
            rel(("3p1b", (k,), self.br(self.W(-k), self.W(1)) - gdiff))
        for k in range(K):
            wdiff = rho * self.W(-k - 1) - rho * self.W(k + 1)
            rel(("3p2a", (k,), self.qbr(self.W(0), self.G(k + 1)) - wdiff))
            rel(("3p2b", (k,), self.qbr(self.Gt(k + 1), self.W(0)) - wdiff))
        for k in range(K + 1):
            for l in range(k + 1, K + 1):
                rel(("3p4a", (k, l), self.br(self.W(-k), self.W(-l))))
                rel(("3p4b", (k, l), self.br(self.W(k + 1), self.W(l + 1))))

    def subsystem(self, *ids: str) -> RewriteSystem:
        """Rewrite system of the named families' rules, the first per left
        side; built once per set of families and kept on the context."""
        key = frozenset(ids)
        system = self._subsystems.get(key)
        if system is None:
            rules = {}
            for rid, rule in self.rules:
                if rid in key:
                    rules.setdefault(rule.lhs, rule)
            system = self._subsystems[key] = RewriteSystem(self.alphabet, self.order,
                                                            list(rules.values()))
        return system


def aq_system(K: int, mode=SYMBOLIC) -> AqContext:
    return AqContext(K, mode)


GENERATOR_CLASSES = ("Wminus", "Wplus", "G", "Gt")


def verify_generator_class(ctx: AqContext, gen: str, k: int) -> CheckRecord:
    """Class membership of one generator family at index k.

    W(-k) must visibly commute with W(0).  The others are shown to satisfy
    the degree-1 membership in two equivalent ways: the nested-bracket
    identity against rho times the commutator reduces to zero, and the
    order-2 balanced product bp2 follows from it, since w(1) w(2) w(3) bp2
    equals the bracket difference exactly in the free algebra (w(n) = q^n -
    q^-n, nonzero), which one == checks.  So a pass costs one normal form.
    When the bracket does not reduce to zero or the identity fails, bp2 is
    reduced as well, and the witness is the sum of both residues.
    """
    if gen not in GENERATOR_CLASSES:
        raise ValueError(f"unknown generator class {gen!r}")
    name = f"class-{gen}-k{k}"
    if gen == "Wminus":
        if not 0 <= k <= ctx.K:
            raise IndexOutOfRange(f"W(-{k}) not instantiated")
        res = ctx.system.is_zero_mod(ctx.br(ctx.W(0), ctx.W(-k)))
        return CheckRecord(
            name=name, params=(k,), status=PASS if res.is_zero else FAIL,
            anchor="generator-class", witness=None if res.is_zero else res.residue,
        )
    if not 0 <= k <= ctx.K - 1:
        raise IndexOutOfRange(f"index k={k} needs k+1 arithmetic inside the cutoff")
    X = {"Wplus": ctx.W(k + 1), "G": ctx.G(k + 1), "Gt": ctx.Gt(k + 1)}[gen]
    W0 = ctx.W(0)
    nested = ctx.br(W0, ctx.qbr(W0, ctx.qbr(W0, X, 1), -1))
    diff = nested - ctx.rho * ctx.br(W0, X)
    bracket_diff = ctx.system.is_zero_mod(diff)
    bp2 = apply_badprod(2, W0, X, ctx.mode)
    w = ctx.mode.qnum
    scale = w(1) * w(2) * w(3)
    ok = bracket_diff.is_zero and bool(scale) and scale * bp2 == diff
    if not ok:
        balanced = ctx.system.is_zero_mod(bp2)
        ok = bracket_diff.is_zero and balanced.is_zero
    return CheckRecord(
        name=name, params=(k,), status=PASS if ok else FAIL,
        anchor="generator-class",
        detail="bracket identity + order-2 balanced product",
        witness=None if ok else (bracket_diff.residue + balanced.residue),
    )


def closed_image(ctx: AqContext, X: NcPoly, direction: str = FORWARD) -> NcPoly:
    """Degree-1 closed form of the automorphism image, as a free element."""
    return closed_form_sum(ctx.W(0), X, direction, ctx.mode)


def verify_S_images(ctx: AqContext, k: int) -> CheckRecord:
    """Automorphism images of the index-k generators.

    (i) the image of G(k+1) reduces to Gt(k+1); (ii) the inverse image of
    Gt(k+1) reduces to G(k+1); (iii) W(-k) is fixed: its order-1 balanced
    product reduces to zero, so every shift map past order 0 kills it; (iv)
    the truncated sum on W(k+1) equals the degree-1 closed form verbatim in
    the free algebra.
    """
    if not 0 <= k <= ctx.K - 1:
        raise IndexOutOfRange(f"index k={k} needs k+1 arithmetic inside the cutoff")
    W0 = ctx.W(0)
    failures = []
    img_g = closed_image(ctx, ctx.G(k + 1), FORWARD)
    if not ctx.system.is_zero_mod(img_g - ctx.Gt(k + 1)).is_zero:
        failures.append("image-of-G")
    img_gt = closed_image(ctx, ctx.Gt(k + 1), INVERSE)
    if not ctx.system.is_zero_mod(img_gt - ctx.G(k + 1)).is_zero:
        failures.append("inverse-image-of-Gt")
    if not ctx.system.is_zero_mod(apply_badprod(1, W0, ctx.W(-k), ctx.mode)).is_zero:
        failures.append("fixed-Wminus")
    via_sum = truncated_sum(W0, ctx.W(k + 1), 1, FORWARD, ctx.mode)
    if via_sum != closed_image(ctx, ctx.W(k + 1), FORWARD):
        failures.append("closed-form-of-Wplus")
    return CheckRecord(
        name=f"automorphism-images-k{k}",
        params=(k,),
        status=FAIL if failures else PASS,
        anchor="automorphism-images",
        detail="; ".join(failures) if failures else "G -> Gt, Gt -> G, fixed W(-k), closed form",
    )


# ---------------------------------------------------------------------------
# proof replay: derivation chains behind the generator-class memberships
# ---------------------------------------------------------------------------

def proof_chain(ctx: AqContext, gen: str, k: int):
    """Displayed derivation lines with the relation families justifying each step.

    Returns a list of (expression, justification) where justification is
    None for the first line, "exact" for a pure free-algebra rearrangement,
    or a tuple of relation family ids whose instances carry the step.  Each
    chain starts at the triple bracket of the generator and ends at rho
    times its commutator with W(0), mirroring the membership derivations.
    """
    if not 0 <= k <= ctx.K - 1:
        raise IndexOutOfRange(f"index k={k} needs k+1 arithmetic inside the cutoff")
    W0 = ctx.W(0)
    m = ctx.mode
    inv_p = m.one() / (m.q_pow(1) + m.q_pow(-1))
    br, qbr, rho = ctx.br, ctx.qbr, ctx.rho
    G, Gt, Wp, Wm = ctx.G(k + 1), ctx.Gt(k + 1), ctx.W(k + 1), ctx.W(-k - 1)
    if gen == "Wplus":
        return [
            (qbr(W0, qbr(W0, br(W0, Wp), 1), -1), None),
            (inv_p * qbr(W0, qbr(W0, Gt - G, 1), -1), ("3p1a",)),
            (-inv_p * (qbr(W0, qbr(W0, G, 1), 1) + qbr(W0, qbr(W0, G, 1), -1)),
             ("3p2a", "3p2b")),
            (-br(W0, qbr(W0, G, 1)), "exact"),
            (rho * br(W0, Wp - Wm), ("3p2a",)),
            (rho * br(W0, Wp), ("3p4a",)),
        ]
    if gen == "G":
        return [
            (qbr(W0, qbr(W0, br(W0, G), 1), -1), None),
            (qbr(W0, br(W0, qbr(W0, G, 1)), -1), "exact"),
            (rho * qbr(W0, br(W0, Wm - Wp), -1), ("3p2a",)),
            (-rho * qbr(W0, br(W0, Wp), -1), ("3p4a",)),
            (rho * inv_p * qbr(W0, G - Gt, -1), ("3p1a",)),
            (rho * inv_p * qbr(Gt - G, W0, 1), "exact"),
            (rho * br(W0, G), ("3p2a", "3p2b")),
        ]
    if gen == "Gt":
        return [
            (qbr(W0, qbr(W0, br(W0, Gt), 1), -1), None),
            (qbr(W0, br(W0, qbr(W0, Gt, -1)), 1), "exact"),
            (-qbr(W0, br(W0, qbr(Gt, W0, 1)), 1), "exact"),
            (-rho * qbr(W0, br(W0, Wm - Wp), 1), ("3p2b",)),
            (rho * qbr(W0, br(W0, Wp), 1), ("3p4a",)),
            (rho * inv_p * qbr(W0, Gt - G, 1), ("3p1a",)),
            (rho * br(W0, Gt), ("3p2a", "3p2b")),
        ]
    raise ValueError(f"no replayable chain for generator class {gen!r}")


def replay_proof(ctx: AqContext, gen: str, k: int) -> CheckRecord:
    """Check that each derivation step follows from its cited relations alone."""
    chain = proof_chain(ctx, gen, k)
    failures = []
    for idx in range(1, len(chain)):
        expr_prev = chain[idx - 1][0]
        expr_next, justification = chain[idx]
        diff = expr_prev - expr_next
        if justification == "exact":
            if not diff.is_zero:
                failures.append(f"step-{idx}-not-exact")
            continue
        sub = ctx.subsystem(*justification)
        if not sub.is_zero_mod(diff).is_zero:
            failures.append(f"step-{idx}-not-a-consequence-of-{','.join(justification)}")
    return CheckRecord(
        name=f"proof-replay-{gen}-k{k}",
        params=(k,),
        status=FAIL if failures else PASS,
        anchor="proof-replay",
        detail="; ".join(failures) if failures else f"{len(chain) - 1} steps",
    )
