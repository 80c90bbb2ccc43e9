"""The two-generator presented algebra and its Lusztig automorphism.

The context bundles the presentation on generators A, B (two degree-4
relations coupling them through the parameter (q^2 - q^-2)^2), and the
oriented rewrite system obtained by solving each relation for its leading
monomial.  Construction verifies the truncation bounds of the generators: A
commutes with itself (bound 0) and the order-2 balanced product kills B
modulo the relations (bound 1).

The automorphism and its inverse are computed on free-algebra
representatives by truncating the shift-map sum at the bound of the element
(bounds add over products); overshooting the minimal bound is harmless
because higher shift maps vanish there.  `image` is that sum unreduced and
`lusztig` its normal form.  A claim that an element lies in the defining
ideal is settled by reducing the element itself: homcheck reduces the
multiplicativity and inverse-composition defects, formed from unreduced
images, and higher-dg its balanced product.  A zero normal form is
conclusive; a nonzero one is re-checked in exact matrix models, where a
nonzero image refutes membership conclusively.
"""

from __future__ import annotations

from . import identities
from .adjoint import FORWARD, INVERSE, apply_badprod, truncated_sum
from .freealg import Alphabet, NcPoly, Word
from .qcoeff import SYMBOLIC
from .report import CheckRecord, FAIL, PASS
from .rewrite import MonomialOrder, make_system


class OnsagerContext:
    """Presentation and rewrite system over {A, B}."""

    def __init__(self, mode=SYMBOLIC):
        self.mode = mode
        self.alphabet = Alphabet(["A", "B"])
        self.A = NcPoly.generator(self.alphabet, "A", mode)
        self.B = NcPoly.generator(self.alphabet, "B", mode)
        self.relations = defining_relations(self.alphabet, mode)
        self.qdg = make_system(
            self.alphabet,
            MonomialOrder(self.alphabet),
            self.relations,
            [self.alphabet.word("AAAB"), self.alphabet.word("ABBB")],
        )
        # bound 0 for A: the order-1 balanced product kills A outright
        if not apply_badprod(1, self.A, self.A, mode).is_zero:
            raise AssertionError("generator A must commute with itself")
        # bound 1 for B: the order-2 balanced product reduces to zero
        if not self.qdg.is_zero_mod(apply_badprod(2, self.A, self.B, mode)).is_zero:
            raise AssertionError("order-2 balanced product must kill B")
        self._models = None

    # -- truncation bounds -----------------------------------------------------

    def standard_bound(self, x: Word | NcPoly) -> int:
        """Truncation bound of a word or polynomial.

        The balanced product of order bound + 1 kills the element.  Bounds
        add over products, so a word's bound is its number of B letters; a
        polynomial's is the maximum over its support.  This may overshoot
        the minimal bound, which only adds vanishing summands.
        """
        b = self.alphabet.index["B"]
        words = x.support() if isinstance(x, NcPoly) else [x]
        return max((w.count(b) for w in words), default=0)

    # -- matrix models --------------------------------------------------------

    def matrix_models(self):
        """Exact matrix realizations of the presentation, largest last."""
        if self._models is None:
            from . import repn

            models = []
            if self.mode.is_symbolic:
                pairs = [("3", "2", "2"), ("5/2", "3", "3/2")]
            else:
                pairs = [("3", "2", str(self.mode.q0)), ("5/2", "3", str(self.mode.q0))]
            for a, b, q0 in pairs:
                tp = repn.td_pair_d1(a, b, q0)
                models.append(("d1", tp))
            found = repn.search_td_pair(3, "3", "5", pairs[0][2])
            if found is not None:
                models.append(("d3", found))
            self._models = models
        return self._models

    def confirm_in_models(self, residue: NcPoly) -> tuple[bool, str]:
        """Evaluate a residue in all matrix models.

        Returns (confirmed, detail): confirmed means every model maps the
        residue to the zero matrix; a nonzero image is a conclusive
        refutation for elements claimed to lie in the defining ideal.
        """
        from . import repn

        labels = []
        for label, tp in self.matrix_models():
            if self.mode.is_symbolic:
                numeric = residue.map_coeffs(lambda c: c.eval_at(tp.q0))
            else:
                numeric = residue
            value = numeric.evaluate(
                {"A": tp.A, "B": tp.B}, repn.ExactMatrix.identity(tp.A.dimension)
            )
            if not value.is_zero():
                return False, f"nonzero image in model {label}"
            labels.append(label)
        return True, "confirmed in models " + ",".join(labels)


def defining_relations(alphabet: Alphabet, mode=SYMBOLIC) -> list[NcPoly]:
    """The two degree-4 relations, as left side minus right side.

    x^3 y - [3]_q x^2 y x + [3]_q x y x^2 - y x^3 - (q^2 - q^-2)^2 (y x - x y)
    for (x, y) = (A, B) and (B, A), written as a coefficient table.
    """
    one, th = mode.one(), mode.qint(3)
    rho = mode.qnum(2) * mode.qnum(2)

    def relation(x: int, y: int) -> NcPoly:
        return NcPoly(alphabet, {(x, x, x, y): one, (x, x, y, x): -th, (x, y, x, x): th,
                                 (y, x, x, x): -one, (y, x): -rho, (x, y): rho})

    a, b = alphabet.index["A"], alphabet.index["B"]
    return [relation(a, b), relation(b, a)]


def onsager_context(mode=SYMBOLIC) -> OnsagerContext:
    return OnsagerContext(mode)


def image(ctx: OnsagerContext, X: NcPoly, direction: str = FORWARD) -> NcPoly:
    """Image of X under the automorphism (or its inverse), unreduced.

    The shift-map sum truncated at the standard bound of X: a free-algebra
    representative of the image in the presented algebra.
    """
    return truncated_sum(ctx.A, X, ctx.standard_bound(X), direction, ctx.mode)


def lusztig(ctx: OnsagerContext, X: NcPoly, direction: str = FORWARD) -> NcPoly:
    """The image of X as a normal form, with no canonicity claim."""
    return ctx.qdg.normal_form(image(ctx, X, direction))


def _pow(ctx: OnsagerContext, X: NcPoly, n: int) -> NcPoly:
    out = NcPoly.one(ctx.alphabet, ctx.mode)
    for _ in range(n):
        out = out * X
    return out


def _settle(ctx: OnsagerContext, value: NcPoly, reduced: str) -> tuple[str, str, NcPoly | None]:
    """Status, detail and witness of the claim that value lies in the ideal.

    A zero normal form passes with detail `reduced`; a residue passes when
    every matrix model kills it and fails otherwise, with the residue as
    witness.
    """
    res = ctx.qdg.is_zero_mod(value)
    if res.is_zero:
        return PASS, reduced, None
    confirmed, detail = ctx.confirm_in_models(res.residue)
    return (PASS, detail, None) if confirmed else (FAIL, detail, res.residue)


def higher_dg_check(ctx: OnsagerContext, r: int, method: str = "rewrite") -> CheckRecord:
    """Order r + 1 balanced product kills the r-th power of B.

    In rewrite mode the element is expanded and reduced directly.  Certified
    mode re-derives the vanishing level by level: level j is the catalogue
    identity TXY_B at n = j, X = B, Y = B^{j-1} (the product expansion of
    the balanced product), checked exactly in the free algebra.  Every term
    of its right side carries, by construction, the base bp_2 B (reduced to
    zero once) or the previous level bp_j B^{j-1} as a factor:
    bp_k = bad_{k-1} o bp_{k-1}, and a shift map applies its twist
    primitive after its balanced product.
    """
    if r < 1:
        raise ValueError("order must be a positive integer")
    name = f"higher-dg-r{r}"
    if method == "rewrite":
        value = apply_badprod(r + 1, ctx.A, _pow(ctx, ctx.B, r), ctx.mode)
        status, detail, witness = _settle(ctx, value, "reduced to zero")
        return CheckRecord(name=name, params=(r,), status=status, anchor="higher-dg",
                           detail=detail, witness=witness)
    if method != "certified":
        raise ValueError(f"unknown method {method!r}")
    B = ctx.B
    c = identities._Ctx(ctx.mode, ctx.A, B, B)  # the levels share its images
    if not ctx.qdg.is_zero_mod(c.bp(2, B)).is_zero:
        return CheckRecord(name=name, params=(r,), status=FAIL, anchor="higher-dg",
                           detail="base vanishing for B failed")
    evidence = ["base: order-2 balanced product of B reduces to zero"]
    ok = True
    for j in range(2, r + 1):
        c.Y = _pow(ctx, B, j - 1)
        if not identities.IDENTITIES["TXY_B"].difference(c, j).is_zero:
            evidence.append(f"level {j}: product expansion failed")
            ok = False
            break
        evidence.append(f"level {j}: product expansion holds exactly")
        evidence.append(f"level {j}: all terms carry a certified-zero factor")
    return CheckRecord(
        name=name,
        params=(r,),
        status=PASS if ok else FAIL,
        anchor="higher-dg",
        detail="; ".join(evidence),
    )


def homomorphism_spotcheck(ctx: OnsagerContext, w1: Word, w2: Word) -> CheckRecord:
    """Multiplicativity and inverse-composition claims on a pair of words.

    With T the image function, X = w1 and Y = w2, the claims are that
    E_mult = T(XY) - T(X) T(Y) and E_inv = T^-(T(X)) - X lie in the
    ideal I, each reduced once with T(X) unreduced.  A normal form differs
    from its input by an element of I, and I is two-sided, so E_mult is
    congruent modulo I to the difference of the normal forms of the two
    sides: reducing it is the same claim, and sound in the same way.  The
    shift maps add only letters A, so every word of T(X) has as many
    letters B as X, and T^- is truncated at the bound of X.  A residue
    that the rules leave goes to _settle.
    """
    one = ctx.mode.one()
    X = NcPoly.monomial(ctx.alphabet, w1, one)
    Y = NcPoly.monomial(ctx.alphabet, w2, one)
    TX = image(ctx, X)
    claims = (("multiplicative", image(ctx, X * Y) - TX * image(ctx, Y)),
              ("inverse-composition", image(ctx, TX, INVERSE) - X))
    settled = [(label, *_settle(ctx, value, "rewrite")) for label, value in claims]
    witnesses = [w for _, status, _, w in settled if status == FAIL]

    spell = ctx.alphabet.spell
    return CheckRecord(
        name="homomorphism",
        params=("".join(spell(w1)), "".join(spell(w2))),
        status=FAIL if witnesses else PASS,
        anchor="automorphism",
        detail="; ".join(f"{label}: {detail}" for label, _, detail, _ in settled),
        witness=witnesses[0] if witnesses else None,
    )
