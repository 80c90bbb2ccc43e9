"""Oriented noncommutative rewriting and sound ideal-membership testing.

A rewrite system is a list of rules lhs -> rhs where lhs is a word, rhs a
polynomial all of whose monomials are strictly smaller than lhs in the
degree-lex order.  `orient` is the one place where a relation becomes a
rule: it solves the relation for its leading monomial, so c * (lhs - rhs)
is the relation, c the leading coefficient.  Reduction replaces the
leftmost occurrence of the first matching rule inside the order-maximal
reducible monomial and therefore terminates: each step strictly decreases
the monomial multiset in a well order.  The reducer works top-down on a heap
of pending words, largest first, and keeps no state between calls.

When every rule coefficient is an integral Laurent polynomial, as in the
q-Dolan/Grady system and the current algebra's families without the
1/(q + q^-1) of 3p1a/3p1b, a symbolic input is reduced over one
denominator: its integer form (qcoeff.lifted_form) holds integer
numerators over the lcm of its Phi_d multisets, the product of its rests
and one integer D, and each pending word holds an exponent offset, its
numerator packed at xi = 2^w as one big integer, and a bound on its
coefficients.  A rewrite multiplies the numerator by the rule coefficient,
a q-number with few nonzero entries that is packed once per rule and width
as shifts and kept on the rule, and adds it into the target word with a
shift.  The zero test n = 0 and the unpacking are exact while every digit
stays in the balanced range, so the bounds are tracked (h(c r) <= h(c)
|r|_1, h(a + b) <= h(a) + h(b)); a word whose bound nears 2^(w-1) has its
exact height read from its digits, and a pass whose bound reaches 2^(w-1)
runs again wider; w is a multiple of 64.  The result is lazy (freealg):
the irreducible nonzero words and their lifted form, no coefficient built
until one is read.  Numeric mode and a rule with a denominator go through
the per-coefficient loop instead.

A zero normal form proves membership in the two-sided ideal of the
relations: the reference reducer `normal_form_traced` records each step as
(c, left, rule index, right), and p - nf is the sum of
c * left * (lhs - rhs) * right, an explicit ideal combination.  A nonzero
normal form is inconclusive unless the system is known confluent, which is
never assumed here.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .errors import AlphabetMismatch, NotLeadingMonomial, OrderViolation
from .freealg import Alphabet, NcPoly, Word, _lazy, deglex_key
from .qcoeff import _digits, form_vectors, is_symbolic, pack, unpack, unpacked_form


class MonomialOrder:
    """Degree-lexicographic word order using alphabet precedence."""

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet

    def less(self, a: Word, b: Word) -> bool:
        return deglex_key(a) < deglex_key(b)


@dataclass(frozen=True)
class RewriteRule:
    lhs: Word
    rhs: NcPoly
    # whether every right-side coefficient is an integral Laurent polynomial,
    # read from the right side's integer form, and the right side packed per
    # digit width, shared by every system that holds the rule
    integral: bool = field(init=False, repr=False, compare=False)
    packs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        form = self.rhs._integer_form()  # symbolic over no Phi_d, rest 1 and D = 1
        object.__setattr__(self, "integral", not self.rhs or (
            is_symbolic(form) and form[:3] == [(), (1,), 1]))

    def packed(self, w: int):
        """The right side grouped by coefficient up to sign and power of q.

        An integral coefficient is q^offset times its integer vector in the
        right side's form.  Per vector up to sign: its nonzero entries as
        (shift by w * i, entry) pairs, which multiply a number packed at xi
        = 2^w by shifts and small products (a q-number has few nonzero
        entries); its l1 norm; and (word, offset, negated) per term, so one
        product serves the whole group.
        """
        out = self.packs.get(w)
        if out is None:
            groups: dict = {}
            if self.rhs:
                form = self.rhs._integer_form()
                for u, offset, vec in zip(self.rhs.support(), form[3], form_vectors(form)):
                    negated = vec[-1] < 0
                    key = tuple([-x for x in vec]) if negated else vec
                    groups.setdefault(key, []).append((u, offset, negated))
            out = self.packs[w] = [
                (tuple((w * i, x) for i, x in enumerate(key) if x), sum(map(abs, key)), targets)
                for key, targets in groups.items()
            ]
        return out

    def validate(self, order: MonomialOrder):
        if self.rhs.alphabet != order.alphabet:
            raise AlphabetMismatch("rule over a different alphabet")
        for w in self.rhs.support():
            if not order.less(w, self.lhs):
                raise OrderViolation(
                    f"rule monomial {w} not below left side {self.lhs}"
                )


class RewriteSystem:
    """Validated oriented rules over one alphabet and a top-down reducer."""

    def __init__(self, alphabet: Alphabet, order: MonomialOrder, rules: list[RewriteRule]):
        self.alphabet = alphabet
        self.order = order
        self.rules = list(rules)
        for rule in self.rules:
            rule.validate(order)
        self._integral = all(rule.integral for rule in self.rules)
        # per letter, in declared order, the rules whose left side can match
        # at a position holding it: (index, lhs, len(lhs))
        self._starts = [[(ridx, rule.lhs, len(rule.lhs)) for ridx, rule in enumerate(self.rules)
                         if rule.lhs[:1] in ((), (letter,))] for letter in range(len(alphabet))]

    # -- matching ----------------------------------------------------------

    def _find(self, w: Word):
        """Leftmost match; ties at a position go to the first declared rule."""
        n = len(w)
        starts = self._starts
        for pos, letter in enumerate(w):
            for ridx, lhs, L in starts[letter]:
                if pos + L <= n and w[pos : pos + L] == lhs:
                    return pos, ridx
        return None

    # -- reduction ---------------------------------------------------------

    def normal_form_word(self, w: Word) -> NcPoly:
        """Fully reduce a single word.

        Only tests and the benchmark's tracer reach it, no command, so it
        goes with the next change to the benchmark.
        """
        return self.normal_form(NcPoly.monomial(self.alphabet, w, 1))

    def normal_form(self, p: NcPoly) -> NcPoly:
        """Irreducible form of p under the fixed reduction strategy.

        Pending words are expanded largest first.  A rewrite only produces
        smaller words, so when a word is popped every contribution to its
        coefficient has been added up and it is expanded exactly once.

        When every rule coefficient is an integral Laurent polynomial and p
        has a symbolic integer form, rests included, the reduction runs over
        p's one denominator on packed integers (_reduce_packed) and the
        result is lazy, its words and their lifted form.  Otherwise each
        coefficient is multiplied and added as a scalar: in numeric mode and
        for a rule with a denominator.  The path is chosen by the rule set
        and the form of p alone.
        """
        if p.alphabet != self.alphabet:
            raise AlphabetMismatch("polynomial over a different alphabet")
        if self._integral:
            form = p._integer_form()
            if is_symbolic(form):
                return self._normal_form_packed(p, form)
        pending = dict(p.terms)
        # (-len(w), w) is smallest for the deg-lex largest word
        heap = [(-len(w), w) for w in pending]
        heapq.heapify(heap)
        out = {}
        while heap:
            w = heapq.heappop(heap)[1]
            c = pending.pop(w)
            if not c:
                continue
            m = self._find(w)
            if m is None:
                out[w] = c
                continue
            pos, ridx = m
            rule = self.rules[ridx]
            left, right = w[:pos], w[pos + len(rule.lhs):]
            for u, cu in rule.rhs.terms.items():
                v = left + u + right
                s = pending.get(v)
                if s is None:
                    pending[v] = c * cu
                    heapq.heappush(heap, (-len(v), v))
                else:
                    pending[v] = s + c * cu
        return NcPoly(self.alphabet, out)

    def _normal_form_packed(self, p: NcPoly, form) -> NcPoly:
        """normal_form over the lifted form of p, at the narrowest multiple
        of 64 bits that holds every tracked bound."""
        phi, rest, d, offsets, _, bound = form[:6]
        vectors = form_vectors(form)
        while True:
            digits = _digits(max(bound, 1 << 31))  # past 2^31 w is a multiple of 64
            out = self._reduce_packed(p.support(), offsets, vectors, digits)
            if type(out) is dict:
                break
            bound = max(out, 1 << (2 * digits[0] - 2))  # a word outgrew w: at least double it
        if not out:
            return NcPoly.zero(self.alphabet)
        items = ((word, e, n) for word, (e, n) in out.items())
        return _lazy(self.alphabet, *unpacked_form(items, phi, rest, d, digits))

    def _reduce_packed(self, words, offsets, vectors, digits):
        """The heap reduction on numerators packed at xi = 2^w, w the width
        of the digit format digits (qcoeff.pack).

        A pending word holds (e, n, h): its value is q^e times the
        polynomial whose digits n has at xi, over the input's common
        denominator, and h bounds its coefficients: h(c r) <= h(c) |r|_1
        for a rule coefficient r and h(a + b) <= h(a) + h(b).  While h <
        2^(w-1) the digits are balanced and unique (Cauchy), so n = 0 is an
        exact zero test and unpack recovers the polynomial, through the
        same codec as every other packed sum.  The sums of bounds overshoot
        the coefficients by far (79 bits against 23 in the order-6 balanced
        product of B^5), so a reducible word whose bound is within 2^16 of
        the limit takes its exact height from its digits instead.  Returns
        {word: (e, n)} for the irreducible nonzero words, or the bound of
        the first popped word that reaches 2^(w-1).
        """
        w = digits[0]
        limit = 1 << (w - 1)
        tight = limit >> 16
        pending = {word: (e, pack(vec, digits), max(map(abs, vec)))
                   for word, e, vec in zip(words, offsets, vectors)}
        heap = [(-len(word), word) for word in pending]
        heapq.heapify(heap)
        out = {}
        while heap:
            word = heapq.heappop(heap)[1]
            e, n, h = pending.pop(word)
            if h >= limit:
                return h
            if not n:
                continue
            m = self._find(word)
            if m is None:
                out[word] = (e, n)
                continue
            if h >= tight:  # the digits are exact while h < 2^(w-1): read the height
                h = max(map(abs, unpack(n, digits)))
            pos, ridx = m
            rule = self.rules[ridx]
            left, right = word[:pos], word[pos + len(rule.lhs):]
            for parts, l1, targets in rule.packed(w):
                nc = None
                for shift, x in parts:
                    t = (n if x == 1 else n * x) << shift
                    nc = t if nc is None else nc + t
                hc = h * l1
                for u, o, negated in targets:
                    v = left + u + right
                    t, te = (-nc if negated else nc), e + o
                    s = pending.get(v)
                    if s is None:
                        pending[v] = (te, t, hc)
                        heapq.heappush(heap, (-len(v), v))
                    else:
                        se, sn, sh = s
                        if se < te:
                            t <<= w * (te - se)
                            te = se
                        elif se > te:
                            sn <<= w * (se - te)
                        pending[v] = (te, sn + t, sh + hc)
        return out

    def normal_form_traced(self, p: NcPoly) -> tuple[NcPoly, list[tuple]]:
        """Reference reducer: one elementary rewrite per step.

        Each step rewrites the leftmost redex of the order-maximal reducible
        monomial, so the result coincides with normal_form.  Step
        (c, left, rule index, right) subtracts c * left * (lhs - rhs) * right,
        so p - nf is the sum of these terms over the steps.  It is the
        oracle the tests hold normal_form to and the reference of the
        module's soundness argument; no command reaches it.
        """
        if p.alphabet != self.alphabet:
            raise AlphabetMismatch("polynomial over a different alphabet")
        steps = []
        current = p
        while True:
            for w in sorted(current.support(), key=deglex_key, reverse=True):
                m = self._find(w)
                if m is not None:
                    break
            else:
                return current, steps
            pos, ridx = m
            rule = self.rules[ridx]
            c = current.terms[w]
            left, right = w[:pos], w[pos + len(rule.lhs):]
            steps.append((c, left, ridx, right))
            replacement = NcPoly.zero(self.alphabet)
            for u, cu in rule.rhs.terms.items():
                replacement = replacement + NcPoly.monomial(
                    self.alphabet, left + u + right, c * cu
                )
            current = current - NcPoly.monomial(self.alphabet, w, c) + replacement

    # -- zero testing --------------------------------------------------------

    def is_zero_mod(self, p: NcPoly) -> "ReductionResult":
        nf = self.normal_form(p)
        return ReductionResult(nf.is_zero, nf)


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of a zero test: conclusive Zero, or an inconclusive residue."""

    is_zero: bool
    residue: NcPoly

    def __repr__(self):
        return "Zero" if self.is_zero else f"NonzeroNormalForm({self.residue!r})"


def orient(relation: NcPoly, word: Word) -> RewriteRule:
    """Solve a relation for its orientation word.

    The word must occur in the relation with nonzero coefficient c and be
    its order-maximal monomial; the rule satisfies c * (lhs - rhs) = relation.
    """
    word = tuple(word)
    c = relation.terms.get(word)
    if c is None:
        raise NotLeadingMonomial(f"{word} does not occur in the relation")
    lead = relation.leading_word()
    if word != lead:
        raise NotLeadingMonomial(
            f"{word} is not the order-maximal monomial (expected {lead})"
        )
    rest = relation - NcPoly.monomial(relation.alphabet, word, c)
    return RewriteRule(word, (-1 / c) * rest)


def make_system(
    alphabet: Alphabet,
    order: MonomialOrder,
    relations: list[NcPoly],
    orientations: list[Word],
) -> RewriteSystem:
    """Orient each relation by its word and validate the system."""
    if len(relations) != len(orientations):
        raise ValueError("one orientation word per relation required")
    rules = [orient(rel, word) for rel, word in zip(relations, orientations)]
    return RewriteSystem(alphabet, order, rules)
