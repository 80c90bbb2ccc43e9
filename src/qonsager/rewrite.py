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

Every rule set is reduced on packed integers, in both modes.  The input's
integer form (qcoeff.lifted_form) holds integer numerators over one
denominator, a triple (Phi_d multiset, rest, D), a numeric form being read
as constants (qcoeff.symbolic_form); so does each rule's right side, and
the rules' triples meet at their qcoeff.common_denominator Delta, Phi_4
for the current algebra's 3p1a/3p1b, which divide by q + q^-1 = q^-1
Phi_4.  Each pending word holds k, the power of Delta in its denominator,
an exponent offset, its numerator packed at xi = 2^w as one big integer,
and a bound on its coefficients.  A rewrite multiplies the numerator by
the rule coefficient, a q-number with few nonzero entries that is packed
once per rule and width as shifts and kept on the rule, and adds it into
the target word with a shift; a rule with a denominator has its
coefficients lifted to Delta and sends its targets to k + 1, and two
contributions at different k meet by multiplying the lower one by
Delta^j.  The zero test n = 0 and the unpacking are exact while every
digit stays in the balanced range, so the bounds are tracked (h(c r) <=
h(c) |r|_1, h(a + b) <= h(a) + h(b)); a word whose bound nears 2^(w-1)
has its exact height read from its digits, and a symbolic pass whose
bound reaches 2^(w-1), also in lifting the irreducible words to the
largest k, runs again wider; w is a multiple of 64.  Constants reduce in
one pass: a numeric value is one digit at shift 0, its packed int the
numerator itself, exact at any width.  The result is lazy (freealg): the
irreducible nonzero words and their lifted form, no coefficient built
until one is read; it is numeric when the input and every rule are.

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
from math import inf

from .errors import AlphabetMismatch, NotLeadingMonomial, OrderViolation
from .freealg import Alphabet, NcPoly, Word, _lazy, deglex_key
from .qcoeff import (
    RationalFunctionQ, _convolve, _digits, _merge, _phi_product, _times, common_denominator,
    form_vectors, is_symbolic, pack, symbolic_form, unpack, unpacked_form,
)

# the denominator (Phi_d multiset, rest, D) of an integral Laurent polynomial
_INTEGRAL = ((), (1,), 1)


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
    # the denominator (Phi_d multiset, rest, D) of the right side's form,
    # numeric coefficients read as constants
    den: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "den", tuple(symbolic_form(self.rhs._integer_form())[:3]))

    def packed(self, w: int, delta: tuple):
        """The right side grouped by coefficient up to sign and power of q,
        over delta (Phi_d multiset, rest, D), a multiple of the rule's own
        denominator: the system's Delta, or the rule's own for an integral
        rule, whose coefficients stay over the power of Delta they meet.

        A coefficient is q^offset times its integer vector in the right
        side's form over the rule's denominator; the vector is lifted to
        delta by k times the cofactor of qcoeff.common_denominator, a signed
        product (_convolve: a vector may lead with a negative entry).  Per
        lifted vector up to sign: its nonzero entries as (shift by w * i,
        entry) pairs, which multiply a number packed at xi = 2^w by shifts
        and small products (a q-number has few nonzero entries); its l1
        norm; and (word, offset, negated) per term, so one product serves
        the whole group.
        """
        form = symbolic_form(self.rhs._integer_form())
        (cofactor, k), _ = common_denominator((self.den, delta))[1]
        lift = tuple([k * x for x in cofactor])
        groups: dict = {}
        for u, offset, vec in zip(self.rhs.support(), form[3], form_vectors(form)):
            if lift != (1,):
                vec = tuple(_convolve(vec, lift))
            negated = vec[-1] < 0
            key = tuple([-x for x in vec]) if negated else vec
            groups.setdefault(key, []).append((u, offset, negated))
        return [(tuple((w * i, x) for i, x in enumerate(key) if x), sum(map(abs, key)), targets)
                for key, targets in groups.items()]

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
        # Delta, the lcm of the rules' denominators (Phi_d multiset, rest, D)
        self._delta = common_denominator(tuple(rule.den for rule in self.rules))[0]
        # a numeric input reduces to a numeric form when every rule's is one
        self._numeric = all(not is_symbolic(rule.rhs._integer_form()) for rule in self.rules)
        self._powers: dict = {}
        # per width: per rule, len(lhs), the power of Delta it adds and its
        # right side packed (RewriteRule.packed)
        self._tables: dict = {}
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

        Every rule set and both modes take the one reduction on packed
        integers (_reduce_packed), over p's one denominator times a power of
        Delta, the lcm of the rules' denominators, numeric coefficients read
        as constants, at the narrowest multiple of 64 bits that holds every
        tracked bound.  The result is lazy, its words and their lifted form:
        numeric, over that integer, when p's form and every rule's are
        numeric, and symbolic otherwise.
        """
        if p.alphabet != self.alphabet:
            raise AlphabetMismatch("polynomial over a different alphabet")
        if not p:
            return p
        form = p._integer_form()
        numeric = self._numeric and not is_symbolic(form)
        form = symbolic_form(form)
        phi, rest, d, offsets, _, bound = form[:6]
        vectors = form_vectors(form)
        while True:
            digits = _digits(max(bound, 1 << 31))  # past 2^31 w is a multiple of 64
            out = self._reduce_packed(numeric, p.support(), offsets, vectors, digits)
            if type(out) is not int:
                break
            bound = max(out, 1 << (2 * digits[0] - 2))  # a word outgrew w: at least double it
        top, out = out
        if not out:
            return NcPoly.zero(self.alphabet)
        dphi, drest, dd = self._delta
        d *= dd ** top
        if numeric:  # constants, each packed value its own numerator
            return _lazy(self.alphabet, tuple(out), (d, tuple([n for _, n in out.values()])))
        if top:
            phi = _merge(phi, tuple([top * x for x in dphi]))
            for _ in range(top):
                rest = _times(rest, drest)
        items = ((word, e, n) for word, (e, n) in out.items())
        return _lazy(self.alphabet, *unpacked_form(items, phi, rest, d, digits))

    def _power(self, j: int, w: int):
        """(Delta^j at xi = 2^w, |Delta^j|_1), Delta the product polynomial
        D prod Phi_d^phi[d-1] rest of the system's denominator; exact at any
        w, digits or not."""
        out = self._powers.get((j, w))
        if out is None:
            phi, rest, d = self._delta
            base = [d * x for x in _times(_phi_product(phi), rest)]
            vec = (1,)
            for _ in range(j):
                vec = _convolve(vec, base)
            out = self._powers[j, w] = (sum(x << w * i for i, x in enumerate(vec)),
                                        sum(map(abs, vec)))
        return out

    def _reduce_packed(self, numeric, words, offsets, vectors, digits):
        """The heap reduction on numerators packed at xi = 2^w, w the width
        of the digit format digits (qcoeff.pack).

        A pending word holds (k, e, n, h): its value is q^e times the
        polynomial whose digits n has at xi, over the input's common
        denominator times Delta^k, Delta the lcm of the rules' denominators
        as one polynomial (_power), and h bounds its coefficients:
        h(c r) <= h(c) |r|_1 for a rule coefficient r and
        h(a + b) <= h(a) + h(b).  A rule with a denominator, its
        coefficients lifted to Delta, sends its targets to k + 1; two
        contributions at different k meet by multiplying the lower one by
        Delta^j, its bound by |Delta^j|_1.  While h < 2^(w-1) the digits are
        balanced and unique (Cauchy), so n = 0 is an exact zero test and
        unpack recovers the polynomial, through the same codec as every
        other packed sum.  The sums of bounds overshoot the coefficients by
        far (79 bits against 23 in the order-6 balanced product of B^5), so
        a reducible word whose bound is within 2^16 of the limit takes its
        exact height from its digits instead.  At the end every irreducible
        nonzero word is lifted to the largest k, top, under the same bound.
        Returns (top, {word: (e, n)}), or the bound of the first word that
        reaches 2^(w-1), which a numeric pass (the input and every rule
        numeric) never does: every offset is 0 and every rule part at shift
        0, so n is a constant's numerator, exact at any width.
        """
        w = digits[0]
        limit = inf if numeric else 1 << (w - 1)
        tight = inf if numeric else limit >> 16
        table = self._tables.get(w)
        if table is None:
            table = self._tables[w] = []
            for rule in self.rules:
                lift = rule.den != _INTEGRAL
                den = self._delta if lift else _INTEGRAL
                table.append((len(rule.lhs), lift, rule.packed(w, den)))
        pending = {word: (0, e, pack(vec, digits), max(map(abs, vec)))
                   for word, e, vec in zip(words, offsets, vectors)}
        heap = [(-len(word), word) for word in pending]
        heapq.heapify(heap)
        out = {}
        while heap:
            word = heapq.heappop(heap)[1]
            k, e, n, h = item = pending.pop(word)
            if h >= limit:
                return h
            if not n:
                continue
            m = self._find(word)
            if m is None:
                out[word] = item
                continue
            if h >= tight:  # the digits are exact while h < 2^(w-1): read the height
                h = max(map(abs, unpack(n, digits)))
            pos, ridx = m
            size, lift, groups = table[ridx]
            left, right = word[:pos], word[pos + size:]
            tk = k + lift  # a rule with a denominator: one more Delta
            for parts, l1, targets in groups:
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
                        pending[v] = (tk, te, t, hc)
                        heapq.heappush(heap, (-len(v), v))
                        continue
                    sk, se, sn, sh = s
                    th = hc
                    if sk != tk:  # the lower one times Delta^j
                        lift, norm = self._power(abs(sk - tk), w)
                        if sk < tk:
                            sn, sh = sn * lift, sh * norm
                        else:
                            t, th = t * lift, th * norm
                    if se < te:
                        t <<= w * (te - se)
                        te = se
                    elif se > te:
                        sn <<= w * (se - te)
                    pending[v] = (max(sk, tk), te, sn + t, sh + th)
        top = max((k for k, _, _, _ in out.values()), default=0)
        lifted = {}
        for word, (k, e, n, h) in out.items():
            if k < top:
                lift, norm = self._power(top - k, w)
                if h * norm >= limit:
                    h = max(map(abs, unpack(n, digits)))
                    if h * norm >= limit:
                        return h * norm
                n *= lift
            lifted[word] = (e, n)
        return top, lifted

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
    # reduced coefficients: no factor that cancels reaches den or Delta
    return RewriteRule(word, ((-1 / c) * rest).map_coeffs(
        lambda x: x.canonical() if type(x) is RationalFunctionQ else x))


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
