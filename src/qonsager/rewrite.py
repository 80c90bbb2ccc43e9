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

A zero normal form proves membership in the two-sided ideal of the
relations: the reference reducer `normal_form_traced` records each step as
(c, left, rule index, right), and p - nf is the sum of
c * left * (lhs - rhs) * right, an explicit ideal combination.  A nonzero
normal form is inconclusive unless the system is known confluent, which is
never assumed here.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import AlphabetMismatch, NotLeadingMonomial, OrderViolation
from .freealg import Alphabet, NcPoly, Word, deglex_key


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

    # -- matching ----------------------------------------------------------

    def _find(self, w: Word):
        """Leftmost match; ties at a position go to the first declared rule."""
        n = len(w)
        for pos in range(n):
            for ridx, rule in enumerate(self.rules):
                L = len(rule.lhs)
                if pos + L <= n and w[pos : pos + L] == rule.lhs:
                    return pos, ridx
        return None

    # -- reduction ---------------------------------------------------------

    def normal_form_word(self, w: Word) -> NcPoly:
        """Fully reduce a single word."""
        return self.normal_form(NcPoly.monomial(self.alphabet, w, 1))

    def normal_form(self, p: NcPoly) -> NcPoly:
        """Irreducible form of p under the fixed reduction strategy.

        Pending words are expanded largest first.  A rewrite only produces
        smaller words, so when a word is popped every contribution to its
        coefficient has been added up and it is expanded exactly once.
        """
        if p.alphabet != self.alphabet:
            raise AlphabetMismatch("polynomial over a different alphabet")
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

    def normal_form_traced(self, p: NcPoly) -> tuple[NcPoly, list[tuple]]:
        """Reference reducer: one elementary rewrite per step.

        Each step rewrites the leftmost redex of the order-maximal reducible
        monomial, so the result coincides with normal_form.  Step
        (c, left, rule index, right) subtracts c * left * (lhs - rhs) * right,
        so p - nf is the sum of these terms over the steps.
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
