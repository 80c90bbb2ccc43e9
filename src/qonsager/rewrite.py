"""Oriented noncommutative rewriting and sound ideal-membership testing.

A rewrite system is a list of rules lhs -> rhs where lhs is a word, rhs a
polynomial all of whose monomials are strictly smaller than lhs in the
degree-lex order; rules come from solving presentation relations for their
leading monomials.  Reduction replaces the leftmost occurrence of the first
matching rule inside the order-maximal reducible monomial and therefore
terminates: each step strictly decreases the monomial multiset in a well
order.  The reducer works top-down on a heap of pending words, largest
first, and keeps no state between calls.

A zero normal form proves membership in the two-sided ideal of the
relations (the engine can replay the step trace into an explicit ideal
combination); a nonzero normal form is inconclusive unless the system is
known confluent, which is never assumed here.
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

    def normal_form_traced(self, p: NcPoly) -> tuple[NcPoly, list[dict]]:
        """Reduce step by step, recording each elementary rewrite.

        Each step rewrites the leftmost redex of the order-maximal reducible
        monomial, so the result coincides with normal_form; the trace allows
        third-party replay into an explicit ideal combination.
        """
        if p.alphabet != self.alphabet:
            raise AlphabetMismatch("polynomial over a different alphabet")
        trace: list[dict] = []
        current = p
        while True:
            target = None
            for w in sorted(current.support(), key=deglex_key, reverse=True):
                m = self._find(w)
                if m is not None:
                    target = (w, m)
                    break
            if target is None:
                return current, trace
            w, (pos, ridx) = target
            rule = self.rules[ridx]
            c = current.terms[w]
            left, right = w[:pos], w[pos + len(rule.lhs):]
            spell = self.alphabet.spell
            trace.append(
                {
                    "position": pos,
                    "rule": ridx,
                    "before": spell(w),
                    "factorLeft": spell(left),
                    "factorRight": spell(right),
                }
            )
            replacement = NcPoly.zero(self.alphabet)
            for u, cu in rule.rhs.terms.items():
                replacement = replacement + NcPoly.monomial(
                    self.alphabet, left + u + right, c * cu
                )
            current = current - NcPoly.monomial(self.alphabet, w, c) + replacement

    def replay_trace(self, p: NcPoly, trace: list[dict]):
        """Re-apply a recorded trace; returns (result, ideal combination).

        The combination is a list of (coefficient, left word, rule index,
        right word) with p - result equal to the sum of
        coefficient * left * (lhs - rhs) * right, exactly.
        """
        current = p
        combination = []
        for step in trace:
            rule = self.rules[step["rule"]]
            left = self.alphabet.word(step["factorLeft"])
            right = self.alphabet.word(step["factorRight"])
            w = left + rule.lhs + right
            if self.alphabet.spell(w) != step["before"]:
                raise ValueError("trace step is inconsistent with its factors")
            c = current.terms.get(w)
            if c is None:
                raise ValueError("trace step rewrites an absent monomial")
            replacement = NcPoly.zero(self.alphabet)
            for u, cu in rule.rhs.terms.items():
                replacement = replacement + NcPoly.monomial(
                    self.alphabet, left + u + right, c * cu
                )
            current = current - NcPoly.monomial(self.alphabet, w, c) + replacement
            combination.append((c, left, step["rule"], right))
        return current, combination

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


def make_system(
    alphabet: Alphabet,
    order: MonomialOrder,
    relations: list[NcPoly],
    orientations: list[Word],
) -> RewriteSystem:
    """Solve each relation for its orientation word and validate the system.

    The orientation word must occur in its relation with nonzero coefficient
    and be the relation's order-maximal monomial.
    """
    if len(relations) != len(orientations):
        raise ValueError("one orientation word per relation required")
    rules = []
    for rel, word in zip(relations, orientations):
        word = tuple(word)
        c = rel.terms.get(word)
        if c is None:
            raise NotLeadingMonomial(f"{word} does not occur in the relation")
        lead = rel.leading_word()
        if word != lead:
            raise NotLeadingMonomial(
                f"{word} is not the order-maximal monomial (expected {lead})"
            )
        rest = rel - NcPoly.monomial(alphabet, word, c)
        rules.append(RewriteRule(word, (-1 / c) * rest))
    return RewriteSystem(alphabet, order, rules)
