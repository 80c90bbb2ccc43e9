"""Rewriting: orientation, normal forms, traces, zero testing, proofs."""

import random
from fractions import Fraction

import pytest

from qonsager import qcoeff
from qonsager.adjoint import apply_bad, apply_badprod
from qonsager.cli import main
from qonsager.currentalg import aq_system, proof_chain
from qonsager.errors import AlphabetMismatch, NotLeadingMonomial, OrderViolation
from qonsager.freealg import Alphabet, NcPoly
from qonsager.onsager import defining_relations, onsager_context
from qonsager.qcoeff import SYMBOLIC as m
from qonsager.qcoeff import (
    LaurentPoly, NumericQ, RationalFunctionQ, _digits, form_vectors, is_symbolic, pack,
)
from qonsager.rewrite import MonomialOrder, RewriteRule, RewriteSystem, make_system, orient
from test_freealg import rebuilt

AB = Alphabet(["A", "B"])
A = NcPoly.generator(AB, "A")
B = NcPoly.generator(AB, "B")


def ideal_combination(rs, steps, one):
    """Sum of c * left * (lhs - rhs) * right over traced steps, built by
    polynomial multiplication alone."""
    total = NcPoly.zero(rs.alphabet)
    for c, left, ridx, right in steps:
        rule = rs.rules[ridx]
        relation = NcPoly.monomial(rs.alphabet, rule.lhs, one) - rule.rhs
        total = total + (
            NcPoly.monomial(rs.alphabet, left, c)
            * relation
            * NcPoly.monomial(rs.alphabet, right, one)
        )
    return total


def reducible(rs, w):
    """Whether some rule's left side occurs in w, found by slicing."""
    return any(
        w[i : i + len(rule.lhs)] == rule.lhs for rule in rs.rules for i in range(len(w))
    )


def assert_rules_solve(rs, relations, one):
    """Each rule satisfies c * (lhs - rhs) = its relation, c the coefficient
    of lhs there; a rule's relation is the first one led by its lhs."""
    by_lead = {}
    for rel in relations:
        by_lead.setdefault(rel.leading_word(), rel)
    for rule in rs.rules:
        rel = by_lead[rule.lhs]
        c = rel.terms[rule.lhs]
        assert c * (NcPoly.monomial(rs.alphabet, rule.lhs, one) - rule.rhs) == rel


@pytest.fixture(scope="module")
def qdg():
    return make_system(
        AB, MonomialOrder(AB), defining_relations(AB), [AB.word("AAAB"), AB.word("ABBB")]
    )


@pytest.fixture(scope="module")
def onsager():
    """The O_q context, built before any function-scoped spy records, since
    building it reduces by the packed path."""
    return onsager_context()


class TestMakeSystem:
    def test_rule_left_sides(self, qdg):
        assert [r.lhs for r in qdg.rules] == [AB.word("AAAB"), AB.word("ABBB")]

    def test_first_rule_right_side(self, qdg):
        th = m.qint(3)
        rho = m.qnum(2) * m.qnum(2)
        expected = (
            th * (A * A * B * A)
            - th * (A * B * A * A)
            + B * A * A * A
            + rho * (B * A - A * B)
        )
        assert qdg.rules[0].rhs == expected

    def test_non_leading_orientation_rejected(self):
        rels = defining_relations(AB)
        with pytest.raises(NotLeadingMonomial):
            make_system(
                AB, MonomialOrder(AB), rels, [AB.word("BAAA"), AB.word("ABBB")]
            )

    def test_absent_orientation_rejected(self):
        rels = defining_relations(AB)
        with pytest.raises(NotLeadingMonomial):
            make_system(AB, MonomialOrder(AB), rels, [AB.word("BBBB"), AB.word("ABBB")])

    def test_relations_over_another_alphabet_rejected(self):
        ABC = Alphabet(["A", "B", "C"])
        with pytest.raises(AlphabetMismatch):
            make_system(
                ABC, MonomialOrder(ABC), defining_relations(AB), [AB.word("AAAB"), AB.word("ABBB")]
            )

    def test_order_violating_rule_rejected(self):
        bad = RewriteRule(AB.word("AB"), A * B * A)
        with pytest.raises(OrderViolation):
            RewriteSystem(AB, MonomialOrder(AB), [bad])

    def test_orient_stores_canonical_right_sides(self):
        """AAB + [3] B scaled by Phi_3/Phi_3, a value equal to 1, as
        NcPoly.combine leaves it: the rule's right side is over no
        denominator, as the unscaled relation's is."""
        phi3 = LaurentPoly(0, [1, 1, 1])
        one = RationalFunctionQ(phi3, phi3)
        rel = NcPoly.combine(AB, [(one, A * A * B + m.qint(3) * B)])
        assert all(c.phi == (0, 0, 1) for c in rel.terms.values())
        rule = orient(rel, AB.word("AAB"))
        assert rule.den == ((), (1,), 1)
        assert rule.rhs == -m.qint(3) * B
        assert all(c.phi == () for c in rule.rhs.terms.values())


    def test_orient_divides_an_integer_coefficient_exactly(self):
        """3 AAB + B has the int leading coefficient 3: -1/3 must stay a
        rational, not become a float."""
        rel = NcPoly(AB, {AB.word("AAB"): 3, AB.word("B"): 1})
        rule = orient(rel, AB.word("AAB"))
        assert rule.rhs == NcPoly(AB, {AB.word("B"): Fraction(-1, 3)})
        rs = RewriteSystem(AB, MonomialOrder(AB), [rule])
        assert rs.normal_form(A * A * B) == rule.rhs
        assert rs.is_zero_mod(rel).is_zero


class TestMatching:
    """_find takes the leftmost position and, there, the first declared rule."""

    ABC = Alphabet(["A", "B", "C"])

    def system(self, *sides):
        """Rules lhs -> C over ABC, in the given order."""
        c = NcPoly.generator(self.ABC, "C")
        return RewriteSystem(self.ABC, MonomialOrder(self.ABC),
                             [RewriteRule(self.ABC.word(s), c) for s in sides])

    @staticmethod
    def scan(rs, w):
        """The match by trying every rule at every position."""
        for pos in range(len(w)):
            for ridx, rule in enumerate(rs.rules):
                if w[pos : pos + len(rule.lhs)] == rule.lhs:
                    return pos, ridx
        return None

    def test_two_left_sides_at_one_position(self):
        w = self.ABC.word("CABBA")
        assert self.system("AB", "ABB")._find(w) == (1, 0)
        assert self.system("ABB", "AB")._find(w) == (1, 0)
        assert self.system("BA", "ABB", "AB")._find(w) == (1, 1)

    def test_leftmost_position_before_declared_order(self):
        rs = self.system("AB", "BB", "CA")
        assert rs._find(self.ABC.word("BBAB")) == (0, 1)
        assert rs._find(self.ABC.word("CAB")) == (0, 2)
        assert rs._find(self.ABC.word("CCC")) is None
        assert rs._find(()) is None

    def test_random_words_against_the_scan(self):
        rng = random.Random(3)
        rs = self.system("AB", "ABA", "BAB", "BB", "CAB", "CC", "ACB", "BA")
        for _ in range(400):
            w = tuple(rng.randrange(3) for _ in range(rng.randint(0, 7)))
            assert rs._find(w) == self.scan(rs, w)


class TestNormalForm:
    def test_irreducible_fixed(self, qdg):
        assert qdg.normal_form(A * B) == A * B

    def test_leading_word_rewrites_to_relation_solution(self, qdg):
        nf = qdg.normal_form(A * A * A * B)
        assert nf == qdg.rules[0].rhs

    def test_relation_defect_numerator_reduces_to_zero(self, qdg):
        th = m.qint(3)
        rho = m.qnum(2) * m.qnum(2)
        defect = (
            A * A * A * B
            - th * (A * A * B * A)
            + th * (A * B * A * A)
            - B * A * A * A
            + rho * (A * B - B * A)
        )
        assert qdg.normal_form(defect).is_zero

    def test_alphabet_guard(self, qdg):
        other = NcPoly.generator(Alphabet(["A", "B", "C"]), "C")
        with pytest.raises(AlphabetMismatch):
            qdg.normal_form(other)


class TestZeroTest:
    def test_balanced_product_of_second_generator(self, qdg):
        res = qdg.is_zero_mod(apply_badprod(2, A, B))
        assert res.is_zero

    def test_commutator_is_inconclusive_nonzero(self, qdg):
        res = qdg.is_zero_mod(A * B - B * A)
        assert not res.is_zero
        assert res.residue == A * B - B * A

    def test_zero_input(self, qdg):
        assert qdg.is_zero_mod(NcPoly.zero(AB)).is_zero


def random_poly(rng, max_degree=8):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        w = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, max_degree)))
        terms[w] = m.from_fraction(rng.randint(-3, 3))
    return NcPoly(AB, terms)


class TestTermination:
    def test_random_inputs_terminate(self, qdg):
        rng = random.Random(97)
        for _ in range(25):
            p = random_poly(rng)
            nf = qdg.normal_form(p)
            # irreducibility of the result: no rule left side occurs
            for w in nf.support():
                assert qdg._find(w) is None


class TestTrace:
    def test_traced_agrees_with_normal_form(self, qdg):
        rng = random.Random(1234)
        for _ in range(10):
            p = random_poly(rng, max_degree=6)
            nf, trace = qdg.normal_form_traced(p)
            assert nf == qdg.normal_form(p)

    def test_trace_fields(self, qdg):
        _, steps = qdg.normal_form_traced(A * A * A * B * B)
        assert steps, "reduction must record at least one step"
        c, left, ridx, right = steps[0]
        assert c == m.one()
        assert left + qdg.rules[ridx].lhs + right == AB.word("AAABB")

    def test_replay_reproduces_and_witnesses_ideal_membership(self, qdg):
        p = apply_badprod(2, A, B) * B + A * random_like()
        nf, steps = qdg.normal_form_traced(p)
        assert nf == qdg.normal_form(p)
        # the steps are an explicit two-sided ideal witness
        assert p - nf == ideal_combination(qdg, steps, m.one())


# 1 + 2q^2 + 2q^6 + q^8, the rest of a rule of the completion to degree 13
REST13 = (1, 0, 2, 0, 0, 0, 2, 0, 1)

MODES = [pytest.param(m, id="symbolic"), pytest.param(NumericQ("5/3"), id="numeric"),
         pytest.param(NumericQ("-7/2"), id="numeric-negative")]


def oracle_poly(rng, mode, pool):
    """Up to 12 terms of length <= 10, drawing words from a small pool so
    that words repeat and coefficients cancel after reduction."""
    terms = {}
    for _ in range(rng.randint(1, 12)):
        if rng.random() < 0.5:
            w = rng.choice(pool)
        else:
            w = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 10)))
        c = terms.get(w, mode.zero()) + mode.from_fraction(rng.randint(-4, 4))
        terms[w] = c
    return NcPoly(AB, terms)


class TestOracle:
    """normal_form against the step-by-step traced reduction, which shares
    only the matching and the rules with it; the traced steps against p - nf,
    summed by polynomial multiplication."""

    @pytest.fixture(scope="class", params=MODES)
    def system(self, request):
        mode = request.param
        rels = defining_relations(AB, mode)
        return mode, make_system(AB, MonomialOrder(AB), rels, [AB.word("AAAB"), AB.word("ABBB")])

    def polys(self, mode, seed, count):
        rng = random.Random(seed)
        pool = [AB.word(s) for s in ("AAAB", "ABBB", "AAABB", "BAAAB", "AABBBA", "AAABBBAB")]
        return [oracle_poly(rng, mode, pool) for _ in range(count)]

    def test_agrees_with_traced(self, system):
        mode, rs = system
        for p in self.polys(mode, 2024, 40):
            nf, steps = rs.normal_form_traced(p)
            assert p - nf == ideal_combination(rs, steps, mode.one())
            assert not any(reducible(rs, w) for w in nf.support())
            assert rs.normal_form(p) == nf

    def test_rules_solve_their_relations(self, system):
        mode, rs = system
        assert_rules_solve(rs, defining_relations(AB, mode), mode.one())

    def test_cancellation_to_zero(self, system):
        mode, rs = system
        # AAAB minus its own rule's right side lies in the ideal
        p = NcPoly.monomial(AB, AB.word("AAAB"), mode.one()) - rs.rules[0].rhs
        assert rs.normal_form(p).is_zero
        assert rs.normal_form_traced(p)[0].is_zero

    def test_linear(self, system):
        mode, rs = system
        ps = self.polys(mode, 4242, 20)
        for p, r in zip(ps[::2], ps[1::2]):
            assert rs.normal_form(p + r) == rs.normal_form(p) + rs.normal_form(r)

    def test_word_is_monomial(self, system):
        mode, rs = system
        for s in ("", "B", "AAAB", "ABBB", "AAABBB", "BAAABBBA", "AAABAAAB"):
            w = AB.word(s)
            assert rs.normal_form_word(w) == rs.normal_form(NcPoly.monomial(AB, w, mode.one()))

    # -- the reduction over one denominator (RewriteSystem._reduce_packed) --

    @pytest.fixture
    def widths(self, monkeypatch):
        """The digit width of every packed pass, in call order."""
        seen = []
        reduce = RewriteSystem._reduce_packed

        def spy(rs, *args):
            seen.append(args[-1][0])  # the width w of the digit format
            return reduce(rs, *args)

        monkeypatch.setattr(RewriteSystem, "_reduce_packed", spy)
        return seen

    def assert_agrees(self, rs, p):
        """normal_form equals the traced reduction, and a packed result keeps
        a lifted form that rebuilds its coefficients; a symbolic one has an
        exact height and, at the one width it was reduced at, the packs of
        its vectors."""
        nf = rs.normal_form(p)
        assert nf == rs.normal_form_traced(p)[0]
        form = nf._ints
        if form:
            assert rebuilt(form) == list(nf.terms.values())
        if form and is_symbolic(form):
            phi, rest, _, _, _, height, (w, packed) = form
            vectors = form_vectors(form)
            assert height == max(max(map(abs, v)) for v in vectors)
            assert all(c.phi == phi and c.rest == rest for c in nf.terms.values())
            digits = _digits((1 << (w - 1)) - 1)
            assert digits[0] == w and packed == [pack(v, digits) for v in vectors]
        return nf

    @staticmethod
    def q_poly(rng, alphabet, pool, count, big=1):
        """count terms over pool words (and their one-letter extensions),
        each an integer up to big times a power of q."""
        terms = {}
        for _ in range(count):
            w = rng.choice(pool) + tuple(rng.randrange(len(alphabet)) for _ in range(rng.randint(0, 2)))
            k = rng.randint(-big, big) or 1
            terms[w] = terms.get(w, m.zero()) + k * m.q_pow(rng.randint(-3, 3))
        return NcPoly(alphabet, terms)

    def test_packed_on_the_presentation(self, onsager, widths):
        rng = random.Random(7)
        rs = onsager.qdg
        pool = [AB.word(s) for s in ("AAAB", "ABBB", "AAABB", "BAAAB", "ABBBA", "AAABBBAB")]
        for _ in range(30):
            self.assert_agrees(rs, self.q_poly(rng, AB, pool, rng.randint(2, 10)))
        assert widths and set(widths) == {64}

    @pytest.mark.parametrize("ids", [("3p2a",), ("3p2b",), ("3p4a",), ("3p2a", "3p2b", "3p4a")])
    def test_packed_on_integral_current_algebra_subsystems(self, widths, ids):
        aq = aq_system(2)
        rs = aq.subsystem(*ids)
        pool = [rule.lhs for rule in rs.rules]
        rng = random.Random(11)
        for _ in range(15):
            self.assert_agrees(rs, self.q_poly(rng, aq.alphabet, pool, rng.randint(2, 8)))
        assert widths

    def test_packed_over_different_cyclotomic_denominators(self, onsager, widths):
        rs = onsager.qdg
        rng = random.Random(5)
        for _ in range(4):
            xs = [NcPoly.monomial(AB, tuple(rng.randint(0, 1) for _ in range(rng.randint(2, 4))),
                                  m.one()) for _ in range(3)]
            p = apply_bad(0, A, xs[0]) + apply_bad(1, A, xs[1]) + apply_bad(2, A, xs[2] * B)
            assert len({c.phi for c in p.terms.values()}) > 1
            self.assert_agrees(rs, p)
        assert widths

    def test_one_reducible_word_takes_one_packed_pass(self, onsager, widths):
        """The reducer is chosen by the rules and the input's form alone, so
        an input with one reducible word is reduced packed too."""
        rs = onsager.qdg
        inputs = [NcPoly.monomial(AB, AB.word("AAAB"), m.one()),
                  m.qnum(2) * (A * A * A * B * B) + m.q_pow(-1) * (B * A) - A * A * B]
        for p in inputs:
            assert sum(1 for w in p.support() if reducible(rs, w)) == 1
            assert self.assert_agrees(rs, p)._ints is not None
        assert widths == [64, 64]

    def test_coefficient_past_two_to_the_64(self, onsager, widths):
        rs = onsager.qdg
        k = 2 ** 70 + 3
        p = (k * m.q_pow(2)) * (A * A * A * B * B) - (k - 5) * (A * B * B * B * A) + A * A * A * B
        nf = self.assert_agrees(rs, p)
        assert not nf.is_zero
        assert widths == [128]

    @pytest.mark.parametrize("k, big, small", [
        (2 ** 62 + 1, ("AAAB",), ("ABBB",)),
        (2 ** 61 + 5, ("AAABAB", "ABBBAB", "BAAAB"), ()),
        (2 ** 62 - 3, ("AABBB",), ("AAABA", "ABBBB")),
    ])
    def test_bound_passing_64_bits_restarts_wider(self, onsager, widths, k, big, small):
        """Entries just below 2^63 fit the first width; rewrites by rule
        coefficients of l1 norm 3 and 4 take entries past 2^63, and the pass
        runs again wider."""
        rs = onsager.qdg
        p = NcPoly(AB, {AB.word(s): (k - i) * m.q_pow(i) for i, s in enumerate(big)}
                   | {AB.word(s): m.q_pow(-i) for i, s in enumerate(small)})
        nf = self.assert_agrees(rs, p)
        assert not nf.is_zero
        assert widths[0] == 64 and widths[-1] > 64

    def test_higher_dg_r5_reads_heights_to_stay_at_64_bits(self, onsager, widths):
        """The sum and product bounds alone pass 64 bits here (79 bits against
        23 bits of actual coefficients); reading the exact height of a word
        whose bound nears the limit keeps the reduction at 64 bits."""
        power = NcPoly.one(AB, m)
        for _ in range(5):
            power = power * onsager.B
        nf = self.assert_agrees(onsager.qdg, apply_badprod(6, onsager.A, power))
        assert nf.is_zero
        assert widths == [64]

    def test_packed_normal_form_keeps_the_packs_of_its_vectors(self, onsager, widths, monkeypatch):
        """A packed normal form keeps its vectors packed at the width it was
        reduced at, and a later sum at that width packs only its multiplier."""
        rs = onsager.qdg
        rng = random.Random(13)
        pool = [AB.word(s) for s in ("AAAB", "ABBB", "AAABB")]
        p = self.q_poly(rng, AB, pool, 8, big=2 ** 40)
        nf = self.assert_agrees(rs, p)
        form = nf._ints
        assert widths == [64] and form[5] >= 1 << 31
        digits = _digits((1 << 63) - 1)
        assert form[6] == (64, [pack(v, digits) for v in form_vectors(form)])
        calls = []
        packer = qcoeff.pack

        def counted(cs, digits):
            calls.append(digits[0])
            return packer(cs, digits)

        monkeypatch.setattr(qcoeff, "pack", counted)
        got = NcPoly.combine(AB, [(m.q_pow(1), nf)])
        monkeypatch.undo()
        assert calls == [64]
        assert got == nf.scaled(m.q_pow(1))

    def test_every_rule_set_takes_one_packed_pass(self, onsager, widths):
        """There is one reducer.  The current algebra's system, whose
        3p1a/3p1b divide by q + q^-1, takes one packed pass per input, and
        so does an input with a rest."""
        rng = random.Random(3)
        aq = aq_system(2)
        assert aq.system._delta == ((0, 0, 0, 1), (1,), 1)  # 3p1a/3p1b: 1/(q + 1/q) = q/Phi_4
        pool = [rule.lhs for rule in aq.system.rules]
        for _ in range(10):
            self.assert_agrees(aq.system, self.q_poly(rng, aq.alphabet, pool, 6))
        assert widths == [64] * 10
        widths.clear()
        # a coefficient whose denominator has a factor that is no Phi_d is
        # reduced packed, over a denominator that keeps that factor
        rest = RationalFunctionQ(LaurentPoly(0, [1]), LaurentPoly(0, [1, 0, 2]))
        assert rest.rest != (1,)
        p = rest * (A * A * A * B * B) + A * B * B * B + A * A * A * B
        assert self.assert_agrees(onsager.qdg, p)._ints[1] == rest.rest
        assert widths == [64]

    def test_rests_take_one_packed_pass(self, onsager, widths):
        """An input over three rests and several Phi_d multisets is reduced in
        one packed pass over the lcm of its rests: r1 r2, not the product
        r1^2 r2^2 of the distinct rests r1, r2 and r1 r2."""
        r1 = RationalFunctionQ(LaurentPoly(0, [1]), LaurentPoly(0, [1, 0, 2]))
        r2 = RationalFunctionQ(LaurentPoly(1, [2, -1]), LaurentPoly(0, [1, -3, 1]))
        p = (r1 * (A * A * A * B * B) + (r2 / m.qnum(2)) * (B * A * A * A * B)
             + (r1 * r2) * (A * B * B * B) - m.qnum(3) * (A * A * A * B))
        nf = self.assert_agrees(onsager.qdg, p)
        assert len({r1.rest, r2.rest, (r1 * r2).rest}) == 3
        assert not nf.is_zero and nf._ints[1] == qcoeff._times(r1.rest, r2.rest)
        assert widths == [64]
        assert self.assert_agrees(onsager.qdg, p - nf).is_zero

    # -- rules whose coefficients have a cyclotomic denominator --

    def test_packed_on_current_algebra_systems(self, widths):
        """The K = 6 system and each subsystem a proof replay reduces in, on
        random inputs over their left sides: the systems with 3p1a divide by
        q + q^-1, the others are integral."""
        aq = aq_system(6)
        cited = {just for gen in ("Wplus", "G", "Gt") for k in range(aq.K)
                 for _, just in proof_chain(aq, gen, k) if isinstance(just, tuple)}
        systems = [aq.system] + [aq.subsystem(*ids) for ids in sorted(cited)]
        assert len(systems) == 6
        phi4, one = ((0, 0, 0, 1), (1,), 1), ((), (1,), 1)
        assert [rs._delta for rs in systems] == [phi4, phi4, one, one, one, one]
        rng = random.Random(17)
        for rs in systems:
            pool = [rule.lhs for rule in rs.rules]
            for _ in range(8):
                self.assert_agrees(rs, self.q_poly(rng, aq.alphabet, pool, rng.randint(2, 8)))
        assert widths == [64] * 48

    @pytest.fixture(scope="class")
    def two_denominators(self):
        """Rules over 1/(q + q^-1) = q/Phi_4 and 1/[3]_q = q^2/(Phi_3 Phi_6),
        one coefficient -q/Phi_4, whose vector (-1,) leads with a negative
        entry, and one integral rule."""
        abc = Alphabet(["A", "B", "C"])
        a, b, c = (NcPoly.generator(abc, x) for x in "ABC")
        inv2 = m.one() / (m.q_pow(1) + m.q_pow(-1))
        inv3 = m.one() / m.qint(3)
        rules = [RewriteRule(abc.word("AB"), -inv2 * (b * a) + m.qnum(1) * c),
                 RewriteRule(abc.word("AC"), inv3 * (c * a) + b),
                 RewriteRule(abc.word("BC"), c * b)]
        return abc, RewriteSystem(abc, MonomialOrder(abc), rules)

    def test_two_cyclotomic_denominators_meet_at_their_lcm(self, two_denominators, widths):
        abc, rs = two_denominators
        assert [rule.den for rule in rs.rules] == [
            ((0, 0, 0, 1), (1,), 1), ((0, 0, 1, 0, 0, 1), (1,), 1), ((), (1,), 1)]
        # Phi_3 Phi_4 Phi_6, each rule's cofactor nontrivial
        assert rs._delta == ((0, 0, 1, 1, 0, 1), (1,), 1)
        rng = random.Random(23)
        pool = [abc.word(s) for s in ("AB", "AC", "BC", "AAB", "ABC", "ACB", "BAC", "AABC")]
        for _ in range(20):
            self.assert_agrees(rs, self.q_poly(rng, abc, pool, rng.randint(2, 8)))
        assert widths == [64] * 20

    def test_negative_leading_rule_vector_keeps_its_sign(self, two_denominators, widths):
        """AB -> -q/Phi_4 BA + (q - q^-1) C: the vector (-1,) of -q/Phi_4 is
        lifted to the system's denominator by Phi_3 Phi_6 with its sign,
        and the irreducible CB meets the rewritten words at their power."""
        abc, rs = two_denominators
        ab, ba, cb = abc.word("AB"), abc.word("BA"), abc.word("CB")
        p = NcPoly(abc, {ab: m.one(), cb: m.q_pow(1)})
        nf = self.assert_agrees(rs, p)
        assert nf.terms[ba] == -m.q_pow(1) / (m.q_pow(2) + m.one())
        assert nf.terms[cb] == m.q_pow(1)
        assert widths == [64]

    def test_final_lift_past_64_bits_reruns_wider(self, widths):
        """W(-1), irreducible and near 2^63, ends over the input's
        denominator while W(0) W(1) rewrites over q + q^-1: lifting W(-1) to
        that power doubles its bound past 2^63, so the pass runs again at
        128 bits."""
        aq = aq_system(2)
        big = 2 ** 62 + 1
        p = big * aq.W(-1) + aq.W(0) * aq.W(1)
        nf = self.assert_agrees(aq.system, p)
        assert nf.terms[(aq.alphabet.index["W-1"],)] == big
        assert widths == [64, 128]

    # -- rules over a rest or an integer, numeric rules --

    @pytest.fixture(scope="class")
    def rest_and_half(self):
        """Rules over the rest 1 + 2q^2 + 2q^6 + q^8 (x^4 + 2x^3 + 2x + 1 at
        x = q^2, which a completion to degree 13 divides by), over 2, over
        q + q^-1 = q^-1 Phi_4, and one integral rule.  Together they lift
        to Delta by a nontrivial Phi_d, rest or integer cofactor each."""
        abc = Alphabet(["A", "B", "C"])
        a, b, c = (NcPoly.generator(abc, x) for x in "ABC")
        rest = RationalFunctionQ(LaurentPoly(0, [1]), LaurentPoly(0, REST13))
        half = m.from_fraction(Fraction(1, 2))
        inv2 = m.one() / (m.q_pow(1) + m.q_pow(-1))
        rules = [RewriteRule(abc.word("AB"), rest * (b * a) + c),
                 RewriteRule(abc.word("AC"), half * (c * a) - m.q_pow(1) * b),
                 RewriteRule(abc.word("BC"), -inv2 * (c * b) + m.qnum(2) * a),
                 RewriteRule(abc.word("BB"), c * a + m.q_pow(-1) * c)]
        assert rest.rest == REST13  # no Phi_d divides it
        return abc, rules

    @pytest.mark.parametrize("chosen, delta", [
        ((0, 3), ((), REST13, 1)),
        ((1, 3), ((), (1,), 2)),
        ((0, 1, 2, 3), ((0, 0, 0, 1), REST13, 2)),
    ], ids=["rest", "half", "all"])
    def test_rest_and_integer_denominators_reduce_packed(self, rest_and_half, widths, chosen,
                                                         delta):
        abc, rules = rest_and_half
        assert [rule.den for rule in rules] == [
            ((), REST13, 1), ((), (1,), 2), ((0, 0, 0, 1), (1,), 1), ((), (1,), 1)]
        rs = RewriteSystem(abc, MonomialOrder(abc), [rules[i] for i in chosen])
        assert rs._delta == delta
        rng = random.Random(29)
        pool = [abc.word(s) for s in ("AB", "AC", "BC", "BB", "AAB", "ABC", "ACB", "BAC", "ABBC")]
        for _ in range(20):
            self.assert_agrees(rs, self.q_poly(rng, abc, pool, rng.randint(2, 8)))
        assert widths == [64] * 20

    @pytest.mark.parametrize("q0", ["5/3", "-7/2"])
    def test_numeric_rules_reduce_packed_to_a_numeric_form(self, widths, q0):
        """Numeric rule coefficients are constants over one integer D, so
        Delta is ((), (1,), D), and a numeric input reduces packed to a
        numeric form in one pass per input at 64 bits, though its
        numerators grow past 2^63: a constant's packed int is exact at any
        width."""
        num = NumericQ(q0)
        rs = make_system(AB, MonomialOrder(AB), defining_relations(AB, num),
                         [AB.word("AAAB"), AB.word("ABBB")])
        phi, rest, d = rs._delta
        assert (phi, rest) == ((), (1,)) and d > 1
        ps = [p for p in self.polys(num, 99, 10) if p]
        nums = []
        for p in ps:
            nf = self.assert_agrees(rs, p)
            assert nf.is_zero or not is_symbolic(nf._ints)
            assert all(type(c) is Fraction for c in nf.terms.values())
            nums += nf._ints[1] if nf else ()
        assert widths == [64] * len(ps) and max(map(abs, nums)) >= 1 << 63

    @pytest.mark.parametrize("argv, passes", [
        ("onsager higher-dg --r 6 --mode numeric --q 5/3", 13),
        ("current verify --kmax 4 --mode numeric --q 3", 75),
        ("onsager homcheck --mode numeric --q 5/3", 4),
        ("onsager higher-dg --r 6", 13),
        ("current verify --kmax 6", 113),
    ])
    def test_packed_passes_per_command(self, widths, capsys, argv, passes):
        """A numeric reduction takes one packed pass: its packed ints are
        exact at any width, so no bound sends it round again.  The symbolic
        commands keep their passes."""
        assert main(argv.split()) == 0
        assert len(widths) == passes

    def test_integer_input_to_a_symbolic_system(self, onsager, widths):
        """An all-integer input has a numeric form; over symbolic rules it is
        read as constants and reduces packed to a symbolic form."""
        p = NcPoly(AB, {AB.word("AAABB"): 3, AB.word("ABBBA"): -2, AB.word("BA"): 5})
        assert not is_symbolic(p._integer_form())
        nf = self.assert_agrees(onsager.qdg, p)
        assert is_symbolic(nf._ints)
        assert all(isinstance(c, RationalFunctionQ) for c in nf.terms.values())
        assert widths == [64]

    def test_integer_input_to_a_symbolic_system_keeps_its_bounds(self, onsager, widths):
        """Integers near 2^62 over the symbolic presentation: the rules'
        q-number coefficients take its entries past 2^63, so the pass runs
        again wider, though the input's form is numeric."""
        p = NcPoly(AB, {AB.word("AAAB"): 2 ** 62 + 1, AB.word("ABBB"): 1})
        assert not is_symbolic(p._integer_form())
        nf = self.assert_agrees(onsager.qdg, p)
        assert not nf.is_zero and widths[0] == 64 and widths[-1] > 64

    def test_no_scalar_is_added_or_multiplied(self, onsager, rest_and_half, monkeypatch):
        """normal_form has no scalar fallback: with the arithmetic of
        RationalFunctionQ and Fraction raising, it still reduces in both
        modes and over the rest and 1/2 rules, and once the operators are
        back its results are the oracle's."""
        abc, rules = rest_and_half
        rng = random.Random(31)
        num = NumericQ("5/3")
        numeric = make_system(AB, MonomialOrder(AB), defining_relations(AB, num),
                              [AB.word("AAAB"), AB.word("ABBB")])
        pool = [AB.word(s) for s in ("AAAB", "ABBB", "AAABB", "BAAAB")]
        cases = [(onsager.qdg, self.q_poly(rng, AB, pool, 6)),
                 (numeric, self.polys(num, 7, 1)[0]),
                 (RewriteSystem(abc, MonomialOrder(abc), rules),
                  self.q_poly(rng, abc, [abc.word(s) for s in ("AB", "AC", "BC", "ABBC")], 6))]

        def refuse(*args):
            raise AssertionError("a scalar was added or multiplied")

        for cls in (RationalFunctionQ, Fraction):
            for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
                monkeypatch.setattr(cls, name, refuse)
        got = [rs.normal_form(p) for rs, p in cases]
        monkeypatch.undo()
        for (rs, p), nf in zip(cases, got):
            assert not nf.is_zero and nf == rs.normal_form_traced(p)[0]


def random_like():
    return NcPoly.monomial(AB, AB.word("ABAB"), m.one())


class TestCongruence:
    def test_on_reduction_corpus(self, qdg):
        pairs = [
            (A * A * A * B, B),
            (A * B, A * A * B * B),
            (apply_badprod(2, A, B), A * B),
            (A * B * B * B, B * A),
        ]
        for p, r in pairs:
            lhs = qdg.normal_form(p * r)
            rhs = qdg.normal_form(qdg.normal_form(p) * qdg.normal_form(r))
            assert lhs == rhs


def assert_proved(rs, value, one):
    """The reference reducer takes value to zero, and its steps sum to it."""
    nf, steps = rs.normal_form_traced(value)
    assert nf.is_zero
    assert ideal_combination(rs, steps, one) == value


class TestProofs:
    """Each zero behind a PASS of higher-dg, the presentation's bound check
    and the current algebra's class checks is an explicit ideal combination
    of rules that solve the presentation's relations."""

    @pytest.fixture(scope="class")
    def aq(self):
        return aq_system(2)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_higher_dg_rewrite_values(self, onsager, r):
        power = NcPoly.one(AB, m)
        for _ in range(r):
            power = power * onsager.B
        assert_proved(onsager.qdg, apply_badprod(r + 1, onsager.A, power), m.one())

    def test_order_two_balanced_product_of_B(self, onsager):
        assert_proved(onsager.qdg, apply_badprod(2, onsager.A, onsager.B), m.one())

    def test_class_check_elements(self, aq):
        W0 = aq.W(0)
        values = [aq.br(W0, aq.W(-k)) for k in range(aq.K + 1)]
        for k in range(aq.K):
            for X in (aq.W(k + 1), aq.G(k + 1), aq.Gt(k + 1)):
                nested = aq.br(W0, aq.qbr(W0, aq.qbr(W0, X, 1), -1))
                values.append(nested - aq.rho * aq.br(W0, X))
                values.append(apply_badprod(2, W0, X, aq.mode))
        for value in values:
            assert_proved(aq.system, value, m.one())

    def test_current_algebra_rules_solve_their_relations(self, aq):
        # TestOracle checks the rules of the A/B presentation in both modes
        assert_rules_solve(aq.system, [p for _, _, p in aq.relations], m.one())
