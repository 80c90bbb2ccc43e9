"""Free algebra: products, evaluation, canonical JSON."""

import itertools
import json
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qonsager import qcoeff
from qonsager.errors import AlphabetMismatch, MissingImage, ParseError
from qonsager.freealg import Alphabet, NcPoly, ncpoly_from_json, ncpoly_to_json
from qonsager.qcoeff import (
    SYMBOLIC, LaurentPoly, NumericQ, RationalFunctionQ, _digits, form_vectors, is_symbolic, pack,
    rf_from_json,
)

AB = Alphabet(["A", "B"])
A = NcPoly.generator(AB, "A")
B = NcPoly.generator(AB, "B")


class TestProduct:
    def test_concatenation(self):
        assert (A * B).terms == {AB.word("AB"): SYMBOLIC.one()}

    def test_identity_element(self):
        one = NcPoly.one(AB)
        assert (A * B - B * A) * one == A * B - B * A

    def test_square_expansion_by_hand(self):
        # distributivity oracle: enumerate the four words directly
        expected = NcPoly(
            AB,
            {
                AB.word(w): SYMBOLIC.one()
                for w in ("AA", "AB", "BA", "BB")
            },
        )
        assert (A + B) * (A + B) == expected

    def test_alphabet_mismatch(self):
        other = NcPoly.generator(Alphabet(["X"]), "X")
        with pytest.raises(AlphabetMismatch):
            A * other

    def test_degree_additivity_on_monomials(self):
        w1 = NcPoly.monomial(AB, AB.word("AAB"), SYMBOLIC.one())
        w2 = NcPoly.monomial(AB, AB.word("BA"), SYMBOLIC.one())
        assert max(len(w) for w in (w1 * w2).support()) == 5


def letter_by_letter(p, assignment, one):
    """Reference evaluation: each word multiplied out from its first letter,
    each term scaled and added on its own."""
    out = 0 * one
    for w, c in p.terms.items():
        acc = one
        for name in p.alphabet.spell(w):
            acc = acc * assignment[name]
        out = out + c * acc
    return out


class TestEvaluate:
    NUM = NumericQ("5/3")

    def poly(self, spec):
        return NcPoly(AB, {AB.word(w): Fraction(c) for w, c in spec.items()})

    # shared prefixes (AAAB, AABA, AAB), a word that is a prefix of an earlier
    # one (AA after AAB), a word with no shared prefix past its first letter,
    # and the empty word
    SHARED = {"AAAB": 2, "AABA": "-3/4", "AAB": 5, "AA": "1/3", "BAB": -1, "BB": 7, "": "2/5"}

    @pytest.fixture
    def pair(self):
        from qonsager.matrices import ExactMatrix

        M = ExactMatrix([[1, Fraction(1, 2), 0], [-2, 3, 1], [0, Fraction(5, 3), -1]])
        N = ExactMatrix([[0, 1, 2], [Fraction(-1, 4), 0, 1], [3, 1, Fraction(2, 7)]])
        return {"A": M, "B": N}, ExactMatrix.identity(3)

    @pytest.mark.parametrize("spec", [
        SHARED,
        {"": 1},
        {"B": 1, "BA": -1, "AB": 1},
        {"AAAB": 1, "AABA": -3, "ABAA": 3, "BAAA": -1, "BA": 2, "AB": -2},
    ])
    def test_matrices_match_the_reference(self, pair, spec):
        assignment, one = pair
        p = self.poly(spec)
        assert p.evaluate(assignment, one) == letter_by_letter(p, assignment, one)

    def test_the_defining_relations_match_the_reference(self, pair):
        from qonsager.onsager import defining_relations

        assignment, one = pair
        for relation in defining_relations(AB, self.NUM):
            assert relation.evaluate(assignment, one) == letter_by_letter(relation, assignment, one)

    def test_each_prefix_is_multiplied_once_and_summed_once(self, pair, monkeypatch):
        from qonsager.matrices import ExactMatrix

        assignment, one = pair
        products, combines = [], []
        mul, combine = ExactMatrix.__mul__, ExactMatrix.combine
        monkeypatch.setattr(ExactMatrix, "__mul__", lambda x, y: products.append(1) or mul(x, y))
        monkeypatch.setattr(ExactMatrix, "combine",
                            staticmethod(lambda pairs: combines.append(1) or combine(pairs)))
        self.poly(self.SHARED).evaluate(assignment, one)
        # the prefixes of two letters or more: AA, AAA, AAAB, AAB, AABA, BA, BAB, BB
        assert (len(products), len(combines)) == (8, 1)

    def test_zero_polynomial(self, pair):
        from qonsager.matrices import ExactMatrix

        assignment, one = pair
        assert NcPoly.zero(AB).evaluate(assignment, one) == ExactMatrix.zeros(3)
        assert NcPoly.zero(AB).evaluate({"A": 2}, 1) == 0

    def test_int_valued_algebra(self):
        p = self.poly(self.SHARED)
        assignment = {"A": 2, "B": -3}
        value = p.evaluate(assignment, 1)
        assert value == letter_by_letter(p, assignment, 1)
        assert value == 2 * 2 ** 3 * -3 - Fraction(3, 4) * 4 * -3 * 2 + 5 * 4 * -3 \
            + Fraction(1, 3) * 4 - 9 * 2 + 7 * 9 + Fraction(2, 5)

    def test_polynomial_valued_algebra(self):
        num = self.NUM
        a, b = NcPoly.generator(AB, "A", num), NcPoly.generator(AB, "B", num)
        assignment, one = {"A": a + b, "B": a * b}, NcPoly.one(AB, num)
        p = self.poly(self.SHARED)
        assert p.evaluate(assignment, one) == letter_by_letter(p, assignment, one)

    def test_missing_image(self, pair):
        with pytest.raises(MissingImage):
            (A * B).evaluate({"A": 2}, 1)
        # the missing letter follows a prefix that an earlier word multiplied out
        assignment, one = pair
        with pytest.raises(MissingImage, match="'B'"):
            self.poly({"AA": 1, "AAB": 1}).evaluate({"A": assignment["A"]}, one)
        # a word without the missing letter needs no image of it
        assert self.poly({"": 3, "AA": 1}).evaluate({"A": 2}, 1) == 7


words = st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=3).map(tuple)
coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4).map(
    RationalFunctionQ.from_fraction
)
polys = st.dictionaries(words, coeffs, max_size=3).map(lambda t: NcPoly(AB, t))


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(polys, polys, polys)
    def test_associativity(self, p, r, s):
        assert (p * r) * s == p * (r * s)

    def test_is_zero(self):
        assert (A * B - A * B).is_zero
        assert not (A * B - B * A).is_zero
        w = SYMBOLIC.qnum(1)
        combo = w * A - SYMBOLIC.q_pow(1) * A + SYMBOLIC.q_pow(-1) * A
        assert combo.is_zero


def expanded_product(p, r):
    """p * r term by term, the oracle for the word-shift path."""
    out = {}
    for w1, c1 in p.terms.items():
        for w2, c2 in r.terms.items():
            out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
    return NcPoly(p.alphabet, out)


def _counting(op):
    def counted(self, other):
        _Counted.ops += 1
        return op(self, other)
    return counted


class _Counted(Fraction):
    """A Fraction that counts the sums and products it takes part in."""

    ops = 0
    __add__, __radd__ = _counting(Fraction.__add__), _counting(Fraction.__radd__)
    __mul__, __rmul__ = _counting(Fraction.__mul__), _counting(Fraction.__rmul__)


class TestWordShift:
    """A single word with coefficient 1 times a polynomial shifts its words."""

    P = A * B * B + SYMBOLIC.qnum(2) * (B * A) - SYMBOLIC.q_pow(3) * NcPoly.one(AB)

    @pytest.mark.parametrize("unit", [A, B * A, NcPoly.one(AB)], ids=["A", "BA", "empty"])
    def test_equals_the_expanded_product(self, unit):
        for p in (self.P, NcPoly.zero(AB), unit):
            assert unit * p == expanded_product(unit, p)
            assert p * unit == expanded_product(p, unit)
        assert NcPoly.one(AB) * self.P == self.P == self.P * NcPoly.one(AB)

    @settings(max_examples=50, deadline=None)
    @given(polys, words)
    def test_equals_the_expanded_product_on_random_polynomials(self, p, w):
        unit = NcPoly.monomial(AB, w, SYMBOLIC.one())
        assert unit * p == expanded_product(unit, p)
        assert p * unit == expanded_product(p, unit)

    def test_takes_no_coefficient_arithmetic(self):
        p = NcPoly(AB, {AB.word(w): _Counted(k) for k, w in ((2, "AB"), (-3, "B"), (5, ""))})
        unit = NcPoly.monomial(AB, AB.word("BA"), _Counted(1))
        _Counted.ops = 0
        assert (unit * p).terms == {AB.word(w): k for k, w in ((2, "BAAB"), (-3, "BAB"), (5, "BA"))}
        assert (p * unit).terms == {AB.word(w): k for k, w in ((2, "ABBA"), (-3, "BBA"), (5, "BA"))}
        assert _Counted.ops == 0

    def test_other_coefficient_takes_the_general_path(self):
        # a unit-word path would hand on p's kept form, whose values are p's
        # coefficients and not the product's
        for coeff in (Fraction(2), SYMBOLIC.q_pow(1)):
            p = NcPoly(AB, {AB.word(w): coeff * k for k, w in ((2, "AB"), (-3, "B"))})
            form = p._integer_form()
            scaled = NcPoly.monomial(AB, AB.word("BA"), coeff * 2)
            for product, want in ((scaled * p, expanded_product(scaled, p)),
                                  (p * scaled, expanded_product(p, scaled))):
                assert product == want
                assert product._integer_form() is not form


class TestSubtraction:
    @settings(max_examples=50, deadline=None)
    @given(polys, polys)
    def test_equals_adding_the_negative(self, p, r):
        assert p - r == p + (-r)
        assert (p - p).is_zero

    def test_cancellation_and_zero(self):
        zero = NcPoly.zero(AB)
        x = A * B - SYMBOLIC.qnum(2) * (B * A)
        assert x - x == zero == zero - zero
        assert zero - x == -x and x - zero == x
        assert (x + B) - x == B

    def test_alphabet_mismatch(self):
        other = NcPoly.generator(Alphabet(["X"]), "X")
        with pytest.raises(AlphabetMismatch):
            A - other
        with pytest.raises(AlphabetMismatch):
            NcPoly.zero(AB) - other

    @pytest.mark.parametrize("name", ["__add__", "__sub__", "__mul__", "__rmul__", "scaled"])
    def test_operators_live_in_the_class_body(self, name):
        # a per-layer tracer wraps each operator by its class attribute
        assert name in NcPoly.__dict__


class TestHash:
    def test_equal_polynomials_hash_alike(self):
        x = A * B + SYMBOLIC.qnum(2) * (B * A)
        y = SYMBOLIC.qnum(2) * (B * A) + A * B
        assert x is not y and x == y
        assert hash(x) == hash(x) == hash(y)
        assert {x: 1}[y] == 1
        assert hash(NcPoly.zero(AB)) == hash(A - A)

    def test_hashed_polynomial_stays_immutable(self):
        x = A * B
        hash(x)
        for attr in ("terms", "alphabet", "_hash", "other"):
            with pytest.raises(AttributeError):
                setattr(x, attr, None)


    @pytest.mark.parametrize("coeff", ["random_rf", "random_fraction"], ids=["symbolic", "numeric"])
    @pytest.mark.parametrize("seed", range(5))
    def test_lazy_and_eager_of_one_value_hash_alike(self, coeff, seed):
        import random

        rng = random.Random(seed)
        coeff = globals()[coeff]
        pairs = [(coeff(rng), random_poly(rng, AB, coeff)) for _ in range(3)]
        lazy = NcPoly.combine(AB, pairs)
        eager = reference_sum(AB, pairs)
        h = hash(lazy)  # over the words: builds no coefficient
        assert lazy._terms is None and eager._terms is not None
        assert lazy == eager and eager == lazy
        assert h == hash(eager)
        assert {lazy: 1}[eager] == 1 and {eager: 1}[lazy] == 1


class TestEquality:
    """== on two polynomials agrees with comparing their terms, lazy sums
    over one multiset or over different ones and dict-backed operands
    alike."""

    @staticmethod
    def same_values(p):
        """p again as a new lazy sum, a different object with its own form."""
        return NcPoly.combine(p.alphabet, [(1, p)])

    def cases(self, rng):
        base = NcPoly.combine(AB, [(random_rf(rng), random_poly(rng, AB, random_rf)) for _ in range(3)])
        q = SYMBOLIC.q_pow(1)
        unit = SYMBOLIC.qnum(3) / SYMBOLIC.qnum(3)  # 1 over a larger multiset
        yield base, self.same_values(base), True
        yield base, NcPoly.combine(AB, [(q, base)]), False  # the scaled-by-q control
        yield NcPoly.combine(AB, [(q, base)]), NcPoly.combine(AB, [(q, self.same_values(base))]), True
        yield base, NcPoly.combine(AB, [(unit, base)]), True  # equal over different multisets
        yield base, NcPoly.combine(AB, [(-1, base), (2, base)]), True
        yield base, NcPoly.combine(AB, [(1, base), (q, A * B)]), False  # one more word
        yield base, NcPoly(AB, dict(base.terms)), True  # a dict-backed operand
        yield base, base + A * A - A * A, True
        yield base, NcPoly.combine(AB, [(1, base), (-1, base)]), False

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_comparing_terms(self, seed):
        import random

        for p, r, want in self.cases(random.Random(seed)):
            assert (p == r) is want and (r == p) is want
            assert (p.terms == r.terms) is want

    def test_equal_values_over_different_multisets_compare_terms(self):
        import random

        rng = random.Random(3)
        base = NcPoly.combine(AB, [(random_rf(rng), random_poly(rng, AB, random_rf)) for _ in range(3)])
        unit = SYMBOLIC.qnum(3) / SYMBOLIC.qnum(3)
        other = NcPoly.combine(AB, [(unit, base)])
        assert other._ints[0] != base._ints[0]
        assert other == base and other._terms is not None and base._terms is not None


class TestJson:
    def test_documented_form(self):
        data = {"alphabet": ["A", "B"], "terms": [{"word": ["B"], "coeff": 1}]}
        assert ncpoly_from_json(data) == B

    def test_empty_terms_is_zero(self):
        assert ncpoly_from_json({"alphabet": ["A", "B"], "terms": []}).is_zero

    def test_unknown_letter(self):
        data = {"alphabet": ["A", "B"], "terms": [{"word": ["C"], "coeff": 1}]}
        with pytest.raises(ParseError):
            ncpoly_from_json(data)

    def test_bit_exact_roundtrip(self):
        p = (
            SYMBOLIC.qnum(2) * (A * B * A)
            - (SYMBOLIC.one() / SYMBOLIC.qnum(1)) * (B * B)
            + 3 * NcPoly.one(AB)
        )
        blob = json.dumps(ncpoly_to_json(p), sort_keys=True)
        again = ncpoly_from_json(json.loads(blob))
        assert again == p
        assert json.dumps(ncpoly_to_json(again), sort_keys=True) == blob

    def test_numeric_mode_parse(self):
        mode = NumericQ(2)
        data = {"alphabet": ["A"], "terms": [{"word": ["A"], "coeff": "3/2"}]}
        p = ncpoly_from_json(data, mode)
        assert p.terms == {(0,): Fraction(3, 2)}


def reference_sum(alphabet, pairs):
    """Sum of c * P by scaled and +, the oracle for combine."""
    out = NcPoly.zero(alphabet)
    for c, p in pairs:
        out = out + p.scaled(c)
    return out


def random_poly(rng, alphabet, coeff, size=6):
    words = [tuple(rng.randrange(len(alphabet)) for _ in range(rng.randrange(4)))
             for _ in range(size)]
    return NcPoly(alphabet, {w: coeff(rng) for w in words})


def random_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6, 9, 25, 27, 125]))


def random_rf(rng):
    """A nonzero Q(q) value: a rational times a power of q over a product of
    q-numbers, plus a q-integer, so its cyclotomic multiset varies."""
    x = RationalFunctionQ.from_fraction(random_fraction(rng) or Fraction(5, 2))
    x = x * SYMBOLIC.q_pow(rng.randint(-3, 3))
    for _ in range(rng.randint(0, 2)):
        x = x / SYMBOLIC.qnum(rng.randint(1, 5))
    return x + SYMBOLIC.qint(rng.randint(0, 3)) or SYMBOLIC.one()


class TestCombine:
    """NcPoly.combine is the sum of c * P over (scalar, polynomial) pairs."""

    AXY = Alphabet(["A", "X", "Y"])

    def check(self, pairs):
        got = NcPoly.combine(self.AXY, pairs)
        want = reference_sum(self.AXY, pairs)
        assert got == want
        assert ncpoly_to_json(got) == ncpoly_to_json(want)
        return got

    @pytest.mark.parametrize("seed", range(20))
    def test_numeric_mixed_denominators_int_and_zero_scalars(self, seed):
        import random

        rng = random.Random(seed)
        polys = [random_poly(rng, self.AXY, random_fraction) for _ in range(5)]
        scalars = [random_fraction(rng), rng.randint(-4, 4), 0, Fraction(0), random_fraction(rng)]
        got = self.check(list(zip(scalars, polys)))
        assert all(type(c) is Fraction for c in got.terms.values())

    @pytest.mark.parametrize("seed", range(10))
    def test_numeric_full_cancellation(self, seed):
        import random

        rng = random.Random(seed)
        p, r = (random_poly(rng, self.AXY, random_fraction) for _ in range(2))
        c = random_fraction(rng) or Fraction(1, 7)
        pairs = [(c, p), (3, r), (-c, p), (Fraction(-3, 2), r + r)]
        assert self.check(pairs).is_zero

    def test_empty_pair_list_is_zero(self):
        assert self.check([]).is_zero
        assert NcPoly.combine(self.AXY, [(Fraction(2), NcPoly.zero(self.AXY))]).is_zero

    def test_integer_coefficients(self):
        p = NcPoly(self.AXY, {(0,): 2, (1, 2): -3})
        self.check([(Fraction(1, 2), p), (5, p), (Fraction(-1, 3), NcPoly.one(self.AXY, NumericQ(2)))])

    @pytest.mark.parametrize("seed", range(5))
    def test_symbolic_with_a_non_cyclotomic_rest(self, seed):
        import random

        rng = random.Random(seed)
        odd = rf_from_json({"num": [[0, "2"], [1, "-1"]], "den": [[0, "1"], [1, "-3"], [2, "1"]]})
        assert odd.rest != (1,)

        def coeff(r):
            return RationalFunctionQ.from_fraction(random_fraction(r)) * SYMBOLIC.q_pow(r.randint(-2, 2)) \
                + SYMBOLIC.qnum(r.randint(1, 3))

        polys = [random_poly(rng, self.AXY, coeff, size=4) for _ in range(3)]
        polys.append(NcPoly(self.AXY, {(1,): odd, (0, 1): SYMBOLIC.qnum(2)}))
        scalars = [SYMBOLIC.q_pow(1), 1, SYMBOLIC.one() / SYMBOLIC.qnum(2), odd]
        got = self.check(list(zip(scalars, polys)))
        assert got and all(type(c) is RationalFunctionQ for c in got.terms.values())
        minus = [(-c, p) for c, p in zip(scalars, polys)]
        assert self.check(list(zip(scalars, polys)) + minus).is_zero

    @pytest.mark.parametrize("seed", range(5))
    def test_rests_sum_lazily_over_their_product(self, seed):
        """Values and scalars with rests other than 1 take the one sum: the
        result is lazy, over the product of the distinct rests, and equals
        the per-term reference."""
        import random

        rng = random.Random(seed)
        r1 = rf_from_json({"num": [[0, "2"], [1, "-1"]], "den": [[0, "1"], [1, "-3"], [2, "1"]]})
        r2 = rf_from_json({"num": [[1, "1"]], "den": [[0, "1"], [2, "2"]]})
        assert len({r1.rest, r2.rest, (1,)}) == 3
        polys = [NcPoly(self.AXY, {(1,): r1, (0, 1): random_rf(rng)}),
                 NcPoly(self.AXY, {(1,): r2 * random_rf(rng), (2,): r1 * r2}),
                 random_poly(rng, self.AXY, random_rf)]
        pairs = list(zip([r2, random_rf(rng), r1 / SYMBOLIC.qnum(2)], polys))
        got = NcPoly.combine(self.AXY, pairs)
        assert got._terms is None
        rests = got._ints[1]
        assert rests not in ((1,), r1.rest, r2.rest)
        assert got == reference_sum(self.AXY, pairs)
        assert all(c.rest == rests for c in got.terms.values())
        assert self.check(pairs + [(-c, p) for c, p in pairs]).is_zero

    @pytest.mark.parametrize("seed", range(10))
    def test_numeric_forms_in_a_symbolic_sum(self, seed):
        """A polynomial with rational coefficients has the numeric form; in a
        sum with symbolic scalars or forms it is lifted as constants."""
        import random

        rng = random.Random(seed)
        numeric = [random_poly(rng, self.AXY, random_fraction) for _ in range(2)]
        assert not any(is_symbolic(p._integer_form()) for p in numeric)
        symbolic = random_poly(rng, self.AXY, random_rf)
        for pairs in ([(random_rf(rng), numeric[0]), (Fraction(2, 3), numeric[1])],
                      [(Fraction(-1, 2), numeric[0]), (3, symbolic), (random_rf(rng), numeric[1])]):
            got = NcPoly.combine(self.AXY, pairs)
            assert got._terms is None and is_symbolic(got._ints)
            assert got == reference_sum(self.AXY, pairs)

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            NcPoly.combine(self.AXY, [(1, A)])

    @pytest.mark.parametrize("seed", range(20))
    def test_symbolic_over_different_multisets_with_mixed_scalars(self, seed):
        import random

        rng = random.Random(seed)
        polys = [random_poly(rng, self.AXY, random_rf) for _ in range(5)]
        scalars = [random_rf(rng), rng.randint(-4, 4), random_fraction(rng) or Fraction(1, 3),
                   0, Fraction(0), SYMBOLIC.zero(), random_rf(rng)]
        polys += [random_poly(rng, self.AXY, random_rf) for _ in range(2)]
        got = self.check(list(zip(scalars, polys)))
        assert all(type(c) is RationalFunctionQ for c in got.terms.values())
        assert len({c.phi for p in polys for c in p.terms.values()}) > 1

    @pytest.mark.parametrize("seed", range(10))
    def test_symbolic_full_cancellation(self, seed):
        import random

        rng = random.Random(seed)
        p, r = (random_poly(rng, self.AXY, random_rf) for _ in range(2))
        c = random_rf(rng)
        # [2]_q = (q^2 - q^-2) / (q - q^-1) = q + q^-1: cancels only over a common denominator
        two = SYMBOLIC.qnum(2) / SYMBOLIC.qnum(1)
        pairs = [(c, p), (two, r), (-c, p), (-SYMBOLIC.q_pow(1), r), (-SYMBOLIC.q_pow(-1), r)]
        assert self.check(pairs).is_zero

    @pytest.mark.parametrize("seed", range(5))
    def test_symbolic_entries_wider_than_64_bits(self, seed):
        import random

        rng = random.Random(seed)
        big = Fraction(rng.choice([-1, 1]) * (2 ** 70 + rng.randrange(2 ** 40)), 3)
        polys = [random_poly(rng, self.AXY, random_rf) for _ in range(3)]
        scalars = [random_rf(rng) * big, big, -random_rf(rng)]
        pairs = list(zip(scalars, polys))
        # packed like any other sum: the result is lazy, no value made
        got = NcPoly.combine(self.AXY, pairs)
        assert got._terms is None
        assert got == reference_sum(self.AXY, pairs)
        self.check(pairs)
        assert self.check(pairs + [(-c, p) for c, p in pairs]).is_zero

    @pytest.mark.parametrize("seed", range(10))
    def test_symbolic_result_feeds_a_second_sum(self, seed):
        import random

        rng = random.Random(seed)
        polys = [random_poly(rng, self.AXY, random_rf) for _ in range(4)]
        scalars = [random_rf(rng) for _ in polys]
        inner = self.check(list(zip(scalars, polys)))
        pairs = [(random_rf(rng), inner), (Fraction(-2, 3), polys[0]), (1, inner)]
        got = NcPoly.combine(self.AXY, pairs)
        inner_by_reference = reference_sum(self.AXY, list(zip(scalars, polys)))
        want = reference_sum(self.AXY, [(c, inner_by_reference if p is inner else p) for c, p in pairs])
        assert got == want
        assert ncpoly_to_json(got) == ncpoly_to_json(want)


class TestShiftKeepsTheIntegerForm:
    """A word shift hands a polynomial's kept integer form on, in both modes."""

    @pytest.mark.parametrize("coeff", [random_rf, random_fraction], ids=["symbolic", "numeric"])
    @pytest.mark.parametrize("seed", range(5))
    def test_carried_form_is_the_form_of_the_product(self, coeff, seed):
        import random

        rng = random.Random(seed)
        mode = SYMBOLIC if coeff is random_rf else NumericQ(2)
        p = random_poly(rng, AB, coeff)
        form = p._integer_form()
        assert form is not None
        a = NcPoly.generator(AB, "A", mode)
        for product in (a * p, p * a):
            assert product._integer_form() is form
            assert product._integer_form() == NcPoly(AB, dict(product.terms))._integer_form()

    def test_no_form_is_made_for_a_polynomial_without_one(self):
        p = NcPoly(AB, {(0, 1): SYMBOLIC.qnum(2), (1,): SYMBOLIC.q_pow(-1)})
        for product in (A * p, p * A, B * B * p):
            assert product._ints is None
        assert p._ints is None


def rebuilt(form):
    """The values a kept integer form stands for, rebuilt on their own: nums[i]
    / D for a numeric form (D, nums), and q^offsets[i] * vectors[i] / (D *
    prod Phi_d^phi[d-1] * rest) for a symbolic one, each Phi_d taken from
    sympy, the vectors read through form_vectors."""
    if not is_symbolic(form):
        d, nums = form
        return [Fraction(n, d) for n in nums]
    import sympy as sp

    phi, rest, d, offsets = form[:4]
    vectors = form_vectors(form)
    q = sp.Symbol("q")
    den = sp.Poly(sp.prod([sp.cyclotomic_poly(i + 1, q) ** e for i, e in enumerate(phi)])
                  * sum(c * q ** i for i, c in enumerate(rest)), q)
    den = LaurentPoly(0, [Fraction(int(c)) for c in reversed(den.all_coeffs())])
    return [RationalFunctionQ(LaurentPoly(off, [Fraction(v, d) for v in vec]), den)
            for off, vec in zip(offsets, vectors)]


class TestSumKeepsItsForm:
    """combine hands its result the result's own integer form, which the next
    sum and every product over the result read instead of making it again."""

    AXY = Alphabet(["A", "X", "Y"])

    def summed(self, rng, coeff):
        pairs = [(coeff(rng) or 1, random_poly(rng, self.AXY, coeff)) for _ in range(4)]
        got = NcPoly.combine(self.AXY, pairs)
        assert got == reference_sum(self.AXY, pairs)
        return got

    @pytest.mark.parametrize("coeff", [random_rf, random_fraction], ids=["symbolic", "numeric"])
    @pytest.mark.parametrize("seed", range(10))
    def test_form_rebuilds_the_coefficients(self, coeff, seed, monkeypatch):
        """The sum's form rebuilds its values, its height is exact, and it
        keeps the packed vectors at the width the sum ran at."""
        import random

        formats = []
        unpacked = qcoeff.unpacked_form

        def spy(items, phi, rest, m, digits):
            formats.append(digits)
            return unpacked(items, phi, rest, m, digits)

        monkeypatch.setattr(qcoeff, "unpacked_form", spy)
        got = self.summed(random.Random(seed), coeff)
        form = got._ints  # set by the sum, not made on request
        assert form
        assert rebuilt(form) == list(got.terms.values())
        if is_symbolic(form):
            phi, rest, _, _, _, height, packs = form
            vectors = form_vectors(form)
            assert height == max(max(map(abs, v)) for v in vectors)
            assert all(c.phi == phi and c.rest == rest for c in got.terms.values())
            digits = formats[0]  # the combine above; the reference sum packs nothing
            assert packs == (digits[0], [pack(v, digits) for v in vectors])

    @pytest.mark.parametrize("coeff", [random_rf, random_fraction], ids=["symbolic", "numeric"])
    @pytest.mark.parametrize("seed", range(10))
    def test_result_feeds_a_second_sum_and_products(self, coeff, seed):
        import random

        rng = random.Random(seed)
        inner = self.summed(rng, coeff)
        p = random_poly(rng, self.AXY, coeff)
        pairs = [(coeff(rng) or 1, inner), (Fraction(-2, 3), p), (1, inner)]
        assert NcPoly.combine(self.AXY, pairs) == reference_sum(self.AXY, pairs)
        assert inner * p == expanded_product(inner, p)
        assert p * inner == expanded_product(p, inner)
        if coeff is random_rf:  # the sums above packed inner's form at least once
            assert inner._ints[6] is not None

    @staticmethod
    def small_poly(rng, alphabet):
        """Coefficients k q^j with |k| <= 3, so every sum over them runs at
        16-bit digits."""
        return NcPoly(alphabet, {tuple(rng.randrange(3) for _ in range(rng.randrange(4))):
                                 rng.choice([-3, -2, -1, 1, 2, 3]) * SYMBOLIC.q_pow(rng.randint(-2, 2))
                                 for _ in range(5)})

    @pytest.mark.parametrize("seed", range(10))
    def test_sum_of_sums_packs_only_multipliers_and_new_forms(self, seed, monkeypatch):
        """A sum reads the packs a sum at its width kept: it packs one
        multiplier per pair and the vectors of forms that no sum made."""
        import random

        rng = random.Random(seed)
        inner = [NcPoly.combine(self.AXY, [(SYMBOLIC.q_pow(rng.randint(-2, 2)) * rng.randint(1, 3),
                                            self.small_poly(rng, self.AXY)) for _ in range(3)])
                 for _ in range(2)]
        p = self.small_poly(rng, self.AXY)
        p._integer_form()  # lifted here, so only the sum below packs it
        assert all(q._ints[6][0] == 16 for q in inner)
        pairs = [(SYMBOLIC.q_pow(1), inner[0]), (-2, inner[1]), (SYMBOLIC.q_pow(-1), p),
                 (3, inner[0])]
        calls, widths = [], []
        packer, unpacked = qcoeff.pack, qcoeff.unpacked_form

        def counted(cs, digits):
            calls.append(len(cs))
            return packer(cs, digits)

        def spy(items, phi, rest, m, digits):
            widths.append(digits[0])
            return unpacked(items, phi, rest, m, digits)

        monkeypatch.setattr(qcoeff, "pack", counted)
        monkeypatch.setattr(qcoeff, "unpacked_form", spy)
        got = NcPoly.combine(self.AXY, pairs)
        monkeypatch.undo()
        assert widths == [16]
        assert len(calls) == len(pairs) + len(p._words)
        assert got == reference_sum(self.AXY, pairs)

    def test_form_read_wider_than_it_was_made_is_packed_again(self):
        """A sum at another width unpacks the kept vectors first, then packs
        them at its width in their place; a sum back at the first width
        packs them again."""
        import random

        rng = random.Random(4)
        parts = [(random_rf(rng), self.small_poly(rng, self.AXY)) for _ in range(3)]
        inner = NcPoly.combine(self.AXY, parts)
        form = inner._ints
        w0, kept = form[6]
        assert w0 < 64 and form[4] is None
        for pairs, width in (([(2 ** 40, inner), (SYMBOLIC.q_pow(1), inner)], 64),
                             ([(SYMBOLIC.q_pow(1), inner)], w0)):
            got = NcPoly.combine(self.AXY, pairs)
            assert got == reference_sum(self.AXY, pairs)
            digits = _digits((1 << (width - 1)) - 1)
            assert form[6] == (width, [pack(v, digits) for v in form_vectors(form)])
        assert form[6][1] == kept
        assert inner == reference_sum(self.AXY, parts)

    @pytest.mark.parametrize("seed", range(10))
    def test_sum_of_sums_unpacks_nothing_until_a_coefficient_is_read(self, seed, monkeypatch):
        """A sum's form holds its packed values alone; its height takes no
        unpack, and its vectors are unpacked when terms is first read."""
        import random

        rng = random.Random(seed)
        calls = []
        unpack = qcoeff.unpack

        def counted(*args):
            calls.append(args)
            return unpack(*args)

        monkeypatch.setattr(qcoeff, "unpack", counted)
        inner = [NcPoly.combine(self.AXY, [(SYMBOLIC.q_pow(rng.randint(-2, 2)) * rng.randint(1, 3),
                                            self.small_poly(rng, self.AXY)) for _ in range(3)])
                 for _ in range(2)]
        pairs = [(SYMBOLIC.q_pow(1), inner[0]), (-2, inner[1]), (3, inner[0])]
        got = NcPoly.combine(self.AXY, pairs)
        for p in inner + [got]:
            assert p._terms is None and p._ints[4] is None
        assert got == reference_sum(self.AXY, pairs)
        assert got._ints[4] is not None and calls == []

    @pytest.mark.parametrize("seed", range(10))
    def test_product_reads_its_multipliers_from_the_left_form(self, seed):
        """P * Q for a sum P not yet read is the expanded product."""
        import random

        rng = random.Random(seed)
        left = self.summed(rng, random_rf)
        left = NcPoly.combine(self.AXY, [(random_rf(rng), left)])  # a sum not yet read
        right = random_poly(rng, self.AXY, random_rf)
        got = left * right
        assert got == expanded_product(left, right)


class TestZeroCoefficientsVanish:
    """The public constructors drop a zero coefficient they are given."""

    def test_constructor(self):
        assert NcPoly(AB, {(0,): Fraction(0), (1,): Fraction(2)}).terms == {(1,): 2}
        assert NcPoly(AB, {(0,): SYMBOLIC.qnum(0)}).is_zero

    def test_monomial(self):
        assert NcPoly.monomial(AB, (0, 1), Fraction(0)).is_zero
        assert NcPoly.monomial(AB, (0, 1), SYMBOLIC.zero()).is_zero

    def test_map_coeffs(self):
        p = NcPoly(AB, {(0,): Fraction(2), (1,): Fraction(3)})
        assert p.map_coeffs(lambda c: c - 2).terms == {(1,): 1}

    @pytest.mark.parametrize("mode", [SYMBOLIC, NumericQ(2)], ids=["symbolic", "numeric"])
    def test_ncpoly_from_json(self, mode):
        data = {"alphabet": ["A", "B"],
                "terms": [{"word": ["A"], "coeff": "0"}, {"word": ["B"], "coeff": "0/5"},
                          {"word": [], "coeff": {"num": [], "den": [[0, "1"]]}}]}
        assert ncpoly_from_json(data, mode).is_zero


# ---------------------------------------------------------------------------
# sympy oracle for P + Q, P - Q and P * Q
# ---------------------------------------------------------------------------

AXY = Alphabet(["A", "X", "Y"])
AXY_WORDS = [w for n in range(4) for w in itertools.product(range(3), repeat=n)]
Q0 = Fraction(5, 3)


def random_coeff(rng, sp, q):
    """One coefficient three ways: (RationalFunctionQ, sympy expression, its
    Fraction value at q = Q0), each built on its own.  It is a Fraction, a
    power of q, a product of 1/(q^n - q^-n), or a product of these."""
    kinds = rng.choice([("frac",), ("pow",), ("inv",), ("frac", "pow"), ("frac", "inv"),
                        ("pow", "inv"), ("frac", "pow", "inv", "inv")])
    x, e, v = SYMBOLIC.one(), sp.Integer(1), Fraction(1)
    for kind in kinds:
        if kind == "frac":
            f = random_fraction(rng) or Fraction(7, 2)
            x, e, v = x * f, e * sp.Rational(f.numerator, f.denominator), v * f
        elif kind == "pow":
            n = rng.choice([-3, -2, -1, 1, 2, 3])
            x, e, v = x * SYMBOLIC.q_pow(n), e * q**n, v * Q0**n
        else:
            n = rng.randint(1, 4)
            x, e, v = x / SYMBOLIC.qnum(n), e / (q**n - q**-n), v / (Q0**n - Q0**-n)
    return x, e, v


def oracle_operands(seed, sp, q):
    """Two random polynomials over {A, X, Y} of 1-6 terms, each as
    (symbolic NcPoly, numeric NcPoly at Q0, {word: sympy}, {word: Fraction}).
    Every third seed puts one coefficient over q - 2 into one of them, a
    value with no cyclotomic form."""
    import random

    rng = random.Random(seed)
    out = []
    for _ in range(2):
        words = rng.sample(AXY_WORDS, rng.randint(1, 6))
        triples = [random_coeff(rng, sp, q) for _ in words]
        out.append([words, triples])
    if seed % 3 == 0:
        words, triples = out[rng.randrange(2)]
        i = rng.randrange(len(words))
        x, e, v = triples[i]
        triples[i] = (x / (SYMBOLIC.q_pow(1) - 2), e / (q - 2), v / (Q0 - 2))
    return [(NcPoly(AXY, {w: x for w, (x, _, _) in zip(words, ts)}),
             NcPoly(AXY, {w: v for w, (_, _, v) in zip(words, ts)}),
             {w: e for w, (_, e, _) in zip(words, ts)},
             {w: v for w, (_, _, v) in zip(words, ts)}) for words, ts in out]


def oracle_result(op, p, r):
    """op on {word: coefficient} maps, summed word by word without NcPoly."""
    out: dict = {}
    if op == "*":
        for u, c in p.items():
            for v, d in r.items():
                out[u + v] = out.get(u + v, 0) + c * d
        return out
    sign = 1 if op == "+" else -1
    for w, c in p.items():
        out[w] = out.get(w, 0) + c
    for w, d in r.items():
        out[w] = out.get(w, 0) + sign * d
    return out


OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


class TestArithmeticOracle:
    """P + Q, P - Q and P * Q against sympy's cancelled word sums
    sum_{u.v = w} c_u d_v (symbolic) and plain Fractions at q = 5/3 (numeric).
    Neither oracle uses NcPoly or qcoeff arithmetic."""

    @pytest.mark.parametrize("op", ["+", "-", "*"])
    @pytest.mark.parametrize("seed", range(24))
    def test_symbolic_against_sympy(self, op, seed):
        sp = pytest.importorskip("sympy")
        q = sp.Symbol("q")

        def as_sympy(x):
            return sum((sp.Rational(c.numerator, c.denominator) * q**e for e, c in x.num.terms()),
                       sp.Integer(0)) / sum((sp.Rational(c.numerator, c.denominator) * q**e
                                             for e, c in x.den.terms()), sp.Integer(0))

        (p, _, pe, _), (r, _, re_, _) = oracle_operands(seed, sp, q)
        got = OPS[op](p, r)
        want = oracle_result(op, pe, re_)
        nonzero = {w for w, e in want.items() if sp.cancel(sp.together(e)) != 0}
        lazy = self.read_words_first(got, nonzero)
        if op == "*" and seed % 3 and p._unit_word() is None is r._unit_word():
            assert lazy  # a product with integer forms and no unit-word factor
        assert all(type(c) is RationalFunctionQ and c for c in got.terms.values())
        for w in set(want) | set(got.terms):
            x = got.terms.get(w)
            diff = (as_sympy(x) if x is not None else 0) - want.get(w, 0)
            assert sp.cancel(sp.together(diff)) == 0, (op, seed, AXY.spell(w))

    @pytest.mark.parametrize("op", ["+", "-", "*"])
    @pytest.mark.parametrize("seed", range(24))
    def test_numeric_against_fractions(self, op, seed):
        sp = pytest.importorskip("sympy")
        (_, p, _, pv), (_, r, _, rv) = oracle_operands(seed, sp, sp.Symbol("q"))
        got = OPS[op](p, r)
        want = {w: c for w, c in oracle_result(op, pv, rv).items() if c}
        lazy = self.read_words_first(got, set(want))
        if op == "*" and p._unit_word() is None is r._unit_word():
            assert lazy
        assert got.terms == want

    @staticmethod
    def read_words_first(got, nonzero):
        """is_zero and support() of got, read before its terms, match the
        oracle's nonzero words and build no coefficient; the terms then list
        the support in its order.  Returns whether got was lazy."""
        lazy = got._terms is None
        assert got.is_zero == (not nonzero) and set(got.support()) == nonzero
        assert (got._terms is None) == lazy
        support = list(got.support())
        assert list(got.terms) == support
        return lazy
