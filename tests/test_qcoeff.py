"""Coefficient field: canonical forms, exact arithmetic, evaluation."""

import random
from array import array
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qonsager import qcoeff
from qonsager.adjoint import ImageCache
from qonsager.errors import DivisionByZero, InvalidQ, PoleAtPoint
from qonsager.freealg import Alphabet, NcPoly
from qonsager.qcoeff import (
    _LOOP_MAX_PRODUCTS,
    LaurentPoly,
    NumericQ,
    RationalFunctionQ,
    SYMBOLIC,
    _convolve,
    _convolve_loop,
    _digits,
    _exact_div_int,
    _norm,
    _primitive_gcd,
    form_values,
    form_vectors,
    laurent_from_json,
    laurent_to_json,
    lifted_form,
    lifted_sum,
    pack,
    qint,
    rf_from_json,
    rf_to_json,
    unpack,
    unpacked_form,
)

Q = SYMBOLIC.q_pow


def laurent_divide(num_terms, den_terms):
    """Independent long-division oracle for exactly divisible Laurent pairs.

    Works on (exponent, coefficient) dictionaries; returns the quotient
    terms or None when the division is inexact.
    """
    num = dict(num_terms)
    den = dict(den_terms)
    dmax = max(den)
    out = {}
    while num:
        nmax = max(num)
        c = Fraction(num[nmax], 1) / den[dmax]
        e = nmax - dmax
        out[e] = c
        for de, dc in den.items():
            k = de + e
            num[k] = num.get(k, Fraction(0)) - c * dc
            if not num[k]:
                del num[k]
    return out


class TestQint:
    def test_zero_and_one(self):
        assert qint(0) == RationalFunctionQ.zero()
        assert qint(1) == RationalFunctionQ.one()

    def test_three(self):
        assert qint(3) == Q(2) + 1 + Q(-2)

    def test_negation_symmetry(self):
        for n in range(1, 8):
            assert qint(-n) == -qint(n)

    def test_defining_quotient(self):
        for n in range(-12, 13):
            assert qint(n) * (Q(1) - Q(-1)) == Q(n) - Q(-n)


class TestArithmetic:
    def test_add_example(self):
        assert Q(1) + Q(-1) == RationalFunctionQ.from_laurent(
            LaurentPoly.from_terms([(1, 1), (-1, 1)])
        )

    def test_div_against_long_division_oracle(self):
        expected = laurent_divide({2: Fraction(1), -2: Fraction(-1)},
                                  {1: Fraction(1), -1: Fraction(-1)})
        assert expected == {1: Fraction(1), -1: Fraction(1)}
        assert (Q(2) - Q(-2)) / (Q(1) - Q(-1)) == Q(1) + Q(-1)

    def test_mul_by_zero_annihilates(self):
        x = (Q(3) + 7) / (Q(1) - Q(-1))
        assert x * RationalFunctionQ.zero() == RationalFunctionQ.zero()

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            RationalFunctionQ.one() / RationalFunctionQ.zero()

    def test_gcd_cancellation_is_structural(self):
        x = (Q(2) - Q(-2)) / ((Q(1) - Q(-1)) * (Q(1) + Q(-1)))
        assert x == RationalFunctionQ.one()

    def test_canonical_denominator_shape(self):
        x = RationalFunctionQ.one() / (Q(1) - Q(-1))
        # q-power shift lives in the numerator; denominator is an ordinary
        # integer polynomial with nonzero constant term
        assert x.den.offset == 0
        assert x.den.scale == 1
        assert all(c.denominator == 1 for _, c in x.den.terms())

    def test_field_operations(self):
        x, y = Q(2) + 1, Q(1) - Q(-1)
        assert x.__add__(y) == y + x
        assert x.__sub__(y) == x + (-y)
        assert x.__mul__(y) == y * x
        assert x.__truediv__(y) * y == x
        assert x.__neg__() + x == RationalFunctionQ.zero()
        with pytest.raises(DivisionByZero):
            x.__truediv__(RationalFunctionQ.zero())


class TestCanonicalIdempotence:
    def test_rebuilding_from_parts_is_identity(self):
        samples = [
            (Q(2) + 3) / (Q(1) - Q(-1)),
            (Q(-5) - Q(3)) / (Q(2) + Q(-2) + 1),
            qint(7) / qint(5),
        ]
        for x in samples:
            again = RationalFunctionQ(x.num, x.den)
            assert (again.num, again.phi, again.rest) == (x.num, x.phi, x.rest)
            c = x.canonical()
            cc = c.canonical()
            assert (cc.num, cc.phi, cc.rest) == (c.num, c.phi, c.rest)


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
).filter(lambda f: True)


def rfq_values(draw_terms=3):
    exps = st.integers(min_value=-3, max_value=3)
    term = st.tuples(exps, small_rationals)
    num = st.lists(term, min_size=0, max_size=draw_terms).map(LaurentPoly.from_terms)
    den = st.lists(term, min_size=1, max_size=draw_terms).map(
        LaurentPoly.from_terms
    ).filter(lambda p: not p.is_zero)
    return st.builds(RationalFunctionQ, num, den)


class TestFieldAxioms:
    @settings(max_examples=60, deadline=None)
    @given(rfq_values(), rfq_values(), rfq_values())
    def test_distributivity(self, x, y, z):
        assert (x + y) * z == x * z + y * z

    @settings(max_examples=60, deadline=None)
    @given(rfq_values(), rfq_values())
    def test_sub_then_add_roundtrip(self, x, y):
        assert (x - y) + y == x

    @settings(max_examples=40, deadline=None)
    @given(rfq_values(), rfq_values())
    def test_division_roundtrip(self, x, y):
        if not y.is_zero:
            assert (x / y) * y == x


class TestEvalAt:
    def test_qint_example(self):
        assert qint(3).eval_at(2) == Fraction(21, 4)

    def test_forbidden_points(self):
        for bad in (0, 1, -1):
            with pytest.raises(InvalidQ):
                (Q(1) - Q(-1)).eval_at(bad)

    def test_simple_pole_free_value(self):
        x = RationalFunctionQ.one() / (Q(1) - Q(-1))
        q0 = Fraction(7, 3)
        assert x.eval_at(q0) == 1 / (q0 - 1 / q0)

    def test_pole_detection(self):
        x = RationalFunctionQ.one() / (Q(1) - 2)
        with pytest.raises(PoleAtPoint):
            x.eval_at(2)

    @settings(max_examples=40, deadline=None)
    @given(rfq_values(), rfq_values())
    def test_multiplicativity(self, x, y):
        q0 = Fraction(5, 2)
        try:
            vx, vy, vxy = x.eval_at(q0), y.eval_at(q0), (x * y).eval_at(q0)
        except PoleAtPoint:
            return
        assert vxy == vx * vy


class TestModes:
    def test_numeric_rejects_forbidden_q(self):
        for bad in (0, 1, -1):
            with pytest.raises(InvalidQ):
                NumericQ(bad)

    def test_modes_agree_through_evaluation(self):
        num = NumericQ(Fraction(3, 2))
        for n in (-5, -1, 0, 2, 7):
            assert SYMBOLIC.q_pow(n).eval_at(num.q0) == num.q_pow(n)
            if n:
                assert SYMBOLIC.qnum(n).eval_at(num.q0) == num.qnum(n)
            assert SYMBOLIC.qint(n).eval_at(num.q0) == num.qint(n)

    def test_numeric_powers_are_memoized_per_mode(self):
        q0 = Fraction(5, 3)
        num = NumericQ(q0)
        for n in (-4, -1, 0, 1, 3):
            assert num.q_pow(n) == q0 ** n
            assert num.qnum(n) == q0 ** n - q0 ** (-n)
            assert num.q_pow(n) is num.q_pow(n)
            assert num.qnum(n) is num.qnum(n)
        other = NumericQ(2)  # a memo held by one mode is not read by another
        assert other.q_pow(3) == 8 and other.qnum(1) == Fraction(3, 2)
        assert num.q_pow(3) == q0 ** 3


class TestJson:
    def test_laurent_roundtrip(self):
        p = LaurentPoly.from_terms([(-2, Fraction(1, 3)), (0, -2), (5, 7)])
        assert laurent_from_json(laurent_to_json(p)) == p
        assert laurent_to_json(p) == [[-2, "1/3"], [0, "-2"], [5, "7"]]

    def test_rf_roundtrip(self):
        x = (Q(2) + 3) / (Q(1) - Q(-1))
        data = rf_to_json(x)
        assert rf_from_json(data) == x


def _expression_trees():
    """Random field expressions over small Laurent-polynomial leaves."""
    term = st.tuples(st.integers(min_value=-4, max_value=4), small_rationals)
    leaf = st.lists(term, min_size=1, max_size=4).map(lambda ts: ("leaf", ts))
    return st.recursive(
        leaf,
        lambda kids: st.tuples(st.sampled_from("+-*/"), kids, kids),
        max_leaves=6,
    )


def _evaluate(tree, q):
    """The tree as (RationalFunctionQ, sympy expression); x/0 is read as x."""
    if tree[0] == "leaf":
        terms = tree[1]
        return (
            RationalFunctionQ.from_laurent(LaurentPoly.from_terms(terms)),
            sum((c * q**e for e, c in terms), 0),
        )
    op, (x, sx), (y, sy) = tree[0], _evaluate(tree[1], q), _evaluate(tree[2], q)
    if op == "+":
        return x + y, sx + sy
    if op == "-":
        return x - y, sx - sy
    if op == "*":
        return x * y, sx * sy
    if y.is_zero:
        return x, sx
    return x / y, sx / sy


def test_canonical_form_matches_sympy_cancel():
    """num/den equal sympy.cancel of the same expression after normalisation.

    sympy shares no code with qcoeff.  Its reduced denominator, stripped of
    its power of q, made primitive and given a positive leading coefficient,
    must be the canonical denominator coefficient for coefficient; the
    numerator must then be the same Laurent polynomial.
    """
    sp = pytest.importorskip("sympy")
    q = sp.Symbol("q")

    def as_sympy(p):
        return sum((sp.Rational(c.numerator, c.denominator) * q**e
                    for e, c in p.terms()), sp.Integer(0))

    @settings(max_examples=100, deadline=None)
    @given(_expression_trees())
    def check(tree):
        value, expr = _evaluate(tree, q)
        value = value.canonical()
        num, den = sp.fraction(sp.cancel(sp.together(expr)))
        dpoly = sp.Poly(den, q)
        low = min(m[0] for m in dpoly.monoms())
        _, prim = sp.Poly(sp.expand(den / q**low), q).primitive()
        if prim.LC() < 0:
            prim = -prim
        expected = tuple(int(c) for c in reversed(prim.all_coeffs()))
        assert value.den.offset == 0 and value.den.scale == 1
        assert value.den.coeffs == expected
        den_ours = as_sympy(value.den)
        assert sp.expand(sp.cancel(num * den_ours / den) - as_sympy(value.num)) == 0

    check()


# ---------------------------------------------------------------------------
# big-integer kernels against the loop references they replace
# ---------------------------------------------------------------------------

# the balanced ranges 2^(w-1) of the digit widths w = 16, 32, 64 and 128
HALVES = [1 << 15, 1 << 31, 1 << 63, 1 << 127]

# entries just below, at and just above the balanced range of each digit
# width, so the products and gcds below reach every width
EDGES = [
    e + d
    for half in HALVES
    for e in (half // 2, half)
    for d in (-1, 0, 1)
]


def _primitive(cs):
    g = gcd(*cs)
    return [c // g for c in cs]


def _random_vector(rng, length, size):
    out = [rng.randint(-size, size) for _ in range(length)]
    out[0] = out[0] or 1
    out[-1] = out[-1] or -1
    return out


def _alternating(x, n):
    return [x if i % 2 == 0 else -x for i in range(n)]


class TestCodec:
    """pack is the value at xi = 2^w, unpack inverts it, at every width."""

    WIDTHS = [16, 32, 64, 128, 192]

    @staticmethod
    def vectors(rng, w):
        half = 1 << (w - 1)
        yield [-half, half - 1, 0, -1, 1]
        yield [0, 0, 5, 0, 0]
        yield [half - 1]
        for _ in range(20):
            yield [rng.randrange(-half, half) for _ in range(rng.randrange(1, 12))]

    @pytest.mark.parametrize("w", WIDTHS)
    def test_pack_is_the_value_at_two_to_the_w(self, w):
        digits = _digits((1 << (w - 1)) - 1)
        assert digits[0] == w
        for cs in self.vectors(random.Random(w), w):
            assert pack(cs, digits) == sum(c << (w * i) for i, c in enumerate(cs))

    @pytest.mark.parametrize("w", WIDTHS)
    def test_unpack_inverts_pack(self, w):
        digits = _digits((1 << (w - 1)) - 1)
        for cs in self.vectors(random.Random(w), w):
            v = pack(cs, digits)
            assert unpack(v, digits, len(cs)) == cs
            assert unpack(v, digits, len(cs) + 2) == cs + [0, 0]
            # by default as many digits as v needs, at most one leading 0
            out = unpack(v, digits)
            top = max((i for i, c in enumerate(cs) if c), default=0)
            assert top < len(out) <= top + 2
            assert out == (cs + [0] * len(out))[:len(out)]

    @pytest.mark.parametrize("w", WIDTHS)
    def test_array_typecode_of_the_digit_width(self, w):
        code = _digits((1 << (w - 1)) - 1)[1]
        if w <= 64:
            assert array(code).itemsize * 8 == w
        else:
            assert code is None


class TestUnpackedForm:
    """unpacked_form shifts the zero low digits off a packed value and keeps
    what is left as the packed vector of its trimmed digits; the vectors are
    unpacked only when form_vectors first reads them."""

    @pytest.mark.parametrize("w", [16, 32, 64, 128])
    def test_low_digit_trim_is_the_pack_of_the_trimmed_vector(self, w):
        rng = random.Random(w)
        digits = _digits((1 << (w - 1)) - 1)
        half = 1 << (w - 1)
        items, want = [], []
        for i in range(40):
            cs = [rng.randrange(-half, half) for _ in range(rng.randrange(0, 6))]
            lowest = -rng.randrange(1, half + 1) if i % 2 else rng.choice([-half, -1, 1, half - 1])
            cs = [lowest] + cs
            while not cs[-1]:
                cs.pop()
            low, high = rng.randrange(4), rng.randrange(3)
            items.append((i, i - 5, pack([0] * low + cs + [0] * high, digits)))
            want.append((i - 5 + low, tuple(cs)))
        keys, form = unpacked_form(items, (0, 1), (2, 0, 1), 3, digits)
        _, rest, m, offsets, unread, height, packs = form
        assert unread is None
        vectors = form_vectors(form)
        assert keys == tuple(range(40)) and rest == (2, 0, 1) and m == 3
        assert list(zip(offsets, vectors)) == want
        assert height == max(map(_norm, vectors))
        assert packs == (w, [pack(v, digits) for v in vectors])
        assert form_vectors(form) is vectors  # unpacked once, then kept

    @pytest.mark.parametrize("w", [16, 32, 64, 128, 192])
    def test_height_from_one_decode_is_the_largest_digit(self, w):
        """The height read from all the values' digits at once is the
        largest |digit| of any of them, also when a digit is -2^(w-1), at
        the top of a value or inside it."""
        rng = random.Random(w)
        digits = _digits((1 << (w - 1)) - 1)
        half = 1 << (w - 1)
        for trial in range(12):
            vectors = [[-half], [5, -half], [-half, 0, 1]] if trial % 3 == 0 else []
            for _ in range(rng.randrange(1, 10)):
                top = 1 << rng.randrange(1, w)  # heights of every size up to the width
                cs = [rng.randrange(-top, top) for _ in range(rng.randrange(1, 7))]
                cs[0], cs[-1] = cs[0] or 1, cs[-1] or -1
                vectors.append(cs)
            packed = [pack(cs, digits) for cs in vectors]
            _, form = unpacked_form([(i, 0, v) for i, v in enumerate(packed)], (), (1,), 1, digits)
            want = max(map(_norm, vectors))
            assert form[5] == want
            assert form[5] == max(_norm(unpack(v, digits)) for v in packed)
            assert form[5] == max(map(_norm, form_vectors(form)))
            assert list(form_vectors(form)) == [tuple(cs) for cs in vectors]

    @pytest.mark.parametrize("w", [16, 64, 192])
    def test_empty_sum(self, w):
        digits = _digits((1 << (w - 1)) - 1)
        keys, form = unpacked_form([], (), (1,), 1, digits)
        assert keys == () and form[5] == 0 and form[6] == (w, [])
        assert form_vectors(form) == () and form_values(form) == []


class TestKroneckerProduct:
    # 9 x 9 entries pass _LOOP_MAX_PRODUCTS; the middle product entry is
    # 9 x e, the bound itself, so e = (half - 1) // 9 fills a width exactly
    FACTORS = EDGES + [
        f for half in HALVES for f in ((half - 1) // 9, (half - 1) // 9 + 1)
    ]
    CASES = [
        (_alternating(e, 9), _alternating(s, 9)) for e in FACTORS for s in (1, -1)
    ] + [
        ([-e] + [0] * 7 + [e - 1], [3, -2, 0, 0, 0, 0, 0, 0, 1, 5]) for e in EDGES
    ]

    @pytest.mark.parametrize("a,b", CASES)
    def test_matches_loop(self, a, b):
        assert _convolve(a, b) == _convolve_loop(a, b)
        assert _convolve(b, a) == _convolve_loop(a, b)

    def test_every_width_runs_packed(self, monkeypatch):
        assert all(len(a) * len(b) > _LOOP_MAX_PRODUCTS for a, b in self.CASES)
        reached = {
            _digits(min(len(a), len(b)) * _norm(a) * _norm(b))[0] for a, b in self.CASES
        }
        assert reached == {16, 32, 64, 128, 192}
        want = [_convolve_loop(a, b) for a, b in self.CASES]

        def no_loop(a, b):
            raise AssertionError("a long product took the loop")

        monkeypatch.setattr(qcoeff, "_convolve_loop", no_loop)
        assert [_convolve(a, b) for a, b in self.CASES] == want

    def test_digit_width_boundaries(self):
        for half, wider in zip(HALVES, (32, 64, 128, 192)):
            w = half.bit_length()
            assert _digits(half - 1)[0] == w
            assert _digits(half)[0] == wider
        assert _digits(0)[0] == 16
        assert _digits((1 << 255) - 1)[0] == 256 and _digits(1 << 255)[0] == 320

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=24).filter(any),
        st.lists(st.integers(-(2**20), 2**20), min_size=1, max_size=24).filter(any),
    )
    def test_random_against_loop(self, a, b):
        assert _convolve(a, b) == _convolve_loop(a, b)


class BigEndianArray(array):
    """array as a big-endian host has it: each entry's bytes in the
    opposite order to this host's."""

    def tobytes(self):
        out = array(self.typecode, self)
        out.byteswap()
        return out.tobytes()

    def frombytes(self, raw):
        out = array(self.typecode)
        out.frombytes(raw)
        out.byteswap()
        self.extend(out)


class TestBigEndianHost:
    """On an emulated big-endian host the codec packs the same values, so
    sums of packed ints of different lengths stay right."""

    @pytest.fixture(autouse=True)
    def big_endian(self, monkeypatch):
        monkeypatch.setattr(qcoeff, "array", BigEndianArray)
        monkeypatch.setattr(qcoeff, "_BIG_ENDIAN", not qcoeff._BIG_ENDIAN)

    @pytest.mark.parametrize("w", [16, 32, 64])
    def test_pack_and_unpack(self, w):
        digits = _digits((1 << (w - 1)) - 1)
        cs = [-(1 << (w - 1)), 7, 0, (1 << (w - 1)) - 1, -1]
        v = pack(cs, digits)
        assert v == sum(c << (w * i) for i, c in enumerate(cs))
        assert unpack(v, digits, len(cs)) == cs

    @pytest.mark.parametrize("w", [16, 32, 64])
    def test_height_and_vectors_from_one_decode(self, w):
        digits = _digits((1 << (w - 1)) - 1)
        half = 1 << (w - 1)
        vectors = [(1 - half, 7, 0, half - 1), (-1,), (3, 0, -half), (half - 1,)]
        _, form = unpacked_form([(i, 0, pack(cs, digits)) for i, cs in enumerate(vectors)],
                                (), (1,), 1, digits)
        assert form[5] == half
        assert form_vectors(form) == tuple(vectors)

    @pytest.mark.parametrize("seed", range(10))
    def test_lifted_sum_matches_per_coefficient_sums(self, seed):
        rng = random.Random(seed)
        scalars = [_cyclotomic_value(rng), Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                   SYMBOLIC.q_pow(rng.randint(-3, 3))]
        items, want = [], {}
        for c in scalars:
            keys = rng.sample(range(4), 3)  # a key takes one value per item
            xs = [_cyclotomic_value(rng) for _ in keys]
            items.append((c, lifted_form(xs), keys))
            for key, x in zip(keys, xs):
                want[key] = want.get(key, SYMBOLIC.zero()) + c * x
        got_keys, got_form = lifted_sum(items)
        assert dict(zip(got_keys, form_values(got_form))) == {k: v for k, v in want.items() if v}

    def test_symbolic_catalogue_passes(self):
        from qonsager.identities import run_identity_suite

        records = run_identity_suite(max_index=1)
        assert records and all(r.status == "pass" for r in records)


class TestLiftedSumPacks:
    """A form keeps its vectors packed at the one digit width a sum last
    used, and lifted_sum returns its result's own form."""

    XS = [SYMBOLIC.q_pow(2) * 3, SYMBOLIC.qnum(2), SYMBOLIC.one() / SYMBOLIC.qnum(3),
          qint(3) / (SYMBOLIC.qnum(1) * SYMBOLIC.qnum(2)), Fraction(-5, 4) * SYMBOLIC.q_pow(-1)]
    SMALL = Fraction(3, 2) * SYMBOLIC.q_pow(1)
    BIG = RationalFunctionQ.from_fraction(2 ** 40 + 1) / SYMBOLIC.qnum(3)

    def test_one_form_at_two_digit_widths(self):
        form, keys = lifted_form(self.XS), list(range(len(self.XS)))
        assert form_values(form) == self.XS
        for c, width in ((self.SMALL, 16), (self.BIG, 64), (self.SMALL, 16)):
            out, out_form = lifted_sum([(c, form, keys)])
            values = [c * x for x in self.XS]
            assert out == tuple(keys) and form_values(out_form) == values
            digits = _digits((1 << (width - 1)) - 1)
            assert form[6] == (width, [pack(v, digits) for v in form_vectors(form)])
            # the returned form is the sums' own: a second sum reads it
            again, again_form = lifted_sum([(SYMBOLIC.qnum(1), out_form, out)])
            assert again == out
            assert form_values(again_form) == [SYMBOLIC.qnum(1) * x for x in values]

    def test_sum_form_at_widths_16_64_16(self):
        """A sum's form, which holds only its packs, summed at 16, 64 and 16
        bits: each re-packing reads the vectors before it replaces the
        packs, and every sum has the right values."""
        keys = list(range(len(self.XS)))
        _, form = lifted_sum([(SYMBOLIC.q_pow(1), lifted_form(self.XS), keys)])
        values = [SYMBOLIC.q_pow(1) * x for x in self.XS]
        assert form[4] is None and form[6][0] == 16
        for c, width in ((self.SMALL, 16), (self.BIG, 64), (self.SMALL, 16)):
            out, out_form = lifted_sum([(c, form, keys)])
            assert out == tuple(keys) and form_values(out_form) == [c * x for x in values]
            assert form[6][0] == width
        assert form_values(form) == values

    def test_numeric_forms_sum_as_ints_and_lift_as_constants(self):
        """Rational values give the numeric pair (D, nums); a numeric form
        in a sum with a symbolic scalar or form is lifted as constants."""
        xs = [Fraction(3, 4), -2, Fraction(5, 6)]
        form = lifted_form(xs)
        assert form == (12, (9, -24, 10))
        assert lifted_sum([(Fraction(2, 3), form, "abc"), (1, lifted_form([1]), "b")]) == \
            (("a", "b", "c"), (18, (9, -6, 10)))
        out, out_form = lifted_sum([(SYMBOLIC.qnum(2), form, "abc"),
                                    (Fraction(1, 2), lifted_form(self.XS[:3]), "cde")])
        want = {k: SYMBOLIC.qnum(2) * x for k, x in zip("abc", xs)}
        for k, x in zip("cde", self.XS):
            want[k] = want.get(k, 0) + Fraction(1, 2) * x
        assert dict(zip(out, form_values(out_form))) == want

    def test_rests_go_into_the_denominator(self):
        """Values and scalars with rests other than 1 sum over the product
        of their distinct rests, each taking its cofactor."""
        r1 = RationalFunctionQ(LaurentPoly(0, [1]), LaurentPoly(0, [1, 0, 2]))
        r2 = RationalFunctionQ(LaurentPoly(1, [3, 1]), LaurentPoly(0, [1, -3, 1]))
        xs = [r1, SYMBOLIC.qnum(2), r2 / SYMBOLIC.qnum(3), 4 * r1]
        form = lifted_form(xs)
        assert form[1] == qcoeff._times(r1.rest, r2.rest)
        assert form_values(form) == xs
        out, out_form = lifted_sum([(r2, form, "abcd"), (SYMBOLIC.q_pow(1), form, "bcde")])
        want = {k: r2 * x for k, x in zip("abcd", xs)}
        for k, x in zip("bcde", xs):
            want[k] = want.get(k, 0) + SYMBOLIC.q_pow(1) * x
        assert dict(zip(out, form_values(out_form))) == want


def _lp(cs):
    return LaurentPoly(0, cs)


class TestHeuristicGcd:
    """The gcd canonical() takes against the part of a denominator that is
    not cyclotomic, with entries at and around each Kronecker digit width,
    and the reduced values it gives."""

    def check(self, a, b):
        """The gcd divides both inputs, leaves coprime cofactors and is
        primitive with positive leading entry; returns it."""
        g = _primitive_gcd(a, b)
        ca, cb = _exact_div_int(a, g), _exact_div_int(b, g)
        assert _primitive_gcd(ca, cb) == [1]
        assert g[-1] > 0 and gcd(*g) == 1
        return g

    @pytest.mark.parametrize("e", EDGES)
    def test_edges(self, e):
        h = [e, -1]
        a = _primitive(_convolve_loop(h, [1, 2, -1]))
        b = _primitive(_convolve_loop(h, [-1, 3]))
        assert self.check(a, b) == [-e, 1]
        c = RationalFunctionQ(_lp(a), _lp(b)).canonical()
        assert c.num == _lp([1, 2, -1]) and c.den.coeffs == (-1, 3)

    @pytest.mark.parametrize("e", EDGES)
    def test_coprime(self, e):
        a, b = [e, 1], [1, 0, e]
        assert self.check(a, b) == [1]
        c = RationalFunctionQ(_lp(a), _lp(b)).canonical()
        assert c.num == _lp(a) and c.den.coeffs == (1, 0, e)

    @pytest.mark.parametrize("e", EDGES)
    def test_one_divides_the_other(self, e):
        b = [-1, 0, e]
        a = _primitive(_convolve_loop(b, [3, -2, 1, 7]))
        assert self.check(a, b) == b
        c = RationalFunctionQ(_lp(a), _lp(b)).canonical()
        assert c.num == _lp([3, -2, 1, 7]) and (c.phi, c.rest) == ((), (1,))

    def test_negative_end_entries(self):
        h = [-5, 2, -3]
        a = _convolve_loop(h, [1, 4, 2])
        b = _convolve_loop(h, [7, 1])
        assert a[0] < 0 and a[-1] < 0 and b[0] < 0 and b[-1] < 0
        assert self.check(a, b) == [5, -2, 3]
        c = RationalFunctionQ(_lp(a), _lp(b)).canonical()
        assert c.num == _lp([1, 4, 2]) and c.den.coeffs == (7, 1)

    def test_integer_division_alone_does_not_certify(self):
        # at 16-bit digits h(xi) divides a(xi) and b(xi) for h = gcd of the
        # two values read back as digits, but h does not divide a
        a = [-3, -3, 28, -19, -7]
        b = [-3, -7, 11, -1, 80, -34, -39, -34, -40, 11, 5, 7]
        g = self.check(a, b)
        assert _primitive_gcd(_exact_div_int(a, g), _exact_div_int(b, g)) == [1]

    def test_random_cofactors(self):
        rng = random.Random(2024)
        for trial in range(300):
            size = rng.choice([3, 200, 2**14, 2**30, 2**62])
            h = _random_vector(rng, rng.randint(1, 6), size)
            a = _primitive(_convolve_loop(h, _random_vector(rng, rng.randint(1, 8), size)))
            b = _primitive(_convolve_loop(h, _random_vector(rng, rng.randint(1, 8), size)))
            g = self.check(a, b)
            _exact_div_int(g, _primitive(h))  # h divides the gcd

    def test_fallback_keeps_canonical_forms(self):
        big = 2**80 + 7
        p = LaurentPoly.from_terms([(0, big), (1, -3), (2, 1)])
        r = LaurentPoly.from_terms([(0, 5), (3, -big)])
        s_ = LaurentPoly.from_terms([(-1, 2), (1, 1)])
        x = RationalFunctionQ(p * r, p * s_)
        assert x == RationalFunctionQ(r, s_)
        assert x.canonical().den.coeffs == (2, 0, 1)


def _one_gcd(num: LaurentPoly, den: LaurentPoly):
    """(num, den) of num/den in canonical form by one gcd of the two
    polynomials: the reduction canonical() reaches by trial division."""
    g = _primitive_gcd(num.coeffs, den.coeffs)
    n, d = _exact_div_int(list(num.coeffs), g), _exact_div_int(list(den.coeffs), g)
    scale = num.scale / den.scale
    if d[-1] < 0:
        d, scale = [-c for c in d], -scale
    return (LaurentPoly.from_terms((num.offset - den.offset + i, scale * c)
                                   for i, c in enumerate(n)), _lp(d))


def _parts(x):
    c = x.canonical()
    return c.num, c.den


def _cyclotomic_value(rng):
    """A canonical value whose numerator and denominator are products of
    q-numbers q^n - q^-n and q-integers [n], so that denominators share
    cyclotomic factors, scaled by a power of q and a rational.  It is built
    by the constructor: one gcd of the expanded products."""
    def product():
        p = LaurentPoly.q_power(0)
        for _ in range(rng.randint(0, 3)):
            n = rng.randint(1, 6)
            p = p * (SYMBOLIC.qnum(n) if rng.random() < 0.5 else qint(n)).num
        return p
    scale = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
    return RationalFunctionQ(
        product() * LaurentPoly.q_power(rng.randint(-4, 4), scale), product()
    )


class TestHenriciOracle:
    """Products, quotients and sums take no gcd; reduced, each must be
    exactly the canonical form that one gcd of the expanded products
    gives."""

    OPS = [
        ("mul", lambda x, y: x * y, lambda x, y: (x.num * y.num, x.den * y.den)),
        ("div", lambda x, y: x / y, lambda x, y: (x.num * y.den, x.den * y.num)),
        ("add", lambda x, y: x + y,
         lambda x, y: (x.num * y.den + y.num * x.den, x.den * y.den)),
        ("sub", lambda x, y: x - y,
         lambda x, y: (x.num * y.den + -(y.num * x.den), x.den * y.den)),
    ]

    def test_against_one_gcd_route(self):
        rng = random.Random(20240601)
        values = [_cyclotomic_value(rng) for _ in range(40)]
        pairs = [(x, y) for x in values for y in rng.sample(values, 10)]
        # with y = w - x the sum x + y = w cancels factors of gcd(x.den, y.den)
        sub = self.OPS[3][2]
        pairs += [(x, RationalFunctionQ(*sub(w, x))) for x, w in zip(values, values[1:])]
        for x, y in pairs:
            for name, op, route in self.OPS:
                got = op(x, y)
                assert type(got.num.coeffs) is tuple
                num, den = route(x, y)
                want = _one_gcd(num, den) if num.coeffs else (num, _lp([1]))
                assert _parts(got) == want, (name, x, y)

    def test_sum_cancels_a_shared_factor(self):
        # 1/((q+1)(q-1)) + (1/2)/((q+1)(q+2)) = (3/2)/((q-1)(q+2)): the
        # numerator over the lcm, (3/2)(q+1), shares q+1 with the gcd
        x = RationalFunctionQ.one() / (Q(2) - 1)
        y = RationalFunctionQ.from_fraction(Fraction(1, 2)) / ((Q(1) + 1) * (Q(1) + 2))
        s = (x + y).canonical()
        assert s.num == LaurentPoly.q_power(0, Fraction(3, 2))
        assert s.den.coeffs == (-2, 1, 1)


# ---------------------------------------------------------------------------
# values over cyclotomic denominators against RationalFunctionQ and NumericQ
# ---------------------------------------------------------------------------

def _cyclotomic_tree(rng, depth):
    """A seeded expression: q-powers, q-numbers and rational constants under
    +, -, * and division by rational multiples of q-powers times products of
    q-numbers q^n - q^-n (n > 0) and q-integers [n] (written -n), the
    divisor itself divided by one more q-number unless its last entry is 0."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.choice("qwc")
        if kind == "q":
            return ("q", rng.randint(-4, 4))
        if kind == "w":
            return ("w", rng.randint(1, 6))
        return ("c", Fraction(rng.randint(-6, 6), rng.randint(1, 5)))
    op = rng.choice(["add", "sub", "mul", "div"])
    x = _cyclotomic_tree(rng, depth - 1)
    if op == "div":
        ns = tuple(rng.choice([1, -1]) * rng.randint(1, 6) for _ in range(rng.randint(0, 3)))
        return (op, x, Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4)),
                rng.randint(-3, 3), ns, rng.choice([0, 0, 1, 2, 5]))
    return (op, x, _cyclotomic_tree(rng, depth - 1))


def _in_mode(tree, mode):
    kind = tree[0]
    if kind == "q":
        return mode.q_pow(tree[1])
    if kind == "w":
        return mode.qnum(tree[1])
    if kind == "c":
        return mode.from_fraction(tree[1])
    x = _in_mode(tree[1], mode)
    if kind == "div":
        d = mode.from_fraction(tree[2]) * mode.q_pow(tree[3])
        for n in tree[4]:
            d = d * (mode.qnum(n) if n > 0 else mode.qint(-n))
        if tree[5]:
            d = d / mode.qnum(tree[5])
        return x / d
    y = _in_mode(tree[2], mode)
    if kind == "add":
        return x + y
    return x - y if kind == "sub" else x * y


class TestCyclotomicOracle:
    """Arithmetic leaves values unreduced over cyclotomic denominators;
    reduced, every value must be what one gcd of its numerator and
    denominator gives, and it must evaluate like the Fraction-only numeric
    mode."""

    Q0 = (Fraction(5, 3), Fraction(-2, 7))

    def check(self, tree):
        value = _in_mode(tree, SYMBOLIC)
        assert type(value) is RationalFunctionQ
        want = _one_gcd(value.num, value.den) if value else (value.num, _lp([1]))
        assert _parts(value) == want, tree
        for q0 in self.Q0:
            assert value.eval_at(q0) == _in_mode(tree, NumericQ(q0))

    def test_seeded_expressions(self):
        rng = random.Random(20261018)
        trees = [_cyclotomic_tree(rng, 4) for _ in range(150)]
        # x - x, and sums whose terms share cyclotomic factors of the lcm
        trees += [("sub", t, t) for t in trees[:20]]
        trees += [("add", t, ("mul", ("c", Fraction(-1)), u)) for t, u in zip(trees, trees[1:30])]
        zeros = 0
        for tree in trees:
            self.check(tree)
            zeros += _in_mode(tree, SYMBOLIC).is_zero
        assert zeros >= 20

    def test_shared_factor_cancels_to_zero(self):
        # (q^2 - q^-2)/(q - q^-1) - (q + q^-1) = 0 over Phi_1 Phi_2
        w, q = SYMBOLIC.qnum, SYMBOLIC.q_pow
        x = w(2) / w(1)
        assert x.phi == (1, 1) and not x.is_zero
        assert (x - (q(1) + q(-1))).is_zero
        assert _parts(x) == (LaurentPoly.from_terms([(1, 1), (-1, 1)]), _lp([1]))
        tree = ("sub", ("div", ("w", 2), Fraction(1), 0, (1,), 0),
                ("add", ("q", 1), ("q", -1)))
        self.check(tree)

    def test_sum_over_lcm(self):
        # 1/[2] - 1/[3] = q/Phi_4 - q^2/(Phi_3 Phi_6) over Phi_3 Phi_4 Phi_6
        one = SYMBOLIC.one()
        x = one / SYMBOLIC.qint(2) - one / SYMBOLIC.qint(3)
        assert x.phi == (0, 0, 1, 1, 0, 1) and x.rest == (1,)
        # q (q^4 + q^2 + 1) - q^2 (q^2 + 1) = q - q^2 + q^3 - q^4 + q^5
        num = LaurentPoly.from_terms([(1, 1), (2, -1), (3, 1), (4, -1), (5, 1)])
        assert _parts(x) == (num, _lp([1, 0, 2, 0, 2, 0, 1]))

    def test_non_cyclotomic_divisor_joins_rest(self):
        q_minus_2 = SYMBOLIC.q_pow(1) - SYMBOLIC.from_fraction(2)
        x = SYMBOLIC.qnum(3) / (q_minus_2 * SYMBOLIC.qnum(6))
        # q^6 - q^-6 = q^-6 Phi_1 Phi_2 Phi_3 Phi_4 Phi_6 Phi_12, and the
        # value is q^3 / ((q - 2)(q^6 + 1)) with q^6 + 1 = Phi_4 Phi_12
        assert x.rest == (-2, 1) and x.phi == (1, 1, 1, 1, 0, 1) + (0,) * 5 + (1,)
        assert _parts(x) == (LaurentPoly.q_power(3), _lp([-2, 1, 0, 0, 0, 0, -2, 1]))
        # a cyclotomic part does not hide the rest, whatever its degree
        q40_plus_2 = SYMBOLIC.q_pow(40) + SYMBOLIC.from_fraction(2)
        y = SYMBOLIC.one() / q40_plus_2
        assert y.phi == () and y.rest == (2,) + (0,) * 39 + (1,)
        assert y * q40_plus_2 == SYMBOLIC.one()
        with pytest.raises(DivisionByZero):
            SYMBOLIC.one() / SYMBOLIC.zero()

    def test_rests_meet_at_their_lcm(self):
        """1/(q - 2) + 1/((q - 2)(q - 3)) is held over the lcm (q - 2)(q - 3)
        of the rests, not over their product, and equals 1/(q - 3); values
        over different rests compare over that lcm too."""
        x = rf_from_json({"num": [[0, "1"]], "den": [[0, "-2"], [1, "1"]]})
        y = rf_from_json({"num": [[0, "1"]], "den": [[0, "6"], [1, "-5"], [2, "1"]]})
        z = rf_from_json({"num": [[0, "1"]], "den": [[0, "-3"], [1, "1"]]})
        for s in (x + y, y + x):
            assert s.phi == () and s.rest == (6, -5, 1)
            assert s == z and z == s
        assert (x + y) - z == 0
        assert x * z == y and x != y

    def test_immutable(self):
        with pytest.raises(AttributeError):
            SYMBOLIC.one().num = LaurentPoly.q_power(1)


class TestValueContract:
    """== compares values and the hash agrees with it, so two routes to one
    value that end over different denominators are one dictionary key, and
    so are polynomials that hold them."""

    def routes(self):
        one, qint_ = SYMBOLIC.one(), SYMBOLIC.qint
        x = one / qint_(2) + one / qint_(3)
        y = one / qint_(3) + one / qint_(2)
        # q^-5 Phi_1 Phi_2 Phi_5 Phi_10 over Phi_1 Phi_2, held unreduced
        w = SYMBOLIC.qnum(5) / SYMBOLIC.qnum(1)
        z = (x * w) / w
        return x, y, z

    def test_routes_compare_and_hash_alike(self):
        x, y, z = self.routes()
        assert z.phi != x.phi  # the same value over another denominator
        for u, v in ((x, y), (x, z), (y, z)):
            assert u == v and v == u and not (u != v)
            assert hash(u) == hash(v)
        w = SYMBOLIC.q_pow(2) + 1
        assert (w * SYMBOLIC.qnum(4)) / SYMBOLIC.qnum(4) == w
        assert hash((w * SYMBOLIC.qnum(4)) / SYMBOLIC.qnum(4)) == hash(w)
        assert x != x + 1 and x != 0 and x * 0 == 0

    def test_polynomials_share_an_image_cache_entry(self):
        x, y, z = self.routes()
        al = Alphabet(["A", "X"])
        A, X = (NcPoly.generator(al, g) for g in "AX")
        polys = [c * X + A * X for c in (x, y, z)]
        assert polys[0] == polys[1] == polys[2]
        assert len({hash(p) for p in polys}) == 1
        cache = ImageCache(A)
        first = cache.mul(polys[0], A)
        assert all(cache.mul(p, A) is first for p in polys[1:])
        assert len(cache._cache) == 1

    @pytest.mark.parametrize("name", [
        "__add__", "__radd__", "__sub__", "__rsub__",
        "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
    ])
    def test_operators_live_in_the_class_body(self, name):
        # a per-layer tracer wraps each operator by its class attribute
        assert name in RationalFunctionQ.__dict__


# ---------------------------------------------------------------------------
# emitted coefficients against sympy, which shares no code with qcoeff
# ---------------------------------------------------------------------------

# q - 2 over 1: the one leaf whose factor is not a cyclotomic polynomial
Q_MINUS_2 = {"num": [[0, "-2"], [1, "1"]], "den": [[0, "1"]]}


def _oracle_tree(rng, depth):
    """A seeded expression over q-powers, q-numbers, q-integers, rationals
    and q - 2 under +, -, * and /; a zero divisor is read as 1."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.choice("qwicx")
        if kind == "c":
            return ("c", Fraction(rng.randint(-6, 6), rng.randint(1, 5)))
        if kind == "x":
            return ("x",)
        return (kind, rng.randint(-4, 4) if kind == "q" else rng.randint(1, 6))
    return (rng.choice("+-*/"), _oracle_tree(rng, depth - 1), _oracle_tree(rng, depth - 1))


def _oracle_value(tree, q):
    """The tree as (RationalFunctionQ, sympy expression)."""
    kind = tree[0]
    if kind == "q":
        return SYMBOLIC.q_pow(tree[1]), q ** tree[1]
    if kind == "w":
        return SYMBOLIC.qnum(tree[1]), q ** tree[1] - q ** -tree[1]
    if kind == "i":
        n = tree[1]
        return SYMBOLIC.qint(n), (q ** n - q ** -n) / (q - 1 / q)
    if kind == "c":
        return SYMBOLIC.from_fraction(tree[1]), tree[1]
    if kind == "x":
        return rf_from_json(Q_MINUS_2), q - 2
    (x, sx), (y, sy) = _oracle_value(tree[1], q), _oracle_value(tree[2], q)
    if kind == "+":
        return x + y, sx + sy
    if kind == "-":
        return x - y, sx - sy
    if kind == "*":
        return x * y, sx * sy
    if y.is_zero:
        return x, sx
    return x / y, sx / sy


def _sympy_json(sp, q, expr):
    """rf_to_json's form of expr, from sympy.cancel: the denominator with its
    power of q and its content moved to the numerator, leading entry > 0."""
    from sympy import Rational as R

    num, den = sp.fraction(sp.cancel(sp.together(expr)))
    dpoly = sp.Poly(den, q)
    low = min(m[0] for m in dpoly.monoms())
    content, prim = sp.Poly(sp.expand(den / q**low), q).primitive()
    if prim.LC() < 0:
        content, prim = -content, -prim
    scaled = sp.expand(num / (content * q**low))

    def terms(p):
        out = {}
        for t in sp.Add.make_args(p):
            c, e = t.as_coeff_exponent(q)
            if c:
                out[int(e)] = out.get(int(e), 0) + R(c)
        return [[e, str(Fraction(int(c.p), int(c.q)))] for e, c in sorted(out.items()) if c]

    if num == 0:
        return {"num": [], "den": [[0, "1"]]}
    return {"num": terms(scaled), "den": terms(prim.as_expr())}


def test_emitted_form_matches_sympy_cancel():
    """rf_to_json of sums, differences, products and quotients of q-powers,
    q-numbers, q-integers, rationals and q - 2 is the normalised
    sympy.cancel of the same expression, including sums whose terms share
    a cyclotomic factor that cancels."""
    sp = pytest.importorskip("sympy")
    q = sp.Symbol("q")
    rng = random.Random(20261018)
    trees = [_oracle_tree(rng, 3) for _ in range(120)]
    # (q^2 - q^-2)/(q - q^-1) - (q + q^-1) = 0 over Phi_1 Phi_2
    trees.append(("-", ("/", ("w", 2), ("w", 1)), ("+", ("q", 1), ("q", -1))))
    # 1/[2] + 1/[3] - 1/[6]: lcm Phi_3 Phi_4 Phi_6 Phi_12, shared with q - 2
    trees.append(("-", ("+", ("/", ("c", 1), ("i", 2)), ("/", ("c", 1), ("i", 3))),
                  ("/", ("x",), ("*", ("i", 6), ("x",)))))
    # x - x and x + (-1)(x + y): the lcm of both sides cancels
    trees += [("-", t, t) for t in trees[:10]]
    trees += [("+", t, ("*", ("c", Fraction(-1)), ("+", t, u)))
              for t, u in zip(trees[:20], trees[20:40])]
    for tree in trees:
        value, expr = _oracle_value(tree, q)
        assert rf_to_json(value) == _sympy_json(sp, q, expr), tree


def _denominator_triples(rng):
    """Seeded (Phi_d multiset, rest, D) triples; the rests are products of
    q - 2, q - 3, q^2 + 2 and 2q + 1, which no Phi_d divides."""
    factors = [(-2, 1), (-3, 1), (2, 0, 1), (1, 2)]
    triples = []
    for _ in range(rng.randint(1, 4)):
        phi = [rng.randint(0, 2) for _ in range(rng.randint(0, 8))]
        while phi and not phi[-1]:
            phi.pop()
        rest = (1,)
        for f in rng.sample(factors, rng.randint(0, 3)):
            rest = qcoeff._times(rest, f)
        triples.append((tuple(phi), rest, rng.randint(1, 12)))
    return tuple(triples)


def test_common_denominator_matches_sympy_lcm():
    """common_denominator of seeded triples is sympy's lcm of the expanded
    denominators D prod Phi_d^phi[d-1] rest, and each triple's integer and
    vector carry its denominator, and so any numerator over it, to that
    lcm."""
    sp = pytest.importorskip("sympy")
    q = sp.Symbol("q")

    def expanded(phi, rest, d):
        cs = qcoeff._times(qcoeff._phi_product(phi), rest)
        return sp.expand(d * sum(c * q ** i for i, c in enumerate(cs)))

    rng = random.Random(20261020)
    for _ in range(60):
        dens = _denominator_triples(rng)
        lcm, lifts = qcoeff.common_denominator(dens)
        assert len(lifts) == len(dens)
        want = sp.lcm_list([expanded(*den) for den in dens])
        got = expanded(*lcm)
        assert sp.expand(got - want) == 0 or sp.expand(got + want) == 0, dens
        for den, (vec, k) in zip(dens, lifts):
            assert list(vec) == _primitive(vec) and vec[-1] > 0
            lifted = sp.expand(k * expanded(*den) * sum(c * q ** i for i, c in enumerate(vec)))
            assert sp.expand(lifted - got) == 0, (den, lcm)
        assert qcoeff.common_denominator(dens) == (lcm, lifts)
