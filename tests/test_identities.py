"""Identity catalogue: spot instances, parameter validation, suite mechanics."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from qonsager.errors import InvalidParams
from qonsager.freealg import NcPoly, ncpoly_to_json
from qonsager.identities import (
    IDENTITIES,
    make_context,
    parameter_grid,
    run_identity_suite,
    verify_identity,
)
from qonsager.qcoeff import SYMBOLIC, NumericQ, RationalFunctionQ, _exact_div_int, _primitive_gcd


def test_catalogue_has_all_twenty_three_entries():
    assert len(IDENTITIES) == 23


@pytest.mark.parametrize("name", sorted(IDENTITIES))
def test_each_identity_at_base_parameters(name):
    spec = IDENTITIES[name]
    combo = tuple(2 if name == "XA_AY" and k == 1 else 1 for k in range(len(spec.params)))
    assert verify_identity(name, combo).status == "pass"


class TestSpotInstances:
    def test_plus_at_two(self):
        assert verify_identity("PLUS", (2,)).status == "pass"

    def test_leibniz_at_origin_is_product_rule(self):
        # h = i = j = 0 degenerates to the plain commutator product rule
        rec = verify_identity("LEIBNIZ", (0, 0, 0))
        assert rec.status == "pass"

    def test_ttp_by_full_expansion(self):
        assert verify_identity("TTP", (2,)).status == "pass"

    def test_telescoping_consistency(self):
        for n in range(4):
            assert verify_identity("TXY_S", (n,)).status == "pass"


class TestParameterValidation:
    def test_distinct_twists_required(self):
        with pytest.raises(InvalidParams):
            verify_identity("XA_AY", (2, 2))

    def test_positive_twist_required(self):
        with pytest.raises(InvalidParams):
            verify_identity("SS", (0,))

    def test_natural_order_required(self):
        with pytest.raises(InvalidParams):
            verify_identity("TTP", (-1,))

    def test_arity_checked(self):
        with pytest.raises(InvalidParams):
            verify_identity("PLUS", (1, 2))

    def test_unknown_identity(self):
        with pytest.raises(InvalidParams):
            verify_identity("NOPE", (1,))


class TestGrids:
    def test_grid_respects_types(self):
        grid = list(parameter_grid(IDENTITIES["ADA_SB"], 2))
        for h, i, j in grid:
            assert -1 <= h <= 2
            assert 0 <= i <= 2
            assert 1 <= j <= 2

    def test_distinctness_filter(self):
        assert all(i != j for i, j in parameter_grid(IDENTITIES["XA_AY"], 2))

    @pytest.mark.parametrize("name", sorted(IDENTITIES))
    def test_grid_grows_with_max_index(self, name):
        """Every instance of a smaller sweep is in every larger one, so the
        max-index-4 catalogue checks all that max index 3 checks."""
        spec = IDENTITIES[name]
        for m in range(1, 5):
            assert set(parameter_grid(spec, m)) <= set(parameter_grid(spec, m + 1))


class TestSuite:
    def test_small_sweep_symbolic(self):
        records = run_identity_suite(max_index=1)
        assert records and all(r.status == "pass" for r in records)

    def test_small_sweep_numeric(self):
        records = run_identity_suite(max_index=2, mode=NumericQ("7/5"))
        assert records and all(r.status == "pass" for r in records)

    def test_report_order_is_deterministic(self):
        a = [(r.name, r.params) for r in run_identity_suite(max_index=1)]
        b = [(r.name, r.params) for r in run_identity_suite(max_index=1)]
        assert a == b

    def test_failure_carries_witness(self, monkeypatch):
        from qonsager.identities import IdentitySpec, INT

        bogus = IdentitySpec(
            "PLUS", (("i", INT),), lambda c, i: (c.ad_terms(i, c.X), c.ad_terms(-i, c.X))
        )
        monkeypatch.setitem(IDENTITIES, "PLUS", bogus)
        rec = verify_identity("PLUS", (2,))
        assert rec.status == "fail"
        assert rec.witness is not None and not rec.witness.is_zero
        assert all(type(c) is RationalFunctionQ for c in rec.witness.terms.values())
        blob = rec.to_json()
        assert blob["identity"] == "PLUS" and "witness" in blob

    def test_record_json_schema(self):
        blob = verify_identity("SS", (2,)).to_json()
        assert blob == {
            "identity": "SS",
            "params": [2],
            "mode": "symbolic",
            "status": "pass",
        }


class TestProductMemo:
    """Operand products are built once per context and change no record."""

    @pytest.mark.parametrize("name", ["ADA_BB", "ADA_SS", "ADA_SB", "ADA_BS"])
    def test_twists_share_the_operand_products(self, name, monkeypatch):
        counts = {}  # products of two polynomials, neither a word with coefficient 1
        mul = NcPoly.__mul__

        def unit(p):
            return len(p.terms) == 1 and next(iter(p.terms.values())) == 1

        def counted(self, other):
            if isinstance(other, NcPoly) and not unit(self) and not unit(other):
                counts[twists] += 1
            return mul(self, other)

        monkeypatch.setattr(NcPoly, "__mul__", counted)
        mode = NumericQ("5/3")
        for twists in ((1,), tuple(range(-3, 5))):
            counts[twists] = 0
            ctx = make_context(mode)
            for h in twists:
                assert verify_identity(name, (h, 2, 1), mode, _ctx=ctx).status == "pass"
        one, every = counts.values()
        assert one > 0 and every == one

    @pytest.mark.parametrize("mode", [SYMBOLIC, NumericQ("7/5")], ids=["symbolic", "7/5"])
    def test_fresh_and_shared_contexts_give_the_same_records(self, mode):
        shared = [r.to_json() for r in run_identity_suite(max_index=2, mode=mode)]
        fresh = [
            verify_identity(name, combo, mode).to_json()
            for name, spec in IDENTITIES.items()
            for combo in parameter_grid(spec, 2)
        ]
        assert shared == fresh


class TestLazyCoefficients:
    """A sum's result builds its coefficients only when they are read: the
    zero test reads none, and a witness reads them to print."""

    def test_pass_builds_no_product_coefficient(self):
        ctx = make_context(SYMBOLIC)
        assert verify_identity("ADA_SS", (0, 1, 1), _ctx=ctx).status == "pass"
        products = [p for key, p in ctx._cache.items()
                    if key[0] == "mul" and all(len(f.support()) > 1 for f in key[1])]
        assert products and all(p._terms is None for p in products)

    @pytest.mark.parametrize("mode", [SYMBOLIC, NumericQ("5/3")], ids=["symbolic", "5/3"])
    @pytest.mark.parametrize("name, params", [("ADA_SB", (1, 1, 1)), ("TTP", (2,))])
    def test_witness_prints_as_the_per_coefficient_difference(self, monkeypatch, mode,
                                                              name, params):
        from qonsager.identities import IdentitySpec

        spec = IDENTITIES[name]

        def scaled_rhs(c, *args):
            lhs, rhs = spec.terms(c, *args)
            return lhs, [(c.q(1) * k, p) for k, p in rhs]

        scaled = IdentitySpec(name, spec.params, scaled_rhs)
        monkeypatch.setitem(IDENTITIES, name, scaled)
        rec = verify_identity(name, params, mode)
        assert rec.status == "fail" and rec.witness._terms is None
        lhs, rhs = scaled.terms(make_context(mode), *params)
        want = NcPoly.zero(rec.witness.alphabet)
        for k, p in lhs + [(-k, p) for k, p in rhs]:
            want = want + p.scaled(k)
        assert json.dumps(rec.to_json()["witness"]) == json.dumps(ncpoly_to_json(want))


def test_sweep_stores_each_image_under_one_key():
    """After a max-index-3 sweep no cached image sits under two keys."""
    mode = NumericQ("5/3")
    ctx = make_context(mode)
    for name, spec in IDENTITIES.items():
        for combo in parameter_grid(spec, 3):
            verify_identity(name, combo, mode, _ctx=ctx)
    keys_of = {}
    for key, image in ctx._cache.items():
        keys_of.setdefault(id(image), []).append(key)
    assert any(key[0] == "bp" for key in ctx._cache)
    assert [keys for keys in keys_of.values() if len(keys) > 1] == []


@pytest.fixture(scope="module")
def symbolic_ctx():
    return make_context(SYMBOLIC)


@pytest.mark.parametrize("q0", [Fraction(5, 3), Fraction(-3, 5), Fraction(7, 2)])
@pytest.mark.parametrize("op", ["S", "Sp", "bp"])
def test_symbolic_images_specialize_to_numeric(symbolic_ctx, op, q0):
    """Every Q(q) coefficient of S, Sp and bp applied to X, evaluated at q0,
    is the coefficient the Fraction-only numeric context computes."""
    num = make_context(NumericQ(q0))
    for i in range(4):
        sym = getattr(symbolic_ctx, op)(i, symbolic_ctx.X)
        at_q0 = {w: c.eval_at(q0) for w, c in sym.terms.items()}
        assert {w: c for w, c in at_q0.items() if c} == getattr(num, op)(i, num.X).terms


@pytest.fixture(scope="module")
def symbolic_sides(symbolic_ctx):
    """Both sides of every instance on the max-index-2 grid, over Q(q)."""
    return {
        (name, combo): spec.build(symbolic_ctx, *combo)
        for name, spec in IDENTITIES.items()
        for combo in parameter_grid(spec, 2)
    }


@pytest.mark.parametrize("q0", [Fraction(5, 3), Fraction(-3, 5)])
def test_whole_identities_specialize_to_numeric(symbolic_sides, q0):
    """Each side of each catalogue instance, built over Q(q) and evaluated
    coefficient-wise at q0, is the side the numeric context builds at q0."""
    assert len(symbolic_sides) == 239
    num = make_context(NumericQ(q0))
    mismatches = []
    for (name, combo), sides in symbolic_sides.items():
        for label, sym, numeric in zip(("lhs", "rhs"), sides, IDENTITIES[name].build(num, *combo)):
            at_q0 = {w: c.eval_at(q0) for w, c in sym.terms.items()}
            if {w: c for w, c in at_q0.items() if c} != numeric.terms:
                mismatches.append((name, combo, label))
    assert mismatches == []


def test_cyclotomic_route_matches_rational_function_route(symbolic_sides):
    """Every instance on the max-index-2 grid is zero, and each coefficient of
    lhs - q*rhs, reduced by trial division over its cyclotomic denominator,
    is what one gcd of its numerator and denominator gives."""
    q = make_context(SYMBOLIC).mode.q_pow(1)
    assert len(symbolic_sides) == 239
    mismatches = []
    for (name, combo), (lhs, rhs) in symbolic_sides.items():
        assert not (lhs - rhs).terms, (name, combo)
        for c in (lhs - q * rhs).terms.values():
            num, den = c.num.coeffs, c.den.coeffs
            g = _primitive_gcd(num, den)
            got = c.canonical()
            if (got.num.coeffs, got.den.coeffs) != (
                tuple(_exact_div_int(list(num), g)), tuple(_exact_div_int(list(den), g))
            ):
                mismatches.append((name, combo))
    assert mismatches == []


def test_sides_match_golden(symbolic_sides):
    """Each side of each max-index-2 instance is the polynomial recorded in
    tests/golden: a change that adds the same term to both sides still
    leaves lhs - rhs zero, but changes the statement."""
    path = Path(__file__).parent / "golden" / "identity-sides-max-index2.json"
    golden = json.loads(path.read_text())
    got = {}
    for (name, combo), sides in symbolic_sides.items():
        blob = json.dumps([ncpoly_to_json(p) for p in sides], sort_keys=True, separators=(",", ":"))
        got[f"{name} {','.join(map(str, combo))}"] = hashlib.sha256(blob.encode()).hexdigest()
    assert list(got) == list(golden)
    assert [key for key in golden if got[key] != golden[key]] == []
