"""Current algebra: presentation instances, membership, automorphism images."""

import random

import pytest

from qonsager.adjoint import apply_badprod
from qonsager.cli import main
from qonsager.currentalg import (
    GENERATOR_CLASSES,
    AqContext,
    aq_system,
    closed_image,
    proof_chain,
    replay_proof,
    verify_S_images,
    verify_generator_class,
)
from qonsager.errors import IndexOutOfRange, InvalidCutoff
from qonsager.freealg import NcPoly, ncpoly_to_json
from qonsager.qcoeff import NumericQ, SYMBOLIC as m
from qonsager.rewrite import MonomialOrder, RewriteSystem, make_system


@pytest.fixture(scope="module")
def ctx():
    return aq_system(3)


class TestConstruction:
    def test_cutoff_validation(self):
        with pytest.raises(InvalidCutoff):
            aq_system(0)

    def test_k1_alphabet(self):
        ctx1 = aq_system(1)
        assert set(ctx1.alphabet.names) == {
            "W-1", "W0", "W1", "W2", "G1", "G2", "Gt1", "Gt2",
        }

    def test_k1_oriented_instance_count(self):
        assert len(aq_system(1).system.rules) == 7

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_system_is_the_oriented_subsystem(self, K):
        ctx = aq_system(K)
        families = ctx.subsystem("3p1a", "3p1b", "3p2a", "3p2b", "3p4a", "3p4b")
        assert ctx.system.rules == families.rules

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_subsystems_match_filter_then_orient(self, K):
        """Selecting oriented rules gives the system that orients the
        family's relations afresh: filter by family, keep the first relation
        per leading word, then make_system."""
        ctx = aq_system(K)
        cited = {just for gen in ("Wplus", "G", "Gt") for k in range(K)
                 for _, just in proof_chain(ctx, gen, k) if isinstance(just, tuple)}
        assert len(cited) == 5
        for ids in cited | {("3p1a", "3p1b", "3p2a", "3p2b", "3p4a", "3p4b")}:
            rels = {}
            for rid, _, p in ctx.relations:
                if rid in ids:
                    rels.setdefault(p.leading_word(), p)
            fresh = make_system(
                ctx.alphabet, MonomialOrder(ctx.alphabet), list(rels.values()), list(rels)
            )
            assert ctx.subsystem(*ids).rules == fresh.rules, ids

    def test_subsystem_built_once_per_family_set(self, ctx):
        assert ctx.subsystem("3p2a", "3p2b") is ctx.subsystem("3p2a", "3p2b")
        assert ctx.subsystem("3p2b", "3p2a") is ctx.subsystem("3p2a", "3p2b")
        assert ctx.subsystem("3p1a") is not ctx.subsystem("3p2a")
        assert ctx.subsystem("3p1a", "3p1b", "3p2a", "3p2b", "3p4a", "3p4b") is ctx.system

    def test_current_verify_builds_six_systems_per_context(self, monkeypatch, capsys):
        """The class checks and images use the system of all six families;
        the proof replays, five family sets, each built once."""
        counts = {"contexts": 0, "systems": 0}
        ctx_init, rs_init = AqContext.__init__, RewriteSystem.__init__

        def counted(key, init):
            def wrapper(self, *args, **kwargs):
                counts[key] += 1
                return init(self, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(AqContext, "__init__", counted("contexts", ctx_init))
        monkeypatch.setattr(RewriteSystem, "__init__", counted("systems", rs_init))
        assert main(["current", "verify", "--kmax", "6", "--json"]) == 0
        capsys.readouterr()
        assert counts["contexts"] == 1 and counts["systems"] <= 6

    def test_rho_at_two(self):
        from fractions import Fraction

        ctx = aq_system(1, NumericQ(2))
        assert ctx.rho == Fraction(-225, 16)

    def test_rules_are_order_compatible(self, ctx):
        order = ctx.system.order
        for rule in ctx.system.rules:
            for w in rule.rhs.support():
                assert order.less(w, rule.lhs)

    def test_index_guards(self, ctx):
        with pytest.raises(IndexOutOfRange):
            ctx.W(ctx.K + 2)
        with pytest.raises(IndexOutOfRange):
            ctx.G(0)
        with pytest.raises(IndexOutOfRange):
            verify_generator_class(ctx, "G", ctx.K)
        with pytest.raises(IndexOutOfRange):
            verify_S_images(ctx, ctx.K)

    def test_generators_built_once(self, ctx):
        K = ctx.K
        for n in range(-K, K + 2):
            assert ctx.W(n) is ctx.W(n)
            assert ctx.W(n) == NcPoly.generator(ctx.alphabet, f"W{n}")
        for k in range(1, K + 2):
            assert ctx.G(k) is ctx.G(k)
            assert ctx.Gt(k) is ctx.Gt(k)
            assert ctx.G(k) == NcPoly.generator(ctx.alphabet, f"G{k}")
            assert ctx.Gt(k) == NcPoly.generator(ctx.alphabet, f"Gt{k}")
        for bad in (lambda: ctx.W(-K - 1), lambda: ctx.W(K + 2), lambda: ctx.G(0),
                    lambda: ctx.G(K + 2), lambda: ctx.Gt(0), lambda: ctx.Gt(K + 2)):
            with pytest.raises(IndexOutOfRange):
                bad()


class TestGeneratorClasses:
    @pytest.mark.parametrize("gen", GENERATOR_CLASSES)
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_membership(self, ctx, gen, k):
        assert verify_generator_class(ctx, gen, k).status == "pass"

    def test_commutant_family_at_full_cutoff(self, ctx):
        assert verify_generator_class(ctx, "Wminus", ctx.K).status == "pass"

    @pytest.mark.parametrize("mode", [m, NumericQ(3)], ids=["symbolic", "numeric"])
    @pytest.mark.parametrize("gen", ["Wplus", "G", "Gt"])
    def test_pass_runs_one_normal_form(self, monkeypatch, mode, gen):
        """The balanced product follows from the bracket difference by an
        exact identity, so a passing check reduces once."""
        ctx = aq_system(2, mode)
        calls = []
        normal_form = RewriteSystem.normal_form

        def spy(rs, p):
            calls.append(rs)
            return normal_form(rs, p)

        monkeypatch.setattr(RewriteSystem, "normal_form", spy)
        assert verify_generator_class(ctx, gen, 1).status == "pass"
        assert calls == [ctx.system]

    @pytest.mark.parametrize("broken", ["without-3p2", "rho-doubled"])
    @pytest.mark.parametrize("gen", ["Wplus", "G", "Gt"])
    def test_failure_reports_both_residues(self, broken, gen):
        """Without the 3p2 families, or with a wrong rho, a check fails, and
        its witness is the bracket residue plus the balanced residue, each
        from its own reduction."""
        ctx = aq_system(2)
        if broken == "without-3p2":
            ctx.system = ctx.subsystem("3p1a", "3p1b", "3p4a", "3p4b")
        else:
            ctx.rho = 2 * ctx.rho
        rec = verify_generator_class(ctx, gen, 0)
        W0 = ctx.W(0)
        X = {"Wplus": ctx.W(1), "G": ctx.G(1), "Gt": ctx.Gt(1)}[gen]
        nested = ctx.br(W0, ctx.qbr(W0, ctx.qbr(W0, X, 1), -1))
        bracket = ctx.system.is_zero_mod(nested - ctx.rho * ctx.br(W0, X))
        balanced = ctx.system.is_zero_mod(apply_badprod(2, W0, X, ctx.mode))
        assert not (bracket.is_zero and balanced.is_zero)
        assert rec.status == "fail"
        want = bracket.residue + balanced.residue
        assert rec.witness == want
        assert ncpoly_to_json(rec.witness) == ncpoly_to_json(want)


class TestNestedBracketEquivalence:
    def test_scaled_balanced_product_vs_brackets(self, ctx):
        # exact in the free algebra, no relations: clearing the balanced
        # denominators leaves the triple bracket shifted by rho times the
        # commutator
        from qonsager.adjoint import apply_badprod

        W0 = ctx.W(0)
        X = ctx.Gt(2)  # any free symbol distinct from W0
        scale = m.qnum(1) * m.qnum(2) * m.qnum(3)
        lhs = scale * apply_badprod(2, W0, X, m)
        nested = ctx.br(W0, ctx.qbr(W0, ctx.qbr(W0, X, 1), -1))
        assert lhs == nested - ctx.rho * ctx.br(W0, X)

    def test_bracket_expansion_closed_form(self, ctx):
        W0, X = ctx.W(0), ctx.G(1)
        th = m.qint(3)
        nested = ctx.br(W0, ctx.qbr(W0, ctx.qbr(W0, X, 1), -1))
        expected = (
            W0 * W0 * W0 * X
            - th * (W0 * W0 * X * W0)
            + th * (W0 * X * W0 * W0)
            - X * W0 * W0 * W0
        )
        assert nested == expected


class TestImages:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_automorphism_images(self, ctx, k):
        rec = verify_S_images(ctx, k)
        assert rec.status == "pass"

    def test_fixed_wminus_needs_the_commuting_relations(self):
        # without 3p4a, W(-k) for k >= 1 does not commute with W(0) modulo the
        # system, so its order-1 balanced product does not reduce to zero
        ctx = aq_system(3)
        ctx.system = ctx.subsystem("3p1a", "3p1b", "3p2a", "3p2b", "3p4b")
        for k in (1, 2):
            rec = verify_S_images(ctx, k)
            assert rec.status == "fail" and "fixed-Wminus" in rec.detail.split("; ")

    def test_image_of_commuting_generator_is_exact(self, ctx):
        # the order-1 sum adds the shift map of order 1 to W(-2): a nonzero
        # polynomial, but zero modulo the system, since W(-2) commutes with W0
        from qonsager.adjoint import FORWARD, INVERSE, truncated_sum

        for direction in (FORWARD, INVERSE):
            shift = truncated_sum(ctx.W(0), ctx.W(-2), 1, direction, m) - ctx.W(-2)
            assert not shift.is_zero
            assert ctx.system.is_zero_mod(shift).is_zero

    def test_closed_image_shape(self, ctx):
        from qonsager.adjoint import FORWARD

        img = closed_image(ctx, ctx.W(1), FORWARD)
        assert img.terms.get(ctx.alphabet.word(["W1"])) == m.one()
        assert img.terms.get(ctx.alphabet.word(["W0", "W0", "W1"])) is not None


class TestProofReplay:
    @pytest.mark.parametrize("gen", ["Wplus", "G", "Gt"])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_chains(self, ctx, gen, k):
        assert replay_proof(ctx, gen, k).status == "pass"

    def test_chain_endpoints(self, ctx):
        chain = proof_chain(ctx, "Wplus", 0)
        first, last = chain[0][0], chain[-1][0]
        assert not first.is_zero and not last.is_zero
        # the whole chain certifies: triple bracket == rho * commutator
        assert ctx.system.is_zero_mod(first - last).is_zero

    def test_cited_families_are_instantiated(self, ctx):
        # a family missing from the store would replay against no rules
        families = {rid for rid, _, _ in ctx.relations}
        for gen in ("Wplus", "G", "Gt"):
            for k in range(ctx.K):
                for _, just in proof_chain(ctx, gen, k):
                    if isinstance(just, tuple):
                        assert set(just) <= families, (gen, k, just)


class TestTermination:
    def test_random_reductions_halt(self, ctx):
        rng = random.Random(51)
        letters = len(ctx.alphabet.names)
        for _ in range(15):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                w = tuple(rng.randrange(letters) for _ in range(rng.randint(0, 6)))
                terms[w] = m.from_fraction(rng.randint(-2, 2))
            nf = ctx.system.normal_form(NcPoly(ctx.alphabet, terms))
            for w in nf.support():
                assert ctx.system._find(w) is None
