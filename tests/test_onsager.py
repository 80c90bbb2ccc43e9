"""Presentation-level checks: images, certificates, higher-order vanishing."""

import pytest

from qonsager.adjoint import FORWARD, INVERSE, apply_badprod, closed_form_sum, truncated_sum
from qonsager.freealg import NcPoly
from qonsager.onsager import (
    higher_dg_check,
    homomorphism_spotcheck,
    lusztig,
    onsager_context,
)
from qonsager.qcoeff import NumericQ, SYMBOLIC as m
from qonsager.rewrite import MonomialOrder, RewriteSystem


@pytest.fixture(scope="module")
def ctx():
    return onsager_context()


def expected_image(ctx, X, direction):
    den = m.qnum(1) * m.qnum(2)
    A = ctx.A
    e = 1 if direction == FORWARD else -1
    return X + (m.one() / den) * (
        m.q_pow(e) * (A * A * X)
        - (m.q_pow(1) + m.q_pow(-1)) * (A * X * A)
        + m.q_pow(-e) * (X * A * A)
    )


class TestBounds:
    def test_word_bounds_count_second_generator(self, ctx):
        assert ctx.standard_bound(ctx.alphabet.word("AABA")) == 1
        assert ctx.standard_bound(ctx.alphabet.word("BB")) == 2
        assert ctx.standard_bound(ctx.alphabet.word("AAA")) == 0

    def test_polynomial_bound_is_support_maximum(self, ctx):
        p = ctx.A * ctx.B + ctx.B * ctx.B * ctx.A
        assert ctx.standard_bound(p) == 2
        assert ctx.standard_bound(NcPoly.zero(ctx.alphabet)) == 0

    def test_generator_certificates(self, ctx):
        # the bounds the context verifies at construction
        assert ctx.standard_bound(ctx.A) == 0
        assert ctx.standard_bound(ctx.B) == 1

    def test_product_rule_adds_bounds(self, ctx):
        word = ctx.alphabet.word
        for u, v in (("B", "BB"), ("AB", "BAB"), ("", "B"), ("AA", "A")):
            assert ctx.standard_bound(word(u + v)) == (
                ctx.standard_bound(word(u)) + ctx.standard_bound(word(v))
            )


class TestImages:
    def test_first_generator_fixed_exactly(self, ctx):
        assert lusztig(ctx, ctx.A, FORWARD) == ctx.A
        assert lusztig(ctx, ctx.A, INVERSE) == ctx.A

    def test_forward_image_of_second_generator(self, ctx):
        assert lusztig(ctx, ctx.B, FORWARD) == expected_image(ctx, ctx.B, FORWARD)

    def test_inverse_image_of_second_generator(self, ctx):
        assert lusztig(ctx, ctx.B, INVERSE) == expected_image(ctx, ctx.B, INVERSE)

    def test_closed_form_matches_sum_identically(self, ctx):
        # identical in the free algebra, not just modulo the ideal
        assert closed_form_sum(ctx.A, ctx.B, FORWARD, m) == truncated_sum(
            ctx.A, ctx.B, 1, FORWARD, m
        )
        assert closed_form_sum(ctx.A, ctx.B, FORWARD, m) == lusztig(ctx, ctx.B, FORWARD)

    def test_closed_form_collapses_on_first_generator(self, ctx):
        assert closed_form_sum(ctx.A, ctx.A, FORWARD, m) == ctx.A

    def test_inverse_closed_form_matches_inverse_image(self, ctx):
        assert closed_form_sum(ctx.A, ctx.B, INVERSE, m) == lusztig(ctx, ctx.B, INVERSE)


class TestInverseProperty:
    def test_round_trip_on_second_generator(self, ctx):
        image = lusztig(ctx, ctx.B, FORWARD)
        back = truncated_sum(ctx.A, image, ctx.standard_bound(image), INVERSE, m)
        assert ctx.qdg.is_zero_mod(back - ctx.B).is_zero

    def test_truncation_stability(self, ctx):
        for X in (ctx.B, ctx.B * ctx.B, ctx.A * ctx.B + ctx.B * ctx.A):
            n = ctx.standard_bound(X)
            short = truncated_sum(ctx.A, X, n, FORWARD, m)
            long = truncated_sum(ctx.A, X, n + 2, FORWARD, m)
            assert ctx.qdg.is_zero_mod(short - long).is_zero


class TestHigherOrders:
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_rewrite_mode(self, ctx, r):
        assert higher_dg_check(ctx, r, "rewrite").status == "pass"

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_certified_mode(self, ctx, r):
        rec = higher_dg_check(ctx, r, "certified")
        assert rec.status == "pass"
        assert "product expansion holds exactly" in rec.detail or r == 1

    def test_certified_mode_fails_without_relations(self):
        ctx = onsager_context()
        ctx.qdg = RewriteSystem(ctx.alphabet, MonomialOrder(ctx.alphabet), [])
        rec = higher_dg_check(ctx, 2, "certified")
        assert (rec.status, rec.detail) == ("fail", "base vanishing for B failed")

    def test_residue_killed_by_every_model_passes(self):
        ctx = onsager_context(NumericQ("5/3"))
        ctx.qdg = RewriteSystem(ctx.alphabet, MonomialOrder(ctx.alphabet), [])
        rec = higher_dg_check(ctx, 1, "rewrite")
        assert (rec.status, rec.detail, rec.witness) == ("pass", "confirmed in models d1,d1,d3", None)

    def test_bad_arguments(self, ctx):
        with pytest.raises(ValueError):
            higher_dg_check(ctx, 0, "rewrite")
        with pytest.raises(ValueError):
            higher_dg_check(ctx, 1, "telepathy")


class TestHomomorphism:
    @pytest.mark.parametrize("pair", [("A", "B"), ("B", "A"), ("B", "B"), ("B", "")])
    def test_spotchecks(self, ctx, pair):
        w1, w2 = (ctx.alphabet.word(w) for w in pair)
        assert homomorphism_spotcheck(ctx, w1, w2).status == "pass"

    def test_refuted_residues_fail_with_the_first_as_witness(self, monkeypatch):
        import qonsager.onsager as on

        ctx = onsager_context(NumericQ("5/3"))
        image = on.image

        def doubled(c, X, direction=FORWARD):
            Y = image(c, X, direction)
            return Y + Y

        # a doubled image is neither multiplicative nor inverted by the
        # inverse map; every image the check forms goes through on.image
        monkeypatch.setattr(on, "image", doubled)
        B = ctx.alphabet.word("B")
        rec = homomorphism_spotcheck(ctx, B, B)
        assert rec.status == "fail"
        assert rec.detail == (
            "multiplicative: nonzero image in model d1; inverse-composition: nonzero image in model d1"
        )
        # both maps are doubled, so the inverse-composition residue is
        # 4B - B = 3B; the witness is the first residue
        assert rec.witness and rec.witness != 3 * ctx.B


class TestHomomorphismSweep:
    REWRITE = "multiplicative: rewrite; inverse-composition: rewrite"

    def test_a_pair_the_models_once_settled_reduces(self, capsys):
        """E_mult for (A, BBB) reduces to zero under the two rules; the
        difference of the two sides' normal forms did not."""
        from qonsager.cli import main

        assert main(["onsager", "homcheck", "--w1", "A", "--w2", "BBB"]) == 0
        assert f"homomorphism(A,BBB)  [{self.REWRITE}]" in capsys.readouterr().out

    def test_every_pair_of_two_to_four_letters_reduces(self, ctx):
        import itertools

        pairs = [(u, v) for n in range(2, 5) for k in range(1, n)
                 for u in itertools.product("AB", repeat=k)
                 for v in itertools.product("AB", repeat=n - k)]
        assert len(pairs) == 68
        for u, v in pairs:
            rec = homomorphism_spotcheck(ctx, ctx.alphabet.word(list(u)), ctx.alphabet.word(list(v)))
            assert (rec.status, rec.detail) == ("pass", self.REWRITE), (u, v)


class TestWordSweep:
    def test_balanced_product_kills_every_small_word(self, ctx):
        # every word with k letters B is killed by the order k+1 balanced
        # product, conclusively by rewriting or confirmed in matrix models
        import itertools

        for length in range(5):
            for letters in itertools.product("AB", repeat=length):
                word = ctx.alphabet.word(list(letters))
                k = ctx.standard_bound(word)
                if k > 3:
                    continue
                X = NcPoly.monomial(ctx.alphabet, word, m.one())
                res = ctx.qdg.is_zero_mod(apply_badprod(k + 1, ctx.A, X, m))
                if not res.is_zero:
                    confirmed, _ = ctx.confirm_in_models(res.residue)
                    assert confirmed, letters


class TestMatrixFallback:
    def test_models_include_diameter_three(self, ctx):
        labels = [label for label, _ in ctx.matrix_models()]
        assert "d3" in labels

    def test_ideal_element_confirmed(self, ctx):
        ok, detail = ctx.confirm_in_models(apply_badprod(2, ctx.A, ctx.B, m))
        assert ok and "d3" in detail

    def test_non_ideal_element_refuted(self, ctx):
        ok, _ = ctx.confirm_in_models(ctx.A * ctx.B - ctx.B * ctx.A)
        assert not ok

    def test_certificate_soundness_in_models(self, ctx):
        # bound from the certificate, vanishing in the largest exact model
        from qonsager.matrices import ExactMatrix

        label, tp = ctx.matrix_models()[-1]
        assert label == "d3"
        for word in ("B", "AB", "BB", "BAB", "BBB"):
            w = ctx.alphabet.word(word)
            bound = ctx.standard_bound(w)
            X = NcPoly.monomial(ctx.alphabet, w, m.one())
            value = apply_badprod(bound + 1, ctx.A, X, m)
            numeric = value.map_coeffs(lambda c: c.eval_at(tp.q0))
            image = numeric.evaluate(
                {"A": tp.A, "B": tp.B}, ExactMatrix.identity(tp.A.dimension)
            )
            assert image.is_zero()


class TestNumericMode:
    def test_context_and_images_at_fixed_q(self):
        ctx = onsager_context(NumericQ("5/3"))
        img = lusztig(ctx, ctx.B, FORWARD)
        den = ctx.mode.qnum(1) * ctx.mode.qnum(2)
        A, B = ctx.A, ctx.B
        expected = B + (1 / den) * (
            ctx.mode.q_pow(1) * (A * A * B)
            - (ctx.mode.q_pow(1) + ctx.mode.q_pow(-1)) * (A * B * A)
            + ctx.mode.q_pow(-1) * (B * A * A)
        )
        assert img == expected
        assert higher_dg_check(ctx, 2, "rewrite").status == "pass"
