"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is an identity over the rational-function field in q or over
the rationals at fixed q, so there are no tolerances anywhere: equality
means structural equality of canonical forms.  Each criterion prints one
summary line (run pytest with -s to see them on success).

    pytest tests/test_acceptance.py -v -s
"""

import random
import time
from fractions import Fraction

import pytest

from qonsager.adjoint import FORWARD, INVERSE, apply_badprod, truncated_sum
from qonsager.currentalg import GENERATOR_CLASSES, aq_system, verify_S_images, verify_generator_class
from qonsager.errors import DegenerateEigenvalues, InvalidQ, NotLeadingMonomial
from qonsager.freealg import Alphabet
from qonsager.identities import IDENTITIES, run_identity_suite
from qonsager.matrices import ExactMatrix
from qonsager.onsager import (
    defining_relations,
    higher_dg_check,
    homomorphism_spotcheck,
    lusztig,
    onsager_context,
)
from qonsager.qcoeff import SYMBOLIC as m
from qonsager.repn import (
    higher_dg_matrix,
    scalar_S_ratio,
    sigma_prefactor,
    spectral_data,
    td_pair_d1,
    theta_sequence,
    twist_module,
    validate_td_pair,
    verify_conjugation,
)
from qonsager.rewrite import MonomialOrder, make_system


def _announce(num: int, ok: bool, text: str):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} - {text}")
    assert ok, f"criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def ctx():
    return onsager_context()


def _valid_parameters(rng, count, degenerate_check):
    pool_a = [Fraction(x) for x in (2, 3, 4, 5, 7)] + [
        Fraction(5, 2), Fraction(7, 3), Fraction(8, 3), Fraction(9, 2), Fraction(11, 3)
    ]
    pool_q = [Fraction(x) for x in (2, 3, 5)] + [
        Fraction(3, 2), Fraction(5, 2), Fraction(4, 3), Fraction(7, 4), Fraction(5, 3)
    ]
    out = []
    while len(out) < count:
        cand = (rng.choice(pool_a), rng.choice(pool_q))
        try:
            degenerate_check(*cand)
        except (DegenerateEigenvalues, InvalidQ):
            continue
        out.append(cand)
    return out


def test_criterion_1_identity_suite_symbolic():
    t0 = time.time()
    records = run_identity_suite(max_index=3)
    elapsed = time.time() - t0
    names = {r.name for r in records}
    ok = (
        names == set(IDENTITIES)
        and all(r.status == "pass" for r in records)
        and any(r.name == "TTP" and r.params == (3,) for r in records)
        and any(r.name == "TXY_S" and r.params == (3,) for r in records)
        and any(r.name == "TXY_B" and r.params == (3,) for r in records)
        and elapsed < 120
    )
    _announce(1, ok, f"all 23 identities over the full grid ({len(records)} instances, {elapsed:.1f}s)")


def test_criterion_2_lusztig_closed_forms(ctx):
    t0 = time.time()
    A, B = ctx.A, ctx.B
    den = m.qnum(1) * m.qnum(2)
    fwd = B + (m.one() / den) * (
        m.q_pow(1) * (A * A * B)
        - (m.q_pow(1) + m.q_pow(-1)) * (A * B * A)
        + m.q_pow(-1) * (B * A * A)
    )
    inv = B + (m.one() / den) * (
        m.q_pow(-1) * (A * A * B)
        - (m.q_pow(1) + m.q_pow(-1)) * (A * B * A)
        + m.q_pow(1) * (B * A * A)
    )
    ok = (
        lusztig(ctx, B, FORWARD) == fwd
        and lusztig(ctx, B, INVERSE) == inv
        and lusztig(ctx, A, FORWARD) == A
        and lusztig(ctx, A, INVERSE) == A
    )
    elapsed = time.time() - t0
    _announce(2, ok and elapsed < 1, f"generator images identical in the free algebra ({elapsed:.2f}s)")


def test_criterion_3_inverse_and_homomorphism(ctx):
    image = lusztig(ctx, ctx.B, FORWARD)
    back = truncated_sum(ctx.A, image, ctx.standard_bound(image), INVERSE, m)
    inverse_ok = ctx.qdg.is_zero_mod(back - ctx.B).is_zero
    pairs = [("A", "B"), ("B", "A"), ("B", "B")]
    hom_ok = all(
        homomorphism_spotcheck(ctx, ctx.alphabet.word(w1), ctx.alphabet.word(w2)).status
        == "pass"
        for w1, w2 in pairs
    )
    _announce(3, inverse_ok and hom_ok, "inverse composition and product spot checks")


def test_criterion_4_standardness_and_higher_orders(ctx):
    base_ok = ctx.qdg.is_zero_mod(apply_badprod(2, ctx.A, ctx.B, m)).is_zero
    certified_ok = all(
        higher_dg_check(ctx, r, "certified").status == "pass" for r in (1, 2, 3)
    )
    rng = random.Random(20260810)
    matrix_ok = True
    for r in (1, 2, 3):
        for d in (2, 4, 6):
            for a, q0 in _valid_parameters(rng, 3, lambda a, q0, d=d: theta_sequence(d, a, q0)):
                sd = spectral_data(d, a, q0)
                if higher_dg_matrix(r, sd, seed=rng.randrange(10**6)).status != "pass":
                    matrix_ok = False
    _announce(
        4,
        base_ok and certified_ok and matrix_ok,
        "membership bound for B; higher orders certified (r<=3) and in matrices (d in {2,4,6})",
    )


def test_criterion_5_current_algebra():
    t0 = time.time()
    ctx = aq_system(3)
    class_ok = all(
        verify_generator_class(ctx, gen, k).status == "pass"
        for gen in GENERATOR_CLASSES
        for k in (0, 1, 2)
    )
    image_ok = all(verify_S_images(ctx, k).status == "pass" for k in (0, 1, 2))
    elapsed = time.time() - t0
    _announce(
        5,
        class_ok and image_ok and elapsed < 60,
        f"generator classes and automorphism images at cutoff 3 ({elapsed:.1f}s)",
    )


def test_criterion_6_spectral_sums():
    rng = random.Random(1789)
    ok = True
    for d in range(1, 7):
        for a, q0 in _valid_parameters(rng, 5, lambda a, q0, d=d: theta_sequence(d, a, q0)):
            sd = spectral_data(d, a, q0)
            for i in range(d + 1):
                for j in range(d + 1):
                    if scalar_S_ratio(i, j, sd, FORWARD) != sd.t[j] / sd.t[i]:
                        ok = False
                    if scalar_S_ratio(i, j, sd, INVERSE) != sd.t[i] / sd.t[j]:
                        ok = False
                    for n in range(abs(i - j) + 1, d + 2):
                        if sigma_prefactor(n, i, j, sd):
                            ok = False
            for i in range(1, d + 1):
                if scalar_S_ratio(i, i - 1, sd, FORWARD) != q0 ** (4 * i - 2 * d - 2) / a ** 2:
                    ok = False
            for j in range(1, d + 1):
                if scalar_S_ratio(j - 1, j, sd, FORWARD) != q0 ** (2 * d + 2 - 4 * j) * a ** 2:
                    ok = False
    _announce(6, ok, "truncated scalar sums equal twist ratios for d <= 6, five parameter pairs each")


def test_criterion_7_conjugation():
    rng = random.Random(40)
    ok = True
    for d in range(1, 5):
        for a, q0 in _valid_parameters(rng, 1, lambda a, q0, d=d: theta_sequence(d, a, q0)):
            sd = spectral_data(d, a, q0)
            ident = ExactMatrix.identity(d + 1)
            if sd.Psi * sd.PsiInv != ident:
                ok = False
            total = ExactMatrix.zeros(d + 1)
            for i, E in enumerate(sd.E):
                total = total + E
                for j, F in enumerate(sd.E):
                    expected = E if i == j else ExactMatrix.zeros(d + 1)
                    if E * F != expected:
                        ok = False
            if total != ident:
                ok = False
            if verify_conjugation(sd, trials=20, seed=rng.randrange(10**6)).status != "pass":
                ok = False
    _announce(7, ok, "operator sum equals twist conjugation for d <= 4, 20 seeded matrices each")


def test_criterion_8_diameter_one_pairs():
    rng = random.Random(8080)
    ok = True
    count = 0
    while count < 5:
        a = Fraction(rng.choice([2, 3, 4, 5, 7, 9])) / rng.choice([1, 2, 3])
        b = Fraction(rng.choice([2, 3, 5, 7, 8])) / rng.choice([1, 2, 3])
        q0 = Fraction(rng.choice([2, 3, 5, 7])) / rng.choice([1, 2, 3])
        try:
            theta_sequence(1, a, q0)
            theta_sequence(1, b, q0)
        except (DegenerateEigenvalues, InvalidQ):
            continue
        count += 1
        tp = td_pair_d1(a, b, q0)
        if validate_td_pair(tp):
            ok = False
        sd = spectral_data(1, a, q0)
        twisted = twist_module(tp, sd, FORWARD)
        if validate_td_pair(twisted):
            ok = False
        if twist_module(twisted, sd, INVERSE).B != tp.B:
            ok = False
    _announce(8, ok, "closed-form pairs, twists and double twists for five parameter triples")


def test_criterion_9_degenerate_inputs():
    named_errors = []
    try:
        theta_sequence(2, 3, 1)
    except InvalidQ:
        named_errors.append("InvalidQ")
    try:
        theta_sequence(1, 1, 2)
    except DegenerateEigenvalues:
        named_errors.append("DegenerateEigenvalues")
    try:
        alphabet = Alphabet(["A", "B"])
        make_system(
            alphabet,
            MonomialOrder(alphabet),
            defining_relations(alphabet),
            [alphabet.word("BAAA"), alphabet.word("ABBB")],
        )
    except NotLeadingMonomial:
        named_errors.append("NotLeadingMonomial")
    ok = named_errors == ["InvalidQ", "DegenerateEigenvalues", "NotLeadingMonomial"]
    _announce(9, ok, "forbidden q, eigenvalue collision and bad orientation raise their named errors")
