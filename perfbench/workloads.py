"""The benchmark's four workloads.

Each workload turns a seed into plain input data, says how to build its
contexts once (the set-up that ``setup_s`` times), and lists the checks of
one pass.  A pass builds fresh contexts, so the program's caches
(``RewriteSystem._nf_cache``, the identity context's operator cache) are
never carried from one timed pass into the next.  Every check is yielded as
(label, known verdict, call); the known verdict is PASS for instances of
theorems and FAIL for the negative controls, which a verifier that says
PASS too easily gets wrong.

The program is reached only through ``pkg``, a namespace of its modules,
and every call looks its function up there when the pass runs, so the
tracer's wrappers are seen.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

PASS, FAIL = "pass", "fail"

# Catalogue negative controls come from these families: their sides are
# cheap to rebuild, so the seeded choice of control does not move pass time.
CONTROL_FAMILIES = ("PLUS", "ADAD", "PM_AD", "XA_AY", "AD_BAD", "LEIBNIZ", "SP1", "SP2")

# Each list holds one class of values under the symmetries q -> -q and
# q -> 1/q (with a -> -a and (a, q) -> (1/a, 1/q) for the matrix models,
# which keep the eigenvalue array up to sign): every seed does the same
# amount of exact arithmetic, on different numbers.
NUMERIC_Q = ("5/3", "-5/3", "3/5", "-3/5")
MATRIX_AQ = tuple(
    (sa + a, sq + q)
    for a, q in (("3/2", "5/3"), ("2/3", "3/5"))
    for sa in ("", "-")
    for sq in ("", "-")
)

STANDARD_PAIRS = (("A", "B"), ("B", "A"), ("B", "B"))
# Seeded multiplicativity pairs carry three B letters in total: B*BB costs
# about 0.2 s, BB*BB about 4.5 s, so four B letters would swamp the pass.
SEEDED_PAIRS = (
    ("B", "BB"), ("BB", "B"), ("AB", "BB"), ("BA", "BB"), ("BB", "AB"),
    ("BB", "BA"), ("B", "BAB"), ("BAB", "B"), ("ABB", "B"), ("B", "ABB"),
)
# Control pairs have three letters, one of them B, so every draw costs alike.
CONTROL_PAIRS = (("AB", "A"), ("A", "AB"), ("BA", "A"), ("A", "BA"), ("AA", "B"), ("B", "AA"))

CATALOGUE_SYMBOLIC_MAX_INDEX = 3
CATALOGUE_NUMERIC_MAX_INDEX = 4
HIGHER_DG_REWRITE = 4
HIGHER_DG_CERTIFIED = 3
CURRENT_KMAX = 6
MATRIX_D = 6
CONJUGATION_TRIALS = 20
MATRIX_HIGHER_DG = 4
CONTROLS = 2
# The presentation pass has few checks, and its 90th percentile falls on
# the controls: four of them make that percentile a middle value of eight
# timings over two passes instead of an end value of four.
PRESENTATION_CONTROLS = 4


def _interleave(*groups):
    """Merge lists of checks, spreading each evenly over the pass.

    The host's speed drifts within seconds; a kind of check run back to
    back in one short stretch would be timed at a single speed, while
    interleaved it is timed across the pass.  Order within a list is kept.
    """
    keyed = [((k + 0.5) / len(g), n, item)
             for n, g in enumerate(groups) for k, item in enumerate(g)]
    return [item for _, _, item in sorted(keyed, key=lambda t: t[:2])]


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable  # (pkg, seed) -> dict of plain data
    setup: Callable  # (pkg, inputs) -> contexts, built as a first run would
    checks: Callable  # (pkg, inputs) -> iterable of (label, verdict, call)
    layers: tuple  # layers a traced pass must reach


# ---------------------------------------------------------------------------
# identity catalogue, symbolic and numeric
# ---------------------------------------------------------------------------

def _catalogue_selection(pkg, max_index):
    """One instance per setting of all parameters but the first.

    One-parameter families keep their whole grid.  For the others the
    first parameter (the twist h of the trilinear families) cycles through
    its range along the sorted settings of the trailing indices, so every
    family, every setting of the trailing indices and every twist is in
    every pass.  Instance cost moves with h as well as with the trailing
    indices, so h is not drawn: the selection, and with it the work of a
    pass, is the same for every seed.
    """
    ident = pkg.identities
    out = []
    for name, spec in ident.IDENTITIES.items():
        grid = list(ident.parameter_grid(spec, max_index))
        if len(spec.params) == 1:
            out += [(name, combo) for combo in grid]
            continue
        groups: dict = {}
        for combo in grid:
            groups.setdefault(combo[1:], []).append(combo)
        out += [(name, groups[key][k % len(groups[key])])
                for k, key in enumerate(sorted(groups))]
    return out


def _catalogue_controls(rng, instances):
    pool = [inst for inst in instances if inst[0] in CONTROL_FAMILIES]
    return rng.sample(pool, CONTROLS)


def _catalogue_symbolic_inputs(pkg, seed):
    rng = random.Random(seed)
    instances = _catalogue_selection(pkg, CATALOGUE_SYMBOLIC_MAX_INDEX)
    return {"q": None, "instances": instances,
            "controls": _catalogue_controls(rng, instances)}


def _catalogue_numeric_inputs(pkg, seed):
    rng = random.Random(seed)
    ident = pkg.identities
    instances = [
        (name, combo)
        for name, spec in ident.IDENTITIES.items()
        for combo in ident.parameter_grid(spec, CATALOGUE_NUMERIC_MAX_INDEX)
    ]
    q = rng.choice(NUMERIC_Q)
    return {"q": q, "instances": instances,
            "controls": _catalogue_controls(rng, instances)}


def _coefficient_mode(pkg, inp):
    if inp["q"] is None:
        return pkg.qcoeff.SYMBOLIC
    return pkg.qcoeff.NumericQ(Fraction(inp["q"]))


def _catalogue_setup(pkg, inp):
    return pkg.identities.make_context(_coefficient_mode(pkg, inp))


def _scaled_rhs_control(pkg, ctx, name, params):
    """An identity with its right side scaled by q; the answer is FAIL."""
    lhs, rhs = pkg.identities.IDENTITIES[name].build(ctx, *params)
    diff = lhs - ctx.mode.q_pow(1) * rhs
    return pkg.report.CheckRecord(
        name=f"control-scaled-rhs-{name}",
        params=params,
        status=PASS if diff.is_zero else FAIL,
        anchor="control",
        witness=None if diff.is_zero else diff,
    )


def _catalogue_checks(pkg, inp):
    mode = _coefficient_mode(pkg, inp)
    ctx = pkg.identities.make_context(mode)
    for name, params in inp["instances"]:
        yield (f"{name}{params}", PASS,
               functools.partial(pkg.identities.verify_identity, name, params, mode, _ctx=ctx))
    for name, params in inp["controls"]:
        yield (f"control-{name}{params}", FAIL,
               functools.partial(_scaled_rhs_control, pkg, ctx, name, params))


# ---------------------------------------------------------------------------
# the A/B presentation by rewriting, and the current algebra
# ---------------------------------------------------------------------------

def _presentation_inputs(pkg, seed):
    rng = random.Random(seed)
    return {
        "pairs": rng.sample(SEEDED_PAIRS, 2),
        "controls": rng.sample(CONTROL_PAIRS, PRESENTATION_CONTROLS),
    }


def _presentation_setup(pkg, inp):
    sym = pkg.qcoeff.SYMBOLIC
    ctx = pkg.onsager.onsager_context(sym)
    ctx.matrix_models()
    return ctx, pkg.currentalg.aq_system(CURRENT_KMAX, sym)


def _homcheck(pkg, ctx, w1, w2):
    word = ctx.alphabet.word
    return pkg.onsager.homomorphism_spotcheck(ctx, word(w1), word(w2))


def _scaled_multiplicativity_control(pkg, w1, w2):
    """L(w1 w2) - q L(w1) L(w2) is (1 - q) L(w1 w2) modulo the relations.

    L is an automorphism and the words act invertibly in the matrix
    models, so the residue lies outside the ideal: the answer is FAIL, by
    refutation in a model.  Each control builds its own context, so its
    verdict and its cost do not depend on what other checks cached.
    """
    on = pkg.onsager
    ctx = on.onsager_context(pkg.qcoeff.SYMBOLIC)
    one = ctx.mode.one()
    p1 = pkg.freealg.NcPoly.monomial(ctx.alphabet, ctx.alphabet.word(w1), one)
    p2 = pkg.freealg.NcPoly.monomial(ctx.alphabet, ctx.alphabet.word(w2), one)
    product = ctx.qdg.normal_form(on.lusztig(ctx, p1) * on.lusztig(ctx, p2))
    res = ctx.qdg.is_zero_mod(on.lusztig(ctx, p1 * p2) - ctx.mode.q_pow(1) * product)
    if res.is_zero:
        confirmed, detail = True, "reduced to zero"
    else:
        confirmed, detail = ctx.confirm_in_models(res.residue)
    return pkg.report.CheckRecord(
        name="control-scaled-multiplicativity",
        params=(w1, w2),
        status=PASS if confirmed else FAIL,
        anchor="control",
        detail=detail,
    )


def _presentation_checks(pkg, inp):
    on, cur = pkg.onsager, pkg.currentalg
    sym = pkg.qcoeff.SYMBOLIC
    ctx = on.onsager_context(sym)
    aq = cur.aq_system(CURRENT_KMAX, sym)
    # checks on ctx share its normal-form cache and keep this order
    presentation = [
        (f"higher-dg-r{r}-rewrite", PASS, functools.partial(on.higher_dg_check, ctx, r, "rewrite"))
        for r in range(1, HIGHER_DG_REWRITE + 1)
    ] + [
        (f"higher-dg-r{r}-certified", PASS, functools.partial(on.higher_dg_check, ctx, r, "certified"))
        for r in range(1, HIGHER_DG_CERTIFIED + 1)
    ] + [
        (f"homcheck-{w1}-{w2}", PASS, functools.partial(_homcheck, pkg, ctx, w1, w2))
        for w1, w2 in STANDARD_PAIRS + tuple(inp["pairs"])
    ]
    # the record set of `qonsager current verify`
    current = [
        (f"class-{gen}-k{k}", PASS, functools.partial(cur.verify_generator_class, aq, gen, k))
        for k in range(aq.K) for gen in cur.GENERATOR_CLASSES
    ]
    current.append((f"class-Wminus-k{aq.K}", PASS,
                    functools.partial(cur.verify_generator_class, aq, "Wminus", aq.K)))
    current += [
        (f"automorphism-images-k{k}", PASS, functools.partial(cur.verify_S_images, aq, k))
        for k in range(aq.K)
    ]
    current += [
        (f"proof-replay-{gen}-k{k}", PASS, functools.partial(cur.replay_proof, aq, gen, k))
        for gen in ("Wplus", "G", "Gt") for k in range(aq.K)
    ]
    controls = [
        (f"control-multiplicativity-{w1}-{w2}", FAIL,
         functools.partial(_scaled_multiplicativity_control, pkg, w1, w2))
        for w1, w2 in inp["controls"]
    ]
    return _interleave(presentation, current, controls)


# ---------------------------------------------------------------------------
# exact matrix models
# ---------------------------------------------------------------------------

def _matrix_inputs(pkg, seed):
    rng = random.Random(seed)
    a, q = rng.choice(MATRIX_AQ)
    return {
        "a": a,
        "q": q,
        "trial_seeds": [rng.randrange(2 ** 31) for _ in range(CONJUGATION_TRIALS)],
        "higher_dg_seed": rng.randrange(2 ** 31),
        "control_seeds": [rng.randrange(2 ** 31) for _ in range(CONTROLS)],
    }


def _matrix_setup(pkg, inp):
    return pkg.repn.spectral_data(MATRIX_D, Fraction(inp["a"]), Fraction(inp["q"]))


def _scalar_sum_check(pkg, sd, i, j):
    """One eigenline of `qonsager repn ssum`: both scalar sums and the tail."""
    repn, adj = pkg.repn, pkg.adjoint
    fwd = repn.scalar_S_ratio(i, j, sd, adj.FORWARD)
    inv = repn.scalar_S_ratio(i, j, sd, adj.INVERSE)
    ok = fwd == sd.t[j] / sd.t[i] and inv == sd.t[i] / sd.t[j]
    tail_ok = all(not repn.sigma_prefactor(n, i, j, sd) for n in range(abs(i - j) + 1, sd.d + 2))
    return pkg.report.CheckRecord(
        name="scalar-sum", params=(i, j), status=PASS if ok and tail_ok else FAIL,
        anchor="scalar-sum",
    )


def _wrong_direction_control(pkg, sd, seed):
    """The forward sum compared with Psi X Psi^-1 instead of Psi^-1 X Psi."""
    rng = random.Random(seed)
    n = sd.d + 1
    X = pkg.matrices.ExactMatrix(
        [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
    )
    fwd = pkg.repn.matrix_lusztig(X, sd, pkg.adjoint.FORWARD)
    return pkg.report.CheckRecord(
        name="control-wrong-direction", params=(seed,),
        status=PASS if fwd == sd.Psi * X * sd.PsiInv else FAIL, anchor="control",
    )


def _matrix_checks(pkg, inp):
    repn = pkg.repn
    sd = repn.spectral_data(MATRIX_D, Fraction(inp["a"]), Fraction(inp["q"]))
    conjugation = [
        (f"conjugation-{s}", PASS, functools.partial(repn.verify_conjugation, sd, 1, s))
        for s in inp["trial_seeds"]
    ]
    higher_dg = [
        (f"higher-dg-matrix-r{r}", PASS,
         functools.partial(repn.higher_dg_matrix, r, sd, inp["higher_dg_seed"]))
        for r in range(1, MATRIX_HIGHER_DG + 1)
    ]
    scalar_sums = [
        (f"scalar-sum-{i}-{j}", PASS, functools.partial(_scalar_sum_check, pkg, sd, i, j))
        for i in range(sd.d + 1) for j in range(sd.d + 1)
    ]
    controls = [
        (f"control-wrong-direction-{s}", FAIL, functools.partial(_wrong_direction_control, pkg, sd, s))
        for s in inp["control_seeds"]
    ]
    return _interleave(conjugation, higher_dg, scalar_sums, controls)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("catalogue-symbolic", _catalogue_symbolic_inputs, _catalogue_setup,
                 _catalogue_checks, ("qcoeff", "freealg", "adjoint", "identities", "report")),
        Workload("catalogue-numeric", _catalogue_numeric_inputs, _catalogue_setup,
                 _catalogue_checks, ("freealg", "adjoint", "identities", "report")),
        Workload("presentation-rewrite", _presentation_inputs, _presentation_setup,
                 _presentation_checks,
                 ("qcoeff", "freealg", "adjoint", "rewrite", "onsager", "currentalg",
                  "matrices", "repn", "report")),
        Workload("matrix-models", _matrix_inputs, _matrix_setup, _matrix_checks,
                 ("adjoint", "matrices", "repn", "report")),
    )
}
