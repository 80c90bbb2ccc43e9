"""Batch driver: verification suites, expression images, JSON reports.

One subcommand per verification surface.  Reports are deterministic for a
fixed configuration and seed (sorted keys, no timestamps); the process exit
code is derived from the check records: 1 if any failed, else 2 if any was
inconclusive, else 0.  Usage errors exit 64 and input/output errors 74.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import currentalg, identities, onsager, repn
from .adjoint import FORWARD, INVERSE
from .errors import InvariantViolation, ParseError, QonsagerError
from .freealg import NcPoly, ncpoly_from_json, ncpoly_to_json
from .qcoeff import SYMBOLIC, NumericQ
from .report import CheckRecord, FAIL, PASS, Report

EX_USAGE = 64
EX_IOERR = 74


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EX_USAGE)


class UsageError(Exception):
    """An option value the command cannot run with; reported with exit 64."""


def _rational(args, name: str) -> Fraction:
    """The value of option --name as a nonzero Fraction; --q also avoids 1, -1."""
    text = getattr(args, name)
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"--{name} must be a rational number, got {text!r}") from None
    forbidden = (0, 1, -1) if name == "q" else (0,)
    if value in forbidden:
        raise UsageError(
            f"--{name} must avoid {', '.join(map(str, forbidden))}, got {text!r}"
        )
    return value


def _at_least(value: int, flag: str, low: int) -> None:
    """Reject a count below low: the command would check nothing or not run."""
    if value < low:
        raise UsageError(f"{flag} must be at least {low}, got {value}")


def _mode_from(args) -> object:
    if getattr(args, "mode", "symbolic") == "numeric":
        if not getattr(args, "q", None):
            raise UsageError("--mode numeric needs --q")
        return NumericQ(_rational(args, "q"))
    return SYMBOLIC


def _direction_from(args) -> str:
    return FORWARD if args.direction in ("fwd", "forward") else INVERSE


def parse_expression(path, mode=SYMBOLIC) -> NcPoly:
    """Load an expression file in the canonical JSON format."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON: {e}", location=str(path))
    return ncpoly_from_json(data, mode)


def emit_expression(p: NcPoly, path=None) -> str:
    """Serialize an expression canonically; write to path when given."""
    text = json.dumps(ncpoly_to_json(p), indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def _show(report: Report, args) -> int:
    """Print the report, as JSON with --json; return its exit code."""
    print(report.dumps() if args.json else report.render_text())
    return report.exit_code


def _finish(report: Report, args) -> int:
    """Show the report and write its JSON to --out when given."""
    code = _show(report, args)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.dumps() + "\n")
    return code


def _write_pair(tp, path) -> None:
    """Write a tridiagonal pair as JSON to path when given."""
    if path:
        with open(path, "w") as fh:
            json.dump(repn.td_pair_to_json(tp), fh, indent=2, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _cmd_verify_identities(args) -> int:
    _at_least(args.max_index, "--max-index", 0)
    mode = _mode_from(args)
    records = identities.run_identity_suite(max_index=args.max_index, mode=mode)
    report = Report(
        "identities",
        records,
        config={
            "max_index": args.max_index,
            "mode": args.mode,
            "q": args.q,
            "seed": args.seed,
        },
    )
    return _finish(report, args)


def _cmd_onsager_lusztig(args) -> int:
    mode = _mode_from(args)
    ctx = onsager.onsager_context(mode)
    expr = parse_expression(args.expr, mode)
    image = onsager.lusztig(ctx, expr, _direction_from(args))
    print(emit_expression(image, args.out))
    return 0


def _cmd_onsager_higher_dg(args) -> int:
    _at_least(args.r, "--r", 1)
    mode = _mode_from(args)
    ctx = onsager.onsager_context(mode)
    methods = ["rewrite", "certified"] if args.method == "both" else [args.method]
    records = []
    for r in range(1, args.r + 1):
        for method in methods:
            rec = onsager.higher_dg_check(ctx, r, method)
            rec.name = f"{rec.name}-{method}"
            records.append(rec)
    report = Report(
        "onsager-higher-dg",
        records,
        config={"r": args.r, "method": args.method, "mode": args.mode, "q": args.q},
    )
    return _finish(report, args)


def _cmd_onsager_homcheck(args) -> int:
    mode = _mode_from(args)
    ctx = onsager.onsager_context(mode)
    if args.w1 is not None or args.w2 is not None:
        pairs = [(args.w1 or "", args.w2 or "")]
    else:
        pairs = [("A", "B"), ("B", "A"), ("B", "B")]
    try:
        words = [(ctx.alphabet.word(w1), ctx.alphabet.word(w2)) for w1, w2 in pairs]
    except ParseError as e:
        raise UsageError(f"--w1/--w2: {e}") from None
    records = [onsager.homomorphism_spotcheck(ctx, u, v) for u, v in words]
    report = Report(
        "onsager-homcheck",
        records,
        config={"pairs": ["".join(p) for p in pairs], "mode": args.mode, "q": args.q},
    )
    return _finish(report, args)


def _cmd_current_verify(args) -> int:
    mode = _mode_from(args)
    ctx = currentalg.aq_system(args.kmax, mode)
    records = []
    for k in range(ctx.K):
        for gen in currentalg.GENERATOR_CLASSES:
            records.append(currentalg.verify_generator_class(ctx, gen, k))
    records.append(currentalg.verify_generator_class(ctx, "Wminus", ctx.K))
    for k in range(ctx.K):
        records.append(currentalg.verify_S_images(ctx, k))
    for gen in ("Wplus", "G", "Gt"):
        for k in range(ctx.K):
            records.append(currentalg.replay_proof(ctx, gen, k))
    report = Report(
        "current-verify",
        records,
        config={"kmax": args.kmax, "mode": args.mode, "q": args.q},
    )
    return _finish(report, args)


def _cmd_repn_ssum(args) -> int:
    _at_least(args.d, "--d", 1)
    sd = repn.spectral_data(args.d, _rational(args, "a"), _rational(args, "q"))
    records = []
    for i in range(args.d + 1):
        for j in range(args.d + 1):
            fwd = repn.scalar_S_ratio(i, j, sd, FORWARD)
            inv = repn.scalar_S_ratio(i, j, sd, INVERSE)
            ok = fwd == sd.t[j] / sd.t[i] and inv == sd.t[i] / sd.t[j]
            tail_ok = all(
                not repn.sigma_prefactor(n, i, j, sd)
                for n in range(abs(i - j) + 1, args.d + 2)
            )
            records.append(
                CheckRecord(
                    name="scalar-sum",
                    params=(i, j),
                    status=PASS if ok and tail_ok else FAIL,
                    anchor="scalar-sum",
                )
            )
    report = Report(
        "repn-ssum",
        records,
        config={"d": args.d, "a": args.a, "q": args.q},
    )
    return _finish(report, args)


def _cmd_repn_conjugation(args) -> int:
    _at_least(args.d, "--d", 1)
    _at_least(args.trials, "--trials", 1)
    sd = repn.spectral_data(args.d, _rational(args, "a"), _rational(args, "q"))
    records = [repn.verify_conjugation(sd, args.trials, args.seed)]
    report = Report(
        "repn-conjugation",
        records,
        config={
            "d": args.d,
            "a": args.a,
            "q": args.q,
            "trials": args.trials,
            "seed": args.seed,
        },
    )
    return _finish(report, args)


def _cmd_repn_higher_dg(args) -> int:
    _at_least(args.r, "--r", 1)
    _at_least(args.d, "--d", 1)
    sd = repn.spectral_data(args.d, _rational(args, "a"), _rational(args, "q"))
    records = [repn.higher_dg_matrix(r, sd, args.seed) for r in range(1, args.r + 1)]
    report = Report(
        "repn-higher-dg",
        records,
        config={"r": args.r, "d": args.d, "a": args.a, "q": args.q, "seed": args.seed},
    )
    return _finish(report, args)


def _cmd_repn_d1(args) -> int:
    tp = repn.td_pair_d1(_rational(args, "a"), _rational(args, "b"), _rational(args, "q"))
    records = [
        CheckRecord(name="d1-pair", params=(args.a, args.b, args.q), status=PASS,
                    anchor="d1-pair", detail="all invariants validated"),
        repn.check_dg_spectral(tp.A, tp.B, tp.q0, tp.theta, tp.theta_star),
    ]
    _write_pair(tp, args.out)
    report = Report("repn-d1", records, config={"a": args.a, "b": args.b, "q": args.q})
    return _show(report, args)


def _cmd_repn_import(args) -> int:
    try:
        tp = repn.import_td_pair(args.file)
        records = [
            CheckRecord(name="import", status=PASS, anchor="pair-import",
                        detail=f"d={tp.d}, all invariants validated")
        ]
    except InvariantViolation as e:
        records = [
            CheckRecord(name="import", status=FAIL, anchor="pair-import",
                        detail=str(e))
        ]
    report = Report("repn-import", records, config={"file": args.file})
    return _finish(report, args)


def _cmd_repn_twist(args) -> int:
    if args.file:
        tp = repn.import_td_pair(args.file)
    else:
        tp = repn.td_pair_d1(
            _rational(args, "a"), _rational(args, "b"), _rational(args, "q")
        )
    sd = repn.spectral_data(tp.d, tp.a, tp.q0, A=tp.A)
    twisted = repn.twist_module(tp, sd, _direction_from(args))
    back = repn.twist_module(
        twisted, sd, INVERSE if _direction_from(args) == FORWARD else FORWARD
    )
    records = [
        CheckRecord(name="twist", status=PASS, anchor="twist",
                    detail="twisted pair passes all invariants"),
        CheckRecord(name="double-twist", status=PASS if back.B == tp.B else FAIL,
                    anchor="twist", detail="inverse twist restores the pair"),
    ]
    _write_pair(twisted, args.out)
    report = Report(
        "repn-twist",
        records,
        config={"file": args.file, "a": args.a, "b": args.b, "q": args.q,
                "direction": args.direction},
    )
    return _show(report, args)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p, *, seed=False, trials=False):
    p.add_argument("--mode", choices=["symbolic", "numeric"], default="symbolic")
    p.add_argument("--q", help="rational value for q in numeric mode")
    p.add_argument("--json", action="store_true", help="print the JSON report")
    p.add_argument("--out", help="write the JSON report to this path")
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if trials:
        p.add_argument("--trials", type=int, default=20)


def build_parser() -> _Parser:
    parser = _Parser(prog="qonsager", description=__doc__)
    sub = parser.add_subparsers(dest="group", required=True)

    verify = sub.add_parser("verify", help="free-algebra identity catalogue")
    vsub = verify.add_subparsers(dest="action", required=True)
    vid = vsub.add_parser("identities")
    vid.add_argument("--max-index", type=int, default=3, dest="max_index")
    _add_common(vid, seed=True)
    vid.set_defaults(func=_cmd_verify_identities)

    ons = sub.add_parser("onsager", help="presentation-level checks")
    osub = ons.add_subparsers(dest="action", required=True)
    olu = osub.add_parser("lusztig")
    olu.add_argument("--expr", required=True, help="expression JSON file")
    olu.add_argument("--direction", choices=["fwd", "inv", "forward", "inverse"],
                     default="fwd")
    _add_common(olu)
    olu.set_defaults(func=_cmd_onsager_lusztig)
    ohd = osub.add_parser("higher-dg")
    ohd.add_argument("--r", type=int, default=3)
    ohd.add_argument("--method", choices=["rewrite", "certified", "both"], default="both")
    _add_common(ohd)
    ohd.set_defaults(func=_cmd_onsager_higher_dg)
    ohc = osub.add_parser("homcheck")
    ohc.add_argument("--w1", help="first word over the generators, e.g. AB")
    ohc.add_argument("--w2", help="second word over the generators")
    _add_common(ohc)
    ohc.set_defaults(func=_cmd_onsager_homcheck)

    cur = sub.add_parser("current", help="current-algebra checks")
    csub = cur.add_subparsers(dest="action", required=True)
    cve = csub.add_parser("verify")
    cve.add_argument("--kmax", type=int, default=3)
    _add_common(cve)
    cve.set_defaults(func=_cmd_current_verify)

    rep = sub.add_parser("repn", help="exact matrix realizations")
    rsub = rep.add_subparsers(dest="action", required=True)
    rss = rsub.add_parser("ssum")
    rss.add_argument("--d", type=int, required=True)
    rss.add_argument("--a", required=True)
    rss.add_argument("--q", required=True)
    rss.add_argument("--json", action="store_true")
    rss.add_argument("--out")
    rss.set_defaults(func=_cmd_repn_ssum)
    rcj = rsub.add_parser("conjugation")
    rcj.add_argument("--d", type=int, required=True)
    rcj.add_argument("--a", required=True)
    rcj.add_argument("--q", required=True)
    rcj.add_argument("--trials", type=int, default=20)
    rcj.add_argument("--seed", type=int, default=0)
    rcj.add_argument("--json", action="store_true")
    rcj.add_argument("--out")
    rcj.set_defaults(func=_cmd_repn_conjugation)
    rhd = rsub.add_parser("higher-dg")
    rhd.add_argument("--r", type=int, default=3)
    rhd.add_argument("--d", type=int, required=True)
    rhd.add_argument("--a", required=True)
    rhd.add_argument("--q", required=True)
    rhd.add_argument("--seed", type=int, default=0)
    rhd.add_argument("--json", action="store_true")
    rhd.add_argument("--out")
    rhd.set_defaults(func=_cmd_repn_higher_dg)
    rd1 = rsub.add_parser("d1")
    rd1.add_argument("--a", required=True)
    rd1.add_argument("--b", required=True)
    rd1.add_argument("--q", required=True)
    rd1.add_argument("--json", action="store_true")
    rd1.add_argument("--out", help="write the pair JSON to this path")
    rd1.set_defaults(func=_cmd_repn_d1)
    rim = rsub.add_parser("import")
    rim.add_argument("--file", required=True)
    rim.add_argument("--json", action="store_true")
    rim.add_argument("--out")
    rim.set_defaults(func=_cmd_repn_import)
    rtw = rsub.add_parser("twist")
    rtw.add_argument("--file")
    rtw.add_argument("--a", default="3")
    rtw.add_argument("--b", default="2")
    rtw.add_argument("--q", default="2")
    rtw.add_argument("--direction", choices=["fwd", "inv", "forward", "inverse"],
                     default="fwd")
    rtw.add_argument("--json", action="store_true")
    rtw.add_argument("--out", help="write the twisted pair JSON to this path")
    rtw.set_defaults(func=_cmd_repn_twist)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except UsageError as e:
        parser.error(str(e))
    except (OSError, ParseError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EX_IOERR
    except QonsagerError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
