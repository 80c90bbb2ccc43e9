"""Batch driver: verification suites, expression images, JSON reports.

One subcommand per verification surface.  Reports are deterministic for a
fixed configuration and seed (sorted keys, no timestamps); the process exit
code is derived from the check records: 1 if any failed, else 2 if any was
inconclusive, else 0.  Usage errors exit 64 and input/output errors 74.

COMMANDS is the one table of subcommands: a row gives a command's group,
action, handler, report suite and options with their argparse settings.
build_parser reads the parser from it, and _report runs every report command
from it; handlers only return their check records (as an Outcome).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple

from . import currentalg, identities, onsager, repn
from .adjoint import FORWARD, INVERSE
from .errors import DegenerateEigenvalues, InvariantViolation, ParseError, QonsagerError
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
        raise UsageError(f"--{name} must avoid {', '.join(map(str, forbidden))}, got {text!r}")
    return value


def _mode_from(args) -> object:
    if args.mode == "numeric":
        if not args.q:
            raise UsageError("--mode numeric needs --q")
        return NumericQ(_rational(args, "q"))
    return SYMBOLIC


def _direction_from(args) -> str:
    return FORWARD if args.direction in ("fwd", "forward") else INVERSE


def _from_options(build, *values):
    """build(*values) for option values: an eigenvalue collision is a usage error."""
    try:
        return build(*values)
    except DegenerateEigenvalues as e:
        raise UsageError(str(e)) from None


def _spectral_data(args) -> repn.SpectralData:
    return _from_options(repn.spectral_data, args.d, _rational(args, "a"), _rational(args, "q"))


def _d1_pair(args) -> repn.TDPair:
    return _from_options(repn.td_pair_d1, *(_rational(args, n) for n in ("a", "b", "q")))


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


class Outcome(NamedTuple):
    """What a report handler returns to the dispatcher."""

    records: list[CheckRecord]
    config: dict = {}  # report config that the option values do not give
    out: dict | None = None  # JSON that --out writes in place of the report


def _cmd_verify_identities(args) -> Outcome:
    mode = _mode_from(args)
    return Outcome(identities.run_identity_suite(max_index=args.max_index, mode=mode))


def _cmd_onsager_lusztig(args) -> int:
    mode = _mode_from(args)
    ctx = onsager.onsager_context(mode)
    expr = parse_expression(args.expr, mode)
    if expr.alphabet != ctx.alphabet:
        raise ParseError(
            f"expression alphabet must be {list(ctx.alphabet.names)}, "
            f"got {list(expr.alphabet.names)}",
            location=str(args.expr),
        )
    image = onsager.lusztig(ctx, expr, _direction_from(args))
    print(emit_expression(image, args.out))
    return 0


def _cmd_onsager_higher_dg(args) -> Outcome:
    ctx = onsager.onsager_context(_mode_from(args))
    methods = ["rewrite", "certified"] if args.method == "both" else [args.method]
    records = []
    for r in range(1, args.r + 1):
        for method in methods:
            rec = onsager.higher_dg_check(ctx, r, method)
            rec.name = f"{rec.name}-{method}"
            records.append(rec)
    return Outcome(records)


def _cmd_onsager_homcheck(args) -> Outcome:
    ctx = onsager.onsager_context(_mode_from(args))
    if args.w1 is not None or args.w2 is not None:
        pairs = [(args.w1 or "", args.w2 or "")]
    else:
        pairs = [("A", "B"), ("B", "A"), ("B", "B")]
    try:
        words = [(ctx.alphabet.word(w1), ctx.alphabet.word(w2)) for w1, w2 in pairs]
    except ParseError as e:
        raise UsageError(f"--w1/--w2: {e}") from None
    records = [onsager.homomorphism_spotcheck(ctx, u, v) for u, v in words]
    return Outcome(records, {"pairs": [list(p) for p in pairs]})


def _cmd_current_verify(args) -> Outcome:
    ctx = currentalg.aq_system(args.kmax, _mode_from(args))
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
    return Outcome(records)


def _cmd_repn_ssum(args) -> Outcome:
    sd = _spectral_data(args)
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
            records.append(CheckRecord(name="scalar-sum", params=(i, j), anchor="scalar-sum",
                                       status=PASS if ok and tail_ok else FAIL))
    return Outcome(records)


def _cmd_repn_conjugation(args) -> Outcome:
    return Outcome([repn.verify_conjugation(_spectral_data(args), args.trials, args.seed)])


def _cmd_repn_higher_dg(args) -> Outcome:
    sd = _spectral_data(args)
    return Outcome([repn.higher_dg_matrix(r, sd, args.seed) for r in range(1, args.r + 1)])


def _cmd_repn_d1(args) -> Outcome:
    tp = _d1_pair(args)
    records = [
        CheckRecord(name="d1-pair", params=(args.a, args.b, args.q), status=PASS,
                    anchor="d1-pair", detail="all invariants validated"),
        repn.check_dg_spectral(tp),
    ]
    return Outcome(records, out=repn.td_pair_to_json(tp))


def _cmd_repn_import(args) -> Outcome:
    try:
        status, detail = PASS, f"d={repn.import_td_pair(args.file).d}, all invariants validated"
    except InvariantViolation as e:
        status, detail = FAIL, str(e)
    record = CheckRecord(name="import", status=status, anchor="pair-import", detail=detail)
    return Outcome([record])


def _cmd_repn_twist(args) -> Outcome:
    if args.file:  # the config records the pair's parameters, not the option defaults
        tp = repn.import_td_pair(args.file)
        config = {"a": str(tp.a), "b": str(tp.b), "q": str(tp.q0)}
    else:
        tp, config = _d1_pair(args), {}
    sd = repn.spectral_data(tp.d, tp.a, tp.q0, A=tp.A, E=tp.E)
    direction = _direction_from(args)
    twisted = repn.twist_module(tp, sd, direction)
    back = repn.twist_module(twisted, sd, INVERSE if direction == FORWARD else FORWARD)
    records = [
        CheckRecord(name="twist", status=PASS, anchor="twist",
                    detail="twisted pair passes all invariants"),
        CheckRecord(name="double-twist", status=PASS if back.B == tp.B else FAIL,
                    anchor="twist", detail="inverse twist restores the pair"),
    ]
    return Outcome(records, config, repn.td_pair_to_json(twisted))


# -- the command table -----------------------------------------------------------

class Opt(NamedTuple):
    flag: str
    settings: dict = {}  # passed to argparse's add_argument
    low: int | None = None  # smallest accepted count; below it is a usage error
    config: bool = True  # recorded in the report's config

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


class Command(NamedTuple):
    group: str
    action: str
    handler: Callable
    suite: str | None  # None: not a report; the handler prints and returns the code
    options: tuple[Opt, ...]  # in help order


GROUPS = {
    "verify": "free-algebra identity catalogue",
    "onsager": "presentation-level checks",
    "current": "current-algebra checks",
    "repn": "exact matrix realizations",
}

_MODE = (
    Opt("--mode", dict(choices=["symbolic", "numeric"], default="symbolic")),
    Opt("--q", dict(help="rational value for q in numeric mode")),
)
_JSON = Opt("--json", dict(action="store_true"), config=False)
_OUT = (
    Opt("--json", dict(action="store_true", help="print the JSON report"), config=False),
    Opt("--out", dict(help="write the JSON report to this path"), config=False),
)
_REPN_OUT = (_JSON, Opt("--out", config=False))
_DIRECTION = Opt("--direction", dict(choices=["fwd", "inv", "forward", "inverse"],
                                     default="fwd"))
_R = Opt("--r", dict(type=int, default=3), low=1)
_D = Opt("--d", dict(type=int, required=True), low=1)
_SEED = Opt("--seed", dict(type=int, default=0))
_A, _B, _Q = (Opt(f"--{n}", dict(required=True)) for n in ("a", "b", "q"))

COMMANDS = (
    Command("verify", "identities", _cmd_verify_identities, "identities", (
        Opt("--max-index", dict(type=int, default=3), low=0), *_MODE, *_OUT)),
    Command("onsager", "lusztig", _cmd_onsager_lusztig, None, (
        Opt("--expr", dict(required=True, help="expression JSON file")), _DIRECTION,
        *_MODE,
        Opt("--json", dict(action="store_true", help="changes nothing: the image is "
                           "always printed as expression JSON"), config=False),
        Opt("--out", dict(help="write the image expression to this path"), config=False))),
    Command("onsager", "higher-dg", _cmd_onsager_higher_dg, "onsager-higher-dg", (
        _R, Opt("--method", dict(choices=["rewrite", "certified", "both"], default="both")),
        *_MODE, *_OUT)),
    Command("onsager", "homcheck", _cmd_onsager_homcheck, "onsager-homcheck", (
        Opt("--w1", dict(help="first word over the generators, e.g. AB"), config=False),
        Opt("--w2", dict(help="second word over the generators"), config=False),
        *_MODE, *_OUT)),
    Command("current", "verify", _cmd_current_verify, "current-verify", (
        Opt("--kmax", dict(type=int, default=3), low=1), *_MODE, *_OUT)),
    Command("repn", "ssum", _cmd_repn_ssum, "repn-ssum", (_D, _A, _Q, *_REPN_OUT)),
    Command("repn", "conjugation", _cmd_repn_conjugation, "repn-conjugation", (
        _D, _A, _Q, Opt("--trials", dict(type=int, default=20), low=1), _SEED,
        *_REPN_OUT)),
    Command("repn", "higher-dg", _cmd_repn_higher_dg, "repn-higher-dg", (
        _R, _D, _A, _Q, _SEED, *_REPN_OUT)),
    Command("repn", "d1", _cmd_repn_d1, "repn-d1", (
        _A, _B, _Q, _JSON,
        Opt("--out", dict(help="write the pair JSON to this path"), config=False))),
    Command("repn", "import", _cmd_repn_import, "repn-import", (
        Opt("--file", dict(required=True)), *_REPN_OUT)),
    Command("repn", "twist", _cmd_repn_twist, "repn-twist", (
        Opt("--file"), Opt("--a", dict(default="3")), Opt("--b", dict(default="2")),
        Opt("--q", dict(default="2")), _DIRECTION, _JSON,
        Opt("--out", dict(help="write the twisted pair JSON to this path"), config=False))),
)


def _report(cmd: Command, args) -> int:
    """Run a report command: print its report, write --out, return the exit code."""
    for opt in cmd.options:
        value = getattr(args, opt.dest)
        if opt.low is not None and value < opt.low:
            raise UsageError(f"{opt.flag} must be at least {opt.low}, got {value}")
    outcome = cmd.handler(args)
    config = {opt.dest: getattr(args, opt.dest) for opt in cmd.options if opt.config}
    if config.get("mode") == "symbolic":  # only numeric mode reads --q
        config["q"] = None
    report = Report(cmd.suite, outcome.records, {**config, **outcome.config})
    print(report.dumps() if args.json else report.render_text())
    if args.out:
        out = report.to_json() if outcome.out is None else outcome.out
        with open(args.out, "w") as fh:
            fh.write(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return report.exit_code


def build_parser() -> _Parser:
    # the help shows the docstring up to its note on the command table
    parser = _Parser(prog="qonsager", description=__doc__.split("\n\nCOMMANDS")[0])
    sub = parser.add_subparsers(dest="group", required=True)
    actions = {g: sub.add_parser(g, help=h).add_subparsers(dest="action", required=True)
               for g, h in GROUPS.items()}
    for cmd in COMMANDS:
        p = actions[cmd.group].add_parser(cmd.action)
        for opt in cmd.options:
            p.add_argument(opt.flag, **opt.settings)
        p.set_defaults(func=partial(_report, cmd) if cmd.suite else cmd.handler)
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
