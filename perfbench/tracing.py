"""Outside-in per-layer tracing of the qonsager package.

The tracer swaps public functions and operator methods of the program for
timing wrappers while a traced pass runs, and puts the originals back
afterwards; the program's own files are never changed.  A function that
other modules imported by name (``from .adjoint import apply_ad``) is
replaced in every loaded qonsager module that holds it, and each operator
dunder is its own class attribute (``RationalFunctionQ.__radd__`` is the
same function as ``__add__`` but is looked up separately), so each is
wrapped on its own.

Each wrapper records a span: its duration, and the part of it covered by
child spans, which gives the self time.  A call made directly inside a
span of the same key (``a - b`` delegating to ``a + (-b)``) is one
operation and is not counted again.  Spans are aggregated per key in
memory rather than stored one by one: the coefficient layer alone makes
millions of calls per pass.
"""

from __future__ import annotations

import sys
import time

# (key, module, attribute).  "Class.attr" patches a class attribute; a bare
# name patches that function in every qonsager module that bound it.
TARGETS = [
    ("qcoeff.add", "qcoeff", "RationalFunctionQ.__add__"),
    ("qcoeff.add", "qcoeff", "RationalFunctionQ.__radd__"),
    ("qcoeff.add", "qcoeff", "RationalFunctionQ.__sub__"),
    ("qcoeff.add", "qcoeff", "RationalFunctionQ.__rsub__"),
    ("qcoeff.mul", "qcoeff", "RationalFunctionQ.__mul__"),
    ("qcoeff.mul", "qcoeff", "RationalFunctionQ.__rmul__"),
    ("qcoeff.div", "qcoeff", "RationalFunctionQ.__truediv__"),
    ("qcoeff.div", "qcoeff", "RationalFunctionQ.__rtruediv__"),
    ("freealg.add", "freealg", "NcPoly.__add__"),
    ("freealg.add", "freealg", "NcPoly.__sub__"),
    ("freealg.mul", "freealg", "NcPoly.__mul__"),
    ("freealg.scaled", "freealg", "NcPoly.__rmul__"),
    ("freealg.scaled", "freealg", "NcPoly.scaled"),
    ("adjoint.apply_ad", "adjoint", "apply_ad"),
    ("adjoint.apply_bad", "adjoint", "apply_bad"),
    ("adjoint.apply_badprod", "adjoint", "apply_badprod"),
    ("adjoint.apply_S", "adjoint", "apply_S"),
    ("adjoint.truncated_sum", "adjoint", "truncated_sum"),
    ("identities.verify_identity", "identities", "verify_identity"),
    ("rewrite.normal_form", "rewrite", "RewriteSystem.normal_form"),
    ("rewrite.normal_form_word", "rewrite", "RewriteSystem.normal_form_word"),
    ("rewrite.is_zero_mod", "rewrite", "RewriteSystem.is_zero_mod"),
    ("onsager.context", "onsager", "onsager_context"),
    ("onsager.context", "onsager", "OnsagerContext.__init__"),
    ("onsager.matrix_models", "onsager", "OnsagerContext.matrix_models"),
    ("onsager.confirm_in_models", "onsager", "OnsagerContext.confirm_in_models"),
    ("onsager.lusztig", "onsager", "lusztig"),
    ("onsager.higher_dg_check", "onsager", "higher_dg_check"),
    ("onsager.homomorphism_spotcheck", "onsager", "homomorphism_spotcheck"),
    ("currentalg.aq_system", "currentalg", "aq_system"),
    ("currentalg.aq_system", "currentalg", "AqContext.__init__"),
    ("currentalg.subsystem", "currentalg", "AqContext.subsystem"),
    ("currentalg.verify_generator_class", "currentalg", "verify_generator_class"),
    ("currentalg.verify_S_images", "currentalg", "verify_S_images"),
    ("currentalg.replay_proof", "currentalg", "replay_proof"),
    ("matrices.mul", "matrices", "ExactMatrix.__mul__"),
    ("matrices.mul", "matrices", "ExactMatrix.__rmul__"),
    ("matrices.add", "matrices", "ExactMatrix.__add__"),
    ("matrices.add", "matrices", "ExactMatrix.__sub__"),
    ("repn.spectral_data", "repn", "spectral_data"),
    ("repn.verify_conjugation", "repn", "verify_conjugation"),
    ("repn.higher_dg_matrix", "repn", "higher_dg_matrix"),
    ("repn.search_td_pair", "repn", "search_td_pair"),
    ("repn.matrix_lusztig", "repn", "matrix_lusztig"),
    ("report.dumps", "report", "Report.dumps"),
]


# Observers add counts that a wrapper can compute from the arguments and
# the result: observe(extra, args, result, seconds).

def _terms_out(extra, args, out, dt):
    if type(args[1]) is type(args[0]):  # a product of two polynomials
        extra["freealg.mul.terms_out"] += len(out.terms)


def _entry_madds(extra, args, out, dt):
    a, b = args
    if type(b) is type(a):  # a matrix product, not a scalar multiple
        extra["matrices.mul.entry_madds"] += a.nrows * a.ncols * b.ncols


def _zero_results(extra, args, out, dt):
    if out.is_zero:
        extra["rewrite.zeros"] += 1


def _ada_time(extra, args, out, dt):
    if args[0].startswith("ADA_"):
        extra["identities.ada_s"] += dt


OBSERVERS = {
    "freealg.mul": _terms_out,
    "matrices.mul": _entry_madds,
    "rewrite.is_zero_mod": _zero_results,
    "identities.verify_identity": _ada_time,
}
# Extra tallies and their zero values; the integer ones are exact counts.
EXTRA = {
    "freealg.mul.terms_out": 0,
    "matrices.mul.entry_madds": 0,
    "rewrite.zeros": 0,
    "identities.ada_s": 0.0,
}


class Tracer:
    """Per-key call counts, inclusive time and self time of wrapped calls."""

    def __init__(self):
        keys = dict.fromkeys(key for key, _, _ in TARGETS)
        # per key: [calls, inclusive seconds, self seconds]
        self.stats = {key: [0, 0.0, 0.0] for key in keys}
        self.extra = dict(EXTRA)
        self._stack: list = []
        self._patched: list = []

    def reset(self):
        for st in self.stats.values():
            st[0], st[1], st[2] = 0, 0.0, 0.0
        self.extra.update(EXTRA)

    def snapshot(self) -> dict:
        return {
            "stats": {key: tuple(st) for key, st in self.stats.items()},
            "extra": dict(self.extra),
        }

    def _wrap(self, key, fn):
        st = self.stats[key]
        stack = self._stack
        extra = self.extra
        observe = OBSERVERS.get(key)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] is st:
                return fn(*args, **kwargs)
            frame = [st, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if observe is not None:
                observe(extra, args, out, dt)
            return out

        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target in every loaded qonsager module."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name == "qonsager" or name.startswith("qonsager.")
        ]
        for key, modname, attr in TARGETS:
            mod = sys.modules["qonsager." + modname]
            if "." in attr:
                cls_name, name = attr.split(".")
                owner = getattr(mod, cls_name)
                self._patch(owner, name, self._wrap(key, owner.__dict__[name]))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(key, orig)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, name, wrapped)

    def _patch(self, owner, name, value):
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self):
        while self._patched:
            owner, name, orig = self._patched.pop()
            setattr(owner, name, orig)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

def _calls(key):
    return lambda s: s["stats"][key][0]


def _incl(key):
    return lambda s: s["stats"][key][1]


def _self(key):
    return lambda s: s["stats"][key][2]


def _extra(key):
    return lambda s: s["extra"][key]


def _layer_self(layer):
    prefix = layer + "."
    return lambda s: sum(v[2] for k, v in s["stats"].items() if k.startswith(prefix))


def _ratio(num, den):
    def f(s):
        d = den(s)
        return num(s) / d if d else 0.0
    return f


# (name, unit, value of one pass).  Counts repeat exactly from pass to pass;
# times and time ratios are reported as the median over traced passes.
PER_LAYER = [
    *[(f"qcoeff.{op}.{m}", u, f(f"qcoeff.{op}"))
      for op in ("add", "mul", "div")
      for m, u, f in (("calls", "count", _calls), ("self_s", "s", _self))],
    *[(f"freealg.{op}.{m}", u, f(f"freealg.{op}"))
      for op in ("add", "mul", "scaled")
      for m, u, f in (("calls", "count", _calls), ("self_s", "s", _self))],
    ("freealg.mul.terms_out", "count", _extra("freealg.mul.terms_out")),
    *[(f"adjoint.{op}.calls", "count", _calls(f"adjoint.{op}"))
      for op in ("apply_ad", "apply_bad", "apply_S", "truncated_sum")],
    ("adjoint.self_s", "s", _layer_self("adjoint")),
    ("identities.verify_identity.calls", "count", _calls("identities.verify_identity")),
    ("identities.verify_identity.s", "s", _incl("identities.verify_identity")),
    ("identities.ada_share", "ratio",
     _ratio(_extra("identities.ada_s"), _incl("identities.verify_identity"))),
    *[(f"rewrite.{op}.{m}", u, f(f"rewrite.{op}"))
      for op in ("normal_form", "normal_form_word")
      for m, u, f in (("calls", "count", _calls), ("self_s", "s", _self))],
    ("rewrite.is_zero_mod.calls", "count", _calls("rewrite.is_zero_mod")),
    ("rewrite.zero_frac", "ratio",
     _ratio(_extra("rewrite.zeros"), _calls("rewrite.is_zero_mod"))),
    ("onsager.context.s", "s", _incl("onsager.context")),
    ("onsager.lusztig.calls", "count", _calls("onsager.lusztig")),
    ("onsager.lusztig.s", "s", _incl("onsager.lusztig")),
    ("onsager.confirm_in_models.calls", "count", _calls("onsager.confirm_in_models")),
    ("onsager.higher_dg_check.s", "s", _incl("onsager.higher_dg_check")),
    ("onsager.homomorphism_spotcheck.s", "s", _incl("onsager.homomorphism_spotcheck")),
    ("currentalg.aq_system.s", "s", _incl("currentalg.aq_system")),
    ("currentalg.subsystem.calls", "count", _calls("currentalg.subsystem")),
    *[(f"currentalg.{op}.s", "s", _incl(f"currentalg.{op}"))
      for op in ("verify_generator_class", "verify_S_images", "replay_proof")],
    *[(f"matrices.{op}.{m}", u, f(f"matrices.{op}"))
      for op in ("mul", "add")
      for m, u, f in (("calls", "count", _calls), ("self_s", "s", _self))],
    ("matrices.mul.entry_madds", "count", _extra("matrices.mul.entry_madds")),
    *[(f"repn.{op}.s", "s", _incl(f"repn.{op}"))
      for op in ("spectral_data", "verify_conjugation", "higher_dg_matrix", "search_td_pair")],
    ("repn.matrix_lusztig.calls", "count", _calls("repn.matrix_lusztig")),
    ("report.dumps.s", "s", _incl("report.dumps")),
]


def counts(snap) -> dict:
    """Everything in a pass snapshot that must repeat exactly."""
    out = {key: st[0] for key, st in snap["stats"].items()}
    out.update((k, v) for k, v in snap["extra"].items() if isinstance(EXTRA[k], int))
    return out


def layer_calls(snap) -> dict:
    """Total wrapped calls per layer (the part of a key before the dot)."""
    out: dict = {}
    for key, st in snap["stats"].items():
        layer = key.split(".")[0]
        out[layer] = out.get(layer, 0) + st[0]
    return out
