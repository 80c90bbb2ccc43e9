"""Check records and suite reports shared by all verification entry points.

A report is a named list of check records; the process exit status is
derived from the records: any failure gives 1, otherwise any inconclusive
record gives 2, otherwise 0.  Serialization is deterministic so that equal
configurations produce byte-identical JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .freealg import NcPoly, ncpoly_to_json

ENGINE_VERSION = "0.1.0"

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass
class CheckRecord:
    name: str
    params: tuple = ()
    status: str = PASS
    anchor: str = ""
    witness: NcPoly | None = None
    detail: str = ""

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "params": list(self.params),
            "status": self.status,
        }
        if self.anchor:
            out["anchor"] = self.anchor
        if self.detail:
            out["detail"] = self.detail
        if self.witness is not None:
            out["witness"] = ncpoly_to_json(self.witness)
        return out


@dataclass
class Report:
    suite: str
    records: list[CheckRecord] = field(default_factory=list)
    config: dict = field(default_factory=dict)

    @property
    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, INCONCLUSIVE: 0}
        for r in self.records:
            out[r.status] += 1
        return out

    @property
    def exit_code(self) -> int:
        counts = self.counts
        if counts[FAIL]:
            return 1
        if counts[INCONCLUSIVE]:
            return 2
        return 0

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "engine_version": ENGINE_VERSION,
            "config": self.config,
            "checks": [r.to_json() for r in self.records],
            "summary": self.counts,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        lines = [f"suite: {self.suite}"]
        for r in self.records:
            params = ",".join(str(p) for p in r.params)
            label = f"{r.name}({params})" if params else r.name
            line = f"  {r.status.upper():12s} {label}"
            if r.detail:
                line += f"  [{r.detail}]"
            lines.append(line)
        c = self.counts
        lines.append(
            f"summary: {c[PASS]} pass, {c[FAIL]} fail, {c[INCONCLUSIVE]} inconclusive"
        )
        return "\n".join(lines)
