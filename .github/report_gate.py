"""Gate a qonsager JSON report read on stdin.

usage: qonsager GROUP ACTION ... --json | python3 .github/report_gate.py COMMAND [CHECK ...]

Exits 0 when the report's summary has no failure and at least one pass, and
each named CHECK has status pass; otherwise exits 1 with a message that
names COMMAND.
"""

import json
import sys

command, names = sys.argv[1], sys.argv[2:]
report = json.load(sys.stdin)
summary = report["summary"]
statuses = {check.get("name"): check["status"] for check in report["checks"]}
named = {name: statuses.get(name) for name in names}
if summary["fail"] != 0 or summary["pass"] <= 0 or set(named.values()) - {"pass"}:
    sys.exit(f"{command}: summary {summary}, named checks {named}")
