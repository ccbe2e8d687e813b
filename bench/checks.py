"""Correctness references, applied after timing.

Each check returns a list of failure messages; an empty list means the
output matched.  The checks only read results, so they cost no run time.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

REFERENCES = json.loads((Path(__file__).resolve().parent / "references.json").read_text())

_ESCALATED = re.compile(r"^escalating to (\S+) \(order \d+\) for \[[\d, ]*\]: \{([^}]*)\}")
_SEPARATED = re.compile(r"^\s+p=(-?\d+) vs p=(-?\d+): separated by (\S+) ")


def expected_fig8_count(p: int, target: str) -> int | None:
    ref = REFERENCES["fig8"]
    if target in ref["standard"]:
        return ref["standard"][target]
    return ref["escalation"].get(target, {}).get(str(p))


def check_fig8_count(p: int, target: str, count: int) -> list[str]:
    expected = expected_fig8_count(p, target)
    if expected != count:
        return [f"fig8 p={p} into {target}: got {count}, reference {expected}"]
    return []


def check_fig8_demo(stdout: str, code: int, walked: list[str]) -> list[str]:
    """The demo's printed escalation table, separations and exit code.

    ``walked`` names the escalation targets the run was allowed to reach.
    """
    ref = REFERENCES["fig8"]
    failures = []
    printed: dict[str, dict[int, int]] = {}
    separated = set()
    for line in stdout.splitlines():
        match = _ESCALATED.match(line)
        if match:
            pairs = (item.split(":") for item in match.group(2).split(",") if item.strip())
            printed[match.group(1)] = {int(p): int(c) for p, c in pairs}
        match = _SEPARATED.match(line)
        if match:
            separated.add((int(match.group(1)), int(match.group(2)), match.group(3)))
    for target, counts in printed.items():
        for p, count in counts.items():
            failures += check_fig8_count(p, target, count)
    expected_sep = {tuple(s) for s in ref["separations"] if s[2] in walked}
    if separated != expected_sep:
        failures.append(f"fig8 separations {sorted(separated)} != {sorted(expected_sep)}")
    expected_code = 0 if len(expected_sep) == len(ref["separations"]) else 3
    if code != expected_code:
        failures.append(f"fig8 demo exit code {code}, expected {expected_code}")
    return failures


def _symmetric(poly) -> bool:
    lo, hi = poly.min_exponent(), poly.max_exponent()
    return all(poly.coefficient(lo + i) == poly.coefficient(hi - i) for i in range(hi - lo + 1))


def check_census_op(op: dict, alexander: str, naive_count: int) -> list[str]:
    """One knot: H1 = Z, peripheral system, Alexander, both routes, oracle count."""
    failures = []
    if not op["h1"].is_infinite_cyclic:
        failures.append(f"knot H1 is {op['h1']}, expected Z")
    if not op["peripheral_ok"]:
        failures.append("peripheral report not ok")
    poly = op["alexander"]
    if str(poly) != alexander or not _symmetric(poly) or poly.evaluate(1) not in (1, -1):
        failures.append(f"Alexander polynomial {poly}, reference {alexander}")
    (_, ab_surgery, spec_surgery), (_, ab_half, spec_half) = op["routes"]
    if ab_surgery != ab_half or not ab_surgery.is_trivial:
        failures.append(f"route H1 {ab_surgery} vs {ab_half}, expected both 0 for q=1")
    if spec_surgery != spec_half:
        failures.append(f"route spectra differ: {spec_surgery.counts} vs {spec_half.counts}")
    counts = dict(spec_surgery.entries)
    if counts.get(op["oracle_target"]) != naive_count:
        failures.append(
            f"count into {op['oracle_target']}: {counts.get(op['oracle_target'])}, "
            f"naive enumeration {naive_count}"
        )
    return failures


def family_exit_code(report_text: str) -> int:
    """Exit code ``family`` must return for the report it wrote."""
    match = re.search(r"^summary: (\d+)/(\d+) pairs distinguished$", report_text, re.M)
    if match is None:
        return -1
    return 0 if match.group(1) == match.group(2) else 3
