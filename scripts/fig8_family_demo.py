#!/usr/bin/env python3
"""Distinguish the figure-eight surgery family q=1, p=1..6 end to end.

Builds the doubled-complement group for each slope, computes hom spectra over
the standard suite, and walks the bundled escalation targets for any pairs the
standard suite leaves unresolved (these homology spheres have almost no small
quotients, so escalation does the real work).  Prints the per-pair separating
target and the total runtime.

Usage: python scripts/fig8_family_demo.py [max_p]
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from knotsurgery import (
    build_family,
    builtin_knot,
    distinguish_report,
    escalate,
    escalation_suite,
    hom_spectrum,
    standard_suite,
    tietze_simplify,
)


def run(max_p: int, targets) -> dict:
    """Distinguish the fig8 family q=1, p=1..max_p by the standard suite,
    then the tied pairs by escalating through ``targets``.

    Returns the ``standard_spectra`` by p, the standard suite's ``report``
    (one item per p, in increasing p), the escalation ``steps`` (target,
    counts by p, separated pairs, seconds), each separated pair's
    ``resolution`` (target name, both counts), the ``unresolved`` pairs and
    the ``elapsed`` seconds.  The tests' ``fig8_family_run`` fixture runs it.
    """
    started = time.perf_counter()
    family = build_family(builtin_knot("fig8"), 1, range(1, max_p + 1))
    groups = {m.slope.p: tietze_simplify(m.presentation) for m in family.members}
    spectra = {p: hom_spectrum(g, standard_suite()) for p, g in groups.items()}
    ps = sorted(groups)
    report = distinguish_report([(f"p={p}", spectra[p]) for p in ps])
    unresolved = {(ps[i], ps[j]) for i, j, k in report.pairs if k is None}
    steps, resolution = [], {}
    t0 = time.perf_counter()
    for target, counts, separated in escalate(groups, unresolved, targets):
        steps.append((target, counts, separated, time.perf_counter() - t0))
        for a, b in separated:
            resolution[(a, b)] = (target.name, counts[a], counts[b])
        unresolved.difference_update(separated)
        t0 = time.perf_counter()
    return {
        "standard_spectra": spectra,
        "report": report,
        "steps": steps,
        "resolution": resolution,
        "unresolved": unresolved,
        "elapsed": time.perf_counter() - started,
    }


def main() -> int:
    max_p = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    walk = run(max_p, escalation_suite())
    report = walk["report"]
    print(f"built {len(report.labels)} doubled-complement groups (q=1, p=1..{max_p})")
    print(report.format())
    for target, counts, separated, seconds in walk["steps"]:
        print(f"escalating to {target.name} (order {target.order}) "
              f"for {sorted(counts)}: {counts} [{seconds:.1f}s]")
        for a, b in separated:
            print(f"  p={a} vs p={b}: separated by {target.name} "
                  f"({counts[a]} vs {counts[b]})")

    unresolved = walk["unresolved"]
    total_pairs = len(report.pairs)
    print(f"\n{total_pairs - len(unresolved)}/{total_pairs} pairs distinguished "
          f"in {walk['elapsed']:.1f}s")
    if unresolved:
        print(f"unresolved: {sorted(unresolved)} (suite limitation, not an isomorphism)")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
