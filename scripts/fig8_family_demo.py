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

import itertools
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


def main() -> int:
    max_p = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    started = time.time()
    family = build_family(builtin_knot("fig8"), 1, range(1, max_p + 1))
    groups = {m.slope.p: tietze_simplify(m.presentation) for m in family.members}
    print(f"built {len(groups)} doubled-complement groups (q=1, p=1..{max_p})")

    spectra = {p: hom_spectrum(g, standard_suite()) for p, g in groups.items()}
    report = distinguish_report([(f"p={p}", spectra[p]) for p in sorted(groups)])
    print(report.format())

    unresolved = {
        (int(pair.left.split("=")[1]), int(pair.right.split("=")[1]))
        for pair in report.unresolved_pairs
    }
    steps = escalate(groups, unresolved, escalation_suite())
    t0 = time.time()
    for target, counts, separated in steps:
        print(f"escalating to {target.name} (order {target.order}) "
              f"for {sorted(counts)}: {counts} [{time.time() - t0:.1f}s]")
        for a, b in separated:
            print(f"  p={a} vs p={b}: separated by {target.name} "
                  f"({counts[a]} vs {counts[b]})")
        unresolved.difference_update(separated)
        t0 = time.time()

    total_pairs = len(list(itertools.combinations(groups, 2)))
    print(f"\n{total_pairs - len(unresolved)}/{total_pairs} pairs distinguished "
          f"in {time.time() - started:.1f}s")
    if unresolved:
        print(f"unresolved: {sorted(unresolved)} (suite limitation, not an isomorphism)")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
