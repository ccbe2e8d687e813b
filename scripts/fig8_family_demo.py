#!/usr/bin/env python3
"""Distinguish the figure-eight surgery family q=1, p=1..max_p by direct counts.

Builds the doubled-complement group for each slope, computes hom spectra over
the standard suite, and walks the bundled escalation targets for the pairs
the standard suite leaves tied, counting at each target only the groups still
in a tied pair (these homology spheres have almost no small quotients, so the
escalation targets do the real work).  Prints the per-pair separating target
and the total runtime; exits 0 when every pair is separated and 3 otherwise.

The one end-to-end path is ``knotsurgery family --builtin fig8 --q 1
--p=1..6 --targets extended``, which reads every count off one peripheral
table per target and is what the tests check.  This walk is the workload
that ``bench/`` times.

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
    count_homomorphisms,
    distinguish_report,
    escalation_suite,
    hom_spectrum,
    standard_suite,
    tietze_simplify,
)


def main() -> int:
    max_p = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    targets = escalation_suite()
    started = time.perf_counter()
    family = build_family(builtin_knot("fig8"), 1, range(1, max_p + 1))
    groups = {m.slope.p: tietze_simplify(m.presentation) for m in family.members}
    spectra = {p: hom_spectrum(g, standard_suite()) for p, g in groups.items()}
    ps = sorted(groups)
    report = distinguish_report([(f"p={p}", spectra[p]) for p in ps])
    print(f"built {len(report.labels)} doubled-complement groups (q=1, p=1..{max_p})")
    print(report.format())

    tied = {(ps[i], ps[j]) for i, j, k in report.pairs if k is None}
    for target in targets:
        if not tied:
            break
        t0 = time.perf_counter()
        counts = {p: count_homomorphisms(groups[p], target)
                  for p in sorted({p for pair in tied for p in pair})}
        separated = [(a, b) for a, b in sorted(tied) if counts[a] != counts[b]]
        tied.difference_update(separated)
        print(f"escalating to {target.name} (order {target.order}) "
              f"for {sorted(counts)}: {counts} [{time.perf_counter() - t0:.1f}s]")
        for a, b in separated:
            print(f"  p={a} vs p={b}: separated by {target.name} "
                  f"({counts[a]} vs {counts[b]})")

    total_pairs = len(report.pairs)
    print(f"\n{total_pairs - len(tied)}/{total_pairs} pairs distinguished "
          f"in {time.perf_counter() - started:.1f}s")
    if tied:
        print(f"unresolved: {sorted(tied)} (suite limitation, not an isomorphism)")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
