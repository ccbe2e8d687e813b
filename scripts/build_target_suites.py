#!/usr/bin/env python3
"""Regenerate the bundled escalation target suite (data/targets_extended.json).

The escalation list holds larger permutation groups, cheapest first, used when
the standard suite fails to separate a pair of groups: PSL(2,7), A6, PSL(2,8),
PSL(2,11), S6, PSL(2,13), PSL(2,17), PSL(2,19).  Projective groups act on the
projective line over the corresponding field (points 1..q+1, infinity last).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from knotsurgery.targets import alternating, close_target, suite_to_json, symmetric


def psl2_prime(q: int):
    """PSL(2,q) for an odd prime q, on the q+1 projective points."""
    infinity = q  # points 0..q-1 are field elements, q is infinity
    translation = [0] * (q + 1)
    for z in range(q):
        translation[z] = (z + 1) % q
    translation[infinity] = infinity

    inversion = [0] * (q + 1)
    inversion[0] = infinity
    inversion[infinity] = 0
    for z in range(1, q):
        inversion[z] = (-pow(z, -1, q)) % q
    return close_target(f"PSL2_{q}", [tuple(translation), tuple(inversion)], degree=q + 1)


def psl2_8():
    """PSL(2,8) on the 9 projective points over GF(8) = GF(2)[x]/(x^3+x+1)."""

    def mul(a: int, b: int) -> int:
        out = 0
        for bit in range(3):
            if b & (1 << bit):
                out ^= a << bit
        for shift in (5, 4, 3):
            if out & (1 << shift):
                out ^= 0b1011 << (shift - 3)
        return out

    inverse = {a: next(b for b in range(1, 8) if mul(a, b) == 1) for a in range(1, 8)}
    infinity = 8
    add_one = tuple((z ^ 1) if z != infinity else infinity for z in range(9))
    scale_w = tuple(mul(z, 2) if z != infinity else infinity for z in range(9))
    invert = tuple(
        infinity if z == 0 else (0 if z == infinity else inverse[z]) for z in range(9)
    )
    return close_target("PSL2_8", [add_one, scale_w, invert], degree=9)


def build_suite() -> list:
    """The escalation targets, cheapest first, as written to the bundled file."""
    return [
        psl2_prime(7),
        alternating(6),
        psl2_8(),
        psl2_prime(11),
        symmetric(6),
        psl2_prime(13),
        psl2_prime(17),
        psl2_prime(19),
    ]


def main() -> None:
    suite = build_suite()
    expected = {
        "PSL2_7": 168,
        "A6": 360,
        "PSL2_8": 504,
        "PSL2_11": 660,
        "S6": 720,
        "PSL2_13": 1092,
        "PSL2_17": 2448,
        "PSL2_19": 3420,
    }
    for target in suite:
        assert target.order == expected[target.name], (target.name, target.order)
        print(f"{target.name}: degree {target.degree}, order {target.order}")
    out = Path(__file__).resolve().parents[1] / "src" / "knotsurgery" / "data" / "targets_extended.json"
    out.write_text(json.dumps(suite_to_json(suite), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
