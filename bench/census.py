"""Seeded knot census: random 3-strand braids whose closure is a knot.

``knot_braids(seed)`` rejection-samples braid words, drawing a fresh length
in 6..12 on every attempt (a 3-strand braid closes to a knot only when its
permutation is a 3-cycle, which needs an even length, so a fixed odd length
would never yield one).

The knot-census workload does not take its knots straight from that stream.
Per-knot cost spans three orders of magnitude (a knot whose group Tietze
leaves at 3 generators costs 3-37 s, one left at 2 generators about 0.05 s),
so a plain sample of a few dozen knots would make run time depend mostly on
how many slow knots the seed happened to draw.  Instead the stream of seed 0
was drawn once into ``census_pool.json``, each entry labelled with the class
the seed commit's ``tietze_simplify`` gave its knot group and its Alexander
polynomial.  A run draws a fixed number of knots from each class with its own
seed, plus the fixed slow core of ``HARD_CORE``.  The labels are frozen data:
a later change to Tietze moves the run's cost, never its inputs.

Rebuild the pool (only when redefining the benchmark) with
``python3 bench/census.py --write-pool``.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOL_PATH = HERE / "census_pool.json"
POOL_SEED = 0
POOL_SIZE = 1200
STRANDS = 3
MIN_LENGTH, MAX_LENGTH = 6, 12
SLOPES = tuple(range(-3, 4))


def closes_to_knot(letters: tuple[int, ...], strands: int = STRANDS) -> bool:
    """True when the braid permutation is a single cycle on all strands."""
    position = list(range(strands))
    for k in letters:
        i = abs(k) - 1
        position[i], position[i + 1] = position[i + 1], position[i]
    x, length = position[0], 1
    while x != 0:
        x = position[x]
        length += 1
    return length == strands


def knot_braids(seed: int):
    """Endless stream of 3-strand braid words (letter tuples) closing to knots."""
    rng = random.Random(seed)
    alphabet = tuple(k for i in range(1, STRANDS) for k in (i, -i))
    while True:
        length = rng.randint(MIN_LENGTH, MAX_LENGTH)
        letters = tuple(rng.choice(alphabet) for _ in range(length))
        if closes_to_knot(letters):
            yield letters


def braid_text(letters: tuple[int, ...]) -> str:
    return " ".join(str(k) for k in letters)


def load_pool() -> list[dict]:
    with open(POOL_PATH, encoding="utf-8") as fh:
        return json.load(fh)["knots"]


def _write_pool() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    import knotsurgery as ks

    stream = knot_braids(POOL_SEED)
    knots = []
    for _ in range(POOL_SIZE):
        letters = next(stream)
        kp = ks.wirtinger_from_braid(ks.BraidWord(STRANDS, letters))
        knots.append(
            {
                "braid": braid_text(letters),
                "gens": len(ks.tietze_simplify(kp.group).generators),
                "alexander": str(ks.fox_alexander(kp)),
            }
        )
    about = (f"first {POOL_SIZE} knots of census.knot_braids({POOL_SEED}); "
             "gens = generators left by tietze_simplify on the knot group")
    rows = ",\n".join(json.dumps(k) for k in knots)
    POOL_PATH.write_text(f'{{"about": {json.dumps(about)},\n "knots": [\n{rows}\n]}}\n', encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-pool"]:
        sys.exit("usage: python3 bench/census.py --write-pool")
    _write_pool()
