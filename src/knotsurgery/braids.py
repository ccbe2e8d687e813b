"""Braid words and the Wirtinger presentation of a braid closure.

Conventions, fixed once and pinned by the Alexander-polynomial tests:

* strands are numbered 1..n left to right; letter k with 1 <= |k| <= n-1
  denotes the crossing of strands |k| and |k|+1, positive sign meaning the
  strand in position |k| passes over while moving right;
* the induced action on the free group F(x_1..x_n) of top arc labels is
  x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i for a positive letter, so an
  arc passing under picks up conjugation by the over arc's current label;
* the closure joins bottom position j back to top position j.

The meridian is x_1.  The longitude is read off by walking the closure from
the top of strand 1: each time the walk passes under an arc it prepends that
arc's current label (inverted at negative crossings), and the final word is
corrected by meridian^-e, e the signed letter count, making it 0-framed.
Prepending (rather than appending) is what makes the telescoped conjugation
identity close up, so the longitude commutes with the meridian by
construction; the peripheral validation checks catch any drift here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import BraidSyntaxError, IndexOutOfRangeError, NotAKnotError
from .fpgroup import Presentation, Word, word_power, _inverse_letters, _reduced
from .knots import KnotPresentation

_HEADER = re.compile(r"^\s*n\s*=\s*(\d+)\s*;")
_TOKEN = re.compile(r"^(?:(-?\d+)|([sS])(\d+))$")

# Longest braid accepted.  Wirtinger labels can grow exponentially with the
# length (1974 letters in the longest relator of (s1 S2)^8, about 2.6 times
# more per further s1 S2), so the limit keeps every knot group small.  A knot
# closure on n strands needs at least n - 1 letters, which bounds the strands.
MAX_BRAID_LENGTH = 16


@dataclass(frozen=True)
class BraidWord:
    """A braid whose closure is a knot (single cycle on the strands)."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise BraidSyntaxError(f"strand count must be >= 1, got {self.strands}")
        if len(self.letters) > MAX_BRAID_LENGTH or self.strands > MAX_BRAID_LENGTH + 1:
            raise BraidSyntaxError(
                f"braid of {len(self.letters)} letters on {self.strands} strands is past"
                f" the limits of {MAX_BRAID_LENGTH} letters and {MAX_BRAID_LENGTH + 1} strands"
            )
        for k in self.letters:
            if k == 0:
                raise BraidSyntaxError("braid letters must be nonzero")
            if abs(k) > self.strands - 1:
                raise IndexOutOfRangeError(
                    f"letter {k} out of range for {self.strands} strands"
                )
        cycle = self.closure_cycle_containing_first()
        if len(cycle) != self.strands:
            raise NotAKnotError(
                f"closure has {self.strands - len(cycle) + 1} components, expected a knot"
            )

    def permutation(self) -> tuple[int, ...]:
        """Top position -> bottom position map of the braid."""
        position = list(range(self.strands))
        for k in self.letters:
            i = abs(k) - 1
            position[i], position[i + 1] = position[i + 1], position[i]
        out = [0] * self.strands
        for bottom, top in enumerate(position):
            out[top] = bottom
        return tuple(out)

    def closure_cycle_containing_first(self) -> tuple[int, ...]:
        perm = self.permutation()
        cycle = [0]
        x = perm[0]
        while x != 0:
            cycle.append(x)
            x = perm[x]
        return tuple(cycle)

    @property
    def writhe(self) -> int:
        return sum(1 if k > 0 else -1 for k in self.letters)


def parse_braid(text: str) -> BraidWord:
    """Parse braid input: optional ``n=<int>;`` header, then letters.

    Letters are whitespace-separated signed integers or tokens ``s<k>`` /
    ``S<k>`` (capital S meaning the inverse crossing).  Without a header the
    strand count is inferred as max|k| + 1 (1 for the empty braid).
    """
    body = text
    strands = None
    header = _HEADER.match(text)
    if header:
        strands = int(header.group(1))
        body = text[header.end() :]
    letters = []
    for token in body.split():
        match = _TOKEN.match(token)
        if not match:
            raise BraidSyntaxError(f"bad braid token {token!r}")
        if match.group(1) is not None:
            k = int(match.group(1))
        else:
            k = int(match.group(3))
            if match.group(2) == "S":
                k = -k
        if k == 0:
            raise BraidSyntaxError("braid letters must be nonzero")
        letters.append(k)
    if strands is None:
        strands = max((abs(k) for k in letters), default=0) + 1
    return BraidWord(strands, tuple(letters))


def wirtinger_from_braid(braid: BraidWord) -> KnotPresentation:
    """Knot group of the braid closure with its peripheral system.

    One generator per strand; the relators identify each top label with the
    label carried to the bottom by the braid action, with the final (always
    redundant) relator dropped.
    """
    n = braid.strands
    labels: list[tuple] = [((i, 1),) for i in range(n)]
    snapshots = [tuple(labels)]
    for k in braid.letters:
        i = abs(k) - 1
        over_first = k > 0
        u_i, u_j = labels[i], labels[i + 1]
        if over_first:
            labels[i] = _reduced(u_i + u_j + _inverse_letters(u_i))
            labels[i + 1] = u_i
        else:
            labels[i] = u_j
            labels[i + 1] = _reduced(_inverse_letters(u_j) + u_i + u_j)
        snapshots.append(tuple(labels))

    relators = []
    for j in range(n):
        relators.append(Word(_reduced(((j, -1),) + labels[j])))
    relators.pop()  # one relator is a consequence of the rest

    acc: tuple = ()
    position = 0
    while True:
        for t, k in enumerate(braid.letters):
            i = abs(k) - 1
            if position not in (i, i + 1):
                continue
            over_position = i if k > 0 else i + 1
            if position == over_position:
                position = 2 * i + 1 - position
                continue
            over_label = snapshots[t][over_position]
            if k > 0:
                acc = _reduced(over_label + acc)
            else:
                acc = _reduced(_inverse_letters(over_label) + acc)
            position = 2 * i + 1 - position
        if position == 0:
            break
    longitude = Word(acc) * word_power(Word.generator(0), -braid.writhe)

    gens = tuple(f"x{i + 1}" for i in range(n))
    group = Presentation(gens, tuple(relators))
    return KnotPresentation(
        group=group,
        meridian=Word.generator(0),
        longitude=longitude,
    )
