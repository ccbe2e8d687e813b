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

from .errors import BraidSyntaxError, IndexOutOfRangeError, NotAKnotError
from .fpgroup import Presentation, Word, word_power, _inverse_letters, _reduced
from .knots import KnotPresentation

_LETTER = re.compile(r"-?[1-9][0-9]*")

# Longest braid accepted.  Wirtinger labels can grow exponentially with the
# length (1974 letters in the longest relator of (1 -2)^8, about 2.6 times
# more per further 1 -2), so the limit keeps every knot group small.  A knot
# closure on n strands needs at least n - 1 letters, which bounds the strands.
MAX_BRAID_LENGTH = 16


class BraidWord:
    """A braid whose closure is a knot (single cycle on the strands)."""

    __slots__ = ("strands", "letters")

    def __init__(self, strands: int, letters: tuple[int, ...]) -> None:
        if strands < 1:
            raise BraidSyntaxError(f"strand count must be >= 1, got {strands}")
        if len(letters) > MAX_BRAID_LENGTH or strands > MAX_BRAID_LENGTH + 1:
            raise BraidSyntaxError(
                f"braid of {len(letters)} letters on {strands} strands is past"
                f" the limits of {MAX_BRAID_LENGTH} letters and {MAX_BRAID_LENGTH + 1} strands"
            )
        for k in letters:
            if k == 0:
                raise BraidSyntaxError("braid letters must be nonzero")
            if abs(k) > strands - 1:
                raise IndexOutOfRangeError(f"letter {k} out of range for {strands} strands")
        # walk the closure's cycle through position 0 (bottom to top, which
        # has the same length as top to bottom); a knot's visits every strand
        position = list(range(strands))
        for k in letters:
            i = abs(k) - 1
            position[i], position[i + 1] = position[i + 1], position[i]
        visited, x = 1, position[0]
        while x != 0:
            visited, x = visited + 1, position[x]
        if visited != strands:
            raise NotAKnotError(f"closure has {strands - visited + 1} components, expected a knot")
        self.strands = strands
        self.letters = letters

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.strands == other.strands and self.letters == other.letters

    def __hash__(self) -> int:
        return hash((self.strands, self.letters))

    def __repr__(self) -> str:
        return f"BraidWord(strands={self.strands!r}, letters={self.letters!r})"

    @property
    def writhe(self) -> int:
        return sum(1 if k > 0 else -1 for k in self.letters)


def parse_braid(text: str) -> BraidWord:
    """Parse whitespace-separated signed integers, such as ``"1 -2 1 -2"``.

    A letter is written one way only: ASCII digits, no ``+`` and no leading
    zero.  The strand count is max|k| + 1 (1 for the empty braid).
    """
    letters = []
    for token in text.split():
        if not _LETTER.fullmatch(token):
            raise BraidSyntaxError(f"bad braid token {token!r}")
        letters.append(int(token))
    return BraidWord(max((abs(k) for k in letters), default=0) + 1, tuple(letters))


def wirtinger_from_braid(braid: BraidWord) -> KnotPresentation:
    """Knot group of the braid closure with its peripheral system.

    One generator per strand; the relators identify each top label with the
    label carried to the bottom by the braid action, with the final (always
    redundant) relator dropped.
    """
    n = braid.strands
    labels: list[tuple] = [((i, 1),) for i in range(n)]
    # per letter, the over arc's label before the crossing, inverted at a
    # negative one: what a walk passing under that crossing prepends
    overs = []
    for k in braid.letters:
        i = abs(k) - 1
        u_i, u_j = labels[i], labels[i + 1]
        if k > 0:
            overs.append(u_i)
            labels[i] = _reduced(u_i + u_j + _inverse_letters(u_i))
            labels[i + 1] = u_i
        else:
            overs.append(_inverse_letters(u_j))
            labels[i] = u_j
            labels[i + 1] = _reduced(overs[-1] + u_i + u_j)

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
            if position != (i if k > 0 else i + 1):  # the walk passes under
                acc = _reduced(overs[t] + acc)
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
