"""Freely reduced words and finitely presented groups.

Words are immutable sequences of (generator index, exponent) letters with
exponent +1 or -1, kept freely reduced at all times.  A presentation pairs a
tuple of generator names with cyclically reduced relator words.  Everything
here is a pure function over immutable data, so values can be shared between
threads without synchronization.

A word built from outside input (``Word(letters)``, ``parse_word``,
``word_from_json`` and so ``presentation_from_json``) is checked and reduced.
Operations whose result is reduced by construction skip that second pass:

- ``w * v`` cancels only at the junction, since w and v are each reduced;
- ``w.inverse()`` reverses a reduced word, which stays reduced;
- ``w.cyclically_reduced()`` is a subword of w (w itself if nothing is
  trimmed), and a subword of a reduced word is reduced;
- ``word_power`` writes the base as u c u^-1 with c cyclically reduced, and
  u c^n u^-1 has no cancelling pair;
- ``_normalize_relators`` takes freely reduced letters and only cyclically
  reduces them; ``quotient_by_relators``, ``tietze_simplify_tracked`` and the
  doubled-complement halves of ``surgery`` wrap its output, and Tietze returns
  through ``Presentation._of``, since its generator names are a subset of
  checked ones;
- a Tietze elimination rewrites each relator and tracked word in one pass
  (the image of the eliminated generator, renumbered, is a rotation of the
  cyclically reduced relator less one letter, or its inverse) followed by one
  ``_reduced``;
- ``Presentation.extended`` checks only the relators it adds, since the
  relators already there stay valid over more generators;
- ``Presentation._of`` checks nothing; the doubled-complement halves of
  ``surgery`` append through it relators made of the knot's checked
  peripheral words and fresh generators.

Generators are never renamed implicitly: constructions that add generators
append them after the existing ones, so distinguished words (meridians,
longitudes, ...) keep their meaning across constructions.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, Sequence

from .errors import DuplicateGeneratorError, KnotSurgeryError, UnknownGeneratorError

Letter = tuple[int, int]

# word_power (and so parse_word) refuses to build a word longer than this
# many letters; refuse_long_power says which powers that is.
MAX_WORD_LENGTH = 1_000_000


def _reduced(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Freely reduce a letter sequence, cancelling adjacent g^e g^-e pairs."""
    stack: list[Letter] = []
    for g, e in letters:
        if e != 1 and e != -1:
            raise ValueError(f"letter exponent must be +1 or -1, got {e!r}")
        if g < 0:
            raise ValueError(f"generator index must be nonnegative, got {g!r}")
        if stack and stack[-1][0] == g and stack[-1][1] == -e:
            stack.pop()
        else:
            stack.append((g, e))
    return tuple(stack)


def _inverse_letters(letters: Sequence[Letter]) -> tuple[Letter, ...]:
    return tuple((g, -e) for g, e in reversed(letters))


def _cyclic_reduced(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """The cyclic reduction of freely reduced letters (letters itself if nothing is trimmed)."""
    lo, hi = 0, len(letters)
    while hi - lo >= 2:
        g1, e1 = letters[lo]
        g2, e2 = letters[hi - 1]
        if g1 == g2 and e1 == -e2:
            lo += 1
            hi -= 1
        else:
            break
    return letters if hi - lo == len(letters) else letters[lo:hi]


class Word:
    """A freely reduced word; the empty word is the identity."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()) -> None:
        self.letters = _reduced(letters)

    @classmethod
    def _of(cls, letters: tuple[Letter, ...]) -> "Word":
        """A word on letters that are freely reduced by construction; no check."""
        w = object.__new__(cls)
        w.letters = letters
        return w

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self) -> int:
        return hash((self.letters,))

    def __repr__(self) -> str:
        return f"Word(letters={self.letters!r})"

    @classmethod
    def generator(cls, index: int) -> "Word":
        """The one-letter word of generator index."""
        return cls(((index, 1),))

    def __mul__(self, other: "Word") -> "Word":
        a, b = self.letters, other.letters
        k, n = 0, min(len(a), len(b))
        while k < n and a[-1 - k][0] == b[k][0] and a[-1 - k][1] == -b[k][1]:
            k += 1
        return Word._of(a[: len(a) - k] + b[k:])

    def __pow__(self, n: int) -> "Word":
        return word_power(self, n)

    def __len__(self) -> int:
        return len(self.letters)

    def inverse(self) -> "Word":
        return Word._of(_inverse_letters(self.letters))

    def cyclically_reduced(self) -> "Word":
        core = _cyclic_reduced(self.letters)
        return self if len(core) == len(self.letters) else Word._of(core)

    def max_index(self) -> int:
        """Largest generator index used, or -1 for the empty word."""
        return max((g for g, _ in self.letters), default=-1)

    def exponent_vector(self, n_generators: int) -> tuple[int, ...]:
        out = [0] * n_generators
        for g, e in self.letters:
            out[g] += e
        return tuple(out)


IDENTITY = Word()


def refuse_long_power(length: int, n: int) -> None:
    """Raises if a word of length letters to the power n is past MAX_WORD_LENGTH."""
    if abs(n) * length > MAX_WORD_LENGTH:
        raise KnotSurgeryError(
            f"a word of {length} letters to the power {n} exceeds {MAX_WORD_LENGTH} letters"
        )


def word_power(w: Word, n: int) -> Word:
    if n == 0:
        return IDENTITY
    refuse_long_power(len(w), n)
    base = (w if n > 0 else w.inverse()).letters
    # base = u c u^-1 with c cyclically reduced, so base^|n| = u c^|n| u^-1
    core = _cyclic_reduced(base)
    k = (len(base) - len(core)) // 2
    return Word._of(base[:k] + core * abs(n) + base[len(base) - k :])


def commutator(w1: Word, w2: Word) -> Word:
    return w1 * w2 * w1.inverse() * w2.inverse()


def apply_mapping(w: Word, images: Sequence[Word]) -> Word:
    """Replace each generator g by ``images[g]``, all at once; one image per generator."""
    out: list[Letter] = []
    for g, e in w.letters:
        image = images[g].letters
        out.extend(image if e == 1 else _inverse_letters(image))
    return Word(tuple(out))


def _min_rotation(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """Least rotation in linear time by two competing start positions.

    Rotations from i and j agree on their first k letters; where they first
    differ, the larger one's start, and the k starts after it, cannot begin
    a least rotation, so that pointer jumps past them.
    """
    n = len(letters)
    doubled = letters + letters
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    start = min(i, j)
    return doubled[start:start + n]


def cyclic_key(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """Canonical form of a cyclically reduced relator up to rotation and inversion."""
    if len(letters) == 1:  # g^±1: the least of g and g^-1
        return ((letters[0][0], -1),)
    return min(_min_rotation(letters), _min_rotation(_inverse_letters(letters)))


def parse_word(text: str, names: Sequence[str]) -> Word:
    """Parse a word like ``"a b^-1 a^2"`` over the given generator names.

    Tokens are separated by whitespace or ``*``; each token is a generator
    name with an optional integer exponent after ``^``, or ``1`` for the
    identity.
    """
    index = {name: i for i, name in enumerate(names)}
    letters: list[Letter] = []
    for token in text.replace("*", " ").split():
        if token == "1":
            continue
        name, _, exp_text = token.partition("^")
        if name not in index:
            raise UnknownGeneratorError(f"unknown generator {name!r} in word {text!r}")
        try:
            exp = int(exp_text) if exp_text else 1
        except ValueError:
            raise UnknownGeneratorError(f"bad exponent {exp_text!r} in word {text!r}") from None
        letters.extend(word_power(Word.generator(index[name]), exp).letters)
    return Word(tuple(letters))


def _checked_names(generators: Iterable[str]) -> tuple[str, ...]:
    """The generator names as a tuple, refused if one is empty or repeated."""
    gens = tuple(generators)
    names = set()
    for name in gens:
        if not name:
            raise ValueError("generator names must be nonempty")
        if name in names:
            raise DuplicateGeneratorError(f"duplicate generator name {name!r}")
        names.add(name)
    return gens


def _checked_relators(relators: Iterable[Word], n: int) -> tuple[Word, ...]:
    """The nonempty cyclic reductions of relators over n generators.

    A relator using a generator index past n - 1 is refused.
    """
    out = []
    for r in relators:
        top = r.max_index()
        if top >= n:
            raise UnknownGeneratorError(
                f"relator uses generator index {top} but only {n} generators exist"
            )
        reduced = r.cyclically_reduced()
        if reduced.letters:
            out.append(reduced)
    return tuple(out)


class Presentation:
    """Named generators plus relators; relators are kept cyclically reduced.

    A relator letter (g, e) refers to generators[g].
    """

    __slots__ = ("generators", "relators", "_hash", "__weakref__")

    def __init__(self, generators: Iterable[str], relators: Iterable[Word] = ()) -> None:
        gens = _checked_names(generators)
        self.generators = gens
        self.relators = _checked_relators(relators, len(gens))
        self._hash = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.generators == other.generators and self.relators == other.relators

    # The search plan and the Smith form are kept in memos weakly keyed by it, so
    # a presentation is hashed on every count; its hash is taken once and kept.
    # String hashes differ between processes, so a pickle or a copy carries
    # only the generators and relators (``__reduce__`` rebuilds through
    # ``_of``), and the hash is taken afresh on the other side.
    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.generators, self.relators))
        return h

    def __reduce__(self) -> tuple:
        return self._of, (self.generators, self.relators)

    def __repr__(self) -> str:
        return f"Presentation(generators={self.generators!r}, relators={self.relators!r})"

    def extended(self, relators: Iterable[Word], generators: Sequence[str] = ()) -> "Presentation":
        """This presentation with ``generators`` appended and ``relators`` after its own.

        Its own relators are valid over the longer generator list as they
        are, so only the added relators are checked and cyclically reduced.
        """
        gens = _checked_names(self.generators + tuple(generators))
        return Presentation._of(gens, self.relators + _checked_relators(relators, len(gens)))

    @classmethod
    def _of(cls, generators: tuple[str, ...], relators: tuple[Word, ...]) -> "Presentation":
        """A presentation on distinct nonempty names and on nonempty, cyclically
        reduced relators over them, all by construction; no check."""
        out = object.__new__(cls)
        out.generators = generators
        out.relators = relators
        out._hash = None
        return out

    def word_str(self, w: Word, sep: str = " ") -> str:
        """Render as runs like ``a^2 b^-1``; ``sep`` joins the runs."""
        if not w.letters:
            return "1"
        parts = []
        run_g, run_e, run_len = None, 0, 0
        for g, e in w.letters + ((-1, 0),):
            if g == run_g and e == run_e:
                run_len += 1
                continue
            if run_g is not None and run_g >= 0:
                exp = run_e * run_len
                name = self.generators[run_g]
                parts.append(name if exp == 1 else f"{name}^{exp}")
            run_g, run_e, run_len = g, e, 1
        return sep.join(parts)

    def __str__(self) -> str:
        gens = ", ".join(self.generators)
        rels = ", ".join(self.word_str(r) for r in self.relators)
        return f"< {gens} | {rels} >"


def fresh_name(base: str, taken: Iterable[str]) -> str:
    """base itself if unused, else base1, base2, ..."""
    taken = set(taken)
    if base not in taken:
        return base
    i = 1
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def quotient_by_relators(p: Presentation, extra: Iterable[Word]) -> Presentation:
    """Append extra relators (cyclically reduced; identities and repeats of p's
    relators or of each other dropped, see _normalize_relators)."""
    added = _normalize_relators((w.letters for w in extra), p.relators)
    return p.extended(Word._of(r) for r in added)


def _normalize_relators(
    rels: Iterable[tuple[Letter, ...]], kept: Iterable[Word] = ()
) -> list[tuple[Letter, ...]]:
    """The cyclic reductions of freely reduced relators, less identities and repeats.

    A relator repeats if it equals a kept relator or an earlier one up to
    rotation and inversion.  Only relators of equal length can repeat each
    other, so a cyclic_key is computed only for a relator whose length another
    kept or new relator shares; a long filling relator is never keyed.
    """
    rels = [r for r in map(_cyclic_reduced, rels) if r]
    counts: dict[int, int] = {}
    for r in rels:
        counts[len(r)] = counts.get(len(r), 0) + 1
    seen = set()
    for w in kept:
        if len(w.letters) in counts:
            counts[len(w.letters)] += 1
            seen.add(cyclic_key(w.letters))
    out = []
    for r in rels:
        if counts[len(r)] > 1:
            key = cyclic_key(r)
            if key in seen:
                continue
            seen.add(key)
        out.append(r)
    return out


def tietze_simplify_tracked(
    p: Presentation, tracked: Sequence[Word] = ()
) -> tuple[Presentation, tuple[Word, ...]]:
    """Tietze simplification that also rewrites the given tracked words.

    Repeatedly drops empty and repeated relators (see _normalize_relators)
    and eliminates a generator whenever some relator contains it exactly once
    (Havas, Kenne, Richardson and Robertson, "A Tietze transformation program",
    1984).  The eliminating relator is the first in (length, position) order
    that has such a generator; within it the highest-index one is eliminated,
    which keeps early generators (meridians and friends) stable.  Relators
    longer than twice the input's maximum relator length never drive an
    elimination, preventing blowup.  Each elimination renumbers the
    generators above the eliminated one down by one and rewrites every
    relator and tracked word in one pass.  Deterministic for a fixed input;
    the number of steps is at most the number of generators.
    """
    names = list(p.generators)
    rels = _normalize_relators(r.letters for r in p.relators)
    tracked_letters = [w.letters for w in tracked]
    cap = 2 * max(map(len, rels), default=1)
    while True:
        for _, pos in sorted((len(r), pos) for pos, r in enumerate(rels) if len(r) <= cap):
            counts = Counter(h for h, _ in rels[pos])
            singles = [h for h, c in counts.items() if c == 1]
            if singles:
                break
        else:
            break
        g = max(singles)
        r = rels.pop(pos)
        at = next(i for i, (h, _) in enumerate(r) if h == g)
        # r = alpha g^e beta, so g^-e = beta alpha, reduced since r is cyclically reduced
        image = r[at + 1 :] + r[:at]
        if r[at][1] == 1:
            image = _inverse_letters(image)
        # generators above g shift down by one
        image = tuple((h - (h > g), e) for h, e in image)
        inverse = _inverse_letters(image)

        def rewrite(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
            out: list[Letter] = []
            for h, e in letters:
                if h == g:
                    out.extend(image if e == 1 else inverse)
                else:
                    out.append((h - (h > g), e))
            return _reduced(out)

        rels = _normalize_relators(map(rewrite, rels))
        tracked_letters = list(map(rewrite, tracked_letters))
        names.pop(g)
    simplified = Presentation._of(tuple(names), tuple(Word._of(r) for r in rels))
    return simplified, tuple(Word._of(t) for t in tracked_letters)


def tietze_simplify(p: Presentation) -> Presentation:
    """Simplify to an isomorphic presentation; see tietze_simplify_tracked."""
    simplified, _ = tietze_simplify_tracked(p)
    return simplified


def word_to_json(w: Word, names: Sequence[str]) -> list[list]:
    return [[names[g], e] for g, e in w.letters]


def word_from_json(data: Sequence, name_to_index: Mapping[str, int]) -> Word:
    """The word of [name, exponent] letters; each exponent is the int 1 or -1, not coerced."""
    letters = []
    for item in data:
        name, e = item
        if name not in name_to_index:
            raise UnknownGeneratorError(f"unknown generator {name!r} in serialized word")
        if type(e) is not int:
            raise ValueError(f"letter exponent must be +1 or -1, got {e!r}")
        letters.append((name_to_index[name], e))
    return Word(tuple(letters))


def presentation_to_json(p: Presentation) -> dict:
    """Canonical, order-preserving JSON form; round-trips exactly."""
    return {
        "generators": list(p.generators),
        "relators": [word_to_json(r, p.generators) for r in p.relators],
    }


def presentation_from_json(data: Mapping) -> Presentation:
    names = tuple(data["generators"])
    index = {name: i for i, name in enumerate(names)}
    relators = tuple(word_from_json(r, index) for r in data["relators"])
    return Presentation(names, relators)


def to_free_group_script(p: Presentation) -> str:
    """Render as a FreeGroup/relator script for computational algebra systems.

    Deterministic and order-preserving, e.g. ``F := FreeGroup("a");`` then
    ``rels := [ a^5 ];``.
    """
    gens = ", ".join(f'"{name}"' for name in p.generators)
    rels = ", ".join(p.word_str(r, "*") for r in p.relators)
    body = f" {rels} " if rels else " "
    return f"F := FreeGroup({gens});\nrels := [{body}];\n"
