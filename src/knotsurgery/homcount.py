"""Exact homomorphism counting into finite permutation groups.

All counting and enumeration goes through one depth-first search,
``weighted_homomorphisms``, which assigns generator images one generator at a
time.  Generators are ordered so that relators acquire full support as early
as possible (relators with the smallest support are scheduled first), and a
branch is pruned the moment any fully assigned relator fails to evaluate to
the identity.  Two exact reductions keep the search small:

* Segments.  Each relator is checked at the depth of its last generator g.
  It is rotated to start at g (a rotation is a conjugate, so it is trivial
  exactly when the relator is) and cut into steps g^±1 u, where u is a word
  in earlier generators.  Each u is evaluated once per search node, so a
  candidate image h costs two table lookups per occurrence of g instead of
  one per letter.
* Conjugation orbits.  Hom(G, H) is closed under conjugation by H, so the
  number of homomorphisms sending the first searched generator to c is the
  same for every c in one conjugacy class: the search tries one
  representative per class and weights it by the class size.  With c fixed,
  the homomorphisms are still closed under conjugation by the centralizer
  C_H(c), so the second searched generator tries one representative per
  C_H(c)-orbit of H and weights it by the orbit size (see Holt, Eick &
  O'Brien, *Handbook of Computational Group Theory*, 2005, on homomorphisms
  up to conjugacy).  Both lists come from ``FiniteTarget.centralizer_orbits``:
  the classes are its orbits at the identity, whose centralizer is H.

Every later generator ranges over all of H.  The weighted total equals naive
enumeration over all |H|^n assignments.  Generators appearing in no relator
contribute an exact factor of |H| each.

No image is solved for: a relator containing its completing generator once
would fix it, but ``fpgroup.tietze_simplify`` eliminates every such
generator except in relators past its cap (twice the input's longest
cyclically reduced relator), and the pipeline searches simplified groups.

Measured on a 2-core machine (Python 3.11), against the search with the
class reduction alone: counting the six fig8 surgery groups (q=1, p=1..6)
into the eight escalation targets takes 0.15 s instead of 1.0 s, and
``validate_peripheral`` on the braid (1 -2)^7 over the standard suite 0.56 s
instead of 6.6 s.

Every surgery on one knot is read off one search.  The group of the q/p
surgery is the knot group modulo m^q l^p, so Hom(K(q/p), H) is exactly the
set of homomorphisms φ of the knot group with φ(m)^q φ(l)^p = 1 (Riley,
Math. Comp. 25, 1971, reads surgeries off peripheral images the same way).
``peripheral_table``, called only by ``knots.validate_peripheral``, runs one
search of the knot group into H and sums the weights by (φ(m), φ(l));
``slope_count`` sums the weights of the pairs (a, b) with a^q b^p = 1.  The
filter is exact although each weight stands for a whole conjugation orbit
of homomorphisms that the table files under one representative's pair:
conjugating φ by z conjugates both images by z, and a^q b^p = 1 holds
exactly when (z a z^-1)^q (z b z^-1)^p = 1.  Powers are exact table walks:
x^n is read off the cycle of powers of x at n mod ord(x).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import MismatchedTargetsError
from .fpgroup import Letter, Presentation, Word
from .targets import FiniteTarget


# One step of a relator cut at its completing generator g: the letter g
# (sign 0) or g^-1 (sign 1), then the word u over earlier generators that
# follows it up to the next occurrence of g.
_Step = tuple[int, tuple[Letter, ...]]


@dataclass(frozen=True)
class _SearchPlan:
    order: tuple[int, ...]
    steps: tuple[tuple[tuple[_Step, ...], ...], ...]
    free: tuple[int, ...]


def _steps(letters: tuple[Letter, ...], g: int) -> tuple[_Step, ...]:
    """Rotate a relator to start at a letter g^±1 and cut it before every g^±1.

    A cyclic rotation is a conjugate, so it is the identity exactly when the
    relator is.
    """
    start = next(i for i, (gen, _) in enumerate(letters) if gen == g)
    steps: list[tuple[int, list[Letter]]] = []
    for gen, e in letters[start:] + letters[:start]:
        if gen == g:
            steps.append((0 if e == 1 else 1, []))
        else:
            steps[-1][1].append((gen, e))
    return tuple((sign, tuple(u)) for sign, u in steps)


# hom_spectrum and validate_peripheral search one presentation into each
# target of a suite in turn; the plan depends on the presentation alone.
@lru_cache(maxsize=64)
def _plan(p: Presentation) -> _SearchPlan:
    # within a relator, the generator that occurs least often is placed last,
    # where each candidate image costs one step per occurrence
    supports = []
    for r in p.relators:
        occurrences = Counter(g for g, _ in r.letters)
        supports.append(sorted(occurrences, key=lambda g: (-occurrences[g], g)))
    by_size = sorted(range(len(supports)), key=lambda i: (len(supports[i]), i))
    order: list[int] = []
    placed: set[int] = set()
    for i in by_size:
        for g in supports[i]:
            if g not in placed:
                placed.add(g)
                order.append(g)
    free = tuple(g for g in range(len(p.generators)) if g not in placed)
    position = {g: k for k, g in enumerate(order)}
    steps: list[list[tuple[_Step, ...]]] = [[] for _ in order]
    for i, support in enumerate(supports):
        depth = max(position[g] for g in support)
        steps[depth].append(_steps(p.relators[i].letters, order[depth]))
    for checks in steps:
        checks.sort(key=len)  # the cheapest check rejects first
    return _SearchPlan(tuple(order), tuple(tuple(s) for s in steps), free)


def evaluate_word(
    letters: Sequence[Letter], images: Sequence[int], target: FiniteTarget
) -> int:
    """Element index of a word under the given generator-image assignment."""
    mult = target.mult
    inv = target.inverse
    x = 0  # the identity
    for g, e in letters:
        y = images[g]
        x = mult[x][y if e == 1 else inv[y]]
    return x


def weighted_homomorphisms(
    p: Presentation,
    target: FiniteTarget,
    first: Iterable[tuple[int, int]] | None = None,
    expand_free: bool = True,
) -> Iterator[tuple[list[int], int]]:
    """The one homomorphism search: yield ``(images, weight)`` pairs.

    The first searched generator takes the ``(image, weight)`` pairs in
    ``first``.  By default these are the target's conjugacy classes as
    (representative, class size), and then the second searched generator
    ranges over ``target.centralizer_orbits(c)`` of the first image c, each
    weighted by orbit size.  Every later generator, and the second one when
    ``first`` is given, ranges over all of H.  Each pair stands for
    ``weight`` homomorphisms, so with the default ``first`` the weights sum
    to |Hom(G, H)|.  ``images`` is the live assignment, valid until the next
    pair is drawn.  Without ``expand_free`` the generators in no relator stay
    unassigned and their factor |H|^k is folded into the weight; if no
    generator is in a relator, one of them is still searched, so that
    ``first`` applies.
    """
    plan = _plan(p)
    sequence = plan.order + plan.free if expand_free else plan.order or plan.free[:1]
    steps = plan.steps + ((),) * len(plan.free)
    factor = target.order ** (len(plan.order) + len(plan.free) - len(sequence))
    reduce_second = first is None
    if first is None:
        first = target.conjugacy_classes
    mult = target.mult
    inv = target.inverse
    images = [0] * len(p.generators)
    last = len(sequence) - 1

    def dfs(
        depth: int, candidates: Iterable[tuple[int, int]] | None, weight: int
    ) -> Iterator[tuple[list[int], int]]:
        """Extend the assignment at ``depth`` by each (image, weight factor)
        in ``candidates``, or by every element of H when it is None."""
        g = sequence[depth]
        # each u is evaluated once for this node, so that a candidate h costs
        # two lookups per occurrence of g; evaluate_word is inlined because a
        # call per u cost about a sixth of knot-census solve time
        checks = []
        for relator in steps[depth]:
            values = []
            for sign, u in relator:
                x = 0  # the identity
                for gen, e in u:
                    y = images[gen]
                    x = mult[x][y if e == 1 else inv[y]]
                values.append((sign, x))
            checks.append(values)
        if candidates is None:
            candidates = zip(range(target.order), repeat(1))
        for h, size in candidates:
            pair = (h, inv[h])
            for relator in checks:
                x = 0
                for sign, u in relator:
                    x = mult[mult[x][pair[sign]]][u]
                if x:
                    break
            else:
                images[g] = h
                if depth == last:
                    yield images, weight * size
                elif depth == 0 and reduce_second:
                    yield from dfs(1, target.centralizer_orbits(h), weight * size)
                else:
                    yield from dfs(depth + 1, None, weight * size)

    if not sequence:
        yield images, factor
        return
    yield from dfs(0, tuple((h, weight * factor) for h, weight in first), 1)


def count_homomorphisms(p: Presentation, target: FiniteTarget) -> int:
    """Exact |Hom(G, H)| for the presented group G and finite target H."""
    return sum(weight for _, weight in weighted_homomorphisms(p, target, expand_free=False))


def iter_homomorphisms(p: Presentation, target: FiniteTarget) -> Iterator[tuple[int, ...]]:
    """Yield every homomorphism as a tuple of element indices per generator."""
    every = ((h, 1) for h in range(target.order))
    for images, _ in weighted_homomorphisms(p, target, every):
        yield tuple(images)


def peripheral_table(
    p: Presentation, meridian: Word, longitude: Word, target: FiniteTarget
) -> dict[tuple[int, int], int]:
    """Weights of Hom(G, H) summed by (meridian image, longitude image).

    One ``weighted_homomorphisms`` search with the default ``first``, so the
    weights sum to |Hom(G, H)|; each pair carries the weight of the
    conjugation orbit of its representative homomorphism.
    """
    m, l = meridian.letters, longitude.letters
    table: dict[tuple[int, int], int] = {}
    for images, weight in weighted_homomorphisms(p, target):
        key = (evaluate_word(m, images, target), evaluate_word(l, images, target))
        table[key] = table.get(key, 0) + weight
    return table


def slope_count(
    table: Mapping[tuple[int, int], int], target: FiniteTarget, q: int, p: int
) -> int:
    """|Hom(K(q/p), H)| from the knot group's ``peripheral_table`` into H.

    The summed weight of the pairs (a, b) with a^q b^p = 1, tested as
    a^q = b^-p with each power read off the element's cycle of powers.
    """
    mult = target.mult
    cycles: dict[int, list[int]] = {}

    def power(x: int, n: int) -> int:
        cycle = cycles.get(x)
        if cycle is None:
            cycle = [0]
            y = x
            while y:
                cycle.append(y)
                y = mult[x][y]
            cycles[x] = cycle
        return cycle[n % len(cycle)]

    return sum(weight for (a, b), weight in table.items() if power(a, q) == power(b, -p))


@dataclass(frozen=True)
class HomSpectrum:
    """Counts |Hom(G, H)| in the requested target order."""

    entries: tuple[tuple[str, int], ...]

    @property
    def target_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(count for _, count in self.entries)


def hom_spectrum(p: Presentation, targets: Sequence[FiniteTarget]) -> HomSpectrum:
    return HomSpectrum(tuple((t.name, count_homomorphisms(p, t)) for t in targets))


@dataclass(frozen=True)
class DistinguishReport:
    """Pairwise spectrum comparison; UNRESOLVED never asserts isomorphism.

    ``counts[i]`` is item i's spectrum over ``target_names``.  Each entry of
    ``pairs`` is ``(i, j, k)`` for items i < j, where k is the index of the
    first target whose counts differ, or None if the suite does not separate
    the two items.
    """

    labels: tuple[str, ...]
    target_names: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]
    pairs: tuple[tuple[int, int, int | None], ...]

    @property
    def all_distinguished(self) -> bool:
        return all(k is not None for _, _, k in self.pairs)

    def format(self) -> str:
        labels, names, counts = self.labels, self.target_names, self.counts
        lines = [f"targets: {', '.join(names)}", f"items: {', '.join(labels)}"]
        n_dist = 0
        for i, j, k in self.pairs:
            if k is None:
                lines.append(f"{labels[i]} vs {labels[j]}: UNRESOLVED")
            else:
                n_dist += 1
                lines.append(
                    f"{labels[i]} vs {labels[j]}: DISTINGUISHED at {names[k]}"
                    f" (counts {counts[i][k]} vs {counts[j][k]})"
                )
        lines.append(f"summary: {n_dist}/{len(self.pairs)} pairs distinguished")
        if n_dist < len(self.pairs):
            lines.append(
                "note: UNRESOLVED means this target suite does not separate the"
                " pair; it is not evidence that the groups are isomorphic."
            )
        return "\n".join(lines)


def distinguish_report(items: Sequence[tuple[str, HomSpectrum]]) -> DistinguishReport:
    """Compare spectra pairwise, naming the first separating target per pair."""
    if not items:
        return DistinguishReport((), (), (), ())
    names = items[0][1].target_names
    for label, spectrum in items:
        if spectrum.target_names != names:
            raise MismatchedTargetsError(
                f"spectrum for {label!r} covers {spectrum.target_names}, expected {names}"
            )
    counts = tuple(spectrum.counts for _, spectrum in items)
    pairs = []
    for i, left in enumerate(counts):
        for j in range(i + 1, len(counts)):
            right = counts[j]
            k = None
            if left != right:
                k = 0
                while left[k] == right[k]:
                    k += 1
            pairs.append((i, j, k))
    labels = tuple(label for label, _ in items)
    return DistinguishReport(labels, names, counts, tuple(pairs))
