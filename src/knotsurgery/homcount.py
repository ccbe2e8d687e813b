"""Exact homomorphism counting into finite permutation groups.

All counting and enumeration goes through one depth-first search,
``weighted_homomorphisms``, which assigns generator images one generator at a
time.  Generators are ordered so that relators acquire full support as early
as possible (relators with the smallest support are scheduled first), and a
branch is pruned the moment any fully assigned relator fails to evaluate to
the identity.

Hom(G, H) is closed under conjugation by H, so the number of homomorphisms
sending the first searched generator to c is the same for every c in one
conjugacy class.  The search therefore tries one representative per class
for that generator and weights each result by the class size; every later
generator ranges over all of H.  The weighted total equals naive enumeration
over all |H|^n assignments.  Generators appearing in no relator contribute an
exact factor of |H| each.  The classes are independent branches, so partial
counts from independent workers add up to the same total as a sequential run.

``escalate`` is the escalation path for pairs a target suite leaves tied: it
walks further targets, counting only for the groups still tied, until none is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .errors import MismatchedTargetsError
from .fpgroup import Letter, Presentation
from .targets import FiniteTarget


@dataclass(frozen=True)
class _SearchPlan:
    order: tuple[int, ...]
    completes: tuple[tuple[tuple[Letter, ...], ...], ...]
    free: tuple[int, ...]


def _plan(p: Presentation) -> _SearchPlan:
    supports = [sorted(r.support()) for r in p.relators]
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
    completes: list[list[tuple[Letter, ...]]] = [[] for _ in order]
    for i, support in enumerate(supports):
        depth = max(position[g] for g in support)
        completes[depth].append(p.relators[i].letters)
    return _SearchPlan(tuple(order), tuple(tuple(c) for c in completes), free)


def evaluate_word(
    letters: Sequence[Letter], images: Sequence[int], target: FiniteTarget
) -> int:
    """Element index of a word under the given generator-image assignment."""
    mult = target.mult
    inv = target.inverse
    x = target.identity_index
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
    ``first``, by default the target's conjugacy classes as (representative,
    class size); every later generator ranges over all of H.  Each pair
    stands for ``weight`` homomorphisms, so with the default ``first`` the
    weights sum to |Hom(G, H)|.  ``images`` is the live assignment, valid
    until the next pair is drawn.  Without ``expand_free`` the generators in
    no relator stay unassigned and their factor |H|^k is folded into the
    weight.
    """
    plan = _plan(p)
    sequence = plan.order + plan.free if expand_free else plan.order
    completes = plan.completes + tuple(() for _ in plan.free)
    factor = 1 if expand_free else target.order ** len(plan.free)
    if first is None:
        first = target.conjugacy_classes
    mult = target.mult
    inv = target.inverse
    identity = target.identity_index
    everything = range(target.order)
    images = [0] * len(p.generators)
    last = len(sequence) - 1

    def dfs(depth: int, candidates: Iterable[int], weight: int) -> Iterator[tuple[list[int], int]]:
        g = sequence[depth]
        checks = completes[depth]
        for h in candidates:
            images[g] = h
            for relator in checks:
                x = identity
                for gen, e in relator:
                    y = images[gen]
                    x = mult[x][y if e == 1 else inv[y]]
                if x != identity:
                    break
            else:
                if depth == last:
                    yield images, weight
                else:
                    yield from dfs(depth + 1, everything, weight)

    if not sequence:
        yield images, factor
        return
    for h, weight in first:
        yield from dfs(0, (h,), weight * factor)


def count_homomorphisms(p: Presentation, target: FiniteTarget) -> int:
    """Exact |Hom(G, H)| for the presented group G and finite target H."""
    return sum(weight for _, weight in weighted_homomorphisms(p, target, expand_free=False))


def count_homomorphisms_split(p: Presentation, target: FiniteTarget) -> int:
    """Same count, summed over one branch per conjugacy class of the first image.

    Exercises the parallel contract: the branches are independent, and exact
    integer addition of their class-size-weighted counts must be
    schedule-independent.
    """
    if not _plan(p).order:
        return count_homomorphisms(p, target)
    return sum(
        sum(weight for _, weight in weighted_homomorphisms(p, target, (branch,), False))
        for branch in target.conjugacy_classes
    )


def iter_homomorphisms(p: Presentation, target: FiniteTarget) -> Iterator[tuple[int, ...]]:
    """Yield every homomorphism as a tuple of element indices per generator."""
    every = ((h, 1) for h in range(target.order))
    for images, _ in weighted_homomorphisms(p, target, every):
        yield tuple(images)


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


def escalate(
    groups: Mapping[Hashable, Presentation],
    tied_pairs: Iterable[tuple[Hashable, Hashable]],
    targets: Iterable[FiniteTarget],
) -> Iterator[tuple[FiniteTarget, dict[Hashable, int], list[tuple[Hashable, Hashable]]]]:
    """Walk ``targets`` in order until no pair of groups is tied.

    Each step counts homomorphisms into one target, only for the groups still
    in a tied pair (in sorted key order), and yields ``(target, counts,
    separated_pairs)``: the counts by group key and the tied pairs, sorted,
    whose counts differ there.  Pairs never separated are the given pairs
    minus every yielded ``separated_pairs``.
    """
    tied = set(tied_pairs)
    for target in targets:
        if not tied:
            return
        need = sorted({key for pair in tied for key in pair})
        counts = {key: count_homomorphisms(groups[key], target) for key in need}
        separated = [(a, b) for a, b in sorted(tied) if counts[a] != counts[b]]
        tied.difference_update(separated)
        yield target, counts, separated


DISTINGUISHED = "DISTINGUISHED"
UNRESOLVED = "UNRESOLVED"


@dataclass(frozen=True)
class PairComparison:
    left: str
    right: str
    status: str
    target: str | None = None
    counts: tuple[int, int] | None = None


@dataclass(frozen=True)
class DistinguishReport:
    """Pairwise spectrum comparison; UNRESOLVED never asserts isomorphism."""

    labels: tuple[str, ...]
    target_names: tuple[str, ...]
    pairs: tuple[PairComparison, ...]

    @property
    def all_distinguished(self) -> bool:
        return all(pair.status == DISTINGUISHED for pair in self.pairs)

    @property
    def unresolved_pairs(self) -> tuple[PairComparison, ...]:
        return tuple(pair for pair in self.pairs if pair.status == UNRESOLVED)

    def status(self, left: str, right: str) -> str:
        if left == right:
            return UNRESOLVED
        for pair in self.pairs:
            if {pair.left, pair.right} == {left, right}:
                return pair.status
        raise KeyError(f"no pair ({left!r}, {right!r}) in report")

    def format(self) -> str:
        lines = [
            f"targets: {', '.join(self.target_names)}",
            f"items: {', '.join(self.labels)}",
        ]
        for pair in self.pairs:
            if pair.status == DISTINGUISHED:
                a, b = pair.counts
                lines.append(
                    f"{pair.left} vs {pair.right}: DISTINGUISHED at {pair.target}"
                    f" (counts {a} vs {b})"
                )
            else:
                lines.append(f"{pair.left} vs {pair.right}: UNRESOLVED")
        n_dist = sum(1 for pair in self.pairs if pair.status == DISTINGUISHED)
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
        return DistinguishReport((), (), ())
    names = items[0][1].target_names
    for label, spectrum in items:
        if spectrum.target_names != names:
            raise MismatchedTargetsError(
                f"spectrum for {label!r} covers {spectrum.target_names}, expected {names}"
            )
    pairs = []
    for i in range(len(items)):
        label_i, spec_i = items[i]
        for j in range(i + 1, len(items)):
            label_j, spec_j = items[j]
            for name, a, b in zip(names, spec_i.counts, spec_j.counts):
                if a != b:
                    pairs.append(
                        PairComparison(label_i, label_j, DISTINGUISHED, name, (a, b))
                    )
                    break
            else:
                pairs.append(PairComparison(label_i, label_j, UNRESOLVED))
    labels = tuple(label for label, _ in items)
    return DistinguishReport(labels, names, tuple(pairs))
