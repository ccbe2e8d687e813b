"""Exact homomorphism counting into finite permutation groups.

Counts into an abelian target are solved for from H1 (below).  Everything
else goes through one depth-first search, ``weighted_homomorphisms`` on the
presentation's kept plan, which assigns generator images one generator at
a time.  Generators are ordered so that relators acquire full support as
early as possible (relators with the smallest support are scheduled first),
and a branch is pruned the moment any fully assigned relator fails to
evaluate to the identity.  Five exact reductions keep the search small:

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
  C_H(c)-orbit and weights it by the orbit size (see Holt, Eick & O'Brien,
  *Handbook of Computational Group Theory*, 2005, on homomorphisms up to
  conjugacy).  Both lists come from ``FiniteTarget.centralizer_orbits``,
  which takes a class index, since c is always a class representative: the
  classes are its orbits for class 0, the identity's, whose centralizer is
  H, found by one breadth-first class pass per target, and C_H(c) is closed
  once per class from the Schreier generators that pass yields (Schreier's
  lemma, ibid.), with no scan of H per class.
* Conjugate generators.  A relator that reads cyclically as U x^e U^-1 y^d
  makes y^d conjugate to x^-e, so every homomorphism sends y into the class
  of φ(x) or of φ(x)^-1; a homomorphism maps conjugates to conjugates.
  ``_plan`` finds these relators with a direct scan (``_conjugate_pairs``)
  and links the generators by a walk over the pairs found (``_links``),
  which gives each generator its component's first generator in search
  order, its anchor, and its parity to it.  A linked generator then ranges
  over the members of its anchor's image's class (or of the inverse's
  class) instead of all of H, and in the second
  place over the C_H(c)-orbits of that class alone, which conjugation by
  C_H(c) preserves.  Every Wirtinger relator has this shape, since every
  generator is a meridian (Riley, Math. Comp. 25, 1971, sends meridians to
  one class of PSL(2,p) the same way).  In the first 400 knots of the
  benchmark's census pool, each knot group and both surgery routes at p=2
  that Tietze left with two or more searched generators (678 groups) had all
  of them in one component; the fig8 monodromy's mapping torus has none.
* Solved generators.  A relator cut at its completing generator g into
  exactly two steps, of opposite signs, rotates to g u1 g^-1 u2, so
  g X g^-1 = Y with X = φ(u1) and Y = φ(u2)^-1, both known when g is
  reached.  No g solves this unless X and Y share a class; if they do, with
  representative r, the solutions are exactly the coset t_Y C_H(r) t_X^-1,
  where t_x is the class pass's conjugator from r to x
  (``FiniteTarget.conjugators``).  So past the second depth, where the
  candidates are not already classes or orbits, g tries |C_H(r)| images
  instead of all of H (a linked g keeps those in its link's class), and
  none when the classes differ.  The mapping-torus relators m^-1 s m φ(s)^-1
  have this shape: Tietze leaves the genus-2 monodromy of T(2,5)
  (``tests/torus_2_5_monodromy.json``) three generators that no relator
  links, and the third is solved for.  Two generators leave nothing to
  solve: the second keeps its C_H(c)-orbits.
* Perfect groups.  A group with trivial H1 is perfect, and so is every
  image of it.  The plan reads this off the Smith form's factors, all n of
  them 1 for n generators, and takes the form only when there are at least
  n relators: with fewer, H1 has a free part, so a knot group never pays
  for it.  A perfect subgroup of a solvable group is trivial, and a target
  whose order has at most two prime divisors is solvable (Burnside's
  p^a q^b theorem, 1904), so there the search yields the trivial
  assignment alone, with weight 1.  In any other target a homomorphism
  followed by the sign map has an abelian and perfect image, so it is
  trivial: every image is an even permutation, and the first searched
  generator ranges over the classes with an even representative alone
  (``FiniteTarget.even_classes``, all of them when every generator of the
  target is even).  Every q = 1 surgery of the paper's families is a
  homology sphere, so both of its routes take this path; the knot groups
  whose peripheral tables ``family`` reads never do.

Every other generator ranges over all of H.  Every relator is still checked,
so the weighted total equals naive enumeration over all |H|^n assignments.
Generators appearing in no relator come last in the plan's order, past its
``bound``, and contribute an exact factor of |H| each.

A relator containing its completing generator once would fix it outright,
but ``fpgroup.tietze_simplify`` eliminates every such generator except in
relators past its cap (twice the input's longest cyclically reduced
relator), and the pipeline searches simplified groups, so that is not
solved for.

Abelian targets are not searched.  When the generators of the target A
commute (``FiniteTarget.is_abelian``), every homomorphism factors through
H1(G), and ``count_homomorphisms`` solves for Hom(G, A) from the Smith form
U·M·V = D of the relation matrix M, which ``smith.relation_smith_form``
keeps per presentation.  A homomorphism is an x in A^n, written additively,
with M x = 0.  Put x = V y: U is unimodular, so M x = 0 exactly when D y = 0,
and V is unimodular, so y -> V y permutes A^n.  Hence y_k ranges over
A[d_k] = {a : a^d_k = 1} for the k-th diagonal entry d_k and over all of A
past the rank, and |Hom(G, A)| = |A|^(n - rank) · Π_k |A[d_k]|.  The
paper's families are homologous by construction, so H1 fixes every abelian
count, and searching for it is waste.  A knot group's abelian peripheral
tables are read off its H1 = Z by ``knots.validate_peripheral``, with no
decomposition of their own.
``peripheral_table`` and ``weighted_homomorphisms`` search every target,
abelian ones too.  ``iter_homomorphisms``, which only the tests call and
the benchmark's trace binds, conjugates each homomorphism the search
yields by every element of H and drops repeats: every homomorphism is
conjugate to one the search yields.

Every surgery on one knot is read off one search.  The group of the q/p
surgery is the knot group modulo m^q l^p, so Hom(K(q/p), H) is exactly the
set of homomorphisms φ of the knot group with φ(m)^q φ(l)^p = 1 (Riley,
Math. Comp. 25, 1971, reads surgeries off peripheral images the same way).
``peripheral_table``, called only by ``knots.validate_peripheral``, runs one
search of the knot group into H and sums the weights by (φ(m), φ(l)).
``slope_lattices`` files each pair (a, b) under its slope lattice: the
(x, y) with a^x = b^-y form a subgroup of Z^2 (powers of one element
commute), spanned by (m, 0) and (c, n), where m is the order of a, n the
least y > 0 with b^-y in <a>, and a^c = b^-n with 0 <= c < m.
``slope_counts`` sums, per slope (q, p), the weights of the lattices holding
it, n | p and q = c·(p/n) mod m: integer arithmetic with no target.  The
weighted count is exact although each weight stands for a whole conjugation
orbit of homomorphisms that the table files under one representative's
pair: conjugating φ by z conjugates both images by z, which keeps their
lattice.

Counts are kept while their presentation lives.  ``_plan`` keeps each plan
in ``_PLANS``, a ``WeakKeyDictionary`` that looks a presentation up by
equality and drops the entry with the presentation it was made for, so an
equal one that outlives it makes its plan again; no plan refers to its
presentation, as its steps hold the relators' letters.
``count_homomorphisms`` files each |Hom(G, H)| in the plan's ``counts``,
weakly keyed by the target's identity, not its name, so a count keeps no
target alive and a target closed afresh is searched afresh.  Counting a
group into a target again costs a dictionary read, and equal live
presentations share one plan: the surgery quotient and the half of the
double, which Tietze takes to one presentation in every op of the
benchmark's knot census, are searched once.  ``weighted_homomorphisms``,
``iter_homomorphisms`` and ``peripheral_table`` keep nothing past their run.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence
from weakref import WeakKeyDictionary

from .errors import MismatchedTargetsError
from .fpgroup import Letter, Presentation, Word
from .smith import relation_smith_form
from .targets import FiniteTarget


# One step of a relator cut at its completing generator g: the letter g
# (sign 0) or g^-1 (sign 1), then the word u over earlier generators that
# follows it up to the next occurrence of g.
_Step = tuple[int, tuple[Letter, ...]]


class _SearchPlan(NamedTuple):
    # every generator: those that some relator reads, then the others
    order: tuple[int, ...]
    # how many generators some relator reads: the others, past this position
    # in order, have no steps, no link and no solve
    bound: int
    steps: tuple[tuple[tuple[_Step, ...], ...], ...]
    # per search position: None for the first generator of its component,
    # else (that anchor, whether the image lies in the class of the inverse
    # of the anchor's image rather than in the class of that image)
    links: tuple[tuple[int, bool] | None, ...]
    # per search position: the index in its steps of a relator g^±1 u1 g^∓1 u2
    # that solves for its generator g, or None
    solve: tuple[int | None, ...]
    # whether H1 is trivial, so that the group is perfect; see _weighted
    perfect: bool
    # |Hom(G, H)| per target counted so far, by target identity; see
    # count_homomorphisms
    counts: WeakKeyDictionary[FiniteTarget, int]


def _steps(letters: tuple[Letter, ...], g: int) -> tuple[_Step, ...]:
    """Rotate a relator to start at a letter g^±1 and cut it before every g^±1.

    A cyclic rotation is a conjugate, so it is the identity exactly when the
    relator is.  The words hold the relator's own letter objects, so a kept
    plan adds no letter of its own to its presentation's.
    """
    start = next(i for i, (gen, _) in enumerate(letters) if gen == g)
    steps: list[tuple[int, list[Letter]]] = []
    for letter in letters[start:] + letters[:start]:
        if letter[0] == g:
            steps.append((0 if letter[1] == 1 else 1, []))
        else:
            steps[-1][1].append(letter)
    return tuple((sign, tuple(u)) for sign, u in steps)


def _conjugate_pairs(letters: tuple[Letter, ...]) -> list[tuple[Letter, Letter]]:
    """Each (a, b) such that a cyclic rotation of the relator reads U a U^-1 b.

    Then b = U a^-1 U^-1, so b is conjugate to a^-1.  Such a rotation has
    |U| = n/2 - 1, and the letters j places after a are the inverses of the
    letters j places before it for j = 1..|U|.  A direct scan tries every
    letter as a and stops at its first mismatch; a rotation is found at both
    of its letters a and b.  That is quadratic at worst, but the first
    mismatch comes early: about 3 comparisons a letter over the knot and
    surgery groups of the benchmark's census pool, under 8 on the 5166- and
    7138-letter relators of the longest legal braid.  The exponent sums of
    U a U^-1 b are those of a and b, so a relator of odd length, or whose
    exponent sums have absolute values adding up to more than 2, is skipped
    first, as is the 991,628-letter filling relator of that braid's surgery
    at q=2, p=139.
    """
    n = len(letters)
    if n % 2:
        return []
    counts = Counter(letters)
    if sum(abs(counts[g, 1] - counts[g, -1]) for g in {g for g, _ in counts}) > 2:
        return []
    k = n // 2 - 1
    s = [2 * g + (e < 0) for g, e in letters] * 2  # code c ^ 1 is the inverse of code c
    pairs = []
    for i in range(k, k + n):
        j = 1
        while j <= k and s[i + j] == s[i - j] ^ 1:
            j += 1
        if j > k:
            pairs.append((letters[i % n], letters[(i + k + 1) % n]))
    return pairs


def _links(relators: Sequence[Word], order: Sequence[int]) -> tuple[tuple[int, bool] | None, ...]:
    """The conjugacy links of ``_SearchPlan.links`` that the relators prove.

    A pair (x^e, y^d) of ``_conjugate_pairs`` puts the image of y in the class
    of the image of x, or of its inverse when e = d, and the image of x in
    the class of the image of y, or of its inverse, likewise.  A walk over
    this pair graph starts from each generator in search order that no walk
    has reached yet, its anchor; every generator it reaches is linked to that
    anchor with the parity of its path.
    """
    neighbours: dict[int, list[tuple[int, bool]]] = {g: [] for g in order}
    for r in relators:
        for (x, e), (y, d) in _conjugate_pairs(r.letters):
            neighbours[x].append((y, e == d))
            neighbours[y].append((x, e == d))
    link: dict[int, tuple[int, bool] | None] = {}
    for anchor in order:
        if anchor in link:
            continue
        link[anchor] = None
        walk = [(anchor, False)]
        while walk:
            x, odd = walk.pop()
            for y, flip in neighbours[x]:
                if y not in link:
                    link[y] = (anchor, odd ^ flip)
                    walk.append((y, odd ^ flip))
    return tuple(link[g] for g in order)


# hom_spectrum and validate_peripheral search one presentation into each
# target of a suite in turn; the plan depends on the presentation alone.
_PLANS: WeakKeyDictionary[Presentation, _SearchPlan] = WeakKeyDictionary()


def _plan(p: Presentation) -> _SearchPlan:
    if (plan := _PLANS.get(p)) is not None:
        return plan
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
    bound = len(order)
    order += [g for g in range(len(p.generators)) if g not in placed]
    position = {g: k for k, g in enumerate(order)}
    steps: list[list[tuple[_Step, ...]]] = [[] for _ in order]
    for i, support in enumerate(supports):
        depth = max(position[g] for g in support)
        steps[depth].append(_steps(p.relators[i].letters, order[depth]))
    for checks in steps:
        checks.sort(key=len)  # the cheapest check rejects first
    solve = tuple(
        next((i for i, s in enumerate(checks) if len(s) == 2 and s[0][0] != s[1][0]), None)
        for checks in steps
    )
    # with fewer relators than generators H1 has a free part: no Smith form
    n = len(p.generators)
    perfect = len(p.relators) >= n and relation_smith_form(p).factors == (1,) * n
    return _PLANS.setdefault(p, _SearchPlan(
        tuple(order),
        bound,
        tuple(tuple(s) for s in steps),
        _links(p.relators, order),
        solve,
        perfect,
        WeakKeyDictionary(),
    ))


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


def weighted_homomorphisms(p: Presentation, target: FiniteTarget) -> Iterator[tuple[list[int], int]]:
    """The one homomorphism search: yield ``(images, weight)`` pairs.

    The first searched generator ranges over the target's conjugacy classes,
    each as (representative, class size), and the second over
    ``target.centralizer_orbits`` of the class of the first image c, its
    representative, each weighted by orbit size.  A generator that the
    relators link to an earlier one (``_SearchPlan.links``) ranges over the
    class of its anchor's image, or of that image's inverse: over the
    C_H(c)-orbits of that class in the second place, and over its members
    elsewhere.  A generator that a relator solves for (``_SearchPlan.solve``)
    ranges over the solutions of that relator instead, past the second
    place; a linked one over those in its class.  Every other generator
    ranges over all of H.  A perfect group (``_SearchPlan.perfect``) yields
    the trivial assignment alone into a target whose order has at most two
    prime divisors, and elsewhere its first generator ranges over the classes
    of even permutations only.  Each pair stands for ``weight``
    homomorphisms, so the weights sum to |Hom(G, H)|.  ``images`` is the
    live assignment, valid until the next pair is drawn.
    """
    return _weighted(_plan(p), target, expand_free=True)


def _weighted(
    plan: _SearchPlan, target: FiniteTarget, expand_free: bool
) -> Iterator[tuple[list[int], int]]:
    """weighted_homomorphisms of the presentation whose plan is given.

    Without ``expand_free`` (as ``count_homomorphisms`` searches) the search
    stops at the plan's ``bound``: the k generators in no relator, which the
    plan orders last, stay unassigned and their factor |H|^k is folded into
    the weight, so a presentation with no generator in a relator yields one
    pair.
    """
    if plan.perfect and target.solvable_by_order:
        # the image is trivial (module docstring), and a perfect group has no
        # generator outside the relators for expand_free to weigh
        yield [0] * len(plan.order), 1
        return
    sequence = plan.order if expand_free else plan.order[: plan.bound]
    steps, links, solve = plan.steps, plan.links, plan.solve
    factor = target.order ** (len(plan.order) - len(sequence))
    mult = target.mult
    inv = target.inverse
    class_of, members = target.class_table
    images = [0] * len(plan.order)
    last = len(sequence) - 1

    def dfs(
        depth: int, candidates: Iterable[tuple[int, int]] | None, weight: int
    ) -> Iterator[tuple[list[int], int]]:
        """Extend the assignment at ``depth`` by each (image, weight factor)
        in ``candidates``, or by every element it may take when it is None."""
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
            link, rule = links[depth], solve[depth]
            k = None
            if link is not None:
                x = images[link[0]]
                k = class_of[inv[x] if link[1] else x]
            if rule is not None:
                # g u1 g^-1 u2 = 1 reads g X g^-1 = Y with X = u1 and Y = u2^-1,
                # and g^-1 u1 g u2 rotates to g u2 g^-1 u1
                (sign, a), (_, b) = checks[rule]
                solved = target.conjugators(b, inv[a]) if sign else target.conjugators(a, inv[b])
                candidates = solved if k is None else [h for h in solved if class_of[h] == k]
            elif k is None:
                candidates = range(target.order)
            else:
                candidates = members[k]
            candidates = zip(candidates, repeat(1))
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
                elif depth == 0:
                    # the second generator's only possible anchor is the first
                    link = links[1]
                    k = None if link is None else class_of[pair[link[1]]]
                    yield from dfs(1, target.centralizer_orbits(class_of[h], k), weight * size)
                else:
                    yield from dfs(depth + 1, None, weight * size)

    if not sequence:
        yield images, factor
        return
    # a perfect group's images are even (module docstring)
    yield from dfs(0, target.even_classes if plan.perfect else target.conjugacy_classes, factor)


def count_homomorphisms(p: Presentation, target: FiniteTarget) -> int:
    """Exact |Hom(G, H)| for the presented group G and finite target H.

    An abelian H is counted from G's Smith form, any other by the search.
    The count is kept in ``_SearchPlan.counts`` of the presentation's plan,
    so counting a group into a target again costs a dictionary read.  Plans
    are looked up by presentation equality and kept while the presentation
    they were made for lives: the surgery and half-double routes, which
    Tietze usually takes to one presentation, share one.  The memo is keyed
    by the target's identity, not its name, through a weak reference, so a
    count lives while its target and its plan do, keeps no target alive, and
    a target closed afresh is searched afresh.
    """
    plan = _plan(p)
    count = plan.counts.get(target)
    if count is None:
        if target.is_abelian:
            count = _abelian_count(p, target)
        else:
            homs = _weighted(plan, target, expand_free=False)
            count = sum(weight for _, weight in homs)
        plan.counts[target] = count
    return count


def _abelian_count(p: Presentation, target: FiniteTarget) -> int:
    """|Hom(G, A)| for an abelian target A, from the Smith form U·M·V = D of G.

    Hom(G, A) is the set of x in A^n with M x = 0, written additively.  With
    x = V y this reads D y = 0, so y_k ranges over A[d_k] = {a : a^d_k = 1}
    below the rank and over all of A past it.
    """
    snf = relation_smith_form(p)
    count = target.order ** (len(snf.columns) - snf.rank)
    for d in snf.diagonal:
        if d > 1:
            count *= sum(target.power(a, d) == 0 for a in range(target.order))
    return count


def iter_homomorphisms(p: Presentation, target: FiniteTarget) -> Iterator[tuple[int, ...]]:
    """Yield every homomorphism once, as a tuple of element indices per generator:
    the H-conjugates of those ``weighted_homomorphisms`` yields, repeats dropped."""
    mult, inv = target.mult, target.inverse
    seen: set[tuple[int, ...]] = set()
    for images, _ in weighted_homomorphisms(p, target):
        for z in range(target.order):
            row, z_inv = mult[z], inv[z]
            hom = tuple(mult[row[h]][z_inv] for h in images)
            if hom not in seen:
                seen.add(hom)
                yield hom


def peripheral_table(
    p: Presentation, meridian: Word, longitude: Word, target: FiniteTarget
) -> dict[tuple[int, int], int]:
    """Weights of Hom(G, H) summed by (meridian image, longitude image).

    One ``weighted_homomorphisms`` search, so the weights sum to |Hom(G, H)|;
    each pair carries the weight of the conjugation orbit of its
    representative homomorphism.  An abelian H is searched too, but
    ``knots.validate_peripheral`` reads those off H1.
    """
    m, l = meridian.letters, longitude.letters
    table: dict[tuple[int, int], int] = {}
    for images, weight in weighted_homomorphisms(p, target):
        key = (evaluate_word(m, images, target), evaluate_word(l, images, target))
        table[key] = table.get(key, 0) + weight
    return table


def slope_lattices(
    table: Mapping[tuple[int, int], int], target: FiniteTarget
) -> dict[tuple[int, int, int], int]:
    """The weights of a ``peripheral_table`` into H summed by the slope
    lattice (m, c, n) of each pair (see the module docstring)."""
    lattices: Counter[tuple[int, int, int]] = Counter()
    for (a, b), weight in table.items():
        powers = [0]  # a^0, ..., a^(m-1)
        while x := target.mult[powers[-1]][a]:
            powers.append(x)
        x = step = target.inverse[b]  # b^-n, for n = 1, 2, ...
        n = 1
        while x not in powers:
            x = target.mult[x][step]
            n += 1
        lattices[len(powers), powers.index(x), n] += weight
    return lattices


def slope_counts(
    lattices: Mapping[tuple[int, int, int], int], slopes: Sequence[tuple[int, int]]
) -> list[int]:
    """|Hom(K(q/p), H)| for each (q, p) in slopes, in one pass over the knot
    group's ``slope_lattices`` into H: the summed weight of those that hold
    (q, p), the ones with n | p and q = c·(p/n) mod m."""
    totals = [0] * len(slopes)
    for (m, c, n), w in lattices.items():
        for i, (q, p) in enumerate(slopes):
            if p % n == 0 and (q - c * p // n) % m == 0:
                totals[i] += w
    return totals


class HomSpectrum(NamedTuple):
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


class DistinguishReport(NamedTuple):
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
