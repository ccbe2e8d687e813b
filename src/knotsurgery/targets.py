"""Finite permutation groups used as homomorphism-counting targets.

Permutations act on 0..degree-1 and are stored as image tuples; composition
is (a * b)(x) = a(b(x)).  A FiniteTarget carries its fully enumerated element
list, whose element 0 is the identity, an inverse table and ``mult``, read as
``mult[x][y]`` (the index of e_x * e_y), so that hom counting is a pure lookup
loop.  A target of at most FULL_TABLE_MAX_ORDER elements stores every product
in a tuple of tuples.  A larger one stores none when it is closed: its
``mult`` computes a product by composing the two permutations the first time
it is read, and keeps it, up to order^2 // 12 products per target.

Closing a target composes each element with each generator once, at C level,
while it finds the elements breadth-first.  Everything else is read off that
breadth-first (Schreier) tree by integer walks: each generator's left
multiplication on element indices (kept for the class pass), the inverse
table, and the order of the row gathers of a full table.

Every bundled target is built here from its generators, and each bundled
suite is a table from name to builder: ``STANDARD`` of the cyclic, symmetric,
alternating and dihedral builders, and ``ESCALATION``, cheapest first, of
those and ``psl2``/``psl2_8``.  A custom suite is a list of entries, each with
generators in cycle notation, 1-based as usual; ``suite_from_json`` closes a
parsed one.  Nothing here reads a file: the CLI reads a suite file and hands
over its parsed entries.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, partial
from math import isqrt
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import ClosureCapExceededError, KnotSurgeryError

Perm = tuple[int, ...]

# A target of up to FULL_TABLE_MAX_ORDER elements keeps an order x order
# table of 8-byte references, and a larger one at most order^2 // 12 memoized
# products, so the cap bounds what one target stores by 8 * 5000^2 bytes =
# 200 MB (PSL2_19, the largest bundled target, has 3420 elements).  The
# targets of one suite file share that bound: the sum of their squared orders
# is at most DEFAULT_CLOSURE_CAP^2.
DEFAULT_CLOSURE_CAP = 5000
# Largest order whose full multiplication table is built at closing: 8 *
# 1448^2 bytes is just under 16 MiB.  Measured on a 2-core machine (Python
# 3.11.7), closing and then counting the six fig8 surgery groups (q=1,
# p=1..6) took, with a full table against products computed on first use:
# PSL2_13 43-52 ms against 64-69 ms, PSL2_17 219-232 ms against 134-196 ms,
# PSL2_19 361-438 ms against 259-326 ms.  Closing the escalation suite took
# 0.07 s without the tables of PSL2_17 and PSL2_19, and 0.49-0.55 s with
# them; they are 142 MB.
FULL_TABLE_MAX_ORDER = 1448
# Largest degree a target-suite file may give; checked before any
# permutation of that degree is built.
MAX_TARGET_DEGREE = 1000


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def _check_perm(p: Sequence[int], degree: int) -> Perm:
    p = tuple(int(x) for x in p)
    if len(p) != degree or sorted(p) != list(range(degree)):
        raise ValueError(f"not a permutation of degree {degree}: {p}")
    return p


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse 1-based cycle notation like ``(1 2 3)(4 5)``; fixed points omitted."""
    mapping = list(range(degree))
    seen: set[int] = set()
    body = text.strip()
    if body in ("", "()"):
        return tuple(mapping)
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"bad cycle notation: {text!r}")
    for chunk in body[1:-1].split(")("):
        points = [int(tok) - 1 for tok in chunk.replace(",", " ").split()]
        if len(points) < 2:
            raise ValueError(f"cycles need at least two points: {text!r}")
        for x in points:
            if not 0 <= x < degree:
                raise ValueError(f"point {x + 1} out of range for degree {degree}")
            if x in seen:
                raise ValueError(f"point {x + 1} repeated in {text!r}")
            seen.add(x)
        for i, x in enumerate(points):
            mapping[x] = points[(i + 1) % len(points)]
    return tuple(mapping)


class _ProductRow(dict):
    """Row x of a ProductMemo: y -> the index of e_x * e_y, composed on first read."""

    __slots__ = ("perm", "memo")

    def __missing__(self, y: int) -> int:
        memo = self.memo
        # itemgetter(*b)(a) is a * b at C level; it returns a tuple because
        # a group of order >= 2 has degree >= 2
        product = memo.index[itemgetter(*memo.elements[y])(self.perm)]
        if memo.room > 0:
            memo.room -= 1
            self[y] = product
        return product


class ProductMemo(dict):
    """``mult`` of a target past FULL_TABLE_MAX_ORDER: ``memo[x][y]`` like a table.

    Row x is made the first time it is read, and each product the first time
    it is read.  Products are kept until ``room`` (order^2 // 12 at first) is
    used up, and are recomputed on every read after that.  A kept product
    costs up to about 80 bytes (its share of the row's dict and often its own
    int key), so a memo stays under the 8 * order^2 bytes of the table it
    stands for: PSL2_19 filled to order^2 // 8 products held 97-101 MB
    against the 89 MB of its table.  Nothing is made per element at closing:
    the rows appear during a search, spread over it.
    ``room`` is not locked, so threads that share a target may overdraw it.
    """

    __slots__ = ("elements", "index", "room")

    def __init__(self, elements: tuple[Perm, ...], index: dict[Perm, int]) -> None:
        super().__init__()
        self.elements = elements
        self.index = index
        self.room = len(elements) ** 2 // 12

    def __missing__(self, x: int) -> _ProductRow:
        row = _ProductRow()
        row.perm = self.elements[x]  # IndexError past the order, as in a table
        row.memo = self
        self[x] = row
        return row


# A target is equal only to itself: it has no __eq__ or __hash__ of its own.
# Comparing by value would compare and hash every product of a full table,
# and a ProductMemo's stored products are a cache, which equality must not
# read.  It keeps a __dict__, where its cached properties are stored.
class FiniteTarget:
    """A finite permutation group with enumerated elements and lookup tables."""

    def __init__(
        self,
        name: str,
        degree: int,
        generators: tuple[Perm, ...],
        elements: tuple[Perm, ...],
        mult: tuple[tuple[int, ...], ...] | ProductMemo,
        inverse: tuple[int, ...],
        generator_rows: tuple[Sequence[int], ...],
    ) -> None:
        self.name = name
        self.degree = degree
        self.generators = generators
        self.elements = elements
        self.mult = mult
        self.inverse = inverse
        # generator_rows[h][k] is the index of g_h * e_k (no rows at degree 1)
        self.generator_rows = generator_rows
        self._centralizers: dict[int, list[int]] = {}
        self._orbit_cache: dict[tuple[int, int | None], tuple[tuple[int, int], ...]] = {}

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def is_abelian(self) -> bool:
        """Whether the generators commute, so that the whole group does."""
        rows = self.generator_rows
        return all(a[b[0]] == b[a[0]] for i, a in enumerate(rows) for b in rows[:i])

    def power(self, x: int, n: int) -> int:
        """The index of e_x^n, for any integer n, by repeated squaring.

        A negative n powers the inverse, e_x^n = (e_x^-1)^-n, and nothing is
        kept between calls.
        """
        mult = self.mult
        if n < 0:
            x, n = self.inverse[x], -n
        result = 0  # the identity
        while n:
            if n & 1:
                result = mult[result][x]
            x, n = mult[x][x], n >> 1
        return result

    @property
    def conjugacy_classes(self) -> tuple[tuple[int, int], ...]:
        """(representative, class size) per conjugacy class: ``centralizer_orbits(0)``."""
        return self.centralizer_orbits(0)

    @property
    def class_table(self) -> tuple[list[int], list[tuple[int, ...]]]:
        """(the index in ``conjugacy_classes`` of each element's class, the
        members of each class in increasing index order)."""
        return self._classes[:2]

    @cached_property
    def _classes(self) -> tuple[list[int], list[tuple[int, ...]], list[int]]:
        """The class pass: (class index, class members, conjugator) per element.

        Each class is found breadth-first from its smallest element, its
        representative rep, under conjugation by the generators, reading
        ``generator_rows`` alone.  Each element x keeps the index of a
        conjugator t_x with t_x rep t_x^-1 = x: t_rep is the identity, and
        t_y = g t_x when y is first reached as g x g^-1.
        """
        rows, inverse, order = self.generator_rows, self.inverse, self.order
        class_of, conjugator = [-1] * order, [0] * order
        members: list[tuple[int, ...]] = []
        for rep in range(order):
            if class_of[rep] >= 0:
                continue
            k, orbit = len(members), [rep]
            class_of[rep] = k
            for x in orbit:
                for row in rows:
                    y = row[inverse[row[inverse[x]]]]
                    if class_of[y] < 0:
                        class_of[y] = k
                        conjugator[y] = row[conjugator[x]]
                        orbit.append(y)
            members.append(tuple(sorted(orbit)))
        return class_of, members, conjugator

    def _centralizer(self, j: int) -> list[int]:
        """C_H(rep), with rep class j's representative; kept per class.

        By Schreier's lemma C_H(rep) is generated by t_y^-1 g t_x for x in
        the class and g a generator, with y = g x g^-1 and t the class
        pass's conjugators; each is one product, of t_y^-1 and the entry
        t_x of g's row.  One not yet in the subgroup (the identity, where
        y was first reached from x, always is) joins its generators; the
        subgroup is closed under left multiplication by their rows until
        it has |H| / |class| elements.
        """
        if (group := self._centralizers.get(j)) is not None:
            return group
        mult, inverse = self.mult, self.inverse
        _, members, conjugator = self._classes
        size = self.order // len(members[j])
        group, inside, added = [0], {0}, []
        for x in members[j]:
            if len(group) == size:
                break
            for row in self.generator_rows:
                y = row[inverse[row[inverse[x]]]]
                s = mult[inverse[conjugator[y]]][row[conjugator[x]]]
                if s not in inside:
                    added.append(mult[s])
                    for z in group:
                        for row_s in added:
                            w = row_s[z]
                            if w not in inside:
                                inside.add(w)
                                group.append(w)
        self._centralizers[j] = group
        return group

    def conjugators(self, x: int, y: int) -> list[int]:
        """Every g with g x g^-1 = y: none unless x and y share a class.

        With rep their class's representative and t the class pass's
        conjugators, t_x^-1 x t_x = rep = t_y^-1 y t_y, so the solutions are
        the coset t_y C_H(rep) t_x^-1, made as t_y (c t_x^-1) from the rows
        of t_y and of the centralizer's elements.
        """
        class_of, _, conjugator = self._classes
        j = class_of[x]
        if class_of[y] != j:
            return []
        mult = self.mult
        left, back = mult[conjugator[y]], self.inverse[conjugator[x]]
        return [left[mult[c][back]] for c in self._centralizer(j)]

    def centralizer_orbits(self, j: int, k: int | None = None) -> tuple[tuple[int, int], ...]:
        """(representative, orbit size) per orbit under conjugation by C_H(c),
        with c the representative of the j-th conjugacy class.

        The orbits are those of H, or with a class index k, those of the k-th
        conjugacy class alone, which conjugation preserves.  Each orbit is
        listed under its smallest element index, so for j = 0, the identity's
        class, these are the conjugacy classes.  Conjugation by z reads row z
        alone, as z x z^-1 = z (z x^-1)^-1.  The first call on this target
        runs the class pass, which finds the classes (``class_table``) and a
        conjugator per element breadth-first under conjugation by the
        generators, reading their rows, in O(|H| * #generators) steps.  For
        a central c the orbits are the classes.  Otherwise the first call
        for class j closes C_H(c) from its Schreier generators, one product
        each (a few suffice: at most 66 for all the classes of a bundled
        target).  An orbit is the set {z x z^-1 : z in C_H(c)},
        which costs sum over z in C_H(c) of |C_H(z)| steps over H by
        Burnside's lemma.  The result is cached on this target, per (j, k),
        on first use.
        """
        if (orbits := self._orbit_cache.get((j, k))) is not None:
            return orbits
        _, members, _ = self._classes
        if len(members[j]) == 1:
            found = [(m[0], len(m)) for m in (members if k is None else members[k : k + 1])]
        else:
            mult, inverse, order = self.mult, self.inverse, self.order
            rows = [mult[z] for z in self._centralizer(j)]
            seen = bytearray(order)
            found = []
            for rep in range(order) if k is None else members[k]:
                if seen[rep]:
                    continue
                x = inverse[rep]
                orbit = {row[inverse[row[x]]] for row in rows}
                for y in orbit:
                    seen[y] = 1
                found.append((rep, len(orbit)))
        return self._orbit_cache.setdefault((j, k), tuple(found))

    def __repr__(self) -> str:
        return f"FiniteTarget({self.name}, order={self.order})"


def close_target(
    name: str,
    generators: Iterable[Sequence[int]],
    degree: int,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> FiniteTarget:
    """Saturate the generators into a full element list and build tables.

    Elements are discovered breadth-first as words in the generators, so
    index 0 is the identity and each element k > 0 is e_k = e_parent(k) *
    h_k for one generator h_k, its letter.  The search composes each element
    with each generator once, at C level, and records the index of e_i * g as
    ``right[g][i]``; nothing else here composes or hashes a permutation.  The
    rest are integer walks down that breadth-first tree, O(|gens| * order)
    steps each:

    - left multiplication, ``left[g][k]`` = the index of g * e_k, kept as
      ``generator_rows``, is ``right[h_k][left[g][parent(k)]]``;
    - the inverse, e_k^-1 = h_k^-1 * e_parent(k)^-1, is the inverse of
      parent(k) moved back through ``left[h_k]``;
    - row k of the multiplication table, e_k * e_j = e_parent(k) * (h_k *
      e_j), is row parent(k) gathered through ``left[h_k]``, one C-level
      itemgetter call per row.

    Past FULL_TABLE_MAX_ORDER elements no table is built: ``mult`` is a
    ProductMemo, which composes each product on first use, and the target
    keeps ``left`` itself; a full table's generator rows are its own.
    """
    gens = [_check_perm(g, degree) for g in generators]
    identity = identity_perm(degree)
    index: dict[Perm, int] = {identity: 0}
    elements: list[Perm] = [identity]
    tree: list[tuple[int, int]] = []  # (parent(k), h_k) for k = 1, 2, ...
    # itemgetter(*g)(x) is x * g; at degree 1 it would return a scalar, and
    # every permutation of degree 1 is the identity, so no generator is walked
    actions = [itemgetter(*g) for g in gens] if degree > 1 else []
    right: list[list[int]] = [[] for _ in actions]
    moves = list(zip(range(len(actions)), actions, right))
    order = 1
    for i, x in enumerate(elements):
        for h, act, row in moves:
            y = act(x)
            k = index.setdefault(y, order)
            if k == order:
                if order >= cap:
                    raise ClosureCapExceededError(f"closure of {name!r} exceeded cap {cap}")
                elements.append(y)
                tree.append((i, h))
                order += 1
            row.append(k)
    elements = tuple(elements)
    left = []
    for row in right:
        walk = [row[0]]  # g * e_0 = e_0 * g
        for p, h in tree:
            walk.append(right[h][walk[p]])
        left.append(walk)
    undo = []
    for walk in left:
        back = [0] * order
        for k, gk in enumerate(walk):
            back[gk] = k
        undo.append(back)
    inverse = [0]
    for p, h in tree:
        inverse.append(undo[h][inverse[p]])
    if order > FULL_TABLE_MAX_ORDER:
        mult, generator_rows = ProductMemo(elements, index), left
    else:
        # With order 1, itemgetter of one index would return a scalar, but
        # then the row loop below is empty and no gather is ever called.
        gathers = [itemgetter(*walk) for walk in left]
        rows = [tuple(range(order))]
        for p, h in tree:
            rows.append(gathers[h](rows[p]))
        mult = tuple(rows)
        generator_rows = [mult[walk[0]] for walk in left]  # walk[0]: g * e_0 = g
    return FiniteTarget(
        name=name,
        degree=degree,
        generators=tuple(gens),
        elements=elements,
        mult=mult,
        inverse=tuple(inverse),
        generator_rows=tuple(generator_rows),
    )


def cyclic(n: int) -> FiniteTarget:
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    rotation = tuple((i + 1) % n for i in range(n))
    return close_target(f"C{n}", [rotation], degree=n)


def symmetric(n: int) -> FiniteTarget:
    if n < 2:
        raise ValueError("symmetric target needs degree >= 2")
    swap = (1, 0) + tuple(range(2, n))
    rotation = tuple((i + 1) % n for i in range(n))
    return close_target(f"S{n}", [swap, rotation], degree=n)


def alternating(n: int) -> FiniteTarget:
    if n < 3:
        raise ValueError("alternating target needs degree >= 3")
    three_cycle = (1, 2, 0) + tuple(range(3, n))
    if n % 2 == 1:
        big = tuple((i + 1) % n for i in range(n))
    else:
        big = (0,) + tuple(1 + ((i + 1) % (n - 1)) for i in range(n - 1))
    return close_target(f"A{n}", [three_cycle, big], degree=n)


def dihedral(n: int) -> FiniteTarget:
    """Symmetries of the n-gon, order 2n."""
    if n < 3:
        raise ValueError("dihedral target needs n >= 3")
    rotation = tuple((i + 1) % n for i in range(n))
    reflection = tuple((n - i) % n for i in range(n))
    return close_target(f"D{n}", [rotation, reflection], degree=n)


def psl2(q: int) -> FiniteTarget:
    """PSL(2,q) for an odd prime q, on the q+1 points of the projective line.

    Points 0..q-1 are the field elements and q is infinity; the generators
    are z -> z + 1 and z -> -1/z.
    """
    if q < 3 or q % 2 == 0 or any(q % d == 0 for d in range(3, isqrt(q) + 1, 2)):
        raise ValueError(f"psl2 target needs an odd prime q, got {q}")
    translation = tuple((z + 1) % q for z in range(q)) + (q,)
    inversion = (q,) + tuple(-pow(z, -1, q) % q for z in range(1, q)) + (0,)
    return close_target(f"PSL2_{q}", [translation, inversion], degree=q + 1)


def psl2_8() -> FiniteTarget:
    """PSL(2,8) on the 9 points of the projective line over GF(8).

    GF(8) is GF(2)[x]/(x^3 + x + 1), its elements 0..7 read as bit vectors in
    x, and 8 is infinity; the generators are z -> z + 1, z -> xz and z -> 1/z.
    """
    powers = [1]  # powers[k] = x^k; x generates the 7 units, so 1/x^k = x^-k
    for _ in range(6):
        z = powers[-1] << 1
        powers.append(z ^ 0b1011 if z & 0b1000 else z)
    log = {z: k for k, z in enumerate(powers)}
    add_one = tuple(z ^ 1 for z in range(8)) + (8,)
    times_x = (0,) + tuple(powers[(log[z] + 1) % 7] for z in range(1, 8)) + (8,)
    invert = (8,) + tuple(powers[-log[z] % 7] for z in range(1, 8)) + (0,)
    return close_target("PSL2_8", [add_one, times_x, invert], degree=9)


# The standard targets, in suite order: name -> builder.
STANDARD = {
    "C2": partial(cyclic, 2),
    "C3": partial(cyclic, 3),
    "C4": partial(cyclic, 4),
    "C5": partial(cyclic, 5),
    "C6": partial(cyclic, 6),
    "S3": partial(symmetric, 3),
    "S4": partial(symmetric, 4),
    "S5": partial(symmetric, 5),
    "A4": partial(alternating, 4),
    "A5": partial(alternating, 5),
    "D4": partial(dihedral, 4),
    "D5": partial(dihedral, 5),
}


@lru_cache(maxsize=None)
def standard_suite() -> tuple[FiniteTarget, ...]:
    """The fixed default target list: C2..C6, S3, S4, S5, A4, A5, D4, D5."""
    return tuple(build() for build in STANDARD.values())


def checked_entries(data) -> list[dict]:
    """The entries of a target-suite document, refused unless each has the right shape.

    A suite is a list of objects, each with its own ``name`` string, an
    integer ``degree`` of at least 1 and a list of ``generators`` strings in
    cycle notation.  A name is nonempty and holds no comma, double quote,
    whitespace or non-printable character, since it is written unescaped as
    a column of spectra.csv and into the report's lines, and it is not
    ``label``, the name of spectra.csv's first column.
    """
    if not isinstance(data, list):
        raise KnotSurgeryError("a target suite must be a list of target objects")
    seen: set[str] = set()
    for i, entry in enumerate(data):
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and type(entry.get("degree")) is int
            and isinstance(entry.get("generators"), list)
            and all(isinstance(text, str) for text in entry["generators"])
        ):
            raise KnotSurgeryError(
                f"target-suite entry {i} needs a 'name' string, an integer 'degree'"
                " and a list of 'generators' strings"
            )
        name = entry["name"]
        if not name or any(c in ',"' or c.isspace() or not c.isprintable() for c in name):
            raise KnotSurgeryError(
                f"target-suite entry {i} has the name {name!r}: a name is nonempty and holds"
                " no comma, double quote, whitespace or non-printable character"
            )
        if name == "label":
            raise KnotSurgeryError(
                f"target-suite entry {i} has the name 'label', the first column of spectra.csv"
            )
        if entry["degree"] < 1:
            raise KnotSurgeryError(f"target-suite entry {i} has degree {entry['degree']}, below 1")
        if name in seen:
            raise KnotSurgeryError(f"target-suite entry {i} repeats the name {name!r}")
        seen.add(name)
    return data


def suite_from_json(data: list[dict]) -> tuple[FiniteTarget, ...]:
    """Close every entry; each closure is capped by the table budget left."""
    out = []
    budget = DEFAULT_CLOSURE_CAP**2
    for i, entry in enumerate(checked_entries(data)):
        degree = entry["degree"]
        if degree > MAX_TARGET_DEGREE:
            raise KnotSurgeryError(f"target degree {degree} is past the limit {MAX_TARGET_DEGREE}")
        gens = [parse_cycles(text, degree) for text in entry["generators"]]
        try:
            # max: a trivial group still closes, and costs 1, with no budget left
            target = close_target(entry["name"], gens, degree=degree, cap=isqrt(max(budget, 0)))
        except ClosureCapExceededError as exc:
            raise ClosureCapExceededError(
                f"{exc}: the cap is what the {i} entries before it left of the suite's"
                " table budget (the squared orders of its entries may sum to at most"
                f" {DEFAULT_CLOSURE_CAP}^2 = {DEFAULT_CLOSURE_CAP**2})"
            ) from None
        budget -= target.order**2
        out.append(target)
    return tuple(out)


# The escalation targets, cheapest first: name -> builder.
ESCALATION = {
    "PSL2_7": partial(psl2, 7),
    "A6": partial(alternating, 6),
    "PSL2_8": psl2_8,
    "PSL2_11": partial(psl2, 11),
    "S6": partial(symmetric, 6),
    "PSL2_13": partial(psl2, 13),
    "PSL2_17": partial(psl2, 17),
    "PSL2_19": partial(psl2, 19),
}


@lru_cache(maxsize=None)
def escalation_suite() -> tuple[FiniteTarget, ...]:
    """Larger targets, cheapest first, for separating stubborn pairs."""
    return tuple(build() for build in ESCALATION.values())
