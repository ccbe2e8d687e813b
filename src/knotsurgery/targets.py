"""Finite permutation groups used as homomorphism-counting targets.

Permutations act on 0..degree-1 and are stored as image tuples; composition
is (a * b)(x) = a(b(x)).  A FiniteTarget carries its fully enumerated element
list together with multiplication and inverse tables so that hom counting is
a pure table-lookup loop.  Cycle notation in files is 1-based, as usual.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ClosureCapExceededError, KnotSurgeryError

Perm = tuple[int, ...]

# A closed target keeps an order x order table of 8-byte references, so the
# cap bounds it at 8 * 5000^2 bytes = 200 MB (PSL2_19, the largest bundled
# target, has 3420 elements).
DEFAULT_CLOSURE_CAP = 5000
# Largest degree a target-suite file may give; checked before any
# permutation of that degree is built.
MAX_TARGET_DEGREE = 1000


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def compose(a: Perm, b: Perm) -> Perm:
    """Apply b first, then a."""
    return tuple(a[b[i]] for i in range(len(a)))


def invert_perm(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


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


def cycle_string(p: Perm) -> str:
    """1-based disjoint cycle notation; identity renders as ``()``."""
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            cycle.append(x)
            seen[x] = True
            x = p[x]
        cycles.append("(" + " ".join(str(i + 1) for i in cycle) + ")")
    return "".join(cycles) if cycles else "()"


@dataclass(frozen=True)
class FiniteTarget:
    """A finite permutation group with enumerated elements and lookup tables."""

    name: str
    degree: int
    generators: tuple[Perm, ...]
    elements: tuple[Perm, ...]
    mult: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    identity_index: int

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def conjugacy_classes(self) -> tuple[tuple[int, int], ...]:
        """(representative, class size) per conjugacy class, by first index.

        A class is the orbit of its smallest element index under conjugation
        by the generators, found breadth-first over the mult/inverse tables.
        """
        mult, inverse = self.mult, self.inverse
        conjugators = []
        for perm in self.generators:
            g = self.elements.index(perm)
            conjugators.append((mult[g], inverse[g]))
        seen = bytearray(self.order)
        classes = []
        for rep in range(self.order):
            if seen[rep]:
                continue
            seen[rep] = 1
            orbit = [rep]
            for x in orbit:
                for row, g_inv in conjugators:
                    y = mult[row[x]][g_inv]
                    if not seen[y]:
                        seen[y] = 1
                        orbit.append(y)
            classes.append((rep, len(orbit)))
        return tuple(classes)

    def __repr__(self) -> str:
        return f"FiniteTarget({self.name}, order={self.order})"


def close_target(
    name: str,
    generators: Iterable[Sequence[int]],
    degree: int | None = None,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> FiniteTarget:
    """Saturate the generators into a full element list and build tables.

    Elements are discovered breadth-first as words in the generators, so each
    element k > 0 is e_k = e_parent(k) * g for one generator g.  Then
    e_k * e_j = e_parent(k) * (g * e_j), so row k of the multiplication table
    is row parent(k) gathered through the left-multiplication permutation of
    g on element indices.  Each row costs one C-level itemgetter call, and the
    whole table |gens| * order permutation compositions.
    """
    gens = [tuple(int(x) for x in g) for g in generators]
    if degree is None:
        if not gens:
            raise ValueError("degree required when no generators are given")
        degree = len(gens[0])
    gens = [_check_perm(g, degree) for g in gens]
    identity = identity_perm(degree)
    index: dict[Perm, int] = {identity: 0}
    elements: list[Perm] = [identity]
    parent: list[tuple[int, int]] = [(0, -1)]  # (parent index, generator letter)
    frontier = [0]
    while frontier:
        next_frontier = []
        for i in frontier:
            x = elements[i]
            for g_idx, g in enumerate(gens):
                y = compose(x, g)
                if y in index:
                    continue
                if len(elements) >= cap:
                    raise ClosureCapExceededError(f"closure of {name!r} exceeded cap {cap}")
                next_frontier.append(len(elements))
                index[y] = len(elements)
                elements.append(y)
                parent.append((i, g_idx))
        frontier = next_frontier
    order = len(elements)
    # With order 1, itemgetter of one index would return a scalar, but then
    # the row loop below is empty and no gather is ever called.
    left = [itemgetter(*[index[compose(g, e)] for e in elements]) for g in gens]
    rows = [tuple(range(order))]
    for pk, gk in parent[1:]:
        rows.append(left[gk](rows[pk]))
    mult = tuple(rows)
    inverse = tuple(index[invert_perm(a)] for a in elements)
    return FiniteTarget(
        name=name,
        degree=degree,
        generators=tuple(gens),
        elements=tuple(elements),
        mult=mult,
        inverse=inverse,
        identity_index=0,
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


@lru_cache(maxsize=None)
def standard_suite() -> tuple[FiniteTarget, ...]:
    """The fixed default target list: C2..C6, S3, S4, S5, A4, A5, D4, D5."""
    return (
        cyclic(2),
        cyclic(3),
        cyclic(4),
        cyclic(5),
        cyclic(6),
        symmetric(3),
        symmetric(4),
        symmetric(5),
        alternating(4),
        alternating(5),
        dihedral(4),
        dihedral(5),
    )


def _checked_entries(data) -> list[dict]:
    """The entries of a target-suite document, refused unless each has the right shape.

    A suite is a list of objects, each with a ``name`` string, an integer
    ``degree`` and a list of ``generators`` strings in cycle notation.
    """
    if not isinstance(data, list):
        raise KnotSurgeryError("a target suite must be a list of target objects")
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
    return data


def suite_from_json(data: list[dict], cap: int = DEFAULT_CLOSURE_CAP) -> tuple[FiniteTarget, ...]:
    out = []
    for entry in _checked_entries(data):
        degree = entry["degree"]
        if degree > MAX_TARGET_DEGREE:
            raise KnotSurgeryError(f"target degree {degree} is past the limit {MAX_TARGET_DEGREE}")
        gens = [parse_cycles(text, degree) for text in entry["generators"]]
        out.append(close_target(entry["name"], gens, degree=degree, cap=cap))
    return tuple(out)


def suite_to_json(suite: Iterable[FiniteTarget]) -> list[dict]:
    return [
        {
            "name": t.name,
            "degree": t.degree,
            "generators": [cycle_string(g) for g in t.generators],
        }
        for t in suite
    ]


def load_suite(path: str | Path, cap: int = DEFAULT_CLOSURE_CAP) -> tuple[FiniteTarget, ...]:
    with open(path, encoding="utf-8") as fh:
        return suite_from_json(json.load(fh), cap=cap)


def _escalation_entries() -> list[dict]:
    text = resources.files("knotsurgery").joinpath("data/targets_extended.json").read_text()
    return json.loads(text)


@lru_cache(maxsize=None)
def escalation_suite() -> tuple[FiniteTarget, ...]:
    """Bundled larger targets, cheapest first, for separating stubborn pairs."""
    return suite_from_json(_escalation_entries())


def extended_suite() -> tuple[FiniteTarget, ...]:
    return standard_suite() + escalation_suite()


def suite_names(spec: str) -> tuple[str, ...]:
    """Target names of a CLI suite spec, read without closing the large targets."""
    if spec == "standard":
        return tuple(t.name for t in standard_suite())
    if spec == "extended":
        return suite_names("standard") + tuple(e["name"] for e in _escalation_entries())
    with open(spec, encoding="utf-8") as fh:
        return tuple(e["name"] for e in _checked_entries(json.load(fh)))


def resolve_suite(spec: str) -> tuple[FiniteTarget, ...]:
    """Map a CLI suite spec ("standard", "extended", or a file path) to targets."""
    if spec == "standard":
        return standard_suite()
    if spec == "extended":
        return extended_suite()
    return load_suite(spec)
