"""Knot group presentations with verified peripheral systems.

A KnotPresentation is a group presentation plus distinguished meridian and
longitude words.  The longitude is always 0-framed: its image in the (infinite
cyclic) abelianization vanishes.  Two independent construction routes exist,
the Wirtinger presentation of a braid closure (see braids.py) and the mapping
torus of a fibered surface automorphism (this module); agreement of their
invariants is the main cross-check of both.  Nothing here reads a file: the
CLI reads a monodromy file and hands its parsed JSON to
``fibered_knot_from_json``.
"""

from __future__ import annotations

from functools import cache
from typing import Mapping, NamedTuple, Sequence

from .errors import InvalidMonodromyError, UnknownGeneratorError
from .fpgroup import (
    Presentation,
    Word,
    _min_rotation,
    apply_mapping,
    commutator,
    tietze_simplify_tracked,
    word_from_json,
    word_to_json,
)
from .homcount import peripheral_table
from .smith import AbelianInvariants, relation_smith_form
from .targets import FiniteTarget

# A monodromy is refused past this genus before anything of its size is built.
MAX_GENUS = 100


class KnotPresentation:
    """A knot group with its peripheral pair (meridian, 0-framed longitude).

    Read-only: builtin_knot hands one instance to every caller."""

    __slots__ = ("group", "meridian", "longitude", "genus_hint")

    def __init__(
        self, group: Presentation, meridian: Word, longitude: Word, genus_hint: int | None = None
    ) -> None:
        n = len(group.generators)
        for label, w in (("meridian", meridian), ("longitude", longitude)):
            if w.max_index() >= n:
                raise UnknownGeneratorError(f"{label} uses out-of-range generator index")
        for name, value in zip(self.__slots__, (group, meridian, longitude, genus_hint)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"KnotPresentation is read-only; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"KnotPresentation is read-only; cannot delete {name!r}")

    def __reduce__(self) -> tuple:
        # a pickle or a copy is built again through __init__
        return KnotPresentation, (self.group, self.meridian, self.longitude, self.genus_hint)


class FiberedKnotData:
    """A genus-g surface automorphism given by generator images both ways.

    The fiber group is free on a1, b1, ..., ag, bg (indices 0..2g-1, a_i at
    2(i-1), b_i at 2(i-1)+1).  ``forward`` maps each generator to its image
    under the surface automorphism, ``backward`` under the inverse.
    """

    __slots__ = ("genus", "forward", "backward")

    def __init__(self, genus: int, forward: tuple[Word, ...], backward: tuple[Word, ...]) -> None:
        if genus < 1:
            raise InvalidMonodromyError("fibered data needs genus >= 1")
        n = 2 * genus
        if len(forward) != n or len(backward) != n:
            raise InvalidMonodromyError(
                f"expected {n} forward and backward images, got "
                f"{len(forward)} and {len(backward)}"
            )
        for w in forward + backward:
            if w.max_index() >= n:
                raise UnknownGeneratorError("monodromy image uses out-of-range generator")
        self.genus = genus
        self.forward = forward
        self.backward = backward

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.genus, self.forward, self.backward) == (
            other.genus, other.forward, other.backward
        )

    def __hash__(self) -> int:
        return hash((self.genus, self.forward, self.backward))

    def __repr__(self) -> str:
        return (
            f"FiberedKnotData(genus={self.genus!r}, forward={self.forward!r},"
            f" backward={self.backward!r})"
        )


def fiber_generator_names(genus: int) -> tuple[str, ...]:
    names = []
    for i in range(1, genus + 1):
        names.append(f"a{i}")
        names.append(f"b{i}")
    return tuple(names)


def boundary_word(genus: int) -> Word:
    """The product of commutators [a1,b1]...[ag,bg], the fiber boundary."""
    w = Word()
    for i in range(genus):
        w = w * commutator(Word.generator(2 * i), Word.generator(2 * i + 1))
    return w


def certify_monodromy(data: FiberedKnotData) -> None:
    """Check the automorphism and boundary certificates; raise on failure.

    The two image families must compose to the identity on every generator,
    and the boundary word's image must be a cyclic rotation of the boundary
    word (conjugate, with orientation preserved).
    """
    n = 2 * data.genus
    names = fiber_generator_names(data.genus)
    for i in range(n):
        g = Word.generator(i)
        if apply_mapping(data.forward[i], data.backward) != g:
            raise InvalidMonodromyError(
                f"backward(forward) is not the identity map on generator {names[i]}"
            )
        if apply_mapping(data.backward[i], data.forward) != g:
            raise InvalidMonodromyError(
                f"forward(backward) is not the identity map on generator {names[i]}"
            )
    boundary = boundary_word(data.genus)
    image = apply_mapping(boundary, data.forward).cyclically_reduced()
    if _min_rotation(image.letters) != _min_rotation(boundary.letters):
        raise InvalidMonodromyError(
            "monodromy does not preserve the fiber boundary up to rotation"
        )


def mapping_torus_presentation(data: FiberedKnotData) -> KnotPresentation:
    """Knot group of a fibered knot from its fiber automorphism.

    Generators are the 2g fiber generators plus the meridian m; relators say
    that conjugation by m realizes the automorphism: image(s) = m^-1 s m for
    each fiber generator s.  The longitude is the fiber boundary word.
    """
    certify_monodromy(data)
    n = 2 * data.genus
    gens = fiber_generator_names(data.genus) + ("m",)
    m = Word.generator(n)
    relators = []
    for i in range(n):
        s = Word.generator(i)
        relators.append(data.forward[i].inverse() * m.inverse() * s * m)
    group = Presentation(gens, tuple(relators))
    return KnotPresentation(
        group=group,
        meridian=m,
        longitude=boundary_word(data.genus),
        genus_hint=data.genus,
    )


def fibered_knot_to_json(data: FiberedKnotData) -> dict:
    names = fiber_generator_names(data.genus)
    return {
        "genus": data.genus,
        "forward": {names[i]: word_to_json(w, names) for i, w in enumerate(data.forward)},
        "backward": {names[i]: word_to_json(w, names) for i, w in enumerate(data.backward)},
    }


def fibered_knot_from_json(payload: Mapping) -> FiberedKnotData:
    genus = payload.get("genus") if isinstance(payload, Mapping) else None
    if type(genus) is not int:
        raise InvalidMonodromyError("monodromy file needs an integer 'genus' field")
    if genus > MAX_GENUS:
        raise InvalidMonodromyError(f"genus {genus} is past the limit {MAX_GENUS}")
    names = fiber_generator_names(max(genus, 1))
    index = {name: i for i, name in enumerate(names)}

    def load_side(side: str) -> tuple[Word, ...]:
        table = payload.get(side)
        if not isinstance(table, Mapping):
            raise InvalidMonodromyError(f"monodromy file needs a '{side}' mapping")
        words = []
        for name in names:
            if name not in table:
                raise InvalidMonodromyError(f"monodromy file missing image of {name!r} in '{side}'")
            try:
                words.append(word_from_json(table[name], index))
            except (TypeError, ValueError):
                raise InvalidMonodromyError(
                    f"image of {name!r} in '{side}' is not a list of [generator, +1 or -1] letters"
                ) from None
        return tuple(words)

    return FiberedKnotData(genus=genus, forward=load_side("forward"), backward=load_side("backward"))


TREFOIL_MONODROMY = FiberedKnotData(
    genus=1,
    forward=(
        Word(((0, 1), (1, 1))),  # a -> a b
        Word(((0, -1),)),        # b -> a^-1
    ),
    backward=(
        Word(((1, -1),)),        # a -> b^-1
        Word(((1, 1), (0, 1))),  # b -> b a
    ),
)

FIG8_MONODROMY = FiberedKnotData(
    genus=1,
    forward=(
        Word(((0, 1), (1, 1), (0, 1))),   # a -> a b a
        Word(((1, 1), (0, 1))),           # b -> b a
    ),
    backward=(
        Word(((0, 1), (1, -1))),          # a -> a b^-1
        Word(((1, 1), (1, 1), (0, -1))),  # b -> b^2 a^-1
    ),
)

BUILTIN_BRAIDS: dict[str, str] = {
    "unknot": "",
    "trefoil": "1 1 1",
    "fig8": "1 -2 1 -2",
}

_BUILTIN_GENUS = {"unknot": 0, "trefoil": 1, "fig8": 1}


def _check_builtin(name: str) -> None:
    """Refuse any name but a key of ``BUILTIN_BRAIDS``: one spelling per knot."""
    if name not in BUILTIN_BRAIDS:
        raise KeyError(f"unknown builtin knot {name!r}; available: {sorted(BUILTIN_BRAIDS)}")


@cache
def builtin_knot(name: str) -> KnotPresentation:
    """Wirtinger-route presentation of a builtin knot, built once per process
    and then kept (a KnotPresentation is read-only).  An unknown name raises,
    and is not kept."""
    from .braids import parse_braid, wirtinger_from_braid  # local import avoids a cycle

    _check_builtin(name)
    kp = wirtinger_from_braid(parse_braid(BUILTIN_BRAIDS[name]))
    return KnotPresentation(kp.group, kp.meridian, kp.longitude, _BUILTIN_GENUS[name])


def builtin_monodromy(name: str) -> FiberedKnotData:
    """Bundled fiber automorphisms; certified against the Wirtinger route in tests."""
    _check_builtin(name)
    table = {"trefoil": TREFOIL_MONODROMY, "fig8": FIG8_MONODROMY}
    if name not in table:
        raise KeyError(f"no bundled monodromy for {name!r}")
    return table[name]


class PeripheralCheck(NamedTuple):
    name: str
    passed: bool
    detail: str


class PeripheralReport(NamedTuple):
    """The checks, check 1's H1, and one peripheral table per target (none if check 1 fails)."""

    checks: tuple[PeripheralCheck, ...]
    h1: AbelianInvariants
    tables: tuple[dict[tuple[int, int], int], ...] = ()

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)

    def format(self) -> str:
        return "\n".join(
            f"{c.name}: {'PASS' if c.passed else 'FAIL'} ({c.detail})" for c in self.checks
        )


def validate_peripheral(
    kp: KnotPresentation,
    targets: Sequence[FiniteTarget],
) -> PeripheralReport:
    """Run the three peripheral-system checks and report which fail.

    Checks 1 and 2 read the group's one Smith decomposition
    (``relation_smith_form``), which H1 and the Alexander polynomial share.
    1. The abelianization is infinite cyclic and the meridian generates it:
       H1 = Z, and the meridian's exponent vector m has |m . phi| = 1, where
       phi spans the kernel (the map onto H1 = Z is u -> u . phi).
    2. The longitude is nullhomologous (0-framed): its exponent vector lies
       in the row lattice of the relation matrix.
    3. Meridian and longitude images commute under every homomorphism into
       every given target: every pair in each target's table commutes.  A
       table files each conjugation orbit of homomorphisms under one
       representative's pair; commutation is invariant under simultaneous
       conjugation, so this is exact, and the table's weights count every
       homomorphism in the reported total.
       An abelian target is not searched: a homomorphism f to it is
       w -> c^(w . phi), so f(m) = c^(m . phi) takes each value once as c
       does, and f(l) = f(m)^k with k = (l . phi)(m . phi).  Any other
       target's table is its ``peripheral_table``.
       The search runs only when check 1 passes.  Otherwise the check is
       reported failed without it: a group whose H1 is larger than Z can
       have hundreds of millions of homomorphisms into the targets.

    This is the only place the knot group is searched.  The report keeps
    check 1's H1 and check 3's tables, the searched ones built on one
    Tietze-simplified copy of the group, so every slope's count is read off
    them.  The copy is made only when some target is not abelian.
    """
    n = len(kp.group.generators)
    snf = relation_smith_form(kp.group)
    h1 = snf.cokernel()
    # the meridian generates H1 only if H1 = Z
    meridian_generates = False
    if h1.is_infinite_cyclic:
        (phi,) = snf.kernel()
        m_vector = kp.meridian.exponent_vector(n)
        m_phi = sum(x * y for x, y in zip(m_vector, phi))
        meridian_generates = abs(m_phi) == 1
    longitude_vector = kp.longitude.exponent_vector(n)
    checks = [
        PeripheralCheck(
            "abelianization-is-Z",
            meridian_generates,
            f"H1 = {h1}, meridian generates: {meridian_generates}",
        ),
        PeripheralCheck(
            "longitude-nullhomologous",
            snf.in_row_lattice(longitude_vector),
            f"longitude exponent vector {longitude_vector}",
        ),
    ]
    if not meridian_generates:
        checks.append(
            PeripheralCheck("peripheral-commutation", False, "not run: abelianization-is-Z failed")
        )
        return PeripheralReport(tuple(checks), h1)

    if not all(t.is_abelian for t in targets):
        simplified, (meridian, longitude) = tietze_simplify_tracked(
            kp.group, (kp.meridian, kp.longitude)
        )
    k = sum(x * y for x, y in zip(longitude_vector, phi)) * m_phi
    tables = tuple(
        {(a, t.power(a, k)): 1 for a in range(t.order)}
        if t.is_abelian
        else peripheral_table(simplified, meridian, longitude, t)
        for t in targets
    )
    witness = ""
    for target, table in zip(targets, tables):
        if any(target.mult[a][b] != target.mult[b][a] for a, b in table):
            witness = f"violation in {target.name}"
            break
    total = sum(sum(table.values()) for table in tables)
    detail = witness or f"{total} homomorphisms over {len(targets)} targets"
    checks.append(PeripheralCheck("peripheral-commutation", not witness, detail))
    return PeripheralReport(tuple(checks), h1, tables)
