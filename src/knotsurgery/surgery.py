"""Surgery quotients and the doubled-complement groups built from cable links.

The slope convention: filling along meridian^q * longitude^p, q >= 1 and
gcd(p, q) = 1, which ``coprime`` alone decides.  Much of the literature
transposes p and q; here the argument order is (p, q) and the relator is
always meridian^q longitude^p.  A global orientation flip would relabel the
family by p -> -p; one convention is fixed throughout.  ``family_members``
builds the halves of exactly the slopes it is given, each with its slope.
"""

from __future__ import annotations

from itertools import chain
from math import gcd
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import InvalidSlopeError
from .fpgroup import (
    Presentation,
    Word,
    _normalize_relators,
    commutator,
    fresh_name,
    quotient_by_relators,
    word_power,
)
from .knots import KnotPresentation

MERIDIAN = "meridian"
LONGITUDE = "longitude"
CABLE_MERIDIAN = "cable_meridian"
CABLE_LONGITUDE = "cable_longitude"

# Largest |p| and q a slope may have: the filling relator is
# meridian^q longitude^p, so its length grows with both.
MAX_ABS_P = 1000
MAX_Q = 1000


def coprime(p: int, q: int) -> bool:
    """Whether gcd(p, q) = 1: the one place the slope rule is decided."""
    return gcd(p, q) == 1


class SurgerySlope:
    """A q/p filling slope: q >= 1 and p coprime to q."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        if q < 1:
            raise InvalidSlopeError(f"q must be >= 1, got {q}")
        if q > MAX_Q or abs(p) > MAX_ABS_P:
            raise InvalidSlopeError(
                f"slope p={p}, q={q} is past the limits |p| <= {MAX_ABS_P}, q <= {MAX_Q}"
            )
        if not coprime(p, q):
            raise InvalidSlopeError(f"gcd(p, q) must be 1, got p={p}, q={q}")
        self.p = p
        self.q = q

    def __repr__(self) -> str:
        return f"SurgerySlope(p={self.p!r}, q={self.q!r})"


class FamilyMember(NamedTuple):
    """A group of one slope, with role-labelled words over its generators."""

    slope: SurgerySlope
    presentation: Presentation
    labels: Mapping[str, Word]


def dehn_surgery_group(kp: KnotPresentation, slope: SurgerySlope) -> Presentation:
    """Knot group modulo meridian^q longitude^p: the surgered manifold's group."""
    relator = word_power(kp.meridian, slope.q) * word_power(kp.longitude, slope.p)
    return quotient_by_relators(kp.group, [relator])


def half_complement_group(kp: KnotPresentation, slope: SurgerySlope) -> Presentation:
    """Group of one half of the doubled construction.

    Obtained from the cable-link group by killing the knot's peripheral pair
    (the section circle dies with them); the result is isomorphic to the
    Dehn surgery quotient, and the test suite checks that the two routes have
    identical abelianizations and hom-spectra.
    """
    return next(family_members(kp, (slope,))).presentation


def double_complement_group(kp: KnotPresentation, slope: SurgerySlope) -> Presentation:
    """Group of the doubled surface complement.

    Gluing the two halves identifies their generating systems elementwise
    (each half is generated by the image of the shared separating surface's
    group, and corresponding generators match up), so the double's group is
    presented identically to one half's.  This returns exactly that
    presentation rather than a redundant amalgam.
    """
    return half_complement_group(kp, slope)


class FamilyResult(NamedTuple):
    members: tuple[FamilyMember, ...]
    skipped: tuple[int, ...]


def family_members(kp: KnotPresentation, slopes: Iterable[SurgerySlope]) -> Iterator[FamilyMember]:
    """The double-complement group of each given slope, in order, one at a time.

    Each group is one half: the cable-link group (the knot group plus a
    commuting pair mu, lam, the knot's peripheral pair inside the complement
    of the knot and its (p, q)-cable, with the cable meridian^q longitude^p
    identified with mu^q lam^p) with mu and lam killed.  The slopes, settled
    by the caller, are drawn as the members are; none is left out, and each
    member carries its own.  They share one q: another raises when drawn.
    Everything but the filling relator depends only on (knot, q) and is built
    once, at the first draw: the fresh generators mu, lam and their
    commutator, the labels, meridian^q and mu^-q, and the relators mu and
    lam.  Each p then adds its filling relator meridian^q longitude^p lam^-p
    mu^-q, mu and lam in one presentation, whose relators start with the
    knot group's and [mu, lam], the same words for every member.  A caller
    that drops each member before drawing the next (as every command does)
    holds one at a time.
    """
    slopes = iter(slopes)
    first = next(slopes, None)
    if first is None:
        return
    q = first.q
    base = kp.group
    n = len(base.generators)
    mu_name = fresh_name("mu", base.generators)
    lam_name = fresh_name("lam", base.generators + (mu_name,))
    mu, lam = Word.generator(n), Word.generator(n + 1)
    labels = {
        MERIDIAN: mu,
        LONGITUDE: lam,
        CABLE_MERIDIAN: kp.meridian,
        CABLE_LONGITUDE: kp.longitude,
    }
    linked = base.extended((commutator(mu, lam),), (mu_name, lam_name))
    meridian_q = word_power(kp.meridian, q)
    mu_inverse_q = word_power(mu, -q).letters
    lam_inverse, lam_letter = lam.inverse().letters, lam.letters
    # as in quotient_by_relators, a repeat is dropped; nothing is checked,
    # since the relators are over the checked peripheral words and mu, lam.
    # The filling relator ends in mu^-q, so it is never empty, and it can
    # repeat mu or lam only at their length: mu^-1, where an empty meridian
    # makes it so at p = 0, q = 1, which is kept and drops mu.
    tail = _normalize_relators(w.letters for w in (mu, lam))
    tail_lengths = {len(r) for r in tail}
    tail_words = tuple(map(Word._of, tail))
    for slope in chain((first,), slopes):
        if slope.q != q:
            raise InvalidSlopeError(f"a family has one q: got q={slope.q} after q={q}")
        p = slope.p
        # lam^-p mu^-q shares no generator with meridian^q longitude^p, so
        # nothing cancels where they meet, and no letter cancels mu^-1 at
        # the end, so the relator is cyclically reduced as it stands
        head = (meridian_q * word_power(kp.longitude, p)).letters
        filling = Word._of(head + (lam_inverse if p > 0 else lam_letter) * abs(p) + mu_inverse_q)
        if len(filling) in tail_lengths:
            added = tuple(map(Word._of, _normalize_relators([filling.letters, *tail])))
        else:
            added = (filling, *tail_words)
        presentation = Presentation._of(linked.generators, linked.relators + added)
        yield FamilyMember(slope, presentation, labels)


def build_family(kp: KnotPresentation, q: int, p_values: Sequence[int]) -> FamilyResult:
    """Every member of the slopes q/p with p coprime to q at once, and the
    other p, skipped (never fatal), in input order; every slope is checked
    before anything is built.

    It holds the whole family, so no command calls it: the commands draw
    ``family_members`` one member at a time.  The demo script, the benchmark
    and the tests read this tuple.
    """
    if q < 1:
        raise InvalidSlopeError(f"q must be >= 1, got {q}")
    slopes = [SurgerySlope(p, q) for p in p_values if coprime(p, q)]
    skipped = tuple(p for p in p_values if not coprime(p, q))
    return FamilyResult(tuple(family_members(kp, slopes)), skipped)
