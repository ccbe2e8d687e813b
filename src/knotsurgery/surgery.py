"""Surgery quotients and the doubled-complement groups built from cable links.

The slope convention: filling along meridian^q * longitude^p, q >= 1 and
gcd(p, q) = 1.  Note that much of the literature writes the same filling with
the roles of p and q transposed; the argument order here is (p, q) and the
relator is always meridian^q longitude^p.  A global orientation flip would
relabel the family by p -> -p; one convention is fixed throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Mapping, Sequence

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


@dataclass(frozen=True)
class SurgerySlope:
    """A q/p filling slope: q >= 1 and p coprime to q."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.q < 1:
            raise InvalidSlopeError(f"q must be >= 1, got {self.q}")
        if self.q > MAX_Q or abs(self.p) > MAX_ABS_P:
            raise InvalidSlopeError(
                f"slope p={self.p}, q={self.q} is past the limits |p| <= {MAX_ABS_P}, q <= {MAX_Q}"
            )
        if gcd(self.p, self.q) != 1:
            raise InvalidSlopeError(f"gcd(p, q) must be 1, got p={self.p}, q={self.q}")


@dataclass(frozen=True)
class FamilyMember:
    """A group of one slope, with role-labelled words over its generators."""

    slope: SurgerySlope
    presentation: Presentation
    labels: Mapping[str, Word]


def dehn_surgery_group(kp: KnotPresentation, slope: SurgerySlope) -> Presentation:
    """Knot group modulo meridian^q longitude^p: the surgered manifold's group."""
    relator = word_power(kp.meridian, slope.q) * word_power(kp.longitude, slope.p)
    return quotient_by_relators(kp.group, [relator])


class _CableLinks:
    """The doubled-complement halves of one knot for one q, built around their shared part.

    A half is the cable-link group (the knot group plus a commuting pair mu,
    lam, the knot's peripheral pair inside the complement of the knot and
    its (p, q)-cable, with the cable meridian^q longitude^p identified with
    mu^q lam^p) with mu and lam killed.  Everything but the filling relator
    depends only on (knot, q) and is built once: the fresh generators mu,
    lam and their commutator, the labels, meridian^q and mu^-q.  Each p then
    adds its filling relator meridian^q longitude^p lam^-p mu^-q, mu and lam
    in one presentation.
    """

    def __init__(self, kp: KnotPresentation, q: int) -> None:
        base = kp.group
        n = len(base.generators)
        mu_name = fresh_name("mu", base.generators)
        lam_name = fresh_name("lam", base.generators + (mu_name,))
        self.mu, self.lam = Word.generator(n), Word.generator(n + 1)
        self.labels = {
            MERIDIAN: self.mu,
            LONGITUDE: self.lam,
            CABLE_MERIDIAN: kp.meridian,
            CABLE_LONGITUDE: kp.longitude,
        }
        self.linked = base.extended((commutator(self.mu, self.lam),), (mu_name, lam_name))
        self.longitude = kp.longitude
        self.meridian_q = word_power(kp.meridian, q)
        self.mu_inverse_q = word_power(self.mu, -q)

    def half(self, p: int) -> Presentation:
        """The cable-link group of slope (p, q) with the knot's peripheral pair mu, lam killed."""
        filling = (
            self.meridian_q * word_power(self.longitude, p) * word_power(self.lam, -p)
            * self.mu_inverse_q
        )
        # as in quotient_by_relators, a repeat is dropped: mu, where an empty
        # meridian makes the filling relator mu^-1 at p = 0, q = 1; nothing
        # is checked, since the relators are over the checked peripheral
        # words and mu, lam
        added = _normalize_relators(w.letters for w in (filling, self.mu, self.lam))
        return Presentation._of(
            self.linked.generators, self.linked.relators + tuple(map(Word._of, added))
        )


def half_complement_group(kp: KnotPresentation, slope: SurgerySlope) -> Presentation:
    """Group of one half of the doubled construction.

    Obtained from the cable-link group by killing the knot's peripheral pair
    (the section circle dies with them); the result is isomorphic to the
    Dehn surgery quotient, and the test suite checks that the two routes have
    identical abelianizations and hom-spectra.
    """
    return _CableLinks(kp, slope.q).half(slope.p)


def double_complement_group(kp: KnotPresentation, slope: SurgerySlope) -> Presentation:
    """Group of the doubled surface complement.

    Gluing the two halves identifies their generating systems elementwise
    (each half is generated by the image of the shared separating surface's
    group, and corresponding generators match up), so the double's group is
    presented identically to one half's.  This returns exactly that
    presentation rather than a redundant amalgam.
    """
    return half_complement_group(kp, slope)


@dataclass(frozen=True)
class FamilyResult:
    members: tuple[FamilyMember, ...]
    skipped: tuple[int, ...]


def build_family(kp: KnotPresentation, q: int, p_values: Sequence[int]) -> FamilyResult:
    """One double-complement group per p coprime to q, in input order.

    Non-coprime p values are skipped and reported, never fatal.  The part
    of the groups that does not depend on p is built once, at the first
    member, so a family with no member builds nothing.
    """
    if q < 1:
        raise InvalidSlopeError(f"q must be >= 1, got {q}")
    members = []
    skipped = []
    links = None
    for p in p_values:
        if gcd(p, q) != 1:
            skipped.append(p)
            continue
        slope = SurgerySlope(p, q)
        if links is None:
            links = _CableLinks(kp, q)
        members.append(FamilyMember(slope, links.half(p), links.labels))
    return FamilyResult(tuple(members), tuple(skipped))
