"""Surgery quotients, cable-link amalgams, and surface-complement groups.

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
    commutator,
    quotient_by_relators,
    word_power,
    fresh_name,
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

    def __str__(self) -> str:
        return f"q/p = {self.q}/{self.p}"


@dataclass(frozen=True)
class LabeledPresentation:
    """A presentation with role-labelled words (all valid over its generators)."""

    presentation: Presentation
    labels: Mapping[str, Word]

    def __post_init__(self) -> None:
        n = len(self.presentation.generators)
        for role, w in self.labels.items():
            if w.max_index() >= n:
                raise ValueError(f"label {role!r} uses out-of-range generator")


def dehn_surgery_group(kp: KnotPresentation, slope: SurgerySlope) -> Presentation:
    """Knot group modulo meridian^q longitude^p: the surgered manifold's group."""
    relator = word_power(kp.meridian, slope.q) * word_power(kp.longitude, slope.p)
    return quotient_by_relators(kp.group, [relator])


def cable_link_group(kp: KnotPresentation, slope: SurgerySlope) -> LabeledPresentation:
    """Group of the complement of the knot together with its (p, q)-cable.

    Two fresh commuting generators mu, lam are adjoined: the peripheral pair
    of the knot inside the link complement.  The cable, which is homotopic on
    the companion torus to cable_meridian^q cable_longitude^p, is identified
    with mu^q lam^p.  The labels carry the peripheral pair of the knot
    (meridian, longitude = the new generators) and of the companion torus the
    cable lives on (cable_meridian, cable_longitude = the knot group's own
    peripheral words).
    """
    base = kp.group
    n = len(base.generators)
    taken = list(base.generators)
    mu_name = fresh_name("mu", taken)
    lam_name = fresh_name("lam", taken + [mu_name])
    mu = Word.generator(n)
    lam = Word.generator(n + 1)
    cable_relator = (
        word_power(kp.meridian, slope.q)
        * word_power(kp.longitude, slope.p)
        * word_power(lam, -slope.p)
        * word_power(mu, -slope.q)
    )
    presentation = base.extended((commutator(mu, lam), cable_relator), (mu_name, lam_name))
    labels = {
        MERIDIAN: mu,
        LONGITUDE: lam,
        CABLE_MERIDIAN: kp.meridian,
        CABLE_LONGITUDE: kp.longitude,
    }
    return LabeledPresentation(presentation, labels)


def half_complement_group(kp: KnotPresentation, slope: SurgerySlope) -> Presentation:
    """Group of one half of the doubled construction.

    Obtained from the cable-link group by killing the knot's peripheral pair
    (the section circle dies with them); the result is isomorphic to the
    Dehn surgery quotient, and the test suite checks that the two routes have
    identical abelianizations and hom-spectra.
    """
    return _kill_peripheral_pair(cable_link_group(kp, slope))


def _kill_peripheral_pair(cable: LabeledPresentation) -> Presentation:
    return quotient_by_relators(
        cable.presentation, [cable.labels[MERIDIAN], cable.labels[LONGITUDE]]
    )


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
class FamilyMember:
    slope: SurgerySlope
    presentation: Presentation
    labels: Mapping[str, Word]


@dataclass(frozen=True)
class FamilyResult:
    members: tuple[FamilyMember, ...]
    skipped: tuple[int, ...]


def build_family(kp: KnotPresentation, q: int, p_values: Sequence[int]) -> FamilyResult:
    """One double-complement group per p coprime to q, in input order.

    Non-coprime p values are skipped and reported, never fatal.
    """
    if q < 1:
        raise InvalidSlopeError(f"q must be >= 1, got {q}")
    members = []
    skipped = []
    for p in p_values:
        if gcd(p, q) != 1:
            skipped.append(p)
            continue
        slope = SurgerySlope(p, q)
        cable = cable_link_group(kp, slope)
        members.append(FamilyMember(slope, _kill_peripheral_pair(cable), cable.labels))
    return FamilyResult(tuple(members), tuple(skipped))
