import functools
import hashlib
import itertools
import json
import math
from pathlib import Path

import pytest
from hypothesis import given

from knotsurgery import (
    BraidWord,
    InvalidSlopeError,
    KnotPresentation,
    Presentation,
    SurgerySlope,
    Word,
    abelianization,
    alternating,
    build_family,
    builtin_knot,
    builtin_monodromy,
    count_homomorphisms,
    dehn_surgery_group,
    half_complement_group,
    mapping_torus_presentation,
    parse_braid,
    quotient_by_relators,
    standard_suite,
    surgery,
    symmetric,
    tietze_simplify,
    validate_peripheral,
    wirtinger_from_braid,
)
from knotsurgery.homcount import slope_counts, slope_lattices
from knotsurgery.surgery import (
    CABLE_LONGITUDE,
    CABLE_MERIDIAN,
    LONGITUDE,
    MAX_ABS_P,
    MAX_Q,
    MERIDIAN,
    double_complement_group,
)
from knotsurgery.targets import psl2

from conftest import (
    cable_link_group,
    mirror_braid,
    naive_hom_count,
    q1_identity_failures,
    three_strand_knot_braids,
)


def test_slope_validation():
    SurgerySlope(0, 1)
    SurgerySlope(-3, 2)
    with pytest.raises(InvalidSlopeError):
        SurgerySlope(1, 0)
    with pytest.raises(InvalidSlopeError):
        SurgerySlope(2, 4)
    with pytest.raises(InvalidSlopeError):
        SurgerySlope(0, 5)


def test_slope_limits():
    SurgerySlope(MAX_ABS_P, 1)
    SurgerySlope(-MAX_ABS_P, 1)
    SurgerySlope(1, MAX_Q)
    for p, q in ((MAX_ABS_P + 1, 1), (-MAX_ABS_P - 1, 1), (1, MAX_Q + 1)):
        with pytest.raises(InvalidSlopeError):
            SurgerySlope(p, q)


def test_unknot_surgery_is_lens_space(unknot):
    group = dehn_surgery_group(unknot, SurgerySlope(2, 5))
    invariants = abelianization(group)
    assert invariants.free_rank == 0 and invariants.torsion == (5,)


def test_meridian_filling_kills_everything(trefoil, fig8, unknot, suite_small):
    for kp in (unknot, trefoil, fig8):
        group = dehn_surgery_group(kp, SurgerySlope(0, 1))
        simplified = tietze_simplify(group)
        for target in suite_small:
            assert count_homomorphisms(simplified, target) == 1


def test_trefoil_surgery_count_against_naive_enumeration(trefoil):
    group = dehn_surgery_group(trefoil, SurgerySlope(1, 1))
    # closed here, so that the count is searched here and not read off the
    # plan of this group that an earlier test counted into the session's S3
    s3 = symmetric(3)
    # oracle: enumerate all |S3|^2 images of the unsimplified presentation
    assert count_homomorphisms(group, s3) == naive_hom_count(group, s3)


def test_cable_link_group_unknot_hopf_shadow(unknot):
    p = cable_link_group(unknot, SurgerySlope(0, 1)).presentation
    assert p.generators == ("x1", "mu", "lam")
    # relators: [mu, lam] and x mu^-1
    assert len(p.relators) == 2
    invariants = abelianization(p)
    assert invariants.free_rank == 2 and not invariants.torsion


def test_family_member_labels_both_peripheral_pairs(unknot):
    # the labels the manifest writes: the knot's peripheral pair inside the
    # link complement is the fresh pair mu, lam, and the companion torus's
    # is the knot group's own
    (member,) = build_family(unknot, 1, [0]).members
    assert member.presentation.generators == ("x1", "mu", "lam")
    assert member.labels[MERIDIAN] == Word.generator(1)
    assert member.labels[LONGITUDE] == Word.generator(2)
    assert member.labels[CABLE_MERIDIAN] == unknot.meridian
    assert member.labels[CABLE_LONGITUDE] == unknot.longitude


def test_cable_link_group_trefoil_linking(trefoil):
    labeled = cable_link_group(trefoil, SurgerySlope(1, 1))
    invariants = abelianization(labeled.presentation)
    assert invariants.free_rank == 2 and not invariants.torsion


def test_cable_quotient_matches_surgery_spectra(fig8):
    slope = SurgerySlope(2, 3)
    labeled = cable_link_group(fig8, slope)
    collapsed = quotient_by_relators(
        labeled.presentation, [labeled.labels[MERIDIAN], labeled.labels[LONGITUDE]]
    )
    surgery = dehn_surgery_group(fig8, slope)
    suite = [t for t in standard_suite() if t.name in ("S3", "S4", "S5", "A5")]
    left = tietze_simplify(collapsed)
    right = tietze_simplify(surgery)
    for target in suite:
        assert count_homomorphisms(left, target) == count_homomorphisms(right, target)


@pytest.mark.parametrize("p,q,reference_braid", [(2, 3, "1 1 1"), (2, 5, "1 1 1 1 1")])
def test_cable_of_unknot_is_torus_knot(unknot, suite_full, p, q, reference_braid):
    # independent certification of the cable amalgam: filling the companion
    # meridian of the unknot's (p, q)-cable leaves the (p, q) torus knot group
    from knotsurgery import parse_braid, wirtinger_from_braid

    labeled = cable_link_group(unknot, SurgerySlope(p, q))
    torus_knot = tietze_simplify(
        quotient_by_relators(labeled.presentation, [labeled.labels[MERIDIAN]])
    )
    reference = tietze_simplify(wirtinger_from_braid(parse_braid(reference_braid)).group)
    for target in suite_full:
        assert count_homomorphisms(torus_knot, target) == count_homomorphisms(
            reference, target
        ), target.name


@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 1), (-3, 2)])
def test_mirror_braid_flips_slope_sign(trefoil, suite_full, p, q):
    # the reversed-sign braid presents the mirror knot; surgery along (p, q)
    # on one side must match (-p, q) on the other
    from knotsurgery import parse_braid, wirtinger_from_braid

    mirror = wirtinger_from_braid(parse_braid("-1 -1 -1"))
    left = tietze_simplify(dehn_surgery_group(mirror, SurgerySlope(p, q)))
    right = tietze_simplify(dehn_surgery_group(trefoil, SurgerySlope(-p, q)))
    for target in suite_full:
        assert count_homomorphisms(left, target) == count_homomorphisms(
            right, target
        ), target.name


@functools.cache
def identity_suite() -> tuple:
    """The standard suite, A6, S6 and PSL2_13, closed once; PSL2_13 is past
    what enumeration reaches, so only the mirror identity checks it."""
    return standard_suite() + (alternating(6), symmetric(6), psl2(13))


def q1_spectra(letters) -> dict[int, dict[str, int]]:
    """The 3-braid closure's q = 1 counts into identity_suite, by p in -4..4,
    read off its slope lattices as ``family`` reads them."""
    suite = identity_suite()
    report = validate_peripheral(wirtinger_from_braid(BraidWord(3, tuple(letters))), suite)
    lattices = [slope_lattices(table, t) for table, t in zip(report.tables, suite)]
    return {
        p: {t.name: slope_counts(lattice, [(1, p)])[0] for t, lattice in zip(suite, lattices)}
        for p in range(-4, 5)
    }


# the suite is no argument, so a failing example's report names only the letters
@given(three_strand_knot_braids)
def test_q1_spectra_of_braid_knots_hold_the_perfect_member_and_mirror_identities(letters):
    assert q1_identity_failures(q1_spectra(letters), q1_spectra(mirror_braid(letters))) == []


def test_half_complement_unknot(unknot):
    group = half_complement_group(unknot, SurgerySlope(1, 3))
    invariants = abelianization(group)
    assert invariants.free_rank == 0 and invariants.torsion == (3,)


def test_half_abelianization_always_matches_surgery(trefoil, fig8, unknot):
    for kp, slope in itertools.product(
        (unknot, trefoil, fig8),
        (SurgerySlope(1, 1), SurgerySlope(2, 3), SurgerySlope(-1, 2), SurgerySlope(5, 1)),
    ):
        assert abelianization(half_complement_group(kp, slope)) == abelianization(
            dehn_surgery_group(kp, slope)
        )


def test_half_spectra_match_surgery_trefoil(trefoil, suite_full):
    slope = SurgerySlope(1, 2)
    left = tietze_simplify(half_complement_group(trefoil, slope))
    right = tietze_simplify(dehn_surgery_group(trefoil, slope))
    for target in suite_full:
        assert count_homomorphisms(left, target) == count_homomorphisms(right, target)


def test_double_equals_half(fig8):
    slope = SurgerySlope(3, 2)
    assert double_complement_group(fig8, slope) == half_complement_group(fig8, slope)


def test_double_h1_is_z_mod_q(fig8):
    for q in (1, 2, 3, 4, 5):
        slope = SurgerySlope(1, q)
        invariants = abelianization(double_complement_group(fig8, slope))
        assert invariants.free_rank == 0
        assert invariants.torsion == ((q,) if q > 1 else ())


def test_fig8_small_p_distinct(fig8_family_run):
    # q=1, p in {2, 3}: separated only deep into the escalation list
    assert (2, 3) in fig8_family_run["resolution"]
    target, left, right = fig8_family_run["resolution"][(2, 3)]
    assert left != right


def test_build_family_filters_and_reports(fig8):
    result = build_family(fig8, 2, [1, 2, 3])
    assert [m.slope.p for m in result.members] == [1, 3]
    assert result.skipped == (2,)


@pytest.mark.parametrize("q,p_values", [(0, [2]), (-2, [2]), (0, [])])
def test_build_family_refuses_q_below_one_when_it_keeps_no_slope(fig8, q, p_values):
    # no p here is kept, so no SurgerySlope is made to refuse q itself
    with pytest.raises(InvalidSlopeError, match="q must be >= 1"):
        build_family(fig8, q, p_values)


def _count_fresh_names(monkeypatch) -> list:
    """The calls of surgery.fresh_name from now on, made through a counting wrapper."""
    calls = []
    fresh_name = surgery.fresh_name
    monkeypatch.setattr(surgery, "fresh_name", lambda *args: calls.append(args) or fresh_name(*args))
    return calls


def test_build_family_checks_every_slope_before_it_builds(fig8, monkeypatch):
    calls = _count_fresh_names(monkeypatch)
    with pytest.raises(InvalidSlopeError):
        build_family(fig8, 1, [1, MAX_ABS_P + 1])
    assert calls == []


def test_build_family_builds_the_shared_part_once_and_only_for_a_member(fig8, monkeypatch):
    calls = _count_fresh_names(monkeypatch)
    assert len(build_family(fig8, 1, range(-6, 7)).members) == 13
    assert len(calls) == 2  # mu and lam
    calls.clear()
    result = build_family(fig8, 2, [-4, 0, 2])
    assert result.members == () and result.skipped == (-4, 0, 2)
    assert calls == []


def test_family_members_are_built_one_at_a_time_on_one_shared_part(fig8, monkeypatch):
    calls = _count_fresh_names(monkeypatch)
    members = surgery.family_members(fig8, [SurgerySlope(p, 2) for p in range(-5, 7, 2)])
    assert calls == []  # nothing is built before the first draw
    assert next(members).slope.p == -5
    assert len(calls) == 2  # mu and lam, once for every member
    rest = [(m.slope.p, m.presentation) for m in members]
    assert len(calls) == 2
    expected = build_family(fig8, 2, range(-6, 7)).members[1:]
    assert rest == [(m.slope.p, m.presentation) for m in expected]


def _cable_half(kp: KnotPresentation, slope: SurgerySlope) -> Presentation:
    """The half of the double of one slope, from the tests' own cable-link group."""
    cable = cable_link_group(kp, slope)
    return quotient_by_relators(cable.presentation, [cable.labels[MERIDIAN], cable.labels[LONGITUDE]])


def test_family_members_builds_exactly_the_given_slopes_in_order(fig8):
    # the caller settles the slopes: each is built, in the order given, none
    # is left out, and each member carries its own, whatever holds them
    slopes = [SurgerySlope(p, 3) for p in (4, -1, 2, 1, -5)]
    members = list(surgery.family_members(fig8, slopes))
    assert [m.slope for m in members] == slopes
    assert [m.presentation for m in members] == [_cable_half(fig8, s) for s in slopes]
    (member,) = surgery.family_members(fig8, (slopes[2],))
    assert (member.slope, member.presentation) == (slopes[2], _cable_half(fig8, slopes[2]))
    # a generator gives up one slope per member, as the member is drawn
    drawn = []

    def lazily():
        for slope in slopes:
            drawn.append(slope)
            yield slope

    members = surgery.family_members(fig8, lazily())
    assert drawn == []
    for k, slope in enumerate(slopes, 1):
        member = next(members)
        assert (member.slope, drawn) == (slope, slopes[:k])
        assert member.presentation == _cable_half(fig8, slope)
    assert next(members, None) is None


def test_family_members_refuses_a_second_q_when_it_is_drawn(fig8):
    members = surgery.family_members(fig8, [SurgerySlope(1, 2), SurgerySlope(3, 2), SurgerySlope(1, 3)])
    assert [next(members).slope.p for _ in range(2)] == [1, 3]
    with pytest.raises(InvalidSlopeError, match="a family has one q: got q=3 after q=2"):
        next(members)


def test_build_family_order_independence(trefoil):
    forward = build_family(trefoil, 3, [1, 2, 4])
    backward = build_family(trefoil, 3, [4, 2, 1])
    assert {m.slope.p: m.presentation for m in forward.members} == {
        m.slope.p: m.presentation for m in backward.members
    }


def test_family_q1_members_have_trivial_h1(fig8):
    result = build_family(fig8, 1, range(1, 7))
    assert len(result.members) == 6
    for member in result.members:
        assert abelianization(member.presentation).is_trivial


FAMILY_DIGESTS = Path(__file__).with_name("family_digests.json")
# the knots whose families are pinned: the builtins, the bundled fig8
# monodromy's mapping torus, the benchmark's two slowest census braids and
# three more census braids
PINNED_KNOTS = (
    "unknot", "trefoil", "fig8", "fig8-monodromy",
    "-1 -2 -2 1 1 -2 2 2", "1 -2 1 1 -2 2 1 2",
    "1 -2 1 2 1 1 1 -1 -1 1", "-2 -2 1 -1 -2 1", "-2 -1 -1 1 -1 -1 2 2",
)
PINNED_Q = (1, 2, 3, 7)
PINNED_P = range(-12, 13)


def _pinned_knot(name: str):
    if name == "fig8-monodromy":
        return mapping_torus_presentation(builtin_monodromy("fig8"))
    if name in ("unknot", "trefoil", "fig8"):
        return builtin_knot(name)
    return wirtinger_from_braid(parse_braid(name))


def _member_repr(p: int, presentation, labels) -> str:
    return repr((
        p,
        presentation.generators,
        tuple(r.letters for r in presentation.relators),
        tuple((role, w.letters) for role, w in labels.items()),
    ))


def family_digests() -> dict[str, str]:
    """sha256 of the members of each pinned knot's family, by construction and q.

    A key is "<knot> <construction> q=<q>"; its digest hashes the reprs of
    the members' p, generators, relator letters and labels, one line each, for
    every p in PINNED_P coprime to q.
    """
    digests = {}
    for name in PINNED_KNOTS:
        kp = _pinned_knot(name)
        for q in PINNED_Q:
            slopes = [SurgerySlope(p, q) for p in PINNED_P if math.gcd(p, q) == 1]
            family = build_family(kp, q, PINNED_P)
            cables = [cable_link_group(kp, s) for s in slopes]
            lines = {
                "build_family": [_member_repr(m.slope.p, m.presentation, m.labels)
                                 for m in family.members],
                "half_complement_group": [_member_repr(s.p, half_complement_group(kp, s), {})
                                          for s in slopes],
                "cable_link_group": [_member_repr(s.p, c.presentation, c.labels)
                                     for s, c in zip(slopes, cables)],
            }
            for construction, texts in lines.items():
                text = "\n".join(texts).encode()
                digests[f"{name} {construction} q={q}"] = hashlib.sha256(text).hexdigest()
    return digests


def test_family_members_match_the_pinned_digests():
    expected = json.loads(FAMILY_DIGESTS.read_text())
    assert len(expected) == len(PINNED_KNOTS) * len(PINNED_Q) * 3
    assert family_digests() == expected


@pytest.mark.parametrize("name", ["trefoil", "fig8-monodromy", "-2 -2 1 -1 -2 1"])
def test_half_complement_group_is_the_family_member(name):
    kp = _pinned_knot(name)
    for q in PINNED_Q:
        for p in PINNED_P:
            if math.gcd(p, q) == 1:
                s = SurgerySlope(p, q)
                (member,) = build_family(kp, s.q, [s.p]).members
                assert half_complement_group(kp, s) == member.presentation


def test_half_complement_group_kills_the_peripheral_pair_as_a_quotient():
    # the quotient of the cable-link group by mu and lam, which drops a killed
    # word that repeats a relator: with an empty meridian at p = 0, q = 1 the
    # filling relator is mu^-1, and mu is not added again
    empty = KnotPresentation(Presentation(("a",)), Word(), Word.generator(0))
    for kp in (empty, _pinned_knot("trefoil")):
        for q in (1, 2):
            for p in range(-3, 4):
                if math.gcd(p, q) == 1:
                    s = SurgerySlope(p, q)
                    assert half_complement_group(kp, s) == _cable_half(kp, s), (kp, s)
    assert len(half_complement_group(empty, SurgerySlope(0, 1)).relators) == 3
