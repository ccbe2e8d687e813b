"""Surgery counts read off the knot group's peripheral tables.

Hom(K(q/p), H) is the set of homomorphisms of the knot group whose meridian
image a and longitude image b satisfy a^q b^p = 1, so ``slope_counts`` over
the ``slope_lattices`` of a ``peripheral_table`` must equal a direct count on
the surgered group, and the filter a^q = b^-p over the table itself.  The CLI
reads the tables off ``validate_peripheral``'s report, as most tests here do.
"""

import json
from functools import cache
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from knotsurgery import (
    KnotPresentation,
    SurgerySlope,
    build_family,
    builtin_knot,
    count_homomorphisms,
    cyclic,
    dehn_surgery_group,
    dihedral,
    escalation_suite,
    mapping_torus_presentation,
    parse_braid,
    standard_suite,
    symmetric,
    tietze_simplify,
    validate_peripheral,
    wirtinger_from_braid,
)
from knotsurgery.fpgroup import tietze_simplify_tracked
from knotsurgery.homcount import (
    evaluate_word,
    peripheral_table,
    slope_counts,
    slope_lattices,
    weighted_homomorphisms,
)
from knotsurgery.knots import builtin_monodromy
from knotsurgery.surgery import MAX_ABS_P, MAX_Q

from conftest import abelian_suite, filter_slope_count, naive_hom_count

# three 3-strand braids whose closures are knots
BRAIDS = ("1 -2 1 -2 1 -2 1 -2", "1 1 1 2 -1 2", "-2 -2 -2 -2 -1 -1 -2 -1")


@cache
def knot(name: str):
    if name in ("trefoil", "fig8"):
        return builtin_knot(name)
    if name == "fig8-monodromy":
        return mapping_torus_presentation(builtin_monodromy("fig8"))
    return wirtinger_from_braid(parse_braid(name))


@cache
def tables(name: str) -> tuple[dict, ...]:
    return validate_peripheral(knot(name), standard_suite()).tables


@st.composite
def slopes(draw):
    q = draw(st.integers(1, 5))
    p = draw(st.integers(-50, 50).filter(lambda p: gcd(p, q) == 1))
    return q, p


@given(st.sampled_from(("trefoil", "fig8", "fig8-monodromy") + BRAIDS), slopes())
def test_table_count_equals_the_count_on_the_family_member(name, slope):
    q, p = slope
    (member,) = build_family(knot(name), q, [p]).members
    group = tietze_simplify(member.presentation)
    for target, table in zip(standard_suite(), tables(name)):
        lattices = slope_lattices(table, target)
        assert slope_counts(lattices, [(q, p)]) == [count_homomorphisms(group, target)], target.name


@pytest.mark.parametrize("name", ["trefoil", "fig8"])
@pytest.mark.parametrize("q, p", [(1, 1), (1, -2), (2, 3), (3, -1), (1, 0)])
def test_table_count_equals_naive_enumeration(name, q, p):
    kp = knot(name)
    group, (meridian, longitude) = tietze_simplify_tracked(kp.group, (kp.meridian, kp.longitude))
    surgered = dehn_surgery_group(kp, SurgerySlope(p, q))
    for target in (symmetric(3), dihedral(4), cyclic(6)):
        lattices = slope_lattices(peripheral_table(group, meridian, longitude, target), target)
        assert slope_counts(lattices, [(q, p)]) == [naive_hom_count(surgered, target)], target.name


def test_powers_past_the_element_orders_are_exact():
    # every slope of the unknot is a lens space: |Hom(L(q, p), H)| =
    # #{h in H : h^q = 1}, whatever p is, and the unknot's longitude is trivial
    kp = builtin_knot("unknot")
    target = symmetric(4)
    (table,) = validate_peripheral(kp, (target,)).tables
    lattices = slope_lattices(table, target)
    elements = target.elements
    for q in (1, 2, 3, 4, 6, 12, 999, 1000):
        expected = 0
        for perm in elements:
            x = tuple(range(4))
            for _ in range(q):
                x = tuple(perm[i] for i in x)
            expected += x == tuple(range(4))
        kept = [(q, p) for p in (1, -1, 997, -999) if gcd(p, q) == 1]
        assert slope_counts(lattices, kept) == [expected] * len(kept)


@pytest.mark.parametrize("name", ["trefoil", "fig8", "1 1 1 1 1", "1 2 1 2 1 2 1 2"])
def test_lattice_counts_equal_the_power_filter_at_every_bundled_target(name):
    # the braids close to T(2,5) and T(3,4); the 20 bundled targets take in
    # PSL2_17 and PSL2_19, whose products a memo computes on demand
    suite = standard_suite() + escalation_suite()
    assert len(suite) == 20 and {"PSL2_17", "PSL2_19"} <= {t.name for t in suite}
    slopes = [
        (q, p)
        for q in (1, 2, 3, 7, MAX_Q)
        for p in (0, 1, -1, 6, -6, 139, -139, MAX_ABS_P, -MAX_ABS_P)
        if gcd(p, q) == 1
    ]
    for target, table in zip(suite, validate_peripheral(knot(name), suite).tables):
        lattices = slope_lattices(table, target)
        expected = [filter_slope_count(table, target, q, p) for q, p in slopes]
        assert slope_counts(lattices, slopes) == expected, target.name


def searched_table(group, meridian, longitude, target) -> dict[tuple[int, int], int]:
    """The peripheral table summed from the one search, whatever the target."""
    table: dict[tuple[int, int], int] = {}
    for images, weight in weighted_homomorphisms(group, target):
        key = (
            evaluate_word(meridian.letters, images, target),
            evaluate_word(longitude.letters, images, target),
        )
        table[key] = table.get(key, 0) + weight
    return table


def test_abelian_tables_equal_the_searched_tables_on_the_census_pool():
    # an abelian target's table is read off the knot group's H1 = Z, with no
    # search; on the first 200 knots of the benchmark's census pool it equals
    # the search's table on the simplified group, pair for pair and weight
    # for weight, for three peripheral pairs per knot: (m, l), whose longitude
    # maps to 0 in H1, (m, l·m) and (m^-1, l·m^-3), so that both signs of
    # the meridian's image in H1 and a longitude off the kernel are met
    pool = Path(__file__).resolve().parent.parent / "bench" / "census_pool.json"
    knots = json.loads(pool.read_text(encoding="utf-8"))["knots"][:200]
    targets = standard_suite()[:5] + abelian_suite()
    assert all(t.is_abelian for t in targets)
    compared = 0
    for entry in knots:
        kp = wirtinger_from_braid(parse_braid(entry["braid"]))
        m, l = kp.meridian, kp.longitude
        for meridian, longitude in ((m, l), (m, l * m), (m.inverse(), l * m ** -3)):
            pair = KnotPresentation(kp.group, meridian, longitude, kp.genus_hint)
            group, words = tietze_simplify_tracked(kp.group, (meridian, longitude))
            tables = validate_peripheral(pair, targets).tables
            for target, table in zip(targets, tables):
                assert table == searched_table(group, *words, target), (entry["braid"], target.name)
                compared += 1
    assert compared == 200 * 3 * len(targets)


@pytest.mark.parametrize("name", ["fig8", "fig8-monodromy", BRAIDS[0]])
def test_only_a_non_abelian_target_needs_the_simplified_group(monkeypatch, name):
    # the searched tables are built on one Tietze-simplified copy of the knot
    # group; an abelian target's table is read off H1, so a suite of abelian
    # targets alone simplifies nothing
    calls = []

    def counting(group, words):
        calls.append(group)
        return tietze_simplify_tracked(group, words)

    monkeypatch.setattr("knotsurgery.knots.tietze_simplify_tracked", counting)
    suites = {(cyclic(2), cyclic(3)): 0, abelian_suite(): 0, standard_suite(): 1}
    for suite, expected in suites.items():
        calls.clear()
        assert validate_peripheral(knot(name), suite).ok
        assert len(calls) == expected, [t.name for t in suite]
