"""Surgery counts read off the knot group's peripheral tables.

Hom(K(q/p), H) is the set of homomorphisms of the knot group whose meridian
image a and longitude image b satisfy a^q b^p = 1, so ``slope_count`` over
``peripheral_table`` must equal a direct count on the surgered group.  The
CLI reads the tables off ``validate_peripheral``'s report, as most tests here do.
"""

import json
from functools import cache
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from knotsurgery import (
    SurgerySlope,
    build_family,
    builtin_knot,
    count_homomorphisms,
    cyclic,
    dehn_surgery_group,
    dihedral,
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
    slope_count,
    weighted_homomorphisms,
)
from knotsurgery.knots import builtin_monodromy

from conftest import abelian_suite, naive_hom_count

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
        assert slope_count(table, target, q, p) == count_homomorphisms(group, target), target.name


@pytest.mark.parametrize("name", ["trefoil", "fig8"])
@pytest.mark.parametrize("q, p", [(1, 1), (1, -2), (2, 3), (3, -1), (1, 0)])
def test_table_count_equals_naive_enumeration(name, q, p):
    kp = knot(name)
    group, (meridian, longitude) = tietze_simplify_tracked(kp.group, (kp.meridian, kp.longitude))
    surgered = dehn_surgery_group(kp, SurgerySlope(p, q))
    for target in (symmetric(3), dihedral(4), cyclic(6)):
        table = peripheral_table(group, meridian, longitude, target)
        assert slope_count(table, target, q, p) == naive_hom_count(surgered, target), target.name


def test_powers_past_the_element_orders_are_exact():
    # every slope of the unknot is a lens space: |Hom(L(q, p), H)| =
    # #{h in H : h^q = 1}, whatever p is, and the unknot's longitude is trivial
    kp = builtin_knot("unknot")
    target = symmetric(4)
    (table,) = validate_peripheral(kp, (target,)).tables
    elements = target.elements
    for q in (1, 2, 3, 4, 6, 12, 999, 1000):
        expected = 0
        for perm in elements:
            x = tuple(range(4))
            for _ in range(q):
                x = tuple(perm[i] for i in x)
            expected += x == tuple(range(4))
        for p in (1, -1, 997, -999):
            if gcd(p, q) == 1:
                assert slope_count(table, target, q, p) == expected


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
    # an abelian target's table is read off the Smith form of the simplified
    # knot group, with no search; on the first 200 knots of the benchmark's
    # census pool it equals the search's table, pair for pair and weight for
    # weight
    pool = Path(__file__).resolve().parent.parent / "bench" / "census_pool.json"
    knots = json.loads(pool.read_text(encoding="utf-8"))["knots"][:200]
    targets = standard_suite()[:5] + abelian_suite()
    assert all(t.is_abelian for t in targets)
    for entry in knots:
        kp = wirtinger_from_braid(parse_braid(entry["braid"]))
        group, words = tietze_simplify_tracked(kp.group, (kp.meridian, kp.longitude))
        for target in targets:
            expected = searched_table(group, *words, target)
            assert peripheral_table(group, *words, target) == expected, (entry["braid"], target.name)
