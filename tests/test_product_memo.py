"""Targets past FULL_TABLE_MAX_ORDER read their products off a ProductMemo.

A memoized product must be the composition of the two permutations, the memo
must stay lazy (nothing is composed at closing) and bounded (at most
order^2 // 12 stored products), and every count must equal the count over the
full table.  Memo rows are forced on small targets by lowering the threshold,
as test_targets.py lowers DEFAULT_CLOSURE_CAP.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from knotsurgery import (
    builtin_knot,
    close_target,
    count_homomorphisms,
    escalation_suite,
    parse_braid,
    standard_suite,
    targets,
    wirtinger_from_braid,
)
from knotsurgery.fpgroup import Presentation, Word, tietze_simplify_tracked
from knotsurgery.homcount import peripheral_table, slope_count, slope_lattices
from knotsurgery.targets import DEFAULT_CLOSURE_CAP, ProductMemo

from conftest import compose, naive_hom_count

BUNDLED = {t.name: t for t in standard_suite() + escalation_suite()}


def close_as(target, memo: bool):
    """The target closed afresh with memo rows, or with a full table."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(targets, "FULL_TABLE_MAX_ORDER", 1 if memo else DEFAULT_CLOSURE_CAP)
        return close_target(target.name, target.generators, degree=target.degree)


# one pair at a time: the full tables of PSL2_17 and PSL2_19 hold 141 MB
@lru_cache(maxsize=1)
def twins(name: str):
    full, memo = close_as(BUNDLED[name], False), close_as(BUNDLED[name], True)
    assert isinstance(memo.mult, ProductMemo) and isinstance(full.mult, tuple)
    assert memo.elements == full.elements
    return full, memo


# at most two generators, so that a search into PSL2_19 stays small
small_presentations = st.builds(
    lambda n_gens, rel_letters: Presentation(
        [f"g{i}" for i in range(n_gens)],
        [Word(tuple((g % n_gens, e) for g, e in rel)) for rel in rel_letters],
    ),
    st.integers(min_value=1, max_value=2),
    st.lists(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=1), st.sampled_from((1, -1))),
            max_size=8,
        ),
        max_size=3,
    ),
)


@pytest.mark.parametrize("name", list(BUNDLED))
@settings(derandomize=True, max_examples=25)
@given(small_presentations)
def test_memo_counts_equal_full_table_counts(name, p):
    full, memo = twins(name)
    assert count_homomorphisms(p, memo) == count_homomorphisms(p, full)


BRAID = "-2 -2 -2 -2 -1 -1 -2 -1"  # a census braid whose closure is a knot
KNOTS = {
    "trefoil": builtin_knot("trefoil"),
    "fig8": builtin_knot("fig8"),
    BRAID: wirtinger_from_braid(parse_braid(BRAID)),
}


@pytest.mark.parametrize("name", ["S4", "A5", "D5", "PSL2_7", "A6", "PSL2_17"])
def test_memo_peripheral_tables_and_slope_counts_equal_full_ones(name):
    full, memo = twins(name)
    for kp in KNOTS.values():
        group, (meridian, longitude) = tietze_simplify_tracked(
            kp.group, (kp.meridian, kp.longitude)
        )
        table = peripheral_table(group, meridian, longitude, memo)
        assert table == peripheral_table(group, meridian, longitude, full)
        memo_lattices, full_lattices = slope_lattices(table, memo), slope_lattices(table, full)
        for p in range(1, 13):
            assert slope_count(memo_lattices, 1, p) == slope_count(full_lattices, 1, p)


@pytest.mark.parametrize("name", ["S3", "D4", "C6"])
@settings(derandomize=True)
@given(small_presentations)
def test_memo_counts_agree_with_naive_enumeration(name, p):
    _, memo = twins(name)
    assert count_homomorphisms(p, memo) == naive_hom_count(p, memo)


def test_large_bundled_targets_store_no_product_when_closed():
    fresh = {t.name: t for t in escalation_suite.__wrapped__()}
    for name in ("PSL2_17", "PSL2_19"):
        mult = fresh[name].mult
        assert isinstance(mult, ProductMemo)
        assert len(mult) == 0  # not even a row
        assert mult.room == fresh[name].order ** 2 // 12
    for name in ("PSL2_7", "A6", "PSL2_13"):
        assert isinstance(fresh[name].mult, tuple)


def test_classes_of_a_memo_target_make_rows_for_the_generators_only():
    target = targets.ESCALATION["PSL2_19"]()
    assert isinstance(target.mult, ProductMemo)
    assert len(target.conjugacy_classes) == 12
    # the class pass reads the generator rows kept at closing, not the memo
    assert len(target.mult) == 0


@pytest.mark.parametrize("k", [1, 6, 11])
def test_centralizer_orbits_of_a_memo_target_make_rows_for_the_centralizer_only(k):
    c = BUNDLED["PSL2_19"].conjugacy_classes[k][0]
    target = targets.ESCALATION["PSL2_19"]()
    a = target.elements[c]
    centralizer = sum(compose(z, a) == compose(a, z) for z in target.elements)
    assert centralizer < target.order
    orbits = target.centralizer_orbits(k)
    assert sum(size for _, size in orbits) == target.order
    # the orbits read the centralizer's rows, and each Schreier generator
    # t_y^-1 (g t_x) one row of an inverse conjugator t_y^-1, until C_H(c)
    # is full: 14 of them for class 6, whose centralizer has 10 elements
    _, members, conjugator = target._classes
    made = set(target.mult)
    assert made <= set(target._centralizer(k)) | {target.inverse[conjugator[y]] for y in members[k]}
    assert len(made) <= 2 * centralizer + 2 * len(target.generators)


def test_a_memo_target_hashes_and_compares_without_reading_its_products():
    target = close_as(BUNDLED["S4"], True)
    twin = close_as(BUNDLED["S4"], True)
    assert len({target, twin, target}) == 2
    assert target == target and target != twin
    assert len(target.mult) == 0


def test_every_memo_product_is_the_composition_and_storage_is_bounded():
    target = close_as(BUNDLED["S4"], True)
    index = {p: i for i, p in enumerate(target.elements)}
    n = target.order
    for _ in range(2):  # the second pass reads stored and recomputed products alike
        for i, a in enumerate(target.elements):
            for j, b in enumerate(target.elements):
                assert target.mult[i][j] == index[compose(a, b)]
    stored = sum(len(row) for row in target.mult.values())
    assert stored == n * n // 12 and target.mult.room == 0
    with pytest.raises(IndexError):
        target.mult[n]


@pytest.mark.parametrize("name", ["PSL2_17", "PSL2_19"])
def test_sampled_rows_of_the_largest_targets_are_compositions(name):
    target = BUNDLED[name]
    assert isinstance(target.mult, ProductMemo)
    index = {p: i for i, p in enumerate(target.elements)}
    for i in range(0, target.order, 211):
        a = target.elements[i]
        row = target.mult[i]
        assert [row[j] for j in range(target.order)] == [
            index[compose(a, b)] for b in target.elements
        ]
        assert target.mult[i][target.inverse[i]] == 0
