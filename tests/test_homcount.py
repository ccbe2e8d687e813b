import itertools

import pytest
from hypothesis import given, settings, strategies as st

from knotsurgery import (
    MismatchedTargetsError,
    Presentation,
    Word,
    alternating,
    count_homomorphisms,
    cyclic,
    dihedral,
    distinguish_report,
    escalation_suite,
    hom_spectrum,
    iter_homomorphisms,
    parse_braid,
    parse_word,
    standard_suite,
    symmetric,
    tietze_simplify,
    wirtinger_from_braid,
)
from knotsurgery.homcount import HomSpectrum, evaluate_word, weighted_homomorphisms
from knotsurgery.targets import FULL_TABLE_MAX_ORDER

from conftest import naive_hom_count, torus_hom_count


def pres(names, *relator_texts):
    return Presentation(names, [parse_word(t, names) for t in relator_texts])


def test_order_two_elements_of_s3():
    assert count_homomorphisms(pres(["a"], "a^2"), symmetric(3)) == 4


@pytest.mark.parametrize("n", range(1, 13))
def test_cyclic_presentation_counts_match_element_orders(n, suite_small):
    # independent oracle: |Hom(Z/n, H)| = #{h : h^n = identity}, by direct
    # powering in the element tables
    p = pres(["a"], f"a^{n}")
    for target in suite_small:
        expected = 0
        for i in range(target.order):
            power = target.identity_index
            for _ in range(n):
                power = target.mult[power][i]
            if power == target.identity_index:
                expected += 1
        assert count_homomorphisms(p, target) == expected


def test_free_group_counts():
    s3 = symmetric(3)
    assert count_homomorphisms(pres(["a", "b"]), s3) == 36
    assert count_homomorphisms(pres([]), s3) == 1


def test_trefoil_count_against_pair_enumeration():
    # independent oracle: all 36 ordered pairs of S3 permutations
    trefoil = pres(["x", "y"], "x y x y^-1 x^-1 y^-1")
    s3 = symmetric(3)
    expected = naive_hom_count(trefoil, s3)
    assert expected == 12
    assert count_homomorphisms(trefoil, s3) == 12


def test_spectrum_examples():
    trivial = pres(["a"], "a")
    suite = (symmetric(3), symmetric(4))
    assert hom_spectrum(trivial, suite).counts == (1, 1)
    assert hom_spectrum(pres(["a"]), suite).counts == (6, 24)
    assert hom_spectrum(pres(["a"]), suite).target_names == ("S3", "S4")


def test_iter_homomorphisms_enumerates_assignments():
    p = pres(["a"], "a^2")
    s3 = symmetric(3)
    homs = list(iter_homomorphisms(p, s3))
    assert len(homs) == 4
    for (image,) in homs:
        assert s3.mult[image][image] == s3.identity_index
    # free generators are enumerated too
    assert len(list(iter_homomorphisms(pres(["a", "b"], "a^2"), cyclic(3)))) == 3


def test_evaluate_word():
    s3 = symmetric(3)
    p = pres(["a", "b"])
    word = parse_word("a b a^-1", p.generators)
    for i, j in itertools.product(range(6), repeat=2):
        expected = s3.mult[s3.mult[i][j]][s3.inverse[i]]
        assert evaluate_word(word.letters, [i, j], s3) == expected


def per_class_total(p, target):
    """Sum of the independent branches, one per conjugacy class of the first image."""
    return sum(
        sum(weight for _, weight in weighted_homomorphisms(p, target, (branch,), False))
        for branch in target.conjugacy_classes
    )


def test_split_evaluation_matches_sequential():
    p = pres(["x", "y"], "x y x y^-1 x^-1 y^-1", "x^5 y^-3")
    for target in (symmetric(3), symmetric(4), cyclic(6)):
        assert per_class_total(p, target) == count_homomorphisms(p, target)


def test_fresh_targets_get_fresh_orbit_caches():
    # targets of different orders are built and dropped in turn, so a new
    # target soon reuses the id of a dropped one; orbits cached by id would
    # then be served stale
    trefoil = pres(["x", "y"], "x y x y^-1 x^-1 y^-1")
    builders = (symmetric, cyclic, dihedral, alternating)
    expected = {}
    for round_ in range(40):
        for build in builders:
            target = build(4 + round_ % 2)
            if target.name not in expected:
                expected[target.name] = naive_hom_count(trefoil, target)
            assert count_homomorphisms(trefoil, target) == expected[target.name]
            del target


small_presentations = st.builds(
    lambda n_gens, rels: Presentation(
        [f"g{i}" for i in range(n_gens)],
        [Word(tuple((g % n_gens, e) for g, e in rel)) for rel in rels],
    ),
    st.integers(min_value=1, max_value=3),
    st.lists(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=2), st.sampled_from((1, -1))),
            max_size=8,
        ),
        max_size=3,
    ),
)


@st.composite
def presentations_with_free_generators(draw):
    """1-3 generators; the relators use only those outside a drawn free set."""
    n_gens = draw(st.integers(min_value=1, max_value=3))
    free = draw(st.sets(st.integers(min_value=0, max_value=n_gens - 1), max_size=n_gens))
    used = [g for g in range(n_gens) if g not in free]
    relators = []
    if used:
        letters = st.tuples(st.sampled_from(used), st.sampled_from((1, -1)))
        relators = draw(st.lists(st.lists(letters, max_size=8), max_size=3))
    return Presentation(
        [f"g{i}" for i in range(n_gens)], [Word(tuple(r)) for r in relators]
    )


ORACLE_TARGETS = {
    t.name: t for t in (symmetric(3), symmetric(4), alternating(4), dihedral(4), cyclic(6))
}


@settings(max_examples=120)
@given(presentations_with_free_generators(), st.sampled_from(sorted(ORACLE_TARGETS)))
def test_matches_naive_enumeration(p, name):
    target = ORACLE_TARGETS[name]
    count = count_homomorphisms(p, target)
    assert count == naive_hom_count(p, target)
    # the reduced weights, the full enumeration and the per-class branches
    # all account for the same homomorphisms, and every yielded assignment
    # satisfies every relator
    def satisfied(images):
        return all(
            evaluate_word(r.letters, images, target) == target.identity_index for r in p.relators
        )

    weighted = 0
    for images, weight in weighted_homomorphisms(p, target):
        assert satisfied(images)
        weighted += weight
    assert weighted == count
    enumerated = 0
    for images in iter_homomorphisms(p, target):
        assert satisfied(images)
        enumerated += 1
    assert enumerated == count
    assert per_class_total(p, target) == count


@pytest.mark.parametrize(
    "braid, r, s, full_tables_only",
    [
        pytest.param("1 " * 3, 2, 3, False, id="T(2,3)"),
        pytest.param("1 " * 5, 2, 5, False, id="T(2,5)"),
        pytest.param("1 " * 7, 2, 7, False, id="T(2,7)"),
        # its searches into PSL2_17 and PSL2_19, which keep no full table, take 30-60 s
        pytest.param("1 2 " * 4, 3, 4, True, id="T(3,4)"),
    ],
)
def test_torus_knot_counts_match_the_power_map_oracle(braid, r, s, full_tables_only):
    # the closure of the braid is the torus knot T(r, s): the engine counts
    # its simplified Wirtinger group, the oracle <x, y | x^r = y^s>
    group = tietze_simplify(wirtinger_from_braid(parse_braid(braid)).group)
    targets = standard_suite() + escalation_suite()
    if full_tables_only:
        targets = tuple(t for t in targets if t.order <= FULL_TABLE_MAX_ORDER)
    assert len(targets) == (18 if full_tables_only else 20)
    for target in targets:
        assert count_homomorphisms(group, target) == torus_hom_count(r, s, target), target.name


@settings(max_examples=30)
@given(small_presentations, st.randoms(use_true_random=False))
def test_invariant_under_relator_reordering(p, rng):
    relators = list(p.relators)
    rng.shuffle(relators)
    shuffled = Presentation(p.generators, tuple(relators))
    s3 = symmetric(3)
    assert count_homomorphisms(shuffled, s3) == count_homomorphisms(p, s3)


@settings(max_examples=30)
@given(small_presentations, st.randoms(use_true_random=False))
def test_invariant_under_generator_permutation(p, rng):
    n = len(p.generators)
    perm = list(range(n))
    rng.shuffle(perm)
    renamed = Presentation(
        [p.generators[perm[i]] for i in range(n)],
        [
            Word(tuple((perm.index(g), e) for g, e in r.letters))
            for r in p.relators
        ],
    )
    s3 = symmetric(3)
    assert count_homomorphisms(renamed, s3) == count_homomorphisms(p, s3)


@settings(max_examples=25)
@given(small_presentations)
def test_invariant_under_tietze(p):
    s4 = symmetric(4)
    assert count_homomorphisms(tietze_simplify(p), s4) == count_homomorphisms(p, s4)


def test_distinguish_identical_spectra_unresolved():
    spectrum = HomSpectrum((("S3", 1), ("S4", 6)))
    report = distinguish_report([("u", spectrum), ("v", spectrum)])
    assert not report.all_distinguished
    assert report.labels == ("u", "v")
    assert report.pairs == ((0, 1, None),)
    assert "u vs v: UNRESOLVED" in report.format()


def test_distinguish_names_first_differing_target():
    left = HomSpectrum((("C2", 1), ("S3", 6)))
    right = HomSpectrum((("C2", 1), ("S3", 7)))
    report = distinguish_report([("u", left), ("v", right)])
    assert report.all_distinguished
    assert report.pairs == ((0, 1, 1),)
    i, j, k = report.pairs[0]
    assert report.target_names[k] == "S3"
    assert (report.counts[i][k], report.counts[j][k]) == (6, 7)
    assert (report.labels[i], report.labels[j]) == ("u", "v")
    assert "u vs v: DISTINGUISHED at S3 (counts 6 vs 7)" in report.format()


def test_distinguish_mismatched_targets():
    left = HomSpectrum((("C2", 1),))
    right = HomSpectrum((("C3", 1),))
    with pytest.raises(MismatchedTargetsError):
        distinguish_report([("u", left), ("v", right)])
