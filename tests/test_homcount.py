import functools
import gc
import itertools
import json
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from knotsurgery import (
    BraidWord,
    FiniteTarget,
    MismatchedTargetsError,
    Presentation,
    SurgerySlope,
    Word,
    abelianization,
    alternating,
    build_family,
    builtin_knot,
    builtin_monodromy,
    close_target,
    count_homomorphisms,
    cyclic,
    dehn_surgery_group,
    dihedral,
    distinguish_report,
    escalation_suite,
    half_complement_group,
    hom_spectrum,
    homcount,
    mapping_torus_presentation,
    parse_braid,
    smith,
    standard_suite,
    symmetric,
    tietze_simplify,
    wirtinger_from_braid,
)
from knotsurgery.homcount import (
    HomSpectrum,
    _conjugate_pairs,
    _plan,
    evaluate_word,
    iter_homomorphisms,
    weighted_homomorphisms,
)
from knotsurgery.knots import fibered_knot_from_json
from knotsurgery.targets import psl2

from conftest import (
    abelian_suite,
    low_index_hom_count,
    naive_hom_count,
    naive_homomorphisms,
    pair_hom_count,
    parse_word,
    relabelled,
    three_strand_knot_braids,
    torus_hom_count,
)


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
            power = 0
            for _ in range(n):
                power = target.mult[power][i]
            if power == 0:
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
        assert s3.mult[image][image] == 0
    # free generators are enumerated too
    assert len(list(iter_homomorphisms(pres(["a", "b"], "a^2"), cyclic(3)))) == 3


def test_evaluate_word():
    s3 = symmetric(3)
    p = pres(["a", "b"])
    word = parse_word("a b a^-1", p.generators)
    for i, j in itertools.product(range(6), repeat=2):
        expected = s3.mult[s3.mult[i][j]][s3.inverse[i]]
        assert evaluate_word(word.letters, [i, j], s3) == expected


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


def inverse_of(word):
    return [(g, -e) for g, e in reversed(word)]


@st.composite
def conjugating_presentations(draw, max_gens=3):
    """2..max_gens generators; one or two relators U x^e U^-1 y^d, and maybe one more.

    U has up to 6 letters, x = y is allowed, and e and d are drawn apart, so
    the search links y to the class of x or of its inverse.
    """
    n_gens = draw(st.integers(min_value=2, max_value=max_gens))
    letters = st.tuples(st.integers(min_value=0, max_value=n_gens - 1), st.sampled_from((1, -1)))
    relators = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        u = draw(st.lists(letters, max_size=6))
        x, y = draw(letters), draw(letters)
        relators.append(u + [x] + inverse_of(u) + [y])
    relators += draw(st.lists(st.lists(letters, min_size=1, max_size=6), max_size=1))
    return Presentation(
        [f"g{i}" for i in range(n_gens)], [Word(tuple(r)) for r in relators]
    )


ORACLE_TARGETS = {
    t.name: t for t in (symmetric(3), symmetric(4), alternating(4), dihedral(4), cyclic(6))
}


@settings(max_examples=120)
@given(
    st.one_of(presentations_with_free_generators(), conjugating_presentations()),
    st.sampled_from(sorted(ORACLE_TARGETS)),
)
def test_matches_naive_enumeration(p, name):
    target = ORACLE_TARGETS[name]
    count = count_homomorphisms(p, target)
    assert count == naive_hom_count(p, target)
    # the reduced weights and the full enumeration account for the same
    # homomorphisms, and every yielded assignment satisfies every relator
    def satisfied(images):
        return all(
            evaluate_word(r.letters, images, target) == 0 for r in p.relators
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


@st.composite
def presentations_with_a_free_generator(draw):
    """1-3 generators, a drawn one of them in no relator.

    The others are in up to three random relators, and maybe in one relator
    U x^e U^-1 y^d that links them.
    """
    n_gens = draw(st.integers(min_value=1, max_value=3))
    free = draw(st.integers(min_value=0, max_value=n_gens - 1))
    used = [g for g in range(n_gens) if g != free]
    relators = []
    if used:
        letters = st.tuples(st.sampled_from(used), st.sampled_from((1, -1)))
        relators = draw(st.lists(st.lists(letters, max_size=8), max_size=3))
        if draw(st.booleans()):
            u = draw(st.lists(letters, max_size=4))
            relators.append(u + [draw(letters)] + inverse_of(u) + [draw(letters)])
    return Presentation(
        [f"g{i}" for i in range(n_gens)], [Word(tuple(r)) for r in relators]
    )


@settings(derandomize=True, max_examples=80)
@given(presentations_with_a_free_generator(), st.sampled_from(["S3", "A4", "D4", "C6"]))
def test_iter_homomorphisms_yields_every_homomorphism_once(p, name):
    # the H-conjugates of the search's representatives, repeats dropped, are
    # exactly the homomorphisms that naive enumeration finds
    target = ORACLE_TARGETS[name]
    homs = list(iter_homomorphisms(p, target))
    expected = set(naive_homomorphisms(p, target))
    assert set(homs) == expected
    assert len(homs) == len(expected)


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("name", ("S4", "PSL2_13"))
def test_generators_in_no_relator_fold_into_one_pair(n, name):
    # without expand_free, as count_homomorphisms searches, no generator in
    # no relator is assigned, so a relator-less presentation is one pair
    # standing for all |H|^n
    target = {t.name: t for t in standard_suite() + escalation_suite()}[name]
    p = Presentation([f"g{i}" for i in range(n)])
    homs = homcount._weighted(_plan(p), target, expand_free=False)
    assert [(list(images), weight) for images, weight in homs] == [([0] * n, target.order**n)]


# C2..C6 and the non-cyclic V4 and C2 x C4
ABELIAN_TARGETS = {t.name: t for t in standard_suite()[:5] + abelian_suite()}


@settings(max_examples=120)
@given(
    st.one_of(presentations_with_free_generators(), conjugating_presentations(), small_presentations),
    st.sampled_from(sorted(ABELIAN_TARGETS)),
)
@example(Presentation([]), "V4")
@example(Presentation(["a", "b", "c"]), "C2xC4")
def test_abelian_targets_are_counted_through_h1(p, name):
    # a count into an abelian target is read off the presentation's Smith
    # form, with no search, free generators and relator-free presentations
    # included
    target = ABELIAN_TARGETS[name]
    assert target.is_abelian
    expected = naive_hom_count(p, target)
    assert homcount._abelian_count(p, target) == expected
    assert count_homomorphisms(p, target) == expected


@st.composite
def solving_presentations(draw):
    """g0, g1, g2: a relator over g0 and g1 alone, then a rotation of
    g2^s u1 g2^-s u2 with u1 and u2 over g0 and g1.

    The first relator uses both g0 and g1 (it alternates them), so the plan
    places them first and g2 third, where the second relator completes and
    solves g2 X g2^-1 = Y for g2 (reading X = u1 and Y = u2^-1 when s = 1).
    """
    signs = st.sampled_from((1, -1))
    pairs = draw(st.lists(st.tuples(signs, signs), min_size=1, max_size=3))
    first = [letter for e, f in pairs for letter in ((0, e), (1, f))]
    words = st.lists(st.tuples(st.integers(0, 1), signs), min_size=1, max_size=4)
    u1, u2 = (draw(words.filter(lambda u: Word(tuple(u)).letters)) for _ in range(2))
    s = draw(signs)
    second = [(2, s)] + u1 + [(2, -s)] + u2
    cut = draw(st.integers(0, len(second) - 1))
    second = second[cut:] + second[:cut]
    return Presentation(["g0", "g1", "g2"], [Word(tuple(first)), Word(tuple(second))])


@settings(max_examples=80)
@given(solving_presentations(), st.sampled_from(["A4", "D4", "S3", "S4"]))
def test_a_generator_solved_at_the_third_depth_matches_naive_enumeration(p, name):
    plan = _plan(p)
    assert plan.order[2] == 2 and plan.solve[2] is not None
    target = ORACLE_TARGETS[name]
    expected = naive_hom_count(p, target)
    assert sum(weight for _, weight in weighted_homomorphisms(p, target)) == expected
    assert count_homomorphisms(p, target) == expected


def test_the_pair_oracle_matches_the_engine_at_psl2_17_and_psl2_19():
    group = tietze_simplify(builtin_knot("fig8").group)
    assert len(group.generators) == 2
    targets = {t.name: t for t in escalation_suite()}
    for name, expected in (("PSL2_17", 36720), ("PSL2_19", 58140)):
        target = targets[name]
        assert pair_hom_count(group, target) == count_homomorphisms(group, target) == expected


@pytest.mark.parametrize(
    "braid, r, s",
    [
        pytest.param("1 " * 3, 2, 3, id="T(2,3)"),
        pytest.param("1 " * 5, 2, 5, id="T(2,5)"),
        pytest.param("1 " * 7, 2, 7, id="T(2,7)"),
        pytest.param("1 2 " * 4, 3, 4, id="T(3,4)"),
    ],
)
def test_torus_knot_counts_match_the_power_map_oracle(braid, r, s):
    # the closure of the braid is the torus knot T(r, s): the engine counts
    # its simplified Wirtinger group, the oracle <x, y | x^r = y^s>
    group = tietze_simplify(wirtinger_from_braid(parse_braid(braid)).group)
    targets = standard_suite() + escalation_suite()
    assert len(targets) == 20
    for target in targets:
        assert count_homomorphisms(group, target) == torus_hom_count(r, s, target), target.name


LOW_INDEX_TARGETS = {5: symmetric(5), 6: symmetric(6)}

two_generator_presentations = st.lists(
    st.lists(st.tuples(st.integers(0, 1), st.sampled_from((1, -1))), min_size=1, max_size=8),
    min_size=1,
    max_size=2,
).map(lambda rels: Presentation(["a", "b"], [Word(tuple(r)) for r in rels]))


# two generators: the oracle builds one coset table per subgroup of index at
# most 6, and with three generators that a single relator all reads, such as
# < g0, g1, g2 | g0^-1 g2^-1 g1^-1 g2^2 g0 g2^-2 g1 g2 >, it took 12 s; a
# generator that no relator reads costs it nothing (a factor of n!)
@given(st.one_of(two_generator_presentations, conjugating_presentations(max_gens=2)))
def test_low_index_oracle_matches_the_engine_at_s5_and_s6(p):
    for n, target in LOW_INDEX_TARGETS.items():
        assert count_homomorphisms(p, target) == low_index_hom_count(p, n)


def test_low_index_oracle_counts_each_free_generator_as_a_factor():
    # the free group of rank 3, and g1, g2 free beside an involution g0:
    # coset tables over all three generators took 56 s and 6-10 s at index 6
    free = Presentation(["g0", "g1", "g2"], [])
    involution = Presentation(["g0", "g1", "g2"], [Word(((0, 1), (0, 1)))])
    # S5 has 26 solutions of x^2 = 1, S6 has 76
    expected = {5: (120**3, 26 * 120**2), 6: (720**3, 76 * 720**2)}
    for n, target in LOW_INDEX_TARGETS.items():
        for p, count in zip((free, involution), expected[n]):
            assert count_homomorphisms(p, target) == low_index_hom_count(p, n) == count


def test_low_index_oracle_matches_the_engine_on_knot_and_surgery_groups():
    # (|Hom(G, S5)|, |Hom(G, S6)|) of each simplified group, fig8 surgeries at q = 1
    expected = {
        "trefoil": (600, 6480), "fig8": (600, 10080),
        1: (1, 1), 2: (1, 1441), 3: (1, 1441), 4: (1, 1), 5: (1, 1), 6: (1, 1),
    }
    groups = {name: builtin_knot(name).group for name in ("trefoil", "fig8")}
    for member in build_family(builtin_knot("fig8"), 1, range(1, 7)).members:
        groups[member.slope.p] = member.presentation
    for key, group in groups.items():
        group = tietze_simplify(group)
        counts = tuple(count_homomorphisms(group, LOW_INDEX_TARGETS[n]) for n in (5, 6))
        assert counts == tuple(low_index_hom_count(group, n) for n in (5, 6)), key
        assert counts == expected[key], key


def rotation_pairs(letters):
    """(a, b) for every rotation of the letters that reads U a U^-1 b, by
    building each rotation and comparing it letter by letter."""
    n = len(letters)
    k = (n - 2) // 2
    pairs = []
    for start in range(n):
        t = letters[start:] + letters[:start]
        if 2 * k + 2 == n and all(
            t[k + 1 + j] == (t[k - 1 - j][0], -t[k - 1 - j][1]) for j in range(k)
        ):
            pairs.append((t[k], t[n - 1]))
    return pairs


two_letters = st.tuples(st.integers(min_value=0, max_value=1), st.sampled_from((1, -1)))
short_words = st.lists(two_letters, max_size=5)

relators_to_scan = st.one_of(
    # random letters, of any length and parity
    st.lists(two_letters, min_size=1, max_size=16),
    # U a U^-1 b, where U holds a conjugate W c W^-1 of its own, written
    # whole or inside a further conjugation V ... V^-1
    st.builds(
        lambda w, c, v, a, b, outer: (
            (v if outer else [])
            + w + [c] + inverse_of(w) + [a] + w + [(c[0], -c[1])] + inverse_of(w) + [b]
            + (inverse_of(v) if outer else [])
        ),
        short_words, two_letters, short_words, two_letters, two_letters, st.booleans(),
    ),
    # a centre a of radius |U| whose partner is not the antipodal letter:
    # U a U^-1 V with |V| >= 2
    st.builds(
        lambda u, a, v: u + [a] + inverse_of(u) + v,
        short_words, two_letters, st.lists(two_letters, min_size=2, max_size=5),
    ),
)


@settings(max_examples=200)
@given(relators_to_scan)
def test_the_link_finder_matches_a_scan_of_every_rotation(letters):
    letters = tuple(letters)
    assert sorted(_conjugate_pairs(letters)) == sorted(rotation_pairs(letters))


def test_knot_groups_are_linked_and_the_fig8_mapping_torus_is_not():
    # every simplified generator of a braid's knot group is a meridian, and
    # the relators prove it: one component
    for braid in ("1 1 1", "1 -2 1 -2", "1 2 1 2 1 2 1 2", "-1 2 " * 7 + "-1 -1"):
        plan = _plan(tietze_simplify(wirtinger_from_braid(parse_braid(braid)).group))
        assert len(plan.order) >= 2
        assert plan.links[0] is None and None not in plan.links[1:], braid
    # the mapping-torus group of the fig8 monodromy has no relator of that
    # shape, so both of its generators keep the search over all of H
    group = tietze_simplify(mapping_torus_presentation(builtin_monodromy("fig8")).group)
    assert _plan(group).links == (None, None)


def test_a_link_parity_composes_along_its_path():
    # a b puts b in the class of a^-1, and b c puts c in the class of
    # b^-1, so in the class of a: c's parity to its anchor a is the sum of
    # the two on its path.  The group is Z, so it has |H| homomorphisms
    # into H; a wrong parity shows in A4 and PSL2_7, whose classes of
    # elements of order 3 and 7 are not closed under inversion
    p = pres(["a", "b", "c"], "a b", "b c")
    plan = _plan(p)
    assert plan.order == (0, 1, 2)
    assert plan.links == (None, (0, True), (0, False))
    a4 = alternating(4)
    psl2_7 = {t.name: t for t in escalation_suite()}["PSL2_7"]
    assert count_homomorphisms(p, a4) == naive_hom_count(p, a4) == 12
    # naive enumeration of the three generators into PSL2_7 is 168^3
    # assignments; Z's own presentation gives the same count
    assert count_homomorphisms(p, psl2_7) == naive_hom_count(pres(["a"]), psl2_7) == 168


def test_the_genus_2_mapping_torus_solves_for_its_third_generator():
    # no relator of the T(2,5) monodromy's simplified group links its three
    # generators, but one reads g u1 g^-1 u2 at the third, which is solved
    # for; the counts into PSL2_17 are pinned by the torus oracle's T(2,5)
    payload = json.loads((Path(__file__).parent / "torus_2_5_monodromy.json").read_text())
    kp = mapping_torus_presentation(fibered_knot_from_json(payload))
    group = tietze_simplify(kp.group)
    plan = _plan(group)
    assert len(plan.order) == 3 and plan.links == (None, None, None)
    assert plan.solve[:2] == (None, None) and plan.solve[2] is not None
    target = {t.name: t for t in escalation_suite()}["PSL2_17"]
    assert count_homomorphisms(group, target) == torus_hom_count(2, 5, target)


def test_a_plan_holds_its_relators_own_letter_objects():
    # a plan is kept while its presentation lives, so the words of its steps
    # reuse the relators' letters rather than hold copies of them; the group's
    # own generator names make the plan here, for it, not for an equal
    # presentation that another test keeps alive
    kp = relabelled(wirtinger_from_braid(parse_braid("1 -2 1 -2 1 1")), "'letters")
    group = tietze_simplify(kp.group)
    plan = _plan(group)
    own = {id(letter): letter for r in group.relators for letter in r.letters}
    letters = [letter for checks in plan.steps for steps in checks for _, u in steps for letter in u]
    assert letters
    assert all(own.get(id(letter)) is letter for letter in letters)


@functools.cache
def invariance_targets() -> dict[str, FiniteTarget]:
    return {t.name: t for t in (symmetric(3), psl2(7), psl2(13))}


# small presentations counted into S3, and knot groups of 3-braid closures
# counted into PSL2_7 and PSL2_13, where naive enumeration cannot check them;
# PSL2_7 has classes that are not their own inverses, so a link's parity
# matters there
invariance_inputs = st.one_of(
    st.tuples(small_presentations, st.just(("S3",))),
    st.tuples(
        three_strand_knot_braids.map(lambda ls: wirtinger_from_braid(BraidWord(3, tuple(ls))).group),
        st.just(("PSL2_7", "PSL2_13")),
    ),
)


def same_counts(p: Presentation, other: Presentation, names) -> bool:
    targets = invariance_targets()
    return all(count_homomorphisms(p, targets[n]) == count_homomorphisms(other, targets[n]) for n in names)


@settings(max_examples=45)
@given(invariance_inputs, st.randoms(use_true_random=False))
def test_invariant_under_relator_reordering(drawn, rng):
    # relators shuffled, each rotated (a conjugate) and some inverted
    p, names = drawn
    relators = []
    for r in p.relators:
        k = rng.randrange(len(r.letters) or 1)
        rotated = Word(r.letters[k:] + r.letters[:k])
        relators.append(rotated.inverse() if rng.random() < 0.5 else rotated)
    rng.shuffle(relators)
    assert same_counts(Presentation(p.generators, tuple(relators)), p, names)


@settings(max_examples=45)
@given(invariance_inputs, st.randoms(use_true_random=False))
def test_invariant_under_generator_permutation(drawn, rng):
    # generators permuted and some replaced by their inverses, which turns
    # some links of a knot group to the inverse's class
    p, names = drawn
    n = len(p.generators)
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    renamed = Presentation(
        [p.generators[perm[i]] for i in range(n)],
        [
            Word(tuple((perm.index(g), e * signs[g]) for g, e in r.letters))
            for r in p.relators
        ],
    )
    assert same_counts(renamed, p, names)


@settings(max_examples=25)
@given(small_presentations)
def test_invariant_under_tietze(p):
    s4 = symmetric(4)
    assert count_homomorphisms(tietze_simplify(p), s4) == count_homomorphisms(p, s4)


@pytest.fixture
def searches(monkeypatch):
    """The target of each search run while the test runs: weighted_homomorphisms
    and count_homomorphisms both search through homcount._weighted."""
    calls = []
    search = homcount._weighted

    def counting(plan, target, *args, **kwargs):
        calls.append(target)
        return search(plan, target, *args, **kwargs)

    monkeypatch.setattr(homcount, "_weighted", counting)
    return calls


def test_a_repeated_count_runs_no_second_search(searches):
    p = pres(["x", "y"], "x y x y^-1 x^-1 y^-1", "x^5 y^-3")
    s4 = symmetric(4)  # closed here, so never counted before
    counts = [count_homomorphisms(p, s4) for _ in range(3)]
    assert counts == [naive_hom_count(p, s4)] * 3
    assert searches == [s4]


def test_a_counted_search_looks_its_plan_up_once(searches, monkeypatch):
    # count_homomorphisms hands the plan it looked up to the search
    looked_up = []
    plan = homcount._plan

    def counting(p):
        looked_up.append(p)
        return plan(p)

    monkeypatch.setattr(homcount, "_plan", counting)
    names = ("x'plan", "y'plan")  # equal to no presentation another test keeps
    p = Presentation(names, pres(["x", "y"], "x y x y^-1 x^-1 y^-1", "x^5 y^-3").relators)
    s4 = symmetric(4)
    assert count_homomorphisms(p, s4) == naive_hom_count(p, s4)
    assert (searches, looked_up) == ([s4], [p])


def test_equal_presentations_built_separately_share_one_entry(searches):
    trefoil, slope = builtin_knot("trefoil"), SurgerySlope(2, 1)
    surgery = tietze_simplify(dehn_surgery_group(trefoil, slope))
    half = tietze_simplify(half_complement_group(trefoil, slope))
    assert surgery == half and surgery is not half
    s4 = symmetric(4)
    assert count_homomorphisms(surgery, s4) == count_homomorphisms(half, s4)
    assert _plan(surgery) is _plan(half)
    assert searches == [s4]


def q1_surgery(letters, p: int) -> Presentation:
    kp = wirtinger_from_braid(BraidWord(3, tuple(letters)))
    return tietze_simplify(dehn_surgery_group(kp, SurgerySlope(p, 1)))


@functools.cache
def s6_and_a6() -> tuple[FiniteTarget, FiniteTarget]:
    return symmetric(6), alternating(6)


# q = 1 surgeries are homology spheres, so every count here takes the
# perfect-group path.  Naive enumeration checks each standard target within
# about 120^2 assignments; S6, past that, must read as A6, whose generators
# are all even, so that its search starts from every class.  The examples
# map onto A5 (121) and A6 (1441), which a drawn knot may not.
@settings(max_examples=15)
@given(three_strand_knot_braids, st.integers(-3, 3))
@example([1, 1, 1, 2], 1)
@example([1, -2, 1, -2], 2)
def test_perfect_surgery_groups_match_naive_enumeration(letters, p):
    group = q1_surgery(letters, p)
    assert _plan(group).perfect
    n = len(group.generators)
    for target in standard_suite():
        if target.order**n <= 120**2:
            assert count_homomorphisms(group, target) == naive_hom_count(group, target), target.name
    s6, a6 = s6_and_a6()
    assert count_homomorphisms(group, s6) == count_homomorphisms(group, a6)


@pytest.mark.parametrize("p, expected", [(1, 121), (-1, 1)])
def test_trefoil_q1_surgeries_read_alike_at_a5_and_s5(trefoil, p, expected):
    # p = +1 is the Poincare homology sphere: its group SL(2,5) maps onto
    # A5 in |Aut(A5)| = 120 ways, and into S5 only inside A5; p = -1 has
    # the trivial homomorphism alone at both
    group = tietze_simplify(dehn_surgery_group(trefoil, SurgerySlope(p, 1)))
    for target in (alternating(5), symmetric(5)):
        assert count_homomorphisms(group, target) == naive_hom_count(group, target) == expected


def test_only_a_group_with_trivial_h1_is_perfect(trefoil):
    assert not _plan(trefoil.group).perfect
    for q in (1, 2, 3):
        group = tietze_simplify(dehn_surgery_group(trefoil, SurgerySlope(1, q)))
        assert len(group.relators) >= len(group.generators)
        assert _plan(group).perfect is (q == 1)
        for target in (symmetric(3), symmetric(4)):
            assert count_homomorphisms(group, target) == naive_hom_count(group, target)


def test_a_perfect_group_into_a_solvable_target_yields_one_pair(trefoil, searches):
    group = tietze_simplify(dehn_surgery_group(trefoil, SurgerySlope(1, 1)))
    s4 = symmetric(4)
    pairs = [(list(images), weight) for images, weight in weighted_homomorphisms(group, s4)]
    assert pairs == [([0] * len(group.generators), 1)]
    assert searches == [s4]


def test_a_knot_group_is_searched_from_every_class(trefoil, searches):
    s3 = symmetric(3)
    pairs = [(list(images), weight) for images, weight in weighted_homomorphisms(trefoil.group, s3)]
    assert sum(weight for _, weight in pairs) == naive_hom_count(trefoil.group, s3)
    # the first searched generator tries the class of transpositions, the
    # elements of S3 with one fixed point, which no perfect group reaches
    first = _plan(trefoil.group).order[0]
    odd = {x for x, perm in enumerate(s3.elements) if sum(i == y for i, y in enumerate(perm)) == 1}
    assert odd & {images[first] for images, _ in pairs}
    assert searches == [s3]


def test_a_target_closed_again_is_searched_again(searches):
    p = pres(["x", "y"], "x y x y^-1 x^-1 y^-1")
    first = symmetric(4)
    again = close_target(first.name, first.generators, degree=first.degree)
    assert count_homomorphisms(p, first) == count_homomorphisms(p, again) == 96
    assert searches == [first, again]


def test_the_memo_keeps_no_target_alive():
    p = pres(["x", "y"], "x y x y^-1 x^-1 y^-1")
    target = symmetric(4)
    count_homomorphisms(p, target)
    ref = weakref.ref(target)
    assert target in _plan(p).counts
    del target
    gc.collect()
    assert ref() is None


def test_a_presentation_whose_equals_are_all_gone_is_searched_again(searches):
    s3 = symmetric(3)
    relators = pres(["x", "y"], "x y x y^-1 x^-1 y^-1").relators
    names = ("x'gone", "y'gone")  # equal to no presentation another test keeps
    first, again = Presentation(names, relators), Presentation(names, relators)
    expected = count_homomorphisms(first, s3)
    assert count_homomorphisms(again, s3) == expected  # read off first's plan
    ref = weakref.ref(first)
    del first
    gc.collect()
    assert ref() is None and again not in homcount._PLANS
    # the plan went with the presentation it was made for, though an equal
    # one lives: again builds its own and searches
    assert count_homomorphisms(again, s3) == expected
    assert count_homomorphisms(Presentation(again.generators, again.relators), s3) == expected
    assert searches == [s3, s3]


def test_a_counted_and_abelianized_presentation_can_be_collected():
    relators = pres(["x", "y"], "x y x y^-1 x^-1 y^-1").relators
    names = ("x'kept", "y'kept")  # equal to no presentation another test keeps
    p, copy = Presentation(names, relators), Presentation(names, relators)
    for target in (symmetric(3), cyclic(4)):  # searched, and counted off H1
        count_homomorphisms(p, target)
    assert abelianization(p).free_rank == 1
    sizes = len(homcount._PLANS), len(smith._FORMS)
    assert copy in homcount._PLANS and copy in smith._FORMS
    ref = weakref.ref(p)
    del p
    gc.collect()
    assert ref() is None
    assert copy not in homcount._PLANS and copy not in smith._FORMS
    assert len(homcount._PLANS) < sizes[0] and len(smith._FORMS) < sizes[1]


@settings(derandomize=True, max_examples=60)
@given(
    st.one_of(presentations_with_free_generators(), conjugating_presentations()),
    st.sampled_from(sorted(ORACLE_TARGETS)),
)
def test_a_count_and_its_repeat_both_equal_naive_enumeration(p, name):
    target = ORACLE_TARGETS[name]
    expected = naive_hom_count(p, target)
    assert count_homomorphisms(p, target) == expected
    assert count_homomorphisms(p, target) == expected


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
