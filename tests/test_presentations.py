import copy
import hashlib
import json
import math
import os
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from knotsurgery import (
    DuplicateGeneratorError,
    Presentation,
    SurgerySlope,
    UnknownGeneratorError,
    Word,
    abelianization,
    alternating,
    builtin_knot,
    builtin_monodromy,
    commutator,
    count_homomorphisms,
    cyclic,
    dehn_surgery_group,
    dihedral,
    fpgroup,
    half_complement_group,
    mapping_torus_presentation,
    parse_braid,
    presentation_from_json,
    presentation_to_json,
    quotient_by_relators,
    symmetric,
    tietze_simplify,
    tietze_simplify_tracked,
    to_free_group_script,
    wirtinger_from_braid,
    word_power,
)
from knotsurgery.fpgroup import fresh_name

from conftest import naive_hom_count, parse_word


def pres(names, *relator_texts):
    return Presentation(names, [parse_word(t, names) for t in relator_texts])


def free_product(p1, p2):
    """p1 * p2, p2's generators renamed h0, h1, ... and placed after p1's."""
    n = len(p1.generators)
    names = p1.generators + tuple(f"h{i}" for i in range(len(p2.generators)))
    shifted = tuple(Word(tuple((g + n, e) for g, e in r.letters)) for r in p2.relators)
    return Presentation(names, p1.relators + shifted)


def adjoin_central(p):
    """p with one more generator x that commutes with every generator."""
    x = Word.generator(len(p.generators))
    commuting = tuple(commutator(x, Word.generator(i)) for i in range(len(p.generators)))
    return Presentation(p.generators + ("x",), p.relators + commuting)


def test_generator_names_validated():
    with pytest.raises(ValueError):
        Presentation(("a", ""))
    with pytest.raises(DuplicateGeneratorError):
        Presentation(["a", "a"])


def test_relators_validated_and_normalized():
    with pytest.raises(UnknownGeneratorError):
        Presentation(["a"], [Word.generator(1)])
    p = Presentation(["a", "b"], [Word.generator(0) * Word.generator(1) * Word.generator(0).inverse()])
    # cyclically reduced on construction
    assert p.relators == (Word.generator(1),)


def test_free_product_hom_count_multiplicative():
    # brute-force oracle over S3: |{x : x^3 = 1}| * |{y : y^2 = 1}| = 3 * 4
    s3 = symmetric(3)
    cube_roots = sum(1 for i in range(s3.order) if s3.mult[i][s3.mult[i][i]] == 0)
    square_roots = sum(1 for i in range(s3.order) if s3.mult[i][i] == 0)
    assert (cube_roots, square_roots) == (3, 4)

    p1 = pres(["a"], "a^3")
    p2 = pres(["b"], "b^2")
    combined = free_product(p1, p2)
    assert count_homomorphisms(combined, s3) == 12
    assert count_homomorphisms(combined, s3) == (
        count_homomorphisms(p1, s3) * count_homomorphisms(p2, s3)
    )


def test_quotient_examples():
    p = pres(["a"])
    q = quotient_by_relators(p, [word_power(Word.generator(0), 5)])
    assert q.relators == (word_power(Word.generator(0), 5),)

    assert quotient_by_relators(p, [Word()]) == p

    free2 = pres(["a", "b"])
    q2 = quotient_by_relators(free2, [commutator(Word.generator(0), Word.generator(1))])
    invariants = abelianization(q2)
    assert invariants.free_rank == 2 and invariants.torsion == ()


def test_quotient_unknown_generator():
    with pytest.raises(UnknownGeneratorError):
        quotient_by_relators(pres(["a"]), [Word.generator(1)])


def test_quotient_drops_duplicates_up_to_rotation_and_inversion():
    p = pres(["a", "b"], "a b")
    rotated = Word.generator(1) * Word.generator(0)
    inverted = (Word.generator(0) * Word.generator(1)).inverse()
    assert quotient_by_relators(p, [rotated]) == p
    assert quotient_by_relators(p, [inverted]) == p


@pytest.fixture
def key_calls(monkeypatch):
    """The relators passed to fpgroup.cyclic_key while the test runs."""
    calls = []
    key = fpgroup.cyclic_key

    def counting(letters):
        calls.append(letters)
        return key(letters)

    monkeypatch.setattr(fpgroup, "cyclic_key", counting)
    return calls


def test_a_filling_relator_of_a_new_length_is_not_keyed(key_calls):
    fig8 = builtin_knot("fig8")
    lengths = {len(r) for r in fig8.group.relators}
    unshared = []
    for p in range(1, 7):
        filling = (fig8.meridian * word_power(fig8.longitude, p)).cyclically_reduced()
        if len(filling) not in lengths:
            unshared.append(p)
            dehn_surgery_group(fig8, SurgerySlope(p, 1))
    assert unshared and key_calls == []


def test_tietze_keys_no_relator_of_a_length_no_other_has(key_calls):
    # the (2, 3, 5) triangle group with c = (a b a b)^-1 adjoined: c goes, and the
    # relators left are still of three lengths
    p = pres(["a", "b", "c"], "a^2", "b^3", "a b a b a b a b a b", "c a b a b")
    assert tietze_simplify(p) == pres(["a", "b"], "a^2", "b^3", "a b a b a b a b a b")
    assert key_calls == []


def test_adjoin_commuting_examples():
    extended = adjoin_central(pres(["a"]))
    assert extended.generators == ("a", "x")
    invariants = abelianization(extended)
    assert invariants.free_rank == 2 and not invariants.torsion

    torsion_case = adjoin_central(pres(["a"], "a^2"))
    invariants = abelianization(torsion_case)
    assert invariants.free_rank == 1 and invariants.torsion == (2,)


def test_adjoin_fresh_name():
    assert fresh_name("x", ["a"]) == "x"
    assert fresh_name("x", ["x"]) == "x1"
    assert fresh_name("x", ["x", "x1"]) == "x2"


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_adjoin_all_generators_multiplies_abelian_counts(n):
    target = cyclic(n)
    p = pres(["a", "b"], "a^2 b^-1")
    extended = adjoin_central(p)
    assert count_homomorphisms(extended, target) == n * count_homomorphisms(p, target)


def test_tietze_trivial_examples():
    p = pres(["a", "b"], "b")
    simplified = tietze_simplify(p)
    assert simplified.generators == ("a",)
    assert simplified.relators == ()

    p2 = pres(["a", "b"], "a b^-1")
    simplified2 = tietze_simplify(p2)
    assert simplified2.generators == ("a",)
    assert simplified2.relators == ()


def test_tietze_trefoil_wirtinger():
    # classic three-arc diagram presentation of the trefoil group
    p = pres(
        ["x", "y", "z"],
        "x y x^-1 z^-1",
        "y z y^-1 x^-1",
    )
    simplified = tietze_simplify(p)
    assert len(simplified.generators) == 2
    for target in (symmetric(3), symmetric(4), symmetric(5)):
        assert count_homomorphisms(p, target) == count_homomorphisms(simplified, target)


def test_tietze_determinism():
    p = pres(["a", "b", "c"], "a b^-1", "b c^-1")
    assert tietze_simplify(p) == tietze_simplify(p) == Presentation(("a",))


def test_tietze_tracked_words():
    p = pres(["a", "b"], "a b^-1")
    tracked = parse_word("b a b", p.generators)
    simplified, (image,) = tietze_simplify_tracked(p, [tracked])
    assert simplified.generators == ("a",)
    assert image == word_power(Word.generator(0), 3)


small_presentations = st.builds(
    lambda n_gens, rel_letters: Presentation(
        [f"g{i}" for i in range(n_gens)],
        [
            Word(tuple((g % n_gens, e) for g, e in rel))
            for rel in rel_letters
        ],
    ),
    st.integers(min_value=1, max_value=3),
    st.lists(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=2), st.sampled_from((1, -1))),
            max_size=6,
        ),
        max_size=3,
    ),
)


@given(small_presentations)
def test_extended_equals_the_checked_construction(p):
    a, b = Word.generator(0), Word.generator(len(p.generators))
    added = [a * b * a.inverse(), Word(), commutator(a, b)]
    extended = p.extended(added, ["x"])
    assert extended == Presentation(p.generators + ("x",), p.relators + tuple(added))
    with pytest.raises(UnknownGeneratorError):
        p.extended([b])
    with pytest.raises(DuplicateGeneratorError):
        p.extended([], ["x", "x"])


@given(small_presentations)
def test_serialization_round_trip(p):
    assert presentation_from_json(presentation_to_json(p)) == p


def test_a_kept_hash_does_not_travel_with_a_pickle_or_a_copy():
    # the hash is kept on first use, but string hashes differ between
    # processes, so a presentation unpickled under another PYTHONHASHSEED
    # must hash as one built there does
    names = ["a", "b"]
    p = pres(names, "a b a^-1 b^-1", "a^3 b^-2")
    hash(p)
    assert hash(copy.copy(p)) == hash(copy.deepcopy(p)) == hash(p)
    code = (
        "import pickle, sys\n"
        "from knotsurgery import Presentation, Word\n"
        "p = pickle.loads(sys.stdin.buffer.read())\n"
        "names = ['a', 'b']\n"
        "fresh = Presentation(names, [Word(((0, 1), (1, 1), (0, -1), (1, -1))),"
        " Word(((0, 1),) * 3 + ((1, -1),) * 2)])\n"
        "print(p == fresh, hash(p) == hash(fresh))\n"
    )
    src = Path(fpgroup.__file__).resolve().parents[1]
    for seed in ("1", "2"):
        result = subprocess.run(
            [sys.executable, "-c", code],
            input=pickle.dumps(p),
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == [b"True", b"True"]


@given(small_presentations, small_presentations)
def test_free_product_multiplicative_over_targets(p1, p2):
    combined = free_product(p1, p2)
    for target in (cyclic(4), symmetric(3)):
        assert count_homomorphisms(combined, target) == (
            count_homomorphisms(p1, target) * count_homomorphisms(p2, target)
        )


@given(small_presentations, st.integers(min_value=2, max_value=5))
def test_adjoin_all_generators_abelian_multiplier(p, n):
    target = cyclic(n)
    extended = adjoin_central(p)
    assert count_homomorphisms(extended, target) == n * count_homomorphisms(p, target)


@given(small_presentations)
def test_tietze_preserves_hom_counts(p):
    simplified = tietze_simplify(p)
    for target in (symmetric(3), symmetric(4), alternating(4), dihedral(4), cyclic(6)):
        assert count_homomorphisms(p, target) == count_homomorphisms(simplified, target)


@given(small_presentations)
def test_tietze_agrees_with_naive_oracle(p):
    simplified = tietze_simplify(p)
    s3 = symmetric(3)
    assert count_homomorphisms(simplified, s3) == naive_hom_count(p, s3)


def assert_singles_only_past_the_cap(p):
    """Tietze leaves a generator that a relator contains exactly once only
    in a relator longer than twice the input's longest cyclically reduced
    relator; the homomorphism search relies on this."""
    simplified, _ = tietze_simplify_tracked(p)
    cap = 2 * max((len(r) for r in p.relators if len(r)), default=1)
    for r in simplified.relators:
        if 1 in Counter(g for g, _ in r.letters).values():
            assert len(r) > cap, (p, r)


@settings(derandomize=True, max_examples=300, database=None)
@given(small_presentations)
# the first elimination leaves a second relator, c^-1 a^-3 and c b^-7, that
# must still drive one: it is past the input's longest relator, but within
# the cap, below it and at it
@example(pres(["a", "b", "c"], "a b^-1 a", "c^-1 a^-1 b^-1"))
@example(pres(["a", "b", "c"], "b^3 a", "b^-1 c a^2"))
def test_tietze_leaves_single_occurrences_only_past_the_cap(p):
    assert_singles_only_past_the_cap(p)


def test_tietze_leaves_census_groups_no_single_occurrence_within_the_cap():
    pool_path = Path(__file__).resolve().parent.parent / "bench" / "census_pool.json"
    braids = [knot["braid"] for knot in json.loads(pool_path.read_text())["knots"][::60]]
    # plus the two census knots left at 3 generators
    for braid in braids + ["-1 -2 -2 1 1 -2 2 2", "1 -2 1 1 -2 2 1 2"]:
        kp = wirtinger_from_braid(parse_braid(braid))
        assert_singles_only_past_the_cap(kp.group)
        for p in (1, 2, -3):
            for build in (dehn_surgery_group, half_complement_group):
                assert_singles_only_past_the_cap(build(kp, SurgerySlope(p, 1)))


TIETZE_DIGESTS = Path(__file__).with_name("tietze_digests.json")
WIRTINGER_DIGESTS = Path(__file__).with_name("wirtinger_digests.json")


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def tietze_digests() -> dict:
    """sha256 of repr of Tietze's output, for knot groups and surgery quotients.

    Each braid of wirtinger_digests.json gives its knot group simplified with
    the meridian and longitude tracked.  The unknot, trefoil, figure eight,
    the bundled figure-eight monodromy and the two census knots left at three
    generators give both surgery routes, simplified, at q in {1, 2} and every
    p in -3..3 coprime to q.
    """
    knots = {}
    for text in json.loads(WIRTINGER_DIGESTS.read_text()):
        kp = wirtinger_from_braid(parse_braid(text))
        knots[text] = _sha256(tietze_simplify_tracked(kp.group, (kp.meridian, kp.longitude)))
    sources = {name: builtin_knot(name) for name in ("unknot", "trefoil", "fig8")}
    sources["fig8 monodromy"] = mapping_torus_presentation(builtin_monodromy("fig8"))
    for braid in ("-1 -2 -2 1 1 -2 2 2", "1 -2 1 1 -2 2 1 2"):
        sources[braid] = wirtinger_from_braid(parse_braid(braid))
    quotients = {}
    for name, kp in sources.items():
        for q in (1, 2):
            for p in range(-3, 4):
                if math.gcd(p, q) != 1:
                    continue
                for build in (dehn_surgery_group, half_complement_group):
                    key = f"{build.__name__} {name} q={q} p={p}"
                    quotients[key] = _sha256(tietze_simplify(build(kp, SurgerySlope(p, q))))
    return {"knots": knots, "quotients": quotients}


def test_tietze_output_matches_the_pinned_digests():
    """Tietze's output is byte-for-byte the pinned one.

    After an intended change of output, regenerate the table from the
    repository root with

        PYTHONPATH=src python tests/test_presentations.py > tests/tietze_digests.json

    and review the entries that changed.
    """
    expected = json.loads(TIETZE_DIGESTS.read_text())
    assert len(expected["knots"]) >= 60 and len(expected["quotients"]) >= 100
    found = tietze_digests()
    for table in ("knots", "quotients"):
        assert found[table].keys() == expected[table].keys()
        for key, digest in expected[table].items():
            assert found[table][key] == digest, key


def test_free_group_script_format():
    p = pres(["a"], "a^5")
    assert to_free_group_script(p) == 'F := FreeGroup("a");\nrels := [ a^5 ];\n'
    free = pres(["a", "b"])
    assert to_free_group_script(free) == 'F := FreeGroup("a", "b");\nrels := [ ];\n'


words_over_three = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2), st.sampled_from((1, -1))),
    max_size=16,
).map(lambda ls: Word(tuple(ls)))


@given(words_over_three)
def test_word_str_parse_round_trip(w):
    p = Presentation(["a", "b", "c"])
    assert parse_word(p.word_str(w), p.generators) == w


if __name__ == "__main__":
    print(json.dumps(tietze_digests(), indent=1))
