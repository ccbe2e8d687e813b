import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from knotsurgery import (
    BraidSyntaxError,
    BraidWord,
    IndexOutOfRangeError,
    NotAKnotError,
    Word,
    abelianization,
    parse_braid,
    standard_suite,
    tietze_simplify,
    validate_peripheral,
    wirtinger_from_braid,
)
from knotsurgery.braids import MAX_BRAID_LENGTH
from knotsurgery.knots import KnotPresentation

from conftest import REFUSED_BRAIDS, naive_hom_count


def test_parse_trefoil():
    braid = parse_braid("1 1 1")
    assert braid.strands == 2
    assert braid.letters == (1, 1, 1)


def test_parse_figure_eight():
    braid = parse_braid("1 -2 1 -2")
    assert braid.strands == 3
    assert braid.letters == (1, -2, 1, -2)


def test_parse_header_and_tokens():
    for text, token in REFUSED_BRAIDS.items():
        with pytest.raises(BraidSyntaxError) as info:
            parse_braid(text)
        assert str(info.value) == f"bad braid token {token!r}"
    unknot = parse_braid("")
    assert unknot == BraidWord(1, ())


def test_parse_errors():
    with pytest.raises(NotAKnotError):
        parse_braid("1 1")
    with pytest.raises(BraidSyntaxError):
        parse_braid("1 x 2")
    with pytest.raises(BraidSyntaxError):
        parse_braid("0")
    with pytest.raises(IndexOutOfRangeError):
        BraidWord(2, (2,))


def test_braid_limits():
    with pytest.raises(BraidSyntaxError):
        parse_braid(" ".join(["1"] * (MAX_BRAID_LENGTH + 1)))
    # one letter on MAX_BRAID_LENGTH + 2 strands
    with pytest.raises(BraidSyntaxError, match="past the limits"):
        parse_braid(str(MAX_BRAID_LENGTH + 2))
    with pytest.raises(BraidSyntaxError):
        parse_braid(f"{MAX_BRAID_LENGTH + 1}")


def test_peripheral_validation_of_the_long_alternating_braid():
    # (1 -2)^7: its Tietze-reduced relators are hundreds of letters long, and
    # a search that walks them letter by letter takes seconds.  6980 is the
    # total such a search reports.
    kp = wirtinger_from_braid(parse_braid(" ".join(["1 -2"] * 7)))
    report = validate_peripheral(kp, standard_suite())
    assert report.ok, report.format()
    assert report.checks[-1].detail == "6980 homomorphisms over 12 targets"


def test_braidword_invariants_enforced():
    with pytest.raises(NotAKnotError):
        BraidWord(3, (1,))  # closure has two components
    with pytest.raises(IndexOutOfRangeError):
        BraidWord(2, (3,))


def test_writhe():
    assert parse_braid("1 -2 1 -2").writhe == 0
    assert parse_braid("-1 -1 -1").writhe == -3


def test_wirtinger_unknot():
    kp = wirtinger_from_braid(parse_braid(""))
    assert kp.group.generators == ("x1",)
    assert kp.group.relators == ()
    assert kp.meridian == Word.generator(0)
    assert kp.longitude == Word()


def test_wirtinger_shape():
    kp = wirtinger_from_braid(parse_braid("1 1 1"))
    assert len(kp.group.generators) == 2
    assert len(kp.group.relators) == 1
    assert kp.meridian == Word.generator(0)

    kp8 = wirtinger_from_braid(parse_braid("1 -2 1 -2"))
    assert len(kp8.group.generators) == 3
    assert len(kp8.group.relators) == 2


WIRTINGER_DIGESTS = Path(__file__).with_name("wirtinger_digests.json")


def test_wirtinger_output_matches_the_pinned_digests():
    # sha256 of repr((group, meridian, longitude)) for knot braids drawn by
    # random.Random(2027) on 2-5 strands with up to 12 letters, the trefoil,
    # the figure eight and the benchmark's two slowest census braids
    expected = json.loads(WIRTINGER_DIGESTS.read_text())
    assert len(expected) >= 60
    for text, digest in expected.items():
        kp = wirtinger_from_braid(parse_braid(text))
        found = hashlib.sha256(repr((kp.group, kp.meridian, kp.longitude)).encode()).hexdigest()
        assert found == digest, text


def test_longitude_is_nullhomologous():
    for text in ("1 1 1", "1 -2 1 -2", "-1 -1 -1", "1 1 1 1 1"):
        kp = wirtinger_from_braid(parse_braid(text))
        n = len(kp.group.generators)
        # every generator is a conjugate meridian, so total exponent sum is
        # the homology class; the 0-framing makes it vanish
        assert sum(kp.longitude.exponent_vector(n)) == 0


def test_knot_group_abelianization_is_z():
    for text in ("", "1 1 1", "1 -2 1 -2", "1 1 -2 1 -2 -2"):
        kp = wirtinger_from_braid(parse_braid(text))
        assert abelianization(kp.group).is_infinite_cyclic


def test_peripheral_validation_passes(trefoil, suite_small):
    report = validate_peripheral(trefoil, suite_small)
    assert report.ok, report.format()
    # the reported total counts every homomorphism, not one per conjugacy class
    group = tietze_simplify(trefoil.group)
    total = sum(naive_hom_count(group, t) for t in suite_small)
    assert f"({total} homomorphisms over {len(suite_small)} targets)" in report.format()


def test_fig8_peripheral_validation_full_suite(fig8, suite_full):
    report = validate_peripheral(fig8, suite_full)
    assert report.ok, report.format()


def test_markov_moves_leave_invariants_fixed(suite_small):
    # stabilizations and a conjugation of the trefoil braid present the same
    # knot, so the whole pipeline must agree across them
    from knotsurgery import count_homomorphisms, fox_alexander, tietze_simplify

    presentations = [
        tietze_simplify(wirtinger_from_braid(parse_braid(text)).group)
        for text in ("1 1 1", "1 1 1 2", "1 1 1 2 3 4", "1 1 1 1 2 -1")
    ]
    polys = {
        str(fox_alexander(wirtinger_from_braid(parse_braid(text))))
        for text in ("1 1 1", "1 1 1 2", "1 1 1 2 3 4", "1 1 1 1 2 -1")
    }
    assert polys == {"t^2 - t + 1"}
    for target in suite_small:
        counts = {count_homomorphisms(p, target) for p in presentations}
        assert len(counts) == 1, target.name


def test_corrupted_longitude_pinpointed(trefoil):
    # drop the writhe correction: exponent sum becomes 3, not 0
    broken = KnotPresentation(
        trefoil.group,
        trefoil.meridian,
        trefoil.longitude * Word.generator(0) ** 3,
    )
    report = validate_peripheral(broken, ())
    names = {check.name for check in report.checks if not check.passed}
    assert "longitude-nullhomologous" in names
    assert "abelianization-is-Z" not in names


braid_letters = st.lists(
    st.sampled_from((1, -1, 2, -2)), min_size=1, max_size=6
)


@settings(max_examples=40)
@given(letters=braid_letters)
def test_random_braid_closures(suite_small, letters):
    try:
        braid = parse_braid(" ".join(str(k) for k in letters))
    except NotAKnotError:
        return
    kp = wirtinger_from_braid(braid)
    assert abelianization(kp.group).is_infinite_cyclic
    n = len(kp.group.generators)
    assert sum(kp.longitude.exponent_vector(n)) == 0
    assert len(kp.group.relators) == braid.strands - 1
    report = validate_peripheral(kp, suite_small)
    assert report.ok, report.format()
