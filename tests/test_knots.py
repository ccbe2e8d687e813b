import json
import random

import pytest

from knotsurgery import (
    FiberedKnotData,
    InvalidMonodromyError,
    Word,
    abelianization,
    apply_automorphism,
    builtin_knot,
    builtin_monodromy,
    count_homomorphisms,
    mapping_torus_presentation,
    standard_suite,
    symmetric,
    tietze_simplify,
    validate_peripheral,
)
from knotsurgery.cli import MAX_MONODROMY_BYTES, _read_json, main
from knotsurgery.knots import (
    MAX_GENUS,
    boundary_word,
    certify_monodromy,
    fibered_knot_from_json,
    fibered_knot_to_json,
)

a = Word.generator(0)
b = Word.generator(1)

IDENTITY_MONODROMY = FiberedKnotData(genus=1, forward=(a, b), backward=(a, b))


def test_apply_automorphism_examples():
    data = builtin_monodromy("trefoil")
    assert apply_automorphism(data, Word(), "forward") == Word()
    image = apply_automorphism(data, a, "forward")
    assert apply_automorphism(data, image, "backward") == a


def test_boundary_preserved_up_to_rotation():
    for name in ("trefoil", "fig8"):
        data = builtin_monodromy(name)
        boundary = boundary_word(data.genus)
        image = apply_automorphism(data, boundary, "forward").cyclically_reduced()
        rotations = {
            boundary.letters[i:] + boundary.letters[:i]
            for i in range(len(boundary.letters))
        }
        assert image.letters in rotations


def test_forward_backward_random_words():
    rng = random.Random(7)
    data = builtin_monodromy("fig8")
    for _ in range(50):
        letters = tuple(
            (rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randrange(9))
        )
        w = Word(letters)
        assert apply_automorphism(data, apply_automorphism(data, w, "forward"), "backward") == w
        assert apply_automorphism(data, apply_automorphism(data, w, "backward"), "forward") == w


def test_certificates_reject_non_automorphism():
    broken = FiberedKnotData(genus=1, forward=(a * b, a.inverse()), backward=(a, b))
    with pytest.raises(InvalidMonodromyError):
        certify_monodromy(broken)


def test_certificates_reject_orientation_reversal():
    # swapping a and b inverts the boundary commutator
    swap = FiberedKnotData(genus=1, forward=(b, a), backward=(b, a))
    with pytest.raises(InvalidMonodromyError):
        certify_monodromy(swap)


def test_identity_monodromy_mapping_torus():
    kp = mapping_torus_presentation(IDENTITY_MONODROMY)
    assert kp.group.generators == ("a1", "b1", "m")
    assert len(kp.group.relators) == 2
    invariants = abelianization(kp.group)
    assert invariants.free_rank == 3 and not invariants.torsion


@pytest.mark.parametrize("name", ["trefoil", "fig8"])
def test_mapping_torus_matches_wirtinger_spectra(name):
    braid_route = tietze_simplify(builtin_knot(name).group)
    torus_route = tietze_simplify(mapping_torus_presentation(builtin_monodromy(name)).group)
    for target in (symmetric(3), symmetric(4), symmetric(5)):
        assert count_homomorphisms(braid_route, target) == count_homomorphisms(
            torus_route, target
        )


def test_mapping_torus_peripheral_checks(suite_small):
    kp = mapping_torus_presentation(builtin_monodromy("trefoil"))
    report = validate_peripheral(kp, suite_small)
    assert report.ok, report.format()


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_mapping_torus_surgery_h1_is_z_mod_q(q):
    from knotsurgery import SurgerySlope, dehn_surgery_group

    kp = mapping_torus_presentation(builtin_monodromy("fig8"))
    group = dehn_surgery_group(kp, SurgerySlope(1, q))
    invariants = abelianization(group)
    assert invariants.free_rank == 0
    assert invariants.torsion == ((q,) if q > 1 else ())


def test_identity_monodromy_fails_peripheral_validation():
    # a valid mapping torus, but not of a knot in the 3-sphere: H1 is Z^3
    kp = mapping_torus_presentation(IDENTITY_MONODROMY)
    report = validate_peripheral(kp, ())
    assert not report.ok
    assert "abelianization-is-Z" in {check.name for check in report.checks if not check.passed}


def test_commutation_check_skipped_on_non_knot_groups():
    # genus 2 identity: H1 = Z^5; a search over its 221089730 homomorphisms
    # into the standard suite takes about 25 s
    generators = tuple(Word.generator(i) for i in range(4))
    identity = FiberedKnotData(genus=2, forward=generators, backward=generators)
    report = validate_peripheral(mapping_torus_presentation(identity), standard_suite())
    assert report.format().splitlines() == [
        "abelianization-is-Z: FAIL (H1 = Z^5, meridian generates: False)",
        "longitude-nullhomologous: PASS (longitude exponent vector (0, 0, 0, 0, 0))",
        "peripheral-commutation: FAIL (not run: abelianization-is-Z failed)",
    ]


def test_fibered_json_round_trip(tmp_path):
    data = builtin_monodromy("fig8")
    payload = fibered_knot_to_json(data)
    assert fibered_knot_from_json(payload) == data

    def read(path):
        return _read_json(str(path), MAX_MONODROMY_BYTES, "monodromy", InvalidMonodromyError)

    path = tmp_path / "fig8.json"
    path.write_text(json.dumps(payload))
    assert fibered_knot_from_json(read(path)[0]) == data
    path.write_text(json.dumps(payload).ljust(MAX_MONODROMY_BYTES))
    assert fibered_knot_from_json(read(path)[0]) == data
    path.write_text(json.dumps(payload).ljust(MAX_MONODROMY_BYTES + 1))
    with pytest.raises(InvalidMonodromyError):
        read(path)


def test_fibered_json_errors():
    with pytest.raises(InvalidMonodromyError):
        fibered_knot_from_json({"genus": 1, "forward": {}})
    with pytest.raises(InvalidMonodromyError):
        fibered_knot_from_json({"forward": {}, "backward": {}})
    with pytest.raises(InvalidMonodromyError):
        fibered_knot_from_json(
            {"genus": 1, "forward": {"a1": [], "b1": []}, "backward": {"a1": []}}
        )
    good = fibered_knot_to_json(builtin_monodromy("trefoil"))
    for bad_image in ([5], "a1", [["a1"]], [["a1", 1, 1]], [[["a1"], 1]], [["a1", "x"]], 7):
        with pytest.raises(InvalidMonodromyError):
            fibered_knot_from_json(dict(good, backward=dict(good["backward"], b1=bad_image)))
    names = [f"{c}{i}" for i in range(1, MAX_GENUS + 2) for c in "ab"]
    identity = {name: [[name, 1]] for name in names}
    assert fibered_knot_from_json({"genus": MAX_GENUS, "forward": identity, "backward": identity})
    with pytest.raises(InvalidMonodromyError, match="genus"):
        fibered_knot_from_json({"genus": MAX_GENUS + 1, "forward": identity, "backward": identity})


def test_each_builtin_knot_has_one_spelling(capsys):
    # the cache fingerprints the --builtin text, so a second spelling of one
    # knot would store its spectra again under other names
    for name in ("figure-eight", "FIG8", " fig8"):
        assert main(["knot", "--builtin", name]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "available: ['fig8', 'trefoil', 'unknot']" in captured.err
    with pytest.raises(KeyError):
        builtin_knot("granny")


def test_commutation_check_names_the_first_target_with_a_violation():
    # [x1, x2] is nullhomologous but no peripheral word of the trefoil: in S3
    # it maps to a 3-cycle whenever x1 and x2 map to distinct transpositions,
    # and no transposition commutes with a 3-cycle; the cyclic targets before
    # S3 are abelian
    from knotsurgery import KnotPresentation, commutator

    kp = builtin_knot("trefoil")
    bad = KnotPresentation(kp.group, kp.meridian, commutator(a, b))
    report = validate_peripheral(bad, standard_suite())
    assert report.format().splitlines()[1:] == [
        "longitude-nullhomologous: PASS (longitude exponent vector (0, 0))",
        "peripheral-commutation: FAIL (violation in S3)",
    ]
