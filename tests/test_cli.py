import ast
import copy
import gc
import hashlib
import importlib.util
import itertools
import json
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
import zlib
from math import gcd
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import knotsurgery
from knotsurgery import (
    KnotSurgeryError,
    alexander,
    braids,
    builtin_knot,
    cli,
    fpgroup,
    homcount,
    knots,
    smith,
    surgery,
    targets,
)
from knotsurgery.cli import (
    MAX_MONODROMY_BYTES,
    MAX_P_VALUES,
    MAX_SUITE_BYTES,
    main,
    parse_p_spec,
)
from knotsurgery.fpgroup import Presentation, Word, presentation_from_json, word_from_json
from knotsurgery.knots import MAX_GENUS, builtin_monodromy, fibered_knot_to_json
from knotsurgery.surgery import (
    MAX_ABS_P,
    MAX_Q,
    FamilyMember,
    FamilyResult,
    SurgerySlope,
    build_family,
)
from knotsurgery.targets import DEFAULT_CLOSURE_CAP, MAX_TARGET_DEGREE

from conftest import REFUSED_BRAIDS, cycle_string, relabelled


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_p_spec():
    assert parse_p_spec("1..4") == (1, 2, 3, 4)
    assert parse_p_spec("1,3,5") == (1, 3, 5)
    assert parse_p_spec("-2..1,5") == (-2, -1, 0, 1, 5)
    with pytest.raises(ValueError):
        parse_p_spec("4..1")
    with pytest.raises(ValueError):
        parse_p_spec("")
    with pytest.raises(ValueError, match="p=0 is given more than once"):
        parse_p_spec("-1..1,0")


@pytest.mark.parametrize("command", ["family", "verify", "export"])
def test_a_repeated_p_value_exits_2(capsys, tmp_path, command):
    # p=2 against itself would be reported as an unresolved pair
    argv = [command, "--builtin", "trefoil", "--p=2,2,1..3", "--out", str(tmp_path / "out")]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert "p=2 is given more than once" in err
    assert not (tmp_path / "out").exists()


def test_p_and_q_limits_fail_before_expanding(capsys, tmp_path):
    assert len(parse_p_spec(f"1..{MAX_P_VALUES}")) == MAX_P_VALUES
    assert parse_p_spec(f"-{MAX_ABS_P},{MAX_ABS_P}") == (-MAX_ABS_P, MAX_ABS_P)
    for spec in (
        f"0..{MAX_P_VALUES}",
        f"1..{MAX_P_VALUES // 2},-{MAX_P_VALUES // 2}..0",
        f"{MAX_ABS_P + 1}",
        f"-{MAX_ABS_P + 1}..0",
        f"0..{MAX_ABS_P + 1}",
    ):
        with pytest.raises(KnotSurgeryError):
            parse_p_spec(spec)
    for argv in (
        ["verify", "--builtin", "unknot", "--p", f"{MAX_ABS_P + 1}"],
        ["verify", "--builtin", "unknot", "--q", f"{MAX_Q + 1}"],
        ["verify", "--builtin", "unknot", "--q", "0"],
        ["export", "--builtin", "unknot", "--p", f"1..{MAX_P_VALUES + 1}", "--out", str(tmp_path)],
    ):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == "", argv
        assert "error:" in err


def test_knot_builtin_unknot(capsys):
    code, out, _ = run(["knot", "--builtin", "unknot"], capsys)
    assert code == 0
    assert "alexander: 1" in out


def test_knot_braid_trefoil(capsys, tmp_path):
    code, out, _ = run(["knot", "--braid", "1 1 1", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "alexander: t^2 - t + 1" in out
    payload = json.loads((tmp_path / "knot.json").read_text())
    assert payload["schema_version"] == 1
    assert payload["presentation"]["generators"] == ["x1", "x2"]
    assert payload["peripheral_ok"] is True


def test_knot_rejects_non_knot(capsys):
    code, _, err = run(["knot", "--braid", "1 1"], capsys)
    assert code == 2
    assert "components" in err


def test_knot_requires_one_source(capsys):
    code, _, err = run(["knot", "--braid", "1 1 1", "--builtin", "unknot"], capsys)
    assert code == 2
    assert "exactly one" in err


def test_an_empty_braid_is_the_unknot(capsys, tmp_path):
    # a given option is a source even when its value is empty
    outputs = {}
    for braid in ("", " "):
        code, out, err = run(["knot", "--braid", braid], capsys)
        assert (code, err) == (0, "")
        outputs[braid] = out.splitlines()
    assert outputs[""] == outputs[" "]
    assert outputs[""][0] == "knot: braid "
    for braid, hits in ((" ", 0), ("", 4)):
        argv = ["family", "--braid", braid, "--q", "2", "--p=-3..3", "--out", str(tmp_path)]
        assert run(argv, capsys)[0] == 3
        assert json.loads((tmp_path / "run_meta.json").read_text())["cache_hits"] == hits
    assert len(list((tmp_path / ".cache").glob("*.json"))) == 1


@pytest.mark.parametrize("option", ["--builtin", "--monodromy"])
def test_an_empty_builtin_or_monodromy_exits_2(capsys, option):
    code, out, err = run(["knot", option, ""], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("braid", sorted(REFUSED_BRAIDS))
def test_knot_refuses_every_other_braid_spelling(capsys, braid):
    code, out, err = run(["knot", "--braid", braid], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: bad braid token {REFUSED_BRAIDS[braid]!r}\n"


def test_a_braid_spaced_another_way_reads_the_cache(capsys, tmp_path):
    for braid, hits in (("1 -2 1 -2", 0), ("\t1  -2 1 -2 ", 7)):
        argv = ["family", "--braid", braid, "--q", "1", "--p=-3..3", "--out", str(tmp_path)]
        assert run(argv, capsys)[0] == 3
        assert json.loads((tmp_path / "run_meta.json").read_text())["cache_hits"] == hits
    assert len(list((tmp_path / ".cache").glob("*.json"))) == 1


def test_a_braid_spaced_another_way_gives_the_same_outputs(capsys, tmp_path):
    # outputs spell a braid as its cache key does: its letters, single-spaced
    outputs = []
    for i, braid in enumerate((" 1  -2 1 -2", "1 -2 1 -2")):
        out = tmp_path / str(i)
        knot = run(["knot", "--braid", braid, "--out", str(out)], capsys)
        family = run(["family", "--braid", braid, "--p=-3..3", "--out", str(out)], capsys)
        files = [(out / name).read_bytes() for name in ("knot.json", "family_manifest.json")]
        outputs.append((knot, family, files))
    assert outputs[0] == outputs[1]
    assert outputs[0][0][1].startswith("knot: braid 1 -2 1 -2\n")
    for document in outputs[0][2]:
        assert json.loads(document)["source"] == {"kind": "braid", "value": "1 -2 1 -2"}


def test_a_monodromy_indented_another_way_reads_the_cache(capsys, tmp_path):
    document = fibered_knot_to_json(builtin_monodromy("fig8"))
    out = tmp_path / "out"
    for indent, hits in ((None, 0), (1, 7)):
        path = tmp_path / f"fig8-{indent}.json"
        path.write_text(json.dumps(document, indent=indent))
        argv = ["family", "--monodromy", str(path), "--q", "1", "--p=-3..3", "--out", str(out)]
        assert run(argv, capsys)[0] == 3
        assert json.loads((out / "run_meta.json").read_text())["cache_hits"] == hits
    assert len(list((out / ".cache").glob("*.json"))) == 1


_WHITESPACE = " \t\n\r\x0b\x0c"


@st.composite
def spaced_knot_braids(draw):
    """The letters of a knot braid (at most 8, |k| <= 3) and a rendering of
    them with random whitespace around and between the letters."""
    letters = draw(st.lists(st.sampled_from((1, -1, 2, -2, 3, -3)), max_size=8))
    try:
        braids.BraidWord(max(map(abs, letters), default=0) + 1, tuple(letters))
    except knotsurgery.NotAKnotError:
        assume(False)
    gap = st.text(_WHITESPACE, min_size=1, max_size=3)
    end = st.text(_WHITESPACE, max_size=2)
    text = draw(end) + "".join((draw(gap) if i else "") + str(k) for i, k in enumerate(letters))
    return letters, text + draw(end)


@given(spaced_knot_braids())
def test_a_braid_spaced_any_way_parses_and_keys_alike(drawn):
    letters, text = drawn
    single = " ".join(map(str, letters))
    assert braids.parse_braid(text) == braids.parse_braid(single)
    key = cli.load_knot(cli.RunConfig("braid", text))[1]
    assert key == cli.load_knot(cli.RunConfig("braid", single))[1] == f"braid:{single}"


def test_family_unknot_unresolved_exit_3(capsys, tmp_path):
    code, out, _ = run(
        ["family", "--builtin", "unknot", "--q", "5", "--p", "1..4", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 3
    assert "UNRESOLVED" in out
    csv_lines = (tmp_path / "spectra.csv").read_text().splitlines()
    assert csv_lines[0].startswith("label,C2,")
    # lens space quotients do not depend on p
    assert len({line.split(",", 1)[1] for line in csv_lines[1:]}) == 1
    manifest = json.loads((tmp_path / "family_manifest.json").read_text())
    assert [m["p"] for m in manifest["members"]] == [1, 2, 3, 4]


def test_family_distinguished_exit_0(capsys, tmp_path):
    # fig8 surgeries 2/1 and 2/3 differ already at S5
    code, out, _ = run(
        ["family", "--builtin", "fig8", "--q", "2", "--p", "1,3", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert "1/1 pairs distinguished" in out
    assert "DISTINGUISHED at S5" in out


def test_family_empty_after_filter(capsys, tmp_path):
    code, _, err = run(
        ["family", "--builtin", "unknot", "--q", "2", "--p", "2,4", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert err == "error: no slope left after gcd filter\n"


def test_family_cache_round_trip(capsys, tmp_path):
    argv = ["family", "--builtin", "unknot", "--q", "3", "--p", "1,2", "--out", str(tmp_path)]
    code1, _, _ = run(argv, capsys)
    primary = ["family_manifest.json", "spectra.csv", "distinguish_report.txt"]
    first = {name: (tmp_path / name).read_bytes() for name in primary}
    code2, _, _ = run(argv, capsys)
    second = {name: (tmp_path / name).read_bytes() for name in primary}
    assert code1 == code2
    assert first == second
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["cache_hits"] == 2


def test_family_manifest_round_trip(capsys, tmp_path):
    argv = ["family", "--builtin", "trefoil", "--q", "2", "--p", "1,3", "--out", str(tmp_path)]
    # the standard suite leaves these two slopes tied
    assert run(argv, capsys)[0] == 3
    records = json.loads((tmp_path / "family_manifest.json").read_text())["members"]
    result = build_family(builtin_knot("trefoil"), 2, [1, 3])
    assert [r["p"] for r in records] == [1, 3]
    assert all(r["q"] == 2 for r in records)
    for record, member in zip(records, result.members):
        rebuilt = presentation_from_json(record["presentation"])
        assert rebuilt == member.presentation
        index = {name: i for i, name in enumerate(rebuilt.generators)}
        labels = {role: word_from_json(w, index) for role, w in record["labels"].items()}
        assert labels == member.labels
        assert set(labels) == {
            surgery.MERIDIAN,
            surgery.LONGITUDE,
            surgery.CABLE_MERIDIAN,
            surgery.CABLE_LONGITUDE,
        }


def old_family_manifest(result):
    """The manifest's member records, built as a list per letter."""
    records = []
    for member in result.members:
        names = member.presentation.generators
        records.append(
            {
                "p": member.slope.p,
                "q": member.slope.q,
                "presentation": fpgroup.presentation_to_json(member.presentation),
                "labels": {
                    role: fpgroup.word_to_json(w, names) for role, w in member.labels.items()
                },
            }
        )
    return records


# monodromy files carry user-chosen generator names
_names = st.text(st.characters(codec="utf-8"), min_size=1, max_size=4) | st.sampled_from(
    ['"', "\\", 'a"b', "x\\1", "é", "😀", "\x00"]
)


@st.composite
def families(draw):
    """A config and a family of random presentations, some without relators."""
    q = draw(st.integers(1, 6))
    ps = draw(st.lists(
        st.integers(-MAX_ABS_P, MAX_ABS_P).filter(lambda p: gcd(p, q) == 1),
        min_size=1, max_size=5, unique=True,
    ))
    name_sets = draw(st.lists(st.lists(_names, min_size=1, max_size=4, unique=True), min_size=1, max_size=2))
    members = []
    for p in ps:
        names = tuple(draw(st.sampled_from(name_sets)))
        letters = st.tuples(st.integers(0, len(names) - 1), st.sampled_from([1, -1]))
        words = st.lists(letters, max_size=8).map(lambda ls: Word(tuple(ls)))
        presentation = Presentation(names, tuple(draw(st.lists(words, max_size=3))))
        labels = draw(st.dictionaries(_names, words, max_size=4))
        members.append(FamilyMember(SurgerySlope(p, q), presentation, labels))
    # the skipped p are those not coprime to q, which q = 1 has none of
    skipped_p = st.integers(-MAX_ABS_P, MAX_ABS_P).filter(lambda p: gcd(p, q) != 1)
    skipped = tuple(draw(st.lists(skipped_p, max_size=3 if q > 1 else 0, unique=True)))
    kind = draw(st.sampled_from(["braid", "builtin", "monodromy"]))
    # a braid reaches the manifest only once it parses
    source = draw(spaced_knot_braids())[1] if kind == "braid" else draw(_names)
    config = cli.RunConfig(source_kind=kind, source=source, q=q, p_values=(*ps, *skipped))
    return config, FamilyResult(tuple(members), skipped)


@given(families(), st.sampled_from(["unknot", "trefoil", "fig8"]))
@example(
    (
        cli.RunConfig(source_kind="monodromy", source='d\\"é.json', q=2, p_values=(1, -3, 2, 4)),
        FamilyResult(
            (FamilyMember(SurgerySlope(1, 2), Presentation(('"', "é")), {}),
             FamilyMember(SurgerySlope(-3, 2), Presentation(('"', "é")), {"\\": Word(((1, -1),))})),
            (2, 4),
        ),
    ),
    "trefoil",
)
def test_streamed_manifest_matches_json_dumps_of_the_records(drawn, knot):
    # the manifest draws its members from cli.family_members; here they are
    # the drawn ones, and the knot sets how many leading relators the
    # manifest takes to be shared (0, 1 or 2 knot group relators, and one more)
    config, family = drawn
    kp = builtin_knot(knot)
    value = config.source
    if config.source_kind == "braid":
        value = " ".join(map(str, braids.parse_braid(value).letters))
    document = {
        "schema_version": cli.SCHEMA_VERSION,
        "source": {"kind": config.source_kind, "value": value},
        "q": config.q,
        "skipped_p": list(family.skipped),
        "members": old_family_manifest(family),
    }

    def drawn_members(knot_group, q, p_values):
        assert (knot_group, q, p_values) == (kp, config.q, config.p_values)
        return iter(family.members)

    with mock.patch.object(cli, "family_members", drawn_members):
        streamed = "".join(cli._manifest_chunks(config, kp))
    assert streamed == json.dumps(document, indent=2) + "\n"


@pytest.mark.parametrize("cache", [[], ["--no-cache"]])
def test_family_out_on_a_regular_file_exits_2_and_writes_nothing(capsys, tmp_path, cache):
    out = tmp_path / "out"
    out.write_text("kept\n")
    argv = ["family", "--builtin", "trefoil", "--p", "1..3", "--out", str(out), *cache]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert out.read_text() == "kept\n"
    assert list(tmp_path.iterdir()) == [out]


def test_verify_unknot(capsys):
    code, out, _ = run(["verify", "--builtin", "unknot", "--q", "3", "--p", "1"], capsys)
    assert code == 0
    assert "Z/3" in out
    assert "PASS" in out


def test_verify_trefoil_multiple_slopes(capsys):
    code, out, _ = run(["verify", "--builtin", "trefoil", "--q", "1", "--p", "1,2,3"], capsys)
    assert code == 0
    assert out.count("PASS") == 3


def test_verify_checks_the_fig8_family_over_the_extended_suite(capsys):
    # both surgery routes of every member, counted directly, against the
    # knot group's tables at all 20 targets, PSL2_17 and PSL2_19 included
    argv = ["verify", "--builtin", "fig8", "--q", "1", "--p=1..6", "--targets", "extended"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.splitlines() == [
        f"p={p} q=1: H1 0 vs 0, spectra over 20 targets: PASS" for p in range(1, 7)
    ]


def test_verify_fails_when_the_table_side_disagrees(capsys, monkeypatch):
    argv = ["verify", "--builtin", "trefoil", "--q", "1", "--p", "1,2"]
    expected = run(argv, capsys)[1]
    monkeypatch.setattr(cli, "slope_counts", lambda lattices, slopes: [-1] * len(slopes))
    code, out, _ = run(argv, capsys)
    assert code == 1
    assert out == expected.replace("PASS", "FAIL")


def fresh_trefoil(config):
    """load_knot's result for trefoil under generator names of its own, so
    that no presentation another test keeps alive shares its Smith forms."""
    return relabelled(builtin_knot("trefoil"), "'verify"), "builtin:trefoil"


def test_verify_measures_each_distinct_route_once(capsys, monkeypatch):
    # H1 is read off the Smith form kept for each live presentation, which
    # builds one relation matrix per distinct presentation
    argv = ["verify", "--builtin", "trefoil", "--q", "1", "--p", "1"]
    measured = []
    relation_matrix = smith.relation_matrix

    def recording(group):
        measured.append(group)
        return relation_matrix(group)

    monkeypatch.setattr(smith, "relation_matrix", recording)
    monkeypatch.setattr(cli, "load_knot", fresh_trefoil)
    kp = fresh_trefoil(None)[0]
    assert run(argv, capsys)[0] == 0
    # the knot group, then the one presentation both routes simplify to
    route = fpgroup.tietze_simplify(surgery.dehn_surgery_group(kp, SurgerySlope(1, 1)))
    assert measured == [kp.group, route]
    # a route that simplifies to another group is measured and compared on its own
    other = surgery.dehn_surgery_group(kp, SurgerySlope(2, 1))
    # the half comes from the family members cli draws; its member is given the other group
    member = FamilyMember(SurgerySlope(1, 1), other, {})
    monkeypatch.setattr(cli, "family_members", lambda kp, q, p_values: iter((member,)))
    code, out, _ = run(argv, capsys)
    # measured keeps the first run's groups alive, so the knot group and the
    # surgery route are read, and only the other group is measured
    assert (code, measured[2:]) == (1, [fpgroup.tietze_simplify(other)])
    assert out.endswith(": FAIL\n")


def test_verify_leaves_no_route_in_either_memo(capsys, monkeypatch):
    # the plans and Smith forms of a command's groups go with the groups
    monkeypatch.setattr(cli, "load_knot", fresh_trefoil)
    assert run(["verify", "--builtin", "trefoil", "--q", "1", "--p=1..3"], capsys)[0] == 0
    gc.collect()
    kp = fresh_trefoil(None)[0]
    groups = [kp.group, fpgroup.tietze_simplify(kp.group)]
    for member in surgery.family_members(kp, 1, (1, 2, 3)):
        routes = (surgery.dehn_surgery_group(kp, member.slope), member.presentation)
        groups += map(fpgroup.tietze_simplify, routes)
    for group in groups:
        assert group not in homcount._PLANS and group not in smith._FORMS


def test_verify_rejects_broken_monodromy(capsys, tmp_path):
    # not an automorphism: backward side does not invert forward
    payload = fibered_knot_to_json(builtin_monodromy("trefoil"))
    payload["backward"]["a1"] = [["a1", 1]]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(["verify", "--monodromy", str(path), "--q", "1", "--p", "1"], capsys)
    assert code == 2
    assert "identity map" in err


def test_verify_flags_invalid_peripheral_system(capsys, tmp_path):
    # a valid surface automorphism whose mapping torus is not a knot group
    identity = {
        "genus": 1,
        "forward": {"a1": [["a1", 1]], "b1": [["b1", 1]]},
        "backward": {"a1": [["a1", 1]], "b1": [["b1", 1]]},
    }
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(identity))
    code, out, _ = run(["verify", "--monodromy", str(path), "--q", "1", "--p", "1"], capsys)
    assert code == 1
    assert "abelianization-is-Z: FAIL" in out


def identity_monodromy(genus: int) -> dict:
    images = {name: [[name, 1]] for name in knots.fiber_generator_names(genus)}
    return {"genus": genus, "forward": images, "backward": images}


def test_family_fails_closed_on_a_non_knot_group(capsys, tmp_path, monkeypatch):
    # the genus-3 identity's mapping torus has H1 = Z^7: a search of it into
    # the standard suite runs for minutes, so the peripheral report must stop
    # family before any search
    def refuse(*args, **kwargs):
        raise AssertionError("searched a group that is no knot group")

    monkeypatch.setattr(homcount, "_weighted", refuse)
    path = tmp_path / "identity3.json"
    path.write_text(json.dumps(identity_monodromy(3)))
    out = tmp_path / "out"
    argv = ["--monodromy", str(path), "--p=-3..3"]
    code, stdout, _ = run(["family", *argv, "--out", str(out)], capsys)
    assert code == 1
    assert stdout.startswith("peripheral validation FAILED:\n  abelianization-is-Z: FAIL (H1 = Z^7")
    assert not out.exists()
    # verify prints the same lines
    assert run(["verify", *argv], capsys)[:2] == (1, stdout)


def counting(calls: list, original):
    def wrapper(*args):
        calls.append(args)
        return original(*args)

    return wrapper


def test_each_command_searches_the_knot_group_once_per_target(capsys, tmp_path, monkeypatch):
    # once per non-abelian target: an abelian target's table is read off H1
    searches, validations = [], []
    monkeypatch.setattr(knots, "peripheral_table", counting(searches, knots.peripheral_table))
    monkeypatch.setattr(cli, "validate_peripheral", counting(validations, cli.validate_peripheral))
    n = sum(not t.is_abelian for t in targets.standard_suite())
    assert run(["verify", "--builtin", "fig8", "--p=-3..3"], capsys)[0] == 0
    assert (len(searches), len(validations)) == (n, 1)
    family = ["family", "--builtin", "fig8", "--p=-3..3", "--out", str(tmp_path)]
    for expected in (1, 0):  # cold, then warm
        searches.clear()
        validations.clear()
        assert run(family, capsys)[0] == 3
        assert (len(searches), len(validations)) == (expected * n, expected)


def test_a_builtin_knot_is_built_once_per_process(capsys, tmp_path, monkeypatch):
    built = []
    monkeypatch.setattr(braids, "wirtinger_from_braid", counting(built, braids.wirtinger_from_braid))
    knots.builtin_knot.cache_clear()
    try:
        for q in (1, 2):
            argv = ["--builtin", "fig8", "--q", str(q), "--p=-3..3"]
            assert run(["family", *argv, "--out", str(tmp_path / f"q{q}")], capsys)[0] == 3
            assert run(["verify", *argv], capsys)[0] == 0
        assert len(built) == 1
        # an unknown name raises each time and is not kept
        for _ in range(2):
            with pytest.raises(KeyError, match="unknown builtin knot"):
                builtin_knot("fig9")
        assert knots.builtin_knot.cache_info().currsize == 1
        # every caller gets the one instance, so none can change it
        kp = builtin_knot("fig8")
        with pytest.raises(AttributeError, match="read-only"):
            kp.longitude = Word()
        with pytest.raises(AttributeError, match="read-only"):
            del kp.group
        for twin in (copy.copy(kp), copy.deepcopy(kp), pickle.loads(pickle.dumps(kp))):
            assert (twin.group, twin.meridian, twin.longitude, twin.genus_hint) == (
                kp.group, kp.meridian, kp.longitude, kp.genus_hint
            )
        assert len(built) == 1
    finally:
        knots.builtin_knot.cache_clear()


def test_a_new_slope_range_on_a_cached_knot_searches_and_closes_nothing(
    capsys, tmp_path, monkeypatch
):
    # the cache keeps the knot's slope lattices per suite, so once one run
    # has filled it every q and p is read off them
    common = ["family", "--builtin", "fig8", "--targets", "extended"]
    later = [["--q", "2", "--p=-6..6"], ["--q", "1", "--p=7..12"]]
    outputs = ("spectra.csv", "distinguish_report.txt")
    clean = {}
    for i, argv in enumerate(later):
        out = tmp_path / f"clean-{i}"
        code = run(common + argv + ["--no-cache", "--out", str(out)], capsys)[0]
        clean[i] = (code, [(out / name).read_bytes() for name in outputs])
    out = tmp_path / "out"
    assert run(common + ["--q", "1", "--p=1..6", "--out", str(out)], capsys)[0] == 0
    searches = []
    monkeypatch.setattr(knots, "peripheral_table", counting(searches, knots.peripheral_table))

    def refuse():
        raise AssertionError("closed a target")

    monkeypatch.setattr(cli, "standard_suite", refuse)
    monkeypatch.setattr(cli, "escalation_suite", refuse)
    for i, argv in enumerate(later):
        code = run(common + argv + ["--out", str(out)], capsys)[0]
        assert (code, [(out / name).read_bytes() for name in outputs]) == clean[i]
        members = (out / "spectra.csv").read_text().count("\n") - 1
        assert json.loads((out / "run_meta.json").read_text())["cache_hits"] == members == 6
        assert searches == []


def test_export_unknot_lens_space(capsys, tmp_path):
    code, _, _ = run(
        ["export", "--builtin", "unknot", "--q", "5", "--p", "1", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    text = (tmp_path / "surgery_q5_p1.g").read_text()
    assert text == 'F := FreeGroup("x1");\nrels := [ x1^5 ];\n'


def test_export_trefoil_relator_count(capsys, tmp_path):
    code, _, _ = run(
        ["export", "--builtin", "trefoil", "--q", "1", "--p", "1", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    text = (tmp_path / "surgery_q1_p1.g").read_text()
    rels_line = text.splitlines()[1]
    n_wirtinger = len(builtin_knot("trefoil").group.relators)
    assert rels_line.count(",") + 1 == n_wirtinger + 1


def test_family_with_custom_suite_file(capsys, tmp_path):
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(
        json.dumps(
            [
                {"name": "C2", "degree": 2, "generators": ["(1 2)"]},
                {"name": "C3", "degree": 3, "generators": ["(1 2 3)"]},
            ]
        )
    )
    out = tmp_path / "out"
    code, _, _ = run(
        [
            "family", "--builtin", "unknot", "--q", "6", "--p", "1,5",
            "--targets", str(suite_path), "--out", str(out),
        ],
        capsys,
    )
    assert code == 3  # Z/6 quotients for both p; tiny suite cannot separate
    header = (out / "spectra.csv").read_text().splitlines()[0]
    assert header == "label,C2,C3"


def test_closure_cap_exit_4(capsys, tmp_path):
    # S9 saturates past the default closure cap
    suite_path = tmp_path / "huge.json"
    suite_path.write_text(
        json.dumps(
            [{"name": "S9", "degree": 9, "generators": ["(1 2)", "(1 2 3 4 5 6 7 8 9)"]}]
        )
    )
    code, _, err = run(
        [
            "family", "--builtin", "unknot", "--q", "2", "--p", "1",
            "--targets", str(suite_path), "--out", str(tmp_path / "out"),
        ],
        capsys,
    )
    assert code == 4
    assert "cap" in err


def test_suite_just_past_the_cap_and_degree_limits(capsys, tmp_path):
    # S7 has 5040 elements, just past the cap; its table would hold 5040^2 entries
    assert DEFAULT_CLOSURE_CAP < 5040
    s7 = tmp_path / "s7.json"
    s7.write_text(
        json.dumps([{"name": "S7", "degree": 7, "generators": ["(1 2)", "(1 2 3 4 5 6 7)"]}])
    )
    code, _, err = run(["knot", "--builtin", "unknot", "--targets", str(s7)], capsys)
    assert code == 4
    assert "cap" in err
    wide = tmp_path / "wide.json"
    wide.write_text(
        json.dumps([{"name": "C2", "degree": MAX_TARGET_DEGREE + 1, "generators": ["(1 2)"]}])
    )
    code, _, err = run(["knot", "--builtin", "unknot", "--targets", str(wide)], capsys)
    assert code == 2
    assert "degree" in err


def test_suite_just_past_the_table_budget(capsys, tmp_path):
    # PSL2_19 has 3420 elements.  Two copies use 23 392 800 of the
    # DEFAULT_CLOSURE_CAP^2 = 25 000 000 budget, so a third is capped at
    # isqrt(1 607 200) = 1267 elements.
    assert 2 * 3420**2 <= DEFAULT_CLOSURE_CAP**2 < 3 * 3420**2
    generators = [cycle_string(g) for g in targets.psl2(19).generators]
    psl = {"degree": 20, "generators": generators}
    for copies, expected in ((2, 0), (3, 4)):
        path = tmp_path / f"{copies}.json"
        path.write_text(json.dumps([dict(psl, name=f"P{i}") for i in range(copies)]))
        code, _, err = run(["knot", "--builtin", "unknot", "--targets", str(path)], capsys)
        assert code == expected, err
    assert "'P2' exceeded cap 1267" in err
    assert "what the 2 entries before it left of the suite's table budget" in err
    assert f"{DEFAULT_CLOSURE_CAP}^2 = {DEFAULT_CLOSURE_CAP**2}" in err


# an endless file that reports a size of 0, where the platform has one
_DEV_ZERO = [Path("/dev/zero")] if Path("/dev/zero").exists() else []


def test_suite_file_just_past_the_byte_limit(capsys, tmp_path):
    c2 = json.dumps([{"name": "C2", "degree": 2, "generators": ["(1 2)"]}])
    at_limit = tmp_path / "at.json"
    at_limit.write_text(c2.ljust(MAX_SUITE_BYTES))
    past = tmp_path / "past.json"
    past.write_text(c2.ljust(MAX_SUITE_BYTES + 1))
    code, _, _ = run(["knot", "--builtin", "unknot", "--targets", str(at_limit)], capsys)
    assert code == 0
    # a device reports no size, so only the read itself can be bounded
    for too_big in [past, *_DEV_ZERO]:
        for command in (["knot"], ["family", "--out", str(tmp_path / "out")]):
            code, _, err = run(command + ["--builtin", "unknot", "--targets", str(too_big)], capsys)
            assert code == 2, (too_big, command)
            assert f"past the limit {MAX_SUITE_BYTES}" in err, (too_big, command)
        with pytest.raises(KnotSurgeryError, match="past the limit"):
            cli.read_suite(str(too_big))
    # the cache key comes from the same bounded read as the targets
    assert cli.read_suite(str(at_limit)).fingerprint.startswith("file:")


def test_a_file_that_yields_more_than_its_size_is_read_on_to_the_limit(tmp_path, monkeypatch):
    small = tmp_path / "small.json"
    small.write_text('{"counts": [["C2", 2]]}')
    past = tmp_path / "past.json"
    past.write_text("[]".ljust(MAX_SUITE_BYTES + 1))
    real_fstat = cli.os.fstat

    def sizeless(fd):
        # st_size is field 6 of a stat result
        found = real_fstat(fd)
        return cli.os.stat_result((*found[:6], 0, *found[7:10]))

    monkeypatch.setattr(cli.os, "fstat", sizeless)
    document, content = cli._read_json(small, MAX_SUITE_BYTES, "test", KnotSurgeryError)
    assert document == {"counts": [["C2", 2]]}
    assert content == small.read_bytes()
    with pytest.raises(KnotSurgeryError, match=f"past the limit {MAX_SUITE_BYTES}"):
        cli._read_json(past, MAX_SUITE_BYTES, "test", KnotSurgeryError)


_OUTPUTS = ("family_manifest.json", "spectra.csv", "distinguish_report.txt")


def _drawing(draws: list, monkeypatch):
    """Record each call of surgery.family_members by cli (as "call"), then
    the p of each member it draws."""
    family_members = cli.family_members

    def members(kp, q, p_values):
        for member in family_members(kp, q, p_values):
            draws.append(member.slope.p)
            yield member

    def drawing(kp, q, p_values):
        draws.append("call")
        return members(kp, q, p_values)

    monkeypatch.setattr(cli, "family_members", drawing)


def _record(out: Path) -> list:
    (entry,) = (out / ".cache").glob("*.json")
    return json.loads(entry.read_text())["manifest"]


def test_a_warm_family_call_leaves_unchanged_outputs_alone(capsys, tmp_path, monkeypatch):
    # the manifest still has the size and CRC-32 that the entry records, so
    # no member is built for it
    draws = []
    _drawing(draws, monkeypatch)
    argv = ["family", "--builtin", "fig8", "--q", "1", "--p=-3..3", "--out", str(tmp_path)]
    assert run(argv, capsys)[0] == 3
    assert draws == ["call", *range(-3, 4)]
    data = (tmp_path / "family_manifest.json").read_bytes()
    assert _record(tmp_path)[1:] == [len(data), zlib.crc32(data)]
    draws.clear()
    written = [tmp_path / name for name in (*_OUTPUTS, "run_meta.json")]
    # an mtime no call can give, so that a rewrite shows however coarse the clock
    for path in written:
        cli.os.utime(path, ns=(10**9, 10**9))
    before = {path.name: path.stat() for path in written}
    assert run(argv, capsys)[0] == 3
    after = {path.name: path.stat() for path in written}
    for name in _OUTPUTS:
        assert after[name].st_ino == before[name].st_ino, name
        assert after[name].st_mtime_ns == before[name].st_mtime_ns, name
    assert after["run_meta.json"].st_mtime_ns != before["run_meta.json"].st_mtime_ns
    assert json.loads((tmp_path / "run_meta.json").read_text())["cache_hits"] == 7
    assert draws == []


# The sha256 of fig8's manifest at q = 1, p = -3..3 under each SCHEMA_VERSION.
# A warm family call keeps a manifest that has the size and CRC-32 its cache
# entry records, and only SCHEMA_VERSION and the package version name the
# entry, so a change to the manifest's bytes fails this until SCHEMA_VERSION
# is bumped and the new version's line added.  A line here never changes.
_MANIFEST_SHA256 = {
    1: "197ca273c920e11426fa52fac2a812d088e0cb46de2c8ae5ed01f752bf33bf4e",
}


def test_a_changed_manifest_text_needs_a_new_schema_version(capsys, tmp_path):
    argv = ["family", "--builtin", "fig8", "--q", "1", "--p=-3..3", "--out", str(tmp_path)]
    assert run(argv, capsys)[0] == 3
    digest = hashlib.sha256((tmp_path / "family_manifest.json").read_bytes()).hexdigest()
    assert digest == _MANIFEST_SHA256[cli.SCHEMA_VERSION]


def test_a_new_manifest_on_a_cached_knot_is_made_again_with_no_search(
    capsys, tmp_path, monkeypatch
):
    # the record's key names the source as given, q and the p values, so a
    # new p range or another spelling of one monodromy path (one cache
    # entry) makes the manifest again, and the entry takes the new record
    (tmp_path / "fig8.json").write_text(json.dumps(fibered_knot_to_json(builtin_monodromy("fig8"))))
    monkeypatch.chdir(tmp_path)
    first = ["--monodromy", "fig8.json", "--q", "1", "--p=-3..3"]
    later = [
        ["--monodromy", "fig8.json", "--q", "1", "--p=-3..4"],
        ["--monodromy", "./fig8.json", "--q", "1", "--p=-3..4"],
    ]
    assert run(["family", *first, "--out", "out"], capsys)[0] == 3
    records = [_record(tmp_path / "out")]
    searches = []
    monkeypatch.setattr(knots, "peripheral_table", counting(searches, knots.peripheral_table))
    monkeypatch.setattr(cli, "validate_peripheral", counting(searches, cli.validate_peripheral))
    for i, argv in enumerate(later):
        assert run(["family", *argv, "--out", "out"], capsys)[0] == 3
        assert json.loads(Path("out/run_meta.json").read_text())["cache_hits"] == 8
        assert searches == []
        records.append(_record(tmp_path / "out"))
        assert run(["family", *argv, "--out", f"clean-{i}", "--no-cache"], capsys)[0] == 3
        searches.clear()
        for name in _OUTPUTS:
            assert Path("out", name).read_bytes() == Path(f"clean-{i}", name).read_bytes(), name
    assert len({record[0] for record in records}) == 3
    assert len(list(Path("out/.cache").iterdir())) == 1


def test_a_cold_call_writes_its_entry_once_after_the_manifest(capsys, tmp_path, monkeypatch):
    writes = []
    write = cli._write

    def recording(path, *args, **kwargs):
        writes.append((path.name, kwargs.get("atomic", False)))
        return write(path, *args, **kwargs)

    monkeypatch.setattr(cli, "_write", recording)
    argv = ["family", "--builtin", "trefoil", "--q", "1", "--p=1..3", "--out", str(tmp_path)]
    assert run(argv, capsys)[0] == 3
    atomic = [i for i, (_, is_atomic) in enumerate(writes) if is_atomic]
    assert len(atomic) == 1
    assert writes[atomic[0] - 1][0] == "family_manifest.json"
    writes.clear()
    assert run(argv, capsys)[0] == 3
    assert writes and not any(is_atomic for _, is_atomic in writes)


def test_a_failed_manifest_write_leaves_no_entry(capsys, tmp_path):
    # the entry is written after the manifest, so a record never outlives a
    # manifest that was not written
    out = tmp_path / "out"
    (out / "family_manifest.json").mkdir(parents=True)
    argv = ["family", "--builtin", "trefoil", "--p", "1..3", "--out", str(out)]
    assert run(argv, capsys)[0] == 2
    assert not (out / ".cache").exists()
    (out / "family_manifest.json").rmdir()
    assert run(argv, capsys)[0] == 3
    data = (out / "family_manifest.json").read_bytes()
    assert _record(out)[1:] == [len(data), zlib.crc32(data)]


def test_checking_a_long_output_against_its_record_holds_little(tmp_path):
    path = tmp_path / "long.txt"
    text = "0123456789abcdef" * (1 << 18)  # 4 MiB
    record = cli._write(path, text)
    assert record == (len(text), zlib.crc32(text.encode()))
    cli.os.utime(path, ns=(10**9, 10**9))

    def refuse():
        raise AssertionError("made the text of an output that holds its record")

    tracemalloc.start()
    assert cli._write(path, refuse, recorded=record) == record
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 256 * 1024
    assert path.stat().st_mtime_ns == 10**9


def _flip_middle(data: bytes) -> bytes:
    middle = len(data) // 2
    return data[:middle] + bytes([data[middle] ^ 1]) + data[middle + 1:]


@pytest.mark.parametrize(
    "name, damage",
    [
        ("family_manifest.json", _flip_middle),
        ("family_manifest.json", lambda data: data + b"trailing"),
        ("family_manifest.json", lambda data: data[: len(data) // 3]),
        ("family_manifest.json", lambda data: b""),
        ("spectra.csv", lambda data: data + b"p=9,1\n"),
        ("spectra.csv", _flip_middle),
        ("distinguish_report.txt", lambda data: data[:-5]),
        ("distinguish_report.txt", lambda data: b""),
    ],
)
def test_a_damaged_output_comes_back_as_a_clean_run_writes_it(
    capsys, tmp_path, monkeypatch, name, damage
):
    # a damaged manifest fails the entry's record (a flipped byte its CRC-32,
    # any other damage its size), so it is rewritten without being compared,
    # each member drawn once
    clean_dir, damaged_dir = tmp_path / "clean", tmp_path / "damaged"
    argv = ["family", "--builtin", "fig8", "--q", "1", "--p=-3..3", "--out"]
    code = run(argv + [str(clean_dir)], capsys)[0]
    assert run(argv + [str(damaged_dir)], capsys)[0] == code
    record = _record(damaged_dir)
    path = damaged_dir / name
    path.write_bytes(damage(path.read_bytes()))
    draws = []
    _drawing(draws, monkeypatch)
    assert run(argv + [str(damaged_dir)], capsys)[0] == code
    for output in _OUTPUTS:
        assert (damaged_dir / output).read_bytes() == (clean_dir / output).read_bytes(), output
    assert draws == (["call", *range(-3, 4)] if name == "family_manifest.json" else [])
    assert _record(damaged_dir) == record
    draws.clear()
    assert run(argv + [str(damaged_dir)], capsys)[0] == code
    assert draws == []


def _replace_sparse_outputs(capsys, tmp_path, monkeypatch, warm):
    """Blow each output up to a sparse 1 GiB, run family again (with a cache
    entry when warm) and check each is replaced reading little of it."""
    clean_dir, out = tmp_path / "clean", tmp_path / "out"
    argv = ["family", "--builtin", "fig8", "--q", "1", "--p=-3..3", "--out"]
    code = run(argv + [str(clean_dir)], capsys)[0]
    if warm:
        assert run(argv + [str(out)], capsys)[0] == code
    out.mkdir(exist_ok=True)
    for name in _OUTPUTS:
        (out / name).touch()
        cli.os.truncate(out / name, 2**30)  # sparse: no disk block holds the zeros
    read = dict.fromkeys(_OUTPUTS, 0)

    def counting_open(path, *args, **kwargs):
        handle = open(path, *args, **kwargs)
        if Path(path).name in read:
            whole = handle.read

            def counted(*size):
                data = whole(*size)
                read[Path(path).name] += len(data)
                return data

            handle.read = counted
        return handle

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    assert run(argv + [str(out)], capsys)[0] == code
    for name in _OUTPUTS:
        expected = (clean_dir / name).read_bytes()
        assert (out / name).read_bytes() == expected, name
        if warm and name == "family_manifest.json":
            assert read[name] == 0
        else:
            assert 0 < read[name] <= len(expected) + 1, name


def test_an_output_far_larger_than_its_text_is_replaced_reading_little(capsys, tmp_path, monkeypatch):
    _replace_sparse_outputs(capsys, tmp_path, monkeypatch, warm=False)


def test_a_far_larger_output_on_a_warm_call_is_replaced_reading_little(
    capsys, tmp_path, monkeypatch
):
    # the entry records the manifest's size, which is compared first, so a
    # sparse 1 GiB manifest is rewritten without a read
    _replace_sparse_outputs(capsys, tmp_path, monkeypatch, warm=True)


def test_a_long_chunk_is_compared_and_written_a_slice_at_a_time(tmp_path):
    # a rewrite holds a long chunk once, not a second time encoded nor a
    # third time read back
    path = tmp_path / "long.txt"
    text = "0123456789abcdef" * (1 << 19)  # 8 MiB, 8 slices
    changed = text[:-1] + "!"
    cli._write(path, text)
    for new in (text, changed):  # unchanged, then changed in its last character
        tracemalloc.start()
        cli._write(path, lambda: iter((new,)))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < len(text)
        assert path.read_text() == new


def test_a_rerun_whose_p_range_grows_writes_the_manifest_a_clean_run_writes(capsys, tmp_path):
    clean_dir, out = tmp_path / "clean", tmp_path / "out"
    argv = ["family", "--builtin", "fig8", "--q", "1", "--out"]
    run([*argv, str(out), "--p=-3..3"], capsys)
    code = run([*argv, str(out), "--p=-3..4"], capsys)[0]
    assert run([*argv, str(clean_dir), "--p=-3..4"], capsys)[0] == code
    for name in _OUTPUTS:
        assert (out / name).read_bytes() == (clean_dir / name).read_bytes(), name


def test_a_rerun_whose_outputs_shrink_leaves_nothing_of_the_longer_ones(capsys, tmp_path):
    # a changed output is rewritten in place, so each must be cut to its new length
    clean_dir, out = tmp_path / "clean", tmp_path / "out"
    argv = ["family", "--builtin", "fig8", "--q", "1", "--out"]
    run([*argv, str(out), "--p=-6..6"], capsys)
    code = run([*argv, str(out), "--p=1..3"], capsys)[0]
    assert run([*argv, str(clean_dir), "--p=1..3"], capsys)[0] == code
    for name in _OUTPUTS:
        assert (out / name).read_bytes() == (clean_dir / name).read_bytes(), name
    meta = out / "run_meta.json"
    meta.write_text(meta.read_text() + "x" * 4096)
    assert run([*argv, str(out), "--p=1..3"], capsys)[0] == code
    assert json.loads(meta.read_text())["cache_hits"] == 3


def test_the_manifest_makes_each_shared_word_text_once_a_family(monkeypatch):
    # the words every member shares (the knot group's relators, [mu, lam] and
    # the labels) are made once per family; the member's own relators
    # (filling, mu, lam) once per member, as they are written
    kp = builtin_knot("fig8")
    config = cli.RunConfig(source_kind="builtin", source="fig8", q=1, p_values=tuple(range(-6, 7)))
    members = build_family(kp, 1, config.p_values).members
    assert len(members) == 13
    made = []
    word_text = cli._word_text

    def counting(word, letters, indent, *lead):
        made.append((word, indent))
        return word_text(word, letters, indent, *lead)

    monkeypatch.setattr(cli, "_word_text", counting)
    "".join(cli._manifest_chunks(config, kp))
    shared = len(kp.group.relators) + 1
    expected = [(r, cli._RELATOR_INDENT) for r in members[0].presentation.relators[:shared]]
    expected += [(w, cli._LABEL_INDENT) for w in members[0].labels.values()]
    for member in members:
        assert member.presentation.relators[:shared] == members[0].presentation.relators[:shared]
        expected += [(r, cli._RELATOR_INDENT) for r in member.presentation.relators[shared:]]
    assert len(made) == shared + 4 + 13 * 3
    assert sorted(map(repr, made)) == sorted(map(repr, expected))


def test_family_writes_each_member_before_it_draws_the_next(capsys, tmp_path, monkeypatch):
    # cmd_family never holds the whole family: the manifest draws a member
    # from family_members, writes its text, then draws the next
    def whole_family(*args):
        raise AssertionError("build_family called")

    monkeypatch.setattr(surgery, "build_family", whole_family)
    monkeypatch.setattr(cli, "build_family", whole_family, raising=False)
    events = []
    family_members, manifest_chunks = cli.family_members, cli._manifest_chunks

    def drawing(kp, q, p_values):
        for member in family_members(kp, q, p_values):
            events.append(("draw", member.slope.p))
            yield member

    def writing(*args):
        for chunk in manifest_chunks(*args):
            events.append(("chunk", None))
            yield chunk

    monkeypatch.setattr(cli, "family_members", drawing)
    monkeypatch.setattr(cli, "_manifest_chunks", writing)
    argv = ["family", "--builtin", "fig8", "--q", "2", "--p=-6..6", "--out", str(tmp_path)]
    assert run(argv, capsys)[0] in (0, 3)
    kept = [p for p in range(-6, 7) if p % 2]
    assert [p for kind, p in events if kind == "draw"] == kept
    # each draw comes after the previous member's chunks and before its own
    runs = [kind for kind, _ in itertools.groupby(kind for kind, _ in events)]
    assert runs == ["chunk", "draw"] * len(kept) + ["chunk"]


@pytest.mark.parametrize("name", [*_OUTPUTS, "run_meta.json"])
def test_an_output_path_that_is_a_directory_exits_2(capsys, tmp_path, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    with pytest.raises(OSError) as refused:
        (out / name).write_text("")
    argv = ["family", "--builtin", "trefoil", "--p", "1..3", "--out", str(out)]
    for _ in range(2):  # cold, then warm
        code, _, err = run(argv, capsys)
        assert (code, err) == (2, f"error: {refused.value}\n")
        assert (out / name).is_dir()


@pytest.mark.skipif(not _DEV_ZERO, reason="no /dev/zero")
@pytest.mark.parametrize("name", _OUTPUTS)
def test_an_output_path_that_is_a_device_is_written_to_it(capsys, tmp_path, name):
    clean_dir, out = tmp_path / "clean", tmp_path / "out"
    argv = ["family", "--builtin", "trefoil", "--p", "1..3", "--out"]
    code = run(argv + [str(clean_dir)], capsys)[0]
    out.mkdir()
    (out / name).symlink_to(_DEV_ZERO[0])
    for _ in range(2):  # cold, then warm
        assert run(argv + [str(out)], capsys)[0::2] == (code, "")
        assert (out / name).resolve() == _DEV_ZERO[0]
        for output in _OUTPUTS:
            if output != name:
                assert (out / output).read_bytes() == (clean_dir / output).read_bytes()


A5 = ["(1 2 3 4 5)", "(1 2 3)"]


def _suite_file(path, generators):
    path.write_text(json.dumps([{"name": "T", "degree": 5, "generators": generators}]))


def _after_each_read(monkeypatch, action):
    """Call action(path) after each input file cli reads (a suite, a
    monodromy or a cache entry), whether or not the read succeeds.  cli reads
    every input through _read_json (test_cli_reads_and_writes_files_in_one_place);
    _write's reading back of an old output is not seen here."""
    read_json = cli._read_json

    def read_then_act(path, *args):
        try:
            return read_json(path, *args)
        finally:
            action(Path(path))

    monkeypatch.setattr(cli, "_read_json", read_then_act)


def test_suite_rewritten_between_reads_stores_no_stale_counts(capsys, tmp_path, monkeypatch):
    # T is A5 when the command starts and C5 once the file has been read, so
    # the cache names and the counts must both come from that one read.  Each
    # suite is then run warm, while its file is in place, against a clean run:
    # stale counts would sit under the fingerprint of either suite.
    suite = tmp_path / "suite.json"
    _suite_file(suite, A5)

    def rewrite(path):
        if path == suite:
            _suite_file(suite, ["(1 2 3 4 5)"])

    argv = ["family", "--builtin", "trefoil", "--p", "1..3", "--targets", str(suite), "--out"]
    _after_each_read(monkeypatch, rewrite)
    run(argv + [str(tmp_path / "out")], capsys)
    monkeypatch.undo()
    run(argv + [str(tmp_path / "out")], capsys)
    run(argv + [str(tmp_path / "clean"), "--no-cache"], capsys)
    rows = (tmp_path / "out" / "spectra.csv").read_text()
    assert rows == (tmp_path / "clean" / "spectra.csv").read_text()
    assert "p=1,1\n" in rows
    _suite_file(suite, A5)
    run(argv + [str(tmp_path / "out")], capsys)
    run(argv + [str(tmp_path / "clean"), "--no-cache"], capsys)
    rows = (tmp_path / "out" / "spectra.csv").read_text()
    assert rows == (tmp_path / "clean" / "spectra.csv").read_text()
    assert "p=1,121\n" in rows


@pytest.mark.parametrize(
    "command, warm",
    [("family", True), ("family", False), ("knot", False), ("verify", False)],
)
def test_a_command_reads_its_suite_file_once(capsys, tmp_path, monkeypatch, command, warm):
    suite = tmp_path / "suite.json"
    _suite_file(suite, A5)
    argv = [command, "--builtin", "trefoil", "--targets", str(suite), "--out", str(tmp_path)]
    if warm:
        run(argv, capsys)  # fills the cache that the counted call reads
    reads = []
    _after_each_read(monkeypatch, reads.append)
    code, _, err = run(argv, capsys)
    assert code == 0, err
    assert [path for path in reads if path.parent.name != ".cache"] == [suite]


def test_export_knot_group(capsys, tmp_path):
    code, _, _ = run(
        [
            "export", "--builtin", "trefoil", "--construction", "knot",
            "--q", "1", "--p", "1", "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "knot_group.g").read_text().startswith('F := FreeGroup("x1", "x2");')


@pytest.mark.parametrize("construction", ["knot", "surgery"])
def test_export_with_no_slope_coprime_to_q_exits_2(capsys, tmp_path, construction):
    out = tmp_path / "out"
    argv = ["export", "--builtin", "trefoil", "--construction", construction,
            "--q", "7", "--p", "14", "--out", str(out)]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert "no slope left" in err
    assert not out.exists()


def test_workers_env_produces_identical_outputs(capsys, tmp_path, monkeypatch):
    out1 = tmp_path / "serial"
    out2 = tmp_path / "parallel"
    argv = ["family", "--builtin", "unknot", "--q", "4", "--p", "1,3"]
    run(argv + ["--out", str(out1), "--no-cache"], capsys)
    monkeypatch.setenv("KNOTSURGERY_WORKERS", "2")
    run(argv + ["--out", str(out2), "--no-cache"], capsys)
    assert (out1 / "spectra.csv").read_bytes() == (out2 / "spectra.csv").read_bytes()


def test_cold_family_starts_no_process(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("family started a process pool")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", refuse)
    monkeypatch.setenv("KNOTSURGERY_WORKERS", "2")
    argv = ["family", "--builtin", "trefoil", "--q", "1", "--p", "1..6", "--out", str(tmp_path)]
    assert run(argv, capsys)[0] == 3
    assert json.loads((tmp_path / "run_meta.json").read_text())["cache_hits"] == 0
    assert len((tmp_path / "spectra.csv").read_text().splitlines()) == 1 + 6


def test_cold_and_warm_family_write_identical_spectra_and_cache(capsys, tmp_path):
    argv = ["family", "--builtin", "trefoil", "--q", "2", "--p=-5..5", "--out", str(tmp_path)]

    def snapshot():
        files = {"spectra.csv": (tmp_path / "spectra.csv").read_bytes()}
        for path in sorted((tmp_path / ".cache").glob("*")):
            files[path.name] = path.read_bytes()
        return files

    assert run(argv, capsys)[0] == 3
    cold = snapshot()
    assert json.loads((tmp_path / "run_meta.json").read_text())["cache_hits"] == 0
    assert run(argv, capsys)[0] == 3
    assert json.loads((tmp_path / "run_meta.json").read_text())["cache_hits"] == 6
    assert snapshot() == cold
    assert len(cold) == 1 + 1  # one entry for the knot and suite, whatever the slopes


def test_damaged_cache_entry_is_a_miss(capsys, tmp_path):
    argv = ["family", "--builtin", "fig8", "--q", "2", "--p", "1,3", "--out", str(tmp_path)]
    assert run(argv, capsys)[0] == 0
    spectra = (tmp_path / "spectra.csv").read_bytes()
    (entry,) = (tmp_path / ".cache").glob("*.json")
    text = entry.read_text()
    stale = json.loads(text)
    stale["lattices"][0][0] = "C7"
    for damaged in (text[: len(text) // 2], json.dumps(stale)):
        entry.write_text(damaged)
        code, _, err = run(argv, capsys)
        assert code == 0, err
        assert (tmp_path / "spectra.csv").read_bytes() == spectra
        assert json.loads((tmp_path / "run_meta.json").read_text())["cache_hits"] == 0
        assert entry.read_text() == text
        assert [p.name for p in (tmp_path / ".cache").iterdir()] == [entry.name]
    assert run(argv, capsys)[0] == 0
    assert json.loads((tmp_path / "run_meta.json").read_text())["cache_hits"] == 2


def test_cache_entry_of_another_version_is_a_miss(capsys, tmp_path, monkeypatch):
    argv = ["family", "--builtin", "trefoil", "--q", "1", "--p", "1,2", "--out", str(tmp_path)]
    assert run(argv, capsys)[0] == 0
    monkeypatch.setattr(cli, "__version__", "0.0.0+other")
    assert run(argv, capsys)[0] == 0
    assert json.loads((tmp_path / "run_meta.json").read_text())["cache_hits"] == 0
    assert len(list((tmp_path / ".cache").glob("*.json"))) == 2
    assert run(argv, capsys)[0] == 0
    assert json.loads((tmp_path / "run_meta.json").read_text())["cache_hits"] == 2


def test_bad_monodromy_files_exit_2(capsys, tmp_path):
    good = fibered_knot_to_json(builtin_monodromy("trefoil"))
    cases = {
        "image of 'a1'": dict(good, forward=dict(good["forward"], a1=[5])),
        "genus": dict(good, genus=MAX_GENUS + 1),
    }
    for i, (message, payload) in enumerate(cases.items()):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(payload))
        for command in (["knot"], ["family", "--out", str(tmp_path / str(i))]):
            code, _, err = run(command + ["--monodromy", str(path)], capsys)
            assert code == 2, (message, command)
            assert err.startswith("error:") and message in err
    big = tmp_path / "big.json"
    big.write_text(json.dumps(good).ljust(MAX_MONODROMY_BYTES + 1))
    for too_big in [big, *_DEV_ZERO]:
        code, _, err = run(["knot", "--monodromy", str(too_big)], capsys)
        assert code == 2, too_big
        assert "bytes" in err, too_big


@pytest.mark.parametrize("value", [1.7, 1.0, True, "1"])
@pytest.mark.parametrize("field", ["exponent", "genus"])
def test_monodromy_numbers_that_only_convert_to_ints_exit_2(capsys, tmp_path, field, value):
    # an exponent is the int +1 or -1 and the genus an int; neither is coerced
    payload = fibered_knot_to_json(builtin_monodromy("fig8"))
    if field == "genus":
        payload["genus"] = value
    else:
        payload["forward"]["a1"][0][1] = value
    path = tmp_path / "fig8.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(["knot", "--monodromy", str(path)], capsys)
    assert code == 2
    assert err.startswith("error:") and ("image of 'a1'" if field == "exponent" else "genus") in err


def test_malformed_suite_files_exit_2(capsys, tmp_path):
    shapes = {
        "entry without a name": [{"degree": 2, "generators": ["(1 2)"]}],
        "top-level object": {"name": "C2", "degree": 2, "generators": ["(1 2)"]},
        "non-object entry": [["C2", 2, ["(1 2)"]]],
        "degree below 1": [{"name": "C1", "degree": -3, "generators": []}],
        "repeated name": [{"name": "C2", "degree": 2, "generators": ["(1 2)"]}] * 2,
    }
    # a name is written unescaped into spectra.csv and the report, so one
    # that could forge a column or a line is refused, and so is the name of
    # spectra.csv's label column
    forged = "a,b\nsummary: 99/99 pairs distinguished"
    names = ["", forged, "a,b", 'S"3', "S 3", "S3\n", "\tS3", "S\x003", "S\u20283", "label"]
    for name in names:
        shapes[f"name {name!r}"] = [{"name": name, "degree": 3, "generators": ["(1 2)", "(1 2 3)"]}]
    for i, (shape, payload) in enumerate(shapes.items()):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / str(i)
        for command in (["knot"], ["family", "--p=1..3", "--out", str(out)], ["verify"]):
            code, _, err = run(command + ["--builtin", "fig8", "--targets", str(path)], capsys)
            assert code == 2, (shape, command)
            assert err.startswith("error:") and "target" in err, (shape, command)
        assert not out.exists(), shape


def _deeply_nested(path):
    # 16000 bytes, under MAX_MONODROMY_BYTES, but nested far past MAX_JSON_DEPTH,
    # and deeper than the JSON decoder recurses on CPython 3.11 and 3.12
    path.write_text("[" * 8000 + "]" * 8000)
    return path


def test_deeply_nested_monodromy_file_exits_2(capsys, tmp_path):
    path = _deeply_nested(tmp_path / "deep.json")
    assert path.stat().st_size <= MAX_MONODROMY_BYTES
    code, _, err = run(["knot", "--monodromy", str(path)], capsys)
    assert code == 2
    assert err.startswith("error:") and "nested too deeply" in err


def test_deeply_nested_suite_file_exits_2_when_loaded(capsys, tmp_path):
    path = _deeply_nested(tmp_path / "deep.json")
    code, _, err = run(["knot", "--builtin", "fig8", "--targets", str(path)], capsys)
    assert code == 2
    assert err.startswith("error:") and "nested too deeply" in err


def test_deeply_nested_suite_file_exits_2_when_named(capsys, tmp_path):
    path = _deeply_nested(tmp_path / "deep.json")
    argv = ["family", "--builtin", "fig8", "--targets", str(path), "--out", str(tmp_path / "out")]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error:") and "nested too deeply" in err


def test_deeply_nested_cache_entry_is_a_miss(capsys, tmp_path):
    argv = ["family", "--builtin", "fig8", "--q", "2", "--p", "1,3", "--out", str(tmp_path)]
    assert run(argv, capsys)[0] == 0
    spectra = (tmp_path / "spectra.csv").read_bytes()
    (entry,) = (tmp_path / ".cache").glob("*.json")
    written = entry.read_bytes()
    _deeply_nested(entry)
    code, _, err = run(argv, capsys)
    assert code == 0, err
    assert (tmp_path / "spectra.csv").read_bytes() == spectra
    assert json.loads((tmp_path / "run_meta.json").read_text())["cache_hits"] == 0
    assert entry.read_bytes() == written


def test_a_suite_file_is_refused_just_past_the_nesting_limit(capsys, tmp_path):
    # a suite nests 3 deep, and a field that the reader ignores may nest
    # deeper, up to the limit: the suite list, the entry object, then lists
    def suite(depth):
        note = 0
        for _ in range(depth - 2):
            note = [note]
        return [{"name": "C2", "degree": 2, "generators": ["(1 2)"], "note": note}]

    path = tmp_path / "suite.json"
    argv = ["knot", "--builtin", "fig8", "--targets", str(path)]
    path.write_text(json.dumps(suite(cli.MAX_JSON_DEPTH)))
    assert run(argv, capsys)[0] == 0
    path.write_text(json.dumps(suite(cli.MAX_JSON_DEPTH + 1)))
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: target-suite file {str(path)!r} is nested too deeply\n"


@pytest.mark.parametrize(
    "text, depth",
    [
        ("1", 0),
        ('{"a": [1, {"b": []}]}', 4),
        ('["[[[[", "]]}"]', 1),  # brackets in a string do not nest
        ('["\\"[[", [["\\\\"]]]', 3),  # nor after an escaped quote; \\ escapes no quote
        ('["é[", ["😀{"]]', 2),  # UTF-8 puts no ASCII byte inside a character
        ('["[[[', 1),  # a string left open runs to the end
        ("[" * 8000 + "]" * 8000, 8000),
    ],
)
def test_json_depth_counts_brackets_outside_strings(text, depth):
    assert cli._json_depth(text.encode()) == depth


_json_strings = st.text(st.characters(codec="utf-8"), max_size=4) | st.sampled_from(
    ["[", "]{", '"[', "\\", '\\"]', "\\["]
)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _json_strings,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_json_strings, inner, max_size=3),
    max_leaves=12,
)


def _nesting(value):
    if isinstance(value, (list, dict)):
        items = value.values() if isinstance(value, dict) else value
        return 1 + max(map(_nesting, items), default=0)
    return 0


@given(_json_values, st.booleans())
def test_json_depth_is_the_nesting_of_the_encoded_value(value, ascii):
    assert cli._json_depth(json.dumps(value, ensure_ascii=ascii).encode()) == _nesting(value)


_LATTICE_FIELDS = ("m", "c", "n", "count")  # a lattice's count is its weight
_RECORD_FIELDS = ("key", "size", "crc")  # of the manifest record


@pytest.mark.parametrize(
    "field, value",
    [("count", v) for v in ("1", 1.9, 1.0, True, 0, -1, None)]
    + [("name", v) for v in (2, None, ["C2"])]
    + [("schema_version", v) for v in (True, 1.0, "1")]
    + [("m", v) for v in (0, -1, False, 1.0)]
    + [("c", v) for v in (-1, "m", False, 0.0)]
    + [("n", v) for v in (0, -1, True, 1.0)]
    + [("name", "C7")]
    + [("targets", v) for v in ("drop", "extra", "swap")]
    + [("row", "repeat")]
    + [("manifest", v) for v in (None, "key", [], {"key": "k", "size": 0, "crc": 0}, "short", "long")]
    + [("key", v) for v in (None, 1, ["k"])]
    + [("size", v) for v in (-1, 1.0, True, "1", None)]
    + [("crc", v) for v in (-1, 2**32, 1.0, False, "0")],
)
def test_cache_entry_of_the_wrong_types_is_a_miss(capsys, tmp_path, field, value):
    # slope_lattices makes only int fields with m >= 1, 0 <= c < m, n >= 1 and
    # count >= 1, one entry per suite target in suite order, so no entry off
    # by one field was written by family; "m" puts c at m, just past its range,
    # and "repeat" gives the last lattice (m, c, n) a second row.  Nor did it
    # write a manifest record other than [key, size, crc32] with key a string,
    # size >= 0 and 0 <= crc32 < 2**32; "short" and "long" drop and add a field
    argv = ["family", "--builtin", "trefoil", "--p", "1..3", "--out", str(tmp_path)]
    code = run(argv, capsys)[0]
    spectra = (tmp_path / "spectra.csv").read_bytes()
    (entry,) = (tmp_path / ".cache").glob("*.json")
    written = entry.read_bytes()
    data = json.loads(written)
    lattices = data["lattices"]
    if field == "schema_version":
        data[field] = value
    elif field == "name":
        lattices[0][0] = value
    elif field == "targets":
        {"drop": lattices.pop, "extra": lambda: lattices.append(["C7", [[1, 0, 1, 1]]]),
         "swap": lambda: lattices.insert(0, lattices.pop(1))}[value]()
    elif field == "row":
        lattices[-1][1].append(lattices[-1][1][-1][:3] + [1])
    elif field == "manifest":
        record = data[field]
        data[field] = record[:2] if value == "short" else record + [0] if value == "long" else value
    elif field in _RECORD_FIELDS:
        data["manifest"][_RECORD_FIELDS.index(field)] = value
    else:
        row = lattices[-1][1][-1]
        row[_LATTICE_FIELDS.index(field)] = row[0] if value == "m" else value
    entry.write_text(json.dumps(data))
    assert run(argv, capsys)[0] == code
    assert json.loads((tmp_path / "run_meta.json").read_text())["cache_hits"] == 0
    assert (tmp_path / "spectra.csv").read_bytes() == spectra
    assert entry.read_bytes() == written


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64 - 2, max_value=2**80)
    | st.integers(min_value=-(2**80), max_value=-(2**64))
    # non-ASCII, control and quote characters, which JSON escapes
    | st.text(alphabet=st.characters(codec="utf-8"))
    | st.sampled_from(['"', "\\", "\n\t", "\x00", "é", " ", "😀"]),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)


# a cache entry of the trefoil's standard slope lattices: one field, name,
# lattice, target or manifest record field away from it.  An entry with no
# record is a hit, so "manifest" may be damaged but not dropped.
_ENTRY_FIELDS = ("schema_version", "lattices")
_WRONG_SCALARS = st.sampled_from([True, False, None, 0, -1, 1.0, 1.9, "1", "C2", [], {}])


@st.composite
def near_miss_entries(draw, entry: dict):
    damaged = json.loads(json.dumps(entry))
    edit = draw(st.sampled_from(
        ["field", "drop", "value", "name", "target", "row", "truncate", "extra"]
    ))
    targets = damaged["lattices"]
    i = draw(st.integers(0, len(targets) - 1))
    rows = targets[i][1]
    j = draw(st.integers(0, len(rows) - 1))
    if edit == "field":
        damaged[draw(st.sampled_from(_ENTRY_FIELDS + ("manifest",)))] = draw(_WRONG_SCALARS)
    elif edit == "drop":
        del damaged[draw(st.sampled_from(_ENTRY_FIELDS))]
    elif edit == "value":
        k, value = draw(st.integers(0, 3)), draw(_WRONG_SCALARS)
        assume(not (k == 1 and type(value) is int and value == 0))  # c = 0 may be a lattice
        rows[j][k] = value
    elif edit == "name":
        targets[i][0] = draw(_WRONG_SCALARS)
    elif edit == "target":
        targets[i] = draw(st.sampled_from([targets[i][:1], targets[i] + [1], targets[i][::-1], None]))
    elif edit == "row":
        rows[j] = draw(st.sampled_from([rows[j][:3], rows[j] + [1], None, rows[j] * 2]))
    elif edit == "truncate":
        del targets[i:]
    else:
        targets.append(["C7", [[1, 0, 1, 1]]])
    return damaged


@st.composite
def near_miss_records(draw, entry: dict):
    damaged = json.loads(json.dumps(entry))
    record = damaged["manifest"]
    if draw(st.booleans()):
        k, value = draw(st.integers(0, 2)), draw(_WRONG_SCALARS)
        # a string key, or a size or CRC-32 that is an int from 0 up, is a record
        assume(type(value) is not str if k == 0 else type(value) is not int or value < 0)
        record[k] = value
    else:
        damaged["manifest"] = draw(st.sampled_from([record[:2], record + [0], record[::-1]]))
    return damaged


def test_damaged_cache_entry_reads_as_a_miss(capsys, tmp_path):
    argv = ["family", "--builtin", "trefoil", "--p", "1..3", "--out", str(tmp_path)]
    code = run(argv, capsys)[0]
    clean = {name: (tmp_path / name).read_bytes() for name in ("spectra.csv", "distinguish_report.txt")}
    (entry,) = (tmp_path / ".cache").glob("*.json")
    written = json.loads(entry.read_text())
    damaged_values = st.one_of(
        json_values,
        near_miss_entries(written),
        near_miss_records(written),
        st.binary(max_size=64),
        st.just(b""),
    )

    @settings(max_examples=60, derandomize=True, database=None)
    @given(damaged_values)
    def warm_call_over(damaged):
        data = damaged if isinstance(damaged, bytes) else json.dumps(damaged).encode()
        # an equal value of another type (1.0, true) still differs in its JSON text
        assume(data != json.dumps(written).encode())
        entry.write_bytes(data)
        assert run(argv, capsys)[0] == code
        assert json.loads((tmp_path / "run_meta.json").read_text())["cache_hits"] == 0
        assert {name: (tmp_path / name).read_bytes() for name in clean} == clean
        assert json.loads(entry.read_text()) == written

    warm_call_over()


@pytest.mark.parametrize("damage", ["entry is a directory", "entry is a device", "cache is a file"])
def test_damaged_cache_directory_reads_as_a_miss(capsys, tmp_path, damage):
    if damage == "entry is a device" and not _DEV_ZERO:
        pytest.skip("no /dev/zero")
    clean_dir, damaged_dir = tmp_path / "clean", tmp_path / "damaged"
    argv = ["family", "--builtin", "trefoil", "--p", "1..3", "--out"]
    code = run(argv + [str(clean_dir)], capsys)[0]
    cache = damaged_dir / ".cache"
    if damage.startswith("entry"):
        run(argv + [str(damaged_dir)], capsys)
        (entry,) = cache.glob("*.json")
        entry.unlink()
        if damage == "entry is a directory":
            entry.mkdir()
        else:
            entry.symlink_to(_DEV_ZERO[0])
    else:
        damaged_dir.mkdir()
        cache.write_text("")
    assert run(argv + [str(damaged_dir)], capsys)[0] == code
    for name in ("spectra.csv", "distinguish_report.txt"):
        assert (damaged_dir / name).read_bytes() == (clean_dir / name).read_bytes()
    assert json.loads((damaged_dir / "run_meta.json").read_text())["cache_hits"] == 0
    assert not list(damaged_dir.rglob("*.tmp"))


def test_only_the_cli_imports_file_modules():
    # every file is read and written in cli; the other modules are pure
    # functions over parsed data
    package = Path(knotsurgery.__file__).parent
    importers = set()
    for source in package.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] in ("os", "pathlib", "hashlib") for m in modules):
                importers.add(source.name)
    assert importers == {"cli.py"}


def test_cli_reads_and_writes_files_in_one_place():
    # one bounded reader and one writer: every call in cli that opens, reads
    # or writes a file sits inside the top-level function _read_json or _write
    file_calls = {"open", "read_bytes", "read_text", "write_text", "write_bytes"}
    owners = set()
    for statement in ast.parse(Path(cli.__file__).read_text(encoding="utf-8")).body:
        owner = statement.name if isinstance(statement, ast.FunctionDef) else "<module>"
        for node in ast.walk(statement):
            if isinstance(node, ast.Call):
                callee = node.func
                name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                if name in file_calls:
                    owners.add(owner)
    assert owners == {"_read_json", "_write"}


def test_the_program_imports_only_the_standard_library():
    # no runtime dependency: every absolute import of the package and the
    # scripts names a standard-library module or the package itself
    root = Path(__file__).resolve().parents[1]
    allowed = sys.stdlib_module_names | {"knotsurgery"}
    foreign = []
    for source in [*(root / "src" / "knotsurgery").glob("*.py"), *(root / "scripts").glob("*.py")]:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            foreign += [(source.name, m) for m in modules if m.split(".")[0] not in allowed]
    assert foreign == []


def test_the_program_keeps_no_unused_import_or_private_name():
    # every module uses what it imports (the package's __init__ re-exports),
    # and every module-level private name is referenced somewhere in the
    # package; the one exception is bound only by bench/run.py
    trees = {
        source.stem: ast.parse(source.read_text(encoding="utf-8"))
        for source in Path(knotsurgery.__file__).parent.glob("*.py")
    }
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    leftovers = set()
    for module, tree in trees.items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for statement in tree.body:
            if isinstance(statement, (ast.Import, ast.ImportFrom)):
                if module == "__init__" or getattr(statement, "module", None) == "__future__":
                    continue
                imported = [(alias.asname or alias.name).split(".")[0] for alias in statement.names]
                leftovers.update(f"{module}.{name}" for name in imported if name not in used)
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                defined = [statement.name]
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            leftovers.update(
                f"{module}.{name}"
                for name in defined
                if name.startswith("_") and not name.startswith("__") and name not in referenced
            )
    assert leftovers == {"cli._spectrum_task"}


def test_the_package_exports_only_what_the_pipeline_calls():
    # every name the package's __init__ exports is referenced by one of its
    # other modules or named in a script or the benchmark
    package = Path(knotsurgery.__file__).parent
    root = package.parents[1]
    exported = set()
    referenced = set()
    for source in package.glob("*.py"):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        if source.name == "__init__.py":
            exported.update(
                alias.asname or alias.name
                for node in tree.body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names
            )
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    named = set()
    for source in [*(root / "scripts").glob("*.py"), *(root / "bench").glob("*.py")]:
        named.update(re.findall(r"\w+", source.read_text(encoding="utf-8")))
    assert exported - referenced - named == set()


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["knot", "--monodromy", "identity.json"], 1),
        (["family", "--monodromy", "identity.json", "--p=-3..3"], 1),
        (["verify", "--builtin", "trefoil", "--q", "7", "--p", "14"], 2),
        (["export", "--builtin", "trefoil", "--construction", "surgery", "--q", "7", "--p", "14"], 2),
        (["export", "--builtin", "trefoil", "--construction", "knot", "--q", "7", "--p", "14"], 2),
        (["family", "--builtin", "trefoil", "--q", "0"], 2),
    ],
)
def test_a_failed_command_makes_no_output_directory(capsys, tmp_path, monkeypatch, argv, expected):
    monkeypatch.chdir(tmp_path)
    Path("identity.json").write_text(json.dumps(identity_monodromy(1)))
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)], capsys)[0] == expected
    assert not out.exists()


@pytest.mark.parametrize("command", ["family", "export"])
def test_a_command_that_writes_files_requires_out(capsys, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    code, out, err = run([command, "--builtin", "trefoil"], capsys)
    assert (code, out, err) == (2, "", f"error: {command} requires --out\n")
    assert list(tmp_path.iterdir()) == []


def test_a_slope_set_with_no_p_coprime_to_q_is_refused_before_the_knot_loads(
    capsys, tmp_path, monkeypatch
):
    loads = []
    load_knot = cli.load_knot
    monkeypatch.setattr(cli, "load_knot", lambda config: loads.append(config) or load_knot(config))
    commands = [["family"], ["verify"]] + [
        ["export", "--construction", c] for c in ("surgery", "half", "double", "knot")
    ]
    for argv in commands:
        out = tmp_path / "out"
        code, stdout, err = run([*argv, "--builtin", "fig8", "--q=2", "--p=2,4", "--out", str(out)], capsys)
        assert (code, stdout) == (2, "skip p=2: gcd(p, 2) != 1\nskip p=4: gcd(p, 2) != 1\n"), argv
        assert err == "error: no slope left after gcd filter\n", argv
        assert not out.exists(), argv
    assert loads == []


# a legal braid whose longitude has 7134 letters, so 140 is the largest |p|
# whose filling relator word_power builds
LONG_LONGITUDE_BRAID = "-1 2 -1 2 -1 2 -1 2 -1 2 -1 2 -1 2 -1 -1"


@pytest.mark.parametrize(
    "argv, power",
    [
        (["family", "--p=1..200"], 141),
        (["verify", "--p=139..142"], 141),
        (["export", "--construction", "surgery", "--p=1..1000"], 141),
        (["export", "--construction", "half", "--p=1..1000"], 141),
        (["export", "--construction", "double", "--p=1..1000"], 141),
        # the first p kept after the gcd filter, in input order
        (["family", "--q=2", "--p=1,142,-143,141"], -143),
        (["verify", "--q=2", "--p=1,142,-143,141"], -143),
    ],
)
def test_a_slope_past_the_word_limit_is_refused_before_anything_is_built(
    capsys, tmp_path, monkeypatch, argv, power
):
    calls = []
    for name in ("family_members", "validate_peripheral", "dehn_surgery_group"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: calls.append(name))
    out = tmp_path / "out"
    code, stdout, err = run([*argv, "--braid", LONG_LONGITUDE_BRAID, "--out", str(out)], capsys)
    assert (code, stdout) == (2, "")
    assert err == f"error: a word of 7134 letters to the power {power} exceeds 1000000 letters\n"
    assert not out.exists()
    assert calls == []


def test_the_largest_slope_under_the_word_limit_still_exports(capsys, tmp_path):
    argv = ["export", "--braid", LONG_LONGITUDE_BRAID, "--construction", "half", "--p=140"]
    code, stdout, err = run([*argv, "--out", str(tmp_path)], capsys)
    assert (code, err) == (0, "")
    assert stdout == f"wrote {tmp_path / 'half_q1_p140.g'}\n"
    assert (tmp_path / "half_q1_p140.g").stat().st_size > 140 * 7134


@pytest.mark.parametrize("construction", ["surgery", "half", "double"])
def test_export_refuses_slopes_whose_longitude_powers_total_past_its_limit(
    capsys, tmp_path, monkeypatch, construction
):
    # each p in 1..140 is under the word limit, but together they come to
    # 9870 * 7134 letters, about 310 MB of scripts
    calls = []
    for name in ("dehn_surgery_group", "family_members"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: calls.append(name))
    out = tmp_path / "out"
    argv = ["export", "--braid", LONG_LONGITUDE_BRAID, "--construction", construction]
    code, stdout, err = run([*argv, "--p=1..140", "--out", str(out)], capsys)
    assert (code, stdout) == (2, "")
    assert err == (
        "error: the slopes' longitude powers would total 70412580 letters,"
        " past the export limit 10000000\n"
    )
    assert not out.exists()
    assert calls == []
    # the gcd filter runs first: at q = 2 only the odd p count
    code, _, err = run([*argv, "--q=2", "--p=1..140", "--out", str(out)], capsys)
    assert code == 2 and "total 34956600 letters" in err


def test_family_refuses_slopes_whose_longitude_powers_total_past_the_export_limit(
    capsys, tmp_path, monkeypatch
):
    # each p in 1..140 is under the word limit, but the manifest would hold
    # 9870 * 7134 longitude letters, about 5 GB of JSON; nothing is searched,
    # built or written
    calls = []
    for name in ("family_members", "validate_peripheral", "compute_spectra"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: calls.append(name))
    out = tmp_path / "out"
    argv = ["family", "--braid", LONG_LONGITUDE_BRAID, "--no-cache", "--out", str(out)]
    code, stdout, err = run([*argv, "--p=1..140"], capsys)
    assert (code, stdout) == (2, "")
    assert err == (
        "error: the slopes' longitude powers would total 70412580 letters,"
        " past the family limit 10000000\n"
    )
    assert not out.exists()
    assert calls == []
    # the gcd filter runs first: at q = 2 only the odd p count, and prints no
    # skip line before the refusal
    code, stdout, err = run([*argv, "--q=2", "--p=1..140"], capsys)
    assert (code, stdout) == (2, "") and "total 34956600 letters" in err
    assert not out.exists()


def test_family_output_limit_counts_only_the_kept_slopes(capsys, tmp_path, monkeypatch):
    # p = 1..52 comes to 1378 * 7134 = 9830652 letters, under the limit, and
    # 1..53 to 1431 * 7134, past it; at q = 2 the even p are skipped, so 1..53
    # keeps 27 slopes of 729 * 7134 letters
    class Reached(Exception):
        pass

    kept = []

    def spectra(slopes, *args):
        kept.append(len(slopes))
        raise Reached

    monkeypatch.setattr(cli, "compute_spectra", spectra)
    argv = ["family", "--braid", LONG_LONGITUDE_BRAID, "--no-cache", "--out", str(tmp_path / "out")]
    code, _, err = run([*argv, "--p=1..53"], capsys)
    assert code == 2 and "total 10208754 letters" in err and kept == []
    for p_spec in ("--q=2", "--p=1..53"), ("--p=1..52",):
        with pytest.raises(Reached):
            main([*argv, *p_spec])
    assert kept == [27, 52]


def test_option_strings_of_each_subcommand():
    # a new option is a new setting: add one only when some caller varies it
    parser = cli.build_parser()
    (subcommands,) = (
        action.choices for action in parser._actions if action.dest == "command"
    )
    source = ["--braid", "--builtin", "--monodromy"]
    slopes = ["--q", "--p"]
    expected = {
        "knot": source + ["--targets", "--out"],
        "family": source + ["--targets", "--out", "--no-cache"] + slopes,
        "verify": source + ["--targets", "--out"] + slopes,
        "export": source + ["--out"] + slopes + ["--construction"],
    }
    found = {
        name: [
            option
            for action in sub._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        ]
        for name, sub in subcommands.items()
    }
    assert found == expected


def test_family_reads_the_monodromy_file_once(capsys, tmp_path, monkeypatch):
    path = tmp_path / "fig8.json"
    path.write_text(json.dumps(fibered_knot_to_json(builtin_monodromy("fig8"))))
    reads = []
    _after_each_read(monkeypatch, reads.append)
    argv = ["family", "--monodromy", str(path), "--p=-3..3", "--out", str(tmp_path / "out")]
    for _ in range(2):  # cold, then warm
        reads.clear()
        assert run(argv, capsys)[0] == 3
        assert [read for read in reads if read.parent.name != ".cache"] == [path]


def test_knot_from_monodromy_file(capsys, tmp_path):
    path = tmp_path / "trefoil.json"
    path.write_text(json.dumps(fibered_knot_to_json(builtin_monodromy("trefoil"))))
    code, out, _ = run(["knot", "--monodromy", str(path)], capsys)
    assert code == 0
    assert "alexander: t^2 - t + 1" in out
    assert "meridian: m" in out


T25_MONODROMY = Path(__file__).resolve().parent / "torus_2_5_monodromy.json"


def test_the_genus_2_monodromy_of_t25_reads_as_its_braid(capsys):
    # the paper's genus > 1 case through the mapping torus: every check
    # passes and agrees with the Wirtinger route of the braid 1^5
    code, out, _ = run(["knot", "--monodromy", str(T25_MONODROMY)], capsys)
    assert code == 0
    assert "genus hint: 2" in out
    shared = [
        "  abelianization-is-Z: PASS (H1 = Z, meridian generates: True)",
        "  peripheral-commutation: PASS (1240 homomorphisms over 12 targets)",
        "alexander: t^4 - t^3 + t^2 - t + 1",
    ]
    assert set(shared) <= set(out.splitlines())
    assert "  longitude-nullhomologous: PASS" in out
    code, braid_out, _ = run(["knot", "--braid", "1 1 1 1 1"], capsys)
    assert code == 0
    assert set(shared) <= set(braid_out.splitlines())


def test_the_genus_2_monodromy_of_t25_has_the_spectra_of_its_braid(capsys, tmp_path):
    # slope p on the monodromy is slope p on the braid, with no relabelling;
    # the inverse monodromy gives the mirror, where p reads as -p
    inverse = json.loads(T25_MONODROMY.read_text())
    inverse["forward"], inverse["backward"] = inverse["backward"], inverse["forward"]
    (tmp_path / "inverse.json").write_text(json.dumps(inverse))
    spectra = {}
    for name, source in [
        ("monodromy", ["--monodromy", str(T25_MONODROMY)]),
        ("braid", ["--braid", "1 1 1 1 1"]),
        ("inverse", ["--monodromy", str(tmp_path / "inverse.json")]),
    ]:
        out = tmp_path / name
        argv = ["family", *source, "--q", "1", "--p=-3..3", "--no-cache", "--out", str(out)]
        assert run(argv, capsys)[0] == 3
        spectra[name] = (out / "spectra.csv").read_text()
    assert spectra["monodromy"] == spectra["braid"]
    rows = spectra["braid"].splitlines()
    assert rows[5] == "p=1,1,1,1,1,1,1,1,121,1,121,1,1"
    assert rows[3] == "p=-1,1,1,1,1,1,1,1,1,1,1,1,1"
    counts = [row.partition(",")[2] for row in rows[1:]]
    assert [row.partition(",")[2] for row in spectra["inverse"].splitlines()[1:]] == counts[::-1]


def test_the_genus_2_monodromy_of_t25_has_the_extended_spectra_of_its_braid(capsys, tmp_path):
    # the search solves the mapping-torus relator for the monodromy group's
    # third generator, which no relator links, so this takes under a second
    spectra = {}
    for name, source in [
        ("monodromy", ["--monodromy", str(T25_MONODROMY)]),
        ("braid", ["--braid", "1 1 1 1 1"]),
    ]:
        out = tmp_path / name
        argv = ["family", *source, "--q", "1", "--p=-3..3", "--targets", "extended",
                "--no-cache", "--out", str(out)]
        assert run(argv, capsys)[0] == 3
        spectra[name] = (out / "spectra.csv").read_text()
    assert spectra["monodromy"] == spectra["braid"]
    assert spectra["braid"].splitlines()[5] == (
        "p=1,1,1,1,1,1,1,1,121,1,121,1,1,1,1441,1,2641,1441,1,1,54721"
    )


@pytest.mark.parametrize("q, passes", [(1, 7), (2, 4)])
def test_the_genus_2_monodromy_of_t25_verifies_as_its_braid(capsys, q, passes):
    # both surgery routes and the peripheral tables of the mapping torus,
    # slope by slope, print what the braid 1^5 prints
    outs = []
    for source in (["--monodromy", str(T25_MONODROMY)], ["--braid", "1 1 1 1 1"]):
        code, out, _ = run(["verify", *source, "--q", str(q), "--p=-3..3"], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0].count("spectra over 12 targets: PASS\n") == passes


def test_importing_the_cli_loads_no_process_pool():
    src = Path(knotsurgery.__file__).resolve().parents[1]
    code = "import sys, knotsurgery.cli; print('concurrent.futures' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_names_the_benchmark_binds_exist():
    # bench/run.py and bench/workloads.py look these names up to trace, time
    # or configure the program, so deleting one breaks the benchmark even
    # where no code in the package calls it.
    pinned = [
        (cli, "WORKERS_ENV"),
        (cli, "ProcessPoolExecutor"),
        (cli, "_spectrum_task"),
        (cli, "compute_spectra"),
        (surgery, "double_complement_group"),
        (homcount, "iter_homomorphisms"),
        (fpgroup, "tietze_simplify_tracked"),
        (homcount, "count_homomorphisms"),
        (knots, "validate_peripheral"),
        (smith, "abelianization"),
        (alexander, "fox_alexander"),
        (braids, "wirtinger_from_braid"),
        (surgery, "build_family"),
        (surgery, "dehn_surgery_group"),
        (surgery, "half_complement_group"),
        (cli, "cmd_family"),
        (cli, "cmd_verify"),
        (cli, "cmd_export"),
        (cli, "cmd_knot"),
        (cli, "main"),
        (targets, "close_target"),
        (targets, "standard_suite"),
        (targets, "escalation_suite"),
        (knots, "fibered_knot_to_json"),
    ]
    # and these through the package itself
    pinned += [
        (knotsurgery, name)
        for name in (
            "BraidWord", "SurgerySlope", "abelianization", "build_family", "builtin_knot",
            "builtin_monodromy", "dehn_surgery_group", "fox_alexander",
            "half_complement_group", "hom_spectrum", "standard_suite", "tietze_simplify",
            "validate_peripheral", "wirtinger_from_braid",
        )
    ]
    for module, name in pinned:
        assert hasattr(module, name), f"{module.__name__}.{name}"


def test_what_the_benchmark_reads_off_results_exists(capsys, tmp_path):
    # bench/run.py, bench/workloads.py and bench/checks.py also read these
    # attributes off the program's results and call these methods, and
    # replace the demo's escalation_suite by its global name
    for closer in (targets.standard_suite, targets.escalation_suite):
        assert callable(closer.cache_clear)
    suite = targets.standard_suite()
    kp = builtin_knot("fig8")
    assert knots.validate_peripheral(kp, suite[:2]).ok is True
    h1 = smith.abelianization(kp.group)
    assert (h1.is_infinite_cyclic, h1.is_trivial) == (True, False)
    poly = alexander.fox_alexander(kp)
    assert (poly.min_exponent(), poly.max_exponent()) == (0, 2)
    assert (poly.coefficient(1), poly.evaluate(1)) == (-3, -1)
    family = surgery.build_family(kp, 1, [2, 3])
    assert [member.slope.p for member in family.members] == [2, 3]
    group = fpgroup.tietze_simplify(family.members[1].presentation)
    assert smith.abelianization(group).is_trivial
    direct = homcount.hom_spectrum(group, suite)
    assert [name for name, _ in direct.entries] == [target.name for target in suite]

    config = cli.RunConfig("builtin", "fig8", p_values=(2, 3), out_dir=tmp_path)
    assert config.cache and config.out_dir == tmp_path
    slopes = [member.slope for member in family.members]
    for expected_hits in (0, 2):
        spectra, hits = cli.compute_spectra(slopes, config, "builtin:fig8", kp)
        assert (spectra[1], hits) == (direct, expected_hits)
    argv = ["family", "--builtin", "fig8", "--p", "2,3", "--out", str(tmp_path)]
    assert run(argv, capsys)[0] == 3
    assert json.loads((tmp_path / "run_meta.json").read_text())["cache_hits"] == 2

    script = Path(__file__).resolve().parents[1] / "scripts" / "fig8_family_demo.py"
    spec = importlib.util.spec_from_file_location("fig8_family_demo", script)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    assert demo.escalation_suite is targets.escalation_suite
    assert "escalation_suite" in demo.main.__code__.co_names


def test_module_entry_point():
    src = Path(knotsurgery.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "knotsurgery", "knot", "--builtin", "trefoil"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == "knot: builtin trefoil"
    assert "alexander: t^2 - t + 1" in result.stdout


@pytest.mark.parametrize(
    "argv, expected", [(["--builtin", "trefoil"], 0), (["--braid", "1 x"], 2)]
)
def test_console_main_exits_with_the_code_of_main(capsys, monkeypatch, argv, expected):
    monkeypatch.setattr(sys, "argv", ["knotsurgery", "knot", *argv])
    with pytest.raises(SystemExit) as exited:
        cli.console_main()
    assert exited.value.code == expected


def test_elapsed_ms_survives_a_wall_clock_step_back(capsys, tmp_path, monkeypatch):
    # every reading of the wall clock is an hour before the last
    clock = itertools.count(2_000_000_000.0, -3600.0)
    monkeypatch.setattr(cli.time, "time", lambda: next(clock))
    argv = ["family", "--builtin", "trefoil", "--q", "1", "--p", "1,2", "--out", str(tmp_path)]
    code, _, err = run(argv, capsys)
    assert code == 0, err
    assert json.loads((tmp_path / "run_meta.json").read_text())["elapsed_ms"] >= 0


def test_reused_parser_keeps_no_state_between_calls(capsys, tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    common = ["family", "--builtin", "trefoil", "--p", "1"]
    assert run(common + ["--q=2", "--no-cache", "--out", str(first)], capsys)[0] == 0
    assert run(common + ["--out", str(second)], capsys)[0] == 0
    assert cli.build_parser() is cli.build_parser()
    assert json.loads((first / "family_manifest.json").read_text())["q"] == 2
    assert not (first / ".cache").exists()
    assert json.loads((second / "family_manifest.json").read_text())["q"] == 1
    assert len(list((second / ".cache").glob("*.json"))) == 1
