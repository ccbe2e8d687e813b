import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

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
from knotsurgery.cli import MAX_P_VALUES, main, parse_p_spec
from knotsurgery.knots import (
    MAX_GENUS,
    MAX_MONODROMY_BYTES,
    builtin_monodromy,
    fibered_knot_to_json,
)
from knotsurgery.surgery import MAX_ABS_P, MAX_Q
from knotsurgery.targets import DEFAULT_CLOSURE_CAP, MAX_SUITE_BYTES, MAX_TARGET_DEGREE


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
    assert "empty family" in err


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


def test_verify_unknot(capsys):
    code, out, _ = run(["verify", "--builtin", "unknot", "--q", "3", "--p", "1"], capsys)
    assert code == 0
    assert "Z/3" in out
    assert "PASS" in out


def test_verify_trefoil_multiple_slopes(capsys):
    code, out, _ = run(["verify", "--builtin", "trefoil", "--q", "1", "--p", "1,2,3"], capsys)
    assert code == 0
    assert out.count("PASS") == 3


def test_verify_fails_when_the_table_side_disagrees(capsys, monkeypatch):
    argv = ["verify", "--builtin", "trefoil", "--q", "1", "--p", "1,2"]
    expected = run(argv, capsys)[1]
    monkeypatch.setattr(cli, "slope_count", lambda table, target, q, p: -1)
    code, out, _ = run(argv, capsys)
    assert code == 1
    assert out == expected.replace("PASS", "FAIL")


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
    psl = next(e for e in targets._escalation_entries() if e["name"] == "PSL2_19")
    for copies, expected in ((2, 0), (3, 4)):
        path = tmp_path / f"{copies}.json"
        path.write_text(json.dumps([dict(psl, name=f"P{i}") for i in range(copies)]))
        code, _, err = run(["knot", "--builtin", "unknot", "--targets", str(path)], capsys)
        assert code == expected, err
    assert "'P2' exceeded cap 1267" in err
    assert "what the 2 entries before it left of the suite's table budget" in err
    assert f"{DEFAULT_CLOSURE_CAP}^2 = {DEFAULT_CLOSURE_CAP**2}" in err


def test_suite_file_just_past_the_byte_limit(capsys, tmp_path):
    c2 = json.dumps([{"name": "C2", "degree": 2, "generators": ["(1 2)"]}])
    at_limit = tmp_path / "at.json"
    at_limit.write_text(c2.ljust(MAX_SUITE_BYTES))
    past = tmp_path / "past.json"
    past.write_text(c2.ljust(MAX_SUITE_BYTES + 1))
    code, _, _ = run(["knot", "--builtin", "unknot", "--targets", str(at_limit)], capsys)
    assert code == 0
    for command in (["knot"], ["family", "--out", str(tmp_path / "out")]):
        code, _, err = run(command + ["--builtin", "unknot", "--targets", str(past)], capsys)
        assert code == 2, command
        assert f"past the limit {MAX_SUITE_BYTES}" in err, command
    # the cache key reads the file through the same bounded reader
    assert cli._suite_fingerprint(str(at_limit)).startswith("file:")
    with pytest.raises(KnotSurgeryError, match="past the limit"):
        cli._suite_fingerprint(str(past))


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
    assert len(cold) == 1 + 6


def test_damaged_cache_entry_is_a_miss(capsys, tmp_path):
    argv = ["family", "--builtin", "fig8", "--q", "2", "--p", "1,3", "--out", str(tmp_path)]
    assert run(argv, capsys)[0] == 0
    spectra = (tmp_path / "spectra.csv").read_bytes()
    entries = sorted((tmp_path / ".cache").glob("*.json"))
    assert len(entries) == 2
    text = entries[0].read_text()
    entries[0].write_text(text[: len(text) // 2])
    stale = json.loads(entries[1].read_text())
    stale["counts"][0][0] = "C7"
    entries[1].write_text(json.dumps(stale))
    code, _, err = run(argv, capsys)
    assert code == 0, err
    assert (tmp_path / "spectra.csv").read_bytes() == spectra
    assert json.loads((tmp_path / "run_meta.json").read_text())["cache_hits"] == 0
    assert json.loads(entries[0].read_text())["counts"] == json.loads(text)["counts"]
    assert sorted(p.name for p in (tmp_path / ".cache").iterdir()) == [e.name for e in entries]
    assert run(argv, capsys)[0] == 0
    assert json.loads((tmp_path / "run_meta.json").read_text())["cache_hits"] == 2


def test_cache_entry_of_another_version_is_a_miss(capsys, tmp_path, monkeypatch):
    argv = ["family", "--builtin", "trefoil", "--q", "1", "--p", "1,2", "--out", str(tmp_path)]
    assert run(argv, capsys)[0] == 0
    monkeypatch.setattr(cli, "__version__", "0.0.0+other")
    assert run(argv, capsys)[0] == 0
    assert json.loads((tmp_path / "run_meta.json").read_text())["cache_hits"] == 0
    assert len(list((tmp_path / ".cache").glob("*.json"))) == 4
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
    code, _, err = run(["knot", "--monodromy", str(big)], capsys)
    assert code == 2
    assert "bytes" in err


def test_malformed_suite_files_exit_2(capsys, tmp_path):
    shapes = {
        "entry without a name": [{"degree": 2, "generators": ["(1 2)"]}],
        "top-level object": {"name": "C2", "degree": 2, "generators": ["(1 2)"]},
        "non-object entry": [["C2", 2, ["(1 2)"]]],
    }
    for i, (shape, payload) in enumerate(shapes.items()):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(payload))
        for command in (["knot"], ["family", "--out", str(tmp_path / str(i))]):
            code, _, err = run(command + ["--builtin", "fig8", "--targets", str(path)], capsys)
            assert code == 2, (shape, command)
            assert err.startswith("error:") and "target" in err, (shape, command)


def _deeply_nested(path):
    # 16000 bytes, under MAX_MONODROMY_BYTES, but deeper than the JSON decoder recurses
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
    entry = sorted((tmp_path / ".cache").glob("*.json"))[0]
    _deeply_nested(entry)
    code, _, err = run(argv, capsys)
    assert code == 0, err
    assert (tmp_path / "spectra.csv").read_bytes() == spectra
    assert json.loads((tmp_path / "run_meta.json").read_text())["cache_hits"] == 1


def test_verify_and_export_with_no_slope_left_exit_2(capsys, tmp_path):
    for command in ("verify", "export"):
        argv = [command, "--builtin", "trefoil", "--q=2", "--p=2,4", "--out", str(tmp_path / command)]
        code, out, err = run(argv, capsys)
        assert code == 2, command
        assert out == "skip p=2: gcd(p, 2) != 1\nskip p=4: gcd(p, 2) != 1\n"
        assert err.startswith("error:") and "no slope" in err
    assert [path for path in tmp_path.rglob("*") if path.is_file()] == []


def test_option_strings_of_each_subcommand():
    # a new option is a new setting: add one only when some caller varies it
    parser = cli.build_parser()
    (subcommands,) = (
        action.choices for action in parser._actions if action.dest == "command"
    )
    common = ["--braid", "--builtin", "--monodromy", "--targets", "--out", "--no-cache"]
    slopes = common + ["--q", "--p"]
    expected = {
        "knot": common,
        "family": slopes,
        "verify": slopes,
        "export": slopes + ["--construction"],
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
    read_bytes = Path.read_bytes

    def counting_read_bytes(self):
        reads.append(self)
        return read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
    argv = ["family", "--monodromy", str(path), "--p=-3..3", "--out", str(tmp_path / "out")]
    for _ in range(2):  # cold, then warm
        reads.clear()
        assert run(argv, capsys)[0] == 3
        assert reads == [path]


def test_knot_from_monodromy_file(capsys, tmp_path):
    path = tmp_path / "trefoil.json"
    path.write_text(json.dumps(fibered_knot_to_json(builtin_monodromy("trefoil"))))
    code, out, _ = run(["knot", "--monodromy", str(path)], capsys)
    assert code == 0
    assert "alexander: t^2 - t + 1" in out
    assert "meridian: m" in out


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


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "knotsurgery", "knot", "--builtin", "unknot"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "alexander: 1" in result.stdout


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64 - 2, max_value=2**80)
    | st.integers(min_value=-(2**80), max_value=-(2**64))
    # non-ASCII, control and quote characters all need escaping
    | st.text(alphabet=st.characters(codec="utf-8"))
    | st.sampled_from(['"', "\\", "\n\t", "\x00", "é", " ", "😀"]),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)


@given(json_values)
@example({"a": [[], {}, ()], "b": {"c": {}}, "": [None, True, False, 0, 2**70]})
def test_json_writer_matches_json_dumps(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, [1.5], {"a": 1.5}, {1: 2}, {"a": [{None: 0}]}, {"a": {1, 2}}])
def test_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._dumps(value)


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
    assert cli._parser() is cli._parser()
    assert json.loads((first / "family_manifest.json").read_text())["q"] == 2
    assert not (first / ".cache").exists()
    assert json.loads((second / "family_manifest.json").read_text())["q"] == 1
    assert len(list((second / ".cache").glob("*.json"))) == 1
