"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from knotsurgery.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", text, flags=re.S | re.M)
    (python,) = [body for lang, body in blocks if lang == "python"]
    commands = [
        shlex.split(line)[1:]
        for lang, body in blocks
        if lang == ""
        for line in body.splitlines()
        if line.startswith("knotsurgery ")
    ]
    # the monodromy file is a JSON object and the suite file a list
    (monodromy,) = [body for lang, body in blocks if lang == "json" and body.startswith("{")]
    (suite,) = [body for lang, body in blocks if lang == "json" and body.startswith("[")]
    (export_sample,) = [body for _, body in blocks if body.startswith("F := FreeGroup(")]

    exec(compile(python, str(README), "exec"), {})

    monkeypatch.chdir(tmp_path)
    assert {argv[0] for argv in commands} == {"knot", "family", "verify", "export"}
    for argv in commands:
        # the standard suite leaves pairs of the fig8 family unresolved,
        # and the extended suite separates every pair
        expected = 3 if argv[0] == "family" and "extended" not in argv else 0
        assert main(argv) == expected, argv

    (tmp_path / "monodromy.json").write_text(monodromy)
    (tmp_path / "suite.json").write_text(suite)
    argv = ["knot", "--monodromy", "monodromy.json", "--targets", "suite.json"]
    assert main(argv) == 0

    # the export line writes the sample the README shows
    assert (tmp_path / "out" / "surgery_q1_p1.g").read_text() == export_sample
