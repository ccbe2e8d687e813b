"""Pin the CLI's outputs: digests of stdout, exit codes, output files and cache names.

A fixed matrix of commands, knot sources and slopes runs in-process, and every
observable result is compared against the table in cli_outputs.json.  After an
intended change of output, regenerate the table from the repository root with

    PYTHONPATH=src python tests/test_cli_outputs.py > tests/cli_outputs.json

and review the cases whose entries changed.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from knotsurgery import cli
from knotsurgery.knots import builtin_monodromy, fibered_knot_to_json

TABLE = Path(__file__).with_name("cli_outputs.json")
VERSION = "0.0.0+pinned"
SOURCES = {
    "trefoil": ["--builtin", "trefoil"],
    "fig8": ["--builtin", "fig8"],
    "braid": ["--braid", "-2 -2 -2 -2 -1 -1 -2 -1"],
    "monodromy": ["--monodromy", "fig8.json"],
}
COMMANDS = [
    ("family-cold", ["family"]),
    ("family-warm", ["family"]),
    ("verify", ["verify"]),
] + [(f"export-{c}", ["export", "--construction", c]) for c in ("surgery", "half", "double", "knot")]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _outcome(argv: list[str], out: str) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv + ["--out", out])
    outcome = {"exit": code, "stdout": _digest(stdout.getvalue().encode())}
    root = Path(out)
    for path in sorted(root.glob("*")):
        if path.is_file() and path.name != "run_meta.json":
            outcome[path.name] = _digest(path.read_bytes())
    cache_names = sorted(path.name for path in root.glob(".cache/*"))
    if cache_names:
        outcome[".cache"] = _digest("\n".join(cache_names).encode())
    return outcome


def collect() -> dict:
    """Run the matrix in the current directory and return its outcomes by case."""
    Path("fig8.json").write_text(json.dumps(fibered_knot_to_json(builtin_monodromy("fig8"))))
    outcomes = {}
    for source, source_args in SOURCES.items():
        for q in (1, 2):
            slopes = ["--q", str(q), "--p=-3..3"]
            for name, command in COMMANDS:
                # the warm pass reads the cache that the cold pass wrote
                out = f"{source}-{name.replace('-warm', '-cold')}-q{q}"
                outcomes[f"{source}/{name}/q{q}"] = _outcome(command + source_args + slopes, out)
        outcomes[f"{source}/knot"] = _outcome(["knot"] + source_args, f"{source}-knot")
    # the bundled escalation targets, on one family small enough to search them in about a second
    extended = ["family", "--targets", "extended"] + SOURCES["fig8"] + ["--q", "1", "--p=-3..3"]
    for name in ("family-cold", "family-warm"):
        outcomes[f"fig8/extended/{name}/q1"] = _outcome(extended, "fig8-extended-q1")
    # a valid monodromy whose mapping torus is no knot group (H1 = Z^3):
    # knot, family and verify stop after the failed peripheral checks
    identity = {"a1": [["a1", 1]], "b1": [["b1", 1]]}
    Path("identity.json").write_text(
        json.dumps({"genus": 1, "forward": identity, "backward": identity})
    )
    outcomes["identity/knot"] = _outcome(["knot", "--monodromy", "identity.json"], "identity-knot")
    for command in ("family", "verify"):
        argv = [command, "--monodromy", "identity.json", "--q", "1", "--p=-3..3"]
        outcomes[f"identity/{command}/q1"] = _outcome(argv, f"identity-{command}-q1")
    return outcomes


def test_cli_outputs_match_the_pinned_table(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "__version__", VERSION)
    expected = json.loads(TABLE.read_text())
    actual = collect()
    assert actual.keys() == expected.keys()
    for case, outcome in expected.items():
        assert actual[case] == outcome, case


if __name__ == "__main__":
    cli.__version__ = VERSION
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        table = collect()
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
