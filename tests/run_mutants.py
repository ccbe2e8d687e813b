"""Run the standing list of seeded mutants against the tests that must kill them.

Each entry of tests/mutants.json names a file, an exact old string that
occurs in it once, its replacement, and the ids of the tests that must fail
once the replacement is made.  The runner copies src/ to a temporary
directory, runs every named test against the unmutated copy, where each must
pass, and then, for each entry in turn, makes the one replacement in the
copy, runs that entry's tests there, each of which must fail, and undoes it.
Tier-1 does not collect this file; pytest imports it as a plugin of the runs
it starts, to report each test's outcome.

Usage, from any directory, with pytest and hypothesis installed:

    python tests/run_mutants.py

Exit status 0 when every mutant is killed, 1 when one lives or a named test
does not pass unmutated, and 2 when an old string does not occur once.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = Path(__file__).with_name("mutants.json")
_OUTCOMES = "MUTANT_OUTCOMES"  # the file a run writes each test's outcome to

_seen: dict[str, str] = {}


def pytest_runtest_logreport(report) -> None:
    # a test fails if any phase fails; it passes if its call passes
    if report.failed:
        _seen[report.nodeid] = "failed"
    elif report.when == "call":
        _seen.setdefault(report.nodeid, report.outcome)


def pytest_sessionfinish(session) -> None:
    Path(os.environ[_OUTCOMES]).write_text(json.dumps(_seen))


def outcomes(src: Path, tests: list[str]) -> dict[str, str]:
    """Each named test's outcome ("passed", "failed" or "skipped") against
    the package under src; a test that did not run is left out."""
    record = src.parent / "outcomes.json"
    paths = (str(src), str(ROOT / "tests"), os.environ.get("PYTHONPATH", ""))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    # no bytecode is kept, so a mutant of a file's size is never read stale
    env.update({_OUTCOMES: str(record), "PYTHONDONTWRITEBYTECODE": "1"})
    record.unlink(missing_ok=True)
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "run_mutants", "-p", "no:cacheprovider"]
    subprocess.run(argv + tests, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, timeout=600)
    return json.loads(record.read_text()) if record.exists() else {}


def main() -> int:
    entries = json.loads(MUTANTS.read_text())
    with tempfile.TemporaryDirectory() as scratch:
        src = Path(scratch) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        originals = {}
        for entry in entries:
            path = entry["file"]
            originals.setdefault(path, (src / Path(path).relative_to("src")).read_text())
            if originals[path].count(entry["old"]) != 1:
                print(f"{entry['name']}: its old string does not occur once in {path}")
                return 2
        tests = sorted({test for entry in entries for test in entry["killed_by"]})
        unmutated = outcomes(src, tests)
        failing = [test for test in tests if unmutated.get(test) != "passed"]
        for test in failing:
            print(f"unmutated: {test} {unmutated.get(test, 'did not run')}")
        lived = 0
        for entry in entries:
            path = entry["file"]
            target = src / Path(path).relative_to("src")
            target.write_text(originals[path].replace(entry["old"], entry["new"]))
            mutated = outcomes(src, entry["killed_by"])
            target.write_text(originals[path])
            alive = [test for test in entry["killed_by"] if mutated.get(test) != "failed"]
            lived += bool(alive)
            verdict = f"lives: {', '.join(alive)}" if alive else "killed"
            print(f"{entry['name']}: {verdict}")
    print(f"{len(entries) - lived} of {len(entries)} mutants killed")
    return 1 if lived or failing else 0


if __name__ == "__main__":
    sys.exit(main())
