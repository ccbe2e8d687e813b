"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import itertools
import json
import re
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import census  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
import speed  # noqa: E402
from speed import SpeedMeter  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def prog():
    run.set_up(("standard",))
    return run.Program(SpeedMeter())


def test_metric_names_are_well_formed_and_match_benchmark_json():
    for name in [*run.END_TO_END, *run.PER_LAYER]:
        assert NAME.fullmatch(name), name
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_census_generator_is_deterministic_and_yields_only_knots(prog):
    first = list(itertools.islice(census.knot_braids(5), 200))
    assert first == list(itertools.islice(census.knot_braids(5), 200))
    assert first != list(itertools.islice(census.knot_braids(6), 200))
    assert {len(b) for b in first} == {6, 8, 10, 12}
    for letters in first:
        assert census.closes_to_knot(letters)
        prog.ks.BraidWord(census.STRANDS, letters)  # raises NotAKnotError otherwise


def test_pool_is_the_seed_zero_stream_and_holds_the_hard_core():
    pool = census.load_pool()
    stream = census.knot_braids(census.POOL_SEED)
    assert [k["braid"] for k in pool] == [census.braid_text(next(stream)) for _ in pool]
    by_braid = {k["braid"]: k for k in pool}
    assert all(by_braid[b]["gens"] == 3 for b in workloads.HARD_CORE)


def test_fig8_checker_rejects_a_perturbed_count():
    assert checks.check_fig8_count(2, "PSL2_17", 4897) == []
    assert checks.check_fig8_count(6, "S5", 1) == []
    assert checks.check_fig8_count(2, "PSL2_17", 4898)
    assert checks.check_fig8_count(3, "PSL2_19", 6841)


def test_fig8_demo_checker_rejects_a_perturbed_table():
    walked = ["PSL2_7"]
    good = (
        "escalating to PSL2_7 (order 168) for [1, 2, 3, 4, 5, 6]: "
        "{1: 337, 2: 337, 3: 337, 4: 1, 5: 673, 6: 1} [0.2s]\n"
        + "".join(f"  p={a} vs p={b}: separated by PSL2_7 (x vs y)\n"
                  for a, b, t in checks.REFERENCES["fig8"]["separations"] if t == "PSL2_7")
    )
    assert checks.check_fig8_demo(good, 3, walked) == []
    assert checks.check_fig8_demo(good.replace("5: 673", "5: 674"), 3, walked)
    assert checks.check_fig8_demo(good, 0, walked)


def test_census_checker_rejects_a_perturbed_count(prog):
    ks = prog.ks
    entry = next(k for k in census.load_pool() if k["gens"] == 2)
    letters = tuple(int(x) for x in entry["braid"].split())
    op = workloads.census_op(ks, letters, 2, ks.standard_suite())
    op["oracle_target"] = "S4"
    s4 = next(t for t in ks.standard_suite() if t.name == "S4")
    naive = prog.naive_hom_count(op["routes"][0][0], s4)
    assert checks.check_census_op(op, entry["alexander"], naive) == []
    assert checks.check_census_op(op, entry["alexander"], naive + 1)
    group, ab, spectrum = op["routes"][1]
    entries = tuple((n, c + (n == "A5")) for n, c in spectrum.entries)
    op["routes"][1] = (group, ab, type(spectrum)(entries))
    assert checks.check_census_op(op, entry["alexander"], naive)


def test_family_exit_code_follows_the_report():
    assert checks.family_exit_code("summary: 3/3 pairs distinguished\n") == 0
    assert checks.family_exit_code("summary: 2/3 pairs distinguished\n") == 3


def test_self_time_subtracts_children():
    module = types.SimpleNamespace()

    def inner():
        return 1

    def outer():
        return module.inner() + module.inner()

    module.inner, module.outer = inner, outer
    tracer = Tracer()
    tracer.patch([module], inner, "a.inner")
    tracer.patch([module], outer, "b.outer")
    assert module.outer() == 2
    tracer.restore()
    assert module.inner is inner and module.outer is outer
    names = [span[0] for span in tracer.spans]
    assert names == ["b.outer", "a.inner", "a.inner"]
    own = tracer.self_times()
    busy = [span[3] for span in tracer.spans]
    assert own[0] == pytest.approx(busy[0] - busy[1] - busy[2])


def test_tail_keeps_ten_samples_beyond():
    value, percentile = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and percentile == 90.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_speed_meter_scales_program_time_and_leaves_ticks_out():
    meter = SpeedMeter()
    # Two ticks at half the reference speed around 1 s of program time,
    # then one at the reference speed.
    meter.starts, meter.ends = [0.0, 1.02, 3.02], [0.02, 1.04, 3.03]
    meter.durations = [0.02, 0.02, 0.01]
    half = speed.REF_NOMINAL_S / 0.02
    assert meter.scaled(0.02, 1.02) == pytest.approx(1.0 * half)
    assert meter.scaled(0.02, 1.02, at_reference=False) == pytest.approx(1.0)
    # Across a tick: the tick's 0.02 s is left out, each side keeps its own scale.
    three_quarter = speed.REF_NOMINAL_S / 0.015
    assert meter.scaled(0.52, 2.04) == pytest.approx(0.5 * half + 1.0 * three_quarter)
    assert meter.scaled(0.52, 2.04, at_reference=False) == pytest.approx(1.5)
    meter.tick()
    assert len(meter.durations) == 4 and meter.durations[-1] > 0
