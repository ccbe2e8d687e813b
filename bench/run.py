#!/usr/bin/env python3
"""knotsurgery benchmark: one workload per run, one JSON result line.

    python3 bench/run.py --workload fig8-escalate|knot-census|cli-family \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/`` of the
checkout the script sits in, never from an installed copy.  With ``--trace
0`` the result carries the end-to-end metrics, measured untraced.  With
``--trace 1`` it carries the per-layer metrics: the timed phase runs once
untraced and once under the tracer, and ``trace.overhead_ratio`` is the
ratio of the two solve times.  End-to-end times are in seconds at reference
speed (``speed.py``), so that the shared host's changing speed does not show
as a change of the program; the raw wall times go to stderr.  Notes, census
listings and failure details go to stderr; the last line of stdout is the
result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import BUSY, INFO, NAME, Tracer  # noqa: E402
import speed  # noqa: E402

LAYERS = ("targets", "homcount", "fpgroup", "surgery", "braids", "knots", "smith", "alexander", "cli")

# Names of the standard and bundled escalation targets, for per-target self time.
TARGET_NAMES = (
    "C2", "C3", "C4", "C5", "C6", "S3", "S4", "S5", "A4", "A5", "D4", "D5",
    "PSL2_7", "A6", "PSL2_8", "PSL2_11", "S6", "PSL2_13", "PSL2_17", "PSL2_19",
)

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}

PER_LAYER = {
    "targets.close_s": "s",
    "targets.elements": "count",
    "targets.table_bytes_computed": "bytes",
    "targets.alloc_peak_mb": "MB",
    "homcount.calls": "count",
    "homcount.self_s": "s",
    **{f"homcount.self_s.{name}": "s" for name in TARGET_NAMES},
    "homcount.homs": "count",
    "homcount.naive_space": "count",
    "homcount.hit_ratio": "ratio",
    "homcount.iter_s": "s",
    "homcount.iter_yields": "count",
    "fpgroup.tietze_calls": "count",
    "fpgroup.tietze_s": "s",
    "fpgroup.gens_out_mean": "count",
    "fpgroup.share_ge3": "ratio",
    "knots.peripheral_s": "s",
    "knots.peripheral_calls": "count",
    "smith.abelianization_s": "s",
    "smith.calls": "count",
    "alexander.fox_s": "s",
    "braids.wirtinger_s": "s",
    "surgery.build_s": "s",
    "surgery.calls": "count",
    "cli.family_s": "s",
    "cli.verify_s": "s",
    "cli.export_s": "s",
    "cli.knot_s": "s",
    "cli.compute_spectra_s": "s",
    "cli.cache_hits": "count",
    "cli.cache_misses": "count",
    "cli.cache_hit_ratio": "ratio",
    "cli.bytes_written": "bytes",
    "cli.pool_child_cpu_s": "s",
    "cli.pool_idle_s": "s",
    "cli.warm_p50_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "host.kernel_ms": "ms",
    "host.solve_wall_s": "s",
}

# Set-up (import and closure) is repeated and its median reported; closing
# the escalation suite takes seconds, the standard suite milliseconds.
SETUP_REPLICATES = {"escalation": 3, "standard": 15}


class SetupError(Exception):
    pass


def _load_file(name: str, path: Path):
    if not path.is_file():
        raise SetupError(f"missing {path.relative_to(ROOT)}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def set_up(suites) -> tuple[float, float]:
    """One set-up from scratch; returns its wall interval.

    Drops any earlier import, then imports the package, its CLI and the demo
    from this checkout's ``src/`` and closes every named suite.
    """
    src = ROOT / "src"
    if not (src / "knotsurgery" / "__init__.py").is_file():
        raise SetupError(f"no knotsurgery package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    earlier = sys.modules.get("knotsurgery.targets")
    if earlier is not None:
        for suite in SETUP_REPLICATES:
            getattr(earlier, f"{suite}_suite").cache_clear()
    for name in list(sys.modules):
        if name.split(".")[0] in ("knotsurgery", "fig8_family_demo"):
            del sys.modules[name]
    gc.collect()
    started = time.perf_counter()
    importlib.import_module("knotsurgery.cli")
    _load_file("fig8_family_demo", ROOT / "scripts" / "fig8_family_demo.py")
    targets = sys.modules["knotsurgery.targets"]
    for suite in suites:
        getattr(targets, f"{suite}_suite")()
    return started, time.perf_counter()


class Program:
    """The program under test, as the last ``set_up`` imported it."""

    def __init__(self, meter: speed.SpeedMeter) -> None:
        self.meter = meter
        import knotsurgery

        src = ROOT / "src"
        if Path(knotsurgery.__file__).resolve().parent != (src / "knotsurgery").resolve():
            raise SetupError(f"imported knotsurgery from {knotsurgery.__file__}, not {src}")
        self.demo = sys.modules["fig8_family_demo"]
        self.ks = knotsurgery
        for layer in LAYERS:
            setattr(self, layer, sys.modules[f"knotsurgery.{layer}"])
        self.namespaces = [knotsurgery, self.demo] + [getattr(self, layer) for layer in LAYERS]
        # The independent oracle the test suite uses; reused, not copied.
        self.naive_hom_count = _load_file("knotsurgery_conftest", ROOT / "tests" / "conftest.py").naive_hom_count
        self.tracer: Tracer | None = None

    def begin_op(self, op_id) -> None:
        if self.tracer is not None:
            self.tracer.op = op_id

    def close_suites(self, suites) -> tuple[float, float]:
        """Close every named suite afresh; returns the wall interval it took."""
        started = time.perf_counter()
        for suite in suites:
            closer = getattr(self.targets, f"{suite}_suite")
            closer.cache_clear()
            closer()
        return started, time.perf_counter()


def install_tracer(prog: Program, tracer: Tracer) -> None:
    """Wrap each layer's public functions under every name callers use."""
    m, spaces = prog, prog.namespaces

    def naive(presentation, target) -> int:
        return target.order ** len(presentation.generators)

    tracer.patch(spaces, m.homcount.count_homomorphisms, "homcount.count_homomorphisms",
                 lambda a, k, r: (a[1].name, naive(a[0], a[1]), r))
    tracer.patch(spaces, m.homcount.iter_homomorphisms, "homcount.iter_homomorphisms",
                 lambda a, k, r: (a[1].name, naive(a[0], a[1])), kind="iter")
    tracer.patch(spaces, m.fpgroup.tietze_simplify_tracked, "fpgroup.tietze_simplify",
                 lambda a, k, r: len(r[0].generators))
    tracer.patch(spaces, m.knots.validate_peripheral, "knots.validate_peripheral")
    tracer.patch(spaces, m.smith.abelianization, "smith.abelianization")
    tracer.patch(spaces, m.alexander.fox_alexander, "alexander.fox_alexander")
    tracer.patch(spaces, m.braids.wirtinger_from_braid, "braids.wirtinger_from_braid")
    for name in ("build_family", "dehn_surgery_group", "half_complement_group", "double_complement_group"):
        tracer.patch(spaces, getattr(m.surgery, name), f"surgery.{name}")
    for command in ("family", "verify", "export", "knot"):
        tracer.patch(spaces, getattr(m.cli, f"cmd_{command}"), f"cli.{command}")

    def cache_info(args, kwargs, result):
        presentations, config = args[0], args[1]
        tags = args[2] if len(args) > 2 else kwargs.get("cache_tags")
        hits = result[1]
        cached = config.cache and config.out_dir is not None and tags is not None
        return (hits, len(presentations) - hits if cached else 0)

    tracer.patch(spaces, m.cli.compute_spectra, "cli.compute_spectra", cache_info)
    tracer.patch(spaces, m.cli._spectrum_task, "cli.spectrum_task", kind="task")
    tracer.watch_pools(m.cli)
    tracer.count_writes(Path)


# Closes the named suites in a fresh interpreter and prints the peak RSS the
# closure added, in KB.  ru_maxrss would carry the parent's peak across the
# exec; the VmHWM line of /proc/self/status starts afresh.
_CLOSE_IN_CHILD = """
import re, sys
sys.path.insert(0, sys.argv[1])
import knotsurgery.targets as targets

def hwm():
    with open("/proc/self/status") as fh:
        return int(re.search(r"VmHWM:\\s+(\\d+)", fh.read()).group(1))

base = hwm()
for suite in sys.argv[2:]:
    getattr(targets, suite + "_suite")()
print(hwm() - base)
"""


def closure_peak_kb(suites) -> int:
    """Peak RSS that one closure of the suites adds, in KB.

    Measured in a fresh interpreter, where no freed memory is left to reuse.
    (tracemalloc would see every int the closure's loops make; under it the
    escalation suite took 73 s to close instead of 2.5 s.)
    """
    done = subprocess.run([sys.executable, "-c", _CLOSE_IN_CHILD, str(ROOT / "src"), *suites],
                          capture_output=True, text=True, timeout=120, check=True)
    return int(done.stdout.split()[-1])


def closure_metrics(prog: Program, suites) -> dict:
    """targets.* from one traced closure of the suites and one in a child process."""
    tracer = Tracer()
    tracer.patch([prog.targets], prog.targets.close_target, "targets.close_target",
                 lambda a, k, r: r.order)
    try:
        prog.close_suites(suites)
    finally:
        tracer.restore()
    orders = [span[INFO] for span in tracer.spans]
    peak_kb = closure_peak_kb(suites)
    return {
        "targets.close_s": sum(span[BUSY] for span in tracer.spans),
        "targets.elements": sum(orders),
        "targets.table_bytes_computed": 8 * sum(n * n for n in orders),
        "targets.alloc_peak_mb": peak_kb / 1024,
    }


def layer_metrics(tracer: Tracer) -> dict:
    spans, own = tracer.spans, tracer.self_times()
    out = {name: 0 for name in PER_LAYER}

    def of(name):
        return [(span, own[i]) for i, span in enumerate(spans) if span[NAME] == name]

    def layer(prefix):
        return [(span, own[i]) for i, span in enumerate(spans) if span[NAME].startswith(prefix)]

    counts = of("homcount.count_homomorphisms")
    iters = of("homcount.iter_homomorphisms")
    for span, t in counts + iters:
        out[f"homcount.self_s.{span[INFO][0]}"] += t
    out["homcount.calls"] = len(counts) + len(iters)
    out["homcount.self_s"] = sum(t for _, t in counts + iters)
    out["homcount.homs"] = sum(span[INFO][2] for span, _ in counts + iters)
    out["homcount.naive_space"] = sum(span[INFO][1] for span, _ in counts + iters)
    if out["homcount.naive_space"]:
        out["homcount.hit_ratio"] = out["homcount.homs"] / out["homcount.naive_space"]
    out["homcount.iter_s"] = sum(span[BUSY] for span, _ in iters)
    out["homcount.iter_yields"] = sum(span[INFO][2] for span, _ in iters)

    tietze = of("fpgroup.tietze_simplify")
    gens = [span[INFO] for span, _ in tietze]
    out["fpgroup.tietze_calls"] = len(tietze)
    out["fpgroup.tietze_s"] = sum(t for _, t in tietze)
    if gens:
        out["fpgroup.gens_out_mean"] = sum(gens) / len(gens)
        out["fpgroup.share_ge3"] = sum(g >= 3 for g in gens) / len(gens)

    out["knots.peripheral_s"] = sum(t for _, t in of("knots.validate_peripheral"))
    out["knots.peripheral_calls"] = len(of("knots.validate_peripheral"))
    out["smith.abelianization_s"] = sum(t for _, t in of("smith.abelianization"))
    out["smith.calls"] = len(of("smith.abelianization"))
    out["alexander.fox_s"] = sum(t for _, t in of("alexander.fox_alexander"))
    out["braids.wirtinger_s"] = sum(t for _, t in of("braids.wirtinger_from_braid"))
    out["surgery.build_s"] = sum(t for _, t in layer("surgery."))
    out["surgery.calls"] = len(layer("surgery."))

    for command in ("family", "verify", "export", "knot"):
        out[f"cli.{command}_s"] = sum(span[BUSY] for span, _ in of(f"cli.{command}"))
    spectra = of("cli.compute_spectra")
    out["cli.compute_spectra_s"] = sum(span[BUSY] for span, _ in spectra)
    out["cli.cache_hits"] = sum(span[INFO][0] for span, _ in spectra)
    out["cli.cache_misses"] = sum(span[INFO][1] for span, _ in spectra)
    lookups = out["cli.cache_hits"] + out["cli.cache_misses"]
    if lookups:
        out["cli.cache_hit_ratio"] = out["cli.cache_hits"] / lookups
    out["cli.bytes_written"] = tracer.bytes_written
    if tracer.pools:
        out["cli.pool_idle_s"] = sum(wall * n for wall, n in tracer.pools) - tracer.remote_busy
    return out


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its label.

    With ten ops or fewer no percentile has ten beyond it; the slowest op is
    reported as p100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100 * (n - 10) / n


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be 1..60")

    workload_cls = workloads.WORKLOADS[args.workload]
    suites = workload_cls.suites
    replicates = 0 if args.trace else min(SETUP_REPLICATES[s] for s in suites)
    meter = speed.SpeedMeter()
    setups = []
    try:
        meter.tick()
        with meter.ticking():
            for _ in range(max(1, replicates)):
                setups.append(set_up(suites))
        meter.tick()
        prog = Program(meter)
    except (SetupError, ImportError) as exc:
        print(f"bench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    setup_s = statistics.median(meter.scaled(*span) for span in setups)
    setup_wall_s = statistics.median(meter.scaled(*span, at_reference=False) for span in setups)

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        metrics: dict = {}
        if args.trace:
            metrics.update(closure_metrics(prog, suites))
        workload = workload_cls(prog, args.seed, args.seconds, work)
        started = time.perf_counter()
        meter.tick()
        with meter.ticking():
            passes = [workload.run()]
        meter.tick()
        passes[0].measure(meter)
        if args.trace:
            tracer = Tracer(remote_dir=work, meter=meter)
            install_tracer(prog, tracer)
            prog.tracer = tracer
            cpu_before = children_cpu()
            try:
                with meter.ticking():
                    passes.append(workload.run())
            finally:
                prog.tracer = None
                tracer.restore()
            meter.tick()
            passes[1].measure(meter)
            cpu = children_cpu() - cpu_before
            tracer.collect_remote()
            metrics = {**layer_metrics(tracer), **metrics}
            metrics["cli.pool_child_cpu_s"] = cpu if tracer.pools else 0
            metrics["host.kernel_ms"] = meter.kernel_ms()
            metrics["host.solve_wall_s"] = meter.scaled(passes[0].started, passes[0].ended, False)
            if passes[0].warm_latencies:
                metrics["cli.warm_p50_ms"] = 1000 * statistics.median(passes[0].warm_latencies)
            metrics["trace.overhead_ratio"] = passes[1].solve_s / passes[0].solve_s
            spans_file = ROOT / ".bench_work" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(spans_file)
            print(f"bench: {len(tracer.spans)} spans written to {spans_file.relative_to(ROOT)}",
                  file=sys.stderr)
        timed = time.perf_counter() - started
        attempted = failed = 0
        for done in passes:
            bad, messages = workload.check(done)
            attempted += len(done.latencies)
            failed += min(bad, len(done.latencies))
            for message in messages:
                print(f"bench: CHECK FAILED: {message}", file=sys.stderr)
        setup_note = f"set-up {setup_s:.3f}s (median of {replicates})" if replicates else "set-up traced"
        print(f"bench: {setup_note}, timed {timed:.1f}s, "
              f"checks {time.perf_counter() - started - timed:.1f}s", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first = passes[0]
    tail_s, tail_pct = tail(first.latencies)
    if not args.trace:
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {
            "setup_s": setup_s,
            "solve_s": first.solve_s,
            "peak_rss_mb": rss_kb / 1024,
            "op_p50_ms": 1000 * statistics.median(first.latencies),
            "op_tail_ms": 1000 * tail_s,
        }
    names = PER_LAYER if args.trace else END_TO_END
    if not args.trace:
        wall_ops = [meter.scaled(*span, at_reference=False) for span in first.intervals]
        print(f"bench: wall time: set-up {setup_wall_s:.3f}s, solve {meter.scaled(first.started, first.ended, False):.3f}s, "
              f"op p50 {1000 * statistics.median(wall_ops):.3f}ms, tail {1000 * tail(wall_ops)[0]:.3f}ms; "
              f"kernel median {meter.kernel_ms():.2f} ms over {len(meter.durations)} ticks "
              f"(reference speed: {1000 * speed.REF_NOMINAL_S:.0f} ms)", file=sys.stderr)
    print(f"bench: {args.workload} seed={args.seed}: {len(first.latencies)} ops, "
          f"tail is p{tail_pct:.1f}, failed_ratio={failed}/{attempted}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()},
    }
    if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
        print(f"bench: a metric is not finite: {result['metrics']}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
