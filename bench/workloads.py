"""The three workloads.  Each is closed loop: one process, one request at a time.

A workload class has ``suites`` (the target suites its set-up closes), a
constructor that makes the seeded inputs (untimed), ``run`` (the timed
phase, called once untraced and, in a traced run, once more under the
tracer) and ``check`` (the correctness references, applied after timing).
``run`` returns a ``Pass``: the wall-clock interval of the phase and of each
op, plus whatever ``check`` needs.  ``Pass.measure`` turns the intervals into
times at reference speed (see ``speed.py``).  ``prog.begin_op`` runs before
every op.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import census
import checks
from spans import Tracer


@dataclass
class Pass:
    started: float = 0.0
    ended: float = 0.0
    intervals: list[tuple[float, float]] = field(default_factory=list)  # one per op
    warm_intervals: list[tuple[float, float]] = field(default_factory=list)
    raised: int = 0
    results: list = field(default_factory=list)
    # Filled by measure(), in seconds at reference speed.
    solve_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    warm_latencies: list[float] = field(default_factory=list)

    def measure(self, meter) -> None:
        self.solve_s = meter.scaled(self.started, self.ended)
        self.latencies = [meter.scaled(*span) for span in self.intervals]
        self.warm_latencies = [meter.scaled(*span) for span in self.warm_intervals]


def _note(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------- fig8-escalate

# The escalation is walked through PSL2_13 (order 1092), where p=4 and p=6
# separate; p=2 and p=3 stay tied.  Their remaining steps cost about 26 s
# (PSL2_17, where they tie at 4897) and 60 s (PSL2_19, which separates them)
# on a 2-core machine, which the run budget cannot hold 26 times; they come
# back once the search is reduced by conjugacy class.
FIG8_LAST_TARGET = "PSL2_13"


class Fig8Escalate:
    name = "fig8-escalate"
    suites = ("standard", "escalation")

    def __init__(self, prog, seed: int, seconds: int, work: Path) -> None:
        self.prog = prog
        full = prog.targets.escalation_suite()
        names = [t.name for t in full]
        self.walked = names[: names.index(FIG8_LAST_TARGET) + 1]
        _note(f"fig8-escalate: fixed inputs (seed {seed} unused), q=1, p=1..6, "
              f"escalation through {FIG8_LAST_TARGET}")

    def run(self) -> Pass:
        prog = self.prog
        demo = prog.demo
        walked = tuple(t for t in prog.targets.escalation_suite() if t.name in self.walked)
        done = Pass()
        counts = []
        original = prog.homcount.count_homomorphisms

        def count_op(presentation, target, *args, **kwargs):
            # One op is one escalation step: the counts of the groups still
            # tied into one escalation target, made one after another.  The
            # standard spectra's counts take well under a millisecond each;
            # they are timed in solve_s only.
            escalating = target.name in self.walked
            step = bool(escalating and counts and counts[-1][1] == target.name)
            if escalating:
                prog.begin_op(len(done.intervals) - step)
            t0 = time.perf_counter()
            result = original(presentation, target, *args, **kwargs)
            if step:
                done.intervals[-1] = (done.intervals[-1][0], time.perf_counter())
            elif escalating:
                done.intervals.append((t0, time.perf_counter()))
            counts.append((presentation, target.name, result))
            return result

        clock = Tracer()
        clock.replace(prog.namespaces, original, count_op)
        saved_suite, saved_argv = demo.escalation_suite, sys.argv
        demo.escalation_suite = lambda: walked
        sys.argv = [demo.__file__, "6"]
        out = io.StringIO()
        code = None
        done.started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = demo.main()
        except Exception:  # a failed request is reported, not fatal
            traceback.print_exc()
            done.raised = 1
        finally:
            done.ended = time.perf_counter()
            demo.escalation_suite, sys.argv = saved_suite, saved_argv
            clock.restore()
        done.results.append((out.getvalue(), code, counts))
        return done

    def check(self, done: Pass) -> tuple[int, list[str]]:
        ks = self.prog.ks
        family = ks.build_family(ks.builtin_knot("fig8"), 1, range(1, 7))
        p_of = {ks.tietze_simplify(m.presentation): m.slope.p for m in family.members}
        stdout, code, counts = done.results[0]
        if done.raised:
            return 1, ["the demo raised"]
        messages = checks.check_fig8_demo(stdout, code, self.walked)
        for presentation, target, count in counts:
            messages += checks.check_fig8_count(p_of.get(presentation), target, count)
        return int(bool(messages)), messages


# ---------------------------------------------------------------- knot-census

# Knots drawn per braid length (6, 8, 10, 12) at --seconds 20, by the class
# the pool records: groups Tietze reduced to Z, and groups left at 2
# generators.  Drawing a fixed number per length keeps a run's mix, and so
# its cost, the same from seed to seed.
CENSUS_UNKNOTS = 6
CENSUS_TWO = 40
# Fixed slow core: knots left at 3 generators, a figure-eight and a trefoil,
# about 5-11 s per op on a 2-core machine at the seed commit.  They are fixed,
# with a seeded nonzero slope (p=0 would make both routes trivial), because
# 3-generator knots cost 0.4-37 s each: drawing them per seed would make
# solve_s depend on the draw.
HARD_CORE = ("-1 -2 -2 1 1 -2 2 2", "1 -2 1 1 -2 2 1 2")
NONZERO_SLOPES = tuple(p for p in census.SLOPES if p)


def census_op(ks, letters: tuple[int, ...], p: int, suite) -> dict:
    """One knot: presentation, invariants, peripheral check, both surgery routes."""
    kp = ks.wirtinger_from_braid(ks.BraidWord(census.STRANDS, letters))
    h1 = ks.abelianization(kp.group)
    alexander = ks.fox_alexander(kp)
    report = ks.validate_peripheral(kp, suite)
    slope = ks.SurgerySlope(p, 1)
    routes = []
    for build in (ks.dehn_surgery_group, ks.half_complement_group):
        group = ks.tietze_simplify(build(kp, slope))
        routes.append((group, ks.abelianization(group), ks.hom_spectrum(group, suite)))
    return {"h1": h1, "alexander": alexander, "peripheral_ok": report.ok, "routes": routes}


class KnotCensus:
    name = "knot-census"
    suites = ("standard",)

    def __init__(self, prog, seed: int, seconds: int, work: Path) -> None:
        self.prog = prog
        rng = random.Random(seed)
        pool = census.load_pool()
        by_braid = {k["braid"]: k for k in pool}
        scale = seconds / 20
        picks = [(by_braid[b], rng.choice(NONZERO_SLOPES)) for b in HARD_CORE]
        for length in range(census.MIN_LENGTH, census.MAX_LENGTH + 1, 2):
            for gens, quota in ((1, CENSUS_UNKNOTS), (2, CENSUS_TWO)):
                stratum = [k for k in pool if k["gens"] == gens and len(k["braid"].split()) == length]
                drawn = rng.sample(stratum, max(1, round(quota * scale)))
                # Every slope equally often within a stratum, in seeded order.
                slopes = [census.SLOPES[i % len(census.SLOPES)] for i in range(len(drawn))]
                rng.shuffle(slopes)
                picks += zip(drawn, slopes)
        rng.shuffle(picks)
        small = [t.name for t in prog.ks.standard_suite() if t.order <= 24]
        self.items = [(k, p, rng.choice(small)) for k, p in picks]
        for k, p, target in self.items:
            _note(f"knot-census: braid [{k['braid']}] gens={k['gens']} p={p} q=1 oracle={target}")

    def run(self) -> Pass:
        ks = self.prog.ks
        suite = ks.standard_suite()
        done = Pass()
        done.started = time.perf_counter()
        for op_id, (k, p, target) in enumerate(self.items):
            letters = tuple(int(x) for x in k["braid"].split())
            self.prog.begin_op(op_id)
            t0 = time.perf_counter()
            try:
                result = census_op(ks, letters, p, suite)
            except Exception:  # a failed request is reported, not fatal
                traceback.print_exc()
                done.raised += 1
                result = None
            done.intervals.append((t0, time.perf_counter()))
            if result is not None:
                result["oracle_target"] = target
            done.results.append(result)
        done.ended = time.perf_counter()
        return done

    def check(self, done: Pass) -> tuple[int, list[str]]:
        by_name = {t.name: t for t in self.prog.ks.standard_suite()}
        failed, messages = done.raised, []
        for (k, p, target), result in zip(self.items, done.results):
            if result is None:
                continue
            group = result["routes"][0][0]
            naive = self.prog.naive_hom_count(group, by_name[target])
            bad = checks.check_census_op(result, k["alexander"], naive)
            failed += bool(bad)
            messages += [f"braid [{k['braid']}] p={p}: {m}" for m in bad]
        return failed, messages


# ---------------------------------------------------------------- cli-family

CLI_SESSIONS = 6  # at --seconds 20
CLI_WARM_ROUNDS = 4
CLI_QS = (1, 2, 3)
CLI_P = "--p=-6..6"  # "--p -6..6" would parse -6..6 as a flag
CLI_BRAID_LENGTH = 8  # census braids of one length keep warm-pass cost seed-independent


class CliFamily:
    """Sessions of CLI calls; each starts from an empty output tree.

    A session runs one cold ``family`` pass over every (source, q) with a
    2-worker pool, which fills the cache, then ``CLI_WARM_ROUNDS`` warm passes
    that read it, interleaved with ``verify``, ``export`` and ``knot`` on
    every source.
    Sources are trefoil, fig8, the bundled fig8 monodromy written to a file,
    and two census braids that the seed draws afresh for each session.
    """

    name = "cli-family"
    suites = ("standard",)

    def __init__(self, prog, seed: int, seconds: int, work: Path) -> None:
        self.prog = prog
        self.work = work
        rng = random.Random(seed)
        monodromy = work / "fig8_monodromy.json"
        monodromy.write_text(json.dumps(prog.knots.fibered_knot_to_json(
            prog.ks.builtin_monodromy("fig8"))), encoding="utf-8")
        fixed = [["--builtin", "trefoil"], ["--builtin", "fig8"], ["--monodromy", str(monodromy)]]
        braids = [k["braid"] for k in census.load_pool()
                  if k["gens"] == 2 and len(k["braid"].split()) == CLI_BRAID_LENGTH]
        self.sessions = []
        for _ in range(max(1, round(CLI_SESSIONS * seconds / 20))):
            drawn = rng.sample(braids, 2)
            self.sessions.append(fixed + [["--braid", b] for b in drawn])
            _note(f"cli-family: session {len(self.sessions)}: census braids {drawn}, "
                  f"q in {CLI_QS}, {CLI_P}")

    def _plan(self, out: Path) -> list[tuple[str, list[str], Path | None]]:
        """(phase, argv, family out dir) in run order."""
        plan = []
        for n, sources in enumerate(self.sessions):
            session = out / f"session-{n}"
            family = []
            for i, source in enumerate(sources):
                for q in CLI_QS:
                    target = session / f"family-{i}-q{q}"
                    family.append((["family", *source, f"--q={q}", CLI_P, "--out", str(target)], target))
            others = []
            for i, source in enumerate(sources):
                others.append(("verify", ["verify", *source, "--q=1", "--p=-3..3"], None))
                others.append(("export", ["export", *source, "--q=2", CLI_P,
                                          "--out", str(session / f"export-{i}")], None))
                others.append(("knot", ["knot", *source, "--out", str(session / f"knot-{i}")], None))
            plan += [("cold", argv, target) for argv, target in family]
            # Each warm round is followed by its share of the other commands,
            # so warm calls are spread over the session rather than bunched
            # into one stretch of the host's varying speed.
            share = -(-len(others) // CLI_WARM_ROUNDS)
            for r in range(CLI_WARM_ROUNDS):
                plan += [("warm", argv, target) for argv, target in family]
                plan += others[r * share:(r + 1) * share]
        return plan

    def run(self) -> Pass:
        cli = self.prog.cli
        out = Path(tempfile.mkdtemp(prefix="cli-", dir=self.work))
        done = Pass()
        saved_env = os.environ.get(cli.WORKERS_ENV)
        sink = io.StringIO()
        done.started = time.perf_counter()
        try:
            for op_id, (phase, argv, target) in enumerate(self._plan(out)):
                if phase == "cold":
                    os.environ[cli.WORKERS_ENV] = "2"
                else:
                    os.environ.pop(cli.WORKERS_ENV, None)
                self.prog.begin_op(op_id)
                # Cold passes compute in the pool's processes; the speed meter
                # ticks only around them.
                pool = self.prog.meter.paused() if phase == "cold" else contextlib.nullcontext()
                with pool:
                    t0 = time.perf_counter()
                    try:
                        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                            code = cli.main(argv)
                    except Exception:  # a failed request is reported, not fatal
                        traceback.print_exc()
                        done.raised += 1
                        code = None
                    span = (t0, time.perf_counter())
                done.intervals.append(span)
                if phase == "warm":
                    done.warm_intervals.append(span)
                outputs = None
                if target is not None and code is not None:
                    outputs = {name: (target / name).read_bytes() for name in
                               ("spectra.csv", "distinguish_report.txt", "run_meta.json")}
                done.results.append((phase, argv, code, outputs))
                sink.seek(0)
                sink.truncate()
            done.ended = time.perf_counter()
        finally:
            if saved_env is None:
                os.environ.pop(cli.WORKERS_ENV, None)
            else:
                os.environ[cli.WORKERS_ENV] = saved_env
        return done

    def check(self, done: Pass) -> tuple[int, list[str]]:
        failed, messages = done.raised, []
        cold: dict[str, dict] = {}
        for phase, argv, code, outputs in done.results:
            if code is None:
                continue
            bad = []
            if phase in ("cold", "warm"):
                expected = checks.family_exit_code(outputs["distinguish_report.txt"].decode())
                if code != expected:
                    bad.append(f"exit code {code}, report implies {expected}")
                members = outputs["spectra.csv"].decode().count("\n") - 1
                hits = json.loads(outputs["run_meta.json"])["cache_hits"]
                key = " ".join(argv)
                if phase == "cold":
                    cold[key] = outputs
                    if hits != 0:
                        bad.append(f"cold pass had {hits} cache hits")
                else:
                    if hits != members:
                        bad.append(f"warm pass had {hits} cache hits for {members} members")
                    for name in ("spectra.csv", "distinguish_report.txt"):
                        if outputs[name] != cold[key][name]:
                            bad.append(f"{name} differs between cold and warm passes")
            elif code != 0:
                bad.append(f"exit code {code}, expected 0")
            failed += bool(bad)
            messages += [f"{' '.join(argv)}: {m}" for m in bad]
        return failed, messages


WORKLOADS = {w.name: w for w in (Fig8Escalate, KnotCensus, CliFamily)}
