"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  All
comparisons are exact integer equalities; the only tolerance anywhere is the
wall-clock target of criterion 1.
"""

import ast
import functools
import itertools
import math
import random
import re
import sys
from collections import Counter

import knotsurgery
from knotsurgery import (
    InvalidSlopeError,
    Presentation,
    SurgerySlope,
    Word,
    abelianization,
    builtin_knot,
    builtin_monodromy,
    build_family,
    count_homomorphisms,
    cyclic,
    dehn_surgery_group,
    escalation_suite,
    fox_alexander,
    half_complement_group,
    homcount,
    mapping_torus_presentation,
    smith_normal_form,
    standard_suite,
    tietze_simplify,
)
from knotsurgery.surgery import double_complement_group

from conftest import det_oracle, laurent_terms, load_demo, naive_hom_count, seifert_alexander


def criterion(number: int, title: str):
    """Print ACCEPTANCE <n> ... PASS/FAIL around the wrapped test."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} ({title}): FAIL")
                raise
            print(f"\nACCEPTANCE {number} ({title}): PASS")

        return run

    return wrap


def cached_count(cache, presentation, target) -> int:
    key = (presentation, target.name)
    if key not in cache:
        cache[key] = count_homomorphisms(presentation, target)
    return cache[key]


@criterion(1, "figure-eight distinction, q=1, p=1..6")
def test_criterion_1_figure_eight_distinction(fig8_family_run):
    run = fig8_family_run
    assert run["elapsed"] < 300, f"took {run['elapsed']:.0f}s, target is 300s"
    assert run["exit"] == 0
    ps = sorted(run["counts"])
    assert ps == list(range(1, 7))
    # the standard suite alone does not separate these homology spheres;
    # the escalation targets of the extended suite must finish the job
    for p in ps:
        assert {run["counts"][p][t.name] for t in standard_suite()} == {1}, p
    assert sorted(run["resolution"]) == list(itertools.combinations(ps, 2))
    print("\nseparations:")
    for (a, b), (target, left, right) in sorted(run["resolution"].items()):
        assert (left, right) == (run["counts"][a][target], run["counts"][b][target])
        print(f"  p={a} vs p={b}: {target} ({left} vs {right})")
    print(f"elapsed: {run['elapsed']:.1f}s")


# Escalation counts of the fig8 family q=1, p=1..6, frozen from the
# unreduced search; each target lists the groups still tied when it is reached.
FIG8_ESCALATION = {
    "PSL2_7": {1: 337, 2: 337, 3: 337, 4: 1, 5: 673, 6: 1},
    "A6": {1: 1, 2: 1441, 3: 1441, 4: 1, 6: 1},
    "PSL2_8": {2: 1, 3: 1, 4: 1, 6: 1},
    "PSL2_11": {2: 1, 3: 1, 4: 1, 6: 1},
    "S6": {2: 1441, 3: 1441, 4: 1, 6: 1},
    "PSL2_13": {2: 1, 3: 1, 4: 1, 6: 2185},
    "PSL2_17": {2: 4897, 3: 4897},
    "PSL2_19": {2: 6841, 3: 1},
}
FIG8_SEPARATIONS = {
    **{pair: "PSL2_7" for pair in [(1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6),
                                   (3, 4), (3, 5), (3, 6), (4, 5), (5, 6)]},
    (1, 2): "A6",
    (1, 3): "A6",
    (4, 6): "PSL2_13",
    (2, 3): "PSL2_19",
}


def test_fig8_escalation_table_frozen(fig8_family_run):
    counts = fig8_family_run["counts"]
    for target, frozen in FIG8_ESCALATION.items():
        assert {p: counts[p][target] for p in frozen} == frozen, target
    separated_at = {pair: target for pair, (target, _, _) in fig8_family_run["resolution"].items()}
    assert separated_at == FIG8_SEPARATIONS


def test_fig8_demo_prints_the_frozen_table(capsys, monkeypatch):
    demo = load_demo()
    monkeypatch.setattr(sys, "argv", [demo.__file__, "6"])
    code = demo.main()
    escalated: dict[str, dict[int, int]] = {}
    separated: dict[tuple[int, int], str] = {}
    for line in capsys.readouterr().out.splitlines():
        match = re.match(r"escalating to (\S+) \(order \d+\) for \[[\d, ]*\]: (\{.*\}) \[", line)
        if match:
            escalated[match.group(1)] = ast.literal_eval(match.group(2))
        match = re.match(r"  p=(\d+) vs p=(\d+): separated by (\S+) \(", line)
        if match:
            separated[(int(match.group(1)), int(match.group(2)))] = match.group(3)
    assert escalated == FIG8_ESCALATION
    assert separated == FIG8_SEPARATIONS
    assert code == 0


def test_the_demo_keeps_the_benchmark_contract(monkeypatch):
    # bench/workloads.py runs main() with escalation_suite replaced by its
    # global name and count_homomorphisms wrapped in every namespace, and
    # maps each counted presentation back to its p
    demo = load_demo()
    suite = escalation_suite()
    walked = suite[: [t.name for t in suite].index("PSL2_13") + 1]
    counted = []

    def record(presentation, target, *args, **kwargs):
        counted.append((presentation, target.name))
        return count_homomorphisms(presentation, target, *args, **kwargs)

    for module in (knotsurgery, homcount, demo):
        monkeypatch.setattr(module, "count_homomorphisms", record, raising=False)
    monkeypatch.setattr(demo, "escalation_suite", lambda: walked)
    monkeypatch.setattr(sys, "argv", [demo.__file__, "6"])
    assert demo.main() == 3  # p=2 and p=3 are still tied at PSL2_13
    family = build_family(builtin_knot("fig8"), 1, range(1, 7))
    members = {tietze_simplify(m.presentation) for m in family.members}
    assert {presentation for presentation, _ in counted} == members
    escalated = Counter(name for _, name in counted if name in {t.name for t in walked})
    assert escalated == {"PSL2_7": 6, "A6": 5, "PSL2_8": 4, "PSL2_11": 4, "S6": 4, "PSL2_13": 4}


@criterion(2, "half/surgery consistency, q <= 3, |p| <= 3")
def test_criterion_2_half_surgery_consistency(spectrum_cache):
    suite = standard_suite()
    checked = 0
    for name in ("unknot", "trefoil", "fig8"):
        kp = builtin_knot(name)
        for q in (1, 2, 3):
            for p in range(-3, 4):
                try:
                    slope = SurgerySlope(p, q)
                except InvalidSlopeError:
                    continue
                surgery = tietze_simplify(dehn_surgery_group(kp, slope))
                half = tietze_simplify(half_complement_group(kp, slope))
                assert abelianization(
                    dehn_surgery_group(kp, slope)
                ) == abelianization(half_complement_group(kp, slope))
                for target in suite:
                    left = cached_count(spectrum_cache, surgery, target)
                    right = cached_count(spectrum_cache, half, target)
                    assert left == right, (name, p, q, target.name)
                checked += 1
    assert checked == 3 * (7 + 4 + 4)


@criterion(3, "H1 of every surgery/double group is Z/q")
def test_criterion_3_h1_law():
    for name in ("unknot", "trefoil", "fig8"):
        kp = builtin_knot(name)
        for q in (1, 2, 3, 4, 5):
            for p in (-3, -1, 1, 2, 3, 5):
                try:
                    slope = SurgerySlope(p, q)
                except InvalidSlopeError:
                    continue
                for group in (
                    dehn_surgery_group(kp, slope),
                    half_complement_group(kp, slope),
                ):
                    invariants = abelianization(group)
                    assert invariants.free_rank == 0, (name, p, q)
                    expected = (q,) if q > 1 else ()
                    assert invariants.torsion == expected, (name, p, q)


@criterion(4, "degenerate slopes")
def test_criterion_4_degenerate_slopes(spectrum_cache):
    suite = standard_suite()
    slope01 = SurgerySlope(0, 1)
    for name in ("unknot", "trefoil", "fig8"):
        group = tietze_simplify(dehn_surgery_group(builtin_knot(name), slope01))
        for target in suite:
            assert cached_count(spectrum_cache, group, target) == 1, (name, target.name)
    unknot = builtin_knot("unknot")
    for p, q in ((0, 1), (1, 1), (1, 2), (2, 3), (-1, 4), (3, 5), (2, 7)):
        group = tietze_simplify(dehn_surgery_group(unknot, SurgerySlope(p, q)))
        for n in range(1, 13):
            assert count_homomorphisms(group, cyclic(n)) == math.gcd(q, n), (p, q, n)


@criterion(5, "search count equals naive enumeration")
def test_criterion_5_oracle_equivalence(suite_small, trefoil, unknot):
    rng = random.Random(2024)
    cases = []
    for _ in range(50):
        n_gens = rng.randint(1, 3)
        n_rels = rng.randint(0, 3)
        relators = []
        for _ in range(n_rels):
            length = rng.randint(1, 6)
            relators.append(
                Word(
                    tuple(
                        (rng.randrange(n_gens), rng.choice((1, -1)))
                        for _ in range(length)
                    )
                )
            )
        cases.append(
            Presentation([f"g{i}" for i in range(n_gens)], relators)
        )
    # pipeline-produced small cases
    cases.append(tietze_simplify(dehn_surgery_group(trefoil, SurgerySlope(1, 1))))
    cases.append(tietze_simplify(dehn_surgery_group(trefoil, SurgerySlope(2, 1))))
    cases.append(dehn_surgery_group(unknot, SurgerySlope(1, 4)))
    cases.append(trefoil.group)
    checked = 0
    for presentation in cases:
        assert len(presentation.generators) <= 3
        for target in suite_small:
            assert target.order <= 24
            assert count_homomorphisms(presentation, target) == naive_hom_count(
                presentation, target
            ), (presentation, target.name)
            checked += 1
    print(f"\n({checked} presentation/target cases checked)")


@criterion(6, "Smith normal form on 200 random matrices")
def test_criterion_6_smith_normal_form():
    rng = random.Random(99)
    for trial in range(200):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        matrix = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        snf = smith_normal_form(matrix)
        for d1, d2 in zip(snf.factors, snf.factors[1:]):
            assert d2 % d1 == 0, (matrix, snf.factors)
        if rows == cols:
            det = det_oracle(matrix)
            if det != 0:
                product = 1
                for d in snf.factors:
                    product *= d
                assert product == abs(det), (matrix, snf.factors, det)


@criterion(7, "Alexander polynomials vs Seifert-matrix oracle")
def test_criterion_7_alexander_validation():
    expectations = {
        "unknot": {0: 1},
        "trefoil": {0: 1, 1: -1, 2: 1},
        "fig8": {0: 1, 1: -3, 2: 1},
    }
    seifert = {
        "trefoil": [[-1, 1], [0, -1]],
        "fig8": [[1, 1], [0, -1]],
    }
    for name, expected in expectations.items():
        poly = fox_alexander(builtin_knot(name))
        assert laurent_terms(poly) == expected, name
        if name in seifert:
            assert laurent_terms(poly) == seifert_alexander(seifert[name]), name
        assert poly.evaluate(1) in (1, -1), name
        assert poly.evaluate(-1) % 2 == 1, name


@criterion(8, "hom spectra invariant under Tietze simplification")
def test_criterion_8_tietze_invariance(suite_small, spectrum_cache):
    trefoil = builtin_knot("trefoil")
    fig8 = builtin_knot("fig8")
    pipeline = [
        trefoil.group,
        fig8.group,
        dehn_surgery_group(trefoil, SurgerySlope(1, 1)),
        dehn_surgery_group(fig8, SurgerySlope(2, 3)),
        half_complement_group(trefoil, SurgerySlope(1, 2)),
        half_complement_group(fig8, SurgerySlope(1, 1)),
        double_complement_group(fig8, SurgerySlope(3, 2)),
    ]
    for presentation in pipeline:
        simplified = tietze_simplify(presentation)
        for target in suite_small:
            assert cached_count(spectrum_cache, presentation, target) == cached_count(
                spectrum_cache, simplified, target
            ), (presentation.generators, target.name)
    # the raw knot groups are small enough for the full suite
    for presentation in pipeline[:2]:
        simplified = tietze_simplify(presentation)
        for target in standard_suite():
            assert cached_count(spectrum_cache, presentation, target) == cached_count(
                spectrum_cache, simplified, target
            )


@criterion(9, "fibered route matches Wirtinger route on surgeries")
def test_criterion_9_monodromy_cross_check(spectrum_cache):
    suite = standard_suite()
    for name in ("trefoil", "fig8"):
        braid_route = builtin_knot(name)
        torus_route = mapping_torus_presentation(builtin_monodromy(name))
        for p, q in ((1, 1), (2, 1), (1, 2)):
            slope = SurgerySlope(p, q)
            left = tietze_simplify(dehn_surgery_group(braid_route, slope))
            right = tietze_simplify(dehn_surgery_group(torus_route, slope))
            for target in suite:
                assert cached_count(spectrum_cache, left, target) == cached_count(
                    spectrum_cache, right, target
                ), (name, p, q, target.name)
