"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's own evaluation machinery:
naive_hom_count multiplies raw permutation tuples, torus_hom_count counts the
roots of raw permutation powers, seifert_alexander expands a determinant by
permutation sums over dict-polynomials, det_oracle is a cofactor expansion,
min_rotation_oracle builds every rotation, and row_lattice_oracle compares
invariant factors instead of reading the column transform.  Tests freeze
values computed by these.
"""

from __future__ import annotations

import importlib.util
import itertools
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import settings

from knotsurgery import builtin_knot, escalation_suite, smith_normal_form, standard_suite
from knotsurgery.targets import FiniteTarget

# derandomized and without the example database, so that every run draws the
# same examples and no run replays another's stored failures
settings.register_profile("suite", deadline=None, max_examples=60, derandomize=True, database=None)
settings.load_profile("suite")


# ---------------------------------------------------------------- oracles


def naive_hom_count(presentation, target: FiniteTarget) -> int:
    """Count homomorphisms by full enumeration over raw permutations."""
    n = len(presentation.generators)
    degree = target.degree
    identity = tuple(range(degree))

    def mul(a, b):  # apply b first, then a
        return tuple(a[b[i]] for i in range(degree))

    def inv(a):
        out = [0] * degree
        for i, j in enumerate(a):
            out[j] = i
        return tuple(out)

    count = 0
    for assignment in itertools.product(target.elements, repeat=n):
        ok = True
        for relator in presentation.relators:
            acc = identity
            for g, e in relator.letters:
                acc = mul(acc, assignment[g] if e == 1 else inv(assignment[g]))
            if acc != identity:
                ok = False
                break
        if ok:
            count += 1
    return count


def torus_hom_count(r: int, s: int, target: FiniteTarget) -> int:
    """|Hom(<x, y | x^r = y^s>, target)|, the count for the torus knot T(r, s).

    It is the sum over z of N_r(z) * N_s(z), with N_k(z) = #{x : x^k = z},
    from one pass of raw permutation powers over the target's elements.
    """
    identity = tuple(range(target.degree))

    def power(a, k):
        acc = identity
        for _ in range(k):
            acc = tuple(a[i] for i in acc)
        return acc

    roots_r = Counter(power(x, r) for x in target.elements)
    roots_s = Counter(power(x, s) for x in target.elements)
    return sum(n * roots_s[z] for z, n in roots_r.items())


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def seifert_alexander(V) -> dict:
    """det(V - t V^T) as {exponent: coefficient}, min exponent 0, positive lead."""
    n = len(V)
    M = [[{k: c for k, c in ((0, V[i][j]), (1, -V[j][i])) if c} for j in range(n)] for i in range(n)]
    total: dict[int, int] = {}
    for perm in itertools.permutations(range(n)):
        term = {0: _perm_sign(perm)}
        for i in range(n):
            term = _poly_mul(term, M[i][perm[i]])
        total = _poly_add(total, term)
    if not total:
        return {}
    shift = min(total)
    total = {e - shift: c for e, c in total.items()}
    if total[max(total)] < 0:
        total = {e: -c for e, c in total.items()}
    return total


def det_oracle(matrix) -> int:
    """Integer determinant by cofactor expansion."""
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in matrix[1:]]
        total += (-1) ** j * matrix[0][j] * det_oracle(minor)
    return total


def row_lattice_oracle(matrix, row) -> bool:
    """True iff row lies in the row lattice of matrix, by two factor lists.

    Adding a row outside the lattice gives a proper quotient of the
    cokernel, and a finitely generated abelian group is no proper quotient
    of itself, so the invariant factors change exactly then.
    """
    return smith_normal_form(matrix).factors == smith_normal_form(list(matrix) + [row]).factors


def min_rotation_oracle(letters: tuple) -> tuple:
    """Least rotation by building and comparing every rotation (quadratic)."""
    best = letters
    for i in range(1, len(letters)):
        rotation = letters[i:] + letters[:i]
        if rotation < best:
            best = rotation
    return best


def laurent_terms(poly) -> dict:
    return {e: c for e, c in poly.terms}


def load_demo():
    """A fresh module of ``scripts/fig8_family_demo.py``."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "fig8_family_demo.py"
    spec = importlib.util.spec_from_file_location("fig8_family_demo", script)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    return demo


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="session")
def suite_full():
    return standard_suite()


@pytest.fixture(scope="session")
def suite_small(suite_full):
    """Standard targets of order <= 24; cheap enough for raw presentations."""
    return tuple(t for t in suite_full if t.order <= 24)


@pytest.fixture(scope="session")
def trefoil():
    return builtin_knot("trefoil")


@pytest.fixture(scope="session")
def fig8():
    return builtin_knot("fig8")


@pytest.fixture(scope="session")
def unknot():
    return builtin_knot("unknot")


@pytest.fixture(scope="session")
def spectrum_cache():
    """Shared (presentation, target name) -> count memo across the session."""
    return {}


@pytest.fixture(scope="session")
def fig8_family_run():
    """The demo's escalating distinction of the fig8 family q=1, p=1..6.

    Loads ``scripts/fig8_family_demo.py`` and returns its
    ``run(6, escalation_suite())``, the one copy of the walk, plus
    ``extra_counts``: each group's escalation counts by target name.
    Shared session-wide because the last pair needs PSL(2,19).
    """
    run = load_demo().run(6, escalation_suite())
    extra_counts: dict[int, dict[str, int]] = {p: {} for p in run["standard_spectra"]}
    for target, counts, _, _ in run["steps"]:
        for p, count in counts.items():
            extra_counts[p][target.name] = count
    return {**run, "extra_counts": extra_counts}
