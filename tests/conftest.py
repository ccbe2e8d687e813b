"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's own evaluation machinery:
naive_hom_count multiplies raw permutation tuples (``compose`` and
``invert_perm``), cable_link_group builds the cable-link group by
``Presentation.extended`` rather than through ``surgery``'s halves,
naive_closure closes generators by a frontier-by-frontier search over raw
products, torus_hom_count counts the roots of raw permutation
powers, filter_slope_count filters a peripheral table by raw permutation
powers, pair_hom_count checks every (class representative, element) pair of a
two-generator group letter by letter, low_index_hom_count counts subgroups of
small index by coset enumeration and uses no target, table or permutation at
all, seifert_alexander expands a determinant by permutation sums over
dict-polynomials, det_oracle is a cofactor expansion, min_rotation_oracle
builds every rotation, and row_lattice_oracle compares invariant factors
instead of reading the column transform.  Tests freeze values computed by these.
q1_identity_failures states identities that counts into targets of any size
must hold.  parse_word reads the words the tests write as text.
"""

from __future__ import annotations

import contextlib
import csv
import importlib.util
import io
import itertools
import json
import math
import re
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st

from knotsurgery import (
    BraidWord,
    KnotPresentation,
    NotAKnotError,
    Presentation,
    UnknownGeneratorError,
    Word,
    builtin_knot,
    cli,
    commutator,
    smith_normal_form,
    standard_suite,
    word_power,
)
from knotsurgery.fpgroup import fresh_name
from knotsurgery.surgery import (
    CABLE_LONGITUDE,
    CABLE_MERIDIAN,
    LONGITUDE,
    MERIDIAN,
    FamilyMember,
)
from knotsurgery.targets import FiniteTarget, suite_from_json

# derandomized and without the example database, so that every run draws the
# same examples and no run replays another's stored failures
settings.register_profile("suite", deadline=None, max_examples=60, derandomize=True, database=None)
settings.load_profile("suite")


# ---------------------------------------------------------------- inputs
# braids that spell a letter some other way than a plain signed integer (a
# header, s/S tokens, a plus sign, a leading zero, a comma, a non-ASCII
# digit), each with the token that is refused
REFUSED_BRAIDS = {
    "s1": "s1",
    "S2 1": "S2",
    "n=3; 1 -2 1 -2": "n=3;",
    "+1 -2 1 -2": "+1",
    "01 -2 1 -2": "01",
    "1,-2": "1,-2",
    "\u0661 -2 1 -2": "\u0661",
}


def _closes_to_a_knot(letters) -> bool:
    try:
        BraidWord(3, tuple(letters))
    except NotAKnotError:
        return False
    return True


# 3-strand braids of at most 8 letters whose closures are knots
three_strand_knot_braids = st.lists(st.sampled_from((1, -1, 2, -2)), max_size=8).filter(
    _closes_to_a_knot
)


def parse_word(text: str, names) -> Word:
    """Parse a word like ``"a b^-1 a^2"`` over the given generator names.

    Tokens are separated by whitespace or ``*``; each token is a generator
    name with an optional integer exponent after ``^``, or ``1`` for the
    identity.  The pipeline reads words as JSON only; the tests write them
    in this form.
    """
    index = {name: i for i, name in enumerate(names)}
    letters = []
    for token in text.replace("*", " ").split():
        if token == "1":
            continue
        name, _, exp_text = token.partition("^")
        if name not in index:
            raise UnknownGeneratorError(f"unknown generator {name!r} in word {text!r}")
        try:
            exp = int(exp_text) if exp_text else 1
        except ValueError:
            raise UnknownGeneratorError(f"bad exponent {exp_text!r} in word {text!r}") from None
        letters.extend(word_power(Word.generator(index[name]), exp).letters)
    return Word(tuple(letters))


def relabelled(kp: KnotPresentation, tag: str) -> KnotPresentation:
    """kp with tag appended to each generator name of its group.

    Names take part in presentation equality, so the copy, and every group
    built from it, shares no search plan, count or Smith form with a
    presentation that another test keeps alive: each is made afresh.
    """
    group = Presentation([name + tag for name in kp.group.generators], kp.group.relators)
    return KnotPresentation(group, kp.meridian, kp.longitude, kp.genus_hint)


# ---------------------------------------------------------------- oracles


def compose(a: tuple, b: tuple) -> tuple:
    """The permutation a * b on image tuples: apply b first, then a."""
    return tuple(a[b[i]] for i in range(len(a)))


def invert_perm(a: tuple) -> tuple:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def cycle_string(p: tuple) -> str:
    """1-based disjoint cycle notation; identity renders as ``()``."""
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            cycle.append(x)
            seen[x] = True
            x = p[x]
        cycles.append("(" + " ".join(str(i + 1) for i in cycle) + ")")
    return "".join(cycles) if cycles else "()"


def naive_closure(generators, degree: int) -> list:
    """The group the generators make, as a list in breadth-first order.

    The search goes frontier by frontier; each element of a frontier is
    multiplied on the right by each generator in turn, and a product not seen
    before joins the list and the next frontier.
    """
    identity = tuple(range(degree))
    elements = [identity]
    seen = {identity}
    frontier = [identity]
    while frontier:
        next_frontier = []
        for x in frontier:
            for g in generators:
                y = compose(x, g)
                if y not in seen:
                    seen.add(y)
                    elements.append(y)
                    next_frontier.append(y)
        frontier = next_frontier
    return elements


def naive_homomorphisms(presentation, target: FiniteTarget):
    """Yield every homomorphism, as a tuple of element indices per generator,
    by full enumeration over raw permutations."""
    n = len(presentation.generators)
    identity = tuple(range(target.degree))
    for assignment in itertools.product(range(target.order), repeat=n):
        perms = [target.elements[i] for i in assignment]
        ok = True
        for relator in presentation.relators:
            acc = identity
            for g, e in relator.letters:
                acc = compose(acc, perms[g] if e == 1 else invert_perm(perms[g]))
            if acc != identity:
                ok = False
                break
        if ok:
            yield assignment


def naive_hom_count(presentation, target: FiniteTarget) -> int:
    """Count homomorphisms by full enumeration over raw permutations."""
    return sum(1 for _ in naive_homomorphisms(presentation, target))


def cable_link_group(kp, slope) -> FamilyMember:
    """The group of the complement of the knot together with its (p, q)-cable.

    The knot group is extended by two fresh generators mu, lam, the
    peripheral pair of the knot inside the link complement, with the relator
    [mu, lam] and the filling relator meridian^q longitude^p lam^-p mu^-q:
    the cable, homotopic on the companion torus to cable_meridian^q
    cable_longitude^p, is identified with mu^q lam^p.  The labels carry the
    peripheral pair of the knot (meridian, longitude = mu, lam) and of the
    companion torus the cable lives on (cable_meridian, cable_longitude =
    the knot group's own peripheral words).
    """
    base = kp.group
    mu_name = fresh_name("mu", base.generators)
    lam_name = fresh_name("lam", base.generators + (mu_name,))
    mu, lam = Word.generator(len(base.generators)), Word.generator(len(base.generators) + 1)
    filling = kp.meridian ** slope.q * kp.longitude ** slope.p * lam ** -slope.p * mu ** -slope.q
    presentation = base.extended((commutator(mu, lam), filling), (mu_name, lam_name))
    labels = {
        MERIDIAN: mu,
        LONGITUDE: lam,
        CABLE_MERIDIAN: kp.meridian,
        CABLE_LONGITUDE: kp.longitude,
    }
    return FamilyMember(slope, presentation, labels)


def low_index_hom_count(presentation, n: int) -> int:
    """|Hom(G, S_n)| from the numbers a_k of subgroups of index k <= n in G.

    a_k counts the standardized complete coset tables on k cosets.  The
    search backtracks on the first undefined entry in row-major order: it is
    either an existing coset whose inverse entry is free or the next new
    coset.  After each definition every relator is traced from every coset,
    forwards and backwards; a gap of one letter is filled, a clash drops the
    table.  Then h_m = sum over k = 1..m of C(m-1, k-1) (k-1)! a_k h_{m-k},
    with h_0 = 1, is |Hom(G, S_m)| (M. Hall, 1949): the orbit of the first
    point is a transitive action on k points, the rest any action on m - k.
    The tables are over the generators that some relator reads, renumbered
    in order; each of the r others is a free factor, and |Hom(G * F_r, S_n)|
    = |Hom(G, S_n)| (n!)^r.
    """
    used = sorted({g for r in presentation.relators for g, _ in r.letters})
    position = {g: i for i, g in enumerate(used)}
    columns = 2 * len(used)  # column 2i is used[i], 2i + 1 its inverse
    relators = [[2 * position[g] + (e != 1) for g, e in r.letters] for r in presentation.relators]
    subgroups = [0] * (n + 1)

    def settled(table) -> bool:
        changed = True
        while changed:
            changed = False
            for relator in relators:
                for start in range(len(table)):
                    f, i = start, 0
                    while i < len(relator) and table[f][relator[i]] is not None:
                        f, i = table[f][relator[i]], i + 1
                    if i == len(relator):
                        if f != start:
                            return False
                        continue
                    b, j = start, len(relator)
                    while j > i and table[b][relator[j - 1] ^ 1] is not None:
                        b, j = table[b][relator[j - 1] ^ 1], j - 1
                    if j == i:  # b reaches start along relator[i:], f cannot
                        return False
                    if j == i + 1:
                        x = relator[i]
                        if table[b][x ^ 1] is not None:
                            return False
                        table[f][x], table[b][x ^ 1] = b, f
                        changed = True
        return True

    def search(table) -> None:
        if not settled(table):
            return
        gap = next(((k, row.index(None)) for k, row in enumerate(table) if None in row), None)
        if gap is None:
            subgroups[len(table)] += 1
            return
        k, x = gap
        options = [t for t in range(len(table)) if table[t][x ^ 1] is None]
        if len(table) < n:
            options.append(len(table))
        for t in options:
            branch = [row[:] for row in table]
            if t == len(table):
                branch.append([None] * columns)
            branch[k][x], branch[t][x ^ 1] = t, k
            search(branch)

    search([[None] * columns])
    homs = [1]
    for m in range(1, n + 1):
        homs.append(sum(
            math.comb(m - 1, k - 1) * math.factorial(k - 1) * subgroups[k] * homs[m - k]
            for k in range(1, m + 1)
        ))
    return homs[n] * math.factorial(n) ** (len(presentation.generators) - len(used))


def pair_hom_count(presentation, target: FiniteTarget) -> int:
    """|Hom(G, target)| for G on two generators, by (class representative, any element) pairs.

    Hom(G, H) is closed under conjugation, so as many homomorphisms send the
    first generator to each member of a class as to its representative: each
    pair (representative, h) that satisfies every relator counts the class
    size.  Relators are evaluated letter by letter through the target's
    tables; only ``conjugacy_classes`` and the tables are shared with the
    engine.
    """
    assert len(presentation.generators) == 2
    mult, inverse = target.mult, target.inverse
    relators = [r.letters for r in presentation.relators]
    count = 0
    for rep, size in target.conjugacy_classes:
        for h in range(target.order):
            images = (rep, h)
            for letters in relators:
                x = 0
                for g, e in letters:
                    x = mult[x][images[g] if e == 1 else inverse[images[g]]]
                if x:
                    break
            else:
                count += size
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


def filter_slope_count(table, target: FiniteTarget, q: int, p: int) -> int:
    """|Hom(K(q/p), H)| off the knot group's peripheral table into H: the
    summed weight of the pairs (a, b) with a^q = b^-p.

    Each power is read off the element's cycle of raw permutation powers, so
    an exponent past the element's order costs no more than the order.
    """
    identity = tuple(range(target.degree))

    def power(x: int, k: int) -> tuple:
        a = target.elements[x]
        cycle = [identity]
        while (y := compose(cycle[-1], a)) != identity:
            cycle.append(y)
        return cycle[k % len(cycle)]

    return sum(weight for (a, b), weight in table.items() if power(a, q) == power(b, -p))


# ---------------------------------------------------------------- identities
# Exact identities of group theory and knot theory, which check counts at
# targets of any size, where enumeration cannot.

# the solvable targets of the standard suite, and (S_n, A_n) pairs of the
# standard and escalation suites
SOLVABLE_TARGETS = ("C2", "C3", "C4", "C5", "C6", "S3", "S4", "A4", "D4", "D5")
SYMMETRIC_ALTERNATING = (("S5", "A5"), ("S6", "A6"))


def mirror_braid(letters) -> tuple:
    """The letters of the mirror's braid: every letter negated."""
    return tuple(-k for k in letters)


def q1_identity_failures(spectra, mirrored) -> list[str]:
    """How the q = 1 spectra of a knot and of its mirror break two identities.

    spectra and mirrored map each p, for the knot and for its mirror, to its
    counts by target name; mirrored holds -p for every p of spectra.

    - Perfect members.  Every q = 1 surgery is a homology sphere, so its
      group G is perfect and each homomorphism lands in the last term of the
      target's derived series: a solvable target reads 1, and since
      [S_n, S_n] = A_n, |Hom(G, S_n)| = |Hom(G, A_n)|.
    - Mirror.  The mirror's surgery along p is the knot's along -p, so the
      mirror's counts at -p are the knot's at p.

    A target that the counts do not name is not checked.
    """
    failures = []
    for p, counts in spectra.items():
        for name in SOLVABLE_TARGETS:
            if counts.get(name, 1) != 1:
                failures.append(f"p={p}: {name} reads {counts[name]}, not 1")
        for sym, alt in SYMMETRIC_ALTERNATING:
            if sym in counts and alt in counts and counts[sym] != counts[alt]:
                failures.append(f"p={p}: {sym} reads {counts[sym]}, {alt} {counts[alt]}")
        if mirrored[-p] != counts:
            failures.append(f"p={p}: {counts} but the mirror reads {mirrored[-p]} at p={-p}")
    return failures


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


def abelian_suite() -> tuple[FiniteTarget, ...]:
    """C6, V4 and C2 x C4, closed from ``tests/abelian_suite.json``, which CI's
    ``verify`` step reads too."""
    path = Path(__file__).resolve().parent / "abelian_suite.json"
    return suite_from_json(json.loads(path.read_text(encoding="utf-8")))


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
def fig8_family_run(tmp_path_factory):
    """The fig8 family q=1, p=1..6 told apart by ``family --targets extended``.

    Runs the CLI in-process without the cache and returns its ``exit`` code,
    the ``counts`` of ``spectra.csv`` by p and then by target name, each
    pair's ``resolution`` (target name, both counts) read off the
    ``DISTINGUISHED at`` lines of ``distinguish_report.txt``, and the
    ``elapsed`` seconds.  Shared session-wide because it searches PSL(2,19).
    """
    out = tmp_path_factory.mktemp("fig8-extended")
    argv = ["family", "--builtin", "fig8", "--q", "1", "--p=1..6", "--targets", "extended",
            "--no-cache", "--out", str(out)]
    started = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    elapsed = time.perf_counter() - started
    with open(out / "spectra.csv", newline="") as rows:
        counts = {int(row.pop("label").removeprefix("p=")): {t: int(n) for t, n in row.items()}
                  for row in csv.DictReader(rows)}
    separated = re.compile(r"p=(\d+) vs p=(\d+): DISTINGUISHED at (\S+) \(counts (\d+) vs (\d+)\)")
    resolution = {}
    for line in (out / "distinguish_report.txt").read_text().splitlines():
        match = separated.fullmatch(line)
        if match:
            a, b, target, left, right = match.groups()
            resolution[(int(a), int(b))] = (target, int(left), int(right))
    return {"exit": code, "counts": counts, "resolution": resolution, "elapsed": elapsed}
