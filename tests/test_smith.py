import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from knotsurgery import (
    Presentation,
    Word,
    abelianization,
    builtin_knot,
    builtin_monodromy,
    fox_alexander,
    hom_spectrum,
    mapping_torus_presentation,
    parse_braid,
    smith,
    smith_normal_form,
    standard_suite,
    tietze_simplify,
    validate_peripheral,
    wirtinger_from_braid,
)
from knotsurgery.smith import relation_matrix

from conftest import det_oracle, row_lattice_oracle


def test_identity_matrix():
    snf = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert snf.factors == (1, 1, 1)
    assert snf.rank == 3


def test_diagonal_2_3():
    snf = smith_normal_form([[2, 0], [0, 3]])
    assert snf.factors == (1, 6)


def test_zero_matrix():
    snf = smith_normal_form([[0, 0], [0, 0]])
    assert snf.factors == ()
    assert snf.cokernel().free_rank == 2


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])


def test_random_4x4_against_det_oracle():
    rng = random.Random(42)
    for _ in range(25):
        m = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        det = det_oracle(m)
        snf = smith_normal_form(m)
        if det != 0:
            product = 1
            for d in snf.factors:
                product *= d
            assert product == abs(det)
            assert snf.rank == 4


int_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda rows: st.integers(min_value=1, max_value=4).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)


@given(int_matrices)
def test_divisibility_chain(m):
    snf = smith_normal_form(m)
    for d1, d2 in zip(snf.factors, snf.factors[1:]):
        assert d2 % d1 == 0
    assert all(d >= 1 for d in snf.factors)


@given(int_matrices, st.randoms(use_true_random=False))
def test_invariant_under_row_and_column_permutation(m, rng):
    rows = list(m)
    rng.shuffle(rows)
    permuted = [list(row) for row in rows]
    cols = list(range(len(m[0])))
    rng.shuffle(cols)
    permuted = [[row[c] for c in cols] for row in permuted]
    assert smith_normal_form(permuted).factors == smith_normal_form(m).factors


@given(int_matrices)
def test_right_kernel_is_annihilated(m):
    snf = smith_normal_form(m)
    basis = snf.kernel()
    for vector in basis:
        for row in m:
            assert sum(x * y for x, y in zip(row, vector)) == 0
        assert math.gcd(*vector) == 1
        assert next(x for x in vector if x) > 0
    assert len(basis) == len(m[0]) - snf.rank


def test_kernel_of_empty_matrix():
    basis = smith_normal_form([], n_cols=2).kernel()
    assert basis == ((1, 0), (0, 1))


def test_n_cols_must_match_the_rows():
    assert smith_normal_form([], n_cols=2).cokernel().free_rank == 2
    assert smith_normal_form([[1, 2]], n_cols=2).rank == 1
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2]], n_cols=3)


# rows over {-3..3} so that lattice membership is often true as well as false
small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda rows: st.integers(min_value=1, max_value=4).flatmap(
        lambda cols: st.tuples(
            st.lists(
                st.lists(st.integers(min_value=-3, max_value=3), min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            ),
            st.lists(st.integers(min_value=-3, max_value=3), min_size=rows, max_size=rows),
            st.lists(st.integers(min_value=-3, max_value=3), min_size=cols, max_size=cols),
        )
    )
)


@settings(max_examples=200)
@given(small_matrices)
def test_in_row_lattice_matches_the_factor_oracle(case):
    m, coefficients, row = case
    snf = smith_normal_form(m)
    assert snf.in_row_lattice(row) == row_lattice_oracle(m, row)
    combination = [sum(c * r[j] for c, r in zip(coefficients, m)) for j in range(len(row))]
    assert snf.in_row_lattice(combination)
    assert row_lattice_oracle(m, combination)


def test_in_row_lattice_examples():
    snf = smith_normal_form([[2, 0], [0, 3]])
    assert snf.in_row_lattice((4, -3))
    assert not snf.in_row_lattice((1, 0))
    assert not snf.in_row_lattice((0, 2))
    rank_one = smith_normal_form([[1, 1]])
    assert rank_one.in_row_lattice((-2, -2))
    assert not rank_one.in_row_lattice((1, 0))
    with pytest.raises(ValueError):
        rank_one.in_row_lattice((1, 1, 0))


def _count_diagonalizations(monkeypatch):
    calls = []
    original = smith._diagonalize

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(smith, "_diagonalize", counting)
    return calls


@pytest.mark.parametrize(
    "kp",
    [
        builtin_knot("trefoil"),
        wirtinger_from_braid(parse_braid("-2 -2 -2 -2 -1 -1 -2 -1")),
        mapping_torus_presentation(builtin_monodromy("fig8")),
    ],
    ids=["trefoil", "braid", "fig8-monodromy"],
)
def test_one_decomposition_per_presentation(kp, monkeypatch):
    # H1, the peripheral checks, the Alexander polynomial and the counts into
    # abelian targets (C2 and C3 here) all read one decomposition per
    # presentation: the knot group's, and that of the simplified group the
    # counts are made on
    smith.relation_smith_form.cache_clear()
    calls = _count_diagonalizations(monkeypatch)
    suite = standard_suite()[:2]
    # the peripheral tables into abelian targets are read off the knot
    # group's H1, so the simplified group is not decomposed for them
    assert validate_peripheral(kp, suite).ok
    assert len(calls) == 1
    simplified = tietze_simplify(kp.group)
    for _ in range(2):
        assert abelianization(kp.group).is_infinite_cyclic
        assert validate_peripheral(kp, suite).ok
        fox_alexander(kp)
        hom_spectrum(simplified, suite)
    assert len(calls) == len({kp.group, simplified})


def test_abelianization_examples():
    free2 = Presentation(["a", "b"])
    invariants = abelianization(free2)
    assert invariants.free_rank == 2 and invariants.torsion == ()

    lens = Presentation(["a"], [Word.generator(0) ** 4])
    invariants = abelianization(lens)
    assert invariants.free_rank == 0 and invariants.torsion == (4,)
    assert str(invariants) == "Z/4"

    trivial = Presentation(["a"], [Word.generator(0)])
    assert abelianization(trivial).is_trivial


def test_relation_matrix_orientation():
    p = Presentation(["a", "b"], [Word.generator(0) ** 2 * Word.generator(1) ** -1])
    assert relation_matrix(p) == [[2, -1]]
