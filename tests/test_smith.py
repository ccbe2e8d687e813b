import random

import pytest
from hypothesis import given, strategies as st

from knotsurgery import (
    Presentation,
    Word,
    abelianization,
    right_kernel_basis,
    smith_normal_form,
)
from knotsurgery.smith import relation_matrix

from conftest import det_oracle


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
    assert snf.cokernel_free_rank == 2


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
    basis = right_kernel_basis(m)
    for vector in basis:
        for row in m:
            assert sum(x * y for x, y in zip(row, vector)) == 0
    snf = smith_normal_form(m)
    assert len(basis) == len(m[0]) - snf.rank


def test_kernel_of_empty_matrix():
    basis = right_kernel_basis([], n_cols=2)
    assert basis == ((1, 0), (0, 1))


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
