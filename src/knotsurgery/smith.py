"""Exact integer Smith normal form and abelianization invariants.

Matrices are plain sequences of int rows (arbitrary precision; no floating
point anywhere).  Pivots are chosen as the smallest nonzero absolute value,
ties broken row-major, which bounds entry growth deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .fpgroup import Presentation

IntMatrix = Sequence[Sequence[int]]


def _copy_checked(matrix: IntMatrix) -> list[list[int]]:
    rows = [list(map(int, row)) for row in matrix]
    if rows:
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValueError("matrix rows have unequal lengths")
    return rows


def _diagonalize(a: list[list[int]], track_cols: bool) -> tuple[list[int], list[list[int]], int]:
    """Diagonalize by unimodular row/column operations.

    Returns (diagonal entries, V, rank) where V records the column operations
    (so the columns of V beyond rank span the right kernel).  The diagonal is
    not yet divisibility-ordered.
    """
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    v = [[1 if i == j else 0 for j in range(n_cols)] for i in range(n_cols)] if track_cols else []
    t = 0
    while t < n_rows and t < n_cols:
        pivot = None
        for i in range(t, n_rows):
            for j in range(t, n_cols):
                val = a[i][j]
                if val and (pivot is None or abs(val) < pivot[0]):
                    pivot = (abs(val), i, j)
            if pivot is not None and pivot[0] == 1:
                break
        if pivot is None:
            break
        _, pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            if track_cols:
                for row in v:
                    row[t], row[pj] = row[pj], row[t]
        while True:
            swapped = False
            for i in range(t + 1, n_rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        swapped = True
            for j in range(t + 1, n_cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                        if track_cols:
                            for row in v:
                                row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        if track_cols:
                            for row in v:
                                row[t], row[j] = row[j], row[t]
                        swapped = True
            if not swapped:
                break
        t += 1
    diagonal = [abs(a[k][k]) for k in range(t)]
    return diagonal, v, t


def _divisibility_chain(diagonal: list[int]) -> list[int]:
    d = list(diagonal)
    changed = True
    while changed:
        changed = False
        for i in range(len(d) - 1):
            if d[i + 1] % d[i]:
                g = gcd(d[i], d[i + 1])
                d[i], d[i + 1] = g, d[i] * d[i + 1] // g
                changed = True
    return d


@dataclass(frozen=True)
class SmithNormalForm:
    """Invariant factors d_1 | d_2 | ... | d_r of an integer matrix."""

    factors: tuple[int, ...]
    rows: int
    cols: int

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def cokernel_free_rank(self) -> int:
        return self.cols - self.rank

    @property
    def cokernel_torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.factors if d > 1)


def smith_normal_form(matrix: IntMatrix) -> SmithNormalForm:
    """Exact Smith normal form; factors satisfy the divisibility chain."""
    a = _copy_checked(matrix)
    diagonal, _, _ = _diagonalize(a, track_cols=False)
    factors = tuple(_divisibility_chain(diagonal))
    return SmithNormalForm(factors, len(a), len(a[0]) if a else 0)


def right_kernel_basis(matrix: IntMatrix, n_cols: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Basis of {u : M u = 0} over the integers.

    ``n_cols`` must be supplied for matrices with zero rows.
    """
    a = _copy_checked(matrix)
    if a:
        n_cols = len(a[0])
    elif n_cols is None:
        raise ValueError("n_cols required for an empty matrix")
    else:
        return tuple(
            tuple(1 if i == j else 0 for i in range(n_cols)) for j in range(n_cols)
        )
    _, v, rank = _diagonalize(a, track_cols=True)
    basis = []
    for j in range(rank, n_cols):
        col = tuple(v[i][j] for i in range(n_cols))
        lead = next((x for x in col if x), 1)
        if lead < 0:
            col = tuple(-x for x in col)
        basis.append(col)
    return tuple(basis)


@dataclass(frozen=True)
class AbelianInvariants:
    """H_1 data: torsion coefficients d_1 | ... | d_k (each > 1) plus free rank."""

    torsion: tuple[int, ...]
    free_rank: int

    @property
    def is_trivial(self) -> bool:
        return not self.torsion and self.free_rank == 0

    @property
    def is_infinite_cyclic(self) -> bool:
        return not self.torsion and self.free_rank == 1

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def relation_matrix(p: Presentation) -> list[list[int]]:
    """Exponent-sum matrix: one row per relator, one column per generator."""
    n = len(p.generators)
    return [list(r.exponent_vector(n)) for r in p.relators]


def abelianization(p: Presentation) -> AbelianInvariants:
    """Invariant factors of the abelianized presentation via Smith normal form."""
    n = len(p.generators)
    snf = smith_normal_form(relation_matrix(p))
    return AbelianInvariants(snf.cokernel_torsion, n - snf.rank)
