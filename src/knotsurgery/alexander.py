"""Laurent polynomials over the integers and Fox-calculus Alexander polynomials.

Coefficients are exact integers throughout.  The Alexander polynomial of a
knot group presentation is computed from the free-derivative matrix of its
relators, evaluated under the abelianization map (generator -> t^exponent),
then reduced to the gcd of the maximal minors.  For a presentation with one
fewer relator than generators (Wirtinger and fibered presentations both land
here) the minors are the single-column-deletion determinants.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import Mapping, Sequence

from .errors import NotAKnotGroupError
from .fpgroup import Presentation, Word
from .knots import KnotPresentation
from .smith import abelianization, relation_matrix, right_kernel_basis


@dataclass(frozen=True)
class LaurentPolynomial:
    """Integer Laurent polynomial; terms are (exponent, coefficient), no zeros."""

    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        cleaned = tuple(sorted((int(e), int(c)) for e, c in self.terms if c))
        exponents = [e for e, _ in cleaned]
        if len(set(exponents)) != len(exponents):
            raise ValueError("repeated exponents in Laurent polynomial terms")
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def from_dict(cls, coeffs: Mapping[int, int]) -> "LaurentPolynomial":
        return cls(tuple(coeffs.items()))

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls(((0, 1),))

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "LaurentPolynomial":
        return cls(((exponent, coefficient),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exponent: int) -> int:
        for e, c in self.terms:
            if e == exponent:
                return c
        return 0

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        out = dict(self.terms)
        for e, c in other.terms:
            out[e] = out.get(e, 0) + c
        return LaurentPolynomial.from_dict(out)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        out: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPolynomial.from_dict(out)

    def shifted(self, by: int) -> "LaurentPolynomial":
        return LaurentPolynomial(tuple((e + by, c) for e, c in self.terms))

    def min_exponent(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no exponents")
        return self.terms[0][0]

    def max_exponent(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no exponents")
        return self.terms[-1][0]

    def evaluate(self, t: int) -> int:
        """Exact integer evaluation; t must be +1 or -1 so t^-k stays integral."""
        if t not in (1, -1):
            raise ValueError("exact evaluation only supported at t = 1 or t = -1")
        return sum(c * t ** (e % 2) for e, c in self.terms)

    def normalized(self) -> "LaurentPolynomial":
        """Unit-normalize: lowest exponent 0, leading coefficient positive."""
        if self.is_zero:
            return self
        shifted = self.shifted(-self.min_exponent())
        if shifted.terms[-1][1] < 0:
            shifted = -shifted
        return shifted

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for e, c in reversed(self.terms):
            if e == 0:
                body = str(abs(c))
            else:
                t_part = "t" if e == 1 else f"t^{e}"
                body = t_part if abs(c) == 1 else f"{abs(c)}*{t_part}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def _as_int_poly(p: LaurentPolynomial) -> list[int]:
    """Ascending coefficient list of p shifted so its lowest exponent is 0."""
    if p.is_zero:
        return []
    shift = p.min_exponent()
    out = [0] * (p.max_exponent() - shift + 1)
    for e, c in p.terms:
        out[e - shift] = c
    return out


def _strip(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _content(coeffs: Sequence[int]) -> int:
    g = 0
    for c in coeffs:
        g = gcd(g, c)
    return g


def _primitive(coeffs: list[int]) -> list[int]:
    g = _content(coeffs)
    if g in (0, 1):
        return list(coeffs)
    return [c // g for c in coeffs]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b (b nonzero), exact over the integers."""
    a = _strip(list(a))
    lead = b[-1]
    while len(a) >= len(b):
        shift = len(a) - len(b)
        coeff = a[-1]
        a = [lead * x for x in a]
        for i, bx in enumerate(b):
            a[shift + i] -= coeff * bx
        a = _strip(a)
    return a


def _int_poly_gcd(a: list[int], b: list[int]) -> list[int]:
    a, b = _strip(list(a)), _strip(list(b))
    if not a:
        return b
    if not b:
        return a
    content = gcd(_content(a), _content(b))
    a, b = _primitive(a), _primitive(b)
    while b:
        r = _primitive(_strip(_pseudo_rem(a, b)))
        a, b = b, r
    return [content * c for c in a]


def laurent_gcd(a: LaurentPolynomial, b: LaurentPolynomial) -> LaurentPolynomial:
    """gcd up to units, returned unit-normalized."""
    coeffs = _int_poly_gcd(_as_int_poly(a), _as_int_poly(b))
    return LaurentPolynomial(tuple((e, c) for e, c in enumerate(coeffs))).normalized()


def laurent_det(rows: Sequence[Sequence[LaurentPolynomial]]) -> LaurentPolynomial:
    """Determinant by column-subset dynamic programming (no division needed)."""
    n = len(rows)
    if n == 0:
        return LaurentPolynomial.one()
    for row in rows:
        if len(row) != n:
            raise ValueError("determinant requires a square matrix")
    states: dict[int, LaurentPolynomial] = {0: LaurentPolynomial.one()}
    for k in range(n):
        next_states: dict[int, LaurentPolynomial] = {}
        row = rows[k]
        row_sign = -1 if k % 2 else 1  # expansion along the last row: (-1)^(k + pos)
        for mask, value in states.items():
            sign = row_sign
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    sign = -sign
                    continue
                entry = row[j]
                if entry.is_zero:
                    continue
                term = entry * value
                if sign < 0:
                    term = -term
                new_mask = mask | bit
                acc = next_states.get(new_mask)
                next_states[new_mask] = term if acc is None else acc + term
        states = {m: v for m, v in next_states.items() if not v.is_zero}
        if not states:
            return LaurentPolynomial.zero()
    return states.get((1 << n) - 1, LaurentPolynomial.zero())


def fox_derivative(w: Word, index: int, exponents: Sequence[int]) -> LaurentPolynomial:
    """Free derivative of w with respect to one generator, abelianized.

    Each generator g is sent to t^exponents[g]; the derivative collects
    +t^(prefix) for g^+1 occurrences and -t^(prefix - exponents[g]) for g^-1.
    """
    out: dict[int, int] = {}
    prefix = 0
    for g, e in w.letters:
        if g == index:
            if e == 1:
                out[prefix] = out.get(prefix, 0) + 1
            else:
                k = prefix - exponents[g]
                out[k] = out.get(k, 0) - 1
        prefix += e * exponents[g]
    return LaurentPolynomial.from_dict(out)


def alexander_matrix(
    p: Presentation, exponents: Sequence[int]
) -> list[list[LaurentPolynomial]]:
    n = len(p.generators)
    return [[fox_derivative(r, j, exponents) for j in range(n)] for r in p.relators]


def abelianization_exponents(p: Presentation) -> tuple[int, ...]:
    """The map onto the infinite cyclic abelianization, as one exponent per generator."""
    invariants = abelianization(p)
    if not invariants.is_infinite_cyclic:
        raise NotAKnotGroupError(
            f"abelianization is {invariants}, expected infinite cyclic"
        )
    n = len(p.generators)
    basis = right_kernel_basis(relation_matrix(p), n_cols=n)
    assert len(basis) == 1
    return basis[0]


def fox_alexander(kp: KnotPresentation) -> LaurentPolynomial:
    """Alexander polynomial, normalized to lowest exponent 0 and positive lead."""
    p = kp.group
    exponents = abelianization_exponents(p)
    n = len(p.generators)
    rows = alexander_matrix(p, exponents)
    result = LaurentPolynomial.zero()
    for row_subset in combinations(range(len(rows)), n - 1):
        for j in range(n):
            minor = [[rows[i][c] for c in range(n) if c != j] for i in row_subset]
            result = laurent_gcd(result, laurent_det(minor))
    return result.normalized()
