"""Laurent polynomials over the integers and Fox-calculus Alexander polynomials.

Coefficients are exact integers throughout.  The Alexander polynomial of a
knot group presentation is read off one minor of the free-derivative matrix of
its relators, evaluated under the abelianization map (generator j ->
t^e_j).  The presentation must have one fewer relator than generators
(Wirtinger and mapping-torus presentations both do).  By Fox's fundamental
formula, deleting column j leaves a minor equal to
Delta * (t^e_j - 1) / (t - 1) up to a unit +-t^k, so one determinant, for the
column with the least nonzero |e_j|, gives Delta: the minor itself when
|e_j| = 1, as for every Wirtinger generator and the mapping torus's m.

The determinant and the division by t^k - 1 run on {exponent: coefficient}
dicts and build one ``LaurentPolynomial`` each at the end, not one per
product and sum.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import NotAKnotGroupError
from .fpgroup import Presentation, Word
from .knots import KnotPresentation
from .smith import relation_smith_form


class LaurentPolynomial:
    """Integer Laurent polynomial; terms are (exponent, coefficient), no zeros."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[int, int]] = ()) -> None:
        cleaned = tuple(sorted((int(e), int(c)) for e, c in terms if c))
        exponents = [e for e, _ in cleaned]
        if len(set(exponents)) != len(exponents):
            raise ValueError("repeated exponents in Laurent polynomial terms")
        self.terms = cleaned

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.terms,))

    def __repr__(self) -> str:
        return f"LaurentPolynomial(terms={self.terms!r})"

    @classmethod
    def from_dict(cls, coeffs: Mapping[int, int]) -> "LaurentPolynomial":
        return cls(tuple(coeffs.items()))

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls(((0, 1),))

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


def laurent_det(rows: Sequence[Sequence[LaurentPolynomial]]) -> LaurentPolynomial:
    """Determinant by column-subset dynamic programming (no division needed)."""
    n = len(rows)
    if n == 0:
        return LaurentPolynomial.one()
    for row in rows:
        if len(row) != n:
            raise ValueError("determinant requires a square matrix")
    states: dict[int, dict[int, int]] = {0: {0: 1}}
    for k in range(n):
        next_states: dict[int, dict[int, int]] = {}
        row = rows[k]
        row_sign = -1 if k % 2 else 1  # expansion along the last row: (-1)^(k + pos)
        for mask, value in states.items():
            sign = row_sign
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    sign = -sign
                    continue
                entry = row[j].terms
                if not entry:
                    continue
                acc = next_states.setdefault(mask | bit, {})
                for e1, c1 in entry:
                    c1 *= sign
                    for e2, c2 in value.items():
                        acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
        states = {}
        for m, v in next_states.items():
            if v := {e: c for e, c in v.items() if c}:
                states[m] = v
        if not states:
            return LaurentPolynomial.zero()
    return LaurentPolynomial.from_dict(states.get((1 << n) - 1, {}))


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


def abelianization_exponents(p: Presentation) -> tuple[int, ...]:
    """The map onto the infinite cyclic abelianization, as one exponent per generator."""
    snf = relation_smith_form(p)
    invariants = snf.cokernel()
    if not invariants.is_infinite_cyclic:
        raise NotAKnotGroupError(
            f"abelianization is {invariants}, expected infinite cyclic"
        )
    (phi,) = snf.kernel()
    return phi


def _divided_by_t_power_minus_one(p: LaurentPolynomial, k: int) -> LaurentPolynomial:
    """p / (t^k - 1) for k >= 1; raises ArithmeticError if it leaves a remainder."""
    quotient: dict[int, int] = {}
    coeffs = dict(p.terms)
    if coeffs:
        # p = q t^k - q, so q_e = q_(e-k) - p_e from the lowest exponent up
        for e in range(p.min_exponent(), p.max_exponent() - k + 1):
            quotient[e] = quotient.get(e - k, 0) - coeffs.get(e, 0)
    # the remainder: p less q t^k - q, term by term
    for e, c in quotient.items():
        coeffs[e + k] = coeffs.get(e + k, 0) - c
        coeffs[e] = coeffs.get(e, 0) + c
    if any(coeffs.values()):
        raise ArithmeticError(f"t^{k} - 1 does not divide {p}")
    return LaurentPolynomial.from_dict(quotient)


def fox_alexander(kp: KnotPresentation) -> LaurentPolynomial:
    """Alexander polynomial, normalized to lowest exponent 0 and positive lead.

    Raises NotAKnotGroupError unless H1 = Z, and ValueError unless the
    presentation has one relator fewer than generators.
    """
    p = kp.group
    exponents = abelianization_exponents(p)
    n = len(p.generators)
    if len(p.relators) != n - 1:
        raise ValueError(
            f"Fox's formula needs n - 1 relators on n generators,"
            f" got {len(p.relators)} relators on {n} generators"
        )
    j = min((i for i in range(n) if exponents[i]), key=lambda i: abs(exponents[i]))
    minor = [[fox_derivative(r, c, exponents) for c in range(n) if c != j] for r in p.relators]
    det, k = laurent_det(minor), abs(exponents[j])
    if k > 1:  # at k = 1, as for every meridian generator, the factors cancel
        det = _divided_by_t_power_minus_one(det * LaurentPolynomial(((0, -1), (1, 1))), k)
    return det.normalized()
