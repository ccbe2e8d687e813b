import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from knotsurgery import (
    LaurentPolynomial,
    NotAKnotGroupError,
    Presentation,
    SurgerySlope,
    builtin_knot,
    builtin_monodromy,
    dehn_surgery_group,
    fox_alexander,
    mapping_torus_presentation,
    parse_braid,
    wirtinger_from_braid,
)
from knotsurgery import alexander
from knotsurgery.alexander import (
    abelianization_exponents,
    fox_derivative,
    laurent_det,
)
from knotsurgery.knots import KnotPresentation

from conftest import laurent_terms, parse_word, seifert_alexander

TREFOIL_SEIFERT = [[-1, 1], [0, -1]]
FIG8_SEIFERT = [[1, 1], [0, -1]]


def lp(coeffs: dict) -> LaurentPolynomial:
    return LaurentPolynomial.from_dict(coeffs)


def test_laurent_arithmetic_basics():
    t = LaurentPolynomial(((1, 1),))
    poly = (t - LaurentPolynomial.one()) * (t + LaurentPolynomial.one())
    assert laurent_terms(poly) == {2: 1, 0: -1}
    assert poly.evaluate(1) == 0
    assert poly.evaluate(-1) == 0
    assert str(lp({2: 1, 1: -1, 0: 1})) == "t^2 - t + 1"
    assert str(lp({-1: 2, 0: -3})) == "-3 + 2*t^-1"
    assert lp({-1: 2, 0: -3}).normalized() == lp({0: -2, 1: 3})


def test_laurent_rejects_duplicate_exponents():
    with pytest.raises(ValueError):
        LaurentPolynomial(((0, 1), (0, 2)))


laurents = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-5, max_value=5),
    max_size=5,
).map(lp)


@given(laurents, laurents, laurents)
def test_laurent_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == LaurentPolynomial.zero()


def test_laurent_det_small_cases():
    t = LaurentPolynomial(((1, 1),))
    one = LaurentPolynomial.one()
    assert laurent_det([[t, one], [one, one]]) == t - one
    assert laurent_det([]) == one
    zero_row = [[LaurentPolynomial.zero(), one], [LaurentPolynomial.zero(), one]]
    assert laurent_det(zero_row).is_zero


def test_fox_derivative_product_rule_on_power():
    # d/da (a^3) = 1 + t + t^2 under a -> t
    poly = fox_derivative(parse_word("a^3", ["a"]), 0, [1])
    assert laurent_terms(poly) == {0: 1, 1: 1, 2: 1}
    # d/da (a^-1) = -t^-1
    poly = fox_derivative(parse_word("a^-1", ["a"]), 0, [1])
    assert laurent_terms(poly) == {-1: -1}


def test_seifert_oracle_values():
    assert seifert_alexander(TREFOIL_SEIFERT) == {0: 1, 1: -1, 2: 1}
    assert seifert_alexander(FIG8_SEIFERT) == {0: 1, 1: -3, 2: 1}


@pytest.mark.parametrize(
    "name,seifert",
    [("trefoil", TREFOIL_SEIFERT), ("fig8", FIG8_SEIFERT)],
)
def test_alexander_matches_seifert_oracle(name, seifert):
    poly = fox_alexander(builtin_knot(name))
    assert laurent_terms(poly) == seifert_alexander(seifert)


def test_alexander_unknot():
    assert fox_alexander(builtin_knot("unknot")) == LaurentPolynomial.one()


@pytest.mark.parametrize("name", ["trefoil", "fig8"])
def test_alexander_same_for_mapping_torus_route(name):
    braid_route = fox_alexander(builtin_knot(name))
    torus_route = fox_alexander(mapping_torus_presentation(builtin_monodromy(name)))
    assert braid_route == torus_route


@pytest.mark.parametrize("name", ["unknot", "trefoil", "fig8"])
def test_alexander_normalization_checks(name):
    poly = fox_alexander(builtin_knot(name))
    assert poly.min_exponent() == 0
    assert poly.terms[-1][1] > 0
    assert poly.evaluate(1) in (1, -1)
    assert poly.evaluate(-1) % 2 == 1


def test_abelianization_exponents_wirtinger():
    kp = builtin_knot("fig8")
    assert abelianization_exponents(kp.group) == (1, 1, 1)


def test_alexander_refuses_n_relators_on_n_generators():
    # adding the square of a relator leaves the group unchanged, but Fox's
    # formula reads the polynomial off one minor only with n - 1 relators
    kp = builtin_knot("trefoil")
    relator = kp.group.relators[0]
    padded = Presentation(kp.group.generators, kp.group.relators + (relator * relator,))
    assert len(padded.relators) == len(padded.generators)
    fattened = KnotPresentation(padded, kp.meridian, kp.longitude)
    n = len(padded.generators)
    with pytest.raises(ValueError, match=f"got {n} relators on {n} generators"):
        fox_alexander(fattened)


def test_alexander_of_the_census_pool_matches_its_frozen_strings():
    pool_path = Path(__file__).resolve().parent.parent / "bench" / "census_pool.json"
    pool = json.loads(pool_path.read_text())["knots"]
    assert len(pool) == 1200
    for knot in pool:
        kp = wirtinger_from_braid(parse_braid(knot["braid"]))
        assert str(fox_alexander(kp)) == knot["alexander"], knot["braid"]


def test_alexander_when_no_generator_has_exponent_one():
    # the (2, 3) torus knot as <x, y | x^2 y^-3>: x -> t^3, y -> t^2, so the
    # one minor is divided by t^2 - 1, not by t - 1
    p = Presentation(["x", "y"], [parse_word("x^2 y^-3", ["x", "y"])])
    assert sorted(map(abs, abelianization_exponents(p))) == [2, 3]
    x, y = (parse_word(name, p.generators) for name in p.generators)
    m = y.inverse() * x
    kp = KnotPresentation(p, m, x**2 * m**-6)
    assert laurent_terms(fox_alexander(kp)) == {0: 1, 1: -1, 2: 1}


@pytest.mark.parametrize(
    "make",
    [
        lambda: builtin_knot("trefoil"),
        lambda: wirtinger_from_braid(parse_braid("-1 -2 -2 1 1 -2 2 2")),
        lambda: mapping_torus_presentation(builtin_monodromy("fig8")),
    ],
    ids=["trefoil", "census-braid", "fig8-monodromy"],
)
def test_fox_alexander_computes_one_determinant(make, monkeypatch):
    kp = make()
    calls = []

    def counting_det(rows):
        calls.append(len(rows))
        return laurent_det(rows)

    monkeypatch.setattr(alexander, "laurent_det", counting_det)
    fox_alexander(kp)
    assert calls == [len(kp.group.generators) - 1]


def test_exact_division_refuses_a_remainder():
    t = LaurentPolynomial(((1, 1),))
    one = LaurentPolynomial.one()
    assert alexander._divided_by_t_power_minus_one((t * t * t - one) * t, 3) == t
    with pytest.raises(ArithmeticError):
        alexander._divided_by_t_power_minus_one(t * t - t + one, 2)


def test_fox_alexander_rejects_non_knot_groups():
    free2 = Presentation(["a", "b"])
    fake = KnotPresentation(free2, parse_word("a", free2.generators), parse_word("", free2.generators))
    with pytest.raises(NotAKnotGroupError):
        fox_alexander(fake)

    kp = builtin_knot("trefoil")
    surgered = dehn_surgery_group(kp, SurgerySlope(1, 3))
    fake2 = KnotPresentation(surgered, kp.meridian, kp.longitude)
    with pytest.raises(NotAKnotGroupError):
        fox_alexander(fake2)
