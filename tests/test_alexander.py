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
)
from knotsurgery.alexander import (
    abelianization_exponents,
    fox_derivative,
    laurent_det,
    laurent_gcd,
)
from knotsurgery.knots import KnotPresentation

from conftest import laurent_terms, seifert_alexander

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


def test_laurent_gcd_cases():
    t = LaurentPolynomial(((1, 1),))
    one = LaurentPolynomial.one()
    t2 = LaurentPolynomial(((2, 1),))
    t3 = LaurentPolynomial(((3, 1),))
    assert laurent_gcd(t2 - one, t3 - one) == t - one
    assert laurent_gcd(lp({0: 4, 1: 4}), lp({0: 6, 1: 6})) == lp({0: 2, 1: 2})
    assert laurent_gcd(LaurentPolynomial.zero(), t2 - one) == t2 - one


def test_fox_derivative_product_rule_on_power():
    # d/da (a^3) = 1 + t + t^2 under a -> t
    poly = fox_derivative(Presentation(["a"]).word("a^3"), 0, [1])
    assert laurent_terms(poly) == {0: 1, 1: 1, 2: 1}
    # d/da (a^-1) = -t^-1
    poly = fox_derivative(Presentation(["a"]).word("a^-1"), 0, [1])
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


def test_alexander_maximal_minor_fallback():
    # adding the square of a relator leaves the group unchanged but gives the
    # Alexander matrix more rows, so the gcd runs over several maximal minors
    kp = builtin_knot("trefoil")
    relator = kp.group.relators[0]
    padded = Presentation(kp.group.generators, kp.group.relators + (relator * relator,))
    assert len(padded.relators) == len(padded.generators)
    fattened = KnotPresentation(padded, kp.meridian, kp.longitude)
    assert laurent_terms(fox_alexander(fattened)) == {0: 1, 1: -1, 2: 1}


def test_fox_alexander_rejects_non_knot_groups():
    free2 = Presentation(["a", "b"])
    fake = KnotPresentation(free2, free2.word("a"), free2.word(""))
    with pytest.raises(NotAKnotGroupError):
        fox_alexander(fake)

    kp = builtin_knot("trefoil")
    surgered = dehn_surgery_group(kp, SurgerySlope(1, 3))
    fake2 = KnotPresentation(surgered, kp.meridian, kp.longitude)
    with pytest.raises(NotAKnotGroupError):
        fox_alexander(fake2)
