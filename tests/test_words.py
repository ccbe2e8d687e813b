import pytest
from hypothesis import example, given, settings, strategies as st

from knotsurgery import (
    KnotSurgeryError,
    Presentation,
    Word,
    apply_mapping,
    commutator,
    parse_word,
    quotient_by_relators,
    word_power,
)
from knotsurgery.fpgroup import (
    MAX_WORD_LENGTH,
    _cyclic_reduced,
    _inverse_letters,
    _min_rotation,
    cyclic_key,
    word_from_json,
)

from conftest import min_rotation_oracle

a = Word.generator(0)
b = Word.generator(1)
c = Word.generator(2)


letters = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.sampled_from((1, -1))),
    max_size=24,
)
words = letters.map(lambda ls: Word(tuple(ls)))


def test_multiply_inverse_cancellation():
    assert a * a.inverse() == Word()


def test_multiply_single_cascade():
    assert (a * b) * (b.inverse() * c) == a * c


def test_multiply_two_step_cascade():
    w1 = a * b * a * b.inverse()
    w2 = b * a.inverse()
    assert w1 * w2 == a * b


def test_inverse_examples():
    assert Word().inverse() == Word()
    assert (a * b.inverse()).inverse() == b * a.inverse()
    assert word_power(a, 3).inverse() == word_power(a, -3)


def test_cyclic_reduce_examples():
    assert (a * b * a.inverse()).cyclically_reduced() == b
    abab = a * b * a * b
    assert abab.cyclically_reduced() == abab
    assert (a.inverse() * b * c * b.inverse() * a).cyclically_reduced() == c


def test_word_power_length_limit():
    with pytest.raises(KnotSurgeryError):
        word_power(a, MAX_WORD_LENGTH + 1)
    with pytest.raises(KnotSurgeryError):
        word_power(a * b, -(MAX_WORD_LENGTH // 2 + 1))
    with pytest.raises(KnotSurgeryError):
        parse_word(f"a^{MAX_WORD_LENGTH + 1}", ("a",))


def test_apply_mapping_is_simultaneous():
    # a -> b, b -> a must swap, not chain
    swapped = apply_mapping(a * b, {0: b, 1: a})
    assert swapped == b * a


def test_commutator():
    assert commutator(a, b) == a * b * a.inverse() * b.inverse()
    assert commutator(a, a) == Word()


def test_parse_word():
    names = ("a", "b")
    assert parse_word("a b^-1", names) == a * b.inverse()
    assert parse_word("a^3", names) == word_power(a, 3)
    assert parse_word("a*b*a^-1", names) == a * b * a.inverse()
    assert parse_word("", names) == Word()


def test_word_rejects_bad_letters():
    with pytest.raises(ValueError):
        Word(((0, 2),))
    with pytest.raises(ValueError):
        Word(((-1, 1),))


@given(letters)
def test_reduction_idempotent(ls):
    w = Word(tuple(ls))
    assert Word(w.letters) == w


@given(words, words, words)
def test_multiplication_associative(w1, w2, w3):
    assert (w1 * w2) * w3 == w1 * (w2 * w3)


@given(words)
def test_inverse_law(w):
    assert w * w.inverse() == Word()
    assert w.inverse() * w == Word()


@given(words)
def test_cyclic_reduce_conjugation_invariant(w):
    conjugated = a * w * a.inverse()
    reduced = conjugated.cyclically_reduced().letters
    base = w.cyclically_reduced().letters
    rotations = {base[i:] + base[:i] for i in range(max(1, len(base)))}
    assert reduced in rotations


@given(words, st.integers(min_value=-4, max_value=4))
def test_power_matches_repeated_multiplication(w, n):
    expected = Word()
    step = w if n >= 0 else w.inverse()
    for _ in range(abs(n)):
        expected = expected * step
    assert word_power(w, n) == expected


# few distinct letters and repeated blocks, so rotations tie often
periodic_letters = st.tuples(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=1), st.sampled_from((1, -1))),
        max_size=6,
    ),
    st.integers(min_value=1, max_value=5),
).map(lambda case: tuple(case[0]) * case[1])


@settings(max_examples=300)
@given(st.one_of(periodic_letters, letters.map(tuple)))
@example(())
@example(((0, 1),) * 7)
@example(((1, 1), (0, 1), (1, 1), (0, 1)))
@example(((1, 1), (0, 1), (0, 1), (1, 1), (0, 1)))
def test_least_rotation_matches_the_quadratic_oracle(ls):
    assert _min_rotation(ls) == min_rotation_oracle(ls)
    expected_key = min(min_rotation_oracle(ls), min_rotation_oracle(_inverse_letters(ls)))
    assert cyclic_key(ls) == expected_key


# Words over 3 generators; the fast paths below are checked against the
# reference Word(letters), which reduces the letters anew.
letters3 = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2), st.sampled_from((1, -1))),
    max_size=16,
).map(tuple)
words3 = letters3.map(Word)


@given(words3, st.integers(min_value=0, max_value=16), letters3)
def test_product_matches_reference(w, k, tail):
    # v starts by undoing the last k letters of w: full cancellation when
    # k == len(w) and tail is empty, partial otherwise
    v = Word(_inverse_letters(w.letters[len(w) - min(k, len(w)) :]) + tail)
    assert (w * v).letters == Word(w.letters + v.letters).letters
    assert (v * w).letters == Word(v.letters + w.letters).letters


@given(words3)
def test_inverse_and_cyclic_reduction_match_reference(w):
    assert w.inverse().letters == Word(_inverse_letters(w.letters)).letters
    trimmed = w.cyclically_reduced()
    assert trimmed.letters == Word(_cyclic_reduced(w.letters)).letters
    assert trimmed.cyclically_reduced() is trimmed


@given(
    st.one_of(
        words3,
        # u c u^-1: not cyclically reduced whenever u survives reduction
        st.tuples(letters3, letters3).map(lambda uc: Word(uc[0] + uc[1] + _inverse_letters(uc[0]))),
    ),
    st.integers(min_value=-5, max_value=5),
)
def test_power_matches_reference(w, n):
    base = w.letters if n >= 0 else _inverse_letters(w.letters)
    assert word_power(w, n).letters == Word(base * abs(n)).letters


def test_outside_input_is_still_checked():
    with pytest.raises(ValueError, match="exponent"):
        word_from_json([["a", 2]], {"a": 0})
    with pytest.raises(ValueError, match="generator index"):
        Word(((0, 1), (-2, -1)))


def _reference_quotient(p, extra):
    """Append extras, dropping identities and repeats up to rotation and
    inversion, comparing the keys of every relator built by every rotation."""

    def key(ls):
        return min(min_rotation_oracle(ls), min_rotation_oracle(_inverse_letters(ls)))

    seen = {key(r.letters) for r in p.relators}
    added = []
    for w in extra:
        ls = _cyclic_reduced(w.letters)
        if ls and key(ls) not in seen:
            seen.add(key(ls))
            added.append(Word(ls))
    return Presentation(p.generators, p.relators + tuple(added))


short_words = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2), st.sampled_from((1, -1))),
    max_size=6,
).map(lambda ls: Word(tuple(ls)))


@given(st.lists(short_words, max_size=5), st.lists(short_words, max_size=4), st.randoms())
def test_quotient_matches_the_reference_on_all_relators(relators, extra, rng):
    p = Presentation(("x", "y", "z"), tuple(relators))
    # repeat some relators as rotations, inverses and conjugates
    for r in p.relators:
        if rng.random() < 0.5:
            k = rng.randrange(len(r.letters))
            rotated = Word(r.letters[k:] + r.letters[:k])
            extra.append(rotated.inverse() if rng.random() < 0.5 else rotated)
        if rng.random() < 0.3:
            extra.append(Word.generator(1) * r * Word.generator(1).inverse())
    rng.shuffle(extra)
    assert quotient_by_relators(p, extra) == _reference_quotient(p, extra)
