"""Equality, hashing, pickling and the import of the package's value classes.

Words, presentations, braids, monodromies, Laurent polynomials and the
records that results come back in compare and hash by value; a target is
equal only to itself.  No class is generated at import: importing the CLI
loads no ``dataclasses``.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import knotsurgery
from knotsurgery import (
    AbelianInvariants,
    BraidWord,
    HomSpectrum,
    LaurentPolynomial,
    Presentation,
    Word,
    builtin_monodromy,
    cyclic,
    smith_normal_form,
)
from knotsurgery.knots import fibered_knot_from_json, fibered_knot_to_json

# (make a value, make a value unequal to it); each maker builds a new object
VALUES = {
    "Word": (lambda: Word(((0, 1), (1, -1))), lambda: Word(((0, 1),))),
    "Presentation": (
        lambda: Presentation(("a", "b"), (Word(((0, 1), (1, 1))),)),
        lambda: Presentation(("a", "b")),
    ),
    "BraidWord": (lambda: BraidWord(2, (1, 1, 1)), lambda: BraidWord(2, (-1, -1, -1))),
    "FiberedKnotData": (
        lambda: fibered_knot_from_json(fibered_knot_to_json(builtin_monodromy("fig8"))),
        lambda: fibered_knot_from_json(fibered_knot_to_json(builtin_monodromy("trefoil"))),
    ),
    "LaurentPolynomial": (
        lambda: LaurentPolynomial(((0, 1), (1, -1))),
        lambda: LaurentPolynomial(((0, 1),)),
    ),
    "AbelianInvariants": (lambda: AbelianInvariants((2,), 1), lambda: AbelianInvariants((), 1)),
    "SmithNormalForm": (lambda: smith_normal_form([[2, 0]]), lambda: smith_normal_form([[3, 0]])),
    "HomSpectrum": (lambda: HomSpectrum((("C2", 2),)), lambda: HomSpectrum((("C2", 4),))),
}


@pytest.mark.parametrize("name", VALUES)
def test_a_value_compares_and_hashes_by_value(name):
    make, make_other = VALUES[name]
    a, b, other = make(), make(), make_other()
    assert type(a).__name__ == name
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other and not (a == other)
    assert len({a, b, other}) == 2
    assert a != object()
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is type(a) and twin == a and hash(twin) == hash(a)


def test_a_target_is_equal_only_to_itself():
    a, b = cyclic(3), cyclic(3)
    assert a == a and hash(a) == hash(a)
    assert a != b and len({a, b}) == 2


def test_importing_the_cli_generates_no_class():
    src = Path(knotsurgery.__file__).resolve().parents[1]
    code = "import sys, knotsurgery.cli; print('dataclasses' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"
