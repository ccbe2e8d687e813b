"""Knot group presentations, Dehn surgery quotients, and finite-quotient invariants."""

from .errors import (
    BraidSyntaxError,
    ClosureCapExceededError,
    DuplicateGeneratorError,
    IndexOutOfRangeError,
    InvalidMonodromyError,
    InvalidSlopeError,
    KnotSurgeryError,
    MismatchedTargetsError,
    NotAKnotError,
    NotAKnotGroupError,
    UnknownGeneratorError,
)
from .fpgroup import (
    Presentation,
    Word,
    apply_mapping,
    commutator,
    presentation_from_json,
    presentation_to_json,
    quotient_by_relators,
    tietze_simplify,
    tietze_simplify_tracked,
    to_free_group_script,
    word_power,
)
from .smith import (
    AbelianInvariants,
    SmithNormalForm,
    abelianization,
    smith_normal_form,
)
from .targets import (
    FiniteTarget,
    alternating,
    close_target,
    cyclic,
    dihedral,
    escalation_suite,
    standard_suite,
    symmetric,
)
from .homcount import (
    DistinguishReport,
    HomSpectrum,
    count_homomorphisms,
    distinguish_report,
    hom_spectrum,
)
from .alexander import LaurentPolynomial, fox_alexander
from .knots import (
    FiberedKnotData,
    KnotPresentation,
    PeripheralReport,
    builtin_knot,
    builtin_monodromy,
    mapping_torus_presentation,
    validate_peripheral,
)
from .braids import BraidWord, parse_braid, wirtinger_from_braid
from .surgery import (
    FamilyResult,
    SurgerySlope,
    build_family,
    dehn_surgery_group,
    half_complement_group,
)

__version__ = "0.1.0"
