"""miflab: exact computation around mixed identities in groups.

The package computes in the window p-groups B(W) and the limit groups
they assemble into (a locally finite p-group A and its shift extension
G = A ⋊ <t>), evaluates and searches mixed identities in free products
G * F_n, runs brute-force identity verdicts on finite groups, and
decides the word problem in the Grigorchuk group.
"""

from .errors import (
    BudgetExceeded,
    CapacityExceeded,
    MiflabError,
    ParseError,
    VerificationError,
)
from .presentations import (
    CSequence,
    IndexSet,
    Presentation,
    Window,
    build_window_presentation,
)
from .coset_enum import CosetTable, enumerate_presentation
from .limit_group import (
    INFINITE,
    AWord,
    GElement,
    LimitGroup,
    shift,
)
from .mixed_words import (
    MixedWord,
    commutator,
    evaluate,
    iota_embed,
    left_normed,
    reduce,
    sub_commutator,
)
from .parser import parse_element, parse_mixed_word
from .identity_lab import (
    FiniteGroup,
    cyclic,
    dihedral,
    direct_product,
    factorial_identity_check,
    is_mixed_identity,
    klein_four,
    small_group,
    symmetric,
    wreath_product,
)
from .mif_search import (
    Certificate,
    SearchBounds,
    drive,
    enumerate_words,
    find_witness,
    verify_certificates,
)

__version__ = "0.1.0"

__all__ = [
    "AWord",
    "BudgetExceeded",
    "CSequence",
    "CapacityExceeded",
    "Certificate",
    "CosetTable",
    "FiniteGroup",
    "GElement",
    "INFINITE",
    "IndexSet",
    "LimitGroup",
    "MiflabError",
    "MixedWord",
    "ParseError",
    "Presentation",
    "SearchBounds",
    "VerificationError",
    "Window",
    "build_window_presentation",
    "commutator",
    "cyclic",
    "dihedral",
    "direct_product",
    "drive",
    "enumerate_presentation",
    "enumerate_words",
    "evaluate",
    "factorial_identity_check",
    "find_witness",
    "iota_embed",
    "is_mixed_identity",
    "klein_four",
    "left_normed",
    "parse_element",
    "parse_mixed_word",
    "reduce",
    "shift",
    "small_group",
    "sub_commutator",
    "symmetric",
    "verify_certificates",
    "wreath_product",
]
