"""Exception types shared across the package."""


class MiflabError(Exception):
    """Base class for all miflab errors."""


class CapacityExceeded(MiflabError):
    """A computation would exceed a configured cap (coset count, window width).

    Raised loudly instead of truncating: the caller can raise the cap or
    shrink the window / class-bound sequence.
    """


class FixedLimitExceeded(CapacityExceeded):
    """A word is past a fixed limit of the word calculus, not a flag: the
    parser's commutator nesting (`parser.MAX_NESTING`) or the syllables
    and letters written out in one list (`mixed_words.MAX_SYLLABLES`).

    It exits like every CapacityExceeded, but `verify_certificates` records
    it as the row's failure: no cap admits the row.
    """


class BudgetExceeded(MiflabError):
    """An exhaustive check refuses to run because the search space is too large.

    A "true" verdict from the identity lab must be a proof, so oversized
    instances are rejected rather than sampled.
    """


class ParseError(MiflabError):
    """Malformed word, window, group or sequence specification."""


class VerificationError(MiflabError):
    """A certificate or invariant failed independent re-verification."""
