"""Exception hierarchy shared by all modules."""


class NLieError(Exception):
    """Base class for all library errors."""


class InputError(NLieError):
    """Malformed or dimensionally inconsistent input."""


class UnsupportedRingError(NLieError):
    """Operation requires a field but got a non-field ring (dual numbers)."""


class PreconditionError(NLieError):
    """A mathematical precondition of a construction failed.

    Carries the underlying counterexample when one exists.
    """

    def __init__(self, message, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample


class NotInvertibleError(NLieError):
    """An operator required to be invertible is singular."""


# the cells a differential may have before ``SizeGuardError`` refuses it
DEFAULT_SIZE_GUARD = 2_000_000


class SizeGuardError(NLieError):
    """A requested computation exceeds the configured size guard."""


class InternalConsistencyError(NLieError):
    """Two independent computation paths disagreed (bug trap)."""
