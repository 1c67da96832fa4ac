"""Exception hierarchy shared across the package.

Each top-level error class carries the process exit code used by the CLI.
"""


class GenomaskError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InputError(GenomaskError):
    """Malformed or inconsistent user input."""

    exit_code = 2


class CapacityError(GenomaskError):
    """Requested computation exceeds an enumeration/search budget."""

    exit_code = 3


class NumericalError(GenomaskError):
    """A quantity left its valid range by more than round-off tolerance."""

    exit_code = 4


class ImpossibleContextError(GenomaskError):
    """A conditioning event has probability zero.

    Raised by the exact conditional queries `EnumeratedMechanism.conditional`
    and `BatchMaskingSession.predictive`, and caught nowhere in the package.
    The masking paths never raise it: `release_rule` gives a context with no
    live hypothesis minimum 0, so it is erased with probability one.
    """

    exit_code = 4


class DegenerateSensitiveError(InputError):
    """The sensitive symbols carry zero entropy, so normalized leakage
    is undefined."""
