"""Every exception twodist defines, and the exit code each one gives the CLI.

DesignError and its subclasses exit 2: the input could not be used, either
because it is malformed or because exact arithmetic cannot represent what it
asks for.  InternalConsistencyError exits 1: an exact identity that must hold
failed.  Any other exception is a bug; the CLI lets it surface as a traceback.
"""


class DesignError(ValueError):
    """The input could not be used (exit 2)."""


class DegenerateParametersError(DesignError):
    """A parameter formula hits a zero denominator."""


class DegeneracyError(DesignError):
    """The candidate second distance collapses onto sqrt(2)."""


class InternalConsistencyError(AssertionError):
    """An exact identity that must hold failed (exit 1)."""
