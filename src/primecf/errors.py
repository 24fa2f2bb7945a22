"""Error types shared across the package.

Each class names a distinct failure mode so callers (and the CLI) can map
them to exit behaviour without string matching.  All of them derive from
GuardError, the mark of a named computational guard, and keep the builtin
base (ValueError or RuntimeError) that says what kind of failure it is.
"""


class GuardError(Exception):
    """A named computational guard refused or abandoned a request."""


class OutOfRangeError(GuardError, ValueError):
    """A query exceeded the range a table or sieve was built for."""


class DivergentSeriesError(GuardError, ValueError):
    """A series parameter lies outside the region of convergence."""


class EnumerationGuardError(GuardError, RuntimeError):
    """An enumeration would exceed the configured word/node budget."""


class BracketError(GuardError, RuntimeError):
    """A root finder could not bracket its root; carries end diagnostics."""


class ConstructionInfeasibleError(GuardError, RuntimeError):
    """No parameter choice satisfies the named feasibility inequality."""


class UndefinedExponentError(GuardError, ValueError):
    """Every sampled window entry was skipped; growth exponent undefined."""
