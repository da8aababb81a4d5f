"""Exception types shared across the package."""


class UsageError(ValueError):
    """Bad input from the user, not a fault of the program.

    Malformed arguments, degenerate base points and results files that do
    not fit the run raise it; the CLI maps it, and only it, to exit 2.
    """


class DegenerateBasePoint(UsageError):
    """Raised when a base point would collapse the preperiodic orbit structure."""


class InvariantViolation(RuntimeError):
    """A proven internal invariant failed.

    This always signals a bug (or a breach of a mathematically guaranteed
    property), never bad user input, and must not be silently absorbed.
    """
