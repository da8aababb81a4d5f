"""Exception types, the open() of user-named paths and the checked-record decorator."""


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


def open_named(path, mode: str = "r", **kwargs):
    """open() a path the user named; a missing one is their error.

    UsageError names the path when it or its directory is missing or it is a
    directory; an error once the file is open (a full disk) stays OSError.
    """
    try:
        return open(path, mode, **kwargs)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        raise UsageError(f"{path}: {exc.strerror}") from None


def checked(record):
    """Class decorator: a NamedTuple's ``_check`` runs on every record its ``__new__``
    or ``_make`` builds, so ``_replace`` and unpickling cannot skip it either."""
    new, make = record.__new__, record._make.__func__

    def __new__(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        self._check()
        return self

    def _make(cls, iterable):
        self = make(cls, iterable)
        self._check()
        return self

    __new__.__wrapped__ = new  # inspect.signature shows the fields
    record.__new__, record._make = __new__, classmethod(_make)
    return record
