"""Exception types shared across the toolkit, and the decorator of checked records."""


class DataError(Exception):
    """Malformed or inconsistent input data."""


class SgmParseError(DataError):
    """Structurally unrecoverable SGM input."""


class AlignmentError(DataError):
    """Parallel streams that do not line up."""


class BackendError(Exception):
    """A translation backend failed after exhausting retries, or the worker
    process running its batch died.

    ``first_line`` and ``last_line`` give the range (inclusive) of the
    input lines in the failing batch, when known: 0-based indices from
    ``translate_batch``, 1-based line numbers of the input file from
    ``iter_rtt`` and ``apply_ape``.  ``reason`` is the message without that
    range.
    """

    def __init__(self, message: str, first_line: int | None = None, last_line: int | None = None):
        self.reason, self.first_line, self.last_line = message, first_line, last_line
        if first_line is not None:
            message = f"{message} (input lines {first_line}..{last_line})"
        super().__init__(message)


def checked(record: type) -> type:
    """The record of ``NamedTuple`` ``record``, whose ``_check`` raises
    ``ValueError`` for a bad value, with that check run by the constructor,
    and so by ``_make`` and ``_replace``, which would otherwise build the
    tuple unchecked.  A class decorator: the record keeps the declared
    class's names, which its ``repr``, its errors and pickling use."""

    class Record(record):
        __slots__ = ()

        def __new__(cls, *args, **kwargs):
            self = super().__new__(cls, *args, **kwargs)
            self._check()
            return self

        @classmethod
        def _make(cls, values):
            return cls(*values)

    Record.__name__, Record.__qualname__ = record.__name__, record.__qualname__
    Record.__module__, Record.__doc__ = record.__module__, record.__doc__
    return Record
