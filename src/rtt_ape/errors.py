"""Exception types shared across the toolkit."""


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
