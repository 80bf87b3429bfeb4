"""Exception types shared across the library."""


class DegenerateInputError(ValueError):
    """Input geometry is degenerate: collinear, coincident, or too sparse."""


class DegenerateBoundaryError(ValueError):
    """Query sits on the sample hull boundary where no single limit exists."""


class OutsideDomainError(ValueError):
    """Query lies outside the convex hull of the samples under strict policy."""


class CoincidentQueryError(ValueError):
    """Query coincides with a sample site; carries the site's index."""

    def __init__(self, message, site_index=None):
        super().__init__(message)
        self.site_index = site_index


class PreconditionError(ValueError):
    """Arguments violate an operation's stated precondition."""


class GeneratorExhaustedError(RuntimeError):
    """A constrained random generator ran out of retries."""


class CsvFormatError(ValueError):
    """Malformed sample CSV; carries the offending line number."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = "line %d: %s" % (line_number, message)
        super().__init__(message)
        self.line_number = line_number
