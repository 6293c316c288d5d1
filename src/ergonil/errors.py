"""Exception classes shared across the package."""


class ErgonilError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(ErgonilError, ValueError):
    """A point or frequency vector does not match the system dimension."""


class InvalidExponentsError(ErgonilError, ValueError):
    """Double-recurrence exponents must be distinct and nonzero."""


class SequenceTooShortError(ErgonilError, ValueError):
    """A sequence accessor does not cover the requested index range."""


class UnsupportedSystemError(ErgonilError, TypeError):
    """Operation not defined for this system kind."""


class DomainError(ErgonilError, ValueError):
    """An input lies outside the declared domain of a closed form."""


class GridTooFineError(ErgonilError, ValueError):
    """Requested frequency-grid resolution exceeds the documented floor."""


class ConfigError(ErgonilError, ValueError):
    """Invalid experiment configuration; `field` names the offending entry."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field
