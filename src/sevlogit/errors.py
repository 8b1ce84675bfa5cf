"""Exception hierarchy. Exit codes used by the CLI live next to the classes they map to."""


class SevlogitError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ConfigError(SevlogitError):
    """Bad run configuration, CLI arguments, or model-spec file."""

    exit_code = 2


class ModelSpecError(ConfigError):
    """Invalid model specification (duplicate terms, bad outcome references, ...)."""


class IngestionError(SevlogitError):
    """Malformed input data file; carries every offending line, not just the first."""

    exit_code = 3

    def __init__(self, message, lines=None):
        super().__init__(message)
        self.lines = tuple(lines) if lines else ()


class SchemaError(IngestionError):
    """Dataset is missing a required column or variable."""


class NumericError(SevlogitError):
    """Non-finite value encountered where a finite one is required."""


class NonConvergenceError(SevlogitError):
    """Optimizer hit its iteration cap or line search failed; carries the last iterate."""

    exit_code = 4

    def __init__(self, message, last_result=None):
        super().__init__(message)
        self.last_result = last_result


class NonIdentificationError(SevlogitError):
    """Singular or near-singular information matrix; carries the offending slot indices."""

    exit_code = 5

    def __init__(self, message, slots=()):
        super().__init__(message)
        self.slots = tuple(slots)


class InconsistencyError(SevlogitError):
    """Component log-likelihoods violate nesting (a subset fit likely failed)."""


class UndefinedStatisticError(SevlogitError):
    """A fit statistic is undefined for the given inputs (e.g. zero baseline LL)."""


class EmptyPartitionError(ConfigError):
    """Every partition cell is below the minimum cell size; nothing to evaluate."""
