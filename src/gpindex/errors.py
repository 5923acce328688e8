"""Exception taxonomy for the engine.

Every failure mode in the library maps to exactly one of these classes,
so callers (and the CLI) can rely on a closed error surface: anything
else escaping is a bug.
"""


class EngineError(Exception):
    """Base class for all engine errors."""


# --- telemetry ---------------------------------------------------------


class SessionSyntaxError(EngineError):
    """Session document is not well-formed (bad UTF-8 or bad JSON)."""


class SchemaError(EngineError):
    """Document is well-formed but a field is missing or mistyped."""


class ValidationError(EngineError):
    """Document matches the schema but violates a data invariant."""


class EmptyInputError(EngineError):
    """An operation requiring at least one element received none."""


# --- metrics -----------------------------------------------------------


class DegenerateInputError(EngineError):
    """Frame stream cannot support rate metrics (zero time span)."""


class InsufficientSamplesError(EngineError):
    """Too few samples (or too short a span) to compute a metric."""


# --- scoring -----------------------------------------------------------


class CurveError(EngineError):
    """Mapping-curve breakpoints violate a curve invariant."""


# --- index aggregation -------------------------------------------------


class WeightError(EngineError):
    """A weight map references an unknown metric or is unusable."""


class AllIndicesAbsentError(EngineError):
    """No main index could be scored, so no overall score exists."""


class MixedDevicesError(EngineError):
    """Sessions passed to a per-device operation span several devices."""


# --- report ------------------------------------------------------------


class MixedProfilesError(EngineError):
    """Score cards passed to one comparison table use different profiles."""


class DuplicateDeviceError(EngineError):
    """Score cards passed to one comparison table repeat a device id."""


# --- synth -------------------------------------------------------------


class ModelError(EngineError):
    """Synthetic device model parameters are invalid."""


# --- config ------------------------------------------------------------


class ConfigError(EngineError):
    """Engine configuration file is invalid."""
