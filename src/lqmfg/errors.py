"""Exception hierarchy shared across the package."""


class LqmfgError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(LqmfgError):
    """Matrix or vector shapes are inconsistent with the declared dimensions."""


class NonSymmetric(LqmfgError):
    """A weight matrix that must be symmetric is not."""


class NonPositiveDefinite(LqmfgError):
    """A control-weight block failed the positive-definiteness check."""


class BadDiscount(LqmfgError):
    """Discount factor outside the open interval (0, 1)."""


class InvalidNoise(LqmfgError):
    """Noise specification violates its contract (e.g. nonzero step mean)."""


class NonStabilizingSolution(LqmfgError):
    """The equilibrium equations have no stabilizing solution in floating
    point: the doubling does not converge, X, F, P or the residual overflow,
    the minimizer's curvature is indefinite, the joint one singular, or the
    induced gains fall outside the stabilizing set."""


class NotStabilizing(LqmfgError):
    """Policy pair outside the stabilizing set; discounted moments diverge."""


class NonFiniteRollout(LqmfgError):
    """Rollout utilities overflowed to inf or NaN: the gains drive the
    state past the floating-point range within the horizon."""


class DegenerateDraw(LqmfgError):
    """Repeated all-zero Gaussian draws while sampling the sphere."""


class BenchmarkZero(LqmfgError):
    """Relative error requested against a zero benchmark utility."""


class ConfigError(LqmfgError):
    """Base class for experiment-configuration errors."""


class ParseError(ConfigError):
    """Config file failed to parse (syntax or field value)."""


class SchemaError(ConfigError):
    """Config is missing a required field, has an unknown field, or a field
    fails model validation."""


class CrossFieldError(ConfigError):
    """Fields are individually valid but jointly inconsistent."""
