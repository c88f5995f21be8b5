"""Exception types raised across the engine.

All engine errors derive from EngineError so callers (notably the CLI) can
map them onto exit codes without enumerating every failure mode.
"""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class IncompatibleMatrix(EngineError):
    """A linear map is not monomial or does not respect the z/conj(z) pairing.

    Every linear map of the problem sends each coordinate to a multiple of
    at most one coordinate, so a row with two nonzero entries is refused.
    """


class DimensionError(EngineError):
    """Operands act on coordinate spaces of different sizes."""


class SignInconsistency(EngineError):
    """One matrix of the reversing group carries two different signs."""


class ConditionViolated(EngineError):
    """An element is not an involution, or the two involutions do not commute."""


class UnsupportedCase(EngineError):
    """No named case has these parameters.

    A linear part that no named case covers, the 1:1 resonance among them,
    goes through the API: SymmetryContext.build(LinearPart(2, ((1, -1),)), signs).
    """


class ResourceLimit(EngineError):
    """A brute-force computation exceeded its configured size bound."""


class UncertifiedInput(EngineError):
    """A generator set without soundness certification was passed downstream."""


class ConfigError(EngineError):
    """Invalid job configuration."""


class CertificationFailure(EngineError):
    """An oracle comparison failed; the computed generators are not certified."""
