"""Error types shared across the package."""


class CohentropyError(Exception):
    """Base class for all package errors."""


class InvariantViolation(CohentropyError, ValueError):
    """A domain-type invariant (hermiticity, trace, positivity, ...) failed."""


class ShapeMismatch(CohentropyError, ValueError):
    """Dimensions or basis labels of two objects are incompatible."""


class AmbiguousClustering(CohentropyError, ValueError):
    """Energy levels cannot be clustered: some inter-cluster gap <= delta."""


class MissingRate(CohentropyError, ValueError):
    """The bath spectrum is undefined at a required Bohr frequency."""


class HorizonExceeded(CohentropyError, ValueError):
    """Requested time beyond the validity window of near-degenerate clustering."""


class NumericalFailure(CohentropyError, RuntimeError):
    """State invariants drifted beyond tolerance during integration."""


class DiagonalizationFailure(CohentropyError, RuntimeError):
    """Defective zero eigenspace of the generator (beyond tolerance)."""


class IdentityViolation(CohentropyError, RuntimeError):
    """An analytic rate disagrees with its finite-difference cross-check."""


class NonConvergence(CohentropyError, RuntimeError):
    """An iteration (limit cycle, relaxation) failed to converge."""


class WitnessNotFound(CohentropyError, RuntimeError):
    """A seeded search failed to produce the requested witness."""


class RatioUndefined(CohentropyError, ValueError):
    """Entropy-production ratio requested where the denominator vanishes."""


class ConfigError(CohentropyError, ValueError):
    """Scenario configuration failed to parse or validate."""
