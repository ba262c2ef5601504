"""Exception types shared across the package."""


class ModelError(Exception):
    """Base class for solver failures."""


class ParameterError(ModelError, ValueError):
    """Invalid parameter record; message lists every violated bound."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class DomainError(ModelError, ValueError):
    """Input outside an operation's mathematical domain."""


class RegimeError(ModelError):
    """Closed forms refused inside the singular exponent band."""


class DegenerateError(ModelError):
    """No meaningful solution (an infeasible steady state or a nonpositive bracket)."""


class ClassificationError(ModelError):
    """Operation requires a saddle equilibrium."""


class IntegrationError(ModelError):
    """Integrator step-size underflow; carries the partial trajectory."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class SearchError(ModelError):
    """Threshold search failed: the steady state at the maximum of c* is refused."""


class DesignError(ModelError, ValueError):
    """Panel design cannot identify the requested effect."""


class RankDeficiencyError(DesignError):
    """Collinear regressors; carries the offending column names."""

    def __init__(self, message, columns=()):
        super().__init__(message)
        self.columns = tuple(columns)


class ConfigError(ModelError, ValueError):
    """Malformed run configuration (unknown key, bad type, bad value)."""
