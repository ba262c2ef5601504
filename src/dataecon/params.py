"""Model parameters, validation, and the exponent regime.

The economy is summarized by nine scalars: output elasticities ``alpha``
(capital) and ``beta`` (labor), the data-technology conversion rate ``eta``,
the dataization share ``theta``, the wage ``w``, depreciation ``delta``, the
utility discount rate ``rho``, relative risk aversion ``sigma``, and the
investment adjustment-cost coefficient ``a``.

Every reduced-form exponent in the model is built from the composite
``alpha + beta + alpha*eta - 1``.  When that composite crosses zero the
closed-form steady state degenerates (its exponent diverges), so a small
band around zero is treated as singular and closed-form evaluation is
refused there.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields, replace

from .errors import ParameterError

DEFAULT_SINGULAR_BAND = 0.02


def _violations(p: "ModelParams") -> list[str]:
    out = []
    for f in fields(p):
        value = getattr(p, f.name)
        if not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
            out.append(f"{f.name} must be a finite number, got {value!r}")
    if out:
        return out
    alpha, beta, eta = p.alpha, p.beta, p.eta
    if not 0.0 < alpha < 1.0:
        out.append(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 < beta < 1.0:
        out.append(f"beta must lie in (0, 1), got {beta}")
    if not out and alpha + beta > 1.0:
        out.append(f"alpha + beta must not exceed 1, got {alpha + beta}")
    if not 0.0 <= eta < 1.0:
        out.append(f"eta must lie in [0, 1), got {eta}")
    if not 0.0 <= p.theta <= 1.0:
        out.append(f"theta must lie in [0, 1], got {p.theta}")
    if not p.w > 0.0:
        out.append(f"w must be positive, got {p.w}")
    if not p.delta > 0.0:
        out.append(f"delta must be positive, got {p.delta}")
    if not p.rho > 0.0:
        out.append(f"rho must be positive, got {p.rho}")
    if not p.sigma > 1.0:
        out.append(f"sigma must exceed 1, got {p.sigma}")
    if not p.a > 0.0:
        out.append(f"a must be positive, got {p.a}")
    if not p.singular_band >= 0.0:
        out.append(f"singular_band must be nonnegative, got {p.singular_band}")
    if not out:
        # Both follow from the ranges above; asserted anyway.
        if not 1.0 - alpha * eta > 0.0:
            out.append(f"1 - alpha*eta must be positive, got {1.0 - alpha * eta}")
        if not 1.0 - beta - alpha * eta > 0.0:
            out.append(f"1 - beta - alpha*eta must be positive, got {1.0 - beta - alpha * eta}")
    return out


@dataclass(frozen=True)
class ModelParams:
    """Validated parameter vector; construction rejects out-of-range values.

    The defaults are the baseline calibration: alpha=0.6, beta=0.2, w=1,
    delta=0.08, rho=0.07.  sigma and a do not affect steady states; their
    defaults (2, 2) are a conventional macro calibration, not calibrated
    values.
    """

    alpha: float = 0.6
    beta: float = 0.2
    eta: float = 0.2
    theta: float = 0.5
    w: float = 1.0
    delta: float = 0.08
    rho: float = 0.07
    sigma: float = 2.0
    a: float = 2.0
    singular_band: float = DEFAULT_SINGULAR_BAND

    def __post_init__(self):
        bad = _violations(self)
        if bad:
            raise ParameterError(bad)

    @property
    def k_exponent(self) -> float:
        """The composite exponent alpha + beta + alpha*eta - 1."""
        return self.alpha + self.beta + self.alpha * self.eta - 1.0

    def replace(self, **changes) -> "ModelParams":
        return replace(self, **changes)


#: The baseline calibration: every model parameter with its default.
BASELINE = {f.name: f.default for f in fields(ModelParams) if f.name != "singular_band"}


@dataclass(frozen=True)
class Regime:
    """Sign of the composite exponent and whether it sits in the singular band."""

    k_exponent_sign: int
    singular: bool


def regime(p: ModelParams) -> Regime:
    """Classify the exponent regime of ``p``.

    Inside ``p.singular_band`` the closed-form steady-state exponent
    1/(alpha+beta+alpha*eta-1) overflows, so dependent operations raise
    instead of evaluating.
    """
    kx = p.k_exponent
    sign = 0 if kx == 0.0 else (1 if kx > 0.0 else -1)
    return Regime(k_exponent_sign=sign, singular=abs(kx) < p.singular_band)


def validate_params(raw: dict) -> ModelParams:
    """Build a ModelParams from a parameter record.

    Missing fields take the baseline defaults.  Unknown fields are refused;
    otherwise every violated bound is reported together in a single
    ParameterError.
    """
    unknown = sorted(set(raw) - {f.name for f in fields(ModelParams)})
    if unknown:
        raise ParameterError([f"unknown parameter {name!r}" for name in unknown])
    return ModelParams(**raw)


def baseline_params(**overrides) -> ModelParams:
    """The baseline calibration with optional field overrides."""
    return validate_params(overrides)
