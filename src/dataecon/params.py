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
from dataclasses import dataclass, replace

from .errors import ParameterError

DEFAULT_SINGULAR_BAND = 0.02

#: Baseline calibration: alpha=0.6, beta=0.2, w=1, delta=0.08, rho=0.07.
#: sigma and a do not affect steady states; their defaults (2, 2) are a
#: conventional macro calibration, not calibrated values.
BASELINE = {
    "alpha": 0.6,
    "beta": 0.2,
    "eta": 0.2,
    "theta": 0.5,
    "w": 1.0,
    "delta": 0.08,
    "rho": 0.07,
    "sigma": 2.0,
    "a": 2.0,
}

_FIELDS = tuple(BASELINE) + ("singular_band",)


def _violations(alpha, beta, eta, theta, w, delta, rho, sigma, a, singular_band):
    out = []
    for name, value in (("alpha", alpha), ("beta", beta), ("eta", eta),
                        ("theta", theta), ("w", w), ("delta", delta),
                        ("rho", rho), ("sigma", sigma), ("a", a),
                        ("singular_band", singular_band)):
        if not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
            out.append(f"{name} must be a finite number, got {value!r}")
    if out:
        return out
    if not 0.0 < alpha < 1.0:
        out.append(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 < beta < 1.0:
        out.append(f"beta must lie in (0, 1), got {beta}")
    if not out and alpha + beta > 1.0:
        out.append(f"alpha + beta must not exceed 1, got {alpha + beta}")
    if not 0.0 <= eta < 1.0:
        out.append(f"eta must lie in [0, 1), got {eta}")
    if not 0.0 <= theta <= 1.0:
        out.append(f"theta must lie in [0, 1], got {theta}")
    if not w > 0.0:
        out.append(f"w must be positive, got {w}")
    if not delta > 0.0:
        out.append(f"delta must be positive, got {delta}")
    if not rho > 0.0:
        out.append(f"rho must be positive, got {rho}")
    if not sigma > 1.0:
        out.append(f"sigma must exceed 1, got {sigma}")
    if not a > 0.0:
        out.append(f"a must be positive, got {a}")
    if not singular_band >= 0.0:
        out.append(f"singular_band must be nonnegative, got {singular_band}")
    if not out:
        # Both follow from the ranges above; asserted anyway.
        if not 1.0 - alpha * eta > 0.0:
            out.append(f"1 - alpha*eta must be positive, got {1.0 - alpha * eta}")
        if not 1.0 - beta - alpha * eta > 0.0:
            out.append(f"1 - beta - alpha*eta must be positive, got {1.0 - beta - alpha * eta}")
    return out


@dataclass(frozen=True)
class ModelParams:
    """Validated parameter vector; construction rejects out-of-range values."""

    alpha: float = BASELINE["alpha"]
    beta: float = BASELINE["beta"]
    eta: float = BASELINE["eta"]
    theta: float = BASELINE["theta"]
    w: float = BASELINE["w"]
    delta: float = BASELINE["delta"]
    rho: float = BASELINE["rho"]
    sigma: float = BASELINE["sigma"]
    a: float = BASELINE["a"]
    singular_band: float = DEFAULT_SINGULAR_BAND

    def __post_init__(self):
        bad = _violations(self.alpha, self.beta, self.eta, self.theta, self.w,
                          self.delta, self.rho, self.sigma, self.a,
                          self.singular_band)
        if bad:
            raise ParameterError(bad)

    @property
    def k_exponent(self) -> float:
        """The composite exponent alpha + beta + alpha*eta - 1."""
        return self.alpha + self.beta + self.alpha * self.eta - 1.0

    def replace(self, **changes) -> "ModelParams":
        return replace(self, **changes)


@dataclass(frozen=True)
class Regime:
    """Sign of the composite exponent and whether it sits in the singular band."""

    k_exponent_sign: int
    singular: bool


def regime(p: ModelParams, band: float | None = None) -> Regime:
    """Classify the exponent regime of ``p``.

    ``band`` overrides ``p.singular_band``.  Inside the band the closed-form
    steady-state exponent 1/(alpha+beta+alpha*eta-1) overflows, so dependent
    operations raise instead of evaluating.
    """
    b = p.singular_band if band is None else band
    kx = p.k_exponent
    sign = 0 if kx == 0.0 else (1 if kx > 0.0 else -1)
    return Regime(k_exponent_sign=sign, singular=abs(kx) < b)


def validate_params(raw: dict) -> ModelParams:
    """Build a ModelParams from a parameter record.

    Missing fields take the baseline defaults.  Unknown fields and every
    violated bound are reported together in a single ParameterError.
    """
    unknown = sorted(set(raw) - set(_FIELDS))
    if unknown:
        raise ParameterError([f"unknown parameter {name!r}" for name in unknown])
    values = dict(BASELINE, singular_band=DEFAULT_SINGULAR_BAND)
    values.update(raw)
    bad = _violations(**values)
    if bad:
        raise ParameterError(bad)
    return ModelParams(**values)


def baseline_params(**overrides) -> ModelParams:
    """The baseline calibration with optional field overrides."""
    return validate_params(overrides)
