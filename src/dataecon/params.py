"""Model parameters and their validation.

The economy is summarized by nine scalars: output elasticities ``alpha``
(capital) and ``beta`` (labor), the data-technology conversion rate ``eta``,
the dataization share ``theta``, the wage ``w``, depreciation ``delta``, the
utility discount rate ``rho``, relative risk aversion ``sigma``, and the
investment adjustment-cost coefficient ``a``.  ``singular_band`` is the
half-width of the band around a zero composite exponent inside which
``core`` refuses closed forms.
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

    def replace(self, **changes) -> "ModelParams":
        return replace(self, **changes)


#: The baseline calibration: every model parameter with its default.
BASELINE = {f.name: f.default for f in fields(ModelParams) if f.name != "singular_band"}


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
