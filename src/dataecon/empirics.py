"""Synthetic staggered-adoption panels and two-way fixed-effects DID.

The generator builds balanced unit-year panels with additive unit and year
effects, controls, noise, and a treatment contribution that is either a
level shift from the adoption year onward or a per-relative-period dynamic
profile.  The estimator absorbs unit and year fixed effects (within
transformation by alternating demeaning, or explicit dummies for
cross-checking), solves the projected system by SVD least squares, and
reports unit-clustered standard errors (CR1 small-sample scaling).

Rows at relative period 0 (the adoption year itself) are excluded by
default, mirroring designs that drop the implementation period; the plain
TWFE estimand under heterogeneous timing carries the usual caveats and no
robust staggered estimator is attempted here.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr

from .errors import DesignError, DomainError, RankDeficiencyError

_DEMEAN_TOL = 1e-13
_DEMEAN_MAX_SWEEPS = 400


@dataclass(frozen=True)
class DgpConfig:
    """Data-generating process for a synthetic city-year panel.

    ``dynamic_profile[i]`` is the outcome effect at relative period i
    (adoption year = 0); periods beyond the profile hold its last value and
    pre-adoption periods are untreated, so the reference period -1 carries
    no effect by construction.  ``effect`` is the homogeneous level shift
    used when no profile is given.
    """

    n_units: int = 200
    years: tuple[int, int] = (2000, 2019)
    share_treated: float = 0.5
    adoption_years: tuple[int, ...] | None = None
    unit_effect_scale: float = 1.0
    year_effect_scale: float = 1.0
    noise_scale: float = 1.0
    effect: float = 0.0
    dynamic_profile: tuple[float, ...] | None = None
    control_coefs: tuple[float, ...] = ()
    seed: int = 0

    def __post_init__(self):
        y0, y1 = self.years
        if self.n_units < 2 or y1 < y0:
            raise DomainError("need at least 2 units and a nonempty year span")
        if not 0.0 <= self.share_treated <= 1.0:
            raise DomainError(f"share_treated must lie in [0, 1], got {self.share_treated}")
        if self.noise_scale < 0.0:
            raise DomainError("noise_scale must be nonnegative")
        if self.adoption_years is not None:
            if len(self.adoption_years) == 0:
                raise DomainError("adoption_years must be nonempty when given")
            if min(self.adoption_years) < y0:
                raise DomainError("adoption years must not precede the span start")


@dataclass(frozen=True)
class Panel:
    """City-year rows with optional staggered adoption and controls."""

    unit: np.ndarray
    year: np.ndarray
    outcome: np.ndarray
    adoption_year: np.ndarray  # NaN marks never-treated
    controls: np.ndarray  # shape (n_rows, n_controls)
    control_names: tuple[str, ...]
    balanced: bool = True

    def __post_init__(self):
        n = len(self.unit)
        if not (len(self.year) == len(self.outcome) == len(self.adoption_year) == n
                and self.controls.shape[0] in (n, 0)):
            raise DomainError("panel columns must have equal length")
        pairs = set(zip(self.unit.tolist(), self.year.tolist()))
        if len(pairs) != n:
            raise DomainError("duplicate (unit, year) rows")
        start = int(self.year.min())
        adopt = self.adoption_year[~np.isnan(self.adoption_year)]
        if adopt.size and adopt.min() < start:
            raise DomainError("adoption years must not precede the span start")

    @property
    def n_units(self) -> int:
        return len(np.unique(self.unit))

    @property
    def year_span(self) -> tuple[int, int]:
        return int(self.year.min()), int(self.year.max())

    def relative_period(self) -> np.ndarray:
        """year - adoption_year; NaN for never-treated rows."""
        return self.year - self.adoption_year


@dataclass(frozen=True)
class DidResult:
    att: float
    se: float
    n_obs: int
    n_units_absorbed: int
    n_years_absorbed: int


@dataclass(frozen=True)
class EventStudyResult:
    """Relative-period coefficients with the -1 reference fixed at zero.

    Periods are contiguous over the requested window; endpoints bin all
    more-extreme periods.  A NaN coefficient marks a period excluded from
    estimation (relative period 0 when the adoption year is dropped).
    """

    periods: np.ndarray
    coefficients: np.ndarray
    std_errors: np.ndarray
    n_obs: int
    n_units_absorbed: int = 0
    n_years_absorbed: int = 0


def generate_panel(cfg: DgpConfig) -> Panel:
    """Draw one synthetic panel; deterministic for a given seed."""
    rng = np.random.default_rng(cfg.seed)
    y0, y1 = cfg.years
    years = np.arange(y0, y1 + 1)
    n_units, n_years = cfg.n_units, len(years)

    unit_fx = rng.normal(0.0, cfg.unit_effect_scale, n_units)
    year_fx = rng.normal(0.0, cfg.year_effect_scale, n_years)

    n_treated = int(round(cfg.share_treated * n_units))
    treated_units = rng.permutation(n_units)[:n_treated]
    if cfg.adoption_years is not None:
        pool = np.asarray(cfg.adoption_years)
    else:
        lo = y0 + n_years // 4
        hi = y0 + (3 * n_years) // 4
        pool = np.arange(lo, max(hi, lo + 1))
    adoption = np.full(n_units, np.nan)
    adoption[treated_units] = rng.choice(pool, size=n_treated)

    unit_col = np.repeat(np.arange(n_units), n_years)
    year_col = np.tile(years, n_units)
    adopt_col = adoption[unit_col]

    m = len(cfg.control_coefs)
    controls = rng.normal(0.0, 1.0, (n_units * n_years, m)) if m else np.empty((n_units * n_years, 0))
    noise = rng.normal(0.0, 1.0, n_units * n_years) * cfg.noise_scale

    rel = year_col - adopt_col
    treated_now = _treated_mask(rel)
    effect = np.zeros(n_units * n_years)
    if cfg.dynamic_profile is not None:
        profile = np.asarray(cfg.dynamic_profile, dtype=float)
        idx = np.clip(rel[treated_now].astype(int), 0, len(profile) - 1)
        effect[treated_now] = profile[idx]
    else:
        effect[treated_now] = cfg.effect

    outcome = (unit_fx[unit_col] + year_fx[year_col - y0]
               + controls @ np.asarray(cfg.control_coefs, dtype=float)
               + effect + noise)
    names = tuple(f"control_{i + 1}" for i in range(m))
    return Panel(unit_col, year_col, outcome, adopt_col, controls, names)


def _treated_mask(rel: np.ndarray) -> np.ndarray:
    """Post-adoption indicator; never-treated (NaN relative period) is False."""
    out = np.zeros(len(rel), dtype=bool)
    m = ~np.isnan(rel)
    out[m] = rel[m] >= 0
    return out


def _two_way_demean(mat: np.ndarray, unit_idx: np.ndarray, year_idx: np.ndarray) -> np.ndarray:
    """Project out unit and year means by alternating sweeps.

    All columns share the projection sequence, so a linear identity between
    columns survives the transformation to machine precision.  Raises
    DesignError when the sweeps stop without converging.
    """
    out = mat.astype(float, copy=True)
    n_u = unit_idx.max() + 1
    n_y = year_idx.max() + 1
    u_counts = np.bincount(unit_idx, minlength=n_u).astype(float)
    y_counts = np.bincount(year_idx, minlength=n_y).astype(float)
    scale = max(float(np.max(np.abs(out), initial=0.0)), 1.0)
    for _ in range(_DEMEAN_MAX_SWEEPS):
        drift = 0.0
        for j in range(out.shape[1]):
            col = out[:, j]
            u_means = np.bincount(unit_idx, weights=col, minlength=n_u) / u_counts
            col -= u_means[unit_idx]
            y_means = np.bincount(year_idx, weights=col, minlength=n_y) / y_counts
            col -= y_means[year_idx]
            drift = max(drift,
                        float(np.max(np.abs(u_means), initial=0.0)),
                        float(np.max(np.abs(y_means), initial=0.0)))
        if drift <= _DEMEAN_TOL * scale:
            break
    else:
        raise DesignError(f"two-way demeaning did not converge in "
                          f"{_DEMEAN_MAX_SWEEPS} sweeps (final drift {drift:.3g})")
    return out


def _dummy_design(x: np.ndarray, unit_idx: np.ndarray, year_idx: np.ndarray):
    """Explicit unit and year dummies (one year dropped), for cross-checks."""
    n_u = unit_idx.max() + 1
    n_y = year_idx.max() + 1
    n = len(unit_idx)
    d_unit = np.zeros((n, n_u))
    d_unit[np.arange(n), unit_idx] = 1.0
    d_year = np.zeros((n, n_y - 1))
    keep = year_idx > 0
    d_year[np.arange(n)[keep], year_idx[keep] - 1] = 1.0
    return np.hstack([x, d_unit, d_year])


def _clustered_se(x_t: np.ndarray, resid: np.ndarray, clusters: np.ndarray,
                  n_absorbed: int) -> np.ndarray:
    """CR1 cluster-robust standard errors of the leading coefficients."""
    n, q = x_t.shape
    xtx = x_t.T @ x_t
    bread = np.linalg.pinv(xtx)
    scores = x_t * resid[:, None]
    n_c = clusters.max() + 1
    meat = np.zeros((q, q))
    for g in range(n_c):
        s_g = scores[clusters == g].sum(axis=0)
        meat += np.outer(s_g, s_g)
    k_total = q + n_absorbed
    dof = (n_c / (n_c - 1)) * ((n - 1) / max(n - k_total, 1))
    cov = dof * bread @ meat @ bread
    return np.sqrt(np.clip(np.diag(cov), 0.0, None))


def _check_rank(x: np.ndarray, names: list[str]) -> None:
    if x.shape[1] == 0:
        return
    _, r, piv = qr(x, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    ref = diag[0] if diag.size else 0.0
    bad = [names[piv[i]] for i in range(len(diag))
           if diag[i] <= 1e-10 * max(ref, 1.0)]
    if ref == 0.0:
        bad = list(names)
    if bad:
        raise RankDeficiencyError(
            f"design is rank deficient after absorbing fixed effects; "
            f"offending columns: {', '.join(sorted(set(bad)))}", columns=bad)


def _prepare(panel: Panel, outcome, controls, drop_adoption_period: bool):
    rel = panel.relative_period()
    keep = np.ones(len(panel.unit), dtype=bool)
    if drop_adoption_period:
        keep &= ~(rel == 0)

    y = panel.outcome if outcome is None else np.asarray(outcome, dtype=float)
    if len(y) != len(panel.unit):
        raise DomainError("outcome override must match the panel length")

    if controls is None or controls == "all":
        ctrl = panel.controls
        names = list(panel.control_names)
    else:
        idx = [list(panel.control_names).index(c) for c in controls]
        ctrl = panel.controls[:, idx]
        names = list(controls)

    unit_codes = np.unique(panel.unit[keep])
    year_codes = np.unique(panel.year[keep])
    unit_idx = np.searchsorted(unit_codes, panel.unit[keep])
    year_idx = np.searchsorted(year_codes, panel.year[keep])
    return (y[keep], ctrl[keep], names, rel[keep],
            unit_idx, year_idx, len(unit_codes), len(year_codes))


def _fit(y, x, names, unit_idx, year_idx, n_u, n_y, method):
    if method == "within":
        stacked = _two_way_demean(np.column_stack([y, x]), unit_idx, year_idx)
        y_t, x_t = stacked[:, 0], stacked[:, 1:]
        _check_rank(x_t, names)
        beta, *_ = np.linalg.lstsq(x_t, y_t, rcond=None)
        resid = y_t - x_t @ beta
        n_absorbed = n_u + n_y - 1
        se = _clustered_se(x_t, resid, unit_idx, n_absorbed)
    elif method == "dummies":
        full = _dummy_design(x, unit_idx, year_idx)
        q = x.shape[1]
        x_t = _two_way_demean(np.asarray(x, dtype=float), unit_idx, year_idx)
        _check_rank(x_t, names)
        beta_full, *_ = np.linalg.lstsq(full, y, rcond=None)
        beta = beta_full[:q]
        resid = y - full @ beta_full
        n_absorbed = n_u + n_y - 1
        se = _clustered_se(x_t, resid, unit_idx, n_absorbed)
    else:
        raise DomainError(f"unknown method {method!r}; use 'within' or 'dummies'")
    return beta, se, n_absorbed


def twfe_did(panel: Panel, outcome=None, controls="all",
             drop_adoption_period: bool = True, method: str = "within") -> DidResult:
    """Two-way fixed-effects DID on the treated-and-post indicator.

    Absorbs unit and year fixed effects, estimates by least squares on the
    projected design, and clusters standard errors by unit.
    """
    (y, ctrl, names, rel,
     unit_idx, year_idx, n_u, n_y) = _prepare(panel, outcome, controls,
                                              drop_adoption_period)
    treated = _treated_mask(rel)
    if not treated.any():
        raise DesignError("no treated observations in the estimation sample")
    if treated.all():
        raise DesignError("no untreated observations in the estimation sample")
    x = np.column_stack([treated.astype(float), ctrl])
    beta, se, _ = _fit(y, x, ["treated_post"] + names,
                           unit_idx, year_idx, n_u, n_y, method)
    return DidResult(att=float(beta[0]), se=float(se[0]), n_obs=int(len(y)),
                     n_units_absorbed=n_u, n_years_absorbed=n_y)


def event_study(panel: Panel, window: tuple[int, int] = (-5, 5), outcome=None,
                controls="all", drop_adoption_period: bool = True,
                method: str = "within") -> EventStudyResult:
    """Dynamic DID with relative-period indicators, reference period -1.

    Periods beyond the window endpoints are binned into the endpoints.  The
    window must cover at least -2..+2.
    """
    w_lo, w_hi = int(window[0]), int(window[1])
    if w_lo > -2 or w_hi < 2:
        raise DomainError(f"window must cover periods -2..+2, got {window}")
    (y, ctrl, names, rel,
     unit_idx, year_idx, n_u, n_y) = _prepare(panel, outcome, controls,
                                              drop_adoption_period)
    if not _treated_mask(rel).any():
        raise DesignError("no treated observations in the estimation sample")

    rel_binned = np.clip(rel, w_lo, w_hi)
    periods = [t for t in range(w_lo, w_hi + 1)
               if t != -1 and not (drop_adoption_period and t == 0)]
    cols = [(~np.isnan(rel_binned) & (rel_binned == t)).astype(float) for t in periods]
    x = np.column_stack(cols + [ctrl]) if ctrl.size else np.column_stack(cols)
    col_names = [f"rel_{t}" for t in periods] + names
    beta, se, _ = _fit(y, x, col_names, unit_idx, year_idx, n_u, n_y, method)

    all_periods = np.arange(w_lo, w_hi + 1)
    coefs = np.full(len(all_periods), np.nan)
    errs = np.full(len(all_periods), np.nan)
    coefs[all_periods == -1] = 0.0
    errs[all_periods == -1] = 0.0
    for pos, t in enumerate(periods):
        coefs[all_periods == t] = beta[pos]
        errs[all_periods == t] = se[pos]
    return EventStudyResult(all_periods, coefs, errs, n_obs=int(len(y)),
                            n_units_absorbed=n_u, n_years_absorbed=n_y)


# CSV schema: unit,year,outcome,adoption_year,control_1..control_m with an
# empty adoption_year for never-treated rows.

def write_panel_csv(panel: Panel, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["unit", "year", "outcome", "adoption_year",
                         *panel.control_names])
        for i in range(len(panel.unit)):
            adopt = panel.adoption_year[i]
            writer.writerow([
                int(panel.unit[i]), int(panel.year[i]),
                "%.17g" % panel.outcome[i],
                "" if math.isnan(adopt) else int(adopt),
                *("%.17g" % v for v in panel.controls[i]),
            ])


def read_panel_csv(path) -> Panel:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:4] != ["unit", "year", "outcome", "adoption_year"]:
            raise DomainError(f"unexpected panel header: {header[:4]}")
        names = tuple(header[4:])
        units, years, outcomes, adopts, ctrls = [], [], [], [], []
        for row in reader:
            units.append(int(row[0]))
            years.append(int(row[1]))
            outcomes.append(float(row[2]))
            adopts.append(float(row[3]) if row[3] != "" else math.nan)
            ctrls.append([float(v) for v in row[4:]])
    n = len(units)
    controls = np.asarray(ctrls, dtype=float) if names else np.empty((n, 0))
    balanced = len(set(years)) * len(set(units)) == n
    return Panel(np.asarray(units), np.asarray(years), np.asarray(outcomes),
                 np.asarray(adopts), controls.reshape(n, len(names)), names,
                 balanced=balanced)
