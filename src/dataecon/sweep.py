"""Parameter sweeps over the (theta, eta) plane.

Builds equilibrium surfaces on rectangular grids with singular / infeasible
cells masked, locates the consumption-maximizing conversion rate eta*(theta)
for every theta at once by a lockstep bisection on the sign of the analytic
dc*/deta, extracts iso-equilibrium contours as one exact crossing per eta
row, and reports the signs of the steady state's analytic derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import Coefficients, SteadyState, steady_states
from .errors import DomainError, SearchError
from .params import ModelParams

_MAX_CELLS = 2_500_000  # cells of grid_sweep (~365 MB), and thetas of threshold_curve
_QUANTITIES = tuple(f.name for f in fields(SteadyState) if f.name != "feasible")


@dataclass(frozen=True)
class SweepGrid:
    """Steady states on a theta x eta grid.

    ``mask[i, j]`` holds 'ok', 'singular', 'infeasible', or 'degenerate' for
    (theta_axis[i], eta_axis[j]); each SteadyState quantity is a matrix of
    the same layout, NaN on masked cells.
    """

    theta_axis: np.ndarray
    eta_axis: np.ndarray
    k_star: np.ndarray
    c_star: np.ndarray
    l_star: np.ndarray
    y_star: np.ndarray
    r_star: np.ndarray
    mask: np.ndarray

    def values(self, variable: str) -> np.ndarray:
        """Matrix of one SteadyState quantity, NaN on masked cells."""
        if variable not in _QUANTITIES:
            raise DomainError(f"unknown variable {variable!r}; choose from "
                              f"{', '.join(_QUANTITIES)}")
        return getattr(self, variable)


@dataclass(frozen=True)
class ThresholdCurve:
    thetas: np.ndarray
    eta_star: np.ndarray
    c_star_max: np.ndarray
    shapes: tuple[str, ...]
    eta_range: tuple[float, float]


@dataclass(frozen=True)
class IsoContour:
    """An iso-level polyline of one equilibrium variable in (theta, eta).

    Each component is a run of consecutive crossing eta rows, one (theta,
    eta) vertex per row; ``components`` holds them longest first and
    ``points`` is the longest.  An empty contour (level never crossed) has
    zero rows.
    """

    level: float
    variable: str
    points: np.ndarray
    components: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class Derivative:
    sign: int
    value: float


@dataclass(frozen=True)
class SensitivityReport:
    dk_deta: Derivative
    dk_dtheta: Derivative
    dc_deta: Derivative
    dc_dtheta: Derivative


def _check_axis(name: str, axis, closed: bool) -> np.ndarray:
    """The axis as an array in [0, 1] if ``closed`` (theta), else in [0, 1) (eta)."""
    arr = np.asarray(axis, dtype=float)
    if arr.ndim != 1 or len(arr) == 0:
        raise DomainError(f"{name} must be a nonempty 1-D vector")
    if not np.all((arr >= 0.0) & (arr <= 1.0 if closed else arr < 1.0)):
        raise DomainError(f"{name} values must lie in [0, 1{']' if closed else ')'}")
    if len(arr) > 1 and not np.all(np.diff(arr) > 0):
        raise DomainError(f"{name} must be sorted and deduplicated")
    return arr


def _check_grid_size(n_theta: int, n_eta: int) -> None:
    """Refuse a grid of more than ``_MAX_CELLS`` cells from its axis lengths
    alone, so that no axis need be built first."""
    if n_theta * n_eta > _MAX_CELLS:
        raise DomainError(f"grid of {n_theta} x {n_eta} cells exceeds {_MAX_CELLS} cells")


def grid_sweep(p_base: ModelParams, theta_axis, eta_axis) -> SweepGrid:
    """Evaluate the steady state on every grid cell, masking failures.

    Cells are independent; singular-band, degenerate, and infeasible cells
    are masked without affecting neighbors.  Each unmasked cell equals
    ``steady_state`` at its (theta, eta) bit for bit.  The evaluation peaks
    at about 146 bytes per cell (tracemalloc, 50x50 to 400x400 grids), so a
    grid of more than 2.5e6 cells (``_MAX_CELLS``) raises DomainError before
    anything is allocated.
    """
    thetas = _check_axis("theta_axis", theta_axis, closed=True)
    etas = _check_axis("eta_axis", eta_axis, closed=False)
    _check_grid_size(len(thetas), len(etas))
    mask, values = steady_states(p_base, *np.meshgrid(thetas, etas, indexing="ij"))
    ok = mask == "ok"
    return SweepGrid(thetas, etas, mask=mask,
                     **{name: np.where(ok, v, np.nan) for name, v in values.items()})


def band_free_intervals(p: ModelParams, eta_range: tuple[float, float]) -> list[tuple[float, float]]:
    """Split an eta range around the singular band of p."""
    lo, hi = float(eta_range[0]), float(eta_range[1])
    if not (0.0 <= lo < hi < 1.0):
        raise DomainError(f"eta_range must satisfy 0 <= lo < hi < 1, got {eta_range}")
    center = (1.0 - p.alpha - p.beta) / p.alpha
    half = p.singular_band / p.alpha
    parts = [(lo, min(hi, center - half)), (max(lo, center + half), hi)]
    return [(a, b) for a, b in parts if a < b]


def _eta_slopes(co: Coefficients, theta, k):
    """(dk*/deta, dc*/deta) at every cell of ``co`` for k* = ``k``, from
    dL/deta = -alpha(log(y*/k*) + log theta + 1 + L)/kx (L = log k*) and
    d(y*/k*)/deta = -(rho + delta).  At k = 1 they are dL/deta and
    dc*/deta / k*, whose signs hold where k* over- or underflows."""
    with np.errstate(divide="ignore", invalid="ignore"):
        dk = -k * co.p.alpha * (co.log_yk + np.log(theta) + 1.0 + co.log_k) / co.kx
        return dk, (co.yk - co.p.delta) * dk - co.rho_delta * k


def threshold_curve(p_base: ModelParams, thetas,
                    eta_range: tuple[float, float] | None = None,
                    tol: float = 1e-4) -> ThresholdCurve:
    """eta*(theta) over a theta grid on a single band-free eta range.

    The curve's ``eta_range`` is the band-free range searched: one ending
    inside the singular band is cut at the band's edge, and ``None`` searches
    the widest band-free part of [0.05, 0.95].

    Where c* > 0 it has one peak in eta above the band and its maximum at
    an end of the range below it (README, "Numerical notes").  One lockstep
    bisection of the range, cut where c* reaches 0, follows the sign of
    ``_eta_slopes`` above the band and heads for the higher end below it,
    in ceil(log2(width/tol)) steps; eta* is the midpoint of its final
    bracket, or the low end at theta = 0.  ``steady_states`` runs once, at
    eta*, and a cell refused there raises SearchError naming eta* and the
    cell's mask category ('infeasible' where c* overflows).  The search
    peaks at about 320 bytes per theta (tracemalloc, 10^3 to 10^5 thetas),
    so more than 2.5e6 thetas (``_MAX_CELLS``) raise DomainError before any
    is checked.
    """
    if eta_range is None:
        eta_range = max(band_free_intervals(p_base, (0.05, 0.95)), key=lambda ab: ab[1] - ab[0])
    parts = band_free_intervals(p_base, eta_range)
    if len(parts) != 1:
        raise DomainError(
            f"eta_range {eta_range} straddles the singular band; search one side at a time")
    (lo, hi), = parts
    thetas = np.asarray(list(thetas), dtype=float)
    if len(thetas) == 0:
        raise DomainError("thetas must be a nonempty list")
    if len(thetas) > _MAX_CELLS:
        raise DomainError(f"{len(thetas)} thetas exceed the bound of {_MAX_CELLS}")
    if np.any(bad := ~((thetas >= 0.0) & (thetas <= 1.0))):
        p_base.replace(theta=float(thetas[np.argmax(bad)]))  # raises ParameterError
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    top = min(hi, 1.0 / p_base.alpha - p_base.delta / (p_base.rho + p_base.delta))  # c* = 0

    def refusal(theta, why=""):
        return SearchError(f"no feasible steady state for theta={float(theta)} "
                           f"on eta in [{lo}, {hi}]{why}")

    if not lo < top:
        raise refusal(thetas[0])
    above = Coefficients(p_base, eta=lo).kx > 0.0
    if not above:  # compare log c* = log k* + log(y*/k* - delta) at the two ends
        ends = Coefficients(p_base, thetas[:, None], [lo, top])
        with np.errstate(divide="ignore", invalid="ignore"):
            log_c = ends.log_k + np.log(ends.yk - p_base.delta)
        up = log_c[:, 1] > log_c[:, 0]
    a, b, width = np.full(len(thetas), lo), np.full(len(thetas), top), top - lo
    while width > tol:
        mid = 0.5 * (a + b)
        if above:
            up = _eta_slopes(Coefficients(p_base, thetas, mid), thetas, 1.0)[1] > 0.0
        a, b, width = np.where(up, mid, a), np.where(up, b, mid), 0.5 * width
    eta_star = np.where(thetas == 0.0, lo, 0.5 * (a + b))
    mask, values = steady_states(p_base, thetas, eta_star)
    if np.any(refused := mask != "ok"):
        i = np.argmax(refused)
        raise refusal(thetas[i], f": {str(mask[i])!r} at eta*={float(eta_star[i])}")
    edge = max(2.0 * tol, 1e-6 * (hi - lo))
    shapes = np.where((eta_star - lo <= edge) | (hi - eta_star <= edge),
                      "monotone-on-range", "interior-peak")
    return ThresholdCurve(thetas, eta_star, values["c_star"], tuple(shapes.tolist()), (lo, hi))


def iso_equilibrium_contour(grid: SweepGrid, variable: str, level: float) -> IsoContour:
    """The level set of one variable, one vertex per eta row that crosses it.

    A row crosses between neighbouring theta cells on opposite sides of the
    level (``z > level`` is above); both cells must hold a finite value of
    at least the smallest normal float at theta > 0, so masked cells, the
    theta = 0 column and subnormal values, which keep fewer than 53
    significant bits, never bracket a crossing.  The vertex interpolates
    log z linearly in log theta, clipped to its bracket, which is exact on a
    model grid: along a row log X* is linear in log theta (README,
    "Numerical notes").  A component is a run of consecutive crossing rows,
    ordered by eta; ``points`` is the longest.  A row that crosses twice
    cannot come from the model and raises DomainError; a finite level that
    no row crosses, or one <= 0, gives an empty contour.
    """
    if not math.isfinite(level):
        raise DomainError(f"contour level must be finite, got {level}")
    z, theta_axis = grid.values(variable), grid.theta_axis
    with np.errstate(divide="ignore", invalid="ignore"):
        log_t, log_z = np.log(theta_axis), np.log(z)
        usable = (np.isfinite(log_z) & (z >= np.finfo(float).tiny)
                  & np.isfinite(log_t)[:, None])
        above = z > level
        rows, i = np.nonzero((usable[:-1] & usable[1:] & (above[:-1] != above[1:])).T)
        if np.any(twice := np.diff(rows) == 0):
            raise DomainError(f"{variable} crosses {level} more than once on the eta = "
                              f"{grid.eta_axis[rows[np.argmax(twice)]]} row")
        lo, hi = log_z[i, rows], log_z[i + 1, rows]
        frac = np.where(hi == lo, 0.0, (np.log(level) - lo) / (hi - lo))
    theta = np.exp(log_t[i] + frac * (log_t[i + 1] - log_t[i]))
    points = np.column_stack([np.clip(theta, theta_axis[i], theta_axis[i + 1]),
                              grid.eta_axis[rows]])
    chains = np.split(points, np.flatnonzero(np.diff(rows) != 1) + 1) if len(rows) else []
    chains.sort(key=len, reverse=True)
    return IsoContour(float(level), variable, chains[0] if chains else np.empty((0, 2)),
                      tuple(chains))


def sensitivity_signs(p: ModelParams) -> SensitivityReport:
    """Signs and values of d(k*, c*)/d(eta, theta), in closed form.

    With L = log k* and the notation of ``core``, dL/dtheta = -ae/(kx theta)
    and c* = k* (y*/k* - delta); the eta slopes are ``_eta_slopes``.  A sign is
    0 only where the derivative is exactly 0, as d/dtheta is at eta = 0.
    Raises DomainError where ``steady_states`` masks the cell, and at
    theta = 0, where d/deta is infinite.
    """
    mask, values = steady_states(p)
    if mask != "ok" or p.theta == 0.0:
        raise DomainError(f"no finite sensitivities at (theta={p.theta}, eta={p.eta})")
    co = Coefficients(p)
    k, kx, ck = float(values["k_star"]), float(co.kx), float(co.yk) - p.delta
    dk_dtheta = -k * p.alpha * p.eta / (kx * p.theta)
    dk_deta, dc_deta = map(float, _eta_slopes(co, p.theta, k))
    slopes = (dk_deta, dk_dtheta, dc_deta, ck * dk_dtheta)
    return SensitivityReport(*(Derivative(int(np.sign(v)), v) for v in slopes))
