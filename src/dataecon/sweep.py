"""Parameter sweeps over the (theta, eta) plane.

Builds equilibrium surfaces on rectangular grids with singular / infeasible
cells masked, locates the consumption-maximizing conversion rate eta*(theta)
for every theta at once by a lockstep bisection on the sign of the analytic
dc*/deta, extracts iso-equilibrium contours by marching squares, and reports
the signs of the steady state's analytic derivatives.
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

    ``points`` is the longest connected component; all components are kept
    in ``components``.  An empty contour (level never crossed) has zero rows.
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


def _check_axis(name: str, axis) -> np.ndarray:
    arr = np.asarray(axis, dtype=float)
    if arr.ndim != 1 or len(arr) == 0:
        raise DomainError(f"{name} must be a nonempty 1-D vector")
    if np.any(arr < 0.0) or np.any(arr >= 1.0):
        raise DomainError(f"{name} values must lie in [0, 1)")
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
    thetas = _check_axis("theta_axis", theta_axis)
    etas = _check_axis("eta_axis", eta_axis)
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
    eta*, and a cell refused there raises SearchError.  The search peaks at
    about 320 bytes per theta (tracemalloc, 10^3 to 10^5 thetas), so more
    than 2.5e6 thetas (``_MAX_CELLS``) raise DomainError before any is checked.
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
    for theta in thetas.tolist():
        p_base.replace(theta=theta)  # a theta outside the model raises ParameterError
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    top = min(hi, 1.0 / p_base.alpha - p_base.delta / (p_base.rho + p_base.delta))  # c* = 0

    def refusal(theta):
        return SearchError(f"no feasible steady state for theta={float(theta)} "
                           f"on eta in [{lo}, {hi}]")

    if not lo < top:
        raise refusal(thetas[0])
    above = p_base.replace(eta=lo).k_exponent > 0.0
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
        raise refusal(thetas[refused][0])
    edge = max(2.0 * tol, 1e-6 * (hi - lo))
    shapes = np.where((eta_star - lo <= edge) | (hi - eta_star <= edge),
                      "monotone-on-range", "interior-peak")
    return ThresholdCurve(thetas, eta_star, values["c_star"], tuple(shapes.tolist()), (lo, hi))


# Marching squares: segment endpoints are keyed by grid edge so that
# adjacent cells connect exactly.

def _interp(x0, x1, v0, v1, level):
    t = (level - v0) / (v1 - v0)
    return x0 + t * (x1 - x0)


def _cell_segments(i, j, x, y, z, level):
    """Level-crossing segments of one grid cell, as ((edge_key, point), ...)."""
    v00, v10 = z[i, j], z[i + 1, j]
    v01, v11 = z[i, j + 1], z[i + 1, j + 1]
    corners = (v00 > level, v10 > level, v11 > level, v01 > level)
    case = sum(b << n for n, b in enumerate(corners))
    if case in (0, 15):
        return ()

    def bottom():
        return (("h", i, j), (_interp(x[i], x[i + 1], v00, v10, level), y[j]))

    def top():
        return (("h", i, j + 1), (_interp(x[i], x[i + 1], v01, v11, level), y[j + 1]))

    def left():
        return (("v", i, j), (x[i], _interp(y[j], y[j + 1], v00, v01, level)))

    def right():
        return (("v", i + 1, j), (x[i + 1], _interp(y[j], y[j + 1], v10, v11, level)))

    pairs = {
        1: (left, bottom), 2: (bottom, right), 3: (left, right),
        4: (right, top), 6: (bottom, top), 7: (left, top),
        8: (top, left), 9: (bottom, top), 11: (right, top),
        12: (left, right), 13: (bottom, right), 14: (bottom, left),
    }
    if case in (5, 10):  # ambiguous saddle cell: split by the center value
        center = 0.25 * (v00 + v10 + v01 + v11)
        if case == 5:
            segs = ((left(), top()), (right(), bottom())) if center > level else \
                   ((left(), bottom()), (right(), top()))
        else:
            segs = ((bottom(), left()), (top(), right())) if center > level else \
                   ((bottom(), right()), (top(), left()))
        return segs
    a, b = pairs[case]
    return ((a(), b()),)


def _chain_segments(segments):
    """Join edge-keyed segments into ordered polylines."""
    adj: dict = {}
    seg_pts = []
    for (ka, pa), (kb, pb) in segments:
        idx = len(seg_pts)
        seg_pts.append(((ka, pa), (kb, pb)))
        adj.setdefault(ka, []).append(idx)
        adj.setdefault(kb, []).append(idx)
    used = [False] * len(seg_pts)
    chains = []
    order = sorted(adj, key=lambda k: (len(adj[k]), k))
    for start_key in [k for k in order if len(adj[k]) == 1] + list(order):
        for idx in adj[start_key]:
            if used[idx]:
                continue
            pts = []

            def push(pt):
                if not pts or pts[-1] != pt:  # node crossings duplicate coords
                    pts.append(pt)

            key = start_key
            cur = idx
            while cur is not None and not used[cur]:
                used[cur] = True
                (ka, pa), (kb, pb) = seg_pts[cur]
                if ka == key:
                    push(pa)
                    push(pb)
                    key = kb
                else:
                    push(pb)
                    push(pa)
                    key = ka
                cur = next((n for n in adj.get(key, []) if not used[n]), None)
            if len(pts) >= 2:
                chains.append(np.asarray(pts))
    return chains


def _crossing_segments(x, y, z, level):
    """Segments of every cell whose four corners are non-NaN and one to
    three of them above the level, in row-major cell order."""
    corners = (np.s_[:-1, :-1], np.s_[1:, :-1], np.s_[:-1, 1:], np.s_[1:, 1:])
    finite = np.logical_and.reduce([~np.isnan(z[c]) for c in corners])
    above = sum((z[c] > level).astype(int) for c in corners)
    keep = finite & (above > 0) & (above < 4)
    segments = []
    for i, j in zip(*(idx.tolist() for idx in np.nonzero(keep))):
        segments.extend(_cell_segments(i, j, x, y, z, level))
    return segments


def iso_equilibrium_contour(grid: SweepGrid, variable: str, level: float) -> IsoContour:
    """Marching-squares contour of one variable over the unmasked cells.

    Cells touching a masked corner are skipped; a finite level outside the
    value range yields an empty contour rather than an error.
    """
    if not math.isfinite(level):
        raise DomainError(f"contour level must be finite, got {level}")
    chains = _chain_segments(_crossing_segments(
        grid.theta_axis, grid.eta_axis, grid.values(variable), level))
    chains.sort(key=len, reverse=True)
    points = chains[0] if chains else np.empty((0, 2))
    return IsoContour(float(level), variable, points, tuple(chains))


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
