"""Parameter sweeps over the (theta, eta) plane.

Builds equilibrium surfaces on rectangular grids with singular / infeasible
cells masked, locates the consumption-maximizing conversion rate eta*(theta)
for every theta at once by a lockstep golden-section search on the array
evaluator, extracts iso-equilibrium contours by marching squares, and
reports the signs of the steady state's analytic derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import Coefficients, SteadyState, steady_states
from .errors import DomainError, SearchError
from .params import ModelParams

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # inverse golden ratio
_COARSE_POINTS = 65  # eta points of the threshold search's bracketing scan
_MAX_CELLS = 2_500_000  # cell bound of grid_sweep and threshold_curve's scan (~365 MB)
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


def golden_section_max(f, lo, hi, tol: float):
    """Golden-section maximization of a unimodal f on each bracket [lo, hi].

    ``lo`` and ``hi`` broadcast; ``f`` maps an array of points, one per
    bracket, to their values.  All brackets step in lockstep, one f call per
    step, each frozen once its width is at most tol.  Returns (argmax, max)
    arrays, 0-d for a scalar bracket.  A tol below a bracket's rounding scale
    raises SearchError once a step leaves that bracket no narrower.
    """
    a, b = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    if np.any(empty := ~(b > a)):
        raise DomainError(f"empty search interval [{a[empty][0]}, {b[empty][0]}]")
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while np.any(live := b - a > tol):
        up = fc >= fd  # the maximum lies in [a, d], else in [c, b]
        na, nb = np.where(up, a, c), np.where(up, d, b)
        x = np.where(up, nb - _GOLDEN * (nb - na), na + _GOLDEN * (nb - na))
        fx = f(x)
        if np.any(stalled := live & ~(nb - na < b - a)):
            raise SearchError(f"golden section stalled at bracket width "
                              f"{(nb - na)[stalled][0]:.3g} above tol={tol}")
        a, b, c, d, fc, fd = (np.where(live, new, old) for new, old in (
            (na, a), (nb, b), (np.where(up, x, d), c), (np.where(up, c, x), d),
            (np.where(up, fx, fd), fc), (np.where(up, fc, fx), fd)))
    x = 0.5 * (a + b)
    return x, f(x)


def band_free_intervals(p: ModelParams, eta_range: tuple[float, float]) -> list[tuple[float, float]]:
    """Split an eta range around the singular band of p."""
    lo, hi = float(eta_range[0]), float(eta_range[1])
    if not (0.0 <= lo < hi < 1.0):
        raise DomainError(f"eta_range must satisfy 0 <= lo < hi < 1, got {eta_range}")
    center = (1.0 - p.alpha - p.beta) / p.alpha
    half = p.singular_band / p.alpha
    parts = [(lo, min(hi, center - half)), (max(lo, center + half), hi)]
    return [(a, b) for a, b in parts if a < b]


def threshold_curve(p_base: ModelParams, thetas,
                    eta_range: tuple[float, float] | None = None,
                    tol: float = 1e-4) -> ThresholdCurve:
    """eta*(theta) over a theta grid on a single band-free eta range.

    The curve's ``eta_range`` is the band-free range searched: one ending
    inside the singular band is cut at the band's edge, and ``None`` searches
    the widest band-free part of [0.05, 0.95].

    One ``steady_states`` scan of the range brackets the maximum at every
    theta, and one lockstep golden-section search on ``steady_states``
    refines all brackets (cells its mask refuses count as -inf), so the
    number of evaluator calls does not grow with the number of thetas.  The
    scan holds ``_COARSE_POINTS`` cells per theta, so more thetas than fit in
    ``grid_sweep``'s ``_MAX_CELLS`` raise DomainError before any evaluation.
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
    if len(thetas) * _COARSE_POINTS > _MAX_CELLS:
        raise DomainError(f"{len(thetas)} thetas x {_COARSE_POINTS} scan points exceeds "
                          f"{_MAX_CELLS} cells")
    for theta in thetas.tolist():
        p_base.replace(theta=theta)  # a theta outside the model raises ParameterError

    def c_at(theta, eta):
        mask, values = steady_states(p_base, theta, eta)
        return np.where(mask == "ok", values["c_star"], -np.inf)

    xs = np.linspace(lo, hi, _COARSE_POINTS)
    scan = c_at(thetas[:, None], xs)
    if np.any(empty := ~np.isfinite(scan).any(axis=1)):
        raise SearchError(f"no feasible steady state for theta={float(thetas[empty][0])} "
                          f"on eta in [{lo}, {hi}]")
    i = np.argmax(scan, axis=1)  # the bracket is the best scanned eta's two neighbours
    b_lo, b_hi = xs[np.clip([i - 1, i + 1], 0, len(xs) - 1)]
    eta_star, c_max = golden_section_max(lambda eta: c_at(thetas, eta), b_lo, b_hi, tol)
    edge = max(2.0 * tol, 1e-6 * (hi - lo))
    shapes = np.where((eta_star - lo <= edge) | (hi - eta_star <= edge),
                      "monotone-on-range", "interior-peak")
    return ThresholdCurve(thetas, eta_star, c_max, tuple(shapes.tolist()), (lo, hi))


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

    With L = log k*, A = log(y*/k*) and the notation of ``core``,
    dL/dtheta = -ae/(kx theta) and dL/deta = -alpha(A + log theta + 1 + L)/kx;
    c* = k* (y*/k* - delta) with d(y*/k*)/deta = -(rho + delta).  A sign is
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
    dk_deta = -k * p.alpha * (float(co.log_yk) + math.log(p.theta) + 1.0 + float(co.log_k)) / kx
    slopes = (dk_deta, dk_dtheta, ck * dk_deta - (p.rho + p.delta) * k, ck * dk_dtheta)
    return SensitivityReport(*(Derivative(int(np.sign(v)), v) for v in slopes))
