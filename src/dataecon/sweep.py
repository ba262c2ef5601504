"""Parameter sweeps over the (theta, eta) plane.

Builds equilibrium surfaces on rectangular grids with singular / infeasible
cells masked, locates the consumption-maximizing conversion rate eta*(theta)
by golden-section search, extracts iso-equilibrium contours by marching
squares, and reports local finite-difference sensitivity signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import SteadyState, steady_state, steady_states
from .errors import DegenerateError, DomainError, RegimeError, SearchError
from .params import ModelParams

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # inverse golden ratio


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
    base: ModelParams

    def values(self, variable: str) -> np.ndarray:
        """Matrix of one SteadyState field, NaN on masked cells."""
        return getattr(self, variable)

    @cached_property
    def cells(self) -> tuple[tuple[SteadyState | None, ...], ...]:
        """``cells[i][j]`` is the SteadyState of cell (i, j), None when masked."""
        rows = zip(self.mask.tolist(), self.k_star.tolist(), self.c_star.tolist(),
                   self.l_star.tolist(), self.y_star.tolist(), self.r_star.tolist())
        return tuple(tuple(SteadyState(*values, True) if mask == "ok" else None
                           for mask, *values in zip(*row))
                     for row in rows)


@dataclass(frozen=True)
class ThresholdResult:
    """Consumption-maximizing eta on one band-free sub-interval."""

    theta: float
    eta_star: float
    c_star_max: float
    shape: str  # 'interior-peak' | 'monotone-on-range'
    eta_range: tuple[float, float]


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
    step: float


def _check_axis(name: str, axis) -> np.ndarray:
    arr = np.asarray(axis, dtype=float)
    if arr.ndim != 1 or len(arr) == 0:
        raise DomainError(f"{name} must be a nonempty 1-D vector")
    if np.any(arr < 0.0) or np.any(arr >= 1.0):
        raise DomainError(f"{name} values must lie in [0, 1)")
    if len(arr) > 1 and not np.all(np.diff(arr) > 0):
        raise DomainError(f"{name} must be sorted and deduplicated")
    return arr


def grid_sweep(p_base: ModelParams, theta_axis, eta_axis) -> SweepGrid:
    """Evaluate the steady state on every grid cell, masking failures.

    Cells are independent; singular-band, degenerate, and infeasible cells
    are masked without affecting neighbors.  Each unmasked cell equals
    ``steady_state`` at its (theta, eta) bit for bit.
    """
    thetas = _check_axis("theta_axis", theta_axis)
    etas = _check_axis("eta_axis", eta_axis)
    mask, values = steady_states(p_base, *np.meshgrid(thetas, etas, indexing="ij"))
    ok = mask == "ok"
    return SweepGrid(thetas, etas, mask=mask, base=p_base,
                     **{name: np.where(ok, v, np.nan) for name, v in values.items()})


def golden_section_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization of a unimodal f on [lo, hi].

    Returns (argmax, max) with the argmax located to within tol.
    """
    if not hi > lo:
        raise DomainError(f"empty search interval [{lo}, {hi}]")
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def band_free_intervals(p: ModelParams, eta_range: tuple[float, float]) -> list[tuple[float, float]]:
    """Split an eta range around the singular band of p."""
    lo, hi = float(eta_range[0]), float(eta_range[1])
    if not (0.0 <= lo < hi < 1.0):
        raise DomainError(f"eta_range must satisfy 0 <= lo < hi < 1, got {eta_range}")
    center = (1.0 - p.alpha - p.beta) / p.alpha
    half = p.singular_band / p.alpha
    e_lo, e_hi = center - half, center + half
    if e_hi <= lo or e_lo >= hi:
        return [(lo, hi)]
    out = []
    if e_lo > lo:
        out.append((lo, e_lo))
    if e_hi < hi:
        out.append((e_hi, hi))
    return out


def consumption_threshold(p_base: ModelParams, theta: float,
                          eta_range: tuple[float, float],
                          tol: float = 1e-4,
                          coarse: int = 65) -> list[ThresholdResult]:
    """Locate the argmax of c*(eta; theta), one result per band-free
    sub-interval of ``eta_range``.

    A coarse scan (one evaluator call) brackets the maximum, golden-section
    search on the scalar solver refines it to within tol, and the shape tag
    records whether the maximum is interior or pinned at a range boundary.
    """
    p_theta = p_base.replace(theta=float(theta))

    def c_at(eta: float) -> float:
        """c*(eta) by the scalar solver, -inf where it refuses or is infeasible."""
        try:
            ss = steady_state(p_theta.replace(eta=eta))
        except (RegimeError, DegenerateError, DomainError):
            return -math.inf
        return ss.c_star if ss.feasible else -math.inf

    results = []
    for lo, hi in band_free_intervals(p_base, eta_range):
        xs = np.linspace(lo, hi, coarse)
        mask, values = steady_states(p_theta, eta=xs)
        vals = np.where(mask == "ok", values["c_star"], -np.inf)
        if not np.any(np.isfinite(vals)):
            raise SearchError(
                f"no feasible steady state for theta={theta} on eta in [{lo}, {hi}]")
        i = int(np.argmax(vals))
        b_lo = xs[max(i - 1, 0)]
        b_hi = xs[min(i + 1, len(xs) - 1)]
        eta_star, c_max = golden_section_max(c_at, float(b_lo), float(b_hi), tol)
        edge = max(2.0 * tol, 1e-6 * (hi - lo))
        shape = ("monotone-on-range"
                 if (eta_star - lo) <= edge or (hi - eta_star) <= edge
                 else "interior-peak")
        results.append(ThresholdResult(float(theta), eta_star, c_max, shape, (lo, hi)))
    return results


def default_eta_range(p: ModelParams, lo: float = 0.05, hi: float = 0.95) -> tuple[float, float]:
    """The widest band-free eta sub-interval of [lo, hi]."""
    parts = band_free_intervals(p, (lo, hi))
    return max(parts, key=lambda ab: ab[1] - ab[0])


def threshold_curve(p_base: ModelParams, thetas,
                    eta_range: tuple[float, float] | None = None,
                    tol: float = 1e-4) -> ThresholdCurve:
    """eta*(theta) over a theta grid on a single band-free eta range."""
    if eta_range is None:
        eta_range = default_eta_range(p_base)
    if len(band_free_intervals(p_base, eta_range)) != 1:
        raise DomainError(
            f"eta_range {eta_range} straddles the singular band; search one side at a time")
    thetas = np.asarray(list(thetas), dtype=float)
    stars, cmaxs, shapes = [], [], []
    for theta in thetas:
        res = consumption_threshold(p_base, float(theta), eta_range, tol)[0]
        stars.append(res.eta_star)
        cmaxs.append(res.c_star_max)
        shapes.append(res.shape)
    return ThresholdCurve(thetas, np.array(stars), np.array(cmaxs),
                          tuple(shapes), tuple(eta_range))


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


def iso_equilibrium_contour(grid: SweepGrid, variable: str, level: float) -> IsoContour:
    """Marching-squares contour of one variable over the unmasked cells.

    Cells touching a masked corner are skipped; a level outside the value
    range yields an empty contour rather than an error.
    """
    z = grid.values(variable)
    x, y = grid.theta_axis, grid.eta_axis
    segments = []
    for i in range(len(x) - 1):
        for j in range(len(y) - 1):
            block = z[i:i + 2, j:j + 2]
            if np.any(np.isnan(block)):
                continue
            segments.extend(_cell_segments(i, j, x, y, z, level))
    chains = _chain_segments(segments)
    chains.sort(key=len, reverse=True)
    points = chains[0] if chains else np.empty((0, 2))
    return IsoContour(float(level), variable, points, tuple(chains))


def sensitivity_signs(p: ModelParams, h: float = 1e-4) -> SensitivityReport:
    """Central finite-difference signs of (k*, c*) in (eta, theta).

    ``h`` is a relative step.  A derivative is declared zero when the two
    one-sided evaluations agree to within 1e-10 of their magnitude (the
    noise floor of the closed forms).  Infeasible neighbors, and an eta step
    that leaves [0, 1), trigger a step-shrink retry before failing.
    """
    for attempt in range(7):
        step = h / (2 ** attempt)
        d_eta = step * max(abs(p.eta), 1e-3)
        d_theta = step * max(abs(p.theta), 1e-3)
        mask, values = steady_states(
            p, [p.theta, p.theta, min(p.theta + d_theta, 1.0), max(p.theta - d_theta, 0.0)],
            [p.eta + d_eta, max(p.eta - d_eta, 0.0), p.eta, p.eta])
        if np.any(mask != "ok") or p.eta + d_eta >= 1.0:  # eta >= 1 lies outside the model
            continue
        kp_e, km_e, kp_t, km_t = values["k_star"].tolist()
        cp_e, cm_e, cp_t, cm_t = values["c_star"].tolist()
        return SensitivityReport(
            dk_deta=_derivative(kp_e, km_e, 2 * d_eta),
            dk_dtheta=_derivative(kp_t, km_t, 2 * d_theta),
            dc_deta=_derivative(cp_e, cm_e, 2 * d_eta),
            dc_dtheta=_derivative(cp_t, cm_t, 2 * d_theta),
            step=step,
        )
    raise DomainError(
        f"no feasible finite-difference stencil around (theta={p.theta}, eta={p.eta})")


def _derivative(f_plus: float, f_minus: float, width: float) -> Derivative:
    diff = f_plus - f_minus
    if abs(diff) <= 1e-10 * max(abs(f_plus), abs(f_minus), 1e-300):
        return Derivative(0, 0.0)
    value = diff / width
    return Derivative(1 if value > 0 else -1, value)
