"""The two-dimensional consumption-capital dynamical system.

State (c, k) evolves under

    c_dot = c * (r(k) - rho - delta) / sigma          (Euler equation)
    k_dot = y(k, l*(k)) - c - delta * k               (accumulation)

with r(k) the endogenous interest rate and y(k, l*(k)) the reduced output at
the firm's labor optimum.  The module provides the vector field, its analytic
Jacobian, eigenvalue classification of the steady state, nullclines, an
adaptive embedded Runge-Kutta integrator (Dormand-Prince 5(4)), stable-branch
extraction by backward integration, and parameter-shock comparisons of phase
portraits.

Conventions: State and Trajectory store (c, k); portrait geometry (nullcline
polylines, vector-field samples) is stored in plot order (k, c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import SteadyState, steady_state
from .errors import (ClassificationError, DegenerateError, DomainError,
                     IntegrationError)
from .params import ModelParams

_TINY = 1e-300


@dataclass(frozen=True)
class State:
    """Consumption flow and capital stock; both strictly positive."""

    c: float
    k: float

    def __post_init__(self):
        if not (self.c > 0.0 and self.k > 0.0):
            raise DomainError(f"state must be positive, got c={self.c}, k={self.k}")


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered solution samples.

    ``status`` is one of ``converged`` (vector field dropped below the
    convergence threshold, or a saddle branch covered its capital target),
    ``max-time`` (horizon exhausted), or ``left-domain`` (the flow reached
    the boundary of the positive quadrant).
    """

    t: np.ndarray
    states: np.ndarray  # shape (n, 2), columns (c, k)
    status: str

    def __post_init__(self):
        if len(self.t) != len(self.states):
            raise DomainError("time and state arrays must have equal length")
        if len(self.t) > 1 and not np.all(np.diff(self.t) > 0):
            raise DomainError("trajectory times must be strictly increasing")
        if np.any(self.states <= 0):
            raise DomainError("trajectory states must be positive")

    @property
    def c(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def k(self) -> np.ndarray:
        return self.states[:, 1]

    @property
    def final(self) -> State:
        return State(float(self.states[-1, 0]), float(self.states[-1, 1]))


@dataclass(frozen=True)
class Classification:
    """Local linearization of the steady state."""

    classification: str
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None  # columns matching eigenvalues; None if complex
    jacobian: np.ndarray
    steady_state: SteadyState


@dataclass(frozen=True)
class PhasePortrait:
    """Everything needed to draw the (k, c) phase diagram."""

    c_nullcline: np.ndarray  # (n, 2) columns (k, c); the vertical line k = k*
    k_nullcline: np.ndarray  # (n, 2) columns (k, c); c = y(k, l*(k)) - delta k
    equilibrium: State
    classification: str
    eigenvalues: np.ndarray
    stable_paths: tuple[Trajectory, ...]
    vector_field: np.ndarray  # (m, 4) columns (k, c, c_dot, k_dot)
    k_range: tuple[float, float]


def _unpack(s) -> tuple[float, float]:
    if isinstance(s, State):
        return s.c, s.k
    c, k = s
    if not (c > 0.0 and k > 0.0):
        raise DomainError(f"state must be positive, got c={c}, k={k}")
    return float(c), float(k)


def _field(p: ModelParams):
    """Plain-float vector field closure on the coefficients of ``p``."""
    co = core._reduced(p)
    rr, r_exp, lcy, y_exp = (float(v) for v in (co.r_coef, co.r_exp, co.log_y, co.y_exp))
    rho_delta = p.rho + p.delta
    sigma, delta, log_max = p.sigma, p.delta, core._LOG_MAX

    def f(c: float, k: float) -> tuple[float, float]:
        lk = math.log(k)
        r = rr * math.exp(min(r_exp * lk, log_max))
        ly = lcy + y_exp * lk
        y = math.inf if ly > log_max else math.exp(ly)
        return c * (r - rho_delta) / sigma, y - c - delta * k

    return f


def rhs(s, p: ModelParams) -> tuple[float, float]:
    """(c_dot, k_dot) at state s."""
    c, k = _unpack(s)
    return _field(p)(c, k)


def jacobian(s, p: ModelParams) -> np.ndarray:
    """Analytic 2x2 Jacobian of rhs at state s.

    k_dot is linear in c with slope -1, so the (1, 0) entry is exactly -1
    everywhere.
    """
    c, k = _unpack(s)
    co = core._reduced(p, k)
    r = float(co.rate(k))
    y = float(co.output(k))
    r_prime = float(co.r_exp) * r / k
    y_prime = float(co.y_exp) * y / k
    return np.array([
        [(r - p.rho - p.delta) / p.sigma, c * r_prime / p.sigma],
        [-1.0, y_prime - p.delta],
    ])


def classify_matrix(j: np.ndarray) -> tuple[str, np.ndarray, np.ndarray | None]:
    """Classify a 2x2 linearization via its characteristic polynomial.

    Returns (classification, eigenvalues, eigenvectors); eigenvectors are
    unit columns for real spectra and None for complex ones.
    """
    a, b = float(j[0, 0]), float(j[0, 1])
    c, d = float(j[1, 0]), float(j[1, 1])
    tr = a + d
    det = a * d - b * c
    disc = tr * tr - 4.0 * det

    if disc >= 0.0:
        s = math.sqrt(disc)
        lams = np.array([(tr - s) / 2.0, (tr + s) / 2.0])
        vecs = np.column_stack([_real_eigvec(a, b, c, d, lam) for lam in lams])
    else:
        s = math.sqrt(-disc)
        lams = np.array([complex(tr / 2.0, -s / 2.0), complex(tr / 2.0, s / 2.0)])
        vecs = None

    if abs(det) < 1e-12:
        label = "center-degenerate"
    elif det < 0.0:
        label = "saddle"
    elif disc < 0.0:
        label = "center-degenerate" if tr == 0.0 else (
            "spiral-sink" if tr < 0.0 else "spiral-source")
    else:
        label = "sink" if tr < 0.0 else "source"
    return label, lams, vecs


def _real_eigvec(a, b, c, d, lam) -> np.ndarray:
    v1 = np.array([b, lam - a])
    v2 = np.array([lam - d, c])
    v = v1 if np.dot(v1, v1) >= np.dot(v2, v2) else v2
    n = math.sqrt(float(np.dot(v, v)))
    if n == 0.0:  # lam*I exactly; any direction is an eigenvector
        return np.array([1.0, 0.0])
    return v / n


def classify_equilibrium(p: ModelParams) -> Classification:
    """Eigen-decomposition of the Jacobian at the steady state.

    A saddle (det < 0) has real eigenvalues of opposite sign; its stable
    eigenvector seeds the saddle-path construction.
    """
    ss = steady_state(p)
    if not ss.feasible:
        raise DegenerateError("steady state is infeasible; nothing to classify")
    j = jacobian(State(ss.c_star, ss.k_star), p)
    label, lams, vecs = classify_matrix(j)
    return Classification(label, lams, vecs, j, ss)


def nullclines(p: ModelParams, k_range: tuple[float, float],
               n: int = 241) -> tuple[np.ndarray, np.ndarray]:
    """Sample the two nullclines over ``k_range``.

    The c-nullcline is the vertical line k = k* because r depends on k
    alone; the k-nullcline is c = y(k, l*(k)) - delta k.
    """
    klo, khi = float(k_range[0]), float(k_range[1])
    if not (0.0 < klo < khi) or n < 2:
        raise DomainError(f"invalid k_range {k_range} or sample count {n}")
    ss = steady_state(p)
    if not ss.feasible:
        raise DegenerateError("steady state is infeasible")
    if not klo <= ss.k_star <= khi:
        raise DomainError(f"k_range {k_range} does not contain k* = {ss.k_star:.6g}")
    ks = np.linspace(klo, khi, n)
    cs = core.Coefficients(p).output(ks) - p.delta * ks
    k_null = np.column_stack([ks, cs])
    c_top = 1.25 * max(float(np.max(cs, initial=0.0)), ss.c_star)
    c_null = np.column_stack([np.full(n, ss.k_star), np.linspace(0.0, c_top, n)])
    return c_null, k_null


# Dormand-Prince 5(4) tableau.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1 = 35 / 384 - 5179 / 57600
_E3 = 500 / 1113 - 7571 / 16695
_E4 = 125 / 192 - 393 / 640
_E5 = -2187 / 6784 + 92097 / 339200
_E6 = 11 / 84 - 187 / 2100
_E7 = -1 / 40


def _rk45(f, c0: float, k0: float, t_max: float, rtol: float, atol: float,
          conv_tol: float | None = None, stop=None, max_steps: int = 500_000):
    """Adaptive Dormand-Prince step loop on plain floats.

    Returns (ts, cs, ks, status) with status in {'converged', 'max-time',
    'left-domain', 'stopped'}.  Raises IntegrationError on step underflow
    that is not caused by the domain boundary, attaching the partial arrays.
    """
    t, c, k = 0.0, c0, k0
    ts, cs, ks = [0.0], [c0], [k0]
    fc, fk = f(c, k)

    def _converged(cc, kk, gc, gk):
        return (conv_tol is not None
                and math.hypot(gc, gk) <= conv_tol * max(math.hypot(cc, kk), _TINY))

    if _converged(c, k, fc, fk):
        return ts, cs, ks, "converged"
    if t_max <= 0.0:
        return ts, cs, ks, "max-time"

    hmin = 1e-13 * max(1.0, t_max)
    h = min(t_max, max(hmin, 0.01 * max(math.hypot(c, k), 1e-6)
                       / max(math.hypot(fc, fk), 1e-12)))
    last_reject = "error"
    steps = 0
    while True:
        steps += 1
        if steps > max_steps:
            raise IntegrationError(
                f"step budget exhausted after {max_steps} steps at t={t:.6g}",
                trajectory=_as_trajectory(ts, cs, ks, "max-time"))
        if h < hmin:
            if last_reject == "domain":
                return ts, cs, ks, "left-domain"
            raise IntegrationError(
                f"step size underflow at t={t:.6g}",
                trajectory=_as_trajectory(ts, cs, ks, "max-time"))
        h = min(h, t_max - t)

        c2 = c + h * (_A21 * fc)
        k2 = k + h * (_A21 * fk)
        if c2 <= 0.0 or k2 <= 0.0:
            h *= 0.3
            last_reject = "domain"
            continue
        fc2, fk2 = f(c2, k2)
        c3 = c + h * (_A31 * fc + _A32 * fc2)
        k3 = k + h * (_A31 * fk + _A32 * fk2)
        if c3 <= 0.0 or k3 <= 0.0:
            h *= 0.3
            last_reject = "domain"
            continue
        fc3, fk3 = f(c3, k3)
        c4 = c + h * (_A41 * fc + _A42 * fc2 + _A43 * fc3)
        k4 = k + h * (_A41 * fk + _A42 * fk2 + _A43 * fk3)
        if c4 <= 0.0 or k4 <= 0.0:
            h *= 0.3
            last_reject = "domain"
            continue
        fc4, fk4 = f(c4, k4)
        c5 = c + h * (_A51 * fc + _A52 * fc2 + _A53 * fc3 + _A54 * fc4)
        k5 = k + h * (_A51 * fk + _A52 * fk2 + _A53 * fk3 + _A54 * fk4)
        if c5 <= 0.0 or k5 <= 0.0:
            h *= 0.3
            last_reject = "domain"
            continue
        fc5, fk5 = f(c5, k5)
        c6 = c + h * (_A61 * fc + _A62 * fc2 + _A63 * fc3 + _A64 * fc4 + _A65 * fc5)
        k6 = k + h * (_A61 * fk + _A62 * fk2 + _A63 * fk3 + _A64 * fk4 + _A65 * fk5)
        if c6 <= 0.0 or k6 <= 0.0:
            h *= 0.3
            last_reject = "domain"
            continue
        fc6, fk6 = f(c6, k6)
        cn = c + h * (_B1 * fc + _B3 * fc3 + _B4 * fc4 + _B5 * fc5 + _B6 * fc6)
        kn = k + h * (_B1 * fk + _B3 * fk3 + _B4 * fk4 + _B5 * fk5 + _B6 * fk6)
        if cn <= 0.0 or kn <= 0.0:
            h *= 0.3
            last_reject = "domain"
            continue
        fcn, fkn = f(cn, kn)

        ec = h * (_E1 * fc + _E3 * fc3 + _E4 * fc4 + _E5 * fc5 + _E6 * fc6 + _E7 * fcn)
        ek = h * (_E1 * fk + _E3 * fk3 + _E4 * fk4 + _E5 * fk5 + _E6 * fk6 + _E7 * fkn)
        sc_c = atol + rtol * max(abs(c), abs(cn))
        sc_k = atol + rtol * max(abs(k), abs(kn))
        if not (math.isfinite(ec) and math.isfinite(ek)
                and math.isfinite(fcn) and math.isfinite(fkn)):
            h *= 0.3
            last_reject = "error"
            continue
        err = math.sqrt(0.5 * ((ec / max(sc_c, _TINY)) ** 2
                               + (ek / max(sc_k, _TINY)) ** 2))
        if err > 1.0:
            h *= min(1.0, max(0.2, 0.9 * err ** -0.2))
            last_reject = "error"
            continue

        t += h
        c, k, fc, fk = cn, kn, fcn, fkn  # FSAL: last stage seeds the next step
        ts.append(t)
        cs.append(c)
        ks.append(k)
        if _converged(c, k, fc, fk):
            return ts, cs, ks, "converged"
        if stop is not None and stop(t, c, k):
            return ts, cs, ks, "stopped"
        if t >= t_max * (1.0 - 1e-14):
            return ts, cs, ks, "max-time"
        h *= min(5.0, max(0.2, 0.9 * max(err, 1e-10) ** -0.2))


def _as_trajectory(ts, cs, ks, status) -> Trajectory:
    return Trajectory(np.asarray(ts, dtype=float),
                      np.column_stack([cs, ks]).astype(float), status)


def integrate(s0, p: ModelParams, t_max: float, tol: float = 1e-9) -> Trajectory:
    """Integrate rhs forward from s0.

    Stops at t_max, on convergence (||rhs|| below tol times the state norm),
    or when the flow reaches the boundary of the positive quadrant
    (status ``left-domain``).  ``tol`` is the relative step-error tolerance,
    restricted to [1e-12, 1e-3].
    """
    if not 1e-12 <= tol <= 1e-3:
        raise DomainError(f"tol must lie in [1e-12, 1e-3], got {tol}")
    if t_max < 0.0:
        raise DomainError(f"t_max must be nonnegative, got {t_max}")
    c0, k0 = _unpack(s0)
    f = _field(p)
    ts, cs, ks, status = _rk45(f, c0, k0, t_max, rtol=tol, atol=0.0, conv_tol=tol)
    return _as_trajectory(ts, cs, ks, status)


def saddle_path(p: ModelParams, k_targets: tuple[float, float],
                tol: float = 1e-9, eps_scale: float = 1e-6,
                max_time: float | None = None) -> tuple[Trajectory, Trajectory]:
    """Extract both stable branches of a saddle equilibrium.

    Each branch is seeded at (c*, k*) +/- eps * v_s, with v_s the stable
    eigenvector and eps = eps_scale * k*, then integrated backward in time
    (backward integration contracts transverse perturbations, so the branch
    is recovered stably) until its capital coordinate covers ``k_targets``.
    Branches are returned as forward-time trajectories running from the far
    end toward the equilibrium; status ``converged`` marks full coverage,
    ``left-domain`` and ``max-time`` mark truncation.
    """
    cls = classify_equilibrium(p)
    if cls.classification != "saddle":
        raise ClassificationError(
            f"saddle path requires a saddle, got {cls.classification}")
    ss = cls.steady_state
    klo, khi = float(k_targets[0]), float(k_targets[1])
    if not (0.0 < klo < ss.k_star < khi):
        raise DomainError(
            f"k_targets {k_targets} must straddle k* = {ss.k_star:.6g}")

    lams, vecs = cls.eigenvalues, cls.eigenvectors
    i_stable = int(np.argmin(lams.real))
    v = vecs[:, i_stable].astype(float)
    if v[1] < 0.0:  # orient toward increasing capital
        v = -v
    eps = eps_scale * ss.k_star
    if max_time is None:
        span = max(ss.k_star - klo, khi - ss.k_star)
        max_time = 3.0 * (math.log(max(span / eps, 2.0)) + 10.0) / abs(float(lams[i_stable]))

    f = _field(p)

    def f_back(c, k):
        dc, dk = f(c, k)
        return -dc, -dk

    branches = []
    for sign, target in ((-1.0, klo), (+1.0, khi)):
        c_seed = ss.c_star + sign * eps * v[0]
        k_seed = ss.k_star + sign * eps * v[1]
        if sign < 0:
            stop = lambda t, c, k: k <= target
        else:
            stop = lambda t, c, k: k >= target
        ts, cs, ks, status = _rk45(f_back, c_seed, k_seed, max_time,
                                   rtol=tol, atol=0.0, stop=stop)
        if status == "stopped":
            status = "converged"
        # flip to forward time: far end first, seed (near equilibrium) last
        t_arr = np.asarray(ts)
        t_fwd = t_arr[-1] - t_arr[::-1]
        states = np.column_stack([cs, ks])[::-1]
        branches.append(Trajectory(t_fwd, states.astype(float), status))
    return branches[0], branches[1]


def saddle_path_deviation(p: ModelParams, k_targets: tuple[float, float],
                          tol: float = 1e-9, eps_scale: float = 1e-6) -> float:
    """Self-consistency of the branch construction under eps halving.

    Recomputes both branches with eps and eps/2 and returns the maximum
    consumption gap at matched capital, relative to ||(c*, k*)||.
    """
    ss = steady_state(p)
    scale = math.hypot(ss.c_star, ss.k_star)
    worst = 0.0
    for pair in zip(saddle_path(p, k_targets, tol, eps_scale),
                    saddle_path(p, k_targets, tol, eps_scale / 2.0)):
        a, b = pair
        ka, ca = a.k, a.c
        kb, cb = b.k, b.c
        lo = max(ka.min(), kb.min())
        hi = min(ka.max(), kb.max())
        if hi <= lo:
            continue
        grid = np.linspace(lo, hi, 200)
        ia = np.argsort(ka)
        ib = np.argsort(kb)
        gap = np.interp(grid, ka[ia], ca[ia]) - np.interp(grid, kb[ib], cb[ib])
        worst = max(worst, float(np.max(np.abs(gap))) / scale)
    return worst


def phase_portrait(p: ModelParams, k_range: tuple[float, float] | None = None,
                   n: int = 241, field_shape: tuple[int, int] = (15, 12),
                   include_saddle: bool = True, tol: float = 1e-9) -> PhasePortrait:
    """Assemble nullclines, classification, stable branches, and a quiver grid."""
    ss = steady_state(p)
    if not ss.feasible:
        raise DegenerateError("steady state is infeasible; no portrait")
    if k_range is None:
        k_range = (0.5 * ss.k_star, 1.5 * ss.k_star)
    c_null, k_null = nullclines(p, k_range, n)
    cls = classify_equilibrium(p)

    paths: tuple[Trajectory, ...] = ()
    if include_saddle and cls.classification == "saddle":
        lo = max(k_range[0], 1e-12)
        paths = saddle_path(p, (lo, k_range[1]), tol=tol)

    nk, nc = field_shape
    c_top = float(np.max(c_null[:, 1]))
    f = _field(p)
    rows = []
    for k in np.linspace(k_range[0], k_range[1], nk):
        for j in range(nc):
            c = c_top * (j + 0.5) / nc
            dc, dk = f(float(c), float(k))
            rows.append((k, c, dc, dk))
    field = np.asarray(rows)

    return PhasePortrait(
        c_nullcline=c_null,
        k_nullcline=k_null,
        equilibrium=State(ss.c_star, ss.k_star),
        classification=cls.classification,
        eigenvalues=cls.eigenvalues,
        stable_paths=paths,
        vector_field=field,
        k_range=(float(k_range[0]), float(k_range[1])),
    )


@dataclass(frozen=True)
class ShockResult:
    """Phase portraits before and after a parameter shock."""

    before: PhasePortrait
    after: PhasePortrait
    dk_star: float
    dc_star: float


def shock_experiment(p_before: ModelParams, p_after: ModelParams,
                     k_range: tuple[float, float] | None = None,
                     **portrait_kwargs) -> ShockResult:
    """Compare equilibria and portraits across a parameter change."""
    ss_b = steady_state(p_before)
    ss_a = steady_state(p_after)
    if not (ss_b.feasible and ss_a.feasible):
        raise DegenerateError("both parameter sets must yield feasible steady states")
    if k_range is None:
        k_range = (0.5 * min(ss_b.k_star, ss_a.k_star),
                   1.5 * max(ss_b.k_star, ss_a.k_star))
    before = phase_portrait(p_before, k_range, **portrait_kwargs)
    after = phase_portrait(p_after, k_range, **portrait_kwargs)
    return ShockResult(before, after,
                       dk_star=ss_a.k_star - ss_b.k_star,
                       dc_star=ss_a.c_star - ss_b.c_star)
