"""The two-dimensional consumption-capital dynamical system.

State (c, k) evolves under

    c_dot = c * (r(k) - rho - delta) / sigma          (Euler equation)
    k_dot = y(k, l*(k)) - c - delta * k               (accumulation)

with r(k) the endogenous interest rate and y(k, l*(k)) the reduced output at
the firm's labor optimum.  The module provides the vector field, its analytic
Jacobian, the steady state's linearization in closed form (its speed of
convergence does not depend on theta), nullclines, an adaptive embedded
Runge-Kutta integrator (Dormand-Prince 5(4), every stage read from one
tableau and computed on plain floats), stable-branch extraction by backward
integration, and parameter-shock comparisons of phase portraits.  In units
of k*, (c, k)/k*, the flow holds neither theta nor w: the stable branches are
integrated so and scaled by k* once; everything else stays in levels.

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
_FIELD_SHAPE = (15, 12)  # phase_portrait's quiver samples in k and in c


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
    """(c, k) of a State or a pair, as plain floats."""
    c, k = (s.c, s.k) if isinstance(s, State) else s
    if not (c > 0.0 and k > 0.0):
        raise DomainError(f"state must be positive, got c={c}, k={k}")
    return float(c), float(k)


def _field(p: ModelParams, log_k: float | None = None):
    """Plain-float vector field closure on the coefficients of ``p``, r(k)
    anchored at ``log_k``: log k* (levels) by default, 0.0 for (c, k)/k*."""
    co = core._reduced(p)
    r_exp, yk = float(co.r_exp), float(co.yk)
    log_k = float(co.log_k) if log_k is None else log_k
    rho_delta = p.rho + p.delta
    sigma, delta, log_max = p.sigma, p.delta, core._LOG_MAX

    def f(c: float, k: float) -> tuple[float, float]:
        x = min(r_exp * (math.log(k) - log_k), log_max)  # log r(k)/(rho + delta)
        r_gap = rho_delta * math.expm1(x)  # r(k) - (rho + delta), without cancellation
        return c * r_gap / sigma, yk * k * math.exp(x) - c - delta * k

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
    y_prime = p.alpha / float(co.den) * y / k
    return np.array([
        [(r - p.rho - p.delta) / p.sigma, c * r_prime / p.sigma],
        [-1.0, y_prime - p.delta],
    ])


def classify_equilibrium(p: ModelParams) -> Classification:
    """Linearization at the steady state, in closed form.

    With ae = alpha*eta and den, kx as in ``core``, r k = alpha y/(1 - ae)
    gives y*/k* = (rho + delta)(1 - ae)/alpha, so the Jacobian there is
    [[0, a], [-1, b]] with determinant a = (y*/k* - delta)(kx/den)(rho +
    delta)/sigma and trace b = (rho + delta)(1 - ae)/den - delta > rho;
    neither contains theta.  The eigenvalues (b -/+ sqrt(b^2 - 4a))/2 ascend,
    with unit eigenvectors along (b - lambda, 1), None for a complex pair.
    a has the sign of kx: below the singular band the steady state is a
    saddle, above it a source or spiral source ('sink' and 'spiral-sink'
    cannot occur); |a| < 1e-12 is 'center-degenerate'.
    """
    ss = steady_state(p)
    if not ss.feasible:
        raise DegenerateError("steady state is infeasible; nothing to classify")
    co = core.Coefficients(p)
    rho_delta, om = p.rho + p.delta, 1.0 - p.alpha * p.eta
    a = (float(co.yk) - p.delta) * float(co.r_exp) * rho_delta / p.sigma
    b = rho_delta * om / float(co.den) - p.delta
    disc = b * b - 4.0 * a
    if disc >= 0.0:
        s = math.sqrt(disc)
        lams = np.array([(b - s) / 2.0, (b + s) / 2.0])
        vecs = np.array([b - lams, [1.0, 1.0]]) / np.sqrt((b - lams) ** 2 + 1.0)
    else:
        s = math.sqrt(-disc)
        lams = np.array([complex(b / 2.0, -s / 2.0), complex(b / 2.0, s / 2.0)])
        vecs = None
    label = ("center-degenerate" if abs(a) < 1e-12 else "saddle" if a < 0.0
             else "spiral-source" if disc < 0.0 else "source")
    return Classification(label, lams, vecs, np.array([[0.0, a], [-1.0, b]]), ss)


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


# Dormand-Prince 5(4) tableau (Dormand & Prince 1980; Hairer, Norsett & Wanner,
# Solving ODEs I, II.5): stages 2-7 as (slope index, coefficient) pairs, zero
# entries left out; the last row is the fifth-order solution (FSAL).
_DP_ROWS = (
    ((0, 1 / 5),),
    ((0, 3 / 40), (1, 9 / 40)),
    ((0, 44 / 45), (1, -56 / 15), (2, 32 / 9)),
    ((0, 19372 / 6561), (1, -25360 / 2187), (2, 64448 / 6561), (3, -212 / 729)),
    ((0, 9017 / 3168), (1, -355 / 33), (2, 46732 / 5247), (3, 49 / 176), (4, -5103 / 18656)),
    ((0, 35 / 384), (2, 500 / 1113), (3, 125 / 192), (4, -2187 / 6784), (5, 11 / 84)),
)
_DP_ERR = ((0, 35 / 384 - 5179 / 57600), (2, 500 / 1113 - 7571 / 16695),
           (3, 125 / 192 - 393 / 640), (4, -2187 / 6784 + 92097 / 339200),
           (5, 11 / 84 - 187 / 2100), (6, -1 / 40))


def _check_tol(tol: float) -> None:
    """The one statement of the relative step-error tolerance range."""
    if not 1e-12 <= tol <= 1e-3:
        raise DomainError(f"tol must lie in [1e-12, 1e-3], got {tol}")


def _rk45(f, c0: float, k0: float, t_max: float, rtol: float,
          conv_tol: float | None = None, stop=None, max_steps: int = 500_000):
    """Adaptive Dormand-Prince step loop on plain floats.

    Each stage is one pass over its row of ``_DP_ROWS``, summed left to right
    from 0.0; a stage outside the positive quadrant shrinks the step.
    The error scale is ``rtol * max(|x|, |x_new|)`` per coordinate, with
    ``rtol`` restricted to [1e-12, 1e-3].  Returns (ts, cs, ks, status) with
    status in {'converged', 'max-time', 'left-domain', 'stopped'}.  Raises
    IntegrationError on step underflow that is not caused by the domain
    boundary, attaching the partial arrays; a ``t_max`` that is not finite
    and >= 0 raises DomainError before the first step.
    """
    _check_tol(rtol)
    if not 0.0 <= t_max < math.inf:
        raise DomainError(f"time horizon must be finite and nonnegative, got {t_max}")
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

        dc, dk = [fc], [fk]  # stage slopes
        for row in _DP_ROWS:
            sc = sk = 0.0
            for j, a in row:
                sc += a * dc[j]
                sk += a * dk[j]
            cn = c + h * sc
            kn = k + h * sk
            if cn <= 0.0 or kn <= 0.0:
                break
            fcn, fkn = f(cn, kn)
            dc.append(fcn)
            dk.append(fkn)
        if len(dc) <= len(_DP_ROWS):  # a stage left the positive quadrant
            h *= 0.3
            last_reject = "domain"
            continue

        ec = ek = 0.0
        for j, e in _DP_ERR:
            ec += e * dc[j]
            ek += e * dk[j]
        ec *= h
        ek *= h
        sc_c = rtol * max(abs(c), abs(cn))
        sc_k = rtol * max(abs(k), abs(kn))
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
    c0, k0 = _unpack(s0)
    f = _field(p)
    ts, cs, ks, status = _rk45(f, c0, k0, t_max, rtol=tol, conv_tol=tol)
    return _as_trajectory(ts, cs, ks, status)


def saddle_path(p: ModelParams, k_targets: tuple[float, float],
                tol: float = 1e-9, eps_scale: float = 1e-6,
                max_time: float | None = None) -> tuple[Trajectory, Trajectory]:
    """Extract both stable branches of a saddle equilibrium.

    Each branch is integrated in units of k*, free of theta and w: seeded
    at (c*/k*, 1) +/- eps_scale * v_s, v_s the stable eigenvector, then
    integrated backward in time (which contracts transverse perturbations,
    so the branch is recovered stably) until k/k* covers ``k_targets``/k*,
    and scaled by k* at the end.  Its times are the same at every theta and w.
    Branches are returned as forward-time trajectories running from the far
    end toward the equilibrium; status ``converged`` marks full coverage,
    ``left-domain`` and ``max-time`` mark truncation.
    """
    cls = classify_equilibrium(p)
    if cls.classification != "saddle":
        raise ClassificationError(
            f"saddle path requires a saddle, got {cls.classification}")
    k_star = cls.steady_state.k_star
    klo, khi = float(k_targets[0]), float(k_targets[1])
    if not (0.0 < klo < k_star < khi):
        raise DomainError(
            f"k_targets {k_targets} must straddle k* = {k_star:.6g}")

    lam_s = float(cls.eigenvalues[0])
    vc, vk = (float(x) for x in cls.eigenvectors[:, 0])  # vk > 0: toward more capital
    v_star = float(core.Coefficients(p).yk) - p.delta  # c*/k*
    u_lo, u_hi = klo / k_star, khi / k_star
    if max_time is None:
        span = max(1.0 - u_lo, u_hi - 1.0)
        max_time = 3.0 * (math.log(max(span / eps_scale, 2.0)) + 10.0) / abs(lam_s)

    f = _field(p, log_k=0.0)

    def f_back(v, u):
        dv, du = f(v, u)
        return -dv, -du

    branches = []
    for sign, target in ((-1.0, u_lo), (+1.0, u_hi)):
        ts, vs, us, status = _rk45(
            f_back, v_star + sign * eps_scale * vc, 1.0 + sign * eps_scale * vk,
            max_time, rtol=tol, stop=lambda t, v, u: sign * (u - target) >= 0.0)
        # forward time (far end first, seed last), in levels again
        t_back = np.asarray(ts)
        branches.append(Trajectory(t_back[-1] - t_back[::-1],
                                   np.column_stack([vs, us])[::-1] * k_star,
                                   "converged" if status == "stopped" else status))
    return branches[0], branches[1]


def phase_portrait(p: ModelParams, k_range: tuple[float, float] | None = None,
                   include_saddle: bool = True, tol: float = 1e-9) -> PhasePortrait:
    """Assemble nullclines (241 samples over ``k_range``, by default
    (k*/2, 3k*/2)), classification, stable branches, and a quiver grid.

    ``tol`` is checked even when no saddle path is integrated."""
    _check_tol(tol)
    cls = classify_equilibrium(p)
    ss = cls.steady_state
    if k_range is None:
        k_range = (0.5 * ss.k_star, 1.5 * ss.k_star)
    c_null, k_null = nullclines(p, k_range)

    paths: tuple[Trajectory, ...] = ()
    if include_saddle and cls.classification == "saddle":
        paths = saddle_path(p, k_range, tol=tol)

    nk, nc = _FIELD_SHAPE
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
                     **portrait_kwargs) -> ShockResult:
    """Compare equilibria and portraits across a parameter change."""
    ss_b = steady_state(p_before)
    ss_a = steady_state(p_after)
    if not (ss_b.feasible and ss_a.feasible):
        raise DegenerateError("both parameter sets must yield feasible steady states")
    k_range = (0.5 * min(ss_b.k_star, ss_a.k_star),
               1.5 * max(ss_b.k_star, ss_a.k_star))
    before = phase_portrait(p_before, k_range, **portrait_kwargs)
    after = phase_portrait(p_after, k_range, **portrait_kwargs)
    return ShockResult(before, after,
                       dk_star=ss_a.k_star - ss_b.k_star,
                       dc_star=ss_a.c_star - ss_b.c_star)
