import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dataecon import (ClassificationError, DomainError, IntegrationError,
                      ModelParams, State, Trajectory, baseline_params,
                      classify_equilibrium, integrate, jacobian, nullclines,
                      phase_portrait, rhs, saddle_path, shock_experiment,
                      steady_state, validate_params)
from dataecon.core import steady_states
from dataecon.dynamics import _TINY, _as_trajectory, _field, _rk45, _unpack

from .strategies import kx, model_params, positive_state

BASE = baseline_params()
SS = steady_state(BASE)
SPIRAL = ModelParams(alpha=0.72, beta=0.15, eta=0.9, theta=0.8, delta=0.02, rho=0.43,
                     sigma=1.01)  # a spiral source


# ---------------------------------------------------------------------------
# rhs

def test_rhs_zero_at_steady_state():
    c_dot, k_dot = rhs(State(SS.c_star, SS.k_star), BASE)
    assert abs(c_dot) <= 1e-8 * SS.c_star
    assert abs(k_dot) <= 1e-8 * SS.y_star


def test_rhs_c_dot_positive_below_k_star():
    c_dot, _ = rhs((SS.c_star, SS.k_star / 2.0), BASE)
    assert c_dot > 0.0  # r(k) > rho + delta in the decreasing-returns regime


def test_rhs_k_dot_linear_in_c():
    c_dot0, k_dot0 = rhs((SS.c_star, SS.k_star), BASE)
    c_dot1, k_dot1 = rhs((SS.c_star + 1.0, SS.k_star), BASE)
    assert k_dot1 == k_dot0 - 1.0  # exact linearity of the budget identity


def test_rhs_rejects_nonpositive_state():
    with pytest.raises(DomainError):
        rhs((0.0, 1.0), BASE)
    with pytest.raises(DomainError):
        State(1.0, -1.0)


# ---------------------------------------------------------------------------
# jacobian

def test_jacobian_kdot_dc_is_minus_one():
    for c, k in ((1.0, 1.0), (5.0, 40.0), (SS.c_star, SS.k_star)):
        assert jacobian((c, k), BASE)[1, 0] == -1.0


def test_jacobian_cdot_dc_zero_at_equilibrium():
    j = jacobian((SS.c_star, SS.k_star), BASE)
    assert abs(j[0, 0]) < 1e-12


def _fd_jacobian(c, k, p):
    f = _field(p)
    out = np.empty((2, 2))
    # Both components are affine in c, so a central difference in c is exact
    # for any step; a large one keeps the rounding of a large k_dot out.
    hc = 0.5 * c
    hk = 1e-6 * max(k, 1.0)
    fp, fm = f(c + hc, k), f(c - hc, k)
    out[0, 0] = (fp[0] - fm[0]) / (2 * hc)
    out[1, 0] = (fp[1] - fm[1]) / (2 * hc)
    fp, fm = f(c, k + hk), f(c, k - hk)
    out[0, 1] = (fp[0] - fm[0]) / (2 * hk)
    out[1, 1] = (fp[1] - fm[1]) / (2 * hk)
    return out


def test_jacobian_matches_finite_differences_at_equilibrium():
    j = jacobian((SS.c_star, SS.k_star), BASE)
    fd = _fd_jacobian(SS.c_star, SS.k_star, BASE)
    assert np.allclose(j, fd, rtol=1e-6, atol=1e-9)


@given(model_params(feasible=True), positive_state(0.2, 30.0))
@example(ModelParams(alpha=0.625, beta=0.375, eta=0.875, theta=1.0), (1.0, 7.0))
def test_jacobian_fd_property(p, s):
    c, k = s
    j = jacobian((c, k), p)
    fd = _fd_jacobian(c, k, p)
    assert np.allclose(j, fd, rtol=1e-5, atol=1e-8)


# ---------------------------------------------------------------------------
# classification

def test_baseline_is_saddle():
    cls = classify_equilibrium(BASE)
    assert cls.classification == "saddle"
    lams = cls.eigenvalues
    assert lams[0] * lams[1] < 0.0


def test_eta0_is_saddle():
    cls = classify_equilibrium(validate_params({"eta": 0.0}))
    assert cls.classification == "saddle"


def test_increasing_returns_regime_is_a_source():
    cls = classify_equilibrium(validate_params({"eta": 0.45, "theta": 0.5}))
    assert cls.classification == "source"
    assert np.all(cls.eigenvalues.real > 0.0)
    spiral = classify_equilibrium(SPIRAL)
    assert spiral.classification == "spiral-source" and spiral.eigenvectors is None


@given(model_params(feasible=True))
def test_eigen_identities(p):
    cls = classify_equilibrium(p)
    ss = cls.steady_state
    j = jacobian((ss.c_star, ss.k_star), p)
    tr = j[0, 0] + j[1, 1]
    det = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
    lams = cls.eigenvalues
    prod = lams[0] * lams[1]
    assert complex(prod).real == pytest.approx(det, rel=1e-9, abs=1e-12)
    assert complex(lams[0] + lams[1]).real == pytest.approx(tr, rel=1e-9, abs=1e-12)
    if cls.classification == "saddle":
        assert det < 0.0


@given(model_params(feasible=True), st.floats(0.05, 1.0))
@example(SPIRAL, 0.3)
def test_closed_form_linearization_matches_eigvals_oracle(p, theta):
    """The closed-form eigenpairs against np.linalg.eigvals of the analytic
    Jacobian at (c*, k*); theta moves neither eigenvalue by a bit."""
    cls = classify_equilibrium(p)
    ss = cls.steady_state
    j = jacobian((ss.c_star, ss.k_star), p)
    lams = cls.eigenvalues
    scale = float(np.max(np.abs(lams)))
    assert np.max(np.abs(np.sort_complex(np.linalg.eigvals(j)) - lams)) <= 1e-12 * scale
    if cls.eigenvectors is not None:
        for i in range(2):
            v = cls.eigenvectors[:, i]
            assert np.linalg.norm(j @ v - lams[i] * v) <= 1e-12 * scale
    assert (cls.classification == "saddle") == (kx(p) < 0.0)
    assert cls.jacobian[1, 1] > p.rho
    other = p.replace(theta=theta)
    assume(steady_state(other).feasible)
    assert classify_equilibrium(other).eigenvalues.tobytes() == lams.tobytes()


# ---------------------------------------------------------------------------
# nullclines

def test_k_nullcline_passes_through_equilibrium():
    _, k_null = nullclines(BASE, (0.5 * SS.k_star, 1.5 * SS.k_star), n=201)
    c_at_kstar = np.interp(SS.k_star, k_null[:, 0], k_null[:, 1])
    assert c_at_kstar == pytest.approx(SS.c_star, rel=1e-6)


def test_k_nullcline_tends_to_zero_at_origin():
    _, k_null = nullclines(BASE, (1e-8, 1.5 * SS.k_star), n=400)
    assert abs(k_null[0, 1]) < 1e-3


def test_c_nullcline_is_vertical_at_k_star():
    c_null, _ = nullclines(BASE, (0.5 * SS.k_star, 1.5 * SS.k_star))
    assert np.all(c_null[:, 0] == SS.k_star)


def test_nullclines_invalid_range():
    with pytest.raises(DomainError):
        nullclines(BASE, (2.0 * SS.k_star, 3.0 * SS.k_star))
    with pytest.raises(DomainError):
        nullclines(BASE, (5.0, 1.0))


# ---------------------------------------------------------------------------
# integrate

def test_integrate_fixed_point_converges_immediately():
    traj = integrate(State(SS.c_star, SS.k_star), BASE, 10.0)
    assert traj.status == "converged"
    assert len(traj.t) == 1


def test_integrate_zero_horizon():
    s0 = State(0.9 * SS.c_star, 1.1 * SS.k_star)
    traj = integrate(s0, BASE, 0.0)
    assert len(traj.t) == 1
    assert traj.final == s0
    assert traj.status == "max-time"


def test_integrate_tol_validation():
    s0 = State(1.0, 1.0)
    with pytest.raises(DomainError):
        integrate(s0, BASE, 1.0, tol=1e-2)
    with pytest.raises(DomainError):
        integrate(s0, BASE, 1.0, tol=1e-13)
    with pytest.raises(DomainError):
        integrate(s0, BASE, -1.0)


@pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf])
def test_integrate_refuses_a_non_finite_horizon_before_the_first_step(horizon):
    with pytest.raises(DomainError, match="time horizon must be finite and nonnegative"):
        integrate(State(0.9 * SS.c_star, 1.1 * SS.k_star), BASE, horizon)


@pytest.mark.parametrize("horizon", [math.nan, math.inf, -1.0])
def test_saddle_path_refuses_a_bad_max_time_before_the_first_step(horizon):
    with pytest.raises(DomainError, match="time horizon must be finite and nonnegative"):
        saddle_path(BASE, (0.6 * SS.k_star, 1.4 * SS.k_star), max_time=horizon)


def test_numpy_scalar_state_integrates_on_plain_floats():
    c0, k0 = 0.9 * SS.c_star, 1.1 * SS.k_star
    wide = State(np.float64(c0), np.float64(k0))
    assert [type(v) for v in _unpack(wide)] == [float, float]
    a = integrate(State(c0, k0), BASE, 50.0)
    b = integrate(wide, BASE, 50.0)
    assert a.status == b.status
    assert a.t.tobytes() == b.t.tobytes()
    assert a.states.tobytes() == b.states.tobytes()


def test_integrate_left_domain():
    # consumption far above the k-nullcline: capital is eaten down to zero
    p = validate_params({"eta": 0.0})
    traj = integrate(State(30.0, 5.0), p, 1e4, tol=1e-9)
    assert traj.status == "left-domain"
    assert traj.k[-1] < 0.05
    assert np.all(traj.states > 0.0)


def test_halving_tol_never_increases_error_vs_reference():
    p = validate_params({"eta": 0.0})
    ss = steady_state(p)
    f = _field(p)
    c, k = 0.8 * ss.c_star, 1.3 * ss.k_star
    T, h = 20.0, 1e-5
    for _ in range(int(round(T / h))):  # classical RK4 at a tiny fixed step
        k1 = f(c, k)
        k2 = f(c + 0.5 * h * k1[0], k + 0.5 * h * k1[1])
        k3 = f(c + 0.5 * h * k2[0], k + 0.5 * h * k2[1])
        k4 = f(c + h * k3[0], k + h * k3[1])
        c += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        k += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    errs = []
    tol = 1e-5
    for _ in range(8):
        traj = integrate(State(0.8 * ss.c_star, 1.3 * ss.k_star), p, T, tol=tol)
        errs.append(math.hypot(traj.final.c - c, traj.final.k - k))
        tol /= 2.0
    for coarse, fine in zip(errs, errs[1:]):
        assert fine <= coarse * (1.0 + 1e-6)


def test_time_reversal_consistency():
    p = validate_params({"eta": 0.0})
    ss = steady_state(p)
    f = _field(p)
    tol = 1e-9
    for c0, k0, T in ((0.9 * ss.c_star, 1.15 * ss.k_star, 5.0),
                      (0.7 * ss.c_star, 0.8 * ss.k_star, 10.0)):
        ts, cs, ks, _ = _rk45(f, c0, k0, T, rtol=tol)
        back = lambda c, k: tuple(-v for v in f(c, k))
        _, cs2, ks2, _ = _rk45(back, cs[-1], ks[-1], ts[-1], rtol=tol)
        err = math.hypot(cs2[-1] - c0, ks2[-1] - k0)
        assert err <= 10.0 * tol * math.hypot(c0, k0)


# ---------------------------------------------------------------------------
# stage-loop oracle

# Dormand-Prince 5(4) tableau, one constant per nonzero entry.
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


def unrolled_rk45(f, c0: float, k0: float, t_max: float, rtol: float, atol: float,
                  conv_tol: float | None = None, stop=None, max_steps: int = 500_000):
    """Reference for ``_rk45``: the same Dormand-Prince loop with every
    stage written out, as the package had it before the stages moved into
    one tableau loop."""
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


def _outcome(rk45, *args, **kwargs):
    """(ts, cs, ks, status), or the IntegrationError message and its partial
    trajectory."""
    try:
        return rk45(*args, **kwargs)
    except IntegrationError as exc:
        part = exc.trajectory
        return str(exc), part.t.tolist(), part.states.tolist(), part.status


@st.composite
def rk45_runs(draw):
    p = draw(model_params(feasible=True))
    ss = steady_state(p)
    f = _field(p)
    if draw(st.booleans()):  # backward in time, as saddle_path integrates
        f = lambda c, k, f=f: tuple(-v for v in f(c, k))
    near = draw(st.booleans())  # start close to the steady state
    c0 = ss.c_star * draw(st.floats(0.99, 1.01) if near else st.floats(0.05, 20.0))
    k0 = ss.k_star * draw(st.floats(0.99, 1.01) if near else st.floats(0.05, 5.0))
    if draw(st.booleans()):
        c0, k0 = np.float64(c0), np.float64(k0)
    rtol = min(max(10.0 ** draw(st.floats(-12.0, -3.0)), 1e-12), 1e-3)
    kwargs = {"max_steps": draw(st.integers(1, 400))}
    if draw(st.booleans()):
        kwargs["conv_tol"] = 10.0 ** draw(st.floats(-12.0, -2.0))
    target = k0 * draw(st.floats(0.5, 2.0))
    if draw(st.booleans()):
        kwargs["stop"] = ((lambda t, c, k: k >= target) if target > k0
                          else (lambda t, c, k: k <= target))
    return f, c0, k0, draw(st.floats(0.0, 200.0)), rtol, kwargs


_LEFT_DOMAIN = (_field(validate_params({"eta": 0.0})), 30.0, 5.0, 1e4, 1e-9,
                {"conv_tol": 1e-9})
_SOURCE = validate_params({"eta": 0.45})  # a source, so backward time converges
_SOURCE_SS = steady_state(_SOURCE)


@given(rk45_runs())
@example(_LEFT_DOMAIN)
@example((lambda c, k, f=_field(_SOURCE): tuple(-v for v in f(c, k)),
          1.01 * _SOURCE_SS.c_star, 0.99 * _SOURCE_SS.k_star, 1e3, 1e-9, {"conv_tol": 1e-6}))
@example((*_LEFT_DOMAIN[:4], 1e-12, {"max_steps": 50}))
@example((_LEFT_DOMAIN[0], np.float64(30.0), np.float64(5.0), *_LEFT_DOMAIN[3:]))
def test_stage_loop_matches_unrolled_reference(run):
    """Forward and backward fields, float and np.float64 starts, convergence
    and stop tests, domain rejects, left-domain ends, step underflow and
    exhausted step budgets: the tableau loop reproduces every result, error
    message and partial trajectory bit for bit."""
    f, c0, k0, t_max, rtol, kwargs = run
    got = _outcome(_rk45, f, c0, k0, t_max, rtol, **kwargs)
    ref = _outcome(unrolled_rk45, f, c0, k0, t_max, rtol, 0.0, **kwargs)
    assert got == ref
    assert repr(got) == repr(ref)  # the same scalar types, float or np.float64


def test_saddle_path_tol_validation():
    for tol in (0.0, 1e-13, 1e-2, math.nan):
        with pytest.raises(DomainError, match="tol must lie in"):
            saddle_path(BASE, (0.6 * SS.k_star, 1.4 * SS.k_star), tol=tol)


def test_phase_portrait_checks_tol_without_a_saddle_path():
    for tol in (0.0, 1e-2):
        with pytest.raises(DomainError, match="tol must lie in"):
            phase_portrait(BASE, include_saddle=False, tol=tol)
    assert phase_portrait(BASE, include_saddle=False, tol=1e-6).stable_paths == ()


def test_trajectory_invariants():
    with pytest.raises(DomainError):
        Trajectory(np.array([0.0, 0.0]), np.array([[1.0, 1.0], [1.0, 1.0]]), "max-time")
    with pytest.raises(DomainError):
        Trajectory(np.array([0.0, 1.0]), np.array([[1.0, 1.0], [-1.0, 1.0]]), "max-time")


# ---------------------------------------------------------------------------
# saddle path

def test_saddle_branches_cover_targets():
    lo, hi = saddle_path(BASE, (0.6 * SS.k_star, 1.4 * SS.k_star))
    assert lo.status == "converged" and hi.status == "converged"
    assert lo.k.min() <= 0.6 * SS.k_star
    assert hi.k.max() >= 1.4 * SS.k_star
    # branches run from the far end toward the equilibrium in forward time
    assert abs(lo.k[-1] - SS.k_star) < 1e-3 * SS.k_star
    assert abs(hi.k[-1] - SS.k_star) < 1e-3 * SS.k_star


def test_saddle_low_branch_monotone_capital():
    lo, hi = saddle_path(BASE, (0.6 * SS.k_star, 1.4 * SS.k_star))
    assert np.all(np.diff(lo.k) > 0.0)   # capital rises toward k* from below
    assert np.all(np.diff(hi.k) < 0.0)   # and falls toward k* from above


def saddle_path_deviation(p, k_targets, tol=1e-9, eps_scale=1e-6):
    """Self-consistency of the branch construction under eps halving: the
    largest consumption gap at matched capital between the branches seeded
    at eps and eps/2, relative to ||(c*, k*)||."""
    ss = steady_state(p)
    worst = 0.0
    for a, b in zip(saddle_path(p, k_targets, tol, eps_scale),
                    saddle_path(p, k_targets, tol, eps_scale / 2.0)):
        lo, hi = max(a.k.min(), b.k.min()), min(a.k.max(), b.k.max())
        if hi <= lo:
            continue
        grid = np.linspace(lo, hi, 200)
        ia, ib = np.argsort(a.k), np.argsort(b.k)
        gap = np.interp(grid, a.k[ia], a.c[ia]) - np.interp(grid, b.k[ib], b.c[ib])
        worst = max(worst, float(np.max(np.abs(gap))))
    return worst / math.hypot(ss.c_star, ss.k_star)


def test_saddle_eps_halving_self_consistency():
    dev = saddle_path_deviation(BASE, (0.7 * SS.k_star, 1.3 * SS.k_star))
    assert dev < 1e-5


def test_saddle_forward_reintegration_approaches_equilibrium():
    # Forward re-integration from the far end tracks the manifold toward the
    # equilibrium; the transverse error amplification e^(lambda_u * T) bounds
    # how close it can land, so assert a strong relative approach rather than
    # an absolute arrival.
    p = validate_params({"eta": 0.0})
    ss = steady_state(p)
    lo, hi = saddle_path(p, (0.98 * ss.k_star, 1.02 * ss.k_star), tol=1e-11)
    for branch in (lo, hi):
        c0, k0 = branch.states[0]
        d_start = math.hypot(c0 - ss.c_star, k0 - ss.k_star)
        traj = integrate(State(c0, k0), p, float(branch.t[-1]), tol=1e-11)
        d_min = float(np.min(np.hypot(traj.c - ss.c_star, traj.k - ss.k_star)))
        assert d_min < 0.05 * d_start


@st.composite
def saddle_pairs(draw):
    """A saddle, the same saddle at another theta (10^-300 to 1) and w
    (10^-2 to 10^3), and capital targets at multiples of k* that both
    k*s carry to units and back exactly."""
    p = draw(model_params(feasible=True))
    q = p.replace(theta=10.0 ** draw(st.floats(-300.0, 0.0)), w=10.0 ** draw(st.floats(-2.0, 3.0)))
    assume(classify_equilibrium(p).classification == "saddle")
    m = (draw(st.floats(0.05, 0.95)), draw(st.floats(1.05, 3.0)))
    mask, values = steady_states(q)
    k_stars = [steady_state(p).k_star, float(values["k_star"])]
    assume(mask == "ok" and all(1e-280 < ks < 1e280 for ks in k_stars))
    assume(all((mi * ks) / ks == mi for mi in m for ks in k_stars))
    return p, q, m


@settings(max_examples=40)
@given(saddle_pairs())
def test_saddle_branches_in_units_of_k_star_do_not_depend_on_theta_or_w(pair):
    """Divided by k*, the flow holds neither theta nor w, and the branches
    are integrated that way: their times agree bit for bit, their states up
    to the rounding of the one scaling by k*."""
    p, q, m = pair
    runs = []
    for x in (p, q):
        ks = steady_state(x).k_star
        runs.append([(b.t, b.states / ks, b.status)
                     for b in saddle_path(x, (m[0] * ks, m[1] * ks))])
    for (t_p, s_p, status_p), (t_q, s_q, status_q) in zip(*runs):
        assert status_p == status_q
        assert np.array_equal(t_p, t_q)
        np.testing.assert_allclose(s_p, s_q, rtol=2 * np.finfo(float).eps, atol=0.0)


def off_curve_distance(branch, reference, p):
    """Largest |c - c_ref(k)|/k* over the branch, with c_ref the reference
    branch read by cubic Hermite interpolation in k/k*, its slopes dc/dk
    taken from the vector field."""
    ks = steady_state(p).k_star
    f = _field(p, log_k=0.0)
    order = np.argsort(reference.k)
    u_r, v_r = reference.k[order] / ks, reference.c[order] / ks
    slope = np.array([dv / du for dv, du in (f(v, u) for v, u in zip(v_r, u_r))])
    u, v = branch.k / ks, branch.c / ks
    j = np.clip(np.searchsorted(u_r, u) - 1, 0, len(u_r) - 2)
    h = u_r[j + 1] - u_r[j]
    s = (u - u_r[j]) / h
    assert np.all((s >= 0.0) & (s <= 1.0))  # the reference covers the branch
    v_ref = ((2 * s ** 3 - 3 * s ** 2 + 1) * v_r[j] + (s ** 3 - 2 * s ** 2 + s) * h * slope[j]
             + (3 * s ** 2 - 2 * s ** 3) * v_r[j + 1] + (s ** 3 - s ** 2) * h * slope[j + 1])
    return float(np.max(np.abs(v - v_ref)))


@pytest.mark.parametrize("eta", [0.0, 0.2, 0.3])
def test_saddle_branches_lie_on_a_tol_1e12_reference(eta):
    """At the default tol the branch points lie within 5e-10 k* of the
    curve a tol = 1e-12 integration traces (2.3e-10 measured at eta = 0.2
    and 0.3, whether the branch is integrated in levels or in units of k*),
    far less than the 1e-4 relative by which points move along it when the
    step sequence changes."""
    p = validate_params({"eta": eta})
    ks = steady_state(p).k_star
    reference = saddle_path(p, (0.4 * ks, 1.6 * ks), tol=1e-12)
    for branch, ref in zip(saddle_path(p, (0.5 * ks, 1.5 * ks)), reference):
        assert off_curve_distance(branch, ref, p) < 5e-10


def test_saddle_requires_saddle_classification():
    with pytest.raises(ClassificationError):
        saddle_path(validate_params({"eta": 0.45}), (0.1, 10.0))


def test_saddle_rejects_bad_targets():
    with pytest.raises(DomainError):
        saddle_path(BASE, (1.1 * SS.k_star, 1.5 * SS.k_star))


# ---------------------------------------------------------------------------
# portraits and shocks

def test_phase_portrait_equilibrium_consistency():
    portrait = phase_portrait(BASE)
    assert portrait.equilibrium.c == pytest.approx(SS.c_star, rel=1e-8)
    assert portrait.equilibrium.k == pytest.approx(SS.k_star, rel=1e-8)
    assert portrait.classification == "saddle"
    assert len(portrait.stable_paths) == 2
    assert np.all(portrait.c_nullcline[:, 0] == SS.k_star)


def test_phase_portrait_source_regime_has_no_stable_paths():
    portrait = phase_portrait(validate_params({"eta": 0.45}))
    assert portrait.classification == "source"
    assert portrait.stable_paths == ()


def test_shock_identity_is_zero_displacement():
    res = shock_experiment(BASE, BASE)
    assert res.dk_star == 0.0
    assert res.dc_star == 0.0


def test_shock_eta_increase_raises_k_star():
    p0 = validate_params({"eta": 0.10, "theta": 0.5})
    p1 = validate_params({"eta": 0.20, "theta": 0.5})
    res = shock_experiment(p0, p1, include_saddle=False)
    assert res.dk_star > 0.0


def test_shock_theta_increase_high_eta_lowers_both():
    # In the increasing-returns regime a larger dataization share lowers the
    # steady-state capital stock; equilibrium consumption falls with it
    # (direct evaluation of the closed forms).
    p0 = validate_params({"eta": 0.8, "theta": 0.4})
    p1 = validate_params({"eta": 0.8, "theta": 0.7})
    res = shock_experiment(p0, p1, include_saddle=False)
    assert res.dk_star < 0.0
    assert res.dc_star < 0.0


def test_integration_error_carries_partial_trajectory():
    from dataecon import IntegrationError
    f = _field(BASE)
    s0 = (0.9 * SS.c_star, 1.1 * SS.k_star)
    with pytest.raises(IntegrationError) as exc:
        _rk45(f, s0[0], s0[1], 1e6, rtol=1e-12, max_steps=3)
    partial = exc.value.trajectory
    assert partial is not None
    assert len(partial.t) >= 1
    assert partial.states[0, 0] == s0[0]


def test_classify_infeasible_steady_state_degenerate():
    from dataecon import DegenerateError
    p = baseline_params(delta=0.8, rho=0.01, theta=0.9, eta=0.8)
    assert not steady_state(p).feasible
    with pytest.raises(DegenerateError):
        classify_equilibrium(p)


def test_saddle_branch_truncation_by_time_cap():
    lo, hi = saddle_path(BASE, (0.3 * SS.k_star, 1.7 * SS.k_star), max_time=5.0)
    assert lo.status == "max-time" and hi.status == "max-time"
    assert lo.k.min() > 0.3 * SS.k_star  # did not reach the target
