import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dataecon import (ClassificationError, DomainError, ModelParams, State,
                      Trajectory, baseline_params, classify_equilibrium,
                      classify_matrix, integrate, jacobian, nullclines,
                      phase_portrait, rhs, saddle_path, saddle_path_deviation,
                      shock_experiment, steady_state, validate_params)
from dataecon.dynamics import _field, _rk45

from .strategies import model_params, positive_state

BASE = baseline_params()
SS = steady_state(BASE)


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


@given(model_params(feasible=True))
def test_eigen_identities(p):
    cls = classify_equilibrium(p)
    j = cls.jacobian
    tr = j[0, 0] + j[1, 1]
    det = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
    lams = cls.eigenvalues
    prod = lams[0] * lams[1]
    assert complex(prod).real == pytest.approx(det, rel=1e-9, abs=1e-12)
    assert complex(lams[0] + lams[1]).real == pytest.approx(tr, rel=1e-9, abs=1e-12)
    if cls.classification == "saddle":
        assert det < 0.0


def test_classify_matrix_covers_all_labels():
    cases = {
        "saddle": [[1.0, 0.0], [0.0, -1.0]],
        "sink": [[-1.0, 0.0], [0.0, -2.0]],
        "source": [[1.0, 0.0], [0.0, 2.0]],
        "spiral-sink": [[-0.5, -1.0], [1.0, -0.5]],
        "spiral-source": [[0.5, -1.0], [1.0, 0.5]],
        "center-degenerate": [[0.0, -1.0], [1.0, 0.0]],
    }
    for expected, mat in cases.items():
        label, lams, vecs = classify_matrix(np.array(mat))
        assert label == expected
        if vecs is not None:
            for i in range(2):
                resid = np.array(mat) @ vecs[:, i] - lams[i] * vecs[:, i]
                assert np.linalg.norm(resid) < 1e-9


def test_classify_matrix_degenerate_determinant():
    label, _, _ = classify_matrix(np.array([[1.0, 1.0], [1e-14, 1e-14]]))
    assert label == "center-degenerate"


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
        ts, cs, ks, _ = _rk45(f, c0, k0, T, rtol=tol, atol=0.0)
        back = lambda c, k: tuple(-v for v in f(c, k))
        _, cs2, ks2, _ = _rk45(back, cs[-1], ks[-1], ts[-1], rtol=tol, atol=0.0)
        err = math.hypot(cs2[-1] - c0, ks2[-1] - k0)
        assert err <= 10.0 * tol * math.hypot(c0, k0)


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
        _rk45(f, s0[0], s0[1], 1e6, rtol=1e-12, atol=0.0, max_steps=3)
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
