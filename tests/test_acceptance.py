"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
Criteria are asserted at their stated tolerances; a FAIL line means the
implementation honestly cannot meet the stated bound (the assertion then
fails rather than the bound being loosened).
"""

import math
import time
from dataclasses import replace

import numpy as np
from scipy import stats

from dataecon import (DgpConfig, State, baseline_params,
                      classify_equilibrium, event_study, generate_panel,
                      grid_sweep, integrate, interest_rate,
                      iso_equilibrium_contour, jacobian, output, rhs,
                      saddle_path, sensitivity_signs, steady_state,
                      threshold_curve, twfe_did, validate_params)
from dataecon.cli import SweepOptions, parse_config, run_command

BASE = baseline_params()


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


# ---------------------------------------------------------------------------

def test_criterion_01_eta0_closed_form_anchor():
    p = validate_params({"eta": 0.0})
    # independent textbook reduction, plain-power arithmetic
    beta, alpha, w, delta, rho = p.beta, p.alpha, p.w, p.delta, p.rho
    pi0 = (1.0 - beta) * (beta / w) ** (beta / (1.0 - beta))
    k_oracle = ((rho + delta) * (1.0 - beta) / (alpha * pi0)) ** (
        (1.0 - beta) / (alpha + beta - 1.0))
    l_oracle = (beta * k_oracle ** alpha / w) ** (1.0 / (1.0 - beta))
    y_oracle = k_oracle ** alpha * l_oracle ** beta
    c_oracle = y_oracle - delta * k_oracle

    n_calls = 200
    t0 = time.perf_counter()
    for _ in range(n_calls):
        ss = steady_state(p)
    per_call = (time.perf_counter() - t0) / n_calls
    ok = (abs(ss.k_star - k_oracle) <= 1e-6 * k_oracle
          and abs(ss.c_star - c_oracle) <= 1e-6 * c_oracle
          and per_call < 1e-3)
    report(1, ok,
           f"k*={ss.k_star:.6f} vs oracle {k_oracle:.6f}, "
           f"c*={ss.c_star:.6f} vs oracle {c_oracle:.6f}, "
           f"runtime {per_call * 1e6:.1f} us/solve")


def test_criterion_02_sweep_residuals():
    t0 = time.perf_counter()
    thetas = np.linspace(0.05, 0.95, 50)
    etas = np.linspace(0.05, 0.95, 50)
    grid = grid_sweep(BASE, thetas, etas)
    worst_rate, worst_rhs, checked = 0.0, 0.0, 0
    for i, theta in enumerate(thetas):
        for j, eta in enumerate(etas):
            if grid.mask[i, j] != "ok":
                continue
            k_star, c_star, y_star = grid.k_star[i, j], grid.c_star[i, j], grid.y_star[i, j]
            p = BASE.replace(theta=float(theta), eta=float(eta))
            worst_rate = max(worst_rate, abs(interest_rate(k_star, p) - 0.15))
            c_dot, k_dot = rhs((c_star, k_star), p)
            rel = math.hypot(c_dot / c_star, k_dot / max(y_star, 1.0))
            worst_rhs = max(worst_rhs, rel)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst_rate < 1e-10 and worst_rhs < 1e-8 and elapsed < 5.0
    report(2, ok,
           f"{checked} unmasked cells, max |r(k*)-0.15| = {worst_rate:.2e}, "
           f"max rhs residual = {worst_rhs:.2e}, {elapsed:.2f} s")


def test_criterion_03_production_fixed_point():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        k = math.exp(rng.uniform(math.log(0.05), math.log(50.0)))
        l = math.exp(rng.uniform(math.log(0.05), math.log(50.0)))
        theta = rng.uniform(0.05, 1.0)
        eta = rng.uniform(0.0, 0.95)
        p = BASE.replace(theta=theta, eta=eta)
        y = output(k, l, p)
        implied = ((theta * y) ** eta * k) ** p.alpha * l ** p.beta
        worst = max(worst, abs(y - implied) / y)
    ok = worst < 1e-10
    report(3, ok, f"1000 draws, max fixed-point residual = {worst:.2e}")


def test_criterion_04_surface_signs_low_eta():
    etas = np.linspace(0.06, 0.29, 5)
    thetas = np.linspace(0.15, 0.90, 4)
    n_eta_pos, n_theta_neg, n = 0, 0, 0
    for eta in etas:
        for theta in thetas:
            rep = sensitivity_signs(BASE.replace(eta=float(eta), theta=float(theta)))
            n += 1
            n_eta_pos += rep.dk_deta.sign > 0
            n_theta_neg += rep.dk_dtheta.sign < 0
    ok = n_eta_pos == n and n_theta_neg == n
    report(4, ok,
           f"{n} points with eta in (0.05, 0.30): dk*/deta > 0 at {n_eta_pos}/{n}, "
           f"dk*/dtheta < 0 at {n_theta_neg}/{n} "
           f"(closed forms give dk*/dtheta > 0 below the singular band)")


def test_criterion_05_consumption_threshold():
    tol = 1e-4
    eta_range = (0.40, 0.95)
    thetas = [round(0.1 * i, 1) for i in range(1, 10)]
    curve = threshold_curve(BASE, thetas, eta_range, tol)

    shapes_ok = all(s in ("interior-peak", "monotone-on-range") for s in curve.shapes)
    monotone_ok = all(b >= a - 2e-4 for a, b in zip(curve.eta_star, curve.eta_star[1:]))

    brute_ok = True
    worst_gap = 0.0
    scan = np.linspace(eta_range[0], eta_range[1], 10_000)
    for theta, star in zip(curve.thetas, curve.eta_star):
        cs = np.array([steady_state(BASE.replace(theta=float(theta), eta=float(e))).c_star
                       for e in scan])
        gap = abs(star - scan[int(np.argmax(cs))])
        worst_gap = max(worst_gap, gap)
        brute_ok = brute_ok and gap <= 2.0 * tol
    ok = shapes_ok and monotone_ok and brute_ok
    report(5, ok,
           f"shapes {set(curve.shapes)}, eta* from {curve.eta_star[0]:.4f} to "
           f"{curve.eta_star[-1]:.4f} nondecreasing={monotone_ok}, "
           f"max gap to brute force = {worst_gap:.2e}")


def test_criterion_06_iso_contour_comovement():
    grid = grid_sweep(BASE, np.linspace(0.05, 0.95, 46),
                      np.linspace(0.60, 0.95, 36))
    contour = iso_equilibrium_contour(grid, "c_star", 0.02)
    rho = float(stats.spearmanr(contour.points[:, 0], contour.points[:, 1]).statistic)
    ok = len(contour.points) >= 10 and rho > 0.0
    report(6, ok,
           f"c* = 0.02 contour, {len(contour.points)} vertices on eta in (0.6, 0.95), "
           f"Spearman(theta, eta) = {rho:.3f}")


def test_criterion_07_saddle_path_forward_reintegration():
    p = validate_params({"eta": 0.2, "theta": 0.5})
    ss = steady_state(p)
    scale = math.hypot(ss.c_star, ss.k_star)
    radius = 1e-4 * scale
    t0 = time.perf_counter()
    cls = classify_equilibrium(p)
    branches = saddle_path(p, (0.7 * ss.k_star, 1.3 * ss.k_star), tol=1e-9)
    dists = []
    for branch in branches:
        c0, k0 = branch.states[0]
        traj = integrate(State(c0, k0), p, float(branch.t[-1]), tol=1e-9)
        dists.append(math.hypot(traj.final.c - ss.c_star, traj.final.k - ss.k_star))
    elapsed = time.perf_counter() - t0
    coverage_ok = (branches[0].k.min() <= 0.7 * ss.k_star
                   and branches[1].k.max() >= 1.3 * ss.k_star)
    ok = (cls.classification == "saddle" and coverage_ok
          and max(dists) <= radius and elapsed < 1.0)
    report(7, ok,
           f"classification={cls.classification}, coverage={coverage_ok}, "
           f"forward end distances = {dists[0]:.3g}/{dists[1]:.3g} vs "
           f"allowed {radius:.3g}, {elapsed:.2f} s "
           "(forward re-integration is ill-conditioned: transverse error grows "
           "as exp(lambda_u T) ~ exp(90) over the branch horizon)")


def test_criterion_08_jacobian_finite_differences():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        c = math.exp(rng.uniform(math.log(0.1), math.log(30.0)))
        k = math.exp(rng.uniform(math.log(0.1), math.log(30.0)))
        eta = rng.uniform(0.0, 0.28)
        theta = rng.uniform(0.05, 0.95)
        p = BASE.replace(eta=eta, theta=theta)
        j = jacobian((c, k), p)
        from dataecon.dynamics import _field
        f = _field(p)
        hc, hk = 1e-6 * c, 1e-6 * k
        fd = np.empty((2, 2))
        up, dn = f(c + hc, k), f(c - hc, k)
        fd[:, 0] = [(up[0] - dn[0]) / (2 * hc), (up[1] - dn[1]) / (2 * hc)]
        up, dn = f(c, k + hk), f(c, k - hk)
        fd[:, 1] = [(up[0] - dn[0]) / (2 * hk), (up[1] - dn[1]) / (2 * hk)]
        err = np.max(np.abs(j - fd) / np.maximum(np.abs(j), 1e-3))
        worst = max(worst, float(err))
    ok = worst < 1e-6
    report(8, ok, f"100 random states, max relative entry error = {worst:.2e}")


def test_criterion_09_q_block_consistency():
    from dataecon import firm_steady_state, investment_rate
    worst = 0.0
    for theta in np.linspace(0.05, 0.95, 10):
        for eta in np.linspace(0.0, 0.28, 10):
            p = BASE.replace(theta=float(theta), eta=float(eta))
            fs = firm_steady_state(p.rho, p)
            ks = steady_state(p).k_star
            worst = max(worst, abs(fs.k - ks) / ks)
    exact_rate = investment_rate(1.0, BASE) == BASE.delta
    ok = worst <= 1e-8 and exact_rate
    report(9, ok,
           f"10x10 grid, max |k_q - k*|/k* = {worst:.2e}, "
           f"investment_rate(1) == delta: {exact_rate}")


def test_criterion_10_did_recovery():
    t0 = time.perf_counter()
    exact = twfe_did(generate_panel(DgpConfig(
        n_units=100, years=(2000, 2015), share_treated=0.5,
        noise_scale=0.0, effect=0.05, seed=1)))
    exact_ok = abs(exact.att - 0.05) < 1e-10

    n_reps = 200
    ests, ses = [], []
    for rep in range(n_reps):
        cfg = DgpConfig(n_units=216, years=(2000, 2022), share_treated=0.5,
                        unit_effect_scale=1.0, year_effect_scale=0.5,
                        noise_scale=0.1, effect=0.05, seed=20_000 + rep)
        res = twfe_did(generate_panel(cfg))
        ests.append(res.att)
        ses.append(res.se)
    mean_est = float(np.mean(ests))
    combined_se = math.sqrt(float(np.mean(np.square(ses))) / n_reps)
    recovery_ok = abs(mean_est - 0.05) < 3.0 * combined_se

    es = event_study(generate_panel(DgpConfig(
        n_units=216, years=(2000, 2022), share_treated=0.5,
        unit_effect_scale=1.0, year_effect_scale=0.5,
        noise_scale=0.1, effect=0.05, seed=20_000)), window=(-5, 5))
    leads_ok = all(abs(b) < 3.0 * s
                   for t, b, s in zip(es.periods, es.coefficients, es.std_errors)
                   if t < -1)
    elapsed = time.perf_counter() - t0
    ok = exact_ok and recovery_ok and leads_ok and elapsed < 60.0
    report(10, ok,
           f"zero-noise att = {exact.att:.12f}; MC mean = {mean_est:.5f} "
           f"(combined SE {combined_se:.5f}); leads within 3 SE: {leads_ok}; "
           f"{elapsed:.1f} s")


def test_criterion_11_artifact_determinism(tmp_path):
    out = tmp_path / "det"
    cfg = parse_config(None, {"out": str(out), "seed": 11})
    cfg = replace(cfg, sweep=SweepOptions(theta_n=12, eta_n=12),
                  dgp=replace(cfg.dgp, n_units=40, years=(2000, 2009), seed=11))
    snapshots = []
    for _ in range(2):
        for command in ("steady", "sweep", "contour", "did-sim"):
            run_command(cfg, command)
        snapshots.append({p.name: p.read_bytes() for p in out.iterdir()})
    same = (sorted(snapshots[0]) == sorted(snapshots[1])
            and all(snapshots[0][n] == snapshots[1][n] for n in snapshots[0]))
    kinds = {n.rsplit(".", 1)[-1] for n in snapshots[0]}
    ok = same and {"csv", "json", "svg"} <= kinds
    report(11, ok,
           f"{len(snapshots[0])} files ({', '.join(sorted(kinds))}) byte-identical "
           f"across reruns: {same}")
