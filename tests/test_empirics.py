import csv
import math
import operator
import tracemalloc
import unittest.mock
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dataecon import (DesignError, DgpConfig, DomainError, ModelError, Panel,
                      RankDeficiencyError, did_fits, event_study, generate_panel,
                      read_panel_csv, twfe_did, write_panel_csv)
from dataecon import csvcells, empirics

from .textdiff import first_difference


def small_cfg(**kw):
    base = dict(n_units=60, years=(2000, 2011), share_treated=0.5,
                unit_effect_scale=1.0, year_effect_scale=0.5,
                noise_scale=0.0, effect=0.05, seed=11)
    base.update(kw)
    return DgpConfig(**base)


# ---------------------------------------------------------------------------
# generator

def test_same_seed_identical_panels():
    a = generate_panel(small_cfg(noise_scale=0.3))
    b = generate_panel(small_cfg(noise_scale=0.3))
    assert np.array_equal(a.outcome, b.outcome)
    assert np.array_equal(a.adoption_year, b.adoption_year, equal_nan=True)


def test_different_seed_differs():
    a = generate_panel(small_cfg(noise_scale=0.3))
    b = generate_panel(small_cfg(noise_scale=0.3, seed=12))
    assert not np.array_equal(a.outcome, b.outcome)


def test_zero_noise_treatment_gap_is_exact():
    # same seed, effect on vs off: baseline components are identical draws,
    # so the outcome difference isolates the treatment contribution
    treated = generate_panel(small_cfg(effect=0.05))
    control = generate_panel(small_cfg(effect=0.0))
    gap = treated.outcome - control.outcome
    post = treated.relative_period() >= 0
    assert np.allclose(gap[post], 0.05, rtol=0.0, atol=1e-12)
    assert np.all(gap[~post] == 0.0)


def test_dynamic_profile_gaps_match_exactly():
    profile = (0.0, 0.0, 0.02, 0.04, 0.06)
    a = generate_panel(small_cfg(effect=0.0, dynamic_profile=profile))
    b = generate_panel(small_cfg(effect=0.0))
    rel = a.relative_period()
    gap = a.outcome - b.outcome
    for r, g in zip(rel, gap):
        if np.isnan(r) or r < 0:
            assert g == 0.0
        else:
            assert g == pytest.approx(profile[min(int(r), len(profile) - 1)],
                                      abs=1e-12)


def test_true_att_is_the_profile_mean_over_estimated_treated_rows():
    # one treated unit adopting in 2003 and seen to 2006, so relative periods
    # 0..3 carry 1, 2, 4 and 4 (the profile's last value holds)
    cfg = DgpConfig(n_units=2, years=(2000, 2006), share_treated=0.5,
                    adoption_years=(2003,), unit_effect_scale=0.0, year_effect_scale=0.0,
                    noise_scale=0.0, dynamic_profile=(1.0, 2.0, 4.0))
    panel = generate_panel(cfg)
    treated = ~np.isnan(panel.adoption_year)
    assert panel.outcome[treated].tolist() == [0, 0, 0, 1, 2, 4, 4]
    assert panel.outcome[~treated].tolist() == [0] * 7
    assert cfg.true_att(panel) == 10 / 3  # the adoption year is dropped
    assert cfg.true_att(panel, drop_adoption_period=False) == 11 / 4
    flat = replace(cfg, dynamic_profile=None, effect=0.1)
    assert flat.true_att(generate_panel(flat)) == 0.1
    late = replace(cfg, adoption_years=(2006,))  # treated only in the dropped year
    with pytest.raises(DesignError, match="no treated observations"):
        late.true_att(generate_panel(late))


def test_panel_structure():
    panel = generate_panel(small_cfg())
    assert panel.n_units == 60
    assert panel.year_span == (2000, 2011)
    treated_units = np.unique(panel.unit[~np.isnan(panel.adoption_year)])
    assert len(treated_units) == 30


def test_adoption_years_respect_pool():
    cfg = small_cfg(adoption_years=(2005, 2007))
    panel = generate_panel(cfg)
    adopt = panel.adoption_year[~np.isnan(panel.adoption_year)]
    assert set(np.unique(adopt)) <= {2005.0, 2007.0}


def test_config_validation():
    with pytest.raises(DomainError):
        DgpConfig(n_units=1)
    with pytest.raises(DomainError):
        DgpConfig(share_treated=1.5)
    with pytest.raises(DomainError):
        DgpConfig(noise_scale=-0.1)
    for name in ("unit_effect_scale", "year_effect_scale", "noise_scale"):
        for value in (-1.0, math.nan):
            with pytest.raises(DomainError, match=f"{name} must be nonnegative"):
                DgpConfig(**{name: value})
    with pytest.raises(DomainError, match="seed must be nonnegative, got -1"):
        DgpConfig(seed=-1)
    with pytest.raises(DomainError):
        DgpConfig(adoption_years=(1990,), years=(2000, 2010))
    with pytest.raises(DomainError, match="dynamic_profile must be nonempty"):
        DgpConfig(dynamic_profile=())
    with pytest.raises(DomainError, match="years must be integers"):
        DgpConfig(years=(2000.5, 2010))
    with pytest.raises(DomainError, match="adoption_years must be integers"):
        DgpConfig(adoption_years=(2005.5, 2010))


def test_oversized_panel_refused_before_it_is_drawn():
    """Rows times (4 + controls) columns may reach the dummies oracle's
    bound of 5e7 cells and no more; no panel is generated."""
    assert empirics._DUMMY_MAX_CELLS == 5e7
    assert DgpConfig(n_units=625_000, years=(2000, 2019)).n_units == 625_000
    with pytest.raises(DomainError, match=r"^panel would hold 50000080 cells "
                                          r"\(limit 50000000\)$"):
        DgpConfig(n_units=625_001, years=(2000, 2019))
    with pytest.raises(DomainError, match="panel would hold 62500000 cells"):
        DgpConfig(n_units=625_000, years=(2000, 2019), control_coefs=(1.0,))


def test_empty_panel_refused(tmp_path):
    with pytest.raises(DomainError, match="^panel has no rows$"):
        Panel(np.array([], dtype=int), np.array([], dtype=int), np.zeros(0),
              np.zeros(0), np.empty((0, 0)), ())
    path = tmp_path / "panel.csv"
    path.write_text("unit,year,outcome,adoption_year,control_1\n", encoding="utf-8")
    with pytest.raises(DomainError, match="^panel has no rows$"):
        read_panel_csv(path)


def test_controls_without_rows_refused():
    """A 16-row panel whose controls hold 0 rows is refused when it is built,
    not inside the fit."""
    with pytest.raises(DomainError, match="^panel columns must have equal length$"):
        Panel(np.repeat(np.arange(4), 4), np.tile(np.arange(2000, 2004), 4),
              np.zeros(16), np.full(16, np.nan), np.empty((0, 0)), ())


@pytest.mark.parametrize("column, value", [
    ("outcome", math.nan), ("outcome", math.inf), ("control", math.nan)])
def test_non_finite_outcome_and_controls_refused(column, value):
    """A NaN outcome gave all-NaN estimates and an infinite one let a
    RuntimeWarning escape, with nothing raised; a NaN control reached the
    covariance unchecked."""
    panel = generate_panel(DgpConfig(n_units=50, years=(2000, 2010), effect=0.05, seed=1,
                                     control_coefs=(0.5,)))
    outcome, controls = panel.outcome.copy(), panel.controls.copy()
    (outcome if column == "outcome" else controls[:, 0])[5] = value
    with pytest.raises(DomainError, match=f"^{column} values must be finite$"):
        Panel(panel.unit, panel.year, outcome, panel.adoption_year, controls,
              panel.control_names)


@pytest.mark.parametrize("controls, names", [
    (np.zeros((4, 2)), ("control_1",)),  # two columns, one name
    (np.zeros(4), ("control_1",)),  # one dimension
])
def test_malformed_controls_refused(controls, names):
    """Controls must hold one column per name: a panel with more columns than
    names would be written under a header that reads back as a bad file."""
    with pytest.raises(DomainError, match=r"^controls of shape .* need 2 dimensions and "
                                          r"one column per name \(1 names\)$"):
        Panel(np.repeat([0, 1], 2), np.tile([2000, 2001], 2), np.zeros(4),
              np.full(4, np.nan), controls, names)


def test_duplicate_rows_rejected():
    with pytest.raises(DomainError):
        Panel(np.array([0, 0]), np.array([2000, 2000]), np.zeros(2),
              np.array([np.nan, np.nan]), np.empty((2, 0)), ())


def test_duplicate_rows_rejected_in_unsorted_panel():
    panel = generate_panel(small_cfg(control_coefs=(0.5,)))
    order = np.random.default_rng(2).permutation(len(panel.unit))

    def rows(idx):
        return Panel(panel.unit[idx], panel.year[idx], panel.outcome[idx],
                     panel.adoption_year[idx], panel.controls[idx], panel.control_names)

    rows(order)  # shuffled, no duplicates
    order[-1] = order[0]  # the first row again, far from it
    with pytest.raises(DomainError, match=r"^duplicate \(unit, year\) rows$"):
        rows(order)


# ---------------------------------------------------------------------------
# TWFE estimator

def test_zero_noise_recovers_effect_exactly():
    res = twfe_did(generate_panel(small_cfg()))
    assert abs(res.att - 0.05) < 1e-10
    assert res.n_units_absorbed == 60


def test_count_table_bound_refuses_before_allocating(monkeypatch):
    panel = generate_panel(small_cfg(noise_scale=0.2))  # 60 units x 12 years
    monkeypatch.setattr(empirics, "_DUMMY_MAX_CELLS", 60 * 12 - 1)
    monkeypatch.setattr(empirics.np, "bincount", None)  # nothing may be counted first
    with pytest.raises(DesignError, match=r"^two-way count table would hold 720 cells "
                                          r"\(limit 719\)$"):
        twfe_did(panel)
    monkeypatch.undo()
    monkeypatch.setattr(empirics, "_DUMMY_MAX_CELLS", 60 * 12)
    assert twfe_did(panel).n_obs == len(panel.unit) - 30  # adoption years dropped


def test_year_system_bound_refuses_before_allocating(monkeypatch):
    """A 4,100 x 4,100 table passes the table bound, but the year system,
    lstsq's copy of it and its workspace (three systems) would not."""
    m = 4100
    assert m * m <= empirics._DUMMY_MAX_CELLS < 3 * m * m
    codes = np.arange(m)
    monkeypatch.setattr(empirics.np, "bincount", None)  # nothing may be counted first
    with pytest.raises(DesignError, match=r"^two-way 4100 x 4100 system and its solve "
                                          r"would hold 50430000 cells \(limit 50000000\)$"):
        empirics._two_way_demean(np.zeros((m, 1), order="F"), codes, codes)


def test_projection_holds_one_count_table():
    """On a sparse design whose 3,000 x 300 count table dominates (6,000
    rows), the projection's traced peak stays below 1.5 tables."""
    rng = np.random.default_rng(0)
    n_u, n_y, n = 3000, 300, 6000
    unit_idx = np.concatenate([np.arange(n_u), rng.integers(0, n_u, n - n_u)])
    year_idx = np.concatenate([np.arange(n_y), rng.integers(0, n_y, n - n_y)])
    mat = rng.normal(size=(n, 2)).copy(order="F")
    tracemalloc.start()
    try:
        empirics._two_way_demean(mat, unit_idx, year_idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n_u * n_y * 8


def sweep_demean(mat, unit_idx, year_idx, tol=1e-13, max_sweeps=400):
    """Alternating unit and year sweeps: the iterative reference for the
    exact projection in empirics._two_way_demean.  None when the sweeps
    stop without converging."""
    out = mat.astype(float, copy=True)
    n_u = unit_idx.max() + 1
    n_y = year_idx.max() + 1
    u_counts = np.bincount(unit_idx, minlength=n_u).astype(float)
    y_counts = np.bincount(year_idx, minlength=n_y).astype(float)
    scale = max(float(np.max(np.abs(out), initial=0.0)), 1.0)
    for _ in range(max_sweeps):
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
        if drift <= tol * scale:
            return out
    return None


def dummies_demean(mat, unit_idx, year_idx):
    """Residuals of mat on the dense unit and year dummy design."""
    full = empirics._dummy_design(np.empty((len(unit_idx), 0)), unit_idx, year_idx)
    return mat - full @ np.linalg.lstsq(full, mat, rcond=None)[0]


@st.composite
def unbalanced_design(draw):
    """Unit and year codes of a shuffled unbalanced panel: one or two blocks
    of units that see disjoint years (a disconnected unit-year graph), a
    unit seen once in each block, and often fewer units than years."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    units, years = [], []
    for block in range(draw(st.integers(1, 2))):
        n_u, n_y = draw(st.integers(2, 9)), draw(st.integers(1, 14))
        seen = rng.random((n_u, n_y)) < draw(st.floats(0.2, 1.0))
        seen[np.arange(n_u), rng.integers(0, n_y, n_u)] = True
        seen[0] = False
        seen[0, rng.integers(n_y)] = True
        u, y = np.nonzero(seen)
        units.append(u + 100 * block)
        years.append(y + 100 * block)
    order = rng.permutation(sum(len(u) for u in units))
    unit_idx = np.unique(np.concatenate(units), return_inverse=True)[1][order]
    year_idx = np.unique(np.concatenate(years), return_inverse=True)[1][order]
    return unit_idx, year_idx


def design_columns(unit_idx, year_idx, rng):
    """A random column, a scaled one, and one made of fixed effects only."""
    n = len(unit_idx)
    fx = (rng.normal(size=unit_idx.max() + 1)[unit_idx]
          + rng.normal(size=year_idx.max() + 1)[year_idx])
    return np.column_stack([rng.normal(size=n), 1e3 * rng.normal(size=n) + 50.0, fx])


@given(unbalanced_design())
def test_projection_matches_dummies_and_sweeps(design):
    unit_idx, year_idx = design
    mat = design_columns(unit_idx, year_idx, np.random.default_rng(len(unit_idx)))
    out = empirics._two_way_demean(mat.copy(order="F"), unit_idx, year_idx)
    scale = np.linalg.norm(mat)
    assert np.linalg.norm(out - dummies_demean(mat, unit_idx, year_idx)) <= 1e-12 * scale
    assert np.linalg.norm(out[:, 2]) <= 1e-12 * scale
    swept = sweep_demean(mat, unit_idx, year_idx)
    if swept is not None:
        assert np.linalg.norm(out - swept) <= 1e-10 * scale


@given(unbalanced_design())
def test_collinear_control_still_names_its_column(design):
    unit_idx, year_idx = design
    rng = np.random.default_rng(len(unit_idx))
    n_u = unit_idx.max() + 1
    adopt = np.where(np.arange(n_u) % 2 == 0, np.nan,
                     2000.0 + rng.integers(0, year_idx.max() + 1, n_u))
    adopt[1] = 2000.0  # treated in every year it is seen
    mat = design_columns(unit_idx, year_idx, rng)
    panel = Panel(unit_idx, 2000 + year_idx, mat[:, 1], adopt[unit_idx], mat[:, [0, 2]],
                  ("control_1", "control_fe"))

    # The reference is the dummy-design projection, exact like the one under
    # test: converged sweeps can leave a fixed-effect column about 2e-10 of
    # its scale, above the rank tolerance, and then miss naming it.
    columns = {}
    for name, demean in (("exact", empirics._two_way_demean), ("dummies", dummies_demean)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(empirics, "_two_way_demean", demean)
            with pytest.raises(RankDeficiencyError) as exc:
                twfe_did(panel, drop_adoption_period=False)
        # as a set: when several columns vanish, rounding noise orders the pivots
        columns[name] = set(exc.value.columns)
    assert "control_fe" in columns["exact"]
    assert columns["exact"] == columns["dummies"]


def test_projection_on_a_chain_the_sweeps_do_not_converge_on():
    # unit i is seen in years i and i+1 only: connected, but so weakly that
    # 400 alternating sweeps stop far from the projection
    unit_idx = np.repeat(np.arange(80), 2)
    year_idx = unit_idx + np.tile([0, 1], 80)
    mat = design_columns(unit_idx, year_idx, np.random.default_rng(0))
    assert sweep_demean(mat, unit_idx, year_idx) is None
    out = empirics._two_way_demean(mat.copy(order="F"), unit_idx, year_idx)
    ref = dummies_demean(mat, unit_idx, year_idx)
    assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(mat)


def test_estimator_paths_agree():
    panel = generate_panel(small_cfg(noise_scale=0.2, control_coefs=(0.3, -0.1)))
    within = twfe_did(panel, method="within")
    dummies = twfe_did(panel, method="dummies")
    assert abs(within.att - dummies.att) < 1e-8
    assert within.se == pytest.approx(dummies.se, rel=1e-6)


def test_fixed_effect_invariances():
    panel = generate_panel(small_cfg(noise_scale=0.2))
    base = twfe_did(panel).att
    rng = np.random.default_rng(5)

    shifted = Panel(panel.unit, panel.year, panel.outcome + 7.3,
                    panel.adoption_year, panel.controls, panel.control_names)
    assert abs(twfe_did(shifted).att - base) < 1e-10

    unit_shift = rng.normal(0, 3, panel.n_units)[panel.unit]
    by_unit = Panel(panel.unit, panel.year, panel.outcome + unit_shift,
                    panel.adoption_year, panel.controls, panel.control_names)
    assert abs(twfe_did(by_unit).att - base) < 1e-10

    years = np.unique(panel.year)
    year_shift = rng.normal(0, 3, len(years))[np.searchsorted(years, panel.year)]
    by_year = Panel(panel.unit, panel.year, panel.outcome + year_shift,
                    panel.adoption_year, panel.controls, panel.control_names)
    assert abs(twfe_did(by_year).att - base) < 1e-10


def test_clustered_se_invariant_to_unit_relabeling():
    panel = generate_panel(small_cfg(noise_scale=0.2))
    res = twfe_did(panel)
    perm = np.random.default_rng(3).permutation(panel.n_units)
    relabeled = Panel(perm[panel.unit], panel.year, panel.outcome,
                      panel.adoption_year, panel.controls, panel.control_names)
    res2 = twfe_did(relabeled)
    assert res2.att == pytest.approx(res.att, rel=1e-10)
    assert res2.se == pytest.approx(res.se, rel=1e-10)


@pytest.mark.parametrize("share_treated", [0.5, 0.0])
def test_unknown_method_refused(share_treated):
    """The method is checked first, also on a panel with no treated row."""
    panel = generate_panel(small_cfg(share_treated=share_treated))
    for fit in (twfe_did, event_study):
        with pytest.raises(DomainError, match="^unknown method 'lsq'; use 'within' or 'dummies'$"):
            fit(panel, method="lsq")


@pytest.mark.parametrize("method", ["within", "dummies"])
def test_fits_invariant_to_row_order_and_labels(method):
    """Shuffled rows, sparse large unit labels and shifted years (adoption
    years with them) code to the same design: the same estimates to 1e-12
    relative and the same counts."""
    panel = generate_panel(small_cfg(noise_scale=0.2, control_coefs=(0.3, -0.1)))
    order = np.random.default_rng(8).permutation(len(panel.unit))
    moved = Panel(10**9 + 7 * panel.unit[order], panel.year[order] + 37,
                  panel.outcome[order], panel.adoption_year[order] + 37,
                  panel.controls[order], panel.control_names)
    for drop in (True, False):
        did, did2 = (twfe_did(p, drop_adoption_period=drop, method=method)
                     for p in (panel, moved))
        assert did2.att == pytest.approx(did.att, rel=1e-12, abs=0)
        assert did2.se == pytest.approx(did.se, rel=1e-12, abs=0)
        assert ((did2.n_obs, did2.n_units_absorbed, did2.n_years_absorbed)
                == (did.n_obs, did.n_units_absorbed, did.n_years_absorbed))
        es, es2 = (event_study(p, window=(-4, 3), drop_adoption_period=drop, method=method)
                   for p in (panel, moved))
        np.testing.assert_allclose(es2.coefficients, es.coefficients, rtol=1e-12, atol=0)
        np.testing.assert_allclose(es2.std_errors, es.std_errors, rtol=1e-12, atol=0)
        assert ((es2.n_obs, es2.n_units_absorbed, es2.n_years_absorbed)
                == (es.n_obs, es.n_units_absorbed, es.n_years_absorbed))


def test_se_positive_with_noise():
    res = twfe_did(generate_panel(small_cfg(noise_scale=0.2)))
    assert res.se > 0.0


def test_rank_deficiency_names_columns():
    panel = generate_panel(small_cfg(noise_scale=0.1, control_coefs=(0.5,)))
    dup = Panel(panel.unit, panel.year, panel.outcome, panel.adoption_year,
                np.column_stack([panel.controls, panel.controls[:, 0]]),
                ("control_1", "control_dup"))
    for fit in (twfe_did, event_study):
        with pytest.raises(RankDeficiencyError) as exc:
            fit(dup)
        assert exc.value.columns == ("control_dup",)
        assert str(exc.value) == ("design is rank deficient after absorbing fixed "
                                  "effects; offending columns: control_dup")
    with pytest.raises(RankDeficiencyError) as exc:
        qr_solve(np.zeros((10, 3)), ["a", "b"])
    assert exc.value.columns == ("a", "b")


def qr_solve(xy, names):
    """The fit of the last column of ``xy`` on the others, from its tall QR."""
    return empirics._triangle_solve(empirics._tall_triangle(xy), names)


@pytest.mark.parametrize("seed", range(6))
def test_qr_solve_matches_lstsq(seed):
    rng = np.random.default_rng(seed)
    n, q = int(rng.integers(20, 400)), int(rng.integers(1, 12))
    x = rng.normal(size=(n, q)) * rng.uniform(0.1, 10.0, q)
    y = x @ rng.normal(size=q) + rng.normal(size=n)
    beta, _ = qr_solve(np.column_stack([x, y]), [f"x{j}" for j in range(q)])
    ref, *_ = np.linalg.lstsq(x, y, rcond=None)
    assert np.linalg.norm(beta - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("seed", range(6))
def test_qr_solve_names_the_columns_a_pivoted_qr_of_x_names(seed):
    """Pivoting the triangle of an unpivoted QR flags the same columns as
    scipy's pivoted QR of the whole design."""
    rng = np.random.default_rng(seed)
    n, q = int(rng.integers(20, 400)), int(rng.integers(3, 12))
    x = rng.normal(size=(n, q)) * rng.uniform(0.1, 10.0, q)
    x[:, rng.integers(2, q)] = x[:, :2] @ rng.normal(size=2) + 1e-13 * rng.normal(size=n)
    names = [f"x{j}" for j in range(q)]
    _, r, piv = scipy.linalg.qr(x, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    expected = [names[piv[i]] for i in range(q) if diag[i] <= 1e-10 * max(diag[0], 1.0)]
    assert len(expected) == 1
    with pytest.raises(RankDeficiencyError) as exc:
        qr_solve(np.column_stack([x, rng.normal(size=n)]), names)
    assert exc.value.columns == tuple(expected)


def test_qr_solve_with_fewer_rows_than_columns_raises():
    x = np.random.default_rng(0).normal(size=(3, 5))
    with pytest.raises(RankDeficiencyError) as exc:
        qr_solve(np.column_stack([x, np.ones(3)]), list("abcde"))
    assert len(exc.value.columns) == 2


def first_copies(x):
    """Each column's name mapped to the name of the first column that
    agrees with it to 1e-10 of its norm."""
    k = x.shape[1]
    norms = np.linalg.norm(x, axis=0)
    first = [min(d for d in range(k) if np.linalg.norm(x[:, d] - x[:, c]) <= 1e-10 * norms[c])
             for c in range(k)]
    return {f"x{c}": f"x{d}" for c, d in enumerate(first)}


def rank_case_design(n, k, case, rng):
    """A scaled normal n x k design, with column j zeroed, a copy of an
    earlier column i, or that copy plus 1e-13 noise."""
    x = rng.normal(size=(n, k)) * rng.uniform(0.1, 10.0, k)
    i, j = sorted(rng.choice(k, 2, replace=False)) if k > 1 else (0, 0)
    if case == "zero":
        x[:, j] = 0.0
    elif case == "duplicate":
        x[:, j] = x[:, i]
    elif case == "near_duplicate":
        x[:, j] = x[:, i] + 1e-13 * rng.normal(size=n)
    return x


@given(st.integers(1, 40), st.integers(1, 12),
       st.sampled_from(["plain", "zero", "duplicate", "near_duplicate"]),
       st.integers(0, 2**32 - 1))
@example(30, 1, "plain", 0)
@example(3, 8, "plain", 1)  # fewer rows than columns
@example(30, 6, "zero", 2)
@example(30, 6, "duplicate", 3)
@example(30, 6, "near_duplicate", 4)
def test_pivoted_triangle_decides_as_scipy_does(n, k, case, seed):
    """The numpy pivoting of the triangle makes scipy's rank decision and
    names its columns, and otherwise solves as lstsq does.  Of two columns
    that agree to 1e-10 of their norm, which one either names turns on the
    last bits of their norms, so the names are compared up to such a copy."""
    rng = np.random.default_rng(seed)
    x = rank_case_design(n, k, case, rng)
    xy = np.column_stack([x, rng.normal(size=n)])
    names = [f"x{c}" for c in range(k)]

    r_aug = np.zeros((k + 1, k + 1))
    r_aug[:min(n, k + 1)] = np.linalg.qr(xy, mode="r")
    _, r, piv = scipy.linalg.qr(r_aug[:k, :k], pivoting=True)
    diag = np.abs(np.diag(r))
    expected = ([names[piv[c]] for c in range(k) if diag[c] <= 1e-10 * max(diag[0], 1.0)]
                if diag[0] else names)
    first_copy = first_copies(x)
    if expected:
        with pytest.raises(RankDeficiencyError) as exc:
            qr_solve(xy, names)
        assert sorted(map(first_copy.get, exc.value.columns)) == \
            sorted(map(first_copy.get, expected))
    else:
        beta, _ = qr_solve(xy, names)
        ref, *_ = np.linalg.lstsq(x, xy[:, -1], rcond=None)
        assert np.linalg.norm(beta - ref) <= 1e-12 * np.linalg.norm(ref)


# Designs of several QR blocks, the last short: about a 216 x 23 panel's
# 4,750 rows (five blocks) and 20,000 to 30,000 rows (20 to 30 blocks).
TALL_ROWS = [4_750, 20_000, 24_577, 29_999]


@pytest.mark.parametrize("n", TALL_ROWS)
def test_blocked_triangle_matches_one_qr_and_lstsq(n):
    assert n > 2 * empirics._QR_BLOCK_ROWS and n % empirics._QR_BLOCK_ROWS
    rng = np.random.default_rng(n)
    q = 9
    x = rng.normal(size=(n, q)) * rng.uniform(0.1, 10.0, q)
    y = x @ rng.normal(size=q) + rng.normal(size=n)
    xy = np.asfortranarray(np.column_stack([x, y]))
    np.testing.assert_allclose(np.abs(np.diag(empirics._tall_triangle(xy))),
                               np.abs(np.diag(np.linalg.qr(xy, mode="r"))), rtol=1e-12, atol=0)
    beta, _ = qr_solve(xy, [f"x{j}" for j in range(q)])
    ref, *_ = np.linalg.lstsq(x, y, rcond=None)
    assert np.linalg.norm(beta - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("n", TALL_ROWS)
@pytest.mark.parametrize("case", ["zero", "duplicate", "near_duplicate"])
def test_blocked_rank_decision_names_the_single_block_columns(n, case, monkeypatch):
    """Blocks and one QR of the whole design refuse the same designs and
    name the same columns, up to which of two copies is named."""
    rng = np.random.default_rng(n)
    x = rank_case_design(n, 8, case, rng)
    xy = np.asfortranarray(np.column_stack([x, rng.normal(size=n)]))
    names = [f"x{j}" for j in range(8)]
    first_copy = first_copies(x)
    named = []
    for block_rows in (empirics._QR_BLOCK_ROWS, n):
        monkeypatch.setattr(empirics, "_QR_BLOCK_ROWS", block_rows)
        with pytest.raises(RankDeficiencyError) as exc:
            qr_solve(xy, names)
        named.append(sorted(map(first_copy.get, exc.value.columns)))
    assert named[0] == named[1]
    assert len(named[0]) == 1


def test_event_study_holds_one_design_buffer():
    """The fit's traced peak stays below 2.5 copies of its n x (k+1) design:
    the projection, the tall QR and the cluster scores work on one buffer."""
    panel = generate_panel(DgpConfig(n_units=2000, years=(2000, 2022), effect=0.05, seed=1))
    tracemalloc.start()
    try:
        res = event_study(panel)  # periods -5..5 less the reference -1 and the dropped 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k = 9
    assert res.n_obs >= 40_000
    assert peak < 2.5 * res.n_obs * (k + 1) * 8


@pytest.mark.parametrize("method", ["within", "dummies"])
@pytest.mark.parametrize("seed", range(3))
def test_two_clusters_refused(seed, method):
    """Two units' cluster scores sum to zero and so are both zero: no SE."""
    panel = generate_panel(DgpConfig(n_units=2, share_treated=0.5, seed=seed))
    for fit in (twfe_did, event_study):
        with pytest.raises(DesignError, match=r"^2 clusters give no usable cluster-robust "
                                              r"standard error; need at least 3$"):
            fit(panel, method=method)


def masked_loop_se(x_t, resid, clusters, n_absorbed):
    """CR1 standard errors with one boolean mask per cluster: the O(n G)
    reference for the scatter-add in empirics._clustered_se."""
    n, q = x_t.shape
    bread = np.linalg.pinv(x_t.T @ x_t)
    scores = x_t * resid[:, None]
    n_c = clusters.max() + 1
    meat = np.zeros((q, q))
    for g in range(n_c):
        s_g = scores[clusters == g].sum(axis=0)
        meat += np.outer(s_g, s_g)
    dof = (n_c / (n_c - 1)) * ((n - 1) / max(n - q - n_absorbed, 1))
    cov = dof * bread @ meat @ bread
    return np.sqrt(np.clip(np.diag(cov), 0.0, None))


@pytest.mark.parametrize("seed", range(4))
def test_clustered_se_matches_masked_loop(seed):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 15, 80)
    sizes[rng.choice(80, 10, replace=False)] = 1  # singleton clusters
    clusters = rng.permutation(np.repeat(np.arange(80), sizes))
    n, q = len(clusters), int(rng.integers(1, 8))
    x_t = rng.normal(size=(n, q))
    resid = rng.normal(size=n)
    r_inv = np.linalg.inv(np.linalg.qr(x_t, mode="r"))
    se = empirics._clustered_se(x_t.T, resid, clusters, 40, r_inv)
    ref = masked_loop_se(x_t, resid, clusters, 40)
    assert np.all(np.abs(se - ref) <= 1e-12 * np.abs(ref))


def rational_cr1_variances(x_t, resid, clusters, n_absorbed):
    """CR1 variances dof * diag(M S'S M), M = (x'x)^-1 and S the cluster
    scores, in exact rational arithmetic on the float inputs."""
    n, k = x_t.shape

    def scaled(col):  # integer numerators over one power-of-two denominator
        fr = [Fraction(v) for v in col.tolist()]
        den = max(f.denominator for f in fr)
        return [f.numerator * (den // f.denominator) for f in fr], den

    cols = [scaled(x_t[:, j]) for j in range(k)]
    res, res_den = scaled(resid)
    aug = [[Fraction(sum(map(operator.mul, cols[i][0], cols[j][0])), cols[i][1] * cols[j][1])
            for j in range(k)] + [Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    for c in range(k):  # Gauss-Jordan: [x'x I] becomes [I M]
        p = next(i for i in range(c, k) if aug[i][c])
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for i in range(k):
            if i != c:
                aug[i] = [v - aug[i][c] * w for v, w in zip(aug[i], aug[c])]
    n_c = int(clusters.max()) + 1
    sums = [[0] * k for _ in range(n_c)]
    for i, g in enumerate(clusters.tolist()):
        for j in range(k):
            sums[g][j] += cols[j][0][i] * res[i]
    dof = Fraction(n_c, n_c - 1) * Fraction(n - 1, max(n - k - n_absorbed, 1))
    var = [Fraction(0)] * k
    for row in sums:
        score = [Fraction(v, cols[j][1] * res_den) for j, v in enumerate(row)]
        b = [sum(score[i] * aug[i][k + j] for i in range(k)) for j in range(k)]
        var = [v + bj * bj for v, bj in zip(var, b)]
    return [dof * v for v in var]


@settings(max_examples=50, derandomize=True)
@given(st.integers(60, 300), st.integers(2, 4), st.integers(20, 40),
       st.floats(-9.5, -2.0), st.integers(0, 2**32 - 1))
@example(62, 2, 30, -8.9, 6)  # the pivoting takes the near copy first
def test_clustered_se_matches_rational_cr1_at_the_rank_edge(n, k, n_c, log_dist, seed):
    """The CR1 standard errors from the fit's triangle agree with the exact
    formula to 10 cond(x) eps relative.  One column is a near copy of
    another at relative distance 10**log_dist, so the pivot ratios span
    the range the rank test accepts: the Gram matrix squared the condition
    number there, and pinv dropped the near-null direction."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, k))
    i, j = rng.choice(k, 2, replace=False)
    u = rng.normal(size=n)
    x[:, j] = x[:, i] + 10.0 ** log_dist * np.linalg.norm(x[:, i]) / np.linalg.norm(u) * u
    y = x @ rng.normal(size=k) + rng.normal(size=n)
    clusters = rng.integers(0, n_c, n)
    beta, r_inv = qr_solve(np.column_stack([x, y]), [f"x{c}" for c in range(k)])
    resid = y - x @ beta
    se = empirics._clustered_se(x.T, resid, clusters, 10, r_inv)
    exact = np.sqrt([float(v) for v in rational_cr1_variances(x, resid, clusters, 10)])
    bound = 10 * np.linalg.cond(x) * np.finfo(float).eps
    assert np.all(np.abs(se - exact) <= bound * exact)


def rank_edge_panel(regressor):
    """The seed-3 216 x 23 panel with one control, ``regressor(rel)`` of the
    relative periods plus 1e-8 N(0, 1) noise."""
    panel = generate_panel(DgpConfig(n_units=216, years=(2000, 2022), share_treated=0.5,
                                     noise_scale=0.1, effect=0.05, seed=3))
    noise = np.random.default_rng(7).normal(size=len(panel.unit))
    control = regressor(panel.relative_period()) + 1e-8 * noise
    return Panel(panel.unit, panel.year, panel.outcome, panel.adoption_year,
                 control[:, None], ("near_copy",))


def test_standard_errors_at_the_rank_edge():
    """A control within 1e-8 N(0, 1) of a regressor passes the rank test
    (pivot ratio 3.7e-8), and the regressor's coefficient is barely
    identified.  Its SE is that of the exact CR1 formula on the projected
    design (rational arithmetic, computed once), where the Gram matrix and
    pinv read 0.002941 (TWFE) and 0.00739 (rel_2)."""
    did = twfe_did(rank_edge_panel(lambda rel: rel >= 0))
    assert did.se == pytest.approx(154_469.391072, rel=1e-6)
    es = event_study(rank_edge_panel(lambda rel: np.clip(rel, -5, 5) == 2))
    assert es.std_errors[list(es.periods).index(2)] == pytest.approx(153_393.935584, rel=1e-6)


def exponent_bounds(values):
    """The k for which every nonzero value times 2**k stays a normal,
    finite double."""
    exps = np.frexp(np.abs(values[values != 0.0]))[1]
    return -1021 - int(exps.min()), 1024 - int(exps.max())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n_units=st.integers(8, 30), n_years=st.integers(7, 11), n_controls=st.integers(0, 2),
       method=st.sampled_from(["within", "dummies"]), seed=st.integers(0, 2 ** 16),
       data=st.data())
def test_fits_are_bitwise_equivariant_under_outcome_scaling(n_units, n_years, n_controls,
                                                            method, seed, data):
    """Scaling the outcome by 2**k scales the ATT, the event-study
    coefficients and every standard error by exactly 2**k, for every k at
    which the outcome and the results stay normal, finite doubles: no
    square overflows on the way."""
    panel = generate_panel(small_cfg(n_units=n_units, years=(2000, 1999 + n_years),
                                     noise_scale=0.3, control_coefs=(0.5,) * n_controls,
                                     seed=seed))
    did = twfe_did(panel, method=method)
    es = event_study(panel, window=(-2, 2), method=method)
    found = np.concatenate([panel.outcome, [did.att, did.se], es.coefficients,
                            es.std_errors])
    lo, hi = exponent_bounds(found[np.isfinite(found)])
    for k in (lo, hi, data.draw(st.integers(lo, hi))):
        scaled = replace(panel, outcome=np.ldexp(panel.outcome, k))
        did_k = twfe_did(scaled, method=method)
        es_k = event_study(scaled, window=(-2, 2), method=method)
        assert (did_k.att, did_k.se) == (math.ldexp(did.att, k), math.ldexp(did.se, k))
        for got, want in ((es_k.coefficients, es.coefficients), (es_k.std_errors, es.std_errors)):
            assert np.array_equal(got, np.ldexp(want, k), equal_nan=True)


def twfe_fit(panel, method="within"):
    """Every TWFE coefficient (treated_post, then the controls) and its
    standard error, in the panel's units."""
    _, [(beta, se)], _ = empirics._estimate(panel, True, (-1, 0), method)
    return beta, se


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n_units=st.integers(8, 30), n_years=st.integers(7, 11), n_controls=st.integers(1, 2),
       method=st.sampled_from(["within", "dummies"]), seed=st.integers(0, 2 ** 16),
       log_factor=st.floats(-300, 300), k_at=st.floats(0, 1))
@example(30, 11, 1, "within", 1, 10.0, 0.5)  # was named rank deficient from about 2.9e9 up
@example(30, 11, 1, "within", 1, 154.0, 0.5)  # a RuntimeWarning escaped the pivoting
def test_fits_are_bitwise_equivariant_under_control_scaling(n_units, n_years, n_controls,
                                                            method, seed, log_factor, k_at):
    """Controls times 10**log_factor fit as the drawn ones do: no rank
    refusal and no RuntimeWarning, the same ATT to rounding.  Those
    controls times 2**k, for every k at which they and their coefficients
    stay normal, finite doubles, scale their coefficients and standard
    errors by exactly 2**-k and leave the ATT, its SE and the event study
    bit for bit as they are."""
    panel = generate_panel(DgpConfig(n_units=n_units, years=(2000, 1999 + n_years),
                                     effect=0.05, control_coefs=(0.5,) * n_controls,
                                     seed=seed))
    base = replace(panel, controls=panel.controls * 10.0 ** log_factor)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        beta0, se0 = twfe_fit(panel, method)
        beta, se = twfe_fit(base, method)
        es = event_study(base, window=(-2, 2), method=method)
    assert beta[0] == pytest.approx(beta0[0], rel=1e-12, abs=1e-12 * se0[0])
    assert se[0] == pytest.approx(se0[0], rel=1e-12)
    lo, hi = exponent_bounds(base.controls)
    lo_c, hi_c = exponent_bounds(np.concatenate([beta[1:], se[1:]]))
    lo, hi = max(lo, -hi_c), min(hi, -lo_c)
    for k in (lo, hi, lo + round(k_at * (hi - lo))):
        scaled = replace(base, controls=np.ldexp(base.controls, k))
        beta_k, se_k = twfe_fit(scaled, method)
        es_k = event_study(scaled, window=(-2, 2), method=method)
        assert (beta_k[0], se_k[0]) == (beta[0], se[0])
        assert np.array_equal(beta_k[1:], np.ldexp(beta[1:], -k))
        assert np.array_equal(se_k[1:], np.ldexp(se[1:], -k))
        for got, want in ((es_k.coefficients, es.coefficients), (es_k.std_errors, es.std_errors)):
            assert np.array_equal(got, want, equal_nan=True)


def separate_fits(panel, drop_adoption_period=True):
    """``twfe_did`` then ``event_study``, or the first error they raise."""
    try:
        return (twfe_did(panel, drop_adoption_period),
                event_study(panel, drop_adoption_period=drop_adoption_period))
    except ModelError as exc:
        return exc


def fit_or_refusal(fit, *args, **kwargs):
    """The fit's result, or the ModelError it raises."""
    try:
        return fit(*args, **kwargs)
    except ModelError as exc:
        return exc


def joint_fits(panel, drop_adoption_period=True):
    return fit_or_refusal(did_fits, panel, drop_adoption_period)


def assert_same_error(got, want):
    assert isinstance(want, ModelError)
    assert (type(got), str(got)) == (type(want), str(want))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n_units=st.integers(6, 40), n_years=st.integers(10, 23), n_controls=st.integers(0, 2),
       dynamic=st.booleans(), drop=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_did_fits_match_the_separate_fits(n_units, n_years, n_controls, dynamic, drop, seed):
    """The event study bit for bit ``event_study``'s, TWFE's SE within 1e-12
    of ``twfe_did``'s, and where they refuse, the same error first.  The ATT
    is within 1e-12 of itself where it is at least its SE, and of the SE
    where it lies inside it: such an ATT is the difference of larger
    numbers, and its rounding is of the SE's size."""
    panel = generate_panel(small_cfg(
        n_units=n_units, years=(2000, 1999 + n_years), noise_scale=0.3,
        control_coefs=(0.5, -0.2)[:n_controls], seed=seed,
        dynamic_profile=(0.0, 0.05, 0.1, 0.15) if dynamic else None))
    want, got = separate_fits(panel, drop), joint_fits(panel, drop)
    if isinstance(want, ModelError):
        assert_same_error(got, want)
        return
    (did, es), (did_ref, es_ref) = got, want
    assert abs(did.att - did_ref.att) <= 1e-12 * max(abs(did_ref.att), did_ref.se)
    assert did.se == pytest.approx(did_ref.se, rel=1e-12, abs=0)
    assert ((did.n_obs, did.n_units_absorbed, did.n_years_absorbed)
            == (did_ref.n_obs, did_ref.n_units_absorbed, did_ref.n_years_absorbed))
    for field in ("periods", "coefficients", "std_errors"):
        assert np.array_equal(getattr(es, field), getattr(es_ref, field), equal_nan=True)
    assert ((es.n_obs, es.n_units_absorbed, es.n_years_absorbed)
            == (es_ref.n_obs, es_ref.n_units_absorbed, es_ref.n_years_absorbed))


def with_controls(panel, *columns):
    return replace(panel, controls=np.column_stack(columns),
                   control_names=tuple(f"control_{j + 1}" for j in range(len(columns))))


def error_case(case):
    """A panel on which ``twfe_did`` or ``event_study`` refuses, and the
    class of the first refusal."""
    panel = generate_panel(small_cfg(noise_scale=0.3, control_coefs=(0.5,)))
    rel = np.clip(panel.relative_period(), -5, 5)
    unit_constant = np.random.default_rng(1).normal(size=panel.n_units)[panel.unit]
    all_treated = generate_panel(small_cfg(share_treated=1.0, adoption_years=(2000,)))
    two = generate_panel(small_cfg(n_units=2, noise_scale=0.3))
    two_rel_2 = (np.clip(two.relative_period(), -5, 5) == 2).astype(float)
    return {
        "no untreated rows": (all_treated, DesignError),
        "TWFE rank deficiency: a control equal to treated_post":
            (with_controls(panel, (rel >= 0).astype(float)), RankDeficiencyError),
        "TWFE rank deficiency: an absorbed control":
            (with_controls(panel, panel.controls[:, 0], unit_constant), RankDeficiencyError),
        "event-study rank deficiency: a control equal to rel_2":
            (with_controls(panel, (rel == 2).astype(float)), RankDeficiencyError),
        "two clusters": (two, DesignError),
        "two clusters and an event-study rank deficiency":
            (with_controls(two, two_rel_2), DesignError),
    }[case]


ERROR_CASES = ["no untreated rows", "TWFE rank deficiency: a control equal to treated_post",
               "TWFE rank deficiency: an absorbed control",
               "event-study rank deficiency: a control equal to rel_2", "two clusters",
               "two clusters and an event-study rank deficiency"]


@pytest.mark.parametrize("case", ERROR_CASES)
def test_did_fits_refuse_as_the_separate_fits_do(case):
    panel, cls = error_case(case)
    want = separate_fits(panel)
    assert type(want) is cls
    assert_same_error(joint_fits(panel), want)


def test_did_fits_refuse_at_the_count_table_bound(monkeypatch):
    panel = generate_panel(small_cfg(noise_scale=0.2))  # 60 units x 12 years
    monkeypatch.setattr(empirics, "_DUMMY_MAX_CELLS", 60 * 12 - 1)
    want = separate_fits(panel)
    assert str(want) == "two-way count table would hold 720 cells (limit 719)"
    monkeypatch.setattr(empirics.np, "bincount", None)  # nothing may be counted first
    assert_same_error(joint_fits(panel), want)


def test_did_fits_hold_one_design_buffer():
    """Both fits together peak where the event study alone does, to within
    1 KiB of Python objects: far below one boolean column of the 45,000-row
    design."""
    panel = generate_panel(DgpConfig(n_units=2000, years=(2000, 2022), effect=0.05, seed=1))
    peaks = []
    for fit in (event_study, did_fits):
        tracemalloc.start()
        try:
            fit(panel)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 1024


def test_dummies_oracle_refuses_oversized_design(monkeypatch):
    panel = generate_panel(small_cfg(noise_scale=0.2))
    monkeypatch.setattr(empirics, "_DUMMY_MAX_CELLS", 1000)
    with pytest.raises(DesignError, match=r"dense dummy design would hold \d+ cells"):
        twfe_did(panel, method="dummies")
    assert twfe_did(panel).se > 0.0


def test_no_treated_units_design_error():
    panel = generate_panel(small_cfg(share_treated=0.0))
    with pytest.raises(DesignError):
        twfe_did(panel)


def test_all_treated_before_span_design_error():
    """Every row sits in a bin at or after adoption, so the dummies would
    sum to the unit effects: each fit refuses the sample."""
    cfg = small_cfg(share_treated=1.0, adoption_years=(2000,),
                    noise_scale=0.1)
    panel = generate_panel(cfg)
    for fit in (twfe_did, event_study, did_fits):
        with pytest.raises(DesignError,
                           match="no untreated observations in the estimation sample"):
            fit(panel)


def test_monte_carlo_unbiased_under_null():
    n_reps = 500
    ests, ses = [], []
    for rep in range(n_reps):
        cfg = DgpConfig(n_units=200, years=(2000, 2019), share_treated=0.5,
                        noise_scale=1.0, effect=0.0, seed=10_000 + rep)
        res = twfe_did(generate_panel(cfg))
        ests.append(res.att)
        ses.append(res.se)
    mean_est = float(np.mean(ests))
    assert abs(mean_est) < 3.0 * float(np.mean(ses)) / np.sqrt(n_reps)


# ---------------------------------------------------------------------------
# event study

def test_event_study_exact_profile_recovery():
    profile = (0.0, 0.0, 0.02, 0.04, 0.06)
    panel = generate_panel(small_cfg(effect=0.0, dynamic_profile=profile))
    res = event_study(panel, window=(-5, 4))
    by_period = dict(zip(res.periods.tolist(), res.coefficients))
    assert by_period[-1] == 0.0
    for lead in (-5, -4, -3, -2):
        assert abs(by_period[lead]) < 1e-10
    assert np.isnan(by_period[0])  # adoption year dropped by default
    assert by_period[1] == pytest.approx(0.0, abs=1e-10)
    assert by_period[2] == pytest.approx(0.02, abs=1e-10)
    assert by_period[3] == pytest.approx(0.04, abs=1e-10)
    assert by_period[4] == pytest.approx(0.06, abs=1e-10)  # binned tail holds last value


def test_event_study_period0_kept_when_not_dropped():
    profile = (0.33, 0.0, 0.0)
    panel = generate_panel(small_cfg(effect=0.0, dynamic_profile=profile))
    res = event_study(panel, window=(-3, 2), drop_adoption_period=False)
    by_period = dict(zip(res.periods.tolist(), res.coefficients))
    assert by_period[0] == pytest.approx(0.33, abs=1e-10)


def test_event_study_periods_contiguous():
    panel = generate_panel(small_cfg(noise_scale=0.1))
    res = event_study(panel, window=(-4, 3))
    assert np.array_equal(res.periods, np.arange(-4, 4))


def test_event_study_window_validation():
    panel = generate_panel(small_cfg())
    with pytest.raises(DomainError):
        event_study(panel, window=(-1, 5))
    with pytest.raises(DomainError):
        event_study(panel, window=(-5, 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n_units=st.integers(6, 40), n_years=st.integers(5, 9),
       adoption=st.none() | st.lists(st.integers(0, 11), min_size=1, max_size=3),
       drop=st.booleans(), method=st.sampled_from(["within", "dummies"]),
       seed=st.integers(0, 2 ** 16))
@example(30, 7, None, True, "within", 1)  # did-sim's config that named rel_-5 rank deficient
def test_empty_bins_read_nan_and_the_rest_match_the_window_cut_to_the_span(
        n_units, n_years, adoption, drop, method, seed):
    """On spans shorter than the window (-5, 5), with adoption years inside
    and past the span, each period whose bin holds no sample row reads NaN
    in coefficient and SE.  Where the window cut to the sample's relative
    periods still covers -2..+2, it bins the same rows into the same
    dummies, so every period equals its fit bit for bit, and a refusal is
    the same refusal."""
    panel = generate_panel(small_cfg(
        n_units=n_units, years=(2000, 1999 + n_years), noise_scale=0.3,
        adoption_years=None if adoption is None else tuple(2000 + a for a in adoption),
        seed=seed))
    rel = panel.relative_period()
    rel = rel[~np.isnan(rel) & ((rel != 0) | (not drop))]
    lo, hi = max(-5, int(rel.min())), min(5, int(rel.max()))
    es = fit_or_refusal(event_study, panel, drop_adoption_period=drop, method=method)
    cut = None
    if lo <= -2 and hi >= 2:
        cut = fit_or_refusal(event_study, panel, (lo, hi), drop, method)
    if isinstance(es, ModelError):
        if cut is not None:
            assert_same_error(cut, es)
        return
    empty = ~np.isin(es.periods, np.clip(rel, -5, 5)) & (es.periods != -1)
    assert np.array_equal(np.isnan(es.coefficients), empty)
    assert np.array_equal(np.isnan(es.std_errors), empty)
    if cut is not None:
        inside = slice(lo + 5, hi + 6)
        assert np.array_equal(es.periods[inside], cut.periods)
        assert np.array_equal(es.coefficients[inside], cut.coefficients, equal_nan=True)
        assert np.array_equal(es.std_errors[inside], cut.std_errors, equal_nan=True)
        assert ((es.n_obs, es.n_units_absorbed, es.n_years_absorbed)
                == (cut.n_obs, cut.n_units_absorbed, cut.n_years_absorbed))


def test_event_study_noisy_leads_within_three_se():
    cfg = small_cfg(n_units=150, years=(2000, 2017), noise_scale=0.3,
                    effect=0.05, seed=42)
    res = event_study(generate_panel(cfg), window=(-4, 4))
    for t, b, s in zip(res.periods, res.coefficients, res.std_errors):
        if t < -1:
            assert abs(b) < 3.0 * s


# ---------------------------------------------------------------------------
# CSV round trip

def test_panel_csv_round_trip_exact(tmp_path):
    panel = generate_panel(small_cfg(noise_scale=0.7, control_coefs=(0.2, -1.1)))
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    back = read_panel_csv(path)
    assert np.array_equal(back.unit, panel.unit)
    assert np.array_equal(back.year, panel.year)
    assert np.array_equal(back.outcome, panel.outcome)
    assert np.array_equal(back.adoption_year, panel.adoption_year, equal_nan=True)
    assert np.array_equal(back.controls, panel.controls)
    assert back.control_names == panel.control_names


def rowwise_panel_csv(panel, path):
    """The row-at-a-time panel writer the chunked one replaced."""
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


@pytest.mark.parametrize("chunk", [7, csvcells._CSV_CHUNK_ROWS])
def test_panel_csv_matches_rowwise_writer(tmp_path, monkeypatch, chunk):
    # 400 units x 12 years = 4800 rows: more than one default chunk
    panel = generate_panel(small_cfg(n_units=400, noise_scale=0.7,
                                     control_coefs=(0.2, -1.1)))
    assert np.isnan(panel.adoption_year).any()  # never-treated rows
    monkeypatch.setattr(empirics, "_CSV_CHUNK_ROWS", chunk)
    write_panel_csv(panel, tmp_path / "chunked.csv")
    rowwise_panel_csv(panel, tmp_path / "rowwise.csv")
    assert first_difference((tmp_path / "chunked.csv").read_bytes().decode(),
                            (tmp_path / "rowwise.csv").read_bytes().decode()) is None


def test_panel_csv_quotes_control_names_and_round_trips(tmp_path):
    names = ("gdp, real", 'the "index"', "line\nbreak", "plain")
    rng = np.random.default_rng(0)
    controls = rng.normal(size=(6, 4))
    controls[0] = [-0.0, 5e-324, 1.7976931348623157e308, -1e300]
    controls[1, 2] = -1.7976931348623157e308  # the finite extremes
    panel = Panel(np.repeat([0, 1], 3), np.tile([2000, 2001, 2002], 2),
                  np.array([0.1, -2.5, 1e-300, 0.0, 7.0, -0.0]),
                  np.array([np.nan] * 3 + [2001.0] * 3), controls, names)
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    rowwise_panel_csv(panel, tmp_path / "rowwise.csv")
    assert path.read_bytes() == (tmp_path / "rowwise.csv").read_bytes()
    assert path.read_text(encoding="utf-8").startswith(
        'unit,year,outcome,adoption_year,"gdp, real","the ""index""","line\nbreak",plain\n')
    back = read_panel_csv(path)
    assert back.control_names == names
    assert np.array_equal(back.unit, panel.unit) and np.array_equal(back.year, panel.year)
    assert np.array_equal(back.outcome, panel.outcome)
    assert np.array_equal(np.signbit(back.outcome), np.signbit(panel.outcome))
    assert np.array_equal(back.adoption_year, panel.adoption_year, equal_nan=True)
    assert np.array_equal(back.controls, panel.controls)


def test_panel_csv_nan_outcome_refused(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("unit,year,outcome,adoption_year\n0,2000,nan,\n1,2000,0.5,\n",
                    encoding="utf-8")
    with pytest.raises(DomainError, match="^outcome values must be finite$"):
        read_panel_csv(path)


def test_panel_csv_header_schema(tmp_path):
    panel = generate_panel(small_cfg(control_coefs=(0.5,)))
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "unit,year,outcome,adoption_year,control_1"


@pytest.mark.parametrize("column, big", [
    *((column, big) for column in ("unit", "year", "adoption_year")
      for big in (1e19, -1e19, 2.0 ** 63)),
    ("unit", np.uint64(2 ** 63)), ("year", np.uint64(2 ** 64 - 1)),
])
def test_panel_refuses_ids_and_years_beyond_int64(column, big):
    """The CSV writes ids and years as int64: 1e19 was written as -2**63,
    and distinct units merged when read back."""
    cols = {"unit": np.array([1.0, 1.0, 2.0, 2.0]), "year": np.array([2000.0, 2001.0] * 2),
            "adoption_year": np.array([2001.0, 2001.0, math.nan, math.nan])}
    if isinstance(big, np.uint64):
        cols[column] = cols[column].astype(np.uint64)
    cols[column][:2] = big
    with pytest.raises(DomainError, match=f"^{column} values must lie in "):
        Panel(cols["unit"], cols["year"], np.zeros(4), cols["adoption_year"],
              np.empty((4, 0)), ())


def test_panel_csv_round_trips_the_int64_extremes(tmp_path):
    lo, hi = -2 ** 63, 2 ** 63 - 1
    panel = Panel(np.array([lo, lo, hi, hi]), np.array([2000, 2001] * 2),
                  np.array([0.5, -1e-300, 1e300, 0.0]),
                  np.array([2001.0, 2001.0, math.nan, math.nan]), np.empty((4, 0)), ())
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    assert path.read_text(encoding="utf-8").splitlines()[1:4:2] == [
        f"{lo},2000,0.5,2001", f"{hi},2000,1.0000000000000001e+300,"]
    assert np.array_equal(read_panel_csv(path).unit, panel.unit)
    # a float id as large as a float below 2**63 can be is accepted
    big = float(np.nextafter(2.0 ** 63, 0))
    Panel(np.array([big, -2.0 ** 63]), np.array([2000, 2000]), np.zeros(2),
          np.full(2, math.nan), np.empty((2, 0)), ())


# ---------------------------------------------------------------------------
# CSV cell kernels: "%.17g" and str, a whole array at a time

def cell_text(cells):
    """The cells of a cell matrix as text, the pad bytes dropped."""
    return [bytes(row[row != csvcells._PAD]).decode() for row in cells]


def longest_cell(cells):
    """The byte length of the longest cell of a cell matrix."""
    return np.count_nonzero(cells != csvcells._PAD, axis=1).max(initial=0)


def neighbours_of_powers_of_ten():
    values = []
    for k in range(-29, 19):
        for toward in (-math.inf, math.inf):
            values.append(math.nextafter(10.0 ** k, toward))
        values.append(10.0 ** k)
    return values


# x * 10**(16 - E) is a half-integer for x = odd * 2**(E - 17): the 17th
# significant digit is an exact tie, which goes to the even digit
DYADIC_TIES = [(2 ** 17 + 1) / 2 ** 17, (2 ** 17 + 3) / 2 ** 17,  # 1.00000762939453125 ...
               1000 + 2.0 ** -14, 1000 + 3 * 2.0 ** -14, 2.0 ** 53 + 2, 0.5 + 2.0 ** -18]
# the same below 1e-6, where 10**s is not a double: x = m * 2**(-s - 1), m
# odd, makes x * 10**s = m * 5**s / 2 (3 * 2**-24 * 10**23 = ...187.5)
SMALL_TIES = [math.ldexp(m, -s - 1) for s in range(23, 26) for m in range(1, 40, 2)
              if 2 * 10 ** 16 <= m * 5 ** s < 2 * 10 ** 17]
# x * 10**s within 2**-52 of a half-integer, not on it: a double sum of the
# four parts rounds such a tail to the tie; found as x = m 2**-(L + s), m
# from m 5**s = 2**(L - 1) + r (mod 2**L) for the smallest |r| giving m < 2**53
NEAR_TIES = [4.9102966142601843e-08, 4.95286445202696e-09, 4.974148370910348e-10,
             6.83280278535067e-11, 6.83280278535067e-12, 5.979734131126677e-13,
             8.839990188244671e-14, 8.839990188244671e-15, 7.548400156595142e-16]
POWERS_OF_TWO = [2.0 ** -k for k in range(14, 94)]
# the kernel's range is [10**-29, 1e17); the double 1e-29 lies just below it
RANGE_EDGES = [1e-29, math.nextafter(1e-29, math.inf), 1e-28, 1e17, math.nextafter(1e17, 0)]
FLOAT_EDGES = [9.9999999999999999e16, 1e16, 1e-4, *neighbours_of_powers_of_ten(), *DYADIC_TIES,
               *SMALL_TIES, *NEAR_TIES, *POWERS_OF_TWO, *RANGE_EDGES]
FLOAT_BITS = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64)))


def in_kernel_range(v):
    return 1e-29 < abs(v) < 1e17


def test_small_ties_are_ties_and_near_ties_are_near():
    assert 3 * 2.0 ** -24 in SMALL_TIES and len(SMALL_TIES) == 9
    for x in SMALL_TIES + NEAR_TIES:
        s = 16 - math.floor(math.log10(x))
        off_tie = abs(Fraction(x) * 10 ** s % 1 - Fraction(1, 2))
        assert s > 22 and (off_tie == 0) == (x in SMALL_TIES) and off_tie <= 2.0 ** -52


def test_powers_of_ten_split_exactly():
    for s in range(len(csvcells._POW10)):
        assert int(csvcells._POW10[s]) + int(csvcells._POW10_LO[s]) == 10 ** s
    assert not csvcells._POW10_LO[:23].any() and csvcells._POW10_LO[23:].all()


@given(st.lists(st.floats() | FLOAT_BITS, max_size=40))
@example(FLOAT_EDGES + [-v for v in FLOAT_EDGES])
@example([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308,
          1.7976931348623157e308, 1e17, 99999999999999984.0, 9.999999999999999e-05])
@example([0.15, 0.15, 0.15, 0.0, -0.0, -0.0, math.nan, math.nan, 3 * 2.0 ** -24, 3 * 2.0 ** -24])
def test_float_cells_match_percent_17g(values):
    x = np.array(values, dtype=np.float64)
    assert cell_text(csvcells._float_cells(x)) == ["" if v != v else "%.17g" % v
                                                   for v in values]


@given(st.lists(st.floats(1e-29, 1e17, exclude_min=True, exclude_max=True) | FLOAT_BITS,
                max_size=40))
@example([v for v in FLOAT_EDGES if in_kernel_range(v)])
def test_float_cells_take_every_value_in_range_without_percent(values):
    """Only zeros, infinities, NaN and magnitudes outside [10**-29, 1e17)
    are formatted one by one: a value that needs its decade corrected, or
    that lies below 1e-6, where 10**(16 - E) is not a double, is not."""
    values = [v for v in values if in_kernel_range(v)] + [0.0, 1e-29, 1e17, math.inf]
    x = np.concatenate([values, np.negative(values)])
    with unittest.mock.patch.object(csvcells, "_FLOAT_FORMAT", "slow %.17g"):
        text = cell_text(csvcells._float_cells(x))
    assert text == [("%.17g" if in_kernel_range(v) else "slow %.17g") % v for v in x.tolist()]


@given(st.lists(st.floats() | FLOAT_BITS, max_size=40))
@example([])
@example([math.nan])
@example([1.5, -0.0])
@example([1e-300, 1.5])
def test_float_cells_are_as_wide_as_their_longest_cell(values):
    cells = csvcells._float_cells(np.array(values, dtype=np.float64))
    assert cells.shape == (len(values), longest_cell(cells))


@given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=40))
@example([])
@example([-5, 7])
@example([-2 ** 63, 0])
def test_int_cells_are_as_wide_as_their_longest_cell(values):
    cells = csvcells._int_cells(np.array(values, dtype=np.int64))
    assert cells.shape == (len(values), longest_cell(cells))


@given(st.lists(st.sampled_from(["ok", "singular", "", "a,b", 'say "x"']) | st.text(max_size=6),
                max_size=40).map(sorted))
@example([])
@example(["ok", "ok", "singular", "ok"])
def test_run_cells_match_text_cells(values):
    """Formatted once per run of equal neighbours (sorted lists make long
    runs), quoted ones among them; as wide as the longest cell."""
    values = np.array(values, dtype=str)  # drops trailing NULs, as a grid's mask does
    cells = csvcells._run_cells(values)
    assert cell_text(cells) == cell_text(csvcells._text_cells(values.tolist()))
    assert cells.shape == (len(values), longest_cell(cells))


@given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=40))
@example([2 ** 63 - 1, -(2 ** 63 - 1), -2 ** 63, 0, 1, -1, 9999, 10000, -10 ** 18])
@example([7, 7, 7, -7, -7, 2000, 2000, 0])
def test_int_cells_match_str(values):
    x = np.array(values, dtype=np.int64)
    assert cell_text(csvcells._int_cells(x)) == [str(v) for v in values]


@pytest.mark.parametrize("values", [np.array([0, 7, 255], dtype=np.uint8),
                                    np.array([0, 10 ** 19, 2 ** 64 - 1], dtype=np.uint64),
                                    np.array([-128, 0, 127], dtype=np.int8)],
                         ids=["uint8", "uint64", "int8"])
def test_int_cells_of_narrow_and_unsigned_dtypes(values):
    assert cell_text(csvcells._int_cells(values)) == [str(v) for v in values.tolist()]



@pytest.mark.parametrize("text, match", [
    ("", "^panel CSV line 1: no header$"),
    ("unit,year,outcome,adoption_year\n0,2000,1.0\n",
     "^panel CSV line 2: 3 cells under a header of 4$"),
    ("unit,year,outcome,adoption_year,c\n0,2000,1.0,,0.5\n1,2000,2.0,,0.5,0.7\n",
     "^panel CSV line 3: 6 cells under a header of 5$"),
    ("unit,year,outcome,adoption_year\n0,2000,1.0,\n0,2001,abc,\n",
     "^panel CSV line 3: could not convert string to float: 'abc'$"),
], ids=["empty", "short-row", "ragged-control-row", "bad-float"])
def test_malformed_panel_csv_names_the_line(tmp_path, text, match):
    path = tmp_path / "panel.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DomainError, match=match):
        read_panel_csv(path)


@pytest.mark.parametrize("column, values", [
    ("unit", [0.0, 0.5]),
    ("unit", [0.0, math.nan]),
    ("year", [2000.0, 2000.25]),
    ("adoption_year", [2001.5, math.nan]),
    ("adoption_year", [math.inf, math.nan]),
], ids=["fractional-unit", "nan-unit", "fractional-year", "fractional-adoption",
        "infinite-adoption"])
def test_panel_refuses_ids_and_years_that_are_not_whole(column, values):
    """The CSV writes ids and years as integers: a fractional one would read
    back as another id or year (2001.5 as 2001, a year earlier)."""
    cols = {"unit": np.array([0.0, 1.0]), "year": np.array([2000.0, 2000.0]),
            "adoption_year": np.array([2001.0, math.nan])}

    def panel():
        return Panel(cols["unit"], cols["year"], np.zeros(2), cols["adoption_year"],
                     np.empty((2, 0)), ())

    panel()  # whole floats and a NaN adoption year are accepted
    cols[column] = np.array(values)
    with pytest.raises(DomainError, match=f"^{column} values must be whole numbers$"):
        panel()


def test_fractional_adoption_year_in_csv_refused(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("unit,year,outcome,adoption_year\n"
                    "0,2000,0.0,2001.5\n0,2001,0.0,2001.5\n0,2002,1.0,2001.5\n"
                    "1,2000,0.0,\n1,2001,0.0,\n1,2002,0.0,\n", encoding="utf-8")
    with pytest.raises(DomainError, match="^adoption_year values must be whole numbers$"):
        read_panel_csv(path)
