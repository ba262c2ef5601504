import numpy as np
import pytest

from dataecon import (DesignError, DgpConfig, DomainError, Panel,
                      RankDeficiencyError, event_study, generate_panel,
                      read_panel_csv, twfe_did, write_panel_csv)
from dataecon import empirics
from dataecon.empirics import _treated_mask


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
    post = _treated_mask(treated.relative_period())
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


def test_panel_structure():
    panel = generate_panel(small_cfg())
    assert panel.balanced
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
    with pytest.raises(DomainError):
        DgpConfig(adoption_years=(1990,), years=(2000, 2010))


def test_duplicate_rows_rejected():
    with pytest.raises(DomainError):
        Panel(np.array([0, 0]), np.array([2000, 2000]), np.zeros(2),
              np.array([np.nan, np.nan]), np.empty((2, 0)), ())


# ---------------------------------------------------------------------------
# TWFE estimator

def test_zero_noise_recovers_effect_exactly():
    res = twfe_did(generate_panel(small_cfg()))
    assert abs(res.att - 0.05) < 1e-10
    assert res.n_units_absorbed == 60


def test_demeaning_that_does_not_converge_raises(monkeypatch):
    monkeypatch.setattr(empirics, "_DEMEAN_MAX_SWEEPS", 1)
    with pytest.raises(DesignError, match=r"did not converge in 1 sweeps \(final drift"):
        twfe_did(generate_panel(small_cfg(noise_scale=0.2)))


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


def test_se_positive_with_noise():
    res = twfe_did(generate_panel(small_cfg(noise_scale=0.2)))
    assert res.se > 0.0


def test_rank_deficiency_names_columns():
    panel = generate_panel(small_cfg(noise_scale=0.1, control_coefs=(0.5,)))
    dup = Panel(panel.unit, panel.year, panel.outcome, panel.adoption_year,
                np.column_stack([panel.controls, panel.controls[:, 0]]),
                ("control_1", "control_dup"))
    with pytest.raises(RankDeficiencyError) as exc:
        twfe_did(dup)
    assert "control_dup" in str(exc.value) or "control_1" in str(exc.value)


def test_no_treated_units_design_error():
    panel = generate_panel(small_cfg(share_treated=0.0))
    with pytest.raises(DesignError):
        twfe_did(panel)


def test_all_treated_before_span_design_error():
    cfg = small_cfg(share_treated=1.0, adoption_years=(2000,),
                    noise_scale=0.1)
    panel = generate_panel(cfg)
    with pytest.raises(DesignError):
        twfe_did(panel)


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
    assert back.balanced


def test_panel_csv_header_schema(tmp_path):
    panel = generate_panel(small_cfg(control_coefs=(0.5,)))
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "unit,year,outcome,adoption_year,control_1"
