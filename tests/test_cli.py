import csv
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from dataecon import (ConfigError, RenderSpec, baseline_params, grid_sweep,
                      iso_equilibrium_contour, phase_portrait, render_svg,
                      steady_state)
from dataecon.cli import dumps_json, format_float, main, parse_config, run_command
from dataecon.svgplot import render_phase

BASE = baseline_params()


def read_sweep_csv(path):
    """Rows of a sweep CSV as dicts, quantities as floats (NaN when empty)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key in ("theta", "eta", "k_star", "c_star", "l_star", "y_star", "r_star"):
            row[key] = float(row[key]) if row[key] else float("nan")
    return rows


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "dataecon.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


# ---------------------------------------------------------------------------
# configuration

def test_defaults_are_baseline():
    cfg = parse_config(None, {})
    p = cfg.params
    assert (p.alpha, p.beta, p.w, p.delta, p.rho, p.sigma, p.a) == \
        (0.6, 0.2, 1.0, 0.08, 0.07, 2.0, 2.0)


def test_flag_overrides_file_overrides_baseline(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"params": {"eta": 0.4, "theta": 0.3}}))
    cfg = parse_config(str(cfg_file), {"eta": 0.2})
    assert cfg.params.eta == 0.2       # flag wins
    assert cfg.params.theta == 0.3     # file wins over baseline
    assert cfg.params.alpha == 0.6     # baseline fallback


def test_unknown_top_level_key_rejected(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"sweeep": {}}))
    with pytest.raises(ConfigError) as exc:
        parse_config(str(cfg_file), {})
    assert "sweeep" in str(exc.value)


def test_unknown_section_key_rejected(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"sweep": {"theta_minn": 0.1}}))
    with pytest.raises(ConfigError) as exc:
        parse_config(str(cfg_file), {})
    assert "sweep.theta_minn" in str(exc.value)


def test_bad_type_rejected(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"sweep": {"theta_n": "fifty"}}))
    with pytest.raises(ConfigError):
        parse_config(str(cfg_file), {})


def test_invalid_param_file_exits_2_naming_field(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"params": {"alpha": 1.5}}))
    proc = run_cli("steady", "--config", str(cfg_file), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "alpha" in proc.stderr


def test_unknown_format_rejected():
    with pytest.raises(ConfigError):
        parse_config(None, {"format": "csv,pdf"})


def test_seed_flag_reaches_dgp():
    cfg = parse_config(None, {"seed": 99})
    assert cfg.dgp.seed == 99
    assert cfg.seed == 99


# ---------------------------------------------------------------------------
# commands end to end

def test_steady_eta0_json(tmp_path):
    proc = run_cli("steady", "--eta", "0", "--out", str(tmp_path))
    assert proc.returncode == 0
    doc = json.loads((tmp_path / "steady.json").read_text())
    assert doc["result"]["k_star"] == pytest.approx(51.199, abs=0.01)
    assert doc["result"]["c_star"] == pytest.approx(8.706, abs=0.01)
    assert doc["meta"]["params"]["eta"] == 0
    assert (tmp_path / "effective_config.json").exists()


def test_effective_config_lists_every_parameter(tmp_path):
    run_cli("steady", "--out", str(tmp_path))
    doc = json.loads((tmp_path / "effective_config.json").read_text())
    for name in ("alpha", "beta", "eta", "theta", "w", "delta", "rho",
                 "sigma", "a", "singular_band"):
        assert name in doc["params"]
    for section in ("sweep", "phase", "threshold", "contour", "dgp", "did"):
        assert section in doc


def test_singular_regime_exits_1(tmp_path):
    proc = run_cli("steady", "--eta", "0.3333", "--out", str(tmp_path))
    assert proc.returncode == 1
    assert "singular" in proc.stderr


def test_sweep_csv_shape_and_mask(tmp_path):
    proc = run_cli("sweep", "--out", str(tmp_path), "--format", "csv")
    assert proc.returncode == 0
    rows = read_sweep_csv(tmp_path / "sweep.csv")
    assert len(rows) == 2500
    masks = {r["mask"] for r in rows}
    assert masks == {"ok", "singular"}
    n_sing = sum(r["mask"] == "singular" for r in rows)
    assert n_sing == 200  # four eta gridlines fall inside the band
    for r in rows[:50]:
        if r["mask"] == "singular":
            assert np.isnan(r["k_star"])


def test_sweep_csv_round_trip(tmp_path):
    run_cli("sweep", "--out", str(tmp_path), "--format", "csv")
    rows = read_sweep_csv(tmp_path / "sweep.csv")
    thetas = np.linspace(0.05, 0.95, 50)
    etas = np.linspace(0.05, 0.95, 50)
    grid = grid_sweep(BASE, thetas, etas)
    k = grid.values("k_star")
    for n, row in enumerate(rows):
        i, j = divmod(n, 50)
        assert row["theta"] == thetas[i]
        assert row["eta"] == etas[j]
        assert row["mask"] == grid.mask[i, j]
        if row["mask"] == "ok":
            assert row["k_star"] == k[i, j]  # 17-digit serialization is exact


def test_shock_displacement_json_and_svg(tmp_path):
    proc = run_cli("shock", "--eta-before", "0.1", "--eta-after", "0.2",
                   "--out", str(tmp_path))
    assert proc.returncode == 0
    doc = json.loads((tmp_path / "shock.json").read_text())
    assert doc["result"]["dk_star"] > 0.0
    assert doc["result"]["params_before"]["eta"] == 0.1
    assert doc["result"]["params_after"]["eta"] == 0.2
    svg = (tmp_path / "shock.svg").read_text()
    assert svg.startswith("<?xml") and "</svg>" in svg


def test_qsteady_matches_household_side(tmp_path):
    proc = run_cli("qsteady", "--out", str(tmp_path))
    assert proc.returncode == 0
    doc = json.loads((tmp_path / "qsteady.json").read_text())
    assert doc["result"]["q"] == 1
    assert doc["result"]["relative_gap"] <= 1e-8
    assert doc["result"]["investment_rate"] == pytest.approx(0.08, rel=1e-12)


def test_threshold_command(tmp_path):
    proc = run_cli("threshold", "--out", str(tmp_path))
    assert proc.returncode == 0
    lines = (tmp_path / "threshold.csv").read_text().splitlines()
    assert lines[0] == "theta,eta_star,c_star_max,shape"
    assert len(lines) == 10
    stars = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(b >= a - 1e-4 for a, b in zip(stars, stars[1:]))


def test_contour_command(tmp_path):
    proc = run_cli("contour", "--level", "0.02", "--out", str(tmp_path))
    assert proc.returncode == 0
    doc = json.loads((tmp_path / "contour.json").read_text())
    assert doc["result"]["level"] == 0.02
    assert doc["result"]["n_points"] > 10
    lines = (tmp_path / "contour.csv").read_text().splitlines()
    assert lines[0] == "component,theta,eta"


def test_phase_command(tmp_path):
    proc = run_cli("phase", "--out", str(tmp_path))
    assert proc.returncode == 0
    doc = json.loads((tmp_path / "phase.json").read_text())
    assert doc["result"]["classification"] == "saddle"
    assert (tmp_path / "phase_nullclines.csv").exists()
    assert (tmp_path / "phase_saddle.csv").exists()
    assert (tmp_path / "phase_field.csv").exists()


def test_did_sim_command(tmp_path):
    proc = run_cli("did-sim", "--seed", "3", "--out", str(tmp_path))
    assert proc.returncode == 0
    doc = json.loads((tmp_path / "did.json").read_text())
    assert doc["result"]["n_obs"] > 0
    assert doc["result"]["se"] >= 0.0
    lines = (tmp_path / "event_study.csv").read_text().splitlines()
    assert lines[0] == "period,coefficient,std_error"
    assert (tmp_path / "panel.csv").exists()
    assert (tmp_path / "panel.csv.meta.json").exists()


def test_usage_error_on_unknown_command():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


# ---------------------------------------------------------------------------
# determinism

@pytest.mark.parametrize("args", [
    ("steady", "--eta", "0.1"),
    ("sweep",),
    ("contour", "--level", "0.02"),
    ("phase",),
    ("did-sim", "--seed", "5"),
])
def test_byte_identical_reruns(tmp_path, args):
    out = tmp_path / "o"
    assert run_cli(*args, "--out", str(out)).returncode == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run_cli(*args, "--out", str(out)).returncode == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(first) == sorted(second)
    for name, blob in first.items():
        assert second[name] == blob, name


# ---------------------------------------------------------------------------
# rendering

def test_svg_deterministic_for_fixed_artifact():
    portrait = phase_portrait(BASE, include_saddle=False)
    spec = RenderSpec(kind="phase")
    assert render_svg(portrait, spec) == render_svg(portrait, spec)


def test_empty_contour_has_axes_but_no_paths():
    grid = grid_sweep(BASE, np.linspace(0.1, 0.9, 6), np.linspace(0.6, 0.9, 6))
    cont = iso_equilibrium_contour(grid, "c_star", 1e9)
    svg = render_svg(cont, RenderSpec(kind="contour"))
    assert "<rect" in svg and "<text" in svg
    assert "<polyline" not in svg


def test_phase_marker_within_one_pixel():
    portrait = phase_portrait(BASE, include_saddle=False)
    spec = RenderSpec(kind="phase")
    svg = render_phase(portrait, spec)
    circles = re.findall(r'<circle cx="([-0-9.]+)" cy="([-0-9.]+)"', svg)
    assert len(circles) == 1
    cx, cy = map(float, circles[0])
    ss = steady_state(BASE)
    x0, x1 = portrait.k_range
    y0, y1 = 0.0, float(np.max(portrait.c_nullcline[:, 1]))
    px0, px1 = 56.0, spec.width - 18.0
    py0, py1 = spec.height - 56.0, 30.0
    expect_x = px0 + (ss.k_star - x0) / (x1 - x0) * (px1 - px0)
    expect_y = py0 + (ss.c_star - y0) / (y1 - y0) * (py1 - py0)
    assert abs(cx - expect_x) <= 1.0
    assert abs(cy - expect_y) <= 1.0


def test_render_kind_mismatch_rejected():
    from dataecon import DomainError
    portrait = phase_portrait(BASE, include_saddle=False)
    with pytest.raises(DomainError):
        render_svg(portrait, RenderSpec(kind="event-study"))
    with pytest.raises(DomainError):
        render_svg(portrait, RenderSpec(kind="surface-heatmap"))


def test_render_spec_validation():
    from dataecon import DomainError
    with pytest.raises(DomainError):
        RenderSpec(kind="phase", width=0)
    with pytest.raises(DomainError):
        RenderSpec(kind="phase", x_range=(1.0, 1.0))
    with pytest.raises(DomainError):
        RenderSpec(kind="phase", colormap="jet")


# ---------------------------------------------------------------------------
# serialization details

def test_format_float_round_trip():
    for v in (0.1, 1.0 / 3.0, 51.2, 8.704, 1e-300, 123456.789012345678):
        assert float(format_float(v)) == v


def test_dumps_json_sorted_and_parseable():
    doc = dumps_json({"b": 1.5, "a": [1, 2.25], "c": {"y": True, "x": None}})
    parsed = json.loads(doc)
    assert parsed == {"a": [1, 2.25], "b": 1.5, "c": {"x": None, "y": True}}
    assert doc.index('"a"') < doc.index('"b"') < doc.index('"c"')


def test_run_command_unknown_rejected(tmp_path):
    cfg = parse_config(None, {"out": str(tmp_path)})
    with pytest.raises(ConfigError):
        run_command(cfg, "nope")


def test_main_returns_codes(tmp_path):
    assert main(["steady", "--eta", "0", "--out", str(tmp_path / "x")]) == 0
    assert main(["steady", "--eta", "0.3333", "--out", str(tmp_path / "y")]) == 1
    assert main(["steady", "--alpha", "7", "--out", str(tmp_path / "z")]) == 2


def test_optional_list_config_fields(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "dgp": {"adoption_years": [2005, 2007], "dynamic_profile": [0, 0, 0.02]},
        "threshold": {"eta_lo": 0.45, "eta_hi": 0.9},
    }))
    cfg = parse_config(str(cfg_file), {})
    assert cfg.dgp.adoption_years == (2005, 2007)
    assert cfg.dgp.dynamic_profile == (0, 0, 0.02)
    assert cfg.threshold.eta_lo == 0.45
