import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dataecon import (ConfigError, RenderSpec, baseline_params, generate_panel, grid_sweep,
                      iso_equilibrium_contour, phase_portrait, steady_state, twfe_did)
from dataecon import cli, svgplot, sweep
from dataecon.cli import (RunConfig, ThresholdOptions, dumps_json, effective_config,
                          format_float, main, parse_config, run_command, write_csv)
from dataecon.svgplot import render_contour, render_phase

from .test_empirics import rowwise_panel_csv
from .test_svgplot import DEFECT_PARAMS, svg_numbers_finite
from .textdiff import first_difference

BASE = baseline_params()


def read_sweep_csv(path):
    """Rows of a sweep CSV as dicts, quantities as floats (NaN when empty)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key in ("theta", "eta", "k_star", "c_star", "l_star", "y_star", "r_star"):
            row[key] = float(row[key]) if row[key] else float("nan")
    return rows


ROOT = Path(__file__).resolve().parents[1]
# child interpreters import the package from this checkout's src/
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


# a hung command fails its test instead of stalling the suite
TIMEOUT_S = 600


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "dataecon.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=ENV,
                          timeout=TIMEOUT_S)


def run_script(name, *args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=ENV, timeout=TIMEOUT_S)


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


@pytest.mark.parametrize("section, key, value", [
    ("phase", "k_lo_frac", 0.5), ("phase", "k_hi_frac", 1.5), ("phase", "samples", 241),
    ("phase", "field_nk", 15), ("phase", "field_nc", 12),
    ("did", "window_lead", -5), ("did", "window_lag", 5),
])
def test_older_effective_config_with_a_removed_key_exits_2(tmp_path, capsys, section, key,
                                                           value):
    """The phase window and the event-study window are fixed: an older
    ``effective_config.json`` that still sets them is refused, not ignored."""
    doc = json.loads(dumps_json(effective_config(parse_config(None, {}))))
    doc[section][key] = value
    cfg_file = tmp_path / "effective_config.json"
    cfg_file.write_text(json.dumps(doc))
    assert main(["steady", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: unknown key '{section}.{key}'\n"
    assert not (tmp_path / "o").exists()


def test_oversized_sweep_exits_1_before_allocating(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sweep.np, "meshgrid", None)  # no grid may be built first
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"sweep": {"theta_n": 100_000, "eta_n": 100_000}}))
    assert main(["sweep", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == ("error: grid of 100000 x 100000 cells exceeds "
                                       "2500000 cells\n")


@pytest.mark.parametrize("command, section, cells", [
    ("sweep", {"theta_n": 30_000_000, "eta_n": 2}, "30000000 x 2"),
    ("sweep", {"theta_n": 10**18}, "1000000000000000000 x 50"),
    ("contour", {"eta_n": 10**20}, "46 x 100000000000000000000"),
], ids=["sweep-3e7x2", "sweep-1e18", "contour-1e20"])
def test_oversized_surface_refused_before_building_its_axes(tmp_path, capsys, monkeypatch,
                                                            command, section, cells):
    def linspace(*args, **kwargs):
        raise AssertionError("an axis was built before the grid bound was checked")

    monkeypatch.setattr(cli.np, "linspace", linspace)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({command: section}))
    assert main([command, "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: grid of {cells} cells exceeds 2500000 cells\n"
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["effective_config.json"]


def test_oversized_threshold_exits_1_before_evaluating(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sweep, "_MAX_CELLS", 2)
    monkeypatch.setattr(sweep, "steady_states", None)
    monkeypatch.setattr(sweep, "Coefficients", None)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"threshold": {"thetas": [0.5] * 3}}))
    assert main(["threshold", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: 3 thetas exceed the bound of 2\n"
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["effective_config.json"]


def test_bad_type_rejected(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    for doc in ({"sweep": {"theta_n": "fifty"}}, {"dgp": {"seed": "x"}}):
        cfg_file.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            parse_config(str(cfg_file), {})


def test_every_field_written_at_its_default_parses_to_the_default(tmp_path):
    default = parse_config(None, {})
    doc = json.loads(dumps_json(effective_config(default)))
    del doc["version"]
    assert set(doc) == {f.name for f in fields(RunConfig)}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(doc))
    assert parse_config(str(cfg_file), {}) == default


def assert_same_files(first, second):
    """Both run directories hold the same files, byte for byte apart from
    ``out_dir`` in ``effective_config.json``."""
    assert sorted(p.name for p in first.iterdir()) == sorted(p.name for p in second.iterdir())
    for path in first.iterdir():
        if path.name == "effective_config.json":
            a, b = (json.loads((d / path.name).read_text()) for d in (first, second))
            assert a.pop("out_dir") == str(first) and b.pop("out_dir") == str(second)
            assert a == b
        else:
            assert (second / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("args", [
    ("steady",),
    ("sweep",),
    ("contour", "--level", "0.02", "--variable", "k_star"),
    ("shock", "--eta-before", "0.1", "--eta-after", "0.2"),
    ("did-sim", "--seed", "7"),
])
def test_effective_config_reproduces_the_run(tmp_path, args):
    first, second = tmp_path / "first", tmp_path / "second"
    assert run_cli(*args, "--out", str(first)).returncode == 0
    proc = run_cli(args[0], "--config", str(first / "effective_config.json"),
                   "--out", str(second))
    assert proc.returncode == 0, proc.stderr
    assert_same_files(first, second)


def test_contour_variable_flag_matches_the_file(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"contour": {"variable": "y_star"}}))
    flag, file = tmp_path / "flag", tmp_path / "file"
    assert run_cli("contour", "--variable", "y_star", "--out", str(flag)).returncode == 0
    proc = run_cli("contour", "--config", str(cfg_file), "--out", str(file))
    assert proc.returncode == 0, proc.stderr
    assert json.loads((flag / "contour.json").read_text())["result"]["variable"] == "y_star"
    assert_same_files(flag, file)


def test_config_version_must_match(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"version": cli.__version__}))
    assert parse_config(str(cfg_file), {}) == parse_config(None, {})
    for version in ("0.0.0", 1, None):
        cfg_file.write_text(json.dumps({"version": version}))
        with pytest.raises(ConfigError, match="config version"):
            parse_config(str(cfg_file), {})


def test_half_given_eta_range_refused():
    for half in ({"eta_lo": 0.1}, {"eta_hi": 0.5}):
        with pytest.raises(ConfigError, match="give both eta_lo and eta_hi"):
            ThresholdOptions(**half)
    assert ThresholdOptions(eta_lo=0.45, eta_hi=0.9).eta_hi == 0.9


def test_invalid_param_file_exits_2_naming_field(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"params": {"alpha": 1.5}}))
    proc = run_cli("steady", "--config", str(cfg_file), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "alpha" in proc.stderr


@pytest.mark.parametrize("doc", [
    {"dgp": {"dynamic_profile": []}},
    {"dgp": {"dynamic_profile": [0.0, "x"]}},
    {"dgp": {"control_coefs": ["x"]}},
    {"threshold": {"thetas": ["a"]}},
    {"threshold": {"thetas": [0.5, True]}},
    {"dgp": {"years": [2000.5, 2010]}},
])
def test_bad_config_list_exits_2(tmp_path, doc):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(doc))
    proc = run_cli("did-sim", "--config", str(cfg_file), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


MALFORMED_VALUES = [
    ("contour", '{"contour": {"level": [1, 2]}}', "contour.level must be a number"),
    ("threshold", '{"threshold": {"eta_lo": [0.1], "eta_hi": 0.5}}',
     "threshold.eta_lo must be a number"),
    ("threshold", '{"threshold": {"eta_lo": 0.1}}', "give both eta_lo and eta_hi"),
    ("sweep", '{"sweep": {"theta_n": NaN}}', "sweep.theta_n must be an integer"),
    ("sweep", '{"sweep": {"theta_min": 1%s}}' % ("0" * 400), "sweep.theta_min must be a number"),
    ("steady", '{"dgp": {"n_units": 1e400}}', "dgp.n_units must be an integer"),
    ("did-sim", '{"dgp": {"seed": "x"}}', "dgp.seed must be an integer"),
    ("steady", '{"params": [["eta", 0.3]]}', "'params' must be a JSON object"),
    ("steady", '{"params": {"w": true}}', "params.w must be a number"),
    ("steady", '{"params": {"w": 1e400}}', "w must be a finite number, got inf"),
    ("did-sim", '{"dgp": {"adoption_years": [2005.5, 2010]}}',
     "dgp.adoption_years[0] must be an integer"),
    ("did-sim", '{"dgp": {"dynamic_profile": 0.5}}', "dgp.dynamic_profile must be a list"),
    ("did-sim", '{"dgp": {"years": [2000]}}', "dgp.years must be a list of 2 items"),
    ("did-sim", '{"dgp": {"n_units": 1000000000}}',
     "invalid dgp: panel would hold 80000000000 cells (limit 50000000)"),
    ("did-sim", '{"dgp": {"unit_effect_scale": -1}}',
     "invalid dgp: unit_effect_scale must be nonnegative, got -1.0"),
    ("did-sim", '{"dgp": {"year_effect_scale": -1}}',
     "invalid dgp: year_effect_scale must be nonnegative, got -1.0"),
    ("did-sim", '{"dgp": {"seed": -1}}', "invalid dgp: seed must be nonnegative, got -1"),
    ("steady", '{"dgp": {"effect": NaN}}', "invalid dgp: effect must be finite, got nan"),
    ("did-sim", '{"dgp": {"dynamic_profile": [0.1, -Infinity]}}',
     "invalid dgp: dynamic_profile must be finite, got (0.1, -inf)"),
    ("did-sim", '{"dgp": {"control_coefs": [Infinity]}}',
     "invalid dgp: control_coefs must be finite, got (inf,)"),
    ("threshold", '{"threshold": {"thetas": []}}', "invalid threshold: thetas must be a nonempty"),
    ("sweep", '{"sweep": {"theta_n": 0}}', "invalid sweep: theta_n must be at least 1, got 0"),
    ("sweep", '{"sweep": {"eta_n": -2}}', "invalid sweep: eta_n must be at least 1, got -2"),
    ("contour", '{"contour": {"theta_n": -1}}', "invalid contour: theta_n must be at least 1"),
    ("contour", '{"contour": {"eta_n": 0}}', "invalid contour: eta_n must be at least 1, got 0"),
]


@pytest.mark.parametrize("command, text, message", MALFORMED_VALUES,
                         ids=[message for _, _, message in MALFORMED_VALUES])
def test_malformed_config_value_exits_2(tmp_path, command, text, message):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(text)
    proc = run_cli(command, "--config", str(cfg_file), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


def test_unknown_format_rejected():
    with pytest.raises(ConfigError):
        parse_config(None, {"format": "csv,pdf"})


def test_seed_flag_reaches_dgp(tmp_path):
    default = parse_config(None, {})
    assert parse_config(None, {"seed": 99}) == replace(default, dgp=replace(default.dgp, seed=99))
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"dgp": {"seed": 11}}))
    assert parse_config(str(cfg_file), {}).dgp.seed == 11
    assert parse_config(str(cfg_file), {"seed": 99}).dgp.seed == 99
    cfg_file.write_text(json.dumps({"seed": 11}))  # the top-level key of older configs
    with pytest.raises(ConfigError, match="unknown key 'seed'"):
        parse_config(str(cfg_file), {})


def test_config_file_seed_reaches_dgp_through_main(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"dgp": {"seed": 11, "n_units": 40}}))
    for flags, seed in (((), 11), (("--seed", "5"), 5)):
        out = tmp_path / str(seed)
        assert main(["did-sim", "--config", str(cfg_file), "--out", str(out),
                     "--format", "json", *flags]) == 0
        did = json.loads((out / "did.json").read_text())
        assert did["meta"]["dgp"]["seed"] == seed and "seed" not in did["meta"]
        effective = json.loads((out / "effective_config.json").read_text())
        assert effective["dgp"]["seed"] == seed and "seed" not in effective


def test_did_sim_meta_records_the_file_seed(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"dgp": {"seed": 7, "n_units": 40}}))
    out = tmp_path / "o"
    proc = run_cli("did-sim", "--config", str(cfg_file), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    metas = [json.loads((out / "did.json").read_text())["meta"]]
    metas += [json.loads(p.read_text()) for p in sorted(out.glob("*.meta.json"))]
    assert len(metas) == 4  # did.json, panel.csv, event_study.csv, event_study.svg
    for meta in metas:
        assert meta["dgp"]["seed"] == 7 and "seed" not in meta


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


def csv_cell(v):
    """The per-cell rule write_csv applied before it formatted whole columns."""
    if isinstance(v, (float, np.floating)):
        return "" if math.isnan(v) else format_float(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return v


def write_rowwise_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([csv_cell(v) for v in row])


def rowwise_sweep_rows(grid):
    cols = (grid.k_star, grid.c_star, grid.l_star, grid.y_star, grid.r_star)
    for i, theta in enumerate(grid.theta_axis):
        for j, eta in enumerate(grid.eta_axis):
            mask = grid.mask[i, j]
            yield (theta, eta, mask, *(col[i, j] for col in cols),
                   "true" if mask == "ok" else "")


def test_sweep_csv_matches_rowwise_writer(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "params": {"w": 2.0, "alpha": 0.3, "beta": 0.5},
        "sweep": {"theta_min": 0.0, "theta_max": 0.99, "theta_n": 23,
                  "eta_min": 0.0, "eta_max": 0.99, "eta_n": 17},
        "formats": ["csv"], "out_dir": str(tmp_path / "o")}))
    cfg = parse_config(str(cfg_file))
    run_command(cfg, "sweep")
    grid = grid_sweep(cfg.params, np.linspace(0.0, 0.99, 23), np.linspace(0.0, 0.99, 17))
    assert {"ok", "singular", "degenerate"} <= set(grid.mask.ravel().tolist())
    write_rowwise_csv(tmp_path / "ref.csv", cli._SWEEP_HEADER, rowwise_sweep_rows(grid))
    assert first_difference((tmp_path / "o" / "sweep.csv").read_bytes().decode(),
                            (tmp_path / "ref.csv").read_bytes().decode()) is None


@pytest.mark.parametrize("eta_n", [17, 3], ids=["row-longer-than-chunk", "rows-per-chunk"])
def test_sweep_csv_chunk_seams_match_rowwise_writer(tmp_path, monkeypatch, eta_n):
    # chunks of 7 rows: one 17-cell theta row per block, or two 3-cell rows
    # per block and a last block of one
    cfg = parse_config(None, {"out": str(tmp_path / "o"), "format": "csv"})
    cfg = replace(cfg, sweep=replace(cfg.sweep, theta_n=23, eta_n=eta_n))
    monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", 7)
    run_command(cfg, "sweep")
    grid = grid_sweep(cfg.params, np.linspace(0.05, 0.95, 23), np.linspace(0.05, 0.95, eta_n))
    write_rowwise_csv(tmp_path / "ref.csv", cli._SWEEP_HEADER, rowwise_sweep_rows(grid))
    assert first_difference((tmp_path / "o" / "sweep.csv").read_bytes().decode(),
                            (tmp_path / "ref.csv").read_bytes().decode()) is None


def write_csv_with_csv_writer(path, header, blocks):
    """The column writer write_csv was before it joined its own rows: each
    column formatted in one pass, csv.writer quoting and joining the cells."""
    def column(col):
        arr = np.asarray(col)
        values = arr.tolist()
        if arr.dtype.kind == "f":
            return ["%.17g" % v if v == v else "" for v in values]
        if arr.dtype.kind in "iu":
            return list(map(str, values))
        return values

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for block in blocks:
            writer.writerows(zip(*(column(col) for col in block)))


# The references are compared on text without CR or NUL: csv.writer leaves
# a lone CR unquoted, which write_csv quotes, and the old column writer lost
# a trailing NUL to numpy's fixed-width str dtype (see the tests below).
CSV_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\x00"),
                   max_size=5)


def csv_column(n):
    """Strategy for one column of n cells, in each form write_csv accepts."""
    def sized(elements):
        return st.lists(elements, min_size=n, max_size=n)
    return st.one_of(
        sized(st.floats()).map(np.array),
        sized(st.floats()),
        sized(st.floats(width=32)).map(np.float32),
        sized(st.integers(-2**63, 2**63 - 1)).map(lambda v: np.array(v, dtype=np.int64)),
        sized(st.integers(0, 255)).map(lambda v: np.array(v, dtype=np.uint8)),
        sized(CSV_TEXT),
    )


@st.composite
def csv_tables(draw):
    width = draw(st.integers(1, 4))
    header = draw(st.lists(CSV_TEXT, min_size=width, max_size=width))
    sizes = draw(st.lists(st.integers(0, 4), max_size=3))
    return header, [[draw(csv_column(n)) for _ in range(width)] for n in sizes]


TINY = 5e-324  # the smallest subnormal


@given(csv_tables())
@example((["i", "f", "s", "list", "f32"], [
    (np.array([3, -1, 0]), np.array([0.1, math.nan, math.inf]),
     ["a", "", "b,c"], [1.5, 2.0, 1e-300], np.float32([0.1, 2, 3])),
    (np.array([7], dtype=np.uint8), np.array([-0.0]), ["x"], [math.nan],
     np.float32([math.nan])),
    ((), (), (), (), ())]))
# one-column rows whose cell is empty: csv.writer writes them as ""
@example(([""], [[["", "", "a"]], [np.array([math.nan, 1.0])], [[""]]]))
# commas, quotes and newlines in cells and in the header
@example((["a,b", 'say "x"', "l\nm"],
          [[["p,q", "", ""], ['"', "x\ny", 'z"'], np.array([1, 2, 3])]]))
@example((["f32", "u8", "f"], [
    [np.float32([math.inf, -math.inf, 1e-45]), np.array([0, 255], dtype=np.uint8)[[0, 1, 1]],
     np.array([TINY, -TINY, 2.2250738585072009e-308])],
    [np.float32([]), np.array([], dtype=np.uint8), np.array([])]]))
def test_write_csv_matches_rowwise_writer(tmp_path_factory, table):
    header, blocks = table
    out = tmp_path_factory.mktemp("csv")
    write_csv(out / "joined.csv", header, blocks)
    write_csv_with_csv_writer(out / "columns.csv", header, blocks)
    joined = (out / "joined.csv").read_bytes()
    assert joined == (out / "columns.csv").read_bytes()
    write_rowwise_csv(out / "rows.csv", header, [row for block in blocks for row in zip(*block)])
    assert joined == (out / "rows.csv").read_bytes()


@pytest.mark.parametrize("column", [
    np.array([1.5, None, "a"], dtype=object), ["a", None], np.array([True, False])],
    ids=["object", "list-with-None", "bool"])
def test_write_csv_refuses_other_columns(tmp_path, column):
    # these went through str one cell at a time; no artifact writes them
    with pytest.raises(TypeError, match="no CSV cells for a column of dtype"):
        write_csv(tmp_path / "other.csv", ["c"], [[column]])


def test_write_csv_keeps_a_trailing_nul_in_a_list_of_strings(tmp_path):
    write_csv(tmp_path / "nul.csv", ["s"], [[["a\x00", "b"]]])
    assert (tmp_path / "nul.csv").read_bytes() == b"s\na\x00\nb\n"


def test_write_csv_quotes_a_lone_carriage_return(tmp_path):
    # RFC 4180 quotes CR; csv.writer with LF line endings did not
    write_csv(tmp_path / "cr.csv", ["a\rb", "c"], [[["x\ry", "z"], np.array([1, 2])]])
    assert (tmp_path / "cr.csv").read_bytes() == b'"a\rb",c\n"x\ry",1\nz,2\n'
    with open(tmp_path / "cr.csv", newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [["a\rb", "c"], ["x\ry", "1"], ["z", "2"]]


CSV_COMMANDS = ["sweep", "threshold", "contour", "phase", "shock", "did-sim"]


@pytest.mark.parametrize("command", CSV_COMMANDS)
def test_csv_artifacts_match_csv_writer_references(tmp_path, monkeypatch, command):
    cfg = parse_config(None, {"out": str(tmp_path / "o"), "eta_before": 0.1, "eta_after": 0.2})

    def run():
        run_command(cfg, command)
        files = {p.name: p.read_bytes() for p in (tmp_path / "o").iterdir()}
        for p in (tmp_path / "o").iterdir():
            p.unlink()
        return files

    joined = run()
    with monkeypatch.context() as m:
        m.setattr(cli, "write_csv", write_csv_with_csv_writer)
        m.setattr(cli, "write_panel_csv", rowwise_panel_csv)
        reference = run()
    assert any(name.endswith(".csv") for name in joined)
    assert sorted(joined) == sorted(reference)
    assert [name for name in joined if joined[name] != reference[name]] == []


def test_threshold_range_ending_in_the_band_reports_the_searched_range(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "threshold": {"eta_lo": 0.05, "eta_hi": 0.32, "thetas": [0.5]},
        "out_dir": str(tmp_path / "o")}))
    cfg = parse_config(str(cfg_file))
    run_command(cfg, "threshold")
    p = cfg.params
    edge = (1 - p.alpha - p.beta) / p.alpha - p.singular_band / p.alpha  # band's lower edge
    assert edge < 0.32
    out = tmp_path / "o"
    assert json.loads((out / "threshold.json").read_text())["result"]["eta_range"] == [0.05, edge]
    for name in ("threshold.csv", "threshold.svg"):
        meta = json.loads((out / f"{name}.meta.json").read_text())
        assert meta["eta_range"] == [0.05, edge]


def test_did_sim_true_effect_is_the_dgp_mean_over_estimated_treated_rows(tmp_path):
    profile = [0.1, 0.3, 0.7]
    for drop in (True, False):
        out = tmp_path / f"o{drop}"
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "dgp": {"n_units": 20, "years": [2000, 2009], "adoption_years": [2003, 2005],
                    "noise_scale": 0.0, "dynamic_profile": profile},
            "did": {"drop_adoption_period": drop}, "out_dir": str(out)}))
        run_command(parse_config(str(cfg_file)), "did-sim")
        effects = []
        with open(out / "panel.csv", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                if row["adoption_year"]:
                    rel = int(row["year"]) - int(row["adoption_year"])
                    if rel > 0 or (rel == 0 and not drop):
                        effects.append(profile[min(rel, len(profile) - 1)])
        did = json.loads((out / "did.json").read_text())["result"]
        assert did["true_effect"] == pytest.approx(sum(effects) / len(effects), rel=1e-15)
    # without a profile the truth is the configured level shift itself
    cfg = parse_config(None, {"out": str(tmp_path / "flat")})
    run_command(replace(cfg, dgp=replace(cfg.dgp, effect=0.1)), "did-sim")
    assert json.loads((tmp_path / "flat" / "did.json").read_text())["result"]["true_effect"] == 0.1


def test_did_sim_on_two_units_exits_1(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"dgp": {"n_units": 2}}))
    assert main(["did-sim", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == ("error: 2 clusters give no usable cluster-robust "
                                       "standard error; need at least 3\n")


def test_did_sim_outcome_overflow_exits_1_before_writing_the_panel(tmp_path, capsys):
    """Effects of scale 1e308 overflow the outcome: the panel is refused
    before panel.csv is written, with no RuntimeWarning, where the fit had
    named rank-deficient columns."""
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"dgp": {"n_units": 10, "years": [2000, 2005],
                                            "unit_effect_scale": 1e308,
                                            "year_effect_scale": 1e308, "seed": 1}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["did-sim", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: outcome values must be finite\n"
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["effective_config.json"]


def test_did_sim_on_huge_outcomes_writes_finite_standard_errors(tmp_path):
    """Unit effects of scale 1e300 leave the outcome finite, but the squares
    of its cluster scores overflowed: RuntimeWarnings escaped, did.json read
    "se": null and event_study.svg held nan and inf coordinates."""
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"dgp": {"n_units": 20, "years": [2000, 2010],
                                            "unit_effect_scale": 1e300, "effect": 0.05,
                                            "seed": 1}}))
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["did-sim", "--config", str(cfg_file), "--out", str(out)]) == 0
    # did_fits' TWFE; twfe_did alone reads 1.1821162397778899e+282, 3e-15 away
    assert json.loads((out / "did.json").read_text())["result"]["se"] == 1.1821162397778935e+282
    for path in out.iterdir():
        assert not re.search(r"(?i)\b(nan|-?inf|-?infinity)\b", path.read_text()), path.name


@st.composite
def did_sim_docs(draw):
    """did-sim config documents: up to 40 units and 23 years, any share,
    adoption years inside and past the span, and unit, year and noise
    scales, effects, profiles and control coefficients of magnitude
    10^-3 to 10^300."""
    scale = st.floats(-3, 300).map(lambda e: 10.0 ** e)
    signed = st.tuples(st.sampled_from([-1.0, 1.0]), scale).map(lambda t: t[0] * t[1])
    y0 = draw(st.integers(1990, 2010))
    y1 = y0 + draw(st.integers(0, 22))
    dgp = {"n_units": draw(st.integers(2, 40)), "years": [y0, y1],
           "share_treated": draw(st.floats(0, 1)), "unit_effect_scale": draw(scale),
           "year_effect_scale": draw(scale), "noise_scale": draw(scale),
           "effect": draw(signed), "control_coefs": draw(st.lists(signed, max_size=2)),
           "seed": draw(st.integers(0, 2 ** 16))}
    if draw(st.booleans()):
        dgp["adoption_years"] = draw(st.lists(st.integers(y0, y1 + 3), min_size=1, max_size=3))
    if draw(st.booleans()):
        dgp["dynamic_profile"] = draw(st.lists(signed, min_size=1, max_size=5))
    return {"dgp": dgp, "did": {"drop_adoption_period": draw(st.booleans())}}


def refuse_constant(name):
    raise ValueError(f"non-finite JSON value {name}")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(doc=did_sim_docs(), rerun=st.booleans())
@example(doc={"dgp": {"n_units": 30, "years": [2000, 2010], "effect": 0.05, "seed": 1,
                      "control_coefs": [1e300]}}, rerun=True)
@example(doc={"dgp": {"n_units": 30, "years": [2000, 2010], "effect": 0.05, "seed": 1,
                      "control_coefs": [0.5, -1e154], "unit_effect_scale": 1e300}},
         rerun=False)
def test_did_sim_writes_finite_artifacts_or_exits_with_a_typed_error(doc, rerun):
    """Under warnings as errors, every did-sim config exits 0, 1 or 2 with
    no other exception; a run that exits 0 writes JSON with no non-finite
    value and SVG with no inf or nan coordinate, and reruns byte for byte."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_file = Path(tmp) / "cfg.json"
        cfg_file.write_text(json.dumps(doc))
        runs = [Path(tmp) / "first", Path(tmp) / "second"][:1 + rerun]
        for out in runs:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["did-sim", "--config", str(cfg_file), "--out", str(out)])
            assert code in (0, 1, 2)
        if code != 0:
            return
        for path in runs[0].iterdir():
            if path.suffix == ".json":
                json.loads(path.read_text(), parse_constant=refuse_constant)
            elif path.suffix == ".svg":
                assert svg_numbers_finite(path.read_text()), path.name
        if rerun:
            assert_same_files(*runs)


# SVG attributes that hold coordinates or lengths; the leading space keeps
# x="..." from matching the end of viewBox="..."
SVG_COORDINATE = re.compile(r' (?:x|y|x1|y1|x2|y2|cx|cy|r|width|height)="([^"]*)"')
SVG_POINTS = re.compile(r' points="([^"]*)"')


def svg_coordinates_finite(svg: str) -> bool:
    values = SVG_COORDINATE.findall(svg)
    values += [v for pts in SVG_POINTS.findall(svg) for v in re.split(r"[ ,]+", pts.strip())]
    return svg_numbers_finite(svg) and all(math.isfinite(float(v)) for v in values)


def test_did_sim_on_a_span_shorter_than_the_window_writes_every_artifact(tmp_path):
    """A 7-year span reaches relative period -4 at most, so period -5's bin
    holds no row, and period 0's none with the adoption year dropped: both
    are written as empty cells, and TWFE's result is written.  did-sim
    once exited 1 here, naming rel_-5 rank deficient."""
    dgp = {"n_units": 30, "years": [2000, 2006], "effect": 0.05, "seed": 1}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"dgp": dgp}))
    out = tmp_path / "o"
    assert main(["did-sim", "--config", str(cfg_file), "--out", str(out)]) == 0
    att = json.loads((out / "did.json").read_text())["result"]["att"]
    panel = generate_panel(parse_config(str(cfg_file)).dgp)
    assert abs(att - twfe_did(panel).att) <= 1e-12
    with open(out / "event_study.csv", newline="", encoding="utf-8") as fh:
        rows = {int(row["period"]): row for row in csv.DictReader(fh)}
    assert sorted(rows) == list(range(-5, 6))
    for period, row in rows.items():
        empty = (row["coefficient"], row["std_error"]) == ("", "")
        assert empty == (period in (-5, 0)), period
    assert svg_coordinates_finite((out / "event_study.svg").read_text())


def sorted_pair(lo, hi):
    return st.tuples(st.floats(lo, hi), st.floats(lo, hi)).filter(
        lambda t: t[0] != t[1]).map(sorted)


@st.composite
def model_docs(draw):
    """Config documents for the seven model commands: valid parameters
    with theta 0, 1 or 10^-300 to 1 and w 10^-2 to 10^3, and small sweep,
    contour, threshold and shock sections."""
    alpha = draw(st.floats(0.15, 0.9))
    beta = draw(st.floats(0.05, min(0.9, 1.0 - alpha)))
    eta_cap = min(0.95, (1.0 - beta) / alpha)  # 1 - beta - alpha*eta > 0
    eta = st.floats(0.0, 0.999).map(lambda u: u * eta_cap)
    theta = st.floats(-300, 0).map(lambda e: 10.0 ** e) | st.sampled_from([0.0, 1.0])
    params = {"alpha": alpha, "beta": beta, "eta": draw(eta), "theta": draw(theta),
              "w": 10.0 ** draw(st.floats(-2, 3)), "delta": draw(st.floats(0.01, 0.5)),
              "rho": draw(st.floats(0.01, 0.5)), "sigma": draw(st.floats(1.01, 10.0)),
              "a": draw(st.floats(0.1, 10.0))}

    def grid():
        (t0, t1), (e0, e1) = draw(sorted_pair(0.0, 1.0)), draw(sorted_pair(0.0, 0.95))
        return {"theta_min": t0, "theta_max": t1, "theta_n": draw(st.integers(2, 8)),
                "eta_min": e0, "eta_max": e1, "eta_n": draw(st.integers(2, 8))}

    threshold = {"thetas": draw(st.lists(theta, min_size=1, max_size=3)),
                 "tol": 10.0 ** draw(st.floats(-8, -2))}
    if draw(st.booleans()):
        threshold["eta_lo"], threshold["eta_hi"] = draw(sorted_pair(0.0, 0.95))
    contour = {**grid(), "variable": draw(st.sampled_from(sweep._QUANTITIES))}
    if draw(st.booleans()):
        contour["level"] = 10.0 ** draw(st.floats(-3, 3))
    return {"params": params, "sweep": grid(), "contour": contour, "threshold": threshold,
            "phase": {"include_saddle": draw(st.booleans())},
            "shock": {"eta_after": draw(eta), "theta_after": draw(theta)}}


MODEL_COMMANDS = ["steady", "qsteady", "sweep", "threshold", "contour", "phase", "shock"]
DEFECT_DOC = {"params": {f.name: getattr(DEFECT_PARAMS, f.name) for f in fields(DEFECT_PARAMS)
                         if f.name != "singular_band"}}
# k* from 0.02 to past 1e300 on one sweep: the heatmap's max/min overflowed
WIDE_SWEEP_DOC = {"params": {"alpha": 0.5, "beta": 0.28125, "delta": 0.5, "rho": 0.5, "a": 1.0},
                  "sweep": {"theta_min": 0.0, "theta_max": 5.675201783381992e-135,
                            "theta_n": 2, "eta_min": 0.0, "eta_max": 0.875, "eta_n": 4}}


@pytest.mark.parametrize("command", MODEL_COMMANDS)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(doc=model_docs(), rerun=st.booleans())
@example(doc=DEFECT_DOC, rerun=False)  # open defect 2: phase.svg drew arrows at inf
@example(doc=WIDE_SWEEP_DOC, rerun=False)  # a RuntimeWarning escaped render_heatmap
@example(doc={"params": {"theta": 1e-30}}, rerun=False)  # open defect 14: k* = 9.6e-42
def test_model_commands_write_finite_artifacts_or_exit_with_a_typed_error(command, doc,
                                                                         rerun):
    """Under warnings as errors, every model command exits 0, 1 or 2 with
    no other exception; a run that exits 0 writes JSON with no non-finite
    value and SVG with no inf or nan coordinate, and reruns byte for byte."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_file = Path(tmp) / "cfg.json"
        cfg_file.write_text(json.dumps(doc))
        runs = [Path(tmp) / "first", Path(tmp) / "second"][:1 + rerun]
        for out in runs:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main([command, "--config", str(cfg_file), "--out", str(out)])
            assert code in (0, 1, 2)
        if code != 0:
            return
        for path in runs[0].iterdir():
            if path.suffix == ".json":
                json.loads(path.read_text(), parse_constant=refuse_constant)
            elif path.suffix == ".svg":
                assert svg_coordinates_finite(path.read_text()), path.name
        if rerun:
            assert_same_files(*runs)


def test_empty_thetas_and_axis_counts_below_one_refused_by_the_options():
    with pytest.raises(ConfigError, match="thetas must be a nonempty list"):
        ThresholdOptions(thetas=())
    for section in (cli.SweepOptions, cli.ContourOptions):
        for axis in ("theta_n", "eta_n"):
            with pytest.raises(ConfigError, match=f"{axis} must be at least 1, got 0"):
                section(**{axis: 0})
    assert cli.ContourOptions() == cli.ContourOptions(
        theta_min=0.05, theta_max=0.95, theta_n=46, eta_min=0.60, eta_max=0.95, eta_n=36)


def test_threshold_theta_outside_model_exits_2(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"threshold": {"thetas": [0.5, 1.5]}}))
    proc = run_cli("threshold", "--config", str(cfg_file), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert proc.stderr == "error: theta must lie in [0, 1], got 1.5\n"


@pytest.mark.parametrize("axis", ["theta_n", "eta_n"])
def test_one_point_sweep_axis_exits_with_error(tmp_path, axis):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"sweep": {axis: 1}}))
    for n, fmt in enumerate(("csv,json,svg", "csv")):
        out = tmp_path / f"o{n}"
        proc = run_cli("sweep", "--config", str(cfg_file), "--out", str(out), "--format", fmt)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: empty axis range (0.05, 0.05)")
        assert "Traceback" not in proc.stderr
        assert sorted(p.name for p in out.iterdir()) == ["effective_config.json"]


def test_uneven_sweep_axis_exits_with_error_and_writes_no_artifact(tmp_path):
    # a linspace over a range of a few hundred ulps has unequal steps,
    # which one image pixel per cell cannot show
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"sweep": {"theta_min": 0.5, "theta_max": 0.5 + 1e-13,
                                              "theta_n": 200, "eta_n": 3}}))
    out = tmp_path / "o"
    proc = run_cli("sweep", "--config", str(cfg_file), "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr == "error: heatmap theta axis is not evenly spaced\n"
    assert sorted(p.name for p in out.iterdir()) == ["effective_config.json"]


@pytest.mark.parametrize("axis, value", [("theta_n", 0.05), ("eta_n", 0.6)])
def test_one_point_contour_axis_exits_with_error(tmp_path, axis, value):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"contour": {axis: 1}}))
    for n, fmt in enumerate(("csv,json,svg", "csv")):
        out = tmp_path / f"o{n}"
        proc = run_cli("contour", "--config", str(cfg_file), "--out", str(out), "--format", fmt)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: empty axis range ({value}, {value})")
        assert "Traceback" not in proc.stderr
        assert sorted(p.name for p in out.iterdir()) == ["effective_config.json"]


@pytest.mark.parametrize("command, renderer", [
    ("sweep", "render_heatmap"), ("threshold", "render_curve"),
    ("contour", "render_contour"), ("phase", "render_phase"),
    ("shock", "render_shock"), ("did-sim", "render_event_study"),
])
def test_no_figure_rendered_without_svg_format(tmp_path, monkeypatch, command, renderer):
    calls = []
    monkeypatch.setattr(cli, renderer, lambda *a, **k: calls.append(a))
    cfg = parse_config(None, {"out": str(tmp_path / "csv"), "format": "csv,json"})
    run_command(replace(cfg, sweep=cli.SweepOptions(theta_n=5, eta_n=4)), command)
    assert calls == []
    assert not list((tmp_path / "csv").glob("*.svg"))
    monkeypatch.setattr(cli, renderer, lambda *a, **k: calls.append(a) or "<svg/>")
    run_command(replace(cfg, out_dir=str(tmp_path / "svg"), formats=("svg",)), command)
    assert len(calls) == (2 if command == "sweep" else 1)


@pytest.mark.parametrize("level", ["nan", "inf", "-inf"])
def test_contour_non_finite_level_exits_with_error(tmp_path, level):
    proc = run_cli("contour", f"--level={level}", "--out", str(tmp_path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: contour level must be finite")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "contour.json").exists()


def test_contour_unknown_variable_exits_with_error(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"contour": {"variable": "base"}}))
    proc = run_cli("contour", "--config", str(cfg_file), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: invalid contour: unknown variable 'base'")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


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


def test_shock_value_out_of_range_exits_2_before_any_output(tmp_path):
    out = tmp_path / "o"
    proc = run_cli("shock", "--eta-before", "2", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: invalid shock: eta must lie in [0, 1), got 2.0")
    assert not out.exists()


def test_qsteady_matches_household_side(tmp_path):
    proc = run_cli("qsteady", "--out", str(tmp_path))
    assert proc.returncode == 0
    doc = json.loads((tmp_path / "qsteady.json").read_text())
    assert doc["result"]["q"] == 1
    assert doc["result"]["relative_gap"] <= 1e-8
    assert doc["result"]["investment_rate"] == pytest.approx(0.08, rel=1e-12)


@pytest.mark.parametrize("command, section, message", [
    ("threshold", {"threshold": {"tol": 0, "thetas": [0.5]}}, "tol must be positive"),
    ("threshold", {"threshold": {"tol": -1e-20, "thetas": [0.5]}}, "tol must be positive"),
    ("phase", {"phase": {"tol": 0}}, "tol must lie in [1e-12, 1e-3], got 0.0"),
    ("phase", {"phase": {"tol": 0, "include_saddle": False}},
     "tol must lie in [1e-12, 1e-3], got 0.0"),
    ("shock", {"phase": {"tol": 0, "include_saddle": False}},
     "tol must lie in [1e-12, 1e-3], got 0.0"),
])
def test_unusable_solver_tol_exits_1(tmp_path, command, section, message):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(section))
    proc = run_cli(command, "--config", str(cfg_file), "--out", str(tmp_path / "o"))
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {message}")
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


def test_threshold_tol_below_rounding_scale_exits_0(tmp_path):
    """tol sets the number of bisection steps, so a tol finer than the
    rounding scale of eta ends, at the eta* of a tol at that scale."""
    stars = []
    for tol in (1e-20, 1e-15):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"threshold": {"tol": tol, "thetas": [0.5]}}))
        out = tmp_path / str(tol)
        assert main(["threshold", "--config", str(cfg_file), "--out", str(out)]) == 0
        stars.append(json.loads((out / "threshold.json").read_text())["result"]["eta_star"][0])
    assert abs(stars[0] - stars[1]) <= 1e-15


def test_threshold_at_theta0_writes_the_no_data_steady_state(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"threshold": {"thetas": [0.0, 0.5], "eta_lo": 0.0,
                                                  "eta_hi": 0.3}}))
    assert main(["threshold", "--config", str(cfg_file), "--out", str(tmp_path)]) == 0
    result = json.loads((tmp_path / "threshold.json").read_text())["result"]
    assert result["eta_star"][0] == 0.0
    assert result["c_star_max"][0] == steady_state(baseline_params(theta=0.0, eta=0.0)).c_star
    row = (tmp_path / "threshold.csv").read_text().splitlines()[1].split(",")
    assert row[:2] == ["0", "0"] and float(row[2]) == result["c_star_max"][0]
    assert "inf" not in (tmp_path / "threshold.csv").read_text()


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
    meta = json.loads((tmp_path / "event_study.csv.meta.json").read_text())
    assert meta["window"] == [-5, 5]  # event_study's default window


def test_run_did_study_script(tmp_path):
    proc = run_script("run_did_study.py", "--reps", "5", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "replications : 5" in proc.stdout
    assert (tmp_path / "event_study.svg").read_text().rstrip().endswith("</svg>")


def test_run_model_figures_script(tmp_path):
    proc = run_script("run_model_figures.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for name in ("steady.json", "qsteady.json", "sweep.csv", "threshold.csv",
                 "contour.svg", "phase.svg", "effective_config.json",
                 "shock_eta/shock.json", "shock_theta/shock.json"):
        assert (tmp_path / name).stat().st_size > 0, name


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
# numpy-only runtime

README_COMMANDS = [["steady", "--eta", "0"], ["qsteady"], ["sweep"], ["threshold"],
                   ["contour", "--level", "0.02"], ["phase"],
                   ["shock", "--eta-before", "0.1", "--eta-after", "0.2"],
                   ["did-sim", "--seed", "7"]]

# argv: JSON list of commands, output root, "block" to make every import of
# scipy or of a scipy submodule fail
RUN_COMMANDS = """
import json, sys
if sys.argv[3] == "block":
    sys.modules["scipy"] = None
from dataecon.cli import main
for i, args in enumerate(json.loads(sys.argv[1])):
    if main([*args, "--out", f"{sys.argv[2]}/{i}"]) != 0:
        sys.exit(f"{args[0]} failed")
"""


def test_readme_commands_run_and_match_without_scipy(tmp_path):
    procs = {mode: subprocess.Popen(
        [sys.executable, "-c", RUN_COMMANDS, json.dumps(README_COMMANDS),
         str(tmp_path / mode), mode],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=ENV)
        for mode in ("block", "allow")}  # the two runs share the cores
    for proc in procs.values():
        _, stderr = proc.communicate(timeout=TIMEOUT_S)
        assert proc.returncode == 0, stderr
    for i in range(len(README_COMMANDS)):
        assert_same_files(tmp_path / "allow" / str(i), tmp_path / "block" / str(i))


def test_importing_the_cli_loads_no_scipy():
    code = ("import sys, dataecon.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=ENV, timeout=TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# ---------------------------------------------------------------------------
# rendering

def test_svg_deterministic_for_fixed_artifact():
    portrait = phase_portrait(BASE, include_saddle=False)
    spec = RenderSpec(kind="phase")
    assert render_phase(portrait, spec) == render_phase(portrait, spec)


def test_empty_contour_has_axes_but_no_paths():
    grid = grid_sweep(BASE, np.linspace(0.1, 0.9, 6), np.linspace(0.6, 0.9, 6))
    cont = iso_equilibrium_contour(grid, "c_star", 1e9)
    svg = render_contour(cont, RenderSpec(kind="contour"))
    assert "<rect" in svg and "<text" in svg
    assert "<polyline" not in svg


@pytest.mark.parametrize("command", ["phase", "shock"])
def test_phase_figures_finite_near_the_top_of_float64(tmp_path, command):
    # k* = 1.76e164 here; the quiver arrows once overflowed to inf
    flags = {name: getattr(DEFECT_PARAMS, name) for name in
             ("alpha", "beta", "eta", "theta", "w", "delta", "rho", "sigma", "a")}
    cfg = parse_config(None, {**flags, "out": str(tmp_path),
                              "eta_before": DEFECT_PARAMS.eta, "eta_after": 0.7})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_command(cfg, command) == 0
    svg = (tmp_path / f"{command}.svg").read_text()
    assert svg_numbers_finite(svg)


@pytest.mark.parametrize("args", [
    ["phase", "--theta", "1e-30"],
    ["shock", "--theta-before", "1e-30", "--theta-after", "1e-29"]])
def test_saddles_far_below_k_star_1e12_are_drawn(tmp_path, args):
    """Open defect 14: the branch range was clamped at k = 1e-12, so a
    saddle with k* = 9.6e-42 (theta = 1e-30) exited 1 with "k_targets must
    straddle k*"."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*args, "--out", str(tmp_path)]) == 0
    for path in tmp_path.iterdir():
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=refuse_constant)
        elif path.suffix == ".svg":
            assert svg_coordinates_finite(path.read_text()), path.name
    saddles = sorted(tmp_path.glob("*_saddle.csv"))
    assert len(saddles) == (1 if args[0] == "phase" else 2)
    for path in saddles:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert {row["branch"] for row in rows} == {"low", "high"}
        assert all(0.0 < float(row[q]) < 1e-38 for row in rows for q in ("c", "k"))


def test_sweep_and_contour_take_theta_one(tmp_path):
    """Open defect 13: the theta axis was held to [0, 1), refusing theta = 1."""
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "sweep": {"theta_min": 0.5, "theta_max": 1.0, "theta_n": 3, "eta_n": 3},
        "contour": {"theta_min": 0.5, "theta_max": 1.0, "theta_n": 3, "eta_n": 3}}))
    for command in ("sweep", "contour"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg_file), "--out", str(out)]) == 0
    rows = read_sweep_csv(tmp_path / "sweep" / "sweep.csv")
    assert [float(row["theta"]) for row in rows[-3:]] == [1.0] * 3


def test_one_row_contour_component_drawn_as_a_dot():
    grid = grid_sweep(BASE, np.linspace(0.1, 0.9, 9), np.linspace(0.05, 0.95, 19))
    cont = iso_equilibrium_contour(grid, "k_star", 100.0)
    assert [len(c) for c in cont.components] == [1]
    svg = render_contour(cont, RenderSpec(kind="contour"))
    assert "<polyline" not in svg
    assert len(re.findall(r'<circle cx="[0-9.]+" cy="[0-9.]+" r="2.0"', svg)) == 1


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
    px0, px1 = 56.0, svgplot._WIDTH - 18.0
    py0, py1 = svgplot._HEIGHT - 56.0, 30.0
    expect_x = px0 + (ss.k_star - x0) / (x1 - x0) * (px1 - px0)
    expect_y = py0 + (ss.c_star - y0) / (y1 - y0) * (py1 - py0)
    assert abs(cx - expect_x) <= 1.0
    assert abs(cy - expect_y) <= 1.0


def test_render_spec_validation():
    from dataecon import DomainError
    with pytest.raises(DomainError):
        RenderSpec(kind="phase", x_range=(1.0, 1.0))


# ---------------------------------------------------------------------------
# serialization details

def test_format_float_round_trip():
    for v in (0.1, 1.0 / 3.0, 51.2, 8.704, 1e-300, 123456.789012345678):
        assert float(format_float(v)) == v


def test_dumps_json_sorted_and_parseable():
    doc = dumps_json({"b": 1.5, "a": [1, 2.25], "c": {"y": True, "x": None},
                      "d": np.float64(0.1), "e": np.int64(-3), "f": np.float32(0.1),
                      "g": np.array([[1.0, np.nan], [2.0, 3.5]]), "h": complex(1.0, -2.0),
                      "i": np.array([0.5 + 1j]), "j": np.arange(3)})
    parsed = json.loads(doc)
    assert parsed == {"a": [1, 2.25], "b": 1.5, "c": {"x": None, "y": True},
                      "d": 0.1, "e": -3, "f": float(np.float32(0.1)),
                      "g": [[1.0, None], [2.0, 3.5]], "h": [1.0, -2.0],
                      "i": [[0.5, 1.0]], "j": [0, 1, 2]}
    assert doc.index('"a"') < doc.index('"b"') < doc.index('"c"') < doc.index('"j"')
    assert '"d": 0.10000000000000001,' in doc
    assert '"f": 0.10000000149011612,' in doc


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
