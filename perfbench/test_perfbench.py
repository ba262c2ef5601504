"""Tests of the benchmark's own code.

    python -m pytest perfbench/test_perfbench.py

Every metric BENCHMARK.json names is produced with its unit; every output
check passes on the program's real output and rejects a perturbed copy;
span arithmetic and import-time parsing are exact.
"""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
E2E = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ---------------------------------------------------------------------------
# BENCHMARK.json and metric names

def test_benchmark_json_follows_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in BENCH["workloads"])
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(u) for u in {**E2E, **LAYER}.values())
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert E2E["setup_s"] == "s" and bounds["setup_s"] == max(bounds.values())
    assert 1 <= BENCH["run_seconds"] <= 60 and BENCH["paths"] == ["perfbench"]


def _plain_pass(wall, work=8, rep_s=()):
    return {"wall_s": wall, "rss_kb": 65536, "work": work, "work_s": wall,
            "rep_s": list(rep_s), "traced": False}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_are_the_named_ones(workload):
    fake = type("FakeRun", (), {"workload": workload})()
    passes = [_plain_pass(w, rep_s=[0.03] * 100) for w in (4.0, 4.2, 4.1)]
    metrics, lines = run.end_to_end(fake, passes, [0.5, 0.6, 0.4])
    assert set(metrics) == set(E2E)
    assert metrics["wall_s"] == 4.1 and metrics["setup_s"] == 0.5
    assert metrics["peak_rss_mb"] == 64.0 and metrics["work_per_s"] == 8 / 4.1
    text = "\n".join(lines)
    for name in ("wall_s", "setup_s", "peak_rss_mb", run.RATE_NAMES[workload]):
        assert name in text
    if workload == "did-mc":
        assert "rep_p50_ms" in text and "rep_p90_ms" in text
    assert set(run._units()) == set(E2E) | set(LAYER)


def test_per_layer_metrics_are_the_named_ones():
    figures, imports = run.layer_metrics([], None)
    traced = {"traced": True, "wall_s": 5.0, "layer": figures,
              "imports": [{"numpy": 0.1, "scipy": 0.2, "dataecon": 0.05}]}
    metrics, _ = run.per_layer([_plain_pass(4.5), traced])
    assert set(metrics) == set(LAYER)
    assert metrics["trace.overhead_s"] == 0.5
    assert metrics["scipy.import_s"] == 0.2


def test_layer_metrics_from_span_dumps(tmp_path):
    rec = spans.Recorder()
    inner = rec.wrap(_core_steady_state)
    outer = rec.wrap(_sweep_threshold_curve)
    outer(inner)
    inner()
    span_path = tmp_path / "spans.json"
    rec.dump(span_path)
    err = tmp_path / "err.txt"
    err.write_text("import time: self [us] | cumulative | imported package\n"
                   "import time:      2000 |       2000 | numpy\n"
                   "import time:       500 |        500 |   scipy.linalg\n")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "a.csv").write_text("xyz")
    m, imports = run.layer_metrics([(str(span_path), str(err))], str(tmp_path / "out"))
    assert m["core.steady_state_calls"] == 2
    assert m["sweep.threshold_evals"] == 1
    assert 0 < m["sweep.threshold_curve_s"] and m["cli.files_written"] == 1
    assert m["cli.bytes_written"] == 3
    assert imports == [pytest.approx({"numpy": 0.002, "scipy": 0.0005, "dataecon": 0.0})]


# Stand-ins named like the program's functions, for span names.
def _core_steady_state():
    return 1


_core_steady_state.__module__, _core_steady_state.__name__ = "dataecon.core", "steady_state"


def _sweep_threshold_curve(f):
    return f()


_sweep_threshold_curve.__module__ = "dataecon.sweep"
_sweep_threshold_curve.__name__ = "threshold_curve"


def test_self_time_subtracts_direct_children():
    s = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1), ("b", 5.0, 6.0, 0)]
    out = spans.summarize(s)
    assert out["a"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert out["b"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert spans.count_under(s, "c", "a") == 1 and spans.count_under(s, "a", "b") == 0


# ---------------------------------------------------------------------------
# Output checks: pass on real output, fail on a perturbed copy

def _cli_doc(tmp_path, command, *args):
    from dataecon.cli import main
    out = tmp_path / command
    assert main([command, *args, "--out", str(out)]) == 0
    return json.loads((out / f"{command}.json").read_text())


def test_cobb_douglas_oracle_matches_the_textbook_numbers():
    want = {"k_star": 51.2, "c_star": 8.704, "l_star": 2.56, "y_star": 12.8}
    got = checks.cobb_douglas_steady(0.6, 0.2, 1.0, 0.08, 0.07)
    assert all(abs(got[k] - v) <= 1e-12 * v for k, v in want.items())


def test_steady_check_rejects_a_1e9_perturbation(tmp_path):
    doc = _cli_doc(tmp_path, "steady", "--eta", "0")
    assert checks.check_steady(doc) == []
    doc["result"]["k_star"] *= 1 + 1e-9
    assert checks.check_steady(doc)


def test_qsteady_and_phase_checks(tmp_path):
    q = _cli_doc(tmp_path, "qsteady")
    assert checks.check_qsteady(q) == []
    q["result"]["relative_gap"] = 2e-12
    assert checks.check_qsteady(q)
    phase = _cli_doc(tmp_path, "phase")
    assert checks.check_phase(phase) == []
    phase["result"]["branch_status"][1] = "max-time"
    assert checks.check_phase(phase)
    phase["result"]["branch_status"][1] = "converged"
    phase["result"]["classification"] = "stable-node"
    assert checks.check_phase(phase)


@pytest.fixture(scope="module")
def sweep_rows(tmp_path_factory):
    from dataecon.cli import SweepOptions, parse_config, run_command
    out = tmp_path_factory.mktemp("sweep")
    cfg = parse_config(None, {"out": str(out)})
    run_command(replace(cfg, sweep=SweepOptions(theta_n=12, eta_n=30)), "sweep")
    return checks.read_sweep_csv(out / "sweep.csv"), cfg.params


def test_sweep_check_rejects_a_flipped_mask_cell(sweep_rows):
    rows, base = sweep_rows
    idx = checks.sample_cells(rows, seed=3)
    assert {rows[i]["mask"] for i in idx} == {r["mask"] for r in rows}
    assert len({r["mask"] for r in rows}) >= 2
    assert checks.check_sweep_cells(rows, base, idx) == []
    for i in idx[:3]:
        flipped = [dict(r) for r in rows]
        flipped[i]["mask"] = "infeasible" if rows[i]["mask"] == "ok" else "ok"
        assert checks.check_sweep_cells(flipped, base, idx)


def test_sweep_check_rejects_a_perturbed_value(sweep_rows):
    rows, base = sweep_rows
    i = next(i for i, r in enumerate(rows) if r["mask"] == "ok")
    bad = [dict(r) for r in rows]
    bad[i]["c_star"] = repr(float(rows[i]["c_star"]) * (1 + 1e-9))
    assert checks.check_sweep_cells(bad, base, [i])


def test_within_vs_dummies_check():
    from dataecon import DgpConfig, event_study, generate_panel, twfe_did
    panel = generate_panel(DgpConfig(seed=0, **dict(child.DID_MC_DGP, n_units=40)))
    within = twfe_did(panel)
    es_w = event_study(panel, window=child.DID_MC_WINDOW)
    dummies = twfe_did(panel, method="dummies")
    es_d = event_study(panel, window=child.DID_MC_WINDOW, method="dummies")
    coefs = list(es_w.coefficients)
    assert checks.check_within_dummies(within.att, within.se, coefs, dummies, es_d) == []
    assert checks.check_within_dummies(within.att + 1e-7, within.se, coefs, dummies, es_d)
    assert checks.check_within_dummies(within.att, within.se * 1.01, coefs, dummies, es_d)
    coefs[0] += 1e-7
    assert checks.check_within_dummies(within.att, within.se, coefs, dummies, es_d)


def test_panel_roundtrip_and_att_checks(tmp_path):
    import numpy as np
    from dataecon import DgpConfig, generate_panel, read_panel_csv, write_panel_csv
    panel = generate_panel(DgpConfig(n_units=30, years=(2000, 2009), seed=4))
    write_panel_csv(panel, tmp_path / "panel.csv")
    back = read_panel_csv(tmp_path / "panel.csv")
    assert checks.check_panel_roundtrip(back, panel, 300) == []
    assert checks.check_panel_roundtrip(back, panel, 299)
    moved = replace(back, outcome=back.outcome * np.where(np.arange(300) == 7, 1 + 1e-15, 1))
    assert checks.check_panel_roundtrip(moved, panel, 300)
    doc = {"result": {"att": 0.05 + 3.9 * 0.01, "se": 0.01, "true_effect": 0.05}}
    assert checks.check_att(doc) == []
    doc["result"]["att"] = 0.05 - 4.1 * 0.01
    assert checks.check_att(doc)


def test_rerun_check_rejects_a_changed_byte(tmp_path):
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "x.json").write_bytes(b"{}\n")
    first = checks.digest_tree(tmp_path)
    assert checks.check_rerun(first, checks.digest_tree(tmp_path)) == []
    (tmp_path / "d" / "x.json").write_bytes(b"{ }\n")
    assert checks.check_rerun(first, checks.digest_tree(tmp_path))


# ---------------------------------------------------------------------------
# Whole runs

def test_without_the_package_the_benchmark_fails_without_a_result(tmp_path):
    import shutil
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-cold",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0 and '"metrics"' not in res.stdout


def _run(workload, trace):
    res = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                          workload, "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.strip().splitlines()[-1])


def test_untraced_run_reports_every_end_to_end_metric_with_its_unit():
    result = _run("did-mc", 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2 * child.DID_MC_REPS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == E2E
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric_with_its_unit():
    result = _run("cli-cold", 1)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == LAYER
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # cli-cold runs every layer
    assert all(m[k] > 0 for k in LAYER if k != "trace.overhead_s")
    assert m["dynamics.branches_converged_ratio"] == 1.0
