#!/usr/bin/env python3
"""Benchmark of the dataecon package: four workloads, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The package is imported from ``src/``
without being installed.  Every measured call runs in a fresh child
interpreter, one at a time; the parent adds no threads.  A run repeats its
workload's pass until ``--seconds`` are used, checks the outputs, and prints
a human summary, then, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` passes alternate between
untraced and traced, and the metrics are the per-layer ones from the spans
of the traced passes plus the tracing overhead.  See README.md here.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks
import child
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

WORKLOADS = ("cli-cold", "surface-fine", "did-mc", "did-large")
RUN_BUDGET_S = 170.0   # a run must end within 180 s
CHECK_RESERVE_S = 15.0  # kept free for the output checks
SETUP_SAMPLES = 5
SURFACE_N = 200
THRESHOLD_THETAS = 37
DID_LARGE_UNITS = 5000
DID_LARGE_YEARS = (2000, 2022)
SETUP_CODE = ("import sys\nfrom dataecon.cli import parse_config\n"
              "parse_config(sys.argv[1] or None)")

# Unit of work per workload, for the human summary and work_per_s.
RATE_NAMES = {"cli-cold": "commands_per_s", "surface-fine": "cells_per_s",
              "did-mc": "reps_per_s", "did-large": "rows_per_s"}


def cli_cold_commands(seed: int) -> list[list[str]]:
    """The eight README commands at the built-in config."""
    return [["steady", "--eta", "0"], ["qsteady"], ["sweep"], ["threshold"],
            ["contour", "--level", "0.02"], ["phase"],
            ["shock", "--eta-before", "0.1", "--eta-after", "0.2"],
            ["did-sim", "--seed", str(seed)]]


def surface_config(seed: int, out_dir: str) -> dict:
    """200x200 sweep and contour grids and 37 threshold thetas, with the
    theta and eta axes shifted by a seeded fraction of one grid step."""
    rng = random.Random(seed)
    u_theta, u_eta = rng.random(), rng.random()

    def axis(lo, hi, n, u):
        shift = u * (hi - lo) / (n - 1)
        return lo + shift, hi + shift

    t_lo, t_hi = axis(0.05, 0.95, SURFACE_N, u_theta)
    e_lo, e_hi = axis(0.05, 0.95, SURFACE_N, u_eta)
    c_lo, c_hi = axis(0.60, 0.95, SURFACE_N, u_eta)
    step = 0.9 / (THRESHOLD_THETAS - 1)
    thetas = [0.05 + (i + u_theta) * step for i in range(THRESHOLD_THETAS)]
    return {
        "sweep": {"theta_min": t_lo, "theta_max": t_hi, "theta_n": SURFACE_N,
                  "eta_min": e_lo, "eta_max": e_hi, "eta_n": SURFACE_N},
        "contour": {"theta_min": t_lo, "theta_max": t_hi, "theta_n": SURFACE_N,
                    "eta_min": c_lo, "eta_max": c_hi, "eta_n": SURFACE_N,
                    "level": 0.02},
        "threshold": {"thetas": thetas},
        "out_dir": out_dir,
    }


def did_mc_base_seed(seed: int) -> int:
    return seed * 1000


def did_large_config(seed: int, out_dir: str) -> dict:
    return {"dgp": {"n_units": DID_LARGE_UNITS, "years": list(DID_LARGE_YEARS),
                    "effect": 0.05, "seed": seed},
            "out_dir": out_dir}


def workload_config(workload: str, seed: int, out_dir: str) -> dict | None:
    """The config file a workload's processes parse (and setup_s times)."""
    if workload == "surface-fine":
        return surface_config(seed, out_dir)
    if workload == "did-large":
        return did_large_config(seed, out_dir)
    if workload == "did-mc":
        return {"dgp": dict(child.DID_MC_DGP, years=list(child.DID_MC_DGP["years"]),
                            seed=did_mc_base_seed(seed))}
    return None


def _median(xs):
    return statistics.median(xs) if xs else 0.0


class Run:
    """One benchmark run: its work directory, deadline and operation tally."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.started = time.monotonic()
        self.deadline = self.started + RUN_BUDGET_S
        self.work = os.path.join(WORK_ROOT, f"{workload}-seed{seed}-trace{int(trace)}")
        self.out = os.path.join(self.work, "out")
        self.keep = os.path.join(self.work, "first")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._files = 0
        self.config = ""  # the workload's config file; cli-cold uses the built-in one
        cfg = workload_config(workload, seed, self.out)
        if cfg is not None:
            self.config = os.path.join(self.work, "config.json")
            with open(self.config, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)

    def op(self, name: str, problems: list[str]) -> None:
        """Count one operation; record it as failed if it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{name}: " + "; ".join(problems))

    def path(self, stem: str) -> str:
        self._files += 1
        return os.path.join(self.work, f"{self._files:05d}-{stem}")

    def spawn(self, argv: list[str], name: str) -> tuple[float, int, str]:
        """Run one child to completion.  Returns (wall seconds, peak RSS in
        KiB from wait4, stderr path) and counts it as an operation."""
        err_path = self.path("stderr.txt")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            open(err_path, "wb").close()
            self.op(name, ["run budget exhausted before start"])
            return 0.0, 0, err_path
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
        old = signal.signal(signal.SIGALRM, lambda signum, frame: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        problems = []
        if proc.returncode != 0:
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-400:].strip().replace("\n", " | ")
            problems.append(f"exit code {proc.returncode}: {tail}")
        self.op(name, problems)
        return wall, usage.ru_maxrss, err_path

    def child(self, mode: str, traced: bool, *args: str) -> tuple[list[str], str, str | None]:
        """argv for child.py, with its timing file and, if traced, spans file."""
        timing = self.path("timing.json")
        python = [sys.executable, "-X", "importtime"] if traced else [sys.executable]
        argv = [*python, CHILD, mode, "--timing", timing]
        span_path = None
        if traced:
            span_path = self.path("spans.json")
            argv += ["--spans", span_path]
        return argv + list(args), timing, span_path


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


# ---------------------------------------------------------------------------
# One pass of each workload.  A pass returns wall_s, rss_kb, work (units
# completed), work_s (the time the work rate is taken over), rep_s, and the
# (spans, stderr) files of its traced children.

def pass_cli_cold(run: Run, traced: bool) -> dict:
    traces, rss, done = [], 0, 0
    t0 = time.perf_counter()
    for cmd in cli_cold_commands(run.seed):
        args = [*cmd, "--out", os.path.join(run.out, cmd[0])]
        if traced:
            argv, _, span_path = run.child("cli", True, "--", *args)
        else:
            argv, span_path = [sys.executable, "-m", "dataecon.cli", *args], None
        n_failed = run.failed
        _, kb, err = run.spawn(argv, f"command {' '.join(cmd)}")
        rss = max(rss, kb)
        done += run.failed == n_failed
        if traced:
            traces.append((span_path, err))
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "rss_kb": rss, "work": done, "work_s": wall,
            "traces": traces, "cli": True}


def _single_child(run: Run, traced: bool, mode: str, name: str, *args: str) -> dict:
    argv, timing_path, span_path = run.child(mode, traced, *args)
    wall, kb, err = run.spawn(argv, name)
    timing = _read_json(timing_path) or {}
    return {"wall_s": wall, "rss_kb": kb, "work_s": timing.get("work_s", 0.0),
            "rep_s": timing.get("rep_s", []),
            "traces": [(span_path, err)] if traced else [], "cli": mode != "did-mc"}


def pass_surface(run: Run, traced: bool) -> dict:
    rec = _single_child(run, traced, "surface", "surface process",
                        "--config", run.config)
    rec["work"] = 2 * SURFACE_N * SURFACE_N
    return rec


def pass_did_mc(run: Run, traced: bool) -> dict:
    rec = _single_child(run, traced, "did-mc", "did-mc process",
                        "--seed", str(did_mc_base_seed(run.seed)), "--out", run.out)
    rec["work"] = len(rec["rep_s"])
    run.attempted += child.DID_MC_REPS
    if rec["work"] != child.DID_MC_REPS:
        run.failed += child.DID_MC_REPS - rec["work"]
        run.failures.append(f"replications: {rec['work']} of {child.DID_MC_REPS} completed")
    return rec


def pass_did_large(run: Run, traced: bool) -> dict:
    rec = _single_child(run, traced, "cli", "command did-sim (5000 units)",
                        "--", "did-sim", "--config", run.config)
    did = _read_json(os.path.join(run.out, "did.json")) or {}
    # TWFE and the event study fit the same estimation sample.
    rec["work"] = 2 * did.get("result", {}).get("n_obs", 0)
    return rec


PASSES = {"cli-cold": pass_cli_cold, "surface-fine": pass_surface,
          "did-mc": pass_did_mc, "did-large": pass_did_large}


# ---------------------------------------------------------------------------
# Output checks, on the artifacts of the first pass

def checks_cli_cold(run: Run) -> None:
    for cmd, fn in (("steady", checks.check_steady), ("qsteady", checks.check_qsteady),
                    ("phase", checks.check_phase)):
        doc = _read_json(os.path.join(run.keep, cmd, f"{cmd}.json"))
        run.op(f"check {cmd}", ["artifact missing"] if doc is None else fn(doc))


def checks_surface(run: Run) -> None:
    from dataecon import validate_params
    rows = checks.read_sweep_csv(os.path.join(run.keep, "sweep.csv"))
    eff = _read_json(os.path.join(run.keep, "effective_config.json"))
    base = validate_params(eff["params"])
    idx = checks.sample_cells(rows, run.seed)
    run.op(f"check {len(idx)} sweep cells against scalar steady_state",
           checks.check_sweep_cells(rows, base, idx))


def checks_did_mc(run: Run) -> None:
    from dataecon import DgpConfig, event_study, generate_panel, twfe_did
    with open(os.path.join(run.keep, "replications.csv"), encoding="utf-8") as fh:
        header, first = fh.readline().strip().split(","), fh.readline().strip().split(",")
    row = dict(zip(header, first))
    panel = generate_panel(DgpConfig(seed=int(row["seed"]), **child.DID_MC_DGP))
    dummies = twfe_did(panel, method="dummies")
    es = event_study(panel, window=child.DID_MC_WINDOW, method="dummies")
    coefs = [float(row[f"es_{p}"]) for p in es.periods]
    run.op("check replication 0: within vs dummies",
           checks.check_within_dummies(float(row["att"]), float(row["se"]), coefs,
                                       dummies, es))


def checks_did_large(run: Run) -> None:
    from dataecon import DgpConfig, generate_panel, read_panel_csv
    cfg = did_large_config(run.seed, run.out)["dgp"]
    expected = generate_panel(DgpConfig(**dict(cfg, years=tuple(cfg["years"]))))
    read = read_panel_csv(os.path.join(run.keep, "panel.csv"))
    n_rows = DID_LARGE_UNITS * (DID_LARGE_YEARS[1] - DID_LARGE_YEARS[0] + 1)
    run.op("check panel CSV round trip",
           checks.check_panel_roundtrip(read, expected, n_rows))
    doc = _read_json(os.path.join(run.keep, "did.json"))
    run.op("check ATT within 4 SE", ["did.json missing"] if doc is None
           else checks.check_att(doc))


CHECKS = {"cli-cold": checks_cli_cold, "surface-fine": checks_surface,
          "did-mc": checks_did_mc, "did-large": checks_did_large}


# ---------------------------------------------------------------------------
# Metrics

def layer_metrics(traces: list, out_dir: str | None) -> tuple[dict, list]:
    """Per-layer figures of one traced pass, and the import times of each
    of its processes."""
    all_spans, counts, imports = [], {}, []
    for span_path, err_path in traces:
        dump = _read_json(span_path) or {"spans": [], "counts": {}}
        offset = len(all_spans)
        all_spans += [(n, t0, t1, p + offset if p >= 0 else -1)
                      for n, t0, t1, p in dump["spans"]]
        for key, value in dump["counts"].items():
            counts[key] = counts.get(key, 0) + value
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            imports.append(spans.import_times(fh.read()))
    s = spans.summarize(all_spans)

    def total(name):
        return s.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return s.get(name, {}).get("self_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    c = counts.get
    dyn_s = total("dynamics.phase_portrait") + total("dynamics.shock_experiment")
    fit_s = total("empirics.twfe_did") + total("empirics.event_study")
    files = size = 0
    if out_dir is not None:
        for dirpath, _, names in os.walk(out_dir):
            files += len(names)
            size += sum(os.path.getsize(os.path.join(dirpath, n)) for n in names)
    m = {
        "core.steady_state_calls": s.get("core.steady_state", {}).get("calls", 0),
        "core.steady_state_s": total("core.steady_state"),
        "sweep.grid_sweep_s": total("sweep.grid_sweep"),
        "sweep.grid_sweep_self_s": self_s("sweep.grid_sweep"),
        "sweep.cells": c("sweep.cells", 0),
        "sweep.ok_ratio": ratio(c("sweep.ok_cells", 0), c("sweep.cells", 0)),
        "sweep.threshold_curve_s": total("sweep.threshold_curve"),
        "sweep.threshold_evals": spans.count_under(all_spans, "core.steady_state",
                                                   "sweep.threshold_curve"),
        "sweep.contour_s": total("sweep.iso_equilibrium_contour"),
        "sweep.contour_points": c("sweep.contour_points", 0),
        "dynamics.phase_portrait_s": total("dynamics.phase_portrait"),
        "dynamics.shock_experiment_s": total("dynamics.shock_experiment"),
        "dynamics.rk_steps": c("dynamics.rk_steps", 0),
        "dynamics.rk_steps_per_s": ratio(c("dynamics.rk_steps", 0), dyn_s),
        "dynamics.branches_converged_ratio": ratio(c("dynamics.branches_converged", 0),
                                                   c("dynamics.branches", 0)),
        "empirics.generate_panel_s": total("empirics.generate_panel"),
        "empirics.twfe_did_s": total("empirics.twfe_did"),
        "empirics.event_study_s": total("empirics.event_study"),
        "empirics.fit_rows": c("empirics.fit_rows", 0),
        "empirics.fit_rows_per_s": ratio(c("empirics.fit_rows", 0), fit_s),
        "empirics.write_panel_csv_s": total("empirics.write_panel_csv"),
        "empirics.panel_csv_bytes": c("empirics.panel_csv_bytes", 0),
        "svgplot.render_s": sum(v["total_s"] for k, v in s.items()
                                if k.startswith("svgplot.render")),
        "svgplot.svg_bytes": c("svgplot.svg_bytes", 0),
        "cli.run_command_self_s": self_s("cli.run_command"),
        "cli.write_csv_s": total("cli.write_csv"),
        "cli.bytes_written": size,
        "cli.files_written": files,
    }
    return m, imports


def end_to_end(run: Run, passes: list, setup: list) -> tuple[dict, list]:
    """The BENCHMARK.json end-to-end metrics, and the human summary lines."""
    rates = [p["work"] / p["work_s"] for p in passes if p["work_s"] > 0]
    m = {
        "wall_s": _median([p["wall_s"] for p in passes]),
        "setup_s": _median(setup),
        "peak_rss_mb": _median([p["rss_kb"] / 1024.0 for p in passes]),
        "work_per_s": _median(rates),
    }
    n = len(passes)
    lines = [
        f"wall_s          {m['wall_s']:.6f} s     median of {n} passes",
        f"setup_s         {m['setup_s']:.6f} s     median of {len(setup)} fresh interpreters",
        f"peak_rss_mb     {m['peak_rss_mb']:.3f} MB    median over {n} passes of the "
        f"largest child",
        f"{RATE_NAMES[run.workload]:<15} {m['work_per_s']:.6g} 1/s   median of {len(rates)} "
        f"passes (reported as work_per_s)",
    ]
    rep_ms = [1e3 * t for p in passes for t in p.get("rep_s", [])]
    if run.workload == "did-mc" and len(rep_ms) >= 2:
        p10 = statistics.quantiles(rep_ms, n=10)
        lines += [f"rep_p50_ms      {statistics.median(rep_ms):.4f} ms    "
                  f"{len(rep_ms)} replications",
                  f"rep_p90_ms      {p10[8]:.4f} ms    {len(rep_ms)} replications, "
                  f"{sum(t > p10[8] for t in rep_ms)} beyond"]
    return m, lines


def per_layer(passes: list) -> tuple[dict, list]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    figures = [p["layer"] for p in traced]
    imports = [imp for p in traced for imp in p["imports"]]
    out = {key: _median([f[key] for f in figures]) for key in figures[0]} if figures else {}
    for pkg in ("numpy", "scipy", "dataecon"):
        out[f"{pkg}.import_s"] = _median([imp[pkg] for imp in imports])
    out["trace.overhead_s"] = (_median([p["wall_s"] for p in traced])
                               - _median([p["wall_s"] for p in plain]))
    lines = [f"traced passes {len(traced)}, untraced passes {len(plain)}, "
             f"import times: median of {len(imports)} traced processes"]
    return out, lines


# ---------------------------------------------------------------------------
# Provenance

def _openblas_runtime() -> tuple:
    """Thread count and configuration OpenBLAS chose at run time, read from
    the library bundled with numpy; (None, None) if it is not found."""
    import ctypes
    import numpy
    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                return threads(), config().decode()
    return None, None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if res.returncode == 0:
            return res.stdout.strip()
    return "unknown (not a git checkout)"


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, config = _openblas_runtime()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": " ".join(str(blas.get(k, "")) for k in ("name", "version")).strip(),
        "openblas_config": config,
        "openblas_threads": threads,
        "openblas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
        "host_settings": "no caches dropped, no CPUs pinned, no cgroup or kernel "
                         "setting touched; only the benchmark's own children are measured",
    }


# ---------------------------------------------------------------------------

def measure(run: Run) -> tuple[list, list]:
    """Set up, run passes until the run's seconds are used, check the
    outputs.  Returns the pass records and the setup times."""
    # Compile the package's bytecode once, as an installed package would have it.
    run.spawn([sys.executable, "-c", "import dataecon.cli"], "warm-up import")
    setup = []
    if not run.trace:
        for _ in range(SETUP_SAMPLES):
            wall, _, _ = run.spawn([sys.executable, "-c", SETUP_CODE, run.config],
                                   "setup interpreter")
            setup.append(wall)

    passes, digest = [], None
    t_start = time.perf_counter()
    while True:
        traced = run.trace and len(passes) % 2 == 1
        shutil.rmtree(run.out, ignore_errors=True)
        os.makedirs(run.out)
        rec = PASSES[run.workload](run, traced)
        rec["traced"] = traced
        rec["out_dir"] = run.out if rec["cli"] else None
        again = checks.digest_tree(run.out)
        if digest is None:
            digest = again
        else:
            run.op("check rerun is byte-identical", checks.check_rerun(digest, again))
        if traced:
            figures, imports = layer_metrics(rec["traces"], rec["out_dir"])
            rec["traces"], rec["layer"], rec["imports"] = [], figures, imports
        if len(passes) == 0:
            os.rename(run.out, run.keep)
        passes.append(rec)
        longest = max(p["wall_s"] for p in passes)
        elapsed = time.perf_counter() - t_start
        if len(passes) >= 2 and (elapsed + longest > run.seconds or time.monotonic()
                                 + longest + CHECK_RESERVE_S > run.deadline):
            break

    try:
        CHECKS[run.workload](run)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        run.op("output checks", [f"could not read the artifacts: {exc!r}"])
    shutil.rmtree(run.out, ignore_errors=True)
    return passes, setup


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dataecon", "cli.py")):
        print(f"error: no dataecon package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # the output checks call the package in-process

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    passes, setup = measure(run)
    if run.trace:
        metrics, lines = per_layer(passes)
    else:
        metrics, lines = end_to_end(run, passes, setup)
    info = provenance(args.seed)
    print(f"workload {run.workload}  seed {run.seed}  trace {int(run.trace)}  "
          f"({time.monotonic() - run.started:.1f} s)")
    for line in lines:
        print("  " + line)
    print(f"  failed_ratio    {run.failed / max(run.attempted, 1):.6g} 1     "
          f"{run.failed} of {run.attempted} operations")
    for failure in run.failures:
        print(f"  FAILED {failure}")
    print("  provenance " + json.dumps(info, sort_keys=True))
    units = _units()
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    os.makedirs(os.path.join(WORK_ROOT, "results"), exist_ok=True)
    with open(os.path.join(WORK_ROOT, "results", os.path.basename(run.work) + ".json"),
              "w", encoding="utf-8") as fh:
        json.dump(dict(result, provenance=info, failures=run.failures, summary=lines,
                       setup_s=setup,
                       passes=[{k: p[k] for k in ("traced", "wall_s", "work", "work_s",
                                                  "rss_kb")} for p in passes]),
                  fh, indent=1)
    shutil.rmtree(run.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
