"""Subprocess side of the benchmark: one fresh interpreter per call.

Modes:

* ``cli -- ARGS``: ``dataecon.cli.main(ARGS)``, as ``python -m dataecon.cli``
  would run it; the child's own options go before ``--``.
* ``surface --config PATH``: ``run_command`` for ``sweep``, ``contour`` and
  ``threshold`` in one process.
* ``did-mc --seed N --out DIR``: DID_MC_REPS replications of
  ``generate_panel``, ``twfe_did`` and ``event_study`` on the
  ``scripts/run_did_study.py`` design, plus the event-study figure of the
  first one.

``--timing PATH`` writes the in-process time of the work (and of each
replication).  ``--spans PATH`` turns tracing on: before any work, the
public functions that ``dataecon.cli``, ``dataecon.sweep`` and
``dataecon.dynamics`` bind from other dataecon modules are replaced by
wrappers that record spans, and the spans are written when the process
ends.  No file of the program changes.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time

import spans

# The scripts/run_did_study.py design at 216 units x 23 years.
DID_MC_DGP = dict(n_units=216, years=(2000, 2022), share_treated=0.5,
                  unit_effect_scale=1.0, year_effect_scale=0.5,
                  noise_scale=0.1, effect=0.05)
DID_MC_WINDOW = (-5, 5)
DID_MC_REPS = 100  # enough that p90 of the replication latency has ten beyond it


def _portrait_counts(*portraits) -> dict:
    steps = branches = converged = 0
    for portrait in portraits:
        for path in portrait.stable_paths:
            steps += len(path.t) - 1
            branches += 1
            converged += path.status == "converged"
    return {"dynamics.rk_steps": steps, "dynamics.branches": branches,
            "dynamics.branches_converged": converged}


def _fit_rows(args, result) -> dict:
    return {"empirics.fit_rows": result.n_obs}


COUNTERS = {
    "sweep.grid_sweep": lambda args, r: {
        "sweep.cells": int(r.mask.size),
        "sweep.ok_cells": int((r.mask == "ok").sum())},
    "sweep.iso_equilibrium_contour": lambda args, r: {
        "sweep.contour_points": sum(len(c) for c in r.components)},
    "dynamics.phase_portrait": lambda args, r: _portrait_counts(r),
    "dynamics.shock_experiment": lambda args, r: _portrait_counts(r.before, r.after),
    "empirics.twfe_did": _fit_rows,
    "empirics.event_study": _fit_rows,
    "empirics.write_panel_csv": lambda args, r: {
        "empirics.panel_csv_bytes": os.path.getsize(args[1])},
}


def _counter(fn):
    name = spans.span_name(fn)
    if name.startswith("svgplot.render"):
        return lambda args, r: {"svgplot.svg_bytes": len(r.encode("utf-8"))}
    return COUNTERS.get(name)


def install_tracing(rec: spans.Recorder) -> None:
    """Wrap what cli, sweep and dynamics bind from other dataecon modules,
    plus ``cli.run_command`` and ``cli.write_csv``.  ``params`` and
    ``errors`` stay unwrapped: their cost is part of their callers'."""
    from dataecon import cli, dynamics, sweep
    for mod in (cli, sweep, dynamics):
        for attr, fn in list(vars(mod).items()):
            if (inspect.isfunction(fn) and not attr.startswith("_")
                    and fn.__module__.startswith("dataecon.")
                    and fn.__module__ not in (mod.__name__, "dataecon.params",
                                              "dataecon.errors")):
                setattr(mod, attr, rec.wrap(fn, _counter(fn)))
    for attr in ("run_command", "write_csv"):
        setattr(cli, attr, rec.wrap(getattr(cli, attr)))


def run_cli(cli_args: list) -> tuple[int, float]:
    from dataecon import cli
    t0 = time.perf_counter()
    rc = cli.main(cli_args)
    return rc, time.perf_counter() - t0


def run_surface(config: str) -> tuple[int, float]:
    from dataecon import cli
    cfg = cli.parse_config(config)
    t0 = time.perf_counter()
    for command in ("sweep", "contour", "threshold"):
        cli.run_command(cfg, command)
    return 0, time.perf_counter() - t0


def run_did_mc(seed: int, out: str, rec, rep_s: list) -> tuple[int, float]:
    from dataecon import DgpConfig, event_study, generate_panel, twfe_did
    from dataecon.svgplot import RenderSpec, render_event_study
    if rec is not None:
        generate_panel, twfe_did, event_study, render_event_study = (
            rec.wrap(f, _counter(f)) for f in
            (generate_panel, twfe_did, event_study, render_event_study))
    os.makedirs(out, exist_ok=True)
    rows, first = [], None
    start = time.perf_counter()
    for rep in range(DID_MC_REPS):
        t0 = time.perf_counter()
        panel = generate_panel(DgpConfig(seed=seed + rep, **DID_MC_DGP))
        did = twfe_did(panel)
        es = event_study(panel, window=DID_MC_WINDOW)
        rep_s.append(time.perf_counter() - t0)
        if first is None:
            first = es
        rows.append([rep, seed + rep, did.att, did.se, *es.coefficients])
    work_s = time.perf_counter() - start
    header = ["rep", "seed", "att", "se",
              *(f"es_{p}" for p in range(DID_MC_WINDOW[0], DID_MC_WINDOW[1] + 1))]
    with open(os.path.join(out, "replications.csv"), "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) if isinstance(v, int) else "%.17g" % v
                              for v in row) + "\n")
    with open(os.path.join(out, "event_study.svg"), "w", encoding="utf-8") as fh:
        fh.write(render_event_study(first, RenderSpec(kind="event-study")))
    return 0, work_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=["cli", "surface", "did-mc"])
    ap.add_argument("--timing")
    ap.add_argument("--spans")
    ap.add_argument("--config")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out")
    argv = sys.argv[1:] if argv is None else list(argv)
    cut = argv.index("--") if "--" in argv else len(argv)
    args = ap.parse_args(argv[:cut])
    cli_args = argv[cut + 1:]

    rec = spans.Recorder() if args.spans else None
    if rec is not None and args.mode != "did-mc":
        install_tracing(rec)
    rep_s: list = []
    try:
        if args.mode == "cli":
            rc, work_s = run_cli(cli_args)
        elif args.mode == "surface":
            rc, work_s = run_surface(args.config)
        else:
            rc, work_s = run_did_mc(args.seed, args.out, rec, rep_s)
    finally:
        if rec is not None:
            rec.dump(args.spans)
    if args.timing:
        with open(args.timing, "w", encoding="utf-8") as fh:
            json.dump({"work_s": work_s, "rep_s": rep_s}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
