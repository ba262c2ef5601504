"""Command-line front end: configuration, serialization, figure emission.

Commands map onto the model surfaces: ``steady`` and ``qsteady`` solve the
two steady-state blocks, ``sweep``/``threshold``/``contour`` cover the
(theta, eta) plane, ``phase``/``shock`` draw the dynamical system, and
``did-sim`` runs the synthetic staggered-DID harness.

Outputs are deterministic: floats serialize with 17 significant digits in
both CSV and JSON, keys are sorted, and SVG is assembled from fixed-format
strings.  Every artifact carries the effective parameters and tool version,
embedded for JSON and as a ``.meta.json`` sidecar for CSV/SVG.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__
from .core import steady_state
from .dynamics import phase_portrait, shock_experiment
from .empirics import DgpConfig, event_study, generate_panel, twfe_did, write_panel_csv
from .errors import ConfigError, ModelError, ParameterError
from .params import ModelParams, validate_params
from .qtheory import firm_steady_state, investment_rate
from .svgplot import (RenderSpec, render_contour, render_curve,
                      render_event_study, render_heatmap, render_phase,
                      render_shock)
from .sweep import grid_sweep, iso_equilibrium_contour, threshold_curve

PARAM_FLAGS = ("alpha", "beta", "eta", "theta", "w", "delta", "rho", "sigma", "a")


@dataclass(frozen=True)
class SweepOptions:
    theta_min: float = 0.05
    theta_max: float = 0.95
    theta_n: int = 50
    eta_min: float = 0.05
    eta_max: float = 0.95
    eta_n: int = 50


@dataclass(frozen=True)
class PhaseOptions:
    k_lo_frac: float = 0.5
    k_hi_frac: float = 1.5
    samples: int = 241
    field_nk: int = 15
    field_nc: int = 12
    tol: float = 1e-9
    include_saddle: bool = True


@dataclass(frozen=True)
class ThresholdOptions:
    thetas: tuple = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    eta_lo: float | None = None
    eta_hi: float | None = None
    tol: float = 1e-4


@dataclass(frozen=True)
class ContourOptions:
    variable: str = "c_star"
    level: float | None = None
    theta_min: float = 0.05
    theta_max: float = 0.95
    theta_n: int = 46
    eta_min: float = 0.60
    eta_max: float = 0.95
    eta_n: int = 36


@dataclass(frozen=True)
class DidOptions:
    window_lead: int = -5
    window_lag: int = 5
    drop_adoption_period: bool = True


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    sweep: SweepOptions = SweepOptions()
    phase: PhaseOptions = PhaseOptions()
    threshold: ThresholdOptions = ThresholdOptions()
    contour: ContourOptions = ContourOptions()
    dgp: DgpConfig = DgpConfig()
    did: DidOptions = DidOptions()
    out_dir: str = "out"
    formats: tuple = ("csv", "json", "svg")
    seed: int | None = None


# ---------------------------------------------------------------------------
# Deterministic serialization

def format_float(v: float) -> str:
    """17-significant-digit decimal form; round-trips float64 exactly."""
    return "%.17g" % v


def _jsonable(v):
    if isinstance(v, (np.floating, float)):
        return float(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def dumps_json(obj) -> str:
    """JSON with sorted keys and 17-significant-digit floats."""
    def emit(v, depth):
        pad = "  " * depth
        if isinstance(v, dict):
            if not v:
                return "{}"
            keys = sorted(v)
            inner = ",\n".join(f'{pad}  {json.dumps(str(k))}: {emit(v[k], depth + 1)}'
                               for k in keys)
            return "{\n" + inner + "\n" + pad + "}"
        if isinstance(v, (list, tuple)):
            if not v:
                return "[]"
            inner = ",\n".join(f"{pad}  {emit(x, depth + 1)}" for x in v)
            return "[\n" + inner + "\n" + pad + "]"
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            if not math.isfinite(v):
                return "null"
            return format_float(v)
        if v is None:
            return "null"
        if isinstance(v, int):
            return str(v)
        return json.dumps(str(v))
    return emit(_jsonable(obj), 0) + "\n"


def write_csv(path, header, rows) -> None:
    """RFC-4180 CSV, UTF-8, LF line endings, 17-digit floats."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return "" if math.isnan(v) else format_float(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return v


# ---------------------------------------------------------------------------
# Strict config loading

_SECTIONS = {
    "sweep": SweepOptions,
    "phase": PhaseOptions,
    "threshold": ThresholdOptions,
    "contour": ContourOptions,
    "dgp": DgpConfig,
    "did": DidOptions,
}
_TOP_KEYS = {"params", "out_dir", "formats", "seed", *_SECTIONS}


def _coerce(section: str, key: str, default, value):
    if value is None:
        return None
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{section}.{key} must be a boolean, got {value!r}")
        return value
    if isinstance(default, int) and not isinstance(default, bool):
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
            raise ConfigError(f"{section}.{key} must be an integer, got {value!r}")
        return int(value)
    if default is None:
        # optional field: a number or a list, depending on what was given
        if isinstance(value, (list, tuple)):
            return tuple(value)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        raise ConfigError(f"{section}.{key} must be a number or list, got {value!r}")
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{section}.{key} must be a number, got {value!r}")
        return float(value)
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{section}.{key} must be a list, got {value!r}")
        return tuple(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{section}.{key} must be a string, got {value!r}")
        return value
    return value


def _build_section(cls, data: dict, section: str):
    proto = cls()
    known = {f.name: getattr(proto, f.name) for f in fields(cls)}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigError(f"unknown key '{section}.{unknown[0]}'")
    kwargs = {k: _coerce(section, k, known[k], v) for k, v in data.items()}
    try:
        return replace(proto, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {section} options: {exc}") from exc


def parse_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Assemble the run configuration.

    Precedence: command-line overrides > config file > built-in baseline.
    Unknown keys are rejected at every level.
    """
    file_data: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                file_data = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(file_data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(file_data) - _TOP_KEYS)
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}'")

    overrides = overrides or {}
    param_record = dict(file_data.get("params", {}))
    if not isinstance(param_record, dict):
        raise ConfigError("'params' must be a JSON object")
    for name in PARAM_FLAGS:
        if overrides.get(name) is not None:
            param_record[name] = overrides[name]
    try:
        params = validate_params(param_record)
    except ParameterError as exc:
        raise ConfigError(f"invalid params: {exc}") from exc

    sections = {}
    for name, cls in _SECTIONS.items():
        data = file_data.get(name, {})
        if not isinstance(data, dict):
            raise ConfigError(f"'{name}' must be a JSON object")
        sections[name] = _build_section(cls, data, name)

    out_dir = overrides.get("out") or file_data.get("out_dir", "out")
    formats = file_data.get("formats", ["csv", "json", "svg"])
    if overrides.get("format"):
        formats = [f.strip() for f in overrides["format"].split(",") if f.strip()]
    bad = sorted(set(formats) - {"csv", "json", "svg"})
    if bad:
        raise ConfigError(f"unknown format {bad[0]!r} (choose from csv, json, svg)")
    seed = overrides.get("seed", file_data.get("seed"))
    if seed is not None:
        seed = int(seed)
        sections["dgp"] = replace(sections["dgp"], seed=seed)

    return RunConfig(params=params, out_dir=str(out_dir),
                     formats=tuple(formats), seed=seed, **sections)


def effective_config(cfg: RunConfig) -> dict:
    return {
        "params": asdict(cfg.params),
        "sweep": asdict(cfg.sweep),
        "phase": asdict(cfg.phase),
        "threshold": asdict(cfg.threshold),
        "contour": asdict(cfg.contour),
        "dgp": asdict(cfg.dgp),
        "did": asdict(cfg.did),
        "out_dir": cfg.out_dir,
        "formats": list(cfg.formats),
        "seed": cfg.seed,
        "version": __version__,
    }


# ---------------------------------------------------------------------------
# Commands

def _meta(cfg: RunConfig, command: str, extra: dict | None = None) -> dict:
    meta = {
        "tool": "dataecon",
        "version": __version__,
        "command": command,
        "params": asdict(cfg.params),
        "seed": cfg.seed,
    }
    if extra:
        meta.update(extra)
    return meta


class _Writer:
    def __init__(self, cfg: RunConfig, command: str):
        self.cfg = cfg
        self.command = command
        os.makedirs(cfg.out_dir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.cfg.out_dir, name)

    def sidecar(self, name: str, extra: dict | None = None):
        with open(self.path(name + ".meta.json"), "w", encoding="utf-8") as fh:
            fh.write(dumps_json(_meta(self.cfg, self.command, extra)))

    def json(self, name: str, payload: dict, extra_meta: dict | None = None):
        if "json" not in self.cfg.formats:
            return
        doc = {"meta": _meta(self.cfg, self.command, extra_meta), "result": payload}
        with open(self.path(name), "w", encoding="utf-8") as fh:
            fh.write(dumps_json(doc))

    def csv(self, name: str, header, rows, extra_meta: dict | None = None):
        if "csv" not in self.cfg.formats:
            return
        write_csv(self.path(name), header, rows)
        self.sidecar(name, extra_meta)

    def svg(self, name: str, text: str, extra_meta: dict | None = None):
        if "svg" not in self.cfg.formats:
            return
        with open(self.path(name), "w", encoding="utf-8") as fh:
            fh.write(text)
        self.sidecar(name, extra_meta)


def _steady_payload(ss) -> dict:
    return {"k_star": ss.k_star, "c_star": ss.c_star, "l_star": ss.l_star,
            "y_star": ss.y_star, "r_star": ss.r_star, "feasible": ss.feasible}


def _cmd_steady(cfg: RunConfig, w: _Writer, args):
    ss = steady_state(cfg.params)
    w.json("steady.json", _steady_payload(ss))


def _cmd_qsteady(cfg: RunConfig, w: _Writer, args):
    p = cfg.params
    fs = firm_steady_state(p.rho, p)
    ss = steady_state(p)
    gap = abs(fs.k - ss.k_star) / ss.k_star if ss.k_star else math.nan
    w.json("qsteady.json", {
        "q": fs.q, "k": fs.k,
        "investment_rate": investment_rate(fs.q, p),
        "household_k_star": ss.k_star,
        "relative_gap": gap,
    })


def _sweep_axes(opt: SweepOptions):
    return (np.linspace(opt.theta_min, opt.theta_max, opt.theta_n),
            np.linspace(opt.eta_min, opt.eta_max, opt.eta_n))


def _sweep_rows(grid):
    cols = (grid.k_star, grid.c_star, grid.l_star, grid.y_star, grid.r_star)
    for i, theta in enumerate(grid.theta_axis):
        for j, eta in enumerate(grid.eta_axis):
            mask = grid.mask[i, j]
            yield (theta, eta, mask, *(col[i, j] for col in cols),
                   "true" if mask == "ok" else "")


_SWEEP_HEADER = ["theta", "eta", "mask", "k_star", "c_star", "l_star",
                 "y_star", "r_star", "feasible"]


def _cmd_sweep(cfg: RunConfig, w: _Writer, args):
    thetas, etas = _sweep_axes(cfg.sweep)
    grid = grid_sweep(cfg.params, thetas, etas)
    w.csv("sweep.csv", _SWEEP_HEADER, _sweep_rows(grid))
    for var in ("k_star", "c_star"):
        w.svg(f"sweep_{var}.svg",
              render_heatmap(grid, var, RenderSpec(kind="surface-heatmap")),
              {"variable": var})


def _cmd_threshold(cfg: RunConfig, w: _Writer, args):
    opt = cfg.threshold
    rng = None
    if opt.eta_lo is not None and opt.eta_hi is not None:
        rng = (opt.eta_lo, opt.eta_hi)
    curve = threshold_curve(cfg.params, opt.thetas, rng, opt.tol)
    w.csv("threshold.csv", ["theta", "eta_star", "c_star_max", "shape"],
          zip(curve.thetas, curve.eta_star, curve.c_star_max, curve.shapes),
          {"eta_range": list(curve.eta_range), "tol": opt.tol})
    w.svg("threshold.svg",
          render_curve(curve.thetas, curve.eta_star,
                       RenderSpec(kind="contour"),
                       "consumption-maximizing eta by theta", "theta", "eta*"),
          {"eta_range": list(curve.eta_range)})
    w.json("threshold.json", {
        "thetas": curve.thetas, "eta_star": curve.eta_star,
        "c_star_max": curve.c_star_max, "shapes": list(curve.shapes),
        "eta_range": list(curve.eta_range),
    })


def _cmd_contour(cfg: RunConfig, w: _Writer, args):
    opt = cfg.contour
    level_flag = getattr(args, "level", None)
    variable = getattr(args, "variable", None) or opt.variable
    thetas = np.linspace(opt.theta_min, opt.theta_max, opt.theta_n)
    etas = np.linspace(opt.eta_min, opt.eta_max, opt.eta_n)
    grid = grid_sweep(cfg.params, thetas, etas)
    vals = grid.values(variable)
    finite = vals[np.isfinite(vals)]
    level = level_flag if level_flag is not None else opt.level
    if level is None:
        level = float(np.median(finite)) if finite.size else 0.0
    contour = iso_equilibrium_contour(grid, variable, float(level))
    rows = []
    for ci, comp in enumerate(contour.components):
        for theta, eta in comp:
            rows.append((ci, theta, eta))
    w.csv("contour.csv", ["component", "theta", "eta"], rows,
          {"variable": variable, "level": float(level)})
    spec = RenderSpec(kind="contour",
                      x_range=(float(thetas[0]), float(thetas[-1])),
                      y_range=(float(etas[0]), float(etas[-1])))
    w.svg("contour.svg", render_contour(contour, spec),
          {"variable": variable, "level": float(level)})
    w.json("contour.json", {
        "variable": variable, "level": float(level),
        "n_components": len(contour.components),
        "n_points": int(sum(len(c) for c in contour.components)),
    })


def _phase_files(w: _Writer, portrait, prefix: str):
    nc_rows = [("c_nullcline", k, c) for k, c in portrait.c_nullcline]
    nc_rows += [("k_nullcline", k, c) for k, c in portrait.k_nullcline]
    w.csv(f"{prefix}_nullclines.csv", ["curve", "k", "c"], nc_rows)
    saddle_rows = []
    for name, path in zip(("low", "high"), portrait.stable_paths):
        for t, (c, k) in zip(path.t, path.states):
            saddle_rows.append((name, t, c, k))
    if saddle_rows:
        w.csv(f"{prefix}_saddle.csv", ["branch", "t", "c", "k"], saddle_rows)
    w.csv(f"{prefix}_field.csv", ["k", "c", "c_dot", "k_dot"],
          [tuple(row) for row in portrait.vector_field])


def _cmd_phase(cfg: RunConfig, w: _Writer, args):
    opt = cfg.phase
    ss = steady_state(cfg.params)
    k_range = (opt.k_lo_frac * ss.k_star, opt.k_hi_frac * ss.k_star)
    portrait = phase_portrait(cfg.params, k_range, n=opt.samples,
                              field_shape=(opt.field_nk, opt.field_nc),
                              include_saddle=opt.include_saddle, tol=opt.tol)
    eig = [[complex(v).real, complex(v).imag] for v in portrait.eigenvalues]
    w.json("phase.json", {
        "equilibrium": {"c": portrait.equilibrium.c, "k": portrait.equilibrium.k},
        "classification": portrait.classification,
        "eigenvalues": eig,
        "k_range": list(portrait.k_range),
        "branch_status": [p.status for p in portrait.stable_paths],
    })
    _phase_files(w, portrait, "phase")
    w.svg("phase.svg", render_phase(portrait, RenderSpec(kind="phase")))


def _cmd_shock(cfg: RunConfig, w: _Writer, args):
    p_before = cfg.params
    p_after = cfg.params
    for name in ("eta", "theta"):
        b = getattr(args, f"{name}_before", None)
        a = getattr(args, f"{name}_after", None)
        if b is not None:
            p_before = p_before.replace(**{name: b})
        if a is not None:
            p_after = p_after.replace(**{name: a})
    shock = shock_experiment(p_before, p_after,
                             include_saddle=cfg.phase.include_saddle,
                             tol=cfg.phase.tol)
    w.json("shock.json", {
        "before": _steady_payload(steady_state(p_before)),
        "after": _steady_payload(steady_state(p_after)),
        "dk_star": shock.dk_star,
        "dc_star": shock.dc_star,
        "params_before": asdict(p_before),
        "params_after": asdict(p_after),
    })
    _phase_files(w, shock.before, "shock_before")
    _phase_files(w, shock.after, "shock_after")
    w.svg("shock.svg", render_shock(shock, RenderSpec(kind="phase")))


def _cmd_did_sim(cfg: RunConfig, w: _Writer, args):
    panel = generate_panel(cfg.dgp)
    if "csv" in cfg.formats:
        write_panel_csv(panel, w.path("panel.csv"))
        w.sidecar("panel.csv", {"dgp": asdict(cfg.dgp)})
    window = (cfg.did.window_lead, cfg.did.window_lag)
    did = twfe_did(panel, drop_adoption_period=cfg.did.drop_adoption_period)
    es = event_study(panel, window=window,
                     drop_adoption_period=cfg.did.drop_adoption_period)
    w.json("did.json", {
        "att": did.att, "se": did.se, "n_obs": did.n_obs,
        "n_units_absorbed": did.n_units_absorbed,
        "n_years_absorbed": did.n_years_absorbed,
        "true_effect": cfg.dgp.effect,
    }, {"dgp": asdict(cfg.dgp)})
    w.csv("event_study.csv", ["period", "coefficient", "std_error"],
          zip(es.periods, es.coefficients, es.std_errors),
          {"window": list(window)})
    w.svg("event_study.svg",
          render_event_study(es, RenderSpec(kind="event-study")),
          {"window": list(window)})


_COMMANDS = {
    "steady": _cmd_steady,
    "sweep": _cmd_sweep,
    "threshold": _cmd_threshold,
    "contour": _cmd_contour,
    "phase": _cmd_phase,
    "shock": _cmd_shock,
    "qsteady": _cmd_qsteady,
    "did-sim": _cmd_did_sim,
}


def run_command(cfg: RunConfig, command: str, args=None) -> int:
    """Execute one command, writing artifacts into cfg.out_dir.

    Returns 0 on success; numerical/regime failures raise ModelError (exit
    code 1 in main), configuration problems raise ConfigError (exit code 2).
    """
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    w = _Writer(cfg, command)
    with open(w.path("effective_config.json"), "w", encoding="utf-8") as fh:
        fh.write(dumps_json(effective_config(cfg)))
    _COMMANDS[command](cfg, w, args or argparse.Namespace())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument("--format", metavar="LIST",
                        help="comma list of csv,json,svg")
    common.add_argument("--seed", type=int, metavar="N", help="DGP seed")
    for name in PARAM_FLAGS:
        common.add_argument(f"--{name}", type=float, metavar="X")

    parser = argparse.ArgumentParser(
        prog="dataecon",
        description="Steady states, phase diagrams, (theta, eta) sweeps, and "
                    "synthetic staggered-DID simulations for the data-economy model.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("steady", "sweep", "threshold", "phase", "qsteady", "did-sim"):
        sub.add_parser(name, parents=[common])
    p_contour = sub.add_parser("contour", parents=[common])
    p_contour.add_argument("--level", type=float)
    p_contour.add_argument("--variable", choices=["k_star", "c_star"])
    p_shock = sub.add_parser("shock", parents=[common])
    p_shock.add_argument("--eta-before", type=float, dest="eta_before")
    p_shock.add_argument("--eta-after", type=float, dest="eta_after")
    p_shock.add_argument("--theta-before", type=float, dest="theta_before")
    p_shock.add_argument("--theta-after", type=float, dest="theta_after")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    overrides = {name: getattr(args, name, None) for name in PARAM_FLAGS}
    overrides["out"] = args.out
    overrides["format"] = args.format
    overrides["seed"] = args.seed
    try:
        cfg = parse_config(args.config, overrides)
        return run_command(cfg, args.command, args)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
