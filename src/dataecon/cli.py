"""Command-line front end: configuration, serialization, figure emission.

Commands map onto the model surfaces: ``steady`` and ``qsteady`` solve the
two steady-state blocks, ``sweep``/``threshold``/``contour`` cover the
(theta, eta) plane, ``phase``/``shock`` draw the dynamical system, and
``did-sim`` runs the synthetic staggered-DID harness.

``RunConfig`` is every command's only input.  Config files follow it and its
section dataclasses: sections, keys and value types come from their fields
and annotations, and a malformed value raises ``ConfigError`` (exit code 2)
when the file is parsed.  Flags override single keys (``--seed`` is
``dgp.seed``), so a run's ``effective_config.json`` reruns it.

Outputs are deterministic: JSON floats and float CSV columns serialize with
17 significant digits, keys are sorted, and SVG is assembled from
fixed-format strings.
CSV is written in blocks of rows, each column of a block formatted at once
into a byte matrix; a large sweep streams blocks of whole theta rows.
Every artifact carries the effective parameters and tool version, embedded
for JSON and as a ``.meta.json`` sidecar for CSV/SVG.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, is_dataclass
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .core import steady_state
from .dynamics import phase_portrait, shock_experiment
from .csvcells import (_CSV_CHUNK_ROWS, _FLOAT_FORMAT, _PAD, _float_cells, _int_cells,
                       _run_cells, _text_cells, _write_rows)
from .empirics import DgpConfig, did_fits, generate_panel, write_panel_csv
from .errors import ConfigError, ModelError, ParameterError
from .params import BASELINE, ModelParams
from .qtheory import firm_steady_state, investment_rate
from .svgplot import (RenderSpec, render_contour, render_curve,
                      render_event_study, render_heatmap, render_phase,
                      render_shock)
from .sweep import (_QUANTITIES, _check_grid_size, grid_sweep, iso_equilibrium_contour,
                    threshold_curve)

PARAM_FLAGS = tuple(BASELINE)


@dataclass(frozen=True)
class SweepOptions:
    theta_min: float = 0.05
    theta_max: float = 0.95
    theta_n: int = 50
    eta_min: float = 0.05
    eta_max: float = 0.95
    eta_n: int = 50

    def __post_init__(self):
        """Refuse an axis of no points; one point fails later, as an empty axis range."""
        for name in ("theta_n", "eta_n"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class PhaseOptions:
    tol: float = 1e-9
    include_saddle: bool = True


@dataclass(frozen=True)
class ThresholdOptions:
    thetas: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    eta_lo: float | None = None
    eta_hi: float | None = None
    tol: float = 1e-4

    def __post_init__(self):
        if (self.eta_lo is None) != (self.eta_hi is None):
            raise ConfigError("give both eta_lo and eta_hi, or neither")
        if not self.thetas:
            raise ConfigError("thetas must be a nonempty list")


@dataclass(frozen=True)
class ContourOptions(SweepOptions):
    """The grid of a sweep section with its own defaults, and what to contour on it."""

    theta_n: int = 46
    eta_min: float = 0.60
    eta_n: int = 36
    variable: str = "c_star"
    level: float | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.variable not in _QUANTITIES:
            raise ConfigError(f"unknown variable {self.variable!r}; choose from "
                              f"{', '.join(_QUANTITIES)}")


@dataclass(frozen=True)
class ShockOptions:
    """Values of eta and theta before and after a shock; None keeps ``params``'s."""

    eta_before: float | None = None
    eta_after: float | None = None
    theta_before: float | None = None
    theta_after: float | None = None

    def params(self, p: ModelParams) -> tuple[ModelParams, ModelParams]:
        """``p`` before and after the shock, each given value in place."""
        def at(when):
            given = {name: getattr(self, f"{name}_{when}") for name in ("eta", "theta")}
            return p.replace(**{name: v for name, v in given.items() if v is not None})
        return at("before"), at("after")


@dataclass(frozen=True)
class DidOptions:
    drop_adoption_period: bool = True


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams = ModelParams()
    sweep: SweepOptions = SweepOptions()
    phase: PhaseOptions = PhaseOptions()
    threshold: ThresholdOptions = ThresholdOptions()
    contour: ContourOptions = ContourOptions()
    shock: ShockOptions = ShockOptions()
    dgp: DgpConfig = DgpConfig()
    did: DidOptions = DidOptions()
    out_dir: str = "out"
    formats: tuple[str, ...] = ("csv", "json", "svg")


# ---------------------------------------------------------------------------
# Deterministic serialization

def format_float(v: float) -> str:
    """17-significant-digit decimal form; round-trips float64 exactly."""
    return _FLOAT_FORMAT % v


def dumps_json(obj) -> str:
    """JSON with sorted keys and 17-significant-digit floats; numpy scalars
    and arrays are written as their Python values, complex numbers as
    ``[real, imag]``."""
    def emit(v, depth):
        if isinstance(v, np.ndarray):
            v = v.tolist()
        elif isinstance(v, complex):
            v = [v.real, v.imag]
        elif isinstance(v, np.floating):
            v = float(v)
        elif isinstance(v, np.integer):
            v = int(v)
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
    return emit(obj, 0) + "\n"


def write_csv(path, header, blocks) -> None:
    """RFC-4180 CSV, UTF-8, LF line endings, float-dtype columns in 17 digits.

    ``blocks`` yields blocks of equally long columns in header order, each
    written before the next is read.
    """
    with open(path, "wb") as fh:
        _write_rows(fh, [_text_cells([cell]) for cell in header])
        for block in blocks:
            _write_rows(fh, [_csv_column(col) for col in block])


class _Cells:
    """A CSV column formatted already, as a cell matrix; numpy reads it as
    the str array of its cells."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array([bytes(row[row != _PAD]).decode() for row in self.matrix], dtype=str)


def _csv_column(col) -> np.ndarray:
    """The cell matrix of one column: floats in 17 digits (NaN empty),
    integers in decimal, a list or tuple of strings as given; only string
    cells are quoted.  Any other column raises TypeError."""
    if isinstance(col, _Cells):
        return col.matrix
    if isinstance(col, (list, tuple)) and all(type(v) is str for v in col):
        return _text_cells(list(col))
    arr = np.asarray(col)
    if arr.dtype.kind == "f":
        return _float_cells(arr)
    if arr.dtype.kind in "iu":
        return _int_cells(arr)
    raise TypeError(f"no CSV cells for a column of dtype {arr.dtype}")


# ---------------------------------------------------------------------------
# Strict config loading

_KINDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}
_FLAG_KEYS = {"out": "out_dir", "format": "formats"}
_SECTION_FLAGS = {"params": PARAM_FLAGS, "contour": ("level", "variable"),
                  "shock": tuple(f.name for f in fields(ShockOptions)), "dgp": ("seed",)}


def _coerce(where: str, hint, value):
    """``value`` from JSON as the annotation ``hint``: bool, int, float, str,
    ``tuple[T, ...]`` or ``tuple[T, T]`` (from a list), or ``X | None``."""
    args = get_args(hint)
    if get_origin(hint) in (Union, UnionType):  # X | None
        if value is None:
            return None
        (hint,) = (a for a in args if a is not type(None))
        return _coerce(where, hint, value)
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(items) != len(value):
            raise ConfigError(f"{where} must be a list of {len(items)} items, got {value!r}")
        return tuple(_coerce(f"{where}[{i}]", t, v) for i, (t, v) in enumerate(zip(items, value)))
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not {bool: isinstance(value, bool),
            int: number and (isinstance(value, int) or value.is_integer()),
            # an integer literal beyond float range is not a number either
            float: number and (isinstance(value, float) or abs(value) <= sys.float_info.max),
            str: isinstance(value, str)}[hint]:
        raise ConfigError(f"{where} must be {_KINDS[hint]}, got {value!r}")
    return hint(value)


def _build(cls, data, where: str):
    """The dataclass ``cls`` from the JSON object ``data``: unknown keys are
    refused, values coerced to their annotations, and each field whose
    default is a dataclass built from its own section."""
    if not isinstance(data, dict):
        raise ConfigError(f"'{where}' must be a JSON object")
    prefix = f"{where}." if where else ""
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown key '{prefix}{unknown[0]}'")
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        if is_dataclass(f.default):
            kwargs[f.name] = _build(type(f.default), data.get(f.name, {}), f.name)
        elif f.name in data:
            kwargs[f.name] = _coerce(prefix + f.name, hints[f.name], data[f.name])
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def parse_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Assemble the run configuration.

    Precedence: command-line overrides > config file > built-in baseline.
    Unknown keys and values that do not match their field's annotation are
    refused, and so are shock values outside the ``ModelParams`` ranges;
    None or empty overrides count as not given.  A top-level
    ``version``, as ``effective_config.json`` records it, must equal this
    tool's version.
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

    flags = {k: v for k, v in (overrides or {}).items() if v is not None and v != ""}
    if "format" in flags:
        flags["format"] = [f.strip() for f in flags["format"].split(",") if f.strip()]
    data = {**file_data, **{key: flags[flag] for flag, key in _FLAG_KEYS.items() if flag in flags}}
    version = data.pop("version", __version__)
    if version != __version__:
        raise ConfigError(f"config version {version!r} does not match dataecon {__version__}")
    for section, names in _SECTION_FLAGS.items():
        if isinstance(data.get(section, {}), dict):  # anything else _build refuses
            data[section] = {**data.get(section, {}),
                             **{name: flags[name] for name in names if name in flags}}
    cfg = _build(RunConfig, data, "")
    bad = sorted(set(cfg.formats) - set(RunConfig.formats))
    if bad:
        raise ConfigError(f"unknown format {bad[0]!r} (choose from {', '.join(RunConfig.formats)})")
    try:
        cfg.shock.params(cfg.params)
    except ParameterError as exc:
        raise ConfigError(f"invalid shock: {exc}") from exc
    return cfg


def effective_config(cfg: RunConfig) -> dict:
    return {**asdict(cfg), "version": __version__}


# ---------------------------------------------------------------------------
# Commands

def _meta(cfg: RunConfig, command: str, extra: dict | None = None) -> dict:
    return {"tool": "dataecon", "version": __version__, "command": command,
            "params": asdict(cfg.params), **(extra or {})}


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

    def csv(self, name: str, header, blocks, extra_meta: dict | None = None):
        if "csv" not in self.cfg.formats:
            return
        write_csv(self.path(name), header, blocks)
        self.sidecar(name, extra_meta)

    def svg(self, name: str, render, extra_meta: dict | None = None):
        if "svg" not in self.cfg.formats:
            return
        text = render()
        with open(self.path(name), "w", encoding="utf-8") as fh:
            fh.write(text)
        self.sidecar(name, extra_meta)


def _cmd_steady(cfg: RunConfig, w: _Writer):
    ss = steady_state(cfg.params)
    w.json("steady.json", asdict(ss))


def _cmd_qsteady(cfg: RunConfig, w: _Writer):
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


def _surface(p: ModelParams, opt: SweepOptions, kind: str):
    """The grid of a sweep or contour section and the figure spec over its
    axes; an oversized grid is refused before its axes are built, and the
    spec refuses a one-point axis before any file is written, whatever the
    formats."""
    _check_grid_size(opt.theta_n, opt.eta_n)
    thetas = np.linspace(opt.theta_min, opt.theta_max, opt.theta_n)
    etas = np.linspace(opt.eta_min, opt.eta_max, opt.eta_n)
    spec = RenderSpec(kind=kind,
                      x_range=(float(thetas[0]), float(thetas[-1])),
                      y_range=(float(etas[0]), float(etas[-1])))
    return grid_sweep(p, thetas, etas), spec


def _sweep_blocks(grid):
    """CSV blocks of whole theta rows, at most ``_CSV_CHUNK_ROWS`` rows each
    (or one theta row), every column formatted already.  The axes and the
    feasible flags are formatted once and gathered per block, the mask once
    per run of equal cells; a block's quantities are formatted in one
    call."""
    n_theta, n_eta = grid.mask.shape
    thetas, etas = _float_cells(grid.theta_axis), _float_cells(grid.eta_axis)
    ok = grid.mask == "ok"
    feasible = _text_cells(["", "true"])
    step = max(1, _CSV_CHUNK_ROWS // max(n_eta, 1))
    for i in range(0, n_theta, step):
        rows = np.arange(i, min(i + step, n_theta))
        values = np.stack([getattr(grid, q)[rows].ravel() for q in _QUANTITIES])
        quantities = _float_cells(values.ravel()).reshape(len(values), values.shape[1], -1)
        yield (_Cells(thetas[rows.repeat(n_eta)]), _Cells(np.tile(etas, (len(rows), 1))),
               _Cells(_run_cells(grid.mask[rows].ravel())),
               *map(_Cells, quantities), _Cells(feasible[ok[rows].ravel().astype(np.intp)]))


_SWEEP_HEADER = ["theta", "eta", "mask", *_QUANTITIES, "feasible"]


def _cmd_sweep(cfg: RunConfig, w: _Writer):
    grid, spec = _surface(cfg.params, cfg.sweep, "surface-heatmap")
    for var in ("k_star", "c_star"):
        w.svg(f"sweep_{var}.svg", lambda: render_heatmap(grid, var, spec),
              {"variable": var})
    w.csv("sweep.csv", _SWEEP_HEADER, _sweep_blocks(grid))


def _cmd_threshold(cfg: RunConfig, w: _Writer):
    opt = cfg.threshold
    rng = None if opt.eta_lo is None else (opt.eta_lo, opt.eta_hi)
    curve = threshold_curve(cfg.params, opt.thetas, rng, opt.tol)
    w.csv("threshold.csv", ["theta", "eta_star", "c_star_max", "shape"],
          [(curve.thetas, curve.eta_star, curve.c_star_max, curve.shapes)],
          {"eta_range": list(curve.eta_range), "tol": opt.tol})
    w.svg("threshold.svg",
          lambda: render_curve(curve.thetas, curve.eta_star,
                               RenderSpec(kind="contour"),
                               "consumption-maximizing eta by theta", "theta", "eta*"),
          {"eta_range": list(curve.eta_range)})
    w.json("threshold.json", asdict(curve))


def _cmd_contour(cfg: RunConfig, w: _Writer):
    opt = cfg.contour
    grid, spec = _surface(cfg.params, opt, "contour")
    vals = grid.values(opt.variable)
    finite = vals[np.isfinite(vals)]
    level = opt.level
    if level is None:
        level = float(np.median(finite)) if finite.size else 0.0
    key = {"variable": opt.variable, "level": level}
    contour = iso_equilibrium_contour(grid, opt.variable, level)
    comps = contour.components
    points = np.concatenate(comps) if comps else np.empty((0, 2))
    ids = np.repeat(np.arange(len(comps)), [len(c) for c in comps])
    w.csv("contour.csv", ["component", "theta", "eta"],
          [(ids, points[:, 0], points[:, 1])], key)
    w.svg("contour.svg", lambda: render_contour(contour, spec), key)
    w.json("contour.json", {**key, "n_components": len(comps), "n_points": len(points)})


def _phase_files(w: _Writer, portrait, prefix: str):
    curves = (("c_nullcline", portrait.c_nullcline), ("k_nullcline", portrait.k_nullcline))
    w.csv(f"{prefix}_nullclines.csv", ["curve", "k", "c"],
          [([name] * len(kc), kc[:, 0], kc[:, 1]) for name, kc in curves])
    branches = [([name] * len(path.t), path.t, path.states[:, 0], path.states[:, 1])
                for name, path in zip(("low", "high"), portrait.stable_paths)]
    if any(len(path.t) for path in portrait.stable_paths):
        w.csv(f"{prefix}_saddle.csv", ["branch", "t", "c", "k"], branches)
    w.csv(f"{prefix}_field.csv", ["k", "c", "c_dot", "k_dot"],
          [portrait.vector_field.T])


def _cmd_phase(cfg: RunConfig, w: _Writer):
    portrait = phase_portrait(cfg.params, include_saddle=cfg.phase.include_saddle,
                              tol=cfg.phase.tol)
    eig = [[complex(v).real, complex(v).imag] for v in portrait.eigenvalues]
    w.json("phase.json", {
        "equilibrium": {"c": portrait.equilibrium.c, "k": portrait.equilibrium.k},
        "classification": portrait.classification,
        "eigenvalues": eig,
        "k_range": list(portrait.k_range),
        "branch_status": [p.status for p in portrait.stable_paths],
    })
    _phase_files(w, portrait, "phase")
    w.svg("phase.svg", lambda: render_phase(portrait, RenderSpec(kind="phase")))


def _cmd_shock(cfg: RunConfig, w: _Writer):
    p_before, p_after = cfg.shock.params(cfg.params)
    shock = shock_experiment(p_before, p_after,
                             include_saddle=cfg.phase.include_saddle,
                             tol=cfg.phase.tol)
    w.json("shock.json", {
        "before": asdict(steady_state(p_before)),
        "after": asdict(steady_state(p_after)),
        "dk_star": shock.dk_star,
        "dc_star": shock.dc_star,
        "params_before": asdict(p_before),
        "params_after": asdict(p_after),
    })
    _phase_files(w, shock.before, "shock_before")
    _phase_files(w, shock.after, "shock_after")
    w.svg("shock.svg", lambda: render_shock(shock, RenderSpec(kind="phase")))


def _cmd_did_sim(cfg: RunConfig, w: _Writer):
    panel = generate_panel(cfg.dgp)
    dgp = {"dgp": asdict(cfg.dgp)}
    if "csv" in cfg.formats:
        write_panel_csv(panel, w.path("panel.csv"))
        w.sidecar("panel.csv", dgp)
    did, es = did_fits(panel, drop_adoption_period=cfg.did.drop_adoption_period)
    window = [int(es.periods[0]), int(es.periods[-1])]
    w.json("did.json", {
        **asdict(did), "true_effect": cfg.dgp.true_att(panel, cfg.did.drop_adoption_period),
    }, dgp)
    w.csv("event_study.csv", ["period", "coefficient", "std_error"],
          [(es.periods, es.coefficients, es.std_errors)],
          {"window": window, **dgp})
    w.svg("event_study.svg",
          lambda: render_event_study(es, RenderSpec(kind="event-study")),
          {"window": window, **dgp})


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


def run_command(cfg: RunConfig, command: str) -> int:
    """Execute one command, writing artifacts into cfg.out_dir.

    Returns 0 on success; numerical/regime failures raise ModelError (exit
    code 1 in main), configuration problems raise ConfigError (exit code 2).
    """
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    w = _Writer(cfg, command)
    with open(w.path("effective_config.json"), "w", encoding="utf-8") as fh:
        fh.write(dumps_json(effective_config(cfg)))
    _COMMANDS[command](cfg, w)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument("--format", metavar="LIST",
                        help="comma list of csv,json,svg")
    common.add_argument("--seed", type=int, metavar="N", help="DGP seed (dgp.seed)")
    for name in PARAM_FLAGS:
        common.add_argument(f"--{name}", type=float, metavar="X")

    parser = argparse.ArgumentParser(
        prog="dataecon",
        description="Steady states, phase diagrams, (theta, eta) sweeps, and "
                    "synthetic staggered-DID simulations for the data-economy model.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, parents=[common]) for name in _COMMANDS}
    commands["contour"].add_argument("--level", type=float)
    commands["contour"].add_argument("--variable", choices=_QUANTITIES)
    for name in _SECTION_FLAGS["shock"]:
        commands["shock"].add_argument(f"--{name.replace('_', '-')}", type=float, dest=name)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config, vars(args))
        return run_command(cfg, args.command)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ConfigError, ParameterError)) else 1


if __name__ == "__main__":
    sys.exit(main())
