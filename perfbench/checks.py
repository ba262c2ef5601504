"""Output checks of the benchmark.

Each check returns a list of problems; an empty list is a pass.  The checks
take parsed artifacts, so a test can hand them a perturbed result.  The
oracles are written here, independently of the program, or are the
program's own slow paths (scalar ``steady_state``, ``method="dummies"``).
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import random

STEADY_REL_TOL = 1e-12
QSTEADY_GAP_TOL = 1e-12
SWEEP_REL_TOL = 1e-12
# Same tolerances as the within-vs-dummies test of the unit suite.
DUMMIES_ATT_TOL = 1e-8
DUMMIES_SE_REL_TOL = 1e-6
ATT_MAX_SE = 4.0


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a)


def cobb_douglas_steady(alpha, beta, w, delta, rho) -> dict:
    """Textbook steady state when data has no effect (eta = 0).

    Output is y = k^alpha l^beta; labor solves w = beta y / l and capital
    solves r = alpha y / k = rho + delta.
    """
    r = rho + delta
    k = ((beta / w) ** beta * (alpha / r) ** (1.0 - beta)) ** (1.0 / (1.0 - alpha - beta))
    y = r * k / alpha
    return {"k_star": k, "c_star": y - delta * k, "l_star": beta * y / w, "y_star": y}


def check_steady(doc: dict) -> list[str]:
    """``steady --eta 0`` against the Cobb-Douglas closed form."""
    p, res = doc["meta"]["params"], doc["result"]
    if p["eta"] != 0:
        return [f"expected eta = 0, artifact has {p['eta']}"]
    want = cobb_douglas_steady(p["alpha"], p["beta"], p["w"], p["delta"], p["rho"])
    out = [f"{key} = {res[key]!r}, closed form {value!r}"
           for key, value in want.items()
           if not _rel(res[key], value) <= STEADY_REL_TOL]
    if res.get("feasible") is not True:
        out.append("steady state not feasible")
    return out


def check_qsteady(doc: dict) -> list[str]:
    gap = doc["result"]["relative_gap"]
    if gap is None or not 0.0 <= gap <= QSTEADY_GAP_TOL:
        return [f"relative_gap {gap!r} exceeds {QSTEADY_GAP_TOL}"]
    return []


def check_phase(doc: dict) -> list[str]:
    res = doc["result"]
    out = []
    if res["classification"] != "saddle":
        out.append(f"classification {res['classification']!r}, expected 'saddle'")
    if res["branch_status"] != ["converged", "converged"]:
        out.append(f"branch status {res['branch_status']!r}")
    return out


# ---------------------------------------------------------------------------
# (theta, eta) surface

def read_sweep_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def sample_cells(rows: list[dict], seed: int, per_mask: int = 16,
                 extra: int = 32) -> list[int]:
    """Row indices: up to ``per_mask`` of each mask category, plus ``extra``
    drawn from the whole grid."""
    rng = random.Random(seed)
    by_mask: dict = {}
    for i, row in enumerate(rows):
        by_mask.setdefault(row["mask"], []).append(i)
    picked = set()
    for _, idx in sorted(by_mask.items()):
        picked.update(rng.sample(idx, min(per_mask, len(idx))))
    picked.update(rng.sample(range(len(rows)), min(extra, len(rows))))
    return sorted(picked)


def scalar_cell(base, theta: float, eta: float):
    """Mask category and steady state of one cell by the scalar solver."""
    from dataecon import steady_state
    from dataecon.errors import DegenerateError, DomainError, RegimeError
    try:
        ss = steady_state(base.replace(theta=theta, eta=eta))
    except RegimeError:
        return "singular", None
    except (DegenerateError, DomainError):
        return "degenerate", None
    return ("ok", ss) if ss.feasible else ("infeasible", None)


def check_sweep_cells(rows: list[dict], base, indices) -> list[str]:
    """Sampled sweep rows against scalar ``steady_state``: same mask
    category, and the same values to SWEEP_REL_TOL on 'ok' cells."""
    out = []
    for i in indices:
        row = rows[i]
        theta, eta = float(row["theta"]), float(row["eta"])
        mask, ss = scalar_cell(base, theta, eta)
        if mask != row["mask"]:
            out.append(f"cell ({theta!r}, {eta!r}): mask {row['mask']!r}, scalar {mask!r}")
            continue
        if ss is None:
            continue
        for key in ("k_star", "c_star", "l_star", "y_star", "r_star"):
            got = float(row[key]) if row[key] else math.nan
            if not _rel(got, getattr(ss, key)) <= SWEEP_REL_TOL:
                out.append(f"cell ({theta!r}, {eta!r}): {key} {got!r}, "
                           f"scalar {getattr(ss, key)!r}")
    return out


# ---------------------------------------------------------------------------
# DID

def check_within_dummies(att: float, se: float, coefs, dummies, es_dummies) -> list[str]:
    """Replication 0 as the program wrote it (within transformation)
    against the explicit-dummies fit of the same panel."""
    out = []
    if not abs(att - dummies.att) < DUMMIES_ATT_TOL:
        out.append(f"att {att!r} vs dummies {dummies.att!r}")
    if not _rel(se, dummies.se) <= DUMMIES_SE_REL_TOL:
        out.append(f"se {se!r} vs dummies {dummies.se!r}")
    for period, got, want in zip(es_dummies.periods, coefs, es_dummies.coefficients):
        want = float(want)
        if math.isnan(want) != math.isnan(got) or (
                not math.isnan(want) and not abs(got - want) < DUMMIES_ATT_TOL):
            out.append(f"event-study period {period}: {got!r} vs dummies {want!r}")
    return out


def check_panel_roundtrip(read, expected, n_rows: int) -> list[str]:
    """The panel CSV read back equals the generated panel, row for row."""
    import numpy as np
    if len(read.unit) != n_rows:
        return [f"panel CSV has {len(read.unit)} rows, expected {n_rows}"]
    out = [f"column {name} differs after the CSV round trip"
           for name in ("unit", "year", "outcome", "controls")
           if not np.array_equal(getattr(read, name), getattr(expected, name))]
    if not np.array_equal(read.adoption_year, expected.adoption_year, equal_nan=True):
        out.append("column adoption_year differs after the CSV round trip")
    return out


def check_att(doc: dict) -> list[str]:
    res = doc["result"]
    z = abs(res["att"] - res["true_effect"]) / res["se"]
    if not z <= ATT_MAX_SE:
        return [f"ATT {res['att']!r} is {z:.2f} SE from the true effect "
                f"{res['true_effect']!r}"]
    return []


# ---------------------------------------------------------------------------
# Reruns

def digest_tree(root) -> str:
    """SHA-256 over every file under ``root``: relative path and bytes."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def check_rerun(first: str, again: str) -> list[str]:
    return [] if first == again else ["artifacts differ from the first pass"]
