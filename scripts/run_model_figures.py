#!/usr/bin/env python3
"""Produce the full set of model figures and tables in one run.

Writes steady-state solutions, the (theta, eta) equilibrium surfaces, the
consumption-threshold curve, iso-consumption contours, the baseline phase
diagram with saddle branches, and two parameter-shock overlays.
"""

import argparse
import json
import os
import sys


from dataecon import baseline_params, sensitivity_signs, steady_state
from dataecon.cli import parse_config, run_command


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/figures")
    args = ap.parse_args()

    cfg = parse_config(None, {"out": args.out})
    for command in ("steady", "qsteady", "sweep", "threshold", "contour", "phase"):
        run_command(cfg, command)
        print(f"wrote {command} artifacts")

    shocks = {
        # conversion-rate shock at fixed dataization share (low-eta regime)
        "shock_eta": {"eta_before": 0.10, "eta_after": 0.20},
        # dataization shock at a mature conversion rate (high-eta regime)
        "shock_theta": {"eta_before": 0.8, "eta_after": 0.8,
                        "theta_before": 0.4, "theta_after": 0.7},
    }
    for name, shock in shocks.items():
        run_command(parse_config(None, {"out": os.path.join(args.out, name), **shock}),
                    "shock")
        print(f"wrote {name} artifacts")

    # quick console summary
    p = baseline_params()
    ss = steady_state(p)
    rep = sensitivity_signs(p)
    summary = {
        "baseline": {"eta": p.eta, "theta": p.theta,
                     "k_star": ss.k_star, "c_star": ss.c_star},
        "local_signs": {"dk_deta": rep.dk_deta.sign, "dk_dtheta": rep.dk_dtheta.sign,
                        "dc_deta": rep.dc_deta.sign, "dc_dtheta": rep.dc_dtheta.sign},
    }
    print(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
