#!/usr/bin/env python3
"""Monte-Carlo study of the staggered TWFE estimator on synthetic panels.

Simulates city-year panels with a known treatment effect, reports bias and
coverage of the clustered confidence interval across replications, and
writes one event-study figure for the first replication.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from dataecon import DgpConfig, event_study, generate_panel, twfe_did
from dataecon.svgplot import RenderSpec, render_event_study


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/did_study")
    ap.add_argument("--reps", type=int, default=200)
    ap.add_argument("--effect", type=float, default=0.05)
    ap.add_argument("--noise", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    dgp = DgpConfig(n_units=216, years=(2000, 2022), share_treated=0.5,
                    unit_effect_scale=1.0, year_effect_scale=0.5,
                    noise_scale=args.noise, effect=args.effect, seed=args.seed)
    ests, ses, covered = [], [], 0
    for rep in range(args.reps):
        panel = generate_panel(replace(dgp, seed=args.seed + rep))
        if rep == 0:
            first = panel  # the event-study figure shows replication 0
        res = twfe_did(panel)
        ests.append(res.att)
        ses.append(res.se)
        covered += abs(res.att - args.effect) <= 1.96 * res.se

    ests = np.asarray(ests)
    print(f"replications : {args.reps}")
    print(f"true effect  : {args.effect:.4f}")
    print(f"mean estimate: {ests.mean():.5f}  (bias {ests.mean() - args.effect:+.5f})")
    print(f"sd estimate  : {ests.std(ddof=1):.5f}")
    print(f"mean SE      : {np.mean(ses):.5f}")
    print(f"95% coverage : {covered / args.reps:.3f}")

    es = event_study(first, window=(-5, 5))
    path = os.path.join(args.out, "event_study.svg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_event_study(es, RenderSpec(kind="event-study")))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
