#!/usr/bin/env python3
"""Cruise-control demo: held inputs break the loop, polynomial inputs fix it.

The controller differentiates the vehicle position to estimate speed.  On a
fixed exchange grid with held (constant) inputs that derivative collapses to
zero between exchanges, the controller sees a standing vehicle, and full
throttle drives the speed far past the target.  The adaptive master exchanges
polynomial inputs, the derivative survives, and the car settles on the
setpoint.  Writes both traces as CSV and prints the closing speeds.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from f3ornits.config import RunConfig, materialize
from f3ornits.master import run_f3ornits, run_jacobi


def closing_speed(trace, window: float = 5.0) -> float:
    t, x = trace.output_series("vehicle", 0)
    i = next(k for k, tk in enumerate(t) if tk >= t[-1] - window)
    return (x[-1] - x[i]) / (t[-1] - t[i])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--dt", type=float, default=0.05, help="baseline grid step")
    ap.add_argument("--output-dir", default="runs/car_demo")
    args = ap.parse_args()

    held = materialize(RunConfig(
        model="car", method="jacobi", dt=args.dt, seed=args.seed,
    ))
    adaptive = materialize(RunConfig(model="car", seed=args.seed))
    target = held.model.params.v_target

    grid = run_jacobi(held.model.problem, args.dt)
    poly = run_f3ornits(adaptive.model.problem, adaptive.options)

    out = Path(args.output_dir)
    grid.write_csv(out, "held")
    poly.write_csv(out, "adaptive")

    print(f"target speed                {target:8.2f} m/s")
    print(
        f"held inputs, dt={args.dt:g}:      "
        f"{closing_speed(grid):8.2f} m/s over {grid.total_events} exchanges"
    )
    print(
        f"polynomial inputs, adaptive:{closing_speed(poly):8.2f} m/s "
        f"over {poly.total_events} exchanges"
    )
    print(f"traces under {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
