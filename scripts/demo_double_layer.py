"""Run one scenario under both partition schemes and compare the outcomes.

The bundled default is a 5x5 system on a three-cluster network whose size
lists are a valid layout for either scheme, so the same file exercises both
code paths.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from duolayer import fit_convergence_rate, integrate, reassembled_solution
from duolayer.cli import build_problem, parse_scenario

DEFAULT = Path(__file__).resolve().parents[1] / "scenarios" / "three_cluster_5x5.json"


def run_scheme(scenario, scheme):
    inst, part = build_problem(scenario, scheme)
    res = integrate(part, inst.topology, scenario.sim)
    final = res.trajectory.samples[-1]
    slope, r2 = fit_convergence_rate(res.trajectory)
    x_hat = reassembled_solution(part, res.final_state)
    return res, final, slope, r2, x_hat


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("scenario", nargs="?", default=DEFAULT, type=Path)
    args = ap.parse_args()

    with args.scenario.open() as fh:
        scenario = parse_scenario(json.load(fh), source=str(args.scenario))
    x_star = np.linalg.lstsq(scenario.a, scenario.b, rcond=None)[0]
    print(f"scenario: {args.scenario.name}")
    print(f"least-squares solution: {np.array2string(x_star, precision=6)}")

    for scheme in ("row", "column"):
        res, final, slope, r2, x_hat = run_scheme(scenario, scheme)
        gap = float(np.max(np.abs(x_hat - x_star)))
        print(f"\n{scheme} scheme")
        print(f"  steps {res.steps}, h={res.step_size:.4g}, stop={res.stop_reason}")
        print(
            f"  residuals: conservation {np.max(final['conservation'], initial=0.0):.3e}, "
            f"consensus {np.max(final['consensus'], initial=0.0):.3e}, "
            f"overall {final['overall']:.3e}"
        )
        print(f"  ln V fit: slope {slope:.4f}, r2 {r2:.6f}")
        print(f"  recovered solution gap {gap:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
