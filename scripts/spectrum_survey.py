"""Survey drift spectra over random instances.

For each scheme, draws consistent random problems, assembles the stacked
drift matrix, and tallies the spectral verdict together with the slowest
nonzero decay rate.  The slow mode tracks the smallest singular value of A,
which is why a --min-sigma floor tightens the worst case so sharply.  Each
draw's equilibrium certificate is built right after its verdict, on the same
system, and the stationary ones are tallied.
"""

import argparse

import numpy as np

from duolayer import assemble_compact, check_drift_spectrum, equilibrium_certificate
from duolayer.instances import random_instance


def survey(scheme, samples, max_dim, min_sigma, seed):
    rng = np.random.default_rng([seed, 0 if scheme == "row" else 1])
    passed = 0
    stationary = 0
    worst_real = 0.0
    worst_imag = 0.0
    slowest = np.inf
    for _ in range(samples):
        inst, part = random_instance(rng, scheme, max_dim, min_sigma=min_sigma)
        cs = assemble_compact(part, inst.topology)
        verdict = check_drift_spectrum(cs)
        passed += verdict.passed
        try:
            equilibrium_certificate(cs, part)
            stationary += 1
        except ArithmeticError as exc:
            print(f"  {exc}")
        worst_real = max(worst_real, verdict.max_real)
        worst_imag = max(worst_imag, verdict.max_imag)
        rates = [
            -ev.real
            for ev in verdict.spectrum.eigenvalues
            if -ev.real > 1e-8 * verdict.scale
        ]
        if rates:
            slowest = min(slowest, min(rates))
    print(f"{scheme}: {passed}/{samples} verdicts passed")
    print(f"{scheme}: {stationary}/{samples} certificates stationary")
    print(f"  max Re(lambda)  {worst_real:.3e}")
    print(f"  max |Im(lambda)| {worst_imag:.3e}")
    print(f"  slowest decay rate across draws {slowest:.3e}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=50)
    ap.add_argument("--max-dim", type=int, default=6)
    ap.add_argument("--min-sigma", type=float, default=0.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    for scheme in ("row", "column"):
        survey(scheme, args.samples, args.max_dim, args.min_sigma, args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
