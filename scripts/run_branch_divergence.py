#!/usr/bin/env python3
"""Kick the rejected fast branch and watch the weighted energy explode.

The selected trajectory keeps a finite truncated energy as the horizon
grows; moving a coefficient delta onto the fast branch makes the energy
blow up like (delta^2 eps / Z) exp(Z T / eps).  Past the overflow horizon
the script reports the closed-form log instead of a numeric integral.
"""

import argparse
import math

import numpy as np

from wie import ForcingTerm, OdeProblem, branch_divergence
from wie.spectral import root_data


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mu", type=float, default=1.0, help="scalar generator value")
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--delta", type=float, default=1e-6, help="fast-branch kick")
    ap.add_argument(
        "--horizons", type=float, nargs="+", default=[1.0, 2.0, 3.0, 4.0, 5.0]
    )
    args = ap.parse_args()

    problem = OdeProblem(
        matrix=np.array([[args.mu]]),
        initial=np.array([1.0]),
        forcing=ForcingTerm.zero(),
    )
    result = branch_divergence(problem, args.eps, args.delta, args.horizons)
    z = float(root_data(np.array([args.mu]), args.eps, check=False).disc_sqrt[0])

    print(f"# mu={args.mu} eps={args.eps} delta={args.delta}   Z/eps = {z / args.eps:.6f}")
    print(f"{'T':>6} {'energy':>14} {'log_energy':>12} {'closed_log':>12}")
    for T, num, lg, cl in zip(
        result.horizons, result.numeric_energies, result.log_energies, result.closed_form_log
    ):
        num_s = f"{num:.6e}" if num is not None else "overflowed"
        cl_s = f"{cl:.6f}" if cl is not None else "-"
        print(f"{T:>6.2f} {num_s:>14} {lg:>12.6f} {cl_s:>12}")
    if result.slopes:
        print("log-energy slopes per unit horizon:", [f"{s:.4f}" for s in result.slopes])
        print(f"late slope vs Z/eps: {result.slopes[-1]:.6f} vs {z / args.eps:.6f}")
    if args.delta == 0.0:
        drift = max(
            abs(b / a - 1.0)
            for a, b in zip(result.numeric_energies, result.numeric_energies[1:])
        )
        print(f"selected branch: max relative drift {drift:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
