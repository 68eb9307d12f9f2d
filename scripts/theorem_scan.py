#!/usr/bin/env python3
"""Scan the spin-statistics verdict across spins on one ring.

For each 2s the half-turn eigenvalue of the antipodal pair operator, the
same-point vanishing test, and the full-turn winding are measured for both
statistics grades; exactly one grade survives.  Writes one JSON report per
spin and prints a verdict table; exits 1, after writing every report, when a
spin reaches no verdict.

Usage: python scripts/theorem_scan.py [--ring 8] [--max-twos-s 3] [--out DIR]
"""

import argparse
import json
import sys
from pathlib import Path

from spinstat.modes import Lattice, ModeSpace, SpinQuantum
from spinstat.symmetry import theorem_report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ring", type=int, default=8, help="ring size (even, > 2*max 2s)")
    parser.add_argument("--max-twos-s", type=int, default=3, help="largest 2s to scan")
    parser.add_argument("--n-max", type=int, default=2, help="largest particle sector")
    parser.add_argument("--out", default="theorem_scan", help="output directory")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lattice = Lattice.ring(args.ring)
    print(f"lattice: ring({args.ring}), sectors up to N={args.n_max}")
    failed = False
    for twos_s in range(args.max_twos_s + 1):
        space = ModeSpace(lattice, SpinQuantum(twos_s))
        report = theorem_report(space, n_max=args.n_max)
        path = out / f"theorem_twos{twos_s}.json"
        path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        if report.verdict_sigma is None:
            print(f"2s={twos_s}: no verdict: {report.failure} | {path}")
            failed = True
            continue
        lam = {s: v.lambda_measured.real for s, v in report.per_sigma.items()}
        origin = {s: v.origin_vanishes for s, v in report.per_sigma.items()}
        print(
            f"2s={twos_s}: verdict sigma={report.verdict_sigma:+d} | "
            f"lambda(+1)={lam[1]:+.0f} lambda(-1)={lam[-1]:+.0f} | "
            f"same-point pair vanishes: +1:{origin[1]} -1:{origin[-1]} | {path}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
