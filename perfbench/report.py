"""Run the benchmark over several seeds and print every end-to-end metric.

    python3 perfbench/report.py [--seeds 1 2 3] [--workloads ...]

For each workload and metric it prints the median over the runs, the first
and third quartiles, the sample count, the spread (Q3 - Q1) / median next to
the metric's bound in BENCHMARK.json, and fail_ratio = failed / attempted
commands over all runs.  The undivided wall_s and ref_s, which have no
bound, are printed the same way below them.  Each run measures for
BENCHMARK.json's run_seconds.  Runs go one at a time, seeds in the outer
loop.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNBOUNDED = re.compile(r"^# \S+ (\S+) = (\S+) (\S+) \(not bounded\)$")


def run_once(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for match in filter(None, map(UNBOUNDED.match, lines)):
        result["metrics"][match[1]] = {"value": float(match[2]), "unit": match[3], "unbounded": True}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    args = parser.parse_args(argv)

    results: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for workload in args.workloads:
            result = run_once(workload, seed)
            results[workload].append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"# seed {seed} {workload} correct={result['correct']} {values}", flush=True)

    worst = 0.0
    print(f"{'workload':18} {'metric':12} {'unit':5} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'n':>3} {'spread':>7} {'bound':>6}")
    for workload, runs in results.items():
        unbounded = [{"name": name, "unit": m["unit"], "bound": None}
                     for name, m in runs[0]["metrics"].items() if m.get("unbounded")]
        for spec in SPEC["end_to_end"] + unbounded:
            name = spec["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else (med, med, med)
            spread = (q3 - q1) / med
            if spec["bound"] is None:
                bound = "-"
            else:
                worst = max(worst, spread / spec["bound"])
                bound = f"{spec['bound']:.3f}"
            print(f"{workload:18} {name:12} {spec['unit']:5} {med:10.5g} {q1:10.5g} {q3:10.5g} "
                  f"{len(values):3d} {spread:7.4f} {bound:>6}")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print(f"{workload:18} {'fail_ratio':12} {'ratio':5} {failed / attempted:10.5g} "
              f"({failed}/{attempted} commands, all correct: {correct})")
    print(f"# largest spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
