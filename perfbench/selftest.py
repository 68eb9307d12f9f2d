"""Self-test of the benchmark: each workload once at reduced size, including
theorem-scan, which BENCHMARK.json does not list.

    python3 perfbench/selftest.py

Asserts, for every workload with tracing off and on, that run.py exits 0,
that its last line holds exactly the result keys, that every metric
BENCHMARK.json names for that mode is printed with its unit, and that the
output checks pass.  Also asserts that run.py refuses, without a result, a
directory holding only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int, small: bool = True) -> subprocess.CompletedProcess:
    args = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
            "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(args + ["--small"] * small, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workload(workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, set(result["metrics"]) ^ {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], (metric, got)
        assert isinstance(got["value"], (int, float)), (metric, got)
    print(f"ok {workload} trace={trace}: {result['attempted']} commands, {len(wanted)} metrics")


def check_refuses_without_source() -> None:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = run(bare, SPEC["workloads"][0]["name"], 0, small=False)
    shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert "correct" not in proc.stdout, proc.stdout
    print("ok refuses a directory without the program source")


def main() -> int:
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            check_workload(workload, trace)
    check_refuses_without_source()
    return 0


if __name__ == "__main__":
    sys.exit(main())
