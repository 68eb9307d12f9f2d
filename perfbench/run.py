"""Benchmark of the spinstat command line, end to end and per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (``src/spinstat`` beside
``perfbench``).  Each command of the workload runs in a fresh Python process
with cold caches, through ``spinstat.cli.main``, one process at a time, with
one BLAS thread.  The workload is repeated until ``--seconds`` is used up and
every output is checked (see workloads.py).

--trace 0 prints the end-to-end metrics, medians over the repetitions:
  wall_ref     cli.main call to return, summed over the workload's commands,
               divided by the time of the fixed reference work that each
               command's process runs right after it (child.reference)
  setup_s      process spawn to spinstat imported and config validated, summed
  peak_rss_mb  largest peak resident set of any command process
and, as comment lines, the undivided wall_s and ref_s.
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones (see tracer.py), plus wall_s, ref_s
and process.cpu_s of the untraced ones and trace.overhead_s.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; attempted and failed count
commands, so fail_ratio = failed / attempted.  Machine facts, every
repetition's samples and the spans of the last traced repetition are kept
under ``.perfbench/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench"
RUN_BUDGET_S = 170.0  # a run must end within 180 s
# On a shared 2-vCPU Xeon virtual machine the speed drifts by 20-40% over
# minutes: over five to ten 60-s runs the quartile spread of wall_s reached
# 0.16-0.37 of its median on verify-default.  Divided by the reference time
# measured in the same process, it was 0.04-0.07 (eight runs per workload).
# One BLAS thread: on a shared machine a multi-threaded eigensolve waits for
# its most contended CPU, which measured three times noisier (coefficient of
# variation 11% against 3.7% on hubbard-spectrum, 2 CPUs).
BLAS_THREADS = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


class Runner:
    """Spawns the workload's commands, one at a time, and checks their outputs."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _spawn(self, args: list[str], log: Path) -> int | None:
        """Run the child to completion (or kill it at the deadline)."""
        with log.open("w") as out:
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(SRC), *args],
                stdout=out, stderr=subprocess.STDOUT, env=self.env, cwd=self.work,
            )
            try:
                rc = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                rc = None
        return rc

    def facts(self) -> dict:
        path = self.work / "facts.json"
        rc = self._spawn([str(path), "--facts"], self.work / "facts.log")
        if rc != 0:
            raise SystemExit(f"cannot import spinstat from {SRC}; see {self.work / 'facts.log'}")
        return json.loads(path.read_text())

    def command(self, cmd: workloads.Command, traced: bool) -> dict:
        out = self.work / "out" / cmd.name
        shutil.rmtree(out, ignore_errors=True)
        config = dict(cmd.config, out=str(out))
        config_path = self.work / f"{cmd.name}.config.json"
        config_path.write_text(json.dumps(config))
        timing = self.work / f"{cmd.name}.timing.json"
        timing.unlink(missing_ok=True)
        self.attempted += 1
        spawn = time.monotonic()
        rc = self._spawn(
            [str(timing), "1" if traced else "0", cmd.subcommand, "--config", str(config_path)],
            self.work / f"{cmd.name}.log",
        )
        try:
            errors = [f"exit code {rc}"] if rc != 0 else cmd.check(out, config)
            record = json.loads(timing.read_text()) if not errors else None
        except (OSError, KeyError, ValueError, TypeError) as exc:
            # A missing or malformed output file is a failed check.
            errors = [f"{type(exc).__name__}: {exc}"]
        if errors:
            self.failed += 1
            self.errors.extend(f"{cmd.name}: {e}" for e in errors)
            return {"ok": False}
        return {
            "ok": True,
            "cpu": record["cpu"],
            "rss_mb": record["maxrss_kb"] / 1024.0,
            "setup": record["ready"] - spawn,
            "wall": record["end"] - record["start"],
            "ref": record.get("ref"),
            "trace": record.get("trace"),
        }

    def repetition(self, cmds: list[workloads.Command], traced: bool) -> dict:
        records = [self.command(cmd, traced) for cmd in cmds]
        ok = [r for r in records if r["ok"]]
        return {
            "ok": len(ok) == len(records),
            "wall": sum(r["wall"] for r in ok),
            "setup": sum(r["setup"] for r in ok),
            "ref": sum(r["ref"] for r in ok) if not traced else None,
            "rss_mb": max((r["rss_mb"] for r in ok), default=0.0),
            "cpu": sum(r["cpu"] for r in ok),
            "traces": [r["trace"] for r in ok if r.get("trace")],
        }


def _median(values):
    return statistics.median(values) if values else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    started = time.monotonic()
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, started + RUN_BUDGET_S)
    facts = {"nproc": nproc(), "cpu_count": os.cpu_count(), "cpu_model": cpu_model(), **runner.facts()}
    cmds = workloads.commands(workload, seed, small)
    plain: list[dict] = []
    traced: list[dict] = []
    t0 = time.monotonic()
    # In a traced run the untraced and traced repetitions alternate, and
    # swap order each round, so that drift does not bias the overhead.
    order = [False, True] if trace else [False]
    while True:
        rep_start = time.monotonic()
        for flag in order:
            (traced if flag else plain).append(runner.repetition(cmds, traced=flag))
        order.reverse()
        now = time.monotonic()
        if now - t0 + (now - rep_start) > seconds or now + (now - rep_start) > runner.deadline:
            break

    good = [r for r in plain if r["ok"]]
    metrics: dict[str, tuple[float, str]] = {}
    top = None
    if trace:
        layers = [layer_metrics(r["traces"]) for r in traced if r["ok"]]
        for name, (_, unit) in (layers[0][0].items() if layers else ()):
            metrics[name] = (_median([m[name][0] for m, _ in layers]), unit)
        metrics["wall_s"] = (_median([r["wall"] for r in good]), "s")
        metrics["ref_s"] = (_median([r["ref"] for r in good]), "s")
        metrics["process.cpu_s"] = (_median([r["cpu"] for r in good]), "s")
        metrics["trace.overhead_s"] = (
            _median([r["wall"] for r in traced if r["ok"]]) - _median([r["wall"] for r in good]), "s"
        )
        top = sorted({t for _, t in layers})
    else:
        metrics["wall_ref"] = (_median([r["wall"] / r["ref"] for r in good]), "ratio")
        metrics["setup_s"] = (_median([r["setup"] for r in good]), "s")
        metrics["peak_rss_mb"] = (max((r["rss_mb"] for r in good), default=0.0), "MB")

    result = {
        "correct": runner.failed == 0 and bool(good),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    samples = [{k: v for k, v in r.items() if k != "traces"} for r in plain + traced]
    (work / f"result-seed{seed}-trace{int(trace)}.json").write_text(json.dumps({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "small": small,
        "machine": facts, "repetitions": samples, "errors": runner.errors,
        "largest_self_time": top, "result": result,
    }, indent=1))
    traced_ok = [r for r in traced if r["ok"]]
    if traced_ok:
        (work / "spans.json").write_text(json.dumps(traced_ok[-1]["traces"]))
    print("# machine " + json.dumps(facts, sort_keys=True))
    for error in runner.errors:
        print(f"# FAILED {error}")
    if top is not None:
        print(f"# largest self time: {', '.join(top)}")
    for name, (value, unit) in metrics.items():
        print(f"# {workload} {name} = {value:.6g} {unit}")
    if not trace:
        for name, key in (("wall_s", "wall"), ("ref_s", "ref")):
            print(f"# {workload} {name} = {_median([r[key] for r in good]):.6g} s (not bounded)")
    print(f"# {workload} fail_ratio = {runner.failed}/{runner.attempted} ratio")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced size, for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "spinstat" / "cli.py").is_file():
        print(f"no spinstat source under {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.small)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
