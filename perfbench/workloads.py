"""The benchmark's workloads: the commands each one runs and the checks on
their outputs.

Every command gets a generated JSON config file; the seed decides the
inputs.  The checks need no oracle of spinstat's: they read the files a
command wrote and test simple identities against values computed here.

Why these three (the layer -> metric predictions are in README.md):

- verify-default: the CLI defaults (ring:4, 2s=1, both grades, N=2,
  n_max=3, all eight suites).  Thousands of matrix_of calls on sectors of at
  most 120 states, thousands of oracle overlaps and normal ordering of
  dense eigenmode expressions: per-call overhead dominates.
- theorem-scan: the paper's verdict table, theorem suite on ring:8 for
  2s = 0..3, one process per spin.  A few hundred matrix_of calls on sectors
  up to 5,984 states plus rotation lifts: per-state ladder throughput.
- hubbard-spectrum: diagonalize then correlate on ring:10, 2s=1, sigma=-1,
  N=3 (1,140 states) with a seeded on-site potential.  The dense eigensolve
  dominates; ladder-kernel work should not move it.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from pathlib import Path
from typing import Callable

WORKLOADS = ("verify-default", "theorem-scan", "hubbard-spectrum")

SUITES = (
    "commutators", "orthonormality", "completeness", "permutations",
    "ideal-gas", "rotation", "pair-operator", "theorem",
)


@dataclass(frozen=True)
class Command:
    name: str
    subcommand: str
    config: dict
    check: Callable[[Path, dict], list[str]]  # (out dir, config) -> errors


def _expected_verdict(twos_s: int) -> int:
    return 1 if twos_s % 2 == 0 else -1


def check_suites(out: Path, config: dict) -> list[str]:
    """Every suite report and residual says passed; the verdict is (-1)^(2s)."""
    errors = []
    suites = config.get("suites", SUITES)
    for suite in suites:
        path = out / f"{suite}.json"
        if not path.is_file():
            errors.append(f"{path.name} missing")
            continue
        report = json.loads(path.read_text())
        if report.get("passed") is not True:
            errors.append(f"{suite}: passed is {report.get('passed')!r}")
        for residual in report.get("residuals", []):
            value, tol = residual.get("value"), residual.get("tol")
            if residual.get("passed") is not True or not (math.isfinite(value) and value <= tol):
                errors.append(f"{suite}: {residual.get('check')} failed ({value!r} vs tol {tol!r})")
    if "theorem" in suites:
        verdict = json.loads((out / "theorem_report.json").read_text())["verdict_sigma"]
        expected = _expected_verdict(config.get("twos_s", 1))
        if verdict != expected:
            errors.append(f"verdict {verdict} for 2s={config.get('twos_s', 1)}, expected {expected}")
    return errors


def _modes(config: dict) -> list[tuple[int, int]]:
    """(site, 2m_s) in spinstat's mode order: site-major, projection descending."""
    twos_s = config["twos_s"]
    return [(site, m) for site in range(config["lattice"]["M"]) for m in range(twos_s, -twos_s - 1, -2)]


def _occupations(config: dict):
    modes = len(_modes(config))
    chooser = combinations if config["sigma"] == -1 else combinations_with_replacement
    for picked in chooser(range(modes), config["N"]):
        occ = [0] * modes
        for i in picked:
            occ[i] += 1
        yield occ


def hamiltonian_trace(config: dict) -> float:
    """Trace of H on the sector from the basis occupations: on-site energies
    plus the density-density interaction.  Hopping has no diagonal on a ring."""
    modes = _modes(config)
    m_sites = config["lattice"]["M"]
    table = {float(k): v for k, v in config["V"].items()}
    u = config["onsite_U"]

    def v(i, j):
        d = abs(modes[i][0] - modes[j][0])
        return table.get(float(min(d, m_sites - d)), 0.0)

    pair_v = [[v(i, j) for j in range(len(modes))] for i in range(len(modes))]
    total = 0.0
    for occ in _occupations(config):
        occupied = [i for i, n in enumerate(occ) if n]
        total += sum(u[modes[i][0]] * occ[i] for i in occupied)
        for i in occupied:
            for j in occupied:
                pairs = occ[i] * (occ[j] - 1) if i == j else occ[i] * occ[j]
                total += 0.5 * pair_v[i][j] * pairs
    return total


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def check_spectrum(out: Path, config: dict) -> list[str]:
    """dim ascending rows whose sum is the trace of H."""
    rows = _read_csv(out / "spectrum.csv")
    dim = sum(1 for _ in _occupations(config))
    if len(rows) != dim:
        return [f"spectrum.csv has {len(rows)} rows, sector has {dim} states"]
    values = [float(r["eigenvalue"]) for r in rows]
    if [int(r["index"]) for r in rows] != list(range(dim)):
        return ["spectrum.csv indices are not 0..dim-1"]
    if not all(map(math.isfinite, values)):
        return ["spectrum.csv holds a value that is not finite"]
    if not all(a <= b for a, b in zip(values, values[1:])):
        return ["spectrum.csv is not ascending"]
    trace = hamiltonian_trace(config)
    scale = max(1.0, sum(abs(x) for x in values))
    if not abs(math.fsum(values) - trace) <= 1e-9 * scale:
        return [f"eigenvalue sum {math.fsum(values)!r} != trace {trace!r}"]
    return []


def check_profile(out: Path, config: dict) -> list[str]:
    """F(-r) = sigma F(r) at every site of the ring."""
    rows = _read_csv(out / "profile.csv")
    m_sites = config["lattice"]["M"]
    if len(rows) != m_sites:
        return [f"profile.csv has {len(rows)} rows for {m_sites} sites"]
    f = [complex(float(r["re"]), float(r["im"])) for r in rows]
    if not all(math.isfinite(x.real) and math.isfinite(x.imag) for x in f):
        return ["profile.csv holds a value that is not finite"]
    scale = max(1.0, max(abs(x) for x in f))
    errors = []
    for r in range(m_sites):
        inv = (r + m_sites // 2) % m_sites
        if not abs(f[inv] - config["sigma"] * f[r]) <= 1e-12 * scale:
            errors.append(f"F(-r) != sigma F(r) at site {r}")
    return errors


def commands(workload: str, seed: int, small: bool = False) -> list[Command]:
    """The workload's commands in the order they run; ``small`` is the
    reduced size the self-test uses."""
    if workload == "verify-default":
        config = {"seed": seed}
        if small:
            config.update(twos_s=0, n_max=2)
        return [Command("verify", "verify", config, check_suites)]
    if workload == "theorem-scan":
        ring, spins = (6, range(3)) if small else (8, range(4))
        return [
            Command(
                f"theorem-2s{s}", "verify",
                {"lattice": {"kind": "ring", "M": ring}, "twos_s": s, "suites": ["theorem"], "seed": seed},
                check_suites,
            )
            for s in spins
        ]
    if workload == "hubbard-spectrum":
        ring, n = (6, 2) if small else (10, 3)
        rng = random.Random(seed)
        config = {
            "lattice": {"kind": "ring", "M": ring},
            "twos_s": 1,
            "sigma": -1,
            "N": n,
            "V": {"0": 4.0, "1": 1.0},
            "onsite_U": [rng.uniform(-1.0, 1.0) for _ in range(ring)],
            "seed": seed,
        }
        return [
            Command("diagonalize", "diagonalize", config, check_spectrum),
            Command("correlate", "correlate", config, check_profile),
        ]
    raise ValueError(f"unknown workload {workload!r}")
