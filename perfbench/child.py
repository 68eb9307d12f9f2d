"""Run one spinstat CLI command in this (fresh) process and record its timing.

Usage: child.py <src dir> <timing json> <trace 0|1> <spinstat argv...>
       child.py <src dir> <facts json> --facts

Timestamps are ``time.monotonic()``, which every process on the machine
shares, so the parent can measure set-up from the moment it spawned us.
Set-up ends once ``spinstat.cli`` is imported and the command's config file
is validated; ``wall`` is the call into ``cli.main`` until it returns.
CPU time and peak resident set are read when ``cli.main`` returns.  An
untraced command then times the reference work (``reference``), which the
parent divides the command's wall time by.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from itertools import product
from pathlib import Path


def _check_source(src: Path, module) -> None:
    if Path(module.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"spinstat imported from {module.__file__}, not from {src}")


def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded into this process."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line})
    threads = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads[os.path.basename(path)] = fn()
                break
    return threads


def reference() -> float:
    """Seconds taken by a fixed piece of work that does not touch spinstat.

    It has both kinds of work the workloads spend their time in: an
    interpreter loop over tuples with dict lookups, like the ladder and
    oracle loops, and dense symmetric eigensolves of a fixed 500 x 500
    matrix, like ``diagonalize``.  Timed in the same process right after
    the command, it measures how fast the machine was running at the time.
    """
    import numpy as np

    states = list(product(range(4), repeat=5))
    index = {s: i for i, s in enumerate(states)}
    matrix = np.random.default_rng(0).standard_normal((500, 500))
    matrix = matrix + matrix.T
    np.linalg.eigh(matrix)  # load LAPACK and allocate its workspace untimed
    start = time.perf_counter()
    total = 0
    for _ in range(700):
        for s in states:
            total += index[s[1:] + s[:1]]
    for _ in range(6):
        np.linalg.eigh(matrix)
    return time.perf_counter() - start


def facts(src: Path, out: Path) -> None:
    """Versions and BLAS threads as the commands see them; also compiles
    spinstat's bytecode so that no timed command pays for it."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's own BLAS
    import spinstat.cli

    _check_source(src, spinstat.cli)
    blas = {}
    for module in (numpy, scipy):
        build = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[module.__name__] = f"{build.get('name')} {build.get('version')}"
    out.write_text(json.dumps({
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
    }))


def run(src: Path, out: Path, traced: bool, argv: list[str]) -> int:
    import spinstat.cli as cli

    _check_source(src, cli)
    config = argv[argv.index("--config") + 1]
    cli.load_config(config).validate()
    ready = time.monotonic()
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.monotonic()
    rc = cli.main(argv)
    end = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "ready": ready, "start": start, "end": end, "rc": rc,
        "cpu": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss,
    }
    if tracer is not None:
        record["trace"] = tracer.dump()
    else:
        record["ref"] = reference()
    out.write_text(json.dumps(record))
    return rc


if __name__ == "__main__":
    src_dir, out_path = Path(sys.argv[1]), Path(sys.argv[2])
    sys.path.insert(0, str(src_dir))
    if sys.argv[3] == "--facts":
        facts(src_dir, out_path)
        sys.exit(0)
    sys.exit(run(src_dir, out_path, sys.argv[3] == "1", sys.argv[4:]))
