"""Span tracing of spinstat from outside the program.

The child process installs the tracer before it calls ``cli.main``: every
public function of the traced modules is replaced, in every spinstat module
namespace that binds it, by a wrapper that records a span (name, start,
end, parent).  Functions that act on one element (one occupation, one
permutation, one mode) are left alone, because a span per element would
cost more than the work it measures.  A few wrappers also add work counts
taken from the arguments and the returned objects, and the caches'
``cache_info()`` is read when the command ends.

The parent process turns the written spans into per-layer metrics with
``layer_metrics``; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

TRACED_MODULES = ("opalgebra", "fockspace", "symmetry", "hamiltonians", "correlations", "cli")

# Called once per occupation, permutation, mode or phase: not a layer boundary.
PER_ELEMENT = {
    "check_sigma", "create", "destroy", "occ_apply", "perm_parity", "sector_dimension",
    "cis_turns", "sigma_to_permutation_power", "kron_delta",
}

METHODS = (("symmetry", "SpinorRotation", "fock_lift"),)

CACHES = {
    "fockspace.basis_cache": ("fockspace", "_build_basis_cached"),
    "fockspace.bracket_matrix_cache": ("fockspace", "bracket_matrix"),
    "symmetry.sector_unitary_cache": ("symmetry", "_sector_unitary"),
}

ORACLES = (
    "fockspace.overlap_oracle", "fockspace.symmetrizer_oracle",
    "fockspace.permanent", "fockspace.determinant",
)

SUITES = (
    "commutators", "orthonormality", "completeness", "permutations",
    "ideal-gas", "rotation", "pair-operator", "theorem",
)


def eigensolve_flops(dim: int) -> int:
    """Operation count of ``diagonalize`` on a dense complex dim x dim matrix.

    Model: Hermitian eigendecomposition with vectors, 9 n^3 complex
    operations at 4 real flops each, plus the two n^3 complex products of
    the residual contract (H @ V and V^H V) at 8 real flops each.
    """
    return (4 * 9 + 2 * 8) * dim**3


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_matrix_of(counters, args, kwargs, result):
    expr, domain = _arg(args, kwargs, 0, "expr"), _arg(args, kwargs, 1, "domain")
    counters["fockspace.matrix_of.visits"] += domain.dim * len(expr.terms)
    counters["fockspace.matrix_of.nnz"] += result.matrix.nnz


def _count_terms(key):
    def count(counters, args, kwargs, result):
        counters[key] += len(result.terms)
    return count


def _count_diagonalize(counters, args, kwargs, result):
    dim = _arg(args, kwargs, 0, "ham").domain.dim
    counters["hamiltonians.diagonalize.dim"] = max(counters["hamiltonians.diagonalize.dim"], dim)
    counters["hamiltonians.diagonalize.flops"] += eigensolve_flops(dim)
    counters["hamiltonians.diagonalize.dense_bytes"] = max(
        counters["hamiltonians.diagonalize.dense_bytes"], 16 * dim * dim
    )


COUNTS = {
    "fockspace.matrix_of": _count_matrix_of,
    "opalgebra.normal_order": _count_terms("opalgebra.normal_order.terms_out"),
    "hamiltonians.many_body_expr": _count_terms("hamiltonians.many_body_expr.terms"),
    "hamiltonians.diagonalize": _count_diagonalize,
}

COUNTER_NAMES = (
    "fockspace.matrix_of.visits", "fockspace.matrix_of.nnz", "fockspace.basis.states",
    "opalgebra.normal_order.terms_out", "hamiltonians.many_body_expr.terms",
    "hamiltonians.diagonalize.dim", "hamiltonians.diagonalize.flops",
    "hamiltonians.diagonalize.dense_bytes",
)


class Tracer:
    """Spans and counters of one command, kept in memory until ``dump``."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name id, start, end, parent index]
        self._stack: list[int] = []
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self._originals: dict[str, object] = {}

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = COUNTS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name_id, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced

    def _count_basis_misses(self, cached):
        counters = self.counters

        @functools.wraps(cached)
        def counted(*args, **kwargs):
            misses = cached.cache_info().misses
            basis = cached(*args, **kwargs)
            if cached.cache_info().misses != misses:
                counters["fockspace.basis.states"] += basis.dim
            return basis

        return counted

    def install(self) -> None:
        """Replace the traced functions wherever a spinstat module binds them."""
        package = importlib.import_module("spinstat")
        modules = {m: importlib.import_module(f"spinstat.{m}") for m in TRACED_MODULES}
        replacements: dict[int, object] = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    attr.startswith("_")
                    or attr in PER_ELEMENT
                    or inspect.isclass(obj)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                ):
                    continue
                replacements[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for key, (short, attr) in CACHES.items():
            self._originals[key] = getattr(modules[short], attr)
        basis_cache = self._originals["fockspace.basis_cache"]
        replacements[id(basis_cache)] = self._count_basis_misses(basis_cache)
        for short, cls_name, method in METHODS:
            cls = getattr(modules[short], cls_name)
            setattr(cls, method, self._wrap(f"{short}.{method}", vars(cls)[method]))
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                if id(obj) in replacements:
                    setattr(module, attr, replacements[id(obj)])
        suites = modules["cli"].SUITES
        for key, fn in suites.items():
            if id(fn) in replacements:
                suites[key] = replacements[id(fn)]

    def dump(self) -> dict:
        caches = {}
        for key, cached in self._originals.items():
            info = cached.cache_info()
            caches[key] = {"hits": info.hits, "misses": info.misses}
        return {"names": self.names, "spans": self.spans, "counters": self.counters, "caches": caches}


# -- analysis, in the parent process ------------------------------------------


def self_times(trace: dict) -> tuple[dict, dict, dict]:
    """Per span name: calls, inclusive seconds and self seconds."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for (name_id, start, end, _), inner in zip(spans, child):
        name = trace["names"][name_id]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start - inner)
    return calls, total, own


def _ratio(hits, lookups):
    return hits / lookups if lookups else 0.0


def layer_metrics(traces: list[dict]) -> tuple[dict[str, tuple[float, str]], str]:
    """Per-layer metrics summed over the commands of one workload iteration,
    and the span name with the largest self time."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    counters = dict.fromkeys(COUNTER_NAMES, 0)
    caches = {key: {"hits": 0, "misses": 0} for key in CACHES}
    for trace in traces:
        c, t, s = self_times(trace)
        for name in c:
            calls[name] = calls.get(name, 0) + c[name]
            total[name] = total.get(name, 0.0) + t[name]
            own[name] = own.get(name, 0.0) + s[name]
        for key, value in trace["counters"].items():
            if key in ("hamiltonians.diagonalize.dim", "hamiltonians.diagonalize.dense_bytes"):
                counters[key] = max(counters[key], value)
            else:
                counters[key] += value
        for key, info in trace["caches"].items():
            caches[key]["hits"] += info["hits"]
            caches[key]["misses"] += info["misses"]

    out: dict[str, tuple[float, str]] = {}

    def span(name, *parts):
        if "calls" in parts:
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
        if "self_s" in parts:
            out[f"{name}.self_s"] = (own.get(name, 0.0), "s")

    span("fockspace.matrix_of", "calls", "self_s")
    visits = counters["fockspace.matrix_of.visits"]
    out["fockspace.matrix_of.visits"] = (visits, "count")
    out["fockspace.matrix_of.nnz"] = (counters["fockspace.matrix_of.nnz"], "count")
    out["fockspace.matrix_of.yield"] = (_ratio(counters["fockspace.matrix_of.nnz"], visits), "ratio")
    span("fockspace.build_basis", "calls", "self_s")
    out["fockspace.basis.states"] = (counters["fockspace.basis.states"], "count")
    for key in CACHES:
        info = caches[key]
        lookups = info["hits"] + info["misses"]
        out[f"{key}.lookups"] = (lookups, "count")
        out[f"{key}.hit_ratio"] = (_ratio(info["hits"], lookups), "ratio")
    span("fockspace.bracket_state", "calls", "self_s")
    out["fockspace.oracle.calls"] = (sum(calls.get(n, 0) for n in ORACLES), "count")
    out["fockspace.oracle.self_s"] = (sum(own.get(n, 0.0) for n in ORACLES), "s")
    span("opalgebra.normal_order", "calls", "self_s")
    out["opalgebra.normal_order.terms_out"] = (counters["opalgebra.normal_order.terms_out"], "count")
    span("opalgebra.sigma_commutator", "calls", "self_s")
    span("symmetry.fock_lift", "calls", "self_s")
    span("symmetry.conjugated", "calls", "self_s")
    span("symmetry.pair_matrix", "calls", "self_s")
    span("symmetry.theorem_report", "self_s")
    span("hamiltonians.many_body_expr", "self_s")
    out["hamiltonians.many_body_expr.terms"] = (counters["hamiltonians.many_body_expr.terms"], "count")
    span("hamiltonians.build_many_body", "self_s")
    span("hamiltonians.mode_operator_check", "self_s")
    span("hamiltonians.diagonalize", "calls", "self_s")
    out["hamiltonians.diagonalize.dim"] = (counters["hamiltonians.diagonalize.dim"], "count")
    out["hamiltonians.diagonalize.flops"] = (counters["hamiltonians.diagonalize.flops"], "flop_computed")
    out["hamiltonians.diagonalize.dense_bytes"] = (
        counters["hamiltonians.diagonalize.dense_bytes"], "B_computed"
    )
    span("correlations.antipodal_profile", "calls", "self_s")
    for suite in SUITES:
        out[f"cli.suite.{suite}.s"] = (total.get(f"cli.suite_{suite.replace('-', '_')}", 0.0), "s")
    for cmd in ("cmd_verify", "cmd_diagonalize", "cmd_correlate"):
        span(f"cli.{cmd}", "self_s")
    out["trace.spans"] = (sum(calls.values()), "count")
    top = max(own, key=own.get) if own else ""
    return out, top
