"""Batch driver: run verification suites, diagonalize, or export correlations.

Configuration comes from an optional JSON file plus flag overrides; every
run is deterministic (random probes use the seeded generator echoed in the
report), reports are JSON with sorted keys, and numeric tables are CSV, so
repeated runs with the same configuration are byte-identical.

Exit codes: 0 all checks passed, 1 a verification failed, 2 configuration
or precondition error (among them a negative seed, a tolerance that is not a
finite positive number, a sector with no states, a lattice key other than
``kind`` and its size key, N < 2 for the completeness suite, an expression
coefficient that is not finite, and an expression difference whose
coefficients overflow a float).
"""

from __future__ import annotations

import argparse
import json
import locale  # noqa: F401  argparse's message lookup loads it on first use; loaded here, in start-up
import math
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import permutations as iter_permutations
from pathlib import Path

import numpy as np

from . import correlations as corr
from .csr import max_abs
from .fockspace import (
    DimensionCapError,
    bracket_amplitudes,
    build_basis,
    capped_dimension,
    completeness_check,
    every_bracket,
    index_tuples,
    joined_pieces,
    ladder_relation_residuals,
    overlap_oracle,
    symmetrizer_oracle,
    project_onto_symmetric,
    sector_dimension,
)
from .hamiltonians import (
    MODE_COMMUTATOR_TOL,
    SPECTRUM_TOL,
    OneBodySpec,
    TwoBodySpec,
    build_many_body,
    diagonalize,
    ideal_gas_check,
    mode_operator_check,
    mode_operators,
    one_particle_spectrum,
)
from .memo import command_scope
from .modes import SIZE_KEYS, Lattice, ModeSpace, SpinQuantum
from .opalgebra import COEFF_TOL, destroy, expr_residual, parse_expr
from .symmetry import (
    IncompatibleRotationError,
    pair_checks,
    permutation_eigencheck,
    rotation_covariance_check,
    rotation_element_residual,
    sector_lift_residuals,
    theorem_report,
)

SUITE_NAMES = (
    "commutators",
    "orthonormality",
    "completeness",
    "permutations",
    "ideal-gas",
    "rotation",
    "pair-operator",
    "theorem",
)

SUITE_DEFAULT_TOL = {name: SPECTRUM_TOL if name == "ideal-gas" else 1e-12 for name in SUITE_NAMES}


class ConfigError(Exception):
    """Bad configuration or violated precondition: exit code 2."""


# config-file key -> RunConfig field
CONFIG_KEYS = {
    "lattice": "lattice", "twos_s": "twos_s", "sigma": "sigma", "N": "n_particles",
    "hop_t": "hop_t", "onsite_U": "onsite_u", "V": "v_table", "n_max": "n_max",
    "seed": "seed", "tol": "tol", "out": "out_dir", "suites": "suites",
    "state_index": "state_index", "twos_ms": "twos_ms",
    "dump_basis": "dump_basis", "dump_matrix": "dump_matrix", "eigenvectors": "eigenvectors",
}

# declared RunConfig field type -> the JSON values it takes, as named in messages
_JSON_TYPES = {
    "dict": (dict, "an object"), "int": (int, "an integer"), "float": ((int, float), "a number"),
    "str": (str, "a string"), "bool": (bool, "true or false"),
}


def _is_json(value, declared: str) -> bool:
    """isinstance for JSON values: true/false is no number, an integer is one."""
    kinds = _JSON_TYPES[declared][0]
    return isinstance(value, kinds) and (declared == "bool" or not isinstance(value, bool))


def _finite(value) -> bool:
    """math.isfinite, false also for an integer too large for a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; validated before any computation starts."""

    lattice: dict = field(default_factory=lambda: Lattice("ring", 4).describe())
    twos_s: int = 1
    sigma: object = "both"  # +1, -1, or "both"
    n_particles: int = 2
    hop_t: float = 1.0
    onsite_u: object = 0.0
    v_table: dict = field(default_factory=dict)
    n_max: int = 3
    seed: int = 42
    tol: float | None = None
    out_dir: str = "spinstat_out"
    suites: tuple[str, ...] = SUITE_NAMES
    state_index: int = 0
    twos_ms: int | None = None
    dump_basis: bool = False
    dump_matrix: bool = False
    eigenvectors: bool = False
    expr: str | None = None
    equals: str | None = None

    def sigmas(self) -> tuple[int, ...]:
        if self.sigma == "both":
            return (1, -1)
        return (int(self.sigma),)

    def single_sigma(self) -> int:
        if self.sigma == "both":
            raise ConfigError("this command needs --sigma +1 or --sigma -1, not 'both'")
        return int(self.sigma)

    def make_lattice(self) -> Lattice:
        kind = self.lattice.get("kind")
        key = SIZE_KEYS.get(kind)
        if key is None:
            raise ConfigError(f"unknown lattice kind {kind!r}")
        unknown = sorted(set(self.lattice) - {"kind", key})
        if unknown:  # they would be echoed in every report, though never read
            raise ConfigError(f"unknown keys {unknown} for lattice kind {kind!r}, which takes only {key!r}")
        if not _is_json(self.lattice.get(key), "int"):
            raise self._type_error("lattice", f"an object with an integer {key!r}")
        try:
            return Lattice(kind, self.lattice[key])
        except ValueError as exc:
            raise ConfigError(f"bad lattice spec {self.lattice}: {exc}") from exc

    def make_space(self) -> ModeSpace:
        try:
            spin = SpinQuantum(int(self.twos_s))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return ModeSpace(self.make_lattice(), spin)

    def one_body(self) -> OneBodySpec:
        u = self.onsite_u
        if isinstance(u, list):
            u = tuple(float(x) for x in u)
        return OneBodySpec(hop_t=float(self.hop_t), onsite_u=u)

    def two_body(self) -> TwoBodySpec | None:
        if not self.v_table:
            return None
        try:
            return TwoBodySpec.from_dict(self.v_table)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad interaction table {self.v_table}: {exc}") from exc

    def _type_error(self, name: str, wanted: str) -> ConfigError:
        key = next((k for k, attr in CONFIG_KEYS.items() if attr == name), name)
        return ConfigError(f"config key {key!r} must be {wanted}, got {getattr(self, name)!r}")

    def validate(self) -> "RunConfig":
        for f in fields(self):  # None only where it is the default
            value, declared = getattr(self, f.name), f.type.removesuffix(" | None")
            if declared in _JSON_TYPES and not (value is None and f.default is None):
                if not _is_json(value, declared):
                    raise self._type_error(f.name, _JSON_TYPES[declared][1])
        u = self.onsite_u
        if not _is_json(u, "float") and not (
            isinstance(u, (list, tuple)) and all(_is_json(x, "float") for x in u)
        ):
            raise self._type_error("onsite_u", "a number or a list of numbers")
        if not all(_is_json(v, "float") for v in self.v_table.values()):
            raise self._type_error("v_table", "an object of numbers")
        if not isinstance(self.suites, tuple):
            raise self._type_error("suites", "a list of suite names")
        if not self.suites:
            raise ConfigError(f"config key 'suites' names no suite; choose from {', '.join(SUITE_NAMES)}")
        if self.n_particles < 0:
            raise ConfigError("N must be >= 0")
        if self.n_max < 0:
            raise ConfigError("n_max must be >= 0")
        if self.sigma != "both" and not (_is_json(self.sigma, "int") and self.sigma in (1, -1)):
            raise ConfigError(f"sigma must be +1, -1 or 'both', got {self.sigma!r}")
        for name in self.suites:
            if name not in SUITE_NAMES:
                raise ConfigError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
        if self.tol is not None and not (_finite(self.tol) and self.tol > 0):
            raise ConfigError(f"tol must be a finite positive number, got {self.tol!r}")
        parameters = {
            "hop_t": [self.hop_t],
            "onsite_u": list(u) if isinstance(u, (list, tuple)) else [u],
            "v_table": list(self.v_table.values()),
        }
        for name, values in parameters.items():  # a NaN or inf would reach the eigensolver
            if not all(_finite(v) for v in values):
                raise self._type_error(name, "finite")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        lattice = self.make_space().lattice  # validates lattice and spin together
        try:
            self.one_body().site_potential(lattice)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad one-body parameters: {exc}") from exc
        spec2 = self.two_body()
        unmatched = spec2.unmatched_distances(lattice) if spec2 is not None else []
        if unmatched:
            raise ConfigError(f"interaction keys {unmatched} match no site distance of the lattice")
        return self


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(raw) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {attr: raw[key] for key, attr in CONFIG_KEYS.items() if key in raw}
    if isinstance(kwargs.get("suites"), list):
        kwargs["suites"] = tuple(kwargs["suites"])
    return RunConfig(**kwargs)


def _parse_sigma(text: str):
    if text == "both":
        return "both"
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"sigma must be +1, -1 or 'both', got {text!r}") from None
    return value


def _parse_lattice_flag(text: str) -> dict:
    kind, _, size = text.partition(":")
    key = SIZE_KEYS.get(kind)
    if key is None or not size.isdigit():
        raise ConfigError(f"bad --lattice value {text!r}; use ring:M or grid2d:L")
    return {"kind": kind, key: int(size)}


# -- reports -----------------------------------------------------------------


def _dump_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


@dataclass
class SuiteReport:
    suite: str
    params: dict
    residuals: list
    passed: bool
    seed: int


def _finish(suite: str, cfg: RunConfig, checks: list[tuple[str, float, float]]) -> SuiteReport:
    residuals = [
        {"check": name, "value": float(value), "tol": float(tol), "passed": bool(value <= tol)}
        for name, value, tol in checks
    ]
    params = {
        "lattice": cfg.lattice,
        "twos_s": cfg.twos_s,
        "sigma": cfg.sigma,
        "N": cfg.n_particles,
        "n_max": cfg.n_max,
        "tol": cfg.tol,
    }
    return SuiteReport(
        suite=suite,
        params=params,
        residuals=residuals,
        passed=all(r["passed"] for r in residuals),
        seed=cfg.seed,
    )


def _graded(sigmas, grade) -> list[tuple[str, float, float]]:
    """The (check, value, tol) rows of ``grade(sigma)`` for each grade in
    turn, as ``_finish`` takes them, each check named with its grade."""
    return [(f"{check} [sigma={sigma:+d}]", value, tol) for sigma in sigmas for check, value, tol in grade(sigma)]


def _tol(cfg: RunConfig, suite: str) -> float:
    return cfg.tol if cfg.tol is not None else SUITE_DEFAULT_TOL[suite]


def _require_states(space: ModeSpace, n_particles: int, sigma: int) -> int:
    """The sector's dimension; a sector with no states is refused, since
    nothing computed on it would be checked."""
    dim = sector_dimension(space.n_modes, n_particles, sigma)
    if dim == 0:
        raise ConfigError(f"sector N={n_particles}, sigma={sigma:+d} has no states")
    return dim


def _size_sectors(cfg: RunConfig, space: ModeSpace, top: int, *more: int) -> None:
    """Size sectors N = 0..top and ``more`` of every grade the run checks
    against the cap (``capped_dimension``), before any per-mode build or
    solve reads them.  Fermion sectors past n_modes hold no states."""
    for sigma in cfg.sigmas():
        last = min(top, space.n_modes) if sigma == -1 else top
        for n in (*more, *range(last + 1)):
            capped_dimension(space, n, sigma)


def _n_max_from_two(cfg: RunConfig, suite: str, top: int = 3) -> int:
    """n_max, at most ``top``, for a suite whose sectors start at N = 2 (the
    pair operator maps N to N - 2; a permutation needs two coordinates)."""
    if cfg.n_max < 2:
        raise ConfigError(f"the {suite} suite needs n_max >= 2 (sectors N >= 2), got {cfg.n_max}")
    return min(cfg.n_max, top)


# -- suites -------------------------------------------------------------------


def suite_commutators(cfg: RunConfig, rng) -> SuiteReport:
    space = cfg.make_space()
    tol = _tol(cfg, "commutators")
    _size_sectors(cfg, space, cfg.n_max + 2)  # the relations read N <= n_max + 2

    def grade(sigma):
        annihilators = [destroy(m, sigma) for m in space.modes]
        worst_mixed, worst_ann, worst_cre = ladder_relation_residuals(space, annihilators, sigma, cfg.n_max)
        return [
            ("mixed commutator vs delta", worst_mixed, tol),
            ("annihilator commutator vs 0", worst_ann, tol),
            ("creator commutator vs 0", worst_cre, tol),
        ]

    return _finish("commutators", cfg, _graded(cfg.sigmas(), grade))


def suite_orthonormality(cfg: RunConfig, rng) -> SuiteReport:
    space = cfg.make_space()
    tol = _tol(cfg, "orthonormality")
    m = space.n_modes

    def grade(sigma):
        worst = 0.0
        for n in range(min(cfg.n_max, 3) + 1):
            if m ** (2 * n) <= 60_000:  # every pair of coordinate tuples
                tuples = index_tuples(m, n)
                bras, kets = np.divmod(np.arange(len(tuples) ** 2), len(tuples))
            else:
                tuples = rng.integers(0, m, size=(2000, 2, n)).reshape(4000, n)
                bras, kets = np.arange(0, 4000, 2), np.arange(1, 4000, 2)
            _, index, amp = bracket_amplitudes(space, tuples, sigma)
            overlaps = np.where(index[bras] == index[kets], amp[bras] * amp[kets], 0.0)
            oracle = overlap_oracle(tuples[bras], tuples[kets], sigma)
            worst = max(worst, max_abs(overlaps - oracle))
        return [("overlap vs permutation oracle", worst, tol)]

    return _finish("orthonormality", cfg, _graded(cfg.sigmas(), grade))


def suite_completeness(cfg: RunConfig, rng) -> SuiteReport:
    space = cfg.make_space()
    tol = _tol(cfg, "completeness")
    m, n = space.n_modes, cfg.n_particles
    if n < 2:
        raise ConfigError(f"the completeness suite needs N >= 2 (at N < 2 the symmetrizer is the identity), got {n}")
    for sigma in cfg.sigmas():
        _require_states(space, n, sigma)
    shape = (m,) * n

    def grade(sigma):
        brackets = every_bracket(space, n, sigma)
        worst_vs_oracle = 0.0
        for piece in joined_pieces([m**n] * 100):  # the probes projected and symmetrized as one stack
            probes = np.stack([rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in piece])
            worst_vs_oracle = max(worst_vs_oracle, completeness_check(brackets, probes))
        probe = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        once = project_onto_symmetric(brackets, probe)
        symmetric = symmetrizer_oracle(probe, sigma)
        return [
            ("projector vs symmetrizer oracle", worst_vs_oracle, tol),
            ("projector idempotence", max_abs(project_onto_symmetric(brackets, once) - once), tol),
            ("symmetric probe fixed point", max_abs(project_onto_symmetric(brackets, symmetric) - symmetric), tol),
        ]

    return _finish("completeness", cfg, _graded(cfg.sigmas(), grade))


def suite_permutations(cfg: RunConfig, rng) -> SuiteReport:
    space = cfg.make_space()
    tol = _tol(cfg, "permutations")
    n_top = _n_max_from_two(cfg, "permutations", 4)

    def grade(sigma):
        worst = 0.0
        for n in range(2, n_top + 1):
            draws = [tuple(rng.integers(0, space.n_modes, size=n)) for _ in range(3)]
            draws.append(tuple([0] * n))  # fully degenerate coordinates
            for idxs in draws:
                coords = tuple(space.mode_at(int(i)) for i in idxs)
                perms = iter_permutations(range(n))
                worst = max(worst, permutation_eigencheck(space, coords, perms, sigma))
        return [("bracket permutation eigenvalue", worst, tol)]

    return _finish("permutations", cfg, _graded(cfg.sigmas(), grade))


def suite_ideal_gas(cfg: RunConfig, rng) -> SuiteReport:
    space = cfg.make_space()
    for sigma in cfg.sigmas():
        _require_states(space, cfg.n_particles, sigma)
    _size_sectors(cfg, space, min(cfg.n_max, 3) + 2, cfg.n_particles)  # the eigenmode relations read N <= n_max + 2
    spec1 = cfg.one_body()
    spectral_tol = _tol(cfg, "ideal-gas")
    mode_tol = cfg.tol if cfg.tol is not None else MODE_COMMUTATOR_TOL
    eps, phi = one_particle_spectrum(spec1, space.lattice, space.spin)

    def grade(sigma):
        cs = mode_operators(space, phi, sigma)
        report = ideal_gas_check(spec1, space, cfg.n_particles, sigma, eps, cs)
        return [
            ("ED spectrum vs occupancy multiset", report.spectral_deviation, spectral_tol),
            ("diagonal eigenmode identity", report.h0_identity_residual, spectral_tol),
            ("eigenmode ladder relations", mode_operator_check(space, cs, sigma, n_max=min(cfg.n_max, 3)), mode_tol),
        ]

    return _finish("ideal-gas", cfg, _graded(cfg.sigmas(), grade))


def suite_rotation(cfg: RunConfig, rng) -> SuiteReport:
    space = cfg.make_space()
    tol = _tol(cfg, "rotation")
    n_pair = _n_max_from_two(cfg, "rotation")
    n_top = min(n_pair, 2)
    _size_sectors(cfg, space, n_pair)

    def grade(sigma):
        elem = rotation_element_residual(space, sigma, n_top)
        cov = rotation_covariance_check(space, sigma, n_pair)
        unitary, square = sector_lift_residuals(space, sigma, n_top)
        return [
            ("field transform element identity", elem, tol),
            ("pair rotation covariance", cov, tol),
            ("sector lift unitarity", unitary, tol),
            ("half-turn lift squared vs (-1)^(2sN)", square, tol),
        ]

    return _finish("rotation", cfg, _graded(cfg.sigmas(), grade))


def _miss(measured, expected) -> float:
    """|measured - expected|, or 1.0 for a value that could not be measured."""
    return 1.0 if measured is None else abs(measured - expected)


def suite_pair_operator(cfg: RunConfig, rng) -> SuiteReport:
    space = cfg.make_space()
    tol = _tol(cfg, "pair-operator")
    n_top = _n_max_from_two(cfg, "pair-operator")

    def grade(sigma):
        rec = pair_checks(space, sigma, n_top)
        worst_lambda = max(
            max(rec.lambda_residuals[tm], _miss(lam, rec.lambda_expected)) for tm, lam in rec.lambdas.items()
        )
        origin_ok = all(rec.same_point_vanishes(tm) == (sigma == -1) for tm in rec.same_point)
        return [
            ("inversion covariance of the pair", rec.inversion_residual, tol),
            ("half-turn eigenvalue vs (-1)^2s sigma", worst_lambda, tol),
            ("same-point pair vanishing rule", 0.0 if origin_ok else 1.0, tol),
        ]

    return _finish("pair-operator", cfg, _graded(cfg.sigmas(), grade))


def suite_theorem(cfg: RunConfig, rng) -> SuiteReport:
    space = cfg.make_space()
    tol = _tol(cfg, "theorem")
    report = theorem_report(space, n_max=_n_max_from_two(cfg, "theorem"))

    def grade(sigma):
        verdict = report.per_sigma[sigma]
        half_turn = max(verdict.lambda_residual, _miss(verdict.lambda_measured, verdict.lambda_expected))
        winding_dev = max(_miss(w, tm) for tm, w in verdict.winding_by_twos_ms.items())
        return [
            ("half-turn eigenvalue identity", half_turn, tol),
            ("full-turn winding vs 2m_s", float(winding_dev), tol),
            ("winding step residual", verdict.winding_residual, tol),
            ("same-point vanishing", 0.0 if verdict.origin_vanishes == (sigma == -1) else 1.0, tol),
        ]

    verdict_row = ("verdict grade", 0.0 if report.verdict_sigma == (-1) ** cfg.twos_s else 1.0, tol)
    suite = _finish("theorem", cfg, [verdict_row, *_graded((1, -1), grade)])  # both grades, whatever --sigma says
    suite.params["theorem_report"] = report.to_dict()
    return suite


SUITES = {
    "commutators": suite_commutators,
    "orthonormality": suite_orthonormality,
    "completeness": suite_completeness,
    "permutations": suite_permutations,
    "ideal-gas": suite_ideal_gas,
    "rotation": suite_rotation,
    "pair-operator": suite_pair_operator,
    "theorem": suite_theorem,
}


# -- expression equivalence ----------------------------------------------------


def check_expression(cfg: RunConfig) -> SuiteReport:
    if cfg.equals is None:
        raise ConfigError("--expr needs --equals to compare against")
    space = cfg.make_space()
    tol = cfg.tol if cfg.tol is not None else COEFF_TOL

    def grade(sigma):
        try:
            lhs, rhs = parse_expr(cfg.expr, sigma), parse_expr(cfg.equals, sigma)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        outside = [f.mode for e in (lhs, rhs) for t in e.terms for f in t.factors if not space.contains(f.mode)]
        if outside:
            raise ConfigError(f"mode {outside[0]} is outside the configured space")
        overflow = "the difference of --expr and --equals has a coefficient too large for a float"
        try:
            residual = expr_residual(lhs, rhs)
        except OverflowError:  # abs() of a complex coefficient past the float range
            raise ConfigError(overflow) from None
        if not math.isfinite(residual):
            raise ConfigError(overflow)
        return [("expression equality", residual, tol)]

    return _finish("expression", cfg, _graded(cfg.sigmas(), grade))


# -- commands -------------------------------------------------------------------


def _print_report(report: SuiteReport) -> None:
    for entry in report.residuals:
        status = "PASS" if entry["passed"] else "FAIL"
        print(f"[{report.suite}] {entry['check']}: {entry['value']:.3e} <= {entry['tol']:.1e} {status}")
    print(f"[{report.suite}] suite {'PASS' if report.passed else 'FAIL'}")


def _out_dir(cfg: RunConfig) -> Path:
    """The output directory, created once a command has output to write."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _run_suite(name: str, cfg: RunConfig, rng) -> SuiteReport:
    """``SUITES[name](cfg, rng)``.  A ``MemoryError`` is raised again with the
    suite named, from outside the handler, so the failed suite's frames and
    the arrays they hold are freed first."""
    try:
        return SUITES[name](cfg, rng)
    except MemoryError as exc:
        reason = str(exc) or "an allocation failed"
    raise MemoryError(f"the {name} suite: {reason}")


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.expr is not None:
        reports = [check_expression(cfg)]
    else:
        rng = np.random.default_rng(cfg.seed)  # numpy loads its random module here, on first use
        reports = [_run_suite(name, cfg, rng) for name in cfg.suites]
    out = _out_dir(cfg)
    all_passed = True
    for report in reports:
        _dump_json(out / f"{report.suite}.json", asdict(report))
        if report.suite == "theorem":
            _dump_json(out / "theorem_report.json", report.params["theorem_report"])
        _print_report(report)
        all_passed &= report.passed
    return 0 if all_passed else 1


def _write_csv(path: Path, header: tuple[str, ...], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def _spectrum_for(cfg: RunConfig):
    space = cfg.make_space()
    sigma = cfg.single_sigma()
    _require_states(space, cfg.n_particles, sigma)
    basis = build_basis(space, cfg.n_particles, sigma)
    ham = build_many_body(cfg.one_body(), cfg.two_body(), basis)
    return space, basis, ham, diagonalize(ham)


def cmd_diagonalize(cfg: RunConfig) -> int:
    space, basis, ham, spectrum = _spectrum_for(cfg)
    out = _out_dir(cfg)
    _write_csv(
        out / "spectrum.csv",
        ("index", "eigenvalue"),
        ((i, float(e)) for i, e in enumerate(spectrum.eigenvalues)),
    )
    if cfg.eigenvectors:
        rows = []
        for k, vec in enumerate(spectrum.eigenvectors):
            for i, amp in enumerate(vec.amplitudes):
                rows.append((k, i, float(amp.real), float(amp.imag)))
        _write_csv(out / "eigenvectors.csv", ("state", "basis_index", "re", "im"), rows)
    if cfg.dump_basis:
        header = tuple(f"n{i}" for i in range(space.n_modes))
        _write_csv(out / "basis.csv", header, (basis.occ_tuple(i) for i in range(basis.dim)))
    if cfg.dump_matrix:
        mat = ham.matrix
        rows = mat.entry_rows()
        order = np.lexsort((mat.indices, rows))
        _write_csv(
            out / "hamiltonian.csv",
            ("row", "col", "re", "im"),
            (
                (int(rows[k]), int(mat.indices[k]), float(mat.data[k].real), float(mat.data[k].imag))
                for k in order
            ),
        )
    print(f"diagonalize: {basis.dim} states, ground energy {spectrum.ground_energy!r}")
    return 0


def cmd_correlate(cfg: RunConfig) -> int:
    if cfg.n_particles < 2:
        raise ConfigError("correlations need N >= 2")
    # the state and projection are checked before the sector is built and solved
    space = cfg.make_space()
    dim = _require_states(space, cfg.n_particles, cfg.single_sigma())
    if not 0 <= cfg.state_index < dim:
        raise ConfigError(f"state index {cfg.state_index} outside 0..{dim - 1}")
    twos_ms = cfg.twos_ms if cfg.twos_ms is not None else space.spin.projections()[0]
    if not space.spin.is_allowed_projection(twos_ms):
        raise ConfigError(f"projection 2m_s={twos_ms} not allowed for 2s={space.spin.twos_s}")
    spectrum = _spectrum_for(cfg)[3]
    state = spectrum.eigenvectors[cfg.state_index]
    out = _out_dir(cfg)
    profile = corr.antipodal_profile(state, twos_ms)
    _write_csv(
        out / "profile.csv",
        ("site", "re", "im", "abs2"),
        (
            (i, float(v.real), float(v.imag), float(abs(v) ** 2))
            for i, v in enumerate(profile)
        ),
    )
    if space.lattice.kind == "ring":
        spectrum_l = np.fft.fft(profile)  # = relative_parity_spectrum, profile not recomputed
        _write_csv(
            out / "angular.csv",
            ("l", "re", "im"),
            ((l, float(v.real), float(v.imag)) for l, v in enumerate(spectrum_l)),
        )
    print(f"correlate: state {cfg.state_index}, energy {float(spectrum.eigenvalues[cfg.state_index])!r}")
    return 0


# -- argument parsing -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinstat",
        description="Exact finite-lattice checks of the spin-statistics connection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--lattice", help="ring:M or grid2d:L")
        p.add_argument("--twos-s", type=int, dest="twos_s", help="twice the spin")
        p.add_argument("--sigma", help="+1, -1 or both")
        p.add_argument("-N", type=int, dest="n_particles", help="particle number")
        p.add_argument("--n-max", type=int, dest="n_max", help="largest sector for matrix checks")
        p.add_argument("--out", dest="out_dir", help="output directory")
        p.add_argument("--tol", type=float, help="tolerance override")
        p.add_argument("--seed", type=int, help="seed for random probes")
        p.add_argument("--hop-t", type=float, dest="hop_t", help="hopping scale")

    p_verify = sub.add_parser("verify", help="run verification suites")
    add_common(p_verify)
    p_verify.add_argument("--suite", action="append", choices=SUITE_NAMES, help="suite to run (repeatable)")
    p_verify.add_argument("--expr", help="operator expression to check")
    p_verify.add_argument("--equals", help="expression the --expr must equal")

    p_diag = sub.add_parser("diagonalize", help="build and diagonalize a Hamiltonian")
    add_common(p_diag)
    p_diag.add_argument("--dump-basis", action="store_true", help="write basis.csv")
    p_diag.add_argument("--dump-matrix", action="store_true", help="write hamiltonian.csv")
    p_diag.add_argument("--eigenvectors", action="store_true", help="write eigenvectors.csv")

    p_corr = sub.add_parser("correlate", help="antipodal profile and angular spectrum of an eigenstate")
    add_common(p_corr)
    p_corr.add_argument("--state-index", type=int, dest="state_index", help="eigenstate index")
    p_corr.add_argument("--twos-ms", type=int, dest="twos_ms", help="twice the spin projection")

    return parser


def _merge_args(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    updates = {}
    for attr in (
        "twos_s", "n_particles", "n_max", "out_dir", "tol", "seed", "hop_t",
        "state_index", "twos_ms", "expr", "equals",
    ):
        value = getattr(args, attr, None)
        if value is not None:
            updates[attr] = value
    if getattr(args, "sigma", None) is not None:
        updates["sigma"] = _parse_sigma(args.sigma)
    if getattr(args, "lattice", None) is not None:
        updates["lattice"] = _parse_lattice_flag(args.lattice)
    if getattr(args, "suite", None):
        updates["suites"] = tuple(args.suite)
    for flag in ("dump_basis", "dump_matrix", "eigenvectors"):
        if getattr(args, flag, False):
            updates[flag] = True
    return replace(cfg, **updates)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge_args(load_config(args.config), args).validate()
        with command_scope():  # every memo is shared by the command's suites, then emptied
            if args.command == "verify":
                return cmd_verify(cfg)
            if args.command == "diagonalize":
                return cmd_diagonalize(cfg)
            return cmd_correlate(cfg)
    except (ConfigError, DimensionCapError, IncompatibleRotationError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # the last resort where no estimate refused the run first
        print(f"out of memory: {args.command}: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
