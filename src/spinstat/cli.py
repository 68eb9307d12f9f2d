"""Batch driver: run verification suites, diagonalize, or export correlations.

Configuration comes from an optional JSON file plus flag overrides; every
run is deterministic (random probes use the seeded generator echoed in the
report), reports are JSON with sorted keys, and numeric tables are CSV, so
repeated runs with the same configuration are byte-identical.

Exit codes: 0 all checks passed, 1 a verification failed, 2 configuration
or precondition error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from itertools import permutations as iter_permutations
from pathlib import Path

import numpy as np

from . import correlations as corr
from .fockspace import (
    DEFAULT_DIMENSION_CAP,
    DimensionCapError,
    bracket_amplitudes,
    bracket_state,
    build_basis,
    identity_matrix,
    index_tuples,
    matrix_of,
    max_abs,
    overlap,
    overlap_oracle,
    symmetrizer_oracle,
    project_onto_symmetric,
)
from .hamiltonians import (
    OneBodySpec,
    TwoBodySpec,
    build_many_body,
    diagonalize,
    ideal_gas_check,
    mode_operator_check,
)
from .modes import Lattice, ModeSpace, SpinQuantum
from .opalgebra import create, destroy, expr_equal, parse_expr, sigma_commutator
from .symmetry import (
    IncompatibleRotationError,
    origin_vanishing_check,
    parity_covariance_check,
    pi_eigenvalue_check,
    rotation_by_steps,
    rotation_covariance_check,
    rotation_element_residual,
    sigma_to_permutation_power,
    theorem_probe_site,
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

SUITE_DEFAULT_TOL = {name: 1e-9 if name == "ideal-gas" else 1e-12 for name in SUITE_NAMES}


class ConfigError(Exception):
    """Bad configuration or violated precondition: exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; validated before any computation starts."""

    lattice: dict = field(default_factory=lambda: {"kind": "ring", "M": 4})
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
    dimension_cap: int = DEFAULT_DIMENSION_CAP
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
        spec = dict(self.lattice)
        kind = spec.get("kind")
        try:
            if kind == "ring":
                return Lattice.ring(int(spec["M"]))
            if kind == "grid2d":
                return Lattice.grid2d(int(spec["L"]))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad lattice spec {self.lattice}: {exc}") from exc
        raise ConfigError(f"unknown lattice kind {kind!r}")

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

    def validate(self) -> "RunConfig":
        if self.n_particles < 0:
            raise ConfigError("N must be >= 0")
        if self.n_max < 0:
            raise ConfigError("n_max must be >= 0")
        if self.sigma not in ("both", 1, -1):
            raise ConfigError(f"sigma must be +1, -1 or 'both', got {self.sigma!r}")
        for name in self.suites:
            if name not in SUITE_NAMES:
                raise ConfigError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
        if self.tol is not None and self.tol <= 0:
            raise ConfigError("tol must be positive")
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
    mapping = {
        "lattice": "lattice", "twos_s": "twos_s", "sigma": "sigma", "N": "n_particles",
        "hop_t": "hop_t", "onsite_U": "onsite_u", "V": "v_table", "n_max": "n_max",
        "seed": "seed", "tol": "tol", "out": "out_dir", "state_index": "state_index",
        "twos_ms": "twos_ms", "dimension_cap": "dimension_cap", "dump_basis": "dump_basis",
        "dump_matrix": "dump_matrix", "eigenvectors": "eigenvectors",
    }
    unknown = set(raw) - set(mapping) - {"suites"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for key, attr in mapping.items():
        if key in raw:
            kwargs[attr] = raw[key]
    if "suites" in raw:
        kwargs["suites"] = tuple(raw["suites"])
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
    key = {"ring": "M", "grid2d": "L"}.get(kind)
    if key is None or not size.isdigit():
        raise ConfigError(f"bad --lattice value {text!r}; use ring:M or grid2d:L")
    return {"kind": kind, key: int(size)}


# -- reports -----------------------------------------------------------------


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    return value


def _dump_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


@dataclass
class SuiteReport:
    suite: str
    params: dict
    residuals: list
    passed: bool
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


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


def _tol(cfg: RunConfig, suite: str, fallback: float | None = None) -> float:
    if cfg.tol is not None:
        return cfg.tol
    return fallback if fallback is not None else SUITE_DEFAULT_TOL[suite]


# -- suites -------------------------------------------------------------------


def suite_commutators(cfg: RunConfig, rng) -> SuiteReport:
    space = cfg.make_space()
    tol = _tol(cfg, "commutators")
    checks = []
    for sigma in cfg.sigmas():
        bases = [build_basis(space, n, sigma, cfg.dimension_cap) for n in range(cfg.n_max + 1)]
        worst_mixed = worst_ann = worst_cre = 0.0
        for a in space.modes:
            for b in space.modes:
                mixed = sigma_commutator(destroy(a, sigma), create(b, sigma))
                ann = sigma_commutator(destroy(a, sigma), destroy(b, sigma))
                cre = sigma_commutator(create(a, sigma), create(b, sigma))
                delta = 1.0 if a == b else 0.0
                for basis in bases:
                    mat = matrix_of(mixed, basis, basis).matrix
                    worst_mixed = max(
                        worst_mixed, max_abs(mat - delta * identity_matrix(basis).matrix)
                    )
                    if basis.n_particles >= 2:
                        lower = build_basis(space, basis.n_particles - 2, sigma)
                        worst_ann = max(worst_ann, max_abs(matrix_of(ann, basis, lower).matrix))
                    upper = build_basis(space, basis.n_particles + 2, sigma, cfg.dimension_cap)
                    worst_cre = max(worst_cre, max_abs(matrix_of(cre, basis, upper).matrix))
        tag = f"sigma={sigma:+d}"
        checks.append((f"mixed commutator vs delta [{tag}]", worst_mixed, tol))
        checks.append((f"annihilator commutator vs 0 [{tag}]", worst_ann, tol))
        checks.append((f"creator commutator vs 0 [{tag}]", worst_cre, tol))
    return _finish("commutators", cfg, checks)


def suite_orthonormality(cfg: RunConfig, rng) -> SuiteReport:
    space = cfg.make_space()
    tol = _tol(cfg, "orthonormality")
    m = space.n_modes
    n_top = min(cfg.n_max, 3)
    checks = []
    for sigma in cfg.sigmas():
        worst = 0.0
        for n in range(n_top + 1):
            if m ** (2 * n) <= 60_000:  # every pair of coordinate tuples
                tuples = index_tuples(m, n)
                bras, kets = np.divmod(np.arange(len(tuples) ** 2), len(tuples))
            else:
                tuples = rng.integers(0, m, size=(2000, 2, n)).reshape(4000, n)
                bras, kets = np.arange(0, 4000, 2), np.arange(1, 4000, 2)
            _, index, amp = bracket_amplitudes(space, tuples, sigma)
            overlaps = np.where(index[bras] == index[kets], amp[bras] * amp[kets], 0.0)
            for b, k, got in zip(bras.tolist(), kets.tolist(), overlaps.tolist()):
                bra, ket = (tuple(space.mode_at(i) for i in tuples[r]) for r in (b, k))
                worst = max(worst, abs(got - overlap_oracle(bra, ket, sigma)))
        # sectors differing in particle number must give exactly zero
        cross = abs(
            overlap(space, (space.mode_at(0),), (space.mode_at(0), space.mode_at(0)), sigma)
        )
        checks.append((f"overlap vs permutation oracle [sigma={sigma:+d}]", worst, tol))
        checks.append((f"cross-sector overlap vs 0 [sigma={sigma:+d}]", cross, tol))
    return _finish("orthonormality", cfg, checks)


def suite_completeness(cfg: RunConfig, rng) -> SuiteReport:
    space = cfg.make_space()
    tol = _tol(cfg, "completeness")
    m = space.n_modes
    n = max(2, cfg.n_particles)
    shape = (m,) * n
    checks = []
    for sigma in cfg.sigmas():
        worst_vs_oracle = worst_idem = worst_fixed = 0.0
        for _ in range(100):
            probe = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            worst_vs_oracle = max(
                worst_vs_oracle,
                float(np.max(np.abs(
                    project_onto_symmetric(space, n, sigma, probe)
                    - symmetrizer_oracle(probe, sigma)
                ))),
            )
        probe = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        once = project_onto_symmetric(space, n, sigma, probe)
        twice = project_onto_symmetric(space, n, sigma, once)
        worst_idem = float(np.max(np.abs(twice - once)))
        symmetric = symmetrizer_oracle(probe, sigma)
        worst_fixed = float(np.max(np.abs(
            project_onto_symmetric(space, n, sigma, symmetric) - symmetric
        )))
        tag = f"sigma={sigma:+d}"
        checks.append((f"projector vs symmetrizer oracle [{tag}]", worst_vs_oracle, tol))
        checks.append((f"projector idempotence [{tag}]", worst_idem, tol))
        checks.append((f"symmetric probe fixed point [{tag}]", worst_fixed, tol))
    return _finish("completeness", cfg, checks)


def suite_permutations(cfg: RunConfig, rng) -> SuiteReport:
    space = cfg.make_space()
    tol = _tol(cfg, "permutations")
    checks = []
    for sigma in cfg.sigmas():
        worst = 0.0
        for n in range(2, min(cfg.n_max, 4) + 1):
            draws = [tuple(rng.integers(0, space.n_modes, size=n)) for _ in range(3)]
            draws.append(tuple([0] * n))  # fully degenerate coordinates
            for idxs in draws:
                coords = tuple(space.mode_at(int(i)) for i in idxs)
                original = bracket_state(space, coords, sigma)
                for perm in iter_permutations(range(n)):
                    permuted = bracket_state(space, tuple(coords[p] for p in perm), sigma)
                    factor = sigma_to_permutation_power(perm, sigma)
                    dev = permuted.amplitudes - factor * original.amplitudes
                    worst = max(worst, float(np.max(np.abs(dev))) if dev.size else 0.0)
        checks.append((f"bracket permutation eigenvalue [sigma={sigma:+d}]", worst, tol))
    return _finish("permutations", cfg, checks)


def suite_ideal_gas(cfg: RunConfig, rng) -> SuiteReport:
    lattice = cfg.make_lattice()
    spin = SpinQuantum(cfg.twos_s)
    spec1 = cfg.one_body()
    spectral_tol = _tol(cfg, "ideal-gas")
    mode_tol = cfg.tol if cfg.tol is not None else 1e-10
    checks = []
    for sigma in cfg.sigmas():
        report = ideal_gas_check(spec1, lattice, spin, cfg.n_particles, sigma, tol=spectral_tol)
        tag = f"sigma={sigma:+d}"
        checks.append((f"ED spectrum vs occupancy multiset [{tag}]", report.spectral_deviation, spectral_tol))
        checks.append((f"diagonal eigenmode identity [{tag}]", report.h0_identity_residual, spectral_tol))
        checks.append((
            f"eigenmode ladder relations [{tag}]",
            mode_operator_check(spec1, lattice, spin, sigma, n_max=min(cfg.n_max, 3)),
            mode_tol,
        ))
    return _finish("ideal-gas", cfg, checks)


def suite_rotation(cfg: RunConfig, rng) -> SuiteReport:
    space = cfg.make_space()
    tol = _tol(cfg, "rotation")
    per_turn = space.lattice.steps_per_turn
    checks = []
    for sigma in cfg.sigmas():
        worst_elem = worst_cov = worst_unitary = 0.0
        for steps in range(per_turn):
            rot = rotation_by_steps(space, steps)
            worst_elem = max(
                worst_elem,
                rotation_element_residual(space, rot, sigma, n_max=min(cfg.n_max, 2)),
            )
            for n in range(min(cfg.n_max, 2) + 1):
                basis = build_basis(space, n, sigma, cfg.dimension_cap)
                u = rot.fock_lift(basis).matrix
                worst_unitary = max(
                    worst_unitary,
                    max_abs(u @ u.conj().T - identity_matrix(basis).matrix),
                )
            for tm in space.spin.projections():
                for site in range(space.lattice.n_sites):
                    worst_cov = max(
                        worst_cov,
                        rotation_covariance_check(
                            space, tm, site, Fraction(steps, per_turn), sigma,
                            n_max=min(cfg.n_max, 3),
                        ),
                    )
        tag = f"sigma={sigma:+d}"
        checks.append((f"field transform element identity [{tag}]", worst_elem, tol))
        checks.append((f"pair rotation covariance [{tag}]", worst_cov, tol))
        checks.append((f"sector lift unitarity [{tag}]", worst_unitary, tol))
    return _finish("rotation", cfg, checks)


def suite_pair_operator(cfg: RunConfig, rng) -> SuiteReport:
    space = cfg.make_space()
    tol = _tol(cfg, "pair-operator")
    probe = theorem_probe_site(space)
    checks = []
    for sigma in cfg.sigmas():
        worst_parity = 0.0
        worst_lambda = 0.0
        origin_ok = True
        for tm in space.spin.projections():
            for site in range(space.lattice.n_sites):
                worst_parity = max(
                    worst_parity,
                    parity_covariance_check(space, tm, site, sigma, n_max=min(cfg.n_max, 3)),
                )
            res = pi_eigenvalue_check(space, tm, probe, sigma, n_max=min(cfg.n_max, 3))
            if res.lambda_measured is None:
                worst_lambda = max(worst_lambda, 1.0)
            else:
                worst_lambda = max(
                    worst_lambda, res.residual, abs(res.lambda_measured - res.lambda_expected)
                )
            vanishes = origin_vanishing_check(space, tm, sigma, n_max=min(cfg.n_max, 3))
            origin_ok &= vanishes == (sigma == -1)
        tag = f"sigma={sigma:+d}"
        checks.append((f"inversion covariance of the pair [{tag}]", worst_parity, tol))
        checks.append((f"half-turn eigenvalue vs (-1)^2s sigma [{tag}]", worst_lambda, tol))
        checks.append((f"same-point pair vanishing rule [{tag}]", 0.0 if origin_ok else 1.0, tol))
    return _finish("pair-operator", cfg, checks)


def suite_theorem(cfg: RunConfig, rng) -> SuiteReport:
    space = cfg.make_space()
    tol = _tol(cfg, "theorem")
    report = theorem_report(space, n_max=min(max(cfg.n_max, 2), 3))
    checks = []
    expected_verdict = 1 if cfg.twos_s % 2 == 0 else -1
    checks.append(("verdict grade", 0.0 if report.verdict_sigma == expected_verdict else 1.0, tol))
    for sigma, verdict in sorted(report.per_sigma.items(), reverse=True):
        tag = f"sigma={sigma:+d}"
        checks.append((
            f"half-turn eigenvalue identity [{tag}]",
            max(verdict.lambda_residual, abs(verdict.lambda_measured - verdict.lambda_expected)),
            tol,
        ))
        winding_dev = max(
            abs(w - tm) for tm, w in verdict.winding_by_twos_ms.items()
        )
        checks.append((f"full-turn winding vs 2m_s [{tag}]", float(winding_dev), tol))
        checks.append((f"winding step residual [{tag}]", verdict.winding_residual, tol))
        origin_expected = sigma == -1
        checks.append((
            f"same-point vanishing [{tag}]",
            0.0 if verdict.origin_vanishes == origin_expected else 1.0,
            tol,
        ))
    suite = _finish("theorem", cfg, checks)
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
    checks = []
    for sigma in cfg.sigmas():
        try:
            lhs = parse_expr(cfg.expr, sigma)
            rhs = parse_expr(cfg.equals, sigma)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for expr in (lhs, rhs):
            for term in expr.terms:
                for factor in term.factors:
                    if not space.contains(factor.mode):
                        raise ConfigError(f"mode {factor.mode} is outside the configured space")
        tol = cfg.tol if cfg.tol is not None else 1e-12
        equal = expr_equal(lhs, rhs, tol)
        checks.append((f"expression equality [sigma={sigma:+d}]", 0.0 if equal else 1.0, tol))
    return _finish("expression", cfg, checks)


# -- commands -------------------------------------------------------------------


def _print_report(report: SuiteReport) -> None:
    for entry in report.residuals:
        status = "PASS" if entry["passed"] else "FAIL"
        print(f"[{report.suite}] {entry['check']}: {entry['value']:.3e} <= {entry['tol']:.1e} {status}")
    print(f"[{report.suite}] suite {'PASS' if report.passed else 'FAIL'}")


def cmd_verify(cfg: RunConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    reports = []
    if cfg.expr is not None:
        reports.append(check_expression(cfg))
    else:
        for name in cfg.suites:
            reports.append(SUITES[name](cfg, rng))
    all_passed = True
    for report in reports:
        _dump_json(out / f"{report.suite}.json", report.to_dict())
        if report.suite == "theorem" and "theorem_report" in report.params:
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
    basis = build_basis(space, cfg.n_particles, sigma, cfg.dimension_cap)
    ham = build_many_body(cfg.one_body(), cfg.two_body(), basis)
    return space, basis, ham, diagonalize(ham)


def cmd_diagonalize(cfg: RunConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    space, basis, ham, spectrum = _spectrum_for(cfg)
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
        coo = ham.matrix.tocoo()
        order = np.lexsort((coo.col, coo.row))
        _write_csv(
            out / "hamiltonian.csv",
            ("row", "col", "re", "im"),
            (
                (int(coo.row[k]), int(coo.col[k]), float(coo.data[k].real), float(coo.data[k].imag))
                for k in order
            ),
        )
    print(f"diagonalize: {basis.dim} states, ground energy {spectrum.ground_energy!r}")
    return 0


def cmd_correlate(cfg: RunConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.n_particles < 2:
        raise ConfigError("correlations need N >= 2")
    space, basis, ham, spectrum = _spectrum_for(cfg)
    if not 0 <= cfg.state_index < basis.dim:
        raise ConfigError(f"state index {cfg.state_index} outside 0..{basis.dim - 1}")
    state = spectrum.eigenvectors[cfg.state_index]
    twos_ms = cfg.twos_ms if cfg.twos_ms is not None else space.spin.projections()[0]
    if not space.spin.is_allowed_projection(twos_ms):
        raise ConfigError(f"projection 2m_s={twos_ms} not allowed for 2s={space.spin.twos_s}")
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
        spectrum_l = corr.relative_parity_spectrum(state, twos_ms)
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


if __name__ == "__main__":
    sys.exit(main())
