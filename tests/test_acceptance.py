"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one summary line so a verbose run reads as a checklist.
Scales stay at desk size (modes <= 12 before spin, N <= 4, 2s <= 3) and each
criterion runs in well under a minute.  Where a criterion is a shipped
``spinstat verify`` suite, the gate runs that suite at a fixed config and pins
its tolerance here, so each check has one implementation.
"""

import json
from itertools import permutations, product

import numpy as np

from helpers import bracket_vector, pair_correlation, random_state, state_coordinate_tensor
from spinstat import cli
from spinstat.cli import RunConfig, main
from spinstat.correlations import relative_parity_spectrum
from spinstat.fockspace import (
    build_basis,
    every_bracket,
    max_abs,
    overlap_oracle,
    project_onto_symmetric,
)
from spinstat.hamiltonians import (
    OneBodySpec,
    TwoBodySpec,
    build_many_body,
    diagonalize,
    ideal_gas_check,
    mode_operator_check,
    mode_operators,
    one_particle_spectrum,
)
from spinstat.modes import Lattice, ModeSpace, SpinQuantum
from spinstat.symmetry import permutation_eigencheck

SEED = 42
TOL = 1e-12  # the gate's tolerance for every criterion that runs a suite


def report(line: str) -> None:
    print(f"ACCEPTANCE {line}")


def run_suite(name: str, **overrides):
    """Run the CLI suite ``name`` on ``RunConfig(**overrides)`` with the gate's
    seed; require it to pass at exactly TOL and return (worst residual, report)."""
    cfg = RunConfig(**overrides).validate()
    suite = cli.SUITES[name](cfg, np.random.default_rng(SEED))
    assert suite.passed, suite.residuals
    assert all(r["tol"] == TOL for r in suite.residuals), suite.residuals
    return max(r["value"] for r in suite.residuals), suite


def test_criterion_1_commutator_suite():
    """Matrix forms of the graded field-operator relations on ring(4), s=1/2."""
    # CLI defaults: ring:4, 2s=1, both grades, sectors 0..3
    worst, _ = run_suite("commutators")
    report(f"1 commutator suite: residual {worst:.2e} <= {TOL} PASS")


def test_criterion_2_orthonormality_oracle():
    """Bracket overlaps equal the permanent/determinant oracle on 6 modes."""
    tol = 1e-12
    space = ModeSpace(Lattice.ring(6), SpinQuantum(0))
    worst = 0.0
    for sigma in (1, -1):
        vectors = {}  # bracket states keyed by mode-index tuples
        for n in range(4):
            for coords in product(range(space.n_modes), repeat=n):
                vectors[coords] = bracket_vector(space, [space.mode_at(i) for i in coords], sigma).amplitudes
        for n in range(4):
            tuples = list(product(range(space.n_modes), repeat=n))
            bras, kets = zip(*product(tuples, repeat=2))
            for bra, ket, want in zip(bras, kets, overlap_oracle(bras, kets, sigma)):
                got = complex(np.vdot(vectors[bra], vectors[ket]))
                worst = max(worst, abs(got - want))
        # mixed particle numbers: the states lie in different sectors, and the
        # delta_{N'N} factor forces the oracle's exact zero
        for n_bra, n_ket in ((0, 1), (1, 2), (2, 3), (3, 1)):
            bra = bracket_vector(space, space.modes[:n_bra], sigma)
            ket = bracket_vector(space, space.modes[:n_ket], sigma)
            assert bra.basis.n_particles == n_bra != n_ket == ket.basis.n_particles
            assert overlap_oracle([range(n_bra)], [range(n_ket)], sigma)[0] == 0
    assert worst <= tol
    report(f"2 orthonormality: residual {worst:.2e} <= {tol} PASS")


def test_criterion_3_completeness_projector():
    """Bracket-resolution projector == first-quantized symmetrizer, idempotent."""
    # CLI defaults: ring:4, 2s=1, N=2, both grades, 100 random probes each
    worst, _ = run_suite("completeness")
    # the suite checks idempotence on one probe; the gate keeps it on 100 per grade
    space = ModeSpace(Lattice.ring(4), SpinQuantum(1))
    rng = np.random.default_rng(SEED)
    shape = (space.n_modes,) * 2
    worst_idem = 0.0
    for sigma in (1, -1):
        brackets = every_bracket(space, 2, sigma)
        for _ in range(100):
            probe = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            once = project_onto_symmetric(brackets, probe)
            again = project_onto_symmetric(brackets, once)
            worst_idem = max(worst_idem, max_abs(again - once))
    assert worst_idem <= TOL
    report(f"3 completeness: oracle residual {worst:.2e}, idempotence {worst_idem:.2e} <= {TOL} PASS")


def test_criterion_4_permutation_eigenvalues():
    """Bracket states transform with sigma^P for every permutation, N <= 4."""
    # ring:2, 2s=1 (4 modes), N = 2..4: random and fully degenerate coordinates
    worst, _ = run_suite("permutations", lattice={"kind": "ring", "M": 2}, n_max=4)
    # the suite draws no all-distinct pool; the gate keeps the cyclic one
    space = ModeSpace(Lattice.ring(2), SpinQuantum(1))
    for sigma in (1, -1):
        for n in (2, 3, 4):
            coords = tuple(space.mode_at(i % space.n_modes) for i in range(n))
            assert permutation_eigencheck(space, coords, permutations(range(n)), sigma) <= TOL
    report(f"4 permutation eigenvalues: residual {worst:.2e} <= {TOL} PASS")


def test_criterion_5_ideal_gas():
    """ED spectra equal occupancy multisets; eigenmode ladder relations hold."""
    spectral_tol, mode_tol = 1e-9, 1e-10
    cases = [  # lattice, spin, and whether the eigenmode ladder relations are checked there
        (Lattice.ring(4), SpinQuantum(1), True),
        (Lattice.grid2d(3), SpinQuantum(0), False),
    ]
    spec = OneBodySpec(hop_t=1.0)
    worst_spectral = worst_modes = 0.0
    for lattice, spin, ladders in cases:
        space = ModeSpace(lattice, spin)
        eps, phi = one_particle_spectrum(spec, lattice, spin)
        for sigma in (1, -1):
            cs = mode_operators(space, phi, sigma)
            for n in (1, 2, 3):
                rep = ideal_gas_check(spec, space, n, sigma, eps, cs)
                assert rep.spectral_deviation <= spectral_tol
                worst_spectral = max(
                    worst_spectral, rep.spectral_deviation, rep.h0_identity_residual
                )
            if ladders:
                worst_modes = max(worst_modes, mode_operator_check(space, cs, sigma, n_max=3))
    assert worst_spectral <= spectral_tol
    assert worst_modes <= mode_tol
    report(
        f"5 ideal gas: spectral residual {worst_spectral:.2e} <= {spectral_tol},"
        f" mode relations {worst_modes:.2e} <= {mode_tol} PASS"
    )


def test_criterion_6_rotation_covariance():
    """Field-transform element identity and pair covariance for all steps, 2s <= 3."""
    # ring:4, both grades, every rotation step, site and projection
    worst = max(
        run_suite("rotation", twos_s=twos_s, n_max=3)[0] for twos_s in (0, 1, 2, 3)
    )
    report(f"6 rotation covariance: element, pair and lift residual {worst:.2e} <= {TOL} PASS")


def test_criterion_7_spin_statistics_core():
    """Half-turn eigenvalue, origin vanishing, winding integers, verdicts."""
    ring8 = {"kind": "ring", "M": 8}
    verdicts = {}
    for twos_s in (0, 1, 2, 3):
        _, theorem = run_suite("theorem", lattice=ring8, twos_s=twos_s, n_max=2)
        verdicts[twos_s] = theorem.params["theorem_report"]["verdict_sigma"]
        # determinate half-turn eigenvalue at the probe site, same-point vanishing
        run_suite("pair-operator", lattice=ring8, twos_s=twos_s, n_max=2)
    assert verdicts == {0: 1, 1: -1, 2: 1, 3: -1}
    report(f"7 spin-statistics core: verdicts {verdicts} PASS")


def test_criterion_8_correlations():
    """Pair correlation equals the first-quantized oracle; parity selection rule."""
    tol = 1e-12
    rng = np.random.default_rng(SEED)
    # brute-force oracle comparison up to N = 4 on 4 modes
    space = ModeSpace(Lattice.ring(2), SpinQuantum(1))
    worst = 0.0
    for sigma in (1, -1):
        for n in (2, 3, 4):
            basis = build_basis(space, n, sigma)
            if basis.dim == 0:
                continue
            state = random_state(basis, rng)
            tensor = state_coordinate_tensor(state)
            table = tensor.reshape(space.n_modes, space.n_modes, -1).sum(axis=2)
            for i, x in enumerate(space.modes):
                for j, y in enumerate(space.modes):
                    got = pair_correlation(state, x, y)
                    worst = max(worst, abs(got - table[i, j]))
    assert worst <= tol

    # interacting ground states on ring(8) with a contact interaction
    bose = ModeSpace(Lattice.ring(8), SpinQuantum(0))
    basis = build_basis(bose, 2, 1)
    ground = diagonalize(
        build_many_body(OneBodySpec(hop_t=1.0), TwoBodySpec.contact(-2.0), basis)
    ).eigenvectors[0]
    spectrum = relative_parity_spectrum(ground, 0)
    assert max(abs(spectrum[l]) for l in range(1, 8, 2)) <= tol
    assert max(abs(spectrum[l]) for l in range(0, 8, 2)) > 1e-3

    fermi = ModeSpace(Lattice.ring(8), SpinQuantum(1))
    fbasis = build_basis(fermi, 2, -1)
    fground = diagonalize(
        build_many_body(OneBodySpec(hop_t=1.0), TwoBodySpec.contact(-2.0), fbasis)
    ).eigenvectors[0]
    fspectrum = relative_parity_spectrum(fground, 1)
    assert max(abs(fspectrum[l]) for l in range(0, 8, 2)) <= tol

    # nearest-neighbour attraction makes the fermionic rule non-vacuous
    spinless = ModeSpace(Lattice.ring(8), SpinQuantum(0))
    sbasis = build_basis(spinless, 2, -1)
    sground = diagonalize(
        build_many_body(OneBodySpec(hop_t=1.0), TwoBodySpec.from_dict({1: -2.0}), sbasis)
    ).eigenvectors[0]
    sspectrum = relative_parity_spectrum(sground, 0)
    assert max(abs(sspectrum[l]) for l in range(0, 8, 2)) <= tol
    assert max(abs(sspectrum[l]) for l in range(1, 8, 2)) > 1e-3
    report(f"8 correlations: oracle residual {worst:.2e} <= {tol}, selection rules PASS")


def test_criterion_9_cli_determinism(tmp_path):
    """Byte-identical reruns and the documented exit-code contract."""
    cfg_base = {
        "lattice": {"kind": "ring", "M": 4},
        "twos_s": 1,
        "sigma": "both",
        "N": 2,
        "n_max": 2,
        "seed": SEED,
        "suites": ["commutators", "completeness", "theorem"],
    }
    snapshots = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(dict(cfg_base, out=str(out))))
        assert main(["verify", "--config", str(path)]) == 0
        snapshots.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert snapshots[0] == snapshots[1]

    # exit-code contract on induced failures
    assert main([
        "verify", "--suite", "completeness", "--lattice", "ring:2", "--twos-s", "0",
        "--tol", "1e-300", "--out", str(tmp_path / "fail"),
    ]) == 1
    assert main([
        "verify", "--suite", "theorem", "--lattice", "ring:3", "--out", str(tmp_path / "odd"),
    ]) == 2
    assert main([
        "correlate", "--lattice", "ring:4", "--twos-s", "0", "--sigma", "-1",
        "-N", "2", "--state-index", "99", "--out", str(tmp_path / "idx"),
    ]) == 2
    report("9 CLI determinism and exit codes: PASS")
