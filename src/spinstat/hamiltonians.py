"""Lattice Hamiltonians in second-quantized form, and their exact spectra.

The one-body part is nearest-neighbour hopping (the finite-difference kinetic
term, constant diagonal shift dropped) plus an on-site potential, diagonal in
spin.  The two-body part couples site pairs through a distance-keyed table
with the literal ordering a+(xi) a+(xi') a(xi') a(xi) and a 1/2 prefactor.

Spectra come from a dense Hermitian eigensolver at desk scale so degenerate
multiplicities can be compared exactly.  The ideal-gas check replays the same
spectrum from nothing but occupancy rules over one-particle levels, which is
the executable form of the Bose-Einstein / Fermi-Dirac distinction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

import numpy as np
import scipy.sparse as sp

from .fockspace import (
    FockBasis,
    OperatorMatrix,
    StateVector,
    build_basis,
    matrix_of,
    max_abs,
)
from .modes import Lattice, ModeSpace, SpinQuantum
from .opalgebra import OperatorExpr, create, destroy, normal_order, sigma_commutator

HERMITICITY_TOL = 1e-12
SPECTRUM_TOL = 1e-9
MODE_COMMUTATOR_TOL = 1e-10
DISTANCE_TOL = 1e-9


@dataclass(frozen=True)
class OneBodySpec:
    """Hopping scale and per-site potential (scalar broadcasts to all sites)."""

    hop_t: float = 1.0
    onsite_u: float | tuple[float, ...] = 0.0

    def site_potential(self, lattice: Lattice) -> np.ndarray:
        if isinstance(self.onsite_u, (int, float)):
            return np.full(lattice.n_sites, float(self.onsite_u))
        u = np.asarray(self.onsite_u, dtype=float)
        if u.shape != (lattice.n_sites,):
            raise ValueError(
                f"onsite_u has {u.size} entries, lattice has {lattice.n_sites} sites"
            )
        return u


@dataclass(frozen=True)
class TwoBodySpec:
    """Interaction strength keyed by inter-site distance; missing keys mean 0."""

    table: tuple[tuple[float, float], ...]

    @classmethod
    def from_dict(cls, mapping: dict) -> "TwoBodySpec":
        return cls(tuple(sorted((float(k), float(v)) for k, v in mapping.items())))

    @classmethod
    def contact(cls, v0: float) -> "TwoBodySpec":
        return cls(((0.0, float(v0)),))

    def value(self, distance: float) -> float:
        for d, v in self.table:
            if abs(d - distance) <= DISTANCE_TOL:
                return v
        return 0.0

    def unmatched_distances(self, lattice: Lattice) -> list[float]:
        """Table distances that no pair of lattice sites is apart by."""
        n = lattice.n_sites
        found = {lattice.site_distance(i, j) for i in range(n) for j in range(n)}
        return [d for d, _ in self.table if all(abs(d - x) > DISTANCE_TOL for x in found)]


def one_body_matrix(spec: OneBodySpec, lattice: Lattice, spin: SpinQuantum) -> np.ndarray:
    """Dense Hermitian one-particle matrix over modes (site block x spin identity)."""
    n = lattice.n_sites
    h_site = np.zeros((n, n), dtype=np.complex128)
    for i, j in lattice.edges:
        h_site[i, j] = -spec.hop_t
        h_site[j, i] = -spec.hop_t
    h_site += np.diag(spec.site_potential(lattice))
    return np.kron(h_site, np.eye(spin.multiplicity, dtype=np.complex128))


def build_one_particle(
    spec: OneBodySpec, lattice: Lattice, spin: SpinQuantum, sigma: int
) -> OperatorMatrix:
    """The one-body Hamiltonian as an operator matrix on the N=1 sector.

    The N=1 basis ordering coincides with the mode ordering, so the matrix
    entries are exactly the mode-space matrix elements.
    """
    space = ModeSpace(lattice, spin)
    basis = build_basis(space, 1, sigma)
    mat = sp.csr_matrix(one_body_matrix(spec, lattice, spin))
    return OperatorMatrix(basis, basis, mat)


def one_particle_spectrum(
    spec: OneBodySpec, lattice: Lattice, spin: SpinQuantum
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvector columns of the one-body matrix.

    Columns are orthonormal under the mode-space measure (unit cell volume).
    """
    eps, phi = np.linalg.eigh(one_body_matrix(spec, lattice, spin))
    return eps, phi


def mode_operators(
    spec: OneBodySpec, lattice: Lattice, spin: SpinQuantum, sigma: int
) -> list[OperatorExpr]:
    """Annihilators of the one-particle eigenmodes: c_q = sum_xi phi_q*(xi) a(xi)."""
    space = ModeSpace(lattice, spin)
    _, phi = one_particle_spectrum(spec, lattice, spin)
    return [
        OperatorExpr.sum_of(sigma, (
            complex(np.conj(phi[i, q])) * destroy(mode, sigma) for i, mode in enumerate(space.modes)
        ))
        for q in range(space.n_modes)
    ]


def mode_operator_check(
    spec: OneBodySpec,
    lattice: Lattice,
    spin: SpinQuantum,
    sigma: int,
    n_max: int = 3,
) -> float:
    """Worst matrix residual of the eigenmode ladder relations on sectors <= n_max.

    Checks [c_q, c+_q'] = delta_qq' and [c_q, c_q'] = [c+_q, c+_q'] = 0 in the
    graded sense, with every commutator represented on each particle sector.
    """
    space = ModeSpace(lattice, spin)
    cs = mode_operators(spec, lattice, spin, sigma)
    bases = [build_basis(space, n, sigma) for n in range(n_max + 1)]
    worst = 0.0
    for q, cq in enumerate(cs):
        for qp, cqp in enumerate(cs):
            pairs = [
                (normal_order(sigma_commutator(cq, cqp.dagger())), 1.0 if q == qp else 0.0, 0),
                (normal_order(sigma_commutator(cq, cqp)), 0.0, -2),
                (normal_order(sigma_commutator(cq.dagger(), cqp.dagger())), 0.0, +2),
            ]
            for expr, ident_coeff, shift in pairs:
                for basis in bases:
                    n_to = basis.n_particles + shift
                    if n_to < 0:
                        continue
                    target = bases[n_to] if n_to <= n_max else build_basis(space, n_to, sigma)
                    mat = matrix_of(expr, basis, target).matrix
                    if ident_coeff:
                        mat = mat - ident_coeff * sp.identity(
                            basis.dim, dtype=np.complex128, format="csr"
                        )
                    worst = max(worst, max_abs(mat))
    return worst


def one_body_expr(space: ModeSpace, h: np.ndarray, sigma: int) -> OperatorExpr:
    """sum_{xi xi'} h[xi, xi'] a+(xi) a(xi')."""
    modes = space.modes
    return OperatorExpr.sum_of(sigma, (
        complex(h[i, j]) * (create(modes[i], sigma) * destroy(modes[j], sigma))
        for i, j in zip(*np.nonzero(h))
    ))


def interaction_expr(space: ModeSpace, spec2: TwoBodySpec, sigma: int) -> OperatorExpr:
    """(1/2) sum over ordered mode pairs of V(|r-r'|) a+ a+' a' a, literal ordering."""
    lattice = space.lattice
    pairs = [(mi, mj, spec2.value(lattice.site_distance(mi.site, mj.site)))
             for mi in space.modes for mj in space.modes]
    return OperatorExpr.sum_of(sigma, (
        (0.5 * v) * (create(mi, sigma) * create(mj, sigma) * destroy(mj, sigma) * destroy(mi, sigma))
        for mi, mj, v in pairs if v != 0.0
    ))


def many_body_expr(
    spec1: OneBodySpec, spec2: TwoBodySpec | None, space: ModeSpace, sigma: int
) -> OperatorExpr:
    h = one_body_matrix(spec1, space.lattice, space.spin)
    expr = one_body_expr(space, h, sigma)
    if spec2 is not None:
        expr = expr + interaction_expr(space, spec2, sigma)
    return expr


def build_many_body(
    spec1: OneBodySpec, spec2: TwoBodySpec | None, basis: FockBasis
) -> OperatorMatrix:
    """The full Hamiltonian matrix on one particle-number sector."""
    expr = many_body_expr(spec1, spec2, basis.space, basis.sigma)
    return matrix_of(expr, basis, basis)


def number_operator(space: ModeSpace, sigma: int) -> OperatorExpr:
    return OperatorExpr.sum_of(
        sigma, (create(mode, sigma) * destroy(mode, sigma) for mode in space.modes)
    )


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Ascending eigenvalues with orthonormal eigenvectors on one sector."""

    basis: FockBasis
    eigenvalues: np.ndarray
    eigenvectors: tuple[StateVector, ...]
    residual: float

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])


def diagonalize(ham: OperatorMatrix) -> SpectrumResult:
    """Dense Hermitian eigendecomposition with a verified residual contract."""
    if (
        ham.domain.n_particles != ham.codomain.n_particles
        or ham.domain.sigma != ham.codomain.sigma
    ):
        raise ValueError("can only diagonalize a square same-sector matrix")
    dense = ham.matrix.toarray()
    scale = max(1.0, max_abs(dense))
    if max_abs(dense - dense.conj().T) > HERMITICITY_TOL * scale:
        raise ValueError("matrix is not Hermitian to tolerance")
    evals, evecs = np.linalg.eigh(dense)
    residual = 0.0
    if dense.size:
        residual = float(
            np.linalg.norm(dense @ evecs - evecs * evals[None, :], axis=0).max()
        )
        gram = evecs.conj().T @ evecs - np.eye(len(evals))
        if residual > SPECTRUM_TOL * scale or np.max(np.abs(gram)) > SPECTRUM_TOL:
            raise RuntimeError("eigensolver failed its residual contract")
    vectors = tuple(StateVector(ham.domain, evecs[:, k]) for k in range(len(evals)))
    return SpectrumResult(ham.domain, evals, vectors, residual)


def occupancy_spectrum(
    eps: np.ndarray, n_particles: int, sigma: int
) -> np.ndarray:
    """All energies sum_q n_q eps_q over occupations allowed by the grade:
    n_q in {0,1} for sigma=-1, n_q >= 0 for sigma=+1, with sum n_q = N."""
    chooser = combinations if sigma == -1 else combinations_with_replacement
    sums = [float(sum(eps[i] for i in picked)) for picked in chooser(range(len(eps)), n_particles)]
    return np.sort(np.asarray(sums))


@dataclass(frozen=True)
class IdealGasReport:
    sigma: int
    n_particles: int
    spectral_deviation: float
    spectra_match: bool
    h0_identity_residual: float
    ground_energy: float
    occupancy_ground_energy: float
    tolerance: float


def ideal_gas_check(
    spec1: OneBodySpec,
    lattice: Lattice,
    spin: SpinQuantum,
    n_particles: int,
    sigma: int,
    tol: float = SPECTRUM_TOL,
) -> IdealGasReport:
    """Compare exact diagonalization of the interaction-free Hamiltonian with
    the occupancy-rule multiset, and verify the diagonal eigenmode form
    sum_q eps_q c+_q c_q as a matrix identity on the same sector."""
    space = ModeSpace(lattice, spin)
    basis = build_basis(space, n_particles, sigma)
    ham = build_many_body(spec1, None, basis)
    spectrum = diagonalize(ham)
    expected = occupancy_spectrum(one_particle_spectrum(spec1, lattice, spin)[0], n_particles, sigma)
    if expected.shape != spectrum.eigenvalues.shape:
        raise RuntimeError("occupancy multiset size differs from the sector dimension")
    deviation = float(np.max(np.abs(expected - spectrum.eigenvalues))) if expected.size else 0.0

    eps, _ = one_particle_spectrum(spec1, lattice, spin)
    cs = mode_operators(spec1, lattice, spin, sigma)
    diag_expr = OperatorExpr.sum_of(
        sigma, (complex(eps[q]) * (cq.dagger() * cq) for q, cq in enumerate(cs))
    )
    h0_residual = max_abs(matrix_of(diag_expr, basis, basis).matrix - ham.matrix)

    return IdealGasReport(
        sigma=sigma,
        n_particles=n_particles,
        spectral_deviation=deviation,
        spectra_match=bool(deviation <= tol),
        h0_identity_residual=float(h0_residual),
        ground_energy=float(spectrum.eigenvalues[0]) if expected.size else 0.0,
        occupancy_ground_energy=float(expected[0]) if expected.size else 0.0,
        tolerance=tol,
    )


def number_conservation_residual(ham: OperatorMatrix) -> float:
    """Max entry of [H, N_total] on the Hamiltonian's sector (zero when H
    conserves particle number)."""
    basis = ham.domain
    n_mat = matrix_of(number_operator(basis.space, basis.sigma), basis, basis).matrix
    comm = ham.matrix @ n_mat - n_mat @ ham.matrix
    return max_abs(comm)
