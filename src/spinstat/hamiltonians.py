"""Lattice Hamiltonians in second-quantized form, and their exact spectra.

The one-body part is nearest-neighbour hopping (the finite-difference kinetic
term, constant diagonal shift dropped) plus an on-site potential, diagonal in
spin: the one-body matrix is a site matrix times the spin identity, and its
eigenmodes are lifted the same way from one solve of the site matrix, each on
a single spin projection.  The two-body part couples site pairs through a
distance-keyed table with the literal ordering a+(xi) a+(xi') a(xi') a(xi)
and a 1/2 prefactor.

Spectra are exact at desk scale so degenerate multiplicities can be compared
exactly: H is split into blocks of fixed particle count per spin projection,
which these Hamiltonians conserve, and each block gets one dense Hermitian
solve, in real arithmetic when H is real.  These Hamiltonians are also
spin-independent, so they commute with the spin reversal (r, m_s) -> (r, -m_s),
which maps the block of counts (n_{+s}, ..., n_{-s}) onto the block of the
reversed counts: of each such pair only the first is solved, and the other
takes its eigenpairs through the reversal's Fock lift when its stored entries
are the mapped ones bit for bit.  The ideal-gas check replays the same
spectrum from nothing but occupancy rules over one-particle levels, which is
the executable form of the Bose-Einstein / Fermi-Dirac distinction.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

import numpy as np

from .csr import CSR, max_abs, max_abs_less_adjoint, max_abs_of_sum, row_gather
from .fockspace import (
    DimensionCapError,
    FockBasis,
    OperatorFamily,
    StateVector,
    _available_memory,
    build_basis,
    ladder_relation_residuals,
    matrix_of,
    sector_lift,
)
from .modes import Lattice, Mode, ModeSpace, SpinQuantum
from .opalgebra import LadderOp, OperatorExpr, OperatorTerm, destroy

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
        # site 0 (a ring's first site, a grid's corner) lies at every pairwise
        # distance from some other site, so it sees every distance of the lattice
        found = {lattice.site_distance(0, j) for j in range(lattice.n_sites)}
        return [d for d, _ in self.table if all(abs(d - x) > DISTANCE_TOL for x in found)]


def _site_matrix(spec: OneBodySpec, lattice: Lattice) -> np.ndarray:
    """Dense Hermitian one-particle matrix over sites: hopping plus potential."""
    n = lattice.n_sites
    h_site = np.zeros((n, n), dtype=np.complex128)
    for i, j in lattice.edges:
        h_site[i, j] = -spec.hop_t
        h_site[j, i] = -spec.hop_t
    h_site += np.diag(spec.site_potential(lattice))
    return h_site


def one_body_matrix(spec: OneBodySpec, lattice: Lattice, spin: SpinQuantum) -> np.ndarray:
    """Dense Hermitian one-particle matrix over modes (site block x spin identity)."""
    return np.kron(_site_matrix(spec, lattice), np.eye(spin.multiplicity, dtype=np.complex128))


def one_particle_spectrum(
    spec: OneBodySpec, lattice: Lattice, spin: SpinQuantum
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvector columns of the one-body matrix.

    The one-body matrix is the site matrix times the spin identity, so its
    eigenpairs are lifted the same way from one ``eigh`` of the site matrix:
    each site eigenvalue repeats once per projection, and eigenmode
    (q, m_s) is site eigenvector q on projection m_s alone, in the mode order
    (site-major, projection descending).  Columns are orthonormal under the
    mode-space measure (unit cell volume).
    """
    eps, phi = np.linalg.eigh(_site_matrix(spec, lattice))
    k = spin.multiplicity
    return np.repeat(eps, k), np.kron(phi, np.eye(k, dtype=np.complex128))


def mode_operators(space: ModeSpace, phi: np.ndarray, sigma: int) -> list[OperatorExpr]:
    """Annihilators of the eigenmode columns of ``phi``:
    c_q = sum_xi phi_q*(xi) a(xi), without the terms whose coefficient is 0,
    so an eigenmode of ``one_particle_spectrum`` has at most n_sites terms."""
    modes = space.modes
    return [
        OperatorExpr.sum_of(sigma, (c * destroy(modes[i], sigma) for i, c in enumerate(column) if c != 0))
        for column in np.conj(phi).T.tolist()
    ]


def mode_operator_check(space: ModeSpace, annihilators, sigma: int, n_max: int) -> float:
    """Worst matrix residual of the eigenmode ladder relations on sectors <= n_max.

    Checks [c_q, c+_q'] = delta_qq' and [c_q, c_q'] = [c+_q, c+_q'] = 0 in the
    graded sense, as products of the eigenmode ladder matrices on each sector.
    """
    return max(ladder_relation_residuals(space, annihilators, sigma, n_max))


def _term(coeff, factors) -> OperatorTerm:
    """coeff times the product of ``factors``, with the coefficient bits of
    ``coeff * (f_1 * ... * f_k)``: the factors' unit coefficient times coeff,
    a complex product that can change the sign of a zero part."""
    return OperatorTerm((1 + 0j) * complex(coeff), factors)


def _ladders(space: ModeSpace) -> tuple[list[LadderOp], list[LadderOp]]:
    """The creator and the annihilator of each mode, in mode order."""
    return [LadderOp(m, True) for m in space.modes], [LadderOp(m, False) for m in space.modes]


def one_body_expr(space: ModeSpace, h: np.ndarray, sigma: int) -> OperatorExpr:
    """sum_{xi xi'} h[xi, xi'] a+(xi) a(xi'), one term per nonzero entry in
    row-major order."""
    up, down = _ladders(space)
    rows, cols = np.nonzero(h)
    return OperatorExpr(sigma, tuple(
        _term(h[i, j], (up[i], down[j])) for i, j in zip(rows.tolist(), cols.tolist())
    ))


def interaction_expr(space: ModeSpace, spec2: TwoBodySpec, sigma: int) -> OperatorExpr:
    """(1/2) sum over ordered mode pairs of V(|r-r'|) a+ a+' a' a, literal
    ordering, without the pairs whose V is 0."""
    lattice, modes = space.lattice, space.modes
    up, down = _ladders(space)
    sites = range(lattice.n_sites)
    v = [[spec2.value(lattice.site_distance(a, b)) for b in sites] for a in sites]
    return OperatorExpr(sigma, tuple(
        _term(0.5 * v[mi.site][mj.site], (up[i], up[j], down[j], down[i]))
        for i, mi in enumerate(modes) for j, mj in enumerate(modes) if v[mi.site][mj.site] != 0.0
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
) -> OperatorFamily:
    """The full Hamiltonian matrix on one particle-number sector."""
    expr = many_body_expr(spec1, spec2, basis.space, basis.sigma)
    return matrix_of(expr, basis, basis)


@dataclass(frozen=True, eq=False)
class MirroredBlock:
    """The eigenvectors of a mirrored block, kept as a recipe: row q of its
    columns is row ``rows[q]`` of its partner's columns times ``signs[q]``."""

    partner: int
    rows: np.ndarray
    signs: np.ndarray

    def gather(self, partner_vectors: np.ndarray, columns=slice(None)) -> np.ndarray:
        """``columns`` (an index or a slice) of this block, from the partner's array."""
        out = partner_vectors[self.rows, columns]
        out.T[...] *= self.signs  # row q times signs[q], for one column or many
        return out


class BlockEigenvectors(Sequence):
    """The eigenvectors of a blocked solve, kept as one array of columns per
    solved block; a mirrored block keeps only its ``MirroredBlock`` recipe,
    and its columns are gathered from the partner's, signed, when they are
    read, so the sector holds one copy of each pair's vectors.  The k-th
    ``StateVector`` is built when it is read, by scattering its block column
    into a zero complex vector over the whole sector, so a caller that reads
    one vector never pays for the others."""

    def __init__(self, basis: FockBasis, blocks, vectors, order: np.ndarray) -> None:
        self._basis = basis
        self._blocks = tuple(blocks)  # ascending basis indices of each block
        self._vectors = tuple(vectors)  # eigh's columns of each solved block, or a MirroredBlock
        self._order = order  # k-th vector -> its column in block order
        self._starts = np.cumsum([0] + [len(idx) for idx in self._blocks])

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, k: int) -> StateVector:
        column = int(self._order[k])
        b = int(np.searchsorted(self._starts, column, side="right")) - 1
        vectors, column = self._vectors[b], column - self._starts[b]
        amplitudes = np.zeros(self._basis.dim, dtype=np.complex128)
        if isinstance(vectors, MirroredBlock):
            amplitudes[self._blocks[b]] = vectors.gather(self._vectors[vectors.partner], column)
        else:
            amplitudes[self._blocks[b]] = vectors[:, column]
        return StateVector(self._basis, amplitudes)


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Ascending eigenvalues with orthonormal eigenvectors on one sector.

    Every eigenvector lies inside one block of fixed particle count per spin
    projection (the whole sector when H mixes those counts), so a degenerate
    level spread over several blocks comes back as its block components, not
    as an arbitrary mixture of them.  ``eigenvectors`` keeps only the arrays
    of the solved blocks, and the recipe of each mirrored block, and builds
    each ``StateVector`` when it is read.
    Eigenvalues are merged with a stable sort: equal values keep block order,
    blocks ascending by count vector (the count at 2m_s = +2s first).  A
    mirrored block repeats its partner's eigenvalues bit for bit, so the
    partner's component of such a pair always comes first.  Values of a level
    split over blocks that are not mirrors can differ in the last bits and are
    ordered by those bits, so reruns return the same states on the same
    machine with the same BLAS and BLAS thread count; another thread count can
    change the state picked inside such a level, and the eigenvalue bits.
    """

    basis: FockBasis
    eigenvalues: np.ndarray
    eigenvectors: BlockEigenvectors
    residual: float

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])


_SOLVE_ARRAYS = 5  # the dense block, LAPACK's copy of it, its 2 n^2 workspace and eigh's output


def _projection_blocks(mat: CSR, basis: FockBasis) -> tuple[list[np.ndarray], list]:
    """Ascending basis indices of each block of equal particle count per spin
    projection, blocks in ascending count-vector order, and each block's count
    vector as a tuple.  One block holding the whole sector, labelled None, if
    any stored entry of H joins two different counts."""
    if basis.dim == 0:
        return [], []
    projections = np.arange(basis.space.spin.multiplicity)  # mode index = site * multiplicity + projection
    counts = (basis.modes[:, :, None] % len(projections) == projections).sum(axis=1)
    keys, labels = np.unique(counts, axis=0, return_inverse=True)
    labels = labels.ravel()
    if np.any(labels[mat.entry_rows()] != labels[mat.indices]):
        return [np.arange(basis.dim)], [None]
    order = np.argsort(labels, kind="stable")
    blocks = np.split(order, np.cumsum(np.bincount(labels))[:-1])
    return blocks, [tuple(key) for key in keys.tolist()]


def _mirror_partners(labels: list) -> dict[int, int]:
    """Each mirrored block -> its partner: the earlier block whose count vector
    is the mirrored block's reversed.  Palindromic count vectors have none."""
    if len(labels) < 2:
        return {}
    block_of = {label: b for b, label in enumerate(labels)}
    return {b: block_of[label[::-1]] for b, label in enumerate(labels) if block_of[label[::-1]] < b}


def _spin_reversal(basis: FockBasis, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each position of the gathered order: the position of its state's
    image under the Fock lift of (r, m_s) -> (r, -m_s), and the lift's sign
    (fermion reordering; +1 for bosons).  The lift is its own inverse, so the
    image of the image is the state itself, with the same sign."""
    space = basis.space
    reversed_modes = [space.index(Mode(m.site, -m.twos_ms)) for m in space.modes]
    lift = sector_lift(basis, reversed_modes, np.ones(space.n_modes))
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    return position[lift.image[order]], np.sign(lift.phase.real[order])


def _gathered(mat: CSR, order: np.ndarray, starts: np.ndarray, real: bool) -> CSR:
    """H's rows in the concatenated block ``order``, each row's entries in H's
    stored order and each column counted from the start of its block, which
    is the row's: rows starts[b] to starts[b + 1] are block b itself."""
    sizes = starts[1:] - starts[:-1]
    local = np.empty(len(order), dtype=mat.indices.dtype)
    local[order] = np.arange(len(order)) - np.repeat(starts[:-1], sizes)
    take, indptr = row_gather(mat, order)
    data = (mat.data.real if real else mat.data)[take]
    width = int(sizes.max(initial=0))
    return CSR(indptr, local[mat.indices[take]], data, (len(order), width))


def _is_mirror(partner: CSR, block: CSR, image: np.ndarray, sign: np.ndarray) -> bool:
    """Whether the stored entries of ``block`` equal, bit for bit, those of
    ``partner`` moved to rows and columns ``image`` and multiplied by the
    ``sign`` of both states."""
    n = block.shape[0]
    row, col = partner.entry_rows(), partner.indices
    moved_keys, moved = image[row] * n + image[col], partner.data * (sign[row] * sign[col])
    keys = block.entry_rows().astype(np.intp) * n + block.indices
    if len(keys) != len(moved_keys):
        return False
    a, b = np.argsort(moved_keys), np.argsort(keys)
    return np.array_equal(moved_keys[a], keys[b]) and np.array_equal(
        moved[a].view(np.int64), block.data[b].view(np.int64)
    )


def _worst_residual(sub: CSR, vectors: np.ndarray, values: np.ndarray) -> float:
    """max_k ||H_b v_k - lambda_k v_k||, from two dense temporaries and the
    rows the sparse product gathers, a run at a time, which hold at most
    about as many numbers as one of them (``CSR.__matmul__``).  The residual,
    whose entries are at most 2 max_k |lambda_k| for a Hermitian H_b, is
    divided by the power of two just above that largest |lambda_k| before
    its squares are taken.  The division is exact, so the norm keeps its
    bits (squares in the subnormal range aside) while its squares cannot
    overflow at any finite energy scale, and a NaN stays NaN."""
    exponent = int(np.frexp(np.abs(values).max(initial=0.0))[1])
    residual = sub @ vectors
    residual -= vectors * values
    residual *= np.ldexp(1.0, -exponent)
    squares = residual.real  # the array itself when it is real
    squares *= squares
    if np.iscomplexobj(residual):
        imag = residual.imag
        imag *= imag
        squares += imag
    return float(np.ldexp(np.sqrt(np.add.reduce(squares, axis=0)).max(), exponent))


def _worst_gram_entry(vectors: np.ndarray) -> float:
    """max |V^dagger V - 1|, taken in place on the Gram matrix."""
    gram = vectors.conj().T @ vectors  # conj() is the array itself when it is real
    gram.flat[::len(gram) + 1] -= 1
    np.abs(gram, out=gram)
    return float(gram.real.max())


def diagonalize(ham: OperatorFamily) -> SpectrumResult:
    """Exact eigendecomposition with a verified residual contract.

    H is split into blocks of fixed particle count per spin projection, which
    every Hamiltonian of ``build_many_body`` conserves (hopping is
    spin-diagonal, the interaction density-density); the split is checked on
    the stored entries, so any Hermitian matrix is solved exactly.  H's rows
    are gathered once into the concatenated block order (and its real part
    taken once, when every stored entry is real), so each block is a
    contiguous range of rows of that one gather: its entries are moved, not
    computed, and each dense block is the one a per-block gather would give.
    Each block gets a dense ``eigh``, except a mirrored block: one whose
    reversed count vector labels an earlier block, its partner.  When the
    mirrored block's stored entries equal the partner's moved by the
    spin-reversal lift and multiplied by the signs of both states, bit for
    bit, it takes the partner's eigenvalues and keeps only the recipe of its
    vectors (``MirroredBlock``): the signed, permuted partner columns are
    built when they are read.  Any other block, mirrored or not, is solved.
    Every block's residual ||H_b v - lambda v|| is taken with the sparse
    block, and its Gram check run, on the whole block with two dense
    temporaries and the sparse product's gathered rows, at most about one
    more (within the five arrays of the eigensolve); a mirrored block is checked on a gathered copy that is
    dropped before the next block.  Raises ``DimensionCapError`` when what
    is held would not fit in the memory the process can still take
    (``_available_memory``): the solved blocks' eigenvectors, five arrays the
    size of the largest block for its eigensolve (the dense block, LAPACK's
    copy of it, its workspace of two and eigh's output) and the gathered
    sparse copy.  A NaN anywhere fails every comparison.
    """
    if (
        len(ham) != 1
        or ham.domain.n_particles != ham.codomain.n_particles
        or ham.domain.sigma != ham.codomain.sigma
    ):
        raise ValueError("can only diagonalize a square same-sector matrix")
    mat = ham.matrix
    scale = max(1.0, max_abs(mat))
    if not max_abs_less_adjoint(mat) <= HERMITICITY_TOL * scale:  # a NaN fails too
        raise ValueError("matrix is not Hermitian to tolerance")
    real = not np.any(mat.data.imag)
    dim = ham.domain.dim
    blocks, labels = _projection_blocks(mat, ham.domain)
    order = np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.intp)
    starts = np.cumsum([0] + [len(idx) for idx in blocks])
    gathered = _gathered(mat, order, starts, real)
    views = [gathered.row_range(a, b, b - a) for a, b in zip(starts[:-1], starts[1:])]
    mirrors = {}
    partners = _mirror_partners(labels)
    if partners:
        image, sign = _spin_reversal(ham.domain, order)
        for b, p in partners.items():
            mine, theirs = slice(starts[b], starts[b + 1]), slice(starts[p], starts[p + 1])
            if _is_mirror(views[p], views[b], image[theirs] - starts[b], sign[theirs]):
                mirrors[b] = MirroredBlock(p, image[mine] - starts[p], sign[mine])
    largest = max((len(idx) for idx in blocks), default=0)
    solved = sum(len(idx) ** 2 for b, idx in enumerate(blocks) if b not in mirrors)
    held = gathered.data.nbytes + gathered.indices.nbytes + gathered.indptr.nbytes
    needed = (8 if real else 16) * (solved + _SOLVE_ARRAYS * largest * largest) + held
    free = _available_memory()
    if free is not None and needed > free:
        raise DimensionCapError(
            f"diagonalizing {dim} states (largest block {largest}) needs an estimated"
            f" {needed:,} bytes of dense storage; {free:,} bytes of memory are free"
        )
    values, vectors = [], []
    residual = 0.0
    for b, sub in enumerate(views):
        mirror = mirrors.get(b)
        if mirror is None:
            evals, evecs = np.linalg.eigh(sub.toarray())
            vectors.append(evecs)
        else:
            evals = values[mirror.partner]
            evecs = mirror.gather(vectors[mirror.partner])  # checked, then dropped
            vectors.append(mirror)
        values.append(evals)
        block_residual = _worst_residual(sub, evecs, evals)
        if not (block_residual <= SPECTRUM_TOL * scale and _worst_gram_entry(evecs) <= SPECTRUM_TOL):
            raise RuntimeError("eigensolver failed its residual contract")
        residual = max(residual, block_residual)
        del evecs
    evals = np.concatenate(values) if values else np.zeros(0)
    order = np.argsort(evals, kind="stable")
    eigenvectors = BlockEigenvectors(ham.domain, blocks, vectors, order)
    return SpectrumResult(ham.domain, evals[order], eigenvectors, residual)


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
    h0_identity_residual: float
    ground_energy: float
    occupancy_ground_energy: float


def ideal_gas_check(
    spec1: OneBodySpec,
    space: ModeSpace,
    n_particles: int,
    sigma: int,
    eps: np.ndarray,
    annihilators: list[OperatorExpr],
) -> IdealGasReport:
    """Compare exact diagonalization of the interaction-free Hamiltonian with
    the occupancy-rule multiset over the one-particle levels ``eps``, and
    verify the diagonal eigenmode form sum_q eps_q c+_q c_q, with c_q the
    ``annihilators`` of those levels, as a matrix identity on the same sector."""
    basis = build_basis(space, n_particles, sigma)
    ham = build_many_body(spec1, None, basis)
    spectrum = diagonalize(ham)
    expected = occupancy_spectrum(eps, n_particles, sigma)
    if expected.shape != spectrum.eigenvalues.shape:
        raise RuntimeError("occupancy multiset size differs from the sector dimension")
    deviation = float(np.max(np.abs(expected - spectrum.eigenvalues))) if expected.size else 0.0

    diag_expr = OperatorExpr.sum_of(
        sigma, (complex(eps[q]) * (cq.dagger() * cq) for q, cq in enumerate(annihilators))
    )
    h0_residual = max_abs_of_sum(matrix_of(diag_expr, basis, basis).matrix, ham.matrix, -1)

    return IdealGasReport(
        sigma=sigma,
        n_particles=n_particles,
        spectral_deviation=deviation,
        h0_identity_residual=float(h0_residual),
        ground_energy=float(spectrum.eigenvalues[0]) if expected.size else 0.0,
        occupancy_ground_energy=float(expected[0]) if expected.size else 0.0,
    )
