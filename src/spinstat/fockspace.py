"""Concrete Fock-space machinery.

Occupation bases per statistics grade, exact ladder-operator action with
bosonic sqrt factors or fermionic parity signs, sparse matrices of symbolic
operator expressions, product-of-creation bracket states, and the
first-quantized cross-checks (permanents, determinants, symmetrizers) that
everything else is verified against.

All ladder action goes through one kernel, ``_apply_strings``, which
applies ladder strings to a batch of occupation rows at once; operator
matrices, single ladder steps, rotation lifts and bracket states are built on
it.  ``FockBasis.rank`` inverts the basis order (combinations for sigma=-1,
multisets for sigma=+1, in lexicographic order) with the combinatorial number
system, the usual exact-diagonalization indexing.  The permanent, determinant
and symmetrizer oracles stay brute force and separate on purpose: they check
the kernel instead of repeating it.

Bases and matrices are immutable once built; functions are pure, so matrix
assembly can be partitioned by column with no shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, combinations_with_replacement, permutations

import numpy as np
import scipy.sparse as sp

from .modes import ModeSpace, kron_delta
from .opalgebra import LadderOp, OperatorExpr, check_sigma

DEFAULT_DIMENSION_CAP = 2_000_000
_KERNEL_ROWS = 4096  # rows per kernel call in matrix_of, which bounds its working arrays


class DimensionCapError(ValueError):
    """A requested sector exceeds the configured basis-size cap."""


def sector_dimension(n_modes: int, n_particles: int, sigma: int) -> int:
    """Closed-form sector size: C(M, N) for sigma=-1, C(M+N-1, N) for sigma=+1."""
    check_sigma(sigma)
    if n_particles < 0:
        raise ValueError("particle number must be >= 0")
    if sigma == -1:
        return math.comb(n_modes, n_particles) if n_particles <= n_modes else 0
    return math.comb(n_modes + n_particles - 1, n_particles)


def _particle_modes(rows: np.ndarray, n_particles: int) -> np.ndarray:
    """Each row's occupied modes, ascending and repeated by occupancy: (rows, N)."""
    return np.repeat(np.nonzero(rows)[1], rows[rows > 0]).reshape(len(rows), n_particles)


def _rank_table(n_modes: int, n_particles: int, sigma: int) -> np.ndarray:
    """Entry [s, j]: C(top - e, N - s) for particle s in mode j, e = j + s for
    sigma=+1 and e = j for sigma=-1; a state with these strictly increasing
    e_s over 0..top has sum_s of them states after it in the basis order.
    Fermion slots no state reaches hold 0, so every entry fits in int64."""
    m, n = n_modes, n_particles
    top = m - 1 if sigma == -1 else m + n - 2
    table = np.zeros((n, m), dtype=np.int64)
    for s in range(n):
        for j in range(m):
            if sigma == 1:
                table[s, j] = math.comb(top - j - s, n - s)
            elif s <= j <= m - n + s:
                table[s, j] = math.comb(top - j, n - s)
    return table


@dataclass(frozen=True, eq=False)
class FockBasis:
    """Every occupation vector of one (N, sigma) sector, in a fixed order.

    States are enumerated as combinations (sigma=-1) or multisets (sigma=+1)
    of occupied mode indices in ascending mode order, so the N=1 sector
    ordering coincides with the mode ordering.
    """

    space: ModeSpace
    sigma: int
    n_particles: int
    occupations: np.ndarray  # (dim, n_modes) small ints
    rank_table: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

    def occ_tuple(self, i: int) -> tuple[int, ...]:
        return tuple(int(x) for x in self.occupations[i])

    def rank(self, rows: np.ndarray) -> np.ndarray:
        """Sector index of each occupation row of this sector."""
        slots = _particle_modes(np.asarray(rows), self.n_particles)
        after = self.rank_table[np.arange(self.n_particles), slots].sum(axis=1)
        return self.dim - 1 - after


@lru_cache(maxsize=None)
def _build_basis_cached(space: ModeSpace, n_particles: int, sigma: int) -> FockBasis:
    m = space.n_modes
    dim = sector_dimension(m, n_particles, sigma)
    chooser = combinations if sigma == -1 else combinations_with_replacement
    picked = np.fromiter(
        chain.from_iterable(chooser(range(m), n_particles)), dtype=np.intp, count=dim * n_particles
    ).reshape(dim, n_particles)
    occs = np.zeros((dim, m), dtype=np.int8 if n_particles < 128 else np.int64)
    np.add.at(occs, (np.arange(dim)[:, None], picked), 1)
    occs.setflags(write=False)
    return FockBasis(space, sigma, n_particles, occs, _rank_table(m, n_particles, sigma))


def build_basis(
    space: ModeSpace, n_particles: int, sigma: int, cap: int = DEFAULT_DIMENSION_CAP
) -> FockBasis:
    """Enumerate the (N, sigma) sector; refuses to build past ``cap`` states."""
    dim = sector_dimension(space.n_modes, n_particles, check_sigma(sigma))
    if dim > cap:
        raise DimensionCapError(
            f"sector N={n_particles}, sigma={sigma:+d} has {dim} states, over the cap {cap}"
        )
    return _build_basis_cached(space, n_particles, sigma)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes over one FockBasis."""

    basis: FockBasis
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.basis.dim,):
            raise ValueError(f"amplitude shape {amps.shape} != basis dim {self.basis.dim}")
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def dot(self, other: "StateVector") -> complex:
        """<self|other>, conjugating self."""
        if other.basis is not self.basis and (
            other.basis.space != self.basis.space
            or other.basis.sigma != self.basis.sigma
            or other.basis.n_particles != self.basis.n_particles
        ):
            raise ValueError("states live in different sectors")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def zero_state(basis: FockBasis) -> StateVector:
    return StateVector(basis, np.zeros(basis.dim, dtype=np.complex128))


def _apply_strings(occ: np.ndarray, modes, daggers, sigma: int):
    """Apply one ladder string to each occupation row, rightmost factor first.

    Factor f of row r creates (``daggers[r, f]``) or annihilates a particle
    in mode ``modes[r, f]``; an (L,) ``modes`` or ``daggers`` is shared by
    all rows.  sigma=+1 gives sqrt(n+1) / sqrt(n) factors; sigma=-1 allows
    occupancy 0/1 and gives the parity sign of the occupied modes before the
    target.  Returns (new rows, real amplitudes, alive); a row whose string
    vanishes has alive False and amplitude 0.
    """
    k, m = occ.shape
    modes = np.broadcast_to(modes, (k, np.shape(modes)[-1]))
    daggers = np.broadcast_to(daggers, modes.shape)
    top = occ.max(initial=0) + modes.shape[1]
    work = occ.astype(np.int8 if top < 128 else np.int64)
    amp = np.ones(k)
    alive = np.ones(k, dtype=bool)
    rows = np.arange(k)
    for f in reversed(range(modes.shape[1])):
        idx, dag = modes[:, f], daggers[:, f]
        n = work[rows, idx].astype(np.float64)
        if sigma == -1:
            alive &= n != dag  # a creator needs an empty mode, an annihilator a filled one
            below = np.arange(m) < idx[:, None]
            amp *= 1 - 2 * ((work * below).sum(axis=1) & 1)
        else:
            alive &= dag | (n > 0)
            amp *= np.sqrt(n + dag)
        work[rows, idx] += np.where(alive, 2 * dag - 1, 0)
    amp[~alive] = 0.0
    return work, amp, alive


def apply_ladder(state: StateVector, op: LadderOp) -> StateVector:
    """Exact ladder action, landing in the N+1 or N-1 sector."""
    basis = state.basis
    n = basis.n_particles
    if not op.dagger and n == 0:
        raise ValueError("cannot annihilate on the vacuum sector")
    target = build_basis(basis.space, n + (1 if op.dagger else -1), basis.sigma)
    source = np.nonzero(state.amplitudes)[0]
    occ, amp, alive = _apply_strings(
        basis.occupations[source], [basis.space.index(op.mode)], [op.dagger], basis.sigma
    )
    out = np.zeros(target.dim, dtype=np.complex128)
    out[target.rank(occ[alive])] = (state.amplitudes[source] * amp)[alive]
    return StateVector(target, out)


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Sparse matrix of an operator expression between two sectors."""

    domain: FockBasis
    codomain: FockBasis
    matrix: sp.csr_matrix

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def adjoint(self) -> "OperatorMatrix":
        return OperatorMatrix(self.codomain, self.domain, self.matrix.conj().T.tocsr())


def max_abs(matrix: sp.spmatrix | np.ndarray) -> float:
    """Largest absolute entry; 0.0 for an empty matrix."""
    if sp.issparse(matrix):
        data = matrix.tocoo().data
        return float(np.abs(data).max()) if data.size else 0.0
    arr = np.asarray(matrix)
    return float(np.abs(arr).max()) if arr.size else 0.0


def identity_matrix(basis: FockBasis) -> OperatorMatrix:
    return OperatorMatrix(basis, basis, sp.identity(basis.dim, dtype=np.complex128, format="csr"))


def matrix_of(expr: OperatorExpr, domain: FockBasis, codomain: FockBasis) -> OperatorMatrix:
    """Column j = expr applied to basis state j of the domain sector.

    The expression must change particle number uniformly across terms by
    exactly codomain.N - domain.N.
    """
    if domain.space != codomain.space:
        raise ValueError("domain and codomain live on different mode spaces")
    if expr.sigma != domain.sigma or domain.sigma != codomain.sigma:
        raise ValueError("statistics grade mismatch between expression and bases")
    shape = (codomain.dim, domain.dim)
    if not expr.terms:
        return OperatorMatrix(domain, codomain, sp.csr_matrix(shape, dtype=np.complex128))
    required = codomain.n_particles - domain.n_particles
    shift = expr.particle_shift()
    if shift is None:
        raise ValueError("expression changes particle number non-uniformly")
    if shift != required:
        raise ValueError(
            f"expression shifts particle number by {shift}, sectors differ by {required}"
        )
    dim = domain.dim
    by_length: dict[int, list] = {}
    for term in expr.terms:
        by_length.setdefault(len(term.factors), []).append(term)
    per_call = max(1, _KERNEL_ROWS // max(dim, 1))
    batches = [(n, ts[i:i + per_call]) for n, ts in by_length.items() for i in range(0, len(ts), per_call)]
    rows, cols, vals = [], [], []
    for length, terms in batches:  # one kernel row per (term, column), term-major
        factors = [f for t in terms for f in t.factors]
        modes = np.array([domain.space.index(f.mode) for f in factors], dtype=np.intp)
        daggers = np.array([f.dagger for f in factors], dtype=bool)
        occ, amp, alive = _apply_strings(
            np.tile(domain.occupations, (len(terms), 1)),
            np.repeat(modes.reshape(len(terms), length), dim, axis=0),
            np.repeat(daggers.reshape(len(terms), length), dim, axis=0),
            domain.sigma,
        )
        rows.append(codomain.rank(occ[alive]))
        cols.append(np.tile(np.arange(dim), len(terms))[alive])
        vals.append((np.repeat([t.coeff for t in terms], dim) * amp)[alive])
    entries = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    coo = sp.coo_matrix(entries, shape=shape, dtype=np.complex128)
    return OperatorMatrix(domain, codomain, coo.tocsr())


# -- bracket states and overlaps --------------------------------------------


def index_tuples(n_modes: int, n_particles: int) -> np.ndarray:
    """Every tuple of N mode indices, one per row, in row-major order."""
    return np.indices((n_modes,) * n_particles).reshape(n_particles, n_modes**n_particles).T


def bracket_amplitudes(space: ModeSpace, mode_idx, sigma: int):
    """Bracket states of many coordinate tuples (rows of N mode indices) at
    once.  Each is a multiple of one basis state: returns the sector basis and,
    per row, that state's index and the amplitude (0 where creations clash)."""
    mode_idx = np.asarray(mode_idx, dtype=np.intp)
    rows, n = mode_idx.shape
    basis = build_basis(space, n, check_sigma(sigma))
    occ, amp, alive = _apply_strings(
        np.zeros((rows, space.n_modes), dtype=np.int8), mode_idx, True, sigma
    )
    index = np.zeros(rows, dtype=np.intp)
    index[alive] = basis.rank(occ[alive])
    return basis, index, amp / math.sqrt(math.factorial(n))


def bracket_state(space: ModeSpace, coords, sigma: int) -> StateVector:
    """(1/sqrt(N!)) a+(xi_1) ... a+(xi_N) |0>, evaluated exactly.

    Duplicate coordinates are allowed; for sigma=-1 they produce the zero
    vector (exclusion).  Swapping two coordinates multiplies the state by
    sigma.
    """
    basis, index, amp = bracket_amplitudes(space, [[space.index(mode) for mode in coords]], sigma)
    out = np.zeros(basis.dim, dtype=np.complex128)
    out[index[amp != 0]] = amp[amp != 0]
    return StateVector(basis, out)


def overlap(space: ModeSpace, bra_coords, ket_coords, sigma: int) -> complex:
    """Inner product of two bracket states; 0 when particle numbers differ."""
    bra_coords, ket_coords = tuple(bra_coords), tuple(ket_coords)
    if len(bra_coords) != len(ket_coords):
        return 0j
    return bracket_state(space, bra_coords, sigma).dot(
        bracket_state(space, ket_coords, sigma)
    )


def perm_parity(perm) -> int:
    """+1 for an even permutation of 0..n-1, -1 for an odd one."""
    perm = tuple(perm)
    seen = [False] * len(perm)
    parity = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            parity = -parity
    return parity


def permanent(mat: np.ndarray) -> complex:
    """Permanent by direct permutation sum (deliberately brute force)."""
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError("permanent needs a square matrix")
    total = 0j
    for perm in permutations(range(n)):
        prod = 1.0 + 0j
        for row, col in enumerate(perm):
            prod *= mat[row, col]
        total += prod
    return total


def determinant(mat: np.ndarray) -> complex:
    """Determinant by direct permutation expansion (deliberately brute force)."""
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError("determinant needs a square matrix")
    total = 0j
    for perm in permutations(range(n)):
        prod = complex(perm_parity(perm))
        for row, col in enumerate(perm):
            prod *= mat[row, col]
        total += prod
    return total


def overlap_oracle(bra_coords, ket_coords, sigma: int) -> complex:
    """First-quantized overlap: delta_{N'N}/N! times the sigma-weighted
    permutation sum, i.e. a permanent (sigma=+1) or determinant (sigma=-1)
    of the coordinate delta matrix."""
    check_sigma(sigma)
    bra_coords, ket_coords = tuple(bra_coords), tuple(ket_coords)
    if len(bra_coords) != len(ket_coords):
        return 0j
    n = len(bra_coords)
    if n == 0:
        return 1.0 + 0j
    deltas = np.array(
        [[kron_delta(b, k) for k in ket_coords] for b in bra_coords],
        dtype=np.complex128,
    )
    summed = permanent(deltas) if sigma == 1 else determinant(deltas)
    return summed / math.factorial(n)


# -- first-quantized symmetrizer and completeness ----------------------------


def symmetrizer_oracle(tensor: np.ndarray, sigma: int) -> np.ndarray:
    """(1/N!) sum over permutations of sigma^P times the permuted tensor.

    This is the projector onto the sigma-symmetric subspace, used as the
    independent oracle for the bracket-state completeness relation.
    """
    check_sigma(sigma)
    tensor = np.asarray(tensor)
    n = tensor.ndim
    out = np.zeros_like(tensor, dtype=np.complex128)
    for perm in permutations(range(n)):
        sign = 1.0 if sigma == 1 or perm_parity(perm) == 1 else -1.0
        out += sign * np.transpose(tensor, axes=perm)
    return out / math.factorial(n)


@lru_cache(maxsize=None)
def bracket_matrix(space: ModeSpace, n_particles: int, sigma: int) -> np.ndarray:
    """Dense (sector dim) x (n_modes**N) matrix whose columns are the bracket
    states for every coordinate tuple, in row-major tuple order."""
    m = space.n_modes
    n_tuples = m**n_particles
    if n_tuples > 500_000:
        raise DimensionCapError(f"{n_tuples} coordinate tuples is past desk scale")
    basis, index, amp = bracket_amplitudes(space, index_tuples(m, n_particles), sigma)
    out = np.zeros((basis.dim, n_tuples), dtype=np.complex128)
    live = amp != 0
    out[index[live], np.nonzero(live)[0]] = amp[live]
    return out


def project_onto_symmetric(
    space: ModeSpace, n_particles: int, sigma: int, tensor: np.ndarray
) -> np.ndarray:
    """Apply the resolution sum |xi_1..xi_N><xi_1..xi_N| (one measure-weighted
    coordinate sum per slot) to a first-quantized probe tensor."""
    tensor = np.asarray(tensor, dtype=np.complex128)
    m = space.n_modes
    if tensor.shape != (m,) * n_particles:
        raise ValueError(f"probe must have shape {(m,) * n_particles}")
    b = bracket_matrix(space, n_particles, sigma)
    weight = space.lattice.cell_volume**n_particles
    projected = b.conj().T @ (b @ (tensor.reshape(-1) * weight))
    return projected.reshape(tensor.shape)


def completeness_check(
    space: ModeSpace, n_particles: int, sigma: int, probe: np.ndarray
) -> float:
    """Max-norm residual between the bracket-state projector and the
    first-quantized symmetrizer applied to the same probe."""
    projected = project_onto_symmetric(space, n_particles, sigma, probe)
    oracle = symmetrizer_oracle(np.asarray(probe, dtype=np.complex128), sigma)
    return max_abs(projected - oracle)
