"""Brute-force cross-check machinery shared by the test modules.

Everything here deliberately avoids the code paths it is used to verify:
the coordinate tensors come from the permutation-sum symmetrizer instead of
ladder operators, the DFT is an explicit double loop, and the first-quantized
Hamiltonian acts slot by slot on index tensors.  The two exceptions are
``bracket_vector``, which only lays a bracket state out as a dense vector
from the index and amplitude that ``bracket_amplitudes`` computes, and
``conjugated``, which multiplies by the rotation lifts that
``fockspace.sector_lift`` builds: it is the sparse triple product that the relabelled conjugations
are checked against bit for bit.  scipy.sparse is the reference for spinstat's
own CSR record: ``to_scipy`` copies a record into scipy's CSR bit for bit,
and ``sparse_max_abs`` reads the largest entry of a scipy matrix as spinstat
reads a record's.  ``identity_matrix`` and ``pair_correlation`` are
references no command needs: the sector identity as scipy CSR, and the
one-pair reading of the batched correlation that ``antipodal_profile`` uses.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import scipy.sparse as sp

from spinstat.correlations import _pair_correlations
from spinstat.csr import CSR
from spinstat.fockspace import StateVector, bracket_amplitudes, symmetrizer_oracle
from spinstat.modes import Mode, ModeSpace


def occ_apply(
    occ: tuple[int, ...], idx: int, dagger: bool, sigma: int
) -> tuple[tuple[int, ...], float] | None:
    """Apply one ladder operator to an occupation tuple: the scalar reference
    for the batched ladder kernel.

    Returns (new occupation, numeric factor) or None when the result
    vanishes.  sigma=+1: sqrt(n+1) / sqrt(n) factors; sigma=-1: occupancy
    0/1 with the parity sign over occupied modes before ``idx`` in the
    global mode order.
    """
    n = occ[idx]
    if sigma == -1:
        sign = -1.0 if sum(occ[:idx]) % 2 else 1.0
        if dagger:
            if n:
                return None
            return occ[:idx] + (1,) + occ[idx + 1:], sign
        if not n:
            return None
        return occ[:idx] + (0,) + occ[idx + 1:], sign
    if dagger:
        return occ[:idx] + (n + 1,) + occ[idx + 1:], math.sqrt(n + 1)
    if not n:
        return None
    return occ[:idx] + (n - 1,) + occ[idx + 1:], math.sqrt(n)


def occupations(basis) -> np.ndarray:
    """The (dim, n_modes) occupation matrix of a basis, counted from its
    creation lists: the dense reference of the states ``basis.modes`` lists."""
    occ = np.zeros((basis.dim, basis.space.n_modes), dtype=np.int64)
    np.add.at(occ, (np.arange(basis.dim)[:, None], basis.modes), 1)
    return occ


def bracket_vector(space: ModeSpace, coords, sigma: int) -> StateVector:
    """(1/sqrt(N!)) a+(xi_1) ... a+(xi_N) |0> over its sector: the multiple
    of one basis state that ``bracket_amplitudes`` gives, as a dense vector.
    Repeated coordinates give the zero vector for sigma=-1."""
    basis, index, amp = bracket_amplitudes(space, [[space.index(mode) for mode in coords]], sigma)
    amplitudes = np.zeros(basis.dim, dtype=np.complex128)
    if amp[0]:
        amplitudes[index[0]] = amp[0]
    return StateVector(basis, amplitudes)


def to_scipy(m: CSR) -> sp.csr_matrix:
    """A record as scipy's CSR, each array copied bit for bit."""
    return sp.csr_matrix((m.data.copy(), m.indices.copy(), m.indptr.copy()), shape=m.shape)


def sparse_max_abs(m) -> float:
    """Largest absolute stored entry of a scipy sparse matrix; 0.0 for none."""
    data = m.data[:m.nnz] if m.format in ("csr", "csc") else m.tocoo().data
    return float(np.abs(data).max()) if data.size else 0.0


def conjugated(rot, family, member: int) -> sp.csr_matrix:
    """U_codomain @ M @ U_domain^dagger for the rotation's sector lifts, M the
    member ``member`` of an ``OperatorFamily``: two scipy sparse products."""
    u_co, u_dom_adjoint = _lift(rot, family.codomain, False), _lift(rot, family.domain, True)
    return (u_co @ to_scipy(family.rows(member, member + 1)) @ u_dom_adjoint).tocsr()


@functools.lru_cache(maxsize=4)
def _lift(rot, basis, adjoint: bool) -> sp.csr_matrix:
    """U (or U+) of ``rot`` on ``basis``, as canonical scipy CSR, kept across
    the members of a family."""
    u = to_scipy(rot.fock_lift(basis).matrix)
    return u.conj().T.tocsr() if adjoint else u


def identity_matrix(basis) -> sp.csr_matrix:
    """The identity of a sector as scipy CSR."""
    return sp.identity(basis.dim, dtype=np.complex128, format="csr")


def pair_correlation(state: StateVector, xi1: Mode, xi2: Mode) -> complex:
    """Sum the wave function over all coordinates after the first two.

    For N=2 this is the wave function itself; swapping the two arguments
    multiplies the result by the statistics grade.
    """
    return complex(_pair_correlations(state, [(xi1, xi2)])[0])


def random_state(basis, rng) -> StateVector:
    amps = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    amps /= np.linalg.norm(amps)
    return StateVector(basis, amps)


def state_coordinate_tensor(state: StateVector) -> np.ndarray:
    """Coordinate representation <xi_1..xi_N|state>, built the first-quantized
    way: each occupation state contributes a symmetrized one-hot product
    tensor with the multinomial normalization.  Never touches the ladder kernel."""
    basis = state.basis
    m = basis.space.n_modes
    n = basis.n_particles
    out = np.zeros((m,) * n, dtype=np.complex128)
    for row in range(basis.dim):
        amp = state.amplitudes[row]
        if amp == 0:
            continue
        occ = basis.occ_tuple(row)
        slots = tuple(i for i, c in enumerate(occ) for _ in range(c))
        onehot = np.zeros((m,) * n, dtype=np.complex128)
        onehot[slots] = 1.0
        norm = math.sqrt(
            math.factorial(n) / math.prod(math.factorial(c) for c in occ)
        )
        out += amp * norm * symmetrizer_oracle(onehot, basis.sigma)
    return out


def dft_oracle(values) -> np.ndarray:
    """Plain double-loop discrete Fourier transform."""
    values = np.asarray(values, dtype=np.complex128)
    m = len(values)
    out = np.zeros(m, dtype=np.complex128)
    for l in range(m):
        acc = 0j
        for k in range(m):
            acc += values[k] * np.exp(-2j * np.pi * l * k / m)
        out[l] = acc
    return out


def fq_hamiltonian_apply(space: ModeSpace, h_mode: np.ndarray, v_spec, tensor) -> np.ndarray:
    """First-quantized Hamiltonian action on a coordinate tensor: the one-body
    matrix applied on every slot plus the pairwise interaction diagonal."""
    t = np.asarray(tensor, dtype=np.complex128)
    n = t.ndim
    out = np.zeros_like(t)
    for j in range(n):
        out += np.moveaxis(np.tensordot(h_mode, t, axes=(1, j)), 0, j)
    if v_spec is not None:
        m = space.n_modes
        lattice = space.lattice
        vmat = np.zeros((m, m))
        for i in range(m):
            for k in range(m):
                vmat[i, k] = v_spec.value(
                    lattice.site_distance(space.mode_at(i).site, space.mode_at(k).site)
                )
        diag = np.zeros(t.shape)
        for idx in np.ndindex(*t.shape):
            acc = 0.0
            for a in range(n):
                for b in range(a + 1, n):
                    acc += vmat[idx[a], idx[b]]
            diag[idx] = acc
        out += diag * t
    return out


def naive_normal_order(expr) -> dict:
    """Canonicalization oracle: rightmost-first rewriting with selection-sorted
    blocks, sharing no ordering decisions with the library implementation.
    Returns a dict mapping factor tuples to coefficients."""
    sigma = expr.sigma
    table: dict = {}

    def emit(key, coeff):
        table[key] = table.get(key, 0j) + coeff

    def sort_block(block, coeff):
        blk = list(block)
        result = []
        while blk:
            j = min(range(len(blk)), key=lambda k: blk[k].mode.sort_key)
            coeff *= float(sigma) ** j
            result.append(blk.pop(j))
        if sigma == -1:
            for a, b in zip(result, result[1:]):
                if a.mode == b.mode:
                    return None, 0j
        return result, coeff

    def rec(coeff, ops):
        for i in range(len(ops) - 2, -1, -1):
            a, b = ops[i], ops[i + 1]
            if (not a.dagger) and b.dagger:
                rec(coeff * sigma, ops[:i] + [b, a] + ops[i + 2:])
                if a.mode == b.mode:
                    rec(coeff, ops[:i] + ops[i + 2:])
                return
        dag, coeff2 = sort_block([o for o in ops if o.dagger], coeff)
        if dag is None:
            return
        ann, coeff3 = sort_block([o for o in ops if not o.dagger], coeff2)
        if ann is None:
            return
        emit(tuple(dag) + tuple(ann), coeff3)

    for term in expr.terms:
        rec(term.coeff, list(term.factors))
    return {k: v for k, v in table.items() if v != 0}


def break_boson_same_point(monkeypatch) -> None:
    """Make every sigma = +1 pair record read a vanishing same-point pair, as a
    broken kernel would: both grades then look consistent and no verdict is
    reached."""
    from spinstat import cli, symmetry

    original = symmetry.pair_checks

    def broken(space, sigma, n_max=3):
        checks = original(space, sigma, n_max)
        if sigma == 1:
            checks = dataclasses.replace(checks, same_point=dict.fromkeys(checks.same_point, 0.0))
        return checks

    monkeypatch.setattr(symmetry, "pair_checks", broken)
    monkeypatch.setattr(cli, "pair_checks", broken)
