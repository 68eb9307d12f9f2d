"""Brute-force cross-check machinery shared by the test modules.

Everything here deliberately avoids the code paths it is used to verify:
the coordinate tensors come from the permutation-sum symmetrizer instead of
ladder operators, the DFT is an explicit double loop, and the first-quantized
Hamiltonian acts slot by slot on index tensors.
"""

from __future__ import annotations

import math

import numpy as np

from spinstat.fockspace import StateVector, symmetrizer_oracle
from spinstat.modes import ModeSpace


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


def random_state(basis, rng) -> StateVector:
    amps = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    amps /= np.linalg.norm(amps)
    return StateVector(basis, amps)


def state_coordinate_tensor(state: StateVector) -> np.ndarray:
    """Coordinate representation <xi_1..xi_N|state>, built the first-quantized
    way: each occupation state contributes a symmetrized one-hot product
    tensor with the multinomial normalization.  Never touches apply_ladder."""
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
