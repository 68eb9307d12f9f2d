"""spinstat's CSR record against scipy.sparse, bit for bit.

Every operation of ``spinstat.csr`` is compared with the scipy routine it
stands for, on hypothesis-drawn matrices (duplicates, explicit zeros, empty
rows, lone -0.0 entries) and on real families of the CLI-default sectors.
Drawn rows hold at most 16 entries: scipy sums duplicates after a per-row
``std::sort``, which is stable only up to 16 entries, so past that its sums
follow introsort's thresholds and no input order.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import sparse_max_abs, to_scipy
from spinstat import csr
from spinstat.fockspace import build_basis, matrix_family
from spinstat.modes import Lattice, ModeSpace, SpinQuantum
from spinstat.opalgebra import destroy
from spinstat.symmetry import SpinorRotation, _sector_unitary

RING4 = ModeSpace(Lattice.ring(4), SpinQuantum(1))
PARTS = (0.0, -0.0, 1.0, -1.0, 0.5, -2.25, 3.0, 1e-300, 0.1, -0.3)


def bits(m):
    return m.shape, m.indptr.tolist(), m.indices.tolist(), m.data.tobytes()


@st.composite
def coo_entries(draw, real=False, max_side=6):
    """(rows, cols, values, shape) with at most 16 entries per row."""
    shape = (draw(st.integers(1, max_side)), draw(st.integers(1, max_side)))
    cells = draw(st.lists(st.tuples(st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1)), max_size=30))
    per_row = {}
    cells = [c for c in cells if per_row.setdefault(c[0], []).append(c) or len(per_row[c[0]]) <= 16]
    part = st.sampled_from(PARTS)
    values = [complex(draw(part), 0.0 if real else draw(part)) for _ in cells]
    rows = np.array([r for r, _ in cells], dtype=np.int32)
    cols = np.array([c for _, c in cells], dtype=np.int32)
    return rows, cols, np.array(values, dtype=np.complex128).reshape(len(cells)), shape


def build(rows, cols, vals, shape, pieces=1):
    """spinstat's COO -> CSR of these entries, handed over in ``pieces`` runs."""
    keys = rows.astype(np.int64) * shape[1] + cols
    cuts = np.linspace(0, len(vals), pieces + 1).astype(int)[1:-1]
    keys, vals = np.split(keys, cuts), np.split(vals, cuts)
    m = csr.from_coo(keys, vals, shape)
    assert keys == [] and vals == []  # the pieces are the build's once handed over
    return m


def scipy_build(rows, cols, vals, shape):
    return sp.coo_matrix((vals, (rows, cols)), shape=shape, dtype=np.complex128).tocsr()


def entries(rows, cols, *values, shape=(2, 2)):
    return (np.array(rows, dtype=np.int32), np.array(cols, dtype=np.int32),
            np.array(values, dtype=np.complex128), shape)


@given(coo_entries())
@example(entries([], [], shape=(3, 2)))  # nothing stored
@example(entries([1], [0], complex(-0.0, -0.0)))  # a lone -0.0 keeps its sign
@example(entries([0, 0], [1, 1], -0.0, -0.0))  # a run of -0.0 alone sums to -0.0
@example(entries([0, 0], [1, 1], 1.5, -1.5))  # a sum that cancels stays stored
@example(entries([1, 0, 1, 1], [1, 0, 0, 1], 0.1, 0.0, 0.3, 0.2, shape=(3, 2)))  # row 2 empty, duplicates in order
def test_from_coo_is_scipys_conversion(coo):
    assert bits(build(*coo)) == bits(scipy_build(*coo))
    assert bits(build(*coo, pieces=3)) == bits(scipy_build(*coo))


def default_families(sigma):
    """The a(xi) families of the CLI default on N = 1..3 and their creators."""
    down = [destroy(m, sigma) for m in RING4.modes]
    lowering = [(build_basis(RING4, n, sigma), build_basis(RING4, n - 1, sigma)) for n in (1, 2, 3)]
    raising = [(build_basis(RING4, n - 1, sigma), build_basis(RING4, n, sigma)) for n in (1, 2, 3)]
    return matrix_family(down, lowering) + matrix_family([c.dagger() for c in down], raising)


@pytest.mark.parametrize("sigma", [1, -1])
def test_real_families_rebuild_as_scipy_builds_them(sigma):
    rng = np.random.default_rng(5)
    for family in default_families(sigma):
        m = family.matrix
        # every entry split in two, the halves shuffled: duplicates in a known order
        rows, cols = np.tile(m.entry_rows(), 2), np.tile(m.indices, 2)
        vals = np.concatenate([m.data * 0.25, m.data * 0.75])
        order = rng.permutation(len(vals))
        coo = rows[order], cols[order], vals[order], m.shape
        assert bits(build(*coo)) == bits(scipy_build(*coo))


def product_cells(a, b):
    """The stored cells of a @ b from spinstat's product: sorted keys and values."""
    left, right, keys = csr.product_terms(a, b)
    re, im = csr.term_values(a.data, b.data, left, right, csr.real_only(a.data) and csr.real_only(b.data))
    (ids,), ordered, starts = csr.cell_ids(keys)
    values = csr.cell_sums(ids, re, im, len(starts))
    return ordered.take(starts), values.astype(np.complex128)


def scipy_cells(product):
    coo = product.tocoo()
    keys = coo.row.astype(np.int64) * product.shape[1] + coo.col
    order = np.argsort(keys)
    return keys[order], coo.data[order]


@st.composite
def product_pairs(draw):
    real = draw(st.booleans())
    left = draw(coo_entries(real=real))
    right = list(draw(coo_entries(real=real or draw(st.booleans()))))
    right[0] = right[0] % left[3][1]  # rows of the right factor within the left's columns
    right[3] = (left[3][1], right[3][1])
    return build(*left), build(*right)


@settings(max_examples=80)
@given(product_pairs())
@example((build(*entries([0, 0], [0, 1], 2.0, 3.0)), build(*entries([0, 1], [1, 1], 0.5, -1.0 / 3.0))))
@example((build(*entries([0], [0], complex(1.0, -0.0))), build(*entries([0], [0], complex(-0.0, -0.0)))))
def test_products_are_scipys_smmp_sums(pair):
    # cells whose sum is zero are dropped by scipy's product and read 0 either way
    a, b = pair
    keys, values = product_cells(a, b)
    kept = values != 0
    want_keys, want = scipy_cells(to_scipy(a) @ to_scipy(b))
    assert keys[kept].tolist() == want_keys.tolist()
    assert values[kept].tobytes() == want.tobytes()


@pytest.mark.parametrize("sigma", [1, -1])
def test_products_of_real_families_are_scipys(sigma):
    families = default_families(sigma)
    down, up = families[:3], families[3:]
    for left, right in [(down[1], up[1]), (up[1], down[1]), (down[2], up[2]), (up[2], up[1]), (down[1], down[2])]:
        a = left.matrix  # every member side by side against the stack: one product of all pairs
        b = csr.swap_blocks(right.matrix, (len(right), 1))
        keys, values = product_cells(a, b)
        kept = values != 0
        want_keys, want = scipy_cells(to_scipy(a) @ to_scipy(b))
        assert keys[kept].tolist() == want_keys.tolist()
        assert values[kept].tobytes() == want.tobytes()


@given(coo_entries(), coo_entries(), st.sampled_from((1, -1)))
def test_sums_read_scipys_largest_entry(x, y, sign):
    shape = x[3]
    y = (y[0] % shape[0], y[1] % shape[1], y[2], shape)
    a, b = build(*x), build(*y)
    want = sparse_max_abs(to_scipy(a) + to_scipy(b) if sign > 0 else to_scipy(a) - to_scipy(b))
    assert csr.max_abs_of_sum(a, b, sign) == want
    # each row's entries in reverse order, as a relabelled conjugation may store them
    flip = np.lexsort((-np.arange(a.nnz), a.entry_rows()))
    flipped = dataclasses.replace(a, indices=a.indices[flip], data=a.data[flip])
    assert csr.max_abs_of_sum(flipped, b, -1) == sparse_max_abs(to_scipy(flipped) - to_scipy(b))


@given(coo_entries())
@example(entries([0, 0, 1], [0, 1, 0], 1.0, complex(2.0, 1.0), complex(2.0, -1.5)))  # the adjoint's cells: entry by entry
@example(entries([0, 1, 1], [1, 0, 0], complex(-0.0, 0.5), 1.0, -1.0))  # a cancelled cell against a lone one
def test_adjoint_difference_and_dense_form_are_scipys(coo):
    m = build(*coo)
    s = to_scipy(m)
    assert m.toarray().tobytes() == s.toarray().tobytes()
    if m.shape[0] == m.shape[1]:
        assert csr.max_abs_less_adjoint(m) == sparse_max_abs(s - s.conj().T)
    for r in range(m.shape[0]):
        for c in range(m.shape[1]):
            assert np.complex128(m.entry(r, c)).tobytes() == np.complex128(s[r, c]).tobytes()
    assert m.entry_rows().tolist() == s.tocoo().row.tolist()


@pytest.mark.parametrize("shape", [(3, 0), (0, 2), (0, 0)])
def test_matrices_without_rows_or_columns_are_scipys(shape):
    # an empty sigma=-1 sector (past the mode count) as a domain has no columns
    m = build(*entries([], [], shape=shape))
    s = to_scipy(m)
    coo = s.tocoo()
    assert m.keys().dtype == np.int64
    assert m.keys().tolist() == (coo.row.astype(np.int64) * shape[1] + coo.col).tolist()
    assert m.toarray().shape == shape and m.toarray().tobytes() == s.toarray().tobytes()
    for sign in (1, -1):
        assert csr.max_abs_of_sum(m, m, sign) == sparse_max_abs(s + s if sign > 0 else s - s)
    if shape[0] == shape[1]:
        assert csr.max_abs_less_adjoint(m) == sparse_max_abs(s - s.conj().T)


@given(coo_entries(max_side=5), st.integers(1, 4), st.data())
def test_row_ranges_gathers_and_block_swaps_are_scipys(coo, n_cols, data):
    m = build(*coo)
    s = to_scipy(m)
    start = data.draw(st.integers(0, m.shape[0]))
    stop = data.draw(st.integers(start, m.shape[0]))
    assert bits(m.row_range(start, stop)) == bits(s[start:stop])
    rows = np.array(data.draw(st.lists(st.integers(0, m.shape[0] - 1), max_size=8)), dtype=np.intp)
    take, indptr = csr.row_gather(m, rows)
    gathered = csr.CSR(indptr, m.indices[take], m.data[take], (len(rows), m.shape[1]))
    assert bits(gathered) == bits(s[rows])
    # k stacked blocks side by side: the column blocks scipy's hstack makes
    k = data.draw(st.integers(1, 3))
    stack = sp.vstack([s] * k, format="csr")
    mine = csr.swap_blocks(csr.CSR(stack.indptr, stack.indices, stack.data, stack.shape), (k, 1))
    assert bits(mine) == bits(sp.hstack([s] * k, format="csr"))
    dense = np.arange(m.shape[1] * n_cols, dtype=float).reshape(m.shape[1], n_cols)
    assert np.allclose(m @ dense, s @ dense, rtol=1e-15, atol=0)


@pytest.mark.parametrize("sigma", [1, -1])
def test_fock_lifts_are_scipys_csc_conversion(sigma):
    for n in (1, 2, 3):
        basis = build_basis(RING4, n, sigma)
        for steps in range(4):
            rot = SpinorRotation(RING4, steps)
            lift = rot.fock_lift(basis).matrix
            sector = _sector_unitary(rot, n, sigma)
            want = sp.csc_matrix((sector.phase, sector.image, np.arange(basis.dim + 1)), shape=(basis.dim,) * 2).tocsr()
            assert bits(lift) == bits(want)
