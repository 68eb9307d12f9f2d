"""Compressed sparse row matrices, and the few operations spinstat makes on them.

A ``CSR`` is a frozen record of four things: ``indptr``, ``indices``,
``data`` and ``shape``.  Row i's entries are positions indptr[i] to
indptr[i + 1] of ``indices`` (their columns) and ``data`` (their values), in
stored order; ``nnz`` is the number of stored entries.  Every operation is
plain numpy, and each gives the bits of the textbook sparse routine it
stands for:

- ``from_coo`` (COO -> CSR) orders the entries by row and then by column,
  stably, and sums the entries of one cell in input order, from the first:
  a lone entry keeps its own bits (a -0.0 too), and a sum that cancels
  stays an explicit zero.
- Products are expanded in the term order of the SMMP algorithm (sparse
  matrix multiplication package, Bank & Douglas, Adv. Comput. Math. 1, 63
  (1993)): row i of A, its entries in stored order, each with row k of B in
  stored order (``product_terms``, as positions into A's and B's entries).
  Each complex term is formed in real arithmetic as (ar br - ai bi, ar bi +
  ai br) (``times``, ``term_values``), and each cell is summed from zero in
  that order (``cell_sums``).
- A sum or difference of two matrices sums each one's entries of a cell
  from zero in stored order, and then adds or subtracts the two
  (``max_abs_of_sum``); it is only ever read through its largest entry.
- ``toarray`` adds each cell's entries onto zero in stored order; ``CSR @
  dense`` sums each row's terms in BLAS's order.

Group ids for the cells of a product or a sum are shared by every term list
that adds to the cells (``cell_ids``), so a product, its mirror term and
their difference take one sort and one ``bincount`` per term list.  Term
positions and cell ids depend only on sparsity patterns: products of other
matrices stored with the same patterns reuse them and only gather, multiply
and sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class CSR:
    """A compressed sparse row matrix (see the module docstring)."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return len(self.data)

    def entry_rows(self) -> np.ndarray:
        """The row of each stored entry, in the index dtype."""
        return np.repeat(np.arange(self.shape[0], dtype=self.indices.dtype), self.row_lengths())

    def row_lengths(self) -> np.ndarray:
        """The number of stored entries of each row."""
        return self.indptr[1:] - self.indptr[:-1]

    def keys(self) -> np.ndarray:
        """row * n_cols + column of each stored entry, as int64."""
        firsts = np.arange(self.shape[0], dtype=np.int64) * self.shape[1]
        return np.repeat(firsts, self.row_lengths()) + self.indices

    def row_range(self, start: int, stop: int, n_cols: int | None = None) -> CSR:
        """Rows start to stop as a CSR of ``n_cols`` columns (none of them
        holds an entry past that), sharing this matrix's indices and data."""
        n_cols = self.shape[1] if n_cols is None else n_cols
        if (start, stop, n_cols) == (0, *self.shape):
            return self
        ptr = self.indptr[start:stop + 1]
        lo, hi = ptr[0], ptr[-1]
        return CSR(ptr - lo, self.indices[lo:hi], self.data[lo:hi], (stop - start, n_cols))

    def entry(self, row: int, col: int):
        """The sum of the stored entries at (row, col), 0 where there is none."""
        lo, hi = self.indptr[row], self.indptr[row + 1]
        return self.data[lo:hi][self.indices[lo:hi] == col].sum()

    def toarray(self) -> np.ndarray:
        """The dense matrix, each cell's entries added onto zero in stored order."""
        n = self.shape[0] * self.shape[1]
        keys, data = self.keys(), self.data
        out = np.bincount(keys, data.real, minlength=n)
        if np.iscomplexobj(data):
            out = complex_array(out, np.bincount(keys, data.imag, minlength=n))
        return out.reshape(self.shape)

    def __matmul__(self, dense: np.ndarray) -> np.ndarray:
        """This matrix times a dense matrix.  Each row's entries are padded to
        the longest row's count (a padded entry is 0 in column 0) and
        multiplied with the rows of ``dense`` they select, one batched
        product per run of rows; each run's gathered rows hold about as
        many numbers as ``dense``, and at most about ``_GATHERED``, so they
        stay in a core's cache."""
        lengths = self.row_lengths()
        width = int(lengths.max(initial=0))
        out = np.zeros((self.shape[0], dense.shape[1]), dtype=np.result_type(self.data, dense))
        if not width:
            return out
        pos = np.arange(width)
        valid = pos < lengths[:, None]
        at = np.where(valid, self.indptr[:-1, None] + pos, 0)
        cols = np.where(valid, self.indices[at], 0)
        vals = np.where(valid, self.data[at], 0)[:, None, :]
        del valid, at
        step = max(1, min(len(dense), _GATHERED // max(dense.shape[1], 1)) // width)
        for start in range(0, self.shape[0], step):
            run = slice(start, start + step)
            np.matmul(vals[run], dense[cols[run]], out=out[run, None, :])
        return out


_GATHERED = 1 << 16  # numbers per run of gathered rows in CSR @ dense


def empty(shape: tuple[int, int], dtype=np.complex128) -> CSR:
    """A CSR with no stored entry."""
    return CSR(np.zeros(shape[0] + 1, dtype=np.int32), np.zeros(0, dtype=np.int32), np.zeros(0, dtype=dtype), shape)


def index_dtype(*sizes: int):
    """int32 where every size and index fits, as the usual sparse containers pick, else int64."""
    return np.int32 if max(sizes, default=0) < 2**31 else np.int64


def from_coo(keys: list[np.ndarray], values: list[np.ndarray], shape: tuple[int, int]) -> CSR:
    """The CSR of the entries whose cells are ``keys`` (row * n_cols +
    column, int64) and whose values are ``values``, each given as a list of
    pieces in input order, maybe none: rows ascending, each row's columns
    ascending, the entries of one cell summed in input order from the first,
    so a lone entry keeps its bits and a sum that cancels is stored as an
    explicit zero.  Each list is emptied once it is joined, so where the
    caller keeps no other reference to the pieces the build holds at most
    the values twice, the keys and one sort order: 48 bytes per complex
    entry."""
    if not values:
        return empty(shape)
    data = joined(values)
    values.clear()
    key = joined(keys)
    keys.clear()
    index = index_dtype(*shape, len(data))
    if not len(data):
        return empty(shape, data.dtype)
    order = np.argsort(key, kind="stable")  # timsort: a build's entries come in long sorted runs
    data = data.take(order)
    key = key.take(order)
    del order
    new = np.empty(len(key), dtype=bool)
    new[0] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    if not new.all():
        starts = np.flatnonzero(new)
        data = _run_sums(data, starts)
        key = key[starts]
    del new
    rows = key // shape[1]
    indptr = np.zeros(shape[0] + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    rows *= shape[1]
    np.subtract(key, rows, out=key)  # the columns
    return CSR(indptr, key.astype(index), data, shape)


def joined(arrays) -> np.ndarray:
    """``np.concatenate(arrays)``, without copying a lone array."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _run_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The sum of each run values[starts[g]:starts[g + 1]], in order from its
    first entry.  ``bincount`` adds from zero, which differs from that only
    where every entry of a run is -0.0: 0 + -0.0 is 0.0."""
    group = np.zeros(len(values), dtype=np.intp)
    group[starts[1:]] = 1
    np.cumsum(group, out=group)
    parts = []
    for part in (values.real, values.imag):
        total = np.bincount(group, part, minlength=len(starts))
        zero = total == 0
        if zero.any():  # a run of -0.0 alone sums to -0.0; any other term makes a zero +0.0
            total[zero & np.logical_and.reduceat(np.signbit(part), starts)] = -0.0
        parts.append(total)
    return complex_array(*parts)


def row_gather(m: CSR, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the entries of ``rows`` of ``m`` sit in its data and indices,
    row after row and each row in its stored order, and the indptr of the
    matrix of those rows."""
    starts = m.indptr[rows]
    counts = m.indptr[rows + 1] - starts
    ends = np.cumsum(counts)
    take = np.repeat(starts - ends + counts, counts) + np.arange(counts.sum())
    return take, np.append(0, ends).astype(m.indptr.dtype)


def swap_blocks(m: CSR, grid: tuple[int, int]) -> CSR:
    """Move block (i, j) of ``m``, a grid[0] x grid[1] grid of equal blocks, to
    (j, i), each block unchanged: hstack(M_i) from vstack(M_i) for a (k, 1)
    grid.  Entries are moved, not recomputed, and each row keeps its
    entries' relative order."""
    (gr, gc), (rows, cols) = grid, m.shape
    if gr == gc == 1:
        return m
    shape = (gc * (rows // gr), gr * (cols // gc))
    if m.nnz == 0:
        return empty(shape, m.data.dtype)
    row, col = swapped_cells(m.entry_rows(), m.indices, grid, m.shape)
    order = np.argsort(row, kind="stable")  # a stable sort keeps each row's order
    indptr = np.zeros(shape[0] + 1, dtype=m.indptr.dtype)
    np.cumsum(np.bincount(row, minlength=shape[0]), out=indptr[1:])
    return CSR(indptr, col[order], m.data[order], shape)


def swapped_cells(rows: np.ndarray, cols: np.ndarray, grid: tuple[int, int], shape: tuple[int, int]):
    """Where cells (rows, cols) of a grid[0] x grid[1] grid of equal blocks
    of ``shape`` go when block (i, j) moves to (j, i)."""
    if grid == (1, 1):
        return rows, cols
    a, c = shape[0] // grid[0], shape[1] // grid[1]
    i, r = np.divmod(rows, a)
    j, col = np.divmod(cols, c)
    return j * a + r, i * c + col


def times(ar, ai, br, bi) -> tuple[np.ndarray, np.ndarray]:
    """The complex product a * b in real arithmetic, (ar br - ai bi,
    ar bi + ai br): numpy's complex multiply differs from it in last bits."""
    return ar * br - ai * bi, ar * bi + ai * br


def complex_array(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array of these parts, each copied bit for bit."""
    out = np.empty(np.shape(re), dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def real_only(data: np.ndarray) -> bool:
    """Whether every imaginary part of ``data`` is zero and every real part
    finite.  A product of two such factors may be formed from the real parts
    alone (``term_values``): each term's imaginary part is then a zero, which
    leaves every sum from zero at +0.0, and its real part ar br - ai bi
    differs from ar br at most in the sign of a zero, which leaves every sum
    from zero as it is."""
    return not data.imag.any() and bool(np.isfinite(data.real).all())


def product_terms(a: CSR, b: CSR) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every term a_ik b_kj of a @ b in SMMP order: the position of a_ik
    among a's stored entries, that of b_kj among b's, and the key i * n_cols
    + j of its cell (int32 where every key fits, else int64).  The positions
    depend only on the two sparsity patterns, so one expansion serves every
    pair of matrices stored as these two."""
    counts = b.row_lengths().take(a.indices)
    live = np.flatnonzero(counts)  # the entries of a whose row of b holds any entry
    counts = counts.take(live)
    ends = np.cumsum(counts)
    left = np.repeat(live, counts)
    right = np.repeat(b.indptr.take(a.indices.take(live)) - ends + counts, counts)
    right += np.arange(len(right))
    keys = np.multiply(a.entry_rows().take(left), b.shape[1], dtype=index_dtype(a.shape[0] * b.shape[1]))
    keys += b.indices.take(right)
    return left, right, keys


def term_values(a: np.ndarray, b: np.ndarray, left: np.ndarray, right: np.ndarray, real: bool):
    """The products a[left] * b[right] of two complex data arrays, formed in
    real arithmetic (``times``), as real and imaginary parts; where ``real``
    (both arrays ``real_only``) only the real parts are multiplied, and the
    imaginary parts are None."""
    if real:
        re = a.real.take(left)
        re *= b.real.take(right)
        return re, None
    return times(a.real.take(left), a.imag.take(left), b.real.take(right), b.imag.take(right))


def swapped_keys(keys: np.ndarray, grid: tuple[int, int], shape: tuple[int, int]) -> np.ndarray:
    """``swapped_cells`` of the cells row * shape[1] + column, as keys of
    the swapped layout."""
    if grid == (1, 1):
        return keys
    rows, cols = swapped_cells(*np.divmod(keys, shape[1]), grid, shape)
    rows *= grid[0] * (shape[1] // grid[1])
    rows += cols
    return rows


def cell_ids(*keys: np.ndarray) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """One id per distinct cell key over all the key arrays: ids[n][k] is
    the id of keys[n][k], ids run from 0 to the number of cells, and cell g
    holds the key ordered[starts[g]].  The keys of a product's terms in SMMP
    order ascend by row, in short sorted runs within a row, which numpy's
    stable sort (timsort) orders in few passes."""
    every = np.concatenate(keys) if len(keys) > 1 else keys[0]
    order = np.argsort(every, kind="stable")
    ordered = every.take(order)
    del every
    new = np.empty(len(ordered), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    group = np.cumsum(new, dtype=np.intp)  # one past each sorted key's cell id
    del new
    group -= 1
    ids = np.empty(len(ordered), dtype=np.intp)
    ids[order] = group
    bounds = np.cumsum([0, *(len(k) for k in keys)])
    return [ids[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])], ordered, starts


def cell_sums(ids: np.ndarray, re: np.ndarray, im: np.ndarray | None, n_cells: int) -> np.ndarray:
    """Each cell's terms summed from zero in the order given: real where
    there are no imaginary parts."""
    total = np.bincount(ids, re, minlength=n_cells)
    return total if im is None else complex_array(total, np.bincount(ids, im, minlength=n_cells))


def max_abs(matrix: CSR | np.ndarray) -> float:
    """Largest absolute entry; 0.0 for an empty matrix."""
    data = matrix.data if isinstance(matrix, CSR) else np.asarray(matrix)
    return float(np.abs(data).max()) if data.size else 0.0


def max_abs_of_sum(a: CSR, b: CSR, sign: int) -> float:
    """max_abs(a + sign * b), sign +1 or -1, for matrices of one shape: each
    one's entries of a cell summed from zero in stored order, then the two
    added or subtracted."""
    return _max_abs_of_sum(a.keys(), a.data, b.keys(), b.data, sign)


def max_abs_less_adjoint(m: CSR) -> float:
    """max_abs(m - m^dagger) for a square matrix.  Where m stores each cell
    once, in ascending order (as ``from_coo`` builds it), and m^dagger stores
    the same cells, each entry is compared with its mirror entry directly: a
    stable sort of the columns (numpy's radix sort where they fit 16 bits)
    lists the mirror entries in m's order.  That reads the same largest
    entry as summing each cell first, which differs only in signs of zero."""
    keys, rows = m.keys(), m.entry_rows()
    cols = m.indices.astype(np.uint16) if m.shape[1] <= 1 << 16 else m.indices
    mirror = np.argsort(cols, kind="stable")
    mirror_keys = m.indices.take(mirror).astype(np.int64) * m.shape[0] + rows.take(mirror)
    if np.array_equal(keys, mirror_keys) and (keys[1:] > keys[:-1]).all():
        return max_abs(m.data - m.data.take(mirror).conj())
    return _max_abs_of_sum(keys, m.data, m.indices.astype(np.int64) * m.shape[0] + rows, m.data.conj(), -1)


def _max_abs_of_sum(keys_a, data_a, keys_b, data_b, sign: int) -> float:
    (ids_a, ids_b), _, cells = cell_ids(keys_a, keys_b)
    sum_a = cell_sums(ids_a, data_a.real, data_a.imag, len(cells))
    sum_b = cell_sums(ids_b, data_b.real, data_b.imag, len(cells))
    return max_abs(sum_a + sum_b if sign > 0 else sum_a - sum_b)
