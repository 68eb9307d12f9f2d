"""Concrete Fock-space machinery.

Every Fock state is held in one format, its ascending creation list: the
modes m_1 <= ... <= m_N of a+(m_1)...a+(m_N)|0>, a mode repeated by its
occupancy.  A ``FockBasis`` is the (dim, N) array of the lists of one
(N, sigma) sector as its enumeration makes them (combinations for sigma=-1,
multisets for sigma=+1, in lexicographic order), and ``FockBasis.rank``, the
one ranking path, inverts that order with the combinatorial number system,
one slot column at a time.

All ladder action goes through one kernel, ``_apply_strings``, which steps a
batch of lists, padded with an empty-slot marker, through their ladder
strings with bosonic sqrt factors or fermionic parity signs; where a factor
kills rows the batch is compacted to the rows still alive, and only the
survivors come back, with the input rows they came from.  An operator
between two sectors is always an ``OperatorFamily``: the stacked CSR
vstack_p(M_p) of one or more members, a single operator (``matrix_of``, a
Hamiltonian, a lift) being a family of one.  ``matrix_family`` builds the
matrices M_p of a list of expressions on each of a list of (domain,
codomain) sector pairs, reading each term's factors once
(``_ladder_strings``).  Every build is one join of consecutive pairs, up
to ``JOIN_ENTRIES``: one kernel pass over
their domain lists side by side, each row ranked in its own codomain, and
one COO -> CSR (``csr.from_coo``, duplicates summed in input order) whose
row ranges are the pairs' stacks; only the (term, column) pairs whose
first-acting annihilators (the string's rightmost factors up to its first
creator) all find a particle, or whose rightmost creator acts, enter the
kernel, and each row of a join receives the entries of its own one-sector
build, so no bit of any matrix moves.  One
splitter, ``joined_pieces``, cuts every such run: the joins of a build, its
kernel calls, the rotation stacks of ``symmetry`` and the probe stacks of
the completeness check.  The graded ladder relations are checked on such
families in lean tiles whose residuals are bit-identical to pair-by-pair
products.

Creation products of many mode lists in any order (``_created_states``)
take no kernel pass: each amplitude is read from the list itself, and each
index is the rank of the sorted list.  They give both the bracket states
(each the index and amplitude of the one basis state it is a multiple of)
and the Fock lift of any mode map (``sector_lift``: rotations, spin
reversal), so a lift shares no code path with the kernel it is checked
against.  The overlap and symmetrizer oracles stay brute force and separate
on purpose; the completeness projector and the symmetrizer oracle take a
stack of probes along a leading axis, each probe summed as on its own.

Bases and matrices are immutable once built; functions are pure, so matrix
assembly can be partitioned by column with no shared state.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce
from itertools import accumulate, chain, combinations, combinations_with_replacement, permutations

import numpy as np

from .csr import (
    CSR,
    cell_ids,
    cell_sums,
    from_coo,
    joined,
    max_abs,
    product_terms,
    real_only,
    row_gather,
    swap_blocks,
    swapped_keys,
    term_values,
)
from .memo import kept_cache
from .modes import ModeSpace
from .opalgebra import OperatorExpr, check_sigma

DEFAULT_DIMENSION_CAP = 2_000_000
_KERNEL_ROWS = 4096  # rows per kernel call in matrix_family, which bounds its working arrays
_INDEX_SLOTS = 1 << 16  # list slots per piece of the kernel prefilter's mode index, so its order fits uint16
JOIN_ENTRIES = 1 << 16  # the most entries one joined family build, rotation stack or probe stack holds
_PRODUCT_ENTRIES = 1 << 12  # structural nnz bound per stacked product in _worst_relation
_BRACKET_COPIES = 2  # the dense bracket matrix and its conjugate transpose


class DimensionCapError(ValueError):
    """A requested sector exceeds the configured basis-size cap."""


def _available_memory() -> int | None:
    """Bytes this process can still allocate: the smallest of free physical
    memory, the ``RLIMIT_AS`` soft limit less the process's current size, and
    ``memory.max`` less ``memory.current`` of each limited cgroup (v2) the
    process is in; None where no figure can be read."""
    figures = [f for f in (_free_physical(), _address_space_left(), _cgroup_memory_left()) if f is not None]
    return max(0, min(figures)) if figures else None


def _free_physical() -> int | None:
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _address_space_left() -> int | None:
    """The ``RLIMIT_AS`` soft limit less the process's virtual size."""
    try:
        import resource

        soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    except (ImportError, OSError, ValueError):
        return None
    if soft == resource.RLIM_INFINITY:
        return None
    try:
        with open("/proc/self/statm") as statm:
            size = int(statm.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        size = 0
    return soft - size


def _cgroup_memory_left(root: str = "/sys/fs/cgroup", membership: str = "/proc/self/cgroup") -> int | None:
    """The least memory.max - memory.current over the process's cgroup (v2)
    and its ancestors that set a limit."""
    try:
        with open(membership) as cgroups:
            path = next(line[3:].strip() for line in cgroups if line.startswith("0::"))
    except (OSError, StopIteration):
        return None
    left = None
    parts = [p for p in path.split("/") if p]
    for depth in range(len(parts), -1, -1):
        folder = os.path.join(root, *parts[:depth])
        try:
            with open(os.path.join(folder, "memory.max")) as f:
                limit = f.read().strip()
            if limit == "max":
                continue
            with open(os.path.join(folder, "memory.current")) as f:
                used = int(f.read())
            room = int(limit) - used
        except (OSError, ValueError):
            continue
        left = room if left is None else min(left, room)
    return left


def sector_dimension(n_modes: int, n_particles: int, sigma: int) -> int:
    """Closed-form sector size: C(M, N) for sigma=-1, C(M+N-1, N) for sigma=+1."""
    check_sigma(sigma)
    if n_particles < 0:
        raise ValueError("particle number must be >= 0")
    if sigma == -1:
        return math.comb(n_modes, n_particles) if n_particles <= n_modes else 0
    return math.comb(n_modes + n_particles - 1, n_particles)


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
    """Every state of one (N, sigma) sector as its ascending creation list,
    one row of ``modes`` each, in lexicographic order: combinations for
    sigma=-1, multisets for sigma=+1, so the N=1 sector's order is the mode
    order.  ``modes`` is the enumeration's own array, in the smallest signed
    int type whose maximum, the kernel's empty-slot marker, exceeds every
    mode index."""

    space: ModeSpace
    sigma: int
    n_particles: int
    modes: np.ndarray  # (dim, N) ascending mode indices
    rank_table: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.modes)

    def occ_tuple(self, i: int) -> tuple[int, ...]:
        """The occupancy of each mode in state i."""
        return tuple(np.bincount(self.modes[i], minlength=self.space.n_modes).tolist())

    def rank(self, lists: np.ndarray) -> np.ndarray:
        """Sector index of each ascending creation list (one per row) of this
        sector.  The table is summed one slot column at a time, as
        ``_slot_count`` counts: a 2-D gather reduced over the slot axis is
        slower."""
        after = np.zeros(len(lists), dtype=np.int64)
        for table, column in zip(self.rank_table, lists.T):
            after += table.take(column)
        return self.dim - 1 - after


@kept_cache
def _build_basis_cached(space: ModeSpace, n_particles: int, sigma: int) -> FockBasis:
    m = space.n_modes
    dim = sector_dimension(m, n_particles, sigma)
    chooser = combinations if sigma == -1 else combinations_with_replacement
    lists = chain.from_iterable(chooser(range(m), n_particles))
    picked = np.fromiter(lists, dtype=np.min_scalar_type(-(m + 1)), count=dim * n_particles).reshape(dim, n_particles)
    picked.setflags(write=False)
    return FockBasis(space, sigma, n_particles, picked, _rank_table(m, n_particles, sigma))


def capped_dimension(space: ModeSpace, n_particles: int, sigma: int) -> int:
    """The (N, sigma) sector's size, computed without enumerating it; raises
    ``DimensionCapError`` past ``DEFAULT_DIMENSION_CAP`` states, read at each
    call."""
    dim = sector_dimension(space.n_modes, n_particles, check_sigma(sigma))
    if dim > DEFAULT_DIMENSION_CAP:
        raise DimensionCapError(
            f"sector N={n_particles}, sigma={sigma:+d} has {dim} states,"
            f" over the cap {DEFAULT_DIMENSION_CAP}"
        )
    return dim


def build_basis(space: ModeSpace, n_particles: int, sigma: int) -> FockBasis:
    """Enumerate the (N, sigma) sector; refuses to build past the cap
    (``capped_dimension``)."""
    capped_dimension(space, n_particles, sigma)
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


def _factor_survives(n, dag, sigma: int):
    """Where one ladder factor acts without vanishing, from the occupancy n of
    its mode: a fermion creator needs an empty mode, any annihilator a filled
    one, and a boson creator always acts."""
    return n != dag if sigma == -1 else dag | (n > 0)


def _apply_strings(lists: np.ndarray, modes: np.ndarray, daggers: np.ndarray, sigma: int):
    """Apply one ladder string to each creation list, rightmost factor first.

    Row r of ``lists`` is an ascending creation list, padded at its end with
    the empty-slot marker (the maximum of its dtype, above every mode index);
    factor f of its string creates (``daggers[r, f]``) or annihilates a
    particle in mode ``modes[r, f]``.  The occupancy of mode m is the count
    of m in the row; sigma=+1 gives sqrt(n+1) / sqrt(n) factors, sigma=-1
    allows occupancy 0/1 and gives the parity sign of the particles in modes
    below m.  A creation fills an empty slot and an annihilation empties its
    mode's first slot, in rows widened to the most particles any string
    reaches; each surviving row is sorted at the end.  Returns (live, new
    lists, real amplitudes) of the rows whose string survives, in input
    order: ``live`` picks those rows out of the input, ``slice(None)`` where
    every row survives (so the caller's gathers are views) and else their
    ascending indices.

    The live rows are stepped as one compact batch: where a factor kills
    rows, the batch's lists, modes, daggers and amplitudes drop them, so
    the counts and square roots of a string are paid only up to the factor
    that kills it, and a factor that kills none gathers nothing.  A
    survivor's amplitude is the same product, in the same factor order, as
    if no row had been dropped.
    """
    empty = np.iinfo(lists.dtype).max
    reach = np.where(daggers[:, ::-1], 1, -1).cumsum(axis=1).max(initial=0)
    rows = _widened(lists, lists.shape[1] + reach)
    live = slice(None)  # the input row of each batch row: every row until one dies
    amp = np.ones(len(lists))
    for f in reversed(range(modes.shape[1])):
        idx, dag = modes[:, f], daggers[:, f]
        n = _slot_count(rows, np.equal, idx)
        keep = _factor_survives(n, dag, sigma)
        if not keep.all():
            live = np.flatnonzero(keep) if isinstance(live, slice) else live[keep]
            rows, modes, daggers, amp = rows[keep], modes[keep], daggers[keep], amp[keep]
            idx, dag, n = idx[keep], dag[keep], n[keep]
        if not len(rows):  # nothing left to step, maybe not even a slot
            break
        if sigma == -1:
            amp *= 1 - 2 * (_slot_count(rows, np.less, idx) & 1)
        else:
            amp *= np.sqrt(n.astype(np.float64) + dag)
        slot = (rows == np.where(dag, empty, idx)[:, None]).argmax(axis=1)  # the first empty slot, or idx's
        rows[np.arange(len(rows)), slot] = np.where(dag, idx, empty)
    rows.sort(axis=1)
    return live, rows, amp


def _slot_count(rows: np.ndarray, compare, idx: np.ndarray) -> np.ndarray:
    """Per row r, how many of its slots s have compare(rows[r, s], idx[r]),
    summed one slot column at a time: a numpy reduce over the 2- to 5-wide
    slot axis is slower."""
    count = np.zeros(len(rows), dtype=np.intp)
    for column in rows.T:
        count += compare(column, idx)
    return count


def _widened(lists: np.ndarray, width: int) -> np.ndarray:
    """A copy of ``lists`` with empty slots appended up to ``width`` columns."""
    out = np.full((len(lists), width), np.iinfo(lists.dtype).max, dtype=lists.dtype)
    out[:, :lists.shape[1]] = lists
    return out


def _created_states(basis: FockBasis, created) -> tuple[np.ndarray, np.ndarray]:
    """a+(m_1)...a+(m_N)|0> for each row of mode indices ``created``, in any
    order: the index of the basis state it is a multiple of, and the
    amplitude, both read from the list alone.  A fermion list's amplitude is
    the parity of its inversions, and 0 (index 0) on a repeated mode; a
    boson list's is the product, rightmost factor first, of
    sqrt(1 + #{g > f : m_g = m_f}): the factors the ladder kernel
    multiplies, in its order.  The index is ``basis.rank`` of the sorted
    list."""
    created = np.asarray(created, dtype=np.intp)
    rows, n = created.shape
    f, g = np.triu_indices(n, 1)
    same = created[:, f] == created[:, g]  # one column per pair f < g
    if basis.sigma == -1:
        inversions = (created[:, f] > created[:, g]).sum(axis=1)
        amp = np.where(same.any(axis=1), 0.0, 1.0 - 2 * (inversions & 1))
    else:
        amp = np.ones(rows)
        for k in reversed(range(n)):
            amp *= np.sqrt(same[:, f == k].sum(axis=1) + 1.0)
    return np.where(amp != 0, basis.rank(np.sort(created, axis=1)), 0), amp


@dataclass(frozen=True, eq=False)
class SectorLift:
    """The Fock lift U of a mode map on one sector.  It is monomial: column j
    holds one entry, ``phase[j]``, in row ``image[j]``."""

    image: np.ndarray
    phase: np.ndarray

    @cached_property
    def source(self) -> np.ndarray:
        """The state each row's entry comes from: the inverse of ``image``
        when U is unitary, and always a permutation, so a broken lift still
        conjugates (and fails its checks) instead of raising."""
        return np.argsort(self.image, kind="stable")


def sector_lift(basis: FockBasis, perm, mode_phases) -> SectorLift:
    """The lift of the mode map m -> ``perm[m]`` whose creation operators
    carry the phase ``mode_phases[m]``: each state's ascending creation
    product, every factor moved and phased, applied to the vacuum and
    divided by sqrt(prod_m n_m!)."""
    created = basis.modes
    image, amp = _created_states(basis, np.asarray(perm)[created])
    phase = amp.astype(np.complex128)
    for f in reversed(range(basis.n_particles)):  # rightmost creation acts first
        phase *= mode_phases[created[:, f]]
    # prod_m n_m! of each state, as the product over its particles of each
    # one's place in its run of equal modes: exact integers either way, and
    # no (dim x n_modes) array
    place = np.ones(created.shape, dtype=np.int64)
    for f in range(1, basis.n_particles):
        place[:, f] += (created[:, f] == created[:, f - 1]) * place[:, f - 1]
    phase /= np.sqrt(place.prod(axis=1).astype(np.float64))
    return SectorLift(image, phase)


@dataclass(frozen=True, eq=False)
class OperatorFamily:
    """The matrices M_p of a list of operators between one pair of sectors,
    held once as the stacked CSR vstack_p(M_p): M_p is rows p * codomain.dim
    to (p + 1) * codomain.dim of ``matrix``; one operator is a family of one."""

    domain: FockBasis
    codomain: FockBasis
    size: int
    matrix: CSR

    def __len__(self) -> int:
        return self.size

    def rows(self, start: int, stop: int) -> CSR:
        """vstack(M_start, ..., M_stop-1), sharing the stack's arrays."""
        d = self.codomain.dim
        return self.matrix.row_range(start * d, stop * d, self.domain.dim)

    def blocks(self, order, phases=None) -> CSR:
        """vstack(phases[k] * M_order[k] over k), gathered from the stack.  Each
        block is multiplied by its phase as a scalar, as ``phase * M`` is: numpy
        multiplies complex arrays elementwise in other last bits."""
        d, m = self.codomain.dim, self.matrix
        order = np.asarray(order, dtype=np.intp)
        take, indptr = row_gather(m, (order[:, None] * d + np.arange(d)).ravel())
        data = m.data[take]
        bounds = indptr[np.arange(len(order) + 1) * d]
        for phase, start, end in zip(() if phases is None else phases, bounds[:-1], bounds[1:]):
            data[start:end] *= phase
        return CSR(indptr, m.indices[take], data, (len(order) * d, m.shape[1]))


def matrix_of(expr: OperatorExpr, domain: FockBasis, codomain: FockBasis) -> OperatorFamily:
    """Column j = expr applied to basis state j of the domain sector: the
    one-expression ``matrix_family`` on one sector, a family of one member."""
    return matrix_family([expr], [(domain, codomain)])[0]


def joined_pieces(sizes, budget: int | None = None) -> list[range]:
    """Runs of consecutive items whose sizes add up to at most ``budget``
    (``JOIN_ENTRIES``, read at each call, by default); an item larger than
    that is a run of its own."""
    budget = JOIN_ENTRIES if budget is None else budget
    pieces, start, total = [], 0, 0
    for i, size in enumerate(sizes):
        if i > start and total + size > budget:
            pieces.append(range(start, i))
            start, total = i, 0
        total += size
    return pieces + [range(start, len(sizes))] if len(sizes) > start else pieces


def matrix_family(exprs, sectors) -> list[OperatorFamily]:
    """The family of ``exprs`` on each (domain, codomain) pair of ``sectors``,
    in order: block p, column j of a sector's stack is exprs[p] applied to
    basis state j of its domain.

    Every expression must change particle number uniformly across terms by
    exactly codomain.N - domain.N on every sector.  Consecutive sectors are
    joined while their kernel rows and stack rows (terms x domain.dim +
    members x codomain.dim) add up to at most ``JOIN_ENTRIES``: a join sends
    the terms of all expressions through the kernel once over the domains'
    occupations side by side (``_kernel_batches``), ranks each row with its
    own codomain's table, and converts one COO to one CSR whose row ranges
    are the sectors' stacks; the expression index is a block-row offset in
    each.  The COO -> CSR conversion (``csr.from_coo``) sums the entries of
    one cell in input order, from the first, so a lone entry keeps its bits;
    each row of a joined stack receives the same sequence of (column, value)
    entries, in the same order, as the row of the one-expression build of
    its own expression on its own sector, so it is summed the same way, and
    every block is bitwise the ``matrix_of`` of its expression.
    """
    exprs, sectors = list(exprs), list(sectors)
    shifts = [expr.particle_shift() if expr.terms else None for expr in exprs]
    for domain, codomain in sectors:
        if not domain.space == codomain.space == sectors[0][0].space:
            raise ValueError("the sectors live on different mode spaces")
        required = codomain.n_particles - domain.n_particles
        for expr, shift in zip(exprs, shifts):
            if expr.sigma != domain.sigma or domain.sigma != codomain.sigma:
                raise ValueError("statistics grade mismatch between expression and bases")
            if expr.terms and shift is None:
                raise ValueError("expression changes particle number non-uniformly")
            if expr.terms and shift != required:
                raise ValueError(
                    f"expression shifts particle number by {shift}, sectors differ by {required}"
                )
    pieces = joined_pieces(_join_sizes(exprs, sectors))
    strings = _ladder_strings(exprs, sectors[0][0].space, sectors[0][0].sigma) if pieces else []
    return [
        family
        for piece in pieces
        for family in _joined_families(strings, len(exprs), [sectors[i] for i in piece])
    ]


def _join_sizes(exprs, sectors) -> list[int]:
    """Kernel rows (terms x domain.dim) plus stack rows (members x
    codomain.dim) of each sector's family: what ``JOIN_ENTRIES`` bounds."""
    n_terms = sum(len(expr.terms) for expr in exprs)
    return [n_terms * domain.dim + len(exprs) * codomain.dim for domain, codomain in sectors]


def _ladder_strings(exprs, space: ModeSpace, sigma: int) -> list[tuple]:
    """The terms of ``exprs`` by string length, ascending, each term's
    factors read once: per length, the terms in expression order as
    (expressions, coefficients, factor modes, daggers, prefilter keys), the
    modes and daggers one row per term, rightmost factor last.  A term's
    prefilter key is None where it acts on every column (no factors, or a
    boson creator first), the mode of a fermion creator that acts first, or
    else the ascending modes of its first-acting annihilation run (its
    rightmost factors up to its first creator)."""
    by_length: dict[int, tuple[list, ...]] = {}
    for p, expr in enumerate(exprs):
        for term in expr.terms:
            modes = [space.index(f.mode) for f in term.factors]
            daggers = [f.dagger for f in term.factors]
            run = len(daggers)
            while run and not daggers[run - 1]:
                run -= 1
            if run < len(daggers):
                key = tuple(sorted(modes[run:]))
            elif daggers and sigma == -1:
                key = modes[-1]
            else:
                key = None
            table = by_length.setdefault(len(modes), ([], [], [], [], []))
            for column, value in zip(table, (p, term.coeff, modes, daggers, key)):
                column.append(value)
    return [
        (
            np.array(owners, dtype=np.intp),
            np.array(coeffs),
            np.array(modes, dtype=np.intp).reshape(len(owners), length),
            np.array(daggers, dtype=bool).reshape(len(owners), length),
            keys,
        )
        for length, (owners, coeffs, modes, daggers, keys) in sorted(by_length.items())
    ]


def _kernel_batches(strings: list[tuple], n_modes: int, lists: np.ndarray, sigma: int):
    """Every kernel call of a family build on the creation lists ``lists``, as
    the (block-row offset, column, coefficient, new list, amplitude) of each
    row whose string survives, for the terms ``_ladder_strings`` read.

    A term enters the kernel only on the columns where its first-acting
    annihilation run (its rightmost factors, up to its first creator) finds
    every particle it removes: each mode m of the run is held in the list at
    least as often as a(m) appears in the run, which is the kernel's own
    rule (``_factor_survives``) for each step of the run.  A term whose
    rightmost factor is a creator enters where that factor survives (a
    fermion's mode empty, a boson's anywhere), and a term without factors
    on every column.  The columns are read from one mode index of
    the lists (``_mode_index``), once per prefilter key.  Rows are
    term-major, terms ascending by length and then in expression order,
    columns ascending, cut by ``joined_pieces`` into calls of at most
    ``_KERNEL_ROWS`` rows unless one term has more.  No array is terms x
    columns.  A pair dropped here would die within the kernel's first run,
    so the rows that survive are those of a pass over every (term, column)
    pair, in the same order, with the same factor products: the COO
    of the family is the same, entry for entry, and so is every bit of its
    CSR.
    """
    everywhere = np.arange(len(lists))
    holding = _mode_index(lists, n_modes, sigma)
    acting: dict[int | tuple, np.ndarray] = {None: everywhere}  # prefilter key -> the columns where it survives

    def columns(key) -> np.ndarray:
        if key not in acting:
            if isinstance(key, tuple):  # every (mode, count) of the run held
                counts = [(m, key.count(m)) for m in sorted(set(key))]
                acting[key] = reduce(partial(np.intersect1d, assume_unique=True), (holding(*mc) for mc in counts))
            else:  # a fermion creator needs its mode empty
                empty = np.ones(len(lists), dtype=bool)
                empty[holding(key, 1)] = False
                acting[key] = np.flatnonzero(empty)
        return acting[key]

    for owners, coeffs, modes, daggers, keys in strings:
        cols = [columns(key) for key in keys]
        chosen = [t for t, c in enumerate(cols) if len(c)]
        for piece in joined_pieces([len(cols[t]) for t in chosen], _KERNEL_ROWS):
            at = [chosen[i] for i in piece]
            counts = [len(cols[t]) for t in at]
            rows = joined([cols[t] for t in at])
            live, new, amp = _apply_strings(
                lists[rows], modes[at].repeat(counts, axis=0), daggers[at].repeat(counts, axis=0), sigma
            )  # the caller's arrays alone once yielded
            yield owners[at].repeat(counts)[live], rows[live], coeffs[at].repeat(counts)[live], new, amp


def _mode_index(lists: np.ndarray, n_modes: int, sigma: int):
    """``holding(m, count)``: the rows of ``lists`` that hold mode m at least
    ``count`` times, ascending.

    The lists are indexed in pieces of whole rows, at most ``_INDEX_SLOTS``
    slots each: one stable argsort of a piece's flattened lists, after which
    the slots holding m are one range of it and a row's repeats of m are
    adjacent.  Each piece's order fits uint16, so the index holds two bytes
    per slot and no argsort output is larger than one piece.  It is built at
    the first call, so a build whose terms need no count sorts nothing."""
    width = lists.shape[1]
    span = _INDEX_SLOTS // max(width, 1)
    pieces = []  # (first row, order, where each mode's range starts) per piece

    def holding(m: int, count: int) -> np.ndarray:
        if not pieces:
            modes = np.arange(n_modes + 1, dtype=lists.dtype)
            for start in range(0, max(len(lists), 1), span):
                flat = lists[start:start + span].ravel()
                order = np.argsort(flat, kind="stable").astype(np.uint16)
                pieces.append((start, order, np.searchsorted(flat[order], modes)))
        rows = joined([(order[b[m]:b[m + 1]] // width).astype(np.intp) + start for start, order, b in pieces])
        if count > 1:  # a row's count-th slot of m, count - 1 places after its first
            rows = rows[count - 1:][rows[count - 1:] == rows[:len(rows) - count + 1]]
        if sigma == -1:
            return rows
        first = np.ones(len(rows), dtype=bool)  # a boson row's first slot of m, once per row
        np.not_equal(rows[1:], rows[:-1], out=first[1:])
        return rows[first]

    return holding


def _joined_families(strings: list[tuple], k: int, sectors) -> list[OperatorFamily]:
    """The families of k expressions, whose terms are ``strings``, on
    ``sectors``, from one COO of all their entries: sector s's stack is rows
    offset[s] to offset[s + 1] of the joined CSR, and its domain's columns
    are columns start[s] onward of the joined kernel input, every domain's
    lists padded to the widest N."""
    domains, codomains = zip(*sectors)
    start = list(accumulate((d.dim for d in domains), initial=0))
    offset = list(accumulate((k * c.dim for c in codomains), initial=0))
    shape = (offset[-1], max(d.dim for d in domains))
    at, first, co = np.array(start), np.array(offset), np.array([c.dim for c in codomains])
    width = max(d.n_particles for d in domains)
    lists = joined([d.modes if d.n_particles == width else _widened(d.modes, width) for d in domains])
    keys, vals = [], []  # each batch's cells (row * n_cols + column) and values
    batches = _kernel_batches(strings, domains[0].space.n_modes, lists, domains[0].sigma)
    for owners, columns, coeffs, new, amp in batches:
        # each row ranked in the codomain of its column's sector
        sector = np.searchsorted(at, columns, side="right") - 1
        key = _rank_rows(codomains, sector, new) + first[sector] + owners * co[sector]
        key *= shape[1]
        key += columns - at[sector]
        keys.append(key)
        vals.append((coeffs * amp).astype(np.complex128, copy=False))
    stack = from_coo(keys, vals, shape)  # from_coo empties both lists
    return [
        OperatorFamily(d, c, k, stack.row_range(offset[s], offset[s + 1], d.dim))
        for s, (d, c) in enumerate(sectors)
    ]


def _rank_rows(codomains, sector: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each sorted list's index in its own codomain, codomains[sector], read
    from its first codomain.N slots."""
    receiving = np.flatnonzero(np.bincount(sector, minlength=len(codomains)))
    if len(receiving) == 1:  # one codomain receives every row: no mask, no copy
        codomain = codomains[receiving[0]]
        return codomain.rank(rows[:, :codomain.n_particles])
    out = np.empty(len(rows), dtype=np.int64)
    for s in receiving:
        at = sector == s
        out[at] = codomains[s].rank(rows[at, :codomains[s].n_particles])
    return out


def ladder_relation_residuals(
    space: ModeSpace, annihilators, sigma: int, n_max: int
) -> tuple[float, float, float]:
    """Worst entries of the graded ladder relations of annihilators c_p:
    [c_p, c+_q]_sigma = delta_pq on sectors N = 0..n_max, [c_p, c_q]_sigma = 0
    from those with N >= 2, and [c+_p, c+_q]_sigma = 0 from each to N + 2.

    The c_p and the c+_p (from the adjoint expressions, not transposes) are
    one family each per sector, built in one ``matrix_family`` call per
    expression list and join of sectors; each
    relation on each sector is a few stacked sparse products
    (``_worst_relation``).  For sigma=-1 the sectors past n_modes hold no
    states and add nothing, so the relations stop there, the two empty
    sectors above it kept as codomains.
    """
    if sigma == -1:
        n_max = min(n_max, space.n_modes)
    bases = [build_basis(space, n, sigma) for n in range(n_max + 3)]
    creators = [c.dagger() for c in annihilators]
    tops = range(n_max + 1, -1, -1)  # largest first: its build peak meets the fewest held families
    raising = [(bases[n], bases[n + 1]) for n in tops]
    up, down = {}, {}
    # the c+ and the c families of one join in turn: the small sectors in one
    # call per expression list, each sector past the budget alone, as before
    for piece in joined_pieces(_join_sizes(creators, raising)):
        ns = [tops[i] for i in piece]
        up.update(zip(ns, matrix_family(creators, [raising[i] for i in piece])))
        ns = [n for n in ns if n]
        down.update(zip(ns, matrix_family(annihilators, [(bases[n], bases[n - 1]) for n in ns])))
    mixed = ann = cre = 0.0
    for n in range(n_max + 1):
        mirror = (up[n - 1], down[n]) if n else None  # c+_q c_p kills the vacuum
        mixed = max(mixed, _worst_relation(down[n + 1], up[n], sigma, mirror))
        if n >= 2:
            ann = max(ann, _worst_relation(down[n - 1], down[n], sigma, like=True))
        cre = max(cre, _worst_relation(up[n + 1], up[n], sigma, like=True))
    return mixed, ann, cre


def _worst_relation(lefts, rights, sigma: int, mirror=None, like=False) -> float:
    """Worst entry, over all p and q, of lefts[p] @ rights[q] - sigma * m[q] @ m'[p],
    less delta_pq times the identity unless ``like``; (m, m') is ``mirror``, or
    (lefts, rights) when ``like``, and then R_qp = -sigma R_pq, so only q >= p runs.
    Every argument is an ``OperatorFamily``.

    Each square tile of consecutive p and q is one product of a row range of
    the left stack with the right members side by side, in (p, q) block
    layout; its structural nnz bound stays under ``_PRODUCT_ENTRIES`` unless
    it is one pair.  The mirror term is one product the same way, in (q, p)
    block layout, whose terms are moved to the (p, q) cells they add to.
    Both products are expanded into their terms in SMMP order, and share one
    set of cell ids: each is summed by cells from zero, as a sparse product
    sums it, and the sigma term is then added or subtracted, not multiplied.
    The identity comes off the diagonal where the maximum is read.

    Term positions and cell ids depend only on the four operands' sparsity
    patterns (``_RelationPlan``), and members of a family often share one
    (every eigenmode of a spin projection, say): tiles are grouped by their
    operands' patterns, and each group is expanded and sorted once, its
    tiles then each gathered, multiplied and summed with the same bits.
    """
    families = [f for f in ((lefts, rights), None if like else mirror) if f]
    pair = 1  # per stored entry of ls[p] in column k, the stored entries of row k of rs[q]
    for ls, rs in families:
        lengths = rs.matrix.row_lengths().reshape(len(rs), rs.codomain.dim).astype(float)
        pair = max(pair, int((_column_hits(ls) @ lengths.T).max(initial=0)))
    side = max(1, math.isqrt(_PRODUCT_ENTRIES // pair))
    tiles = [(i, min(i + side, len(lefts))) for i in range(0, len(lefts), side)]
    left = [lefts.rows(*tile) for tile in tiles]
    right = [_side_by_side(rights, tile) for tile in tiles]
    back_left, back_right = left, right  # the (j, i) products of ``like`` read them
    if mirror and not like:
        back_left = [mirror[0].rows(*tile) for tile in tiles]
        back_right = [_side_by_side(mirror[1], tile) for tile in tiles]
    operands = [left, right] if back_left is left else [left, right, back_left, back_right]
    layouts = [_layout_ids(ms) for ms in operands]
    real = [[real_only(m.data) for m in ms] for ms in operands]
    if len(operands) == 2:
        layouts, real = layouts * 2, real * 2
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for i in range(len(tiles)):
        for j in range(i if like else 0, len(tiles)):
            key = (layouts[0][i], layouts[1][j], layouts[2][j], layouts[3][i], i == j)
            groups.setdefault(key, []).append((i, j))
    worst = 0.0
    for pairs in groups.values():
        plan = None
        for i, j in pairs:
            rel = (left[i], right[j], real[0][i] and real[1][j])
            back = (back_left[j], back_right[i], real[2][j] and real[3][i]) if like or mirror else None
            if plan is None:
                grid = (tiles[j][1] - tiles[j][0], tiles[i][1] - tiles[i][0])
                plan = _RelationPlan.of(rel[:2], None if back is None else back[:2], grid, like and i == j)
            worst = max(worst, plan.worst(rel, back, sigma, identity=not like and i == j))
    return worst


@dataclass(frozen=True, eq=False)
class _RelationPlan:
    """The terms of one relation tile as positions into its operands' stored
    entries, and their shared cell ids: ``rel`` and ``back`` are (left
    positions, right positions, ids) of the tile product and of its sigma
    term (None where there is none), ``cells`` the key row * n_cols + col
    of each cell."""

    rel: tuple[np.ndarray, np.ndarray, np.ndarray]
    back: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    cells: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def of(cls, rel, back, grid: tuple[int, int], shared: bool) -> _RelationPlan:
        """The plan of rel[0] @ rel[1] and of back[0] @ back[1], a product in
        the ``grid`` block layout of the swapped tile (the same terms as the
        tile product where ``shared``), its terms moved to the cells they add
        to."""
        shape = (rel[0].shape[0], rel[1].shape[1])
        terms = [product_terms(*rel)]
        if back is not None:
            a, b, keys = terms[0] if shared else product_terms(*back)
            back_shape = (shape[0] // grid[1] * grid[0], shape[1] // grid[0] * grid[1])
            terms.append((a, b, swapped_keys(keys, grid, back_shape)))
        ids, ordered, starts = cell_ids(*(keys for _, _, keys in terms))
        rel, *back = [(a, b, at) for (a, b, _), at in zip(terms, ids)]
        return cls(rel, back[0] if back else None, ordered.take(starts), shape)

    def worst(self, rel, back, sigma: int, identity: bool) -> float:
        """max_abs of the tile's relation, less the identity where
        ``identity``; ``rel`` and ``back`` are (left, right, real) of the
        operands stored in this plan's patterns (``real``: both
        ``real_only``)."""
        a, b, real = rel
        left, right, ids = self.rel
        total = cell_sums(ids, *term_values(a.data, b.data, left, right, real), len(self.cells))
        if back is not None:
            a, b, real = back
            left, right, ids = self.back
            back_sum = cell_sums(ids, *term_values(a.data, b.data, left, right, real), len(self.cells))
            total = total - back_sum if sigma == 1 else total + back_sum
        if not identity:
            return max_abs(total)
        return _max_abs_less_identity(total, *np.divmod(self.cells, self.shape[1]), self.shape[0])


def _layout_ids(matrices) -> list[int]:
    """One id per distinct sparsity pattern among ``matrices`` (shape,
    indptr and indices), in order of first appearance: each matrix is
    compared only with the patterns of its digest, so the grouping stays
    linear in the number of matrices."""
    seen: dict[tuple, list[tuple[int, CSR]]] = {}  # digest -> (id, first matrix) of its patterns
    ids, count = [], 0
    for m in matrices:
        digest = (m.shape, m.nnz, hash(m.indptr.tobytes()), hash(m.indices.tobytes()))
        same = (n for n, f in seen.get(digest, ()) if np.array_equal(f.indptr, m.indptr) and np.array_equal(f.indices, m.indices))
        n = next(same, None)
        if n is None:
            n, count = count, count + 1
            seen.setdefault(digest, []).append((n, m))
        ids.append(n)
    return ids


def _side_by_side(family: OperatorFamily, tile: tuple[int, int]) -> CSR:
    """hstack(M_p over p in range(*tile)), moved out of the stack."""
    return swap_blocks(family.rows(*tile), (tile[1] - tile[0], 1))


def _column_hits(family: OperatorFamily) -> np.ndarray:
    """Entry [p, k]: the stored entries of member p in column k, as floats."""
    m, cols = family.matrix, family.matrix.shape[1]
    cells = m.entry_rows().astype(np.intp) // family.codomain.dim * cols + m.indices
    return np.bincount(cells, minlength=len(family) * cols).reshape(len(family), cols).astype(float)


def _max_abs_less_identity(values: np.ndarray, rows: np.ndarray, cols: np.ndarray, n_rows: int) -> float:
    """max_abs(m - identity) for the square matrix whose cells (rows, cols)
    hold ``values``, one value per cell; a diagonal cell it does not hold
    reads 1."""
    diagonal = np.flatnonzero(rows == cols)
    size = np.abs(values)
    size[diagonal] = np.abs(values[diagonal] - 1)
    worst = float(size.max()) if size.size else 0.0
    return max(worst, 1.0) if len(diagonal) < n_rows else worst


# -- bracket states and overlaps --------------------------------------------


def index_tuples(n_modes: int, n_particles: int) -> np.ndarray:
    """Every tuple of N mode indices, one per row, in row-major order."""
    return np.indices((n_modes,) * n_particles).reshape(n_particles, n_modes**n_particles).T


def bracket_amplitudes(space: ModeSpace, mode_idx, sigma: int):
    """Bracket states of many coordinate tuples (rows of N mode indices) at
    once: the sector basis and, per row, ``_created_states`` (the index of the
    one basis state it is a multiple of, and the amplitude) over sqrt(N!)."""
    mode_idx = np.asarray(mode_idx, dtype=np.intp)
    _, n = mode_idx.shape
    basis = build_basis(space, n, check_sigma(sigma))
    index, amp = _created_states(basis, mode_idx)
    return basis, index, amp / math.sqrt(math.factorial(n))


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


def _permutation_sum(stack: np.ndarray, sigma: int) -> np.ndarray:
    """Per matrix of a (K, n, n) stack, the sum over permutations P of sigma^P
    times prod_i stack[:, i, P(i)]: its permanent (sigma=+1) or determinant
    (sigma=-1), by direct permutation expansion (deliberately brute force)."""
    k, n, _ = stack.shape
    rows = np.arange(n)
    total = np.zeros(k, dtype=np.result_type(stack, np.int64))
    for perm in permutations(range(n)):
        sign = 1 if sigma == 1 else perm_parity(perm)
        total += sign * stack[:, rows, list(perm)].prod(axis=1)
    return total


def overlap_oracle(bras, kets, sigma: int) -> np.ndarray:
    """First-quantized overlaps of K coordinate-tuple pairs, given as (K, N)
    and (K, N') arrays of coordinate labels (mode indices): delta_{N'N}/N!
    times the sigma-weighted permutation sum of each pair's coordinate delta
    matrix, i.e. a permanent (sigma=+1) or determinant (sigma=-1)."""
    check_sigma(sigma)
    bras, kets = np.asarray(bras, dtype=np.intp), np.asarray(kets, dtype=np.intp)
    if bras.ndim != 2 or kets.ndim != 2 or len(bras) != len(kets):
        raise ValueError(f"need two (K, N) label arrays, got shapes {bras.shape} and {kets.shape}")
    n = bras.shape[1]
    if kets.shape[1] != n:
        return np.zeros(len(bras))
    deltas = bras[:, :, None] == kets[:, None, :]  # (K, N, N) bools
    return _permutation_sum(deltas, sigma) / math.factorial(n)


# -- first-quantized symmetrizer and completeness ----------------------------


def symmetrizer_oracle(tensor: np.ndarray, sigma: int, probes: bool = False) -> np.ndarray:
    """(1/N!) sum over permutations of sigma^P times the permuted tensor; with
    ``probes`` the first axis lists tensors, each symmetrized on its own.

    This is the projector onto the sigma-symmetric subspace, used as the
    independent oracle for the bracket-state completeness relation.
    """
    check_sigma(sigma)
    tensor = np.asarray(tensor)
    lead = int(probes)
    n = tensor.ndim - lead
    out = np.zeros_like(tensor, dtype=np.complex128)
    for perm in permutations(range(n)):
        sign = 1.0 if sigma == 1 or perm_parity(perm) == 1 else -1.0
        out += sign * np.transpose(tensor, axes=(*range(lead), *(lead + p for p in perm)))
    return out / math.factorial(n)


def every_bracket(space: ModeSpace, n_particles: int, sigma: int):
    """``bracket_amplitudes`` of every coordinate tuple, in row-major tuple
    order; raises ``DimensionCapError`` past 500,000 tuples."""
    n_tuples = space.n_modes**n_particles
    if n_tuples > 500_000:
        raise DimensionCapError(f"{n_tuples} coordinate tuples is past desk scale")
    return bracket_amplitudes(space, index_tuples(space.n_modes, n_particles), sigma)


@kept_cache
def bracket_matrix(space: ModeSpace, n_particles: int, sigma: int) -> np.ndarray:
    """Dense (sector dim) x (n_modes**N) matrix whose columns are the bracket
    states for every coordinate tuple, in row-major tuple order: the dense
    reference for ``project_onto_symmetric``.  Raises ``DimensionCapError``
    past 500,000 tuples, or when the matrix and its conjugate transpose would
    not fit in the memory the process can still take (``_available_memory``)."""
    basis, index, amp = every_bracket(space, n_particles, sigma)
    needed = _BRACKET_COPIES * 16 * basis.dim * len(index)
    free = _available_memory()
    if free is not None and needed > free:
        raise DimensionCapError(
            f"the bracket matrix of {basis.dim} states x {len(index)} coordinate tuples needs an"
            f" estimated {needed:,} bytes of dense storage; {free:,} bytes of memory are free"
        )
    out = np.zeros((basis.dim, len(index)), dtype=np.complex128)
    live = amp != 0
    out[index[live], np.nonzero(live)[0]] = amp[live]
    return out


def project_onto_symmetric(brackets, tensor: np.ndarray) -> np.ndarray:
    """Apply the resolution sum sum_x |x><x| (one measure-weighted coordinate
    sum per slot) to a first-quantized probe tensor, or to each of a stack
    of them along a leading axis, given ``every_bracket`` of its sector.
    Column x of the bracket matrix B holds one real entry, amp[x] in row
    index[x], so B v is a bincount and B+ u is amp * u[index]; probe k of a
    stack takes the bins from k * dim on, so each bin sums the same terms
    in the same order as a probe on its own."""
    basis, index, amp = brackets
    shape = (basis.space.n_modes,) * basis.n_particles
    tensor = np.asarray(tensor, dtype=np.complex128)
    if tensor.ndim - len(shape) not in (0, 1) or tensor.shape[tensor.ndim - len(shape):] != shape:
        raise ValueError(f"probe must have shape {shape}, or a stack of them along a leading axis")
    stack = tensor.reshape(-1, len(index))
    bins = (np.arange(len(stack))[:, None] * basis.dim + index).ravel()
    terms = (amp * stack).ravel()
    state = np.bincount(bins, terms.real).astype(np.complex128)  # B v up to the last index used
    state.imag = np.bincount(bins, terms.imag)
    return (amp * state[bins].reshape(stack.shape)).reshape(tensor.shape)


def completeness_check(brackets, probe: np.ndarray) -> float:
    """Max-norm residual between the bracket-state projector and the
    first-quantized symmetrizer applied to the same probe, or the largest
    over a stack of probes along a leading axis, given ``every_bracket`` of
    the probes' sector."""
    probe = np.asarray(probe, dtype=np.complex128)
    projected = project_onto_symmetric(brackets, probe)
    oracle = symmetrizer_oracle(probe, brackets[0].sigma, probes=probe.ndim > brackets[0].n_particles)
    return max_abs(projected - oracle)
