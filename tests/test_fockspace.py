import math
import random
import tracemalloc
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    bracket_vector,
    identity_matrix,
    occ_apply,
    occupations,
    random_state,
    sparse_max_abs,
    state_coordinate_tensor,
    to_scipy,
)
from spinstat import fockspace
from spinstat.csr import CSR
from spinstat.fockspace import (
    DimensionCapError,
    StateVector,
    _apply_strings,
    bracket_amplitudes,
    bracket_matrix,
    build_basis,
    completeness_check,
    every_bracket,
    ladder_relation_residuals,
    matrix_family,
    matrix_of,
    max_abs,
    overlap_oracle,
    perm_parity,
    project_onto_symmetric,
    sector_dimension,
    symmetrizer_oracle,
)
from spinstat.hamiltonians import (
    OneBodySpec,
    TwoBodySpec,
    build_many_body,
    many_body_expr,
    mode_operators,
    one_particle_spectrum,
)
from spinstat.modes import Lattice, ModeSpace, SpinQuantum
from spinstat.opalgebra import LadderOp, OperatorExpr, OperatorTerm, create, destroy, normal_order
from spinstat.symmetry import SpinorRotation

SPACE4 = ModeSpace(Lattice.ring(2), SpinQuantum(1))  # 4 modes
RNG = np.random.default_rng(7)


def test_sector_dimensions():
    assert sector_dimension(4, 2, -1) == 6
    assert sector_dimension(4, 2, 1) == 10
    assert sector_dimension(4, 0, -1) == sector_dimension(4, 0, 1) == 1
    assert sector_dimension(4, 5, -1) == 0
    basisf = build_basis(SPACE4, 2, -1)
    basisb = build_basis(SPACE4, 2, 1)
    assert basisf.dim == 6 and basisb.dim == 10


def test_basis_enumeration_order():
    basis = build_basis(SPACE4, 1, -1)
    # the N=1 sector must coincide with the mode ordering
    for i in range(4):
        occ = [0] * 4
        occ[i] = 1
        assert basis.occ_tuple(i) == tuple(occ)
    basis2 = build_basis(SPACE4, 2, -1)
    assert basis2.occ_tuple(0) == (1, 1, 0, 0)
    assert basis2.occ_tuple(5) == (0, 0, 1, 1)
    counts = occupations(build_basis(SPACE4, 2, 1)).sum(axis=1)
    assert set(counts.tolist()) == {2}
    assert basis2.modes.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]


@pytest.mark.parametrize("lattice", [Lattice.ring(4), Lattice.grid2d(3)])
@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize("twos_s", [0, 1, 2])
def test_rank_inverts_enumeration(lattice, sigma, twos_s):
    space = ModeSpace(lattice, SpinQuantum(twos_s))
    for n in range(4):
        basis = build_basis(space, n, sigma)
        assert np.array_equal(basis.rank(basis.modes), np.arange(basis.dim))


KERNEL_SPACES = (
    ModeSpace(Lattice.ring(4), SpinQuantum(0)),
    ModeSpace(Lattice.ring(4), SpinQuantum(1)),
    ModeSpace(Lattice.grid2d(3), SpinQuantum(0)),
)


@st.composite
def ladder_batches(draw):
    """A sector, a few of its states and one ladder string per state."""
    space = draw(st.sampled_from(KERNEL_SPACES))
    sigma = draw(st.sampled_from((1, -1)))
    basis = build_basis(space, draw(st.integers(0, 3)), sigma)
    states = draw(st.lists(st.integers(0, basis.dim - 1), min_size=1, max_size=6))
    length = draw(st.integers(0, 5))
    factor = st.tuples(st.integers(0, space.n_modes - 1), st.booleans())
    strings = draw(st.lists(
        st.lists(factor, min_size=length, max_size=length),
        min_size=len(states), max_size=len(states),
    ))
    return basis, states, strings


def scalar_string(occ: tuple[int, ...], string, sigma: int):
    """A ladder string applied factor by factor with ``occ_apply``, rightmost
    first: (new occupation, amplitude), or None when the string vanishes."""
    factor = 1.0
    for idx, dag in reversed(string):
        res = occ_apply(occ, idx, dag, sigma)
        if res is None:
            return None
        occ, step = res
        factor *= step
    return occ, factor


def assert_kernel_rows(basis, states, strings, live, lists, amp):
    """Each kernel row against ``scalar_string``: ``live`` picks out exactly
    the rows whose reference survives, with no copy where every row does,
    and each survivor is the ascending creation list of the reference
    occupation, then empty slots."""
    empty = np.iinfo(basis.modes.dtype).max
    wants = [scalar_string(basis.occ_tuple(state), string, basis.sigma) for state, string in zip(states, strings)]
    survivors = [row for row, want in enumerate(wants) if want is not None]
    assert np.arange(len(wants))[live].tolist() == survivors
    assert isinstance(live, slice) == (len(survivors) == len(wants))
    assert len(lists) == len(amp) == len(survivors)
    for row, got, got_amp in zip(survivors, lists, amp):
        assert got_amp == wants[row][1]
        created = [m for m, n in enumerate(wants[row][0]) for _ in range(n)]
        assert got.tolist() == created + [empty] * (lists.shape[1] - len(created))


# one batch of length-3 strings on the first basis state, in which rows die at
# the first (rightmost), a middle and the last factor between rows that survive
_FERMION_DEATHS = [
    [(2, True), (1, False), (0, False)],  # survives
    [(3, True), (2, True), (5, False)],  # mode 5 empty: dies at the first factor
    [(2, True), (3, True), (1, False)],  # survives, with parity sign -1
    [(3, True), (0, True), (1, False)],  # mode 0 filled again: dies in the middle
    [(1, True), (4, True), (0, False)],  # mode 1 still filled: dies at the last
]
_BOSON_DEATHS = [
    [(1, True), (0, False), (0, False)],  # survives
    [(0, True), (0, True), (3, False)],  # mode 3 empty: dies at the first factor
    [(0, True), (2, False), (0, True)],  # mode 2 empty: dies in the middle
    [(0, True), (0, True), (0, False)],  # survives
    [(5, False), (0, False), (0, False)],  # mode 5 empty: dies at the last
]

# rows of the first three N = 2 states, each of whose strings dies at its
# first (rightmost) factor: a fermion annihilator on an empty mode or creator
# on a filled one, a boson annihilator on an empty mode
_FERMION_FIRST_DEATHS = [[(1, True), (5, False)], [(2, False), (0, True)], [(3, True), (6, False)]]
_BOSON_FIRST_DEATHS = [[(0, True), (7, False)], [(1, False), (5, False)], [(0, False), (6, False)]]


@settings(max_examples=300)
@given(ladder_batches())
@example((build_basis(KERNEL_SPACES[1], 1, -1), [0], [[(0, True)]]))  # Pauli exclusion
@example((build_basis(KERNEL_SPACES[1], 2, -1), [0], [[(1, False)]]))  # sign from mode 0
@example((build_basis(KERNEL_SPACES[2], 1, 1), [4], [[(3, False)]]))  # empty mode
@example((build_basis(KERNEL_SPACES[1], 2, -1), [0] * 5, _FERMION_DEATHS))
@example((build_basis(KERNEL_SPACES[1], 2, 1), [0] * 5, _BOSON_DEATHS))
@example((build_basis(KERNEL_SPACES[1], 2, -1), [], [[]]))  # a batch of zero rows
@example((build_basis(KERNEL_SPACES[1], 0, 1), [], [[]]))  # zero rows of zero slots
@example((build_basis(KERNEL_SPACES[1], 2, -1), [0, 5, 27], [[], [], []]))  # strings of length zero
@example((build_basis(KERNEL_SPACES[1], 2, 1), [0, 5, 35], [[], [], []]))
@example((build_basis(KERNEL_SPACES[1], 2, -1), [0, 1, 2], _FERMION_FIRST_DEATHS))
@example((build_basis(KERNEL_SPACES[1], 2, 1), [0, 1, 2], _BOSON_FIRST_DEATHS))
def test_kernel_matches_scalar_reference(batch):
    basis, states, strings = batch
    length = len(strings[0])
    modes = np.array([[idx for idx, _ in s] for s in strings], dtype=np.intp).reshape(len(states), length)
    daggers = np.array([[dag for _, dag in s] for s in strings], dtype=bool).reshape(len(states), length)
    live, lists, amp = _apply_strings(basis.modes[states], modes, daggers, basis.sigma)
    assert_kernel_rows(basis, states, strings, live, lists, amp)


@pytest.mark.parametrize("sigma", [1, -1])
def test_kernel_takes_a_batch_of_zero_rows(sigma):
    # every factor of an empty batch, on lists of zero and of two slots
    for n in (0, 2):
        basis = build_basis(KERNEL_SPACES[1], n, sigma)
        for length in range(4):
            strings = np.zeros((0, length), dtype=np.intp)
            live, lists, amp = _apply_strings(basis.modes[:0], strings, strings.astype(bool), sigma)
            assert live == slice(None) and [lists.shape, amp.shape] == [(0, n), (0,)]


@pytest.mark.parametrize("sigma", [1, -1])
def test_kernel_applies_every_hamiltonian_term_to_a_whole_sector(sigma):
    space = ModeSpace(Lattice.ring(4), SpinQuantum(1))
    basis = build_basis(space, 2, sigma)
    expr = many_body_expr(
        OneBodySpec(hop_t=1.0, onsite_u=(0.3, -0.2, 0.1, 0.0)), TwoBodySpec.from_dict({0: 4.0, 1: 1.0}),
        space, sigma,
    )
    by_length = {}
    for term in expr.terms:
        by_length.setdefault(len(term.factors), []).append([(space.index(f.mode), f.dagger) for f in term.factors])
    assert sorted(by_length) == [2, 4]
    for strings in by_length.values():  # every term on every basis row, one call per string length
        states = list(range(basis.dim)) * len(strings)
        rows = [s for s in strings for _ in range(basis.dim)]
        live, lists, amp = _apply_strings(
            np.tile(basis.modes, (len(strings), 1)),
            np.array([[idx for idx, _ in s] for s in rows], dtype=np.intp),
            np.array([[dag for _, dag in s] for s in rows], dtype=bool),
            sigma,
        )
        assert 0 < len(amp) < len(rows)
        assert_kernel_rows(basis, states, rows, live, lists, amp)


RANK_SPACES = (KERNEL_SPACES[1], KERNEL_SPACES[2])  # ring:4 2s=1 and grid2d:3 2s=0


@st.composite
def creation_lists(draw):
    """A space, a grade and a few creation lists of N = 0..4 modes in any
    order, with repeated modes only for sigma=+1."""
    space = draw(st.sampled_from(RANK_SPACES))
    sigma = draw(st.sampled_from((1, -1)))
    n = draw(st.integers(0, 4))
    one = st.lists(st.integers(0, space.n_modes - 1), min_size=n, max_size=n, unique=sigma == -1)
    return space, sigma, draw(st.lists(one, min_size=1, max_size=6))


@settings(max_examples=200)
@given(creation_lists())
@example((RANK_SPACES[0], 1, [[]]))  # N = 0: the vacuum
@example((RANK_SPACES[0], 1, [[5, 5, 5, 5]]))  # one run of four equal bosons
@example((RANK_SPACES[1], -1, [[8, 6, 3, 0]]))  # descending fermions
@example((RANK_SPACES[0], -1, [[2, 7, 2], [7, 2, 0]]))  # a fermion clash (amplitude 0) beside a live list
def test_creation_lists_are_ranked_from_the_list(batch):
    # each list's index is basis.rank of the list the kernel builds from the
    # vacuum with its creations, its amplitude is the kernel's bit for bit,
    # and bracket_amplitudes is that route over sqrt(N!)
    space, sigma, lists = batch
    created = np.array(lists, dtype=np.intp)
    n = created.shape[1]
    basis = build_basis(space, n, sigma)
    vacuum = np.empty((len(lists), 0), dtype=basis.modes.dtype)
    live, built, amp = _apply_strings(vacuum, created, np.ones(created.shape, dtype=bool), sigma)
    assert built.shape == (len(amp), n)
    index, created_amp = fockspace._created_states(basis, created)
    assert np.array_equal(index[live], basis.rank(built))
    kernel_amp = np.zeros(len(lists))  # a list the kernel drops has amplitude 0
    kernel_amp[live] = amp
    assert created_amp.tobytes() == kernel_amp.tobytes()
    want = np.zeros(len(lists), dtype=np.intp)
    want[live] = basis.rank(built)
    got_basis, got_index, got_amp = bracket_amplitudes(space, created, sigma)
    assert got_basis is basis and np.array_equal(got_index, want)
    assert got_amp.tobytes() == (kernel_amp / math.sqrt(math.factorial(n))).tobytes()


def test_dimension_cap(monkeypatch):
    monkeypatch.setattr(fockspace, "DEFAULT_DIMENSION_CAP", 5)
    with pytest.raises(DimensionCapError, match="over the cap 5"):
        build_basis(SPACE4, 2, 1)


def test_bracket_matrix_refuses_past_free_memory(monkeypatch):
    space = ModeSpace(Lattice.ring(4), SpinQuantum(1))
    fockspace.bracket_matrix.cache_clear()  # a cached matrix is not allocated again
    # the complex 28 x 64 matrix and its conjugate transpose: 2 * 16 * 28 * 64
    monkeypatch.setattr(fockspace, "_available_memory", lambda: 57_343)
    with pytest.raises(DimensionCapError, match="28 states x 64 coordinate tuples .* 57,344 bytes"):
        fockspace.bracket_matrix(space, 2, -1)
    monkeypatch.setattr(fockspace, "_available_memory", lambda: 57_344)
    assert fockspace.bracket_matrix(space, 2, -1).shape == (28, 64)
    fockspace.bracket_matrix.cache_clear()
    monkeypatch.setattr(fockspace, "_available_memory", lambda: None)
    assert fockspace.bracket_matrix(space, 2, -1).shape == (28, 64)


def test_cgroup_memory_left_takes_the_tightest_limit_up_the_tree(tmp_path):
    membership = tmp_path / "cgroup"
    membership.write_text("1:memory:/v1/only\n0::/a/b\n")  # a hybrid v1/v2 listing
    leaf = tmp_path / "a" / "b"
    leaf.mkdir(parents=True)

    def left():
        return fockspace._cgroup_memory_left(str(tmp_path), str(membership))

    assert left() is None  # no limit files
    (leaf / "memory.max").write_text("max\n")
    (leaf / "memory.current").write_text("500\n")
    assert left() is None  # no limit set
    (tmp_path / "memory.max").write_text("1000\n")
    (tmp_path / "memory.current").write_text("400\n")
    assert left() == 600  # the root's limit binds the leaf
    (leaf / "memory.max").write_text("800\n")
    assert left() == 300  # the tighter of the two
    membership.write_text("1:memory:/v1/only\n")
    assert left() is None  # in no v2 hierarchy


def test_available_memory_is_the_smallest_figure(monkeypatch):
    monkeypatch.setattr(fockspace, "_free_physical", lambda: 5_000)
    monkeypatch.setattr(fockspace, "_address_space_left", lambda: 3_000)
    monkeypatch.setattr(fockspace, "_cgroup_memory_left", lambda: None)
    assert fockspace._available_memory() == 3_000
    monkeypatch.setattr(fockspace, "_cgroup_memory_left", lambda: -10)  # over the limit already
    assert fockspace._available_memory() == 0
    for probe in ("_free_physical", "_address_space_left", "_cgroup_memory_left"):
        monkeypatch.setattr(fockspace, probe, lambda: None)
    assert fockspace._available_memory() is None


def test_state_vector_validation():
    basis = build_basis(SPACE4, 1, -1)
    with pytest.raises(ValueError):
        StateVector(basis, np.zeros(3))


def test_fermion_double_creation_is_zero():
    x = SPACE4.mode_at(0)
    vac, two = build_basis(SPACE4, 0, -1), build_basis(SPACE4, 2, -1)
    assert matrix_of(create(x, -1) * create(x, -1), vac, two).matrix.nnz == 0


def test_fermion_annihilate_empty_mode_is_zero():
    x, y = SPACE4.mode_at(0), SPACE4.mode_at(1)
    state = bracket_vector(SPACE4, (x,), -1)
    down = matrix_of(destroy(y, -1), state.basis, build_basis(SPACE4, 0, -1))
    assert np.linalg.norm(down.matrix.toarray() @ state.amplitudes) == 0.0


def test_boson_sqrt_factor_against_symbolic_oracle():
    # creating on n=2 must give sqrt(3); cross-checked through the symbolic
    # vacuum average <0| a^3 a+^3 |0> = 3! and the bracket normalizations
    x = SPACE4.mode_at(0)
    two = bracket_vector(SPACE4, (x, x), 1)  # exactly the n=2 occupation state
    assert np.linalg.norm(two.amplitudes) == pytest.approx(1.0)
    up = matrix_of(create(x, 1), two.basis, build_basis(SPACE4, 3, 1))
    three = np.linalg.norm(up.matrix.toarray() @ two.amplitudes)
    assert three == pytest.approx(math.sqrt(3.0))
    string = OperatorExpr.identity(1)
    for _ in range(3):
        string = string * destroy(x, 1)
    for _ in range(3):
        string = string * create(x, 1)
    # the vacuum average is the identity coefficient of the canonical form
    avg = next(t.coeff for t in normal_order(string).terms if not t.factors)
    assert avg == pytest.approx(6.0)
    # <3|a+|2> = <0|a^3 a+^3|0> / sqrt(2! * 3!) with the bracket prefactors
    assert three == pytest.approx(abs(avg) / math.sqrt(math.factorial(2) * math.factorial(3)))


@pytest.mark.parametrize("sigma", [1, -1])
def test_ladder_matrix_adjointness(sigma):
    basis2 = build_basis(SPACE4, 2, sigma)
    basis3 = build_basis(SPACE4, 3, sigma)
    for mode in SPACE4.modes:
        u = random_state(basis3, RNG)
        v = random_state(basis2, RNG)
        up = matrix_of(create(mode, sigma), basis2, basis3).matrix.toarray()
        down = matrix_of(destroy(mode, sigma), basis3, basis2).matrix.toarray()
        lhs = np.vdot(u.amplitudes, up @ v.amplitudes)
        rhs = np.vdot(down @ u.amplitudes, v.amplitudes)
        assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("sigma", [1, -1])
def test_matrix_commutation_relations(sigma):
    for n in range(3):
        basis = build_basis(SPACE4, n, sigma)
        eye = identity_matrix(basis)
        for a in SPACE4.modes:
            for b in SPACE4.modes:
                comm = destroy(a, sigma) * create(b, sigma) - sigma * (
                    create(b, sigma) * destroy(a, sigma)
                )
                mat = to_scipy(matrix_of(comm, basis, basis).matrix)
                delta = 1.0 if a == b else 0.0
                assert sparse_max_abs(mat - delta * eye) <= 1e-12


@pytest.mark.parametrize("sigma", [1, -1])
def test_ladder_relation_residuals_of_broken_sets(sigma):
    # [2 a0, (2 a0)+]_sigma = 4 misses delta = 1 by 3; a mode listed twice
    # gives [a0, a0+]_sigma = 1 where the two entries' delta wants 0
    a0 = destroy(SPACE4.mode_at(0), sigma)
    scaled = ladder_relation_residuals(SPACE4, [2 * a0], sigma, 3)
    repeated = ladder_relation_residuals(SPACE4, [a0, a0], sigma, 3)
    assert scaled == pytest.approx((3.0, 0.0, 0.0), abs=1e-12)
    assert repeated == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
    if sigma == -1:  # no sqrt factors: every entry is exact
        assert scaled == (3.0, 0.0, 0.0)
        assert repeated == (1.0, 0.0, 0.0)


RING4 = ModeSpace(Lattice.ring(4), SpinQuantum(1))  # 8 modes


def naive_ladder_residuals(space, annihilators, sigma, n_max):
    """The three graded relations pair by pair: every (p, q) and sector gets
    products of its own, with no stacking and no mirror skip."""
    bases = [build_basis(space, n, sigma) for n in range(n_max + 3)]
    down = [{n: to_scipy(matrix_of(c, bases[n], bases[n - 1]).matrix) for n in range(1, n_max + 2)}
            for c in annihilators]
    up = [{n: to_scipy(matrix_of(c.dagger(), bases[n], bases[n + 1]).matrix) for n in range(n_max + 2)}
          for c in annihilators]
    mixed = ann = cre = 0.0
    for p, q in product(range(len(annihilators)), repeat=2):
        for n in range(n_max + 1):
            rel = down[p][n + 1] @ up[q][n]
            if n:
                rel = rel - sigma * (up[q][n - 1] @ down[p][n])
            if p == q:
                rel = rel - identity_matrix(bases[n])
            mixed = max(mixed, sparse_max_abs(rel))
            if n >= 2:
                rel = down[p][n - 1] @ down[q][n] - sigma * (down[q][n - 1] @ down[p][n])
                ann = max(ann, sparse_max_abs(rel))
            rel = up[p][n + 1] @ up[q][n] - sigma * (up[q][n + 1] @ up[p][n])
            cre = max(cre, sparse_max_abs(rel))
    return mixed, ann, cre


def ladder_set(kind, sigma):
    """Site modes, eigenmodes, or site modes whose c_0 is replaced by
    c_0 + c+_1 c_1 c_2, which sigma-commutes with neither c_1 nor c+_1."""
    site = [destroy(m, sigma) for m in RING4.modes]
    if kind == "eigen":
        return mode_operators(RING4, one_particle_spectrum(OneBodySpec(), RING4.lattice, RING4.spin)[1], sigma)
    if kind == "broken":
        return [site[0] + create(RING4.mode_at(1), sigma) * site[1] * site[2]] + site[1:]
    return site


# budget 1: one-pair tiles; 1000: uneven tiles (8 = 5 + 3 or 3 + 3 + 2 on
# some sectors); 2**62: one tile per relation and sector
BUDGETS = [1, 1000, 1 << 62]


@pytest.mark.parametrize("kind", ["site", "eigen", "broken"])
@pytest.mark.parametrize("sigma", [1, -1])
def test_ladder_relation_tiles_match_pair_products(monkeypatch, kind, sigma):
    ops = ladder_set(kind, sigma)
    want = naive_ladder_residuals(RING4, ops, sigma, 3)
    for budget in BUDGETS:
        monkeypatch.setattr(fockspace, "_PRODUCT_ENTRIES", budget)
        assert ladder_relation_residuals(RING4, ops, sigma, 3) == want  # bit for bit


@pytest.mark.parametrize("sigma", [1, -1])
def test_relation_tiles_of_one_pattern_share_one_expansion(monkeypatch, sigma):
    # the 8 eigenmodes of RING4 have 4 sparsity patterns, so one-pair tiles
    # group: fewer expansions than tiles, and the same residuals as above
    plans, tiles = [], []
    plan_of, worst = fockspace._RelationPlan.of.__func__, fockspace._RelationPlan.worst
    monkeypatch.setattr(fockspace._RelationPlan, "of", classmethod(lambda cls, *a: plans.append(a) or plan_of(cls, *a)))
    monkeypatch.setattr(fockspace._RelationPlan, "worst", lambda self, *a, **k: tiles.append(a) or worst(self, *a, **k))
    monkeypatch.setattr(fockspace, "_PRODUCT_ENTRIES", 1)
    ops = ladder_set("eigen", sigma)
    assert ladder_relation_residuals(RING4, ops, sigma, 3) == naive_ladder_residuals(RING4, ops, sigma, 3)
    assert 0 < len(plans) < len(tiles) / 2


def test_layout_ids_group_equal_sparsity_patterns():
    family = matrix_family(ladder_set("eigen", 1), [(build_basis(RING4, 1, 1), build_basis(RING4, 0, 1))])[0]
    members = [family.rows(p, p + 1) for p in range(len(family))]
    ids = fockspace._layout_ids(members)
    for p, q in product(range(len(members)), repeat=2):
        same = np.array_equal(members[p].indices, members[q].indices) and np.array_equal(members[p].indptr, members[q].indptr)
        assert (ids[p] == ids[q]) == same
    assert sorted(set(ids)) == list(range(4))
    assert fockspace._layout_ids(members[:1] + [family.rows(0, 2)]) == [0, 1]  # another shape, another pattern


@pytest.mark.parametrize("budget", [1, 1 << 62], ids=["pair-tiles", "one-tile"])
@pytest.mark.parametrize("sigma", [1, -1])
def test_like_relation_failures_are_caught(monkeypatch, budget, sigma):
    # a mirror term taken from the block itself instead of its (q, p) image
    # would read 0 here for bosons
    monkeypatch.setattr(fockspace, "_PRODUCT_ENTRIES", budget)
    _, ann, cre = ladder_relation_residuals(RING4, ladder_set("broken", sigma), sigma, 3)
    assert ann >= 1.0
    assert cre >= 1.0


def mixed_family(sigma):
    """Site annihilators of RING4 and two that add a three-factor term, before
    and after their single one, and the zero expression: the kernel takes
    terms ascending by length, whichever order an expression lists them in."""
    site = [destroy(m, sigma) for m in RING4.modes]
    extra = create(RING4.mode_at(1), sigma) * site[1] * site[2]
    return [extra + site[0], site[3] + extra, *site[4:], OperatorExpr.zero(sigma)]


def csr_arrays(m):
    return m.indptr.tolist(), m.indices.tolist(), m.data.tolist()


def csr_bytes(m):
    return m.shape, [(a.dtype, a.tobytes()) for a in (m.indptr, m.indices, m.data)]


@pytest.mark.parametrize("sigma", [1, -1])
def test_family_blocks_are_each_matrix_of_bit_for_bit(monkeypatch, sigma):
    # sectors in no order, and for fermions N = 9 of 8 modes, which has no state
    sectors = [(build_basis(RING4, n, sigma), build_basis(RING4, n - 1, sigma))
               for n in ((3, 9, 1, 4, 2) if sigma == -1 else (3, 1, 2, 4))]
    default = fockspace.JOIN_ENTRIES
    for exprs in (ladder_set("site", sigma), ladder_set("eigen", sigma), mixed_family(sigma)):
        alone = [matrix_family(exprs, [sector])[0] for sector in sectors]
        sizes = [sum(len(e.terms) for e in exprs) * d.dim + len(exprs) * c.dim for d, c in sectors]
        # every sector in one join, then a budget that joins the second and
        # third sectors and leaves the others alone
        for budget, pieces in ((default, 1), (sizes[1] + sizes[2], len(sectors) - 1)):
            monkeypatch.setattr(fockspace, "JOIN_ENTRIES", budget)
            assert len(fockspace.joined_pieces(sizes)) == pieces
            families = matrix_family(exprs, sectors)
            assert [csr_bytes(f.matrix) for f in families] == [csr_bytes(f.matrix) for f in alone]
            assert [csr_arrays(f.matrix) for f in families] == [csr_arrays(f.matrix) for f in alone]
        for family, (domain, codomain) in zip(alone, sectors):
            assert len(family) == len(exprs)
            assert family.matrix.shape == (len(exprs) * codomain.dim, domain.dim)
            for p, expr in enumerate(exprs):
                block = family.rows(p, p + 1)
                assert csr_arrays(block) == csr_arrays(matrix_of(expr, domain, codomain).matrix)
                if block.nnz:  # a row range shares the stack's entries
                    assert np.shares_memory(block.data, family.matrix.data)
                    assert np.shares_memory(block.indices, family.matrix.indices)
            assert family.rows(0, len(exprs)) is family.matrix


@pytest.mark.parametrize("sigma", [1, -1])
def test_family_build_reads_each_factor_mode_once(monkeypatch, sigma):
    # the prefilter keys and the kernel strings come from one pass over the
    # terms: one ModeSpace.index call per factor in a matrix_family call,
    # whether its sectors make one join or one join each
    ops = ladder_set("eigen", sigma)
    sectors = [(build_basis(RING4, n, sigma), build_basis(RING4, n - 1, sigma)) for n in (3, 2, 1)]
    factors = sum(len(term.factors) for op in ops for term in op.terms)
    calls, index = [], ModeSpace.index
    monkeypatch.setattr(ModeSpace, "index", lambda self, mode: calls.append(mode) or index(self, mode))
    for budget, joins in ((fockspace.JOIN_ENTRIES, 1), (1, len(sectors))):
        monkeypatch.setattr(fockspace, "JOIN_ENTRIES", budget)
        assert len(fockspace.joined_pieces(fockspace._join_sizes(ops, sectors))) == joins
        calls.clear()
        matrix_family(ops, sectors)
        assert len(calls) == factors


def random_term(draw, space, shift):
    """One term of particle shift ``shift``: |shift| + 2k ladder factors (k <= 1,
    or 2 at no shift) in any order, so the rightmost may be a creator, with
    modes drawn from a small pool so that they repeat, and a coefficient that
    may be zero."""
    length = abs(shift) + 2 * draw(st.integers(0, 1 + (shift == 0)))
    creators = (length + shift) // 2
    daggers = draw(st.permutations([True] * creators + [False] * (length - creators)))
    pool = draw(st.lists(st.integers(0, space.n_modes - 1), min_size=1, max_size=3))
    modes = [space.mode_at(draw(st.sampled_from(pool))) for _ in daggers]
    coeff = draw(st.sampled_from((1.0, -1.0, 0.0, 0.5, 2.0 - 1.5j, 1j)))
    return OperatorTerm(complex(coeff), tuple(LadderOp(m, d) for m, d in zip(modes, daggers)))


@st.composite
def random_families(draw):
    """One to three sector pairs of one particle shift and a list of
    expressions between them, each of up to four random terms (none at all
    for some); past n_modes fermions a domain sector is empty."""
    space = draw(st.sampled_from(KERNEL_SPACES))
    sigma = draw(st.sampled_from((1, -1)))
    shift = draw(st.integers(-2, 2))
    empty = st.just(space.n_modes + 1) if sigma == -1 else st.nothing()
    ns = draw(st.lists(st.integers(max(0, -shift), 3) | empty, min_size=1, max_size=3))
    exprs = [
        OperatorExpr(sigma, tuple(random_term(draw, space, shift) for _ in range(draw(st.integers(0, 4)))))
        for _ in range(draw(st.integers(0, 3)))
    ]
    return [(build_basis(space, n, sigma), build_basis(space, n + shift, sigma)) for n in ns], exprs


def summed_in_input_order(rows, cols, vals, shape) -> CSR:
    """The CSR of the entries (rows, cols, vals), cells ordered by row and
    then column, the entries of one cell summed one at a time in input
    order from the first: a lone entry keeps its bits and a sum that cancels
    stays an explicit zero, as ``csr.from_coo`` promises, whatever the
    length of a row."""
    cells = {}
    for cell, value in zip(zip(np.asarray(rows).tolist(), np.asarray(cols).tolist()), vals):
        cells[cell] = cells[cell] + value if cell in cells else value
    order = sorted(cells)
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.add.at(indptr, [r + 1 for r, _ in order], 1)
    return CSR(
        np.cumsum(indptr), np.array([c for _, c in order], dtype=np.int64),
        np.array([cells[cell] for cell in order], dtype=np.complex128), shape,
    )


def reference_matrix(expr, domain, codomain):
    """The matrix of ``expr`` with every term applied to every domain column by
    the scalar ``occ_apply``, its entries listed in the kernel's term order
    (ascending by length) and summed in that order (``summed_in_input_order``)."""
    space, where = domain.space, {codomain.occ_tuple(i): i for i in range(codomain.dim)}
    rows, cols, coeffs, amps = [], [], [], []
    for term in sorted(expr.terms, key=lambda t: len(t.factors)):
        string = [(space.index(f.mode), f.dagger) for f in term.factors]
        for j in range(domain.dim):
            hit = scalar_string(domain.occ_tuple(j), string, domain.sigma)
            if hit is not None:
                rows.append(where[hit[0]])
                cols.append(j)
                coeffs.append(term.coeff)
                amps.append(hit[1])
    vals = np.array(coeffs, dtype=np.complex128) * np.array(amps, dtype=np.float64)
    return summed_in_input_order(rows, cols, vals, (codomain.dim, domain.dim))


def csr_bits(m):
    return m.indptr.tolist(), m.indices.tolist(), m.data.tobytes()


def _example_family(space, sigma, ns, shift, *terms):
    """An ``@example`` input on the sectors N -> N + shift for N in ``ns``:
    terms given as (coefficient, [(mode index, dagger), ...])."""
    expr = OperatorExpr(sigma, tuple(
        OperatorTerm(complex(c), tuple(LadderOp(space.mode_at(i), d) for i, d in string)) for c, string in terms
    ))
    sectors = [(build_basis(space, n, sigma), build_basis(space, n + shift, sigma)) for n in ns]
    return sectors, [expr, OperatorExpr.zero(sigma)]


# a+(0) a(m) for each of the 8 modes, three times over: row 0 of N = 1 holds
# 24 entries, three per cell and eight apart, whose sum depends on their
# order (1e16 + 1 - 1e16 is 0, 1e16 - 1e16 + 1 is 1).  scipy's COO -> CSR
# sorts such a row unstably (std::sort past 16 entries) and sums it in
# another order.
_LONG_ROW = tuple(
    (coeff, [(0, True), (m, False)]) for coeff in (1e16, 1.0 + 0.5j, -1e16) for m in range(8)
)

_EDGE_TERMS = (
    (0.5, []),  # no factors: every column
    (1.0, [(1, False), (1, True)]),  # rightmost a creator, mode repeated
    (0.0, [(0, True), (2, False)]),  # zero coefficient
    (2.0 - 1.5j, [(2, True), (1, True), (1, False), (2, False)]),
)


@settings(max_examples=150)
@given(random_families())
@example(_example_family(KERNEL_SPACES[0], 1, (2,), 0, *_EDGE_TERMS))
@example(_example_family(KERNEL_SPACES[0], -1, (2,), 0, *_EDGE_TERMS))
@example(_example_family(KERNEL_SPACES[0], -1, (5,), -2, (1.0, [(0, False), (1, False)])))  # empty domain
@example(_example_family(KERNEL_SPACES[1], 1, (3, 0, 2, 1), 0, *_EDGE_TERMS))  # one join of four sectors
@example(_example_family(KERNEL_SPACES[0], -1, (2, 5, 3), -2, (1.0, [(0, False), (1, False)])))
@example(_example_family(KERNEL_SPACES[1], 1, (1, 2), 0, *_LONG_ROW))  # rows of more than 16 entries
def test_family_blocks_match_every_column_scalar_reference(family_input):
    sectors, exprs = family_input
    families = matrix_family(exprs, sectors)
    assert len(families) == len(sectors)
    for family, (domain, codomain) in zip(families, sectors):
        assert (family.domain, family.codomain) == (domain, codomain)
        assert family.matrix.shape == (len(exprs) * codomain.dim, domain.dim)
        for p, expr in enumerate(exprs):
            assert csr_bits(family.rows(p, p + 1)) == csr_bits(reference_matrix(expr, domain, codomain))


def every_pair_matrix(expr, domain, codomain):
    """The matrix of ``expr`` from one kernel call per term on every domain
    column, nothing filtered out first: its entries in the kernel's term order
    (ascending by length), columns ascending, summed in that order
    (``summed_in_input_order``)."""
    space, dim = domain.space, domain.dim
    rows, cols, vals = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=complex)]
    for term in sorted(expr.terms, key=lambda t: len(t.factors)) if dim else ():  # no rows to rank
        length = len(term.factors)
        live, new, amp = _apply_strings(
            domain.modes,
            np.array([[space.index(f.mode) for f in term.factors]] * dim, dtype=np.intp).reshape(dim, length),
            np.array([[f.dagger for f in term.factors]] * dim, dtype=bool).reshape(dim, length),
            domain.sigma,
        )
        rows.append(codomain.rank(new[:, :codomain.n_particles]))
        cols.append(np.arange(dim)[live])
        vals.append(term.coeff * amp)
    return summed_in_input_order(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), (codomain.dim, dim))


_REPEAT = [(0, False), (0, False)]  # a(m) a(m): a fermion never survives it, a boson needs n_m >= 2


@settings(max_examples=150)
@given(random_families())
@example(_example_family(KERNEL_SPACES[0], 1, (2, 3), -2, (1.0, _REPEAT)))  # n_m = 1 dies, n_m = 2 and 3 live
@example(_example_family(KERNEL_SPACES[0], -1, (2, 3), -2, (1.0, _REPEAT)))  # the fermion repeat
@example(_example_family(KERNEL_SPACES[1], -1, (2, 3), -2, (1.0, [(2, False), (5, False)])))  # a(p) a(q)
@example(_example_family(KERNEL_SPACES[1], 1, (2, 3), -2, (1.0, [(2, False), (5, False)]), (2.0, _REPEAT)))
@example(_example_family(  # the vacuum: lists of width 0, every grade of first factor
    KERNEL_SPACES[0], -1, (0,), 0, (0.5, []), (1.0, [(1, True), (2, False)]), (1.0, [(1, False), (1, True)]),
))
@example(_example_family(KERNEL_SPACES[0], 1, (0,), 1, (1.0, [(3, True)]), (1.0, [(1, True), (1, True), (1, False)])))
@example(_example_family(  # an empty fermion sector beside a full one in one join
    KERNEL_SPACES[0], -1, (5, 2), 0, (1.0, [(1, True), (1, False)]), (1.0, [(1, False), (2, True)]),
))
@example(_example_family(KERNEL_SPACES[1], -1, (1, 2), 0, *_LONG_ROW))  # rows of more than 16 entries
def test_prefilter_matches_a_pass_of_every_term_on_every_column(family_input):
    # only the (term, column) pairs whose first annihilations all find a
    # particle enter the kernel; the matrix is that of a pass of every pair
    sectors, exprs = family_input
    for family, (domain, codomain) in zip(matrix_family(exprs, sectors), sectors):
        for p, expr in enumerate(exprs):
            assert csr_bits(family.rows(p, p + 1)) == csr_bits(every_pair_matrix(expr, domain, codomain))


RING64 = ModeSpace(Lattice.ring(64), SpinQuantum(1))  # 128 modes: mode 127 is the last int8 value


def reference_lift(basis, perm, mode_phases):
    """The lift of the mode map m -> perm[m] with creation phases, built with
    ``occ_apply`` from the vacuum: each state's image index and phase."""
    m = basis.space.n_modes
    where = {tuple(occ): i for i, occ in enumerate(occupations(basis).tolist())}
    image, phase = [], []
    for created in basis.modes.tolist():
        occ, amp = (0,) * m, 1.0 + 0j
        for mode in reversed(created):
            occ, step = occ_apply(occ, perm[mode], True, basis.sigma)
            amp *= step * mode_phases[mode]
        image.append(where[occ])
        phase.append(amp / math.sqrt(math.prod(math.factorial(n) for n in occ)))
    return np.array(image), np.array(phase)


@pytest.mark.parametrize("sigma", [1, -1])
def test_lists_at_128_modes_keep_the_empty_marker_apart_from_mode_127(sigma):
    # the empty marker is the largest value of the list dtype; at 128 modes
    # int8's 127 would be mode 127, so the lists are int16
    basis = build_basis(RING64, 2, sigma)
    assert basis.modes.dtype == np.int16 and basis.modes.max() == 127
    states = [basis.dim - 1, int(basis.rank(np.array([[0, 127]]))[0]), int(basis.rank(np.array([[126, 127]]))[0])]
    # one batch of length-2 strings, every dagger pattern, on and around mode 127
    strings = [
        [(127, True), (127, False)], [(127, False), (126, True)], [(126, True), (127, True)],
        [(127, False), (126, False)], [(0, False), (127, True)], [(125, True), (126, False)],
    ]
    rows = [(state, string) for state in states for string in strings]
    modes = np.array([[idx for idx, _ in string] for _, string in rows], dtype=np.intp)
    daggers = np.array([[dag for _, dag in string] for _, string in rows], dtype=bool)
    live, lists, amp = _apply_strings(basis.modes[[state for state, _ in rows]], modes, daggers, sigma)
    assert lists.shape == (len(amp), 4)  # N = 2 and the two creations of one string
    assert 0 < len(amp) < len(rows)
    assert_kernel_rows(basis, [state for state, _ in rows], [string for _, string in rows], live, lists, amp)
    # the one-step rotation's lift, against occ_apply from the vacuum
    rot = SpinorRotation(RING64, 1)
    phases = np.conj(rot.field_phases)
    lift = fockspace.sector_lift(basis, rot.mode_permutation, phases)
    image, phase = reference_lift(basis, rot.mode_permutation, phases)
    assert np.array_equal(lift.image, image)
    assert np.max(np.abs(lift.phase - phase)) <= 1e-15
    # one join of sectors with N = 0, 2 and 1: each domain's lists padded to N = 2
    sectors = [(build_basis(RING64, n, sigma),) * 2 for n in (0, 2, 1)]
    a, c = (lambda m: create(RING64.mode_at(m), sigma)), (lambda m: destroy(RING64.mode_at(m), sigma))
    exprs = [a(127) * c(126) + a(0) * c(127), a(127) * a(126) * c(0) * c(127)]
    assert len(fockspace.joined_pieces(fockspace._join_sizes(exprs, sectors))) == 1
    for family, (domain, codomain) in zip(matrix_family(exprs, sectors), sectors):
        for p, expr in enumerate(exprs):
            assert csr_bits(family.rows(p, p + 1)) == csr_bits(reference_matrix(expr, domain, codomain))


def test_hamiltonian_build_sends_only_rows_whose_first_annihilations_survive(monkeypatch):
    # ring:10, 2s=1, sigma=-1, N=3 (1,140 states) with V = {0: 4, 1: 1} and a
    # seeded on-site potential: 180 terms, which over every column would be
    # 205,200 kernel rows; 30,780 where each term's rightmost factor survives,
    # and 12,060 where both annihilators of a+ a+ a a find their particles
    rng = random.Random(7)
    space = ModeSpace(Lattice.ring(10), SpinQuantum(1))
    spec1 = OneBodySpec(hop_t=1.0, onsite_u=tuple(rng.uniform(-1.0, 1.0) for _ in range(10)))
    basis = build_basis(space, 3, -1)
    calls, kernel = [], fockspace._apply_strings

    def counted(occ, modes, daggers, sigma):
        out = kernel(occ, modes, daggers, sigma)
        calls.append((len(occ), len(out[2])))
        return out

    monkeypatch.setattr(fockspace, "_apply_strings", counted)
    build_many_body(spec1, TwoBodySpec.from_dict({0: 4.0, 1: 1.0}), basis)
    assert sum(rows for rows, _ in calls) == 12_060
    assert sum(survivors for _, survivors in calls) == 11_340
    assert max(rows for rows, _ in calls) <= fockspace._KERNEL_ROWS


def relation_peak(sigma):
    """tracemalloc peak of the CLI-default eigenmode relations (ring:4, 2s=1, n_max=3)."""
    ops = mode_operators(RING4, one_particle_spectrum(OneBodySpec(), RING4.lattice, RING4.spin)[1], sigma)
    for n in range(6):
        build_basis(RING4, n, sigma)  # the bases are cached, not part of the check
    tracemalloc.start()
    try:
        ladder_relation_residuals(RING4, ops, sigma, 3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("sigma", [1, -1])
def test_relation_tiles_stay_within_the_memory_of_pair_products(monkeypatch, sigma):
    # _PRODUCT_ENTRIES bounds each tile's product.  Measured against one pair
    # per tile in the same process, the default reads about 1.0x (bosons)
    # and 1.3x (fermions); a cap of 2**13 reads 2.2x for fermions and 2**20
    # over 4x for both.  The default runs first, so one-time caching only
    # raises its side.
    peak = relation_peak(sigma)
    monkeypatch.setattr(fockspace, "_PRODUCT_ENTRIES", 1)
    assert peak <= 1.6 * relation_peak(sigma)


def family_peak(exprs, sectors, joined):
    """tracemalloc peak of the families of ``exprs`` on ``sectors``, built in
    one ``matrix_family`` call or one sector at a time, largest first, every
    family held to the end either way."""
    tracemalloc.start()
    try:
        if joined:
            held = matrix_family(exprs, sectors)
        else:
            held = [matrix_family(exprs, [s])[0] for s in sorted(sectors, key=lambda s: -s[0].dim)]
        assert len(held) == len(sectors)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("sigma", [1, -1])
def test_joined_family_builds_stay_within_the_memory_of_one_sector_at_a_time(sigma):
    # the ladder families of ring:8, 2s=1 on N = 0..6 (the commutator suite at
    # n_max = 5): the larger sectors are each past JOIN_ENTRIES and built
    # alone, the smaller ones joined.  A join's own peak is bounded by the
    # budget, not by the sectors, so it shows only where the held families
    # are small: the joined build reads 1.00x (bosons) and 1.00-1.02x
    # (fermions) of one sector at a time; on ring:4, where every sector
    # joins, up to 2.3x of a peak of about 0.1 MB.
    space = ModeSpace(Lattice.ring(8), SpinQuantum(1))
    for n in range(8):
        build_basis(space, n, sigma)  # the bases are cached, not part of the check
    annihilators = [destroy(mode, sigma) for mode in space.modes]
    tops = range(6, -1, -1)
    raising = [(build_basis(space, n, sigma), build_basis(space, n + 1, sigma)) for n in tops]
    lowering = [(build_basis(space, n, sigma), build_basis(space, n - 1, sigma)) for n in tops if n]
    for exprs, sectors in (([a.dagger() for a in annihilators], raising), (annihilators, lowering)):
        sizes = [len(exprs) * (d.dim + c.dim) for d, c in sectors]
        assert 1 < len(fockspace.joined_pieces(sizes)) < len(sectors)  # some sectors alone, some joined
        assert family_peak(exprs, sectors, joined=True) <= 1.05 * family_peak(exprs, sectors, joined=False)


def test_matrix_of_identity_and_number():
    basis = build_basis(SPACE4, 2, 1)
    assert sparse_max_abs(to_scipy(matrix_of(OperatorExpr.identity(1), basis, basis).matrix)
                          - identity_matrix(basis)) == 0.0
    for i, mode in enumerate(SPACE4.modes):
        num = matrix_of(create(mode, 1) * destroy(mode, 1), basis, basis).matrix.toarray()
        # brute force: the diagonal occupation count of mode i
        want = np.diag([basis.occ_tuple(j)[i] for j in range(basis.dim)]).astype(complex)
        assert np.max(np.abs(num - want)) <= 1e-12  # sqrt(n)*sqrt(n) rounds


def test_matrix_of_rejects_bad_sectors():
    basis1 = build_basis(SPACE4, 1, -1)
    basis2 = build_basis(SPACE4, 2, -1)
    x = SPACE4.mode_at(0)
    with pytest.raises(ValueError):
        matrix_of(destroy(x, -1), basis1, basis1)  # shift -1 on equal sectors
    mixed = destroy(x, -1) + OperatorExpr.identity(-1)
    with pytest.raises(ValueError):
        matrix_of(mixed, basis2, basis1)
    with pytest.raises(ValueError):
        matrix_of(destroy(x, 1), basis2, basis1)  # grade mismatch


def test_matrix_adjoint_matches_formal_adjoint():
    basis1 = build_basis(SPACE4, 1, -1)
    basis2 = build_basis(SPACE4, 2, -1)
    x, y = SPACE4.mode_at(0), SPACE4.mode_at(2)
    e = (1 + 2j) * (create(x, -1) * create(y, -1) * destroy(y, -1))
    m = matrix_of(e, basis1, basis2)
    m_dag = matrix_of(e.dagger(), basis2, basis1)
    assert sparse_max_abs(to_scipy(m.matrix).conj().T - to_scipy(m_dag.matrix)) <= 1e-14


@pytest.mark.parametrize("sigma", [1, -1])
def test_bracket_state_swap(sigma):
    x, y = SPACE4.mode_at(0), SPACE4.mode_at(3)
    a = bracket_vector(SPACE4, (x, y), sigma)
    b = bracket_vector(SPACE4, (y, x), sigma)
    assert np.max(np.abs(b.amplitudes - sigma * a.amplitudes)) <= 1e-15


def test_bracket_state_pauli_zero():
    x = SPACE4.mode_at(1)
    assert not bracket_vector(SPACE4, (x, x), -1).amplitudes.any()


def test_bracket_state_single_particle():
    for i, mode in enumerate(SPACE4.modes):
        state = bracket_vector(SPACE4, (mode,), 1)
        want = np.zeros(4, dtype=complex)
        want[i] = 1.0
        assert np.array_equal(state.amplitudes, want)


@pytest.mark.parametrize("sigma", [1, -1])
def test_overlap_frozen_examples(sigma):
    x, y = SPACE4.mode_at(0), SPACE4.mode_at(2)
    xy, yx = bracket_vector(SPACE4, (x, y), sigma), bracket_vector(SPACE4, (y, x), sigma)
    assert np.vdot(xy.amplitudes, xy.amplitudes) == pytest.approx(0.5)
    assert np.vdot(yx.amplitudes, xy.amplitudes) == pytest.approx(sigma / 2)
    # different particle numbers: different sectors, so the overlap is 0
    assert bracket_vector(SPACE4, (x,), sigma).basis.n_particles != xy.basis.n_particles


@pytest.mark.parametrize("sigma", [1, -1])
def test_overlap_matches_oracle_exhaustively(sigma):
    for n in range(3):
        tuples = list(product(range(SPACE4.n_modes), repeat=n))
        bras, kets = zip(*product(tuples, repeat=2))
        want = overlap_oracle(bras, kets, sigma)
        for bra, ket, w in zip(bras, kets, want):
            got = np.vdot(
                bracket_vector(SPACE4, [SPACE4.mode_at(i) for i in bra], sigma).amplitudes,
                bracket_vector(SPACE4, [SPACE4.mode_at(i) for i in ket], sigma).amplitudes,
            )
            assert abs(got - w) <= 1e-12


def _expanded_overlap(bra, ket, sigma):
    """One pair's first-quantized overlap, the permutation sum written out."""
    if len(bra) != len(ket):
        return 0.0
    n = len(bra)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        sign = sigma**inversions
        total += sign * math.prod(int(bra[i] == ket[p]) for i, p in enumerate(perm))
    return total / math.factorial(n)


@pytest.mark.parametrize("sigma", [1, -1])
def test_batched_overlap_oracle_matches_per_pair_expansion(sigma):
    m = ModeSpace(Lattice.ring(4), SpinQuantum(0)).n_modes
    for n in range(4):  # every pair of coordinate tuples with N <= 3
        tuples = list(product(range(m), repeat=n))
        bras, kets = zip(*product(tuples, repeat=2))
        got = overlap_oracle(bras, kets, sigma)
        assert got.shape == (m ** (2 * n),)
        assert got.tolist() == [_expanded_overlap(b, k, sigma) for b, k in zip(bras, kets)]
    for n_bra, n_ket in ((0, 1), (1, 0), (2, 1), (1, 3), (3, 2)):  # N' != N: exact zeros
        bras = list(product(range(m), repeat=n_bra))
        got = overlap_oracle(bras, [tuple(range(n_ket))] * len(bras), sigma)
        assert got.tolist() == [0.0] * len(bras)


def test_permanent_and_determinant_small():
    # the oracle's permutation sum is the permanent (sigma=+1) or determinant (sigma=-1)
    m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert fockspace._permutation_sum(m[None], 1)[0] == pytest.approx(10.0)
    assert fockspace._permutation_sum(m[None], -1)[0] == pytest.approx(-2.0)
    r = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    assert fockspace._permutation_sum(r[None], -1)[0] == pytest.approx(np.linalg.det(r))


def test_perm_parity():
    assert perm_parity((0, 1, 2)) == 1
    assert perm_parity((1, 0, 2)) == -1
    assert perm_parity((1, 2, 0)) == 1


@pytest.mark.parametrize("sigma", [1, -1])
def test_symmetrizer_is_projector_with_eigenproperty(sigma):
    shape = (4, 4, 4)
    t = RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)
    s = symmetrizer_oracle(t, sigma)
    again = symmetrizer_oracle(s, sigma)
    assert np.max(np.abs(again - s)) <= 1e-12
    for perm in permutations(range(3)):
        sign = 1.0 if sigma == 1 or perm_parity(perm) == 1 else -1.0
        assert np.max(np.abs(np.transpose(s, perm) - sign * s)) <= 1e-12


def test_symmetrizer_fermion_diagonal_vanishes():
    t = RNG.standard_normal((4, 4)) + 0j
    s = symmetrizer_oracle(t, -1)
    assert np.max(np.abs(np.diagonal(s))) <= 1e-15


@pytest.mark.parametrize("sigma", [1, -1])
def test_symmetrizer_two_slot_product(sigma):
    f = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
    g = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
    t = np.einsum("i,j->ij", f, g)
    want = (np.einsum("i,j->ij", f, g) + sigma * np.einsum("i,j->ij", g, f)) / 2
    assert np.max(np.abs(symmetrizer_oracle(t, sigma) - want)) <= 1e-12


@pytest.mark.parametrize("sigma", [1, -1])
def test_completeness_random_probes(sigma):
    shape = (4, 4)
    for _ in range(10):
        probe = RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)
        assert completeness_check(every_bracket(SPACE4, 2, sigma), probe) <= 1e-12


@pytest.mark.parametrize("sigma", [1, -1])
def test_completeness_symmetric_fixed_point(sigma):
    probe = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    symmetric = symmetrizer_oracle(probe, sigma)
    brackets = every_bracket(SPACE4, 2, sigma)
    projected = project_onto_symmetric(brackets, symmetric)
    assert np.max(np.abs(projected - symmetric)) <= 1e-12
    # the opposite-symmetry part is annihilated
    opposite = symmetrizer_oracle(probe, -sigma)
    assert np.max(np.abs(project_onto_symmetric(brackets, opposite))) <= 1e-12


@pytest.mark.parametrize("sigma", [1, -1])
def test_projector_idempotent(sigma):
    probe = RNG.standard_normal((4, 4, 4)) + 1j * RNG.standard_normal((4, 4, 4))
    brackets = every_bracket(SPACE4, 3, sigma)
    once = project_onto_symmetric(brackets, probe)
    twice = project_onto_symmetric(brackets, once)
    assert np.max(np.abs(twice - once)) <= 1e-12


@pytest.mark.parametrize("space", [
    ModeSpace(Lattice.ring(4), SpinQuantum(1)),
    ModeSpace(Lattice.grid2d(3), SpinQuantum(0)),
], ids=["ring4-half", "grid3"])
@pytest.mark.parametrize("sigma", [1, -1])
def test_projector_matches_the_dense_bracket_matrix(space, sigma):
    # the bincount resolution sum against B+ (B v w), B the dense bracket matrix
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        shape = (space.n_modes,) * n
        probe = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        b = bracket_matrix(space, n, sigma)
        want = b.conj().T @ (b @ probe.reshape(-1))
        got = project_onto_symmetric(every_bracket(space, n, sigma), probe)
        assert max_abs(got.reshape(-1) - want) <= 1e-15


@pytest.mark.parametrize("sigma", [1, -1])
def test_state_tensor_oracle_matches_bracket_route(sigma):
    # the helpers' symmetrizer-built coordinate tensor must agree with the
    # ladder-built bracket amplitudes for random states
    basis = build_basis(SPACE4, 2, sigma)
    state = random_state(basis, RNG)
    tensor = state_coordinate_tensor(state)
    for idx in np.ndindex(4, 4):
        coords = tuple(SPACE4.mode_at(i) for i in idx)
        direct = np.vdot(bracket_vector(SPACE4, coords, sigma).amplitudes, state.amplitudes)
        assert abs(tensor[idx] - direct) <= 1e-12
