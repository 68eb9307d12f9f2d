import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import occ_apply, random_state, state_coordinate_tensor
from spinstat.fockspace import (
    DimensionCapError,
    StateVector,
    _apply_strings,
    apply_ladder,
    bracket_state,
    build_basis,
    completeness_check,
    determinant,
    identity_matrix,
    matrix_of,
    max_abs,
    overlap,
    overlap_oracle,
    permanent,
    perm_parity,
    project_onto_symmetric,
    sector_dimension,
    symmetrizer_oracle,
    zero_state,
)
from spinstat.modes import Lattice, ModeSpace, SpinQuantum
from spinstat.opalgebra import (
    LadderOp,
    OperatorExpr,
    create,
    destroy,
    sigma_commutator,
    vacuum_expectation,
)

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
    counts = build_basis(SPACE4, 2, 1).occupations.sum(axis=1)
    assert set(counts.tolist()) == {2}


@pytest.mark.parametrize("lattice", [Lattice.ring(4), Lattice.grid2d(3)])
@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize("twos_s", [0, 1, 2])
def test_rank_inverts_enumeration(lattice, sigma, twos_s):
    space = ModeSpace(lattice, SpinQuantum(twos_s))
    for n in range(4):
        basis = build_basis(space, n, sigma)
        assert np.array_equal(basis.rank(basis.occupations), np.arange(basis.dim))


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


@settings(max_examples=300)
@given(ladder_batches())
@example((build_basis(KERNEL_SPACES[1], 1, -1), [0], [[(0, True)]]))  # Pauli exclusion
@example((build_basis(KERNEL_SPACES[1], 2, -1), [0], [[(1, False)]]))  # sign from mode 0
@example((build_basis(KERNEL_SPACES[2], 1, 1), [4], [[(3, False)]]))  # empty mode
def test_kernel_matches_scalar_reference(batch):
    basis, states, strings = batch
    length = len(strings[0])
    modes = np.array([[idx for idx, _ in s] for s in strings], dtype=np.intp).reshape(len(states), length)
    daggers = np.array([[dag for _, dag in s] for s in strings], dtype=bool).reshape(len(states), length)
    occ, amp, alive = _apply_strings(basis.occupations[states], modes, daggers, basis.sigma)
    for row, (state, string) in enumerate(zip(states, strings)):
        want, factor = basis.occ_tuple(state), 1.0
        for idx, dag in reversed(string):
            res = occ_apply(want, idx, dag, basis.sigma)
            if res is None:
                want = None
                break
            want, step = res
            factor *= step
        if want is None:
            assert not alive[row] and amp[row] == 0.0
        else:
            assert alive[row] and amp[row] == factor
            assert tuple(occ[row].tolist()) == want


def test_dimension_cap():
    with pytest.raises(DimensionCapError):
        build_basis(SPACE4, 2, 1, cap=5)


def test_state_vector_validation():
    basis = build_basis(SPACE4, 1, -1)
    with pytest.raises(ValueError):
        StateVector(basis, np.zeros(3))


def test_fermion_double_creation_is_zero():
    x = SPACE4.mode_at(0)
    vac = zero_state(build_basis(SPACE4, 0, -1))
    vac.amplitudes[0] = 1.0
    once = apply_ladder(vac, LadderOp(x, True))
    twice = apply_ladder(once, LadderOp(x, True))
    assert twice.norm() == 0.0


def test_fermion_annihilate_empty_mode_is_zero():
    x, y = SPACE4.mode_at(0), SPACE4.mode_at(1)
    state = bracket_state(SPACE4, (x,), -1)
    assert apply_ladder(state, LadderOp(y, False)).norm() == 0.0


def test_annihilating_vacuum_sector_rejected():
    vac = zero_state(build_basis(SPACE4, 0, 1))
    with pytest.raises(ValueError):
        apply_ladder(vac, LadderOp(SPACE4.mode_at(0), False))


def test_boson_sqrt_factor_against_symbolic_oracle():
    # creating on n=2 must give sqrt(3); cross-checked through the symbolic
    # vacuum average <0| a^3 a+^3 |0> = 3! and the bracket normalizations
    x = SPACE4.mode_at(0)
    two = bracket_state(SPACE4, (x, x), 1)  # exactly the n=2 occupation state
    assert two.norm() == pytest.approx(1.0)
    three = apply_ladder(two, LadderOp(x, True))
    assert three.norm() == pytest.approx(math.sqrt(3.0))
    string = OperatorExpr.identity(1)
    for _ in range(3):
        string = string * destroy(x, 1)
    for _ in range(3):
        string = string * create(x, 1)
    avg = vacuum_expectation(string)
    assert avg == pytest.approx(6.0)
    # <3|a+|2> = <0|a^3 a+^3|0> / sqrt(2! * 3!) with the bracket prefactors
    assert three.norm() == pytest.approx(abs(avg) / math.sqrt(math.factorial(2) * math.factorial(3)))


@pytest.mark.parametrize("sigma", [1, -1])
def test_apply_ladder_adjointness(sigma):
    basis2 = build_basis(SPACE4, 2, sigma)
    basis3 = build_basis(SPACE4, 3, sigma)
    for mode in SPACE4.modes:
        u = random_state(basis3, RNG)
        v = random_state(basis2, RNG)
        lhs = u.dot(apply_ladder(v, LadderOp(mode, True)))
        rhs = apply_ladder(u, LadderOp(mode, False)).dot(v)
        assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("sigma", [1, -1])
def test_matrix_commutation_relations(sigma):
    for n in range(3):
        basis = build_basis(SPACE4, n, sigma)
        eye = identity_matrix(basis).matrix
        for a in SPACE4.modes:
            for b in SPACE4.modes:
                comm = sigma_commutator(destroy(a, sigma), create(b, sigma))
                mat = matrix_of(comm, basis, basis).matrix
                delta = 1.0 if a == b else 0.0
                assert max_abs(mat - delta * eye) <= 1e-12


def test_matrix_of_identity_and_number():
    basis = build_basis(SPACE4, 2, 1)
    assert max_abs(matrix_of(OperatorExpr.identity(1), basis, basis).matrix
                   - identity_matrix(basis).matrix) == 0.0
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
    assert max_abs(m.adjoint().matrix - m_dag.matrix) <= 1e-14


@pytest.mark.parametrize("sigma", [1, -1])
def test_bracket_state_swap(sigma):
    x, y = SPACE4.mode_at(0), SPACE4.mode_at(3)
    a = bracket_state(SPACE4, (x, y), sigma)
    b = bracket_state(SPACE4, (y, x), sigma)
    assert np.max(np.abs(b.amplitudes - sigma * a.amplitudes)) <= 1e-15


def test_bracket_state_pauli_zero():
    x = SPACE4.mode_at(1)
    assert bracket_state(SPACE4, (x, x), -1).norm() == 0.0


def test_bracket_state_single_particle():
    for i, mode in enumerate(SPACE4.modes):
        state = bracket_state(SPACE4, (mode,), 1)
        want = np.zeros(4, dtype=complex)
        want[i] = 1.0
        assert np.array_equal(state.amplitudes, want)


@pytest.mark.parametrize("sigma", [1, -1])
def test_overlap_frozen_examples(sigma):
    x, y = SPACE4.mode_at(0), SPACE4.mode_at(2)
    assert overlap(SPACE4, (x, y), (x, y), sigma) == pytest.approx(0.5)
    assert overlap(SPACE4, (y, x), (x, y), sigma) == pytest.approx(sigma / 2)
    assert overlap(SPACE4, (x,), (x, y), sigma) == 0


@pytest.mark.parametrize("sigma", [1, -1])
def test_overlap_matches_oracle_exhaustively(sigma):
    for n in range(3):
        tuples = list(product(SPACE4.modes, repeat=n))
        for bra in tuples:
            for ket in tuples:
                got = overlap(SPACE4, bra, ket, sigma)
                want = overlap_oracle(bra, ket, sigma)
                assert abs(got - want) <= 1e-12


def test_permanent_and_determinant_small():
    m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert permanent(m) == pytest.approx(10.0)
    assert determinant(m) == pytest.approx(-2.0)
    r = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    assert determinant(r) == pytest.approx(np.linalg.det(r))


def test_perm_parity():
    assert perm_parity((0, 1, 2)) == 1
    assert perm_parity((1, 0, 2)) == -1
    assert perm_parity((1, 2, 0)) == 1


@pytest.mark.parametrize("sigma", [1, -1])
def test_symmetrizer_is_projector_with_eigenproperty(sigma):
    from itertools import permutations

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
        assert completeness_check(SPACE4, 2, sigma, probe) <= 1e-12


@pytest.mark.parametrize("sigma", [1, -1])
def test_completeness_symmetric_fixed_point(sigma):
    probe = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    symmetric = symmetrizer_oracle(probe, sigma)
    projected = project_onto_symmetric(SPACE4, 2, sigma, symmetric)
    assert np.max(np.abs(projected - symmetric)) <= 1e-12
    # the opposite-symmetry part is annihilated
    opposite = symmetrizer_oracle(probe, -sigma)
    assert np.max(np.abs(project_onto_symmetric(SPACE4, 2, sigma, opposite))) <= 1e-12


@pytest.mark.parametrize("sigma", [1, -1])
def test_projector_idempotent(sigma):
    probe = RNG.standard_normal((4, 4, 4)) + 1j * RNG.standard_normal((4, 4, 4))
    once = project_onto_symmetric(SPACE4, 3, sigma, probe)
    twice = project_onto_symmetric(SPACE4, 3, sigma, once)
    assert np.max(np.abs(twice - once)) <= 1e-12


@pytest.mark.parametrize("sigma", [1, -1])
def test_state_tensor_oracle_matches_bracket_route(sigma):
    # the helpers' symmetrizer-built coordinate tensor must agree with the
    # ladder-built bracket amplitudes for random states
    basis = build_basis(SPACE4, 2, sigma)
    state = random_state(basis, RNG)
    tensor = state_coordinate_tensor(state)
    for idx in np.ndindex(4, 4):
        coords = tuple(SPACE4.mode_at(i) for i in idx)
        direct = bracket_state(SPACE4, coords, sigma).dot(state)
        assert abs(tensor[idx] - direct) <= 1e-12
