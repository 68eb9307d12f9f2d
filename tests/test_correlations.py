from itertools import permutations, product

import numpy as np
import pytest

from helpers import bracket_vector, dft_oracle, pair_correlation, random_state, state_coordinate_tensor
from spinstat.correlations import antipodal_profile, relative_parity_spectrum
from spinstat.fockspace import StateVector, build_basis, overlap_oracle, perm_parity
from spinstat.hamiltonians import OneBodySpec, TwoBodySpec, build_many_body, diagonalize
from spinstat.modes import Lattice, Mode, ModeSpace, SpinQuantum

RNG = np.random.default_rng(23)
SPACE4 = ModeSpace(Lattice.ring(2), SpinQuantum(1))  # 4 modes
GRID = ModeSpace(Lattice.grid2d(3), SpinQuantum(0))


def wave_function(coords, state) -> complex:
    """<xi_1..xi_N|state> on SPACE4."""
    return complex(np.vdot(bracket_vector(SPACE4, coords, state.basis.sigma).amplitudes, state.amplitudes))


@pytest.mark.parametrize("sigma", [1, -1])
def test_wavefunction_equals_overlap_for_bracket_states(sigma):
    # for N=2 the pair correlation is the wave function: against the oracle overlap
    kets = (SPACE4.mode_at(0), SPACE4.mode_at(2))
    state = bracket_vector(SPACE4, kets, sigma)
    pairs = list(product(range(SPACE4.n_modes), repeat=2))
    want = overlap_oracle(pairs, [(0, 2)] * len(pairs), sigma)
    for bras, w in zip(pairs, want):
        assert pair_correlation(state, *(SPACE4.mode_at(i) for i in bras)) == pytest.approx(w, abs=1e-14)


@pytest.mark.parametrize("sigma", [1, -1])
def test_wavefunction_permutation_symmetry(sigma):
    basis = build_basis(SPACE4, 3, sigma)
    state = random_state(basis, RNG)
    coords = (SPACE4.mode_at(0), SPACE4.mode_at(1), SPACE4.mode_at(3))
    base = wave_function(coords, state)
    for perm in permutations(range(3)):
        factor = 1.0 if sigma == 1 or perm_parity(perm) == 1 else -1.0
        got = wave_function(tuple(coords[p] for p in perm), state)
        assert got == pytest.approx(factor * base, abs=1e-12)


def test_wavefunction_fermion_repeated_coordinate():
    basis = build_basis(SPACE4, 2, -1)
    state = random_state(basis, RNG)
    x = SPACE4.mode_at(1)
    assert wave_function((x, x), state) == 0


@pytest.mark.parametrize("sigma", [1, -1])
def test_pair_correlation_equals_wavefunction_for_two_particles(sigma):
    basis = build_basis(SPACE4, 2, sigma)
    state = random_state(basis, RNG)
    for x, y in product(SPACE4.modes, repeat=2):
        assert pair_correlation(state, x, y) == pytest.approx(
            wave_function((x, y), state), abs=1e-14
        )


@pytest.mark.parametrize("sigma", [1, -1])
def test_pair_correlation_exchange_symmetry(sigma):
    basis = build_basis(SPACE4, 3, sigma)
    state = random_state(basis, RNG)
    for x, y in product(SPACE4.modes[:3], repeat=2):
        assert pair_correlation(state, y, x) == pytest.approx(
            sigma * pair_correlation(state, x, y), abs=1e-12
        )


@pytest.mark.parametrize("sigma", [1, -1])
def test_pair_correlation_matches_tensor_oracle(sigma):
    # independent route: full first-quantized tensor, then trailing-slot sums
    basis = build_basis(SPACE4, 3, sigma)
    state = random_state(basis, RNG)
    tensor = state_coordinate_tensor(state)
    oracle_table = tensor.sum(axis=2)
    for i, x in enumerate(SPACE4.modes):
        for j, y in enumerate(SPACE4.modes):
            assert pair_correlation(state, x, y) == pytest.approx(
                oracle_table[i, j], abs=1e-12
            )


def test_pair_correlation_uniform_bosonic_product_state():
    # all three bosons in one orbital spread across modes: compare against
    # the direct N-fold summation oracle
    basis = build_basis(SPACE4, 3, 1)
    state = random_state(basis, RNG)
    tensor = state_coordinate_tensor(state)
    x, y = SPACE4.mode_at(0), SPACE4.mode_at(1)
    direct = sum(
        wave_function((x, y, SPACE4.mode_at(k)), state) for k in range(4)
    )
    assert pair_correlation(state, x, y) == pytest.approx(direct, abs=1e-13)
    assert direct == pytest.approx(tensor[0, 1, :].sum(), abs=1e-12)


def test_pair_correlation_needs_two_particles():
    state = bracket_vector(SPACE4, (SPACE4.mode_at(0),), 1)
    with pytest.raises(ValueError):
        pair_correlation(state, SPACE4.mode_at(0), SPACE4.mode_at(1))


def test_pair_correlation_on_an_empty_sector_is_zero():
    space = ModeSpace(Lattice.ring(2), SpinQuantum(0))  # 2 modes hold no 3 fermions
    basis = build_basis(space, 3, -1)
    state = StateVector(basis, np.zeros(basis.dim))
    assert pair_correlation(state, space.mode_at(0), space.mode_at(1)) == 0
    assert np.array_equal(antipodal_profile(state, 0), np.zeros(2))


def test_pair_distribution_exclusion_and_symmetry():
    basis = build_basis(SPACE4, 2, -1)
    state = random_state(basis, RNG)
    x, y = SPACE4.mode_at(0), SPACE4.mode_at(2)
    assert abs(pair_correlation(state, x, x)) ** 2 <= 1e-24
    assert abs(pair_correlation(state, x, y)) == pytest.approx(abs(pair_correlation(state, y, x)))


@pytest.mark.parametrize("sigma", [1, -1])
def test_pair_distribution_normalization(sigma):
    basis = build_basis(SPACE4, 2, sigma)
    state = random_state(basis, RNG)
    total = sum(
        abs(pair_correlation(state, x, y)) ** 2 for x, y in product(SPACE4.modes, repeat=2)
    )
    assert total == pytest.approx(1.0)


def test_antipodal_profile_fermion_origin_zero():
    basis = build_basis(GRID, 2, -1)
    state = random_state(basis, RNG)
    profile = antipodal_profile(state, 0)
    assert abs(profile[GRID.lattice.origin_site]) == 0.0


def test_antipodal_profile_boson_double_origin():
    origin = GRID.lattice.origin_site
    mode = Mode(origin, 0)
    state = bracket_vector(GRID, (mode, mode), 1)  # exactly the doubly occupied state
    profile = antipodal_profile(state, 0)
    assert profile[origin] == pytest.approx(1.0)


@pytest.mark.parametrize("space", [GRID, ModeSpace(Lattice.ring(6), SpinQuantum(0))])
@pytest.mark.parametrize("sigma", [1, -1])
def test_antipodal_profile_parity(space, sigma):
    basis = build_basis(space, 2, sigma)
    state = random_state(basis, RNG)
    profile = antipodal_profile(state, 0)
    for site in range(space.lattice.n_sites):
        inv = space.lattice.invert_site(site)
        assert profile[inv] == pytest.approx(sigma * profile[site], abs=1e-12)


def test_profile_rejects_bad_projection():
    basis = build_basis(GRID, 2, 1)
    state = random_state(basis, RNG)
    with pytest.raises(ValueError):
        antipodal_profile(state, 1)


@pytest.mark.parametrize("sigma", [1, -1])
def test_relative_parity_selection_rule_random_states(sigma):
    space = ModeSpace(Lattice.ring(6), SpinQuantum(0))
    basis = build_basis(space, 2, sigma)
    state = random_state(basis, RNG)
    spectrum = relative_parity_spectrum(state, 0)
    assert np.max(np.abs(spectrum - dft_oracle(antipodal_profile(state, 0)))) <= 1e-12
    for l, amp in enumerate(spectrum):
        if (-1) ** l != sigma:
            assert abs(amp) <= 1e-12


def test_relative_parity_uniform_pair_state():
    space = ModeSpace(Lattice.ring(6), SpinQuantum(0))
    basis = build_basis(space, 2, 1)
    amps = np.zeros(basis.dim, dtype=complex)
    for site in range(6):
        contrib = bracket_vector(
            space, (Mode(site, 0), Mode(space.lattice.invert_site(site), 0)), 1
        )
        amps += contrib.amplitudes
    state = StateVector(basis, amps / np.linalg.norm(amps))
    spectrum = relative_parity_spectrum(state, 0)
    assert abs(spectrum[0]) > 0.1
    assert np.max(np.abs(spectrum[1:])) <= 1e-12


def test_relative_parity_spectrum_interacting_ground_state():
    space = ModeSpace(Lattice.ring(6), SpinQuantum(0))
    basis = build_basis(space, 2, 1)
    ham = build_many_body(OneBodySpec(hop_t=1.0), TwoBodySpec.contact(-2.0), basis)
    ground = diagonalize(ham).eigenvectors[0]
    spectrum = relative_parity_spectrum(ground, 0)
    odd = [abs(spectrum[l]) for l in range(1, 6, 2)]
    even = [abs(spectrum[l]) for l in range(0, 6, 2)]
    assert max(odd) <= 1e-12
    assert max(even) > 1e-3  # the rule is not vacuous for the bound pair


def test_relative_parity_requires_ring():
    basis = build_basis(GRID, 2, 1)
    state = random_state(basis, RNG)
    with pytest.raises(ValueError):
        relative_parity_spectrum(state, 0)
