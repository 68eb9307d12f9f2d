import dataclasses
import random
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import fq_hamiltonian_apply, occupations, random_state, sparse_max_abs, to_scipy
from spinstat.csr import CSR
from spinstat import hamiltonians
from spinstat.fockspace import (
    DimensionCapError,
    OperatorFamily,
    bracket_matrix,
    build_basis,
    matrix_family,
    matrix_of,
    max_abs,
    sector_lift,
)
from spinstat.hamiltonians import (
    OneBodySpec,
    TwoBodySpec,
    build_many_body,
    diagonalize,
    ideal_gas_check,
    many_body_expr,
    mode_operator_check,
    mode_operators,
    occupancy_spectrum,
    one_body_matrix,
    one_particle_spectrum,
)
from spinstat.modes import Lattice, Mode, ModeSpace, SpinQuantum
from spinstat.opalgebra import OperatorExpr, create, destroy

RNG = np.random.default_rng(11)


def eigenmodes(spec, lattice, spin, sigma):
    """The mode space, one-particle levels and eigenmode annihilators of ``spec``."""
    space = ModeSpace(lattice, spin)
    eps, phi = one_particle_spectrum(spec, lattice, spin)
    return space, eps, mode_operators(space, phi, sigma)


def ladder_residual(spec, lattice, spin, sigma, n_max):
    space, _, cs = eigenmodes(spec, lattice, spin, sigma)
    return mode_operator_check(space, cs, sigma, n_max)


def ideal_gas(spec, lattice, spin, n, sigma):
    space, eps, cs = eigenmodes(spec, lattice, spin, sigma)
    return ideal_gas_check(spec, space, n, sigma, eps, cs)


def test_two_site_chain_spectrum():
    spec = OneBodySpec(hop_t=1.3)
    eps, _ = one_particle_spectrum(spec, Lattice.ring(2), SpinQuantum(0))
    assert eps == pytest.approx([-1.3, 1.3])


def test_ring4_spectrum_matches_fourier_oracle():
    t = 0.7
    eps, _ = one_particle_spectrum(OneBodySpec(hop_t=t), Lattice.ring(4), SpinQuantum(0))
    oracle = sorted(-2 * t * np.cos(2 * np.pi * q / 4) for q in range(4))
    assert eps == pytest.approx(oracle, abs=1e-12)


def test_zero_hopping_gives_potential_multiset():
    spec = OneBodySpec(hop_t=0.0, onsite_u=(0.3, -0.7))
    eps, _ = one_particle_spectrum(spec, Lattice.ring(2), SpinQuantum(2))
    assert eps == pytest.approx(sorted([0.3] * 3 + [-0.7] * 3))


def test_bad_potential_length():
    with pytest.raises(ValueError):
        one_body_matrix(OneBodySpec(onsite_u=(1.0,)), Lattice.ring(4), SpinQuantum(0))


def test_eigenvectors_orthonormal_under_measure():
    lattice, spin = Lattice.ring(4), SpinQuantum(1)
    space = ModeSpace(lattice, spin)
    _, phi = one_particle_spectrum(OneBodySpec(hop_t=1.0, onsite_u=0.2), lattice, spin)
    for q in range(space.n_modes):
        norm = sum(abs(phi[i, q]) ** 2 for i in range(space.n_modes))
        assert norm == pytest.approx(1.0)
    gram = phi.conj().T @ phi
    assert np.max(np.abs(gram - np.eye(space.n_modes))) <= 1e-12


def test_one_particle_matrix_is_spin_diagonal_and_hermitian():
    h = one_body_matrix(OneBodySpec(hop_t=1.0, onsite_u=0.5), Lattice.grid2d(3), SpinQuantum(1))
    assert np.max(np.abs(h - h.conj().T)) == 0.0
    # opposite projections never mix: odd/even interleave within site blocks
    for i in range(0, h.shape[0], 2):
        assert h[i, i + 1] == 0.0


@pytest.mark.parametrize("lattice,spin", [
    (Lattice.ring(4), SpinQuantum(1)),
    (Lattice.ring(8), SpinQuantum(3)),
    (Lattice.grid2d(3), SpinQuantum(1)),
], ids=["ring4-2s1", "ring8-2s3", "grid3-2s1"])
def test_eigenmodes_are_site_eigenvectors_on_one_projection(lattice, spin):
    # ring:8 and grid2d:3 have degenerate site levels, and every level is
    # 2s+1 times degenerate over the projections
    spec = OneBodySpec(hop_t=1.0)
    space = ModeSpace(lattice, spin)
    h = one_body_matrix(spec, lattice, spin)
    lifted = np.kron(hamiltonians._site_matrix(spec, lattice), np.eye(spin.multiplicity, dtype=np.complex128))
    assert h.tobytes() == lifted.tobytes()
    eps, phi = one_particle_spectrum(spec, lattice, spin)
    assert np.max(np.abs(eps - np.linalg.eigh(h)[0])) <= 1e-12
    assert np.max(np.abs(phi.conj().T @ phi - np.eye(space.n_modes))) <= 1e-12
    assert np.max(np.abs(h @ phi - phi * eps)) <= 1e-12
    projection = np.array([mode.twos_ms for mode in space.modes])
    for q in range(space.n_modes):
        live = np.flatnonzero(phi[:, q])
        assert len(set(projection[live])) == 1
        assert len(live) <= lattice.n_sites
    for sigma in (1, -1):
        for cq in mode_operators(space, phi, sigma):
            assert 0 < len(cq.terms) <= lattice.n_sites
            assert all(term.coeff != 0 for term in cq.terms)


@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize("twos_s", [1, 3])
def test_eigenmode_stack_holds_one_projection_share_of_mixed_eigenmodes(twos_s, sigma):
    # eigh of the whole one-body matrix mixes the degenerate projections, so
    # each of its eigenmodes acts on every particle of a state; a lifted one
    # acts only on the particles of its own projection
    lattice, spin = Lattice.ring(4), SpinQuantum(twos_s)
    space = ModeSpace(lattice, spin)
    spec = OneBodySpec(hop_t=1.0)
    _, phi = one_particle_spectrum(spec, lattice, spin)
    _, mixed = np.linalg.eigh(one_body_matrix(spec, lattice, spin))
    two, one = build_basis(space, 2, sigma), build_basis(space, 1, sigma)
    lifted_nnz = matrix_family(mode_operators(space, phi, sigma), [(two, one)])[0].matrix.nnz
    mixed_nnz = matrix_family(mode_operators(space, mixed, sigma), [(two, one)])[0].matrix.nnz
    assert 0 < lifted_nnz * spin.multiplicity <= mixed_nnz


@pytest.mark.parametrize("sigma", [1, -1])
def test_single_and_two_mode_ladder_relations(sigma):
    # single mode: [c, c+] = 1; two orthogonal modes: [c_1, c+_2] = 0
    assert ladder_residual(OneBodySpec(0.0, 0.0), Lattice.grid2d(1), SpinQuantum(0), sigma, 2) <= 1e-12
    assert ladder_residual(OneBodySpec(0.0, 0.0), Lattice.grid2d(1), SpinQuantum(1), sigma, 2) <= 1e-12


@pytest.mark.parametrize("sigma", [1, -1])
def test_mode_operator_check_ring(sigma):
    res = ladder_residual(OneBodySpec(hop_t=1.0), Lattice.ring(2), SpinQuantum(1), sigma, 3)
    assert res <= 1e-10


@pytest.mark.parametrize("sigma", [1, -1])
def test_many_body_n1_equals_one_particle(sigma):
    lattice, spin = Lattice.ring(4), SpinQuantum(1)
    space = ModeSpace(lattice, spin)
    spec = OneBodySpec(hop_t=1.1, onsite_u=0.3)
    basis = build_basis(space, 1, sigma)
    many = build_many_body(spec, TwoBodySpec.contact(2.0), basis)
    one = one_body_matrix(spec, lattice, spin)
    assert sparse_max_abs(to_scipy(many.matrix) - sp.csr_matrix(one)) <= 1e-12


def test_boson_contact_spectrum_frozen():
    # two bosons, two sites, no hopping: double occupancy costs V0, else 0
    v0 = 1.7
    space = ModeSpace(Lattice.ring(2), SpinQuantum(0))
    basis = build_basis(space, 2, 1)
    ham = build_many_body(OneBodySpec(hop_t=0.0), TwoBodySpec.contact(v0), basis)
    result = diagonalize(ham)
    assert result.eigenvalues == pytest.approx([0.0, v0, v0])


def test_fermion_contact_is_inert_for_spinless():
    space = ModeSpace(Lattice.ring(4), SpinQuantum(0))
    basis = build_basis(space, 2, -1)
    spec = OneBodySpec(hop_t=1.0)
    with_v = build_many_body(spec, TwoBodySpec.contact(3.0), basis)
    without = build_many_body(spec, None, basis)
    assert sparse_max_abs(to_scipy(with_v.matrix) - to_scipy(without.matrix)) == 0.0


def test_contact_couples_opposite_spins():
    space = ModeSpace(Lattice.ring(2), SpinQuantum(1))
    basis = build_basis(space, 2, -1)
    ham = build_many_body(OneBodySpec(hop_t=0.0), TwoBodySpec.contact(2.5), basis).matrix.toarray()
    # states with both spins on one site pay the contact energy once
    diag = np.real(np.diag(ham))
    occs = [basis.occ_tuple(i) for i in range(basis.dim)]
    for occ, energy in zip(occs, diag):
        same_site = occ[0] and occ[1] or occ[2] and occ[3]
        assert energy == pytest.approx(2.5 if same_site else 0.0)


@pytest.mark.parametrize("sigma", [1, -1])
def test_hermiticity_and_number_conservation(sigma):
    space = ModeSpace(Lattice.ring(4), SpinQuantum(0))
    basis = build_basis(space, 2, sigma)
    spec1 = OneBodySpec(hop_t=0.8, onsite_u=(0.1, -0.2, 0.3, 0.0))
    spec2 = TwoBodySpec.from_dict({0: 1.0, 1: -0.4})
    ham = build_many_body(spec1, spec2, basis)
    mat = to_scipy(ham.matrix)
    assert sparse_max_abs(mat - mat.conj().T) <= 1e-12
    # every term creates as many particles as it annihilates
    assert many_body_expr(spec1, spec2, space, sigma).particle_shift() == 0


def test_diagonalize_contracts():
    space = ModeSpace(Lattice.ring(2), SpinQuantum(0))
    basis = build_basis(space, 1, -1)
    ham = build_many_body(OneBodySpec(hop_t=2.0), None, basis)
    result = diagonalize(ham)
    assert result.eigenvalues == pytest.approx([-2.0, 2.0])
    assert result.residual <= 1e-9
    for vec in result.eigenvectors:
        assert np.linalg.norm(vec.amplitudes) == pytest.approx(1.0)


def test_diagonalize_rejects_non_hermitian():
    space = ModeSpace(Lattice.ring(2), SpinQuantum(0))
    basis = build_basis(space, 1, -1)
    bad = OperatorFamily(basis, basis, 1, record(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)))
    with pytest.raises(ValueError):
        diagonalize(bad)


def test_diagonalize_refuses_a_family_of_more_than_one_member():
    basis = build_basis(ModeSpace(Lattice.ring(4), SpinQuantum(0)), 1, 1)
    eye = sp.identity(basis.dim, dtype=np.complex128, format="csr")
    with pytest.raises(ValueError, match="square same-sector"):
        diagonalize(OperatorFamily(basis, basis, 2, record(sp.vstack([eye, eye], format="csr"))))


@pytest.mark.parametrize(
    "lattice",
    [Lattice.ring(2), Lattice.ring(12), Lattice.ring(14),
     Lattice.grid2d(1), Lattice.grid2d(3), Lattice.grid2d(5), Lattice.grid2d(9)],
    ids=lambda lattice: f"{lattice.kind}{lattice.size}",
)
def test_interaction_keys_are_matched_from_one_site(monkeypatch, lattice):
    # the distances seen from site 0 are, bit for bit, those of all site pairs
    n = lattice.n_sites
    every_pair = {lattice.site_distance(i, j) for i in range(n) for j in range(n)}
    seen = []
    measure = Lattice.site_distance

    def counted(self, i, j):
        seen.append(measure(self, i, j))
        return seen[-1]

    monkeypatch.setattr(Lattice, "site_distance", counted)
    spec = TwoBodySpec.from_dict({**{d: 1.0 for d in every_pair}, 0.5: 1.0})
    assert spec.unmatched_distances(lattice) == [0.5]
    assert set(seen) == every_pair
    assert len(seen) <= n


def algebraic_one_body_expr(space, h, sigma):
    """sum h[xi, xi'] a+(xi) a(xi') built through ``OperatorExpr`` products,
    each term complex(h) * (a+ a)."""
    modes = space.modes
    return OperatorExpr.sum_of(sigma, (
        complex(h[i, j]) * (create(modes[i], sigma) * destroy(modes[j], sigma)) for i, j in zip(*np.nonzero(h))
    ))


def algebraic_many_body_expr(spec1, spec2, space, sigma):
    """The Hamiltonian built through ``OperatorExpr`` products: the one-body
    terms, then each interaction term (V / 2) * (a+ a+' a' a)."""
    modes = space.modes
    one_body = algebraic_one_body_expr(space, one_body_matrix(spec1, space.lattice, space.spin), sigma)
    pairs = [(mi, mj, spec2.value(space.lattice.site_distance(mi.site, mj.site))) for mi in modes for mj in modes]
    return one_body + OperatorExpr.sum_of(sigma, (
        (0.5 * v) * (create(mi, sigma) * create(mj, sigma) * destroy(mj, sigma) * destroy(mi, sigma))
        for mi, mj, v in pairs if v != 0.0
    ))


def term_bits(expr):
    return expr.sigma, [(t.coeff.real.hex(), t.coeff.imag.hex(), t.factors) for t in expr.terms]


@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize("lattice, twos_s, spec1, spec2, n_terms", [
    # the benchmark's Hubbard ring: 60 one-body and 120 interaction terms
    (Lattice.ring(10), 1, OneBodySpec(onsite_u=tuple(np.linspace(-1.0, 1.0, 10))), {0: 4.0, 1: 1.0}, 180),
    # signed zeros in the potential and the table, a negative hopping
    (Lattice.ring(4), 2, OneBodySpec(hop_t=-0.5, onsite_u=(0.0, -0.0, 0.25, -1.5)), {0: -2.0, 2: 0.5}, 102),
    (Lattice.grid2d(3), 0, OneBodySpec(onsite_u=-0.0), {0: 1.0, 1: -0.0, 2 ** 0.5: 0.75}, 49),
], ids=["ring10", "ring4", "grid3"])
def test_hamiltonian_terms_match_the_algebraic_construction(sigma, lattice, twos_s, spec1, spec2, n_terms):
    # the same terms, in the same order, with the same coefficient bits
    space, spec2 = ModeSpace(lattice, SpinQuantum(twos_s)), TwoBodySpec.from_dict(spec2)
    built = many_body_expr(spec1, spec2, space, sigma)
    assert term_bits(built) == term_bits(algebraic_many_body_expr(spec1, spec2, space, sigma))
    assert len(built.terms) == n_terms


def test_one_body_terms_keep_the_algebraic_coefficient_bits():
    # a complex matrix whose parts hold signed zeros: the product with the
    # factors' unit coefficient turns 2 - 0j into 2 + 0j, and so does the build
    space = ModeSpace(Lattice.ring(2), SpinQuantum(0))
    h = np.array([[complex(2.0, -0.0), complex(-0.0, 0.5)], [complex(-0.0, -0.5), complex(-1.0, -0.0)]])
    built = hamiltonians.one_body_expr(space, h, -1)
    assert term_bits(built) == term_bits(algebraic_one_body_expr(space, h, -1))
    assert built.terms[0].coeff.imag.hex() == "0x0.0p+0"


def test_diagonalize_diagonal_matrix():
    space = ModeSpace(Lattice.ring(4), SpinQuantum(0))
    basis = build_basis(space, 1, 1)
    diag = OperatorFamily(basis, basis, 1, record(np.diag([3.0, -1.0, 2.0, 0.0]).astype(complex)))
    assert diagonalize(diag).eigenvalues == pytest.approx([-1.0, 0.0, 2.0, 3.0])


def projection_labels(basis) -> list[tuple[int, ...]]:
    """Each basis state's particle count per spin projection."""
    space = basis.space
    twos_ms = np.array([mode.twos_ms for mode in space.modes])
    occ = occupations(basis)
    return [
        tuple(int(occ[i, twos_ms == tm].sum()) for tm in space.spin.projections())
        for i in range(basis.dim)
    ]


def block_labels_of(vec, labels) -> set:
    return {labels[i] for i in np.flatnonzero(vec.amplitudes)}


def assert_exact_spectrum(ham, result):
    """Eigenvalues against an unblocked dense complex solve; eigenvectors are
    orthonormal eigenvectors of the full matrix."""
    dense = ham.matrix.toarray().astype(np.complex128)
    scale = max(1.0, max_abs(dense))
    assert np.max(np.abs(result.eigenvalues - np.linalg.eigvalsh(dense))) <= 1e-12 * scale
    vecs = np.array([v.amplitudes for v in result.eigenvectors]).T
    assert np.max(np.abs(dense @ vecs - vecs * result.eigenvalues)) <= 1e-10 * scale
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(ham.domain.dim))) <= 1e-12


BLOCKED_CASES = [
    (lattice, twos_s, sigma, n)
    for lattice in ("ring:4", "grid2d:3")
    for twos_s in (0, 1, 2)
    for sigma in (1, -1)
    for n in (2, 3)
    if (lattice, twos_s, n) != ("grid2d:3", 2, 3)  # 2925 / 3654 states: too slow a reference
]


@pytest.mark.parametrize("lattice,twos_s,sigma,n", BLOCKED_CASES)
def test_blocked_solve_matches_unblocked_reference(lattice, twos_s, sigma, n):
    kind, size = lattice.split(":")
    lat = Lattice.ring(int(size)) if kind == "ring" else Lattice.grid2d(int(size))
    space = ModeSpace(lat, SpinQuantum(twos_s))
    basis = build_basis(space, n, sigma)
    potential = tuple(0.1 * ((3 * i) % 7) - 0.3 for i in range(lat.n_sites))
    ham = build_many_body(
        OneBodySpec(hop_t=0.8, onsite_u=potential), TwoBodySpec.from_dict({0: 1.3, 1: -0.6}), basis
    )
    result = diagonalize(ham)
    assert_exact_spectrum(ham, result)
    labels = projection_labels(basis)
    assert all(len(block_labels_of(v, labels)) == 1 for v in result.eigenvectors)
    assert all(np.all(v.amplitudes.imag == 0) for v in result.eigenvectors)  # real H, real solve


def counting_eigh(monkeypatch) -> list:
    """Patch numpy's eigh to record the size of every matrix it solves."""
    calls, eigh = [], np.linalg.eigh

    def counted(a):
        calls.append(len(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def hubbard_ring(size: int, twos_s: int, sigma: int, n: int, seed: int = 1):
    """A seeded on-site potential and V = {0: 4, 1: 1} on a ring: the
    hubbard-spectrum benchmark's config at ring:10, 2s=1, sigma=-1, N=3."""
    rng = random.Random(seed)
    space = ModeSpace(Lattice.ring(size), SpinQuantum(twos_s))
    spec1 = OneBodySpec(hop_t=1.0, onsite_u=tuple(rng.uniform(-1.0, 1.0) for _ in range(size)))
    return build_many_body(spec1, TwoBodySpec.from_dict({0: 4.0, 1: 1.0}), build_basis(space, n, sigma))


def test_spin_reversed_blocks_share_one_solve(monkeypatch):
    ham = hubbard_ring(10, 1, -1, 3)  # blocks (0,3)/(1,2)/(2,1)/(3,0): 120/450/450/120
    calls = counting_eigh(monkeypatch)
    result = diagonalize(ham)
    assert calls == [120, 450]
    labels = projection_labels(ham.domain)
    per_block = {}
    for value, vec in zip(result.eigenvalues, result.eigenvectors):
        per_block.setdefault(block_labels_of(vec, labels).pop(), []).append(value)
    for label in ((0, 3), (1, 2)):
        assert per_block[label] == per_block[label[::-1]]  # bitwise equal, value for value


MIRROR_CASES = [
    (lattice, twos_s, sigma, n)
    for lattice in ("ring:4", "grid2d:3")
    for twos_s in (1, 2, 3)
    for sigma in (1, -1)
    for n in ((2, 3) if lattice == "ring:4" else (2,))
]


@pytest.mark.parametrize("lattice,twos_s,sigma,n", MIRROR_CASES)
def test_mirrored_blocks_are_exact_eigenpairs(monkeypatch, lattice, twos_s, sigma, n):
    kind, size = lattice.split(":")
    lat = Lattice.ring(int(size)) if kind == "ring" else Lattice.grid2d(int(size))
    basis = build_basis(ModeSpace(lat, SpinQuantum(twos_s)), n, sigma)
    potential = tuple(0.1 * ((3 * i) % 7) - 0.3 for i in range(lat.n_sites))
    ham = build_many_body(
        OneBodySpec(hop_t=0.8, onsite_u=potential), TwoBodySpec.from_dict({0: 1.3, 1: -0.6}), basis
    )
    calls = counting_eigh(monkeypatch)
    result = diagonalize(ham)
    labels = set(projection_labels(basis))
    assert len(calls) == len({min(label, label[::-1]) for label in labels}) < len(labels)
    assert_exact_spectrum(ham, result)


def test_mirror_differing_in_one_ulp_is_solved(monkeypatch):
    ham = hubbard_ring(6, 1, -1, 3)  # blocks 20/90/90/20
    calls = counting_eigh(monkeypatch)
    diagonalize(ham)
    assert calls == [20, 90]
    labels = projection_labels(ham.domain)
    mat = to_scipy(ham.matrix).tolil()
    coo = to_scipy(ham.matrix).tocoo()
    i, j = next((i, j) for i, j in zip(coo.row, coo.col) if i != j and labels[i] == (2, 1))
    mat[i, j] = mat[j, i] = np.nextafter(mat[i, j].real, np.inf)
    nudged = OperatorFamily(ham.domain, ham.codomain, 1, record(mat.tocsr()))
    calls.clear()
    result = diagonalize(nudged)
    assert calls == [20, 90, 90]  # the (3,0) block still mirrors (0,3)
    assert_exact_spectrum(nudged, result)


def test_mirrored_blocks_keep_no_copy_of_their_vectors():
    ham = hubbard_ring(6, 1, -1, 3)  # blocks (0,3)/(1,2)/(2,1)/(3,0): 20/90/90/20
    basis = ham.domain
    diagonalize(ham)  # the kept caches it fills are not the result's
    tracemalloc.start()
    try:
        result = diagonalize(ham)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # the two solved blocks' real vectors, and O(dim) arrays besides; a signed
    # copy of each mirrored block would add 8 * (20^2 + 90^2) more
    assert 8 * (20**2 + 90**2) <= held < 8 * (20**2 + 90**2) + 100 * basis.dim
    space = basis.space
    lift = sector_lift(basis, [space.index(Mode(m.site, -m.twos_ms)) for m in space.modes], np.ones(space.n_modes))
    sign = np.sign(lift.phase.real)
    labels = projection_labels(basis)
    levels = {}
    for value, vec in zip(result.eigenvalues, result.eigenvectors):
        levels.setdefault((block_labels_of(vec, labels).pop(), value), []).append(vec.amplitudes)
    mirrored = [(label, value) for label, value in levels if label in ((2, 1), (3, 0))]
    assert sum(len(levels[key]) for key in mirrored) == 90 + 20
    for label, value in mirrored:
        rows = np.array([of == label for of in labels])
        for mine, theirs in zip(levels[label, value], levels[label[::-1], value], strict=True):
            # row s of a mirrored vector is the partner's row image[s], signed
            expected = np.zeros(basis.dim)
            expected[rows] = sign[rows] * theirs.real[lift.image[rows]]
            assert np.array_equal(mine.real.view(np.int64), expected.view(np.int64))
            assert not np.any(mine.imag)


@pytest.mark.parametrize("sigma", [1, -1])
def test_wrong_spin_reversal_solves_every_block(monkeypatch, sigma):
    # control: a spin reversal that is the identity map mirrors no block, so
    # each block is solved once and the spectrum stays exact
    ham = hubbard_ring(6, 1, sigma, 3)
    original = hamiltonians.sector_lift
    monkeypatch.setattr(
        hamiltonians, "sector_lift", lambda basis, perm, phases: original(basis, range(len(perm)), phases)
    )
    calls = counting_eigh(monkeypatch)
    result = diagonalize(ham)
    assert len(calls) == len(set(projection_labels(ham.domain)))
    assert_exact_spectrum(ham, result)


def record(m) -> CSR:
    """A scipy CSR, or a dense array, as spinstat's CSR record."""
    m = sp.csr_matrix(m)
    return CSR(m.indptr, m.indices, m.data.astype(np.complex128), m.shape)


def random_hermitian(dim: int) -> np.ndarray:
    a = RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim))
    return a + a.conj().T


def test_complex_hermitian_blocks_solve_in_complex_arithmetic():
    basis = build_basis(ModeSpace(Lattice.ring(4), SpinQuantum(1)), 2, -1)
    labels = projection_labels(basis)
    same_block = np.array([[li == lj for lj in labels] for li in labels])
    mat = record(np.where(same_block, random_hermitian(basis.dim), 0))
    ham = OperatorFamily(basis, basis, 1, mat)
    result = diagonalize(ham)
    assert_exact_spectrum(ham, result)
    assert all(len(block_labels_of(v, labels)) == 1 for v in result.eigenvectors)
    assert any(np.any(v.amplitudes.imag != 0) for v in result.eigenvectors)


@pytest.mark.parametrize("coupling", ["random complex", "one real entry"])
def test_entry_between_blocks_solves_the_sector_as_one_block(coupling):
    basis = build_basis(ModeSpace(Lattice.ring(4), SpinQuantum(1)), 2, -1)
    labels = projection_labels(basis)
    if coupling == "random complex":
        mat = random_hermitian(basis.dim)
    else:
        i, j = 0, labels.index(next(x for x in labels if x != labels[0]))
        bump = np.zeros((basis.dim,) * 2)
        bump[i, j] = bump[j, i] = 0.25
        hop = build_many_body(OneBodySpec(hop_t=1.0, onsite_u=0.2), None, basis).matrix
        mat = to_scipy(hop) + sp.csr_matrix(bump)
    ham = OperatorFamily(basis, basis, 1, record(mat))
    result = diagonalize(ham)
    assert_exact_spectrum(ham, result)
    assert any(len(block_labels_of(v, labels)) > 1 for v in result.eigenvectors)


def test_equal_eigenvalues_keep_block_order():
    basis = build_basis(ModeSpace(Lattice.ring(4), SpinQuantum(1)), 2, -1)
    labels = projection_labels(basis)
    result = diagonalize(OperatorFamily(basis, basis, 1, record(sp.csr_matrix((basis.dim, basis.dim), dtype=complex))))
    order = [block_labels_of(v, labels).pop() for v in result.eigenvectors]
    assert order == [(0, 2)] * 6 + [(1, 1)] * 16 + [(2, 0)] * 6


def test_diagonalize_fails_a_nan_in_every_comparison(monkeypatch):
    basis = build_basis(ModeSpace(Lattice.ring(4), SpinQuantum(1)), 2, -1)
    ham = build_many_body(OneBodySpec(hop_t=1.0), None, basis)
    data = ham.matrix.data.copy()
    data[0] = np.nan
    broken = dataclasses.replace(ham.matrix, data=data)
    with pytest.raises(ValueError, match="not Hermitian"):
        diagonalize(OperatorFamily(basis, basis, 1, broken))
    # a solver that returns NaN eigenpairs fails the residual and Gram contract
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (np.full(len(a), np.nan), np.full(a.shape, np.nan)))
    with pytest.raises(RuntimeError, match="residual contract"):
        diagonalize(ham)


def test_diagonalize_refuses_past_free_memory(monkeypatch):
    basis = build_basis(ModeSpace(Lattice.ring(4), SpinQuantum(1)), 2, -1)  # blocks 6/16/6
    ham = build_many_body(OneBodySpec(hop_t=1.0), None, basis)
    monkeypatch.setattr(hamiltonians, "_available_memory", lambda: 13_843)
    # the solved blocks' real eigenvectors 8 * (6^2 + 16^2), five real 16 x 16
    # arrays of the largest eigensolve, and the gathered sparse copy of the 96
    # stored entries: 8 * 96 data, 4 * 96 indices and 4 * 29 indptr bytes
    with pytest.raises(DimensionCapError, match="28 states .* 13,844 bytes"):
        diagonalize(ham)
    monkeypatch.setattr(hamiltonians, "_available_memory", lambda: 13_844)
    assert diagonalize(ham).basis is basis
    monkeypatch.setattr(hamiltonians, "_available_memory", lambda: None)
    assert diagonalize(ham).basis is basis


def test_diagonalize_peak_stays_within_its_memory_estimate(monkeypatch):
    space = ModeSpace(Lattice.ring(6), SpinQuantum(1))
    basis = build_basis(space, 3, -1)  # 220 states, blocks 20/90/90/20
    ham = build_many_body(
        OneBodySpec(hop_t=1.0, onsite_u=tuple(0.1 * i for i in range(6))), TwoBodySpec.from_dict({0: 4.0, 1: 1.0}),
        basis,
    )
    monkeypatch.setattr(hamiltonians, "_available_memory", lambda: 0)
    with pytest.raises(DimensionCapError) as refusal:
        diagonalize(ham)
    estimate = int(re.search(r"estimated ([\d,]+) bytes", str(refusal.value)).group(1).replace(",", ""))
    monkeypatch.setattr(hamiltonians, "_available_memory", lambda: None)
    tracemalloc.start()
    try:
        result = diagonalize(ham)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # LAPACK's workspace is not traced; the per-block vectors and the working
    # arrays numpy allocates are, and no dense sector-sized complex array is built
    assert peak <= estimate < 16 * basis.dim**2
    assert len(result.eigenvectors) == basis.dim


@pytest.mark.parametrize("phase", [1.0, 1j])
def test_residual_norms_scale_exactly_past_the_float_range(phase):
    # at hop_t = 1e200 the squares of the residual overflowed (a RuntimeWarning,
    # then a sound solve failed its residual contract); scaled by 2**600 a
    # residual is now 2**600 times the unscaled one, bit for bit
    basis = build_basis(ModeSpace(Lattice.ring(4), SpinQuantum(1)), 2, -1)
    mat = build_many_body(OneBodySpec(hop_t=1.0, onsite_u=(0.3, -0.7, 0.2, 0.9)), None, basis).matrix
    values, vectors = np.linalg.eigh(mat.toarray())
    vectors = vectors * phase
    big = 2.0**600
    scaled = dataclasses.replace(mat, data=mat.data * big)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base = hamiltonians._worst_residual(mat, vectors, values)
        assert 0 < base and hamiltonians._worst_residual(scaled, vectors, values * big) == base * big
        vectors[0, 0] = np.nan  # a NaN fails the contract on either path
        assert np.isnan(hamiltonians._worst_residual(mat, vectors, values))
        assert np.isnan(hamiltonians._worst_residual(scaled, vectors, values * big))


def test_occupancy_spectrum_rules():
    eps = np.array([0.0, 1.0])
    assert occupancy_spectrum(eps, 2, -1).tolist() == [1.0]
    assert occupancy_spectrum(eps, 2, 1).tolist() == [0.0, 1.0, 2.0]


@pytest.mark.parametrize("sigma,ground", [(-1, None), (1, None)])
def test_ideal_gas_ground_energies(sigma, ground):
    lattice, spin = Lattice.ring(4), SpinQuantum(0)
    spec = OneBodySpec(hop_t=1.0)
    eps, _ = one_particle_spectrum(spec, lattice, spin)
    report = ideal_gas(spec, lattice, spin, 2, sigma)
    assert report.spectral_deviation <= 1e-9
    assert report.h0_identity_residual <= 1e-9
    want = eps[0] + eps[1] if sigma == -1 else 2 * eps[0]
    assert report.ground_energy == pytest.approx(want)
    assert report.occupancy_ground_energy == pytest.approx(want)


def test_ideal_gas_vacuum_sector():
    report = ideal_gas(OneBodySpec(hop_t=1.0), Lattice.ring(4), SpinQuantum(0), 0, 1)
    assert report.spectral_deviation == 0.0


@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_ideal_gas_multiset_small_sweep(sigma, n):
    spec = OneBodySpec(hop_t=1.0, onsite_u=(0.0, 0.5))
    report = ideal_gas(spec, Lattice.ring(2), SpinQuantum(1), n, sigma)
    assert report.spectral_deviation <= 1e-9


@pytest.mark.parametrize("sigma", [1, -1])
def test_bracket_action_reproduces_first_quantized_hamiltonian(sigma):
    # <xi_1..xi_N| H |state> must equal the slot-wise one-body action plus the
    # pairwise potential acting on the coordinate tensor of the state.
    lattice, spin = Lattice.ring(4), SpinQuantum(0)
    space = ModeSpace(lattice, spin)
    spec1 = OneBodySpec(hop_t=0.9, onsite_u=(0.2, 0.0, -0.1, 0.4))
    spec2 = TwoBodySpec.from_dict({0: 1.1, 1: 0.7})
    n = 2
    basis = build_basis(space, n, sigma)
    ham = build_many_body(spec1, spec2, basis)
    state = random_state(basis, RNG)
    b = bracket_matrix(space, n, sigma)
    lhs = (b.conj().T @ (ham.matrix.toarray() @ state.amplitudes)).reshape((space.n_modes,) * n)
    tensor = (b.conj().T @ state.amplitudes).reshape((space.n_modes,) * n)
    h_mode = one_body_matrix(spec1, lattice, spin)
    rhs = fq_hamiltonian_apply(space, h_mode, spec2, tensor)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_number_operator_diagonal():
    space = ModeSpace(Lattice.ring(2), SpinQuantum(1))
    basis = build_basis(space, 3, 1)
    number = OperatorExpr.sum_of(1, (create(m, 1) * destroy(m, 1) for m in space.modes))
    num = matrix_of(number, basis, basis).matrix.toarray()
    assert np.max(np.abs(num - 3 * np.eye(basis.dim))) <= 1e-12


def test_two_body_spec_lookup():
    spec = TwoBodySpec.from_dict({"0": 2.0, "1": -1.0})
    assert spec.value(0.0) == 2.0
    assert spec.value(1.0) == -1.0
    assert spec.value(2.0) == 0.0
    assert spec.value(1.0 + 1e-12) == -1.0
