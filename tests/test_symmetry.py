import dataclasses
import hashlib
from collections import Counter
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import conjugated, identity_matrix, sparse_max_abs, to_scipy
from spinstat import symmetry
from spinstat.memo import command_scope
from spinstat import fockspace
from spinstat.fockspace import (
    build_basis,
    completeness_check,
    every_bracket,
    matrix_family,
)
from spinstat.modes import Lattice, Mode, ModeSpace, SpinQuantum
from spinstat.opalgebra import destroy, normal_order
from spinstat.symmetry import (
    IncompatibleRotationError,
    SpinorRotation,
    cis_turns,
    pair_checks,
    pair_operator,
    permutation_eigencheck,
    rotation_covariance_check,
    rotation_element_residual,
    sector_lift_residuals,
    theorem_probe_site,
    theorem_report,
)

RING4_HALF = ModeSpace(Lattice.ring(4), SpinQuantum(1))
GRID_SCALAR = ModeSpace(Lattice.grid2d(3), SpinQuantum(0))


def test_cis_turns_exact_quarters():
    assert cis_turns(Fraction(0)) == 1
    assert cis_turns(Fraction(1, 4)) == 1j
    assert cis_turns(Fraction(1, 2)) == -1
    assert cis_turns(Fraction(3, 4)) == -1j
    assert cis_turns(Fraction(5, 4)) == 1j
    assert cis_turns(Fraction(1, 8)) == pytest.approx(np.exp(2j * np.pi / 8))


def test_zero_rotation_is_identity():
    rot = SpinorRotation(RING4_HALF, 0)
    assert all(p == 1 for p in rot.field_phases)
    for sigma in (1, -1):
        basis = build_basis(RING4_HALF, 2, sigma)
        assert sparse_max_abs(to_scipy(rot.fock_lift(basis).matrix) - identity_matrix(basis)) == 0.0


def test_half_turn_spinor_phases_are_exact():
    rot = SpinorRotation(RING4_HALF, 2)
    for mode, phase in zip(RING4_HALF.modes, rot.field_phases):
        assert phase == (1j if mode.twos_ms == 1 else -1j)
    spin1 = ModeSpace(Lattice.ring(4), SpinQuantum(2))
    rot1 = SpinorRotation(spin1, 2)
    for mode, phase in zip(spin1.modes, rot1.field_phases):
        assert phase == {2: -1, 0: 1, -2: -1}[mode.twos_ms]


@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize("twos_s", [0, 1, 2])
def test_field_transform_element_identity(sigma, twos_s):
    space = ModeSpace(Lattice.ring(4), SpinQuantum(twos_s))
    assert rotation_element_residual(space, sigma, n_max=2) <= 1e-12


@pytest.mark.parametrize("sigma", [1, -1])
def test_lift_is_homomorphism(sigma):
    basis = build_basis(RING4_HALF, 2, sigma)
    u1 = to_scipy(SpinorRotation(RING4_HALF, 1).fock_lift(basis).matrix)
    u2 = to_scipy(SpinorRotation(RING4_HALF, 2).fock_lift(basis).matrix)
    assert sparse_max_abs(u1 @ u1 - u2) <= 1e-12


def test_full_turn_lift_is_spinor_sign():
    # one full turn is the identity on sites but -1 per half-integral particle
    basis1 = build_basis(RING4_HALF, 1, -1)
    basis2 = build_basis(RING4_HALF, 2, -1)
    full = SpinorRotation(RING4_HALF, 4)
    assert sparse_max_abs(to_scipy(full.fock_lift(basis1).matrix) + identity_matrix(basis1)) <= 1e-12
    assert sparse_max_abs(to_scipy(full.fock_lift(basis2).matrix) - identity_matrix(basis2)) <= 1e-12


@pytest.mark.parametrize("sigma", [1, -1])
def test_half_turn_square_report(sigma):
    # the half-turn lift squares to (-1)^(2s N): -1 on odd sectors for half-integral spin
    for space in (GRID_SCALAR, RING4_HALF):
        unitary, square = sector_lift_residuals(space, sigma, 2)
        assert unitary <= 1e-12 and square <= 1e-12
    # the sign +1 on a half-integral one-particle sector misses by 2
    basis = build_basis(RING4_HALF, 1, sigma)
    u = to_scipy(SpinorRotation(RING4_HALF, 2).fock_lift(basis).matrix)
    assert sparse_max_abs(u @ u - identity_matrix(basis)) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("space, digests", [
    (ModeSpace(Lattice.grid2d(3), SpinQuantum(1)), {  # quarter-turn spinor phases
        1: ("f081d7110ab1c0c1d13b6ddb5ff60d22e5063e1c560f148b64979e7ccee3831d",
            "febcb2901ac0b835e8c9f066fa92a3f1499655d6877fc8cdcd0347b9af2c760f"),
        -1: ("8aff51c80ca8d6639e478f228d432f8c4102239ee8f7fdbcf3f6da1c6e84e392",
             "328cdff3808097cc845f61796547135baee9cdd7836442e8e65a96ede5f1d159"),
    }),
    (ModeSpace(Lattice.ring(4), SpinQuantum(3)), {  # boson runs of three: the prod_m n_m! path
        1: ("40e65a04d23983c27acebbed75202f7926ff87a63f37efa7857241634e034104",
            "e5e550ae8c7eebd69dc6f11d09f12a07aad9786a2ee1ae7f4c2a0b588b2b2bb7"),
        -1: ("7d288737811b4468cb9fab781ba9210ca693d3606e6b3cc8e7794bbc8729379a",
             "9e3cae0f034f311363b762581879b5fcaeaa90f6ddce9a3aebbba984bd63b940"),
    }),
], ids=["grid3-2s1", "ring4-2s3"])
def test_lift_arrays_are_pinned(space, digests):
    # the bytes of every rotation step's image and phase arrays on N = 0..3:
    # the residuals read from them are pinned elsewhere, but a reordered
    # phase product that stays inside tolerance would pass those
    for sigma, pinned in digests.items():
        image, phase = hashlib.sha256(), hashlib.sha256()
        for n in range(4):
            for steps in range(space.lattice.steps_per_turn):
                lift = symmetry._sector_unitary(SpinorRotation(space, steps), n, sigma)
                image.update(lift.image.tobytes())
                phase.update(lift.phase.tobytes())
        assert (image.hexdigest(), phase.hexdigest()) == pinned, sigma


@pytest.mark.parametrize(
    "space", [RING4_HALF, ModeSpace(Lattice.ring(8), SpinQuantum(3))], ids=["ring4-2s1", "ring8-2s3"]
)
def test_lift_residuals_are_the_sparse_products(space):
    # U U+ - 1 and U U - (-1)^(2sN) from the image and phase arrays are the
    # sparse products' residuals bit for bit, also for lifts that are broken:
    # a repeated image sums its entries, a row no state reaches reads 1
    per_turn = space.lattice.steps_per_turn
    for sigma in (1, -1):
        for n in (1, 2):
            sign = (-1) ** (space.spin.twos_s * n)
            eye = identity_matrix(build_basis(space, n, sigma))
            for steps in (1, per_turn // 2):
                lift = symmetry._sector_unitary(SpinorRotation(space, steps), n, sigma)
                shared, negated = lift.image.copy(), lift.phase.copy()
                shared[1] = shared[0]
                negated[3] = -negated[3]
                for image, phase in ((lift.image, lift.phase), (shared, lift.phase), (lift.image, negated)):
                    broken = symmetry.SectorLift(image, phase)
                    dim = len(image)
                    u = sp.csc_matrix((phase, image, np.arange(dim + 1)), shape=(dim, dim)).tocsr()
                    assert symmetry._unitarity_residual(broken) == sparse_max_abs(u @ u.conj().T.tocsr() - eye)
                    assert symmetry._square_residual(broken, sign) == sparse_max_abs(u @ u - sign * eye)


def test_permutation_eigencheck_examples():
    coords = (RING4_HALF.mode_at(0), RING4_HALF.mode_at(3), RING4_HALF.mode_at(5))
    assert permutation_eigencheck(RING4_HALF, coords, [(0, 1, 2), (1, 0, 2)], -1) <= 1e-12
    assert permutation_eigencheck(RING4_HALF, coords, [(1, 2, 0)], 1) <= 1e-12
    with pytest.raises(ValueError):
        permutation_eigencheck(RING4_HALF, coords, [(0, 1, 2), (0, 0, 1)], 1)


@pytest.mark.parametrize("sigma", [1, -1])
def test_permutation_eigencheck_exhaustive_n3(sigma):
    coords = (RING4_HALF.mode_at(2), RING4_HALF.mode_at(4), RING4_HALF.mode_at(2))
    assert permutation_eigencheck(RING4_HALF, coords, permutations(range(3)), sigma) <= 1e-12


def test_permutation_eigencheck_fails_without_the_fermion_sign(monkeypatch):
    # the control: sigma^P read as +1 for every P
    monkeypatch.setattr(symmetry, "sigma_to_permutation_power", lambda perm, sigma: 1.0)
    distinct = (RING4_HALF.mode_at(0), RING4_HALF.mode_at(3), RING4_HALF.mode_at(5))
    assert permutation_eigencheck(RING4_HALF, distinct, permutations(range(3)), -1) >= 0.1
    assert permutation_eigencheck(RING4_HALF, distinct, permutations(range(3)), 1) == 0.0
    repeated = (RING4_HALF.mode_at(2), RING4_HALF.mode_at(4), RING4_HALF.mode_at(2))
    assert permutation_eigencheck(RING4_HALF, repeated, permutations(range(3)), -1) == 0.0


def test_permutation_eigencheck_counts_both_states_where_they_differ(monkeypatch):
    # a kernel that ranks a permuted tuple on another basis state
    original = symmetry.bracket_amplitudes

    def misranked(space, rows, sigma):
        basis, index, amp = original(space, rows, sigma)
        return basis, np.where(np.arange(len(index)) > 0, index + 1, index), amp

    monkeypatch.setattr(symmetry, "bracket_amplitudes", misranked)
    distinct = (RING4_HALF.mode_at(0), RING4_HALF.mode_at(3))
    assert permutation_eigencheck(RING4_HALF, distinct, [(0, 1)], 1) == pytest.approx(2 ** -0.5)


def test_pair_operator_structure():
    expr = pair_operator(RING4_HALF, 1, 1, -1)
    assert expr.particle_shift() == -2
    factors = expr.terms[0].factors
    assert factors[0].mode == Mode(3, 1)  # inversion image of site 1 on ring(4)
    assert factors[1].mode == Mode(1, 1)
    with pytest.raises(ValueError):
        pair_operator(RING4_HALF, 2, 0, -1)  # projection not allowed for s=1/2


def test_pair_operator_at_origin():
    origin = GRID_SCALAR.lattice.origin_site
    fermi = pair_operator(GRID_SCALAR, 0, origin, -1)
    assert normal_order(fermi).terms == ()  # same-point square vanishes
    bose = pair_operator(GRID_SCALAR, 0, origin, 1)
    assert normal_order(bose).terms != ()


@pytest.mark.parametrize("sigma", [1, -1])
def test_pair_matrix_dimension_bookkeeping(sigma):
    checks = pair_checks(RING4_HALF, sigma, n_max=3)
    for families in checks.families.values():
        assert [(f.domain.n_particles, f.codomain.n_particles, len(f)) for f in families] == [(2, 0, 4), (3, 1, 4)]
        assert families[1].rows(0, 1).shape == (
            build_basis(RING4_HALF, 1, sigma).dim,
            build_basis(RING4_HALF, 3, sigma).dim,
        )


@pytest.mark.parametrize("sigma", [1, -1])
def test_parity_covariance(sigma):
    assert pair_checks(RING4_HALF, sigma, n_max=3).inversion_residual <= 1e-12
    assert pair_checks(GRID_SCALAR, sigma, n_max=2).inversion_residual <= 1e-12


@pytest.mark.parametrize("sigma", [1, -1])
def test_rotation_covariance_quarter_turn(sigma):
    # every rotation of ring:4; for m_s = +1/2 and a quarter turn the phase is exactly +i
    assert rotation_covariance_check(RING4_HALF, sigma, n_max=3) <= 1e-12
    # using the wrong phase (+1) must fail by an O(1) margin
    rot = SpinorRotation(RING4_HALF, 1)
    family = pair_checks(RING4_HALF, sigma, n_max=2).families[1][0]
    images = [RING4_HALF.lattice.rotate_site_z(site, 1) for site in range(4)]
    assert symmetry._covariance(family, [rot], [(images, [1j] * 4)]) <= 1e-12
    assert symmetry._covariance(family, [rot], [(images, [1] * 4)]) > 0.5


@pytest.mark.parametrize("sigma", [1, -1])
def test_stacked_covariance_residual_catches_wrong_images_and_phases(sigma):
    # a(xi) on N = 2 -> 1 under a quarter turn of ring:4, all modes in one stacked conjugation
    domain, codomain = build_basis(RING4_HALF, 2, sigma), build_basis(RING4_HALF, 1, sigma)
    family = matrix_family([destroy(mode, sigma) for mode in RING4_HALF.modes], [(domain, codomain)])[0]
    rot = SpinorRotation(RING4_HALF, 1)
    images, phases = list(rot.mode_permutation), list(rot.field_phases)
    assert symmetry._covariance(family, [rot], [(images, phases)]) <= 1e-12
    # distinct modes' a(xi) have disjoint supports with entries of magnitude >= 1
    shifted = images[1:] + images[:1]
    assert symmetry._covariance(family, [rot], [(shifted, phases)]) >= 1
    flipped = phases[:-1] + [-phases[-1]]
    assert symmetry._covariance(family, [rot], [(images, flipped)]) >= 1


@pytest.mark.parametrize("sigma", [1, -1])
def test_covariance_holds_up_to_sector_four(sigma):
    assert pair_checks(RING4_HALF, sigma, n_max=4).inversion_residual <= 1e-12
    assert rotation_covariance_check(RING4_HALF, sigma, n_max=4) <= 1e-12


def test_rotation_covariance_integral_spin_full_phase():
    space = ModeSpace(Lattice.ring(4), SpinQuantum(2))
    # m_s = 1 at theta = pi: phase e^{2 i pi} = 1
    assert rotation_covariance_check(space, 1, n_max=2) <= 1e-12
    assert cis_turns(Fraction(2, 1) * Fraction(1, 2)) == 1


@pytest.mark.parametrize("sigma", [1, -1])
def test_pi_eigenvalue_half_integral(sigma):
    checks = pair_checks(RING4_HALF, sigma, n_max=3)
    assert checks.probe == 0
    assert checks.lambda_expected == -sigma  # (-1)^(2s) sigma with 2s odd
    for tm in (1, -1):
        lam = checks.lambdas[tm]
        assert lam == pytest.approx(checks.lambda_expected)
        assert abs(lam**2 - 1) <= 1e-12
        assert checks.lambda_residuals[tm] <= 1e-12


def test_pi_eigenvalue_scalar_spin():
    assert pair_checks(GRID_SCALAR, 1, n_max=2).lambdas[0] == pytest.approx(1.0)
    assert pair_checks(GRID_SCALAR, -1, n_max=2).lambdas[0] == pytest.approx(-1.0)


def test_pi_eigenvalue_indeterminate_at_origin():
    origin = GRID_SCALAR.lattice.origin_site
    fermi = pair_checks(GRID_SCALAR, -1, n_max=2)
    lam, residual = symmetry._half_turn_eigenvalue(fermi.families[0], origin)
    assert lam is None
    assert residual <= 1e-12
    # bosons keep a finite same-point pair: determinate at the origin
    bose = pair_checks(GRID_SCALAR, 1, n_max=2)
    lam, residual = symmetry._half_turn_eigenvalue(bose.families[0], origin)
    assert lam == pytest.approx(1.0)
    assert residual <= 1e-12
    # F(origin) is the same-point pair, so lambda is undetermined exactly where it vanishes
    assert fermi.same_point_vanishes(0) and not bose.same_point_vanishes(0)


@pytest.mark.parametrize("space", [RING4_HALF, GRID_SCALAR])
def test_origin_vanishing(space):
    fermi, bose = pair_checks(space, -1, n_max=2), pair_checks(space, 1, n_max=2)
    for tm in space.spin.projections():
        assert fermi.same_point_vanishes(tm) and fermi.same_point[tm] == 0.0
        assert not bose.same_point_vanishes(tm)
        assert bose.same_point[tm] == pytest.approx(np.sqrt(2))  # a a |2> = sqrt(2) |0>


@pytest.mark.parametrize("sigma", [1, -1])
def test_full_turn_winding_recovers_projection(sigma):
    space = ModeSpace(Lattice.ring(8), SpinQuantum(3))
    windings = pair_checks(space, sigma, n_max=2).windings
    assert list(windings) == list(space.spin.projections())
    for tm, res in windings.items():
        assert res.winding == tm
        assert res.max_step_residual <= 1e-12
        assert res.angle_defect <= 1e-9


def _count_calls(monkeypatch, name):
    """Record the positional arguments of every call to ``symmetry.<name>``."""
    calls = []
    original = getattr(symmetry, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(symmetry, name, counted)
    return calls


def _same_point(space, tm, sigma):
    mode = Mode(symmetry.origin_pair_site(space), tm)
    return destroy(mode, sigma) * destroy(mode, sigma)


def _pair_builds(space, sigma, sectors):
    """Per N, one family of F(r) over every projection and site, and one of
    the same-point pair of every projection."""
    projections, sites = space.spin.projections(), range(space.lattice.n_sites)
    builds = Counter()
    for n in sectors:
        domain = build_basis(space, n, sigma)
        builds[tuple(pair_operator(space, tm, site, sigma) for tm in projections for site in sites), domain] += 1
        builds[tuple(_same_point(space, tm, sigma) for tm in projections), domain] += 1
    return builds


def _sector_builds(calls) -> Counter:
    """(expression list, domain) of every sector of every ``matrix_family`` call."""
    return Counter((tuple(exprs), domain) for exprs, sectors in calls for domain, _ in sectors)


def test_parity_covariance_builds_each_pair_matrix_once(monkeypatch):
    calls = _count_calls(monkeypatch, "matrix_family")
    assert pair_checks(RING4_HALF, -1, n_max=3).inversion_residual <= 1e-12
    assert _sector_builds(calls) == _pair_builds(RING4_HALF, -1, (2, 3))
    # one call per expression list, F(r) and the same-point pairs of every projection, on N = 2, 3 at once
    assert len(calls) == 2
    # on rings the same-point pair is no member of the family: site 0 inverts to M/2
    assert _same_point(RING4_HALF, 1, -1) != pair_operator(RING4_HALF, 1, 0, -1)


def test_pair_records_index_each_sector_join_once_for_every_projection(monkeypatch):
    # ring:4, 2s=3 has four projections; its F(r) families and same-point
    # pairs on N = 2, 3 are one join each, so each is indexed once, where
    # one build per projection indexed them eight times
    calls = []
    original = fockspace._mode_index

    def counted(*args):
        calls.append(args[0].shape)
        return original(*args)

    monkeypatch.setattr(fockspace, "_mode_index", counted)
    for sigma in (1, -1):
        calls.clear()
        pair_checks(ModeSpace(Lattice.ring(4), SpinQuantum(3)), sigma, n_max=3)
        assert len(calls) == 2, sigma


def test_full_turn_winding_builds_each_pair_matrix_once(monkeypatch):
    space = ModeSpace(Lattice.ring(8), SpinQuantum(3))
    checks = pair_checks(space, 1, n_max=2)
    calls = _count_calls(monkeypatch, "matrix_family")
    # the winding reads the record's N = 2 family of F over every site
    assert checks.windings[3].winding == 3
    assert calls == []


def test_theorem_report_checks_origin_once_per_grade_and_projection(monkeypatch):
    records = _count_calls(monkeypatch, "pair_checks")
    families = _count_calls(monkeypatch, "matrix_family")
    theorem_report(RING4_HALF, n_max=3)
    # one pair record per grade, whose same-point pairs are built once per sector
    assert records == [(RING4_HALF, 1, 3), (RING4_HALF, -1, 3)]
    same_point = {key: n for key, n in _sector_builds(families).items() if len(key[0]) == 2}
    assert same_point == {
        (tuple(_same_point(RING4_HALF, tm, sigma) for tm in (1, -1)), build_basis(RING4_HALF, n, sigma)): 1
        for sigma in (1, -1) for n in (2, 3)
    }


def test_theorem_report_builds_each_even_inversion_pair_matrix_once(monkeypatch):
    space = ModeSpace(Lattice.ring(8), SpinQuantum(3))
    families = _count_calls(monkeypatch, "matrix_family")
    theorem_report(space, n_max=2)
    # per grade, on N = 2, one family of F(r) over every projection and site,
    # read by the inversion checks, the half-turn eigenvalue at the probe and
    # the winding along the probe's orbit, and one of the same-point pairs
    assert _sector_builds(families) == _pair_builds(space, 1, (2,)) + _pair_builds(space, -1, (2,))
    assert len(families) == 2 * 2  # one call per expression list, for all 4 projections


def _per_step_maxima(space, sigma, n_max=3):
    """The field-transform and pair-covariance residuals with one
    conjugation, one difference and one maximum per rotation step."""
    rots = [SpinorRotation(space, steps) for steps in range(space.lattice.steps_per_turn)]
    annihilators = [destroy(mode, sigma) for mode in space.modes]
    element = covariance = 0.0
    for n in range(1, n_max + 1):
        family = matrix_family(annihilators, [(build_basis(space, n, sigma), build_basis(space, n - 1, sigma))])[0]
        for rot in rots:
            residual = symmetry._covariance(family, [rot], [(rot.mode_permutation, rot.field_phases)])
            element = max(element, residual)
    for twos_ms, families in symmetry._pair_sectors(space, sigma, n_max).items():
        for family in families:
            for rot in rots:
                images = [space.lattice.rotate_site_z(site, rot.steps) for site in range(len(family))]
                phases = [cis_turns(twos_ms * rot.turns)] * len(family)
                covariance = max(covariance, symmetry._covariance(family, [rot], [(images, phases)]))
    return element, covariance


@pytest.mark.parametrize(
    "space", [RING4_HALF, ModeSpace(Lattice.grid2d(3), SpinQuantum(1))], ids=["ring4-2s1", "grid3-2s1"]
)
def test_stacked_compares_return_the_per_step_and_per_probe_maxima(space, monkeypatch):
    rng = np.random.default_rng(7)
    rots = [SpinorRotation(space, steps) for steps in range(space.lattice.steps_per_turn)]
    conjugations = _count_calls(monkeypatch, "_conjugated_stack")
    for sigma in (1, -1):
        conjugations.clear()
        covariance = rotation_covariance_check(space, sigma)
        n_families = sum(len(fams) for fams in symmetry._pair_sectors(space, sigma, 3).values())
        assert [len(run) for run, _ in conjugations] == [len(rots)] * n_families  # every rotation in one stack
        stacked = (rotation_element_residual(space, sigma), covariance)
        assert stacked == _per_step_maxima(space, sigma)
        for n in (2, 3):
            brackets = every_bracket(space, n, sigma)
            shape = (space.n_modes,) * n
            probes = rng.standard_normal((100, *shape)) + 1j * rng.standard_normal((100, *shape))
            pieces = fockspace.joined_pieces([probes[0].size] * len(probes))
            assert len(pieces) < len(probes)  # some probes share a stack
            by_piece = max(completeness_check(brackets, probes[piece.start:piece.stop]) for piece in pieces)
            assert by_piece == max(completeness_check(brackets, probe) for probe in probes)


def _bits(m):
    return m.shape, m.indptr.tolist(), m.indices.tolist(), m.data.view(np.uint64).tolist()


@pytest.mark.parametrize(
    "space", [RING4_HALF, ModeSpace(Lattice.ring(12), SpinQuantum(5))], ids=["ring4-2s1", "ring12-2s5"]
)
@pytest.mark.parametrize("sigma", [1, -1])
def test_kept_conjugations_are_bitwise_member_conjugations(space, sigma):
    # the half-turn eigenvalue and the winding read member blocks of these stacks
    # where they conjugated each member apart; every relabelled conjugation,
    # of the F(r) families and of the a(xi) families the field-transform
    # identity conjugates (on N = 1, 2 in the rotation suite), is the sparse
    # triple product bit for bit, and so is each rotation's row range of the
    # conjugation stacked over every rotation
    annihilators = [destroy(mode, sigma) for mode in space.modes]
    families = [family for fams in symmetry._pair_sectors(space, sigma, 3).values() for family in fams] + matrix_family(
        annihilators, [(build_basis(space, n, sigma), build_basis(space, n - 1, sigma)) for n in (1, 2)]
    )
    rots = [SpinorRotation(space, steps) for steps in range(space.lattice.steps_per_turn)]
    for family in families:
        every = symmetry._conjugated_stack(rots, family)
        for steps, rot in enumerate(rots):
            stacked = symmetry._conjugated_stack([rot], family)
            for member in range(len(family)):
                want = _bits(conjugated(rot, family, member))
                assert _bits(stacked.rows(member, member + 1)) == want
                assert _bits(every.rows(steps * len(family) + member, steps * len(family) + member + 1)) == want


def test_relabelled_conjugation_drops_explicit_zeros_as_the_product_does():
    # a stored zero of the stack makes no entry of U M U+, in the triple
    # product or in its relabelling
    domain, codomain = build_basis(RING4_HALF, 2, -1), build_basis(RING4_HALF, 1, -1)
    family = matrix_family([destroy(mode, -1) for mode in RING4_HALF.modes], [(domain, codomain)])[0]
    data = family.matrix.data.copy()
    data[::3] = 0.0
    stack = dataclasses.replace(family.matrix, data=data)
    zeroed = type(family)(domain, codomain, len(family), stack)
    rot = SpinorRotation(RING4_HALF, 1)
    conj = symmetry._conjugated_stack([rot], zeroed)
    assert conj.matrix.nnz < stack.nnz
    for member in range(len(family)):
        assert _bits(conj.rows(member, member + 1)) == _bits(conjugated(rot, zeroed, member))


def test_sector_objects_are_shared_only_inside_a_command():
    assert pair_checks(RING4_HALF, -1, 3) is not pair_checks(RING4_HALF, -1, 3)
    # a rotation is a value, so equal rotations share one kept lift
    assert SpinorRotation(RING4_HALF, 1) == SpinorRotation(RING4_HALF, 1)
    with command_scope():
        record = pair_checks(RING4_HALF, -1, 3)
        with command_scope():  # an inner scope shares the outer one's objects
            assert pair_checks(RING4_HALF, -1, 3) is record
        assert pair_checks(RING4_HALF, -1, 3) is record
        lift = symmetry._sector_unitary(SpinorRotation(RING4_HALF, 1), 2, -1)
        assert symmetry._sector_unitary(SpinorRotation(RING4_HALF, 1), 2, -1) is lift
        # the record reads the families the rotation covariance check built
        assert record.families is symmetry._pair_sectors(RING4_HALF, -1, 3)
    assert symmetry.pair_checks.cache_info().currsize == 0
    assert symmetry._pair_sectors.cache_info().currsize == 0


def test_winding_needs_fine_enough_steps():
    checks = pair_checks(ModeSpace(Lattice.ring(4), SpinQuantum(2)), 1, n_max=2)
    assert checks.lambdas[2] == pytest.approx(1.0)  # the other checks need no winding
    with pytest.raises(IncompatibleRotationError):
        checks.windings


def test_theorem_probe_site():
    assert theorem_probe_site(RING4_HALF) == 0
    probe = theorem_probe_site(GRID_SCALAR)
    assert GRID_SCALAR.lattice.invert_site(probe) != probe
    with pytest.raises(ValueError):
        theorem_probe_site(ModeSpace(Lattice.grid2d(1), SpinQuantum(0)))


def test_theorem_report_half_integral_ring():
    report = theorem_report(RING4_HALF, n_max=2)
    assert report.verdict_sigma == -1
    plus, minus = report.per_sigma[1], report.per_sigma[-1]
    assert minus.consistent and not plus.consistent
    assert plus.single_valued_conflict          # finite F(0) with nonzero winding
    assert not plus.origin_vanishes
    assert minus.origin_vanishes
    assert minus.lambda_indeterminate_at_origin
    assert plus.winding_by_twos_ms == {1: 1, -1: -1}
    assert plus.lambda_measured == pytest.approx(-1.0)
    assert minus.lambda_measured == pytest.approx(1.0)


def test_theorem_report_scalar_grid():
    report = theorem_report(GRID_SCALAR, n_max=2)
    assert report.verdict_sigma == 1
    plus, minus = report.per_sigma[1], report.per_sigma[-1]
    assert plus.consistent and not minus.consistent
    assert minus.even_inversion_amplitudes_vanish
    assert not plus.even_inversion_amplitudes_vanish
    assert plus.winding_by_twos_ms == {0: 0}
    assert not plus.single_valued_conflict


def test_theorem_report_half_integral_grid():
    space = ModeSpace(Lattice.grid2d(3), SpinQuantum(1))
    report = theorem_report(space, n_max=2)
    assert report.verdict_sigma == -1
    assert report.per_sigma[-1].lambda_indeterminate_at_origin


def test_theorem_report_json_schema():
    payload = theorem_report(RING4_HALF, n_max=2).to_dict()
    assert payload["twos_s"] == 1
    assert payload["verdict_sigma"] == -1
    assert "failure" not in payload  # written only when no verdict is reached
    for key in ("+1", "-1"):
        entry = payload["per_sigma"][key]
        for field in ("lambda", "origin_vanishes", "winding_twos_ms", "consistent"):
            assert field in entry
    assert payload["per_sigma"]["-1"]["winding_twos_ms"] == {"-1": -1, "1": 1}


def test_theorem_report_records_a_pair_that_vanishes_at_the_probe(monkeypatch):
    monkeypatch.setattr(symmetry, "_ratio_residual", lambda a_mats, b_mats: (None, 0.0))
    report = theorem_report(RING4_HALF, n_max=2)
    assert report.verdict_sigma is None
    assert report.failure == "pair operator vanished at the probe site for sigma in [1, -1]"
    payload = report.to_dict()
    assert payload["verdict_sigma"] is None and payload["failure"] == report.failure
    for entry in payload["per_sigma"].values():
        assert entry["lambda"] is None
        assert entry["winding_twos_ms"] == {"-1": None, "1": None}


def test_theorem_report_preconditions():
    with pytest.raises(IncompatibleRotationError):
        theorem_report(ModeSpace(Lattice.ring(4), SpinQuantum(2)), n_max=2)
    with pytest.raises(ValueError):
        theorem_report(RING4_HALF, n_max=1)
