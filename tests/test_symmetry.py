from collections import Counter
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from spinstat import symmetry
from spinstat.fockspace import build_basis, identity_matrix, matrix_family, matrix_of, max_abs
from spinstat.modes import Lattice, Mode, ModeSpace, SpinQuantum
from spinstat.opalgebra import destroy, normal_order
from spinstat.symmetry import (
    IncompatibleRotationError,
    SpinorRotation,
    cis_turns,
    conjugated,
    full_turn_winding,
    origin_vanishing_check,
    pair_matrix,
    pair_operator,
    parity_covariance_check,
    permutation_eigencheck,
    pi_eigenvalue_check,
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
        assert max_abs(rot.fock_lift(basis).matrix - identity_matrix(basis).matrix) == 0.0


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
    u1 = SpinorRotation(RING4_HALF, 1).fock_lift(basis).matrix
    u2 = SpinorRotation(RING4_HALF, 2).fock_lift(basis).matrix
    assert max_abs(u1 @ u1 - u2) <= 1e-12


def test_full_turn_lift_is_spinor_sign():
    # one full turn is the identity on sites but -1 per half-integral particle
    basis1 = build_basis(RING4_HALF, 1, -1)
    basis2 = build_basis(RING4_HALF, 2, -1)
    full = SpinorRotation(RING4_HALF, 4)
    assert max_abs(full.fock_lift(basis1).matrix + identity_matrix(basis1).matrix) <= 1e-12
    assert max_abs(full.fock_lift(basis2).matrix - identity_matrix(basis2).matrix) <= 1e-12


@pytest.mark.parametrize("sigma", [1, -1])
def test_half_turn_square_report(sigma):
    # the half-turn lift squares to (-1)^(2s N): -1 on odd sectors for half-integral spin
    for space in (GRID_SCALAR, RING4_HALF):
        unitary, square = sector_lift_residuals(space, sigma, 2)
        assert unitary <= 1e-12 and square <= 1e-12
    # the sign +1 on a half-integral one-particle sector misses by 2
    basis = build_basis(RING4_HALF, 1, sigma)
    u = SpinorRotation(RING4_HALF, 2).fock_lift(basis).matrix
    assert max_abs(u @ u - identity_matrix(basis).matrix) == pytest.approx(2.0, abs=1e-12)


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
    mat = pair_matrix(RING4_HALF, 1, 0, sigma, 3)
    assert mat.shape == (
        build_basis(RING4_HALF, 1, sigma).dim,
        build_basis(RING4_HALF, 3, sigma).dim,
    )


@pytest.mark.parametrize("sigma", [1, -1])
def test_parity_covariance(sigma):
    assert parity_covariance_check(RING4_HALF, sigma, n_max=3) <= 1e-12
    assert parity_covariance_check(GRID_SCALAR, sigma, n_max=2) <= 1e-12


@pytest.mark.parametrize("sigma", [1, -1])
def test_rotation_covariance_quarter_turn(sigma):
    # every rotation of ring:4; for m_s = +1/2 and a quarter turn the phase is exactly +i
    assert rotation_covariance_check(RING4_HALF, sigma, n_max=3) <= 1e-12
    # using the wrong phase (+1) must fail by an O(1) margin
    rot = SpinorRotation(RING4_HALF, 1)
    f = pair_matrix(RING4_HALF, 1, 0, sigma, 2)
    rotated = pair_matrix(RING4_HALF, 1, rot.space.lattice.rotate_site_z(0, 1), sigma, 2)
    wrong = max_abs(conjugated(rot, f).matrix - rotated.matrix)
    assert wrong > 0.5


@pytest.mark.parametrize("sigma", [1, -1])
def test_stacked_covariance_residual_catches_wrong_images_and_phases(sigma):
    # a(xi) on N = 2 -> 1 under a quarter turn of ring:4, all modes in one stacked conjugation
    domain, codomain = build_basis(RING4_HALF, 2, sigma), build_basis(RING4_HALF, 1, sigma)
    family = matrix_family([destroy(mode, sigma) for mode in RING4_HALF.modes], domain, codomain)
    rot = SpinorRotation(RING4_HALF, 1)
    images, phases = list(rot.mode_permutation), list(rot.field_phases)
    assert symmetry._covariance_residual(rot, family, images, phases) <= 1e-12
    # distinct modes' a(xi) have disjoint supports with entries of magnitude >= 1
    shifted = images[1:] + images[:1]
    assert symmetry._covariance_residual(rot, family, shifted, phases) >= 1
    flipped = phases[:-1] + [-phases[-1]]
    assert symmetry._covariance_residual(rot, family, images, flipped) >= 1


@pytest.mark.parametrize("sigma", [1, -1])
def test_covariance_holds_up_to_sector_four(sigma):
    assert parity_covariance_check(RING4_HALF, sigma, n_max=4) <= 1e-12
    assert rotation_covariance_check(RING4_HALF, sigma, n_max=4) <= 1e-12


def test_rotation_covariance_integral_spin_full_phase():
    space = ModeSpace(Lattice.ring(4), SpinQuantum(2))
    # m_s = 1 at theta = pi: phase e^{2 i pi} = 1
    assert rotation_covariance_check(space, 1, n_max=2) <= 1e-12
    assert cis_turns(Fraction(2, 1) * Fraction(1, 2)) == 1


@pytest.mark.parametrize("sigma", [1, -1])
def test_pi_eigenvalue_half_integral(sigma):
    res = pi_eigenvalue_check(RING4_HALF, 1, 0, sigma, n_max=3)
    assert res.determinate
    assert res.lambda_expected == -sigma  # (-1)^(2s) sigma with 2s odd
    assert res.lambda_measured == pytest.approx(res.lambda_expected)
    assert abs(res.lambda_measured**2 - 1) <= 1e-12
    assert res.residual <= 1e-12


def test_pi_eigenvalue_scalar_spin():
    res = pi_eigenvalue_check(GRID_SCALAR, 0, 0, 1, n_max=2)
    assert res.lambda_measured == pytest.approx(1.0)
    res = pi_eigenvalue_check(GRID_SCALAR, 0, 0, -1, n_max=2)
    assert res.lambda_measured == pytest.approx(-1.0)


def test_pi_eigenvalue_indeterminate_at_origin():
    origin = GRID_SCALAR.lattice.origin_site
    res = pi_eigenvalue_check(GRID_SCALAR, 0, origin, -1, n_max=2)
    assert not res.determinate
    assert res.lambda_measured is None
    assert res.residual <= 1e-12
    # bosons keep a finite same-point pair: determinate at the origin
    res_b = pi_eigenvalue_check(GRID_SCALAR, 0, origin, 1, n_max=2)
    assert res_b.determinate
    assert res_b.lambda_measured == pytest.approx(1.0)


@pytest.mark.parametrize("space", [RING4_HALF, GRID_SCALAR])
def test_origin_vanishing(space):
    for tm in space.spin.projections():
        assert origin_vanishing_check(space, tm, -1, n_max=2) is True
        assert origin_vanishing_check(space, tm, 1, n_max=2) is False


@pytest.mark.parametrize("sigma", [1, -1])
def test_full_turn_winding_recovers_projection(sigma):
    space = ModeSpace(Lattice.ring(8), SpinQuantum(3))
    for tm in space.spin.projections():
        res = full_turn_winding(space, tm, 1, sigma)
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


def test_parity_covariance_builds_each_pair_matrix_once(monkeypatch):
    calls = _count_calls(monkeypatch, "matrix_family")
    assert parity_covariance_check(RING4_HALF, -1, n_max=3) <= 1e-12
    # one family of F(r) over the 4 sites per (2m_s, N), each built once
    builds = Counter((tuple(exprs), domain.n_particles) for exprs, domain, _ in calls)
    assert builds == Counter({
        (tuple(pair_operator(RING4_HALF, tm, site, -1) for site in range(4)), n): 1
        for tm in (1, -1) for n in (2, 3)
    })


def test_full_turn_winding_builds_each_pair_matrix_once(monkeypatch):
    space = ModeSpace(Lattice.ring(8), SpinQuantum(3))
    singles = _count_calls(monkeypatch, "matrix_of")
    families = _count_calls(monkeypatch, "matrix_family")
    assert full_turn_winding(space, 3, 1, 1).winding == 3
    # one family of F over the orbit of site 1, in rotation order
    orbit = [(1 + k) % 8 for k in range(space.lattice.steps_per_turn)]
    assert [(tuple(exprs), domain.n_particles) for exprs, domain, _ in families] == [
        (tuple(pair_operator(space, 3, site, 1) for site in orbit), 2)
    ]
    assert singles == []


def test_theorem_report_checks_origin_once_per_grade_and_projection(monkeypatch):
    calls = _count_calls(monkeypatch, "origin_vanishing_check")
    theorem_report(RING4_HALF, n_max=2)
    pairs = sorted((args[2], args[1]) for args in calls)  # (sigma, 2m_s)
    assert pairs == sorted((sigma, tm) for sigma in (1, -1) for tm in RING4_HALF.spin.projections())


def test_theorem_report_builds_each_even_inversion_pair_matrix_once(monkeypatch):
    space = ModeSpace(Lattice.ring(8), SpinQuantum(3))
    families = _count_calls(monkeypatch, "matrix_family")
    singles = _count_calls(monkeypatch, "pair_matrix")
    theorem_report(space, n_max=2)
    sites, probe = range(space.lattice.n_sites), theorem_probe_site(space)
    # per grade and projection, on N = 2, one family of F(r) over every site,
    # read by both the even-inversion check and the winding of the probe's orbit ...
    assert Counter((tuple(exprs), domain) for exprs, domain, _ in families) == Counter({
        (tuple(pair_operator(space, tm, site, sigma) for site in sites), build_basis(space, 2, sigma)): 1
        for sigma in (1, -1) for tm in space.spin.projections()
    })
    # ... and the half-turn check builds F(probe) on its own
    assert Counter((args[3], args[1], args[2]) for args in singles) == Counter({
        (sigma, tm, probe): 1 for sigma in (1, -1) for tm in space.spin.projections()
    })


def test_winding_needs_fine_enough_steps():
    space = ModeSpace(Lattice.ring(4), SpinQuantum(2))
    with pytest.raises(IncompatibleRotationError):
        full_turn_winding(space, 2, 0, 1)


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
    for key in ("+1", "-1"):
        entry = payload["per_sigma"][key]
        for field in ("lambda", "origin_vanishes", "winding_twos_ms", "consistent"):
            assert field in entry
    assert payload["per_sigma"]["-1"]["winding_twos_ms"] == {"-1": -1, "1": 1}


def test_theorem_report_preconditions():
    with pytest.raises(IncompatibleRotationError):
        theorem_report(ModeSpace(Lattice.ring(4), SpinQuantum(2)), n_max=2)
    with pytest.raises(ValueError):
        theorem_report(RING4_HALF, n_max=1)
