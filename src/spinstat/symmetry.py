"""Rotations, permutation eigenchecks, the antipodal pair operator, and the
spin-statistics verdict.

A z-rotation acts on the field column as a site permutation composed with
diagonal spinor phases e^{i m_s theta}; its Fock-space lift conjugates every
operator matrix.  The pair operator F(r) = a(-r, m_s) a(r, m_s) picks up a
factor sigma under inversion and a phase e^{2 i m_s theta} under rotation, so
conjugating with the half-turn rotation turns it into an eigenvalue problem
whose eigenvalue is (-1)^(2s) * sigma.  The theorem report assembles those
measured ingredients into a verdict for each statistics grade.

Angles are exact rational fractions of a full turn; phases at quarter turns
are produced exactly (1, i, -1, -i) so half-integral spinor phases at a half
turn are exact +-i.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

from .fockspace import (
    FockBasis,
    OperatorMatrix,
    _apply_strings,
    _particle_modes,
    bracket_state,
    build_basis,
    matrix_of,
    max_abs,
    perm_parity,
)
from .modes import Mode, ModeSpace
from .opalgebra import OperatorExpr, destroy

PHASE_TOL = 1e-12


class IncompatibleRotationError(ValueError):
    """The requested angle is not a symmetry of the lattice."""


def cis_turns(turns: Fraction) -> complex:
    """exp(2*pi*i*turns), exact at multiples of a quarter turn."""
    r = turns % 1
    if r.denominator == 1:
        return 1.0 + 0j
    if r.denominator == 2:
        return -1.0 + 0j
    if r.denominator == 4:
        return 1j if r.numerator == 1 else -1j
    return cmath.exp(2j * math.pi * float(turns))


@dataclass(frozen=True)
class SpinorRotation:
    """A lattice-compatible z-rotation by theta = 2*pi*turn_num/turn_den.

    Fractions beyond one full turn are kept as given: the spinor phases of
    half-integral projections distinguish theta from theta + 2*pi even though
    the site map does not.
    """

    space: ModeSpace
    turn_num: int
    turn_den: int

    @property
    def turns(self) -> Fraction:
        return Fraction(self.turn_num, self.turn_den)

    @property
    def theta(self) -> float:
        return 2.0 * math.pi * float(self.turns)

    @cached_property
    def steps(self) -> int:
        per_turn = self.space.lattice.steps_per_turn
        steps = self.turns * per_turn
        if steps.denominator != 1:
            raise IncompatibleRotationError(
                f"angle {self.turns} turns is not a multiple of 1/{per_turn} of a turn"
            )
        return int(steps)

    @cached_property
    def mode_permutation(self) -> tuple[int, ...]:
        """Image mode index per source mode under the site map."""
        space = self.space
        return tuple(
            space.index(space.rotate_mode(m, self.steps)) for m in space.modes
        )

    @cached_property
    def field_phases(self) -> tuple[complex, ...]:
        """e^{i m_s theta} per mode: the spinor phase of the field transform."""
        return tuple(
            cis_turns(Fraction(m.twos_ms, 2) * self.turns) for m in self.space.modes
        )

    @cached_property
    def single_particle_matrix(self) -> np.ndarray:
        """Site permutation composed with the diagonal phases e^{i m_s theta}."""
        n = self.space.n_modes
        mat = np.zeros((n, n), dtype=np.complex128)
        for i, (target, phase) in enumerate(zip(self.mode_permutation, self.field_phases)):
            mat[target, i] = phase
        return mat

    def fock_lift(self, basis: FockBasis) -> OperatorMatrix:
        """The sector unitary implementing this rotation on Fock states."""
        mat = _sector_unitary(self, basis.n_particles, basis.sigma)
        return OperatorMatrix(basis, basis, mat)


def rotation(space: ModeSpace, turns: Fraction | tuple[int, int]) -> SpinorRotation:
    """Rotation by a rational fraction of a full turn about the z axis."""
    if isinstance(turns, tuple):
        turns = Fraction(*turns)
    rot = SpinorRotation(space, turns.numerator, turns.denominator)
    rot.steps  # validate lattice compatibility eagerly
    return rot


def rotation_by_steps(space: ModeSpace, steps: int) -> SpinorRotation:
    """Rotation by ``steps`` elementary lattice steps (2*pi/M or quarter turns)."""
    return rotation(space, Fraction(steps, space.lattice.steps_per_turn))


@lru_cache(maxsize=None)
def _sector_unitary(rot: SpinorRotation, n_particles: int, sigma: int) -> sp.csr_matrix:
    # A rotated occupation state is built by transporting each creation
    # operator of the defining ascending product: the creation transport
    # carries the conjugate spinor phase e^{-i m_s theta}.
    basis = build_basis(rot.space, n_particles, sigma)
    occ = basis.occupations
    created = _particle_modes(occ, n_particles)  # each state's ascending creation list
    perm = np.asarray(rot.mode_permutation)
    rotated, amp, alive = _apply_strings(np.zeros_like(occ), perm[created], True, sigma)
    assert alive.all()  # creations of a permuted multiset never clash
    phases = np.conj(rot.field_phases)
    vals = amp.astype(np.complex128)
    for f in reversed(range(n_particles)):  # rightmost creation acts first
        vals *= phases[created[:, f]]
    factorials = np.array([math.factorial(n) for n in range(n_particles + 1)], dtype=np.float64)
    vals /= np.sqrt(factorials[occ].prod(axis=1))
    mat = sp.coo_matrix(
        (vals, (basis.rank(rotated), np.arange(basis.dim))), shape=(basis.dim,) * 2, dtype=np.complex128
    )
    return mat.tocsr()


def conjugated(rot: SpinorRotation, op: OperatorMatrix) -> OperatorMatrix:
    """U_codomain @ M @ U_domain^dagger for the rotation's sector lifts."""
    u_co = rot.fock_lift(op.codomain).matrix
    u_dom = rot.fock_lift(op.domain).matrix
    return OperatorMatrix(op.domain, op.codomain, (u_co @ op.matrix @ u_dom.conj().T).tocsr())


def rotation_element_residual(
    space: ModeSpace, rot: SpinorRotation, sigma: int, n_max: int = 3
) -> float:
    """Worst residual of U a(r, m) U+ = e^{i m theta} a(R^{-1} r, m) over all
    modes and sectors 1..n_max."""
    worst = 0.0
    for n in range(1, n_max + 1):
        domain = build_basis(space, n, sigma)
        codomain = build_basis(space, n - 1, sigma)
        for i, mode in enumerate(space.modes):
            lhs = conjugated(rot, matrix_of(destroy(mode, sigma), domain, codomain))
            target = space.mode_at(rot.mode_permutation[i])
            rhs = rot.field_phases[i] * matrix_of(destroy(target, sigma), domain, codomain).matrix
            worst = max(worst, max_abs(lhs.matrix - rhs))
    return worst


# -- permutation symmetry ----------------------------------------------------


def sigma_to_permutation_power(perm, sigma: int) -> float:
    """sigma^P: 1 for even permutations, sigma for odd ones."""
    return 1.0 if perm_parity(perm) == 1 else float(sigma)


def permutation_eigencheck(
    space: ModeSpace, coords, perm, sigma: int, tol: float = PHASE_TOL
) -> bool:
    """Does permuting the bracket-state coordinates multiply it by sigma^P?"""
    coords = tuple(coords)
    perm = tuple(perm)
    if sorted(perm) != list(range(len(coords))):
        raise ValueError(f"{perm} is not a permutation of 0..{len(coords) - 1}")
    original = bracket_state(space, coords, sigma)
    permuted = bracket_state(space, tuple(coords[p] for p in perm), sigma)
    factor = sigma_to_permutation_power(perm, sigma)
    diff = permuted.amplitudes - factor * original.amplitudes
    return bool(np.max(np.abs(diff)) <= tol) if diff.size else True


# -- the pair operator and its symmetries ------------------------------------


def pair_operator(space: ModeSpace, twos_ms: int, site: int, sigma: int) -> OperatorExpr:
    """F(r) = a(-r, m_s) a(r, m_s): two equal-spin annihilators at antipodes."""
    if not space.spin.is_allowed_projection(twos_ms):
        raise ValueError(f"projection 2m_s={twos_ms} not allowed for 2s={space.spin.twos_s}")
    inv = space.lattice.invert_site(site)
    return destroy(Mode(inv, twos_ms), sigma) * destroy(Mode(site, twos_ms), sigma)


def pair_matrix(
    space: ModeSpace, twos_ms: int, site: int, sigma: int, n_from: int
) -> OperatorMatrix:
    """Matrix of the pair operator from sector N to sector N-2."""
    return matrix_of(
        pair_operator(space, twos_ms, site, sigma),
        build_basis(space, n_from, sigma),
        build_basis(space, n_from - 2, sigma),
    )


def parity_covariance_check(
    space: ModeSpace, twos_ms: int, site: int, sigma: int, n_max: int = 3
) -> float:
    """Max residual of F(-r) = sigma F(r) on sectors 2..n_max."""
    worst = 0.0
    inv = space.lattice.invert_site(site)
    for n in range(2, n_max + 1):
        lhs = pair_matrix(space, twos_ms, inv, sigma, n).matrix
        rhs = float(sigma) * pair_matrix(space, twos_ms, site, sigma, n).matrix
        worst = max(worst, max_abs(lhs - rhs))
    return worst


def rotation_covariance_check(
    space: ModeSpace,
    twos_ms: int,
    site: int,
    turns: Fraction | tuple[int, int],
    sigma: int,
    n_max: int = 3,
) -> float:
    """Max residual of U F(r) U+ = e^{2 i m_s theta} F(R^{-1} r) on sectors 2..n_max."""
    rot = rotation(space, turns)
    phase = cis_turns(Fraction(twos_ms, 1) * rot.turns)  # e^{2 i m_s theta}
    rotated_site = space.lattice.rotate_site_z(site, rot.steps)
    worst = 0.0
    for n in range(2, n_max + 1):
        lhs = conjugated(rot, pair_matrix(space, twos_ms, site, sigma, n)).matrix
        rhs = phase * pair_matrix(space, twos_ms, rotated_site, sigma, n).matrix
        worst = max(worst, max_abs(lhs - rhs))
    return worst


def _dominant_ratio(a_mats, b_mats) -> complex | None:
    """Ratio A/B at the largest-magnitude entry of B, or None if B vanishes."""
    best_abs, best_loc = 0.0, None
    for k, b in enumerate(b_mats):
        coo = b.tocoo()
        if coo.nnz == 0:
            continue
        i = int(np.argmax(np.abs(coo.data)))
        if abs(coo.data[i]) > best_abs:
            best_abs = abs(coo.data[i])
            best_loc = (k, int(coo.row[i]), int(coo.col[i]))
    if best_loc is None or best_abs <= PHASE_TOL:
        return None
    k, r, c = best_loc
    return complex(a_mats[k][r, c] / b_mats[k][r, c])


@dataclass(frozen=True)
class PiEigenvalueResult:
    twos_ms: int
    site: int
    sigma: int
    lambda_measured: complex | None
    lambda_expected: float
    residual: float

    @property
    def determinate(self) -> bool:
        return self.lambda_measured is not None


def pi_eigenvalue_check(
    space: ModeSpace, twos_ms: int, site: int, sigma: int, n_max: int = 3
) -> PiEigenvalueResult:
    """Conjugate F(r) with the half-turn rotation and extract the eigenvalue.

    Expected value: (-1)^(2s) * sigma.  When F vanishes on every probed
    sector the result is reported indeterminate instead of being skipped:
    that vanishing (sigma=-1 at the origin) is itself part of the argument.
    """
    rot = rotation(space, Fraction(1, 2))
    a_mats, b_mats = [], []
    for n in range(2, n_max + 1):
        f = pair_matrix(space, twos_ms, site, sigma, n)
        a_mats.append(conjugated(rot, f).matrix.tocsr())
        b_mats.append(f.matrix.tocsr())
    expected = float((-1) ** space.spin.twos_s * sigma)
    lam = _dominant_ratio(a_mats, b_mats)
    if lam is None:
        residual = max((max_abs(a) for a in a_mats), default=0.0)
        return PiEigenvalueResult(twos_ms, site, sigma, None, expected, residual)
    residual = max(max_abs(a - lam * b) for a, b in zip(a_mats, b_mats))
    return PiEigenvalueResult(twos_ms, site, sigma, lam, expected, residual)


def origin_pair_site(space: ModeSpace) -> int:
    """The site playing the role of r=0: the true origin on grids; on rings
    the coordinate origin is placed on site 0, where the antipodal pair
    degenerates to a same-site product."""
    origin = space.lattice.origin_site
    return 0 if origin is None else origin


def origin_vanishing_check(
    space: ModeSpace, twos_ms: int, sigma: int, n_max: int = 3
) -> bool:
    """True iff the same-point pair a(0, m_s) a(0, m_s) is the zero operator
    on every sector 2..n_max (it must vanish for sigma=-1, survive for +1)."""
    site = origin_pair_site(space)
    mode = Mode(site, twos_ms)
    expr = destroy(mode, sigma) * destroy(mode, sigma)
    worst = 0.0
    for n in range(2, n_max + 1):
        mat = matrix_of(expr, build_basis(space, n, sigma), build_basis(space, n - 2, sigma))
        worst = max(worst, max_abs(mat.matrix))
    return worst <= PHASE_TOL


@dataclass(frozen=True)
class PiSquareReport:
    """What squaring the half-turn rotation does, sector by sector.

    The lift squares to the scalar (-1)^(2s N) on the N-particle sector
    (so it is -1 per particle for half-integral spin), while conjugation by
    it is involutive on every operator; both facts are recorded because only
    the second one feeds the eigenvalue argument (lambda^2 = 1).
    """

    sigma: int
    lift_square_phases: tuple[complex, ...]
    lift_square_expected: tuple[float, ...]
    lift_square_scalar_residual: float
    conjugation_involution_residual: float

    @property
    def involutive(self) -> bool:
        return self.conjugation_involution_residual <= PHASE_TOL


def rotation_squared_pi_check(space: ModeSpace, sigma: int, n_max: int = 3) -> PiSquareReport:
    rot = rotation(space, Fraction(1, 2))
    phases, expected = [], []
    scalar_residual = 0.0
    for n in range(n_max + 1):
        basis = build_basis(space, n, sigma)
        if basis.dim == 0:
            continue
        u = rot.fock_lift(basis).matrix
        u2 = (u @ u).tocsr()
        phase = complex(u2[0, 0])
        phases.append(phase)
        expected.append(float((-1) ** (space.spin.twos_s * n)))
        eye = sp.identity(basis.dim, dtype=np.complex128, format="csr")
        scalar_residual = max(scalar_residual, max_abs(u2 - phase * eye))
    conj_residual = 0.0
    probe_site = 0
    for tm in space.spin.projections():
        for n in range(2, n_max + 1):
            f = pair_matrix(space, tm, probe_site, sigma, n)
            twice = conjugated(rot, conjugated(rot, f))
            conj_residual = max(conj_residual, max_abs(twice.matrix - f.matrix))
    return PiSquareReport(
        sigma=sigma,
        lift_square_phases=tuple(phases),
        lift_square_expected=tuple(expected),
        lift_square_scalar_residual=scalar_residual,
        conjugation_involution_residual=conj_residual,
    )


# -- winding of the pair operator under a full turn ---------------------------


@dataclass(frozen=True)
class WindingResult:
    twos_ms: int
    winding: int
    max_step_residual: float
    angle_defect: float


def full_turn_winding(
    space: ModeSpace, twos_ms: int, site: int, sigma: int, sector_n: int = 2
) -> WindingResult:
    """Accumulate the measured per-step phase of F around one full turn.

    Each elementary step contributes e^{2 i m_s theta_step}; unwrapping the
    measured arguments over a full turn recovers the integer 2 m_s.  The
    step must resolve the phase (|2 m_s| * theta_step < pi), i.e. the lattice
    needs more than 2*|2 m_s| steps per turn.
    """
    per_turn = space.lattice.steps_per_turn
    if per_turn <= 2 * abs(twos_ms):
        raise IncompatibleRotationError(
            f"{per_turn} steps per turn cannot resolve winding for 2m_s={twos_ms}"
        )
    rot = rotation_by_steps(space, 1)
    lattice = space.lattice
    basis_from = build_basis(space, sector_n, sigma)
    basis_to = build_basis(space, sector_n - 2, sigma)
    total_angle = 0.0
    worst = 0.0
    current = site
    for _ in range(per_turn):
        nxt = lattice.rotate_site_z(current, 1)
        f_now = matrix_of(pair_operator(space, twos_ms, current, sigma), basis_from, basis_to)
        f_next = matrix_of(pair_operator(space, twos_ms, nxt, sigma), basis_from, basis_to).matrix.tocsr()
        conj = conjugated(rot, f_now).matrix.tocsr()
        phase = _dominant_ratio([conj], [f_next])
        if phase is None:
            raise ValueError(f"pair operator vanishes at site {current}; winding undefined")
        worst = max(worst, max_abs(conj - phase * f_next))
        total_angle += cmath.phase(phase)
        current = nxt
    winding = round(total_angle / (2.0 * math.pi))
    defect = abs(total_angle - 2.0 * math.pi * winding)
    return WindingResult(twos_ms, winding, worst, defect)


# -- the assembled verdict ----------------------------------------------------


@dataclass(frozen=True)
class SigmaVerdict:
    sigma: int
    lambda_measured: complex
    lambda_expected: float
    lambda_residual: float
    lambda_indeterminate_at_origin: bool
    origin_vanishes: bool
    winding_by_twos_ms: dict[int, int]
    winding_residual: float
    even_inversion_amplitudes_vanish: bool
    single_valued_conflict: bool
    consistent: bool


@dataclass(frozen=True)
class TheoremReport:
    twos_s: int
    lattice: dict
    n_max: int
    per_sigma: dict[int, SigmaVerdict]
    verdict_sigma: int

    def to_dict(self) -> dict:
        out = {"twos_s": self.twos_s, "lattice": self.lattice, "n_max": self.n_max, "per_sigma": {}}
        for sigma, v in sorted(self.per_sigma.items(), reverse=True):
            out["per_sigma"][f"{sigma:+d}"] = {
                "lambda": {"re": v.lambda_measured.real, "im": v.lambda_measured.imag},
                "lambda_expected": v.lambda_expected,
                "lambda_residual": v.lambda_residual,
                "lambda_indeterminate_at_origin": v.lambda_indeterminate_at_origin,
                "origin_vanishes": v.origin_vanishes,
                "winding_twos_ms": {str(tm): w for tm, w in sorted(v.winding_by_twos_ms.items())},
                "winding_residual": v.winding_residual,
                "even_inversion_amplitudes_vanish": v.even_inversion_amplitudes_vanish,
                "single_valued_conflict": v.single_valued_conflict,
                "consistent": v.consistent,
            }
        out["verdict_sigma"] = self.verdict_sigma
        return out


def theorem_probe_site(space: ModeSpace) -> int:
    """First site whose inversion image is a different site."""
    lattice = space.lattice
    for i in range(lattice.n_sites):
        if lattice.invert_site(i) != i:
            return i
    raise ValueError("lattice has no site pair related by inversion")


def theorem_report(space: ModeSpace, n_max: int = 3) -> TheoremReport:
    """Run every ingredient of the spin-statistics argument for both grades.

    Per grade and projection: the half-turn eigenvalue of the pair operator,
    the same-point (origin) vanishing test, and the full-turn winding.  A
    grade is consistent when, for half-integral spin, a nonzero winding never
    coexists with a finite same-point pair amplitude (single-valuedness), and
    for integral spin, when it does not force every inversion-even relative
    amplitude to vanish.  Exactly one grade survives.
    """
    spin = space.spin
    if n_max < 2:
        raise ValueError("theorem checks need sectors up to at least N=2")
    per_turn = space.lattice.steps_per_turn
    if per_turn <= 2 * spin.twos_s:
        raise IncompatibleRotationError(
            f"{per_turn} rotation steps per turn cannot resolve winding up to 2m_s={spin.twos_s};"
            " use a finer lattice (for example a larger ring)"
        )
    probe = theorem_probe_site(space)
    origin = origin_pair_site(space)
    per_sigma: dict[int, SigmaVerdict] = {}
    for sigma in (1, -1):
        lam_values: list[complex] = []
        lam_residual = 0.0
        origin_indeterminate = True
        origin_all_vanish = True
        windings: dict[int, int] = {}
        winding_residual = 0.0
        for tm in spin.projections():
            pi_res = pi_eigenvalue_check(space, tm, probe, sigma, n_max)
            if pi_res.lambda_measured is None:
                raise RuntimeError("pair operator unexpectedly vanished at the probe site")
            lam_values.append(pi_res.lambda_measured)
            lam_residual = max(lam_residual, pi_res.residual)
            if space.lattice.origin_site is not None:
                pi_origin = pi_eigenvalue_check(space, tm, origin, sigma, n_max)
                origin_indeterminate &= not pi_origin.determinate
            else:
                origin_indeterminate &= origin_vanishing_check(space, tm, sigma, n_max)
            origin_all_vanish &= origin_vanishing_check(space, tm, sigma, n_max)
            w = full_turn_winding(space, tm, probe, sigma, sector_n=2)
            windings[tm] = w.winding
            winding_residual = max(winding_residual, w.max_step_residual, w.angle_defect)
        lam = lam_values[0]
        spread = max(abs(v - lam) for v in lam_values)
        lam_residual = max(lam_residual, spread)

        even_parity_norm = 0.0
        for tm in spin.projections():
            for site in range(space.lattice.n_sites):
                inv = space.lattice.invert_site(site)
                even = (
                    pair_matrix(space, tm, site, sigma, 2).matrix
                    + pair_matrix(space, tm, inv, sigma, 2).matrix
                )
                even_parity_norm = max(even_parity_norm, max_abs(even))
        even_vanish = even_parity_norm <= PHASE_TOL

        conflict = any(w != 0 for w in windings.values()) and not origin_all_vanish
        if spin.is_half_integral:
            consistent = not conflict
        else:
            consistent = not even_vanish
        per_sigma[sigma] = SigmaVerdict(
            sigma=sigma,
            lambda_measured=lam,
            lambda_expected=float((-1) ** spin.twos_s * sigma),
            lambda_residual=lam_residual,
            lambda_indeterminate_at_origin=origin_indeterminate,
            origin_vanishes=origin_all_vanish,
            winding_by_twos_ms=windings,
            winding_residual=winding_residual,
            even_inversion_amplitudes_vanish=even_vanish,
            single_valued_conflict=conflict,
            consistent=consistent,
        )
    survivors = [sigma for sigma, v in per_sigma.items() if v.consistent]
    if len(survivors) != 1:
        raise RuntimeError(f"expected exactly one consistent grade, got {survivors}")
    verdict = survivors[0]
    if (-1) ** spin.twos_s * verdict != 1:
        raise RuntimeError("verdict violates (-1)^(2s) * sigma = 1")
    return TheoremReport(
        twos_s=spin.twos_s,
        lattice=space.lattice.describe(),
        n_max=n_max,
        per_sigma=per_sigma,
        verdict_sigma=verdict,
    )
