"""Rotations, permutation eigenchecks, the antipodal pair operator, and the
spin-statistics verdict.

A z-rotation acts on the field column as a site permutation composed with
diagonal spinor phases e^{i m_s theta}; its Fock-space lift conjugates every
operator matrix.  The pair operator F(r) = a(-r, m_s) a(r, m_s) picks up a
factor sigma under inversion and a phase e^{2 i m_s theta} under rotation, so
conjugating with the half-turn rotation turns it into an eigenvalue problem
whose eigenvalue is (-1)^(2s) * sigma.  Each grade's ``PairChecks`` record
reads its verdict from those measured ingredients, and the theorem report
combines the records of both grades.

Rotations are counted in whole lattice steps, so every angle is an exact
rational fraction of a full turn; phases at quarter turns are produced
exactly (1, i, -1, -i) so half-integral spinor phases at a half turn are
exact +-i.  The covariance checks cover every lattice rotation, projection
and site in one call.  Their operators are families (``matrix_family``):
a(xi) over every mode, or F(r) over every projection and site (each
projection's family a row range of its stack), each one stacked CSR per
sector, built for all sectors of an expression list in one call.  Each
sector lift is monomial and is held as image and phase arrays
(``SectorLift``), so a rotation of a sector relabels that stack's rows and
columns and multiplies its values by two phases, with no sparse product.  The rotation steps of a family are conjugated into one stack
(``_conjugated_stack``, up to ``fockspace.JOIN_ENTRIES`` per stack), which
is compared with one phased gather of the family's blocks: one difference
and one maximum for all steps.  Inversion compares the stack with its
blocks gathered in inverted site order.

Each grade's ``PairChecks`` record holds its F(r) families and same-point
pairs from one ``matrix_family`` call, built once per command
(``memo.command_scope``) and read by every check (the conjugations are made
by the check that reads them); outside a command each call builds its own.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from .csr import CSR, complex_array, index_dtype, joined, max_abs, max_abs_of_sum, row_gather, times
from .fockspace import (
    FockBasis,
    OperatorFamily,
    SectorLift,
    bracket_amplitudes,
    build_basis,
    joined_pieces,
    matrix_family,
    perm_parity,
    sector_lift,
)
from .memo import command_memo, kept_cache
from .modes import Mode, ModeSpace
from .opalgebra import OperatorExpr, destroy

PHASE_TOL = 1e-12


class IncompatibleRotationError(ValueError):
    """The lattice cannot carry a rotation a check needs: too few steps per
    turn to resolve a winding, or no site pair related by inversion."""


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
    """The z-rotation by ``steps`` elementary lattice steps: theta =
    2*pi*steps/S, with S = M on ring:M and S = 4 quarter turns on grid2d.

    Steps beyond one full turn are kept as given: the spinor phases of
    half-integral projections distinguish theta from theta + 2*pi even though
    the site map does not.
    """

    space: ModeSpace
    steps: int

    @property
    def turns(self) -> Fraction:
        return Fraction(self.steps, self.space.lattice.steps_per_turn)

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

    def fock_lift(self, basis: FockBasis) -> OperatorFamily:
        """The sector unitary implementing this rotation on Fock states, as
        CSR built from the lift's image and phase arrays: row i holds the
        entry of each state j with image[j] = i, in ascending j."""
        lift = _sector_unitary(self, basis.n_particles, basis.sigma)
        dim = basis.dim
        index = index_dtype(dim)
        indptr = np.zeros(dim + 1, dtype=index)
        np.cumsum(np.bincount(lift.image, minlength=dim), out=indptr[1:])
        source = lift.source.astype(index)
        return OperatorFamily(basis, basis, 1, CSR(indptr, source, lift.phase[source], (dim, dim)))


@kept_cache
def _sector_unitary(rot: SpinorRotation, n_particles: int, sigma: int) -> SectorLift:
    """The sector lift of ``rot``: each creation operator of a state's
    ascending product is transported with the conjugate spinor phase
    e^{-i m_s theta}."""
    basis = build_basis(rot.space, n_particles, sigma)
    return sector_lift(basis, rot.mode_permutation, np.conj(rot.field_phases))


def _times(ar, ai, br, bi) -> tuple[np.ndarray, np.ndarray]:
    """a * b accumulated onto zero, as a sparse product forms each
    single-term entry: ``0 + (a * b)`` in real arithmetic (``csr.times``).
    The ``0 +`` turns a -0.0 into the 0.0 the product stores."""
    re, im = times(ar, ai, br, bi)
    return 0.0 + re, 0.0 + im


def _conjugated_stack(rots, family: OperatorFamily) -> OperatorFamily:
    """The family of U M_p U+ over the rotations U of ``rots`` (outer) and
    the members M_p of ``family`` (inner), by relabelling its stack: member
    s * len(family) + p is U_s M_p U_s+.  Each lift is monomial, so row
    (s, p, i) of the result is source row (p, source_s[i]) in its stored
    order, with column j moved to image_s[j], and each entry is the one
    product the sparse triple product kron(1, U_codomain) @ stack @
    U_domain^dagger forms for it: ``0 + ((0 + u * m) * conj(w))``, u the
    codomain lift's entry of row i, w the domain lift's of column j.
    Entries that come out exactly zero are dropped, as that product drops
    them, so every array of each rotation's rows is that product's, bit for
    bit."""
    co, dom = family.codomain, family.domain
    lifts = [
        (_sector_unitary(rot, co.n_particles, co.sigma), _sector_unitary(rot, dom.n_particles, dom.sigma))
        for rot in rots
    ]
    m, members = family.matrix, np.arange(len(family))[:, None] * co.dim
    take, indptr = row_gather(m, joined([(members + lift.source).ravel() for lift, _ in lifts]))
    cols, vals = m.indices[take], m.data[take]
    starts = indptr[np.arange(len(rots) + 1) * m.shape[0]]  # where each rotation's entries start
    spans = [(lift, a, b) for (_, lift), a, b in zip(lifts, starts, starts[1:])]  # the domain lift's entries
    u = np.repeat(joined([np.tile(lift.phase[lift.source], len(family)) for lift, _ in lifts]), np.diff(indptr))
    w = joined([lift.phase[cols[a:b]] for lift, a, b in spans])
    indices = joined([lift.image[cols[a:b]] for lift, a, b in spans])
    xr, xi = _times(u.real, u.imag, vals.real, vals.imag)
    yr, yi = _times(xr, xi, w.real, -w.imag)
    indices = indices.astype(m.indices.dtype)
    kept = (yr != 0) | (yi != 0)
    if not kept.all():
        indptr = np.append(0, np.cumsum(kept))[indptr].astype(m.indptr.dtype)
        yr, yi, indices = yr[kept], yi[kept], indices[kept]
    stack = CSR(indptr, indices, complex_array(yr, yi), (len(rots) * m.shape[0], m.shape[1]))
    return OperatorFamily(dom, co, len(rots) * len(family), stack)


def _covariance(family: OperatorFamily, rots, moves) -> float:
    """Worst entry of U M_p U+ - phase_p M_image_p over the rotations U of
    ``rots`` and the members M_p of ``family``; ``moves`` holds each
    rotation's (images, phases), one of each per member.  Consecutive
    rotations whose conjugations' entries and rows add up to at most
    ``JOIN_ENTRIES`` are one ``_conjugated_stack``, compared with one phased
    block-row gather of the family's stack: one difference and one maximum
    per stack."""
    size = family.matrix.nnz + family.matrix.shape[0]
    worst = 0.0
    for piece in joined_pieces([size] * len(rots)):
        images = [i for k in piece for i in moves[k][0]]
        phases = [p for k in piece for p in moves[k][1]]
        conj = _conjugated_stack([rots[k] for k in piece], family)
        worst = max(worst, max_abs_of_sum(conj.matrix, family.blocks(images, phases), -1))
    return worst


def _unitarity_residual(lift: SectorLift) -> float:
    """Worst entry of U U+ - 1.  U U+ is diagonal, its entry i the sum of
    |phase[j]|^2 over the states j with image[j] = i, summed in ascending j
    from zero as the sparse product sums it; a row no state reaches reads 0,
    so its residual is 1."""
    pr, pi = lift.phase.real, lift.phase.imag
    dim = len(lift.image)
    re = np.bincount(lift.image, pr * pr - pi * -pi, minlength=dim)
    im = np.bincount(lift.image, pr * -pi + pi * pr, minlength=dim)
    return float(np.abs(complex_array(re, im) - 1.0).max(initial=0.0))


def _square_residual(lift: SectorLift, sign: int) -> float:
    """Worst entry of U U - sign * 1.  Column j of U U holds one entry,
    phase[image[j]] * phase[j] in row image[image[j]]: off the diagonal that
    entry and the missing diagonal 1 both count.  Magnitudes are numpy's
    complex ``abs``, as ``max_abs`` takes them, not ``hypot``: they differ
    in last bits."""
    ahead = lift.phase[lift.image]
    entry = complex_array(*_times(ahead.real, ahead.imag, lift.phase.real, lift.phase.imag))
    on_diagonal = lift.image[lift.image] == np.arange(len(entry))
    dev = np.where(on_diagonal, np.abs(entry - sign), np.maximum(np.abs(entry), 1.0))
    return float(dev.max(initial=0.0))


def sector_lift_residuals(space: ModeSpace, sigma: int, n_max: int) -> tuple[float, float]:
    """Worst residuals of U U+ = 1 for every lattice rotation's lift and of
    U_pi U_pi = (-1)^(2sN) for the half-turn lift, on sectors 0..n_max, read
    from each lift's image and phase arrays."""
    per_turn = space.lattice.steps_per_turn
    rots = [SpinorRotation(space, steps) for steps in range(per_turn)]
    unitary = square = 0.0
    for n in range(n_max + 1):
        for rot in rots:
            lift = _sector_unitary(rot, n, sigma)
            unitary = max(unitary, _unitarity_residual(lift))
            if 2 * rot.steps == per_turn:  # the half turn squares to the 2*pi sign
                square = max(square, _square_residual(lift, (-1) ** (space.spin.twos_s * n)))
    return unitary, square


def rotation_element_residual(space: ModeSpace, sigma: int, n_max: int = 3) -> float:
    """Worst residual of U a(xi) U+ = e^{i m_s theta} a(R^{-1} xi) over every
    lattice rotation, every mode xi = (r, m_s) and sectors 1..n_max.

    The a(xi) of all modes are one family per sector, built in one
    ``matrix_family`` call; each family's rotations are one stacked
    conjugation (``_covariance``), compared with one gather of the image
    modes' blocks.
    """
    annihilators = [destroy(mode, sigma) for mode in space.modes]
    sectors = [(build_basis(space, n, sigma), build_basis(space, n - 1, sigma)) for n in range(1, n_max + 1)]
    rots = [SpinorRotation(space, steps) for steps in range(space.lattice.steps_per_turn)]
    moves = [(rot.mode_permutation, rot.field_phases) for rot in rots]
    worst = 0.0
    for family in matrix_family(annihilators, sectors):
        worst = max(worst, _covariance(family, rots, moves))
    return worst


# -- permutation symmetry ----------------------------------------------------


def sigma_to_permutation_power(perm, sigma: int) -> float:
    """sigma^P: 1 for even permutations, sigma for odd ones."""
    return 1.0 if perm_parity(perm) == 1 else float(sigma)


def permutation_eigencheck(space: ModeSpace, coords, perms, sigma: int) -> float:
    """Worst max-norm of psi_P - sigma^P psi over the permutations P of the
    bracket-state coordinates, psi the unpermuted bracket state.  Each bracket
    is a multiple of one basis state, so one ``bracket_amplitudes`` call over
    the unpermuted and every permuted tuple gives every state: where psi_P
    sits on psi's basis state the deviation is the difference of amplitudes,
    elsewhere the larger of the two."""
    idx = np.array([space.index(mode) for mode in coords], dtype=np.intp)
    perms = [tuple(perm) for perm in perms]
    for perm in perms:
        if sorted(perm) != list(range(len(idx))):
            raise ValueError(f"{perm} is not a permutation of 0..{len(idx) - 1}")
    _, index, amp = bracket_amplitudes(space, [idx, *(idx[list(perm)] for perm in perms)], sigma)
    want = np.array([sigma_to_permutation_power(perm, sigma) for perm in perms]) * amp[0]
    dev = np.where(
        index[1:] == index[0], np.abs(amp[1:] - want), np.maximum(np.abs(amp[1:]), np.abs(want))
    )
    return float(dev.max(initial=0.0))


# -- the pair operator and its symmetries ------------------------------------


def pair_operator(space: ModeSpace, twos_ms: int, site: int, sigma: int) -> OperatorExpr:
    """F(r) = a(-r, m_s) a(r, m_s): two equal-spin annihilators at antipodes."""
    if not space.spin.is_allowed_projection(twos_ms):
        raise ValueError(f"projection 2m_s={twos_ms} not allowed for 2s={space.spin.twos_s}")
    inv = space.lattice.invert_site(site)
    return destroy(Mode(inv, twos_ms), sigma) * destroy(Mode(site, twos_ms), sigma)


def rotation_covariance_check(space: ModeSpace, sigma: int, n_max: int = 3) -> float:
    """Max residual of U F(r) U+ = e^{2 i m_s theta} F(R^{-1} r) over every lattice
    rotation, every projection, every site r and sectors 2..n_max, on the
    F(r) families of the grade's ``pair_checks`` record.  Each family's
    rotations are one stacked conjugation (``_covariance``)."""
    lattice = space.lattice
    sites = range(lattice.n_sites)
    rots = [SpinorRotation(space, steps) for steps in range(lattice.steps_per_turn)]
    worst = 0.0
    for twos_ms, families in pair_checks(space, sigma, n_max).families.items():
        moves = [  # F(r) -> e^{2 i m_s theta} F(R^{-1} r)
            ([lattice.rotate_site_z(site, rot.steps) for site in sites], [cis_turns(twos_ms * rot.turns)] * len(sites))
            for rot in rots
        ]
        for family in families:
            worst = max(worst, _covariance(family, rots, moves))
    return worst


def _ratio_residual(a_mats, b_mats) -> tuple[complex | None, float]:
    """lambda = A/B at the largest-magnitude entry of the B's, and the
    residual max |A - lambda B| over the pairs (A, B).  Where every B
    vanishes (no entry past ``PHASE_TOL``) lambda is None and the residual
    is max |A|."""
    best_abs, best_loc = 0.0, None
    for k, b in enumerate(b_mats):
        if b.nnz == 0:
            continue
        i = int(np.argmax(np.abs(b.data)))
        if abs(b.data[i]) > best_abs:
            best_abs = abs(b.data[i])
            best_loc = (k, int(b.entry_rows()[i]), int(b.indices[i]))
    if best_loc is None or best_abs <= PHASE_TOL:
        return None, max(max_abs(a) for a in a_mats)
    k, r, c = best_loc
    lam = complex(a_mats[k].entry(r, c) / b_mats[k].entry(r, c))
    return lam, max(max_abs_of_sum(a, replace(b, data=b.data * lam), -1) for a, b in zip(a_mats, b_mats))


def _half_turn_eigenvalue(families, member: int) -> tuple[complex | None, float]:
    """lambda in U_pi F U_pi+ = lambda F for member ``member`` of the families
    of one projection (sectors N = 2..n_max), read at F's largest entry, and
    the residual |U F U+ - lambda F|.  Where F vanishes on every sector lambda
    is None and the residual is |U F U+|: that vanishing (sigma=-1 at the
    origin) is itself part of the argument."""
    space = families[0].domain.space
    rot = SpinorRotation(space, space.lattice.steps_per_turn // 2)
    return _ratio_residual(
        [_conjugated_stack([rot], family).rows(member, member + 1) for family in families],
        [family.rows(member, member + 1) for family in families],
    )


@dataclass(frozen=True)
class WindingResult:
    winding: int | None  # None where F vanishes on the orbit
    max_step_residual: float
    angle_defect: float


def _orbit_winding(family, orbit) -> WindingResult:
    """Accumulate the measured per-step phase of F around one full turn.

    ``family`` holds F(r) over every site; ``orbit`` lists the sites of one
    full turn, one elementary rotation step apart.  Each step contributes
    e^{2 i m_s theta_step}; unwrapping the measured arguments over the turn
    recovers the integer 2 m_s.
    """
    stepped = _conjugated_stack([SpinorRotation(family.domain.space, 1)], family)
    total_angle = 0.0
    worst = 0.0
    for k, site in enumerate(orbit):
        nxt = orbit[(k + 1) % len(orbit)]
        phase, residual = _ratio_residual([stepped.rows(site, site + 1)], [family.rows(nxt, nxt + 1)])
        if phase is None:
            return WindingResult(None, worst, 0.0)
        worst = max(worst, residual)
        total_angle += cmath.phase(phase)
    winding = round(total_angle / (2.0 * math.pi))
    defect = abs(total_angle - 2.0 * math.pi * winding)
    return WindingResult(winding, worst, defect)


def theorem_probe_site(space: ModeSpace) -> int:
    """First site whose inversion image is a different site."""
    lattice = space.lattice
    for i in range(lattice.n_sites):
        if lattice.invert_site(i) != i:
            return i
    raise IncompatibleRotationError("lattice has no site pair related by inversion")


def origin_pair_site(space: ModeSpace) -> int:
    """The site playing the role of r=0: the true origin on grids; on rings
    the coordinate origin is placed on site 0, where the antipodal pair
    degenerates to a same-site product."""
    origin = space.lattice.origin_site
    return 0 if origin is None else origin


@dataclass(frozen=True)
class PairChecks:
    """Steps (c) and (e) for one grade on sectors N = 2..n_max, and the
    grade's verdict read from them.

    Every value is read from one stack per sector N, built once: F(r) over
    every projection and site, then the same-point pair a(0, m_s) a(0, m_s)
    per projection (on rings it is no F(r): site 0 inverts to M/2).  What needs a
    probe site, the half-turn eigenvalue and the winding, is read on first use.

    The grade is consistent when, for half-integral spin, a nonzero winding
    never coexists with a finite same-point pair amplitude (single-valuedness),
    and for integral spin, when it does not force every inversion-even
    relative amplitude to vanish.
    """

    space: ModeSpace
    sigma: int
    families: dict  # 2m_s -> the families of F(r) on N = 2..n_max
    inversion_residual: float  # max |F(-r) - sigma F(r)|
    even_inversion_norm: float  # max |F(-r) + F(r)|
    same_point: dict  # 2m_s -> the largest |entry| of a(0, m_s) a(0, m_s)

    @cached_property
    def probe(self) -> int:
        return theorem_probe_site(self.space)

    @cached_property
    def half_turn(self) -> dict[int, tuple[complex | None, float]]:
        """2m_s -> lambda at the probe, or None, and |U_pi F U_pi+ - lambda F|."""
        return {tm: _half_turn_eigenvalue(fams, self.probe) for tm, fams in self.families.items()}

    @property
    def lambdas(self) -> dict[int, complex | None]:
        return {tm: lam for tm, (lam, _) in self.half_turn.items()}

    @property
    def lambda_residuals(self) -> dict[int, float]:
        return {tm: residual for tm, (_, residual) in self.half_turn.items()}

    @property
    def lambda_expected(self) -> float:
        return float((-1) ** self.space.spin.twos_s * self.sigma)

    def same_point_vanishes(self, twos_ms: int) -> bool:
        return self.same_point[twos_ms] <= PHASE_TOL

    @cached_property
    def windings(self) -> dict[int, WindingResult]:
        """The winding of F per 2m_s along the probe's orbit on N = 2.  Read
        on first use: it needs a probe site, whose lack is refused first, and
        more than 2|2m_s| rotation steps per turn."""
        per_turn = self.space.lattice.steps_per_turn
        orbit = [self.space.lattice.rotate_site_z(self.probe, k) for k in range(per_turn)]
        if per_turn <= 2 * self.space.spin.twos_s:
            raise IncompatibleRotationError(
                f"{per_turn} rotation steps per turn cannot resolve winding up to"
                f" 2m_s={self.space.spin.twos_s}; use a finer lattice (for example a larger ring)"
            )
        return {tm: _orbit_winding(families[0], orbit) for tm, families in self.families.items()}

    @property
    def lambda_measured(self) -> complex | None:
        lams = list(self.lambdas.values())
        return None if None in lams else lams[0]

    @property
    def lambda_residual(self) -> float:
        """The worst half-turn residual, and where lambda was measured, how
        far the projections are from agreeing on it."""
        lam, residual = self.lambda_measured, max(self.lambda_residuals.values())
        if lam is None:
            return residual
        return max(residual, max(abs(v - lam) for v in self.lambdas.values()))

    @property
    def origin_vanishes(self) -> bool:
        return all(self.same_point_vanishes(tm) for tm in self.same_point)

    @property
    def lambda_indeterminate_at_origin(self) -> bool:
        # F(origin) is the same-point pair, so lambda is read from the same
        # matrices there and is undetermined exactly when they vanish
        return self.origin_vanishes

    @property
    def winding_by_twos_ms(self) -> dict[int, int | None]:
        return {tm: w.winding for tm, w in self.windings.items()}

    @property
    def winding_residual(self) -> float:
        return max(max(w.max_step_residual, w.angle_defect) for w in self.windings.values())

    @property
    def even_inversion_amplitudes_vanish(self) -> bool:
        return self.even_inversion_norm <= PHASE_TOL

    @property
    def single_valued_conflict(self) -> bool:
        return any(w.winding != 0 for w in self.windings.values()) and not self.origin_vanishes

    @property
    def consistent(self) -> bool:
        if self.space.spin.is_half_integral:
            return not self.single_valued_conflict
        return not self.even_inversion_amplitudes_vanish


@command_memo
def pair_checks(space: ModeSpace, sigma: int, n_max: int = 3) -> PairChecks:
    """Build the pair matrices of one grade (see ``PairChecks``) in one
    ``matrix_family`` call over N = 2..n_max, each projection's F(r) family
    a row range of its sector's stack, and read the inversion norms and the
    same-point maxima from them; a command builds the record once."""
    if n_max < 2:
        raise ValueError("pair checks need sectors up to at least N=2")
    lattice, projections, origin = space.lattice, space.spin.projections(), origin_pair_site(space)
    m = lattice.n_sites
    sites = range(m)
    pairs = [pair_operator(space, tm, site, sigma) for tm in projections for site in sites]
    same = [destroy(Mode(origin, tm), sigma) * destroy(Mode(origin, tm), sigma) for tm in projections]
    sectors = [(build_basis(space, n, sigma), build_basis(space, n - 2, sigma)) for n in range(2, n_max + 1)]
    stacks = matrix_family(pairs + same, sectors)
    families = {  # each projection's members, sharing the stack's arrays
        tm: [OperatorFamily(f.domain, f.codomain, m, f.rows(k * m, k * m + m)) for f in stacks]
        for k, tm in enumerate(projections)
    }
    same_point = {
        tm: max(max_abs(stack.rows(len(pairs) + k, len(pairs) + k + 1)) for stack in stacks)
        for k, tm in enumerate(projections)
    }
    inverted = [lattice.invert_site(site) for site in sites]
    inversion = even = 0.0
    for fams in families.values():
        for family in fams:
            mirrored = family.blocks(inverted)
            even_part = max_abs_of_sum(mirrored, family.matrix, 1)
            inversion = max(inversion, max_abs_of_sum(mirrored, family.matrix, -1) if sigma == 1 else even_part)
            even = max(even, even_part)
    return PairChecks(space, sigma, families, inversion, even, same_point)


# -- the assembled verdict ----------------------------------------------------


@dataclass(frozen=True)
class TheoremReport:
    twos_s: int
    lattice: dict
    n_max: int
    per_sigma: dict[int, PairChecks]
    verdict_sigma: int | None
    failure: str | None  # why no verdict was reached

    def to_dict(self) -> dict:
        out = {"twos_s": self.twos_s, "lattice": self.lattice, "n_max": self.n_max, "per_sigma": {}}
        for sigma, v in sorted(self.per_sigma.items(), reverse=True):
            lam = v.lambda_measured
            out["per_sigma"][f"{sigma:+d}"] = {
                "lambda": None if lam is None else {"re": lam.real, "im": lam.imag},
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
        if self.failure is not None:
            out["failure"] = self.failure
        return out


def theorem_report(space: ModeSpace, n_max: int = 3) -> TheoremReport:
    """Combine the ``PairChecks`` of both grades into the spin-statistics verdict.

    Per grade: the half-turn eigenvalue of the pair operator at the probe
    site, the same-point (origin) vanishing test and the full-turn winding,
    for every projection.  Exactly one grade should survive, and it should
    satisfy (-1)^(2s) * sigma = 1; where that fails, ``verdict_sigma`` is
    None and ``failure`` says why.
    """
    per_sigma = {sigma: pair_checks(space, sigma, n_max) for sigma in (1, -1)}
    for record in per_sigma.values():
        record.windings  # read for every spin: a lattice too coarse to resolve them is refused
    survivors = [sigma for sigma, v in per_sigma.items() if v.consistent]
    vanished = [sigma for sigma, v in per_sigma.items() if v.lambda_measured is None]
    if vanished:
        failure = f"pair operator vanished at the probe site for sigma in {vanished}"
    elif len(survivors) != 1:
        failure = f"expected exactly one consistent grade, got {survivors}"
    elif (-1) ** space.spin.twos_s * survivors[0] != 1:
        failure = f"verdict sigma={survivors[0]:+d} violates (-1)^(2s) * sigma = 1"
    else:
        failure = None
    return TheoremReport(
        twos_s=space.spin.twos_s,
        lattice=space.lattice.describe(),
        n_max=n_max,
        per_sigma=per_sigma,
        verdict_sigma=None if failure else survivors[0],
        failure=failure,
    )
