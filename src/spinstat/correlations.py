"""Two-body correlations of kets in first-quantized form.

The wave function of a ket is its coordinate representation against the
product-of-creation bracket states; integrating out all but two coordinates
gives the two-body correlation (the ket itself is integrated, not a density,
so phases matter).  The antipodal profile evaluates it at (r, -r) with equal
spins, and its discrete Fourier transform on a ring exposes the selection
rule: relative angular components survive only where (-1)^l matches the
statistics grade.
"""

from __future__ import annotations

import numpy as np
import numpy.fft  # noqa: F401  numpy loads it on first use; loaded here, in start-up, not in a command

from .fockspace import StateVector, bracket_amplitudes, index_tuples
from .modes import Mode


def _pair_correlations(state: StateVector, pairs) -> np.ndarray:
    """F(xi1, xi2) for each (xi1, xi2) in ``pairs``, from one batch of bracket
    states: every pair followed by every tuple of the remaining coordinates."""
    basis = state.basis
    n = basis.n_particles
    if n < 2:
        raise ValueError("pair correlation needs at least two particles")
    space = basis.space
    heads = np.array([[space.index(x), space.index(y)] for x, y in pairs], dtype=np.intp)
    rest = index_tuples(space.n_modes, n - 2)
    rows = np.hstack([np.repeat(heads, len(rest), axis=0), np.tile(rest, (len(heads), 1))])
    _, index, amp = bracket_amplitudes(space, rows, basis.sigma)
    live = amp != 0
    terms = np.zeros(len(rows), dtype=np.complex128)
    terms[live] = amp[live] * state.amplitudes[index[live]]
    # summed one term at a time, in coordinate order: np.sum would move the last bits
    sums = [sum(row, 0j) for row in terms.reshape(len(heads), -1).tolist()]
    return np.array(sums, dtype=np.complex128)


def antipodal_profile(state: StateVector, twos_ms: int) -> np.ndarray:
    """r -> F((r, m_s), (-r, m_s)) over all sites; odd or even under r -> -r
    according to the statistics grade."""
    space = state.basis.space
    if not space.spin.is_allowed_projection(twos_ms):
        raise ValueError(f"projection 2m_s={twos_ms} not allowed")
    inv, sites = space.lattice.invert_site, range(space.lattice.n_sites)
    return _pair_correlations(state, [(Mode(r, twos_ms), Mode(inv(r), twos_ms)) for r in sites])


def relative_parity_spectrum(state: StateVector, twos_ms: int) -> np.ndarray:
    """DFT of the antipodal profile over the ring angle index.

    Components l with (-1)^l different from the statistics grade vanish,
    because the profile is sigma-symmetric under the half-ring shift.
    Defined on rings only; grids resolve parity through inversion alone.
    """
    space = state.basis.space
    if space.lattice.kind != "ring":
        raise ValueError("angular decomposition is defined on rings only")
    return np.fft.fft(antipodal_profile(state, twos_ms))
