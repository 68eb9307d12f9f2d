"""Exact finite-lattice checks of the spin-statistics connection.

Field operators with a statistics grade sigma = +-1 are realized on small
centrosymmetric lattices, where every graded commutation relation, bracket
identity, ideal-gas occupancy rule, spinor rotation, and pair-operator
symmetry becomes a finite matrix identity that can be verified to floating
point accuracy.
"""

from .modes import Lattice, Mode, ModeSpace, SpinQuantum, enumerate_modes, kron_delta
from .opalgebra import (
    LadderOp,
    OperatorExpr,
    OperatorTerm,
    create,
    destroy,
    expr_equal,
    normal_order,
    parse_expr,
    sigma_commutator,
    vacuum_expectation,
)
from .fockspace import (
    FockBasis,
    OperatorMatrix,
    StateVector,
    apply_ladder,
    bracket_state,
    build_basis,
    completeness_check,
    determinant,
    ladder_relation_residuals,
    matrix_of,
    max_abs,
    overlap,
    overlap_oracle,
    permanent,
    sector_dimension,
    symmetrizer_oracle,
)
from .hamiltonians import (
    OneBodySpec,
    SpectrumResult,
    TwoBodySpec,
    build_many_body,
    diagonalize,
    ideal_gas_check,
    mode_operator_check,
    one_particle_spectrum,
)
from .symmetry import (
    SpinorRotation,
    TheoremReport,
    full_turn_winding,
    origin_vanishing_check,
    pair_operator,
    parity_covariance_check,
    permutation_eigencheck,
    pi_eigenvalue_check,
    rotation,
    rotation_by_steps,
    rotation_covariance_check,
    rotation_squared_pi_check,
    theorem_report,
)
from .correlations import (
    antipodal_profile,
    pair_correlation,
    pair_distribution,
    relative_parity_spectrum,
    wavefunction,
)

__version__ = "0.1.0"
