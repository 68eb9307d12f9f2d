"""Exact finite-lattice checks of the spin-statistics connection.

Field operators with a statistics grade sigma = +-1 are realized on small
centrosymmetric lattices, where every graded commutation relation, bracket
identity, ideal-gas occupancy rule, spinor rotation, and pair-operator
symmetry becomes a finite matrix identity that can be verified to floating
point accuracy.

The package exports nothing at the top level: import from the submodules
(``spinstat.fockspace``, ``spinstat.symmetry``, ``spinstat.cli``, ...).
"""

__version__ = "0.1.0"
