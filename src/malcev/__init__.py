"""Exact computation with finitely generated nilpotent groups.

The package realizes the Mal'cev correspondence in exact rational
arithmetic: lattice hulls with adapted bases, the BCH group law on
exponential coordinates, IA*-automorphism groups as integer points of
unipotent groups with finite-level congruence and strong-approximation
verifiers, and fiber-product representations of groups with torsion.
"""

from .errors import (AlgebraMismatch, CapExceeded, DimensionMismatch,
                     SublatticeError, UnsupportedInputForm)
from .lattices import (Coordinates, Lattice, hnf_lattice, intersect_subspace,
                       lattice_index, lattice_intersect, lattice_sum,
                       smith_quotient)
from .liealg import (GroupElement, NilpotentLieAlgebra,
                     validate_structure_constants)
from .unitriangular import matrix_exp, matrix_log, tr0_algebra
from .hull import (GenGroup, HullResult, LatticeQuotient, adapted_basis,
                   congruence_quotient, congruence_scale, derived_lattice_data,
                   finite_quotient, group_index_in_hull, hull_of_lattice,
                   lattice_hull)
from .autos import (IAStarEquations, LieAutomorphism, aut_star_image,
                    csp_witness, enumerate_ia_star, is_ia_star, make_ia_star,
                    strong_approx_check)
from .finite import FiniteGroup
from .fiber import (FiberElement, FiberGroup, HullSide, fiber_product_finite,
                    find_t, free_abelianization_check, ia_kernel_enum,
                    level_quotient, lift_automorphism, lift_from_level_image,
                    reconstruction_check, torsion_subgroup)
from .freenil import (FreeNilpotent, central_tuple_iso, aut_restriction, center,
                      free_algebra, hall_basis, psi_group, witt_dimension)
from .verify import SUITES, VerificationReport, run_suite

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
