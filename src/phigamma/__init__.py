"""Exact matrix calculus for etale (phi, gamma)-modules over truncated
Laurent series rings with Galois ring coefficients."""

__version__ = "0.1.0"

from .errors import PhigammaError
from .galois_ring import CoeffRing, make_ring
from .laurent import LaurentSeries, UnitDegree, compose, eth_root_one_unit
from .verdicts import FAILS, HOLDS, INCONCLUSIVE, Verdict
from .period import (PeriodRing, check_frobenius_contraction,
                     check_height_theory, check_local_contraction,
                     contraction_constants, gamma_power, make_custom_ring,
                     project_to_base, standard_cyclotomic, tame_extension)
from .matrices import (FiltrationParams, SeriesMatrix, solve_g, solve_h,
                       twisted_conj)
from .framed import (DescentDatum, FramedModule, GHatAction, LGroupElem,
                     change_basis, check_descent, check_lparameter_shape,
                     check_topologically_nilpotent, commutation_residual,
                     compose_semilinear, descent_datum_after_change_basis,
                     lgroup_mul, make_framed, pattern_ok)
from .herr import (Cochain, CoboundaryResult, DualMatrix, HerrComplex,
                   check_invariance, descend_cochain, estimate_h_ranks,
                   ext_from_cocycle, ext_is_split, ext_residual,
                   lift_dual_numbers, obstruction, restrict_to_E)
from .cup import (Cup2Class, ParabolicData, check_mu_well_defined,
                  descend_cup, lambda_map, lift_step, mu, parabolic_data)
