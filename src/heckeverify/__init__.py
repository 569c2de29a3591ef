"""Exact-arithmetic verification of boundary Hecke algebra structures and
their double-row transfer matrices."""

from .baxter import (BaxterKit, build_kit, calibrate_crossing, check_condition2,
                     check_re, check_unitarity, check_ybe, k_bar_plus_hat,
                     k_minus_hat, r_hat)
from .errors import (CalibrationFailure, ConditionFailure, ConfigError,
                     ConstraintViolation, DimensionMismatch, HeckeVerifyError,
                     IndexOutOfRange, InternalMismatch, NotAUnit, NotInvertible,
                     RelationFailure, SpanFailure)
from .hecke import (HeckeRep, build_glN_rep, check_murphy_commutation,
                    check_relations, check_symmetric_commutant, check_tl_quotient,
                    generator_inverse, murphy, murphy_inverse)
from .params import Params, parse_rational, sample_params
from .reporting import CheckReport, render_report
from .rings import LaurentPoly, Rational, lp_ratio, rat
from .tensor import (PolyMatrix, embed_pair, embed_site, kron,
                     mat_proportional, permutation_pair)
from .transfer import (ExpansionEdge, OneBoundaryChain, TwoBoundaryLattice,
                       build_t_one_boundary, build_t_two_boundary,
                       check_degeneration, explore_generic, extract_edges,
                       t_two_boundary_direct, t_two_boundary_factorized,
                       verify_murphy_two_boundary)

__version__ = "0.1.0"
