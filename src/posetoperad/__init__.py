"""Exact engine for finite-poset order polynomials, operadic composition,
and rational zeta series identities."""

from .counting import (DVector, count_maps, count_strict_surjections,
                       d_vector, enumeration_report,
                       nested_sum_identity_check, order_polynomial,
                       reciprocity_check)
from .errors import (ArityError, ArityMismatch, CrossCheckMismatch,
                     CycleDetected, DivergentParameter, DuplicateLabel,
                     EnumerationGuard, ExprSyntaxError, IndexOutOfRange,
                     MissingProvenance, ModeMismatch, PosetOperadError,
                     PrecisionUnachievable, UnknownIdentity, UnknownLabel,
                     UnknownName)
from .polynomials import (BinomialPoly, MonomialPoly, bernoulli_number,
                          binomial, eulerian_number, eulerian_polynomial,
                          multiset_coeff, stirling2, x_power)
from .poset import (Poset, antichain, chain, construct_poset, disjoint_union,
                    lex_sum, max_chain_length, ordinal_sum, tropical_eval)
from .series import (ClosedForm, SeriesVec, basis_series, closed_form,
                     hadamard, iota, operad_eval_series,
                     operad_eval_series_report, ordinal_mul, series_of,
                     series_identity_check, zigzag_poset)
from .zeta import (IdentityRecord, PrecisionContext, ZetaExpr,
                   alternating_unit_record, binomial_shift_record,
                   entry22_check, finite_form_identity, goldbach_record,
                   inverse_power_sum, n_tilde, n_tilde2, operad_eval_zeta,
                   verify_identity, zeta_number, zeta_value, zhat)

__version__ = "0.1.0"
