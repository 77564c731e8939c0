"""Exact engine for finite-poset order polynomials, operadic composition,
and rational zeta series identities.

The exported names load on first use (PEP 562), so ``import posetoperad``
imports no submodule and a command pays only for the modules it uses.
"""

import importlib

_EXPORTS = {
    "counting": ("DVector", "count_maps", "d_vector", "enumeration_report",
                 "order_polynomial", "reciprocity_check"),
    "errors": ("ArityError", "ArityMismatch", "CycleDetected",
               "DivergentParameter", "DuplicateLabel", "EnumerationGuard",
               "ExprSyntaxError", "IndexOutOfRange", "MissingProvenance",
               "ModeMismatch", "PosetOperadError", "PrecisionUnachievable",
               "UnknownIdentity", "UnknownLabel", "UnknownName"),
    "polynomials": ("BinomialPoly", "MonomialPoly", "bernoulli_number",
                    "binomial", "eulerian_number", "eulerian_polynomial",
                    "multiset_coeff", "stirling2"),
    "poset": ("Poset", "antichain", "chain", "construct_poset",
              "disjoint_union", "lex_sum", "max_chain_length", "ordinal_sum",
              "tropical_eval"),
    "series": ("ClosedForm", "SeriesVec", "basis_series", "closed_form",
               "hadamard", "inverse_power_sum", "iota",
               "operad_eval_series", "ordinal_mul", "series_of",
               "series_identity_check", "zigzag_poset"),
    "suite": ("alternating_unit_record", "binomial_shift_record",
              "goldbach_record"),
    "zeta": ("IdentityRecord", "PrecisionContext", "ZetaExpr",
             "entry22_check", "finite_form_identity", "n_tilde", "n_tilde2",
             "operad_eval_zeta", "verify_identity", "zeta_number",
             "zeta_value", "zhat"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # posetoperad.zeta and the like need no import first
        return importlib.import_module(f".{name}", __name__)
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
