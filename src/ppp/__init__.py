"""Exact-arithmetic toolkit for primary pseudo-polynomial sequences."""

import importlib

from .arith import (
    PrimeTable,
    binomial,
    binomial_row,
    lcm_table,
    lcm_to,
    lucas_binomial_mod,
    primes_up_to,
    primorial,
    primorial_table,
)
from .certify import (
    CertReport,
    Counterexample,
    GrowthEstimate,
    PolyDetect,
    certify_primary_direct,
    certify_primary_hall,
    certify_pseudo_hall,
    detect_polynomial,
    growth_exponent,
)
from .construct import (
    ConstructStep,
    ConstructTrace,
    ceil_div_rational,
    construct_genuine,
    phi_geometric,
    phi_primorial,
    phi_table,
)
from .egfinv import EgfTriple, egf_reciprocal, egf_triple, u_over_factorial
from .recur import (
    GuessBudget,
    LeadingZeroError,
    NonIntegralError,
    PolyRecurrence,
    apply_recurrence,
    guess_recurrence,
    verify_recurrence,
)
from .transforms import (
    IntSequence,
    RationalSeries,
    binomial_transform,
    inverse_binomial_transform,
    ogf_of,
    substitute_check,
)

__version__ = "0.1.0"

# Only the effective bounds need real numbers.  ``ppp.bounds`` and its
# interval arithmetic ``ppp.real`` load on first access (PEP 562); every
# other layer works without them.
_BOUNDS_EXPORTS = frozenset({
    "CapExceeded",
    "Delta",
    "DomainError",
    "EffectiveBounds",
    "Enclosure",
    "Parameters",
    "PrecisionCtx",
    "PrecisionExhausted",
    "SearchExceeded",
    "bounds_report",
    "choose_parameters",
    "compute_H",
    "compute_J",
    "degree_bound_formula",
    "phi_upper_bound",
})


def __getattr__(name: str):
    if name != "bounds" and name not in _BOUNDS_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    bounds = importlib.import_module(".bounds", __name__)  # also binds ppp.bounds
    return bounds if name == "bounds" else getattr(bounds, name)


def __dir__():
    return sorted(set(globals()) | _BOUNDS_EXPORTS | {"bounds"})
