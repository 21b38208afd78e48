"""Exact verification toolkit for a two-parameter family of zeta(4) forms.

The package constructs two families of linear forms in {1, zeta(4)} from
rational kernels built out of shifted rising factorials, proves their
componentwise equality cell by cell in exact rational arithmetic, checks
the recurrences and closed forms their coefficients satisfy, and audits the
printed summand formulas of the underlying series against independent
evaluation routes.  See the README for a tour.
"""

from __future__ import annotations

from .apery_forms import (FormParameters, Kernel, SummandCheck,
                          audit_summands, left_form, left_form_numeric,
                          left_kernel, left_mid_summand, left_tail_summand,
                          right_form, right_form_numeric, right_kernel,
                          right_low_summand, right_mid_summand, verify_cell)
from .errors import (Apery4Error, DivergenceError, DomainError, PoleError,
                     PoleInRangeError, RangeError, ReconstructionError)
from .exact_arith import binomial, factorial, harmonic, pochhammer
from .polyrat import PartialFractions
from .zeta_forms import (FixedPointNumber, ZetaLinearForm, bernoulli_even,
                         derivative_tail_sum, evaluate_decimal, zeta_value)

__all__ = [
    "Apery4Error",
    "DivergenceError",
    "DomainError",
    "FixedPointNumber",
    "FormParameters",
    "Kernel",
    "PartialFractions",
    "PoleError",
    "PoleInRangeError",
    "RangeError",
    "ReconstructionError",
    "SummandCheck",
    "ZetaLinearForm",
    "audit_summands",
    "bernoulli_even",
    "binomial",
    "derivative_tail_sum",
    "evaluate_decimal",
    "factorial",
    "harmonic",
    "left_form",
    "left_form_numeric",
    "left_kernel",
    "left_mid_summand",
    "left_tail_summand",
    "pochhammer",
    "right_form",
    "right_form_numeric",
    "right_kernel",
    "right_low_summand",
    "right_mid_summand",
    "verify_cell",
    "zeta_value",
]

__version__ = "0.1.0"
