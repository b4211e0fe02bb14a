"""Exact continued-fraction arithmetic for spectrum computations.

Kernel types: QuadExt / QuadSum (exact quadratic-field values), FiniteCF
and EPCF words, doubly infinite eventually periodic sequences (BiSeq)
with their two-sided values, and certificate machinery for forbidden
patterns and non-attainability audits.
"""

from .quadfield import MixedRadicandError, QuadExt, QuadSum
from .cfrac import (
    EPCF,
    EpsDelta,
    FiniteCF,
    PeriodNotFoundError,
    PrefixOrderUndecided,
    cmp_prefix,
    cylinder,
    distance_bounds,
    eval_finite,
    eval_periodic,
    expand,
)

__version__ = "0.1.0"
