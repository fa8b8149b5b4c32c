"""Exact-arithmetic toolkit for the lcm of quadratic sequences n^2 + c."""

from .ring import (
    QuadInt,
    QuadRat,
    RingMismatchError,
    InexactDivisionError,
    DivisibilityHypothesisError,
    content,
    content_multiple,
    divisibility_criterion,
    is_multiple,
    divide_exact,
    shifted_product,
    product_divides_ab,
)
from .poly import (
    QuadPoly,
    IntPoly,
    BezoutCertificate,
    PoleError,
    NonCoprimeError,
    CertificateError,
    shift_product_poly,
    split_parts,
    recombine_parts,
    forward_difference,
    newton_basis,
    falling,
    reciprocal_difference,
    reciprocal_difference_closed,
    newton_coeff,
    newton_coeff_closed,
    bezout_poly,
    bezout_poly_interp,
    bezout_pair,
    bezout_certificate,
)
from .bounds import (
    BOUND_NAMES,
    BoundReport,
    BoundValue,
    DivisorReport,
    InvariantViolation,
    TripleReport,
    bound_report,
    lcm_range,
    product_content,
    rational_divisor,
    triple_report,
    verify_divisor,
)

__version__ = "0.1.0"
