"""Exact-arithmetic toolkit for the lcm of quadratic sequences n^2 + c; import from its modules."""

__version__ = "0.1.0"
