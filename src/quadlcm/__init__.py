"""Exact-arithmetic toolkit for the lcm of quadratic sequences n^2 + c; import from its modules."""

__version__ = "0.1.0"

# the prefactor logs of c are certified only for c below this (`fixedlog` states their error budget);
# every command caps c with it, and it lives here so that `bezout` caps c without loading the log engine
C_LIMIT = 1 << 61
