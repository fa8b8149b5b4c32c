import dataclasses
import math
from fractions import Fraction

import mpmath
import pytest

from quadlcm import bounds
from quadlcm import (
    QuadInt,
    bound_report,
    combinatorial_checks,
    content_multiple,
    lcm_range,
    product_content,
    rational_divisor,
    stirling_check,
    triple_report,
    verify_divisor,
)
from quadlcm.bounds import (
    LOG_TOLERANCE,
    PRECISION_BITS,
    exp_bound_const,
    factorial_bound_const,
    floor_half_frontier,
    frontier_bound_const,
    icbrt,
    log_factorial,
)


class TestLcmRange:
    def test_examples(self):
        assert lcm_range(1, 1, 1) == 2
        assert lcm_range(1, 1, 3) == 10
        assert lcm_range(1, 4, 7) == 408850

    def test_bad_range(self):
        with pytest.raises(ValueError):
            lcm_range(1, 3, 1)
        with pytest.raises(ValueError):
            lcm_range(0, 1, 2)

    def test_non_increasing_in_m(self):
        for c in (1, 3, 5):
            for n in (5, 12, 20):
                values = [lcm_range(c, m, n) for m in range(1, n + 1)]
                assert all(x >= y for x, y in zip(values, values[1:]))


class TestRationalDivisor:
    def test_examples(self):
        assert rational_divisor(1, 1, 3) == Fraction(5, 4)
        assert rational_divisor(1, 2, 3) == Fraction(10)
        for c in (1, 2, 5):
            for m in (1, 4, 9):
                assert rational_divisor(c, m, m) == Fraction(m * m + c, c)


class TestVerifyDivisor:
    def test_1_1_3(self):
        r = verify_divisor(1, 1, 3)
        assert (r.L, r.D, r.quotient_check) == (10, Fraction(5, 4), 8)
        assert (r.hc_value, r.hc_bound) == (10, 40)
        assert (r.star_x, r.star_y) == (0, -2)
        assert (r.numerator, r.denominator) == (100, 80)

    def test_1_2_3_tight(self):
        r = verify_divisor(1, 2, 3)
        assert (r.L, r.D, r.quotient_check) == (10, Fraction(10), 1)
        assert (r.hc_value, r.hc_bound) == (5, 5)
        assert (r.star_x, r.star_y) == (1, -1)

    def test_diagonal_quotient_is_c(self):
        for c in (1, 2, 3, 4, 5):
            for m in (1, 5, 17):
                assert verify_divisor(c, m, m).quotient_check == c

    def test_forged_report_detected(self):
        good = verify_divisor(1, 1, 3)
        assert good.failures() == []
        assert dataclasses.replace(good, quotient_check=7).failures()
        assert dataclasses.replace(good, hc_value=3).failures()
        assert dataclasses.replace(good, star_x=1).failures()

    def test_cross_consistency(self):
        # L * (n-m)! * hc is a multiple of prod(k^2 + c)
        for c in (1, 2, 5):
            for n in range(1, 15):
                for m in range(1, n + 1):
                    r = verify_divisor(c, m, n)
                    assert (r.L * math.factorial(n - m) * r.hc_value) % r.numerator == 0

    def test_star_identity_restated(self):
        for c, m, n in [(1, 1, 3), (2, 3, 9), (5, 2, 8)]:
            r = verify_divisor(c, m, n)
            star = QuadInt(r.star_x, r.star_y, c)
            from quadlcm import shifted_product

            assert star * shifted_product(c, m, n) == QuadInt(r.L * math.factorial(n - m), 0, c)


class TestContentHelpers:
    def test_product_content_examples(self):
        assert product_content(1, 1, 3) == 10
        assert product_content(1, 2, 3) == 5
        for c in (1, 2, 4):
            for m in (1, 6, 13):
                assert product_content(c, m, m) == 1

    def test_content_multiple_examples(self):
        assert content_multiple(1, 2) == 40
        assert content_multiple(1, 1) == 5
        for c in range(1, 6):
            assert content_multiple(c, 0) == c

    def test_divisibility_small_sweep(self):
        for c in (1, 2, 3):
            for n in range(1, 16):
                for m in range(1, n + 1):
                    assert content_multiple(c, n - m) % product_content(c, m, n) == 0


class TestCombinatorialChecks:
    def test_examples(self):
        r = combinatorial_checks(1, 4, 7)
        assert r.binom_ok and r.two_n_ok is True
        r = combinatorial_checks(1, 1, 1)
        assert r.binom_ok and r.two_n_ok is True
        r = combinatorial_checks(1, 3, 3)
        assert r.binom_ok and r.two_n_ok is None


class TestIntegerCubeRoot:
    def test_exhaustive_small(self):
        t = 0
        for x in range(0, 30000):
            if (t + 1) ** 3 <= x:
                t += 1
            assert icbrt(x) == t

    def test_perfect_cube_boundaries(self):
        for t in (1, 7, 99, 1234, 10**6, 10**25 + 3):
            cube = t**3
            assert icbrt(cube) == t
            assert icbrt(cube - 1) == t - 1
            assert icbrt(cube + 1) == t

    def test_frontier_floor(self):
        assert floor_half_frontier(1) == 0
        assert floor_half_frontier(8) == 2
        assert floor_half_frontier(27) == 4  # 27^(2/3)/2 = 4.5
        with mpmath.workprec(200):
            for n in range(1, 500):
                ref = int(mpmath.floor(mpmath.power(n, mpmath.mpf(2) / 3) / 2))
                assert floor_half_frontier(n) == ref


class TestConstants:
    def test_factorial_bound_const(self):
        # e^(-2 pi^2 / 3) ~ 1.38822e-3 (hand check: e^-6.5 * e^-0.079736)
        v = factorial_bound_const(1)
        assert abs(v - mpmath.mpf("0.0013882153642188")) < 1e-12

    def test_ratio_of_prefactors(self):
        for c in range(1, 6):
            ratio = frontier_bound_const(c) / exp_bound_const(c)
            assert abs(ratio - mpmath.sqrt(8)) < 1e-20

    def test_monotone_in_c(self):
        for c in range(1, 6):
            assert factorial_bound_const(c + 1) < factorial_bound_const(c)


class TestLogFactorial:
    def test_against_lgamma(self):
        for k in (0, 1, 2, 10, 100, 1000):
            got = float(log_factorial(k))
            want = math.lgamma(k + 1)
            assert abs(got - want) <= 1e-11 * max(1.0, abs(want))

    def test_exact_small(self):
        with mpmath.workprec(PRECISION_BITS):
            assert abs(log_factorial(5) - mpmath.log(120)) < mpmath.mpf(2) ** (-100)


class TestBoundReport:
    def test_farhi_at_50(self):
        r = bound_report(1, 1, 50)
        v = r.bounds["farhi"]
        assert v.applicable
        with mpmath.workprec(PRECISION_BITS):
            expected = mpmath.log(mpmath.mpf("0.32")) + 50 * mpmath.log(mpmath.mpf("1.442"))
            assert abs(v.log_value - expected) < 1e-20
        assert r.logL >= v.log_value

    def test_diagonal_final_bound(self):
        for c in (1, 3, 5):
            for n in (1, 7, 40):
                r = bound_report(c, n, n)
                v = r.bounds["final"]
                assert v.applicable
                with mpmath.workprec(PRECISION_BITS):
                    expected = mpmath.log(exp_bound_const(c)) + mpmath.log(n)
                    assert abs(v.log_value - expected) < 1e-18
                assert r.logL >= v.log_value

    def test_t7_value_at_1_4_7(self):
        r = bound_report(1, 4, 7)
        v = r.bounds["t7"]
        # lam1 * 16 * (7!)^2 / ((4!)^2 * (3!)^3)
        expected = factorial_bound_const(1) * 16 * math.factorial(7) ** 2 / (
            math.factorial(4) ** 2 * math.factorial(3) ** 3
        )
        assert abs(v.log_value - mpmath.log(expected)) < 1e-15
        assert r.logL >= v.log_value

    def test_applicability_gates_exact(self):
        # 8*(n-m)^3 vs n^2 splits the frontier; n=8, m=6 sits exactly on it
        r = bound_report(1, 6, 8)
        assert r.bounds["c5"].applicable and r.bounds["final"].applicable
        r = bound_report(1, 5, 8)
        assert r.bounds["c5"].applicable and not r.bounds["final"].applicable
        r = bound_report(1, 7, 8)
        assert not r.bounds["c5"].applicable and r.bounds["final"].applicable

    def test_t9_needs_m_below_n(self):
        assert not bound_report(2, 5, 5).bounds["t9"].applicable
        assert bound_report(2, 4, 5).bounds["t9"].applicable

    def test_oon_gate(self):
        assert bound_report(1, 2, 3).bounds["oon_2n"].applicable
        assert not bound_report(1, 3, 3).bounds["oon_2n"].applicable

    def test_farhi_gate(self):
        assert not bound_report(2, 1, 5).bounds["farhi"].applicable
        assert not bound_report(1, 2, 5).bounds["farhi"].applicable

    def test_forged_report_detected(self):
        r = bound_report(1, 1, 10)
        assert r.failures() == []
        bad = dataclasses.replace(r, logL=mpmath.mpf(-100))
        assert bad.failures()

    def test_failures_compare_at_working_precision(self):
        # logL falls short of the tolerance by a relative 2^-110: visible at
        # 128 bits, rounded away at mpmath's default 53
        r = bound_report(1, 1, 2)
        v = r.bounds["oon_2n"].log_value
        with mpmath.workprec(PRECISION_BITS):
            forged = (v - LOG_TOLERANCE * abs(v)) * (1 - mpmath.mpf(2) ** -110)
        assert mpmath.mp.prec == 53
        assert dataclasses.replace(r, logL=forged).failures()


class TestTripleReport:
    def test_one_lcm_per_triple(self, monkeypatch):
        calls = []

        def counted(c, m, n):
            calls.append((c, m, n))
            return lcm_range_unpatched(c, m, n)

        lcm_range_unpatched = bounds.lcm_range
        monkeypatch.setattr(bounds, "lcm_range", counted)
        triples = [(1, 1, 1), (1, 2, 3), (3, 4, 9), (2, 1, 30)]
        for triple in triples:
            triple_report(*triple)
        assert calls == triples

    def test_parts_match_separate_builders(self):
        for c in (1, 2, 5):
            for n in range(1, 13):
                for m in range(1, n + 1):
                    r = triple_report(c, m, n)
                    assert r.divisor == verify_divisor(c, m, n)
                    assert r.bounds == bound_report(c, m, n)
                    assert r.checks == combinatorial_checks(c, m, n)
                    assert r.violations == ()

    def test_failed_claims_are_collected_not_raised(self, monkeypatch):
        # L = 1 breaks every claim: L/D is not integral, every bound exceeds
        # log L = 0, and L < m*C(n, m), L < 2^n
        monkeypatch.setattr(bounds, "lcm_range", lambda c, m, n: 1)
        r = triple_report(1, 1, 3)
        assert r.divisor is None
        assert not r.checks.binom_ok and r.checks.two_n_ok is False
        assert r.violations[0] == "L/D is not an integer at (c=1, m=1, n=3)"
        assert r.violations[1].startswith("bound invariants failed at (c=1, m=1, n=3)")
        assert r.violations[2:] == ("L < m * C(n, m)", "L < 2^n")


def _clear_log_caches():
    for memo in (bounds._fixed_consts, bounds._log_consts, bounds._c5_terms):
        memo.cache_clear()
    bounds._LOG_INT_CACHE.clear()
    bounds._LOG_FACT_CACHE.clear()


class TestLogCaches:
    def test_prefactor_logs_match_fresh(self):
        _clear_log_caches()
        for c in range(1, 6):
            cached = bounds._log_consts(c)
            with mpmath.workprec(PRECISION_BITS):
                fresh = (
                    mpmath.log(factorial_bound_const(c)),
                    mpmath.log(exp_bound_const(c)),
                    mpmath.log(frontier_bound_const(c)),
                )
            assert cached == fresh

    @pytest.mark.parametrize("c, m, n", [(1, 1, 3), (1, 2, 3), (1, 3, 3), (2, 5, 9), (3, 60, 64), (1, 1, 200)])
    def test_first_call_precision_does_not_leak(self, c, m, n):
        reports = []
        for prec in (53, 256):
            _clear_log_caches()
            with mpmath.workprec(prec):
                reports.append(bound_report(c, m, n))
        low, high = reports
        assert low.logL == high.logL
        assert low.bounds == high.bounds
        assert any(bv.applicable for bv in low.bounds.values())

    def test_log_factorial_first_call_precision_does_not_leak(self):
        values = []
        for prec in (53, 256):
            _clear_log_caches()
            with mpmath.workprec(prec):
                values.append(log_factorial(60))
        assert values[0] == values[1]


class TestStirling:
    def test_k1_brackets(self):
        with mpmath.workprec(PRECISION_BITS):
            lower = mpmath.exp(-1) * mpmath.sqrt(2 * mpmath.pi)
            upper = lower * mpmath.exp(mpmath.mpf(1) / 12)
            assert 0.92 < lower < 1 < upper < 1.003
        assert stirling_check(1)

    def test_k10_brackets_3628800(self):
        with mpmath.workprec(PRECISION_BITS):
            lower = mpmath.mpf(10) ** 10 * mpmath.exp(-10) * mpmath.sqrt(20 * mpmath.pi)
            upper = lower * mpmath.exp(mpmath.mpf(1) / 120)
            assert lower <= 3628800 <= upper
        assert stirling_check(10)

    def test_large(self):
        assert stirling_check(1000)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            stirling_check(0)
