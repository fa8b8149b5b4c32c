import functools
import math
import random
import sys
import threading
from fractions import Fraction

import mpmath
import pytest

from quadlcm import bounds, divisor, fixedlog
from quadlcm.bounds import (
    BOUND_NAMES,
    PRECISION_BITS,
    floor_half_frontier,
    icbrt,
    lcm_range,
)
from quadlcm.ring import QuadInt, content_multiple, shifted_product
from quadlcm.window import Window, WindowError
from quadlcm.cli import _m_policy, fmt_log, main

from oracles import (
    TripleReport,
    checked_triple,
    content,
    exp_bound_const,
    factorial_bound_const,
    failure_message,
    frontier_bound_const,
    mpf_bound_logs,
    mpf_ratio,
    mpmath_c5_term,
    mpmath_fixed_consts,
    mpmath_log_consts,
    mpmath_log_fixed,
    mpmath_log_str,
    pass_tuple,
    replace,
    stirling_check,
    triple_report,
)


def log_factorial(k: int) -> int:
    """The fixed-point log k! as the bound rows read it: the sum of the floored log j, j <= k."""
    fixedlog._extend_logs(k)
    return fixedlog._LOG_FACT[k]


def _mpf(v: int) -> mpmath.mpf:
    """The fixed-point log v as the mpf v / 2^128, exactly."""
    return mpmath.ldexp(v, -PRECISION_BITS)


def forged_pass(monkeypatch, c, m, n, big_l=None, log_l=None, start=bounds._row_start):
    """The library's pass at one triple with its inputs forged: L from `lcm_range`, log L from `_log_fixed`."""
    with monkeypatch.context() as patch:
        if big_l is not None:
            patch.setattr(bounds, "lcm_range", lambda *args: big_l)
        if log_l is not None:
            patch.setattr(bounds, "_log_fixed", lambda x: log_l)
        return bounds.row_checks(c, n, range(m, m + 1), start)[0]


def holds(row) -> dict:
    """Bound name -> True, False or None, from one tuple of the pass."""
    return dict(zip(BOUND_NAMES, row[3]))


def bound_line(row):
    """The bound violation line of one tuple of the pass, None when every bound holds."""
    return next((v for v in row[4] if v.startswith("bound ")), None)


def forged_state(state, field):
    """A state of `divisor` with one of A, B and the multiple, named by `field`, off by one."""
    big_l, (a, b), multiple, witness = state
    entries = {"a": a, "b": b, "multiple": multiple}
    entries[field] += 1
    return big_l, (entries["a"], entries["b"]), entries["multiple"], witness


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

    def test_pairwise_tree_equals_the_left_fold(self):
        # lcm_range joins neighbours level by level; the left fold is its oracle
        rng = random.Random(7)
        for length in (1, 2, 3, 4, 7, 8, 31, 64, 129):
            for _ in range(4):
                c, m = rng.randrange(1, 50), rng.randrange(1, 300)
                terms = [k * k + c for k in range(m, m + length)]
                assert lcm_range(c, m, m + length - 1) == functools.reduce(math.lcm, terms), (c, m, length)


class TestRationalDivisor:
    def test_examples(self):
        assert checked_triple(1, 1, 3).divisor.D == Fraction(5, 4)
        assert checked_triple(1, 2, 3).divisor.D == Fraction(10)
        for c in (1, 2, 5):
            for m in (1, 4, 9):
                assert checked_triple(c, m, m).divisor.D == Fraction(m * m + c, c)

    def test_numerator_is_the_product_of_the_terms(self):
        # the numerator is built as norm(P); the plain product of k^2 + c is an independent oracle
        for c in (1, 2, 3):
            for n in range(1, 31):
                for m in range(1, n + 1):
                    num = 1
                    for k in range(m, n + 1):
                        num *= k * k + c
                    den = math.factorial(n - m) * content_multiple(c, n - m)
                    r = checked_triple(c, m, n).divisor
                    assert r.numerator == num
                    assert r.D == Fraction(num, den)


class TestVerifyDivisor:
    def test_1_1_3(self):
        r = checked_triple(1, 1, 3).divisor
        assert (r.L, r.D, r.quotient_check) == (10, Fraction(5, 4), 8)
        assert (r.hc_value, r.hc_bound) == (10, 40)
        assert (r.star_x, r.star_y) == (0, -2)
        assert (r.numerator, r.denominator) == (100, 80)

    def test_1_2_3_tight(self):
        r = checked_triple(1, 2, 3).divisor
        assert (r.L, r.D, r.quotient_check) == (10, Fraction(10), 1)
        assert (r.hc_value, r.hc_bound) == (5, 5)
        assert (r.star_x, r.star_y) == (1, -1)

    def test_diagonal_quotient_is_c(self):
        for c in (1, 2, 3, 4, 5):
            for m in (1, 5, 17):
                assert checked_triple(c, m, m).divisor.quotient_check == c

    def test_forged_report_detected(self):
        good = checked_triple(1, 1, 3).divisor
        assert good.failures() == []
        assert replace(good, quotient_check=7).failures()
        assert replace(good, hc_value=3).failures()
        assert replace(good, star_x=1).failures()

    @pytest.mark.parametrize("field, forged_record", [
        ("multiple", {"hc_bound": 41, "quotient_check": None}),
    ], ids=["multiple"])
    def test_forged_window_field_detected_by_the_pass(self, field, forged_record, monkeypatch):
        # the window [1, 3] of c = 1 holds P = 10i and the multiple 40; the multiple forged to 41 is not a
        # multiple of the content 10, and L/D = 8.2
        window = Window()
        window.move(1, 1, 3)
        window.state = forged_state(window.state, field)
        row = bounds.row_checks(1, 3, range(1, 2), window.move)[0]
        bad = replace(checked_triple(1, 1, 3).divisor, **forged_record)
        assert row[4] == (failure_message("divisor", bad),)
        assert bad.failures() == ["L/D is not an integer", "hc_value does not divide hc_bound"]

    @pytest.mark.parametrize("g, failure", [
        (lambda g: 2 * g, "quotient_check * D != L"),  # D_num/D_den = 2/2: 10 * 2 / 2 is integral
        (lambda g: 30, "L/D is not an integer"),  # D_num/D_den = 3/2: 10 * 2 / 3 is not
    ], ids=["divides", "does-not-divide"])
    def test_forged_reduced_divisor_is_detected(self, g, failure, monkeypatch):
        # at (1, 1, 3), norm(P) = 100 and the denominator 80 reduce by 20 to D = 5/4; a forged reduction
        # is caught by the division of the reduced form or by its unreduced cross-check.  The start's witness
        # and the proof's rebuild of it both take the forged reduction
        monkeypatch.setattr(divisor, "gcd", lambda x, y: g(math.gcd(x, y)) if (x, y) == (100, 80) else math.gcd(x, y))
        assert divisor._divisor_checks(1, 1, 3, bounds._row_start(1, 1, 3))[3] == [failure]

    def test_forged_quotient_is_detected_by_the_unreduced_cross_check(self, monkeypatch):
        # a division that returns L/D + 1 with no remainder misses quotient * norm(P) == L * denominator, in
        # the start's witness and in the proof's rebuild of it
        quotient = checked_triple(2, 3, 9).divisor.quotient_check
        monkeypatch.setattr(divisor, "divmod", lambda x, y: (x // y + 1, 0), raising=False)
        values, _, _, bad, _ = divisor._divisor_checks(2, 3, 9, bounds._row_start(2, 3, 9))
        assert bad == ["quotient_check * D != L"] and values[3] == quotient + 1

    def test_equality_and_repr_ignore_the_product(self):
        good = checked_triple(1, 1, 3).divisor
        other = replace(good, product=QuadInt(7, 7, 1))
        assert other == good
        assert repr(other) == repr(good)
        assert "product" not in repr(good) and repr(good).startswith("DivisorReport(c=1, m=1, n=3, L=10, ")
        assert replace(good, L=20) != good
        assert other.failures()  # the star check still reads the product

    def test_cross_consistency(self):
        # L * (n-m)! * hc is a multiple of prod(k^2 + c)
        for c in (1, 2, 5):
            for n in range(1, 15):
                for m in range(1, n + 1):
                    r = checked_triple(c, m, n).divisor
                    assert (r.L * math.factorial(n - m) * r.hc_value) % r.numerator == 0

    def test_star_identity_restated(self):
        for c, m, n in [(1, 1, 3), (2, 3, 9), (5, 2, 8)]:
            r = checked_triple(c, m, n).divisor
            star = QuadInt(r.star_x, r.star_y, c)
            assert star * QuadInt(*shifted_product(c, m, n), c) == QuadInt(r.L * math.factorial(n - m), 0, c)


class TestContentHelpers:
    def test_product_content_examples(self):
        assert content(QuadInt(*shifted_product(1, 1, 3), 1)) == 10
        assert content(QuadInt(*shifted_product(1, 2, 3), 1)) == 5
        for c in (1, 2, 4):
            for m in (1, 6, 13):
                assert content(QuadInt(*shifted_product(c, m, m), c)) == 1

    def test_content_multiple_is_the_ring_quantity(self):
        from quadlcm import poly, ring

        assert content_multiple is ring.content_multiple is bounds.content_multiple
        # poly takes nothing from bounds
        assert all(getattr(v, "__module__", None) != bounds.__name__ for v in vars(poly).values())

    def test_content_multiple_examples(self):
        assert content_multiple(1, 2) == 40
        assert content_multiple(1, 1) == 5
        for c in range(1, 6):
            assert content_multiple(c, 0) == c

    def test_divisibility_small_sweep(self):
        for c in (1, 2, 3):
            for n in range(1, 16):
                for m in range(1, n + 1):
                    assert content_multiple(c, n - m) % content(QuadInt(*shifted_product(c, m, n), c)) == 0


class TestCombinatorialChecks:
    # L >= m*C(n, m) and L >= 2^n are the exact `binom` and `oon_2n` rows
    def test_examples(self):
        r = checked_triple(1, 4, 7).bounds.holds
        assert r["binom"] and r["oon_2n"] is True
        r = checked_triple(1, 1, 1).bounds.holds
        assert r["binom"] and r["oon_2n"] is True
        r = checked_triple(1, 3, 3).bounds.holds
        assert r["binom"] and r["oon_2n"] is None

    def test_checks_keys_are_integer_comparisons(self):
        from quadlcm.cli import report_to_json

        for c in (1, 2):
            for n in range(1, 31):
                for m in range(1, n + 1):
                    big_l = math.lcm(*(k * k + c for k in range(m, n + 1)))
                    checks = report_to_json(bounds.row_checks(c, n, range(m, m + 1))[0])["checks"]
                    assert checks == {
                        "binom_ok": big_l >= m * math.comb(n, m),
                        "two_n_ok": big_l >= 2**n if m <= (n + 1) // 2 else None,
                    }


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
            got = float(_mpf(log_factorial(k)))
            want = math.lgamma(k + 1)
            assert abs(got - want) <= 1e-11 * max(1.0, abs(want))

    def test_exact_small(self):
        with mpmath.workprec(PRECISION_BITS):
            assert abs(_mpf(log_factorial(5)) - mpmath.log(120)) < mpmath.mpf(2) ** (-100)


class TestBoundReport:
    def test_farhi_at_50(self):
        r = checked_triple(1, 1, 50).bounds
        v = r.bounds["farhi"]
        assert v is not None
        with mpmath.workprec(PRECISION_BITS):
            expected = mpmath.log(mpmath.mpf("0.32")) + 50 * mpmath.log(mpmath.mpf("1.442"))
            assert abs(_mpf(v[0]) - expected) < 1e-20
        assert r.logL >= v[0]

    def test_diagonal_final_bound(self):
        for c in (1, 3, 5):
            for n in (1, 7, 40):
                r = checked_triple(c, n, n).bounds
                v = r.bounds["final"]
                assert v is not None
                with mpmath.workprec(PRECISION_BITS):
                    expected = mpmath.log(exp_bound_const(c)) + mpmath.log(n)
                    assert abs(_mpf(v[0]) - expected) < 1e-18
                assert r.logL >= v[0]

    def test_t7_value_at_1_4_7(self):
        r = checked_triple(1, 4, 7).bounds
        v = r.bounds["t7"]
        # lam1 * 16 * (7!)^2 / ((4!)^2 * (3!)^3)
        expected = factorial_bound_const(1) * 16 * math.factorial(7) ** 2 / (
            math.factorial(4) ** 2 * math.factorial(3) ** 3
        )
        assert abs(_mpf(v[0]) - mpmath.log(expected)) < 1e-15
        assert r.logL >= v[0]

    def test_applicability_gates_exact(self):
        # 8*(n-m)^3 vs n^2 splits the frontier; n=8, m=6 sits exactly on it
        r = checked_triple(1, 6, 8).bounds
        assert r.bounds["c5"] is not None and r.bounds["final"] is not None
        r = checked_triple(1, 5, 8).bounds
        assert r.bounds["c5"] is not None and r.bounds["final"] is None
        r = checked_triple(1, 7, 8).bounds
        assert r.bounds["c5"] is None and r.bounds["final"] is not None

    def test_t9_needs_m_below_n(self):
        assert checked_triple(2, 5, 5).bounds.bounds["t9"] is None
        assert checked_triple(2, 4, 5).bounds.bounds["t9"] is not None

    def test_oon_gate(self):
        assert checked_triple(1, 2, 3).bounds.bounds["oon_2n"] is not None
        assert checked_triple(1, 3, 3).bounds.bounds["oon_2n"] is None

    def test_farhi_gate(self):
        assert checked_triple(2, 1, 5).bounds.bounds["farhi"] is None
        assert checked_triple(1, 2, 5).bounds.bounds["farhi"] is None

    def test_forged_report_detected(self):
        r = checked_triple(1, 1, 10).bounds
        assert r.failures() == []
        bad = replace(r, logL=-100 << PRECISION_BITS)
        assert bad.failures()

    def test_forged_log_detected_by_the_pass(self, monkeypatch):
        bad = replace(checked_triple(1, 1, 10).bounds, logL=-100 << PRECISION_BITS)
        row = forged_pass(monkeypatch, 1, 1, 10, log_l=-100 << PRECISION_BITS)
        assert row[4] == (failure_message("bound", bad),)

    def test_replace_rederives_the_verdicts(self):
        r = checked_triple(1, 1, 10).bounds
        assert r.failures() == [] and r.holds["t7"] is True and r.holds["oon_2n"] is True
        by_log = replace(r, logL=-100 << PRECISION_BITS)
        assert by_log.holds["t7"] is False and by_log.holds["oon_2n"] is True
        assert [f.split(":")[0] for f in by_log.failures()] == ["bound t7", "bound t9", "bound c5"]
        by_l = replace(r, L=1)
        assert by_l.holds["oon_2n"] is False and by_l.holds["t7"] is True
        assert [f.split(":")[0] for f in by_l.failures()] == ["bound oon_2n", "bound binom", "bound farhi"]
        assert r.failures() == [] and r.holds["t7"] is True

    def test_forged_inputs_rederive_the_pass_verdicts(self, monkeypatch):
        # the pass's counterpart: log L forged at `_log_fixed`, then L forged at `lcm_range` with its true log
        r = checked_triple(1, 1, 10).bounds
        by_log = forged_pass(monkeypatch, 1, 1, 10, log_l=-100 << PRECISION_BITS)
        assert holds(by_log) == replace(r, logL=-100 << PRECISION_BITS).holds
        assert bound_line(by_log) == failure_message("bound", replace(r, logL=-100 << PRECISION_BITS))
        by_l = forged_pass(monkeypatch, 1, 1, 10, big_l=1, log_l=r.logL)
        assert holds(by_l) == replace(r, L=1).holds
        assert bound_line(by_l) == failure_message("bound", replace(r, L=1))
        assert forged_pass(monkeypatch, 1, 1, 10) == pass_tuple(triple_report(1, 1, 10))

    def test_failures_compare_at_working_precision(self, monkeypatch):
        # logL's upper end forged 1 unit of 2^-128 below t7's lower end: a
        # relative 2^-128 gap, decided by the integers at any mpmath precision
        r = checked_triple(1, 4, 7).bounds
        t7 = r.bounds["t7"]
        assert t7[0] > 0
        forged = t7[0] - t7[1] - bounds._E - 1
        assert mpmath.mp.prec == 53
        bad = replace(r, logL=forged)
        assert bad.holds["t7"] is False
        assert [f for f in bad.failures() if f.startswith("bound t7:")] == [
            f"bound t7: log_value {fmt_log(t7[0])} exceeds logL {fmt_log(forged)}"
        ]
        row = forged_pass(monkeypatch, 1, 4, 7, log_l=forged)
        assert holds(row)["t7"] is False
        assert bound_line(row) == failure_message("bound", bad)


class TestCertifiedVerdicts:
    @pytest.mark.parametrize("forge, holds", [
        (lambda v, e, E: v + e + E, True),  # logL - E == v + e: the enclosures touch, ordered
        (lambda v, e, E: v + e + E - 1, False),
        (lambda v, e, E: v, False),  # inside the enclosure
        (lambda v, e, E: v - e - E, False),  # logL + E == v - e
    ], ids=["touching", "overlap-top", "inside", "overlap-bottom"])
    def test_t7_enclosure_boundaries(self, forge, holds):
        # every case but the first is undecided; one unit below overlap-bottom
        # fails outright (TestBoundReport::test_failures_compare_at_working_precision)
        r = checked_triple(1, 4, 7).bounds
        t7 = r.bounds["t7"]
        bad = replace(r, logL=forge(t7[0], t7[1], bounds._E))
        assert bad.holds["t7"] is holds
        messages = [f for f in bad.failures() if f.startswith("bound t7:")]
        assert messages == ([] if holds else ["bound t7: undecided"])

    @pytest.mark.parametrize("forge", [
        lambda v, e, E: v + e + E,
        lambda v, e, E: v + e + E - 1,
        lambda v, e, E: v,
        lambda v, e, E: v - e - E,
    ], ids=["touching", "overlap-top", "inside", "overlap-bottom"])
    def test_t7_enclosure_boundaries_in_the_pass(self, forge, monkeypatch):
        # the same boundaries with log L forged at the pass's input, `_log_fixed`
        r = checked_triple(1, 4, 7).bounds
        t7 = r.bounds["t7"]
        forged = forge(t7[0], t7[1], bounds._E)
        bad = replace(r, logL=forged)
        row = forged_pass(monkeypatch, 1, 4, 7, log_l=forged)
        assert holds(row) == bad.holds
        assert bound_line(row) == failure_message("bound", bad)

    def test_every_row_decided_at_1_1_1(self):
        r = checked_triple(1, 1, 1).bounds
        applicable = [name for name, bv in r.bounds.items() if bv is not None]
        assert applicable == ["oon_2n", "binom", "t7", "final", "farhi"]
        assert all(r.holds[name] is True for name in applicable)
        for name in ("t7", "final"):
            bv = r.bounds[name]
            assert r.logL - bounds._E >= bv[0] + bv[1]

    def test_failure_messages_are_15_digit_decimals(self, monkeypatch):
        r = checked_triple(1, 1, 10).bounds
        forged = -100 << PRECISION_BITS
        bad = replace(r, logL=forged)
        log_rows = [name for name in ("t7", "t9", "c5", "final") if r.bounds[name] is not None]
        assert log_rows == ["t7", "t9", "c5"]
        failures = bad.failures()
        for name in log_rows:
            v = r.bounds[name][0]
            assert f"bound {name}: log_value {fmt_log(v)} exceeds logL -100.0" in failures
            assert str(v) not in " ".join(failures)
            with mpmath.workprec(PRECISION_BITS):
                assert fmt_log(v) == mpmath.nstr(_mpf(v), 15)
        assert bound_line(forged_pass(monkeypatch, 1, 1, 10, log_l=forged)) == failure_message("bound", bad)

    def test_sources_within_their_errors_at_512_bits(self):
        _clear_log_caches()
        log_factorial(500)
        with mpmath.workprec(512):
            scale = mpmath.mpf(2) ** PRECISION_BITS
            e = bounds._E

            def within(v, x, err):
                assert abs(v - x * scale) <= err

            fact = mpmath.mpf(0)
            for j in range(1, 501):
                fact += mpmath.log(j)
                within(bounds._LOG_INT[j], mpmath.log(j), e)
                within(log_factorial(j), fact, e * j)
            for c in range(1, 6):
                pi2 = mpmath.pi**2
                k0 = -2 * pi2 * c / 3 - mpmath.log(c)
                k1 = k0 - mpmath.mpf(5) / 12 - mpmath.mpf(3) / 2 * mpmath.log(2 * mpmath.pi)
                k2 = k0 - mpmath.mpf(5) / 12 - mpmath.mpf(3) / 2 * mpmath.log(mpmath.pi)
                for v, x in zip(bounds._log_consts(c), (k0, k1, k2)):
                    within(v, x, e)
            for n in range(1, 301):
                half = mpmath.floor(mpmath.cbrt(n * n) / 2)
                term = mpmath.log(n - mpmath.cbrt(n * n) / 2) + half * (mpmath.log(2) + 3)
                within(bounds._c5_term(n), term, e)
            for v, x in zip(bounds._fixed_consts(), (2, mpmath.mpf("0.32"), mpmath.mpf("1.442"))):
                within(v, mpmath.log(x), e)

    def test_farhi_decided_exactly_up_to_300(self, monkeypatch):
        # a stricter sibling of acceptance criterion 6: no tolerance, and L itself decides
        big_l = 1
        for n in range(1, 301):
            big_l = math.lcm(big_l, n * n + 1)
            r = checked_triple(1, 1, n).bounds
            assert r.L == big_l
            assert big_l >= Fraction(8, 25) * Fraction(721, 500) ** n
            assert r.holds["farhi"] is True
            assert replace(r, logL=-1 << PRECISION_BITS).holds["farhi"] is True
            assert holds(forged_pass(monkeypatch, 1, 1, n, log_l=-1 << PRECISION_BITS))["farhi"] is True


class TestParityOracle:
    # every printed log equals the 128-bit mpf evaluation's 15-digit string
    def test_log_strings_match_the_mpf_oracle(self):
        for c in (1, 2):
            for n in range(1, 61):
                for m in range(1, n + 1):
                    r = checked_triple(c, m, n).bounds
                    log_l, values = mpf_bound_logs(c, m, n, r.L)
                    assert fmt_log(r.logL) == mpmath.nstr(log_l, 15)
                    assert [name for name, bv in r.bounds.items() if bv is not None] == list(values)
                    for name, value in values.items():
                        assert fmt_log(r.bounds[name][0]) == mpmath.nstr(value, 15), (c, m, n, name)

    @pytest.mark.parametrize("c", [1, 2])
    def test_table_ratios_match_the_mpf_oracle(self, c, tmp_path):
        target = tmp_path / "table.csv"
        assert main(["table", "--c", str(c), "--n-max", "60", "--out", str(target)]) == 0
        header, *rows = [line.split(",") for line in target.read_text().splitlines()]
        assert len(rows) == 60 * 61 // 2
        for row in rows:
            n, m = int(row[1]), int(row[2])
            log_l, values = mpf_bound_logs(c, m, n, lcm_range(c, m, n))
            assert row[3] == mpmath.nstr(log_l, 15)
            for name, cell in zip(header[4:], row[4:]):
                assert cell == (mpmath.nstr(mpf_ratio(values[name], log_l), 15) if name in values else "NA")


class TestExactRows:
    @pytest.mark.parametrize("c, m, n, row, bound", [
        (1, 1, 50, "oon_2n", 2**50),
        (2, 9, 12, "binom", 9 * math.comb(12, 9)),
        (1, 1, 50, "farhi", math.ceil(Fraction(8, 25) * Fraction(721, 500) ** 50)),
    ], ids=["oon_2n", "binom", "farhi"])
    def test_one_below_the_bound_fails(self, c, m, n, row, bound, monkeypatch):
        r = checked_triple(c, m, n).bounds
        assert r.holds[row] is True
        bad = replace(r, L=bound - 1)
        assert bad.logL == r.logL
        assert bad.holds[row] is False
        assert any(f.startswith(f"bound {row}: L < ") for f in bad.failures())
        # the log rows still see the true logL
        assert all(bad.holds[name] is not False for name in ("t7", "t9", "c5", "final"))
        # the pass, with L forged at `lcm_range` and its log at `_log_fixed`
        forged = forged_pass(monkeypatch, c, m, n, big_l=bound - 1, log_l=r.logL)
        assert holds(forged) == bad.holds
        assert bound_line(forged) == failure_message("bound", bad)

    def test_oon_2n_at_slack_zero_is_exact(self, monkeypatch):
        r = checked_triple(1, 1, 1).bounds
        assert r.L == 2 == 2**1
        assert r.holds["oon_2n"] is True
        # decided by L itself, not by logL
        assert replace(r, logL=-1 << PRECISION_BITS).holds["oon_2n"] is True
        assert replace(r, L=1).holds["oon_2n"] is False
        assert holds(forged_pass(monkeypatch, 1, 1, 1, log_l=-1 << PRECISION_BITS))["oon_2n"] is True
        assert holds(forged_pass(monkeypatch, 1, 1, 1, big_l=1, log_l=r.logL))["oon_2n"] is False

    def test_verdicts_computed_once(self, monkeypatch):
        r = checked_triple(1, 2, 9).bounds
        calls = []
        real = mpmath.workprec
        monkeypatch.setattr(mpmath, "workprec", lambda prec: calls.append(prec) or real(prec))
        fresh = replace(r)
        fresh.failures()
        fresh.failures()
        assert fresh.holds == r.holds
        # the verdicts are integer comparisons: no mpmath precision is set
        assert calls == []


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
        del calls[:]
        for c, m, n in triples:  # the library's pass at one m, as `verify` runs it
            bounds.row_checks(c, n, range(m, m + 1))
        assert calls == triples

    def test_parts_match_separate_builders(self):
        # each m of a row's pass against the oracle records, which take their own lcm_range
        for c in (1, 2, 5):
            for n in range(1, 13):
                for row in bounds.row_checks(c, n, range(1, n + 1)):
                    m, big_l = row[0][1], row[0][3]
                    assert row == pass_tuple(triple_report(c, m, n))
                    assert holds(row)["binom"] is (big_l >= m * math.comb(n, m))
                    assert holds(row)["oon_2n"] is (big_l >= 2**n if m <= (n + 1) // 2 else None)
                    assert row[4] == ()

    def test_built_from_exactly_its_fields(self):
        r = triple_report(1, 1, 3)
        assert TripleReport(r.divisor, r.bounds, ()) == TripleReport(r.divisor, violations=(), bounds=r.bounds) == r
        for args, kwargs in [((r.divisor, r.bounds), {}),
                             ((r.divisor, r.bounds, (), ()), {}),
                             ((r.divisor, r.bounds), {"divisor": r.divisor}),
                             ((r.divisor, r.bounds), {"violation": ()})]:
            with pytest.raises(TypeError, match="takes exactly the fields divisor, bounds, violations"):
                TripleReport(*args, **kwargs)
        with pytest.raises(TypeError):
            replace(r, violation=())

    def test_failed_claims_are_collected_not_raised(self, monkeypatch):
        # L = 1 breaks every claim: L/D is not integral, every bound exceeds
        # log L = 0, and L < m*C(n, m), L < 2^n
        monkeypatch.setattr(bounds, "lcm_range", lambda c, m, n: 1)
        r = triple_report(1, 1, 3)
        assert r.divisor.L == 1 and r.divisor.quotient_check is None
        assert r.bounds.holds["binom"] is False and r.bounds.holds["oon_2n"] is False
        assert len(r.violations) == 2
        assert r.violations[0].startswith("divisor invariants failed at (c=1, m=1, n=3)")
        assert "'L/D is not an integer'" in r.violations[0]
        assert r.violations[1].startswith("bound invariants failed at (c=1, m=1, n=3)")
        assert "L < m * C(n, m)" in r.violations[1] and "L < 2^n" in r.violations[1]
        # the pass keeps the same two lines with every value of the triple
        row = bounds.row_checks(1, 3, range(1, 2))[0]
        assert row == pass_tuple(r)
        assert row[4] == r.violations and row[0][6] is None


class TestRowChecks:
    def test_equal_the_oracle_records_up_to_40(self):
        # every value, verdict and message of the pass against the oracle records, c <= 5, n <= 40,
        # every m; the table's bound-only pass against the records' bound half
        for c in range(1, 6):
            for n in range(1, 41):
                reports = [triple_report(c, m, n) for m in range(1, n + 1)]
                assert bounds.row_checks(c, n, range(1, n + 1)) == [pass_tuple(r) for r in reports]
                assert bounds.row_checks(c, n, range(1, n + 1), None) == [pass_tuple(r, divisor=False) for r in reports]

    def test_equal_the_oracle_records_with_a_forged_lcm(self, monkeypatch):
        # L forged to 2 at the pass's two inputs: almost every triple fails some claim, and each message matches
        monkeypatch.setattr(bounds, "lcm_range", lambda c, m, n: 2)
        monkeypatch.setattr(divisor, "_lcm_step", lambda big_l, u: (2, 1))
        failing = 0
        for c in (1, 2):
            for n in range(1, 13):
                reports = [triple_report(c, m, n) for m in range(1, n + 1)]
                failing += sum(bool(r.violations) for r in reports)
                assert bounds.row_checks(c, n, range(1, n + 1)) == [pass_tuple(r) for r in reports]
                assert bounds.row_checks(c, n, range(1, n + 1), None) == [pass_tuple(r, divisor=False) for r in reports]
        assert failing >= 150  # of the 156 triples

    def test_no_record_fraction_or_quadint_per_triple(self, monkeypatch):
        # a sweep's rows, slid by one window that also starts over at each new c, table's rows and
        # verify's row build no record, QuadInt or Fraction at all, not even one per row
        from fractions import Fraction as RealFraction

        from quadlcm import ring

        built = []
        for cls in (ring._Record, ring._Quad):
            monkeypatch.setattr(cls, "__init__", lambda self, *args, _init=cls.__init__:
                                built.append(type(self)) or _init(self, *args))
        real_new = RealFraction.__new__
        monkeypatch.setattr(RealFraction, "__new__", lambda cls, *args, **kwargs: built.append(cls) or real_new(cls, *args, **kwargs))
        triples = 0
        for policy in ("all", "half_ceil", "frontier", "fixed:7"):
            m_range, start = _m_policy(policy), Window().move
            for c in (1, 2, 3):
                for n in range(1, 41):
                    triples += len(bounds.row_checks(c, n, m_range(n), start))  # a sweep row
                    triples += len(bounds.row_checks(c, n, range(1, n + 1), None))  # a table row
        triples += len(bounds.row_checks(3, 60, range(5, 6)))  # verify's row
        assert triples > 3000 and built == []
        triple_report(1, 1, 3)  # the counters see what the oracle builds
        assert {RealFraction, TripleReport} <= set(built)

    def test_log_l_once_per_distinct_l(self, monkeypatch):
        # an m whose L equals the previous m's reuses that log: every logL cell is still the floored log of
        # its own L, and _log_fixed runs once per change of L along the descending fold
        calls = []
        real = bounds._log_fixed
        monkeypatch.setattr(bounds, "_log_fixed", lambda x: calls.append(x) or real(x))
        repeats = 0
        for c in range(1, 6):
            for n in range(1, 61):
                for start in (bounds._row_start, None):
                    calls.clear()
                    rows = bounds.row_checks(c, n, range(1, n + 1), start)
                    ls = [values[3] for values, *_ in rows]
                    assert [values[11] for values, *_ in rows] == [real(big_l) for big_l in ls]
                    changes = [big_l for big_l, above in zip(ls, ls[1:] + [None]) if big_l != above]
                    assert calls == changes[::-1]
                    repeats += n - len(changes)
        assert repeats > 1000  # L repeats at many triples, so the reuse is exercised


class TestRowPlan:
    # `row_checks` plans each row once: every gate as an m-interval, and each (c, n)-only value built only
    # when some m of the row lies in its bound's interval
    def test_frontier_intervals_equal_the_exact_gates(self):
        # c5 applies at m <= last and final at m >= first; the gates are monotone in d = n - m, so each
        # interval is exact when 8d^3 >= n^2 holds at d = n - last and fails one below, and 8d^3 <= n^2
        # holds at d = n - first and fails one above
        for n in range(1, 10**5 + 1):
            last, first = bounds._frontier_gates(n)
            d0, t = n - last, n - first
            assert 8 * d0**3 >= n * n > 8 * (d0 - 1) ** 3 and 8 * t**3 <= n * n < 8 * (t + 1) ** 3, n
        for s in range(1, 24):  # the ties n = 8s^3 <= 10^5, where d = 2s^2 meets both gates
            n = 8 * s**3
            assert bounds._frontier_gates(n) == (n - 2 * s * s, n - 2 * s * s), n

    def test_frontier_policy_and_gates_share_one_width(self):
        # the `frontier` m-policy's m is the first m at which final applies, and the gates equal those of
        # the cube root of n^2 // 8: 8d^3 <= n^2 iff 2d <= icbrt(n^2), so both widths are floor_half_frontier
        policy = _m_policy("frontier")
        for n in range(1, 10**4 + 1):
            assert list(policy(n)) == [max(1, bounds._frontier_gates(n)[1])], n
        for n in range(1, 10**5 + 1):
            t = icbrt(n * n // 8)
            assert bounds._frontier_gates(n) == (n - t - (8 * t**3 != n * n), n - t), n

    def test_every_gate_at_each_interval_edge(self):
        # each bound's applicability in the pass against its exact integer gate, at the m on both sides of
        # every interval edge: m <= (n+1)//2, m < n, 8d^3 >= n^2, 8d^3 <= n^2 and c = 1, m = 1
        for c in (1, 2):
            for n in range(1, 301):
                half, (last, first) = (n + 1) // 2, bounds._frontier_gates(n)
                for m in {1, 2, half, half + 1, last, last + 1, first - 1, first, n - 1, n} & set(range(1, n + 1)):
                    d = n - m
                    gates = (m <= half, True, True, m < n, 8 * d**3 >= n * n, 8 * d**3 <= n * n, c == 1 and m == 1)
                    values, _, _, verdicts, _ = bounds.row_checks(c, n, range(m, m + 1), None)[0]
                    assert tuple(v is not None for v in values[12:]) == gates, (c, m, n)
                    assert tuple(h is not None for h in verdicts) == gates, (c, m, n)

    def test_farhi_threshold_is_the_exact_comparison(self):
        # L < ceil(8 * 721^n / (25 * 500^n)) agrees with 25 * 500^n * L < 8 * 721^n on both sides of it
        for n in range(1, 401):
            t = bounds._farhi_bound(n)
            assert t == math.ceil(Fraction(8, 25) * Fraction(721, 500) ** n), n
            for big_l in (t - 1, t):
                assert (big_l < t) is (25 * 500**n * big_l < 8 * 721**n), (n, big_l)

    @pytest.mark.parametrize("policy", ["half_ceil", "frontier", "fixed:1"])
    def test_one_m_rows_equal_the_oracle(self, policy, monkeypatch):
        # one-m rows, slid by a window and bound-only, against the per-triple oracle records; Farhi's
        # threshold and c5's n-only term are built only for the rows whose m lies in their intervals
        ms, built, expected = _m_policy(policy), [], []
        reports = {(c, n): triple_report(c, ms(n)[0], n) for c in (1, 2, 3) for n in range(1, 301)}
        for name in ("_farhi_bound", "_c5_term"):  # the oracle reads _c5_term too: patched after its records
            monkeypatch.setattr(bounds, name, lambda n, _name=name, _real=getattr(bounds, name):
                                built.append((_name, n)) or _real(n))
        for c in (1, 2, 3):
            window = Window()
            for n in range(1, 301):
                m, report = ms(n)[0], reports[c, n]
                assert bounds.row_checks(c, n, ms(n), window.move) == [pass_tuple(report)], (c, m, n)
                assert bounds.row_checks(c, n, ms(n), None) == [pass_tuple(report, divisor=False)], (c, m, n)
                expected += 2 * ([("_farhi_bound", n)] if c == 1 and m == 1 else [])
                expected += 2 * ([("_c5_term", n)] if 8 * (n - m) ** 3 >= n * n else [])
        assert sorted(built) == sorted(expected) and built


class TestRowFold:
    def test_parts_match_direct_computation(self):
        # L, norm(P) and (n-m)! * multiple of every m of the fold, under each of its three starts
        for c in (1, 2, 3):
            window = Window()
            for n in range(1, 61):
                want = [(lcm_range(c, m, n), math.prod(k * k + c for k in range(m, n + 1)),
                         math.factorial(n - m) * content_multiple(c, n - m)) for m in range(1, n + 1)]
                for start in (bounds._row_start, window.move):
                    rows = bounds.row_checks(c, n, range(1, n + 1), start)
                    assert [row[0][1] for row in rows] == list(range(1, n + 1))
                    assert [(row[0][3], row[1], row[2]) for row in rows] == want
                rows = bounds.row_checks(c, n, range(1, n + 1), None)
                assert [(row[0][3], row[1], row[2]) for row in rows] == [(big_l, None, None) for big_l, *_ in want]

    @pytest.mark.parametrize("start", ["row_start", "window", None])
    def test_empty_row_calls_no_start(self, start, monkeypatch):
        # fixed:9 below n = 9: no m, so no start is called and the window keeps [7, 9] of c = 2 as it was
        window, calls, real = Window(), [], bounds._row_start
        window.move(2, 7, 9)
        state = repr(vars(window))
        monkeypatch.setattr(bounds, "_row_start", None)  # a window that starts over fails
        starts = {"row_start": lambda c, m, n: calls.append((c, m, n)) or real(c, m, n),
                  "window": lambda c, m, n: calls.append((c, m, n)) or window.move(c, m, n), None: None}
        m_range = _m_policy("fixed:9")
        for n in range(1, 9):
            assert bounds.row_checks(2, n, m_range(n), starts[start]) == []
        assert calls == [] and repr(vars(window)) == state
        # the next row slides the window from [7, 9] to [9, 10]: a start over would call the None above
        want = bounds.row_checks(2, 10, range(9, 10), None if start is None else real)
        assert bounds.row_checks(2, 10, m_range(10), starts[start]) == want
        assert calls == ([] if start is None else [(2, 9, 10)])
        assert (window.c, window.m, window.n) == ((2, 9, 10) if start == "window" else (2, 7, 9))

    @pytest.mark.parametrize("policy", ["all", "half_ceil", "frontier", "fixed:7"])
    def test_row_reports_equal_triple_reports(self, policy):
        m_range = _m_policy(policy)
        for c in (1, 2, 3):
            for n in range(1, 61):
                ms = m_range(n)
                rows = bounds.row_checks(c, n, ms)
                assert [row[0][1] for row in rows] == list(ms)
                for row in rows:
                    assert row == pass_tuple(checked_triple(c, row[0][1], n))
                if policy == "fixed:7":
                    assert len(rows) == (n >= 7)

    def test_bound_rows_equal_bound_reports(self):
        for c in (1, 2):
            for n in range(1, 41):
                row = bounds.row_checks(c, n, range(1, n + 1), None)
                assert row == [pass_tuple(checked_triple(c, m, n), divisor=False) for m in range(1, n + 1)]
                assert all(violations == () for *_, violations in row)

    def test_bound_rows_fold_only_l(self, monkeypatch):
        # table reads no P, (n-m)! or content multiple, so its fold builds none of them
        for name in ("_row_start", "shifted_product", "content_multiple"):
            monkeypatch.setattr(bounds, name, None)
        assert [row[0][3] for row in bounds.row_checks(2, 9, range(1, 10), None)] == [
            lcm_range(2, m, 9) for m in range(1, 10)]

    def test_forged_step_reaches_each_lower_m(self, monkeypatch):
        monkeypatch.setattr(divisor, "_lcm_step", lambda big_l, u: (1, 1))
        rows = bounds.row_checks(1, 3, range(1, 4))
        assert [row[0][3] for row in rows] == [1, 1, lcm_range(1, 3, 3)]
        assert [bool(row[4]) for row in rows] == [True, True, False]
        # the same messages as the oracle records with that L
        monkeypatch.setattr(bounds, "lcm_range", lambda c, m, n: 1 if m < 3 else lcm_range(c, m, n))
        assert rows == [pass_tuple(triple_report(1, m, 3)) for m in range(1, 4)]


class TestWindow:
    @staticmethod
    def expected(c, m, n):
        begun = lcm_range(c, m, n), shifted_product(c, m, n), content_multiple(c, n - m)
        return (*begun, divisor._witness(c, *begun, math.factorial(n - m)))

    def test_moves_equal_the_rebuild(self, monkeypatch):
        # random monotone windows with strides 1-4 (a forked worker's view), repeated moves, c changes,
        # moves to the left and jumps past the window; only a slide skips `_row_start`
        rebuilds, real = [], bounds._row_start
        monkeypatch.setattr(bounds, "_row_start", lambda c, m, n: rebuilds.append((c, m, n)) or real(c, m, n))
        rng, kinds = random.Random(21), set()
        for _ in range(120):
            window, c, m, n = Window(), rng.randint(1, 9), 1, rng.randint(1, 30)
            old = None
            while n <= 300:
                kind = rng.choice(["c", "left", "jump", "repeat"] + ["slide"] * 8) if old else "new"
                if kind == "c":
                    c = rng.choice([x for x in range(1, 10) if x != c])
                elif kind == "left":
                    m, n = rng.randint(1, max(1, m - 1)), rng.randint(max(m, n - 10), n)
                elif kind == "jump":
                    m = n + rng.randint(1, 20)
                    n = m + rng.randint(0, 40)
                elif kind == "slide":
                    n += rng.randint(1, 4)
                    m = rng.randint(m, n)
                kinds.add(kind)
                slides = old is not None and old[0] == c and old[1] <= m <= old[2] <= n
                want = self.expected(c, m, n)
                del rebuilds[:]
                assert window.move(c, m, n) == want, (old, (c, m, n))
                assert rebuilds == ([] if slides else [(c, m, n)])
                old = (c, m, n)
        assert kinds == {"new", "c", "left", "jump", "repeat", "slide"}

    def test_rows_slide_the_window_they_are_given(self):
        # a sweep's rows at parallelism 3: every third n of one c, the largest m of each row from the window
        for policy in ("all", "half_ceil", "frontier", "fixed:7"):
            m_range, start = _m_policy(policy), Window().move
            for c in (1, 2):
                for n in range(2, 120, 3):
                    assert bounds.row_checks(c, n, m_range(n), start) == bounds.row_checks(c, n, m_range(n))

    # window [4, 6] of c = 1 after a pop of 3 that filled the front: the pop of 4 divides P by
    # 4 + i (norm 17), the multiple 40 by 2^2 + 4, and front_l by r_4 = 17
    @pytest.mark.parametrize("field", ["a", "b", "multiple", "front_l"])
    def test_forged_state_raises_on_the_next_pop(self, field, monkeypatch):
        window = Window()
        window.move(1, 3, 6)
        window.move(1, 4, 6)
        if field == "front_l":
            window.front_l += 1
        else:
            window.state = forged_state(window.state, field)
        monkeypatch.setattr(bounds, "_row_start", None)  # no silent rebuild
        with pytest.raises(WindowError, match=r"^pop of m=4 from the window \[4, 6\] of c=1 left a remainder$"):
            window.move(1, 5, 6)


POLICIES = ("all", "half_ceil", "frontier", "fixed:7")


class TestWitness:
    # the state (L, (A, B), multiple, witness) of `divisor`, whose witness (D_num, D_den, quotient, star_x,
    # star_y) the fold and the window carry by the one step rule `_join` and its inverse `_leave`

    @staticmethod
    def strides(rng, stride):
        """The rows n <= 90 of one worker: every n serially, else n advancing by random steps of 1 to 4."""
        n = 0
        while True:
            n += 1 if stride is None else rng.randint(1, 4)
            if n > 90:
                return
            yield n

    @pytest.mark.parametrize("stride", [None, "random"], ids=["serial", "strides"])
    def test_carried_values_equal_the_direct_route(self, stride):
        # every triple with c <= 5 and n <= 90, under each policy, as a one-m row whose state `_row_start`
        # builds from scratch; the window's state after each move, witness included, equals the one built
        # from scratch at its [m, n]
        rng, direct = random.Random(29), {}
        for c in range(1, 6):
            for n in range(1, 91):
                for m in range(1, n + 1):
                    direct[c, m, n] = bounds.row_checks(c, n, range(m, m + 1))[0]
        for policy in POLICIES:
            ms = _m_policy(policy)
            for c in range(1, 6):
                window = Window()
                for n in self.strides(rng, stride):
                    rows = bounds.row_checks(c, n, ms(n), window.move)
                    assert rows == [direct[c, m, n] for m in ms(n)], (policy, c, n)
                    if rows:
                        m = ms(n)[-1]
                        assert window.state == bounds._row_start(c, m, n), (policy, c, m, n)

    def test_direct_route_once_per_start_over(self, monkeypatch):
        # a serial sweep's window builds the witness from scratch at each start over, and every other triple,
        # at the top of a row or below it in the fold, reads the carried one
        starts, built = [], []
        real_start, real_witness = bounds._row_start, divisor._witness

        def start(c, m, n):
            state = real_start(c, m, n)
            starts.append((c, *state[:3], math.factorial(n - m)))
            return state

        monkeypatch.setattr(bounds, "_row_start", start)
        monkeypatch.setattr(divisor, "_witness", lambda *args: built.append(args) or real_witness(*args))
        triples = 0
        for policy in POLICIES:
            ms, window = _m_policy(policy), Window()
            for c in (1, 2, 3):
                for n in range(1, 121):
                    triples += len(bounds.row_checks(c, n, ms(n), window.move))
        assert built == starts and 10 * len(starts) < triples

    def test_factorial_and_content_once_per_triple(self, monkeypatch):
        # a sweep's rows under each policy, and rows from `_row_start` as `verify` runs them: the proof takes
        # factorial(n - m) and the content gcd(A, B) once per triple, at a window's start over too
        facts, gcds = [], []
        real_factorial, real_gcd = math.factorial, math.gcd
        monkeypatch.setattr(divisor, "factorial", lambda k: facts.append(k) or real_factorial(k))
        # each gcd with its caller's name: `_witness`, `_lcm_step` and `_times` take gcds of their own
        monkeypatch.setattr(divisor, "gcd", lambda x, y: gcds.append((sys._getframe(1).f_code.co_name, x, y))
                            or real_gcd(x, y))
        triples = 0
        for policy in POLICIES:
            ms, window = _m_policy(policy), Window()
            for c in (1, 2, 3):
                for n in range(1, 61):
                    for start in (window.move, bounds._row_start):
                        facts.clear(), gcds.clear()
                        rows = bounds.row_checks(c, n, ms(n), start)
                        pairs = [shifted_product(c, m, n) for m in ms(n)]
                        assert sorted(facts) == sorted(n - m for m in ms(n)), (policy, c, n)
                        content = [args for caller, *args in gcds if caller == "_divisor_checks"]
                        assert sorted(map(tuple, content)) == sorted(pairs), (policy, c, n)
                        triples += len(rows)
        assert triples > 3000

    @staticmethod
    def random_window(rng):
        """A random c, from small to near 2^61, and a window [m, n] of width 1 to 61."""
        c = rng.choice([rng.randint(1, 50), rng.randint(1, 2**61 - 1)])
        m = rng.randint(1, 200)
        return c, m, m + rng.randint(1, 60)

    def test_leave_undoes_join(self):
        # `_leave` of `_join` gives the state back, witness included, with no remainder, for a term joined at
        # either end; and `_leave` of an end term of the state from scratch at [m, n] gives the one at the
        # window without it
        rng = random.Random(30)
        for _ in range(300):
            c, m, n = self.random_window(rng)
            state = bounds._row_start(c, m, n)
            for k, d in ((m - 1, n - m + 1), (n + 1, n + 1 - m)):
                joined = divisor._join(state, c, k, d)
                assert divisor._leave(joined, c, k, d, joined[0] // state[0]) == (state, 0), (c, m, n, k)
            for k, rest in ((m, (m + 1, n)), (n, (m, n - 1))):
                want = bounds._row_start(c, *rest)
                assert divisor._leave(state, c, k, n - m, state[0] // want[0]) == (want, 0), (c, m, n, k)

    def test_join_equals_the_state_from_scratch(self):
        # the fold's step down from [m+1, n] and the window's push from [m, n-1] both reach the state
        # `_row_start` builds at [m, n], witness included
        rng = random.Random(31)
        for _ in range(300):
            c, m, n = self.random_window(rng)
            want = bounds._row_start(c, m, n)
            assert divisor._join(bounds._row_start(c, m + 1, n), c, m, n - m) == want, (c, m, n)
            assert divisor._join(bounds._row_start(c, m, n - 1), c, n, n - m) == want, (c, m, n)

    @pytest.mark.parametrize("field", range(5), ids=["D_num", "D_den", "quotient", "star_x", "star_y"])
    def test_forged_witness_gives_way_to_the_direct_route(self, field, monkeypatch):
        # each entry of the witness off by one fails an identity, so the proof rebuilds the witness with
        # `_witness`, and the triple's values and messages are the oracle records'; the fold below it carries
        # that triple's witness on
        def forged(state):
            witness = state[3]
            return (*state[:3], witness[:field] + (witness[field] + 1,) + witness[field + 1:])

        c, n, want = 2, 9, [pass_tuple(triple_report(2, m, 9)) for m in range(1, 10)]
        begun, at = forged(bounds._row_start(c, 5, n)), {}
        for m, top in ((4, n - 1), (5, n)):  # the witness's arguments at the tops of the window's two rows
            at[m, top] = (c, *bounds._row_start(c, m, top)[:3], math.factorial(top - m))
        calls, real = [], divisor._witness
        monkeypatch.setattr(divisor, "_witness", lambda *args: calls.append(args) or real(*args))
        # in a start: the row's top m, 5, reads the forged witness
        assert bounds.row_checks(c, n, range(1, 6), lambda c, m, n: begun) == want[:5]
        assert calls == [(c, *begun[:3], math.factorial(n - 5))]
        # in a window, read where it stands, and carried by one pop and one push to the next row
        window = Window()
        window.move(c, 4, n - 1)
        window.state = forged(window.state)
        calls.clear()
        assert bounds.row_checks(c, n - 1, range(4, 5), window.move) == [pass_tuple(triple_report(c, 4, n - 1))]
        assert bounds.row_checks(c, n, range(5, 6), window.move) == want[4:5]
        # a floored step may mend the entry (the quotient's here), which the identities then prove
        assert calls in ([at[4, n - 1], at[5, n]], [at[4, n - 1]])

    def test_lowest_terms_by_construction(self):
        # `_times` from a fraction in lowest terms gives num_d * up / (den_d * down), again in lowest terms
        rng = random.Random(30)
        for _ in range(5000):
            num_d, den_d = rng.randrange(1, 10**30), rng.randrange(1, 10**30)
            g = math.gcd(num_d, den_d)
            num_d, den_d, up, down = num_d // g, den_d // g, rng.randrange(1, 10**6), rng.randrange(1, 10**6)
            got = divisor._times(num_d, den_d, up, down)
            assert Fraction(*got) == Fraction(num_d * up, den_d * down), (num_d, den_d, up, down)
            assert math.gcd(*got) == 1, (num_d, den_d, up, down)


class TestLogPrinter:
    # the integer printer against mpmath's to_str, the routine nstr calls
    def test_random_values(self):
        rng = random.Random(20)
        for _ in range(20000):
            bits = rng.randint(1, 1300)
            v = rng.getrandbits(bits) | 1 << (bits - 1)
            for x in (v, -v):
                assert fmt_log(x) == mpmath_log_str(x), x

    def test_zero_and_carries(self):
        assert fmt_log(0) == mpmath_log_str(0) == "0.0"
        values = []
        for k in range(-30, 40):
            for mantissa in ("9" * 15 + "5", "9" * 16, "9" * 14 + "85", "1" + "0" * 15 + "5"):
                # the fixed-point image of mantissa * 10^(k - 15), and its neighbours
                x = Fraction(int(mantissa)) * Fraction(10) ** (k - 15)
                values.extend(int(x * 2**PRECISION_BITS) + dv for dv in range(-2, 3))
            power = Fraction(10) ** k * 2**PRECISION_BITS
            values.extend(int(power) + dv for dv in (-1, 0, 1))
        for v in values:
            for x in (v, -v):
                assert fmt_log(x) == mpmath_log_str(x), x
        assert fmt_log(int(Fraction(10) ** 14 * 2**PRECISION_BITS)) == "100000000000000.0"
        assert fmt_log(int(Fraction(10) ** 15 * 2**PRECISION_BITS)) == "1.0e+15"
        assert fmt_log(int(Fraction(10) ** -5 * 2**PRECISION_BITS) + 1) == "1.0e-5"
        assert fmt_log((10**16 - 5) << PRECISION_BITS) == "1.0e+16"

    def test_every_bit_length_boundary(self):
        # the printer's scale is one table entry per bit length of |v|, and one entry
        # serves every length from PRECISION_BITS + 69 on, where mpmath's
        # fixed precision reaches 0
        for k in range(1, PRECISION_BITS + 81):
            for v in (2**k - 1, 2**k, 2**k + 1):
                for x in (v, -v):
                    assert fmt_log(x) == mpmath_log_str(x), x

    def test_every_log_and_ratio_up_to_40(self):
        for c in range(1, 6):
            for n in range(1, 41):
                for values, *_ in bounds.row_checks(c, n, range(1, n + 1), None):
                    logs = [v for v in values[11:] if v is not None]
                    ratios = [(v << PRECISION_BITS) // logs[0] for v in logs[1:]]
                    for v in logs + ratios:
                        assert fmt_log(v) == mpmath_log_str(v), (c, values[1], n, v)


class TestLogEngine:
    # the integer engine floors every source to mpmath's floored value
    def test_log_j_floors_as_mpmath(self):
        assert all(bounds._log_fixed(j) == mpmath_log_fixed(j) for j in range(1, 10**5 + 1))

    def test_random_integers_floor_as_mpmath(self):
        rng = random.Random(10)
        for _ in range(20000):
            x = rng.getrandbits(rng.randint(2, 3000)) | 2
            assert bounds._log_fixed(x) == mpmath_log_fixed(x), x

    def test_prefactor_and_fixed_consts_floor_as_mpmath(self):
        assert bounds._fixed_consts() == mpmath_fixed_consts()
        for c in range(1, 60):
            assert bounds._log_consts(c) == mpmath_log_consts(c), c

    def test_prefactor_logs_only_for_certified_c(self):
        # the pi^2 c term's error stays within _E only for c < 2^61
        assert bounds.C_LIMIT == 2**61
        assert bounds._log_consts(2**61 - 1)[0] < 0
        for c in (2**61, 3 * 10**21):
            with pytest.raises(ValueError, match="need c < 2\\^61"):
                bounds._log_consts(c)

    def test_c5_terms_floor_as_mpmath(self):
        for n in range(1, 20001):
            assert bounds._c5_term(n) == mpmath_c5_term(n), n

    def test_pi_and_ln2_within_2_pow_188(self):
        ln2, pi, _ = fixedlog._engine()
        with mpmath.workprec(512):
            scale = mpmath.mpf(2) ** bounds._W
            assert abs(ln2 - mpmath.log(2) * scale) <= 16
            assert abs(pi - mpmath.pi * scale) <= 16

    def test_within_the_documented_budget(self):
        # the table within 2 units of 2^-192, and _ln within 36 + 1.01 |k - shift|
        rng = random.Random(11)
        _, pi, table = fixedlog._engine()
        with mpmath.workprec(512):
            scale = mpmath.mpf(2) ** bounds._W
            for i, v in enumerate(table):
                assert abs(v - mpmath.log(1 + mpmath.mpf(i) / 256) * scale) <= 2, i
            cases = [(x, 0) for x in range(1, 3000)] + [(pi, bounds._W)]
            cases += [(rng.getrandbits(bits) | 1, rng.randint(0, 400)) for bits in range(1, 1500)]
            for x, shift in cases:
                budget = 36 + 1.01 * abs(x.bit_length() - 1 - shift)
                assert abs(bounds._ln(x, shift) - mpmath.log(mpmath.ldexp(x, -shift)) * scale) <= budget

    def test_million_bit_integer_within_e(self):
        x = random.Random(12).getrandbits(10**6) | 1 << (10**6 - 1)
        with mpmath.workprec(1024):
            exact = mpmath.log(x) * mpmath.mpf(2) ** PRECISION_BITS
            assert abs(bounds._log_fixed(x) - exact) <= bounds._E


def _clear_log_caches():
    for memo in (fixedlog._engine, bounds._fixed_consts, bounds._log_consts, bounds._c5_term):
        memo.cache_clear()
    del bounds._LOG_INT[2:]
    del bounds._LOG_FACT[2:]


class TestLogCaches:
    def test_prefactor_logs_match_fresh(self):
        _clear_log_caches()
        for c in range(1, 6):
            cached = bounds._log_consts(c)
            with mpmath.workprec(256):
                fresh = tuple(
                    mpmath.libmp.to_fixed(mpmath.log(const(c, 256))._mpf_, PRECISION_BITS)
                    for const in (factorial_bound_const, exp_bound_const, frontier_bound_const)
                )
            assert cached == fresh

    def test_log_tables_grow_consistently_under_threads(self):
        _clear_log_caches()
        want = [log_factorial(k) for k in range(401)]
        _clear_log_caches()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda i=i: [log_factorial(k) for k in range(i, 401, 3)])
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert bounds._LOG_FACT == want

    @pytest.mark.parametrize("c, m, n", [(1, 1, 3), (1, 2, 3), (1, 3, 3), (2, 5, 9), (3, 60, 64), (1, 1, 200)])
    def test_first_call_precision_does_not_leak(self, c, m, n):
        reports = []
        for prec in (53, 256):
            _clear_log_caches()
            with mpmath.workprec(prec):
                reports.append(checked_triple(c, m, n).bounds)
        low, high = reports
        assert low.logL == high.logL
        assert low.bounds == high.bounds
        assert any(bv is not None for bv in low.bounds.values())

    def test_c5_term_cache_is_bounded(self):
        # the n-only term of c5 is kept for at most maxsize values of n; one past the bound is rebuilt, equal
        bound = bounds._c5_term.cache_info().maxsize
        assert bound is not None and 0 < bound <= 4096
        bounds._c5_term.cache_clear()
        first = [bounds._c5_term(n) for n in range(1, 2 * bound + 1)]
        assert bounds._c5_term.cache_info().currsize == bound
        again = [bounds._c5_term(n) for n in range(1, 2 * bound + 1)]
        assert bounds._c5_term.cache_info().hits == 0  # the first half was evicted before the second pass
        assert again == first == [bounds._c5_term.__wrapped__(n) for n in range(1, 2 * bound + 1)]
        assert first[-1] == mpmath_c5_term(2 * bound)

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
