import random
import re
from fractions import Fraction
from itertools import zip_longest
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

import quadlcm.poly as poly_module
from quadlcm.poly import CertificateError, IntPoly, QuadPoly, bezout_certificate, shift_product_poly
from quadlcm.ring import QuadRat, RingMismatchError, content_multiple, shifted_product

from oracles import (
    NonCoprimeError,
    PoleError,
    alternating_sum,
    alternating_sums,
    bezout_pair,
    cert_alpha,
    closed_forms,
    difference_table_sums,
    divmod_poly,
    falling,
    forward_difference,
    from_coeffs,
    newton_basis,
    one_poly,
    poly_add,
    poly_coeffs,
    poly_conj,
    poly_degree,
    poly_eval,
    poly_is_zero,
    poly_leading,
    poly_mul,
    poly_neg,
    poly_scale,
    poly_sub,
    quad_add,
    quad_inverse,
    quad_is_zero,
    replace,
    shift,
    split_parts,
    sum_form_alpha,
)


def qr(c, a, b=0):
    return QuadRat(Fraction(a), Fraction(b), c)


def poly(c, *pairs):
    """Polynomial from (a, b) coefficient pairs, ascending degree."""
    return from_coeffs(c, tuple(qr(c, a, b) for a, b in pairs))


@st.composite
def quad_polys(draw, max_degree=6, span=9):
    c = draw(st.integers(min_value=1, max_value=3))
    deg = draw(st.integers(min_value=-1, max_value=max_degree))
    coeffs = tuple(
        qr(
            c,
            Fraction(draw(st.integers(-span, span)), draw(st.integers(1, 4))),
            Fraction(draw(st.integers(-span, span)), draw(st.integers(1, 4))),
        )
        for _ in range(deg + 1)
    )
    return from_coeffs(c, coeffs)


class TestArithmetic:
    def test_difference_of_conjugate_factors(self):
        # (X + s)(X - s) = X^2 + c for s = sqrt(-c)
        for c in (1, 2, 5):
            p = poly(c, (0, 1), (1, 0))
            q = poly(c, (0, -1), (1, 0))
            assert poly_mul(p, q) == poly(c, (c, 0), (0, 0), (1, 0))

    def test_additive_identity(self):
        p = poly(2, (1, 2), (3, 4))
        assert poly_add(p, QuadPoly(2)) == p

    def test_x_times_x_plus_one(self):
        c = 1
        x = poly(c, (0, 0), (1, 0))
        assert poly_mul(x, poly_add(x, one_poly(c))) == poly(c, (0, 0), (1, 0), (1, 0))

    def test_degree_contract(self):
        rng = random.Random(3)
        for _ in range(80):
            c = rng.randint(1, 3)
            p = from_coeffs(c, tuple(qr(c, rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(1, 5))))
            q = from_coeffs(c, tuple(qr(c, rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(1, 5))))
            if poly_is_zero(p) or poly_is_zero(q):
                assert poly_is_zero(poly_mul(p, q))
            else:
                assert poly_degree(poly_mul(p, q)) == poly_degree(p) + poly_degree(q)

    @given(quad_polys(), quad_polys())
    def test_conj_is_morphism(self, p, q):
        if p.c != q.c:
            return
        assert poly_conj(poly_add(p, q)) == poly_add(poly_conj(p), poly_conj(q))
        assert poly_conj(poly_mul(p, q)) == poly_mul(poly_conj(p), poly_conj(q))
        assert poly_conj(poly_conj(p)) == p


def ref_add(p, q):
    """QuadRat reference for p + q, coefficient by coefficient."""
    pairs = zip_longest(poly_coeffs(p), poly_coeffs(q), fillvalue=qr(p.c, 0))
    return from_coeffs(p.c, tuple(quad_add(x, y) for x, y in pairs))


def ref_mul(p, q):
    """QuadRat reference for p * q, by convolution."""
    out = [qr(p.c, 0)] * (len(poly_coeffs(p)) + len(poly_coeffs(q)))
    for i, x in enumerate(poly_coeffs(p)):
        for j, y in enumerate(poly_coeffs(q)):
            out[i + j] = quad_add(out[i + j], x * y)
    return from_coeffs(p.c, tuple(out))


def ref_eval(p, z):
    """QuadRat reference for p(z), by Horner's rule."""
    acc = qr(p.c, 0)
    for co in reversed(poly_coeffs(p)):
        acc = quad_add(acc * z, co)
    return acc


def assert_normal_form(p):
    a, b = p.A.coeffs, p.B.coeffs
    assert p.den > 0
    assert gcd(p.den, *a, *b) == 1
    assert not a or a[-1] != 0
    assert not b or b[-1] != 0


class TestRepresentation:
    @given(quad_polys(), quad_polys(), st.integers(-5, 5))
    def test_matches_quadrat_reference(self, p, q, h):
        if p.c != q.c:
            return
        z = qr(p.c, Fraction(h, 3), Fraction(h + 1, 2))
        assert poly_add(p, q) == ref_add(p, q)
        assert poly_mul(p, q) == p * q == ref_mul(p, q)
        assert poly_eval(p, z) == ref_eval(p, z)

    @given(quad_polys(), quad_polys(), st.integers(-5, 5))
    def test_normal_form_kept(self, p, q, h):
        if p.c != q.c:
            return
        s = qr(p.c, Fraction(h, 4), Fraction(3, 2))
        for r in (p, poly_add(p, q), poly_sub(p, q), poly_mul(p, q), poly_neg(p), poly_scale(p, s),
                  poly_scale(p, Fraction(h, 6)), poly_conj(p)):
            assert_normal_form(r)

    def test_zero_is_canonical(self):
        p = poly(2, (Fraction(1, 3), 5), (7, Fraction(-2, 9)))
        for zero in (poly_sub(p, p), poly_scale(p, 0), QuadPoly(2), from_coeffs(2, (qr(2, 0), qr(2, 0)))):
            assert (zero.A, zero.B, zero.den) == (IntPoly(()), IntPoly(()), 1)
            assert zero == QuadPoly(2)
            assert poly_degree(zero) == -1

    def test_built_from_quadrat_equals_fraction_free(self):
        for c, k in [(1, 0), (2, 3), (5, 7)]:
            for p in (shift_product_poly(c, k), cert_alpha(bezout_certificate(c, k))):
                assert from_coeffs(c, poly_coeffs(p)) == p
        p = poly(1, (Fraction(1, 2), Fraction(-1, 6)), (Fraction(2, 3), 0))
        assert (p.A, p.B, p.den) == (IntPoly((3, 4)), IntPoly((-1,)), 6)
        assert poly_coeffs(p) == (qr(1, Fraction(1, 2), Fraction(-1, 6)), qr(1, Fraction(2, 3)))

    def test_built_from_its_fields(self):
        p = shift_product_poly(2, 2)
        third = replace(p, den=3)
        assert type(third) is QuadPoly
        assert third == from_coeffs(2, [co * qr(2, Fraction(1, 3)) for co in poly_coeffs(p)])
        # the fields are normalised: gcd(4, 2, 4, 6) = 2 divides out
        assert QuadPoly(1, IntPoly((2, 4)), IntPoly((6,)), 4) == poly(1, (Fraction(1, 2), Fraction(3, 2)), (1, 0))
        for den in (0, -1):
            with pytest.raises(ValueError, match="den >= 1"):
                QuadPoly(2, p.A, p.B, den)

    def test_coefficient_ring_checked(self):
        with pytest.raises(RingMismatchError):
            from_coeffs(1, (qr(2, 1),))
        with pytest.raises(RingMismatchError):
            poly_mul(one_poly(1), one_poly(2))
        with pytest.raises(RingMismatchError):
            poly_eval(one_poly(1), qr(3, 1))


class TestConjEval:
    def test_conj_of_shift_product(self):
        # conjugate of (X+s)(X-1+s) is (X-s)(X-1-s), expanded
        got = poly_conj(shift_product_poly(1, 1))
        expected = poly(1, (-1, 1), (-1, -2), (1, 0))
        assert got == expected

    def test_real_poly_fixed_by_conj(self):
        p = poly(3, (2, 0), (-5, 0), (7, 0))
        assert poly_conj(p) == p

    def test_eval_examples(self):
        p1 = shift_product_poly(1, 1)
        assert poly_eval(p1, qr(1, 0, 1)) == qr(1, -4, -2)
        assert poly_eval(poly(1, (9, 4), (1, 1), (2, 2)), qr(1, 0)) == qr(1, 9, 4)
        p0 = shift_product_poly(2, 0)
        assert quad_is_zero(poly_eval(p0, qr(2, 0, -1)))


class TestShiftProductPoly:
    def test_small_cases(self):
        assert shift_product_poly(1, 0) == poly(1, (0, 1), (1, 0))
        assert shift_product_poly(1, 1) == poly(1, (-1, -1), (-1, 2), (1, 0))

    def test_monic_of_degree_k_plus_one(self):
        for c in (1, 3):
            for k in range(0, 8):
                p = shift_product_poly(c, k)
                assert poly_degree(p) == k + 1
                assert poly_leading(p) == qr(c, 1)

    def test_eval_matches_shifted_product(self):
        assert poly_eval(shift_product_poly(1, 2), QuadRat(3, 0, 1)) == QuadRat(*shifted_product(1, 1, 3), 1)
        rng = random.Random(11)
        for _ in range(40):
            c = rng.randint(1, 5)
            k = rng.randint(0, 7)
            n = rng.randint(k + 1, k + 12)
            got = poly_eval(shift_product_poly(c, k), QuadRat(n, 0, c))
            assert got == QuadRat(*shifted_product(c, n - k, n), c)


class TestSplitParts:
    def test_examples(self):
        a, b = split_parts(shift_product_poly(1, 1))
        assert a == IntPoly((-1, -1, 1))
        assert b == IntPoly((-1, 2))
        a, b = split_parts(shift_product_poly(3, 0))
        assert a == IntPoly((0, 1))
        assert b == IntPoly((1,))
        real = poly(2, (4, 0), (-7, 0))
        a, b = split_parts(real)
        assert a == IntPoly((4, -7))
        assert b == IntPoly(())

    def test_non_integral_rejected(self):
        with pytest.raises(ValueError):
            split_parts(poly(1, (Fraction(1, 2), 0)))

    def test_common_denominator_rejected(self):
        for p in (poly(3, (4, 1), (0, Fraction(5, 3))), cert_alpha(bezout_certificate(1, 1))):
            assert p.den > 1
            with pytest.raises(ValueError):
                split_parts(p)

    def test_roundtrip(self):
        rng = random.Random(5)
        for _ in range(50):
            c = rng.randint(1, 4)
            p = from_coeffs(c, tuple(qr(c, rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(6)))
            a, b = split_parts(p)
            assert QuadPoly(c, a, b) == p


class TestForwardDifference:
    def test_examples(self):
        x_sq = poly(1, (0, 0), (0, 0), (1, 0))
        assert forward_difference(x_sq, 1) == poly(1, (1, 0), (2, 0))
        assert forward_difference(x_sq, 2) == poly(1, (2, 0))

    def test_kills_degree(self):
        for c in (1, 2):
            for k in range(0, 5):
                assert poly_is_zero(forward_difference(shift_product_poly(c, k), k + 2))

    @given(quad_polys(max_degree=12), st.integers(min_value=0, max_value=8))
    @settings(max_examples=60)
    def test_routes_agree_and_match_manual(self, p, order):
        # forward_difference asserts the two routes agree internally; this
        # re-derives the repeated route independently
        manual = p
        for _ in range(order):
            manual = poly_sub(shift(manual, 1), manual)
        assert forward_difference(p, order) == manual


class TestNewtonBasis:
    def test_small(self):
        assert newton_basis(2, 0) == one_poly(2)
        assert newton_basis(2, 1) == poly(2, (0, -1), (1, 0))
        expected = poly_mul(poly(1, (0, -1), (1, 0)), poly(1, (-1, -1), (1, 0)))
        assert newton_basis(1, 2) == expected

    def test_eval_is_falling_factorial(self):
        rng = random.Random(9)
        for _ in range(40):
            c = rng.randint(1, 4)
            ell = rng.randint(0, 6)
            z = QuadRat(Fraction(rng.randint(-9, 9), rng.randint(1, 3)), Fraction(rng.randint(-9, 9)), c)
            shifted = QuadRat(z.a, z.b - 1, c)  # z - sqrt(-c)
            assert poly_eval(newton_basis(c, ell), z) == falling(shifted, ell)


class TestNewtonCoeffs:
    def test_sum_form_examples(self):
        assert alternating_sums(1, shift_product_poly(1, 0), qr(1, 0), [0]) == [qr(1, 0, Fraction(-1, 2))]
        assert alternating_sums(1, shift_product_poly(1, 1), qr(1, 0), [0, 1]) == [
            qr(1, Fraction(-1, 5), Fraction(1, 10)), qr(1, 0, Fraction(-1, 5))]

    def test_closed_form_examples(self):
        assert closed_forms(1, 0, qr(1, 0), [0]) == [qr(1, 0, Fraction(-1, 2))]
        assert closed_forms(1, 1, qr(1, 0), [1]) == [qr(1, 0, Fraction(-1, 5))]
        assert closed_forms(1, 1, qr(1, 0), [0]) == [qr(1, Fraction(-1, 5), Fraction(1, 10))]


def ref_closed(c, k, ell):
    """The closed-form Newton coefficient with every denominator factor multiplied from scratch."""
    den = qr(c, 0, 2)
    for j in range(1, k + 1):
        den = den * qr(c, j, -2)
    for j in range(1, ell + 1):
        den = den * qr(c, j, 2)
    return quad_inverse(den) * qr(c, (-1) ** (k + ell) * comb(k + ell, ell))


class TestClosedFormVector:
    def test_one_pass_matches_per_coefficient(self):
        for c in range(1, 6):
            for k in range(26):
                vector = closed_forms(c, k, qr(c, 0), range(k + 1))
                assert vector == [closed_forms(c, k, qr(c, 0), [ell])[0] for ell in range(k + 1)]
                assert vector == [ref_closed(c, k, ell) for ell in range(k + 1)]

    def test_scaled_terms_are_2d_times_theclosed_forms(self):
        # the certificate's integer terms against the rational closed form at z = 0
        for c in range(1, 6):
            for k in range(31):
                two_d = 2 * content_multiple(c, k)
                expected = [(two_d * co.a, two_d * co.b) for co in closed_forms(c, k, qr(c, 0), range(k + 1))]
                assert poly_module._scaled_newton_terms(c, k) == expected

    def test_pole_reached_only_by_its_own_factor(self):
        # z = -3 - 2s annihilates the factor (3 + 2s + z) of the ell >= 3 coefficients
        c, k = 2, 5
        z = qr(c, -3, -2)
        with pytest.raises(PoleError):
            closed_forms(c, k, z, range(k + 1))
        assert closed_forms(c, k, z, range(3)) == [closed_forms(c, k, z, [ell])[0] for ell in range(3)]
        with pytest.raises(PoleError):
            closed_forms(c, k, z, [3])


class TestReciprocalDifference:
    def test_single_term_is_reciprocal(self):
        rng = random.Random(13)
        for _ in range(25):
            c = rng.randint(1, 3)
            k = rng.randint(0, 5)
            z = qr(c, Fraction(rng.randint(-15, 15), rng.randint(1, 4)))
            p = shift_product_poly(c, k)
            assert alternating_sums(c, p, z, [0]) == [quad_inverse(poly_eval(p, QuadRat(z.a, z.b + 1, c)))]

    def test_matches_closed_at_zero(self):
        z0 = qr(1, 0)
        assert alternating_sums(1, shift_product_poly(1, 1), z0, [1]) == closed_forms(1, 1, z0, [1])
        assert closed_forms(1, 1, z0, [1]) == [qr(1, 0, Fraction(-1, 5))]

    def test_matches_closed_at_rational_points(self):
        z = qr(2, 3)
        assert alternating_sums(2, shift_product_poly(2, 2), z, [1]) == closed_forms(2, 2, z, [1])
        rng = random.Random(17)
        for _ in range(60):
            c = rng.randint(1, 3)
            k = rng.randint(0, 5)
            ell = rng.randint(0, k)
            z = qr(c, Fraction(rng.randint(-20, 20), rng.randint(1, 8)))
            assert alternating_sums(c, shift_product_poly(c, k), z, [ell]) == closed_forms(c, k, z, [ell])

    def test_pole_detection(self):
        # z = -2*sqrt(-c) annihilates P at the j = 0 shift and the closed
        # form's leading denominator factor
        z = QuadRat(Fraction(0), Fraction(-2), 1)
        with pytest.raises(PoleError):
            alternating_sums(1, shift_product_poly(1, 0), z, [0])
        with pytest.raises(PoleError):
            closed_forms(1, 0, z, [0])

    def test_difference_table_matches_the_definition(self):
        for c in range(1, 4):
            for k in range(11):
                p = shift_product_poly(c, k)
                for z in (qr(c, 0), qr(c, Fraction(1, 2)), qr(c, Fraction(-7, 3)), qr(c, 5)):
                    expected = [alternating_sum(c, k, ell, z) for ell in range(k + 1)]
                    assert alternating_sums(c, p, z, range(k + 1)) == expected

    def test_integer_routes_match_the_quadrat_table(self):
        # the integer oracles against the QuadRat difference table, at every certificate
        # size of the acceptance suite, at z = 0 and at rational points off the real line
        for c in range(1, 6):
            for k in range(26):
                p = shift_product_poly(c, k)
                for z in (qr(c, 0), qr(c, Fraction(1, 2)), qr(c, Fraction(-7, 3), Fraction(1, 2))):
                    expected = difference_table_sums(c, p, z, range(k + 1))
                    assert alternating_sums(c, p, z, range(k + 1)) == expected
                    assert closed_forms(c, k, z, range(k + 1)) == expected

    def test_integer_routes_raise_where_the_quadrat_table_does(self):
        # z = -2 - 2s puts z + j + s on the root j - 2 - s of P for j >= 2, and
        # zeroes the closed form's factor (2 + 2s + z) from ell = 2 on
        for c in range(1, 6):
            for k in (2, 9, 25):
                p, z = shift_product_poly(c, k), qr(c, -2, -2)
                expected = difference_table_sums(c, p, z, range(2))
                assert alternating_sums(c, p, z, range(2)) == closed_forms(c, k, z, range(2)) == expected
                for route in (lambda: difference_table_sums(c, p, z, range(k + 1)),
                              lambda: alternating_sums(c, p, z, range(k + 1)),
                              lambda: closed_forms(c, k, z, range(k + 1))):
                    with pytest.raises(PoleError):
                        route()

    def test_difference_table_pole_matches_the_definition(self):
        # z = -2 - 2s puts z + j + s on the root j - 2 - s of P for j >= 2
        c, k = 2, 4
        z = qr(c, -2, -2)
        p = shift_product_poly(c, k)
        assert alternating_sums(c, p, z, range(2)) == [alternating_sum(c, k, ell, z) for ell in range(2)]
        with pytest.raises(PoleError):
            alternating_sums(c, p, z, range(k + 1))
        for ell in range(2, k + 1):
            with pytest.raises(PoleError):
                alternating_sum(c, k, ell, z)
            with pytest.raises(PoleError):
                alternating_sums(c, p, z, [ell])


class TestBezoutPoly:
    def test_degree_zero(self):
        assert cert_alpha(bezout_certificate(1, 0)) == poly(1, (0, Fraction(-1, 2)))

    def test_degree_one(self):
        expected = poly(1, (Fraction(-2, 5), Fraction(1, 10)), (0, Fraction(-1, 5)))
        assert cert_alpha(bezout_certificate(1, 1)) == expected

    def test_degree_bound(self):
        for c in range(1, 6):
            for k in range(0, 11):
                assert poly_degree(cert_alpha(bezout_certificate(c, k))) <= k

    def test_interp_agrees(self):
        for c, k in [(1, 0), (1, 1), (3, 4), (2, 6), (5, 3)]:
            assert sum_form_alpha(c, k) == cert_alpha(bezout_certificate(c, k))

    def test_identity_small_range(self):
        # the c <= 5, k <= 25 sweep lives in the acceptance suite
        for c in (1, 2, 3):
            for k in range(0, 8):
                alpha = cert_alpha(bezout_certificate(c, k))
                p = shift_product_poly(c, k)
                assert poly_add(poly_mul(alpha, p), poly_mul(poly_conj(alpha), poly_conj(p))) == one_poly(c)

    def test_evaluation_identity(self):
        for c in (1, 2):
            for k in range(0, 6):
                alpha = cert_alpha(bezout_certificate(c, k))
                p = shift_product_poly(c, k)
                for s in range(0, k + 1):
                    at = QuadRat(Fraction(s), Fraction(1), c)
                    assert poly_eval(alpha, at) == quad_inverse(poly_eval(p, at))


class TestBezoutPair:
    def test_linear_pair(self):
        c = 1
        x = poly(c, (0, 0), (1, 0))
        u, v = bezout_pair(x, poly_add(x, one_poly(c)))
        assert u == poly(c, (-1, 0))
        assert v == one_poly(c)

    def test_reproduces_cofactor(self):
        for c, k in [(1, 1), (1, 3), (2, 2), (3, 4)]:
            p = shift_product_poly(c, k)
            u, v = bezout_pair(p, poly_conj(p))
            alpha = cert_alpha(bezout_certificate(c, k))
            assert u == alpha
            assert v == poly_conj(alpha)

    def test_common_factor_detected(self):
        c = 1
        x = poly(c, (0, 0), (1, 0))
        with pytest.raises(NonCoprimeError):
            bezout_pair(poly_mul(x, x), poly_add(poly_mul(x, x), x))

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError):
            bezout_pair(one_poly(1), poly(1, (0, 0), (1, 0)))

    def test_divmod(self):
        rng = random.Random(23)
        for _ in range(40):
            c = rng.randint(1, 3)
            num = from_coeffs(c, tuple(qr(c, rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(rng.randint(0, 6))))
            den = from_coeffs(c, tuple(qr(c, rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(rng.randint(1, 4))))
            if poly_is_zero(den):
                continue
            q, r = divmod_poly(num, den)
            assert poly_add(poly_mul(q, den), r) == num
            assert poly_degree(r) < poly_degree(den)


class TestCertificate:
    def test_k0(self):
        cert = bezout_certificate(1, 0)
        assert cert.d == 1
        assert cert.r == IntPoly(())
        assert cert.s == IntPoly((-1,))
        assert cert.A == IntPoly((0, 1))
        assert cert.B == IntPoly((1,))

    def test_k1_hand_values(self):
        cert = bezout_certificate(1, 1)
        assert cert.d == 5
        assert cert.r == IntPoly((-4,))
        assert cert.s == IntPoly((1, -2))
        # r*A - c*s*B = -4(X^2 - X - 1) - (-2X + 1)(2X - 1) = 5
        assert cert.r * cert.A - (cert.s * cert.B).scale(1) == IntPoly((5,))

    def test_c2_k3(self):
        cert = bezout_certificate(2, 3)
        assert cert.d == 2 * 9 * 12 * 17
        cert.verify()

    def test_tampering_detected(self):
        cert = bezout_certificate(1, 2)
        bad = replace(cert, d=cert.d + 1)
        with pytest.raises(CertificateError):
            bad.verify()
        bad = replace(cert, r=cert.r + IntPoly((1,)))
        with pytest.raises(CertificateError):
            bad.verify()

    def test_tampered_parts_detected(self):
        cert = bezout_certificate(1, 2)
        other = bezout_certificate(1, 1)
        for tampered in (
            replace(cert, B=cert.B + IntPoly((1,))),
            replace(cert, A=cert.A + IntPoly((0, 0, 0, 1))),
            replace(cert, A=other.A, B=other.B),
        ):
            with pytest.raises(CertificateError):
                tampered.verify()

    def test_unit_multiples_of_p_detected(self):
        # 2P and (1 + sqrt(-c))P vanish at every j - sqrt(-c), but are not monic
        cert = bezout_certificate(2, 3)
        for forged in (replace(cert, A=cert.A.scale(2), B=cert.B.scale(2)),
                       replace(cert, A=cert.A - cert.B.scale(2), B=cert.B + cert.A)):
            with pytest.raises(CertificateError, match="A, B do not split"):
                forged.verify()

    def test_each_forged_term_disagrees_with_the_difference_table(self, monkeypatch):
        real = poly_module._scaled_newton_terms
        for ell in range(5):
            for part in (0, 1):
                def forged(c, k, ell=ell, part=part):
                    terms = [list(t) for t in real(c, k)]
                    terms[ell][part] += 1
                    return [tuple(t) for t in terms]

                monkeypatch.setattr(poly_module, "_scaled_newton_terms", forged)
                with pytest.raises(CertificateError, match="closed-form and sum-form Newton coefficients disagree"):
                    bezout_certificate(2, 4)

    def test_degree_above_k_detected(self):
        cert = bezout_certificate(2, 3)
        forged = replace(cert, r=cert.r + IntPoly((0, 0, 0, 0, 1)))
        with pytest.raises(CertificateError, match=re.escape("deg alpha = 4 exceeds k = 3")):
            forged.verify()

    def test_alpha_is_read_off_r_s_d(self):
        # alpha is not a field, so it cannot disagree with r, s or lie in another ring
        cert = bezout_certificate(2, 3)
        assert cert_alpha(cert) == QuadPoly(2, cert.r, cert.s, 2 * cert.d) == sum_form_alpha(2, 3)
        with pytest.raises(TypeError):
            replace(cert, alpha=cert_alpha(cert))

    def test_2d_alpha_must_be_integral(self, monkeypatch):
        # with d = 1 in place of c * prod(l^2 + 4c), alpha's denominator 10 does not divide 2d:
        # the integer terms 2d * a_ell cannot equal 2d times the difference table's coefficients
        monkeypatch.setattr(poly_module, "content_multiple", lambda c, k: 1)
        with pytest.raises(CertificateError, match="closed-form and sum-form Newton coefficients disagree"):
            bezout_certificate(1, 1)

    def test_bezout_identity_is_checked(self):
        # r + 2d, the split of alpha + 1, passes the degree, P and d checks,
        # so only r*A - c*s*B = d can reject it
        cert = bezout_certificate(2, 3)
        forged = replace(cert, r=cert.r + IntPoly((2 * cert.d,)))
        with pytest.raises(CertificateError, match=re.escape("r*A - c*s*B != d")):
            forged.verify()

    def test_consistent_forgery_detected(self):
        # certificates for -P and for P(X+1) satisfy every identity except
        # that A + B*sqrt(-c) is the shift product, so only that check fails
        cert = bezout_certificate(2, 3)
        negated = replace(cert, A=-cert.A, B=-cert.B, r=-cert.r, s=-cert.s)
        a, b = split_parts(shift(QuadPoly(2, cert.A, cert.B), 1))
        r, s = split_parts(shift(QuadPoly(2, cert.r, cert.s), 1))
        shifted = replace(cert, A=a, B=b, r=r, s=s)
        for forged in (negated, shifted):
            with pytest.raises(CertificateError, match="A, B do not split"):
                forged.verify()
