import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quadlcm.ring import QuadInt, QuadRat, RingMismatchError, shifted_product

from quadlcm.poly import IntPoly

from oracles import (
    DivisibilityHypothesisError,
    InexactDivisionError,
    TripleReport,
    bound_report,
    content,
    divide_exact,
    divisibility_criterion,
    fields,
    from_coeffs,
    lemma_instance,
    multiples_by_criterion,
    multiples_by_search,
    product_divides_ab,
    quad_add,
    quad_conj,
    quad_is_zero,
    quad_neg,
    quad_norm,
    quad_sub,
    replace,
    triple_report,
)


@st.composite
def quadint_tuples(draw, count=2, span=50):
    c = draw(st.integers(min_value=1, max_value=5))
    return tuple(
        QuadInt(
            draw(st.integers(min_value=-span, max_value=span)),
            draw(st.integers(min_value=-span, max_value=span)),
            c,
        )
        for _ in range(count)
    )


class TestArithmetic:
    def test_add(self):
        assert quad_add(QuadInt(1, 2, 1), QuadInt(3, -2, 1)) == QuadInt(4, 0, 1)
        assert quad_add(QuadInt(0, 0, 5), QuadInt(7, 1, 5)) == QuadInt(7, 1, 5)
        assert quad_add(QuadInt(2, 3, 2), QuadInt(5, 4, 2)) == QuadInt(7, 7, 2)

    def test_mul(self):
        assert QuadInt(1, 1, 1) * QuadInt(2, 1, 1) == QuadInt(1, 3, 1)
        assert QuadInt(1, 3, 1) * QuadInt(3, 1, 1) == QuadInt(0, 10, 1)

    def test_mul_identity(self):
        for x in [QuadInt(3, -7, 2), QuadInt(0, 0, 2), QuadInt(-1, 5, 2)]:
            assert x * QuadInt(1, 0, 2) == x

    def test_mismatched_c_rejected(self):
        with pytest.raises(RingMismatchError):
            quad_add(QuadInt(1, 0, 1), QuadInt(1, 0, 2))
        with pytest.raises(RingMismatchError):
            QuadInt(1, 0, 1) * QuadInt(1, 0, 3)
        with pytest.raises(RingMismatchError):
            QuadRat(1, 0, 1) * QuadRat(1, 0, 2)

    def test_c_must_be_positive(self):
        with pytest.raises(ValueError):
            QuadInt(1, 1, 0)
        with pytest.raises(ValueError):
            QuadRat(1, 1, -2)

    @given(quadint_tuples(count=3))
    def test_ring_axioms(self, xs):
        x, y, z = xs
        assert quad_add(quad_add(x, y), z) == quad_add(x, quad_add(y, z))
        assert quad_add(x, y) == quad_add(y, x)
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * quad_add(y, z) == quad_add(x * y, x * z)

    @given(quadint_tuples(count=2))
    def test_norm_multiplicative(self, xs):
        x, y = xs
        assert quad_norm(x * y) == quad_norm(x) * quad_norm(y)

    @given(quadint_tuples(count=2))
    def test_conj_morphism(self, xs):
        x, y = xs
        assert quad_conj(quad_add(x, y)) == quad_add(quad_conj(x), quad_conj(y))
        assert quad_conj(x * y) == quad_conj(x) * quad_conj(y)
        assert quad_conj(quad_conj(x)) == x


class TestSharedArithmetic:
    # QuadInt and QuadRat share one implementation, and so do the oracles' add, sub
    # and neg; each result keeps the operand's type
    OPS = {
        "add": quad_add,
        "sub": quad_sub,
        "mul": lambda x, y: x * y,
        "neg": lambda x, y: quad_neg(x),
        "conj": lambda x, y: quad_conj(x),
    }

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_results_keep_the_operand_type(self, op):
        ints = [(QuadInt(3, -7, 2), QuadInt(-1, 5, 2)), (QuadInt(0, 0, 1), QuadInt(4, 1, 1))]
        for x, y in ints:
            got = self.OPS[op](x, y)
            assert type(got) is QuadInt
            assert type(got.a) is int and type(got.b) is int
            rx, ry = QuadRat(x.a, x.b, x.c), QuadRat(Fraction(y.a, 3), y.b, y.c)
            got = self.OPS[op](rx, ry)
            assert type(got) is QuadRat
            assert type(got.a) is Fraction and type(got.b) is Fraction

    def test_norm_keeps_the_component_type(self):
        assert type(quad_norm(QuadInt(3, -7, 2))) is int
        assert quad_norm(QuadRat(Fraction(1, 2), 1, 3)) == Fraction(13, 4)
        assert type(quad_norm(QuadRat(3, -7, 2))) is Fraction

    def test_int_and_rat_elements_never_compare_equal(self):
        assert QuadInt(1, 0, 1) != QuadRat(1, 0, 1)
        assert QuadRat(1, 0, 1) != QuadInt(1, 0, 1)
        assert QuadInt(1, 0, 1) != (1, 0, 1)
        assert QuadInt(2, 3, 1) == QuadInt(2, 3, 1)
        assert QuadRat(2, 3, 1) == QuadRat(Fraction(4, 2), Fraction(3), 1)


class TestConjNorm:
    def test_conj_examples(self):
        assert quad_conj(QuadInt(1, 3, 1)) == QuadInt(1, -3, 1)
        assert quad_conj(QuadInt(5, 0, 2)) == QuadInt(5, 0, 2)
        prod = QuadInt(1, 1, 1) * QuadInt(2, 1, 1)
        assert quad_conj(prod) == quad_conj(QuadInt(1, 1, 1)) * quad_conj(QuadInt(2, 1, 1))
        assert quad_conj(prod) == QuadInt(1, -3, 1)

    def test_norm_examples(self):
        assert quad_norm(QuadInt(1, 3, 1)) == 10
        assert quad_norm(QuadInt(0, 0, 7)) == 0
        # (k + sqrt(-c))(k - sqrt(-c)) = k^2 + c
        for c in range(1, 6):
            for k in range(0, 10):
                z = QuadInt(k, 1, c)
                assert quad_norm(z) == k * k + c
                assert z * quad_conj(z) == QuadInt(k * k + c, 0, c)


class TestContent:
    def test_examples(self):
        assert content(QuadInt(1, 3, 1)) == 1
        assert content(QuadInt(0, 10, 1)) == 10
        assert content(QuadInt(5, 5, 1)) == 5

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            content(QuadInt(0, 0, 1))

    @given(quadint_tuples(count=1))
    def test_self_times_conj(self, xs):
        (x,) = xs
        if quad_is_zero(x):
            return
        prod = x * quad_conj(x)
        assert prod == QuadInt(quad_norm(x), 0, x.c)
        assert content(prod) == quad_norm(x)


class TestIsMultiple:
    def test_examples(self):
        z = QuadInt(1, 3, 1)
        assert 10 % divisibility_criterion(z) == 0
        assert 5 % divisibility_criterion(z) != 0
        for n in (0, 1, -17, 123):
            assert n % divisibility_criterion(QuadInt(1, 0, 3)) == 0

    def test_negative_n(self):
        assert -10 % divisibility_criterion(QuadInt(1, 3, 1)) == 0
        assert -5 % divisibility_criterion(QuadInt(1, 3, 1)) != 0

    def test_criterion_is_integer(self):
        rng = random.Random(7)
        for _ in range(500):
            c = rng.randint(1, 5)
            a, b = rng.randint(-30, 30), rng.randint(-30, 30)
            if (a, b) == (0, 0):
                continue
            z = QuadInt(a, b, c)
            assert quad_norm(z) % content(z) == 0
            assert divisibility_criterion(z) >= 1

    def test_against_quotient_search(self):
        # the full |a|,|b| <= 20 sweep lives in the acceptance suite
        limit = 60
        for c in range(1, 4):
            for a in range(-8, 9):
                for b in range(-8, 9):
                    if (a, b) == (0, 0):
                        continue
                    z = QuadInt(a, b, c)
                    assert multiples_by_criterion(z, limit) == multiples_by_search(z, limit)


class TestDivideExact:
    def test_examples(self):
        assert divide_exact(QuadInt(20, 0, 1), QuadInt(0, 10, 1)) == QuadInt(0, -2, 1)
        assert divide_exact(QuadInt(10, 0, 1), QuadInt(5, 5, 1)) == QuadInt(1, -1, 1)
        z = QuadInt(3, -4, 2)
        assert divide_exact(z, z) == QuadInt(1, 0, 2)

    def test_inexact_raises(self):
        with pytest.raises(InexactDivisionError):
            divide_exact(QuadInt(5, 0, 1), QuadInt(1, 3, 1))

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            divide_exact(QuadInt(5, 0, 1), QuadInt(0, 0, 1))

    @given(quadint_tuples(count=2, span=30))
    def test_roundtrip(self, xs):
        q, z = xs
        if quad_is_zero(z):
            return
        assert divide_exact(q * z, z) == q


class TestShiftedProduct:
    def test_examples(self):
        assert shifted_product(1, 1, 3) == (0, 10)
        assert shifted_product(1, 2, 3) == (5, 5)
        assert shifted_product(1, 4, 4) == (4, 1)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            shifted_product(1, 3, 2)

    def test_matches_explicit(self):
        for c in (1, 2, 5):
            expected = QuadInt(1, 0, c)
            for k in range(3, 9):
                expected = expected * QuadInt(k, 1, c)
            assert QuadInt(*shifted_product(c, 3, 8), c) == expected

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=-10, max_value=15),
        st.integers(min_value=0, max_value=15),
    )
    def test_matches_quadint_products(self, c, m, width):
        expected = QuadInt(1, 0, c)
        for k in range(m, m + width + 1):
            expected = expected * QuadInt(k, 1, c)
        assert QuadInt(*shifted_product(c, m, m + width), c) == expected

    @given(st.integers(min_value=-3, max_value=0), st.integers(min_value=-3, max_value=3))
    def test_c_below_one_rejected(self, c, m):
        with pytest.raises(ValueError):
            shifted_product(c, m, m + 2)


class TestProductDividesAB:
    def test_two_element_example(self):
        u = [QuadInt(1, 1, 1), QuadInt(2, 1, 1)]
        a = u[0] * u[1]
        b = quad_sub(u[0], u[1]) * quad_sub(u[1], u[0])
        assert b == QuadInt(-1, 0, 1)
        assert product_divides_ab(u, a, b)

    def test_single_element(self):
        for c in (1, 2, 3):
            for k in (1, 4, 7):
                u = [QuadInt(k, 1, c)]
                assert product_divides_ab(u, QuadInt(k * k + c, 0, c), QuadInt(1, 0, c))

    def test_lcm_instance(self):
        # m'=1, n=2, c=1: a = lcm(2, 5) = 10, b = 1!
        u = [QuadInt(1, 1, 1), QuadInt(2, 1, 1)]
        assert product_divides_ab(u, QuadInt(10, 0, 1), QuadInt(1, 0, 1))

    def test_hypothesis_violation_distinct_from_false(self):
        u = [QuadInt(1, 1, 1), QuadInt(2, 1, 1)]
        # a = 5 is not a multiple of 1 + i (criterion 2 does not divide 5)
        with pytest.raises(DivisibilityHypothesisError):
            product_divides_ab(u, QuadInt(5, 0, 1), QuadInt(1, 0, 1))
        # duplicate u's force zero difference products, so b must be 0
        dup = [QuadInt(1, 1, 1), QuadInt(1, 1, 1)]
        with pytest.raises(DivisibilityHypothesisError):
            product_divides_ab(dup, QuadInt(2, 0, 1), QuadInt(1, 0, 1))

    def test_zero_u_rejected(self):
        with pytest.raises(ValueError):
            product_divides_ab([QuadInt(0, 0, 1)], QuadInt(1, 0, 1), QuadInt(1, 0, 1))

    def test_random_instances(self):
        rng = random.Random(20260809)
        for _ in range(300):
            u, a, b = lemma_instance(rng)
            assert product_divides_ab(u, a, b)


class TestValueSemantics:
    # each hand-written value type: two equal values built differently, and a different one
    VALUES = {
        "QuadInt": lambda: (QuadInt(2, -3, 5), QuadInt(4 // 2, -3, 5), QuadInt(2, 3, 5)),
        "QuadRat": lambda: (QuadRat(1, 2, 3), QuadRat(Fraction(2, 2), Fraction(4, 2), 3), QuadRat(1, 2, 4)),
        "IntPoly": lambda: (IntPoly((1, 2)), IntPoly([1, 2, 0, 0]), IntPoly((1,))),
        "QuadPoly": lambda: (from_coeffs(2, [QuadRat(Fraction(1, 2), 1, 2)]),
                             from_coeffs(2, [QuadRat(Fraction(2, 4), 1, 2), QuadRat(0, 0, 2)]),
                             from_coeffs(2, [QuadRat(1, 1, 2)])),
        # the twin differs only in its hidden product, which is not compared
        "DivisorReport": lambda: (triple_report(1, 2, 5).divisor,
                                  replace(triple_report(1, 2, 5).divisor, product=QuadInt(1, 0, 1)),
                                  triple_report(1, 3, 5).divisor),
        # the twin's L is lcm(5, 10, 17, 26) by hand, and its bounds come in another order
        "BoundReport": lambda: (triple_report(1, 2, 5).bounds,
                                replace(bound_report(1, 2, 5, 5 * 17 * 26),
                                        bounds=dict(reversed(triple_report(1, 2, 5).bounds.bounds.items()))),
                                triple_report(2, 2, 5).bounds),
        "TripleReport": lambda: (triple_report(1, 2, 5),
                                 TripleReport(triple_report(1, 2, 5).divisor, bound_report(1, 2, 5, 5 * 17 * 26), ()),
                                 replace(triple_report(1, 2, 5), violations=("forged",))),
    }

    @pytest.mark.parametrize("kind", sorted(VALUES))
    def test_equal_values_hash_equal(self, kind):
        # equal values compare equal; no record has a hash, so none can hash unequal to its twin
        x, y, other = self.VALUES[kind]()
        assert x == y and x != other
        for value in (x, y):
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)

    @pytest.mark.parametrize("kind", sorted(VALUES))
    def test_assignment_raises(self, kind):
        x, y, _ = self.VALUES[kind]()
        for name in x._fields:
            with pytest.raises(AttributeError):
                setattr(x, name, getattr(y, name))
            with pytest.raises(AttributeError):
                delattr(x, name)
        with pytest.raises(AttributeError):
            x.extra = 1
        assert x == y

    @pytest.mark.parametrize("kind", sorted(VALUES))
    def test_replace_rebuilds_from_the_fields(self, kind):
        x, _, _ = self.VALUES[kind]()
        assert replace(x) == x
        assert replace(x, **fields(x)) == x

    def test_repr_names_the_fields(self):
        assert repr(QuadInt(1, -2, 3)) == "QuadInt(a=1, b=-2, c=3)"
        assert repr(QuadRat(1, Fraction(1, 2), 3)) == "QuadRat(a=Fraction(1, 1), b=Fraction(1, 2), c=3)"
        assert repr(IntPoly([0, 5, 0])) == "IntPoly(coeffs=(0, 5))"

    def test_quadrat_coerces_ints_to_fractions(self):
        for x in (QuadRat(3, -1, 2), replace(QuadRat(Fraction(3), -1, 2), b=-1)):
            assert type(x.a) is Fraction and type(x.b) is Fraction
        assert QuadRat(3, -1, 2) == QuadRat(Fraction(3), Fraction(-1), 2)

    @pytest.mark.parametrize("c", [0, -3])
    def test_c_below_one_raises_at_every_construction(self, c):
        for build in (lambda: QuadInt(1, 1, c), lambda: QuadRat(1, 1, c),
                      lambda: replace(QuadInt(1, 1, 1), c=c), lambda: replace(QuadRat(1, 1, 1), c=c)):
            with pytest.raises(ValueError):
                build()
