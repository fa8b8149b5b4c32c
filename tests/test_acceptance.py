"""Acceptance suite: exhaustive desk-scale verification, one test per criterion.

Each test prints a single PASS line (pytest -s or -v shows them); a failing
assertion anywhere means the criterion does not hold as stated.
"""

import math
import random
from fractions import Fraction

import pytest

import quadlcm.cli as cli
from quadlcm.bounds import lcm_range, row_checks
from quadlcm.poly import IntPoly, bezout_certificate, shift_product_poly
from quadlcm.ring import QuadInt, QuadRat
from quadlcm.rows import sweep_columns
from quadlcm.window import _start

from oracles import (
    alternating_sums,
    bezout_pair,
    cert_alpha,
    closed_forms,
    lemma_instance,
    multiples_by_criterion,
    multiples_by_search,
    one_poly,
    poly_add,
    poly_conj,
    poly_mul,
    product_divides_ab,
    stirling_check,
    sum_form_alpha,
)

C_MAX = 5
N_MAX_EXACT = 60
N_MAX_BOUNDS = 200
N_MAX_OON = 300


def _pass(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {text}")


def _lcms_by_n(c: int, n_max: int):
    """(n, [L at (c, m, n) for m = 1..n]) for n = 1..n_max, from one ascending fold over n.

    A second route to every L, independent of the library's descending fold over m.
    """
    ls = []
    for n in range(1, n_max + 1):
        term = n * n + c
        ls = [math.lcm(big_l, term) for big_l in ls] + [term]
        yield n, ls


@pytest.fixture(scope="module")
def divisor_sweep():
    """Every triple's values for c <= 5, 1 <= m <= n <= 60, by sweep column, from the row passes (checked there)."""
    cells = {}
    for c in range(1, C_MAX + 1):
        for n, ls in _lcms_by_n(c, N_MAX_EXACT):
            rows = row_checks(c, n, range(1, n + 1), _start)
            assert [values[3] for values, *_ in rows] == ls
            for values, *_, violations in rows:
                assert violations == ()
                cells[(c, values[1], n)] = dict(zip(sweep_columns(), values))
    return cells


def test_criterion_1_divisor_theorem(divisor_sweep):
    checked = 0
    for (c, m, n), r in divisor_sweep.items():
        assert r["quotient"] * r["D_num"] == r["L"] * r["D_den"]  # L/D is an exact integer
        assert math.gcd(r["D_num"], r["D_den"]) == 1
        assert r["quotient"] >= 1
        checked += 1
    assert checked == C_MAX * N_MAX_EXACT * (N_MAX_EXACT + 1) // 2
    _pass(1, f"L/D integral for all {checked} triples, c<=5, n<=60, zero tolerance")


def test_criterion_2_content_divides_multiple(divisor_sweep):
    for (c, m, n), r in divisor_sweep.items():
        assert r["hc_bound"] % r["hc"] == 0
    anchors = divisor_sweep[(1, 1, 3)], divisor_sweep[(1, 2, 3)]
    assert (anchors[0]["hc"], anchors[0]["hc_bound"]) == (10, 40)
    assert (anchors[1]["hc"], anchors[1]["hc_bound"]) == (5, 5)
    _pass(2, f"content divides c*prod(l^2+4c) for all {len(divisor_sweep)} triples incl. anchors 10|40, 5|5")


def test_criterion_3_bezout_suite():
    pairs = 0
    for c in range(1, C_MAX + 1):
        for k in range(0, 26):
            cert = bezout_certificate(c, k)  # verifies r*A - c*s*B = d exactly
            alpha = cert_alpha(cert)
            p = shift_product_poly(c, k)
            assert poly_add(poly_mul(alpha, p), poly_mul(poly_conj(alpha), poly_conj(p))) == one_poly(c)
            assert sum_form_alpha(c, k) == alpha
            u, v = bezout_pair(p, poly_conj(p))
            assert u == alpha and v == poly_conj(alpha)
            assert cert.r * cert.A - (cert.s * cert.B).scale(c) == IntPoly((cert.d,))
            pairs += 1
    hand = bezout_certificate(1, 1)
    assert hand.d == 5
    assert hand.r == IntPoly((-4,))
    assert hand.s == IntPoly((1, -2))  # s(X) = -2X + 1
    assert pairs == C_MAX * 26
    _pass(3, f"Bezout identity, route agreement, uniqueness and certificates for {pairs} (c, k) pairs")


def test_criterion_4_reciprocal_difference_identity():
    rng = random.Random(4)
    points = 0
    for c in range(1, 4):
        for k in range(0, 11):
            p = shift_product_poly(c, k)
            for ell in range(0, k + 1):
                for _ in range(50):
                    z = QuadRat(Fraction(rng.randint(-30, 30), rng.randint(1, 8)), Fraction(0), c)
                    assert alternating_sums(c, p, z, [ell]) == closed_forms(c, k, z, [ell])
                    points += 1
    _pass(4, f"sum form equals closed form at {points} rational points, exact equality")


def test_criterion_5_two_n_and_binomial(divisor_sweep):
    for c in range(1, C_MAX + 1):
        for n in range(1, N_MAX_OON + 1):
            m = (n + 1) // 2
            assert lcm_range(c, m, n) >= 2**n
    for (c, m, n), r in divisor_sweep.items():
        assert r["L"] >= m * math.comb(n, m)
    _pass(5, f"L >= 2^n at m=ceil(n/2) for n<=300 and L >= m*C(n,m) for n<=60, exact integers")


def test_criterion_6_exponential_lower_bound():
    big_l = 1
    for n in range(1, N_MAX_OON + 1):
        big_l = math.lcm(big_l, n * n + 1)
        assert 25 * 500**n * big_l >= 8 * 721**n  # L >= (8/25) * (721/500)^n
    _pass(6, f"lcm(1^2+1..n^2+1) >= 0.32 * 1.442^n for n <= {N_MAX_OON}, exact integers")


def test_criterion_7_log_bounds_sweep():
    applicable = 0
    for c in range(1, C_MAX + 1):
        for n, ls in _lcms_by_n(c, N_MAX_BOUNDS):
            rows = row_checks(c, n, range(1, n + 1), None)
            assert [values[3] for values, *_ in rows] == ls  # every bound decided on an L found by two routes
            for values, _, _, holds, violations in rows:
                assert violations == ()
                applicable += sum(1 for held in holds if held is not None)
    _pass(7, f"{applicable} applicable bound instances verified over c<=5, n<=200, "
          "decided exactly or by certified enclosures")


def test_criterion_8_multiple_criterion_oracle():
    limit = 500
    elements = 0
    for c in range(1, C_MAX + 1):
        for a in range(-20, 21):
            for b in range(-20, 21):
                if (a, b) == (0, 0):
                    continue
                z = QuadInt(a, b, c)
                assert multiples_by_criterion(z, limit) == multiples_by_search(z, limit)
                elements += 1
    _pass(8, f"divisibility criterion matches quotient search for {elements} elements, |N| <= {limit}")


def test_criterion_9_stirling_double_inequality():
    for k in range(1, 10**4 + 1):
        assert stirling_check(k)
    _pass(9, "Stirling double inequality for 1 <= k <= 10^4 with exact log-factorial sums")


def test_criterion_10_divisibility_lemma_property():
    rng = random.Random(10)
    for _ in range(10**4):
        u, a, b = lemma_instance(rng)
        assert product_divides_ab(u, a, b)
    _pass(10, "10^4 randomized hypothesis-satisfying instances, conclusion held in every one")


def test_criterion_11_sweep_determinism(tmp_path):
    config = ["sweep", "--c-min", "1", "--c-max", "2", "--n-min", "1", "--n-max", "12"]
    outputs = []
    for workers in (1, 4, 16):
        target = tmp_path / f"sweep_p{workers}.csv"
        code = cli.main(config + ["--parallelism", str(workers), "--out", str(target)])
        assert code == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(outputs[0].splitlines()) == 1 + 2 * (12 * 13 // 2)
    _pass(11, "sweep output byte-identical at parallelism 1, 4, 16")
