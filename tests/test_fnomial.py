"""F-factorials, falling factorials, and F-nomial coefficients.

Oracles used here: math.comb for F = nat, the q-Pascal recurrence for
Gaussian coefficients, the Fibonacci-Pascal recurrence
(n k) = F_{k+1} (n-1 k) + F_{n-k-1} (n-1 k-1) for fibonomials, and the
F-factorial ratio of tests/oracles.py for every sequence.
"""
from fractions import Fraction
from functools import lru_cache
import math

import pytest

from cobweb import CobwebPoset, NonIntegralError, fnomial_coefficient, parse_sequence
from oracles import fnomial_by_factorials


def fnomial(spec: str, n: int, k: int) -> int:
    return fnomial_coefficient(parse_sequence(spec), n, k)


def f_factorial(spec: str, n: int) -> int:
    """n_F! = F_1 ... F_n, read as the number of maximal chains over levels 0..n."""
    return CobwebPoset(parse_sequence(spec), n).count_max_chains(0, n)


def test_f_factorial_values():
    assert [f_factorial("fib", n) for n in range(7)] == [1, 1, 1, 2, 6, 30, 240]


def test_f_factorial_nat_is_factorial():
    for n in range(11):
        assert f_factorial("nat", n) == math.factorial(n)


def test_f_factorial_const1():
    assert all(f_factorial("const:1", n) == 1 for n in range(9))


def test_falling_is_a_pure_product():
    # F_n ... F_{k+1} counts the maximal chains over levels k+1..n.
    p = CobwebPoset(parse_sequence("fib"), 8)
    assert p.count_max_chains(4, 5) == 15  # F_5 * F_4 = 5 * 3
    assert p.count_max_chains(6, 8) == 21 * 13 * 8
    assert p.count_max_chains(1, 6) == f_factorial("fib", 6)


def test_fnomial_examples():
    assert fnomial("fib", 5, 2) == 15
    assert fnomial("nat", 6, 3) == 20
    assert fnomial("gauss:2", 4, 2) == 35
    assert fnomial("const:1", 9, 4) == 1


def test_fnomial_edges():
    for n in range(13):
        assert fnomial("fib", n, 0) == 1
        assert fnomial("fib", n, n) == 1


def test_fnomial_symmetry():
    for spec in ("nat", "fib", "gauss:2", "even1"):
        for n in range(13):
            for k in range(n + 1):
                assert fnomial(spec, n, k) == fnomial(spec, n, n - k)


def test_nat_fnomial_is_binomial():
    for n in range(21):
        for k in range(n + 1):
            assert fnomial("nat", n, k) == math.comb(n, k)


def _gauss_oracle(q: int, max_n: int) -> dict[tuple[int, int], int]:
    """q-Pascal: [n k] = [n-1 k-1] + q^k [n-1 k]."""
    g = {(0, 0): 1}
    for n in range(1, max_n + 1):
        for k in range(n + 1):
            g[(n, k)] = g.get((n - 1, k - 1), 0) + q ** k * g.get((n - 1, k), 0)
    return g


@pytest.mark.parametrize("q", [2, 3])
def test_gaussian_against_q_pascal(q):
    oracle = _gauss_oracle(q, 12)
    for n in range(13):
        for k in range(n + 1):
            assert fnomial(f"gauss:{q}", n, k) == oracle[(n, k)]


def test_gauss_frozen_value():
    assert _gauss_oracle(2, 5)[(5, 2)] == 155
    assert fnomial("gauss:2", 5, 2) == 155


def test_fibonomial_against_recurrence():
    fib = parse_sequence("fib")

    @lru_cache(maxsize=None)
    def fibo(n: int, k: int) -> int:
        if k == 0 or k == n:
            return 1
        return fib.value(k + 1) * fibo(n - 1, k) + fib.value(n - k - 1) * fibo(n - 1, k - 1)

    for n in range(16):
        for k in range(n + 1):
            assert fnomial("fib", n, k) == fibo(n, k)


def test_eq1_identity():
    """fnomial(n, k) * m_F! == F_n ... F_{n-m+1} with m = n - k, exactly."""
    for spec in ("nat", "fib", "gauss:2", "div3"):
        f = parse_sequence(spec).values(16)
        for n in range(17):
            for k in range(n + 1):
                m = n - k
                assert fnomial(spec, n, k) * math.prod(f[1:m + 1]) == math.prod(f[k + 1:n + 1])


def test_non_integral_error_payload():
    with pytest.raises(NonIntegralError) as info:
        fnomial("list:[2,3,4,5]", 2, 1)
    err = info.value
    assert (err.n, err.k) == (2, 1)
    assert err.fraction == Fraction(3, 2)
    # reduced form
    assert err.fraction.numerator == 3 and err.fraction.denominator == 2


def test_non_integral_is_arithmetic_error():
    assert issubclass(NonIntegralError, ArithmeticError)


def test_odd_non_integral_at_4_2():
    with pytest.raises(NonIntegralError) as info:
        fnomial("odd", 4, 2)
    assert info.value.fraction == Fraction(35, 3)


def test_range_errors():
    with pytest.raises(ValueError):
        fnomial("fib", 5, 6)  # k > n
    with pytest.raises(ValueError):
        fnomial("fib", -1, 0)


@pytest.mark.parametrize("spec", ["nat", "fib", "gauss:2", "even1", "odd", "list:[2,3,4,5]"])
def test_closed_form_is_the_factorial_ratio(spec):
    """Every coefficient with 0 <= k <= n <= 40 (n <= 4 for the list) is the
    oracle's integer, or NonIntegralError carrying the oracle's fraction."""
    seq = parse_sequence(spec)
    n_max = min(40, seq.length or 40)
    values = seq.values(n_max)
    for n in range(n_max + 1):
        for k in range(n + 1):
            expected = fnomial_by_factorials(values, n, k)
            if expected.denominator == 1:
                assert fnomial_coefficient(seq, n, k) == expected, (n, k)
                continue
            with pytest.raises(NonIntegralError) as info:
                fnomial_coefficient(seq, n, k)
            assert (info.value.n, info.value.k, info.value.fraction) == (n, k, expected)


@pytest.mark.parametrize("k", [0, 1, 4, 5])
def test_a_list_shorter_than_n_has_no_coefficient(k):
    # j = min(k, n - k) factors would not reach past the list, but F_n is read.
    with pytest.raises(ValueError, match="n <= 2"):
        fnomial_coefficient(parse_sequence("list:[2,3]"), 5, k)
