"""Diagonal Whitney numbers and the Bell-like row sums."""
from functools import lru_cache

import pytest

from cobweb import (
    NonIntegralError,
    bell_sequence,
    parse_sequence,
    whitney,
)
from cobweb.diagonal import whitney_rows
from oracles import fnomial_by_factorials


def test_whitney_vanishes_past_half():
    nat = parse_sequence("nat")
    assert whitney(5, 3, nat) == 0
    assert whitney(7, 4, nat) == 0
    # the boundary 2k = n is included, not cut off
    assert whitney(4, 2, nat) == 1
    assert whitney(6, 3, parse_sequence("fib")) == 1


def test_whitney_is_a_shifted_fnomial():
    fib = parse_sequence("fib")
    values = fib.values(15)
    for n in range(16):
        for k in range(n // 2 + 1):
            assert whitney(n, k, fib) == fnomial_by_factorials(values, n - k, k)


def table_rows(seq, n_max):
    """The triangle from F-factorial quotients, in n-then-k order; the first
    one that is not an integer raises NonIntegralError."""
    values = seq.values(n_max)
    rows = []
    for n in range(n_max + 1):
        rows.append([])
        for k in range(n // 2 + 1):
            q = fnomial_by_factorials(values, n - k, k)
            if q.denominator != 1:
                raise NonIntegralError(n - k, k, q)
            rows[-1].append(q.numerator)
    return rows


@pytest.mark.parametrize("spec", ["nat", "fib", "gauss:2", "gauss:3", "const:3"])
def test_whitney_rows_match_factorial_quotients(spec):
    seq = parse_sequence(spec)
    rows = list(whitney_rows(seq, 30))
    assert rows == table_rows(seq, 30)
    assert bell_sequence(seq, 30) == [sum(row) for row in rows]
    assert rows[30] == [whitney(30, k, seq) for k in range(16)]


# In the last two, scanning F-nomial rows m-then-k would meet (4 2) and
# (6 3) first; n-then-k order meets (5 1) and (8 1).
@pytest.mark.parametrize(
    "spec", ["list:[2,3,4,5]", "list:[2,6,2,4,1,3]", "list:[2,4,4,2,4,6,2,1,6]"]
)
def test_first_non_integral_matches_factorial_order(spec):
    """The recurrence reports the coefficient that n-then-k evaluation meets first."""
    seq = parse_sequence(spec)
    n_max = seq.length
    with pytest.raises(NonIntegralError) as expected:
        table_rows(seq, n_max)
    with pytest.raises(NonIntegralError) as got:
        bell_sequence(seq, n_max)
    assert (got.value.n, got.value.k, got.value.fraction) == (
        expected.value.n,
        expected.value.k,
        expected.value.fraction,
    )


def test_whitney_frozen_values():
    nat = parse_sequence("nat")
    fib = parse_sequence("fib")
    assert whitney(4, 1, nat) == 3
    assert whitney(5, 2, fib) == 2
    assert whitney(0, 0, nat) == 1


def test_bell_values():
    assert bell_sequence(parse_sequence("nat"), 4)[4] == 5
    assert bell_sequence(parse_sequence("fib"), 5)[5] == 6  # 1 + 3 + 2


def test_bell_sequence_nat_is_fibonacci():
    """Row sums over F = nat give the Fibonacci numbers, shifted by one."""

    @lru_cache(maxsize=None)
    def fibonacci(n: int) -> int:
        return n if n < 2 else fibonacci(n - 1) + fibonacci(n - 2)

    bells = bell_sequence(parse_sequence("nat"), 25)
    assert bells == [fibonacci(n + 1) for n in range(26)]
    assert bells[25] == 121393


def test_bell_sequence_const1():
    bells = bell_sequence(parse_sequence("const:1"), 12)
    assert bells == [n // 2 + 1 for n in range(13)]


def test_bell_sequence_prefix_stability():
    fib = parse_sequence("fib")
    long = bell_sequence(fib, 12)
    short = bell_sequence(fib, 7)
    assert long[:8] == short


def test_bell_matches_whitney_sum():
    seq = parse_sequence("gauss:2")
    bells = bell_sequence(seq, 9)
    for n in range(10):
        assert bells[n] == sum(whitney(n, k, seq) for k in range(n // 2 + 1))


def test_diagonal_poset():
    """The diagonal structure on 5 has rank counts 1, 4, 3 and size 8."""
    nat = parse_sequence("nat")
    assert list(whitney_rows(nat, 5))[5] == [whitney(5, k, nat) for k in range(3)] == [1, 4, 3]
    assert bell_sequence(nat, 5)[5] == 8


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        bell_sequence(parse_sequence("nat"), -1)
    with pytest.raises(ValueError):
        whitney(-2, 0, parse_sequence("nat"))
