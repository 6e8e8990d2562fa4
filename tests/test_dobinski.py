"""Stirling numbers, exact Bell numbers, and the Dobinski series."""
import math
import tracemalloc

import pytest

from cobweb import bell_dobinski, bell_exact, stirling2
from oracles import bell_by_triangle, stirling_rows

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def test_stirling_frozen_values():
    assert stirling2(0, 0) == 1
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25
    assert stirling2(5, 5) == 1
    assert stirling2(6, 1) == 1


def test_stirling_boundary():
    for n in range(1, 12):
        assert stirling2(n, 0) == 0
        assert stirling2(n, 1) == 1
        assert stirling2(n, n) == 1
        assert stirling2(n, n + 3) == 0


def test_stirling_against_inclusion_exclusion():
    """S(n,k) = (1/k!) sum_i (-1)^i C(k,i) (k-i)^n, an independent route."""
    for n in range(13):
        for k in range(n + 1):
            acc = sum(
                (-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k + 1)
            )
            q, r = divmod(acc, math.factorial(k))
            assert r == 0
            assert stirling2(n, k) == q


def test_bell_exact_values():
    assert [bell_exact(n) for n in range(11)] == BELL


def test_single_row_matches_the_table():
    """bell_exact and stirling2 keep no row; the full table is their oracle."""
    table = stirling_rows(200)
    for n in range(201):
        assert bell_exact(n) == sum(table[n])
    for n in range(0, 201, 17):
        assert [stirling2(n, k) for k in range(n + 2)] == table[n] + [0]


def test_bell_exact_matches_the_bell_triangle():
    bells = bell_by_triangle(1000)
    for n in [*range(301), 999, 1000]:
        assert bell_exact(n) == bells[n], n


def test_stirling_row_sums_are_bell_at_400():
    assert sum(stirling2(400, k) for k in range(401)) == bell_by_triangle(400)[-1]


def test_stirling_spot_checks_at_1000():
    """Closed forms of the outer diagonals, and the triangle recurrence inside."""
    n = 1000
    assert stirling2(n, 1) == 1
    assert stirling2(n, 2) == 2 ** (n - 1) - 1
    assert stirling2(n, n - 1) == math.comb(n, 2)
    assert stirling2(n, n - 2) == math.comb(n, 3) + 3 * math.comb(n, 4)
    for k in (3, 500, 997):
        assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def test_bell_exact_memory_is_one_row():
    # The whole triangle up to n = 1000 peaks above 200 MB and one of its
    # rows near 600 KB; the streamed sum holds a few integers of ~1 KB,
    # well under one row (14 KB peak measured).
    tracemalloc.start()
    try:
        bell_exact(1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_row_sums_are_bell():
    for n in range(13):
        assert sum(stirling2(n, k) for k in range(n + 1)) == bell_exact(n)


def test_table_range_errors():
    with pytest.raises(ValueError):
        stirling2(-1, 0)
    with pytest.raises(ValueError):
        stirling2(3, -1)
    with pytest.raises(ValueError):
        bell_exact(-1)


def test_dobinski_matches_exact():
    for n in range(16):
        exact = bell_exact(n)
        approx = bell_dobinski(n, 1e-9)
        assert abs(approx - exact) / exact <= 1e-9


def test_dobinski_up_to_twenty():
    for n in (16, 18, 20):
        exact = bell_exact(n)
        assert abs(bell_dobinski(n, 1e-9) - exact) / exact <= 1e-9


def test_dobinski_n0():
    assert abs(bell_dobinski(0, 1e-9) - 1) <= 1e-9


def test_dobinski_range():
    with pytest.raises(ValueError):
        bell_dobinski(21, 1e-9)
    with pytest.raises(ValueError):
        bell_dobinski(-1, 1e-9)
    with pytest.raises(ValueError):
        bell_dobinski(5, 0.0)
    with pytest.raises(ValueError, match="rel_tol must be positive, got nan"):
        bell_dobinski(5, float("nan"))
