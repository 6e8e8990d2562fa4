"""Layer grid P(k, n): size, Whitney numbers, and dominated-path counts."""
import math

import pytest

from cobweb import (
    bell_like,
    count_grid_max_chains,
    grid_size,
    whitney_first,
    whitney_second,
)
from oracles import grid_elements, grid_max_paths, grid_mobius


def test_grid_size_formula_vs_enumeration():
    for n in range(13):
        for k in range(n + 1):
            formula = (n - k) * (k + 1) + k * (k + 1) // 2
            assert grid_size(k, n) == formula == len(grid_elements(k, n))


def test_grid_elements_rank_major():
    els = grid_elements(2, 4)
    assert len(els) == 9
    assert els[0] == (0, 1)
    ranks = [l + m - 1 for l, m in els]
    assert ranks == sorted(ranks)
    assert ranks[-1] == 2 + 4 - 1


def test_grid_membership_rule():
    els = set(grid_elements(3, 5))
    for l in range(4):
        for m in range(6):
            assert ((l, m) in els) == (l < m)
    assert (4, 5) not in els


def test_bad_arguments():
    with pytest.raises(ValueError):
        grid_size(3, 2)  # k > n
    with pytest.raises(ValueError):
        grid_size(-1, 2)
    with pytest.raises(ValueError):
        count_grid_max_chains(0, 0)  # no paths without a level to stand on


def test_whitney_second_sums_to_size():
    for n in range(13):
        for k in range(n + 1):
            els = grid_elements(k, n)
            for r in range(-2, k + n + 2):
                count = sum(1 for l, m in els if l + m - 1 == r)
                assert whitney_second(k, n, r) == count, (k, n, r)
            total = sum(whitney_second(k, n, r) for r in range(k + n))
            assert total == grid_size(k, n) == bell_like(k, n)


def test_whitney_second_out_of_range_rank():
    assert whitney_second(2, 4, 99) == 0
    assert whitney_second(2, 4, -1) == 0


def test_whitney_first_small_grid():
    # P(1,2) = {(0,1), (0,2), (1,2)}, ranks 0, 1, 2
    assert whitney_first(1, 2, 0) == 1
    assert whitney_first(1, 2, 1) == -1
    assert whitney_first(1, 2, 2) == 0


def test_whitney_first_alternating_sum():
    """The grid is the single interval [(0,1), (k,n)], so mu sums to zero.

    Each value is also checked against the bottom row of the Mobius
    matrix obtained by inverting the grid's zeta matrix; the bottom
    (0, 1) comes first in rank order.
    """
    for n in range(13):
        for k in range(n + 1):
            elements, mobius = grid_mobius(k, n)
            bottom_row = mobius[0] if elements else ()
            for r in range(-2, k + n + 2):
                expected = sum(
                    c for (l, m), c in zip(elements, bottom_row) if l + m - 1 == r
                )
                assert whitney_first(k, n, r) == expected, (k, n, r)
            total = sum(whitney_first(k, n, r) for r in range(k + n))
            assert total == (1 if grid_size(k, n) == 1 else 0)


def test_ballot_form_vs_bruteforce():
    for n in range(1, 11):
        for k in range(n + 1):
            assert count_grid_max_chains(k, n) == len(grid_max_paths(k, n))


def test_diagonal_is_catalan():
    assert [count_grid_max_chains(n, n) for n in range(1, 6)] == [1, 2, 5, 14, 42]
    for n in range(1, 9):
        assert count_grid_max_chains(n, n) == math.comb(2 * n, n) // (n + 1)


def test_frozen_counts():
    assert count_grid_max_chains(2, 2) == 2
    assert count_grid_max_chains(3, 3) == 5
    assert count_grid_max_chains(2, 4) == 9
    assert count_grid_max_chains(0, 7) == 1  # a single monotone climb in m


def test_paths_have_k_plus_n_points():
    for k, n in ((1, 2), (2, 3), (3, 4), (0, 5)):
        for path in grid_max_paths(k, n):
            assert len(path) == k + n
            assert path[0] == (0, 1)
            assert path[-1] == (k, n)
            for (l1, m1), (l2, m2) in zip(path, path[1:]):
                assert (l2 - l1, m2 - m1) in ((1, 0), (0, 1))
                assert l2 <= m2  # dominated throughout


def test_paths_distinct():
    paths = grid_max_paths(3, 3)
    assert len(paths) == len(set(paths)) == 5

