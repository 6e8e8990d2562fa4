"""The layer grid: layers <Phi_l -> Phi_m> of a subposet, ordered pointwise.

P(k, n) holds the pairs (l, m) with 0 <= l <= k and l < m <= n under the
componentwise order.  Its rank function is r(l, m) = l + m - 1.  Both
kinds of Whitney numbers and the maximal-chain count (the classic ballot
problem) have closed forms; the element lists, the inverted zeta matrix
and the path walker they are checked against live in tests/oracles.py.
"""
from __future__ import annotations

import math


def _check_kn(k: int, n: int) -> None:
    if k < 0 or n < 0:
        raise ValueError(f"k and n must be >= 0, got k={k}, n={n}")
    if k > n:
        raise ValueError(f"need k <= n, got k={k} > n={n}")


def grid_size(k: int, n: int) -> int:
    """|P(k, n)| = (n - k)(k + 1) + k(k + 1)/2."""
    _check_kn(k, n)
    return (n - k) * (k + 1) + k * (k + 1) // 2


def whitney_second(k: int, n: int, r: int) -> int:
    """Number of elements of rank r (the Whitney numbers of the second kind).

    The rank-r elements are (l, r + 1 - l); l < m and m <= n confine l to
    max(0, r + 1 - n) <= l <= min(k, r // 2).
    """
    _check_kn(k, n)
    return max(0, min(k, r // 2) - max(0, r + 1 - n) + 1)


def whitney_first(k: int, n: int, r: int) -> int:
    """Sum of mu(bottom, e) over the rank-r elements (first kind).

    The bottom (0, 1) of the lattice P(k, n) has the single cover (0, 2),
    and mu(bottom, e) vanishes unless e is a join of atoms (Rota's crosscut
    theorem): 1 at rank 0, -1 at rank 1 when n >= 2, and 0 otherwise.
    An empty grid has no bottom, so every value is 0.
    """
    _check_kn(k, n)
    if r == 0 and n >= 1:
        return 1
    if r == 1 and n >= 2:
        return -1
    return 0


def bell_like(k: int, n: int) -> int:
    """Sum of the rank counts over all ranks; equals the grid size."""
    return grid_size(k, n)


# --- maximal chains as dominated lattice paths ------------------------------

def count_grid_max_chains(k: int, n: int) -> int:
    """Monotone lattice paths (0,1) -> (k,n) that never leave l <= m.

    Equivalently the 0-dominated binary strings with n zeros and k ones;
    the diagonal k = n gives the Catalan numbers.  Evaluated through the
    ballot closed form (n+1-k)/(n+1) * C(n+k, k); the division is checked
    exact.
    """
    _check_kn(k, n)
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    num = (n + 1 - k) * math.comb(n + k, k)
    q, r = divmod(num, n + 1)
    if r:  # ballot numbers are integers; a remainder means a broken formula
        raise AssertionError(f"ballot form not integral at k={k}, n={n}")
    return q
