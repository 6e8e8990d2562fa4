"""The layer grid: layers <Phi_l -> Phi_m> of a subposet, ordered pointwise.

P(k, n) holds the pairs (l, m) with 0 <= l <= k and l < m <= n under the
componentwise order.  Its rank function is r(l, m) = l + m - 1.  Both
kinds of Whitney numbers have closed forms, which the test suite checks
against element counts and against the inverted zeta matrix of the grid;
maximal-chain counting is the classic ballot problem.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

Element = tuple[int, int]  # (l, m)


def _check_kn(k: int, n: int) -> None:
    if k < 0 or n < 0:
        raise ValueError(f"k and n must be >= 0, got k={k}, n={n}")
    if k > n:
        raise ValueError(f"need k <= n, got k={k} > n={n}")


def grid_size(k: int, n: int) -> int:
    """|P(k, n)| = (n - k)(k + 1) + k(k + 1)/2."""
    _check_kn(k, n)
    return (n - k) * (k + 1) + k * (k + 1) // 2


def grid_elements(k: int, n: int) -> tuple[Element, ...]:
    """Elements (l, m), 0 <= l <= k, l < m <= n, in rank-major order."""
    _check_kn(k, n)
    out = [(l, m) for l in range(k + 1) for m in range(l + 1, n + 1)]
    out.sort(key=lambda e: (e[0] + e[1], e[0]))
    return tuple(out)


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
    ballot closed form (n+1-k)/(n+1) * C(n+k, k), which the brute-force
    enumerator confirms; the division is checked exact.
    """
    _check_kn(k, n)
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    num = (n + 1 - k) * math.comb(n + k, k)
    q, r = divmod(num, n + 1)
    if r:  # ballot numbers are integers; a remainder means a broken formula
        raise AssertionError(f"ballot form not integral at k={k}, n={n}")
    return q


def iter_grid_max_paths(k: int, n: int) -> Iterator[tuple[Element, ...]]:
    """Yield every dominated path from (0,1) to (k,n) as a point tuple.

    Steps move one unit in l or in m; every visited point keeps l <= m.
    This is the brute-force oracle behind count_grid_max_chains.
    """
    _check_kn(k, n)
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")

    def walk(l: int, m: int, trail: list[Element]) -> Iterator[tuple[Element, ...]]:
        if l == k and m == n:
            yield tuple(trail)
            return
        if l + 1 <= k and l + 1 <= m:
            trail.append((l + 1, m))
            yield from walk(l + 1, m, trail)
            trail.pop()
        if m + 1 <= n:
            trail.append((l, m + 1))
            yield from walk(l, m + 1, trail)
            trail.pop()

    yield from walk(0, 1, [(0, 1)])


def count_grid_max_chains_bruteforce(k: int, n: int) -> int:
    """Count of iter_grid_max_paths, one path at a time."""
    return sum(1 for _ in iter_grid_max_paths(k, n))


@lru_cache(maxsize=None)
def catalan(n: int) -> int:
    """C(2n, n) / (n + 1)."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return math.comb(2 * n, n) // (n + 1)
