"""Stirling set numbers, Bell numbers, and the Dobinski series check.

The exact side is closed-form sums, each walked with O(1) big integers
and no table: S(n, k) by its inclusion-exclusion sum over k + 1 terms,
and B_n by n! B_n = sum_k C(n, k) D_(n-k) k^n over the derangement
numbers D.  The approximate side evaluates e^-1 * sum k^n / k! with
extended-precision decimals and an a-posteriori truncation bound, so a
1e-9 relative tolerance is meaningful through n = 20.
"""
from __future__ import annotations

import math
from decimal import Decimal, localcontext

MAX_DOBINSKI_N = 20
_MAX_TERMS = 4000


def stirling2(n: int, k: int) -> int:
    """S(n, k) = (1/k!) sum_j (-1)^(k-j) C(k, j) j^n, over k + 1 terms.

    C(k, j) is carried from term to term, so no row is kept.
    """
    if n < 0 or k < 0:
        raise ValueError(f"need n, k >= 0, got n={n}, k={k}")
    if k > n:
        return 0
    total, c = 0, 1  # c = C(k, j)
    for j in range(k + 1):
        term = c * pow(j, n)
        total += -term if (k - j) % 2 else term
        c = c * (k - j) // (j + 1)
    return total // math.factorial(k)


def bell_exact(n: int) -> int:
    """B_n from n! B_n = sum_(k=1..n) C(n, k) D_(n-k) k^n, one exact division.

    Summing k! S(n, k) = sum_j (-1)^(k-j) C(k, j) j^n over k collects
    each j^n with the alternating sum that makes the derangement number
    D_m = m D_(m-1) + (-1)^m.  The walk runs k down from n, carrying
    C(n, k) and D_(n-k), so memory is a few big integers.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n == 0:
        return 1
    total, c, d = 0, 1, 1  # c = C(n, k), d = D_(n-k)
    for k in range(n, 0, -1):
        total += c * d * pow(k, n)
        j = n - k + 1
        d = j * d + (-1 if j % 2 else 1)
        c = c * k // j
    return total // math.factorial(n)


def bell_dobinski(n: int, rel_tol: float = 1e-9) -> float:
    """B_n through the Dobinski series, to a requested relative tolerance.

    Terms k^n / k! are accumulated in 60-digit decimals.  Summation
    stops once a geometric bound on the whole tail drops below
    rel_tol * partial_sum / 4; the e^-1 factor rescales the sum and its
    relative error alike, so the bound carries over to the result.
    """
    if not 0 <= n <= MAX_DOBINSKI_N:
        raise ValueError(f"need 0 <= n <= {MAX_DOBINSKI_N}, got {n}")
    if not rel_tol > 0:  # NaN too
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
    with localcontext() as ctx:
        ctx.prec = 60
        tol = Decimal(str(rel_tol))
        total = Decimal(1) if n == 0 else Decimal(0)  # the k = 0 term
        factorial = Decimal(1)
        k = 0
        while True:
            k += 1
            if k > _MAX_TERMS:
                raise ValueError(
                    f"tolerance {rel_tol} not reached within {_MAX_TERMS} terms"
                )
            factorial *= k
            term = Decimal(k) ** n / factorial
            total += term
            # Past k >= 2n + 2 the term ratio is below 1/2, so the tail
            # is at most twice the next term.
            if k >= 2 * n + 2:
                next_term = Decimal(k + 1) ** n / (factorial * (k + 1))
                if 2 * next_term < tol * total / 4:
                    break
        return float(total * Decimal(-1).exp())
