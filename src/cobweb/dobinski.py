"""Stirling set numbers, Bell numbers, and the Dobinski series check.

The exact side is the classical triangle recurrence, run in place on a
single row, so B_n costs one row of memory rather than the whole
triangle; the approximate side evaluates e^-1 * sum k^n / k! with
extended-precision decimals and an a-posteriori truncation bound, so a
1e-9 relative tolerance is meaningful through n = 20.
"""
from __future__ import annotations

from decimal import Decimal, localcontext

MAX_DOBINSKI_N = 20
_MAX_TERMS = 4000


def _stirling_row(n: int) -> list[int]:
    """[S(n, 0), ..., S(n, n)]: the triangle recurrence run in place on one row.

    Step m rewrites the row from the right, so row[k - 1] still holds
    S(m-1, k-1) when S(m, k) = k S(m-1, k) + S(m-1, k-1) is formed.
    """
    row = [1]
    for m in range(1, n + 1):
        row.append(0)
        for k in range(m, 0, -1):
            row[k] = k * row[k] + row[k - 1]
        row[0] = 0
    return row


def stirling2(n: int, k: int) -> int:
    if n < 0 or k < 0:
        raise ValueError(f"need n, k >= 0, got n={n}, k={k}")
    return _stirling_row(n)[k] if k <= n else 0


def bell_exact(n: int) -> int:
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return sum(_stirling_row(n))


def bell_dobinski(n: int, rel_tol: float = 1e-9) -> float:
    """B_n through the Dobinski series, to a requested relative tolerance.

    Terms k^n / k! are accumulated in 60-digit decimals.  Summation
    stops once a geometric bound on the whole tail drops below
    rel_tol * partial_sum / 4; the e^-1 factor rescales the sum and its
    relative error alike, so the bound carries over to the result.
    """
    if not 0 <= n <= MAX_DOBINSKI_N:
        raise ValueError(f"need 0 <= n <= {MAX_DOBINSKI_N}, got {n}")
    if rel_tol <= 0:
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
