"""Whitney numbers along the layer diagonal and their Bell-like sums.

The rank-k count of the diagonal structure on n is the F-nomial
coefficient (n-k choose k)_F, nonzero while 2k <= n.  Summing over k
gives a Bell-like number B_n(F); for F = nat these sums are the shallow
diagonals of the Pascal triangle and reproduce the Fibonacci numbers.

Row n of the triangle follows from row n-1 by the F-nomial row
recurrence (m k)_F = (m k-1)_F * F_{m-k+1} / F_k with m = n - k, so a
whole triangle costs one exact division per entry and no factorials.
"""
from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterator

from .fnomial import NonIntegralError, fnomial_coefficient

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from .sequences import AdmissibleSequence


def whitney(n: int, k: int, seq: "AdmissibleSequence") -> int:
    """S(k, n-k, F) = (n-k choose k)_F while 2k <= n, else 0.

    The k = n/2 layer of even n is a single element and is counted.
    The coefficient is fnomial_coefficient(seq, n - k, k), exact or
    NonIntegralError.
    """
    if n < 0 or k < 0:
        raise ValueError(f"need n >= 0 and k >= 0, got n={n}, k={k}")
    if 2 * k > n:
        return 0
    return fnomial_coefficient(seq, n - k, k)


def whitney_rows(seq: "AdmissibleSequence", n_max: int) -> Iterator[list[int]]:
    """Yield [whitney(n, k, seq) for 0 <= 2k <= n] for n = 0..n_max.

    Entry k of row n is entry k-1 of row n-1 times F_{n-2k+1} / F_k.
    Rows go n ascending and entries k ascending, so the first
    coefficient that does not divide raises NonIntegralError at the
    same (n-k, k) and with the same fraction as evaluating whitney in
    that order would.
    """
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    f = seq.values(n_max)
    row = [1]
    yield row
    for n in range(1, n_max + 1):
        prev, row = row, [1]
        for k in range(1, n // 2 + 1):
            num = prev[k - 1] * f[n - 2 * k + 1]
            c, r = divmod(num, f[k])
            if r:
                raise NonIntegralError(n - k, k, Fraction(num, f[k]))
            row.append(c)
        yield row


def bell_sequence(seq: "AdmissibleSequence", n_max: int) -> list[int]:
    """[B_0(F), ..., B_n_max(F)]: the row sums of whitney_rows."""
    return [sum(row) for row in whitney_rows(seq, n_max)]

