"""Exact F-nomial coefficients.

Everything here is big-integer arithmetic.  Quotients are formed with an
explicit divisibility check; a coefficient that fails to divide is
reported as a reduced fraction, never rounded.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from .sequences import AdmissibleSequence


class NonIntegralError(ArithmeticError):
    """An F-nomial quotient that is not an integer.

    Carries the coefficient position and the exact reduced fraction.
    """

    def __init__(self, n: int, k: int, fraction: Fraction):
        self.n = n
        self.k = k
        self.fraction = fraction
        super().__init__(f"({n} {k})_F = {fraction} is not an integer")


def fnomial_coefficient(seq: "AdmissibleSequence", n: int, k: int) -> int:
    """(n k)_F = F_n ... F_{n-j+1} / (F_1 ... F_j), j = min(k, n-k).

    Exact, or NonIntegralError carrying the reduced fraction, which is
    n_F! / (k_F! (n-k)_F!).  Only F_n and the 2j factors are read, so a
    sequence that ends before n is an error even for k = 0 or k = n.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if k < 0 or k > n:
        raise ValueError(f"fnomial needs 0 <= k <= n, got k={k}, n={n}")
    seq.value(n)  # a sequence that ends before n fails here, even when j = 0
    j = min(k, n - k)
    num = math.prod(seq.run(n - j + 1, n))
    den = math.prod(seq.run(1, j))
    q, r = divmod(num, den)
    if r:
        raise NonIntegralError(n, k, Fraction(num, den))
    return q

