"""Exact F-factorials, falling F-factorials and F-nomial coefficients.

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
    num = math.prod(seq.value(n - i) for i in range(j))
    den = math.prod(seq.value(i) for i in range(1, j + 1))
    q, r = divmod(num, den)
    if r:
        raise NonIntegralError(n, k, Fraction(num, den))
    return q


class FNomialTable:
    """F-factorials of one sequence, primed up to max_n.

    The table is immutable after construction, so lookups are safe to
    share across threads and behave as if all values were precomputed.
    """

    def __init__(self, seq: "AdmissibleSequence", max_n: int):
        if max_n < 0:
            raise ValueError(f"max_n must be >= 0, got {max_n}")
        self.seq = seq
        self.max_n = max_n
        values = [seq.value(n) for n in range(max_n + 1)]
        facts = [1] * (max_n + 1)
        for n in range(1, max_n + 1):
            facts[n] = facts[n - 1] * values[n]
        self._values = tuple(values)
        self._factorials = tuple(facts)

    def _check(self, n: int, what: str = "n") -> None:
        if not 0 <= n <= self.max_n:
            raise ValueError(f"{what} = {n} outside the primed range 0..{self.max_n}")

    def value(self, n: int) -> int:
        self._check(n)
        return self._values[n]

    def f_factorial(self, n: int) -> int:
        """n_F! = F_1 F_2 ... F_n, with 0_F! = 1."""
        self._check(n)
        return self._factorials[n]

    def falling(self, n: int, k: int) -> int:
        """Falling factorial F_n F_{n-1} ... F_{n-k+1}, computed as a product.

        No division is involved, so the result is exact for any sequence.
        falling(n, 0) = 1 by the empty product.
        """
        self._check(n)
        if k < 0 or k > n:
            raise ValueError(f"falling needs 0 <= k <= n, got k={k}, n={n}")
        out = 1
        for i in range(k):
            out *= self._values[n - i]
        return out

    def fnomial(self, n: int, k: int) -> int:
        """(n k)_F within the primed range; see fnomial_coefficient."""
        self._check(n)
        return fnomial_coefficient(self.seq, n, k)
