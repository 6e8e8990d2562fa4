"""Admissible sequences: the integer sequences F that index cobweb posets.

An admissible sequence has F_0 = 0 and F_n >= 1 for every n >= 1.  Level p
of the associated poset holds F_p vertices, so a zero anywhere past the
root would tear the poset apart.  Every run of values is read lazily by
AdmissibleSequence.run, which forms each Fibonacci number by one addition.
"""
from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator


class SequenceSpecError(ValueError):
    """A sequence spec string that does not match the grammar."""


class AdmissibleSequence:
    """A sequence F with F_0 = 0 and F_n >= 1 for all n >= 1.

    ``value(n)`` is a pure function of ``n``, evaluated on every call and
    kept nowhere; a caller that needs consecutive values reads them from
    ``run``, one at a time, or from ``values`` as one list.  Explicit-list
    sequences carry a finite ``length`` and reject indices beyond it.
    """

    def __init__(
        self,
        name: str,
        fn: Callable[[int], int],
        length: int | None = None,
        step: Callable[[int, int], int] | None = None,
    ):
        self.name = name
        self.length = length
        self._fn = fn
        self._step = step  # F_n from (F_(n-2), F_(n-1)), for runs of values

    def value(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"sequence index must be >= 0, got {n}")
        if self.length is not None and n > self.length:
            raise ValueError(
                f"sequence {self.name!r} defines values for n <= {self.length}, got {n}"
            )
        return self._checked(n, self._fn(n)) if n else 0

    def run(self, lo: int, hi: int) -> Iterator[int]:
        """F_lo, ..., F_hi, each formed when reached: with a ``step``, every
        value past the first two comes from the two before it.  A list that
        ends before hi fails at its first missing index."""
        a = b = 0  # F_(n-2), F_(n-1)
        for n in range(lo, hi + 1):
            if self._step is None or n < lo + 2:
                a, b = b, self.value(n)
            else:
                a, b = b, self._checked(n, self._step(a, b))
            yield b

    def values(self, upto: int) -> list[int]:
        """[F_0, F_1, ..., F_upto]."""
        return list(self.run(0, upto))

    def _checked(self, n: int, v: int) -> int:
        if v < 1:
            raise ValueError(
                f"sequence {self.name!r} has F_{n} = {v}; need F_n >= 1 for n >= 1"
            )
        return v

    def __repr__(self) -> str:
        return f"AdmissibleSequence({self.name!r})"


def _fib(n: int) -> int:
    """F_n by fast doubling: F_2i = F_i (2 F_(i+1) - F_i), F_(2i+1) = F_i^2 + F_(i+1)^2."""
    a, b = 0, 1  # F_i, F_(i+1) for i the bits of n read so far
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a


_BUILTINS: dict[str, Callable[[int], int]] = {
    "nat": lambda n: n,
    "fib": _fib,
    # 1, 2, 4, 6, 8, ...
    "even1": lambda n: 1 if n == 1 else 2 * (n - 1),
    # 1, 3, 5, 7, ...
    "odd": lambda n: 2 * n - 1,
    # 1, 3, 6, 9, ...
    "div3": lambda n: 1 if n == 1 else 3 * (n - 1),
}

# Recurrences for runs of consecutive values (see AdmissibleSequence.run).
_STEPS: dict[str, Callable[[int, int], int]] = {"fib": operator.add}

_GRAMMAR = "nat | fib | const:<c> | gauss:<q> | even1 | odd | div3 | list:[v1,v2,...]"


def parse_sequence(spec: str) -> AdmissibleSequence:
    """Parse a sequence spec string into an AdmissibleSequence.

    The grammar is case-sensitive: nat, fib, even1, odd, div3,
    const:<c> (c >= 1), gauss:<q> (q >= 1, F_n = 1 + q + ... + q^(n-1))
    and list:[v1,v2,...] (whitespace inside the brackets is ignored).
    """
    if not isinstance(spec, str):
        raise SequenceSpecError(f"sequence spec must be a string, got {type(spec).__name__}")
    spec = spec.strip()
    if spec in _BUILTINS:
        return AdmissibleSequence(spec, _BUILTINS[spec], step=_STEPS.get(spec))
    if spec.startswith("const:"):
        c = _parse_int(spec[len("const:"):], spec)
        if c < 1:
            raise SequenceSpecError(f"const:{c}: constant must be >= 1")
        return AdmissibleSequence(spec, lambda n: c)
    if spec.startswith("gauss:"):
        q = _parse_int(spec[len("gauss:"):], spec)
        if q < 1:
            raise SequenceSpecError(f"gauss:{q}: base must be >= 1")
        if q == 1:
            return AdmissibleSequence(spec, lambda n: n)
        return AdmissibleSequence(spec, lambda n: (q ** n - 1) // (q - 1))
    if spec.startswith("list:"):
        body = spec[len("list:"):]
        m = re.fullmatch(r"\[([^\[\]]*)\]", body, flags=re.S)
        if m is None:
            raise SequenceSpecError(f"bad list spec {spec!r}; expected {_GRAMMAR}")
        inner = re.sub(r"\s+", "", m.group(1))
        if inner == "":
            values: tuple[int, ...] = ()
        else:
            parts = inner.split(",")
            values = tuple(_parse_int(p, spec) for p in parts)
        for i, v in enumerate(values, start=1):
            if v < 1:
                raise SequenceSpecError(f"list value F_{i} = {v}; need F_n >= 1 for n >= 1")
        return AdmissibleSequence(spec, lambda n: values[n - 1], length=len(values))
    raise SequenceSpecError(f"unknown sequence spec {spec!r}; expected {_GRAMMAR}")


def _parse_int(token: str, spec: str) -> int:
    token = token.strip()
    if not re.fullmatch(r"-?\d+", token):
        raise SequenceSpecError(f"bad integer {token!r} in sequence spec {spec!r}")
    return int(token)


# --- cobweb-admissibility -------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityVerdict:
    """Outcome of a bounded integrality scan of the F-nomial triangle."""

    requested_bound: int
    admissible_up_to: int
    first_failure: tuple[int, int] | None  # (n, k)
    failure_quotient: Fraction | None

    @property
    def admissible(self) -> bool:
        return self.first_failure is None


def is_cobweb_admissible(seq: AdmissibleSequence, bound: int) -> AdmissibilityVerdict:
    """Check that (n k)_F is an integer for all 0 <= k <= n <= bound.

    Scans n ascending, k ascending within n, and stops at the first
    non-integral coefficient; the verdict carries the reduced quotient.
    Each row is walked with (n k)_F = (n k-1)_F * F_{n-k+1} / F_k, so the
    first step that leaves a remainder is the first non-integral
    coefficient.  The walk stops at k = n // 2: (n k)_F = (n n-k)_F, so a
    non-integral k > n/2 has a non-integral mirror n - k < k, met first.
    A pass is only a statement about the scanned range.
    """
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    f = seq.values(bound)  # a list that ends before bound is an error, not a verdict
    for n in range(1, bound + 1):
        c = 1
        for k in range(1, n // 2 + 1):
            num = c * f[n - k + 1]
            c, r = divmod(num, f[k])
            if r:
                return AdmissibilityVerdict(bound, n - 1, (n, k), Fraction(num, f[k]))
    return AdmissibilityVerdict(bound, bound, None, None)


# --- GCD-morphism (experimental checker) ----------------------------------

@dataclass(frozen=True)
class GcdMorphismVerdict:
    """Outcome of a bounded GCD(F_n, F_m) = F_GCD(n, m) scan."""

    requested_bound: int
    morphic_up_to: int
    first_failure: tuple[int, int] | None  # (n, m)
    gcd_value: int | None
    expected: int | None

    @property
    def gcd_morphic(self) -> bool:
        return self.first_failure is None


def gcd_morphism_failures(seq: AdmissibleSequence, bound: int) -> Iterator[tuple[int, int, int, int]]:
    """Yield every (n, m, gcd, expected) with GCD(F_n, F_m) != F_GCD(n,m).

    Pairs are scanned with n ascending, m ascending, 1 <= m <= n <= bound.
    """
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    f = [0]
    for n, fn in enumerate(seq.run(1, bound), start=1):  # a short list fails at its end
        f.append(fn)
        for m in range(1, n + 1):
            got = math.gcd(fn, f[m])
            expected = f[math.gcd(n, m)]
            if got != expected:
                yield n, m, got, expected


def is_gcd_morphic(seq: AdmissibleSequence, bound: int) -> GcdMorphismVerdict:
    """Bounded check of the GCD-morphism property, first failure reported."""
    for n, m, got, expected in gcd_morphism_failures(seq, bound):
        return GcdMorphismVerdict(bound, n - 1, (n, m), got, expected)
    return GcdMorphismVerdict(bound, bound, None, None, None)
