"""Finite truncations of cobweb posets and their incidence algebra.

A cobweb poset over a sequence F has one root vertex at level 0 and F_p
vertices at each level p >= 1.  Consecutive levels are completely
bipartite: every vertex of level p is covered by every vertex of level
p + 1, and there are no other covers.  Vertices are written (j, p) with
1 <= j <= F_p; two vertices are comparable iff their levels differ or
they coincide.

Matrices use the level-major vertex order: levels ascending, index j
ascending within a level.  All matrix arithmetic is exact big-integer.
The poset is an ordinal sum of antichains, so a zeta or Mobius entry
depends only on the two vertices' levels and on whether they coincide:
a matrix is kept as one row template per level, and its rows' text is
rendered from the templates a row at a time (row_texts).  Level sizes
are read lazily (CobwebPoset.sizes), only as far as an answer needs them.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from .sequences import AdmissibleSequence

Vertex = tuple[int, int]  # (j, p): index j within level p

DEFAULT_ENUMERATION_BUDGET = 100_000
# Zeta and Mobius blocks of more entries than this are refused, not built.
MATRIX_ENTRY_BUDGET = 20_000_000


class BudgetError(RuntimeError):
    """A request whose size exceeds its budget, refused before it is built.

    ``predicted`` is the size in ``unit`` (chains, matrix entries,
    universe chains, candidate blocks) or, when ``at_least``, a lower
    bound on it that already exceeds the budget: levels were left unread.
    """

    def __init__(self, unit: str, predicted: int, budget: int, at_least: bool = False):
        self.unit = unit
        self.predicted = predicted
        self.budget = budget
        self.at_least = at_least
        size = f"at least {predicted}" if at_least else predicted
        super().__init__(f"{size} {unit} exceed the budget of {budget}")


@dataclass(frozen=True)
class IncidenceMatrix:
    """A level-major block of a cobweb incidence matrix, kept level by level.

    The rows of one level are one string but for their diagonal 1: zeros
    up to the level's end, then runs of one value each over the higher
    levels.  ``levels`` holds, per level in the block, the span [start,
    end) of its rows and the (value, count) runs to their right.
    row_texts renders every row from that by string repetition, and
    ``rows`` spells the entries out only when it is first read.
    """

    order: tuple[Vertex, ...]
    levels: tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]

    @functools.cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The entries, one tuple per row."""
        rows = []
        for start, end, runs in self.levels:
            tail = []
            for value, count in runs:
                tail += [value] * count
            for i in range(start, end):
                row = [0] * end + tail
                row[i] = 1
                rows.append(tuple(row))
        return tuple(rows)

    def row_texts(self, sep: str) -> Iterator[str]:
        """Each row's entries in decimal, joined by sep, a row at a time."""
        zero, zero_after = f"0{sep}", f"{sep}0"
        for start, end, runs in self.levels:
            tail = "".join(f"{sep}{value}" * count for value, count in runs)
            for i in range(start, end):
                yield "".join((zero * i, "1", zero_after * (end - i - 1), tail))


class CobwebPoset:
    """A cobweb poset truncated at max_level (the prime subposet P_m).

    Level 0 always holds the single root (1, 0); level p >= 1 holds
    F_p vertices (1, p) .. (F_p, p).
    """

    def __init__(self, seq: "AdmissibleSequence", max_level: int):
        if max_level < 0:
            raise ValueError(f"max_level must be >= 0, got {max_level}")
        if seq.length is not None:
            seq.values(max_level)  # a list that ends before max_level fails here, not at first use
        self.seq = seq
        self.max_level = max_level

    @property
    def level_sizes(self) -> tuple[int, ...]:
        """1, F_1, ..., F_max_level."""
        return tuple(self.sizes(0, self.max_level))

    def sizes(self, lo: int, hi: int) -> Iterator[int]:
        """The sizes of levels lo..hi, read lazily from one run; F_0 = 0 is the root's 1."""
        return (a or 1 for a in self.seq.run(lo, hi))

    def span_sizes(self, lo: int, hi: int, budget: int, unit: str) -> tuple[int, ...]:
        """The sizes of levels lo..hi, if their product fits budget.

        The product counts the saturated chains over the span.  Sizes are
        read once and multiplied as they are read; the first running
        product past budget is refused (BudgetError in unit) with no
        further level read, so a refusal costs no more than the budget it
        checks: the product of 3000 Fibonacci numbers has 940,000 digits.
        """
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        sizes, product = [], 1
        for a in self.sizes(lo, hi):
            sizes.append(a)
            product *= a
            if product > budget:
                raise BudgetError(unit, product, budget, at_least=len(sizes) <= hi - lo)
        return tuple(sizes)

    @property
    def vertex_count(self) -> int:
        return sum(self.level_sizes)

    # --- chain counting ------------------------------------------------------

    def count_max_chains(self, from_level: int, to_level: int) -> int:
        """Saturated chains meeting every level of [from_level, to_level] once.

        Complete bipartite covers make this the product of the level sizes.
        """
        self._check_span(from_level, to_level)
        return math.prod(self.sizes(from_level, to_level))

    def _check_span(self, from_level: int, to_level: int) -> None:
        for p in (from_level, to_level):
            if not 0 <= p <= self.max_level:
                raise ValueError(f"level {p} outside 0..{self.max_level}")
        if from_level > to_level:
            raise ValueError(
                f"need from_level <= to_level, got {from_level} > {to_level}"
            )

    def enumerate_max_chains(
        self, from_level: int, to_level: int, budget: int | None = None
    ) -> Iterator[tuple[Vertex, ...]]:
        """Each saturated chain over the span exactly once, as an iterator.

        The span and the budget are checked by this call, before any chain
        is made.  Chains come out in lexicographic order of vertex indices:
        they are the product of the level vertex sets.
        """
        if budget is None:
            budget = DEFAULT_ENUMERATION_BUDGET
        self._check_span(from_level, to_level)
        sizes = self.span_sizes(from_level, to_level, budget, "chains")
        levels = enumerate(sizes, start=from_level)
        vertices = ([(j, p) for j in range(1, a + 1)] for p, a in levels)
        return itertools.product(*vertices)

    def count_chains_of_length(self, t: int) -> int:
        """Strictly increasing chains with exactly t elements.

        A chain picks t distinct levels and one vertex on each, so the
        count is the elementary symmetric polynomial e_t of the level
        sizes; t = 1 counts the vertices, and none has more elements than
        there are levels.
        """
        if t < 1:
            raise ValueError(f"chain length must be >= 1, got {t}")
        if t > self.max_level + 1:
            return 0
        e = [1] + [0] * t  # e[i] = e_i of the level sizes seen so far
        for size in self.level_sizes:
            for i in range(t, 0, -1):
                e[i] += e[i - 1] * size
        return e[t]

    # --- incidence algebra ---------------------------------------------------

    def _level_matrix(
        self, above: Callable[[list[int], int], Iterable[tuple[int, int]]], size: int | None
    ) -> IncidenceMatrix:
        """The leading size x size block (all of it when size is None) of the
        level-major matrix with 1 on the diagonal, 0 within and below a
        vertex's level, and above the level of row p the runs that
        above(sizes, p) yields for the sizes of levels 0 .. top, the highest
        level the block meets: (value, n) puts value in every column of the
        next n levels, and the runs cover levels p + 1 .. top in order.

        Level sizes are read only until they cover the block, or for the
        whole matrix until they pass the entry budget; the block is kept by
        level, and only when its size * size entries fit MATRIX_ENTRY_BUDGET.
        """
        wanted = math.isqrt(MATRIX_ENTRY_BUDGET) + 1 if size is None else size
        unread = self.sizes(0, self.max_level)
        sizes, total = [], 0
        for a in unread:
            sizes.append(a)
            total += a
            if total >= wanted:
                break
        if size is None:
            size = total
            if len(sizes) <= self.max_level:  # levels left unread: size is a lower bound
                raise BudgetError("matrix entries", size * size, MATRIX_ENTRY_BUDGET, at_least=True)
        elif not 0 <= size <= total:
            raise ValueError(f"size must be between 0 and {total + sum(unread)}, got {size}")
        if size * size > MATRIX_ENTRY_BUDGET:
            raise BudgetError("matrix entries", size * size, MATRIX_ENTRY_BUDGET)
        starts = itertools.accumulate(sizes, initial=0)
        bounds = [s for s in starts if s < size] + [size]  # each level's rows in the block
        sizes = sizes[:len(bounds) - 1]  # levels 0 .. top
        levels = []
        for p in range(len(sizes)):
            runs, q = [], p + 1
            for value, n in above(sizes, p):
                runs.append((value, bounds[q + n] - bounds[q]))
                q += n
            levels.append((bounds[p], bounds[p + 1], tuple(runs)))
        vertices = ((j, p) for p, a in enumerate(sizes) for j in range(1, a + 1))
        return IncidenceMatrix(tuple(itertools.islice(vertices, size)), tuple(levels))

    def zeta_matrix(self, size: int | None = None) -> IncidenceMatrix:
        """The zeta matrix: entry (u, v) is 1 iff u <= v, level-major order.

        Unit upper-triangular because the order is a linear extension.
        ``size`` asks for the leading size x size block only.
        """
        return self._level_matrix(lambda sizes, p: [(1, len(sizes) - 1 - p)], size)

    def mobius_matrix(self, size: int | None = None) -> IncidenceMatrix:
        """The Mobius matrix (the inverse of zeta) in closed form.

        The levels are antichains stacked as an ordinal sum, so for u on
        level p and v on level q > p, mu(u, v) = (-1)^(q-p) prod_{p<i<q} (F_i - 1):
        one product per level p, extended a factor 1 - F_q at each q, and
        zero from the first level of one vertex on.
        ``size`` asks for the leading size x size block only.
        """

        def above(sizes: list[int], p: int) -> Iterator[tuple[int, int]]:
            mu, top = -1, len(sizes) - 1
            for q in range(p + 1, top + 1):
                if not mu:
                    yield 0, top + 1 - q
                    return
                yield mu, 1
                mu *= 1 - sizes[q]

        return self._level_matrix(above, size)
