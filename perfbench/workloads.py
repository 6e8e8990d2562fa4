"""Seeded query lists for the three workloads, each query with its oracle.

A seed varies parameters only inside narrow bands and shuffles the
order, so every seed does comparable work.  A query is an argv for
``cobweb.cli.main``, or ``["lib.count_chains_of_length", spec, levels,
t]`` for the library call the CLI has no subcommand for.
"""
from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable

import oracle


@dataclass
class Query:
    argv: list[str]
    rc: int = 0
    text: str | None = None  # the exact expected stdout
    check: Callable[[str], str | None] | None = None  # for outputs with freedom in them

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _fmt(rng: random.Random) -> str:
    return rng.choice(("text", "json"))


def _fmt_args(fmt: str) -> list[str]:
    return ["--format", "json"] if fmt == "json" else []


def fnomial(spec, n, k, fmt="text") -> Query:
    return Query(["fnomial", spec, str(n), str(k), *_fmt_args(fmt)],
                 text=oracle.fnomial_out(spec, n, k, fmt))


def admissible(spec, bound, fmt="text") -> Query:
    return Query(["admissible", spec, "--max", str(bound), *_fmt_args(fmt)],
                 text=oracle.admissible_out(spec, bound, fmt))


def diagonal(spec, n, fmt="text", triangle=False) -> Query:
    return Query(["diagonal", spec, "--n", str(n), *(["--triangle"] if triangle else []), *_fmt_args(fmt)],
                 text=oracle.diagonal_out(spec, n, fmt, triangle))


def matrix(which, spec, levels, size=None, fmt="text") -> Query:
    size_args = ["--size", str(size)] if size is not None else []
    return Query([which, spec, "--levels", str(levels), *size_args, *_fmt_args(fmt)],
                 text=oracle.matrix_out(which, spec, levels, size, fmt))


def chains(spec, lo, hi, enumerate_=False, fmt="text") -> Query:
    return Query(["chains", spec, "--from", str(lo), "--to", str(hi),
                  *(["--enumerate"] if enumerate_ else []), *_fmt_args(fmt)],
                 text=oracle.chains_out(spec, lo, hi, enumerate_, fmt))


def grid(k, n, mode="size", fmt="text") -> Query:
    return Query(["grid", str(k), str(n), *([f"--{mode}"] if mode != "size" else []), *_fmt_args(fmt)],
                 text=oracle.grid_out(k, n, mode, fmt))


def bell_classic(n, tol=None, fmt="text") -> Query:
    argv = ["bell-classic", str(n), *_fmt_args(fmt)]
    if tol is None:
        return Query(argv, text=oracle.bell_out(n, fmt))
    return Query(argv + ["--dobinski", repr(tol)],
                 check=functools.partial(oracle.check_dobinski, n=n, tol=tol, fmt=fmt))


def tile(spec, k, n, count=False, witness=False, fmt="text", sigma="all", extra=()) -> Query:
    argv = ["tile", spec, str(k), str(n)]
    argv += (["--count"] if count else []) + (["--witness"] if witness else [])
    argv += (["--sigma", sigma] if sigma != "all" else []) + list(extra) + _fmt_args(fmt)
    check = functools.partial(oracle.check_tile, spec=spec, k=k, n=n, sigma=sigma,
                              count=count, witness=witness, fmt=fmt)
    return Query(argv, check=check)


def chains_of_length(spec, levels, t) -> Query:
    return Query(["lib.count_chains_of_length", spec, str(levels), str(t)],
                 text=oracle.chains_of_length_out(spec, levels, t))


def malformed(argv) -> Query:
    """A usage error: exit 2 and nothing on stdout."""
    return Query(argv, rc=2, text="")


# --- workloads --------------------------------------------------------------

def algebra(rng: random.Random) -> list[Query]:
    """Large exact arithmetic: admissibility scans, big matrices, Whitney tables.

    Formats are fixed; a seed moves sizes within a few percent, so that
    the median and tail queries stay the same queries.
    """
    qs = [
        admissible("fib", rng.randint(178, 180)),
        admissible("gauss:2", rng.randint(128, 130), "json"),
        admissible("fib", rng.randint(118, 122), "json"),
        admissible("nat", rng.randint(190, 200)),
        diagonal("fib", rng.randint(197, 200), "json"),
        diagonal("nat", rng.randint(290, 300)),
        chains_of_length("gauss:2", 7, 4),
        chains_of_length("fib", 10, 4),
        chains("nat", 1, 7, True),
        chains("nat", 1, 7, True, "json"),
        chains("fib", 1, rng.randint(55, 60), False, "json"),
        fnomial("fib", (n := rng.randint(245, 255)), n // 2 + rng.randint(-3, 3)),
        fnomial("gauss:2", (n := rng.randint(105, 115)), n // 2 + rng.randint(-3, 3), "json"),
        # Exact output of 4703 digits, past Python's default int-to-str limit.
        fnomial("fib", 300, 150),
        bell_classic(rng.randint(996, 1000)),
        tile(*rng.choice(SMALL_TILINGS), count=True),
        matrix("zeta", "fib", 12, fmt="json"),
        matrix("zeta", "fib", 13, fmt="json"),
        grid(10, 14, "whitney"),
        grid(12, 12, "whitney", "json"),
    ]
    for levels in (9, 10, 11):
        vertices = sum(oracle.level_sizes("fib", levels))
        for fmt in ("text", "json"):
            qs.append(matrix("mobius", "fib", levels, rng.randint(vertices - 8, vertices), fmt))
    rng.shuffle(qs)
    return qs


def tiling(rng: random.Random) -> list[Query]:
    """Exact-cover instances: build-heavy existence and search-heavy counts."""
    f = lambda: _fmt(rng)
    w = lambda: rng.random() < 0.5
    qs = [
        tile("gauss:2", 2, 4, witness=w(), fmt=f()),
        tile("gauss:3", 1, 3, witness=w(), fmt=f()),
        tile("fib", 1, 6, witness=True, fmt=f()),
        tile("nat", 2, 4, count=True, witness=w(), fmt=f()),
        tile("gauss:2", 1, 3, count=True, witness=w(), fmt=f()),
        tile("nat", 1, 5, count=True, witness=True, fmt=f()),
        tile("fib", 1, 5, count=True, witness=w(), fmt=f()),
        tile("nat", 1, 5, count=True, fmt=f(), extra=("--jobs", "2")),
        # The search stops after it has found some partitions; an
        # incomplete count must exit 3 all the same.
        Query(["tile", "nat", "2", "5", "--count", "--node-budget", "20000"],
              rc=3, check=oracle.check_budgeted_count),
        # 1640 singleton blocks: one search level per chain.  Twice, so that
        # with the budgeted count the three heaviest queries hold the run's
        # eleven slowest samples from four passes on, and the tail never
        # jumps between them and the next class down.
        tile("nat", 40, 41),
        tile("nat", 40, 41, fmt="json"),
    ]
    rng.shuffle(qs)
    return qs


SPECS = ("nat", "fib", "const:1", "const:2", "const:3", "gauss:2", "gauss:3",
         "even1", "odd", "div3", "list:[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20]")
PASCAL_SPECS = ("nat", "fib", "const:2", "gauss:2", "gauss:3")
ADMISSIBLE_SPECS = ("nat", "fib", "const:1", "const:3", "gauss:2", "gauss:3")
BAD_SPECS = ("fbi", "Nat", "gauss:x", "const:0", "const:-2", "list:[1,0,2]", "list:[1,2", "gauss:",
             "list:[]x", "fib:2")
SMALL_TILINGS = [key for key, count in oracle.TILING_COUNTS.items() if count <= 40]


def point(rng: random.Random) -> list[Query]:
    """300 README-sized queries over random specs, 5% of them malformed.

    Every seed draws the same number of queries of each kind, and each
    kind's parameters stay small, so no seed's mix holds a rare heavy
    query that would set the tail on its own.
    """
    f = lambda: _fmt(rng)

    def bad() -> Query:
        cmd = rng.choice(("fnomial", "admissible", "diagonal", "chains", "zeta", "tile"))
        tail = {"fnomial": ["5", "2"], "admissible": ["--max", "5"], "diagonal": ["--n", "5"],
                "chains": ["--from", "0", "--to", "2"], "zeta": ["--levels", "3"], "tile": ["1", "3"]}[cmd]
        return malformed([cmd, rng.choice(BAD_SPECS), *tail])

    def fnomial_() -> Query:
        n = rng.randint(0, 20)
        return fnomial(rng.choice(SPECS), n, rng.randint(0, n), f())

    def matrix_() -> Query:
        spec = rng.choice(("fib", "nat", "const:2", "gauss:2"))
        levels = rng.randint(3, 6 if spec != "gauss:2" else 4)
        size = rng.choice((None, min(16, sum(oracle.level_sizes(spec, levels)))))
        return matrix(rng.choice(("zeta", "mobius")), spec, levels, size, f())

    def chains_() -> Query:
        hi = rng.randint(1, 4)
        return chains(rng.choice(("nat", "fib", "const:2", "gauss:2", "odd")), rng.randint(0, hi), hi,
                      rng.random() < 0.3, f())

    def grid_() -> Query:
        mode = rng.choice(("size", "bell", "maxchains", "whitney"))
        n = rng.randint(1, 5 if mode == "whitney" else 8)
        return grid(rng.randint(0, n), n, mode, f())

    def tile_() -> Query:
        if rng.random() < 0.1:
            return tile("nat", 1, 3, count=True, fmt=f(), sigma="identity")
        spec, k, n = rng.choice(SMALL_TILINGS)
        return tile(spec, k, n, count=rng.random() < 0.7, witness=rng.random() < 0.5, fmt=f())

    def bell_() -> Query:
        if rng.random() < 0.5:
            return bell_classic(rng.randint(0, 15), 1e-9, f())
        return bell_classic(rng.randint(0, 60), fmt=f())

    def chains_of_length_() -> Query:
        spec = rng.choice(("nat", "fib", "gauss:2"))
        return chains_of_length(spec, rng.randint(1, 5 if spec != "gauss:2" else 4), rng.randint(1, 4))

    mix = {
        bad: 15,
        fnomial_: 45,
        lambda: admissible(rng.choice(ADMISSIBLE_SPECS), rng.randint(1, 20), f()): 30,
        lambda: diagonal(rng.choice(PASCAL_SPECS), rng.randint(0, 12), f(), rng.random() < 0.2): 30,
        matrix_: 30,
        chains_: 30,
        grid_: 30,
        tile_: 30,
        bell_: 30,
        chains_of_length_: 30,
    }
    qs = [make() for make, count in mix.items() for _ in range(count)]
    rng.shuffle(qs)
    return qs


WORKLOADS = {"algebra": algebra, "tiling": tiling, "point": point}

# How many of a run's fastest passes query_tail_ms is read from, given the
# run's pass count.  Each puts the tail inside one class of queries rather
# than on the edge between two, where it would jump with the pass count.
TAIL_PASSES = {
    # Seven of the 26 queries take 200-650 ms, the rest 140 ms or less; half the
    # passes put the tail among those seven.
    "algebra": lambda passes: max(2, passes // 2),
    # The three heaviest queries hold the eleven slowest samples from four
    # passes on.
    "tiling": lambda passes: passes,
    # In each pass one query meets the interpreter's full garbage
    # collection and takes about 5 ms more than any other; eleven passes
    # put the tail on the fastest of those.
    "point": lambda passes: min(passes, 11),
}
