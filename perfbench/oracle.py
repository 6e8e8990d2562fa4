"""Expected outputs for every benchmark query, computed without cobweb.

Each function here rebuilds an answer from the mathematics or from a
recorded fact, and formats it the way the CLI prints it.  None of this
module imports the package under test, so a defect in the package
cannot hide in its own oracle.
"""
from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction


class BadSpec(ValueError):
    """A sequence spec the oracle does not model."""


def seq_values(spec: str, upto: int) -> list[int]:
    """[F_0, F_1, ..., F_upto] for a well-formed sequence spec."""
    if spec == "nat":
        f = lambda n: n
    elif spec == "fib":
        fib = [0, 1]
        while len(fib) <= upto:
            fib.append(fib[-1] + fib[-2])
        f = fib.__getitem__
    elif spec == "even1":
        f = lambda n: 1 if n == 1 else 2 * (n - 1)
    elif spec == "odd":
        f = lambda n: 2 * n - 1
    elif spec == "div3":
        f = lambda n: 1 if n == 1 else 3 * (n - 1)
    elif re.fullmatch(r"const:[1-9]\d*", spec):
        c = int(spec[6:])
        f = lambda n: c
    elif re.fullmatch(r"gauss:[1-9]\d*", spec):
        q = int(spec[6:])
        f = lambda n: sum(q**i for i in range(n))
    elif re.fullmatch(r"list:\[[1-9]\d*(,[1-9]\d*)*\]", spec):
        vals = [int(v) for v in spec[6:-1].split(",")]
        if upto > len(vals):
            raise BadSpec(f"{spec} has no value at {upto}")
        f = lambda n: vals[n - 1]
    else:
        raise BadSpec(spec)
    return [0] + [f(n) for n in range(1, upto + 1)]


def dumps(obj) -> str:
    """One JSON line, as the CLI prints it."""
    return json.dumps(obj) + "\n"


def lines(items) -> str:
    return "".join(f"{x}\n" for x in items)


# --- F-nomials and sequences ----------------------------------------------

def fnomial(F: list[int], n: int, k: int) -> Fraction:
    """(n k)_F as the falling product F_n ... F_{n-k+1} over F_1 ... F_k."""
    num = math.prod(F[n - i] for i in range(k))
    den = math.prod(F[1 : k + 1])
    return Fraction(num, den)


def fnomial_out(spec: str, n: int, k: int, fmt: str) -> str:
    c = fnomial(seq_values(spec, n), n, k)
    if c.denominator == 1:
        if fmt == "json":
            return dumps({"sequence": spec, "n": n, "k": k, "integer": True, "value": c.numerator})
        return lines([c.numerator])
    if fmt == "json":
        return dumps({
            "sequence": spec, "n": n, "k": k, "integer": False, "value": str(c),
            "numerator": c.numerator, "denominator": c.denominator,
        })
    return lines([f"non-integer: {c}"])


ALWAYS_ADMISSIBLE = re.compile(r"nat|fib|const:[1-9]\d*|gauss:[1-9]\d*")


def admissible_out(spec: str, bound: int, fmt: str) -> str:
    """nat, fib, const and gauss F-nomials are all integers, at any bound."""
    if not ALWAYS_ADMISSIBLE.fullmatch(spec):
        raise BadSpec(spec)
    if fmt == "json":
        return dumps({"sequence": spec, "bound": bound, "admissible": True,
                      "admissible_up_to": bound, "failure": None})
    return lines([f"admissible up to {bound}"])


# --- diagonal Bell-like numbers ---------------------------------------------

def pascal(spec: str, top: int) -> list[list[int]]:
    """Rows 0..top of the F-nomial triangle by a Pascal-type recurrence.

    fib: (n k) = F_{k+1} (n-1 k) + F_{n-k-1} (n-1 k-1);
    gauss:q: [n k] = [n-1 k-1] + q^k [n-1 k]; const: every entry is 1;
    nat: the binomial triangle.
    """
    if spec == "fib":
        F = seq_values("fib", top + 2)
        # F_{-1} = 1 keeps the k = n edge of the recurrence exact.
        step = lambda row, n, k: F[k + 1] * row[k] + (F[n - k - 1] if n - k >= 1 else 1) * row[k - 1]
    elif spec == "nat" or spec == "gauss:1":
        step = lambda row, n, k: row[k] + row[k - 1]
    elif spec.startswith("gauss:"):
        q = int(spec[6:])
        step = lambda row, n, k: row[k - 1] + q**k * row[k]
    elif spec.startswith("const:"):
        step = lambda row, n, k: 1
    else:
        raise BadSpec(spec)
    rows = [[1]]
    for n in range(1, top + 1):
        prev = rows[-1] + [0]
        rows.append([1] + [step(prev, n, k) for k in range(1, n + 1)])
    return rows


def diagonal_bells(spec: str, n_max: int) -> list[int]:
    """B_n(F) = sum over 2k <= n of (n-k k)_F; for nat, Fib(n+1) directly."""
    if spec == "nat":
        fib = seq_values("fib", n_max + 1)
        return fib[1 : n_max + 2]
    tri = pascal(spec, n_max)
    return [sum(tri[n - k][k] for k in range(n // 2 + 1)) for n in range(n_max + 1)]


def diagonal_out(spec: str, n: int, fmt: str, triangle: bool = False) -> str:
    bells = diagonal_bells(spec, n)
    tri = None
    if triangle:
        rows = pascal(spec, n)
        tri = [[rows[m - k][k] for k in range(m // 2 + 1)] for m in range(n + 1)]
    if fmt == "json":
        obj = {"sequence": spec, "n": n, "bells": bells}
        if tri is not None:
            obj["triangle"] = tri
        return dumps(obj)
    if tri is not None:
        return lines(" ".join(map(str, row)) for row in tri)
    return lines([" ".join(map(str, bells))])


# --- incidence matrices -----------------------------------------------------

def cobweb_order(F: list[int], levels: int) -> list[tuple[int, int]]:
    return [(1, 0)] + [(j, p) for p in range(1, levels + 1) for j in range(1, F[p] + 1)]


def mobius_entry(F: list[int], u: tuple[int, int], v: tuple[int, int]) -> int:
    """mu(u, v) = (-1)^d prod_{i=p+1}^{q-1} (F_i - 1) for levels p < q = p + d."""
    if u == v:
        return 1
    p, q = u[1], v[1]
    if p >= q:
        return 0
    return (-1) ** (q - p) * math.prod(F[i] - 1 for i in range(p + 1, q))


def matrix_out(which: str, spec: str, levels: int, size: int | None, fmt: str) -> str:
    F = seq_values(spec, levels)
    order = cobweb_order(F, levels)
    if size is not None:
        order = order[:size]
    if which == "zeta":
        rows = [[1 if (u == v or u[1] < v[1]) else 0 for v in order] for u in order]
    else:
        # Entries depend only on the two levels, so compute one per level pair.
        by_levels = {}
        rows = []
        for u in order:
            row = []
            for v in order:
                if u == v:
                    row.append(1)
                    continue
                key = (u[1], v[1])
                if key not in by_levels:
                    by_levels[key] = mobius_entry(F, u, v)
                row.append(by_levels[key])
            rows.append(row)
    if fmt == "json":
        return dumps({"sequence": spec, "levels": levels, "matrix": which,
                      "order": [[j, p] for j, p in order], "rows": rows})
    header = "# order: " + " ".join(f"({j},{p})" for j, p in order)
    return "\n".join([header] + [" ".join(map(str, r)) for r in rows]) + "\n"


# --- chains -----------------------------------------------------------------

def level_sizes(spec: str, levels: int) -> list[int]:
    return [1] + seq_values(spec, levels)[1:]


def chains_out(spec: str, lo: int, hi: int, enumerate_: bool, fmt: str) -> str:
    sizes = level_sizes(spec, hi)
    count = math.prod(sizes[lo : hi + 1])
    if not enumerate_:
        if fmt == "json":
            return dumps({"sequence": spec, "from": lo, "to": hi, "count": count})
        return lines([count])
    span = range(lo, hi + 1)
    chains = list(itertools.product(*(range(1, sizes[p] + 1) for p in span)))
    if fmt == "json":
        return dumps({"sequence": spec, "from": lo, "to": hi, "count": count,
                      "chains": [[[j, p] for j, p in zip(js, span)] for js in chains]})
    return lines(" ".join(f"({j},{p})" for j, p in zip(js, span)) for js in chains)


def elementary_symmetric(values: list[int], t: int) -> int:
    """e_t(values): the number of t-element chains when values are level sizes."""
    e = [1] + [0] * t
    for x in values:
        for i in range(t, 0, -1):
            e[i] += e[i - 1] * x
    return e[t]


def chains_of_length_out(spec: str, levels: int, t: int) -> str:
    return lines([elementary_symmetric(level_sizes(spec, levels), t)])


# --- the layer grid ---------------------------------------------------------

def grid_ranks(k: int, n: int) -> list[int]:
    """Rank counts of P(k, n): pairs 0 <= l <= k, l < m <= n at rank l + m - 1."""
    counts = [0] * (k + n)
    for l in range(k + 1):
        for m in range(l + 1, n + 1):
            counts[l + m - 1] += 1
    return counts


def grid_whitney_first(k: int, n: int, r: int) -> int:
    """P(k, n) is distributive, so mu(0, x) is 1, -1 on the unique atom, else 0."""
    if r == 0:
        return 1 if n >= 1 else 0
    return -1 if (r == 1 and n >= 2) else 0


def dominated_paths(k: int, n: int) -> int:
    """Lattice paths (0,1) -> (k,n) by unit steps keeping l <= m, by dynamic programming."""
    ways = {(0, 1): 1}
    for l in range(k + 1):
        for m in range(1, n + 1):
            if (l, m) == (0, 1) or l > m:
                continue
            ways[(l, m)] = ways.get((l - 1, m), 0) + ways.get((l, m - 1), 0)
    return ways[(k, n)]


def grid_out(k: int, n: int, mode: str, fmt: str) -> str:
    ranks = grid_ranks(k, n)
    size = sum(ranks)
    if mode == "whitney":
        table = [(r, ranks[r], grid_whitney_first(k, n, r)) for r in range(k + n)]
        if fmt == "json":
            return dumps({"k": k, "n": n, "size": size, "ranks": [
                {"rank": r, "whitney_second": w2, "whitney_first": w1} for r, w2, w1 in table]})
        return lines(["# rank whitney2 whitney1"] + [f"{r} {w2} {w1}" for r, w2, w1 in table])
    if mode == "maxchains":
        key, value = "max_chains", dominated_paths(k, n)
    else:
        key, value = mode, size  # "bell" sums the rank counts, which gives the size
    return dumps({"k": k, "n": n, key: value}) if fmt == "json" else lines([value])


# --- classical Bell numbers -------------------------------------------------

def bell_number(n: int) -> int:
    """B_n from the Bell triangle: each row starts with the last entry of the one above."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def bell_out(n: int, fmt: str) -> str:
    b = bell_number(n)
    return dumps({"n": n, "bell": b}) if fmt == "json" else lines([b])


def check_dobinski(out: str, n: int, tol: float, fmt: str) -> str | None:
    """The exact line must match; the series value must meet its tolerance.

    Returns None when the output is right, else a reason.
    """
    b = bell_number(n)
    if fmt == "json":
        doc = json.loads(out)
        if doc.get("n") != n or doc.get("bell") != b:
            return "wrong exact Bell number"
        approx, rel = doc["dobinski"], doc["rel_err"]
        if rel != abs(approx - b) / b:
            return "rel_err disagrees with the printed value"
    else:
        m = re.fullmatch(rf"{b}\ndobinski: (\S+) \(rel_err (\S+)\)\n", out)
        if m is None:
            return "output does not have the exact and the series line"
        approx = float(m.group(1))
        if m.group(2) != f"{abs(approx - b) / b:.3e}":
            return "rel_err disagrees with the printed value"
    if abs(approx - b) > tol * b:
        return f"series value {approx} misses B_{n} = {b} by more than {tol}"
    return None


# --- tilings ----------------------------------------------------------------

# Partition counts of (spec, k, n) under the "all" sigma policy.  The
# small ones are fixture counts; the benchmark's tests recount every
# entry with an exact-cover solver of their own.
TILING_COUNTS = {
    ("const:1", 1, 4): 1,
    ("nat", 1, 2): 1,
    ("nat", 1, 3): 4,
    ("fib", 1, 4): 4,
    ("nat", 1, 4): 32,
    ("nat", 1, 5): 386,
    ("fib", 1, 5): 136,
    ("nat", 2, 4): 17424,
    ("gauss:2", 1, 3): 7036,
}
# The identity policy of nat 1 3 admits no partition (fixture nat_1_3_identity).
IDENTITY_COUNTS = {("nat", 1, 3): 0}
# Tileable instances whose counts are out of reach.  The tests check a
# witness for each; nat 40 41 is tiled by its singleton blocks.
TILEABLE = {("gauss:2", 2, 4), ("gauss:3", 1, 3), ("fib", 1, 6), ("nat", 40, 41)}


def tile_universe(spec: str, k: int, n: int) -> list[int]:
    """Sizes of levels k..n: chains are their product in lexicographic order."""
    return level_sizes(spec, n)[k : n + 1]


def check_witness(blocks: list[list[int]], spec: str, k: int, n: int, sigma: str) -> str | None:
    """The benchmark's own check that blocks partition the chains of (spec, k, n)."""
    sizes = tile_universe(spec, k, n)
    universe = math.prod(sizes)
    base = seq_values(spec, n - k)[1:]
    seen: set[int] = set()
    for chains in blocks:
        tuples = []
        for c in chains:
            if not 0 <= c < universe or c in seen:
                return f"chain {c} outside the universe or covered twice"
            seen.add(c)
            digits = []
            for s in reversed(sizes):
                c, d = divmod(c, s)
                digits.append(d)
            tuples.append(digits[::-1])
        proj = [len({t[i] for t in tuples}) for i in range(len(sizes))]
        if proj[0] != 1 or math.prod(proj) != len(tuples):
            return f"block {chains} is not a product of a root and one subset per level"
        wanted = base if sigma == "identity" else sorted(base)
        got = proj[1:] if sigma == "identity" else sorted(proj[1:])
        if got != wanted:
            return f"block {chains} has level subset sizes {proj[1:]}, not those of F_1..F_{n - k}"
    if len(seen) != universe:
        return f"witness covers {len(seen)} of {universe} chains"
    return None


def check_tile(out: str, spec: str, k: int, n: int, sigma: str, count: bool, witness: bool,
               fmt: str) -> str | None:
    """Verdict and count against the known facts, and the witness by check_witness."""
    key = (spec, k, n)
    known = (IDENTITY_COUNTS if sigma == "identity" else TILING_COUNTS).get(key)
    if known is None and key not in TILEABLE:
        raise BadSpec(f"no recorded answer for tile {spec} {k} {n}")
    exists = "yes" if (known is None or known > 0) else "no"
    if fmt == "json":
        doc = json.loads(out)
        verdict, blocks = doc["verdict"], doc.get("witness", {}).get("blocks")
        if count and doc["count"] != {"status": "exact", "value": known}:
            return f"count {doc['count']} is not exact {known}"
        if doc["universe"] != math.prod(tile_universe(spec, k, n)):
            return "wrong universe size"
    else:
        rows = out.splitlines()
        verdict = rows[0] if rows else ""
        if count and (len(rows) < 2 or rows[1] != f"count: {known}"):
            return f"count line is not 'count: {known}'"
        blocks = [[int(c) for c in r.split()[1:]] for r in rows if r.startswith("block: ")]
        if len(rows) != 1 + count + len(blocks):
            return "unexpected lines in the output"
    if verdict != exists:
        return f"verdict {verdict!r}, expected {exists!r}"
    if witness and exists == "yes":
        if not blocks:
            return "no witness printed"
        return check_witness(blocks, spec, k, n, sigma)
    if blocks:
        return "a witness was printed but not asked for"
    return None


def check_budgeted_count(out: str) -> str | None:
    """A count stopped by its node budget is incomplete and says so.

    The verdict may be "inconclusive" with no partition found yet, or
    "yes" with a lower bound; either way the exit code is 3.
    """
    m = re.fullmatch(r"(inconclusive|yes)\ncount: >=(\d+) \(search incomplete\)\n", out)
    if m is None:
        return "output is not an incomplete count"
    if (m.group(1) == "yes") != (int(m.group(2)) > 0):
        return "verdict and lower bound disagree"
    return None
