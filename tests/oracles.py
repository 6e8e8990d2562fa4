"""Generic reference computations that the tests compare cobweb's closed forms against.

Each works from level sizes, sequence values, vertices or matrix rows
alone and imports nothing from cobweb, so a fault in the library cannot
reach the value it is checked against.  Vertices are (j, p) pairs:
index j within level p.
"""
import json
from fractions import Fraction
from itertools import combinations, permutations, product


def fnomial_by_factorials(values, n, k):
    """(n k)_F as the reduced Fraction n_F! / (k_F! (n-k)_F!), from values = [F_0, F_1, ...].

    Every F-factorial up to n_F! is built and divided, the definition read literally.
    """
    facts = [1]
    for v in values[1 : n + 1]:
        facts.append(facts[-1] * v)
    return Fraction(facts[n], facts[k] * facts[n - k])


def leq(u, v):
    """The cobweb order: u <= v iff u == v or u lies on a strictly lower level."""
    return u == v or u[1] < v[1]


def cover_successors(level_sizes, v):
    """The vertices covering v: every vertex of the next level, if there is one."""
    p = v[1] + 1
    return tuple((j, p) for j in range(1, level_sizes[p] + 1)) if p < len(level_sizes) else ()


def chains_of_length(level_sizes, t):
    """Chains of t vertices, counted one at a time by a depth-first walk."""
    verts = [(j, p) for p, size in enumerate(level_sizes) for j in range(1, size + 1)]
    total = 0
    stack = [(i, 1) for i in range(len(verts))]
    while stack:
        i, depth = stack.pop()
        if depth == t:
            total += 1
            continue
        stack.extend((j, depth + 1) for j in range(i + 1, len(verts)) if verts[i][1] < verts[j][1])
    return total


def level_major(level_sizes):
    """The vertices level by level, index j ascending within a level."""
    return [(j, p) for p, size in enumerate(level_sizes) for j in range(1, size + 1)]


def chains_by_product(level_sizes, lo, hi):
    """Every chain meeting each level of lo..hi once, as vertex tuples, in
    the order itertools.product walks the per-level indices."""
    levels = range(lo, hi + 1)
    return [tuple(zip(js, levels)) for js in product(*(range(1, level_sizes[p] + 1) for p in levels))]


def render(doc, fmt):
    """The command line's stdout for a zeta, mobius or chains document,
    rendered entry by entry: json.dumps of the whole document for "json";
    for "text", a matrix's '# order:' header and one line of decimal
    entries per row, or one line of (j,p) labels per chain."""
    if fmt == "json":
        return json.dumps(doc) + "\n"
    label = "({},{})".format
    if "rows" in doc:
        lines = ["# order: " + " ".join(label(*v) for v in doc["order"])]
        lines += [" ".join(map(str, row)) for row in doc["rows"]]
    else:
        lines = [" ".join(label(*v) for v in chain) for chain in doc["chains"]]
    return "".join(line + "\n" for line in lines)


def leading(rows, size):
    """The leading size x size block of a matrix given by its rows."""
    return tuple(row[:size] for row in rows[:size])


def mat_mul(a, b):
    """The product of integer matrices given by their rows: each row of a
    weights b's rows, and the weighted rows are summed column by column."""
    zero = [0] * len(b[0])
    return [list(map(sum, zip(zero, *(bk if c == 1 else map(c.__mul__, bk) for c, bk in zip(row, b) if c))))
            for row in a]


def invert_unit_upper(rows):
    """Inverse of a unit upper-triangular integer matrix by back-substitution.

    Bottom-up, inv[i] = e_i - sum over k > i of rows[i][k] * inv[k].
    """
    n = len(rows)
    inv = [None] * n
    for i in range(n - 1, -1, -1):
        acc = [0] * n
        acc[i] = 1
        for k in range(i + 1, n):
            if rows[i][k]:
                acc = [x - rows[i][k] * y for x, y in zip(acc, inv[k])]
        inv[i] = acc
    return inv


def grid_elements(k, n):
    """The elements (l, m), 0 <= l <= k, l < m <= n, of the layer grid P(k, n),
    ordered by rank l + m - 1 and then by l, a linear extension of the
    componentwise order."""
    els = [(l, m) for l in range(k + 1) for m in range(l + 1, n + 1)]
    return sorted(els, key=lambda e: (sum(e), e[0]))


def grid_mobius(k, n):
    """(elements, Mobius rows) of the layer grid P(k, n), by inverting its zeta matrix."""
    els = grid_elements(k, n)
    zeta = [[int(a[0] <= b[0] and a[1] <= b[1]) for b in els] for a in els]
    return els, invert_unit_upper(zeta)


def grid_max_paths(k, n, path=((0, 1),)):
    """The maximal chains of P(k, n), walked one by one as point tuples: the
    paths of unit steps in l or m from (0, 1) to (k, n) that keep l <= m."""
    l, m = path[-1]
    if (l, m) == (k, n):
        return [path]
    steps = [(l + 1, m)] if l < min(k, m) else []
    steps += [(l, m + 1)] if m < n else []
    return [p for step in steps for p in grid_max_paths(k, n, path + (step,))]


def stirling_rows(max_n):
    """Rows 0..max_n of the Stirling set-partition triangle, each row kept.

    S(n, k) = k S(n-1, k) + S(n-1, k-1), row n holding k = 0..n.
    """
    rows = [[1]]
    for n in range(1, max_n + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, n + 1)])
    return rows


def bell_by_triangle(max_n):
    """[B_0, ..., B_max_n] from the Bell triangle, one row at a time.

    Each row starts with the last entry of the row before and adds that
    row's entries in turn; B_n heads row n.
    """
    row, bells = [1], [1]
    for _ in range(max_n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
        bells.append(row[0])
    return bells


def size_tuples(base, sigma_policy):
    """The distinct subset-size tuples of a tiling: base itself for
    "identity", every distinct permutation of it for "all"."""
    return [tuple(base)] if sigma_policy == "identity" else sorted(set(permutations(base)))


def product_blocks(level_sizes, sizes):
    """Every product block over levels k..n, as (root, subsets, chains).

    A block is a root vertex and one subset per level above it, of sizes
    from ``sizes``.  Its chains are the mixed-radix values of its chains'
    per-level indices, one sum per chain, sorted.  Blocks come root by
    root, each root's sorted by their chain tuples.
    """
    strides = [1]  # the weight of each level's index in a chain's value
    for a in reversed(level_sizes[1:]):
        strides.insert(0, strides[0] * a)
    blocks = []
    for root in range(1, level_sizes[0] + 1):
        mine = []
        for st in sizes:
            if any(t > a for a, t in zip(level_sizes[1:], st)):
                continue  # some level has no subset of that size, so no block
            pools = [list(combinations(range(1, a + 1), t)) for a, t in zip(level_sizes[1:], st)]
            for subsets in product(*pools):
                levels = zip(((root,),) + subsets, strides)
                weighted = [[(j - 1) * w for j in js] for js, w in levels]
                mine.append((tuple(sorted(map(sum, product(*weighted)))), subsets))
        mine.sort()
        blocks += [(root, subsets, chains) for chains, subsets in mine]
    return blocks


def chain_bitsets(level_sizes, blocks, wanted=None):
    """Per chain, the bitset of its root's blocks through it, from (root,
    chains) pairs: the i-th block of a root in the given order is bit i,
    set by one scatter per (block, chain) pair.  A dict by chain index,
    of every chain or of those in ``wanted``."""
    universe = 1
    for a in level_sizes:
        universe *= a
    wanted = range(universe) if wanted is None else wanted
    rows = {c: bytearray(len(blocks) // 8 + 1) for c in wanted}
    ranks = [0] * level_sizes[0]
    for root, chains in blocks:
        i = ranks[root - 1]
        for c in chains:
            if c in rows:
                rows[c][i // 8] |= 1 << (i % 8)
        ranks[root - 1] += 1
    return {c: int.from_bytes(row, "little") for c, row in rows.items()}
