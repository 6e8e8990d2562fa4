"""Partitioning the saturated chains of a layer into product blocks.

The universe of an instance (F, k, n) is the set of saturated chains
spanning levels k..n of the cobweb poset, one vertex per level, in the
lexicographic order of their per-level indices.  A chain's index is
therefore its mixed-radix value over the level sizes.  A candidate
block is a product set: a root vertex at level k together with one
subset per level k+1..n whose sizes are a permutation of
<F_1, ..., F_m>, m = n - k.  Every block therefore contains exactly
m_F! chains, and a partition of the universe into blocks is an exact
cover.

The search is an iterative Algorithm X over one root (vertex of level
k).  Every block hangs from one root, so blocks of different roots never
share a chain, and the covers of the universe are the products of one
cover per root: the count of any block set is the product of its roots'
counts.  Within a root, chains and blocks are numbered from 0 in
ascending index, and its sets of blocks are int bitsets over them: one
per chain for the blocks through it and one for the live blocks.  It
also keeps the number of live blocks through each chain.  Selecting a
block kills the live blocks that meet it, the live set ANDed with the
OR of the block's chain bitsets.  The live counts are then recounted
by popcounts or decremented over the killed blocks' chains, whichever
is charged less: it recounts exactly when killed * block_size + unread
* (_DECODE + block_size) > recount, unread being the killed blocks not
yet decoded from their keys (the charges are in _ExactCover).  One
trail undoes either, and the selection, when the search backtracks.
Each node branches on the uncovered chain with the fewest live blocks,
the lowest chain index winning ties, and tries its blocks in ascending
index.  The search runs on an explicit stack, so its depth (blocks per
partition) is bounded by memory, not by the interpreter's recursion
limit.  One
search answers every query: it counts covers up to an optional cap and
keeps the first one as the witness, and existence is a count capped at
one.  Budgets turn oversized work into an explicit "inconclusive"
outcome instead of an open-ended run.

Tables come from level subsets, not chain lists.  With a_i the size of
level k + i, s_i = a_1 + ... + a_(i-1) and P_i = sum(a) + bitlen(a_(i+1))
+ ... + bitlen(a_m), blocks S_1..S_m of a root sort by chain tuple as by
the key sum_i (S_i[0] << P_i) + (sum of 2**(a_i - j) over j not in S_i)
<< s_i.  A chain's bitset is AND_i V[i][j_i], V[i][j] a key bit column,
and a block's chains are read off its key when the search first touches
it; |S_i| is a_i less the popcount of the key's bits s_i..s_i + a_i - 1.
A built instance keeps root 1's keys, and its Blocks are made lazily.

The block type chooses how the roots are searched.  A built instance's
blocks (_LazyBlocks) are every product block of its sigma policy, a set
closed under the permutations of each level, so root r + 1's blocks are
root 1's with every chain offset by r times the chains per root.  Root 1
alone is searched: the count is c ** F_k for root 1's count c, a lower
bound L of c bounds it by L ** F_k, and the witness is root 1's cover
repeated by offset over every root.  Within root 1 every chain lies in
equally many blocks, so the root pivot is chain 0, and the permutations
that fix chain 0 map a block through it onto each of the
prod C(a_i - 1, t_i - 1) blocks through it with the same size tuple t.
Only the lowest block of each t is searched, its count weighted by that
number.  Tuple blocks (instance_from_json, or dataclasses.replace with
new blocks) may be any set: each root is searched in turn and the
counts multiply, and the search stops at the first root without a cover.

The subtree below a node depends only on the set of covered chains:
the live blocks are those disjoint from it and the pivot rule is
fixed.  Each finished subtree is therefore memoised under that set, an
int bitmask over the root's chains, with its node and cover counts.  An
option that reaches a memoised set adds those counts instead of
walking the subtree again, whenever the walk would stay inside the
node budget, stay below the cap and leave the witness as it is.  The
walk would then add exactly those counts, so every result, node count
included, is the one of the search without the memo.  A root's memo
takes entries only while they fit a fixed byte bound (_MEMO_BYTES); past
it the search stays exact and stops memoising.  It is dropped once the
root is done.

With jobs > 1, a root's branches are shared out between the caller and
children it forks for that root alone (see _search_root).  A child
inherits the tables and the memo as they stand and keeps its own from
then on; the caller takes the results back in branch order, so every
field of the outcome is the serial one.
"""
from __future__ import annotations

import builtins
import functools
import itertools
import marshal
import math
import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, NoReturn

from .poset import DEFAULT_ENUMERATION_BUDGET, BudgetError, CobwebPoset
from .sequences import is_cobweb_admissible

if TYPE_CHECKING:  # pragma: no cover - type-only; .sequences at run time is a cycle
    from collections.abc import Iterable

    from .sequences import AdmissibleSequence

DEFAULT_BLOCK_BUDGET = 1_000_000
DEFAULT_NODE_BUDGET = 1_000_000

SIGMA_POLICIES = ("identity", "all")

# At most this many bytes, counted per entry as a key over one root's
# chains plus _MEMO_ENTRY_BYTES of dict slot, key header and value, go to
# a root's subtree memo; past that the search stops memoising.
_MEMO_BYTES = 1 << 23
_MEMO_ENTRY_BYTES = 200

# The charge of a block's first decode (_ExactCover.__missing__) in the
# select rule's decrements (see _ExactCover), on top of one per chain.
# A decode takes 2.7 us for a block of 3 chains, 7.2 us at 30 and 19.5 us
# at 120 (CPython 3.11 on x86-64).  Against each root's recount, that is
# 25 (nat 2 5) to 200 (gauss:2 1 4) decrements besides the chains, and
# 130-155 for gauss:2 3 5, nat 1 6 and fib 1 6.
_DECODE = 128

# Keys written out in binary at a time by _chain_bits, so that its strings
# take a few MB at most however many keys a root has.
_CHUNK = 1 << 14


@dataclass(frozen=True)
class Block:
    """One candidate block: a root vertex and one subset per higher level."""

    root: int  # j index within level k
    sizes: tuple[int, ...]  # subset sizes, a permutation of <F_1..F_m>
    level_subsets: tuple[tuple[int, ...], ...]  # j indices per level k+1..n
    chains: tuple[int, ...]  # indices into the instance universe, ascending


@dataclass(frozen=True)
class TilingInstance:
    sequence_spec: str
    k: int
    n: int
    sigma_policy: str
    level_sizes: tuple[int, ...]  # sizes of levels k..n
    block_size: int  # m_F!: chains per block
    blocks: Sequence[Block]  # a tuple, or _LazyBlocks from build_instance

    @functools.cached_property
    def chains(self) -> tuple[tuple[int, ...], ...]:
        """The universe, derived on first read: per-level j indices, levels k..n."""
        return tuple(itertools.product(*(range(1, s + 1) for s in self.level_sizes)))

    @property
    def universe_size(self) -> int:
        return math.prod(self.level_sizes)


@dataclass(frozen=True)
class TilingSearchResult:
    status: str  # "yes" | "no" | "inconclusive"
    witness: tuple[int, ...] | None  # block indices
    nodes: int


@dataclass(frozen=True)
class TilingCountResult:
    """A partition count; the witness is the first partition in search
    order (the one exists_partition finds), or None when none was found."""

    status: str  # "exact" | "capped" | "inconclusive"
    count: int
    nodes: int
    witness: tuple[int, ...] | None  # block indices

    @property
    def verdict(self) -> str:
        """"yes" if a partition was found, "no" if a complete search found none."""
        if self.count >= 1:
            return "yes"
        return "no" if self.status == "exact" else "inconclusive"


def build_instance(
    seq: "AdmissibleSequence",
    k: int,
    n: int,
    sigma_policy: str = "all",
    universe_budget: int | None = None,
    block_budget: int | None = None,
) -> TilingInstance:
    """Enumerate the chain universe and every candidate block.

    Budgets are checked against predicted sizes before anything is
    enumerated, so an oversized request fails fast, the universe first:
    the admissibility scan is quadratic in n.  The universe's level
    sizes are read once, through CobwebPoset.span_sizes, and only until
    their product passes its budget (DEFAULT_ENUMERATION_BUDGET by default).
    Each distinct size tuple is listed once and a key determines its
    subsets, so no two blocks are equal.  Sorting root 1's keys sorts its
    blocks by chain tuple, fixing the search order; the other roots
    repeat them (see the module docstring).
    """
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < n, got k={k}, n={n}")
    if sigma_policy not in SIGMA_POLICIES:
        raise ValueError(f"sigma_policy must be one of {SIGMA_POLICIES}, got {sigma_policy!r}")
    if universe_budget is None:
        universe_budget = DEFAULT_ENUMERATION_BUDGET
    if block_budget is None:
        block_budget = DEFAULT_BLOCK_BUDGET
    if min(universe_budget, block_budget) < 0:
        raise ValueError(f"need budgets >= 0, got universe {universe_budget}, block {block_budget}")

    # A list that ends before n fails here, before any budget.
    sizes = CobwebPoset(seq, n).span_sizes(k, n, universe_budget, "universe chains")

    verdict = is_cobweb_admissible(seq, n)
    if not verdict.admissible:
        fn, fk = verdict.first_failure  # type: ignore[misc]
        raise ValueError(
            f"sequence {seq.name!r} is not cobweb-admissible up to {n}: "
            f"({fn} {fk})_F = {verdict.failure_quotient}"
        )

    base = list(seq.run(1, n - k))
    if sigma_policy == "identity":
        size_tuples = [tuple(base)]
    else:
        size_tuples = list(_distinct_permutations(base))

    predicted_blocks = sizes[0] * sum(
        math.prod(math.comb(sizes[1 + i], t) for i, t in enumerate(st))
        for st in size_tuples
    )
    if predicted_blocks > block_budget:
        raise BudgetError("candidate blocks", predicted_blocks, block_budget)

    keys, fields = [], _key_fields(sizes[1:])  # root 1's blocks
    for st in size_tuples:
        if any(t > a for t, (a, _, _) in zip(st, fields)):
            continue  # a requested size exceeds its level, no such block
        pools = ([_term(f, s) for s in itertools.combinations(range(1, f[0] + 1), t)]
                 for t, f in zip(st, fields))
        keys += map(sum, itertools.product(*pools))
    keys.sort()

    return TilingInstance(
        sequence_spec=seq.name,
        k=k,
        n=n,
        sigma_policy=sigma_policy,
        level_sizes=sizes,
        block_size=math.prod(base),
        blocks=_LazyBlocks(sizes, keys),
    )


def _distinct_permutations(items):
    """The distinct permutations of a multiset, in lexicographic order.

    Each comes from the last by the next-permutation step, so a multiset
    with many equal items yields few tuples, not len(items)! of them.
    """
    p = sorted(items)
    while True:
        yield tuple(p)
        i = len(p) - 2
        while i >= 0 and p[i] >= p[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(p) - 1
        while p[j] <= p[i]:
            j -= 1
        p[i], p[j] = p[j], p[i]
        p[i + 1:] = reversed(p[i + 1:])


def _members(sizes: tuple[int, ...], root: int, subsets) -> tuple[int, ...]:
    """The chain indices of the block root x subsets: mixed-radix values over
    the level sizes, ascending because the subsets are."""
    members = [root - 1]
    for size, subset in zip(sizes[1:], subsets):
        members = [a * size + j - 1 for a in members for j in subset]
    return tuple(members)


def _key_fields(levels: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """Per level k + i: a_i and the shifts P_i and s_i of its term in a block key."""
    firsts = itertools.accumulate(map(int.bit_length, levels[:0:-1]), initial=sum(levels))
    return list(zip(levels, reversed(list(firsts)), itertools.accumulate(levels, initial=0)))


def _term(field: tuple[int, int, int], subset: tuple[int, ...]) -> int:
    """A level's term of a block key (see the module docstring)."""
    a, first, low = field
    return (subset[0] << first) + (((1 << a) - 1 - sum(1 << (a - j) for j in subset)) << low)


def _subsets(key: int, fields: list[tuple[int, int, int]]) -> tuple[tuple[int, ...], ...]:
    """The level subsets of a block, read off its key."""
    subsets = []
    for a, _, low in fields:
        held, subset = ~key >> low & ((1 << a) - 1), []
        while held:
            subset.append(a + 1 - held.bit_length())
            held ^= 1 << (a - subset[-1])
        subsets.append(tuple(subset))
    return tuple(subsets)


class _LazyBlocks(Sequence):
    """A built instance's blocks over root 1's sorted keys, equal to the tuple of its Blocks."""

    def __init__(self, level_sizes: tuple[int, ...], keys: list[int]):
        self.level_sizes, self.keys = level_sizes, keys
        self.fields = _key_fields(level_sizes[1:])

    def __len__(self) -> int:
        return self.level_sizes[0] * len(self.keys)

    def __getitem__(self, b):
        b = range(len(self))[b]  # negative indices, slices and IndexError as a tuple has them
        if isinstance(b, range):
            return tuple(map(self.__getitem__, b))
        root, q = divmod(b, len(self.keys))
        s = _subsets(self.keys[q], self.fields)
        return Block(root + 1, tuple(map(len, s)), s, _members(self.level_sizes, root + 1, s))

    def __eq__(self, other):
        return tuple(self) == other if isinstance(other, (tuple, _LazyBlocks)) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))


def _chain_bits(keys: list[int], fields: list[tuple[int, int, int]]) -> list[int]:
    """Each chain's bitset over one root's blocks, bit q for keys[q] (see the module docstring).

    Column p is bit p of every key.  _CHUNK keys at a time, the low sum(a_i) bits
    of each go out in binary under a 1 that bin's "0b1" drops, and the chunk's
    columns, read backwards from its last key, shift in at its first key.
    """
    width = sum(a for a, _, _ in fields)
    top = 1 << width
    mask, columns = top - 1, [0] * width
    for first in range(0, len(keys), _CHUNK):
        text = "".join([bin(key & mask | top)[3:] for key in keys[first:first + _CHUNK]])
        for p in range(len(columns)):
            columns[p] |= int(text[len(text) - 1 - p::-width], 2) << first
    bits = [(1 << len(keys)) - 1]
    for a, _, low in fields:
        lacking = columns[low:low + a][::-1]  # vertices 1..a
        bits = [x & ~v for x in bits for v in lacking]
    return bits


# --- exact cover search ------------------------------------------------------

def _roots(instance: TilingInstance) -> list[tuple[Sequence[int], _ExactCover]]:
    """The roots to search, each as its blocks' indices, ascending, and its tables.

    A built instance's root 1 stands for every root (see the module
    docstring); tuple blocks are grouped by their roots.
    """
    blocks = instance.blocks
    if isinstance(blocks, _LazyBlocks):
        groups = [(range(len(blocks.keys)), blocks.keys)]
    else:
        fields = _key_fields(instance.level_sizes[1:])
        groups = [([], []) for _ in range(instance.level_sizes[0])]
        for b, block in enumerate(blocks):
            indices, keys = groups[block.root - 1]
            indices.append(b)
            keys.append(sum(map(_term, fields, block.level_subsets)))
    sizes, block_size = instance.level_sizes, instance.block_size
    return [(indices, _ExactCover(sizes, keys, block_size)) for indices, keys in groups]


class _ExactCover(dict):
    """The search tables of one root, built once and shared by its branches.

    The root's blocks have the given keys, and a block's number is its
    place among them; its chains are numbered from 0 in index order.
    As a dict, it maps a block's number to its chains, read off its key
    on first use; ``undecoded`` is the bitset of the blocks not read yet.
    Each chain has an int bitset over the blocks through it.  A live
    block is one disjoint from the partial cover: ``alive`` is their
    bitset, and ``live`` the number of live blocks through each chain.

    Selecting block b kills ``kill = alive & conflict``, where the
    conflict is the OR of the bitsets of b's chains, b included.  Then
    either ``live`` is recounted, one popcount per chain, and the old
    list goes on the trail, or the chains of the killed blocks are
    decremented, and incremented again on backtracking.  Both leave the
    same list.  The search recounts exactly when

        killed * block_size + (kill & undecoded).bit_count() * decode > recount

    for killed = kill.bit_count() and decode = _DECODE + block_size: the
    decrements, one per chain of each killed block and the first decode
    of each killed one not decoded yet, are charged more than a recount.
    Once every block is decoded, that is killed > recount // block_size.
    So exists_partition decodes 38 of the 3710 blocks of gauss:2 2 4,
    where charging the decrements alone decoded all of them, 8 of fib 1
    6's (122) and 13 of gauss:3 1 3's (225).  A covered chain's count is
    offset by ``covered``, a power of two above every live count, so one
    ``min`` finds both the pivot and a complete cover, and a recount
    keeps the offsets as ``covered & count``.

    Finished subtrees go to a memo shared by every branch, keyed by
    their covered-chain bitmask (see the module docstring).
    """

    def __init__(self, level_sizes: tuple[int, ...], keys: list[int], block_size: int):
        self.level_sizes, self.block_keys, self.block_size = level_sizes, keys, block_size
        self.fields = _key_fields(level_sizes[1:])
        self.undecoded = (1 << len(keys)) - 1
        self.bits = _chain_bits(keys, self.fields)
        self.counts = list(map(int.bit_count, self.bits))
        # The charge of a recount, in decrements: it takes an AND and a
        # popcount per chain over the root's blocks, about one decrement's
        # time per 512 blocks (CPython 3.11 on x86-64).
        self.recount = len(self.bits) * (1 + len(keys) // 512)
        # Covered-chain mask -> (nodes, covers) of the finished subtree below it.
        self.memo: dict[int, tuple[int, int]] = {}
        self.memo_limit = _MEMO_BYTES // (_MEMO_ENTRY_BYTES + len(self.bits) // 8)

    def __missing__(self, q: int) -> tuple[int, ...]:
        self[q] = chains = _members(self.level_sizes, 1, _subsets(self.block_keys[q], self.fields))
        self.undecoded ^= 1 << q
        return chains

    def root_branches(self) -> tuple[int, ...]:
        """The blocks through the root pivot: the first chain of fewest blocks."""
        low = min(self.counts)
        return tuple(_ranks(self.bits[self.counts.index(low)], low))

    def search(
        self, first: int, budget: int, cap: int | None
    ) -> tuple[int, tuple[int, ...] | None, bool, int]:
        """DFS below the root branch ``first``: (count, witness, exhausted, nodes).

        A node is one visit to a partial cover.  Its pivot is the
        uncovered chain with the fewest live blocks, the lowest chain
        number winning ties, and its options run in ascending block
        number.  The witness is the first cover completed.  The search
        stops when it has visited ``budget`` nodes (exhausted), when
        ``count`` reaches ``cap``, or when the tree is done.

        An option whose subtree is in the memo adds that subtree's
        nodes and covers instead of walking it, whenever the walk would
        neither exhaust the budget, reach the cap nor find the witness;
        the result is then the one the walk would give.
        """
        bits = self.bits
        recount = self.recount
        block_size = self.block_size
        decode = _DECODE + block_size
        memo = self.memo
        memo_limit = self.memo_limit
        width = len(self.block_keys)
        covered = 1 << width.bit_length()
        live = list(self.counts)
        alive = (1 << width) - 1
        # Per selection: the block selected, the blocks it killed as a
        # bitset, the live counts before it if it recounted them, and the
        # node count, cover count and covered-chain mask ``cov`` before
        # it.  ``after`` is the mask once the next selection is made.
        trail: list[tuple[int, int, list[int] | None, int, int, int]] = []
        frames = []  # per selection: an iterator over its node's untried options
        count = nodes = cov = 0
        witness = None
        b = first
        after = sum(1 << c for c in self[b])
        while True:
            # Select b: kill every live block that meets it, b included.
            chains = self[b]
            conflict = 0
            for c in chains:
                conflict |= bits[c]
            kill = alive & conflict
            alive ^= kill
            killed = kill.bit_count()
            if killed * block_size + (kill & self.undecoded).bit_count() * decode > recount:
                # Recount every chain; the covered ones keep their offset.
                saved, live = live, list(map(
                    operator.add,
                    map(int.bit_count, map(alive.__and__, bits)),
                    map(covered.__and__, live),
                ))
            else:
                saved = None
                for j in _ranks(kill, killed):
                    for c in self[j]:
                        live[c] -= 1
            for c in chains:
                live[c] += covered
            trail.append((b, kill, saved, nodes, count, cov))
            cov = after

            nodes += 1
            if nodes > budget:
                return count, witness, True, nodes
            low = min(live)
            if 0 < low < covered:
                frames.append(iter(_ranks(bits[live.index(low)] & alive, low)))
            else:
                if low:  # every chain is covered
                    count += 1
                    if witness is None:
                        witness = tuple(entry[0] for entry in trail)
                    if cap is not None and count >= cap:
                        break
                frames.append(iter(()))
            # Take the next option of the deepest node that has one, undoing
            # finished selections and replaying memoised subtrees.
            while True:
                b = next(frames[-1], -1)
                if b < 0:
                    frames.pop()
                    if not frames:  # the root branch is done; its selection stays
                        return count, witness, False, nodes
                    b, kill, saved, nodes0, count0, cov0 = trail.pop()
                    alive |= kill
                    if saved is None:
                        for j in _ranks(kill, kill.bit_count()):
                            for c in self[j]:
                                live[c] += 1
                        for c in self[b]:
                            live[c] -= covered
                    else:
                        live = saved
                    if len(memo) < memo_limit:
                        memo[cov] = (nodes - nodes0, count - count0)
                    cov = cov0
                    continue
                after = cov | sum(1 << c for c in self[b])
                sub = memo.get(after)
                if (
                    sub is None
                    or nodes + sub[0] > budget
                    or (cap is not None and count + sub[1] >= cap)
                    or (witness is None and sub[1])
                ):
                    break
                nodes += sub[0]
                count += sub[1]
        return count, witness, False, nodes


def _ranks(x: int, count: int) -> Iterable[int]:
    """The positions of the ``count`` set bits of x, ascending.

    Splitting the bits off one at a time costs the size of x per bit.
    Reading them off bin(x), each the number of bits below it, costs the
    size of x once, and is the cheaper from about twenty bits on.
    """
    if count < 20:
        ranks = []
        while x:
            low = x & -x
            ranks.append(low.bit_length() - 1)
            x ^= low
        return ranks
    runs = bin(x).split("1")[::-1]  # the last run holds the "0b" prefix
    return map(operator.add, itertools.accumulate(map(len, runs)), range(len(runs) - 1))


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _solve(
    instance: TilingInstance,
    cap: int | None,
    jobs: int,
    node_budget: int | None,
) -> tuple[int, tuple[int, ...] | None, bool, int]:
    """Shared driver: returns (count, witness, any_exhausted, nodes).

    The roots of _roots are searched in order, and the count is the
    product of their counts, each raised to the power of the roots it
    stands for: F_k for a built instance's root 1, else 1.  Each root
    branches once at its root pivot, and every branch of every root
    gets an equal share of the node budget.  A budget smaller than the
    number of root branches gives no branch a node, so the search stops
    at the root, exhausted, and a root without branches has no cover.
    A built instance searches one branch per orbit, each weighted by its
    orbit's size (see the module docstring); tuple blocks have weights 1.

    A root's branches run in order and stop once its weighted count
    reaches its target, the least count whose power, times the product
    so far, reaches the cap; each branch is capped at the target over its
    weight.  The search stops at the first root whose count is 0.  The
    witness is the roots' first covers in root order, a root's first
    cover being that of its first branch that has one.  Parallel runs
    fork one root's searchers at a time and consume the same outcomes in
    the same order (see _search_root), so serial and parallel runs agree
    on every field.  A root gets at most ``jobs`` processes, the caller
    included, and no more than its branches searched or the CPUs.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if node_budget is None:
        node_budget = DEFAULT_NODE_BUDGET
    if node_budget < 1:
        raise ValueError(f"node_budget must be >= 1, got {node_budget}")

    roots = _roots(instance)
    branches = [cover.root_branches() for _, cover in roots]
    if not all(branches):
        return 0, None, False, 1
    per_branch = node_budget // sum(map(len, branches))
    if not per_branch:
        return 0, None, True, 1
    if isinstance(instance.blocks, _LazyBlocks):
        branches[0], weights = _orbits(roots[0][1], branches[0])
        weights, power = [weights], instance.level_sizes[0]
    else:
        weights, power = [(1,) * len(bs) for bs in branches], 1
    if not hasattr(os, "fork"):  # no fork on this platform: search serially
        jobs = 1
    elif jobs > 1:
        jobs = min(jobs, _cpu_count())
    total, witness, exhausted, nodes = 1, (), False, 1
    for (indices, cover), bs, ws in zip(roots, branches, weights):
        target = None if cap is None else _least_root(-(-cap // total), power)
        caps = [None if target is None else -(-target // w) for w in ws]
        count, first, exhausted_r, nodes_r = _search_root(
            cover, bs, ws, per_branch, caps, target, min(jobs, len(bs))
        )
        exhausted = exhausted or exhausted_r
        nodes += nodes_r
        cover.memo.clear()  # no later root reads it
        if not count:
            return 0, None, exhausted, nodes
        total *= count**power
        witness += tuple(map(indices.__getitem__, first))
    # Root r + 1 of a built instance repeats root 1's cover, offset by r
    # roots' blocks; tuple blocks have power 1 and keep their witness.
    width = len(roots[0][0])
    return total, tuple(r * width + b for r in range(power) for b in witness), exhausted, nodes


def _search_root(
    cover: _ExactCover,
    branches: tuple[int, ...],
    weights: tuple[int, ...],
    budget: int,
    caps: list[int | None],
    target: int | None,
    workers: int,
) -> tuple[int, tuple[int, ...] | None, bool, int]:
    """One root's branches in order, until its weighted count reaches
    ``target``: (count, first witness, any_exhausted, nodes).

    Branch i is searched by process i % workers.  Process 0 is the caller;
    the others are forked children, which inherit the root's tables,
    search their branches in order and write each result with marshal to
    a pipe of their own.  The caller takes every result in branch order,
    as a serial run does, so the two agree on every field.  However the
    root ends (done, at its target, or by an exception), every child is
    killed and reaped before this returns.
    """
    if workers > 1:
        import signal  # not at start-up: only a run that forks needs it
    pids: list[int] = []
    pipes = []  # the read end of process w's pipe at w - 1
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            with open(write, "wb") as out:  # the child keeps its own copy
                pid = os.fork()
                if not pid:
                    _child(cover, branches[w::workers], budget, caps[w::workers], out)
                pids.append(pid)
        count, first, exhausted, nodes = 0, None, False, 0
        for i, (b, weight, cap) in enumerate(zip(branches, weights, caps)):
            if i % workers:
                try:
                    result = marshal.load(pipes[i % workers - 1])
                except EOFError:
                    raise RuntimeError(
                        f"the process searching root branch {b} ended without its result"
                    ) from None
                if len(result) == 2:  # the child's exception, not a 4-field result
                    raise _child_error(b, *result)
            else:
                result = cover.search(b, budget, cap)
            b_count, b_witness, b_exhausted, b_nodes = result
            count += weight * b_count
            exhausted = exhausted or b_exhausted
            nodes += b_nodes
            first = first or b_witness
            if target is not None and count >= target:
                break
        return count, first, exhausted, nodes
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _child(cover: _ExactCover, branches, budget: int, caps, out) -> NoReturn:
    """A forked child's whole life: search ``branches`` in order and write
    each result to ``out`` as soon as it is known.

    It leaves only through os._exit, so it never flushes the caller's
    stdio buffers or runs its exit handlers.  An exception ends it after
    writing its type name and message in place of the next result, for
    the caller to raise (see _child_error).
    """
    try:
        try:
            for b, cap in zip(branches, caps):
                marshal.dump(cover.search(b, budget, cap), out)
                out.flush()
        except Exception as err:
            marshal.dump((type(err).__name__, str(err)), out)
            out.flush()
    finally:
        os._exit(0)  # a child that dies unreported shows in the caller as a missing result


def _child_error(branch: int, name: str, message: str) -> Exception:
    """The exception a child reported for ``branch``: the built-in type of
    that name with that message, or else a RuntimeError that names it."""
    cls = getattr(builtins, name, None)
    if isinstance(cls, type) and issubclass(cls, Exception):
        try:
            return cls(message)
        except TypeError:  # a built-in that takes more than a message
            pass
    return RuntimeError(f"{name} in the process searching root branch {branch}: {message}")


def _orbits(cover: _ExactCover, branches) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The lowest block of each size tuple among ``branches``, the blocks
    through chain 0, and how many blocks through chain 0 have that tuple.

    Chain 0 takes vertex 1 of every level, and a block through it with
    size tuple t takes vertex 1 and t_i - 1 of the other a_i - 1 vertices
    of level k + i.  So there are prod C(a_i - 1, t_i - 1) of them, and
    the permutations of each level that fix vertex 1 map any one onto
    any other, the blocks and the covers below them included.
    """
    lowest: dict[tuple[int, ...], int] = {}
    keys = cover.block_keys
    for b in branches:
        sizes = tuple(a - (keys[b] >> low & (1 << a) - 1).bit_count() for a, _, low in cover.fields)
        lowest.setdefault(sizes, b)
    levels = cover.level_sizes[1:]
    weights = (math.prod(math.comb(a - 1, t - 1) for a, t in zip(levels, st)) for st in lowest)
    return tuple(lowest.values()), tuple(weights)


def _least_root(x: int, e: int) -> int:
    """The least c >= 0 with c ** e >= x, for x >= 1: Newton's integer root."""
    c = 1 << -(-x.bit_length() // e)  # c ** e > x
    while True:
        d = ((e - 1) * c + x // c ** (e - 1)) // e
        if d >= c:
            break
        c = d
    return c if c**e >= x else c + 1


def exists_partition(
    instance: TilingInstance,
    jobs: int = 1,
    node_budget: int | None = None,
) -> TilingSearchResult:
    """Decide whether the universe splits into disjoint candidate blocks.

    "yes" carries a witness (block indices); "no" is only returned when
    the whole tree fit inside the node budget, otherwise the verdict is
    "inconclusive".
    """
    result = count_partitions(instance, 1, jobs, node_budget)
    return TilingSearchResult(result.verdict, result.witness, result.nodes)


def count_partitions(
    instance: TilingInstance,
    cap: int | None = None,
    jobs: int = 1,
    node_budget: int | None = None,
) -> TilingCountResult:
    """Count the distinct partitions, up to an optional cap.

    "exact" means the full tree was searched; "capped" means at least
    cap partitions exist; "inconclusive" means the node budget ran out
    first and the count is only a lower bound.  Any count of one or
    more carries its first partition in search order as the witness,
    the one exists_partition reports.
    """
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    count, witness, exhausted, nodes = _solve(instance, cap, jobs, node_budget)
    if cap is not None and count >= cap:
        return TilingCountResult("capped", cap, nodes, witness)
    if exhausted:
        return TilingCountResult("inconclusive", count, nodes, witness)
    return TilingCountResult("exact", count, nodes, witness)


def verify_partition(instance: TilingInstance, block_indices) -> bool:
    """True iff the given candidate blocks tile the universe exactly.

    Indices outside the instance's candidate list are rejected: a
    partition may only use blocks the instance itself proposed.
    """
    chosen = list(block_indices)
    for b in chosen:
        if isinstance(b, bool) or not isinstance(b, int) or not 0 <= b < len(instance.blocks):
            raise ValueError(f"foreign block {b!r}: not a candidate of this instance")
    covered = sorted(c for b in chosen for c in instance.blocks[b].chains)
    return covered == list(range(instance.universe_size))


# --- serialization -----------------------------------------------------------

def instance_to_json(instance: TilingInstance) -> dict:
    """A plain-dict form: chains as per-level index arrays, blocks by chain indices."""
    return {
        "sequence": instance.sequence_spec,
        "k": instance.k,
        "n": instance.n,
        "sigma_policy": instance.sigma_policy,
        "level_sizes": list(instance.level_sizes),
        "block_size": instance.block_size,
        "chains": [list(c) for c in instance.chains],
        "blocks": [
            {
                "root": b.root,
                "sizes": list(b.sizes),
                "subsets": [list(s) for s in b.level_subsets],
                "chains": list(b.chains),
            }
            for b in instance.blocks
        ],
    }


def instance_from_json(doc: dict) -> TilingInstance:
    """Rebuild an instance, revalidating its fields, its chains and each block.

    The sigma policy must be a known one, 0 <= k < n as build_instance
    asks, and the level sizes, each at least 1, must span levels k..n.
    The chain list must be the product of the level ranges, and a
    block's root and subsets must be strictly ascending entries of their
    levels, so that its chain indices are the mixed-radix values of its
    chains; these must equal the block's chain list.  A block's sizes are its subset lengths, every block has
    block_size chains, and no block appears twice.
    """
    policy = doc["sigma_policy"]
    if policy not in SIGMA_POLICIES:
        raise ValueError(f"sigma_policy must be one of {SIGMA_POLICIES}, got {policy!r}")
    sizes, k, n = tuple(doc["level_sizes"]), doc["k"], doc["n"]
    if len(sizes) != n - k + 1:
        raise ValueError(f"level sizes {sizes} do not span levels {k}..{n}")
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < n, got k={k}, n={n}")
    if min(sizes) < 1:
        raise ValueError(f"level sizes must be >= 1, got {sizes}")
    if list(map(tuple, doc["chains"])) != list(itertools.product(*(range(1, s + 1) for s in sizes))):
        raise ValueError(f"chain list is not the product of the level ranges {sizes}")
    if doc["block_size"] < 1:
        raise ValueError(f"block size must be >= 1, got {doc['block_size']}")
    blocks = []
    seen = set()
    for entry in doc["blocks"]:
        subsets = tuple(tuple(s) for s in entry["subsets"])
        levels = ((entry["root"],),) + subsets
        if len(levels) != len(sizes):
            raise ValueError(f"block {entry} needs one subset per level above its root")
        for size, level in zip(sizes, levels):
            if not level or level[0] < 1 or level[-1] > size:
                raise ValueError(f"block {entry}: {list(level)} is not inside a level of {size}")
            if any(a >= b for a, b in zip(level, level[1:])):
                raise ValueError(f"block {entry}: {list(level)} is not strictly ascending")
        if tuple(entry["sizes"]) != tuple(map(len, subsets)):
            raise ValueError(f"block {entry}: sizes are not its subset lengths")
        members = _members(sizes, entry["root"], subsets)
        if members != tuple(entry["chains"]):
            raise ValueError(f"block {entry} disagrees with its chain list")
        if len(members) != doc["block_size"]:
            raise ValueError(f"block {entry} does not have block size {doc['block_size']}")
        if members in seen:
            raise ValueError(f"block {entry} appears twice")
        seen.add(members)
        blocks.append(Block(entry["root"], tuple(entry["sizes"]), subsets, members))
    return TilingInstance(doc["sequence"], k, n, policy, sizes, doc["block_size"], tuple(blocks))


def witness_to_json(instance: TilingInstance, block_indices) -> dict:
    """A witness as block indices plus their chain-index arrays."""
    chosen = list(block_indices)
    return {
        "block_indices": chosen,
        "blocks": [list(instance.blocks[b].chains) for b in chosen],
    }
