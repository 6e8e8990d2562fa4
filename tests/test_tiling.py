"""Chain-partition instances, the exact-cover search, and serialization.

Expected counts live in fixtures/tiling/*.json, stamped by the solver's
first run and treated as regression values from then on.
"""
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import operator
import os
import pathlib
import pickle
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from cobweb import tiling
from cobweb import (
    BudgetError,
    TilingCountResult,
    TilingSearchResult,
    build_instance,
    count_partitions,
    exists_partition,
    instance_from_json,
    instance_to_json,
    parse_sequence,
    verify_partition,
    witness_to_json,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "tiling"

# Sequences whose small instances the tests below build and search.
SPECS = ["nat", "fib", "const:1", "const:2", "const:3", "gauss:2", "list:[1,1,2,2,3,3]", "list:[1,2,2,4,4]"]


def load_fixture(name: str) -> dict:
    with open(FIXTURES / f"{name}.json") as fh:
        return json.load(fh)


def plain(inst):
    """An equal copy with tuple blocks: the search takes it as any set of
    blocks, every root and every root branch walked."""
    return dataclasses.replace(inst, blocks=tuple(inst.blocks))


def root_tables(inst):
    """The search tables of every root that inst's search walks."""
    return [cover for _, cover in tiling._roots(inst)]


def test_universe_and_block_shape():
    inst = build_instance(parse_sequence("nat"), 1, 3)
    assert inst.level_sizes == (1, 2, 3)
    assert inst.universe_size == 6
    assert inst.chains == tuple(itertools.product((1,), (1, 2), (1, 2, 3)))
    assert instance_from_json(instance_to_json(inst)).chains == inst.chains  # derived, not stored
    assert inst.block_size == 2  # m_F! for m = 2 over nat
    assert len(inst.blocks) == 9
    for block in inst.blocks:
        assert len(block.chains) == inst.block_size
        assert list(block.chains) == sorted(block.chains)


def test_every_block_is_a_product_set():
    inst = build_instance(parse_sequence("fib"), 1, 4)
    for block in inst.blocks:
        expected = sorted(
            inst.chains.index((block.root,) + js)
            for js in itertools.product(*block.level_subsets)
        )
        assert list(block.chains) == expected
        assert math.prod(len(s) for s in block.level_subsets) == inst.block_size


def test_block_sizes_are_permutations():
    inst = build_instance(parse_sequence("nat"), 1, 3)
    base = (1, 2)
    for block in inst.blocks:
        assert tuple(sorted(block.sizes)) == base


def test_identity_policy_blocks_subset_of_all():
    nat = parse_sequence("nat")
    all_blocks = {b.chains for b in build_instance(nat, 1, 3).blocks}
    id_blocks = {b.chains for b in build_instance(nat, 1, 3, sigma_policy="identity").blocks}
    assert id_blocks < all_blocks


@pytest.mark.parametrize(
    "name", ["nat_1_2", "nat_1_3", "nat_1_3_identity", "fib_1_4", "const1_1_4"]
)
def test_fixture_regression(name):
    """Re-run the solver and compare against the stamped fixture values."""
    doc = load_fixture(name)
    inst = instance_from_json(doc["instance"])
    expected = doc["expected"]
    assert inst.universe_size == expected["universe"]
    assert len(inst.blocks) == expected["candidate_blocks"]
    assert inst.block_size == expected["block_size"]

    fresh = build_instance(
        parse_sequence(inst.sequence_spec), inst.k, inst.n, sigma_policy=inst.sigma_policy
    )
    assert fresh == inst

    search = exists_partition(inst)
    assert search.status == expected["exists"]
    result = count_partitions(inst)
    assert result.status == "exact"
    assert result.count == expected["count"]
    if search.status == "yes":
        assert verify_partition(inst, search.witness)


def test_distinct_size_tuples_build_the_same_instances(monkeypatch):
    """Listing each distinct size tuple once keeps the blocks and their order
    that filtering every permutation gave.

    Each base <F_1..F_m> of an admissible (spec, k, n) with n <= 6 gets
    the same size tuples both ways; whole instances are compared where
    they fit the default universe budget and 50000 candidate blocks
    (153 of them; the nine left out are gauss:2 instances, whose bases
    have no equal values).
    """
    distinct = tiling._distinct_permutations
    built = {}
    for spec in SPECS:
        seq = parse_sequence(spec)
        for n in range(1, 7):
            for k in range(n):
                try:
                    built[spec, k, n] = build_instance(seq, k, n, block_budget=50_000)
                except BudgetError:
                    pass
                except ValueError:
                    continue
                base = [seq.value(i) for i in range(1, n - k + 1)]
                assert list(distinct(base)) == sorted(set(itertools.permutations(base)))
    monkeypatch.setattr(
        tiling, "_distinct_permutations", lambda base: sorted(set(itertools.permutations(base)))
    )
    for (spec, k, n), inst in built.items():
        assert build_instance(parse_sequence(spec), k, n, block_budget=50_000) == inst
    assert len(built) == 153


def test_sigma_policy_changes_the_verdict():
    # identity-only blocks cannot tile (nat, 1, 3); the full sigma set can
    nat = parse_sequence("nat")
    assert exists_partition(build_instance(nat, 1, 3, sigma_policy="identity")).status == "no"
    assert exists_partition(build_instance(nat, 1, 3, sigma_policy="all")).status == "yes"


def test_const1_tilings_trivially_exist():
    one = parse_sequence("const:1")
    for n in range(1, 7):
        for k in range(n):
            inst = build_instance(one, k, n)
            assert inst.universe_size == 1
            res = exists_partition(inst)
            assert res.status == "yes"
            assert verify_partition(inst, res.witness)
            assert count_partitions(inst).count == 1


def test_parallel_agrees_with_serial():
    instances = [
        instance_from_json(load_fixture(name)["instance"])
        for name in ("nat_1_3", "fib_1_4", "nat_1_3_identity")
    ]
    # Without candidate blocks 0 and 21, the first two of the twelve root
    # branches of (nat, 1, 4) hold no partition; the witness is in the third.
    nat_1_4 = build_instance(parse_sequence("nat"), 1, 4)
    instances.append(
        dataclasses.replace(
            nat_1_4, blocks=tuple(b for i, b in enumerate(nat_1_4.blocks) if i not in (0, 21))
        )
    )
    for inst in instances:
        serial = exists_partition(inst, jobs=1)
        assert exists_partition(inst, jobs=2) == serial
        assert exists_partition(inst, jobs=3) == serial
        assert count_partitions(inst, jobs=2) == count_partitions(inst, jobs=1)
        assert count_partitions(inst, cap=3, jobs=2) == count_partitions(inst, cap=3, jobs=1)
    assert serial.status == "yes"
    assert serial.witness[0] == 2


def test_jobs_forks_are_capped_at_the_cpus(monkeypatch):
    """A root gets no more processes than CPUs, whatever --jobs asks for:
    with two CPUs, each searched root forks exactly one child."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(tiling, "_cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", counting_fork)
    built = build_instance(parse_sequence("nat"), 1, 4)  # root 1 of 13 branches searched
    copy = instance_from_json(instance_to_json(build_instance(parse_sequence("nat"), 2, 4)))
    for inst, roots in ((built, 1), (copy, 2)):
        serial = count_partitions(inst)
        del forks[:]
        assert count_partitions(inst, jobs=50) == serial
        assert len(forks) == roots
    assert_no_child_left()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_child_outlives_a_call(monkeypatch):
    """Every child is killed and reaped when its root ends: at a reached
    target and after each of several roots."""
    monkeypatch.setattr(tiling, "_cpu_count", lambda: 2)  # forks on one CPU too
    capped = count_partitions(build_instance(parse_sequence("nat"), 1, 5), cap=3, jobs=2)
    assert (capped.status, capped.count) == ("capped", 3)
    assert_no_child_left()
    copy = instance_from_json(instance_to_json(build_instance(parse_sequence("nat"), 2, 4)))
    assert count_partitions(copy, jobs=2) == count_partitions(copy)
    assert_no_child_left()


@pytest.mark.parametrize("failing", ["caller", "child"])
def test_a_failed_branch_search_raises_in_the_caller(monkeypatch, failing):
    """A search that raises, in the caller or in a child, raises its own
    type and message from the call, and leaves no child behind.  The
    child's branch is the second."""
    monkeypatch.setattr(tiling, "_cpu_count", lambda: 2)
    inst = build_instance(parse_sequence("nat"), 1, 5)
    (cover,) = root_tables(inst)
    branches = tiling._orbits(cover, cover.root_branches())[0]
    bad = branches[0 if failing == "caller" else 1]
    real_search = tiling._ExactCover.search

    def search(self, first, budget, cap):
        if first == bad:
            raise ZeroDivisionError("a search that fails")
        return real_search(self, first, budget, cap)

    monkeypatch.setattr(tiling._ExactCover, "search", search)
    with pytest.raises(ZeroDivisionError, match="^a search that fails$"):
        count_partitions(inst, jobs=2)
    assert_no_child_left()


def test_a_child_error_is_raised_as_its_built_in_type():
    """A child's exception comes back as its type name and message: a
    built-in type is raised again, any other as a RuntimeError naming it."""
    assert type(tiling._child_error(3, "MemoryError", "")) is MemoryError
    err = tiling._child_error(3, "BudgetError", "over")
    assert (type(err), str(err)) == (
        RuntimeError, "BudgetError in the process searching root branch 3: over")
    # A built-in that a message alone cannot make.
    assert type(tiling._child_error(3, "UnicodeDecodeError", "bad byte")) is RuntimeError


def test_children_leave_without_flushing_the_callers_output():
    """`tile nat 1 5 --count --jobs 2`, stdout on a pipe, prints its answer
    once.  A child that has written every result leaves without flushing
    the line its caller buffered before the fork, and without running
    the caller's code: the caller's own branches are slowed so that the
    child leaves first.  No process pool module is loaded."""
    probe = """if True:
        import os, sys, time
        from cobweb import cli, tiling
        caller, search = os.getpid(), tiling._ExactCover.search
        def slow_in_the_caller(self, *args):
            if os.getpid() == caller:
                time.sleep(0.1)
            return search(self, *args)
        tiling._ExactCover.search = slow_in_the_caller
        tiling._cpu_count = lambda: 2
        print("before")
        code = cli.main(["tile", "nat", "1", "5", "--count", "--jobs", "2"])
        print(sorted({"multiprocessing", "concurrent.futures"} & set(sys.modules)))
        sys.exit(code)
    """
    src = str(pathlib.Path(tiling.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)  # stdout stays block-buffered on its pipe
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"before\nyes\ncount: 386\n[]\n", b"")


def test_pinned_search_trees():
    """The plain search visits the same nodes in the same order as
    reference_search, which gave these pins.

    A count's witness is its first partition, the one existence finds.
    """
    nat = parse_sequence("nat")
    inst = plain(build_instance(nat, 2, 4))
    witness = exists_partition(inst).witness
    assert count_partitions(inst) == TilingCountResult("exact", 17424, 839, witness)
    inst = plain(build_instance(nat, 2, 5))
    witness = exists_partition(inst, node_budget=20000).witness
    budgeted = count_partitions(inst, node_budget=20000)
    assert budgeted == TilingCountResult("inconclusive", 1436**2, 20021, witness)
    search = exists_partition(plain(build_instance(parse_sequence("gauss:2"), 2, 4)))
    assert (search.status, search.nodes) == ("yes", 106)
    # Two trees whose selects kill most of the blocks of their root.
    inst = plain(build_instance(parse_sequence("fib"), 1, 6, sigma_policy="identity"))
    search = exists_partition(inst)
    assert (search.status, search.nodes) == ("no", 421)
    budgeted = count_partitions(plain(build_instance(nat, 1, 6)), node_budget=3000)
    assert budgeted == TilingCountResult("inconclusive", 0, 3247, None)


@pytest.mark.parametrize("memo_bytes", [0, 5000])
def test_memo_bound_keeps_the_tree(monkeypatch, memo_bytes):
    """Past its bound the memo takes no entries, and the search stays exact."""
    monkeypatch.setattr(tiling, "_MEMO_BYTES", memo_bytes)
    inst = plain(build_instance(parse_sequence("nat"), 2, 4))
    witness = exists_partition(inst).witness
    assert count_partitions(inst) == TilingCountResult("exact", 17424, 839, witness)
    for cover in root_tables(inst):  # two roots of 12 chains
        for b in cover.root_branches():
            cover.search(b, 10**6, None)
        assert len(cover.memo) == cover.memo_limit == memo_bytes // (tiling._MEMO_ENTRY_BYTES + 1)


@pytest.mark.parametrize("spec, k, n", [("nat", 2, 4), ("nat", 1, 4), ("fib", 1, 5)])
def test_shared_memo_keeps_each_branch_result(spec, k, n):
    # Later root branches meet covered sets that earlier ones finished,
    # the full universe among them; each branch still reports its own
    # first cover as its witness.
    inst = build_instance(parse_sequence(spec), k, n)
    (shared,) = root_tables(inst)
    for cap in (None, 3):
        for b in shared.root_branches():
            (fresh,) = root_tables(inst)
            assert shared.search(b, 10**6, cap) == fresh.search(b, 10**6, cap)


def test_search_tables_are_per_root():
    """Each chain's bitset spans the blocks of its own root only.

    (nat, 200, 201) has 200 roots of 201 singleton blocks; one bitset
    over all 40200 blocks per chain would take about 110 MB.  The built
    instance's tables hold root 1 alone.
    """
    inst = build_instance(parse_sequence("nat"), 200, 201)
    copy = plain(inst)
    tracemalloc.start()
    try:
        root_tables(copy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000
    (cover,) = root_tables(inst)
    assert (len(cover.block_keys), len(cover.counts)) == (201, 201)


def test_build_and_tables_memory_bound():
    """gauss:2 3 5 has 7 roots of 81530 blocks.  Root 1's sorted keys and
    its chain bitsets peak at 7.7 MiB under tracemalloc, where one Block
    and one chain tuple per block of every root took 168 MB, and the keys
    written out in binary all at once 16.4 MiB.  The tables keep about
    2.8 MiB: a bitset per chain, and no int per block."""
    tracemalloc.start()
    try:
        inst = build_instance(parse_sequence("gauss:2"), 3, 5)
        built = tracemalloc.get_traced_memory()[0]
        (cover,) = root_tables(inst)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert retained - built < 4 * 2**20
    assert len(cover.counts) == 15 * 31  # levels 4 and 5 above a root


@pytest.fixture
def decoded(monkeypatch):
    """The numbers of the blocks whose chains the search reads off their keys."""
    numbers = []
    missing = tiling._ExactCover.__missing__

    def spy(cover, q):
        numbers.append(q)
        return missing(cover, q)

    monkeypatch.setattr(tiling._ExactCover, "__missing__", spy)
    return numbers


@pytest.mark.parametrize(
    "spec, k, n, most", [("gauss:2", 2, 4, 38), ("fib", 1, 6, 8), ("gauss:3", 1, 3, 13)]
)
def test_existence_decodes_few_blocks(decoded, spec, k, n, most):
    """A select that would decode many killed blocks only to decrement
    their chains recounts instead.  Charged decrements alone, these
    searches decoded 3710 (all of root 1), 122 and 225 blocks."""
    inst = build_instance(parse_sequence(spec), k, n)
    result = exists_partition(inst)
    assert result.status == "yes" and verify_partition(inst, result.witness)
    assert len(decoded) <= most


@pytest.mark.parametrize("spec, k, n", [("gauss:2", 2, 4), ("nat", 1, 5), ("nat", 2, 5)])
def test_undecoded_blocks_are_exact(spec, k, n):
    """``undecoded`` holds exactly the blocks whose chains were never made,
    whichever path made them."""
    (cover,) = root_tables(build_instance(parse_sequence(spec), k, n))
    everything = (1 << len(cover.block_keys)) - 1
    assert cover.undecoded == everything
    cover.search(cover.root_branches()[0], 2000, None)
    assert cover
    assert cover.undecoded == everything - sum(1 << q for q in cover)


@pytest.mark.parametrize(
    "spec, k, n, cap, node_budget, built, copy",
    [
        ("gauss:2", 2, 4, 1, None,
         ("capped", 1, 36, "fb1bc2e08d19adb3", 38), ("capped", 1, 106, "fb1bc2e08d19adb3", 114)),
        ("gauss:3", 1, 3, 1, None,
         ("capped", 1, 14, "469b727993f2e632", 13), ("capped", 1, 14, "469b727993f2e632", 13)),
        ("fib", 1, 6, 1, None,
         ("capped", 1, 9, "bb272b5b0c7b454e", 8), ("capped", 1, 9, "bb272b5b0c7b454e", 8)),
        ("nat", 2, 4, None, None,
         ("exact", 17424, 168, "d9bdf796807e4a4c", 27), ("exact", 17424, 839, "d9bdf796807e4a4c", 60)),
        ("gauss:2", 1, 3, None, None,
         ("exact", 7036, 3217, "9c69fa896e451c2c", 98), ("exact", 7036, 15733, "9c69fa896e451c2c", 112)),
        ("nat", 1, 5, None, None,
         ("exact", 386, 490, "6091166584c24e9f", 187), ("exact", 386, 1536, "6091166584c24e9f", 375)),
        ("fib", 1, 5, None, None,
         ("exact", 136, 200, "bd8087ea02221f52", 76), ("exact", 136, 544, "bd8087ea02221f52", 115)),
        ("nat", 2, 5, None, 20000,
         ("inconclusive", 2750**2, 2185, "522fbb4a24802c0d", 354),
         ("inconclusive", 1436**2, 20021, "522fbb4a24802c0d", 1072)),
        ("nat", 40, 41, 1, None,
         ("capped", 1, 42, "029e2885c7845fb3", 41), ("capped", 1, 1641, "029e2885c7845fb3", 1640)),
    ],
)
def test_engine_pins(monkeypatch, decoded, spec, k, n, cap, node_budget, built, copy):
    """The tiling benchmark's searches, on the built instance and on its
    tuple copy: status, count, nodes, the witness (the first 16 hex digits
    of the SHA-256 of its repr) and the number of blocks decoded, exactly.
    Two processes give the serial result."""
    monkeypatch.setattr(tiling, "_cpu_count", lambda: 2)  # forks on one CPU too
    inst = build_instance(parse_sequence(spec), k, n)
    for case, pins in ((inst, built), (plain(inst), copy)):
        del decoded[:]
        result = count_partitions(case, cap, 1, node_budget)
        digest = hashlib.sha256(repr(result.witness).encode()).hexdigest()[:16]
        assert (result.status, result.count, result.nodes, digest, len(decoded)) == pins
        assert verify_partition(case, result.witness)
        assert count_partitions(case, cap, 2, node_budget) == result
    assert_no_child_left()


# --- block order and tables against the oracle --------------------------------

def oracle_blocks(inst, roots):
    """tests/oracles.py's product blocks of inst's sizes over its first ``roots`` roots."""
    base = parse_sequence(inst.sequence_spec).values(inst.n - inst.k)[1:]
    levels = (roots,) + inst.level_sizes[1:]
    return oracles.product_blocks(levels, oracles.size_tuples(base, inst.sigma_policy))


def table_bits(inst):
    """Every root's chain bitsets, root by root."""
    return [c for cover in root_tables(inst) for c in cover.bits]


def test_block_order_and_tables_match_the_oracle():
    """Built blocks come in the oracle's order of chain tuples, and the chain
    bitsets built from keys equal the oracle's per-(block, chain) scatter:
    root 1's for the built instance, every root's for its plain copy.
    Instances of nine specs, k < n <= 5, both policies, up to 20000 blocks
    (250 of the 254 the default budgets allow; the larger four are the
    gauss:2 1 4 and 3 5 pairs)."""
    compared = 0
    for spec in SPECS + ["gauss:3"]:
        seq = parse_sequence(spec)
        for n in range(1, 6):
            for k in range(n):
                for sigma in tiling.SIGMA_POLICIES:
                    try:
                        inst = build_instance(seq, k, n, sigma, block_budget=20_000)
                    except (BudgetError, ValueError):
                        continue
                    compared += 1
                    expected = oracle_blocks(inst, inst.level_sizes[0])
                    assert [(b.root, b.level_subsets, b.chains) for b in inst.blocks] == expected
                    bits = oracles.chain_bitsets(inst.level_sizes, [(r, c) for r, _, c in expected])
                    span = inst.universe_size // inst.level_sizes[0]
                    assert table_bits(inst) == [bits[c] for c in range(span)]
                    assert table_bits(plain(inst)) == list(bits.values())
    assert compared == 250


@pytest.mark.parametrize("spec, k, n", [("fib", 3, 7), ("gauss:2", 3, 5)])
def test_large_block_order_and_tables_match_the_oracle(spec, k, n):
    """Root 1 of fib 3 7 (360100 blocks over four levels) and of gauss:2 3 5
    (81530 blocks): the whole block order, and the bitsets of a few chains
    (a whole table of fib 3 7 takes about 70 MB)."""
    inst = build_instance(parse_sequence(spec), k, n)
    expected = oracle_blocks(inst, 1)
    assert len(inst.blocks) == len(expected) * inst.level_sizes[0]
    for block, (_, subsets, chains) in zip(inst.blocks, expected):
        assert (block.level_subsets, block.chains) == (subsets, chains)
    span = inst.universe_size // inst.level_sizes[0]
    wanted = (0, 1, span // 3, span // 2, span - 1)
    root_1 = [(1, chains) for _, _, chains in expected]
    bits = oracles.chain_bitsets((1,) + inst.level_sizes[1:], root_1, wanted)
    del expected, root_1  # not held with the tables, to keep the peak down
    (cover,) = root_tables(inst)
    assert {c: cover.bits[c] for c in wanted} == bits


def test_tables_of_loaded_blocks_out_of_root_order():
    """A JSON document may list blocks in any order: each root's tables rank
    its blocks in the order they come, as the oracle's scatter does."""
    rng = random.Random(5)
    compared = 0
    for inst in built_grid(3000):
        if inst.level_sizes[0] < 2:
            continue
        doc = instance_to_json(inst)
        rng.shuffle(doc["blocks"])
        loaded = instance_from_json(doc)
        bits = oracles.chain_bitsets(
            inst.level_sizes, [(b["root"], b["chains"]) for b in doc["blocks"]]
        )
        assert table_bits(loaded) == list(bits.values())
        compared += 1
    assert compared > 50


def test_lazy_blocks_behave_as_their_tuple():
    """A built instance's blocks index, iterate, compare and hash like the
    tuple of Blocks a JSON copy holds, and a built instance and its search
    tables survive a pickle round trip."""
    inst = build_instance(parse_sequence("nat"), 2, 4)  # 2 roots of 30 blocks
    blocks = inst.blocks
    copy = instance_from_json(instance_to_json(inst))
    eager = copy.blocks
    assert isinstance(eager, tuple) and not isinstance(blocks, tuple)
    assert len(blocks) == len(eager) == 60
    assert list(blocks) == list(eager)
    assert (blocks[-1], blocks[-60], blocks[31]) == (eager[-1], eager[0], eager[31])
    for b in (60, -61):
        with pytest.raises(IndexError):
            blocks[b]
    for s in (slice(1, 3), slice(None, None, -7), slice(None, 0)):
        assert type(blocks[s]) is tuple and blocks[s] == eager[s]
    assert blocks == eager and eager == blocks
    assert blocks != eager[:-1] and eager[:-1] != blocks
    assert inst == copy and copy == inst
    assert hash(blocks) == hash(eager) and hash(inst) == hash(copy)

    assert count_partitions(copy) == TilingCountResult(
        "exact", 17424, 839, exists_partition(copy).witness
    )

    again = pickle.loads(pickle.dumps(inst))
    assert again == inst and isinstance(again.blocks, tiling._LazyBlocks)
    assert count_partitions(again) == count_partitions(inst)
    (cover,) = root_tables(inst)
    first, *rest = cover.root_branches()
    cover.search(first, 10**6, None)  # fills some chains and the memo
    cover = pickle.loads(pickle.dumps(cover))
    (fresh,) = root_tables(inst)
    fresh.search(first, 10**6, None)
    for b in rest:
        assert cover.search(b, 10**6, None) == fresh.search(b, 10**6, None)


# --- the roots factor and the orbits at the root ------------------------------

def built_grid(max_blocks):
    """Instances of SPECS, k < n <= 5, both sigma policies, of at most max_blocks blocks."""
    for spec in SPECS:
        seq = parse_sequence(spec)
        for n in range(1, 6):
            for k in range(n):
                for sigma in tiling.SIGMA_POLICIES:
                    try:
                        yield build_instance(seq, k, n, sigma, block_budget=max_blocks)
                    except (BudgetError, ValueError):
                        pass


def test_block_type_chooses_the_search():
    """A copy that keeps the built instance's lazy blocks has the full block
    set and takes the reduced search; tuple blocks, equal or not, take
    the search of every root."""
    inst = build_instance(parse_sequence("nat"), 1, 4)
    replaced = dataclasses.replace(inst)
    assert replaced.blocks is inst.blocks
    assert count_partitions(replaced) == count_partitions(inst)
    dropped = dataclasses.replace(
        inst, blocks=tuple(b for i, b in enumerate(inst.blocks) if i not in (0, 21))
    )
    for copy in (instance_from_json(instance_to_json(inst)), dropped):
        for cap, node_budget in ((None, 10**6), (1, 10**6), (3, 50)):
            assert_reference_results(copy, cap, node_budget)


def test_jobs_agree_with_serial_on_every_field(monkeypatch):
    """At jobs 2 and 3, count_partitions, exists_partition and a count
    capped at 3 under a 200-node budget give the serial status, count,
    nodes and witness, on the built instances of the grid of up to 600
    blocks and on their JSON copies, whose roots are searched in turn.
    (The whole grid, past 600 blocks too, is checked the same way by hand;
    see CHANGES.md.)"""
    monkeypatch.setattr(tiling, "_cpu_count", lambda: 3)  # three processes on any machine
    calls = (count_partitions, exists_partition, functools.partial(count_partitions, cap=3, node_budget=200))
    compared = 0
    for inst in built_grid(600):
        for copy in (inst, instance_from_json(instance_to_json(inst))):
            for call in calls:
                serial = call(copy)
                for jobs in (2, 3):
                    assert call(copy, jobs=jobs) == serial
                    compared += 1
    assert compared > 1000
    assert_no_child_left()


def test_reduced_search_agrees_with_the_plain_one():
    """Wherever the plain search completes within 20000 nodes, so does the
    reduced one, in no more nodes, with the same count, verdict and first
    partition; every witness it gives, complete or not, is a partition.
    Each root of the plain copy walks root 1's tree offset by the root, so
    root 1's first cover repeated over every root is the plain witness."""
    compared = 0
    for inst in built_grid(3000):
        for cap in (None, 1):
            result = count_partitions(inst, cap, node_budget=20000)
            if result.witness is not None:
                assert verify_partition(inst, result.witness)
            expected = count_partitions(plain(inst), cap, node_budget=20000)
            if expected.status == "inconclusive":
                continue
            compared += 1
            assert (result.status, result.count) == (expected.status, expected.count)
            assert result.nodes <= expected.nodes
            assert result.witness == expected.witness
    assert compared == 454


def test_orbit_sizes_at_the_root():
    """The blocks through chain 0 with size tuple t number
    prod C(a_i - 1, t_i - 1); the lowest of each is its representative,
    and the orbit sizes add up to the plain search's root branches."""
    for inst in built_grid(3000):
        (cover,) = root_tables(inst)
        branches = cover.root_branches()
        assert all(inst.blocks[b].chains[0] == 0 for b in branches)  # the pivot is chain 0
        orbits = {}
        for b in branches:
            orbits.setdefault(inst.blocks[b].sizes, []).append(b)
        for t, blocks in orbits.items():
            assert len(blocks) == math.prod(
                math.comb(a - 1, t_i - 1) for a, t_i in zip(inst.level_sizes[1:], t)
            )
        representatives, weights = tiling._orbits(cover, branches)
        assert representatives == tuple(min(blocks) for blocks in orbits.values())
        assert weights == tuple(map(len, orbits.values()))
        assert sum(weights) == len(branches)


@pytest.mark.parametrize(
    "spec, k, n, count, nodes",
    [
        ("nat", 2, 4, 132**2, 168),
        ("nat", 1, 5, 386, 490),
        ("gauss:2", 1, 3, 7036, 3217),
        ("nat", 3, 5, 44928**3, 39953),
        ("list:[1,2,2,4,4]", 3, 5, 2016**2, 2151),
    ],
)
def test_pinned_reduced_counts(spec, k, n, count, nodes):
    """The reduced trees, and exact counts the plain search cannot finish
    (nat 3 5 and list:[1,2,2,4,4] 3 5 within a million nodes)."""
    inst = build_instance(parse_sequence(spec), k, n)
    result = count_partitions(inst)
    assert (result.status, result.count, result.nodes) == ("exact", count, nodes)
    # The witness is root 1's cover repeated by offset over every root.
    roots = inst.level_sizes[0]
    per_root, width = len(result.witness) // roots, len(inst.blocks) // roots
    for r in range(roots):
        assert result.witness[r * per_root:(r + 1) * per_root] == tuple(
            b + r * width for b in result.witness[:per_root]
        )
    assert verify_partition(inst, result.witness)
    assert exists_partition(inst).witness == result.witness


def test_reduced_budget_and_cap():
    """A root branch gets its plain twin's share of the node budget, and a
    lower bound L of one root bounds the count by L ** F_k.  A cap stops
    the search once the root count's F_k-th power reaches it."""
    nat = parse_sequence("nat")
    budgeted = count_partitions(build_instance(nat, 2, 5), node_budget=20000)
    assert (budgeted.status, budgeted.count, budgeted.nodes) == ("inconclusive", 2750**2, 2185)
    inst = build_instance(nat, 3, 5)  # 44928 ** 3 partitions
    for cap, status, value in [
        (44928**3, "capped", 44928**3),
        (44928**3 + 1, "exact", 44928**3),
        (44927**3 + 1, "capped", 44927**3 + 1),
        (1000, "capped", 1000),
        (10**400, "exact", 44928**3),
    ]:
        result = count_partitions(inst, cap=cap)
        assert (result.status, result.count) == (status, value)
    assert count_partitions(inst, cap=1000).nodes < count_partitions(inst, cap=10**6).nodes


def test_least_root():
    for e in range(1, 6):
        for x in range(1, 300):
            assert tiling._least_root(x, e) == min(c for c in range(x + 1) if c**e >= x)
    assert tiling._least_root(10**400, 2) == 10**200
    assert tiling._least_root(10**400 + 1, 2) == 10**200 + 1
    assert tiling._least_root(10**400, 1) == 10**400
    assert tiling._least_root(1, 200) == 1


@pytest.mark.parametrize("spec, k, n", [("nat", 2, 4), ("nat", 1, 5), ("nat", 3, 5)])
def test_reduced_parallel_agrees_with_serial(spec, k, n):
    inst = build_instance(parse_sequence(spec), k, n)
    for cap, node_budget in ((None, None), (1000, None), (None, 300), (3, 40)):
        assert count_partitions(inst, cap, 2, node_budget) == count_partitions(inst, cap, 1, node_budget)
    assert exists_partition(inst, jobs=2) == exists_partition(inst)


def brute_force_count(inst) -> int:
    """Exact covers of the chains by the candidate blocks.

    Memoised on the covered set, always branching on the lowest
    uncovered chain: no pivot rule, budget or node count involved.
    """
    masks = [sum(1 << c for c in block.chains) for block in inst.blocks]
    full = (1 << inst.universe_size) - 1

    @functools.lru_cache(maxsize=None)
    def covers(covered: int) -> int:
        if covered == full:
            return 1
        low = (~covered & (covered + 1)).bit_length() - 1
        return sum(covers(covered | m) for m in masks if m >> low & 1 and not m & covered)

    return covers(0)


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from(
        ["nat", "fib", "const:1", "const:2", "const:3", "gauss:2", "list:[1,1,2,2,3,3]", "list:[1,2,2,4,4]"]
    ),
    k=st.integers(0, 4),
    n=st.integers(1, 5),
    sigma=st.sampled_from(["all", "identity"]),
)
def test_counts_match_brute_force(spec, k, n, sigma):
    assume(k < n)
    try:
        inst = build_instance(parse_sequence(spec), k, n, sigma, universe_budget=24)
    except (BudgetError, ValueError):
        assume(False)
    copy = instance_from_json(instance_to_json(inst))
    dropped = dataclasses.replace(
        inst, blocks=tuple(b for i, b in enumerate(inst.blocks) if i % 5 != 2)
    )
    for case in (inst, copy, dropped):
        expected = brute_force_count(case)
        result = count_partitions(case)
        assert (result.status, result.count) == ("exact", expected)
        search = exists_partition(case)
        assert search.status == ("yes" if expected else "no")
        if expected:
            assert verify_partition(case, search.witness)


def test_a_root_without_a_cover_ends_the_search(monkeypatch):
    """(nat, 2, 4) with root 1 keeping only its 12 blocks of sizes (2, 1):
    each chain of root 1 is in some block, but the 3 vertices of level 3
    do not split into pairs.  Existence says no after searching root 1
    alone, and the count is an exact 0."""
    inst = build_instance(parse_sequence("nat"), 2, 4)
    inst = dataclasses.replace(
        inst, blocks=tuple(b for b in inst.blocks if b.root == 2 or b.sizes == (2, 1))
    )
    searched = []
    search = tiling._ExactCover.search

    def recorded(cover, *args):
        searched.append(cover)
        return search(cover, *args)

    monkeypatch.setattr(tiling._ExactCover, "search", recorded)
    result = exists_partition(inst)
    assert result.status == "no" and result.witness is None
    assert len(set(map(id, searched))) == 1
    assert len(searched[0].block_keys) == 12
    assert count_partitions(inst) == TilingCountResult("exact", 0, result.nodes, None)
    assert brute_force_count(inst) == 0
    assert_reference_results(inst, None, 10**6)


def reference_search(inst, cap, node_budget):
    """The search without its subtree memo: (count, witness, exhausted, nodes).

    Each root's blocks are walked alone, every node of them, with the
    same pivot rule and option order as count_partitions.  Every branch
    of every root gets an equal share of the node budget, and the search
    stops at the root when the budget is smaller than the number of root
    branches.  The roots run in order, each until its count reaches
    ceil(cap / product so far), and their counts multiply; a root whose
    count is 0 ends the search.
    """
    span = inst.universe_size // inst.level_sizes[0]
    roots = []
    for r in range(inst.level_sizes[0]):
        chain_blocks = {c: [] for c in range(r * span, (r + 1) * span)}
        for b, block in enumerate(inst.blocks):
            if block.root == r + 1:
                for c in block.chains:
                    chain_blocks[c].append(b)
        fewest = min(chain_blocks.values(), key=len)  # the lowest chain of fewest blocks
        if not fewest:
            return 0, None, False, 1
        roots.append((chain_blocks, fewest))
    budget = node_budget // sum(len(fewest) for _, fewest in roots)
    if not budget:
        return 0, None, True, 1
    total, witness, any_exhausted, total_nodes = 1, (), False, 1
    for chain_blocks, branches in roots:
        target = None if cap is None else -(-cap // total)
        root_count, root_witness = 0, None
        for first in branches:
            count, first_witness, exhausted, nodes = reference_walk(
                inst, chain_blocks, first, budget, target
            )
            root_count += count
            root_witness = root_witness or first_witness
            any_exhausted = any_exhausted or exhausted
            total_nodes += nodes
            if target is not None and root_count >= target:
                break
        if not root_count:
            return 0, None, any_exhausted, total_nodes
        total *= root_count
        witness += root_witness
    return total, witness, any_exhausted, total_nodes


def reference_walk(inst, chain_blocks, first, budget, cap):
    """One root branch of reference_search: (count, witness, exhausted, nodes).

    chain_blocks maps each chain of the root to its blocks, ascending.
    """
    blocks = sorted({b for bs in chain_blocks.values() for b in bs})
    block_chains = {b: set(inst.blocks[b].chains) for b in blocks}
    covered = len(blocks) + 1
    live = {c: len(bs) for c, bs in chain_blocks.items()}
    alive = dict.fromkeys(blocks, True)
    trail, chosen, frames = [], [], []
    count = nodes = 0
    witness = None
    b = first
    while True:
        killed = [x for x in blocks if alive[x] and block_chains[x] & block_chains[b]]
        for x in killed:
            alive[x] = False
            for c in block_chains[x]:
                live[c] -= 1
        for c in block_chains[b]:
            live[c] += covered
        trail.append(killed)
        chosen.append(b)
        nodes += 1
        if nodes > budget:
            return count, witness, True, nodes
        low = min(live.values())
        if 0 < low < covered:
            pivot = next(c for c in live if live[c] == low)
            options = iter([x for x in chain_blocks[pivot] if alive[x]])
            frames.append(options)
            b = next(options)
            continue
        if low:
            count += 1
            witness = witness or tuple(chosen)
            if cap is not None and count >= cap:
                break
        while frames:
            for x in trail.pop():
                alive[x] = True
                for c in block_chains[x]:
                    live[c] += 1
            for c in block_chains[chosen.pop()]:
                live[c] -= covered
            b = next(frames[-1], -1)
            if b >= 0:
                break
            frames.pop()
        else:
            break
    return count, witness, False, nodes


@settings(max_examples=40, deadline=None)
@example(spec="nat", k=2, n=4, sigma="all", node_budget=300, cap=3)
@example(spec="nat", k=2, n=4, sigma="all", node_budget=2000, cap=100)
@example(spec="nat", k=1, n=4, sigma="all", node_budget=5, cap=None)  # 13 root branches
@given(
    spec=st.sampled_from(SPECS),
    k=st.integers(0, 4),
    n=st.integers(1, 5),
    sigma=st.sampled_from(["all", "identity"]),
    node_budget=st.integers(1, 3000),
    cap=st.one_of(st.none(), st.integers(1, 40)),
)
def test_memo_replays_the_reference_search(spec, k, n, sigma, node_budget, cap):
    assume(k < n)
    try:
        inst = build_instance(parse_sequence(spec), k, n, sigma, universe_budget=24)
    except (BudgetError, ValueError):
        assume(False)
    assert_reference_results(plain(inst), cap, node_budget)


def assert_reference_results(inst, cap, node_budget):
    """count_partitions and exists_partition, serial and on two workers,
    give reference_search's status, count, nodes and witness."""
    count, witness, exhausted, nodes = reference_search(inst, cap, node_budget)
    if cap is not None and count >= cap:
        expected = TilingCountResult("capped", cap, nodes, witness)
    else:
        status = "inconclusive" if exhausted else "exact"
        expected = TilingCountResult(status, count, nodes, witness)
    count, witness, exhausted, nodes = reference_search(inst, 1, node_budget)
    status = "yes" if count else "inconclusive" if exhausted else "no"
    expected_search = TilingSearchResult(status, witness, nodes)
    for jobs in (1, 2):
        assert count_partitions(inst, cap, jobs, node_budget) == expected
        assert exists_partition(inst, jobs, node_budget) == expected_search


def _reversed_blocks(blocks):
    blocks.reverse()


def _drop_a_few_per_root(blocks):
    kept = []
    for root, group in itertools.groupby(blocks, key=lambda entry: entry["root"]):
        kept += [entry for i, entry in enumerate(group) if i >= root and i not in (7, 50)]
    blocks[:] = kept


@pytest.mark.parametrize(
    "spec, k, n, edit, cap, node_budget",
    [
        ("nat", 2, 4, _reversed_blocks, None, 10**6),
        ("nat", 2, 4, _reversed_blocks, 3, 300),
        ("gauss:2", 2, 4, _drop_a_few_per_root, 3, 10**6),
    ],
)
def test_blocks_out_of_root_order_keep_the_reference_tree(spec, k, n, edit, cap, node_budget):
    """A root's blocks need not be a contiguous run of the block list.

    Reversed, each root's blocks run in the other order; with r + 2
    blocks of root r dropped, the roots hold different numbers of
    blocks.
    """
    doc = instance_to_json(build_instance(parse_sequence(spec), k, n))
    edit(doc["blocks"])
    assert_reference_results(instance_from_json(doc), cap, node_budget)


def test_count_cap():
    inst = instance_from_json(load_fixture("nat_1_3")["instance"])
    capped = count_partitions(inst, cap=2)
    assert capped.status == "capped"
    assert capped.count == 2
    exact = count_partitions(inst, cap=100)
    assert exact.status == "exact"
    assert exact.count == 4
    with pytest.raises(ValueError):
        count_partitions(inst, cap=0)


def test_node_budget_inconclusive():
    inst = instance_from_json(load_fixture("fib_1_4")["instance"])
    res = count_partitions(inst, node_budget=2)
    assert res.status == "inconclusive"
    search = exists_partition(inst, node_budget=1)
    assert search.status in ("yes", "inconclusive")  # tiny budgets never report "no"
    full = count_partitions(inst)
    assert full.status == "exact" and full.count == 4


def test_node_budget_below_the_root_branches_stops_at_the_root():
    # 876 root branches: a budget of one node enters none of them.
    inst = build_instance(parse_sequence("fib"), 1, 6)
    assert exists_partition(inst, node_budget=1) == TilingSearchResult("inconclusive", None, 1)
    assert count_partitions(inst, node_budget=875) == TilingCountResult("inconclusive", 0, 1, None)


def test_universe_budget_exact_prediction():
    g2 = parse_sequence("gauss:2")
    with pytest.raises(BudgetError) as info:
        build_instance(g2, 0, 9)
    # The refusal carries the running product at the first level past the
    # budget, a lower bound on the whole universe.
    sizes = [1] + [2**p - 1 for p in range(1, 10)]
    bound = next(x for x in itertools.accumulate(sizes, operator.mul) if x > info.value.budget)
    assert info.value.unit == "universe chains"
    assert info.value.predicted == bound == 615195 < math.prod(sizes)
    assert str(info.value) == "at least 615195 universe chains exceed the budget of 100000"


def test_universe_budget_comes_before_the_admissibility_scan(monkeypatch):
    # The scan is quadratic in n: about 49 s for fib at n = 1000.
    def no_scan(seq, bound):
        raise AssertionError("the admissibility scan ran before the universe budget")

    monkeypatch.setattr(tiling, "is_cobweb_admissible", no_scan)
    with pytest.raises(BudgetError) as info:
        build_instance(parse_sequence("fib"), 600, 601)
    assert info.value.unit == "universe chains"


def test_block_budget():
    fib = parse_sequence("fib")
    with pytest.raises(BudgetError) as info:
        build_instance(fib, 1, 4, block_budget=5)
    assert info.value.unit == "candidate blocks"
    assert info.value.predicted == 9  # 6 + 3 product sets before deduplication
    assert str(info.value) == "9 candidate blocks exceed the budget of 5"


def test_verify_partition():
    inst = instance_from_json(load_fixture("nat_1_3")["instance"])
    witness = exists_partition(inst).witness
    assert verify_partition(inst, witness)
    assert not verify_partition(inst, witness[:-1])  # leaves chains uncovered
    assert not verify_partition(inst, list(witness) + [0, 1])  # overlaps
    assert not verify_partition(inst, [])
    with pytest.raises(ValueError):
        verify_partition(inst, [len(inst.blocks)])
    with pytest.raises(ValueError):
        verify_partition(inst, ["0"])


def test_verify_partition_rejects_bools():
    """False and True are ints to isinstance, but not block indices: the one
    block of (const:1, 0, 3) tiles its one chain, and [False] must not."""
    inst = build_instance(parse_sequence("const:1"), 0, 3)
    assert verify_partition(inst, [0])
    for flag in (False, True):
        with pytest.raises(ValueError, match="foreign block"):
            verify_partition(inst, [flag])


@pytest.mark.parametrize("spec, n", [("gauss:3", 4), ("gauss:2", 5)])
def test_impossible_size_tuples_build_no_subsets(spec, n):
    # One size tuple, the identity, makes the whole universe one block.
    # Every other asks some level for more vertices than it holds, and
    # listing the subsets of its other levels (up to C(40, 13), about
    # 1.2e10 of them, for gauss:3) would exhaust memory under a block
    # budget that predicts a single block.
    tracemalloc.start()
    try:
        inst = build_instance(parse_sequence(spec), 0, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(inst.blocks) == 1
    assert inst.blocks[0].chains == tuple(range(inst.universe_size))
    assert peak < 20_000_000


def test_non_admissible_sequence_rejected():
    with pytest.raises(ValueError, match="3/2"):
        build_instance(parse_sequence("list:[2,3,4,5]"), 0, 2)


def test_bad_arguments():
    nat = parse_sequence("nat")
    with pytest.raises(ValueError):
        build_instance(nat, 2, 2)
    with pytest.raises(ValueError):
        build_instance(nat, -1, 2)
    with pytest.raises(ValueError):
        build_instance(nat, 1, 3, sigma_policy="some")
    inst = build_instance(nat, 1, 2)
    with pytest.raises(ValueError):
        exists_partition(inst, jobs=0)
    with pytest.raises(ValueError):
        count_partitions(inst, node_budget=0)


def test_instance_round_trip():
    inst = build_instance(parse_sequence("fib"), 1, 4)
    doc = json.loads(json.dumps(instance_to_json(inst)))
    assert instance_from_json(doc) == inst


def test_tampered_fixture_rejected():
    doc = instance_to_json(build_instance(parse_sequence("nat"), 1, 3))
    doc["blocks"][0]["chains"][0] = 5  # no longer matches the product set
    with pytest.raises(ValueError):
        instance_from_json(doc)


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["chains"].reverse(),
        lambda doc: doc["chains"].pop(),
        lambda doc: doc["chains"][1].__setitem__(2, 3),
    ],
    ids=["reversed", "short", "repeated"],
)
def test_chain_list_must_be_the_level_product(edit):
    doc = instance_to_json(build_instance(parse_sequence("nat"), 1, 3))
    edit(doc)
    with pytest.raises(ValueError, match="product of the level ranges"):
        instance_from_json(doc)


def _with_block_0(root, subsets, chains) -> dict:
    """(nat, 1, 3) with block 0 (root 1 x {1} x {1, 2}, chains [0, 1]) edited.

    Each edit in the tests below passes chains equal to the mixed-radix
    values of its entries, so only the entry checks can reject it.
    """
    doc = instance_to_json(build_instance(parse_sequence("nat"), 1, 3))
    doc["blocks"][0].update(root=root, subsets=subsets, chains=chains)
    return doc


@pytest.mark.parametrize(
    "root, subsets, chains, match",
    [
        (2, [[1], [1, 2]], [6, 7], "inside a level"),  # level k holds one vertex
        (1, [[1], [3, 4]], [2, 3], "inside a level"),  # 4 would alias chain 3
        (1, [[0], [1, 2]], [-3, -2], "inside a level"),
        (1, [[1]], [0], "one subset per level"),
    ],
)
def test_block_entries_must_lie_in_their_levels(root, subsets, chains, match):
    with pytest.raises(ValueError, match=match):
        instance_from_json(_with_block_0(root, subsets, chains))


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda doc: doc.update(block_size=0), "block size"),  # count would divide by 0
        (lambda doc: doc.update(block_size=4), "block size"),  # blocks hold 2 chains
        (lambda doc: doc["blocks"][0].update(sizes=[7, 9]), "subset lengths"),
        (lambda doc: doc.update(sigma_policy="bogus"), "sigma_policy"),
        (lambda doc: doc.update(k=5), "do not span"),  # three level sizes
        (lambda doc: doc["blocks"].append(doc["blocks"][0]), "twice"),  # a fifth partition
    ],
    ids=["block-size-0", "block-size-4", "sizes", "sigma-policy", "k", "repeated-block"],
)
def test_instance_fields_must_agree_with_the_blocks(edit, match):
    doc = instance_to_json(build_instance(parse_sequence("nat"), 1, 3))
    edit(doc)
    with pytest.raises(ValueError, match=match):
        instance_from_json(doc)


@pytest.mark.parametrize(
    "k, n, sizes, match",
    [
        (1, 2, [0, 1], "level sizes must be >= 1"),  # no roots: a budget shared by 0 branches
        (1, 2, [1, 0], "level sizes must be >= 1"),  # a root of no chains, the min of none
        (1, 2, [-1, 2], "level sizes must be >= 1"),  # a universe of -2 chains
        (1, 0, [], "need 0 <= k < n, got k=1, n=0"),  # no level k to hold a root
    ],
)
def test_instance_levels_must_be_searchable(k, n, sizes, match):
    """Each of these documents agrees with itself, but no search can run
    over its levels; loaded, count_partitions raised ZeroDivisionError,
    ValueError, ZeroDivisionError and IndexError."""
    chains = [list(c) for c in itertools.product(*(range(1, s + 1) for s in sizes))]
    doc = {"sequence": "nat", "k": k, "n": n, "sigma_policy": "all", "level_sizes": sizes,
           "block_size": 1, "chains": chains, "blocks": []}
    with pytest.raises(ValueError, match=match):
        instance_from_json(doc)


def test_a_chain_in_no_block_has_no_partition():
    # One block of 4 of the 6 chains of (nat, 1, 3); chain 2 lies in no block.
    doc = instance_to_json(build_instance(parse_sequence("nat"), 1, 3))
    doc["block_size"] = 4
    doc["blocks"] = [{"root": 1, "sizes": [2, 2], "subsets": [[1, 2], [1, 2]], "chains": [0, 1, 3, 4]}]
    inst = instance_from_json(doc)
    assert count_partitions(inst) == TilingCountResult("exact", 0, 1, None)
    assert exists_partition(inst) == TilingSearchResult("no", None, 1)


@pytest.mark.parametrize("subset, chains", [([2, 1], [1, 0]), ([1, 1], [0, 0])])
def test_block_subsets_must_be_strictly_ascending(subset, chains):
    with pytest.raises(ValueError, match="strictly ascending"):
        instance_from_json(_with_block_0(1, [[1], subset], chains))


def test_witness_serialization():
    inst = instance_from_json(load_fixture("fib_1_4")["instance"])
    witness = exists_partition(inst).witness
    doc = witness_to_json(inst, witness)
    assert doc["block_indices"] == list(witness)
    flat = sorted(c for chains in doc["blocks"] for c in chains)
    assert flat == list(range(inst.universe_size))


def test_dedup_under_equal_sizes():
    # const:2 makes <F_1, F_2> = <2, 2>; both permutations coincide
    inst = build_instance(parse_sequence("const:2"), 0, 2)
    sigs = [b.chains for b in inst.blocks]
    assert len(sigs) == len(set(sigs))
    assert len(inst.blocks) == 1  # C(2,2) * C(2,2) for the single size tuple
    assert count_partitions(inst).count == 1


def test_root_level_zero_shares_root_vertex():
    # k = 0 chains all start at the root; blocks stay chain-disjoint anyway
    inst = build_instance(parse_sequence("nat"), 0, 3)
    assert inst.level_sizes[0] == 1
    res = exists_partition(inst)
    if res.status == "yes":
        assert verify_partition(inst, res.witness)
