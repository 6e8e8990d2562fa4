"""Tests of the benchmark itself: its oracles, its tracer, its self-time sums.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import Workload, launch, percentile_tail, tail_samples  # noqa: E402

from cobweb import cli, layer_grid  # noqa: E402
from cobweb.poset import CobwebPoset  # noqa: E402
from cobweb.sequences import parse_sequence  # noqa: E402

# Known defects the benchmark keeps visible (the int-to-str limit, a
# recursive search, and an incomplete count that exits 0 once it has found
# a partition); their oracles are checked on their own below.
KNOWN_DEFECTS = ("fnomial fib 300 150", "tile nat 40 41", "tile nat 2 5 --count --node-budget 20000")


def run_in_process(argv):
    if argv[0] == "lib.count_chains_of_length":
        value = CobwebPoset(parse_sequence(argv[1]), int(argv[2])).count_chains_of_length(int(argv[3]))
        return 0, f"{value}\n"
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue()


@pytest.mark.parametrize("name", ["algebra", "tiling", "point"])
def test_oracles_agree_with_the_package(name):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the oracle side prints integers of any size
    try:
        queries = workloads.WORKLOADS[name](random.Random(f"{name}:7"))
    finally:
        sys.set_int_max_str_digits(old)
    for q in queries:
        if q.label.startswith(KNOWN_DEFECTS):
            continue
        rc, out = run_in_process(q.argv)
        assert Workload.problem(q, rc, None, out) is None, q.label


def test_known_defect_oracles():
    F = oracle.seq_values("fib", 300)
    value = math.prod(F[151:301]) // math.prod(F[1:151])
    assert oracle.fnomial(F, 300, 150) == value == oracle.pascal("fib", 300)[300][150]
    assert value.bit_length() * math.log10(2) > 4300  # past Python's default int-to-str limit
    # Every chain of nat 40 41 is a block on its own, so the singletons tile.
    singletons = [[c] for c in range(40 * 41)]
    assert oracle.check_witness(singletons, "nat", 40, 41, "all") is None
    # A budgeted count with partitions found is still incomplete: exit 3.
    q = next(q for q in workloads.tiling(random.Random(0)) if "--node-budget" in q.argv)
    found = "yes\ncount: >=2915 (search incomplete)\n"
    assert Workload.problem(q, 3, None, found) is None
    assert Workload.problem(q, 0, None, found) == "exit 0, expected 3"
    assert Workload.problem(q, 3, None, "yes\ncount: 17424\n") is not None


def test_tail_is_read_from_the_fastest_passes():
    w = Workload.__new__(Workload)
    w.name = "point"
    w.passes = [[float(i)] * 3 for i in range(20)]  # pass i: three samples of i ms
    walls = [20.0 - i for i in range(20)]  # the later the pass, the faster
    pool = tail_samples(w, walls)
    assert sorted(set(pool)) == list(range(9, 20))  # the eleven fastest
    w.name = "algebra"
    assert sorted(set(tail_samples(w, walls))) == list(range(10, 20))  # the faster half
    assert percentile_tail(list(range(100))) == (89, 90.0, 100)
    assert percentile_tail([5.0, 1.0]) == (5.0, 100.0, 2)


def count_covers(spec, k, n, sigma="all"):
    """Exact covers of the chains of (spec, k, n) by product blocks, memoized on the cover."""
    sizes = oracle.tile_universe(spec, k, n)
    base = oracle.seq_values(spec, n - k)[1:]
    chains = list(itertools.product(*(range(s) for s in sizes)))
    index = {c: i for i, c in enumerate(chains)}
    orders = [tuple(base)] if sigma == "identity" else set(itertools.permutations(base))
    masks = set()
    for root in range(sizes[0]):
        for order in orders:
            pools = [itertools.combinations(range(s), t) for s, t in zip(sizes[1:], order)]
            for subsets in itertools.product(*map(list, pools)):
                masks.add(sum(1 << index[(root, *js)] for js in itertools.product(*subsets)))
    by_low = {}
    for m in masks:
        by_low.setdefault((m & -m).bit_length() - 1, []).append(m)
    full = (1 << len(chains)) - 1
    memo = {full: 1}

    def count(covered):
        if covered not in memo:
            low = (~covered & (covered + 1)).bit_length() - 1
            memo[covered] = sum(count(covered | m) for m in by_low.get(low, ()) if not m & covered)
        return memo[covered]

    return count(0)


@pytest.mark.parametrize("key", [k for k, v in oracle.TILING_COUNTS.items() if v <= 20000])
def test_tiling_counts_recounted(key):
    assert count_covers(*key) == oracle.TILING_COUNTS[key]


@pytest.mark.parametrize("key", sorted(oracle.TILEABLE - {("nat", 40, 41)}))
def test_tileable_instances_have_checked_witnesses(key):
    spec, k, n = key
    rc, out = run_in_process(["tile", spec, str(k), str(n), "--witness"])
    assert rc == 0
    assert oracle.check_tile(out, spec, k, n, "all", count=False, witness=True, fmt="text") is None


def test_identity_policy_count():
    assert count_covers("nat", 1, 3, "identity") == oracle.IDENTITY_COUNTS[("nat", 1, 3)] == 0


def test_witness_check_rejects_bad_covers():
    good = [[0, 1], [2, 5], [3, 4]]  # nat 1 3, as the CLI prints it
    assert oracle.check_witness(good, "nat", 1, 3, "all") is None
    assert oracle.check_witness(good[:2], "nat", 1, 3, "all") is not None
    assert oracle.check_witness([[0, 1], [1, 2], [3, 4], [5]], "nat", 1, 3, "all") is not None
    assert oracle.check_witness([[0, 4], [1, 3], [2, 5]], "nat", 1, 3, "all") is not None


def span(name, start, end, parent, layer="cli", kind="call", info=None, site=None):
    return [name, layer, site or layer, start, end, parent, 0, kind, info]


def test_self_time_on_a_nested_trace():
    spans = [
        span("cli.main", 0.0, 10.0, -1),
        span("fnomial.FNomialTable.__init__", 1.0, 4.0, 0, "fnomial", info={"rows": 5}),
        span("fnomial.FNomialTable.fnomial", 2.0, 3.0, 1, "fnomial"),
        span("poset.invert_unit_upper", 5.0, 9.0, 0, "poset", site="layer_grid"),
        span("cli.sink.write", 11.0, 11.5, -1, kind="write"),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 0.5]
    m = tracing.summarize(spans, 12.0, [10.2, 0.6], 42, 1e-3)
    assert m["cli.self_s"] == 3.5 and m["cli.calls"] == 1
    assert m["fnomial.self_s"] == 3.0 and m["fnomial.calls"] == 2
    assert m["poset.self_s"] == 4.0
    assert m["fnomial.tables"] == 1 and m["fnomial.table_rows"] == 5 and m["fnomial.coeffs"] == 1
    assert m["layer_grid.invert_s"] == 4.0 and m["poset.invert_s"] == 0.0
    assert m["cli.output_s"] == 0.5 and m["cli.stdout_bytes"] == 42
    assert m["bench.self_s"] == pytest.approx(12.0 - 10.8)
    assert m["trace.unaccounted_s"] == pytest.approx(10.8 - 10.5)
    assert m["trace.overhead_s"] == pytest.approx(5e-3)
    layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers == 10.5
    assert m["trace.wall_s"] == 12.0
    assert layers + m["bench.self_s"] + m["trace.unaccounted_s"] == pytest.approx(12.0)


def test_span_cost_is_a_small_positive_time():
    assert 0 < tracing.span_cost(calls=2000, repeats=3) < 1e-3


def test_overlapping_children_count_once():
    spans = [span("a", 0.0, 10.0, -1), span("b", 1.0, 5.0, 0), span("c", 3.0, 7.0, 0)]
    assert tracing.self_times(spans)[0] == 10.0 - 6.0


def test_tracer_covers_names_bound_by_the_cli():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.whitney_first is not layer_grid.whitney_first
        rc, out = run_in_process(["grid", "2", "3", "--whitney"])
        chains = list(CobwebPoset(parse_sequence("nat"), 3).enumerate_max_chains(1, 3))
    finally:
        tracer.uninstall()
    assert rc == 0 and out == oracle.grid_out(2, 3, "whitney", "text")
    names = {(r[tracing.NAME], r[tracing.SITE]) for r in tracer.spans}
    assert ("layer_grid.whitney_first", "cli") in names
    assert ("layer_grid.whitney_first", "layer_grid") not in names
    assert ("poset.invert_unit_upper", "layer_grid") in names
    assert ("cli.parse_args", "cli") in names
    m = tracing.summarize(tracer.spans, 1.0, [1.0], 0, 0.0)
    assert m["poset.chains_emitted"] == len(chains) == 6
    assert m["layer_grid.grids_built"] == 5  # one grid per rank
    assert cli.whitney_first.__module__ == "cobweb.layer_grid" and not hasattr(cli.whitney_first, "__wrapped__")


def test_peak_rss_is_the_workers_own():
    ballast = bytearray(96 * 1024 * 1024)
    ballast[::4096] = b"\1" * len(ballast[::4096])  # touch every page
    reply, _ = launch({"queries": [["fnomial", "nat", "5", "2"]], "trace_file": None})
    assert reply["results"][0][3] == "10\n"
    assert reply["peak_rss_kb"] < 64 * 1024
