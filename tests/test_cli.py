"""Exit codes, text formats, and JSON schema of the command line."""
import contextlib
import dataclasses
import decimal
import functools
import io
import itertools
import json
import math
import os
import pathlib
import resource
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cobweb
from cobweb import (
    CobwebPoset,
    build_instance,
    cli,
    count_partitions,
    exists_partition,
    parse_sequence,
)
from cobweb.cli import main
from oracles import (
    bell_by_triangle,
    chains_by_product,
    fnomial_by_factorials,
    invert_unit_upper,
    leading,
    leq,
    level_major,
    render,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fnomial_text(capsys):
    code, out, err = run(capsys, "fnomial", "fib", "5", "2")
    assert (code, out, err) == (0, "15\n", "")


def test_fnomial_non_integer_is_an_answer(capsys):
    code, out, _ = run(capsys, "fnomial", "list:[2,3,4,5]", "2", "1")
    assert code == 0
    assert out == "non-integer: 3/2\n"


def test_fnomial_json(capsys):
    code, out, _ = run(capsys, "fnomial", "fib", "5", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"sequence": "fib", "n": 5, "k": 2, "integer": True, "value": 15}


def test_fnomial_json_non_integer(capsys):
    _, out, _ = run(capsys, "fnomial", "odd", "4", "2", "--format", "json")
    doc = json.loads(out)
    assert doc["integer"] is False
    assert doc["value"] == "35/3"
    assert (doc["numerator"], doc["denominator"]) == (35, 3)


def test_fnomial_domain_error(capsys):
    # A list that ends before n has no coefficient there, even at k = 0 or k = n.
    for argv in (["fib", "2", "5"], ["list:[2,3]", "5", "0"], ["list:[2,3]", "5", "5"]):
        code, out, err = run(capsys, "fnomial", *argv)
        assert code == 1
        assert out == ""
        assert "error" in err


def test_fnomial_builds_no_factorial_table(capsys):
    # F_2000 has 418 digits; the F-factorials up to 2000_F! would take about 120 MB.
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "fnomial", "fib", "2000", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert int(out) == parse_sequence("fib").value(2000)
    assert peak < 5_000_000


def test_bad_sequence_is_usage_error(capsys):
    code, _, err = run(capsys, "fnomial", "nope", "2", "1")
    assert code == 2
    assert "nope" in err
    assert "list:[v1,v2,...]" in err  # the expected grammar is spelled out


def test_usage_error_from_argparse(capsys):
    with pytest.raises(SystemExit) as info:
        main(["fnomial", "fib", "5"])  # missing k
    assert info.value.code == 2


def test_admissible_text(capsys):
    code, out, _ = run(capsys, "admissible", "fib", "--max", "20")
    assert (code, out) == (0, "admissible up to 20\n")
    code, out, _ = run(capsys, "admissible", "list:[2,3,4,5]", "--max", "4")
    assert code == 0
    assert out == "not admissible: (2 1)_F = 3/2; admissible up to 1\n"
    code, out, err = run(capsys, "admissible", "list:[2,3,4,5]", "--max", "10")
    assert (code, out) == (1, "")
    assert "defines values for n <= 4" in err


def test_admissible_json(capsys):
    _, out, _ = run(capsys, "admissible", "odd", "--max", "6", "--format", "json")
    doc = json.loads(out)
    assert doc["admissible"] is False
    assert doc["failure"] == {"n": 4, "k": 2, "quotient": "35/3"}
    assert doc["admissible_up_to"] == 3


def test_gcdmorphic_text(capsys):
    code, out, _ = run(capsys, "gcdmorphic", "fib", "--max", "30")
    assert (code, out) == (0, "gcd-morphic up to 30\n")
    code, out, _ = run(capsys, "gcdmorphic", "list:[2,3,4]", "--max", "3")
    assert code == 0
    assert out.startswith("not gcd-morphic: GCD(F_2, F_1) = 1, expected 2")


def test_zeta_golden_fixture(capsys):
    code, out, _ = run(capsys, "zeta", "fib", "--levels", "6", "--size", "16")
    assert code == 0
    assert out == (FIXTURES / "fib_zeta_16.txt").read_text()


def test_zeta_size_builds_only_the_leading_block(capsys):
    # fib at 22 levels has 46368 vertices; the whole matrix would not fit
    # in memory, the leading 16 x 16 block takes a few kilobytes.
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "zeta", "fib", "--levels", "22", "--size", "16")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out == (FIXTURES / "fib_zeta_16.txt").read_text()
    assert peak < 2_000_000


class CountingSink(io.TextIOBase):
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, s):
        self.chars += len(s)
        return len(s)


@pytest.mark.parametrize("fmt, chars, bound", [
    ("json", 11_247_171, 2_000_000),
    ("text", 8_690_308, 2_000_000),
], ids=["json", "text"])
def test_whole_matrix_memory_is_its_text(fmt, chars, bound):
    # fib at 15 levels has 1596 vertices, so 2547216 entries.  Rows are
    # written one at a time in either form.  Built as one int per entry,
    # either took over 40 MiB; the text form built as one string, 17.5 MB.
    sink = CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(["mobius", "fib", "--levels", "15", "--format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, sink.chars) == (0, chars)
    assert peak < bound


@pytest.mark.parametrize("which", ["zeta", "mobius"])
def test_whole_matrix_over_the_entry_budget_exits_3(capsys, which):
    # fib at 18 levels has 6765 vertices, so 45765225 entries; the
    # refusal comes before any row is built.
    code, out, err = run(capsys, which, "fib", "--levels", "18")
    assert (code, out) == (3, "")
    assert err == "inconclusive: 45765225 matrix entries exceed the budget of 20000000\n"


@pytest.mark.parametrize("which", ["zeta", "mobius"])
@pytest.mark.parametrize("size", ["-1", "14"])
def test_matrix_size_out_of_range(capsys, which, size):
    code, out, err = run(capsys, which, "fib", "--levels", "5", "--size", size)
    assert (code, out) == (1, "")
    assert err == f"error: size must be between 0 and 13, got {size}\n"


def test_zeta_json(capsys):
    _, out, _ = run(capsys, "zeta", "nat", "--levels", "2", "--format", "json")
    doc = json.loads(out)
    assert doc["order"] == [[1, 0], [1, 1], [1, 2], [2, 2]]
    assert doc["rows"] == [[1, 1, 1, 1], [0, 1, 1, 1], [0, 0, 1, 0], [0, 0, 0, 1]]


def test_mobius_inverts_zeta_via_cli(capsys):
    _, zout, _ = run(capsys, "zeta", "fib", "--levels", "4", "--format", "json")
    _, mout, _ = run(capsys, "mobius", "fib", "--levels", "4", "--format", "json")
    z = json.loads(zout)["rows"]
    m = json.loads(mout)["rows"]
    n = len(z)
    prod = [
        [sum(z[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)
    ]
    assert prod == [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def test_chains_count_and_enumerate(capsys):
    code, out, _ = run(capsys, "chains", "gauss:2", "--from", "0", "--to", "4")
    assert (code, out) == (0, "315\n")
    code, out, _ = run(capsys, "chains", "fib", "--from", "3", "--to", "4", "--enumerate")
    assert code == 0
    assert out.splitlines() == [
        "(1,3) (1,4)",
        "(1,3) (2,4)",
        "(1,3) (3,4)",
        "(2,3) (1,4)",
        "(2,3) (2,4)",
        "(2,3) (3,4)",
    ]


def test_chains_enumerate_json(capsys):
    _, out, _ = run(
        capsys, "chains", "nat", "--from", "1", "--to", "2", "--enumerate",
        "--format", "json",
    )
    doc = json.loads(out)
    assert doc["count"] == 2
    assert doc["chains"] == [[[1, 1], [1, 2]], [[1, 1], [2, 2]]]


def test_chains_budget_exit_3(capsys):
    code, out, err = run(capsys, "chains", "gauss:2", "--from", "0", "--to", "7", "--enumerate")
    assert code == 3
    assert out == ""
    # levels 0..6 already hold 1*1*3*7*15*31*63 > 100000 chains (of 78129765)
    assert "inconclusive" in err and "at least 615195 chains" in err


def test_chains_refused_json_prints_nothing(capsys):
    code, out, err = run(
        capsys, "chains", "gauss:2", "--from", "0", "--to", "7", "--enumerate",
        "--format", "json",
    )
    assert (code, out) == (3, "")
    assert "inconclusive" in err and "at least 615195 chains" in err


class PieceSink(io.TextIOBase):
    """A stdout that keeps each piece written to it."""

    def __init__(self):
        self.pieces = []

    def write(self, s):
        self.pieces.append(s)
        return len(s)


def test_chains_enumerate_json_holds_no_chain_list():
    # 8! chains.  Held in a list to be counted and written as one string,
    # they peaked at 11.7 MiB; the count is the product of the level sizes.
    sink = CountingSink()
    argv = ["chains", "nat", "--from", "1", "--to", "8", "--enumerate", "--format", "json"]
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2**20


@pytest.mark.parametrize("argv", [
    ["chains", "nat", "--from", "1", "--to", "8", "--enumerate"],
    ["zeta", "fib", "--levels", "13"],
], ids=["chains", "zeta"])
def test_json_arrays_are_written_an_entry_at_a_time(argv):
    sink = PieceSink()
    with contextlib.redirect_stdout(sink):
        assert main([*argv, "--format", "json"]) == 0
    doc = json.loads("".join(sink.pieces))
    key = list(doc)[-1]
    entries = doc[key]
    if key == "chains":
        assert doc["count"] == len(entries) == 40320
    head = json.dumps({**doc, key: []})
    assert max(map(len, sink.pieces)) <= len(head) + max(len(json.dumps(e)) for e in entries)


def test_empty_matrix_block_json(capsys):
    out = '{"sequence": "fib", "levels": 3, "matrix": "zeta", "order": [], "rows": []}\n'
    assert run(capsys, "zeta", "fib", "--levels", "3", "--size", "0", "--format", "json") == (0, out, "")


def test_chains_enumerate_streams(capsys, monkeypatch):
    # Each chain is printed before the next one is generated.
    real = CobwebPoset.enumerate_max_chains

    def watched(self, *args):
        for i, chain in enumerate(real(self, *args)):
            assert capsys.readouterr().out.count("\n") == (1 if i else 0)
            yield chain

    monkeypatch.setattr(CobwebPoset, "enumerate_max_chains", watched)
    code, out, _ = run(capsys, "chains", "nat", "--from", "1", "--to", "3", "--enumerate")
    assert (code, out) == (0, "(1,1) (2,2) (3,3)\n")


def test_chains_enumerate_text_bytes(capsys):
    code, out, err = run(capsys, "chains", "nat", "--from", "1", "--to", "5", "--enumerate")
    expected = "".join(
        " ".join(f"({j},{p})" for p, j in enumerate(js, start=1)) + "\n"
        for js in itertools.product(*(range(1, p + 1) for p in range(1, 6)))
    )
    assert (code, out, err) == (0, expected, "")
    assert out.count("\n") == 120


def test_closed_stdout_exits_1_without_a_traceback():
    # 5040 chains, far more than a pipe buffer holds: the CLI is still
    # writing when the reader goes away.
    src = str(pathlib.Path(cobweb.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["chains", "nat", "--from", "1", "--to", "7", "--enumerate"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "cobweb.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert first == b"(1,1) (1,2) (1,3) (1,4) (1,5) (1,6) (1,7)\n"
    assert "Traceback" not in err and "Exception ignored" not in err, err


CLOSED_STDOUT_CASES = [
    ("zeta fib --levels 4", 0),
    ("mobius nat --levels 3 --size 5", 0),
    ("zeta fib --levels 18", 3),
    ("chains nat --from 1 --to 4 --enumerate", 0),
    # 9! chains: the enumeration is refused when the handler asks for it,
    # before the answer starts.
    ("chains nat --from 1 --to 9 --enumerate", 3),
    ("tile nat 1 3 --witness", 0),
    ("tile nat 2 5 --count --witness --node-budget 5", 3),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("line, code", CLOSED_STDOUT_CASES, ids=[line for line, _ in CLOSED_STDOUT_CASES])
def test_closed_stdout_still_computes_the_exit_code(line, code, fmt):
    # Started with stdout closed, the interpreter's sys.stdout is None: the
    # answer is computed, written nowhere, and exits with its own code.
    src = str(pathlib.Path(cobweb.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "cobweb.cli", *line.split(), "--format", fmt],
        stderr=subprocess.PIPE, env=env, preexec_fn=lambda: os.close(1), timeout=60,
    )
    err = proc.stderr.decode()
    assert proc.returncode == code, err
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_tile_universe_is_not_held_as_a_chain_list(capsys):
    # nat 315 316: 99540 chains in one root's 316 singleton blocks.  Its
    # tuple of chain tuples, built only to be counted, peaked at 10.0 MiB.
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "tile", "nat", "315", "316")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (0, "yes\n")
    assert peak < 6 * 2**20


def test_grid_outputs(capsys):
    assert run(capsys, "grid", "1", "2")[:2] == (0, "3\n")
    assert run(capsys, "grid", "1", "2", "--bell")[:2] == (0, "3\n")
    assert run(capsys, "grid", "2", "4", "--maxchains")[:2] == (0, "9\n")
    code, out, _ = run(capsys, "grid", "1", "2", "--whitney")
    assert code == 0
    assert out == "# rank whitney2 whitney1\n0 1 1\n1 1 -1\n2 1 0\n"


def test_grid_json(capsys):
    _, out, _ = run(capsys, "grid", "2", "4", "--whitney", "--format", "json")
    doc = json.loads(out)
    assert doc["size"] == 9
    assert sum(r["whitney_second"] for r in doc["ranks"]) == 9
    assert sum(r["whitney_first"] for r in doc["ranks"]) == 0


def test_grid_domain_error(capsys):
    code, _, err = run(capsys, "grid", "3", "2")
    assert code == 1
    assert "error" in err


def test_diagonal_text(capsys):
    code, out, _ = run(capsys, "diagonal", "nat", "--n", "8")
    assert (code, out) == (0, "1 1 2 3 5 8 13 21 34\n")
    code, out, _ = run(capsys, "diagonal", "fib", "--n", "4", "--triangle")
    assert out.splitlines() == ["1", "1", "1 1", "1 1", "1 2 1"]


def test_diagonal_json(capsys):
    _, out, _ = run(capsys, "diagonal", "nat", "--n", "6", "--format", "json")
    doc = json.loads(out)
    assert doc["bells"] == [1, 1, 2, 3, 5, 8, 13]
    assert "triangle" not in doc


def test_tile_yes_with_witness(capsys):
    code, out, _ = run(capsys, "tile", "nat", "1", "3", "--count", "--witness")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "yes"
    assert lines[1] == "count: 4"
    blocks = [line for line in lines if line.startswith("block: ")]
    covered = sorted(int(c) for line in blocks for c in line.split()[1:])
    assert covered == list(range(6))


@pytest.mark.parametrize(
    "flags, count_line, code",
    [((), "count: 4", 0), (("--node-budget", "10"), "count: >=3 (search incomplete)", 3)],
)
def test_tile_count_witness_is_one_search(capsys, monkeypatch, flags, count_line, code):
    """--count --witness prints the count's own first partition, the one
    existence finds, without running a second search."""
    inst = build_instance(parse_sequence("nat"), 1, 3)
    witness = exists_partition(inst, node_budget=int(flags[1]) if flags else None).witness
    blocks = [" ".join(str(c) for c in inst.blocks[b].chains) for b in witness]
    expected = "".join(f"{line}\n" for line in ["yes", count_line] + [f"block: {b}" for b in blocks])

    searches = []

    def one_search(*args, **kwargs):
        searches.append(args)
        return count_partitions(*args, **kwargs)

    monkeypatch.setattr(cli, "count_partitions", one_search)
    assert run(capsys, "tile", "nat", "1", "3", "--count", "--witness", *flags) == (code, expected, "")
    assert len(searches) == 1


def test_tile_no(capsys):
    code, out, _ = run(capsys, "tile", "nat", "1", "3", "--sigma", "identity")
    assert (code, out) == (0, "no\n")


def test_tile_json(capsys):
    _, out, _ = run(
        capsys, "tile", "fib", "1", "4", "--count", "--witness", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["verdict"] == "yes"
    assert doc["universe"] == 6
    assert doc["count"] == {"status": "exact", "value": 4}
    flat = sorted(c for chains in doc["witness"]["blocks"] for c in chains)
    assert flat == list(range(6))


def test_tile_inconclusive_exit_3(capsys):
    code, out, _ = run(capsys, "tile", "fib", "1", "4", "--node-budget", "1")
    assert code == 3
    assert out.splitlines()[0] == "inconclusive"


def test_tile_incomplete_count_exit_3(capsys):
    # a partition turns up before the node budget runs out, so the verdict
    # is "yes", but the count is only a lower bound
    code, out, _ = run(capsys, "tile", "nat", "1", "3", "--count", "--node-budget", "10")
    assert (code, out) == (3, "yes\ncount: >=3 (search incomplete)\n")
    code, out, _ = run(
        capsys, "tile", "nat", "1", "3", "--count", "--node-budget", "10", "--format", "json"
    )
    assert code == 3
    assert json.loads(out)["count"] == {"status": "inconclusive", "value": 3}


def test_tile_count_replays_repeated_subtrees(capsys):
    # Most of the search revisits covered-chain sets it has finished
    # before; the search over both roots took about 32 s when every visit
    # was walked again.  The CLI searches one root of the two, one block
    # per orbit at its root, so its lower bound is a square.  A copy that
    # keeps the built blocks takes the same search.
    start = time.perf_counter()
    code, out, err = run(capsys, "tile", "nat", "2", "5", "--count")
    assert (code, out, err) == (3, "yes\ncount: >=29010264976 (search incomplete)\n", "")
    assert time.perf_counter() - start < 5
    start = time.perf_counter()
    result = count_partitions(dataclasses.replace(build_instance(parse_sequence("nat"), 2, 5)))
    assert (result.status, result.count) == ("inconclusive", 170324**2)
    assert time.perf_counter() - start < 5


def test_tile_many_equal_level_sizes(capsys):
    # <F_1..F_13> = <1, ..., 1> has one distinct permutation, not 13!.
    start = time.perf_counter()
    assert run(capsys, "tile", "const:1", "0", "13") == (0, "yes\n", "")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("n", [41, 61])
def test_tile_search_deeper_than_the_recursion_limit(capsys, n):
    # Singleton blocks only, 1640 and 3660 of them, more than the
    # interpreter's recursion limit.  A built instance searches root 1
    # alone, one level per chain: 41 and 61 levels deep.
    limit = sys.getrecursionlimit()
    code, out, err = run(capsys, "tile", "nat", str(n - 1), str(n))
    assert (code, out, err) == (0, "yes\n", "")
    code, out, err = run(capsys, "tile", "nat", str(n - 1), str(n), "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["verdict"] == "yes"
    assert doc["universe"] == doc["candidate_blocks"] > limit
    assert sys.getrecursionlimit() == limit


def test_tile_one_root_deeper_than_the_recursion_limit(capsys):
    # One root of 1500 singleton blocks: the search descends one level per
    # chain, 1500 levels, more than the interpreter's recursion limit.
    limit = sys.getrecursionlimit()
    assert run(capsys, "tile", "list:[1,1500]", "1", "2") == (0, "yes\n", "")
    inst = build_instance(parse_sequence("list:[1,1500]"), 1, 2)
    assert inst.level_sizes == (1, 1500)
    assert exists_partition(inst).nodes == 1 + 1500 > limit
    assert sys.getrecursionlimit() == limit


@pytest.mark.parametrize("spec, k, n, code", [("odd", 1, 12, 3), ("odd", 1, 4, 1)])
def test_tile_universe_budget_before_admissibility(capsys, spec, k, n, code):
    # odd is not cobweb-admissible from (4 2)_F = 35/3 on; levels 1..12
    # hold 1 * 3 * ... * 23 > 100000 chains, which is refused first.
    assert run(capsys, "tile", spec, str(k), str(n))[:2] == (code, "")


@pytest.mark.parametrize("argv, err", [
    ("chains nat --from 3 --to 3 --enumerate --budget 0", "3 chains exceed the budget of 0"),
    ("chains nat --from 1 --to 8 --enumerate --budget 40319", "40320 chains exceed the budget of 40319"),
    ("chains fib --from 0 --to 30000 --enumerate", "at least 2227680 chains exceed the budget of 100000"),
    ("zeta fib --levels 18", "45765225 matrix entries exceed the budget of 20000000"),
    ("mobius fib --levels 300000", "at least 45765225 matrix entries exceed the budget of 20000000"),
    ("tile fib 0 3000", "at least 2227680 universe chains exceed the budget of 100000"),
    ("tile nat 1 3 --universe-budget 5", "6 universe chains exceed the budget of 5"),
    ("tile nat 1 3 --block-budget 3", "9 candidate blocks exceed the budget of 3"),
])
def test_every_refusal_prints_one_line_of_one_template(capsys, argv, err):
    # A size is "at least" only when levels were left unread: every level
    # of nat 1..8 and of the universe of nat 1 3 is multiplied before the
    # refusal, so those sizes are exact.
    assert run(capsys, *argv.split()) == (3, "", f"inconclusive: {err}\n")


def test_tile_budget_error_exit_3(capsys):
    code, _, err = run(capsys, "tile", "gauss:2", "0", "9")
    assert code == 3
    assert "inconclusive" in err


def test_bell_classic(capsys):
    assert run(capsys, "bell-classic", "5")[:2] == (0, "52\n")
    code, out, _ = run(capsys, "bell-classic", "10", "--dobinski", "1e-9")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "115975"
    assert lines[1].startswith("dobinski: ")
    assert "rel_err" in lines[1]


def test_bell_classic_json(capsys):
    _, out, _ = run(capsys, "bell-classic", "5", "--dobinski", "1e-9", "--format", "json")
    doc = json.loads(out)
    assert doc["bell"] == 52
    assert abs(doc["dobinski"] - 52) / 52 <= 1e-9
    assert doc["rel_err"] <= 1e-9


def test_bell_classic_dobinski_range(capsys):
    code, _, err = run(capsys, "bell-classic", "25", "--dobinski", "1e-9")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv,key,value",
    [
        (("fnomial", "fib", "300", "150"), "value",
         lambda: fnomial_by_factorials(parse_sequence("fib").values(300), 300, 150)),
        (("bell-classic", "2000"), "bell", lambda: bell_by_triangle(2000)[-1]),
    ],
    ids=["fnomial", "bell-classic"],
)
def test_full_decimal_past_int_str_digit_limit(capsys, argv, key, value, fmt):
    """Answers over the interpreter's 4300-digit int-to-str limit print in full,
    and the caller's own limit is back in place afterwards."""
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = get_limit()
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert get_limit() == limit
    digits = out.strip() if fmt == "text" else json.loads(out, parse_int=str)[key]
    expected = value()
    assert digits.isdigit() and len(digits) > 4300
    assert 10 ** (len(digits) - 1) <= expected < 10 ** len(digits)
    assert int(digits[:30]) == expected // 10 ** (len(digits) - 30)
    assert int(digits[-30:]) == expected % 10 ** 30


def test_no_scientific_notation_in_exact_output(capsys):
    _, out, _ = run(capsys, "fnomial", "gauss:3", "20", "10")
    assert "e" not in out
    assert int(out) > 10 ** 40


# --- the exit-code contract over generated command lines ------------------------

SMALL = st.integers(-2, 6).map(str)
SPECS = st.one_of(
    st.sampled_from(["nat", "fib", "even1", "odd", "div3"]),
    st.builds("const:{}".format, st.integers(0, 4)),
    st.builds("gauss:{}".format, st.integers(0, 3)),
    st.lists(st.integers(1, 4), max_size=6).map(lambda vs: f"list:[{','.join(map(str, vs))}]"),
    st.sampled_from(["Nat", "fbi", "", "const:", "gauss:x", "list:[1,0,2]", "list:[1,2", "fib:2", "-x"])
    | st.text(alphabet="fibnatcos:[],-0129 ", max_size=8),
)


def _flag(draw, name, values):
    """[name, value] or nothing, as drawn."""
    return [name, draw(values)] if draw(st.booleans()) else []


@st.composite
def command_lines(draw):
    """A bounded argv from the CLI grammar, possibly malformed anywhere.

    Sizes stay small and every enumeration or search carries a small
    budget, so each command line runs in milliseconds.
    """
    cmd = draw(st.sampled_from(
        ["fnomial", "admissible", "gcdmorphic", "zeta", "mobius", "chains", "grid",
         "diagonal", "tile", "bell-classic", "nosuch"]
    ))
    spec = draw(SPECS)
    if cmd == "fnomial":
        argv = [spec, draw(SMALL), draw(SMALL)]
    elif cmd in ("admissible", "gcdmorphic"):
        argv = [spec, "--max", draw(st.integers(-2, 14).map(str))]
    elif cmd in ("zeta", "mobius"):
        argv = [spec, "--levels", draw(st.integers(-1, 5).map(str)), *_flag(draw, "--size", SMALL)]
    elif cmd == "chains":
        argv = [spec, "--from", draw(SMALL), "--to", draw(SMALL), "--budget", draw(st.integers(-1, 40).map(str))]
        argv += ["--enumerate"] if draw(st.booleans()) else []
    elif cmd == "grid":
        argv = [draw(SMALL), draw(SMALL)] + draw(st.sampled_from([[], ["--whitney"], ["--bell"], ["--maxchains"]]))
    elif cmd == "diagonal":
        argv = [spec, "--n", draw(st.integers(-2, 14).map(str))] + (["--triangle"] if draw(st.booleans()) else [])
    elif cmd == "tile":
        argv = [spec, draw(st.integers(-1, 4).map(str)), draw(st.integers(-1, 4).map(str))]
        argv += ["--universe-budget", draw(st.integers(0, 60).map(str))]
        argv += ["--block-budget", draw(st.integers(0, 600).map(str))]
        argv += ["--node-budget", draw(st.integers(0, 600).map(str))]
        argv += ["--jobs", draw(st.sampled_from(["0", "1", "1", "1"]))]
        argv += [f for f in ("--count", "--witness") if draw(st.booleans())]
        argv += _flag(draw, "--cap", st.integers(-1, 3).map(str))
        argv += _flag(draw, "--sigma", st.sampled_from(["all", "identity", "some"]))
    elif cmd == "bell-classic":
        argv = [draw(st.integers(-2, 40).map(str))]
        argv += _flag(draw, "--dobinski", st.sampled_from(["1e-9", "1e-300", "0", "-1", "1.5", "nan", "inf", "x"]))
    else:
        argv = [spec]
    argv += _flag(draw, "--format", st.sampled_from(["text", "json", "xml"]))
    if draw(st.integers(0, 9)) == 0:  # a stray token anywhere
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "7", "x", "--"])))
    return [cmd, *argv]


@settings(max_examples=300, deadline=None)
@given(argv=command_lines())
def test_every_outcome_is_a_contract_exit_code(argv):
    """0 answer, 1 domain error, 2 usage error, 3 budget; nothing escapes.

    A failed command prints nothing on stdout; only tile's inconclusive
    verdict is an answer that exits 3.
    """
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code in (1, 2) or (code == 3 and argv[0] != "tile"):
        assert out.getvalue() == "", (argv, code)


# --- one parser per process -------------------------------------------------

# Every subcommand in both formats, with usage errors (2), domain errors (1)
# and budget exits (3).  A flagged query precedes its plain form, and JSON
# precedes text, so a cached parser that kept a flag or a format from an
# earlier call would show here.
MIXED_ARGVS = [
    ["fnomial", "fib", "5", "2", "--format", "json"],
    ["fnomial", "fib", "5", "2"],
    ["fnomial", "odd", "4", "2"],
    ["fnomial", "fib", "2", "5"],
    ["fnomial", "nope", "2", "1"],
    ["fnomial", "fib", "5"],
    ["admissible", "fib", "--max", "12", "--format", "json"],
    ["admissible", "odd", "--max", "6"],
    ["gcdmorphic", "fib", "--max", "10", "--format", "json"],
    ["gcdmorphic", "fib", "--max", "10"],
    ["zeta", "fib", "--levels", "4", "--size", "5", "--format", "json"],
    ["zeta", "fib", "--levels", "4", "--size", "5"],
    ["mobius", "nat", "--levels", "3"],
    ["mobius", "fib", "--levels", "3", "--size", "14"],
    ["chains", "fib", "--from", "1", "--to", "5", "--enumerate", "--format", "json"],
    ["chains", "fib", "--from", "1", "--to", "5", "--enumerate"],
    ["chains", "fib", "--from", "1", "--to", "5"],
    ["chains", "gauss:2", "--from", "0", "--to", "7", "--enumerate"],
    ["chains", "nat", "--from", "3", "--to", "1"],
    ["grid", "2", "3", "--whitney"],
    ["grid", "2", "3"],
    ["grid", "2", "3", "--bell", "--format", "json"],
    ["grid", "2", "3", "--maxchains"],
    ["grid", "2", "3", "--whitney", "--bell"],
    ["diagonal", "fib", "--n", "6", "--triangle", "--format", "json"],
    ["diagonal", "fib", "--n", "6"],
    ["tile", "nat", "1", "4", "--count", "--witness", "--format", "json"],
    ["tile", "nat", "1", "4", "--count", "--witness"],
    ["tile", "nat", "1", "4"],
    ["tile", "fib", "1", "4", "--node-budget", "1"],
    ["tile", "gauss:2", "0", "9"],
    ["tile", "odd", "1", "4"],
    ["tile", "nat", "1", "3", "--sigma", "some"],
    ["bell-classic", "10", "--dobinski", "1e-9", "--format", "json"],
    ["bell-classic", "10"],
    ["bell-classic", "-1"],
    ["nosuch"],
]


def outcome(argv):
    """(exit code, stdout, stderr) of one in-process run."""
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_shared_parser_answers_as_a_fresh_one(monkeypatch):
    shared = [outcome(argv) for argv in MIXED_ARGVS * 2]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [outcome(argv) for argv in MIXED_ARGVS]
    assert shared == fresh * 2
    assert {code for code, _, _ in fresh} == {0, 1, 2, 3}
    assert {argv[0] for argv in MIXED_ARGVS} == {
        "fnomial", "admissible", "gcdmorphic", "zeta", "mobius", "chains", "grid",
        "diagonal", "tile", "bell-classic", "nosuch",
    }


def test_main_calls_the_handler_bound_at_call_time(capsys, monkeypatch):
    cli.build_parser()  # built before the handler is rebound
    seen = []
    real = cli.cmd_grid

    def recording(args):
        seen.append((args.k, args.n))
        return real(args)

    monkeypatch.setattr(cli, "cmd_grid", recording)
    assert run(capsys, "grid", "2", "3") == (0, "6\n", "")
    assert seen == [(2, 3)]


def test_start_up_imports_no_process_pool():
    src = str(pathlib.Path(cobweb.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, cobweb.cli; sys.exit('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize("argv", [
    ["tile", "fib", "0", "3000"],
    ["chains", "fib", "--from", "0", "--to", "3000", "--enumerate"],
    ["tile", "fib", "0", "30000"],
    ["chains", "fib", "--from", "0", "--to", "30000", "--enumerate"],
])
def test_refusal_stops_multiplying_at_the_budget(capsys, argv):
    # The product of all 3001 level sizes has about 940,000 digits; levels
    # 0..12 already hold 1*1*1*2*3*5*8*13*21*34*55*89*144 > 100000 chains.
    # Both commands read only those 13 level sizes.
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert (code, out) == (3, "")
    assert "at least 2227680" in err and len(err) < 1000


def traced_run(capsys, *argv):
    """run's (code, out, err), and the tracemalloc peak of the run last."""
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, out, err, peak


def refusal_peak(capsys, *argv):
    """The tracemalloc peak of a run that the universe or enumeration budget refuses."""
    code, out, err, peak = traced_run(capsys, *argv)
    assert (code, out) == (3, "")
    assert "at least 2227680" in err
    return peak


def test_tile_refusal_reads_only_the_levels_it_multiplies(capsys):
    # Reading all 30001 Fibonacci level sizes first peaked at 43.7 MiB.
    assert refusal_peak(capsys, "tile", "fib", "0", "30000") < 4 * 2**20


def test_chains_refusal_reads_only_the_levels_it_multiplies(capsys):
    # Reading all 30001 Fibonacci level sizes first peaked at 82.3 MiB.
    argv = ["chains", "fib", "--from", "0", "--to", "30000", "--enumerate"]
    assert refusal_peak(capsys, *argv) < 4 * 2**20


def test_matrix_block_reads_only_the_levels_it_needs(capsys):
    # Reading all 30001 Fibonacci level sizes first peaked at 81.6 MiB.
    code, out, err, peak = traced_run(capsys, "zeta", "fib", "--levels", "30000", "--size", "4")
    assert (code, err) == (0, "")
    assert out == "# order: (1,0) (1,1) (1,2) (1,3)\n1 1 1 1\n0 1 1 1\n0 0 1 1\n0 0 0 1\n"
    assert peak < 4 * 2**20


def test_whole_matrix_refusal_reads_only_the_levels_it_needs(capsys):
    # Levels 0..18 already hold 6765 > isqrt(20000000) vertices; reading
    # all 30001 level sizes first peaked at 81.6 MiB.
    code, out, err, peak = traced_run(capsys, "mobius", "fib", "--levels", "30000")
    assert (code, out) == (3, "")
    assert err == "inconclusive: at least 45765225 matrix entries exceed the budget of 20000000\n"
    assert peak < 4 * 2**20


def cli_subprocess(argv, timeout, address_space=None):
    """One `python -m cobweb.cli` run in a child process, under a wall limit
    and, when given, an address-space limit set on that child only."""
    src = str(pathlib.Path(cobweb.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-m", "cobweb.cli", *argv], capture_output=True, env=env,
        timeout=timeout, preexec_fn=None if address_space is None else limit,
    )


def test_whole_matrix_size_error_sums_the_levels_by_additions():
    # The message spells out 1 + F_1 + ... + F_300000 = F_300002, 62697
    # digits.  Reading each level size by fast doubling ran past 150 s.
    proc = cli_subprocess(["zeta", "fib", "--levels", "300000", "--size", "-1"], timeout=10)
    vertices = decimal.Decimal(parse_sequence("fib").value(300002))  # str(int) stops at 4300 digits
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.decode() == f"error: size must be between 0 and {vertices}, got -1\n"


def test_chain_count_reads_only_the_levels_it_multiplies():
    # Slicing a tuple of all 300001 level sizes died with a MemoryError
    # under this 1 GiB limit.
    argv = ["chains", "fib", "--from", "299999", "--to", "300000"]
    proc = cli_subprocess(argv, timeout=20, address_space=2**30)
    fib = parse_sequence("fib")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode() == f"{decimal.Decimal(fib.value(299999) * fib.value(300000))}\n"


@pytest.mark.parametrize("argv, err", [
    ("chains nat --from 0 --to 3 --enumerate --budget -1", "error: budget must be >= 0, got -1\n"),
    ("tile nat 1 3 --universe-budget -1", "error: need budgets >= 0, got universe -1, block 1000000\n"),
    ("tile nat 1 3 --block-budget -1", "error: need budgets >= 0, got universe 100000, block -1\n"),
], ids=["budget", "universe-budget", "block-budget"])
def test_negative_budgets_are_domain_errors(capsys, argv, err):
    # A budget below 0 is a bad request (1), not a refusal "... exceed the
    # budget of -1" (3).
    assert run(capsys, *argv.split()) == (1, "", err)


@pytest.mark.parametrize("argv", [
    ["tile", "list:[5,5,5,5,5,5,5,5]", "0", "20"],
    ["chains", "list:[5,5,5,5,5,5,5,5]", "--from", "0", "--to", "20", "--enumerate"],
])
def test_short_list_is_a_domain_error_before_the_budget(capsys, argv):
    # 5^8 chains already pass the budget, but F_9 does not exist.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "defines values for n <= 8, got 9" in err


@pytest.mark.parametrize("argv, err", [
    (["--from", "30001", "--to", "30000"], "error: level 30001 outside 0..30000\n"),
    (["--from", "-1", "--to", "30000"], "error: level -1 outside 0..30000\n"),
    (["--from", "0", "--to", "-1"], "error: max_level must be >= 0, got -1\n"),
], ids=["above", "below", "negative"])
def test_chains_span_errors_come_before_the_budget(capsys, argv, err):
    # Levels 0..30000 hold far more chains than the budget allows; a bad
    # span is still reported first.
    assert run(capsys, "chains", "fib", *argv, "--enumerate") == (1, "", err)


# --- rendering against entry-by-entry oracles -----------------------------------

# F_p of each spec of the rendering grid, written out rather than read from cobweb.
GRID_VALUES = {
    "nat": lambda p: p,
    "fib": lambda p: round(((1 + 5 ** 0.5) / 2) ** p / 5 ** 0.5),
    "const:1": lambda p: 1,
    "const:2": lambda p: 2,
    "gauss:2": lambda p: 2 ** p - 1,
    "list:[1,3,2]": lambda p: (0, 1, 3, 2)[p],
}
GRID_VERTICES = 200


def grid_level_sizes(spec):
    """1, F_1, ..., F_m for the most levels m whose whole matrix has at
    most GRID_VERTICES vertices (and that the spec defines)."""
    sizes = [1]
    for p in itertools.count(1):
        if spec.startswith("list:") and p > 3:
            return sizes
        if sum(sizes) + GRID_VALUES[spec](p) > GRID_VERTICES:
            return sizes
        sizes.append(GRID_VALUES[spec](p))


@functools.lru_cache(maxsize=None)
def grid_matrices(spec):
    """The zeta rows of the spec's largest grid poset, by the order relation,
    and its Mobius rows, by back-substitution.  A poset of fewer levels
    has the leading blocks of these as its matrices."""
    order = level_major(grid_level_sizes(spec))
    zeta = [[int(leq(u, v)) for v in order] for u in order]
    return {"zeta": zeta, "mobius": invert_unit_upper(zeta)}


def grid_blocks(spec):
    """(levels, size) pairs: for every level count m, the whole matrix and
    sizes 0 and 1; at the most levels, every level boundary +-1 too.  At
    fewer levels a block that ends at or below the start of level m is one
    checked at the most levels, so there only the sizes that cut level m
    are added: its boundaries +-1 inside it."""
    starts = list(itertools.accumulate(grid_level_sizes(spec), initial=0))
    top = len(starts) - 2
    cases = []
    for m in range(top + 1):
        low, high = (-1, starts[-1]) if m == top else (starts[m], starts[m + 1] - 1)
        cuts = {b + d for b in starts[:m + 2] for d in (-1, 0, 1)}
        cases += [(m, None)] + [(m, s) for s in sorted({0, 1} | {s for s in cuts if low < s <= high})]
    return cases


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("which", ["zeta", "mobius"])
@pytest.mark.parametrize("spec", list(GRID_VALUES))
def test_matrix_output_matches_an_entry_by_entry_rendering(capsys, spec, which, fmt):
    whole = grid_matrices(spec)[which]
    order = level_major(grid_level_sizes(spec))
    for levels, size in grid_blocks(spec):
        vertices = sum(1 for _, p in order if p <= levels)
        n = vertices if size is None else size
        doc = {"sequence": spec, "levels": levels, "matrix": which,
               "order": order[:n], "rows": leading(whole, n)}
        argv = [which, spec, "--levels", str(levels), "--format", fmt]
        argv += [] if size is None else ["--size", str(size)]
        assert run(capsys, *argv) == (0, render(doc, fmt), ""), argv


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("spec", list(GRID_VALUES))
def test_enumerated_chains_match_itertools_product(capsys, spec, fmt):
    sizes = grid_level_sizes(spec)[:13]
    spans = [(lo, hi) for lo in range(len(sizes)) for hi in range(lo, len(sizes))]
    spans = [(lo, hi) for lo, hi in spans if math.prod(sizes[lo:hi + 1]) <= 5000]
    assert len(spans) >= 6
    for lo, hi in spans:
        chains = chains_by_product(sizes, lo, hi)
        doc = {"sequence": spec, "from": lo, "to": hi, "count": len(chains), "chains": chains}
        argv = ["chains", spec, "--from", str(lo), "--to", str(hi), "--enumerate", "--format", fmt]
        assert run(capsys, *argv) == (0, render(doc, fmt), ""), argv
