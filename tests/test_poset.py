"""Cobweb poset structure, incidence algebra, and chain counting.

The 16x16 Fibonacci zeta block below is a hand transcription from the
complete-bipartite cover rule: (j,p) <= (i,q) iff the vertices are equal
or p < q.  It doubles as the golden value for the checked-in fixture.
"""
import itertools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobweb import (
    BudgetError,
    CobwebPoset,
    DEFAULT_ENUMERATION_BUDGET,
    parse_sequence,
)
from oracles import chains_of_length, cover_successors, invert_unit_upper, leading, leq, mat_mul


def poset(spec: str, levels: int) -> CobwebPoset:
    return CobwebPoset(parse_sequence(spec), levels)


def entry(matrix, u, v):
    """The (u, v) entry of an IncidenceMatrix, read through its vertex order."""
    return matrix.rows[matrix.order.index(u)][matrix.order.index(v)]


FIB_ORDER_16 = [
    (1, 0), (1, 1), (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4),
    (1, 5), (2, 5), (3, 5), (4, 5), (5, 5), (1, 6), (2, 6), (3, 6),
]

FIB_ZETA_16 = [
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 0, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
]


def test_fib_structure():
    p = poset("fib", 5)
    assert p.level_sizes == (1, 1, 1, 2, 3, 5)
    assert p.vertex_count == 13
    order = p.zeta_matrix().order
    assert order[:4] == ((1, 0), (1, 1), (1, 2), (1, 3))
    assert order[-1] == (5, 5)


def test_root_level_is_singleton():
    for spec in ("nat", "fib", "const:3", "gauss:2"):
        assert poset(spec, 4).level_sizes[0] == 1
        assert poset(spec, 4).zeta_matrix(1).order == ((1, 0),)


def test_leq():
    z = poset("fib", 5).zeta_matrix()
    assert entry(z, (1, 0), (5, 5)) == 1
    assert entry(z, (2, 3), (1, 4)) == 1  # any lower-level vertex is below
    assert entry(z, (2, 4), (2, 4)) == 1
    assert entry(z, (1, 4), (2, 4)) == 0  # same level, distinct
    assert entry(z, (1, 4), (2, 3)) == 0


def test_cover_successors_whole_next_level():
    p = poset("fib", 5)
    assert cover_successors(p.level_sizes, (2, 3)) == ((1, 4), (2, 4), (3, 4))
    assert cover_successors(p.level_sizes, (5, 5)) == ()


def test_zeta_nat_two_levels():
    z = poset("nat", 2).zeta_matrix()
    assert z.order == ((1, 0), (1, 1), (1, 2), (2, 2))
    assert [list(r) for r in z.rows] == [
        [1, 1, 1, 1],
        [0, 1, 1, 1],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]


def test_mobius_nat_two_levels():
    m = poset("nat", 2).mobius_matrix()
    assert [list(r) for r in m.rows] == [
        [1, -1, 0, 0],
        [0, 1, -1, -1],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]
    # the root-to-(1,2) interval is a 3-chain, so mu vanishes there
    assert entry(m, (1, 0), (1, 2)) == 0
    assert entry(m, (1, 0), (1, 1)) == -1


def test_fib_zeta_16_golden():
    z = poset("fib", 6).zeta_matrix(16)
    assert list(z.order) == FIB_ORDER_16
    assert [list(r) for r in z.rows] == FIB_ZETA_16


def test_fib_zeta_fixture_file():
    import pathlib

    path = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "fib_zeta_16.txt"
    z = poset("fib", 6).zeta_matrix(16)
    header = "# order: " + " ".join(f"({j},{p})" for j, p in z.order)
    text = path.read_text()
    assert text == "".join(line + "\n" for line in [header, *z.row_texts(" ")])
    lines = text.splitlines()
    assert lines[0].startswith("# order: (1,0) (1,1) (1,2)")
    assert [[int(x) for x in line.split()] for line in lines[1:]] == FIB_ZETA_16


def test_zeta_entries_agree_with_leq():
    for spec, levels in (("nat", 4), ("fib", 5), ("const:3", 3)):
        p = poset(spec, levels)
        z = p.zeta_matrix()
        for i, u in enumerate(z.order):
            for j, v in enumerate(z.order):
                assert z.rows[i][j] == (1 if leq(u, v) else 0)


@pytest.mark.parametrize(
    "spec,levels",
    [
        ("nat", 4), ("fib", 5), ("gauss:2", 4), ("const:3", 3), ("even1", 4), ("odd", 4),
        ("nat", 7), ("fib", 7), ("gauss:2", 6), ("const:1", 7), ("odd", 7), ("div3", 7),
        ("list:[2,3,1,4,1,5,2]", 7),
    ],
)
def test_mobius_inverts_zeta(spec, levels):
    """The closed-form Mobius rows against generic back-substitution."""
    p = poset(spec, levels)
    z = [list(r) for r in p.zeta_matrix().rows]
    m = [list(r) for r in p.mobius_matrix().rows]
    eye = [[int(i == j) for j in range(p.vertex_count)] for i in range(p.vertex_count)]
    assert m == invert_unit_upper(z)
    assert mat_mul(z, m) == eye
    assert mat_mul(m, z) == eye


def test_mobius_values_on_covers():
    p = poset("fib", 5)
    m = p.mobius_matrix()
    for v in ((1, 4), (2, 4), (3, 4)):
        assert entry(m, (2, 3), v) == -1  # covers
    assert entry(m, (1, 4), (2, 4)) == 0  # same level
    # const:1 is a chain: mu is -1 on covers and 0 past them
    chain = poset("const:1", 7)
    m = chain.mobius_matrix()
    for i, u in enumerate(m.order):
        for v in m.order[i + 1:]:
            assert entry(m, u, v) == (-1 if v[1] == u[1] + 1 else 0)


def test_leading_block_bounds():
    p = poset("nat", 2)
    assert p.zeta_matrix(0).rows == ()
    with pytest.raises(ValueError):
        p.zeta_matrix(5)


@pytest.mark.parametrize("spec, levels", [("nat", 4), ("fib", 6), ("gauss:2", 3), ("const:1", 3)])
def test_sized_matrices_are_leading_blocks(spec, levels):
    p = poset(spec, levels)
    zeta, mobius = p.zeta_matrix(), p.mobius_matrix()
    for size in range(p.vertex_count + 1):
        for whole, block in ((zeta, p.zeta_matrix(size)), (mobius, p.mobius_matrix(size))):
            assert block.order == whole.order[:size]
            assert block.rows == leading(whole.rows, size)
    for size in (-1, p.vertex_count + 1):
        with pytest.raises(ValueError, match="size must be between"):
            p.zeta_matrix(size)


def test_matrix_entry_budget(monkeypatch):
    """A block of size * size entries is built up to the budget and refused past it."""
    monkeypatch.setattr("cobweb.poset.MATRIX_ENTRY_BUDGET", 16)
    p = poset("nat", 3)  # 7 vertices
    assert len(p.mobius_matrix(4).rows) == 4
    with pytest.raises(BudgetError) as info:
        p.zeta_matrix()
    assert (info.value.unit, info.value.predicted, info.value.budget) == ("matrix entries", 49, 16)


def test_count_max_chains_product():
    p = poset("fib", 5)
    assert p.count_max_chains(0, 4) == 6  # 1*1*1*2*3
    assert p.count_max_chains(3, 5) == 2 * 3 * 5
    assert p.count_max_chains(2, 2) == 1


def test_count_matches_enumeration():
    for spec, levels in (("nat", 5), ("fib", 6), ("gauss:2", 4), ("const:2", 4)):
        p = poset(spec, levels)
        for a in range(levels + 1):
            for b in range(a, levels + 1):
                assert p.count_max_chains(a, b) == sum(1 for _ in p.enumerate_max_chains(a, b))


def test_enumerate_chains_are_saturated_and_sorted():
    p = poset("fib", 5)
    chains = list(p.enumerate_max_chains(1, 5))
    assert len(chains) == p.count_max_chains(1, 5)
    assert len(set(chains)) == len(chains)
    assert chains == sorted(chains)
    for chain in chains:
        levels = [v[1] for v in chain]
        assert levels == list(range(1, 6))
        for u, v in zip(chain, chain[1:]):
            assert v in cover_successors(p.level_sizes, u)


def test_enumeration_budget():
    p = poset("gauss:2", 7)
    assert p.count_max_chains(0, 7) == 78129765
    with pytest.raises(BudgetError) as info:
        next(p.enumerate_max_chains(0, 7))
    # The refusal carries the running product at the first level past the
    # budget: levels 0..6 of 2^p - 1 vertices (level 0 holds the root).
    sizes = [1] + [2**p - 1 for p in range(1, 8)]
    bound = next(x for x in itertools.accumulate(sizes, operator.mul) if x > DEFAULT_ENUMERATION_BUDGET)
    assert info.value.predicted == bound == 615195
    assert info.value.budget == DEFAULT_ENUMERATION_BUDGET
    assert str(info.value) == "at least 615195 chains exceed the budget of 100000"
    # an explicit budget admits the run; the span below stays tiny
    assert len(list(p.enumerate_max_chains(0, 2, budget=10))) == 3


BUILT_IN_SPECS = ["nat", "fib", "even1", "odd", "div3", "const:1", "const:3", "gauss:2", "gauss:3"]


@settings(max_examples=200, deadline=None)
@given(
    spec=st.sampled_from(BUILT_IN_SPECS),
    lo=st.integers(0, 12),
    width=st.integers(0, 12),
    budget=st.integers(0, 10**6) | st.integers(0, 40),
    unit=st.sampled_from(["chains", "matrix entries", "universe chains", "candidate blocks"]),
)
def test_span_sizes_reads_up_to_the_first_product_past_the_budget(spec, lo, width, budget, unit):
    """span_sizes returns the sizes iff their product fits the budget;
    otherwise it refuses with the first running product past it, at least
    exactly when levels were left unread, and reads no level beyond."""
    seq = parse_sequence(spec)
    hi = lo + width
    sizes = [1 if p == 0 else seq.value(p) for p in range(lo, hi + 1)]
    run, read = seq.run, []

    def spy(a, b):
        for value in run(a, b):
            read.append(value)
            yield value

    seq.run = spy
    p = CobwebPoset(seq, hi)
    products = list(itertools.accumulate(sizes, operator.mul))
    if products[-1] <= budget:
        assert p.span_sizes(lo, hi, budget, unit) == tuple(sizes)
        assert len(read) == len(sizes)
        return
    first = next(i for i, x in enumerate(products) if x > budget)
    with pytest.raises(BudgetError) as info:
        p.span_sizes(lo, hi, budget, unit)
    err = info.value
    left_unread = first < width
    assert (err.unit, err.predicted, err.budget, err.at_least) == (unit, products[first], budget, left_unread)
    assert len(read) == first + 1
    assert str(err) == f"{'at least ' * left_unread}{products[first]} {unit} exceed the budget of {budget}"


def test_span_validation():
    p = poset("nat", 3)
    with pytest.raises(ValueError):
        p.count_max_chains(2, 1)
    with pytest.raises(ValueError):
        p.count_max_chains(0, 4)


@pytest.mark.parametrize(
    "spec,levels",
    [("nat", 3), ("fib", 4), ("gauss:2", 3), ("const:2", 3), ("fib", 7), ("list:[2,1,3,1]", 4)],
)
def test_chains_of_length_vs_bruteforce(spec, levels):
    p = poset(spec, levels)
    for t in range(1, levels + 3):
        assert p.count_chains_of_length(t) == chains_of_length(p.level_sizes, t)


def test_chains_of_length_edges():
    p = poset("nat", 2)
    assert p.count_chains_of_length(1) == p.vertex_count
    assert p.count_chains_of_length(3) == 2  # root -> (1,1) -> one of level 2
    assert p.count_chains_of_length(4) == 0
    assert p.count_chains_of_length(10**9) == 0  # more elements than levels: no work, no list
    with pytest.raises(ValueError):
        p.count_chains_of_length(0)


def test_single_level_poset():
    p = poset("nat", 0)
    assert p.vertex_count == 1
    assert p.count_max_chains(0, 0) == 1
    assert [list(r) for r in p.zeta_matrix().rows] == [[1]]
    assert [list(r) for r in p.mobius_matrix().rows] == [[1]]


def test_dump_round_trip_by_eye():
    z = poset("nat", 1).zeta_matrix()
    assert z.order == ((1, 0), (1, 1))
    assert list(z.row_texts(" ")) == ["1 1", "0 1"]
    assert list(z.row_texts(", ")) == ["1, 1", "0, 1"]


def test_mat_mul_small():
    a = [[1, 2], [0, 1]]
    b = [[1, -2], [0, 1]]
    assert mat_mul(a, b) == [[1, 0], [0, 1]]
    assert mat_mul([[0, 0], [3, 0]], b) == [[0, 0], [3, -6]]  # a zero row stays a full row


def test_oracles_import_nothing_from_cobweb():
    import ast
    import pathlib

    tree = ast.parse((pathlib.Path(__file__).parent / "oracles.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module.split(".")[0] != "cobweb"
        elif isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "cobweb" for alias in node.names)
