"""Acceptance criteria, one test per criterion.

Each test prints one `[acceptance] criterion N: PASS|FAIL` line (visible
under pytest -s) and carries its stated time limit as a hard assertion.
Oracles are independent of the code under test: hand-built incidence
rules, recurrence twins, and brute-force path walkers.
"""
import itertools
import json
import math
import pathlib
import time
from contextlib import contextmanager
from functools import lru_cache

from cobweb import (
    CobwebPoset,
    bell_dobinski,
    bell_exact,
    bell_sequence,
    build_instance,
    count_grid_max_chains,
    count_partitions,
    exists_partition,
    fnomial_coefficient,
    gcd_morphism_failures,
    grid_size,
    instance_from_json,
    is_cobweb_admissible,
    is_gcd_morphic,
    parse_sequence,
    verify_partition,
    whitney,
    whitney_second,
)
from cobweb.cli import main
from oracles import grid_elements, grid_max_paths, mat_mul

REPO = pathlib.Path(__file__).resolve().parent.parent


@contextmanager
def criterion(num: int, label: str, time_limit: float | None = None):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - t0
        if time_limit is not None and elapsed >= time_limit:
            raise AssertionError(
                f"criterion {num} took {elapsed:.2f}s, limit {time_limit}s"
            )
        ok = True
    finally:
        status = "PASS" if ok else "FAIL"
        print(f"[acceptance] criterion {num}: {status} ({label})")


def test_criterion_01_fib_zeta_golden(capsys):
    """CLI zeta output for fib, leading 16x16 block, against a hand oracle."""
    with criterion(1, "16x16 Fibonacci zeta block, bit-exact", 1.0):
        code = main(["zeta", "fib", "--levels", "6", "--size", "16"])
        out = capsys.readouterr().out
        assert code == 0

        # independent reconstruction straight from the order definition
        fib = [0, 1, 1, 2, 3, 5, 8]
        verts = [(1, 0)] + [(j, p) for p in range(1, 7) for j in range(1, fib[p] + 1)]
        verts = verts[:16]
        header = "# order: " + " ".join(f"({j},{p})" for j, p in verts)
        rows = [
            " ".join(
                "1" if (u == v or u[1] < v[1]) else "0" for v in verts
            )
            for u in verts
        ]
        expected = "\n".join([header] + rows) + "\n"
        assert out == expected
        assert (REPO / "fixtures" / "fib_zeta_16.txt").read_text() == expected


def test_criterion_02_mobius_inverts_zeta():
    """zeta * mu = mu * zeta = I on every built-in family, <= 200 vertices."""
    specs = ["nat", "fib", "const:1", "const:2", "gauss:2", "gauss:3", "even1", "odd", "div3"]
    with criterion(2, "Mobius inversion on all built-ins to 200 vertices", 10.0):
        for spec in specs:
            seq = parse_sequence(spec)
            levels, total = 0, 1
            while total + seq.value(levels + 1) <= 200:
                total += seq.value(levels + 1)
                levels += 1
            poset = CobwebPoset(seq, levels)
            assert poset.vertex_count <= 200
            assert poset.vertex_count + seq.value(levels + 1) > 200  # maximal cut
            z = [list(r) for r in poset.zeta_matrix().rows]
            m = [list(r) for r in poset.mobius_matrix().rows]
            eye = [[int(i == j) for j in range(len(z))] for i in range(len(z))]
            assert mat_mul(z, m) == eye
            assert mat_mul(m, z) == eye


def test_criterion_03_chain_count_is_f_factorial():
    """Exhaustive chain enumeration over levels 0..n counts n_F!."""
    with criterion(3, "DFS chain count equals n_F! for n <= 7", 30.0):
        for spec in ("nat", "fib", "const:1", "gauss:2"):
            seq = parse_sequence(spec)
            f = seq.values(7)
            poset = CobwebPoset(seq, 7)
            for n in range(8):
                chains = itertools.product(*map(range, poset.level_sizes[:n + 1]))
                counted = sum(1 for _ in chains)
                assert counted == math.prod(f[1:n + 1]), (spec, n)


def test_criterion_04_falling_factorial_identity():
    """Chains over k+1..n count falling(n, m); fnomial * m_F! = falling(n, m)."""
    specs = ["nat", "fib", "gauss:2", "gauss:3", "const:1", "const:2", "even1", "div3"]
    with criterion(4, "layer chain counts and the falling-factorial identity", 5.0):
        for spec in specs:
            seq = parse_sequence(spec)
            assert is_cobweb_admissible(seq, 20).admissible
            f = seq.values(20)
            poset = CobwebPoset(seq, 20)
            for n in range(21):
                for k in range(n + 1):
                    m = n - k
                    falling = math.prod(f[k + 1:n + 1])  # F_n ... F_{n-m+1}
                    assert fnomial_coefficient(seq, n, k) * math.prod(f[1:m + 1]) == falling
                    if k < n and poset.count_max_chains(k + 1, n) <= 20000:
                        counted = sum(1 for _ in poset.enumerate_max_chains(k + 1, n, budget=20000))
                        assert counted == falling, (spec, n, k)


def test_criterion_05_admissibility():
    with criterion(5, "admissibility scans, pass and failure cases", None):
        for spec in ("nat", "fib", "gauss:2", "gauss:3", "const:1", "const:2", "const:7"):
            verdict = is_cobweb_admissible(parse_sequence(spec), 20)
            assert verdict.admissible, spec
        bad = is_cobweb_admissible(parse_sequence("list:[2,3,4,5]"), 4)
        assert not bad.admissible
        assert bad.first_failure == (2, 1)
        assert bad.failure_quotient.numerator == 3
        assert bad.failure_quotient.denominator == 2


def test_criterion_06_gcd_morphism():
    with criterion(6, "GCD-morphism: fib passes to 30, list:[2,3,4] fails at (3,2)", None):
        assert is_gcd_morphic(parse_sequence("fib"), 30).gcd_morphic
        seq = parse_sequence("list:[2,3,4]")
        verdict = is_gcd_morphic(seq, 3)
        assert not verdict.gcd_morphic
        failures = {(n, m): (got, want) for n, m, got, want in gcd_morphism_failures(seq, 3)}
        # gcd(F_3, F_2) = gcd(4, 3) = 1 while F_gcd(3,2) = F_1 = 2
        assert failures[(3, 2)] == (1, 2)


def test_criterion_07_grid_size_and_whitney():
    with criterion(7, "grid size formula, enumeration, and rank sums to k = n = 12", None):
        for n in range(1, 13):
            for k in range(n + 1):
                formula = (n - k) * (k + 1) + k * (k + 1) // 2
                assert grid_size(k, n) == formula
                assert len(grid_elements(k, n)) == formula
                assert sum(whitney_second(k, n, r) for r in range(k + n)) == formula


def test_criterion_08_ballot_chain_counts():
    """Brute-force path oracle vs the ballot closed form; Catalan diagonal."""
    with criterion(8, "dominated-path counts: Catalan diagonal and ballot form", 10.0):
        for n in range(2, 7):
            brute = len(grid_max_paths(n, n))
            assert brute == math.comb(2 * n, n) // (n + 1)  # Catalan
            assert brute == count_grid_max_chains(n, n)
        assert [count_grid_max_chains(n, n) for n in range(1, 6)] == [1, 2, 5, 14, 42]
        for n in range(1, 11):
            for k in range(n + 1):
                assert count_grid_max_chains(k, n) == len(grid_max_paths(k, n))
        readme = (REPO / "README.md").read_text()
        assert "denominator" in readme  # the printed-formula discrepancy is documented


def test_criterion_09_diagonal_bells():
    """B_n(nat) is Fibonacci(n+1); fib Whitney values vs a recurrence oracle."""
    with criterion(9, "diagonal Whitney and Bell-like numbers", None):
        fibs = [0, 1]
        while len(fibs) < 30:
            fibs.append(fibs[-1] + fibs[-2])
        assert bell_sequence(parse_sequence("nat"), 25) == [fibs[n + 1] for n in range(26)]

        fib = parse_sequence("fib")

        @lru_cache(maxsize=None)
        def fibo(n: int, k: int) -> int:
            # fibonomial Pascal recurrence, independent of fnomial_coefficient
            if k == 0 or k == n:
                return 1
            return fibs[k + 1] * fibo(n - 1, k) + fibs[n - k - 1] * fibo(n - 1, k - 1)

        for n in range(16):
            for k in range(n + 1):
                expected = fibo(n - k, k) if 2 * k <= n else 0
                assert whitney(n, k, fib) == expected, (n, k)


def test_criterion_10_tiling_partitions():
    """Existence with verified witnesses; serial = parallel; fixture counts."""
    with criterion(10, "chain tilings: witnesses, determinism, regressions", None):
        one = parse_sequence("const:1")
        for n in range(1, 7):
            for k in range(n):
                t0 = time.perf_counter()
                inst = build_instance(one, k, n)
                res = exists_partition(inst)
                assert res.status == "yes"
                assert verify_partition(inst, res.witness)
                assert time.perf_counter() - t0 < 60

        for name, spec, k, n in (
            ("nat_1_2", "nat", 1, 2),
            ("nat_1_3", "nat", 1, 3),
            ("fib_1_4", "fib", 1, 4),
        ):
            t0 = time.perf_counter()
            inst = build_instance(parse_sequence(spec), k, n)
            res = exists_partition(inst)
            assert res.status == "yes"
            assert verify_partition(inst, res.witness)

            serial = count_partitions(inst, jobs=1)
            parallel = count_partitions(inst, jobs=2)
            assert serial.status == parallel.status == "exact"
            assert serial.count == parallel.count
            assert exists_partition(inst, jobs=2).status == "yes"

            with open(REPO / "fixtures" / "tiling" / f"{name}.json") as fh:
                doc = json.load(fh)
            assert instance_from_json(doc["instance"]) == inst
            assert doc["expected"]["exists"] == "yes"
            assert doc["expected"]["count"] == serial.count
            assert time.perf_counter() - t0 < 60


def test_criterion_11_dobinski():
    with criterion(11, "Dobinski series within 1e-9 of the exact Bell numbers", 1.0):
        for n in range(16):
            exact = bell_exact(n)
            assert abs(bell_dobinski(n, 1e-9) - exact) / exact <= 1e-9
