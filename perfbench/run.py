"""The cobweb benchmark: seeded workloads, oracle-checked outputs, traced layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload algebra|tiling|point|all \
        --seed N --seconds S --trace 0|1

The query list of a workload is made from the seed, and its expected
outputs are computed here, by code that does not import cobweb.  Then
fresh interpreters (perfbench/worker.py) each run the whole list once,
one query after another (a closed loop with one client), until the
run's seconds are used up.  Every output of every pass is checked.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of
traced passes.  A query fails on a wrong exit code, an exception
escaping main, or wrong stdout; "correct" turns false only for wrong
stdout under the expected exit code, a silent wrong answer.

Set-up time and peak RSS are properties of the machine that runs this
(its interpreter start-up, its site packages), not of cobweb alone.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import LAYERS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
TRACE_DIR = ROOT / ".bench_trace"
SETUPS_PER_PASS = 3  # set-up launches between two passes
MIN_SETUPS = 24  # set-up launches per run, at least
PASS_TIMEOUT_S = 100


def units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def launch(job: dict) -> tuple[dict, float]:
    """Start a worker, send it job, return its reply and its set-up time."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # Either variable would change what the measured process does.
    env.pop("COBWEB_NODE_BUDGET", None)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(WORKER)], input=json.dumps(job), env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    reply = json.loads(proc.stdout)
    return reply, reply["ready"] - t0


class Workload:
    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.queries = workloads.WORKLOADS[name](random.Random(f"{name}:{seed}"))
        self.attempted = self.failed = 0
        self.wrong = 0  # wrong stdout under the expected exit code
        self.failures: dict[str, tuple[str, int]] = {}
        self.passes: list[list[float]] = []  # ms, one list of query latencies per pass
        self.setups: list[float] = []

    def run_pass(self, trace_file: str | None = None) -> dict:
        job = {"queries": [q.argv for q in self.queries], "trace_file": trace_file}
        reply, setup = launch(job)
        self.setups.append(setup)
        self.passes.append([r[2] * 1000 for r in reply["results"]])
        for q, (rc, escaped, _, text) in zip(self.queries, reply["results"]):
            problem = self.problem(q, rc, escaped, text)
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                self.wrong += problem.startswith("stdout")
                reason, times = self.failures.get(q.label, (problem, 0))
                self.failures[q.label] = (reason, times + 1)
        return reply

    @staticmethod
    def problem(q, rc, escaped, text) -> str | None:
        if escaped is not None:
            return f"{escaped} escaped main"
        if rc != q.rc:
            return f"exit {rc}, expected {q.rc}"
        if q.check is None:
            return None if text == q.text else "stdout differs from the oracle"
        try:
            reason = q.check(text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"unreadable output ({exc!r})"
        return None if reason is None else f"stdout: {reason}"


def percentile_tail(samples: list[float]) -> tuple[float, float, int]:
    """The sample with exactly ten beyond it, its percentile, and the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def tail_samples(w: Workload, walls: list[float]) -> list[float]:
    """The samples of the run's fastest passes, as many as the workload's TAIL_PASSES names."""
    fastest = sorted(range(len(walls)), key=walls.__getitem__)
    k = workloads.TAIL_PASSES[w.name](len(walls))
    return [x for i in fastest[:k] for x in w.passes[i]]


def measure(w: Workload, seconds: float, trace: bool) -> dict[str, float]:
    """Alternate set-up launches with passes until the seconds are used up.

    queries_per_s is the query count over the wall time of the fastest
    pass, and query_p50_ms the lowest of the passes' median latencies.
    On a shared machine that slows down for seconds at a time, these
    best passes varied across runs about half as much as the median
    pass did, while a slowdown of the program itself slows every pass.
    The tail is read from the pooled samples of the fastest passes
    (workloads.TAIL_PASSES says how many): from every pass, it swung
    with the share of passes a run spent in the machine's slow spells.
    A slower program still slows every pass, the fast ones too.
    """
    walls, rss, traced = [], [], []
    trace_file = None
    if trace:
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = str(TRACE_DIR / f"{w.name}-seed{w.seed}.spans.jsonl")
    start = time.perf_counter()
    last = 0.0
    while not walls or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        if not trace:
            w.setups.extend(launch({})[1] for _ in range(SETUPS_PER_PASS))
        reply = w.run_pass(trace_file)
        walls.append(reply["wall_s"])
        rss.append(reply["peak_rss_kb"] / 1024)
        if trace:
            traced.append(reply["layers"])
        last = time.perf_counter() - t0

    if trace:
        metrics = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
        # Medians of separate sums need not add up, so the table shows one pass.
        typical = sorted(traced, key=lambda t: t["trace.wall_s"])[len(traced) // 2]
        table = layer_table(w, typical, len(traced))
        print(table, end="")
        (TRACE_DIR / f"{w.name}-seed{w.seed}.layers.txt").write_text(table)
        return metrics
    while len(w.setups) < MIN_SETUPS:
        w.setups.append(launch({})[1])
    tail, pct, n = percentile_tail(tail_samples(w, walls))
    print(f"# {len(walls)} passes of {len(w.queries)} queries; "
          f"query_tail_ms is p{pct:.2f} of {n} samples; setup_s is the median of {len(w.setups)} launches")
    return {
        "queries_per_s": len(w.queries) / min(walls),
        "query_p50_ms": min(statistics.median(latencies) for latencies in w.passes),
        "query_tail_ms": tail,
        "setup_s": statistics.median(w.setups),
        "peak_rss_mb": statistics.median(rss),
    }


def layer_table(w: Workload, m: dict, passes: int) -> str:
    wall = m["trace.wall_s"]
    rows = [f"# per-layer self time, {w.name} seed {w.seed}, the median of {passes} traced passes by wall time",
            f"# {'layer':<16}{'calls':>10}{'self_s':>12}{'share':>8}"]
    for layer in LAYERS:
        s = m[f"{layer}.self_s"]
        rows.append(f"# {layer:<16}{m[f'{layer}.calls']:>10.0f}{s:>12.4f}{s / wall:>8.1%}")
    rest = (("benchmark", m["bench.self_s"]), ("outside spans", m["trace.unaccounted_s"]))
    for label, s in rest:
        rows.append(f"# {label:<16}{'':>10}{s:>12.4f}{s / wall:>8.1%}")
    accounted = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["bench.self_s"]
    rows.append(f"# layers and benchmark account for {accounted:.4f} s of the traced wall {wall:.4f} s "
                f"({accounted / wall:.1%}); the tracing overhead is about {m['trace.overhead_s']:.4f} s")
    return "\n".join(rows) + "\n"


def report(w: Workload, metrics: dict, trace: bool) -> None:
    print(f"# workload={w.name} seed={w.seed} trace={int(trace)} python={platform.python_version()} "
          f"nproc={os.cpu_count()} machine={platform.machine()} "
          f"(setup_s and peak_rss_mb are figures of this machine)")
    if not trace:
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {units(False)[name]}")
    print(f"fail_ratio {w.failed / w.attempted:.4f} ({w.failed} of {w.attempted} queries)")
    for label, (reason, times) in sorted(w.failures.items()):
        print(f"# failed x{times}: {label}: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cobweb" / "cli.py").is_file():
        print(f"perfbench: no cobweb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The oracles print exact integers of any size; only this process may lift the limit.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        w = Workload(name, args.seed)
        metrics = measure(w, args.seconds, bool(args.trace))
        report(w, metrics, bool(args.trace))
        prefix = f"{name}." if args.workload == "all" else ""
        result["correct"] &= w.wrong == 0
        result["attempted"] += w.attempted
        result["failed"] += w.failed
        unit = units(bool(args.trace))
        for key, value in metrics.items():
            result["metrics"][prefix + key] = {"value": value, "unit": unit[key]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
