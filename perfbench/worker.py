"""One pass over a workload's queries, in a fresh interpreter.

The parent starts this script with ``src`` on PYTHONPATH and sends a
job as JSON on stdin.  The first statements import ``cobweb.cli`` and
build its parser, so the clock read right after them marks the end of
set-up.  Each query then runs in-process through ``cobweb.cli.main``
with stdout and stderr sent to a sink this script owns.  One JSON
object goes back on the real stdout.

This process must not change ``sys.set_int_max_str_digits`` or
``sys.setrecursionlimit``: either would hide a defect the benchmark
is meant to show.
"""
import time

from cobweb import cli

cli.build_parser()
READY = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from cobweb import poset, sequences  # noqa: E402


class Sink:
    """Stands in for the terminal: keeps what a query writes until it ends."""

    def __init__(self):
        self.parts = []

    def write(self, s):
        self.parts.append(s)
        return len(s)

    def flush(self):
        pass

    def drain(self) -> str:
        text = "".join(self.parts)
        self.parts = []
        return text


def peak_rss_kb():
    """This process's own peak RSS.

    ru_maxrss would not do: Linux carries the launching process's peak
    across fork and exec into it.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_query(argv):
    if argv[0] == "lib.count_chains_of_length":
        spec, levels, t = argv[1], int(argv[2]), int(argv[3])
        print(poset.CobwebPoset(sequences.parse_sequence(spec), levels).count_chains_of_length(t))
        return 0
    return cli.main(argv)


def run_pass(queries, tracer):
    """Run every query once; return per-query results and the pass's wall time.

    A result is [exit code, escaped exception, seconds, stdout text].
    """
    out, err = Sink(), Sink()
    if tracer is not None:
        out.write = tracer.wrap_sink(out.write)
    real = sys.stdout, sys.stderr
    results = []
    start = time.perf_counter()
    for i, argv in enumerate(queries):
        if tracer is not None:
            tracer.query = i
        escaped = None
        sys.stdout, sys.stderr = out, err
        t0 = time.perf_counter()
        try:
            rc = run_query(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an exception escaping main is a failed query
            rc, escaped = None, type(exc).__name__
        t1 = time.perf_counter()
        sys.stdout, sys.stderr = real
        err.drain()
        results.append([rc, escaped, t1 - t0, out.drain()])
    return results, time.perf_counter() - start


def main():
    job = json.load(sys.stdin)
    reply = {"ready": READY}
    if job.get("queries") is not None:
        tracer = None
        if job["trace_file"]:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        results, wall = run_pass(job["queries"], tracer)
        reply.update(results=results, wall_s=wall, peak_rss_kb=peak_rss_kb())
        if tracer is not None:
            tracer.uninstall()
            tracer.write(job["trace_file"], wall)
            reply["layers"] = tracing.summarize(
                tracer.spans, wall, [r[2] for r in results],
                sum(len(r[3].encode()) for r in results), tracing.span_cost())
    json.dump(reply, sys.stdout)


if __name__ == "__main__":
    main()
