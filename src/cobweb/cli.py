"""Command-line frontend: one subcommand per module, text or JSON out.

Each cmd_* handler returns (document, lines, code): the JSON document,
the text lines and the exit code.  A long answer is an iterator of
texts made as they are written: the lines, or the document's last value
(see _json_pieces).  main alone streams one of the two answers and maps
errors to exit codes.

Exit codes: 0 for a computed answer (including negative verdicts), 1
for domain errors, 2 for usage errors, 3 for inconclusive outcomes
(an exceeded budget).  All integers are printed in full decimal; only
the Dobinski line uses floating-point notation.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from collections.abc import Iterator

from .diagonal import bell_sequence, whitney_rows
from .dobinski import bell_dobinski, bell_exact
from .fnomial import NonIntegralError, fnomial_coefficient
from .layer_grid import (
    bell_like,
    count_grid_max_chains,
    grid_size,
    whitney_first,
    whitney_second,
)
from .poset import BudgetError, CobwebPoset
from .sequences import (
    SequenceSpecError,
    is_cobweb_admissible,
    is_gcd_morphic,
    parse_sequence,
)
from .tiling import build_instance, count_partitions, witness_to_json

def _json_pieces(doc: dict):
    """doc as json.dumps writes it, in pieces, newline last.  A last value
    that is an iterator, after at least one other, is written as a JSON
    array of arrays: each text it yields is the inside of one array, and
    each array is a piece of its own."""
    key, last = next(reversed(doc.items()))
    if not isinstance(last, Iterator):
        yield json.dumps(doc)
    else:
        head = json.dumps({k: v for k, v in doc.items() if k != key})[:-1]
        yield f"{head}, {json.dumps(key)}: ["
        sep = "["
        for entry in last:
            yield f"{sep}{entry}]"
            sep = ", ["
        yield "]}"
    yield "\n"


class _Labels(dict):
    """Vertex -> its label, formatted from the template once, at its first lookup."""

    def __init__(self, template: str):
        self.template = template

    def __missing__(self, vertex):
        self[vertex] = label = self.template.format(*vertex)
        return label


def _chain_texts(chains, vertex: str, sep: str):
    """Each chain as its vertices' labels, vertex.format(j, p), joined by sep."""
    join, label = sep.join, _Labels(vertex).__getitem__
    return (join(map(label, chain)) for chain in chains)


def cmd_fnomial(args: argparse.Namespace) -> tuple:
    seq = parse_sequence(args.seq)
    doc = {"sequence": seq.name, "n": args.n, "k": args.k}
    try:
        value = fnomial_coefficient(seq, args.n, args.k)
    except NonIntegralError as err:
        q = err.fraction
        doc.update(integer=False, value=str(q), numerator=q.numerator, denominator=q.denominator)
        return doc, [f"non-integer: {q}"], 0
    doc.update(integer=True, value=value)
    return doc, [value], 0


def cmd_admissible(args: argparse.Namespace) -> tuple:
    seq = parse_sequence(args.seq)
    verdict = is_cobweb_admissible(seq, args.max)
    doc = {
        "sequence": seq.name,
        "bound": verdict.requested_bound,
        "admissible": verdict.admissible,
        "admissible_up_to": verdict.admissible_up_to,
        "failure": None,
    }
    if verdict.admissible:
        return doc, [f"admissible up to {verdict.requested_bound}"], 0
    n, k = verdict.first_failure
    doc["failure"] = {"n": n, "k": k, "quotient": str(verdict.failure_quotient)}
    template = "not admissible: ({} {})_F = {}; admissible up to {}"
    return doc, [template.format(n, k, doc["failure"]["quotient"], verdict.admissible_up_to)], 0


def cmd_gcdmorphic(args: argparse.Namespace) -> tuple:
    seq = parse_sequence(args.seq)
    verdict = is_gcd_morphic(seq, args.max)
    doc = {
        "sequence": seq.name,
        "bound": verdict.requested_bound,
        "gcd_morphic": verdict.gcd_morphic,
        "morphic_up_to": verdict.morphic_up_to,
        "failure": None,
    }
    if verdict.gcd_morphic:
        return doc, [f"gcd-morphic up to {verdict.requested_bound}"], 0
    n, m = verdict.first_failure
    doc["failure"] = {"n": n, "m": m, "gcd": verdict.gcd_value, "expected": verdict.expected}
    template = "not gcd-morphic: GCD(F_{}, F_{}) = {}, expected {}; morphic up to {}"
    line = template.format(n, m, verdict.gcd_value, verdict.expected, verdict.morphic_up_to)
    return doc, [line], 0


def cmd_matrix(args: argparse.Namespace) -> tuple:
    seq = parse_sequence(args.seq)
    poset = CobwebPoset(seq, args.levels)
    mat = poset.zeta_matrix(args.size) if args.which == "zeta" else poset.mobius_matrix(args.size)
    doc = {
        "sequence": seq.name,
        "levels": args.levels,
        "matrix": args.which,
        "order": mat.order,
        "rows": mat.row_texts(", "),
    }
    header = map("# order: {}".format, _chain_texts([mat.order], "({},{})", " "))
    return doc, itertools.chain(header, mat.row_texts(" ")), 0


def cmd_chains(args: argparse.Namespace) -> tuple:
    seq = parse_sequence(args.seq)
    poset = CobwebPoset(seq, args.to_level)
    doc = {"sequence": seq.name, "from": args.from_level, "to": args.to_level}
    if not args.enumerate:
        doc["count"] = count = poset.count_max_chains(args.from_level, args.to_level)
        return doc, [count], 0
    # The span and the budget are checked here, before anything is
    # written; either form then streams the chains.
    chains = poset.enumerate_max_chains(args.from_level, args.to_level, args.budget)
    doc["count"] = poset.count_max_chains(args.from_level, args.to_level)
    doc["chains"] = _chain_texts(chains, "[{}, {}]", ", ")
    return doc, _chain_texts(chains, "({},{})", " "), 0


def cmd_grid(args: argparse.Namespace) -> tuple:
    k, n = args.k, args.n
    if args.whitney:
        ranks = [
            {"rank": r, "whitney_second": whitney_second(k, n, r), "whitney_first": whitney_first(k, n, r)}
            for r in range(0, k + n)
        ]
        rows = (" ".join(map(str, row.values())) for row in ranks)
        doc = {"k": k, "n": n, "size": grid_size(k, n), "ranks": ranks}
        return doc, itertools.chain(["# rank whitney2 whitney1"], rows), 0
    if args.bell:
        key, value = "bell", bell_like(k, n)
    elif args.maxchains:
        key, value = "max_chains", count_grid_max_chains(k, n)
    else:
        key, value = "size", grid_size(k, n)
    return {"k": k, "n": n, key: value}, [value], 0


def cmd_diagonal(args: argparse.Namespace) -> tuple:
    seq = parse_sequence(args.seq)
    doc = {"sequence": seq.name, "n": args.n}
    if args.triangle:
        rows = list(whitney_rows(seq, args.n))
        doc.update(bells=[sum(row) for row in rows], triangle=rows)
    else:
        doc["bells"] = bells = bell_sequence(seq, args.n)
        rows = [bells]
    return doc, (" ".join(map(str, row)) for row in rows), 0


_COUNT_LINES = {
    "exact": "count: {}",
    "capped": "count: >={}",
    "inconclusive": "count: >={} (search incomplete)",
}


def cmd_tile(args: argparse.Namespace) -> tuple:
    seq = parse_sequence(args.seq)
    instance = build_instance(
        seq,
        args.k,
        args.n,
        sigma_policy=args.sigma,
        universe_budget=args.universe_budget,
        block_budget=args.block_budget,
    )
    doc: dict = {
        "sequence": seq.name,
        "k": args.k,
        "n": args.n,
        "sigma_policy": args.sigma,
        "universe": instance.universe_size,
        "candidate_blocks": len(instance.blocks),
    }
    result = count_partitions(
        instance, cap=args.cap if args.count else 1, jobs=args.jobs, node_budget=args.node_budget
    )
    count_line = ()
    if args.count:
        doc["count"] = {"status": result.status, "value": result.count}
        count_line = [_COUNT_LINES[result.status].format(result.count)]
    doc["verdict"] = verdict = result.verdict
    witness = result.witness if args.witness else None
    if witness is not None:
        doc["witness"] = witness_to_json(instance, witness)
    blocks = ("block: " + " ".join(map(str, instance.blocks[b].chains)) for b in witness or ())
    lines = itertools.chain([verdict], count_line, blocks)
    return doc, lines, 3 if result.status == "inconclusive" else 0


def cmd_bell_classic(args: argparse.Namespace) -> tuple:
    value = bell_exact(args.n)
    doc = {"n": args.n, "bell": value}
    if args.dobinski is None:
        return doc, [value], 0
    approx = bell_dobinski(args.n, args.dobinski)
    rel_err = abs(approx - value) / value if value else 0.0
    doc.update(dobinski=approx, rel_err=rel_err)
    return doc, [value, f"dobinski: {approx!r} (rel_err {rel_err:.3e})"], 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process.

    Handlers are named, not bound: main looks each one up when it runs,
    so a cmd_* rebound after the build is the one called.
    """
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")

    parser = argparse.ArgumentParser(
        prog="cobweb", description="Exact combinatorics of cobweb posets."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fnomial", parents=[fmt], help="F-nomial coefficient (n k)_F")
    p.add_argument("seq")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func="cmd_fnomial")

    p = sub.add_parser("admissible", parents=[fmt], help="bounded integrality scan")
    p.add_argument("seq")
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(func="cmd_admissible")

    p = sub.add_parser("gcdmorphic", parents=[fmt], help="bounded GCD-morphism scan")
    p.add_argument("seq")
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(func="cmd_gcdmorphic")

    for which, summary in (
        ("zeta", "zeta matrix, level-major order"),
        ("mobius", "Mobius matrix (exact inverse of zeta)"),
    ):
        p = sub.add_parser(which, parents=[fmt], help=summary)
        p.add_argument("seq")
        p.add_argument("--levels", type=int, required=True)
        p.add_argument("--size", type=int, default=None, help="leading block to print")
        p.set_defaults(func="cmd_matrix", which=which)

    p = sub.add_parser("chains", parents=[fmt], help="saturated chains over a level span")
    p.add_argument("seq")
    p.add_argument("--from", dest="from_level", type=int, required=True)
    p.add_argument("--to", dest="to_level", type=int, required=True)
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--budget", type=int, default=None, help="enumeration budget (chains)")
    p.set_defaults(func="cmd_chains")

    p = sub.add_parser("grid", parents=[fmt], help="layer grid P(k, n)")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--whitney", action="store_true", help="rank table, both kinds")
    g.add_argument("--bell", action="store_true", help="sum of rank counts")
    g.add_argument("--maxchains", action="store_true", help="dominated-path count")
    p.set_defaults(func="cmd_grid")

    p = sub.add_parser("diagonal", parents=[fmt], help="diagonal Whitney/Bell-like numbers")
    p.add_argument("seq")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--triangle", action="store_true", help="print the Whitney triangle")
    p.set_defaults(func="cmd_diagonal")

    p = sub.add_parser("tile", parents=[fmt], help="partition chains into product blocks")
    p.add_argument("seq")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--count", action="store_true")
    p.add_argument("--cap", type=int, default=None, help="stop counting at this many")
    p.add_argument("--witness", action="store_true")
    p.add_argument("--sigma", choices=("all", "identity"), default="all")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--universe-budget", type=int, default=None)
    p.add_argument("--block-budget", type=int, default=None)
    p.add_argument("--node-budget", type=int, default=None, help="search node budget")
    p.set_defaults(func="cmd_tile")

    p = sub.add_parser("bell-classic", parents=[fmt], help="classical Bell numbers")
    p.add_argument("n", type=int)
    p.add_argument(
        "--dobinski",
        type=float,
        default=None,
        metavar="TOL",
        help="also evaluate the Dobinski series to this relative tolerance",
    )
    p.set_defaults(func="cmd_bell_classic")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Integers print in full however long they are, so the interpreter's
    # int-to-str digit limit (Python 3.11+) is lifted for this call only.
    lift_digit_limit = hasattr(sys, "set_int_max_str_digits")
    if lift_digit_limit:
        saved_digit_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        document, lines, code = globals()[args.func](args)
        pieces = _json_pieces(document) if args.format == "json" else (f"{line}\n" for line in lines)
        out = sys.stdout  # None when started with stdout closed
        try:
            for piece in pieces:  # drained even unwritten: a budget error mid-answer sets the code
                if out is not None:
                    out.write(piece)
            if out is not None:
                out.flush()  # a closed pipe shows here, not at exit
        except BrokenPipeError:
            # The reader closed stdout.  Pointing it at the null device keeps
            # the interpreter's final flush quiet; 1 is Python's own EPIPE code.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        return code
    except SequenceSpecError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except BudgetError as err:
        print(f"inconclusive: {err}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        if lift_digit_limit:
            sys.set_int_max_str_digits(saved_digit_limit)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
