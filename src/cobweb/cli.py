"""Command-line frontend: one subcommand per module, text or JSON out.

Exit codes: 0 for a computed answer (including negative verdicts), 1
for domain errors, 2 for usage errors, 3 for inconclusive outcomes
(an exceeded budget).  All integers are printed in full decimal; only
the Dobinski line uses floating-point notation.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .diagonal import bell_sequence, whitney_rows
from .dobinski import bell_dobinski, bell_exact
from .fnomial import FNomialTable, NonIntegralError
from .layer_grid import (
    bell_like,
    count_grid_max_chains,
    grid_size,
    whitney_first,
    whitney_second,
)
from .poset import CobwebPoset, EnumerationBudgetError
from .sequences import (
    SequenceSpecError,
    is_cobweb_admissible,
    is_gcd_morphic,
    parse_sequence,
)
from .tiling import (
    TilingBudgetError,
    build_instance,
    count_partitions,
    exists_partition,
    witness_to_json,
)

NODE_BUDGET_ENV = "COBWEB_NODE_BUDGET"


def _print_json(obj: dict) -> None:
    print(json.dumps(obj))


def cmd_fnomial(args: argparse.Namespace) -> int:
    seq = parse_sequence(args.seq)
    table = FNomialTable(seq, args.n)
    try:
        value = table.fnomial(args.n, args.k)
        obj = {"sequence": seq.name, "n": args.n, "k": args.k, "integer": True, "value": value}
        text = str(value)
    except NonIntegralError as err:
        obj = {
            "sequence": seq.name,
            "n": args.n,
            "k": args.k,
            "integer": False,
            "value": str(err.fraction),
            "numerator": err.fraction.numerator,
            "denominator": err.fraction.denominator,
        }
        text = f"non-integer: {err.fraction}"
    _print_json(obj) if args.format == "json" else print(text)
    return 0


def cmd_admissible(args: argparse.Namespace) -> int:
    seq = parse_sequence(args.seq)
    verdict = is_cobweb_admissible(seq, args.max)
    obj = {
        "sequence": seq.name,
        "bound": verdict.requested_bound,
        "admissible": verdict.admissible,
        "admissible_up_to": verdict.admissible_up_to,
        "failure": None,
    }
    if verdict.admissible:
        text = f"admissible up to {verdict.requested_bound}"
    else:
        n, k = verdict.first_failure
        obj["failure"] = {"n": n, "k": k, "quotient": str(verdict.failure_quotient)}
        text = (
            f"not admissible: ({n} {k})_F = {verdict.failure_quotient}; "
            f"admissible up to {verdict.admissible_up_to}"
        )
    _print_json(obj) if args.format == "json" else print(text)
    return 0


def cmd_gcdmorphic(args: argparse.Namespace) -> int:
    seq = parse_sequence(args.seq)
    verdict = is_gcd_morphic(seq, args.max)
    obj = {
        "sequence": seq.name,
        "bound": verdict.requested_bound,
        "gcd_morphic": verdict.gcd_morphic,
        "morphic_up_to": verdict.morphic_up_to,
        "failure": None,
    }
    if verdict.gcd_morphic:
        text = f"gcd-morphic up to {verdict.requested_bound}"
    else:
        n, m = verdict.first_failure
        obj["failure"] = {"n": n, "m": m, "gcd": verdict.gcd_value, "expected": verdict.expected}
        text = (
            f"not gcd-morphic: GCD(F_{n}, F_{m}) = {verdict.gcd_value}, "
            f"expected {verdict.expected}; morphic up to {verdict.morphic_up_to}"
        )
    _print_json(obj) if args.format == "json" else print(text)
    return 0


def _matrix_command(args: argparse.Namespace, which: str) -> int:
    seq = parse_sequence(args.seq)
    poset = CobwebPoset(seq, args.levels)
    mat = poset.zeta_matrix(args.size) if which == "zeta" else poset.mobius_matrix(args.size)
    if args.format == "json":
        _print_json(
            {
                "sequence": seq.name,
                "levels": args.levels,
                "matrix": which,
                "order": [[j, p] for j, p in mat.order],
                "rows": [list(row) for row in mat.rows],
            }
        )
    else:
        sys.stdout.write(mat.dump())
    return 0


def cmd_zeta(args: argparse.Namespace) -> int:
    return _matrix_command(args, "zeta")


def cmd_mobius(args: argparse.Namespace) -> int:
    return _matrix_command(args, "mobius")


def cmd_chains(args: argparse.Namespace) -> int:
    seq = parse_sequence(args.seq)
    poset = CobwebPoset(seq, args.to_level)
    if args.enumerate:
        # The generator checks the span and the budget before its first
        # chain, so a refused request prints nothing.
        chains = poset.enumerate_max_chains(args.from_level, args.to_level, args.budget)
        if args.format == "json":
            nested = [[[j, p] for j, p in chain] for chain in chains]
            _print_json(
                {
                    "sequence": seq.name,
                    "from": args.from_level,
                    "to": args.to_level,
                    "count": len(nested),
                    "chains": nested,
                }
            )
        else:
            for chain in chains:
                print(" ".join(f"({j},{p})" for j, p in chain))
        return 0
    count = poset.count_max_chains(args.from_level, args.to_level)
    if args.format == "json":
        _print_json(
            {"sequence": seq.name, "from": args.from_level, "to": args.to_level, "count": count}
        )
    else:
        print(count)
    return 0


def cmd_grid(args: argparse.Namespace) -> int:
    k, n = args.k, args.n
    if args.whitney:
        ranks = [
            {"rank": r, "whitney_second": whitney_second(k, n, r), "whitney_first": whitney_first(k, n, r)}
            for r in range(0, k + n)
        ]
        if args.format == "json":
            _print_json({"k": k, "n": n, "size": grid_size(k, n), "ranks": ranks})
        else:
            print("# rank whitney2 whitney1")
            for row in ranks:
                print(f"{row['rank']} {row['whitney_second']} {row['whitney_first']}")
        return 0
    if args.bell:
        value = bell_like(k, n)
        key = "bell"
    elif args.maxchains:
        value = count_grid_max_chains(k, n)
        key = "max_chains"
    else:
        value = grid_size(k, n)
        key = "size"
    if args.format == "json":
        _print_json({"k": k, "n": n, key: value})
    else:
        print(value)
    return 0


def cmd_diagonal(args: argparse.Namespace) -> int:
    seq = parse_sequence(args.seq)
    triangle = None
    if args.triangle:
        triangle = list(whitney_rows(seq, args.n))
        bells = [sum(row) for row in triangle]
    else:
        bells = bell_sequence(seq, args.n)
    if args.format == "json":
        obj = {"sequence": seq.name, "n": args.n, "bells": bells}
        if triangle is not None:
            obj["triangle"] = triangle
        _print_json(obj)
    else:
        if triangle is not None:
            for row in triangle:
                print(" ".join(str(x) for x in row))
        else:
            print(" ".join(str(b) for b in bells))
    return 0


def cmd_tile(args: argparse.Namespace) -> int:
    seq = parse_sequence(args.seq)
    node_budget = args.node_budget
    if node_budget is None:
        env = os.environ.get(NODE_BUDGET_ENV)
        if env is not None:
            try:
                node_budget = int(env)
            except ValueError:
                raise SequenceSpecError(
                    f"bad {NODE_BUDGET_ENV} value {env!r}; expected an integer"
                ) from None
    instance = build_instance(
        seq,
        args.k,
        args.n,
        sigma_policy=args.sigma,
        universe_budget=args.universe_budget,
        block_budget=args.block_budget,
    )
    obj: dict = {
        "sequence": seq.name,
        "k": args.k,
        "n": args.n,
        "sigma_policy": args.sigma,
        "universe": instance.universe_size,
        "candidate_blocks": len(instance.blocks),
    }
    lines: list[str] = []

    if args.count:
        result = count_partitions(
            instance, cap=args.cap, jobs=args.jobs, node_budget=node_budget
        )
        if result.count >= 1:
            verdict = "yes"
        elif result.status == "exact":
            verdict = "no"
        else:
            verdict = "inconclusive"
        obj["count"] = {"status": result.status, "value": result.count}
        if result.status == "exact":
            lines.append(f"count: {result.count}")
        elif result.status == "capped":
            lines.append(f"count: >={result.count}")
        else:
            lines.append(f"count: >={result.count} (search incomplete)")
    else:
        result = exists_partition(instance, jobs=args.jobs, node_budget=node_budget)
        verdict = result.status
    obj["verdict"] = verdict
    lines.insert(0, verdict)
    if args.witness and result.witness is not None:
        obj["witness"] = witness_to_json(instance, result.witness)
        for b in result.witness:
            lines.append("block: " + " ".join(str(c) for c in instance.blocks[b].chains))
    if args.format == "json":
        _print_json(obj)
    else:
        for line in lines:
            print(line)
    return 3 if result.status == "inconclusive" else 0


def cmd_bell_classic(args: argparse.Namespace) -> int:
    value = bell_exact(args.n)
    if args.dobinski is None:
        if args.format == "json":
            _print_json({"n": args.n, "bell": value})
        else:
            print(value)
        return 0
    approx = bell_dobinski(args.n, args.dobinski)
    rel_err = abs(approx - value) / value if value else 0.0
    if args.format == "json":
        _print_json({"n": args.n, "bell": value, "dobinski": approx, "rel_err": rel_err})
    else:
        print(value)
        print(f"dobinski: {approx!r} (rel_err {rel_err:.3e})")
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(func=cmd_fnomial)

    p = sub.add_parser("admissible", parents=[fmt], help="bounded integrality scan")
    p.add_argument("seq")
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(func=cmd_admissible)

    p = sub.add_parser("gcdmorphic", parents=[fmt], help="bounded GCD-morphism scan")
    p.add_argument("seq")
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(func=cmd_gcdmorphic)

    p = sub.add_parser("zeta", parents=[fmt], help="zeta matrix, level-major order")
    p.add_argument("seq")
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--size", type=int, default=None, help="leading block to print")
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("mobius", parents=[fmt], help="Mobius matrix (exact inverse of zeta)")
    p.add_argument("seq")
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--size", type=int, default=None, help="leading block to print")
    p.set_defaults(func=cmd_mobius)

    p = sub.add_parser("chains", parents=[fmt], help="saturated chains over a level span")
    p.add_argument("seq")
    p.add_argument("--from", dest="from_level", type=int, required=True)
    p.add_argument("--to", dest="to_level", type=int, required=True)
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--budget", type=int, default=None, help="enumeration budget (chains)")
    p.set_defaults(func=cmd_chains)

    p = sub.add_parser("grid", parents=[fmt], help="layer grid P(k, n)")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--whitney", action="store_true", help="rank table, both kinds")
    g.add_argument("--bell", action="store_true", help="sum of rank counts")
    g.add_argument("--maxchains", action="store_true", help="dominated-path count")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("diagonal", parents=[fmt], help="diagonal Whitney/Bell-like numbers")
    p.add_argument("seq")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--triangle", action="store_true", help="print the Whitney triangle")
    p.set_defaults(func=cmd_diagonal)

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
    p.add_argument(
        "--node-budget",
        type=int,
        default=None,
        help=f"search node budget (default from ${NODE_BUDGET_ENV})",
    )
    p.set_defaults(func=cmd_tile)

    p = sub.add_parser("bell-classic", parents=[fmt], help="classical Bell numbers")
    p.add_argument("n", type=int)
    p.add_argument(
        "--dobinski",
        type=float,
        default=None,
        metavar="TOL",
        help="also evaluate the Dobinski series to this relative tolerance",
    )
    p.set_defaults(func=cmd_bell_classic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Integers print in full however long they are, so the interpreter's
    # int-to-str digit limit (Python 3.11+) is lifted for this call only.
    lift_digit_limit = hasattr(sys, "set_int_max_str_digits")
    if lift_digit_limit:
        saved_digit_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except SequenceSpecError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (EnumerationBudgetError, TilingBudgetError) as err:
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
