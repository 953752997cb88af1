"""Command-line interface.

Exit codes for ``solve``: 0 a verified packing was found, 2 infeasibility was
certified by the side count or the exact oracle, 3 the search was inconclusive,
1 bad input.
Other subcommands exit 0 on a clean run and 1 on errors or violations. ``trials``
exits 1 on a theorem violation: a row whose host meets the hypotheses yet is
certified infeasible. ``gen random`` with the row's seed rebuilds that host.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .graphs import (DEFAULT_FILL_P, _decimal, gen_complete, gen_random_mindeg, gen_sharpness, parse_graph,
                     serialize_graph)
from .harness import run_exhaustive, run_sharpness, run_trials
from .packer import DEFAULT_ORACLE_LIMIT, INFEASIBLE, PACKED, pack
from .profiles import ProfileError, make_profile
from .verify import check_hypotheses

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_UNKNOWN = 3


def _profile_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", required=True,
                        help="comma-separated even cycle lengths, e.g. 6,6,8")
    parser.add_argument("--mode", choices=["theorem", "conjecture"], default="theorem",
                        help="length floor: theorem >=6, conjecture >=4 (default theorem)")


def _integer(text: str) -> int:
    """argparse type of every integer option: an optional minus and ASCII digits."""
    try:
        return _decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}") from None


def _float(text: str) -> float:
    """argparse type of ``--fill-p``: ``float`` on ASCII text without underscores."""
    if text.isascii() and "_" not in text:
        try:
            return float(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")


def _parse_profile(args):
    try:
        lengths = [_decimal(part.strip()) for part in args.profile.split(",") if part.strip()]
    except ValueError:
        raise ProfileError(f"profile {args.profile!r} is not a comma-separated integer list")
    return make_profile(lengths, args.mode)


def _emit(summary: dict, as_json: bool, render) -> None:
    if as_json:  # one line: json.dumps without indent runs CPython's C encoder; json.dump never does
        print(json.dumps(summary))
    else:
        render(summary)


@functools.cache  # built on first use, then reused: parse_args leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclepack",
        description="Pack vertex-disjoint long even cycles in bipartite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a single instance from a graph file")
    p.add_argument("--graph", required=True, help="graph file path")
    _profile_arg(p)
    p.add_argument("--budget", type=_integer, default=None,
                   help="cap on iterations per attempt (default: none, the potential ends each attempt)")
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--oracle-limit", type=_integer, default=DEFAULT_ORACLE_LIMIT)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("trials", help="seeded random-instance campaign")
    p.add_argument("--side", type=_integer, required=True)
    p.add_argument("--delta", type=_integer, default=None,
                   help="minimum degree of generated instances (default: profile threshold)")
    _profile_arg(p)
    p.add_argument("--trials", type=_integer, required=True)
    p.add_argument("--seed", type=_integer, required=True)
    # trials run serially; the flag stays, hidden, only because benchmarks/workloads.py passes --threads 1
    p.add_argument("--threads", type=_integer, choices=(1,), help=argparse.SUPPRESS)
    p.add_argument("--fill-p", type=_float, default=DEFAULT_FILL_P)
    p.add_argument("--oracle-limit", type=_integer, default=DEFAULT_ORACLE_LIMIT)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("exhaustive", help="check every bipartite graph at a tiny side size")
    p.add_argument("--side", type=_integer, required=True)
    _profile_arg(p)
    p.add_argument("--force", action="store_true", help="lift the default side cap")
    p.add_argument("--oracle-limit", type=_integer, default=DEFAULT_ORACLE_LIMIT)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("sharpness", help="certify the tight construction is unpackable")
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument("--oracle-limit", type=_integer, default=DEFAULT_ORACLE_LIMIT)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("gen", help="write an instance file")
    gsub = p.add_subparsers(dest="generator", required=True)
    q = gsub.add_parser("complete", help="complete bipartite graph K_{m,m}")
    q.add_argument("--m", type=_integer, required=True)
    q.add_argument("--out", required=True)
    q = gsub.add_parser("random", help="seeded random graph with a min-degree floor")
    q.add_argument("--x", type=_integer, required=True)
    q.add_argument("--y", type=_integer, required=True)
    q.add_argument("--delta", type=_integer, required=True)
    q.add_argument("--seed", type=_integer, required=True)
    q.add_argument("--fill-p", type=_float, default=DEFAULT_FILL_P)
    q.add_argument("--out", required=True)
    q = gsub.add_parser("sharpness", help="the tight 4k+2-vertex construction")
    q.add_argument("--k", type=_integer, required=True)
    q.add_argument("--out", required=True)
    return parser


# -- rendering ---------------------------------------------------------------


def _render_report(report_dict: dict) -> None:
    for check in report_dict["checks"]:
        mark = "PASS" if check["pass"] else "FAIL"
        print(f"  [{mark}] {check['name']}: {check['detail']}")


def _render_solve(summary: dict) -> None:
    print(f"status: {summary['status']}")
    for line in summary["diagnostics"]:
        print(f"  {line}")
    if summary.get("packing"):
        for i, cyc in enumerate(summary["packing"]):
            print(f"  cycle {i} (length {len(cyc)}): {' '.join(map(str, cyc))}")
    if summary["report"]:
        _render_report(summary["report"])
    _render_report(summary["hypotheses"])
    print(f"moves: {summary['moves']}  oracle_used: {summary['oracle_used']}")


def _render_trials(summary: dict) -> None:
    cfg = summary["config"]
    agg = summary["aggregates"]
    print(
        f"trials: side {cfg['side_size']}, delta {cfg['delta']}, profile {cfg['profile']}, "
        f"{cfg['trials']} trials, seed {cfg['seed']}"
    )
    print(f"  success rate     {agg['success_rate']:.4f}")
    for outcome, count in agg["outcomes"].items():
        print(f"  {outcome:<16} {count}")
    print(f"  oracle fallbacks {agg['oracle_fallbacks']}")
    print(f"  hypotheses hold  {agg['hypotheses_hold']}")
    print(f"  guaranteed unknown {agg['guaranteed_unknown']}")
    print(f"  guaranteed restarted {agg['guaranteed_restarted']}")
    print(f"  violations       {agg['theorem_violations']}")
    for row in summary["trials"]:
        if row["theorem_violation"]:  # `gen random` with this seed rebuilds the host
            print(f"    trial {row['trial']} seed {row['seed']}")
    print(f"  moves            {agg['move_histogram']}")
    print(f"  mean time        {summary['timing']['mean_s'] * 1000:.2f} ms")


def _render_exhaustive(summary: dict) -> None:
    print(
        f"exhaustive: side {summary['config']['side']}, profile {summary['config']['profile']}, "
        f"threshold {summary['config']['threshold']}"
    )
    print(f"  graph space          {summary['space_size']}")
    print(f"  hypothesis satisfied {summary['hypothesis_satisfying']}")
    print(f"  packed               {summary['packed']}")
    print(f"  violations           {len(summary['violations'])}")


def _render_sharpness(summary: dict) -> None:
    print(
        f"sharpness k={summary['config']['k']}: {summary['vertices']} vertices, "
        f"min degree {summary['min_degree']} = threshold {summary['threshold']} - 1"
    )
    print(f"  profile {summary['profile']}  verdict: {summary['verdict']}")
    print(f"  ok: {summary['ok']}")


# -- commands ------------------------------------------------------------------


def _cmd_solve(args) -> int:
    profile = _parse_profile(args)
    with open(args.graph, "rb") as fh:  # parse_graph alone checks the bytes and the line ends
        g = parse_graph(fh.read())
    result = pack(g, profile, budget=args.budget, seed=args.seed, oracle_limit=args.oracle_limit)
    summary = {
        "status": result.status,
        "packing": [list(c) for c in result.packing] if result.packing else None,
        "report": result.report.to_dict() if result.report is not None else None,
        "hypotheses": check_hypotheses(g, profile).to_dict(),
        "moves": result.move_counts,
        "iterations": result.iterations,
        "restarts": result.restarts,
        "oracle_used": result.oracle_used,
        "diagnostics": result.diagnostics,
    }
    _emit(summary, args.json, _render_solve)
    if result.status == PACKED:  # pack raises rather than return a packing the verifier rejects
        return EXIT_OK
    return EXIT_INFEASIBLE if result.status == INFEASIBLE else EXIT_UNKNOWN


def _cmd_trials(args) -> int:
    summary = run_trials(args.side, _parse_profile(args), args.trials, args.seed, delta=args.delta,
                         oracle_limit=args.oracle_limit, fill_p=args.fill_p)
    _emit(summary, args.json, _render_trials)
    return EXIT_OK if summary["aggregates"]["theorem_violations"] == 0 else EXIT_INPUT


def _cmd_exhaustive(args) -> int:
    profile = _parse_profile(args)
    summary = run_exhaustive(args.side, profile, force=args.force, oracle_limit=args.oracle_limit)
    _emit(summary, args.json, _render_exhaustive)
    return EXIT_OK if not summary["violations"] else EXIT_INPUT


def _cmd_sharpness(args) -> int:
    summary = run_sharpness(args.k, oracle_limit=args.oracle_limit)
    _emit(summary, args.json, _render_sharpness)
    return EXIT_OK if summary["ok"] else EXIT_INPUT


def _cmd_gen(args) -> int:
    if args.generator == "complete":
        g = gen_complete(args.m)
        note = f"K_{{{args.m},{args.m}}}"
    elif args.generator == "random":
        g = gen_random_mindeg(args.x, args.y, args.delta, args.seed, args.fill_p)
        note = f"random {args.x}+{args.y}, min degree >= {args.delta}, seed {args.seed}"
    else:
        g, profile = gen_sharpness(args.k)
        note = (
            f"sharpness k={args.k}; pair with --profile "
            f"{','.join(map(str, profile.lengths))} --mode conjecture"
        )
    text = serialize_graph(g)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    status = sys.stderr if args.out == "-" else sys.stdout  # keep piped graph text parseable
    print(f"wrote {g.num_vertices} vertices, {g.edge_count} edges: {note}", file=status)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "trials": _cmd_trials,
        "exhaustive": _cmd_exhaustive,
        "sharpness": _cmd_sharpness,
        "gen": _cmd_gen,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:  # GraphError, ProfileError, ConfigError and OracleLimitError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
