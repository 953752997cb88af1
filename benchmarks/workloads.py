"""The four benchmark workloads: their inputs, their CLI calls and the checks on
their outputs.

Each workload is a fixed list of CLI calls (one *pass*). Inputs depend only on
the seed, so every pass of a run repeats the same calls and must produce the
same output. Every output is checked here without the program's verifier: each
returned cycle is walked against the benchmark's own copy of the edge set.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

ORACLE_LIMIT = 18  # the CLI default; the benchmark runs with CYCLEPACK_ORACLE_LIMIT unset
SOLVE_BUDGET = 20000  # every solve-large instance needs at most 7,700 iterations at the seed commit
EXHAUSTIVE_SATISFYING = {4: 209, 5: 304186}


@dataclass
class Call:
    """One CLI invocation with what the check needs to judge its output."""

    argv: list[str]
    ops: int  # operations the call carries: solves, trials or certified graphs
    context: dict = field(default_factory=dict)
    label: str = ""

    def __post_init__(self):
        self.label = self.label or " ".join(self.argv[:-1])  # drop the trailing --json


@dataclass
class Verdict:
    decided: int = 0  # ops ending in a checked packing or a certified verdict
    failed: int = 0  # ops that raised, exited wrongly, failed the check or lack a certificate
    guaranteed_unknown: int = 0  # trials-scale ops ending `unknown` on the default budget
    problems: list[str] = field(default_factory=list)

    def fail(self, ops: int, problem: str) -> None:
        self.failed += ops
        self.problems.append(problem)


def threshold(lengths) -> int:
    """Degree bound n/2 - k + 1 of the guaranteed regime."""
    return sum(lengths) // 2 - len(lengths) + 1


def walk_cycles(has_edge, lengths, cycles) -> str | None:
    """Independent packing check: simple even cycles of adjacent vertices,
    pairwise disjoint, whose sorted lengths cover the sorted profile."""
    if cycles is None or len(cycles) != len(lengths):
        return f"expected {len(lengths)} cycles, got {None if cycles is None else len(cycles)}"
    used: set[int] = set()
    for i, cyc in enumerate(cycles):
        if len(set(cyc)) != len(cyc):
            return f"cycle {i} is not simple"
        if len(cyc) < 4 or len(cyc) % 2:
            return f"cycle {i} has length {len(cyc)}"
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if not has_edge(a, b):
                return f"cycle {i}: {a}-{b} is not an edge"
        if used.intersection(cyc):
            return f"cycle {i} shares a vertex with an earlier cycle"
        used.update(cyc)
    have = sorted((len(c) for c in cycles), reverse=True)
    need = sorted(lengths, reverse=True)
    if any(h < n for h, n in zip(have, need)):
        return f"cycle lengths {have} do not cover {need}"
    return None


def _bit_edge_test(rows: list[int], side: int):
    """Edge test for global ids (X = 0..side-1, Y = side..2*side-1) on per-X rows."""

    def has_edge(a: int, b: int) -> bool:
        if a > b:
            a, b = b, a
        return 0 <= a < side <= b < 2 * side and bool(rows[a] >> (b - side) & 1)

    return has_edge


# -- solve-large ---------------------------------------------------------------

# (side, profile, fill): guaranteed regime with delta at the threshold, beyond
# oracle scale. Shapes: many 6-cycles, a few long cycles, a mixed 10/8/6 profile
# with slack.
SOLVE_INSTANCES = (
    [(s, [6] * (s // 3), f) for s, f in
     [(45, 0.0), (45, 0.5), (60, 0.0), (60, 0.5), (75, 0.0), (75, 0.5), (90, 0.0), (90, 0.5),
      (105, 0.0), (150, 0.0)]]
    + [(s, lengths, f) for s, lengths in
       [(60, [30, 30, 20, 20, 20]), (75, [30, 30, 30, 20, 20, 20]), (90, [30, 30, 20, 20, 12, 12]),
        (120, [30] * 4 + [20] * 4 + [12] * 3)] for f in (0.0, 0.5)]
    + [(s, lengths, f) for s, lengths in
       [(60, [10, 10, 8, 8, 6, 6, 6]), (90, [10] * 4 + [8] * 5 + [6] * 10),
        (120, [10] * 8 + [8] * 10 + [6] * 10)] for f in (0.0, 0.5)]
    + [(150, [10] * 10 + [8] * 10 + [6] * 10, 0.0)]
)


def circulant_rows(side: int, delta: int, fill: float, rng: random.Random) -> list[int]:
    """Random-permutation circulant of degree ``delta`` plus independent fill.

    X vertex px[i] is joined to Y vertices py[i], ..., py[i + delta - 1] (mod
    side), which makes every vertex on both sides meet exactly ``delta`` base
    edges; each other pair is then added with probability ``fill``. Returns
    per-X bitmasks over Y offsets.
    """
    px = list(range(side))
    py = list(range(side))
    rng.shuffle(px)
    rng.shuffle(py)
    rows = [0] * side
    for i in range(side):
        for j in range(delta):
            rows[px[i]] |= 1 << py[(i + j) % side]
    if fill:
        for u in range(side):
            for w in range(side):
                if not rows[u] >> w & 1 and rng.random() < fill:
                    rows[u] |= 1 << w
    col = [sum(rows[u] >> w & 1 for u in range(side)) for w in range(side)]
    if min(r.bit_count() for r in rows) < delta or min(col) < delta:
        raise AssertionError(f"generator broke the degree floor {delta} at side {side}")
    return rows


def graph_text(side: int, rows: list[int]) -> str:
    lines = [f"p bip {side} {side} {sum(r.bit_count() for r in rows)}"]
    lines += [f"e {u} {side + w}" for u in range(side) for w in range(side) if rows[u] >> w & 1]
    return "\n".join(lines) + "\n"


def setup_solve_large(seed: int, workdir: str) -> list[Call]:
    calls = []
    for index, (side, lengths, fill) in enumerate(SOLVE_INSTANCES):
        rng = random.Random(seed * 1_000_003 + index)
        rows = circulant_rows(side, threshold(lengths), fill, rng)
        path = os.path.join(workdir, f"solve_{index:02d}.graph")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(graph_text(side, rows))
        argv = ["solve", "--graph", path, "--profile", ",".join(map(str, lengths)),
                "--budget", str(SOLVE_BUDGET), "--seed", str(seed), "--json"]
        label = f"solve side {side} profile {','.join(map(str, lengths))} fill {fill}"
        calls.append(Call(argv, 1, {"side": side, "lengths": lengths, "rows": rows}, label))
    return calls


def check_solve(call: Call, rc: int, out: dict, make_graph=None) -> Verdict:
    v = Verdict()
    ctx = call.context
    if out["status"] != "packed":  # the budget lets every instance pack, so `unknown` fails too
        v.fail(1, f"status {out['status']} with exit {rc} in the guaranteed regime")
        return v
    if rc != 0 or not out["report"]["ok"]:
        v.fail(1, f"packed but exit {rc}, verifier ok={out['report']['ok']}")
        return v
    problem = walk_cycles(_bit_edge_test(ctx["rows"], ctx["side"]), ctx["lengths"], out["packing"])
    if problem:
        v.fail(1, problem)
    else:
        v.decided += 1
    return v


def solve_counters(call: Call, out: dict) -> dict:
    fallback = bool(out["oracle_used"])
    return {"iterations": out["iterations"], "restarts": out["restarts"],
            "oracle_fallbacks": int(fallback),
            "engine_miss": int(fallback and out["status"] == "packed")}


# -- trials ----------------------------------------------------------------------

TRIALS_SCALE_SIDES = (60, 66, 72, 78, 84, 90)  # straddles the default-budget edge
TRIALS_DESK_CONFIGS = (
    # criterion 2 and criterion 3. With these counts the median trial lies well
    # inside the criterion-3 trials, whose call is long enough (about 0.8 s) to
    # time steadily.
    {"side": 6, "delta": 5, "fill": 0.5, "lengths": [6, 6], "mode": "theorem", "trials": 200},
    {"side": 9, "delta": 5, "fill": 0.5, "lengths": [6, 6], "mode": "theorem", "trials": 1000},
    # below threshold and sparse: oracle fallbacks and wasted moves. The side-8
    # config's cost varies most between instance draws, so it gets more trials.
    {"side": 8, "delta": 2, "fill": 0.1, "lengths": [4, 4, 4, 4], "mode": "conjecture", "trials": 400},
    {"side": 9, "delta": 3, "fill": 0.05, "lengths": [6, 6, 6], "mode": "theorem", "trials": 200},
)


def _trials_call(seed: int, trials: int, side: int, lengths, delta=None, fill=None, mode=None) -> Call:
    argv = ["trials", "--side", str(side), "--profile", ",".join(map(str, lengths))]
    if delta is not None:
        argv += ["--delta", str(delta)]
    if fill is not None:
        argv += ["--fill-p", str(fill)]
    if mode is not None:
        argv += ["--mode", mode]
    # Trial seeds are `seed XOR index`, so nearby campaign seeds draw nearly the
    # same instances; blocks of 1024 keep each benchmark seed's instances its own.
    argv += ["--trials", str(trials), "--seed", str(seed * 1024), "--threads", "1", "--json"]
    ctx = {"side": side, "lengths": list(lengths),
           "delta": threshold(lengths) if delta is None else delta,
           "fill": 0.5 if fill is None else fill}
    return Call(argv, trials, ctx)


def setup_trials_scale(seed: int, workdir: str) -> list[Call]:
    # default flags: delta at the threshold, default budget and fill
    return [_trials_call(seed, 1, s, [6] * (s // 3)) for s in TRIALS_SCALE_SIDES]


def setup_trials_desk(seed: int, workdir: str) -> list[Call]:
    return [_trials_call(seed, c["trials"], c["side"], c["lengths"], c["delta"], c["fill"],
                         c["mode"] if c["mode"] != "theorem" else None)
            for c in TRIALS_DESK_CONFIGS]


def check_trials(call: Call, rc: int, out: dict, make_graph) -> Verdict:
    """``make_graph(side, delta, seed, fill)`` rebuilds a trial's host so its
    edges can be re-walked; rows carry their own seeds."""
    v = Verdict()
    ctx = call.context
    side, lengths = ctx["side"], ctx["lengths"]
    need = threshold(lengths)
    rows = out["trials"]
    if rc != 0 or len(rows) != call.ops:
        v.fail(call.ops, f"exit {rc} with {len(rows)} rows for {call.ops} trials")
        return v
    for row in rows:
        g = make_graph(side, ctx["delta"], row["seed"], ctx["fill"])
        adj = g.adjacency
        degrees = [a.bit_count() for a in adj]
        if min(degrees) < ctx["delta"]:
            v.fail(1, f"trial {row['trial']}: host misses the degree floor {ctx['delta']}")
            continue
        guaranteed = side >= sum(lengths) // 2 and min(degrees) >= need
        if row["hypotheses_hold"] != guaranteed:
            v.fail(1, f"trial {row['trial']}: hypotheses_hold={row['hypotheses_hold']}, expected {guaranteed}")
            continue
        outcome = row["outcome"]
        if outcome == "packed":
            problem = walk_cycles(lambda a, b: bool(adj[a] >> b & 1) and (a < side) != (b < side),
                                  lengths, row["packing"])
            if problem or not row["verified"]:
                v.fail(1, f"trial {row['trial']}: {problem or 'verifier rejected the packing'}")
            else:
                v.decided += 1
        elif outcome == "infeasible":
            if guaranteed or not row["oracle_fallback"] or 2 * side > ORACLE_LIMIT:
                v.fail(1, f"trial {row['trial']}: infeasible without a certificate "
                          f"(guaranteed={guaranteed}, oracle={row['oracle_fallback']})")
            else:
                v.decided += 1
        elif outcome == "unknown" and 2 * side > ORACLE_LIMIT:
            v.guaranteed_unknown += guaranteed
        else:
            v.fail(1, f"trial {row['trial']}: outcome {outcome} at side {side}")
    return v


def trials_counters(call: Call, out: dict) -> dict:
    rows = out["trials"]
    return {"iterations": sum(r["iterations"] for r in rows),
            "restarts": sum(r["restarts"] for r in rows),
            "oracle_fallbacks": sum(bool(r["oracle_fallback"]) for r in rows),
            "engine_miss": sum(bool(r["oracle_fallback"]) and r["outcome"] == "packed" for r in rows)}


# -- certify -----------------------------------------------------------------------

CERTIFY_QUICK_REPEATS = 25  # the quick calls are timed as medians over repeats


def setup_certify(seed: int, workdir: str) -> list[Call]:
    quick = [
        Call(["exhaustive", "--side", "4", "--profile", "6", "--json"], EXHAUSTIVE_SATISFYING[4], {"side": 4}),
        Call(["sharpness", "--k", "2", "--json"], 1, {"k": 2}),
        Call(["sharpness", "--k", "4", "--json"], 1, {"k": 4}),
    ]
    deep = Call(["exhaustive", "--side", "5", "--profile", "6", "--force", "--json"],
                EXHAUSTIVE_SATISFYING[5], {"side": 5})
    return quick * CERTIFY_QUICK_REPEATS + [deep]


def check_certify(call: Call, rc: int, out: dict, make_graph=None) -> Verdict:
    v = Verdict()
    if "side" in call.context:
        want = EXHAUSTIVE_SATISFYING[call.context["side"]]
        got = (out["hypothesis_satisfying"], out["packed"], len(out["violations"]))
        if rc != 0 or got != (want, want, 0):
            v.fail(call.ops, f"exhaustive side {call.context['side']}: exit {rc}, "
                             f"(satisfying, packed, violations) = {got}, expected ({want}, {want}, 0)")
            return v
    elif rc != 0 or out["verdict"] != "infeasible" or not out["ok"] or not out["certified_infeasible"]:
        v.fail(call.ops, f"sharpness k={call.context['k']}: exit {rc}, verdict {out['verdict']}, ok {out['ok']}")
        return v
    v.decided += call.ops
    return v


def no_counters(call: Call, out: dict) -> dict:
    return {}


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object  # (seed, workdir) -> list[Call]
    check: object  # (call, rc, out, make_graph) -> Verdict
    counters: object  # (call, out) -> dict of packer counters read from the CLI JSON


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-large", setup_solve_large, check_solve, solve_counters),
        Workload("trials-scale", setup_trials_scale, check_trials, trials_counters),
        Workload("trials-desk", setup_trials_desk, check_trials, trials_counters),
        Workload("certify", setup_certify, check_certify, no_counters),
    )
}
