"""Campaign drivers behind the CLI: seeded random trials, exhaustive tiny-scale
enumeration and the sharpness regression.

A counterexample hunt is a trials campaign at the default δ within the oracle
limit: a host that meets the hypotheses yet is certified infeasible is a
``theorem_violation`` row, and ``gen_random_mindeg(side, side, delta, seed,
fill_p)`` with the row's ``seed`` and the campaign's config rebuilds it.

All summaries are plain dicts ready for JSON. Wall-clock measurements live only
under the top-level ``"timing"`` key so that identical seeds reproduce the rest
of the summary byte for byte.
"""
from __future__ import annotations

import math
import time
from collections import Counter
from itertools import combinations_with_replacement

from .graphs import DEFAULT_FILL_P, gen_random_mindeg, gen_sharpness, graph_of_rows, serialize_graph
from .packer import DEFAULT_ORACLE_LIMIT, INFEASIBLE, PACKED, UNKNOWN, brute_force_pack, mix_seed, pack
from .profiles import CycleProfile
from .verify import check_hypotheses

EXHAUSTIVE_SIDE_CAP = 5


class ConfigError(ValueError):
    """Invalid campaign configuration."""


def run_trials(side: int, profile: CycleProfile, trials: int, seed: int, delta: int | None = None,
               oracle_limit: int = DEFAULT_ORACLE_LIMIT, fill_p: float = DEFAULT_FILL_P) -> dict:
    """Seeded campaign of random instances at minimum degree ``delta`` (default:
    the profile's degree threshold).

    The side, ``delta`` and ``fill_p`` are checked once, by
    ``gen_random_mindeg``: it raises before the first trial draws anything.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if delta is None:
        delta = profile.threshold
    rows, times = [], []
    started = time.perf_counter()
    for index in range(trials):
        trial_seed = mix_seed(seed, index)  # per-index stream: the row seed alone rebuilds the host
        trial_started = time.perf_counter()
        g = gen_random_mindeg(side, side, delta, trial_seed, fill_p)
        hyp = check_hypotheses(g, profile)
        result = pack(g, profile, seed=trial_seed, oracle_limit=oracle_limit)
        # In the guaranteed regime a packing must exist, so a certified
        # "infeasible" (pigeonhole, which the balanced sides rule out, or the
        # oracle, which runs only within its limit) can only mean a bug.
        violation = hyp.ok and result.status == INFEASIBLE
        times.append(time.perf_counter() - trial_started)
        rows.append({
            "trial": index,
            "seed": trial_seed,
            "outcome": result.status,
            "oracle_fallback": result.oracle_used,
            "hypotheses_hold": hyp.ok,
            "verified": result.report is not None and result.report.ok,
            "theorem_violation": violation,
            "moves": dict(result.move_counts),
            "iterations": result.iterations,
            "restarts": result.restarts,
            "packing": [list(c) for c in result.packing] if result.packing else None,
        })
    total = time.perf_counter() - started

    counts = Counter(row["outcome"] for row in rows)
    move_hist: Counter[str] = Counter()
    for row in rows:
        move_hist.update(row["moves"])  # zero counts are kept
    summary = {
        "command": "trials",
        "config": {
            "profile": list(profile.lengths),
            "mode": profile.mode,
            "side_size": side,
            "delta": delta,
            "trials": trials,
            "seed": seed,
            "oracle_limit": oracle_limit,
            "fill_p": fill_p,
        },
        "trials": rows,
        "aggregates": {
            "success_rate": counts[PACKED] / trials,
            "outcomes": {k: counts[k] for k in sorted(counts)},
            "oracle_fallbacks": sum(row["oracle_fallback"] for row in rows),
            # a campaign whose rows all fail the hypotheses has no violation to find
            "hypotheses_hold": sum(row["hypotheses_hold"] for row in rows),
            # a packing exists in each of these, so each is an engine gap
            "guaranteed_unknown": sum(row["hypotheses_hold"] and row["outcome"] == UNKNOWN for row in rows),
            # the engine's gauge in the regime: rows it could not pack on the first attempt
            "guaranteed_restarted": sum(row["hypotheses_hold"] and row["restarts"] > 0 for row in rows),
            "theorem_violations": sum(row["theorem_violation"] for row in rows),
            "move_histogram": {k: move_hist[k] for k in sorted(move_hist)},
        },
        "timing": {
            "per_trial_s": times,
            "mean_s": sum(times) / len(times),
            "max_s": max(times),
            "total_s": total,
        },
    }
    return summary


def run_exhaustive(side: int, profile: CycleProfile, force: bool = False,
                   oracle_limit: int = DEFAULT_ORACLE_LIMIT) -> dict:
    """Check the packing guarantee on every bipartite graph with the given side size.

    A graph is its tuple of X rows (row i is the Y-neighbourhood bitmask of X
    vertex i). Only non-decreasing row tuples are enumerated, one per multiset
    of rows, and each stands for the side!/(m_1!...m_r!) labelled graphs whose
    rows are its permutations, where m_i counts equal rows. That weight is what
    ``hypothesis_satisfying`` and ``packed`` add up, so they stay counts of
    labelled graphs. This is sound because permuting the rows only relabels X
    vertices: it keeps every row degree, every column degree and the balance of
    the sides, and it maps a packing onto a packing. So every graph a multiset
    stands for meets the hypotheses and has a packing exactly when the tuple
    enumerated does.

    Rows under the degree threshold are never tried. The multisets of the
    remaining rows come from one ``combinations_with_replacement`` loop, as
    sorted row tuples in lexicographic order, and a multiset is kept only when
    every column reaches the threshold; the ones dropped are exactly the graphs
    whose column degrees fail the hypotheses, so every kept multiset satisfies
    them.

    One certificate is kept: the packing the exact oracle returned most
    recently, as the ``(x, mask of Y offsets)`` edges it uses at each X vertex.
    Consecutive multisets differ mostly in their last rows, so it often fits
    the next one, and a multiset whose rows contain every certificate edge is
    counted as packed without building its graph. This is sound: the packing
    passed ``verify_packing`` in full on the host where the oracle found it,
    and of that check's parts only adjacency depends on the host. Cycle count,
    simplicity, lengths, parity and disjointness depend only on the cycles
    and the profile, and ``graph_of_rows`` builds every host bipartite, so the
    mask test is exactly the check that can change between hosts. Any other
    multiset builds its graph and is handed to the oracle, whose packing is
    verified in full and becomes the certificate. An infeasible verdict, which
    only the oracle gives, violates the guarantee and is reported as one
    ``violations`` entry per multiset, in enumeration order, with its sorted
    ``rows``, the ``graph`` and the ``weight`` of labelled graphs it stands
    for.
    """
    if side < 1:
        raise ConfigError("side must be >= 1")
    if side > EXHAUSTIVE_SIDE_CAP and not force:
        raise ConfigError(
            f"side {side} enumerates 2^{side * side} graphs; pass force to override the cap"
        )
    if 2 * side > oracle_limit:
        raise ConfigError(f"side {side} exceeds the oracle limit {oracle_limit}")
    threshold = profile.threshold
    balance_ok = side >= profile.n // 2
    started = time.perf_counter()
    space = 1 << (side * side)
    satisfying = packed = 0
    violations: list[dict] = []
    if balance_ok:
        row_choices = [row for row in range(1 << side) if row.bit_count() >= threshold]
        labellings = math.factorial(side)
        # Column j of a row is spread to bit w*j, so a sum of spread rows holds
        # each column degree (at most side < 2**(w-1)) in its own w-bit field;
        # adding 2**(w-1) - threshold to every field sets a field's top bit
        # exactly when that column reaches the threshold.
        w = side.bit_length() + 1
        ones = sum(1 << (w * j) for j in range(side))
        top = ones << (w - 1)
        bias = top - threshold * ones
        row_of = {sum((row >> j & 1) << (w * j) for j in range(side)): row for row in row_choices}
        certificate = ()  # the edges of the oracle's latest packing; none yet
        for spread in combinations_with_replacement(row_of, side):  # keys come in row_choices order
            if sum(spread, bias) & top != top:
                continue
            rows = [row_of[key] for key in spread]
            weight = labellings // math.prod(math.factorial(m) for m in Counter(rows).values())
            satisfying += weight
            if certificate and _fits(certificate, rows):
                packed += weight
                continue
            g = graph_of_rows(side, side, rows)
            result = brute_force_pack(g, profile, oracle_limit)
            if result.status == PACKED:
                packed += weight
                certificate = _certificate(result.packing, side)
            else:
                violations.append({"rows": rows, "graph": serialize_graph(g), "weight": weight})
    summary = {
        "command": "exhaustive",
        "config": {
            "side": side,
            "profile": list(profile.lengths),
            "mode": profile.mode,
            "threshold": threshold,
            "oracle_limit": oracle_limit,
        },
        "space_size": space,
        "balance_hypothesis_ok": balance_ok,
        "hypothesis_satisfying": satisfying,
        "packed": packed,
        "violations": violations,
        "timing": {"total_s": time.perf_counter() - started},
    }
    return summary


def _certificate(packing, side: int) -> tuple[tuple[int, int], ...]:
    """The edges a packing uses, as ``(x, mask of Y offsets)`` per X vertex on it."""
    return tuple(
        (u, 1 << (cyc[j - 1] - side) | 1 << (cyc[(j + 1) % len(cyc)] - side))
        for cyc in packing for j, u in enumerate(cyc) if u < side
    )


def _fits(certificate: tuple[tuple[int, int], ...], rows: list[int]) -> bool:
    """Whether the host of these X rows has every edge of the certificate."""
    return all(rows[x] & m == m for x, m in certificate)


def run_sharpness(k: int, oracle_limit: int = DEFAULT_ORACLE_LIMIT) -> dict:
    """Certify that the tight construction admits no packing while sitting one
    unit below the degree threshold. ``brute_force_pack`` refuses a host above
    ``oracle_limit`` with ``OracleLimitError``."""
    g, profile = gen_sharpness(k)
    started = time.perf_counter()
    delta = g.min_degree()
    threshold = profile.threshold
    verdict = brute_force_pack(g, profile, oracle_limit)
    ok = verdict.status == INFEASIBLE and delta == k + 1 == threshold - 1
    return {
        "command": "sharpness",
        "config": {"k": k, "oracle_limit": oracle_limit},
        "vertices": g.num_vertices,
        "min_degree": delta,
        "threshold": threshold,
        "profile": list(profile.lengths),
        "verdict": verdict.status,
        "certified_infeasible": verdict.status == INFEASIBLE,
        "ok": ok,
        "timing": {"total_s": time.perf_counter() - started},
    }

