"""Independent validation of cycle packings, and the theorem's hypotheses.

``verify_packing`` answers whether a claimed packing is correct. It trusts
nothing from the solver: every check works from the graph's adjacency bitmasks
and the claimed vertex sequences alone. ``check_hypotheses`` answers whether
the host sits in the guaranteed regime. The two questions are independent: the
hypotheses are sufficient for a packing to exist and say nothing about whether
a given packing is correct.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graphs import BipartiteGraph, bits
from .profiles import CycleProfile


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "pass": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class VerificationReport:
    """Ordered check results."""

    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"ok": self.ok, "checks": [c.to_dict() for c in self.checks]}


def check_hypotheses(g: BipartiteGraph, profile: CycleProfile) -> VerificationReport:
    """Report whether the instance sits in the guaranteed regime (balanced sides
    of size >= n/2 and min degree >= n/2-k+1)."""
    balanced = g.x_size == g.y_size and g.x_size >= profile.n // 2
    checks = [
        Check(
            "hypothesis_balance",
            balanced,
            f"|X|={g.x_size}, |Y|={g.y_size}, need equal sides of size >= {profile.n // 2}",
        )
    ]
    if g.num_vertices == 0:
        checks.append(Check("hypothesis_min_degree", False, "empty graph has no degrees"))
    else:
        delta, t = g.min_degree(), profile.threshold
        checks.append(Check("hypothesis_min_degree", delta >= t, f"min degree {delta}, threshold {t}"))
    return VerificationReport(tuple(checks))


def verify_packing(g: BipartiteGraph, profile: CycleProfile, cycles) -> VerificationReport:
    """Full structural validation of a claimed packing against its profile.

    A simple cycle of even length at least c_i realizes profile entry c_i (in a
    bipartite host every cycle is even, so the parity check should never be the
    only failure; it is asserted rather than assumed). Each check records the
    first offending detail for triage.
    """
    cycles = [tuple(c) for c in cycles]
    n_vertices = g.num_vertices
    adj = g.adjacency
    x_mask, y_mask = g.x_mask, g.y_mask
    checks: list[Check] = []

    bad_edge = None
    for u in range(n_vertices):  # each row against its own side
        inside = adj[u] & (x_mask if u < g.x_size else y_mask)
        if inside:
            bad_edge = (u, next(bits(inside)))
            break
    checks.append(
        Check(
            "bipartite_validity",
            bad_edge is None,
            "all edges cross the bipartition" if bad_edge is None else f"edge {bad_edge} stays inside one side",
        )
    )

    count_ok = len(cycles) == profile.k
    checks.append(
        Check("cycle_count", count_ok, f"{len(cycles)} cycles for {profile.k} profile entries")
    )

    passed, detail = True, "all claimed vertices are valid ids and distinct per cycle"
    for i, cyc in enumerate(cycles):
        bad = next((v for v in cyc if not (isinstance(v, int) and 0 <= v < n_vertices)), None)
        if bad is not None:
            passed, detail = False, f"cycle {i} names invalid vertex {bad!r}"
            break
        if len(set(cyc)) != len(cyc):
            dup = next(v for v in cyc if cyc.count(v) > 1)
            passed, detail = False, f"cycle {i} repeats vertex {dup}"
            break
    checks.append(Check("simplicity", passed, detail))
    ids_ok = passed

    passed, detail = True, "consecutive vertices (and the closing pair) are adjacent"
    if ids_ok:
        for i, cyc in enumerate(cycles):
            for j in range(len(cyc)):
                u, w = cyc[j], cyc[(j + 1) % len(cyc)]
                if not adj[u] >> w & 1:
                    passed, detail = False, f"cycle {i}: {u} and {w} are not adjacent"
                    break
            if not passed:
                break
    else:
        passed, detail = False, "skipped: invalid vertex ids"
    checks.append(Check("adjacency", passed, detail))

    got = sorted((len(c) for c in cycles), reverse=True)
    need = list(profile.lengths)
    passed, detail = True, f"cycle lengths {got} cover required {need}"
    if count_ok:
        for i, (have, want) in enumerate(zip(got, need)):
            if have < want:
                passed, detail = False, f"sorted cycle {i} has length {have} < required {want}"
                break
    else:
        passed, detail = False, "skipped: wrong cycle count"
    checks.append(Check("length", passed, detail))

    odd = next((i for i, c in enumerate(cycles) if len(c) % 2), None)
    checks.append(
        Check(
            "parity",
            odd is None,
            "all cycle lengths even" if odd is None else f"cycle {odd} has odd length {len(cycles[odd])}",
        )
    )

    passed, detail = True, "cycles are pairwise vertex-disjoint"
    seen: dict[int, int] = {}
    for i, cyc in enumerate(cycles):
        for v in cyc:
            if v in seen and seen[v] != i:
                passed, detail = False, f"vertex {v} appears in cycles {seen[v]} and {i}"
                break
            seen[v] = i
        if not passed:
            break
    checks.append(Check("disjointness", passed, detail))

    return VerificationReport(tuple(checks))
