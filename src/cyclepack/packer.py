"""Core solver for packing vertex-disjoint long even cycles in a bipartite host.

The engine keeps a partial solution: a prefix of already-placed cycles (one per
profile entry, longest entries first), the leftover vertex pool, and a path
grown inside the pool. Local moves either shrink an oversized placed cycle,
lengthen the path, trade a path endpoint's neighbor out of a placed cycle, or
end the stage: close the path into the next required cycle, or, when nothing
closes, re-pack a window (the pool plus one or two placed cycles) exactly.
Every non-terminal move strictly improves the lexicographic potential

    (pool size, path length)

On an N-vertex host the placed cycles are disjoint and the pool is the host
minus their union, so the pool size is N minus the total placed size and the
order is that of (-(total placed size), path length). Each attempt therefore
terminates without an iteration counter: shrink grows the pool (and empties
the path when its new cycle takes path vertices); extend and exchange keep the
pool and lengthen the path. The placed size within one stage takes at most
N//2 + 1 even values and the path length at most N + 1, so between two shrinks
the path lengthens at most N times and a stage ends within (N//2 + 1)(N + 1)
iterations, the last a close, a window or a stall (Posa's rotation-extension
argument, Posa 1976). A close leaves the longest run of the old path that
misses its new cycle (the head-side run on ties) as the next stage's path, so
a stage may start with a nonempty path inside the pool; the window leaves it
empty. The path is never longer than N either way, so an attempt over k
stages takes at most k(N//2 + 1)(N + 1) iterations. Shrink and exchange take
each cycle they test from one more single-stage run of this loop, bounded the
same way, on the vertex set in question, and each takes the first cycle that
fits (for shrink, the first strictly shorter than the placed one); a run may
miss a cycle, and the move then fails. The window runs the exact oracle's
search on at most ``WINDOW_CAP`` vertices, so it misses nothing within its
windows. A host within the oracle limit goes to that exact backtracking
oracle as a whole and never to the engine; only larger hosts get the engine
and its seeded restarts, which perturb the construction order.
"""
from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, combinations
from operator import or_
from typing import Iterable, Iterator

from .graphs import BipartiteGraph, bits, mask_of
from .profiles import CycleProfile
from .verify import VerificationReport, verify_packing

PACKED = "packed"
INFEASIBLE = "infeasible"
UNKNOWN = "unknown"

MOVE_KINDS = ("shrink", "extend", "exchange", "close", "window")

DEFAULT_ORACLE_LIMIT = 18
DEFAULT_RESTARTS = 8
WINDOW_CAP = 26  # the largest vertex set move_window hands to the exact search


class OracleLimitError(ValueError):
    """Instance too large for the exact oracle."""


@dataclass
class PackResult:
    """What a solve did: its verdict, and the moves, iterations, restarts and
    diagnostics spent reaching it."""

    status: str = UNKNOWN
    # k pairwise disjoint simple cycles, aligned with the profile's sorted entries
    packing: tuple[tuple[int, ...], ...] | None = None
    move_counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(MOVE_KINDS, 0))
    iterations: int = 0
    restarts: int = 0
    oracle_used: bool = False
    diagnostics: list[str] = field(default_factory=list)
    report: VerificationReport | None = None  # the verifier's report on ``packing``


class SearchState:
    """Mutable solver state: placed cycles, leftover pool, and the working path.

    ``targets`` are the required lengths, longest first (a profile's ``lengths``).
    A state starts with nothing placed, an empty path and the pool ``vertices``;
    the pool is always ``vertices`` minus the placed cycles.

    Placed cycles enter only through ``fix_cycle`` and change only through
    ``replace_cycle``, which derives the pool from its definition: a window
    re-pack also moves vertices between placed cycles. ``path_mask == mask_of(path)``
    always holds. Three writers change ``path`` and ``path_mask``:
    ``move_extend_path``'s endpoint run appends and prepends in place and sets
    the run's bits at once; ``set_path`` installs a new list and recomputes
    the mask in full (seeding, rotation, exchange, the empty path
    ``fix_cycle`` leaves, and a replaced cycle taking path vertices, which
    empties the path); and ``fix_closed_cycle`` keeps a run of the old path
    and clears the bits of the vertices it drops.
    """

    def __init__(self, g: BipartiteGraph, targets: tuple[int, ...], vertices: int, rng=None):
        self.g = g
        self.adj = g.adjacency
        self.targets = targets
        self.vertices = vertices
        self.fixed: list[list[int]] = []
        self.fixed_masks: list[int] = []
        self.pool = vertices
        self.path: list[int] = []
        self.path_mask = 0
        self.rng = rng
        # shrink reads only the placed cycles and the pool, which change only in
        # fix_cycle and replace_cycle; a failed shrink stays failed until then
        self.shrink_stale = True

    @property
    def stage(self) -> int:
        return len(self.fixed)

    @property
    def current_target(self) -> int:
        return self.targets[self.stage]

    def potential(self) -> tuple[int, int]:
        return (self.pool.bit_count(), len(self.path))

    # -- state mutations ---------------------------------------------------

    def set_path(self, path: list[int]) -> None:
        self.path = path
        self.path_mask = mask_of(path)

    def fix_cycle(self, cycle) -> None:
        m = mask_of(cycle)
        assert m & self.pool == m and len(cycle) % 2 == 0
        self.fixed.append(list(cycle))
        self.fixed_masks.append(m)
        self.pool &= ~m
        self.shrink_stale = True
        self.set_path([])

    def fix_closed_cycle(self, cycle) -> None:
        """``fix_cycle`` for a cycle that close found on the path, keeping as
        the next stage's path the longest run of consecutive old-path vertices
        off the cycle, the head-side run on ties. The run is a path inside the
        new pool. Its mask is the old one minus the dropped vertices, which
        at scale are the cycle and a short run or none."""
        p, pm = self.path, self.path_mask
        self.fix_cycle(cycle)
        # one byte per path vertex, 1 on the cycle: the runs off it, head first
        runs = bytes(map(set(cycle).__contains__, p)).split(b"\1")
        r = max(range(len(runs)), key=lambda i: len(runs[i]))
        start = sum(map(len, runs[:r])) + r
        end = start + len(runs[r])
        self.path = p[start:end]
        self.path_mask = pm ^ mask_of(p[:start] + p[end:])

    def replace_cycle(self, j: int, cycle) -> None:
        self.fixed[j] = list(cycle)
        self.fixed_masks[j] = mask_of(cycle)
        self.pool = self.vertices & ~reduce(or_, self.fixed_masks)
        self.shrink_stale = True
        if self.path_mask & ~self.pool:
            # only shrink (which grows the pool, so the potential rises even
            # with the path gone) and the window, which ends the stage, take
            # path vertices
            self.set_path([])


# -- moves -------------------------------------------------------------------


def move_shrink(st: SearchState) -> bool:
    """Replace an oversized placed cycle by a shorter one (still meeting its
    required length) on the cycle's vertex set or through one pool vertex.

    A vertex lies on a cycle of a set only if it sees two of its vertices: the
    cycle's own set is searched once, then the cycle plus each pool vertex
    seeing two of it. In the guaranteed regime an apex seeing c_j/2 vertices
    of a cycle longer than c_j forces a shorter one, which is why it fires
    there. Each search is one ``_cycle_in`` run (need c_j), which may miss a
    cycle; the first strictly shorter one is taken, so the placed size drops.
    After a failed call it returns False at once until a placed cycle changes.
    """
    if not st.shrink_stale:
        return False
    adj = st.adj
    for j, cyc in enumerate(st.fixed):
        tgt = st.targets[j]
        size = len(cyc)
        if size <= tgt:
            continue
        cmask = st.fixed_masks[j]
        apexes = (cmask | 1 << u for u in bits(st.pool) if (adj[u] & cmask).bit_count() >= 2)
        for mask in chain((cmask,), apexes):
            found = _cycle_in(st.g, mask, tgt)
            if found is not None and len(found) < size:
                st.replace_cycle(j, found)
                return True
    st.shrink_stale = False
    return False


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _pick(st: SearchState, cands_mask: int) -> int:
    if st.rng is None or cands_mask & (cands_mask - 1) == 0:
        return _lowest(cands_mask)
    return st.rng.choice(list(bits(cands_mask)))


def _rotate_extend(st: SearchState, p: list[int]) -> list[int] | None:
    adj = st.adj
    outside = st.pool & ~st.path_mask
    s = len(p)
    tail = p[-1]
    for i in range(s - 3, -1, -1):
        if not adj[tail] >> p[i] & 1:
            continue
        pivot = p[i + 1]
        ext = adj[pivot] & outside
        if ext:
            rotated = p[: i + 1] + p[i + 1 :][::-1]
            return rotated + [_pick(st, ext)]
    return None


def move_extend_path(st: SearchState, room: int | None = None) -> int:
    """Strictly lengthen the pool path and return the number of moves made
    (False when none applies): seed it, extend its endpoints, or rotate to
    expose an extendable endpoint (Posa). There is no detour splice: putting
    an off-path vertex v between p[i] and p[i+1] needs v to see both, and in a
    bipartite host they lie on opposite sides.

    Endpoint extension is a run: it appends at the tail while the tail sees
    outside the path, then prepends at the head while the head does, one
    vertex and one move at a time, until ``room`` (>= 1; None for no cap)
    moves are made. That is the sequence one-move calls would make: the
    outside set only shrinks, so a stuck tail stays stuck, and shrink, tried
    before each call, stays failed while no placed cycle changes. Seed and
    rotation are one move each. The pool is never empty (see ``_attempt``).
    """
    adj = st.adj
    if not st.path:
        st.set_path([_pick(st, st.pool)])
        return 1
    p = st.path
    outside = st.pool & ~st.path_mask

    moves = 0
    ext = adj[p[-1]] & outside
    while ext and moves != room:
        v = _pick(st, ext)
        p.append(v)
        outside ^= 1 << v
        moves += 1
        ext = adj[v] & outside
    ext = adj[p[0]] & outside
    while ext and moves != room:
        v = _pick(st, ext)
        p.insert(0, v)
        outside ^= 1 << v
        moves += 1
        ext = adj[v] & outside
    if moves:
        st.path_mask = st.pool ^ outside  # the path is the pool minus outside
        return moves

    if len(p) >= 3 and outside:
        rotated = _rotate_extend(st, p)
        if rotated is None:
            rotated = _rotate_extend(st, p[::-1])
        if rotated is not None:
            st.set_path(rotated)
            return 1

    return False


def _cycle_in(g: BipartiteGraph, mask: int, need: int) -> tuple[int, ...] | None:
    """A cycle of length >= ``need`` inside ``mask``, or None: one run of the
    move loop on the pool ``mask`` with targets (need,), lowest-id picks and a
    throwaway result. With nothing placed, shrink, exchange and the window
    never fire, so it does not recurse and ends within (N//2 + 1)(N + 1)
    iterations for N = |mask|. It may miss a cycle that exists. A cycle
    alternates sides, so fewer than need/2 vertices on a side rule it out."""
    if 2 * min((mask & g.x_mask).bit_count(), (mask & g.y_mask).bit_count()) < need:
        return None
    found = _attempt(g, (need,), None, None, PackResult(), mask)
    return None if found is None else found[0]


def move_exchange_one(st: SearchState) -> bool:
    """Trade one vertex between a tight placed cycle and the pool: a neighbor
    v of a path endpoint u' on the cycle steps out, an off-path pool vertex u''
    on the opposite side steps in, and v extends the path at u'. The new cycle
    spans the swap set, found by one ``_cycle_in`` run (need c_j) that may
    miss it. u'' needs two neighbours on the placed cycle (u'' and v share a
    side); in the guaranteed regime u' and u'' seeing c_j - 1 of its vertices
    between them force a swap. Placed size is unchanged, the path grows. The
    path is nonempty (see ``_attempt``)."""
    adj = st.adj
    g = st.g
    rest = st.pool & ~st.path_mask
    if not rest:
        return False
    endpoints = [(st.path[0], True)]
    if len(st.path) > 1:
        endpoints.append((st.path[-1], False))
    for j in range(len(st.fixed)):
        tgt = st.targets[j]
        if len(st.fixed[j]) != tgt:
            continue
        cmask = st.fixed_masks[j]
        for u1, at_head in endpoints:
            opposite = g.full_mask ^ g.side_mask(u1)
            for u2 in bits(rest & opposite):
                if (adj[u2] & cmask).bit_count() < 2:
                    continue
                for v in bits(adj[u1] & cmask):
                    ham = _cycle_in(g, (cmask ^ 1 << v) | 1 << u2, tgt)  # spans the swap set
                    if ham is None:
                        continue
                    st.replace_cycle(j, ham)  # moves u2 in, v out to the pool
                    st.set_path([v] + st.path if at_head else st.path + [v])  # v joins at u1
                    return True
    return False


def move_close_cycle(st: SearchState) -> list[int] | None:
    """Look for a cycle of the current required length (or a bit more) in the pool:
    a chord across the path, two crossing endpoint chords, or an off-path pool
    vertex v seen by p[i] and p[j], closing p[i:j+1] + [v] (v ascending, then
    i, then j). Returns the shortest cycle found, and the first tight one at
    once. The path is nonempty (see ``_attempt``); a path shorter than the
    target (>= 4) yields no chord cycle, so the first two scans find none."""
    target = st.current_target
    adj = st.adj
    p = st.path
    s = len(p)
    best: list[int] | None = None

    for span in range(target, s + 1, 2):
        for i in range(s - span + 1):
            j = i + span - 1
            if adj[p[i]] >> p[j] & 1:
                best = p[i : j + 1]
                break
        if best is not None:
            break
    if best is not None and len(best) == target:
        return best

    head_adj, tail_adj = adj[p[0]], adj[p[-1]]
    for i in range(s - 1):
        if not tail_adj >> p[i] & 1:
            continue
        for j in range(i + 1, s - 1):
            if not head_adj >> p[j] & 1:
                continue
            length = (i + 1) + (s - j)
            if length >= target and (best is None or length < len(best)):
                best = p[: i + 1] + p[j:][::-1]
                if length == target:
                    return best

    pos = {u: i for i, u in enumerate(p)}
    for v in bits(st.pool & ~st.path_mask):
        sees = sorted(pos[u] for u in bits(adj[v] & st.path_mask))
        for i, j in combinations(sees, 2):
            length = j - i + 2
            if length < target or (best is not None and length >= len(best)):
                continue
            best = p[i : j + 1] + [v]
            if length == target:
                return best
    return best


def move_window(st: SearchState) -> bool:
    """Re-pack a window exactly when close finds nothing, and end the stage.

    A window W is the pool plus one placed cycle C_j, for each j in index
    order, then the pool plus a pair C_j and C_l, for each j < l. On each W
    of at most ``WINDOW_CAP`` vertices it asks the exact oracle's search
    ``_realize``, with a fresh memo, for disjoint cycles inside W realizing
    the group's targets plus the current one. The first success is installed
    by ``replace_cycle`` for the group's cycles (matched by length) and
    ``fix_cycle`` for the remaining one. Larger windows are skipped, so every
    search it makes is bounded. With nothing placed there is no window, so
    ``_cycle_in``'s inner runs never call it.

    Soundness. The bounded swap this move replaced (double exchange) traded
    at most two vertices out of each of the pool, a cycle C_p and a cycle C_q,
    and asked for cycles of lengths at least c_cur, c_p and c_q in the three
    new parts. Those parts partition pool | C_p | C_q, so its three cycles
    solve the pair window {p, q}, and ``_realize`` finds a solution whenever
    one exists. The window therefore fires wherever that swap would, on every
    window within the cap. The paper's concentration lemma is why it fires in
    the guaranteed regime: at a stall the path endpoints nearly saturate one
    tight cycle and the probe vertices' adjacency is concentrated on a
    second, so such a swap, and with it a pair window's solution, exists."""
    k = st.stage
    for group in chain(((j,) for j in range(k)), combinations(range(k), 2)):
        window = reduce(or_, (st.fixed_masks[j] for j in group), st.pool)
        if window.bit_count() > WINDOW_CAP:
            continue
        needed = tuple(sorted([st.targets[j] for j in group] + [st.current_target]))
        found = _realize(st.adj, st.g.x_mask, set(), {}, window, needed)
        if found is None:
            continue
        for j in group:
            i = next(i for i, (length, _) in enumerate(found) if length == st.targets[j])
            st.replace_cycle(j, found.pop(i)[1])
        st.fix_cycle(found[0][1])
        return True
    return False


# -- engine --------------------------------------------------------------------


def mix_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th stream derived from ``seed`` (restarts, trials)."""
    return (seed * 0x9E3779B1 + index * 0x85EBCA77) & 0xFFFFFFFFFFFF


def _attempt(g, targets, budget, rng, result, vertices):
    """One restart-free run of the move loop for the lengths ``targets`` on the
    vertex set ``vertices`` (``pack`` passes the whole host), adding its moves
    and iterations to ``result``; returns the placed cycles once close or
    the window ends the last stage, or None. The potential ends the loop
    (see the module docstring); ``budget``, when not None, caps this attempt's
    iterations. A close installs its cycle with ``fix_closed_cycle``, which
    keeps the longest run of the old path off that cycle, so the next stage
    starts from that run instead of seeding a path at one vertex; a window
    leaves the next stage an empty path.

    An iteration is one move. An endpoint run of m extensions is made in one
    pass of the loop but counts m iterations and m ``extend`` moves, and it
    stops where the budget would, so the budget and the iteration bound keep
    their meaning. The moves do not re-check what the loop guarantees: a stage
    starts with at least its target (>= 4) pool vertices and no move shrinks
    the pool within it, and exchange and close run only after extend made no
    move, which leaves the path nonempty."""
    st = SearchState(g, targets, vertices, rng)
    counts = result.move_counts
    stop = None if budget is None else result.iterations + budget
    while st.stage < len(targets):
        if st.pool.bit_count() < st.current_target:
            return None
        while True:
            if result.iterations == stop:
                return None
            result.iterations += 1
            before = st.potential()
            if move_shrink(st):
                _record(st, counts, "shrink", before)
                continue
            moves = move_extend_path(st, None if stop is None else stop - result.iterations + 1)
            if moves:
                result.iterations += moves - 1
                _record(st, counts, "extend", before, moves)
                continue
            if move_exchange_one(st):
                _record(st, counts, "exchange", before)
                continue
            cycle = move_close_cycle(st)
            if cycle is not None:
                counts["close"] += 1
                st.fix_closed_cycle(cycle)
                break
            if move_window(st):
                counts["window"] += 1
                break
            return None
    return [tuple(c) for c in st.fixed]


def _record(st, counts, kind, before, moves=1):
    """Count ``moves`` moves of ``kind`` and check the potential they left: one
    move must raise it; a run of several must keep the pool and lengthen the
    path by exactly one vertex per move."""
    counts[kind] += moves
    after = st.potential()
    if moves == 1:
        if not after > before:
            raise RuntimeError(f"move {kind} failed to improve the potential: {before} -> {after}")
    elif after != (before[0], before[1] + moves):
        raise RuntimeError(f"run of {moves} {kind} moves changed the potential {before} -> {after}")


def _packed(result: PackResult, g, profile, cycles, source: str) -> PackResult:
    packing = tuple(cycles)
    report = verify_packing(g, profile, packing)
    if not report.ok:
        raise RuntimeError(f"internal error: {source} produced an invalid packing: {report.to_dict()}")
    result.status, result.packing, result.report = PACKED, packing, report
    return result


def pack(
    g: BipartiteGraph,
    profile: CycleProfile,
    budget: int | None = None,
    seed: int = 0,
    oracle_limit: int = DEFAULT_ORACLE_LIMIT,
) -> PackResult:
    """Find vertex-disjoint cycles realizing the profile, or certify their absence.

    Outcomes: ``packed`` with a verified packing; ``infeasible`` only with an
    exhaustive certificate (immediate pigeonhole or the exact oracle);
    ``unknown`` when the move engine and its ``DEFAULT_RESTARTS`` seeded
    restarts are exhausted on an instance too large to certify.

    A host within the oracle limit is decided by ``brute_force_pack`` alone,
    and its result is returned as is: no engine attempt, iteration or
    restart. Only a larger host gets the engine, one attempt and then seeded
    restarts. Each attempt runs until every stage closes or no move applies.
    The potential bounds it: on an N-vertex host with k profile entries an
    attempt takes at most k(N//2 + 1)(N + 1) iterations (see the module
    docstring). ``budget``, when given, caps each attempt's iterations as well.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if oracle_limit < 0:
        raise ValueError(f"oracle_limit must be >= 0, got {oracle_limit}")
    result = PackResult()
    if profile.n > 2 * min(g.x_size, g.y_size):  # each cycle alternates sides: n/2 vertices of each
        result.status = INFEASIBLE
        result.diagnostics.append(
            f"profile needs {profile.n // 2} vertices on each side, host sides have {g.x_size} and {g.y_size}"
        )
        return result
    if g.num_vertices <= oracle_limit:
        return brute_force_pack(g, profile, oracle_limit)
    for attempt in range(DEFAULT_RESTARTS + 1):
        result.restarts = attempt
        rng = random.Random(mix_seed(seed, attempt)) if attempt else None
        cycles = _attempt(g, profile.lengths, budget, rng, result, g.full_mask)
        if cycles is not None:
            return _packed(result, g, profile, cycles, "engine")
    return result


def iter_cycles_through(
    adj: tuple[int, ...], mask: int, v: int, lo: int, hi: int, classes: Iterable[int]
) -> Iterator[tuple[int, ...]]:
    """Yield each simple cycle within ``mask`` that passes through ``v`` and whose
    length is in [lo, hi] once, as a vertex sequence starting at ``v`` in the
    direction whose second vertex is below its last, in depth-first preorder
    with neighbours taken lowest first.

    ``classes`` holds disjoint masks of twins, vertices with the same
    neighbourhood; at each step only the lowest free candidate of each class is
    tried, so a cycle is skipped when it takes a twin above one it could have
    taken (``brute_force_pack`` says why that is sound). ``()`` yields every
    cycle. ``classes`` is read at each step, so it may grow while the
    enumeration runs.

    Requires v in ``mask`` and 4 <= lo <= hi. The oracle meets this: v is the
    branch vertex of a nonempty free set and has two free neighbours, lo is a
    needed length (>= 4 in every mode), and hi = max needed + slack with
    slack >= 0; an empty free set has negative slack and stops before the
    search."""
    ends = adj[v]
    free = mask & ~(1 << v)
    path = [v]
    cand = ends & free
    for cls in classes:
        part = cand & cls
        cand ^= part & (part - 1)
    stack = [cand]  # stack[i]: the candidates still to try after path[i]
    while stack:
        cand = stack[-1]
        if not cand:
            stack.pop()
            free |= 1 << path.pop()
            continue
        low = cand & -cand
        stack[-1] = cand ^ low
        free ^= low
        w = low.bit_length() - 1
        path.append(w)
        n = len(path)
        if n >= lo and ends & low and path[1] < w:
            yield tuple(path)
        if n < hi:
            cand = adj[w] & free if n < hi - 1 else adj[w] & free & ends
            for cls in classes:
                part = cand & cls
                cand ^= part & (part - 1)
            if cand:
                stack.append(cand)
                continue
        path.pop()
        free |= low


def _twin_classes(adj: tuple[int, ...]) -> dict[int, list[int]]:
    """The host's twin classes of two or more vertices: vertices with the same
    adjacency mask. Each class mask maps to low, where low[j] is the mask of
    the class's j lowest vertices."""
    classes: dict[int, int] = {}
    for v, row in enumerate(adj):
        classes[row] = classes.get(row, 0) | 1 << v
    twins = {}
    for cls in classes.values():
        if cls & (cls - 1):
            low = [0]
            for v in bits(cls):
                low.append(low[-1] | 1 << v)
            twins[cls] = low
    return twins


def _canonical(free: int, twins: dict[int, list[int]]) -> int:
    """``free`` with the free members of each twin class moved to the class's
    lowest vertices: the memo key of a free set."""
    for cls, low in twins.items():
        part = free & cls
        free ^= part ^ low[part.bit_count()]
    return free


def _realize(
    adj: tuple[int, ...], x_mask: int, failed: set[tuple[int, tuple[int, ...]]],
    twins: dict[int, list[int]], remaining: int, needed: tuple[int, ...],
) -> list[tuple[int, tuple[int, ...]]] | None:
    """One state of ``brute_force_pack``'s search: (length, cycle) pairs
    realizing ``needed`` (sorted ascending) inside ``remaining``, or None.
    ``failed`` is the memo of (canonical free set, needed) keys that have no
    solution. ``twins`` is empty until the first failure is recorded and then
    holds the host's twin classes, so a search that never fails builds none;
    the cycle enumerations under way see the classes from then on."""
    if not needed:
        return []
    if failed and (_canonical(remaining, twins), needed) in failed:
        return None
    x_count = (remaining & x_mask).bit_count()
    slack = 2 * min(x_count, remaining.bit_count() - x_count) - sum(needed)
    if slack >= 0:
        # v: fewest free neighbours, lowest id on ties (the first strict minimum)
        degree, v, scan = len(adj) + 1, 0, remaining
        while scan:
            low = scan & -scan
            u = low.bit_length() - 1
            d = (adj[u] & remaining).bit_count()
            if d < degree:
                degree, v = d, u
            scan ^= low
        if degree >= 2:
            for cyc in iter_cycles_through(adj, remaining, v, needed[0], needed[-1] + slack, twins):
                i = bisect_right(needed, len(cyc)) - 1
                if len(cyc) - needed[i] > slack:
                    continue
                rest = _realize(adj, x_mask, failed, twins, remaining & ~mask_of(cyc), needed[:i] + needed[i + 1:])
                if rest is not None:
                    return [(needed[i], cyc)] + rest
        rest = _realize(adj, x_mask, failed, twins, remaining & ~(1 << v), needed)
        if rest is not None:
            return rest
    if not failed:
        twins.update(_twin_classes(adj))
    failed.add((_canonical(remaining, twins), needed))
    return None


def brute_force_pack(
    g: BipartiteGraph, profile: CycleProfile, oracle_limit: int = DEFAULT_ORACLE_LIMIT
) -> PackResult:
    """Exact oracle: a complete search for disjoint cycles realizing the profile.
    An ``infeasible`` verdict is a proof of non-existence. Refuses instances
    larger than the oracle limit.

    A state is the set F of free vertices and the multiset of profile lengths
    still needed. The search takes v, the vertex of F with the fewest
    neighbours in F (lowest id on ties), and branches: v lies on a cycle that
    takes one needed length, or v stays uncovered. A v with fewer than two
    neighbours in F lies on no cycle, so it gets only the second branch; such
    vertices are thus peeled one per level until F's minimum degree is 2.
    Each pruning is sound:

    - Slack. A bipartite cycle alternates sides, so a cycle of length L uses
      L/2 vertices of X and L/2 of Y. Disjoint cycles of lengths L_j >= c_j in
      F thus have sum L_j <= 2*min(|F & X|, |F & Y|), and their total excess
      sum (L_j - c_j) is at most the slack s = 2*min(|F & X|, |F & Y|) - sum c_j.
      A state with s < 0 has no solution, and no single cycle of a solution
      exceeds its length by more than s.
    - Largest fitting length. Say a solution puts v on a cycle C of length L,
      and c is the largest needed length <= L. If C realizes a length c' < c
      there, the cycle D realizing c has |D| >= c > c', so swapping the two
      lengths gives a solution in which C realizes c. So branch 1 assigns C to
      c, and skips C when L - c > s. Cycles through v are enumerated only for
      L in [min needed, max needed + s], since no other length can be assigned.
    - Branch 2 is complete. A solution that does not cover v is a solution in
      the free set without v, with the same needed lengths; together with the
      solutions branch 1 reaches, this is every solution.
    - Memo. Whether a state has a solution depends only on the subgraph the
      host induces on the free vertices and on the needed multiset: the cycles
      chosen so far avoid the free vertices. So a (free set, sorted needed
      lengths) key that failed once fails again when another order of choices
      reaches it, and is skipped.
    - Twins. Vertices with the same host neighbourhood are twins, and any
      permutation inside a twin class is an automorphism of the host: it
      maps every cycle to a cycle of the same length. So it maps a state to
      one that has a solution exactly when the first has. The memo therefore
      keys a state by its canonical free set, in which the free members of
      each class are replaced by the class's lowest vertices. Isolated
      vertices of both sides form one class; they lie on no cycle, and the
      slack is still computed on the actual free set. Only failed states are
      recorded and a hit skips only a state with no solution, so the search
      visits its branches in the same order and returns the same packing.
    - One twin per class. Once the classes are built, the cycle enumeration
      at each step tries only the lowest free candidate of each class. Say
      cycle S = (v, s_1, ..., s_m), s_1 < s_m, is skipped because it took
      s_j = w while a lower twin w' was free (not yet on the path). Swapping
      w and w' in S gives a cycle S' through v of the same length: if w' is
      off S, S' puts w' at position j; if w' = s_i with i > j, S' trades the
      two positions. S' in its yielded orientation comes earlier in the same
      enumeration: it agrees with S before position j and has w' < w there,
      keeps the orientation when j < m or s_1 < w', and when j = m with
      w' < s_1 is yielded reversed as (v, w', ...), below S at position 1.
      Its remainder is a twin image of S's. So S', or by induction a cycle
      before it, was tried with that remainder and failed (the search would
      have returned otherwise), and S would only have been a memo hit.
      Verdicts, packings and the memo's contents are unchanged.

    The cycles are returned aligned with the profile's sorted entries, and the
    packing is verified in full.
    """
    if g.num_vertices > oracle_limit:
        raise OracleLimitError(f"{g.num_vertices} vertices exceed the oracle limit {oracle_limit}")
    result = PackResult(INFEASIBLE, oracle_used=True)
    found = _realize(g.adjacency, g.x_mask, set(), {}, g.full_mask, tuple(sorted(profile.lengths)))
    if found is None:
        return result
    cycles = [cyc for _, cyc in sorted(found, reverse=True)]
    return _packed(result, g, profile, cycles, "oracle")

