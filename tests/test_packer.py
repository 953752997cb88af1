import collections
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from functools import reduce
from operator import or_

import pytest

from cyclepack import (
    BipartiteGraph,
    OracleLimitError,
    brute_force_pack,
    check_hypotheses,
    gen_complete,
    gen_random_mindeg,
    gen_sharpness,
    make_profile,
    pack,
    verify_packing,
)
from cyclepack import packer
from cyclepack.graphs import bits, graph_of_rows, mask_of
from cyclepack.harness import run_sharpness, run_trials
from cyclepack.packer import (
    iter_cycles_through,
    move_close_cycle,
    move_exchange_one,
    move_extend_path,
    move_shrink,
    move_window,
)
from oracle_partition import partition_feasible


def assert_valid_cycle(g, cyc, min_len=4):
    cyc = tuple(cyc)
    assert len(cyc) >= min_len and len(cyc) % 2 == 0
    assert len(set(cyc)) == len(cyc)
    for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
        assert g.adjacency[a] >> b & 1, f"{a}-{b} missing in {cyc}"


def attempt_watching(monkeypatch, g, targets, move):
    """Run one ``_attempt`` on the whole of ``g`` with the module-level
    ``move`` wrapped to record the pool and path each call sees; returns the
    attempt's cycles, its ``PackResult`` and the recorded ``(pool, path)``
    pairs."""
    seen = []
    original = getattr(packer, move)

    def watched(st, *args):
        seen.append((st.pool, list(st.path)))
        return original(st, *args)

    monkeypatch.setattr(packer, move, watched)
    result = packer.PackResult()
    cycles = packer._attempt(g, targets, None, None, result, g.full_mask)
    return cycles, result, seen


def search_state(g, targets, cycles=(), path=()):
    """A state on the whole of ``g`` built through the engine's own writers:
    ``fix_cycle`` places each cycle, then ``set_path`` installs ``path``."""
    st = packer.SearchState(g, targets, g.full_mask)
    for cycle in cycles:
        st.fix_cycle(cycle)
    st.set_path(list(path))
    return st


def sparse_host():
    # 16 vertices, sparse and below threshold for [4, 4, 4, 4]: the engine
    # places oversized cycles with several qualifying vertices of their own
    return BipartiteGraph(8, 8, [
        (0, 10), (0, 11), (1, 9), (1, 13), (1, 14), (2, 11), (2, 15), (3, 10), (3, 12), (3, 14),
        (4, 8), (4, 12), (5, 9), (5, 12), (6, 8), (6, 9), (6, 13), (7, 11), (7, 14), (7, 15),
    ])


def circulant_host(side, delta, seed):
    """Seeded circulant: X vertex px[i] sees Y vertices py[i .. i+delta-1] (mod
    side) under random permutations px, py, so every degree is exactly delta."""
    rng = random.Random(seed)
    px, py = list(range(side)), list(range(side))
    rng.shuffle(px)
    rng.shuffle(py)
    edges = [(px[i], side + py[(i + j) % side]) for i in range(side) for j in range(delta)]
    return BipartiteGraph(side, side, edges)


class TestMoveShrink:
    def host_with_apex(self):
        # 8-cycle over X={0..3}, Y={4..7}; apex 8 on the Y side sees 0, 1, 2
        edges = [(0, 4), (1, 4), (1, 5), (2, 5), (2, 6), (3, 6), (3, 7), (0, 7)]
        edges += [(0, 8), (1, 8), (2, 8)]
        return BipartiteGraph(4, 5, edges), [0, 4, 1, 5, 2, 6, 3, 7]

    def test_apex_shrinks_eight_cycle_to_six(self):
        g, cycle8 = self.host_with_apex()
        st = search_state(g, make_profile([6, 6]).lengths, cycles=[cycle8])
        before = st.potential()
        assert move_shrink(st)
        assert len(st.fixed[0]) == 6
        assert st.potential() > before
        # pins the first six-cycle found through the apex
        assert sorted(st.fixed[0]) == [0, 1, 2, 4, 5, 8]
        assert st.pool.bit_count() == 3
        assert_valid_cycle(g, tuple(st.fixed[0]))

    def test_no_move_when_cycles_tight(self):
        g = gen_complete(3)
        st = search_state(g, make_profile([6, 6]).lengths, cycles=[[0, 3, 1, 4, 2, 5]])
        assert not move_shrink(st)

    def test_no_move_without_degree_concentration(self):
        g, cycle8 = self.host_with_apex()
        # drop one apex edge: 8 sees 0 and 1, two steps apart on the cycle, so
        # its only cycle in the cycle plus 8 is 8 long, no shorter
        edges = [e for e in g.edges() if e != (2, 8)]
        g2 = BipartiteGraph(4, 5, edges)
        st = search_state(g2, make_profile([6, 6]).lengths, cycles=[cycle8])
        assert not move_shrink(st)

    def test_apex_seeing_two_cycle_vertices_shrinks(self):
        # a chordless 8-cycle at target 6 on 5+5; pool vertex 9 sees only 0 and
        # 2, fewer than 6/2, yet 0-9-2 cuts the 8-cycle down to 6
        cycle8 = [0, 5, 1, 6, 2, 7, 3, 8]
        edges = [tuple(sorted(e)) for e in zip(cycle8, cycle8[1:] + cycle8[:1])] + [(0, 9), (2, 9)]
        g = BipartiteGraph(5, 5, edges)
        st = search_state(g, make_profile([6]).lengths, cycles=[cycle8])
        before = st.potential()
        assert move_shrink(st)
        assert len(st.fixed[0]) == 6 and 9 in st.fixed[0]
        assert st.fixed_masks[0] == mask_of([0, 1, 2, 5, 6, 9])
        assert st.potential() > before
        assert_valid_cycle(g, st.fixed[0], 6)

    @staticmethod
    def track_shrink_searches(monkeypatch):
        """Wrap ``move_shrink`` and ``_cycle_in``: each finished shrink call
        appends the masks it searched. Exchange also calls ``_cycle_in``; only
        calls made while a shrink call is on the stack are recorded."""
        calls, active = [], []
        original_cycle_in, original_shrink = packer._cycle_in, packer.move_shrink

        def cycle_in(g, mask, need):
            if active:
                active[-1].append(mask)
            return original_cycle_in(g, mask, need)

        def shrink(st):
            active.append([])
            try:
                return original_shrink(st)
            finally:
                calls.append(active.pop())

        monkeypatch.setattr(packer, "_cycle_in", cycle_in)
        monkeypatch.setattr(packer, "move_shrink", shrink)
        return calls

    def test_no_mask_searched_twice_in_one_call(self, monkeypatch):
        calls = self.track_shrink_searches(monkeypatch)
        # shrink is reached only on restarts here, which run beyond the oracle limit
        pack(sparse_host(), make_profile([4, 4, 4, 4], "conjecture"), seed=0, oracle_limit=15)
        assert any(calls)
        for masks in calls:
            assert len(set(masks)) == len(masks), "one shrink call searched a mask twice"

    def test_failed_shrink_waits_for_a_placed_cycle_to_change(self, monkeypatch):
        calls = self.track_shrink_searches(monkeypatch)
        # an 8-cycle with no chord placed for a 4-cycle, and a spare 4-cycle in the pool
        cycle8 = [0, 6, 1, 7, 2, 8, 3, 9]
        edges = [(0, 6), (1, 6), (1, 7), (2, 7), (2, 8), (3, 8), (3, 9), (0, 9)]
        edges += [(4, 10), (5, 10), (5, 11), (4, 11)]
        g = BipartiteGraph(6, 6, edges)
        st = search_state(g, make_profile([4, 4, 4], "conjecture").lengths, cycles=[cycle8])

        def searched_by_shrink():
            assert not packer.move_shrink(st)
            return len(calls[-1])  # inner runs' shrink calls finish first

        assert searched_by_shrink() == 1
        st.set_path([4, 10])
        assert searched_by_shrink() == 0
        st.replace_cycle(0, cycle8[2:] + cycle8[:2])
        assert searched_by_shrink() == 1
        assert searched_by_shrink() == 0
        st.fix_cycle([4, 10, 5, 11])
        assert searched_by_shrink() == 1

    def test_offer_not_shorter_is_refused(self, monkeypatch):
        # a run that misses the apex's 6-cycle and returns the placed 8-cycle
        # itself: taking it would not lower the placed size, so shrink fails
        g, cycle8 = self.host_with_apex()
        monkeypatch.setattr(packer, "_cycle_in", lambda g, mask, need: tuple(cycle8))
        st = search_state(g, make_profile([6, 6]).lengths, cycles=[cycle8])
        before = (st.potential(), st.pool, st.path, [list(c) for c in st.fixed], list(st.fixed_masks))
        assert not move_shrink(st)
        assert (st.potential(), st.pool, st.path, st.fixed, st.fixed_masks) == before
        assert not st.shrink_stale

    def test_seeded_outputs_pinned(self):
        # recorded before shrink skipped repeat searches: sparse side-60 hosts
        # where shrink fires, and side-8 hosts that restart with the oracle off
        sparse60 = make_profile([6] * 20)
        calls = [
            (gen_random_mindeg(60, 60, 4, seed=s, fill_p=0.0), sparse60, s, packer.DEFAULT_ORACLE_LIMIT)
            for s in (0, 1)
        ]
        quad4 = make_profile([4, 4, 4, 4], "conjecture")
        calls += [(gen_random_mindeg(8, 8, 2, seed=s, fill_p=0.1), quad4, s, 0) for s in range(40)]
        digest = hashlib.sha256()
        shrinks = 0
        statuses = []
        for g, profile, seed, oracle_limit in calls:
            r = pack(g, profile, seed=seed, oracle_limit=oracle_limit)
            cycles = None if r.packing is None else [list(c) for c in r.packing]
            record = [r.status, cycles, r.move_counts, r.iterations, r.restarts]
            digest.update(json.dumps(record, sort_keys=True).encode())
            shrinks += r.move_counts["shrink"]
            statuses.append(r.status)
        assert shrinks > 0
        # every host is below the threshold; re-recorded when the detour scan
        # dropped the alternating walks of a maximum matching, which moved the
        # moves and packings but no status, and when shrink took its cycle
        # from the move loop, which moved the side-60 hosts' shrink counts, and
        # when shrink and exchange took the two-neighbour gate, which moved the
        # side-60 hosts' move and iteration counts, and when an exact window
        # re-pack replaced double exchange: the window fires on 23 of the
        # side-8 hosts without packing one, which moved their move and
        # iteration counts (and the move key) but no status or packing, and
        # when a stage began from the remainder of the last path, which moved
        # every host's move and iteration counts and the packed host's cycles
        # but no status or restart count
        assert statuses == ["unknown"] * 18 + ["packed"] + ["unknown"] * 23
        assert digest.hexdigest() == "8cf4f62001b9a37f96146a3e9934e398f3de9baa1ffd948059bc31bc476665d0"


class TestSearchState:
    def test_replace_cycle_taking_path_vertices_empties_path(self):
        g = gen_complete(6)
        st = search_state(g, make_profile([6, 6]).lengths, cycles=[[0, 6, 1, 7, 2, 8]], path=[3, 9, 4, 10, 5])
        pool = st.pool
        # pull 9 into the cycle in place of 6: the path loses a vertex and is dropped whole
        st.replace_cycle(0, [0, 9, 1, 7, 2, 8])
        assert st.path == [] and st.path_mask == 0
        assert st.fixed_masks == [mask_of([0, 9, 1, 7, 2, 8])]
        assert st.pool == pool ^ (1 << 6 | 1 << 9)

    def test_writers_keep_pool_and_placed_cycles_consistent(self, monkeypatch):
        # after every fix_cycle and replace_cycle the pool is the state's
        # vertices minus the placed cycles and the path lies in the pool.
        # Between the window's two replace_cycle calls its two cycles may
        # share the vertices that move between them (the pool excludes those
        # either way), so the placed cycles are checked pairwise disjoint
        # after fix_cycle and after each move that fired
        calls = collections.Counter()

        def check(st, disjoint):
            placed = reduce(or_, st.fixed_masks, 0)
            assert st.pool == st.vertices & ~placed
            assert st.path_mask & ~st.pool == 0
            if disjoint:
                assert sum(m.bit_count() for m in st.fixed_masks) == placed.bit_count()

        def writer(name, disjoint):
            original = getattr(packer.SearchState, name)

            def checked(st, *args):
                original(st, *args)
                calls[name] += 1
                check(st, disjoint)

            monkeypatch.setattr(packer.SearchState, name, checked)

        def move(name):
            original = getattr(packer, name)

            def checked(st, *args):
                fired = original(st, *args)
                if fired:
                    calls[name] += 1
                    check(st, True)
                return fired

            monkeypatch.setattr(packer, name, checked)

        writer("fix_cycle", True)
        writer("replace_cycle", False)
        for name in ("move_shrink", "move_exchange_one", "move_window"):
            move(name)
        # the relaxed CI class and theorem 6^6 at side 18 with the oracle off, and the CI exchange class
        configs = [
            dict(side=9, profile=make_profile([4, 4, 4, 6], "conjecture"), trials=300, seed=3, oracle_limit=0,
                 fill_p=0.05),
            dict(side=18, profile=make_profile([6] * 6), trials=200, seed=3, oracle_limit=0, fill_p=0.0),
            dict(side=9, profile=make_profile([4, 4, 4, 6], "conjecture"), delta=4, trials=300, seed=3072,
                 oracle_limit=0, fill_p=0.0),
        ]
        for config in configs:
            run_trials(**config)
        # the window installs 142 + 47 + 246 times, exchange 4 + 2 + 135, shrink 12
        assert all(calls[name] > 0 for name in ("move_shrink", "move_exchange_one", "move_window")), calls


class TestMoveExtendPath:
    def test_single_vertex_grows(self):
        g = gen_complete(2)
        st = search_state(g, make_profile([4], mode="conjecture").lengths, path=[0])
        assert move_extend_path(st, room=1) == 1
        assert len(st.path) == 2

    def test_run_spans_the_host_in_one_call(self):
        # without a cap the tail run takes every vertex of K2,2, lowest id first
        st = search_state(gen_complete(2), make_profile([4], mode="conjecture").lengths, path=[0])
        assert move_extend_path(st) == 3
        assert st.path == [0, 2, 1, 3] and st.path_mask == mask_of(st.path)

    def test_hamilton_path_no_move(self):
        g = BipartiteGraph(2, 2, [(0, 2), (1, 2), (1, 3)])
        st = search_state(g, make_profile([4], mode="conjecture").lengths, path=[0, 2, 1, 3])
        assert not move_extend_path(st)

    def test_two_edges_with_bridge_reach_four(self):
        # a-b, c-d plus the bridge b-c: repeated extension turns one edge into 4 vertices
        g = BipartiteGraph(2, 2, [(0, 2), (1, 3), (1, 2)])
        st = search_state(g, make_profile([4], mode="conjecture").lengths, path=[0, 2])
        while move_extend_path(st):
            pass
        assert len(st.path) == 4

    def test_empty_pool_no_move(self, monkeypatch):
        # the first 6-cycle covers K3,3: the loop ends the attempt before the
        # second stage, so extend never runs on the empty pool
        cycles, result, seen = attempt_watching(monkeypatch, gen_complete(3), (6, 6), "move_extend_path")
        assert cycles is None and result.move_counts["close"] == 1
        assert seen and all(pool for pool, _ in seen)
        assert result.move_counts["extend"] == 6

    def test_endpoint_growth_keeps_the_mask(self):
        # a path 0-3 in K3,3 grows at the tail by one vertex
        st = search_state(gen_complete(3), make_profile([6]).lengths, path=[0, 3])
        assert move_extend_path(st, room=1) == 1 and st.path == [0, 3, 1]
        assert st.path_mask == mask_of([0, 3, 1])

    @staticmethod
    def run_host():
        # path 0-3: the tail 3 sees only 1, a dead end; the head 0 leads on to 4, 2, 5
        g = BipartiteGraph(3, 3, [(0, 3), (1, 3), (0, 4), (2, 4), (2, 5)])
        return search_state(g, make_profile([6]).lengths, path=[0, 3])

    def test_head_run_continues_after_the_tail_stalls(self):
        st = self.run_host()
        assert move_extend_path(st) == 4
        assert st.path == [5, 2, 4, 0, 3, 1] and st.path_mask == mask_of(st.path)
        # the same path, vertex by vertex, as one-move calls build it
        one = self.run_host()
        while move_extend_path(one, room=1):
            assert one.path_mask == mask_of(one.path)
        assert one.path == st.path

    def test_room_stops_the_run_exactly(self):
        st = self.run_host()
        assert move_extend_path(st, room=3) == 3
        assert st.path == [2, 4, 0, 3, 1] and st.path_mask == mask_of(st.path)
        assert move_extend_path(st, room=3) == 1 and st.path == [5, 2, 4, 0, 3, 1]

    def test_rotation_unlocks_extension(self):
        # path 0-3-1-4 stuck at both ends unless rotated: 4~0 chord exposes 1, 1~5 extends
        g = BipartiteGraph(3, 3, [(0, 3), (1, 3), (1, 4), (0, 4), (2, 5), (1, 5)])
        st = search_state(g, make_profile([4], mode="conjecture").lengths, path=[0, 3, 1, 4])
        grew = move_extend_path(st)
        assert grew and len(st.path) == 5


class TestMoveExchangeOne:
    def exchange_host(self, second_probe_degree=2):
        # tight 6-cycle; path endpoint 3 sees three cycle vertices, off-path 7 sees two
        edges = [(0, 4), (1, 4), (1, 5), (2, 5), (2, 6), (0, 6)]  # cycle 0-4-1-5-2-6
        edges += [(3, 4), (3, 5), (3, 6)]
        edges += [(0, 7), (1, 7), (2, 7)][:second_probe_degree]
        return BipartiteGraph(4, 4, edges)

    def test_swap_brings_neighbor_to_path(self):
        g = self.exchange_host()
        st = search_state(g, make_profile([6, 6]).lengths, cycles=[[0, 4, 1, 5, 2, 6]], path=[3])
        before = st.potential()
        assert move_exchange_one(st)
        assert st.potential() > before
        assert st.path == [4, 3]  # the unique feasible ejected vertex joins the path
        assert 7 in st.fixed[0] and 4 not in st.fixed[0]
        assert len(st.fixed[0]) == 6
        assert_valid_cycle(g, tuple(st.fixed[0]))

    @pytest.mark.parametrize("path, grown", [
        ([4, 9, 3], [4, 9, 3, 5]),
        ([3, 9, 4], [5, 3, 9, 4]),
    ])
    def test_ejected_vertex_joins_its_endpoint(self, path, grown):
        # tight 6-cycle 0-5-1-6-2-7 on 5+5; endpoint 3 sees 5, 6, 7 and off-path
        # 8 sees 0, 1; endpoint 4 sees none, so only 3 qualifies, head or tail
        edges = [(0, 5), (1, 5), (1, 6), (2, 6), (2, 7), (0, 7)]
        edges += [(3, 5), (3, 6), (3, 7), (0, 8), (1, 8), (3, 9), (4, 9)]
        g = BipartiteGraph(5, 5, edges)
        st = search_state(g, make_profile([6, 6]).lengths, cycles=[[0, 5, 1, 6, 2, 7]], path=path)
        assert move_exchange_one(st)
        assert st.path == grown and st.path_mask == mask_of(grown)
        assert mask_of(st.fixed[0]) == st.fixed_masks[0] == mask_of([0, 1, 2, 6, 7, 8])
        assert_valid_cycle(g, st.fixed[0], 6)

    def test_saturated_newcomer_any_ejection_works(self):
        g = self.exchange_host(second_probe_degree=3)
        st = search_state(g, make_profile([6, 6]).lengths, cycles=[[0, 4, 1, 5, 2, 6]], path=[3])
        assert move_exchange_one(st)
        assert len(st.path) == 2 and st.path[-1] == 3
        assert_valid_cycle(g, tuple(st.fixed[0]))

    def test_no_move_without_a_path(self, monkeypatch):
        # the loop starts from an empty path; extend seeds and grows it before
        # exchange is first tried, so exchange never sees an empty path
        g = self.exchange_host()
        cycles, result, seen = attempt_watching(monkeypatch, g, (6, 6), "move_exchange_one")
        assert cycles is None and result.move_counts["exchange"] == 0
        assert seen and all(path for _, path in seen)
        assert seen[0][1] == [7, 0, 4, 1, 5, 2, 6, 3]

    def test_newcomer_seeing_two_cycle_vertices_swaps_in(self):
        # endpoint 3 sees only 4 and off-path 7 sees 0 and 1: together 3 of the
        # cycle's 6 vertices, fewer than 6 - 1, yet 0-7-1 replaces 0-4-1
        g = BipartiteGraph(4, 4, [(0, 4), (1, 4), (1, 5), (2, 5), (2, 6), (0, 6), (3, 4), (0, 7), (1, 7)])
        st = search_state(g, make_profile([6, 6]).lengths, cycles=[[0, 4, 1, 5, 2, 6]], path=[3])
        before = st.potential()
        assert move_exchange_one(st)
        assert st.potential() > before
        assert st.path == [4, 3]
        assert st.fixed_masks[0] == mask_of([0, 1, 2, 5, 6, 7])
        assert_valid_cycle(g, st.fixed[0], 6)

    def test_no_move_below_degree_sum(self):
        # off-path 7 sees one cycle vertex, so it lies on no cycle of a swap set
        g = self.exchange_host(second_probe_degree=1)
        st = search_state(g, make_profile([6, 6]).lengths, cycles=[[0, 4, 1, 5, 2, 6]], path=[3])
        assert not move_exchange_one(st)


class TestCycleIn:
    """``_cycle_in``: one single-stage run of the move loop over a vertex set,
    the cycle source of shrink and exchange."""

    def test_cycles_are_simple_alternating_and_long_enough(self, monkeypatch):
        # random small hosts and masks: every returned cycle lies in the mask,
        # alternates sides and reaches the need; each run stays within the
        # potential bound for its mask
        original = packer._attempt
        spans = []

        def measured(g, targets, budget, rng, result, vertices):
            found = original(g, targets, budget, rng, result, vertices)
            spans.append((vertices.bit_count(), result.iterations))
            return found

        monkeypatch.setattr(packer, "_attempt", measured)
        rng = random.Random(2024)
        found = exists = 0
        for _ in range(400):
            x, y = rng.randint(2, 7), rng.randint(2, 7)
            p = rng.uniform(0.3, 0.9)
            g = BipartiteGraph(x, y, [(u, x + w) for u in range(x) for w in range(y) if rng.random() < p])
            mask = sum(1 << v for v in range(g.num_vertices) if rng.random() < 0.8)
            need = rng.choice((4, 6, 8, 10))
            cyc = packer._cycle_in(g, mask, need)
            n = mask.bit_count()
            exists += any(next(iter_cycles_through(g.adjacency, mask, v, need, n, ()), None) for v in bits(mask))
            if cyc is None:
                continue
            found += 1
            assert_valid_cycle(g, cyc, min_len=need)
            assert mask_of(cyc) & ~mask == 0
            assert all((a < x) != (b < x) for a, b in zip(cyc, cyc[1:] + cyc[:1]))
        assert 0 < found <= exists
        for n, iterations in spans:
            assert iterations <= (n // 2 + 1) * (n + 1)

    def test_spanning_query_on_k33(self):
        g = gen_complete(3)
        # exchange asks for need = |mask|: only the full mask is spanned
        cyc = packer._cycle_in(g, g.full_mask, 6)
        assert cyc is not None and sorted(cyc) == list(range(6))
        assert_valid_cycle(g, cyc, min_len=6)
        # a bipartite host closes no odd cycle, and an edge holds no cycle
        assert packer._cycle_in(g, 0b011111, 5) is None
        assert packer._cycle_in(g, 0b001001, 4) is None


class TestMoveCloseCycle:
    def test_spanning_closure(self):
        g = BipartiteGraph(3, 3, [(0, 3), (1, 3), (1, 4), (2, 4), (2, 5), (0, 5)])
        st = search_state(g, make_profile([6]).lengths, path=[0, 3, 1, 4, 2, 5])
        cyc = move_close_cycle(st)
        assert cyc is not None and len(cyc) == 6

    def test_pool_too_small(self, monkeypatch):
        # K2,2 holds no 6-cycle: the loop stops before any move, close included
        g = gen_complete(2)
        cycles, result, seen = attempt_watching(monkeypatch, g, (6,), "move_close_cycle")
        assert cycles is None and seen == []
        assert result.iterations == 0 and not any(result.move_counts.values())

    def test_crossing_chords(self):
        # 8-vertex path with chords 1-7 and 0-5 and no direct head-tail edge
        edges = [(0, 4), (1, 4), (1, 5), (2, 5), (2, 6), (3, 6), (3, 7)]
        edges += [(1, 7), (0, 5)]
        g = BipartiteGraph(4, 4, edges)
        st = search_state(g, make_profile([8]).lengths, path=[0, 4, 1, 5, 2, 6, 3, 7])
        cyc = move_close_cycle(st)
        assert cyc is not None and len(cyc) == 8
        assert_valid_cycle(g, tuple(cyc))

    def test_apex_detour(self):
        g = BipartiteGraph(2, 2, [(0, 2), (1, 2), (0, 3), (1, 3)])
        st = search_state(g, make_profile([4], mode="conjecture").lengths, path=[0, 2, 1])
        cyc = move_close_cycle(st)
        assert cyc is not None and sorted(cyc) == [0, 1, 2, 3]


def path_host(m, chords=(), apex=()):
    """A path p_0 .. p_{m-1} alternating X (even positions) and Y with ids
    rising along each side, plus an edge for each pair of positions in
    ``chords`` and, when ``apex`` is given, one vertex on the other side from
    those positions, the highest id of its side, seeing each of them. The
    lowest-id picks of ``_attempt`` seed p_0 and run the tail along p to its
    end, leaving the apex off the path. Returns the host, p and the apex."""
    sides = [list(range(0, m, 2)), list(range(1, m, 2))]
    if apex:
        sides[1 - apex[0] % 2].append("apex")
    ids = {q: i for i, q in enumerate(sides[0])}
    ids.update({q: len(sides[0]) + i for i, q in enumerate(sides[1])})
    edges = [(ids[q], ids[q + 1]) for q in range(m - 1)] + [(ids[a], ids[b]) for a, b in chords]
    edges += [(ids[q], ids["apex"]) for q in apex]
    return BipartiteGraph(len(sides[0]), len(sides[1]), edges), [ids[q] for q in range(m)], ids.get("apex")


class TestPathRemainder:
    """After a close, the next stage starts from the longest run of the old
    path off the new cycle, the head-side run on ties."""

    def next_stage(self, monkeypatch, g, targets):
        # the state stage 1 starts from: each pass of the loop tries shrink first
        seen = []
        original = packer.move_shrink

        def watched(st):
            if st.stage == 1 and not seen:
                seen.append((st.fixed[0], list(st.path), st.path_mask, st.pool))
            return original(st)

        monkeypatch.setattr(packer, "move_shrink", watched)
        packer._attempt(g, targets, None, None, packer.PackResult(), g.full_mask)
        return seen[0]

    def check(self, monkeypatch, g, cycle, run):
        fixed, path, path_mask, pool = self.next_stage(monkeypatch, g, (len(cycle), 4))
        assert fixed == cycle
        assert path == run
        assert path_mask == mask_of(path)
        assert path_mask & ~pool == 0

    @pytest.mark.parametrize("m, chord, run", [
        (10, (2, 7), slice(0, 2)),  # runs p[:2] and p[8:] tie: the head side wins
        (12, (1, 6), slice(7, 12)),  # p[7:] is longer than p[:1]
    ], ids=["tie", "tail-longer"])
    def test_chord(self, monkeypatch, m, chord, run):
        g, p, _ = path_host(m, chords=[chord])
        i, j = chord
        self.check(monkeypatch, g, p[i : j + 1], p[run])

    def test_crossing_endpoint_chords(self, monkeypatch):
        # chords 0-9 and 2-11 close p[:3] + p[9:][::-1], shorter than either
        # chord's own cycle; the one run left is the middle p[3:9]
        g, p, _ = path_host(12, chords=[(0, 9), (2, 11)])
        self.check(monkeypatch, g, p[:3] + p[9:][::-1], p[3:9])

    @pytest.mark.parametrize("m, sees, run", [
        (9, (2, 6), slice(0, 2)),  # runs p[:2] and p[7:] tie: the head side wins
        (11, (1, 5), slice(6, 11)),  # p[6:] is longer than p[:1]
    ], ids=["tie", "tail-longer"])
    def test_off_path_apex(self, monkeypatch, m, sees, run):
        g, p, apex = path_host(m, apex=sees)
        i, j = sees
        self.check(monkeypatch, g, p[i : j + 1] + [apex], p[run])

    def test_cycle_on_the_whole_path_leaves_it_empty(self):
        # both runs off the cycle are empty, so the next path is too
        g, p, _ = path_host(6, chords=[(0, 5)])
        st = search_state(g, (6,), path=p)
        st.fix_closed_cycle(p)
        assert (st.path, st.path_mask, st.pool) == ([], 0, 0)


def stuck_path_states(count):
    """Seeded sparse hosts, each with a random path grown until neither end can
    extend, so that extend must rotate or fail."""
    for seed in range(count):
        rng = random.Random(seed)
        side = rng.randint(4, 12)
        g = gen_random_mindeg(side, side, rng.randint(1, 3), seed=seed, fill_p=rng.choice([0.0, 0.05, 0.15]))
        profile = make_profile([rng.choice([4, 6, 8])], "conjecture")
        adj = g.adjacency
        path = [rng.randrange(g.num_vertices)]
        for end in (-1, 0):
            while True:
                nbrs = [v for v in range(g.num_vertices) if adj[path[end]] >> v & 1 and v not in path]
                if not nbrs:
                    break
                v = rng.choice(nbrs)
                path = path + [v] if end == -1 else [v] + path
        yield g, profile, path


def is_rotation(old, new):
    """Whether ``new`` is a Posa rotation-extension of ``old``: old or its
    reverse with a proper suffix reversed, then one off-path vertex appended."""
    return new[-1] not in old and any(
        new[:-1] == o[: i + 1] + o[i + 1 :][::-1] for o in (old, old[::-1]) for i in range(len(old) - 2)
    )


class TestDetourScan:
    def test_stuck_path_moves_pinned(self):
        # re-recorded when the detour scan dropped the alternating walks of a
        # maximum matching: neither end can extend, so extend only rotates.
        # Re-recorded when an equal-sides base past half density (side 4 at
        # delta 3, side 5 at delta 3) became the complement of side - delta rounds
        digest = hashlib.sha256()
        rotations = stalls = detours = 0
        for g, profile, path in stuck_path_states(400):
            st = search_state(g, profile.lengths, path=path)
            grew = move_extend_path(st)
            if grew:
                assert grew == 1 and is_rotation(path, st.path), (path, st.path)
                rotations += 1
            else:
                assert st.path == path
                stalls += 1
            cyc = move_close_cycle(search_state(g, profile.lengths, path=path))
            detours += cyc is not None and cyc[-1] not in path  # closed through one pool vertex
            digest.update(json.dumps([bool(grew), st.path, cyc]).encode())
        assert (rotations, stalls, detours) == (83, 317, 7)
        assert digest.hexdigest() == "be5c90592ef8678cc53c1ca09d4cfc311f6ad171de9c112484b2ed8c222bca22"


def concentration_host(saturate_q=True):
    """Three-entry instance on 9+9: two placed 6-cycles and a spanning pool path.

    The path endpoints nearly saturate the first cycle; the six probe vertices
    are (optionally) fully adjacent to the second cycle's opposite sides.
    """
    edges = [(0, 9), (1, 9), (1, 10), (2, 10), (2, 11), (0, 11)]  # cycle A: 0-9-1-10-2-11
    edges += [(3, 12), (4, 12), (4, 13), (5, 13), (5, 14), (3, 14)]  # cycle B: 3-12-4-13-5-14
    edges += [(6, 15), (7, 15), (7, 16), (8, 16), (8, 17)]  # path 6-15-7-16-8-17
    edges += [(6, 9), (6, 10), (6, 11)]  # head saturates cycle A
    edges += [(1, 17), (2, 17)]  # tail misses only vertex 0 of cycle A
    if saturate_q:
        for x_probe in (6, 8, 0):
            edges += [(x_probe, 12), (x_probe, 13), (x_probe, 14)]
        for y_probe in (15, 17, 10):
            edges += [(3, y_probe), (4, y_probe), (5, y_probe)]
    else:
        edges += [(6, 12), (8, 12)]
    return BipartiteGraph(9, 9, edges)


class TestMoveWindow:
    def make_state(self, g):
        return search_state(
            g,
            make_profile([6, 6, 6]).lengths,
            cycles=[[0, 9, 1, 10, 2, 11], [3, 12, 4, 13, 5, 14]],
            path=[6, 15, 7, 16, 8, 17],
        )

    def test_window_completes_packing(self):
        g = concentration_host()
        st = self.make_state(g)
        assert move_window(st) is True
        # the writers installed the re-pack: cycle B replaced, the pool's cycle placed last
        cycles = [tuple(c) for c in st.fixed]
        report = verify_packing(g, make_profile([6, 6, 6]), cycles)
        assert report.ok, report.to_dict()
        # the single window pool | B holds two 6-cycles: cycle A stays, the oracle's first solution fills pool | B
        assert cycles == [(0, 9, 1, 10, 2, 11), (7, 15, 3, 12, 8, 16), (4, 13, 6, 14, 5, 17)]
        assert st.pool == 0 and st.path == [] and st.path_mask == 0

    def test_failed_window_changes_nothing(self):
        # without the probes' adjacency into cycle B no window holds three cycles
        st = self.make_state(concentration_host(saturate_q=False))
        before = ([list(c) for c in st.fixed], list(st.fixed_masks), st.pool, list(st.path))
        assert move_window(st) is False
        assert (st.fixed, st.fixed_masks, st.pool, st.path) == before

    @staticmethod
    def watch_windows(monkeypatch):
        """Wrap ``_realize`` to record (size, needed) of each window's own
        call, not of the search's recursion; returns the record."""
        calls, depth = [], [0]
        original = packer._realize

        def watched(adj, x_mask, failed, twins, remaining, needed):
            if not depth[0]:
                calls.append((remaining.bit_count(), needed))
            depth[0] += 1
            try:
                return original(adj, x_mask, failed, twins, remaining, needed)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(packer, "_realize", watched)
        return calls

    def test_pair_windows_follow_every_single_window(self, monkeypatch):
        # a last-stage stall on a host of the CI exchange class's shape (side
        # 9, delta 4, no fill): no single window holds its lengths, and the
        # first pair, cycles 0 and 1, does
        calls = self.watch_windows(monkeypatch)
        g = gen_random_mindeg(9, 9, 4, seed=0, fill_p=0.0)
        st = search_state(g, make_profile([4, 4, 4, 6], "conjecture").lengths,
                          cycles=[[9, 1, 11, 5, 13, 6], [0, 10, 2, 12], [8, 14, 7, 16]], path=[3, 17, 4, 15])
        assert move_window(st) is True
        assert [needed for _, needed in calls] == [(4, 6), (4, 4), (4, 4), (4, 4, 6)]
        assert st.fixed == [[1, 9, 6, 13, 4, 15], [0, 10, 5, 11], [8, 14, 7, 16], [2, 12, 3, 17]]
        assert st.pool == 0 and st.path == []

    @pytest.mark.parametrize("m, searched", [(13, 1), (14, 0)])
    def test_window_cap_bounds_the_search(self, monkeypatch, m, searched):
        # K_{m,m} minus a placed 4-cycle: the one window is the whole host, 26
        # vertices at m = 13 (searched, and it packs) and 28 at m = 14 (skipped)
        calls = self.watch_windows(monkeypatch)
        st = search_state(gen_complete(m), make_profile([4, 4], "conjecture").lengths, cycles=[[0, m, 1, m + 1]],
                          path=[2, m + 2])
        assert move_window(st) is bool(searched)
        assert calls == [(packer.WINDOW_CAP, (4, 4))] * searched
        assert packer.WINDOW_CAP == 26

    def test_nothing_placed_has_no_window(self, monkeypatch):
        monkeypatch.setattr(packer, "_realize", lambda *args: pytest.fail("no window to search"))
        st = search_state(concentration_host(), make_profile([6, 6, 6]).lengths, path=[6, 15, 7, 16, 8, 17])
        assert move_window(st) is False
        assert st.fixed == [] and st.path == [6, 15, 7, 16, 8, 17]


class TestStallPremise:
    """An attempt ends where the path spans the pool and ``move_close_cycle``
    finds nothing. An endpoint's pool neighbours then sit at odd path
    distances, so target/2 of them put one at distance >= target - 1, and the
    chord scan closes that chord: at a stall each endpoint sees fewer than
    target/2 pool vertices."""

    def test_endpoint_seeing_half_the_target_closes(self):
        hypothesis = pytest.importorskip("hypothesis")
        hs = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(hs.data())
        def check(data):
            s = data.draw(hs.integers(4, 14), label="path length")
            target = data.draw(hs.sampled_from(range(4, s + 1, 2)), label="target")
            placed = data.draw(hs.sampled_from(range(target, target + 5, 2)), label="placed cycle")
            # path and placed cycle alternate sides; X takes even positions
            x_size, y_size = (s + 1) // 2 + placed // 2, s // 2 + placed // 2
            xs = data.draw(hs.permutations(range(x_size)), label="X ids")
            ys = data.draw(hs.permutations(range(x_size, x_size + y_size)), label="Y ids")
            path = [xs[i // 2] if i % 2 == 0 else ys[i // 2] for i in range(s)]
            cycle = [xs[(s + 1) // 2 + i // 2] if i % 2 == 0 else ys[s // 2 + i // 2] for i in range(placed)]
            edges = {tuple(sorted(e)) for e in zip(path, path[1:])}
            edges |= {tuple(sorted(e)) for e in zip(cycle, cycle[1:] + cycle[:1])}
            extra = [(x, y) for x in xs for y in ys if (x, y) not in edges]
            keep = data.draw(hs.lists(hs.booleans(), min_size=len(extra), max_size=len(extra)), label="edges")
            g = BipartiteGraph(x_size, y_size, sorted(edges) + [e for e, k in zip(extra, keep) if k])
            state = search_state(g, make_profile([placed, target], "conjecture").lengths, cycles=[cycle], path=path)
            assert state.path_mask == state.pool
            seen = max((g.adjacency[z] & state.pool).bit_count() for z in (path[0], path[-1]))
            hypothesis.assume(seen >= target // 2)
            found = move_close_cycle(state)
            assert found is not None
            assert_valid_cycle(g, found, target)
            assert mask_of(found) & ~state.pool == 0

        check()


class TestMoveLoopPreconditions:
    """The moves do not re-check what ``_attempt`` guarantees: a stage starts
    with at least its target (>= 4) pool vertices and no move shrinks the pool
    within it, and exchange, close and the window run only after extend left
    a nonempty path. These campaigns reach every move kind, inner runs
    included."""

    def test_moves_see_the_loop_preconditions(self, monkeypatch):
        seen = collections.Counter()

        def pool_holds_the_target(st):
            assert st.pool.bit_count() >= st.current_target >= 4, (st.pool.bit_count(), st.current_target)

        def path_is_nonempty(st):
            pool_holds_the_target(st)
            assert st.path

        def wrap(name, check):
            original = getattr(packer, name)

            def checked(st, *args):
                check(st)
                seen[name] += 1
                fired = original(st, *args)
                seen[name, "fired"] += bool(fired)
                return fired

            monkeypatch.setattr(packer, name, checked)

        wrap("move_extend_path", pool_holds_the_target)
        wrap("move_exchange_one", path_is_nonempty)
        wrap("move_close_cycle", path_is_nonempty)
        wrap("move_window", path_is_nonempty)
        # the relaxed CI class, theorem 6^6 at side 18 and the CI shrink class, oracle off
        configs = [
            dict(side=9, profile=make_profile([4, 4, 4, 6], "conjecture"), trials=300, seed=3, oracle_limit=0,
                 fill_p=0.05),
            dict(side=18, profile=make_profile([6] * 6), trials=200, seed=3, oracle_limit=0, fill_p=0.0),
            dict(side=8, profile=make_profile([4] * 4, "conjecture"), delta=2, trials=400, seed=1024, oracle_limit=0,
                 fill_p=0.1),
        ]
        moves = collections.Counter()
        for config in configs:
            moves.update(run_trials(**config)["aggregates"]["move_histogram"])
        assert all(moves[kind] > 0 for kind in packer.MOVE_KINDS), moves
        assert seen["move_window", "fired"] > 0, seen


class TestPack:
    def test_k33_single_cycle(self):
        r = pack(gen_complete(3), make_profile([6]))
        assert r.status == "packed" and len(r.packing[0]) == 6

    def test_k66_two_cycles(self):
        r = pack(gen_complete(6), make_profile([6, 6]))
        assert r.status == "packed"
        assert [len(c) for c in r.packing] == [6, 6]

    def test_sharpness_certified_infeasible(self):
        g, profile = gen_sharpness(2)
        r = pack(g, profile, seed=5)
        assert r.status == "infeasible" and r.oracle_used

    def test_pigeonhole_immediate(self):
        g = BipartiteGraph(3, 3, [(0, 3), (1, 3), (1, 4), (2, 4), (2, 5), (0, 5)])
        r = pack(g, make_profile([6, 6]))
        assert r.status == "infeasible" and not r.oracle_used and r.iterations == 0

    def test_pigeonhole_counts_the_smaller_side(self):
        # a cycle alternates sides, so two 6-cycles take 6 X vertices; K3,60 has 3
        g = BipartiteGraph(3, 60, [(x, 3 + y) for x in range(3) for y in range(60)])
        r = pack(g, make_profile([6, 6]))
        assert (r.status, r.iterations, r.oracle_used) == ("infeasible", 0, False)
        assert r.diagnostics == ["profile needs 6 vertices on each side, host sides have 3 and 60"]

    def test_hundred_seeded_instances_all_pack(self):
        profile = make_profile([6, 6])
        for i in range(100):
            g = gen_random_mindeg(6, 6, 5, seed=i)
            r = pack(g, profile, seed=i)
            assert r.status == "packed", f"instance {i} -> {r.status}"
            assert verify_packing(g, profile, r.packing).ok
            assert not r.diagnostics, r.diagnostics

    def test_guaranteed_regime_never_fails_at_oracle_scale(self):
        # inside the hypotheses and within certification scale, pack must
        # always deliver: existence is guaranteed and discovery is backstopped
        cases = [(make_profile([6]), s, 3) for s in (3, 5, 7, 9)]
        cases += [(make_profile([6, 6]), s, 5) for s in (6, 8, 9)]
        cases += [(make_profile([8]), s, 4) for s in (4, 6, 8)]
        for profile, side, delta in cases:
            for seed in range(5):
                g = gen_random_mindeg(side, side, delta, seed=900 + seed)
                r = pack(g, profile, seed=seed)
                assert r.status == "packed", (profile.lengths, side, seed, r.status)

    def test_unknown_beyond_oracle_limit(self):
        # five disjoint 4-cycles on 10+10 vertices contain no 6-cycle at all
        edges = []
        for b in range(5):
            x0, x1, y0, y1 = 2 * b, 2 * b + 1, 10 + 2 * b, 10 + 2 * b + 1
            edges += [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
        g = BipartiteGraph(10, 10, edges)
        r = pack(g, make_profile([6]), seed=0)
        assert r.status == "unknown" and not r.oracle_used

    def test_oracle_alone_decides_within_its_limit(self):
        profile = make_profile([4, 4, 4, 4], "conjecture")
        r = pack(sparse_host(), profile, seed=0)
        assert r.status == "infeasible" and r.restarts == 0 and r.oracle_used
        r = pack(sparse_host(), profile, seed=0, oracle_limit=15)
        assert r.status == "unknown" and r.restarts == packer.DEFAULT_RESTARTS and not r.oracle_used

    def test_within_limit_pack_is_the_oracle(self):
        # within the oracle limit pack returns brute_force_pack's result: no
        # engine iteration, restart or move; with the oracle off the same
        # hosts run the engine, which never contradicts the oracle
        cases = [(gen_random_mindeg(9, 9, 3, seed=s, fill_p=0.05), make_profile([6, 6, 6])) for s in range(6)]
        cases += [(gen_random_mindeg(8, 8, 2, seed=s, fill_p=0.1), make_profile([4] * 4, "conjecture"))
                  for s in range(6)]
        cases += [(gen_random_mindeg(9, 9, 5, seed=s), make_profile([6, 6])) for s in range(3)]
        cases.append(gen_sharpness(2))
        statuses = collections.Counter()
        for seed, (g, profile) in enumerate(cases):
            r = pack(g, profile, seed=seed)
            oracle = brute_force_pack(g, profile)
            assert (r.status, r.packing) == (oracle.status, oracle.packing), seed
            assert (r.iterations, r.restarts, r.oracle_used) == (0, 0, True), seed
            assert r.move_counts == dict.fromkeys(packer.MOVE_KINDS, 0), seed
            engine = pack(g, profile, seed=seed, oracle_limit=0)
            assert engine.iterations > 0 and not engine.oracle_used, seed
            assert engine.status in (oracle.status, "unknown"), seed
            statuses[r.status] += 1
        assert set(statuses) == {"packed", "infeasible"}, statuses

    @pytest.mark.parametrize("side", [100, 150])
    def test_guaranteed_regime_packs_at_scale_on_first_attempt(self, side):
        profile = make_profile([6] * (side // 3))
        g = gen_random_mindeg(side, side, profile.threshold, seed=1)
        r = pack(g, profile)
        assert r.status == "packed" and r.restarts == 0

    def test_attempts_stay_within_potential_bound(self, monkeypatch):
        # sparse side-60 hosts far below the threshold, where shrink fires and
        # every attempt ends on a stall
        spans = []
        inner = []  # (|mask|, iterations) of each single-stage run made by a move
        original = packer._attempt

        def measured(g, targets, budget, rng, result, vertices):
            before = result.iterations
            found = original(g, targets, budget, rng, result, vertices)
            if vertices == g.full_mask:
                spans.append(result.iterations - before)
            else:
                inner.append((vertices.bit_count(), result.iterations - before))
            return found

        monkeypatch.setattr(packer, "_attempt", measured)
        profile = make_profile([6] * 20)
        n = 120
        bound = profile.k * (n // 2 + 1) * (n + 1)  # stated in the packer docstring
        shrinks = 0
        for seed in (0, 1):
            spans.clear()
            r = pack(gen_random_mindeg(60, 60, 4, seed=seed, fill_p=0.0), profile, seed=seed)
            assert r.status == "unknown" and len(spans) == packer.DEFAULT_RESTARTS + 1
            assert 0 < max(spans) <= bound
            shrinks += r.move_counts["shrink"]
        assert shrinks > 0 and inner
        for size, iterations in inner:
            assert iterations <= (size // 2 + 1) * (size + 1)

    def test_invalid_engine_packing_is_an_internal_error(self, monkeypatch):
        # the verifier stands between the engine and every packed result
        monkeypatch.setattr(packer, "_attempt", lambda *a: [(0, 4, 1, 5), (0, 4, 1, 5)])
        with pytest.raises(RuntimeError, match="internal error: engine produced an invalid packing"):
            pack(gen_complete(4), make_profile([4, 4], "conjecture"), oracle_limit=0)

    def test_explicit_budget_caps_each_attempt(self):
        profile = make_profile([6] * 33)
        g = gen_random_mindeg(100, 100, profile.threshold, seed=1)
        r = pack(g, profile, budget=5)
        assert r.status == "unknown" and r.iterations == 5 * (r.restarts + 1)

    def test_seed_determinism(self):
        g = gen_random_mindeg(8, 8, 4, seed=17)
        a = pack(g, make_profile([6, 6]), seed=2)
        b = pack(g, make_profile([6, 6]), seed=2)
        assert a.status == b.status == "packed"
        assert a.packing == b.packing and a.move_counts == b.move_counts

    def test_trace_is_monotone(self, monkeypatch):
        trace = []
        original = packer._record

        def logged(st, counts, kind, before, moves=1):
            trace.append((kind, before, st.potential()))
            return original(st, counts, kind, before, moves)

        monkeypatch.setattr(packer, "_record", logged)
        g = gen_random_mindeg(7, 7, 5, seed=23)
        r = pack(g, make_profile([6, 6]), seed=23, oracle_limit=0)
        assert r.status == "packed" and trace
        for kind, before, after in trace:
            assert after > before, (kind, before, after)

    def test_path_invariant_after_every_move(self, monkeypatch):
        # every recorded move leaves a simple path inside the pool whose mask is
        # mask_of(path); the hosts reach each way a path can change
        extend_kinds = collections.Counter()
        original_extend = packer.move_extend_path
        original_record = packer._record

        def extend(st, room=None):
            old = list(st.path)
            grew = original_extend(st, room)
            if grew:
                new = st.path
                if not old:
                    extend_kinds["seed"] += 1
                elif any(new[i : i + len(old)] == old for i in range(len(new) - len(old) + 1)):
                    # an endpoint run: old is a contiguous slice, new vertices only at the ends
                    extend_kinds["end"] += 1
                    extend_kinds["end run"] += grew > 1
                elif is_rotation(old, new):
                    extend_kinds["rotate"] += 1
                else:
                    raise AssertionError(f"extend grew the path neither at an end nor by rotation: {old} -> {new}")
            return grew

        def checked(st, counts, kind, before, moves=1):
            assert st.path_mask == mask_of(st.path), kind
            assert len(set(st.path)) == len(st.path), kind
            assert not st.path_mask & ~st.pool, kind
            return original_record(st, counts, kind, before, moves)

        monkeypatch.setattr(packer, "move_extend_path", extend)
        monkeypatch.setattr(packer, "_record", checked)
        # sparse side-60 hosts: shrink fires and every attempt stalls, so the
        # seeded restarts pick vertices through the rng
        sparse60 = make_profile([6] * 20)
        runs = [pack(gen_random_mindeg(60, 60, 4, seed=s, fill_p=0.0), sparse60, seed=s) for s in (0, 1)]
        # a side-150 threshold circulant where exchange fires
        runs.append(pack(circulant_host(150, 101, seed=3), make_profile([6] * 50)))
        totals = collections.Counter()
        for r in runs:
            totals.update(r.move_counts)
        assert totals["shrink"] > 0 and totals["exchange"] > 0
        assert runs[0].restarts == packer.DEFAULT_RESTARTS
        assert runs[2].status == "packed"
        assert set(extend_kinds) == {"seed", "end", "end run", "rotate"}, extend_kinds
        assert extend_kinds["end run"] > 0

    def test_path_upkeep_is_not_per_iteration(self, monkeypatch):
        # an endpoint extension sets one bit; rebuilding the path mask on every
        # one made mask_of run once per iteration (7,751 calls in 7,700 on 6^50,
        # which now packs in too few iterations to tell; this host takes 306)
        calls = []
        original = packer.mask_of

        def counted(vertices):
            calls.append(1)
            return original(vertices)

        monkeypatch.setattr(packer, "mask_of", counted)
        profile = make_profile([50] * 6)
        r = pack(gen_random_mindeg(150, 150, profile.threshold, seed=1), profile)
        assert r.status == "packed" and r.iterations > 50 * profile.k
        assert len(calls) <= 4 * profile.k

    def test_non_improving_move_raises(self, monkeypatch):
        monkeypatch.setattr(packer, "move_extend_path", lambda st, room=None: True)
        with pytest.raises(RuntimeError, match="failed to improve the potential"):
            pack(gen_complete(3), make_profile([6]), oracle_limit=0)

    def test_run_claiming_more_moves_than_the_path_grew_raises(self, monkeypatch):
        # the seed adds one vertex; reported as two moves, the check must catch it
        original = packer.move_extend_path
        monkeypatch.setattr(packer, "move_extend_path", lambda st, room=None: 2 * original(st, room))
        with pytest.raises(RuntimeError, match=r"run of 2 extend moves changed the potential \(6, 0\) -> \(6, 1\)"):
            pack(gen_complete(3), make_profile([6]), oracle_limit=0)

    def test_runs_match_one_move_per_call(self, monkeypatch):
        # sparse side-60 hosts, where restarts pick through the rng; side-30
        # threshold hosts under budgets that end inside a run; side-9 hosts
        # below the threshold, where the oracle decides, and the same hosts
        # with the oracle off, where the engine stalls and the window fires
        # (before it, they restarted)
        limit = packer.DEFAULT_ORACLE_LIMIT
        sparse60 = make_profile([6] * 20)
        cases = [(gen_random_mindeg(60, 60, 4, seed=s, fill_p=0.0), sparse60, s, None, limit) for s in (0, 1)]
        side30 = make_profile([6] * 10)
        for s in (0, 1):
            g = gen_random_mindeg(30, 30, 21, seed=s)
            cases += [(g, side30, s, budget, limit) for budget in (7, 12, 19, 26)]
        side9 = make_profile([6, 6, 6])
        for oracle_limit in (limit, 0):
            cases += [(gen_random_mindeg(9, 9, 4, seed=s), side9, s, None, oracle_limit) for s in range(12)]

        def run_all():
            return [pack(g, profile, seed=seed, budget=budget, oracle_limit=oracle_limit)
                    for g, profile, seed, budget, oracle_limit in cases]

        runs = run_all()
        # the engine as it was before endpoint runs: every extend call makes one move
        original = packer.move_extend_path
        monkeypatch.setattr(packer, "move_extend_path", lambda st, room=None: original(st, 1))
        singles = run_all()
        for case, run, single in zip(cases, runs, singles):
            fields = ("status", "packing", "iterations", "restarts", "move_counts", "diagnostics")
            assert [getattr(run, f) for f in fields] == [getattr(single, f) for f in fields], case[2:]
        assert all(r.restarts == packer.DEFAULT_RESTARTS for r in runs[:2])
        assert all(r.status == "unknown" for r in runs[2:10])
        assert any(r.oracle_used for r in runs[10:22])
        assert any(r.move_counts["window"] for r in runs[22:]) and not any(r.oracle_used for r in runs[22:])

    def test_loop_passes_are_not_per_iteration(self, monkeypatch):
        # every pass of the move loop tries shrink first; an endpoint run of m
        # vertices is one pass, so passes are far fewer than iterations (8
        # passes for 306 iterations here)
        calls = []
        original = packer.move_shrink

        def counted(st):
            calls.append(1)
            return original(st)

        monkeypatch.setattr(packer, "move_shrink", counted)
        profile = make_profile([50] * 6)
        r = pack(gen_random_mindeg(150, 150, profile.threshold, seed=1), profile)
        assert r.status == "packed" and r.iterations > 50 * profile.k
        assert len(calls) < r.iterations / 10

    def test_even_lengths_always(self):
        for i in range(20):
            g = gen_random_mindeg(6, 6, 4, seed=100 + i)
            r = pack(g, make_profile([6, 6]), seed=i)
            if r.packing is not None:
                assert all(len(c) % 2 == 0 for c in r.packing)


def block_complement_rows(side, block):
    """Rows of K_{side,side} minus disjoint K_{block,block} blocks on matching
    X and Y ranges (the last block smaller): every degree is side - block."""
    full = (1 << side) - 1
    rows = []
    for u in range(side):
        start = u - u % block
        rows.append(full & ~(((1 << min(block, side - start)) - 1) << start))
    return rows


def band_complement_rows(side, width):
    """Rows of K_{side,side} minus a circulant band: X vertex u misses Y
    vertices u .. u + width - 1 (mod side), so every degree is side - width."""
    full, band = (1 << side) - 1, (1 << width) - 1
    return [full & ~((band << u | band << u >> side) & full) for u in range(side)]


def _moves(extend, exchange, close, window=0):
    return {"shrink": 0, "extend": extend, "exchange": exchange, "close": close, "window": window}


# Tight side s = n/2 with every degree at the threshold, D = s - threshold.
# For the profile (s, s), D = 1 and the band is the blocks: K_{s,s} minus a
# perfect matching. The move counts were re-recorded when a stage began from
# the remainder of the last path (s12 six-cycles: extend 60 -> 24).
TIGHT_COMPLEMENTS = [
    pytest.param(12, [6] * 4, block_complement_rows, _moves(24, 0, 4), id="s12-sixes-blocks"),
    pytest.param(12, [6] * 4, band_complement_rows, _moves(25, 0, 4), id="s12-sixes-band"),
    pytest.param(12, [12, 12], block_complement_rows, _moves(24, 0, 2), id="s12-two-blocks"),
    pytest.param(60, [6] * 20, block_complement_rows, _moves(125, 0, 20), id="s60-sixes-blocks"),
    pytest.param(60, [6] * 20, band_complement_rows, _moves(120, 3, 20), id="s60-sixes-band"),
    pytest.param(60, [60, 60], block_complement_rows, _moves(120, 0, 2), id="s60-two-blocks"),
    pytest.param(120, [6] * 40, block_complement_rows, _moves(241, 0, 40), id="s120-sixes-blocks"),
    pytest.param(120, [6] * 40, band_complement_rows, _moves(243, 0, 39, window=1), id="s120-sixes-band"),
    pytest.param(120, [120, 120], block_complement_rows, _moves(240, 0, 2), id="s120-two-blocks"),
]

STRUCTURED_HOSTS = {
    # tight side s = n/2, every degree exactly at the threshold n/2 - k + 1
    "side84_k10_blocks": (84, 10, [40, 30, 26, 18, 18] + [6] * 6),
    "side84_k6_blocks": (84, 6, [38, 36, 24, 24, 22, 18, 6]),
    "side66_k6_blocks": (66, 6, [38, 34, 20, 20, 8, 6, 6]),
}


class TestStructuredTightSideHosts:
    @pytest.mark.parametrize("side, lengths, complement, moves", TIGHT_COMPLEMENTS)
    def test_tight_complement_packs_with_pinned_moves(self, side, lengths, complement, moves):
        profile = make_profile(lengths)
        g = graph_of_rows(side, side, complement(side, side - profile.threshold))
        assert g.min_degree() == profile.threshold
        r = pack(g, profile)
        assert (r.status, r.restarts, check_hypotheses(g, profile).ok) == ("packed", 0, True)
        assert r.move_counts == moves

    @pytest.mark.parametrize("name", sorted(STRUCTURED_HOSTS))
    def test_packs_on_first_attempt_within_20s(self, name):
        # an exhaustive Hamilton search inside double exchange once hung on
        # the side-84 hosts; the window's vertex cap bounds the exact search
        # that runs at a stall now, and a child process is killed at the time bound
        side, block, lengths = STRUCTURED_HOSTS[name]
        probe = (
            "import json, sys\n"
            "from cyclepack import check_hypotheses, make_profile, pack\n"
            "from cyclepack.graphs import graph_of_rows\n"
            "side, rows, lengths = json.loads(sys.argv[1])\n"
            "g, profile = graph_of_rows(side, side, rows), make_profile(lengths)\n"
            "r = pack(g, profile)\n"
            "print(json.dumps([r.status, r.restarts, r.report is not None and r.report.ok,\n"
            "                  check_hypotheses(g, profile).ok]))\n"
        )
        src = os.path.dirname(os.path.dirname(packer.__file__))
        arg = json.dumps([side, block_complement_rows(side, block), lengths])
        done = subprocess.run([sys.executable, "-c", probe, arg], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=20, check=True)
        assert json.loads(done.stdout) == ["packed", 0, True, True]


def lifted_sharpness(k, seed):
    """``gen_sharpness(k)`` with edges added until every degree reaches k + 2,
    the relaxed threshold of its profile: each X vertex in turn takes random
    non-neighbours, deficient Y vertices first, and then each deficient Y
    vertex takes random non-neighbours, all drawn with ``random.Random(seed)``."""
    g, profile = gen_sharpness(k)
    rng = random.Random(seed)
    side, target = g.x_size, k + 2
    rows = [g.adjacency[x] >> side for x in range(side)]

    def y_degree(y):
        return sum(row >> y & 1 for row in rows)

    for x in range(side):
        while rows[x].bit_count() < target:
            free = [y for y in range(side) if not rows[x] >> y & 1]
            rows[x] |= 1 << rng.choice([y for y in free if y_degree(y) < target] or free)
    for y in range(side):
        while y_degree(y) < target:
            rows[rng.choice([x for x in range(side) if not rows[x] >> y & 1])] |= 1 << y
    return graph_of_rows(side, side, rows), profile


class TestLiftedSharpness:
    def test_lifted_family_packs_on_first_attempt(self):
        # the sharpness hosts lifted one degree to the threshold, at 66 to 202
        # vertices with the oracle off: before the window re-pack replaced
        # double exchange, 11 of these 56 ended unknown and they took 136 restarts
        outcomes = collections.Counter()
        restarts = 0
        for k in (16, 24, 32, 50):
            for seed in range(14):
                g, profile = lifted_sharpness(k, seed)
                assert g.min_degree() == k + 2 and check_hypotheses(g, profile).ok
                r = pack(g, profile, seed=seed, oracle_limit=0)
                outcomes[r.status] += 1
                restarts += r.restarts
        assert (outcomes, restarts) == ({"packed": 56}, 0)


class TestBruteForce:
    def test_worst_case_at_the_default_limit(self):
        # adversarial 18-vertex hosts: sparse side-9 hosts at and below Moon and
        # Moser's Hamiltonicity bound (a balanced bipartite host on 2m vertices
        # with min degree > m/2 is Hamiltonian), asked for a Hamilton cycle or a
        # 16-cycle, and the sharpness construction at k = 4, a deep infeasible
        # search. Every host within the limit reaches the oracle directly, so
        # its slowest call bounds a desk-scale solve; the slowest measured took
        # under 3 ms, far under the bound asserted here
        cases = []
        for delta in (2, 3, 4):
            for seed in range(4):
                g = gen_random_mindeg(9, 9, delta, seed, 0.0)
                cases += [(g, [18]), (g, [16])]
        statuses = collections.Counter()
        slowest = 0.0
        for g, lengths in cases:
            started = time.perf_counter()
            r = brute_force_pack(g, make_profile(lengths))
            slowest = max(slowest, time.perf_counter() - started)
            assert (r.status == "packed") == partition_feasible(g.x_size, g.y_size, list(g.edges()), lengths)
            statuses[r.status] += 1
        # the partition oracle takes over a second on the sharpness host; its
        # infeasibility is the construction's theorem
        g, profile = gen_sharpness(4)
        started = time.perf_counter()
        assert brute_force_pack(g, profile).status == "infeasible"
        slowest = max(slowest, time.perf_counter() - started)
        assert set(statuses) == {"packed", "infeasible"}, statuses
        assert slowest < 0.5, slowest

    def test_k33(self):
        r = brute_force_pack(gen_complete(3), make_profile([6]))
        assert r.status == "packed" and r.oracle_used

    def test_c6_host_cannot_fit_two(self):
        g = BipartiteGraph(3, 3, [(0, 3), (1, 3), (1, 4), (2, 4), (2, 5), (0, 5)])
        assert brute_force_pack(g, make_profile([6, 6])).status == "infeasible"

    def test_sharpness_infeasible(self):
        g, profile = gen_sharpness(2)
        assert brute_force_pack(g, profile).status == "infeasible"

    def test_sharpness_is_critically_tight(self):
        # the construction is edge-maximal for infeasibility: adding any single
        # missing edge makes the packing appear, and lifting the minimum degree
        # to the threshold puts the instance back in the guaranteed regime
        g, profile = gen_sharpness(2)
        for u in range(g.x_size):
            for v in range(g.x_size, g.num_vertices):
                if g.adjacency[u] >> v & 1:
                    continue
                augmented = BipartiteGraph(g.x_size, g.y_size, list(g.edges()) + [(u, v)])
                assert brute_force_pack(augmented, profile).status == "packed", (u, v)
        lifted = BipartiteGraph(
            g.x_size, g.y_size,
            list(g.edges()) + [(0, 8), (1, 7), (2, 5), (3, 6), (4, 7), (0, 9)],
        )
        assert lifted.min_degree() >= profile.threshold
        assert pack(lifted, profile, seed=0).status == "packed"

    def test_memo_freed_on_return(self):
        # the recursive search must leave no reference cycle keeping its memo
        # alive; at k = 4 the memo also builds and stores the twin classes
        for k in (2, 4):
            g, profile = gen_sharpness(k)
            gc.collect()
            gc.disable()
            try:
                assert brute_force_pack(g, profile).status == "infeasible"
                assert gc.collect() == 0
            finally:
                gc.enable()

    def test_twin_memo_state_count_pinned(self, monkeypatch):
        # sharpness --k 4 visits 1,437 states when the memo keys a state by
        # its raw free set; canonical twin keys cut that to 367, and trying
        # one twin per class in the cycle enumeration cuts it to 121 (k = 6:
        # 89,328 -> 5,036 -> 884); the states pruned were all memo hits
        states = 0
        original = packer._realize

        def counted(*args):
            nonlocal states
            states += 1
            return original(*args)

        monkeypatch.setattr(packer, "_realize", counted)
        counts = []
        for k in (4, 6):
            states = 0
            assert run_sharpness(k, 4 * k + 2)["ok"]
            counts.append(states)
        assert counts == [121, 884]

    def test_twin_classes_built_once_and_only_after_a_failure(self, monkeypatch):
        # a search that packs at once records no failure and groups nothing
        built = []
        original = packer._twin_classes
        monkeypatch.setattr(packer, "_twin_classes", lambda adj: built.append(adj) or original(adj))
        assert brute_force_pack(gen_complete(3), make_profile([6])).status == "packed"
        assert built == []
        g, profile = gen_sharpness(4)
        assert brute_force_pack(g, profile).status == "infeasible"
        assert built == [g.adjacency]

    def test_twin_memo_matches_plain_memo(self, monkeypatch):
        # the canonical key and the one-twin-per-class enumeration only skip
        # states that have no solution, so the verdict and the packing equal
        # those of a search with no twin classes;
        # hosts of at most 12 vertices are also checked by the partition oracle
        rng = random.Random(37)

        def dense(width):
            return rng.getrandbits(width) | rng.getrandbits(width)

        hosts = []
        for _ in range(60):  # blow-ups: X rows from a few patterns, and empty rows
            x = rng.randint(2, 9)
            y = rng.randint(2, min(9, 18 - x))
            patterns = [dense(y) for _ in range(rng.randint(1, 3))] + [0]
            hosts.append(graph_of_rows(x, y, [rng.choice(patterns) for _ in range(x)]))
        for side, block in [(4, 2), (5, 2), (6, 2), (6, 3), (7, 3), (8, 3), (8, 4), (9, 3)]:
            hosts.append(graph_of_rows(side, side, block_complement_rows(side, block)))
        for _ in range(20):  # isolated vertices on both sides
            x = rng.randint(3, 8)
            y = rng.randint(3, min(8, 16 - x))
            lone_x, lone_y = rng.randint(1, 2), rng.randint(1, 2)
            hosts.append(graph_of_rows(x, y, [0] * lone_x + [dense(y - lone_y) for _ in range(x - lone_x)]))
        hosts += [gen_sharpness(2)[0], gen_sharpness(4)[0]]
        profiles = [[4], [6], [8], [10], [4, 4], [4, 6], [6, 6], [4, 4, 4], [4, 4, 6]]
        cases = [(g, make_profile(lengths, mode="conjecture")) for g in hosts for lengths in profiles
                 if sum(lengths) <= 2 * min(g.x_size, g.y_size)]
        cases += [gen_sharpness(2), gen_sharpness(4)]
        with_twins = [brute_force_pack(g, profile) for g, profile in cases]
        monkeypatch.setattr(packer, "_twin_classes", lambda adj: [])
        verdicts = collections.Counter()
        for (g, profile), mine in zip(cases, with_twins):
            plain = brute_force_pack(g, profile)
            assert (mine.status, mine.packing) == (plain.status, plain.packing), (g.adjacency, profile.lengths)
            verdicts[mine.status] += 1
            if g.num_vertices <= 12:
                theirs = partition_feasible(g.x_size, g.y_size, list(g.edges()), profile.lengths)
                assert (mine.status == "packed") == theirs, (g.adjacency, profile.lengths)
        assert verdicts["packed"] > 100 and verdicts["infeasible"] > 100

    def test_refuses_large_instances(self):
        with pytest.raises(OracleLimitError):
            brute_force_pack(gen_complete(10), make_profile([6]))

    def test_limit_override(self):
        r = brute_force_pack(gen_complete(10), make_profile([6]), oracle_limit=20)
        assert r.status == "packed"

    def test_agrees_with_partition_oracle_sample(self):
        profiles = [
            (make_profile([4], mode="conjecture"), [4]),
            (make_profile([6]), [6]),
            (make_profile([4, 4], mode="conjecture"), [4, 4]),
            (make_profile([4, 6], mode="conjecture"), [4, 6]),
            (make_profile([6, 6]), [6, 6]),
        ]
        for i in range(40):
            rng = random.Random(555 + i)
            side = rng.randint(2, 6)
            delta = rng.randint(0, side)
            g = gen_random_mindeg(side, side, delta, seed=555 + i, fill_p=rng.choice([0.2, 0.5]))
            profile, lengths = profiles[i % len(profiles)]
            mine = brute_force_pack(g, profile).status == "packed"
            theirs = partition_feasible(g.x_size, g.y_size, list(g.edges()), lengths)
            assert mine == theirs, f"instance {i}: oracle {mine} vs partition {theirs}"

    def test_agrees_with_partition_oracle_unequal_sides_and_three_entries(self):
        # Unequal sides make the smaller side bind the oracle's slack. Sparse
        # hosts often leave the branch vertex (fewest free neighbours) outside
        # every packing, so the uncovered branch must be searched. Three mixed
        # entries make the choice of the largest fitting length matter.
        def check(seed, x, y, delta, fill, lengths):
            g = gen_random_mindeg(x, y, delta, seed=seed, fill_p=fill)
            profile = make_profile(lengths, mode="conjecture")
            mine = brute_force_pack(g, profile, oracle_limit=20).status == "packed"
            theirs = partition_feasible(g.x_size, g.y_size, list(g.edges()), lengths)
            assert mine == theirs, f"seed {seed}, sides {x}+{y}: oracle {mine} vs partition {theirs}"

        short = [[6], [8], [4, 4], [4, 6]]
        for i in range(40):
            rng = random.Random(1 + i)
            small = rng.randint(3, 6)
            x, y = rng.sample([small, small + rng.randint(1, 3)], 2)
            check(1 + i, x, y, 2, rng.choice([0.0, 0.1]), short[i % len(short)])
        three = [([4, 4, 4], 6, 7), ([4, 4, 4], 8, 6), ([4, 4, 6], 7, 8), ([4, 4, 6], 8, 7)] * 3
        three += [([4, 6, 8], 9, 10), ([4, 6, 8], 10, 9)]
        for i, (lengths, x, y) in enumerate(three):
            check(101 + i, x, y, 3, random.Random(101 + i).choice([0.0, 0.1, 0.3]), lengths)

    def test_low_degree_vertex_outside_every_packing(self):
        # K2,2 (degree 2) beside K3,3: the branch vertex lies only on a 4-cycle,
        # so the six-cycle is found only by leaving it uncovered
        edges = [(0, 5), (0, 6), (1, 5), (1, 6)] + [(x, y) for x in (2, 3, 4) for y in (7, 8, 9)]
        r = brute_force_pack(BipartiteGraph(5, 5, edges), make_profile([6]))
        assert r.status == "packed" and set(r.packing[0]) <= {2, 3, 4, 7, 8, 9}

    def test_low_degree_hosts_pinned(self):
        # vertices with fewer than two free neighbours lie on no cycle; recorded
        # when the search still stripped the free set to its 2-core first, so
        # peeling them one per level must find the same first packing
        hosts = {
            # K3,3 beside two isolated vertices per side
            "isolated": BipartiteGraph(5, 5, [(x, y) for x in (1, 2, 3) for y in (6, 7, 8)]),
            # K3,3 with a pendant vertex at four of its vertices
            "pendants": BipartiteGraph(
                5, 5, [(x, y) for x in (0, 1, 2) for y in (5, 6, 7)] + [(3, 5), (4, 6), (0, 8), (1, 9)]
            ),
            # K3,3 on odd ids with a path of five edges hanging off Y vertex 7
            "pendant_path": BipartiteGraph(
                6, 6, [(x, y) for x in (1, 3, 5) for y in (7, 9, 11)] + [(0, 7), (0, 6), (2, 6), (2, 8), (4, 8)]
            ),
            # two 4-cycles joined by a path, with a pendant path at one of them
            "bridged_squares": BipartiteGraph(6, 6, [
                (0, 6), (0, 7), (1, 6), (1, 7), (1, 8), (2, 8), (2, 9), (3, 9), (3, 10), (4, 9), (4, 10),
                (5, 11), (5, 6),
            ]),
        }
        lengths = [[4], [6], [8], [4, 4], [4, 6], [6, 6], [4, 4, 4]]
        packed = {
            ("isolated", 0): [[1, 6, 2, 7]],
            ("isolated", 1): [[1, 6, 2, 7, 3, 8]],
            ("pendants", 0): [[0, 5, 1, 6]],
            ("pendants", 1): [[0, 5, 1, 6, 2, 7]],
            ("pendant_path", 0): [[1, 7, 3, 9]],
            ("pendant_path", 1): [[1, 7, 3, 9, 5, 11]],
            ("bridged_squares", 0): [[0, 6, 1, 7]],
            ("bridged_squares", 3): [[3, 9, 4, 10], [0, 6, 1, 7]],
        }
        for name, g in hosts.items():
            assert g.min_degree() < 2
            for i, ls in enumerate(lengths):
                r = brute_force_pack(g, make_profile(ls, mode="conjecture"))
                expected = packed.get((name, i))
                assert r.status == ("infeasible" if expected is None else "packed"), (name, ls)
                assert (r.packing and [list(c) for c in r.packing]) == expected, (name, ls)

        # even i draws equal sides, odd i unequal; the equal half was recorded
        # before unequal sides lost their matching rounds and must not move
        digests = [hashlib.sha256(), hashlib.sha256()]
        statuses = ["", ""]
        for i in range(60):
            side = 4 + i % 6
            delta = i % 2 * (i // 2 % 2)
            g = gen_random_mindeg(side, side + i % 2, delta, seed=700 + i, fill_p=(0.3, 0.4, 0.5)[i % 3])
            r = brute_force_pack(g, make_profile(lengths[i % len(lengths)], mode="conjecture"), oracle_limit=20)
            statuses[i % 2] += r.status[0]
            digests[i % 2].update(json.dumps([r.status, r.packing and [list(c) for c in r.packing]]).encode())
        assert statuses == ["pipippippiipiipipiiipippippipp", "ppppppippippiippippippipippipp"]
        assert [d.hexdigest() for d in digests] == [
            "65553effeb4f5ecffd297a5e2434b016f5cf902bc917c8ffb3031e88c87bb377",
            "0ff54d26cd82caf28e347e228855c698d89683c13dd4aa0a9e89199ab8f648e6",
        ]


def test_cycles_through_agree_with_networkx_simple_cycles():
    nx = pytest.importorskip("networkx")
    rng = random.Random(78)
    for trial in range(40):
        x = rng.randint(2, 6)
        y = rng.randint(2, 6)
        p = rng.uniform(0.3, 0.8)
        g = BipartiteGraph(x, y, [(u, x + v) for u in range(x) for v in range(y) if rng.random() < p])
        keep = sum(1 << v for v in range(g.num_vertices) if rng.random() < 0.85)
        anchor = rng.randrange(g.num_vertices)
        keep |= 1 << anchor  # the search requires its anchor inside the mask
        lo = rng.choice((4, 6, 8))
        hi = rng.randint(lo, 12)
        nxg = nx.Graph()
        nxg.add_nodes_from(bits(keep))
        nxg.add_edges_from((a, b) for a, b in g.edges() if keep >> a & 1 and keep >> b & 1)
        expected = [c for c in nx.simple_cycles(nxg, length_bound=hi) if anchor in c and len(c) >= lo]
        found = list(iter_cycles_through(g.adjacency, keep, anchor, lo, hi, ()))
        assert len(found) == len(expected)
        assert len(set(found)) == len(found) and all(c[0] == anchor for c in found)
        assert sorted(map(sorted, found)) == sorted(map(sorted, expected))


def reference_cycles_through(adj, mask, v, lo, hi):
    """The recursive enumeration ``iter_cycles_through`` replaced, with no
    twin rule: the order the oracle's packings were first pinned under."""
    vbit = 1 << v

    def extend(free, u, path):
        if len(path) >= lo and adj[u] & vbit and path[1] < u:
            yield tuple(path)
        if len(path) == hi:
            return
        for w in bits(adj[u] & free):
            path.append(w)
            yield from extend(free & ~(1 << w), w, path)
            path.pop()

    yield from extend(mask & ~vbit, v, [v])


def test_cycles_through_keep_the_recursive_order():
    # the oracle returns the first packing it finds, so the order matters and
    # not only the set of cycles
    rng = random.Random(91)
    total = 0
    for trial in range(150):
        x, y = rng.randint(2, 7), rng.randint(2, 7)
        p = rng.uniform(0.3, 0.95)
        g = BipartiteGraph(x, y, [(u, x + v) for u in range(x) for v in range(y) if rng.random() < p])
        anchor = rng.randrange(g.num_vertices)
        keep = sum(1 << v for v in range(g.num_vertices) if rng.random() < 0.85) | 1 << anchor
        lo = rng.choice((4, 6, 8))
        hi = rng.randint(lo, 14)
        found = list(iter_cycles_through(g.adjacency, keep, anchor, lo, hi, ()))
        assert found == list(reference_cycles_through(g.adjacency, keep, anchor, lo, hi))
        total += len(found)
    assert total > 1000


def test_twin_rule_keeps_every_remainder():
    # on twin-heavy hosts, trying only the lowest free twin of each class
    # yields a subsequence of the full enumeration in which every skipped
    # cycle's (length, remainder up to twins) pair was already reached by a
    # kept cycle, so the oracle skips only memo hits; a class set that appears
    # mid-enumeration, as the oracle's does at its first failure, keeps both
    rng = random.Random(53)
    hosts = []
    for _ in range(25):  # blow-ups: X rows from a few patterns
        x, y = rng.randint(3, 8), rng.randint(3, 8)
        patterns = [rng.getrandbits(y) | rng.getrandbits(y) for _ in range(rng.randint(1, 3))]
        hosts.append(graph_of_rows(x, y, [rng.choice(patterns) for _ in range(x)]))
    for side, block in [(5, 2), (6, 2), (6, 3), (7, 3), (8, 4)]:
        hosts.append(graph_of_rows(side, side, block_complement_rows(side, block)))
    hosts += [gen_sharpness(2)[0], gen_sharpness(4)[0]]
    pruned_total = full_total = 0
    for g in hosts:
        twins = packer._twin_classes(g.adjacency)
        assert twins
        for _ in range(4):
            anchor = rng.randrange(g.num_vertices)
            keep = g.full_mask if rng.random() < 0.5 else rng.getrandbits(g.num_vertices) | 1 << anchor
            lo = rng.choice((4, 6))
            hi = rng.randint(lo, 10)
            full = list(iter_cycles_through(g.adjacency, keep, anchor, lo, hi, ()))
            late = {}
            growing = iter_cycles_through(g.adjacency, keep, anchor, lo, hi, late)
            first = next(growing, None)
            late.update(twins)
            runs = [list(iter_cycles_through(g.adjacency, keep, anchor, lo, hi, twins)),
                    [first] + list(growing) if first else []]
            for pruned in runs:
                kept, reached = iter(pruned), set()
                nxt = next(kept, None)
                for c in full:
                    key = (len(c), packer._canonical(keep & ~mask_of(c), twins))
                    if c == nxt:
                        reached.add(key)
                        nxt = next(kept, None)
                    assert key in reached  # an earlier kept cycle leaves a twin image
                assert nxt is None  # the kept cycles are a subsequence
            pruned_total += len(runs[0])
            full_total += len(full)
    assert pruned_total < full_total / 2
