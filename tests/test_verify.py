import json
import random

from cyclepack import (
    BipartiteGraph,
    check_hypotheses,
    gen_complete,
    gen_random_mindeg,
    gen_sharpness,
    make_profile,
    pack,
    verify_packing,
)


def failed(report, name: str) -> bool:
    """Whether the report holds a check ``name`` that did not pass."""
    return any(c.name == name and not c.passed for c in report.checks)


def naive_accepts(x_size, y_size, edge_list, lengths, cycles) -> bool:
    """Deliberately plain re-checker: walks every claimed cycle edge by edge,
    confirming each step by scanning the raw edge list. Shares no graph data
    structures with the package."""
    if len(cycles) != len(lengths):
        return False
    n = x_size + y_size
    used = set()
    for cyc in cycles:
        if len(cyc) % 2 or len(set(cyc)) != len(cyc):
            return False
        for v in cyc:
            if not (0 <= v < n) or v in used:
                return False
            used.add(v)
        for idx in range(len(cyc)):
            a, b = cyc[idx], cyc[(idx + 1) % len(cyc)]
            hit = False
            for u, w in edge_list:
                if (u, w) == (a, b) or (u, w) == (b, a):
                    hit = True
                    break
            if not hit:
                return False
    have = sorted((len(c) for c in cycles), reverse=True)
    want = sorted(lengths, reverse=True)
    return all(h >= w for h, w in zip(have, want))


def c6_graph():
    return BipartiteGraph(3, 3, [(0, 3), (1, 3), (1, 4), (2, 4), (2, 5), (0, 5)])


class TestVerifyPacking:
    def test_hamilton_cycle_accepted(self):
        g = gen_complete(3)
        report = verify_packing(g, make_profile([6]), [(0, 3, 1, 4, 2, 5)])
        assert report.ok

    def test_duplicate_cycle_rejected(self):
        g = gen_complete(6)
        cyc = (0, 6, 1, 7, 2, 8)
        report = verify_packing(g, make_profile([6, 6]), [cyc, cyc])
        assert not report.ok and failed(report, "disjointness")

    def test_odd_claim_rejected(self):
        g = gen_complete(3)
        report = verify_packing(g, make_profile([6]), [(0, 3, 1, 4, 2)])
        assert not report.ok
        assert failed(report, "parity") or failed(report, "adjacency")

    def test_short_cycle_rejected_on_length(self):
        g = gen_complete(3)
        report = verify_packing(g, make_profile([6]), [(0, 3, 1, 4)])
        assert not report.ok and failed(report, "length")

    def test_empty_claim_passes_adjacency_and_fails_length(self):
        report = verify_packing(gen_complete(3), make_profile([6]), [()])
        assert not failed(report, "adjacency")
        assert failed(report, "length")

    def test_nonadjacent_step_rejected(self):
        g = c6_graph()
        report = verify_packing(g, make_profile([6]), [(0, 3, 2, 4, 1, 5)])
        assert not report.ok and failed(report, "adjacency")

    def test_wrong_cycle_count(self):
        g = gen_complete(6)
        report = verify_packing(g, make_profile([6, 6]), [(0, 6, 1, 7, 2, 8)])
        assert not report.ok and failed(report, "cycle_count")

    def test_invalid_vertex_id(self):
        g = gen_complete(3)
        report = verify_packing(g, make_profile([6]), [(0, 3, 1, 4, 2, 99)])
        assert not report.ok and failed(report, "simplicity")

    def test_edge_inside_one_side_rejected(self):
        for u, v in ((0, 1), (3, 4)):  # inside X, then inside Y
            g = gen_complete(3)
            adj = list(g.adjacency)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            g.adjacency = tuple(adj)
            report = verify_packing(g, make_profile([6]), [(0, 3, 1, 4, 2, 5)])
            assert failed(report, "bipartite_validity") and not report.ok
            bip = next(c for c in report.checks if c.name == "bipartite_validity")
            assert bip.detail == f"edge ({u}, {v}) stays inside one side"

    def test_hypothesis_failure_does_not_invalidate(self):
        # correct packing in a graph below the degree threshold still verifies
        g = c6_graph()
        report = verify_packing(g, make_profile([6, 6][:1]), [(0, 3, 1, 4, 2, 5)])
        assert report.ok

    def test_checks_only_the_packing(self):
        # the sharpness host is below the degree threshold: that is check_hypotheses' finding, not ours
        g, profile = gen_sharpness(2)
        report = verify_packing(g, profile, [(0, 5, 1, 6), (2, 7, 3, 8)])
        assert not any(c.name.startswith("hypothesis_") for c in report.checks)
        assert report.ok == all(c.passed for c in report.checks)
        assert [c.name for c in report.checks if not c.passed] == ["length"]

    def test_report_shape_and_purity(self):
        g = gen_complete(3)
        a = verify_packing(g, make_profile([6]), [(0, 3, 1, 4, 2, 5)])
        b = verify_packing(g, make_profile([6]), [(0, 3, 1, 4, 2, 5)])
        assert a == b
        d = a.to_dict()
        assert set(d) == {"ok", "checks"}
        assert all(set(c) == {"name", "pass", "detail"} for c in d["checks"])
        json.dumps(d)  # machine-readable contract must serialize cleanly


class TestCheckHypotheses:
    def test_guaranteed_regime(self):
        report = check_hypotheses(gen_complete(6), make_profile([6, 6]))
        assert report.ok

    def test_sharpness_fails_degree(self):
        g, profile = gen_sharpness(2)
        report = check_hypotheses(g, profile)
        assert not report.ok
        assert failed(report, "hypothesis_min_degree")
        assert not failed(report, "hypothesis_balance")

    def test_empty_graph_has_no_degrees(self):
        report = check_hypotheses(BipartiteGraph(0, 0, []), make_profile([6]))
        degree = next(c for c in report.checks if c.name == "hypothesis_min_degree")
        assert not degree.passed and degree.detail == "empty graph has no degrees"

    def test_unbalanced_sides(self):
        g = BipartiteGraph(2, 3, [(0, 2), (1, 3), (0, 4), (1, 2), (0, 3), (1, 4)])
        report = check_hypotheses(g, make_profile([4], mode="conjecture"))
        assert failed(report, "hypothesis_balance")


class TestAgainstNaiveWalker:
    def test_accepted_packings_also_pass_naive_walker(self):
        profile = make_profile([6, 6])
        for i in range(30):
            g = gen_random_mindeg(6, 6, 5, seed=300 + i)
            result = pack(g, profile, seed=i)
            assert result.status == "packed"
            report = verify_packing(g, profile, result.packing)
            assert report.ok
            assert naive_accepts(
                g.x_size, g.y_size, list(g.edges()), list(profile.lengths),
                [list(c) for c in result.packing],
            )

    def test_mutated_packings_rejected_by_both(self):
        profile = make_profile([6, 6])
        rng = random.Random(1234)
        for i in range(30):
            g = gen_random_mindeg(6, 6, 5, seed=600 + i)
            result = pack(g, profile, seed=i)
            cycles = [list(c) for c in result.packing]
            mutated = [list(c) for c in cycles]
            kind = i % 3
            if kind == 0:  # duplicate a vertex inside one cycle
                c = mutated[rng.randrange(2)]
                pos = rng.randrange(len(c))
                src = (pos + 1 + rng.randrange(len(c) - 1)) % len(c)
                c[pos] = c[src]
            elif kind == 1:  # truncate below the required length
                mutated[rng.randrange(2)] = mutated[rng.randrange(2)][:2]
            else:  # inject a disjointness violation
                mutated[1][0] = mutated[0][0]
            report = verify_packing(g, profile, mutated)
            assert not report.ok
            assert not naive_accepts(
                g.x_size, g.y_size, list(g.edges()), list(profile.lengths), mutated
            )
