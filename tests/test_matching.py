import random

import pytest

from cyclepack import (
    BipartiteGraph,
    GraphError,
    gen_complete,
    gen_random_mindeg,
    longest_alternating_path,
    max_matching,
)
from cyclepack.graphs import bits


def brute_force_matching_size(g, mask) -> int:
    """Exhaustive oracle: try every assignment of X-vertices to distinct neighbors."""
    xs = list(bits(mask & g.x_mask))

    def best(i: int, used_y: int) -> int:
        if i == len(xs):
            return 0
        top = best(i + 1, used_y)  # leave xs[i] unmatched
        for y in bits(g.adjacency[xs[i]] & mask & ~used_y):
            top = max(top, 1 + best(i + 1, used_y | 1 << y))
        return top

    return best(0, 0)


def check_matching_shape(g, mask, m):
    seen = set()
    for a, b in m.items():
        assert m[b] == a, "partner map must be symmetric"
        if a < b:
            assert mask >> a & 1 and mask >> b & 1, "matched pair must lie inside the vertex set"
            assert g.adjacency[a] >> b & 1, "matched pair must be an edge"
            assert a not in seen and b not in seen
            seen.update((a, b))


def test_complete_has_perfect_matching():
    g = gen_complete(3)
    m = max_matching(g.adjacency, g.full_mask, g.x_mask)
    assert len(m) // 2 == 3


def test_star_matches_once():
    g = BipartiteGraph(1, 4, [(0, y) for y in range(1, 5)])
    assert len(max_matching(g.adjacency, g.full_mask, g.x_mask)) // 2 == 1


def test_empty_view_allowed():
    g = BipartiteGraph(2, 2, [])
    assert len(max_matching(g.adjacency, 0, g.x_mask)) // 2 == 0
    assert len(max_matching(g.adjacency, g.full_mask, g.x_mask)) // 2 == 0


def test_matching_matches_brute_force_on_random_views():
    rng = random.Random(4242)
    for trial in range(50):
        x = rng.randint(1, 6)
        y = rng.randint(1, 6)
        edges = [(u, x + v) for u in range(x) for v in range(y) if rng.random() < 0.45]
        g = BipartiteGraph(x, y, edges)
        keep = 0
        for v in range(g.num_vertices):
            if rng.random() < 0.8:
                keep |= 1 << v
        m = max_matching(g.adjacency, keep, g.x_mask)
        assert len(m) // 2 == brute_force_matching_size(g, keep)
        check_matching_shape(g, keep, m)


def test_matching_optimal_on_two_hundred_sample():
    rng = random.Random(31337)
    for trial in range(200):
        x = rng.randint(1, 6)
        y = rng.randint(1, 6)
        d = rng.randint(0, min(x, y))
        g = gen_random_mindeg(x, y, d, seed=trial)
        m = max_matching(g.adjacency, g.full_mask, g.x_mask)
        check_matching_shape(g, g.full_mask, m)
        assert len(m) // 2 == brute_force_matching_size(g, g.full_mask)


def test_long_augmenting_path_needs_no_recursion():
    # X_i ~ Y_i, Y_{i+1} for i < n-1 and X_{n-1} ~ Y_0: ascending greedy choices
    # leave one augmenting path through all 2n vertices
    n = 1200
    edges = [(i, n + i) for i in range(n - 1)] + [(i, n + i + 1) for i in range(n - 1)] + [(n - 1, n)]
    g = BipartiteGraph(n, n, edges)
    m = max_matching(g.adjacency, g.full_mask, g.x_mask)
    assert len(m) // 2 == n
    check_matching_shape(g, g.full_mask, m)


def test_matching_determinism():
    g = gen_random_mindeg(6, 6, 3, seed=5)
    args = (g.adjacency, g.full_mask, g.x_mask)
    assert max_matching(*args) == max_matching(*args)


class TestAlternatingPath:
    def test_single_matched_edge_with_flag(self):
        g = BipartiteGraph(1, 1, [(0, 1)])
        m = max_matching(g.adjacency, g.full_mask, g.x_mask)
        assert longest_alternating_path(g.adjacency, g.full_mask, m, 0, True) == [0, 1]

    def test_empty_matching_stops_after_one_edge(self):
        g = BipartiteGraph(1, 2, [(0, 1), (0, 2)])
        path = longest_alternating_path(g.adjacency, g.full_mask, {}, 0, False)
        assert path == [0, 1]  # lowest-id neighbor, then no matching edge to leave by

    def test_path_graph_traced_by_hand(self):
        # a - b - c - d with the middle edge matched: alternation walks the whole path
        g = BipartiteGraph(2, 2, [(0, 2), (1, 2), (1, 3)])  # a=0, d=3, b=2, c=1
        m = {2: 1, 1: 2}
        assert longest_alternating_path(g.adjacency, g.full_mask, m, 0, False) == [0, 2, 1, 3]

    def test_start_validation(self):
        g = gen_complete(2)
        m = max_matching(g.adjacency, g.full_mask, g.x_mask)
        with pytest.raises(GraphError):
            longest_alternating_path(g.adjacency, 1 << 0, m, 3, False)  # 3 outside the set
        g2 = BipartiteGraph(2, 2, [(0, 2)])
        m2 = max_matching(g2.adjacency, g2.full_mask, g2.x_mask)
        with pytest.raises(GraphError):
            longest_alternating_path(g2.adjacency, g2.full_mask, m2, 1, True)  # vertex 1 unmatched

    def test_alternation_and_maximality_property(self):
        rng = random.Random(911)
        for trial in range(60):
            x = rng.randint(2, 6)
            y = rng.randint(2, 6)
            edges = [(u, x + v) for u in range(x) for v in range(y) if rng.random() < 0.5]
            g = BipartiteGraph(x, y, edges)
            m = max_matching(g.adjacency, g.full_mask, g.x_mask)
            starts = [v for v in range(g.num_vertices)]
            for s in starts:
                for flag in (False, True):
                    if flag and s not in m:
                        continue
                    path = longest_alternating_path(g.adjacency, g.full_mask, m, s, flag)
                    assert path[0] == s
                    assert len(set(path)) == len(path)
                    need_m = flag
                    for a, b in zip(path, path[1:]):
                        assert g.adjacency[a] >> b & 1
                        assert (m.get(a) == b) == need_m
                        need_m = not need_m
                    # non-extendable at the final vertex
                    tail = path[-1]
                    visited = set(path)
                    if need_m:
                        p = m.get(tail)
                        assert p is None or p in visited
                    else:
                        p = m.get(tail)
                        for w in bits(g.adjacency[tail]):
                            if w in visited or w == p:
                                continue
                            raise AssertionError(f"path {path} extendable to {w}")


def test_matching_size_agrees_with_networkx_hopcroft_karp():
    nx = pytest.importorskip("networkx")
    rng = random.Random(2024)
    for trial in range(40):
        x = rng.randint(1, 30)
        y = rng.randint(1, 30)
        p = rng.uniform(0.02, 0.5)
        g = BipartiteGraph(x, y, [(u, x + v) for u in range(x) for v in range(y) if rng.random() < p])
        keep = sum(1 << v for v in range(g.num_vertices) if rng.random() < 0.8)
        nxg = nx.Graph()
        nxg.add_nodes_from(bits(keep))
        nxg.add_edges_from((u, v) for u, v in g.edges() if keep >> u & 1 and keep >> v & 1)
        top = list(bits(keep & g.x_mask))
        reference = nx.algorithms.bipartite.hopcroft_karp_matching(nxg, top_nodes=top)
        m = max_matching(g.adjacency, keep, g.x_mask)
        assert len(m) // 2 == len(reference) // 2
        check_matching_shape(g, keep, m)
