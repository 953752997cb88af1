"""Reference checks for ``graphs.augment``, the one bipartite matcher: the
generator's rematching rounds rely on it finding a maximum matching."""
import random

import pytest

from cyclepack import BipartiteGraph, gen_complete, gen_random_mindeg
from cyclepack.graphs import augment, bits


def max_matching(g, mask):
    """Matching of the subgraph ``mask`` induces, grown by ``augment`` from each
    X vertex in ascending order, as a symmetric partner dict. A vertex with no
    augmenting path at its turn never gains one later, so one pass is maximum."""
    allowed = {u: g.adjacency[u] & mask for u in bits(mask & g.x_mask)}
    mate = [-1] * g.num_vertices  # X and Y ids are disjoint: one list serves both sides
    free_r = mask & ~g.x_mask
    for u in allowed:
        free_r = augment(allowed, mate, mate, free_r, u)
    return {v: w for v, w in enumerate(mate) if w != -1}


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
    assert len(max_matching(g, g.full_mask)) // 2 == 3


def test_star_matches_once():
    g = BipartiteGraph(1, 4, [(0, y) for y in range(1, 5)])
    assert len(max_matching(g, g.full_mask)) // 2 == 1


def test_empty_view_allowed():
    g = BipartiteGraph(2, 2, [])
    assert max_matching(g, 0) == {}
    assert max_matching(g, g.full_mask) == {}


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
        m = max_matching(g, keep)
        assert len(m) // 2 == brute_force_matching_size(g, keep)
        check_matching_shape(g, keep, m)


def test_matching_optimal_on_two_hundred_sample():
    rng = random.Random(31337)
    for trial in range(200):
        x = rng.randint(1, 6)
        y = rng.randint(1, 6)
        d = rng.randint(0, min(x, y))
        g = gen_random_mindeg(x, y, d, seed=trial)
        m = max_matching(g, g.full_mask)
        check_matching_shape(g, g.full_mask, m)
        assert len(m) // 2 == brute_force_matching_size(g, g.full_mask)


def test_long_augmenting_path_needs_no_recursion():
    # X_i ~ Y_i, Y_{i+1} for i < n-1 and X_{n-1} ~ Y_0: ascending greedy choices
    # leave one augmenting path through all 2n vertices
    n = 1200
    edges = [(i, n + i) for i in range(n - 1)] + [(i, n + i + 1) for i in range(n - 1)] + [(n - 1, n)]
    g = BipartiteGraph(n, n, edges)
    m = max_matching(g, g.full_mask)
    assert len(m) // 2 == n
    check_matching_shape(g, g.full_mask, m)


def test_matching_determinism():
    g = gen_random_mindeg(6, 6, 3, seed=5)
    assert max_matching(g, g.full_mask) == max_matching(g, g.full_mask)


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
        m = max_matching(g, keep)
        assert len(m) // 2 == len(reference) // 2
        check_matching_shape(g, keep, m)
