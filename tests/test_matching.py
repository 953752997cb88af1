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


def eager_augment(allowed, match_l, match_r, free_r, root):
    """``augment`` as it was before its search went lazy: a searched vertex
    queues the partners of all its unseen candidates at once. The reference
    that the generator's byte-identical output rests on."""
    parent = {}
    seen = 0
    queue = [root]
    for u in queue:
        cands = allowed[u] & ~seen
        seen |= cands
        ends = cands & free_r
        if ends:
            r = (ends & -ends).bit_length() - 1
            free_r ^= 1 << r
            while True:
                match_r[r] = u
                match_l[u], r = r, match_l[u]
                if u == root:
                    break
                u = parent[r]
            break
        for r in bits(cands):
            parent[r] = u
            queue.append(match_r[r])
    return free_r


def replay_both(allowed, match_l, match_r, free_r, roots):
    """Augment from each root in turn with both searches, each on its own copy
    of the matching (``match_l is match_r`` is kept), comparing after every call."""
    runs = []
    for search in (augment, eager_augment):
        ml = match_l[:]
        runs.append([search, ml, ml if match_r is match_l else match_r[:], free_r])
    for root in roots:
        for run in runs:
            run[3] = run[0](allowed, run[1], run[2], run[3], root)
        assert runs[0][1:] == runs[1][1:], root


def test_lazy_search_matches_eager_search_on_slot_rows():
    # the generator's layout: list rows over right slots, separate partner lists,
    # a random permutation's allowed pairs kept and the other slots rematched
    rng = random.Random(5150)
    for trial in range(400):
        size = rng.randint(1, 24)
        p = rng.choice([0.1, 0.3, 0.6, 0.9])
        allowed = [sum(1 << r for r in range(size) if rng.random() < p) for _ in range(size)]
        match_l = list(range(size))
        rng.shuffle(match_l)
        match_r = [-1] * size
        free_r = (1 << size) - 1
        for l, r in enumerate(match_l):
            if allowed[l] >> r & 1:
                match_r[r] = l
                free_r ^= 1 << r
            else:
                match_l[l] = -1
        replay_both(allowed, match_l, match_r, free_r, [l for l, r in enumerate(match_l) if r == -1])


def test_lazy_search_matches_eager_search_on_views():
    # the layout of `max_matching` above: dict rows over global ids, one partner list
    rng = random.Random(6160)
    for trial in range(300):
        x, y = rng.randint(1, 14), rng.randint(1, 14)
        p = rng.uniform(0.05, 0.7)
        g = BipartiteGraph(x, y, [(u, x + v) for u in range(x) for v in range(y) if rng.random() < p])
        keep = sum(1 << v for v in range(g.num_vertices) if rng.random() < 0.85)
        allowed = {u: g.adjacency[u] & keep for u in bits(keep & g.x_mask)}
        mate = [-1] * g.num_vertices
        replay_both(allowed, mate, mate, keep & ~g.x_mask, list(allowed))
