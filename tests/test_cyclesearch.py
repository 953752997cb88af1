import random

import pytest

from cyclepack import BipartiteGraph
from cyclepack.cyclesearch import iter_cycles_through, two_core
from cyclepack.graphs import bits


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
        found = list(iter_cycles_through(g.adjacency, keep, anchor, lo, hi))
        assert len(found) == len(expected)
        assert len(set(found)) == len(found) and all(c[0] == anchor for c in found)
        assert sorted(map(sorted, found)) == sorted(map(sorted, expected))


def _masked_instance(rng, nx):
    x = rng.randint(2, 6)
    y = rng.randint(2, 6)
    p = rng.uniform(0.3, 0.8)
    g = BipartiteGraph(x, y, [(u, x + v) for u in range(x) for v in range(y) if rng.random() < p])
    keep = sum(1 << v for v in range(g.num_vertices) if rng.random() < 0.85)
    nxg = nx.Graph()
    nxg.add_nodes_from(bits(keep))
    nxg.add_edges_from((a, b) for a, b in g.edges() if keep >> a & 1 and keep >> b & 1)
    return g, keep, nxg


def test_two_core_agrees_with_networkx_k_core():
    nx = pytest.importorskip("networkx")
    rng = random.Random(80)
    for trial in range(40):
        g, keep, nxg = _masked_instance(rng, nx)
        core, v = two_core(g.adjacency, keep)
        k2 = nx.k_core(nxg, 2)
        assert set(bits(core)) == set(k2.nodes)
        if not k2:
            assert v == -1
        else:
            assert v == min(k2.nodes, key=lambda u: (k2.degree(u), u))
