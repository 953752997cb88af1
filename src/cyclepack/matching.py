"""Maximum bipartite matching and alternating-path walks on adjacency bitmasks."""
from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import GraphError, bits

_INF = -1


@dataclass
class Matching:
    """Symmetric partner map; every matched pair is an edge crossing the bipartition."""

    pairs: dict[int, int] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.pairs) // 2

    def covers(self, v: int) -> bool:
        return v in self.pairs

    def partner(self, v: int) -> int | None:
        return self.pairs.get(v)

    def add(self, u: int, v: int) -> None:
        self.pairs[u] = v
        self.pairs[v] = u


def max_matching(adj: tuple[int, ...], mask: int, x_mask: int) -> Matching:
    """Maximum-cardinality matching of the subgraph induced by ``mask``, found by
    BFS-layered augmentation (Hopcroft-Karp); ``x_mask`` marks the X side.

    Vertices and neighbors are always scanned in ascending id order, so the
    returned matching is deterministic even though any maximum matching would do.
    """
    left = list(bits(mask & x_mask))
    pair: dict[int, int] = {}
    dist: dict[int, int] = {}

    def bfs() -> bool:
        queue = []
        for u in left:
            if u not in pair:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _INF
        found = False
        i = 0
        while i < len(queue):
            u = queue[i]
            i += 1
            for w in bits(adj[u] & mask):
                nxt = pair.get(w)
                if nxt is None:
                    found = True
                elif dist[nxt] == _INF:
                    dist[nxt] = dist[u] + 1
                    queue.append(nxt)
        return found

    def dfs(u: int) -> bool:
        for w in bits(adj[u] & mask):
            nxt = pair.get(w)
            if nxt is None or (dist[nxt] == dist[u] + 1 and dfs(nxt)):
                pair[u] = w
                pair[w] = u
                return True
        dist[u] = _INF
        return False

    while bfs():
        for u in left:
            if u not in pair:
                dfs(u)
    return Matching(dict(pair))


def longest_alternating_path(
    adj: tuple[int, ...], mask: int, matching: Matching, start: int, first_edge_in_m: bool = False
) -> list[int]:
    """Maximal alternating path from ``start`` inside ``mask``, grown greedily.

    Edges alternate between non-matching and matching edges; when
    ``first_edge_in_m`` is set the walk leaves ``start`` along its matching
    edge. Extension always takes the lowest-id eligible neighbor and stops when
    none exists, so the result is non-extendable at its final vertex (which is
    all downstream arguments need; a true longest path is not attempted).
    """
    if not mask >> start & 1:
        raise GraphError(f"start vertex {start} is not in the vertex set")
    if first_edge_in_m and not matching.covers(start):
        raise GraphError(f"start vertex {start} is unmatched but a matching first edge was requested")
    path = [start]
    visited = 1 << start
    need_matching_edge = first_edge_in_m
    while True:
        cur = path[-1]
        nxt = None
        if need_matching_edge:
            p = matching.partner(cur)
            if p is not None and mask >> p & 1 and not visited >> p & 1:
                nxt = p
        else:
            p = matching.partner(cur)
            skip = (1 << p) if p is not None else 0
            cands = adj[cur] & mask & ~visited & ~skip
            if cands:
                nxt = (cands & -cands).bit_length() - 1
        if nxt is None:
            return path
        path.append(nxt)
        visited |= 1 << nxt
        need_matching_edge = not need_matching_edge
