"""Maximum bipartite matching and alternating-path walks on adjacency bitmasks."""
from __future__ import annotations

from .graphs import GraphError, augment, bits


def max_matching(adj: tuple[int, ...], mask: int, x_mask: int) -> dict[int, int]:
    """Maximum-cardinality matching of the subgraph induced by ``mask`` as a
    symmetric partner map; ``x_mask`` marks the X side.

    Augments from each X vertex of ``mask`` in ascending id order with
    :func:`graphs.augment`: a vertex with no augmenting path at its turn never
    gains one later, so one pass is maximum. The result is deterministic.
    """
    left = list(bits(mask & x_mask))
    allowed = {u: adj[u] & mask for u in left}
    mate = [-1] * len(adj)  # X and Y ids are disjoint: one list serves both sides
    free_r = mask & ~x_mask
    for u in left:
        free_r = augment(allowed, mate, mate, free_r, u)
    return {v: w for v, w in enumerate(mate) if w != -1}


def longest_alternating_path(
    adj: tuple[int, ...], mask: int, matching: dict[int, int], start: int, first_edge_in_m: bool = False
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
    if first_edge_in_m and start not in matching:
        raise GraphError(f"start vertex {start} is unmatched but a matching first edge was requested")
    path = [start]
    visited = 1 << start
    need_matching_edge = first_edge_in_m
    while True:
        cur = path[-1]
        nxt = None
        p = matching.get(cur)
        if need_matching_edge:
            if p is not None and mask >> p & 1 and not visited >> p & 1:
                nxt = p
        else:
            skip = (1 << p) if p is not None else 0
            cands = adj[cur] & mask & ~visited & ~skip
            if cands:
                nxt = (cands & -cands).bit_length() - 1
        if nxt is None:
            return path
        path.append(nxt)
        visited |= 1 << nxt
        need_matching_edge = not need_matching_edge
