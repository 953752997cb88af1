"""Exact simple-cycle search inside small vertex subsets, on raw adjacency bitmasks.

Enumeration is anchored at each cycle's minimum vertex (or, for
``iter_cycles_through``, at the given vertex) and canonicalized by direction
(second vertex below last), so every simple cycle in the window is produced
exactly once. Intended for desk-scale sets (up to ~26 vertices): it serves only
the exact oracle, bounded by its limit, and shrink; exchange and double
exchange take their cycles from the move loop.
"""
from __future__ import annotations

from typing import Iterator

from .graphs import bits


def iter_cycles_window(
    adj: tuple[int, ...], mask: int, lo: int, hi: int
) -> Iterator[tuple[int, ...]]:
    """Yield each simple cycle within ``mask`` whose length is in [lo, hi] once."""
    lo = max(lo, 4)  # simple bipartite cycles have length >= 4
    if hi < lo:
        return
    for a in bits(mask):
        abit = 1 << a
        higher = mask & ~((abit << 1) - 1)
        if higher.bit_count() + 1 < lo:
            break  # later anchors have even fewer vertices available
        yield from _extend(adj, abit, higher, lo, hi, a, 0, [a])


def iter_cycles_through(
    adj: tuple[int, ...], mask: int, v: int, lo: int, hi: int
) -> Iterator[tuple[int, ...]]:
    """Yield each simple cycle within ``mask`` that passes through ``v`` and whose
    length is in [lo, hi] once, as a vertex sequence starting at ``v``."""
    lo = max(lo, 4)
    vbit = 1 << v
    if hi < lo or not mask & vbit:
        return
    yield from _extend(adj, vbit, mask & ~vbit, lo, hi, v, 0, [v])


def _extend(
    adj: tuple[int, ...],
    abit: int,
    higher: int,
    lo: int,
    hi: int,
    v: int,
    visited: int,
    path: list[int],
) -> Iterator[tuple[int, ...]]:
    if len(path) >= lo and adj[v] & abit and path[1] < v:
        yield tuple(path)
    if len(path) == hi:
        return
    if len(path) + (higher & ~visited).bit_count() < lo:
        return
    for w in bits(adj[v] & higher & ~visited):
        path.append(w)
        yield from _extend(adj, abit, higher, lo, hi, w, visited | 1 << w, path)
        path.pop()


def shortest_cycle_in_window(
    adj: tuple[int, ...], mask: int, lo: int, hi_exclusive: int
) -> tuple[int, ...] | None:
    """First cycle found at the shortest length in [lo, hi_exclusive), or None."""
    for length in range(max(lo, 4), hi_exclusive, 2):
        cyc = next(iter_cycles_window(adj, mask, length, length), None)
        if cyc is not None:
            return cyc
    return None


def two_core(adj: tuple[int, ...], mask: int) -> tuple[int, int]:
    """Iteratively strip vertices with fewer than two neighbors inside mask.

    Returns (core, v): v is the core vertex with the fewest core neighbors,
    lowest id on ties, or -1 for an empty core. It is picked in the last pass,
    which strips nothing and so reads the core's own degrees."""
    changed = True
    while changed:
        changed = False
        v, fewest = -1, mask.bit_count()
        for u in bits(mask):
            degree = (adj[u] & mask).bit_count()
            if degree < 2:
                mask &= ~(1 << u)
                changed = True
            elif degree < fewest:
                v, fewest = u, degree
    return mask, v
