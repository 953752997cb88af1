"""Exact simple-cycle search inside small vertex subsets, on raw adjacency bitmasks.

It serves only the exact oracle, which is bounded by its vertex limit; the move
engine takes every cycle it tests from its own move loop. Enumeration is
anchored at the given vertex and canonicalized by direction (second vertex
below last), so every simple cycle through it is produced exactly once.
"""
from __future__ import annotations

from typing import Iterator

from .graphs import bits


def iter_cycles_through(
    adj: tuple[int, ...], mask: int, v: int, lo: int, hi: int
) -> Iterator[tuple[int, ...]]:
    """Yield each simple cycle within ``mask`` that passes through ``v`` and whose
    length is in [lo, hi] once, as a vertex sequence starting at ``v``.

    Requires v in ``mask`` and 4 <= lo <= hi. The oracle meets this: v is the
    chosen vertex of a nonempty core, lo is a needed length (>= 4 in every
    mode), and hi = max needed + slack with slack >= 0; an empty core has
    negative slack and stops before the search."""
    vbit = 1 << v
    yield from _extend(adj, vbit, mask & ~vbit, lo, hi, v, [v])


def _extend(
    adj: tuple[int, ...], vbit: int, free: int, lo: int, hi: int, v: int, path: list[int]
) -> Iterator[tuple[int, ...]]:
    if len(path) >= lo and adj[v] & vbit and path[1] < v:
        yield tuple(path)
    if len(path) == hi or len(path) + free.bit_count() < lo:
        return
    for w in bits(adj[v] & free):
        path.append(w)
        yield from _extend(adj, vbit, free & ~(1 << w), lo, hi, w, path)
        path.pop()


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
