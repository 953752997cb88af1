"""Bipartite graphs with a fixed bipartition, plus file I/O and instance generators.

Vertices are dense integer ids: side X occupies 0..x_size-1 and side Y occupies
x_size..x_size+y_size-1, so side membership is a single comparison. Neighborhoods
are stored as integer bitmasks over the whole id range, which makes degree
counting inside a vertex subset a masked popcount.
"""
from __future__ import annotations

import random
from collections import deque
from itertools import repeat
from operator import add
from typing import Iterable, Iterator

from .profiles import make_profile


class GraphError(ValueError):
    """Invalid graph construction or query."""


class ParseError(GraphError):
    """Malformed graph file; carries the 1-based offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(ids: Iterable[int]) -> int:
    """Bitmask with the bit of each vertex id in ``ids`` set."""
    m = 0
    for v in ids:
        m |= 1 << v
    return m


class BipartiteGraph:
    """Immutable bipartite graph; all edges join side X to side Y."""

    __slots__ = ("x_size", "y_size", "adjacency")

    def __init__(self, x_size: int, y_size: int, edges: Iterable[tuple[int, int]]):
        if x_size < 0 or y_size < 0:
            raise GraphError("side sizes must be nonnegative")
        self.x_size = x_size
        self.y_size = y_size
        n = x_size + y_size
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for {x_size}+{y_size} vertices")
            if (u < x_size) == (v < x_size):
                raise GraphError(f"edge ({u},{v}) does not cross the bipartition")
            if adj[u] >> v & 1:
                raise GraphError(f"duplicate edge ({u},{v})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.adjacency = tuple(adj)

    # -- basic structure ---------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.x_size + self.y_size

    @property
    def full_mask(self) -> int:
        return (1 << self.num_vertices) - 1

    @property
    def x_mask(self) -> int:
        return (1 << self.x_size) - 1

    @property
    def y_mask(self) -> int:
        return self.full_mask ^ self.x_mask

    def min_degree(self) -> int:
        if self.num_vertices == 0:
            raise GraphError("minimum degree of an empty graph is undefined")
        return min(a.bit_count() for a in self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adjacency) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (x_id, y_id) in ascending lexicographic order."""
        for u in range(self.x_size):
            for v in bits(self.adjacency[u]):
                yield (u, v)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BipartiteGraph)
            and self.x_size == other.x_size
            and self.y_size == other.y_size
            and self.adjacency == other.adjacency
        )


def graph_of_rows(x_size: int, y_size: int, rows: Iterable[int]) -> BipartiteGraph:
    """The graph whose X vertex u is joined to Y vertex ``x_size + w`` for each
    set bit w of ``rows[u]``; for rows the program computed, so nothing is checked.
    Both sides must be nonempty and every row below ``2**y_size``."""
    return _from_cells(x_size, y_size, "".join(format(row, f"0{y_size}b")[::-1] for row in rows))


def _from_cells(x_size: int, y_size: int, cells: str | bytes | bytearray) -> BipartiteGraph:
    """The graph of a nonempty x_size × y_size 0/1 matrix given row-major as
    ASCII ``0``/``1``, cell (u, w) joining X vertex u to Y vertex ``x_size + w``.
    The one place adjacency is derived from rows: X rows are row slices, Y rows
    strided column slices. Nothing is re-checked."""
    x_rows = [int(cells[i : i + y_size][::-1], 2) << x_size for i in range(0, len(cells), y_size)]
    y_rows = [int(cells[w::y_size][::-1], 2) for w in range(y_size)]
    g = BipartiteGraph.__new__(BipartiteGraph)
    g.x_size, g.y_size, g.adjacency = x_size, y_size, tuple(x_rows + y_rows)
    return g


# -- file format -----------------------------------------------------------
#
#   p bip <x_size> <y_size> <edge_count>
#   c free-form comment
#   e <x_id> <y_id>
#
# ASCII, LF line separator. Edge ids are 0-based with Y ids offset by x_size.


def parse_graph(text: str | bytes) -> BipartiteGraph:
    """Parse the line-oriented graph format; raise :class:`ParseError` on bad input.

    A canonical file (the header on line 1, then exactly its ``m`` edge lines
    ``e u v``, each starting with ``e`` and ended by LF, ids in plain decimal;
    any whitespace separates tokens, so a CR before the LF, tabs and repeated
    or trailing spaces are allowed) is checked and built in bulk; any other
    file, and every malformed one, goes to the line pass, the only source of
    errors.
    No misaligned line passes the bulk checks. In a slice of L whole lines
    that all start with ``e``, each line's first token starts with ``e``, which
    no id decodes; with ``e`` exactly at every third token and ids between,
    every line starts on an ``e`` slot and holds a nonzero multiple of 3
    tokens, and 3L tokens over L lines leave exactly 3 per line. A token
    decodes only if it is the canonical decimal spelling of an in-range id on
    its side, so a decoded edge crosses the bipartition and lands in its own
    cell of an x_size × y_size byte matrix. A duplicate sets no new cell, so
    the matrix holds ``m`` set cells exactly when the ``m`` edges are distinct.
    The matrix takes x·y bytes, about 8/3 of the adjacency bits it builds
    when no X vertex is isolated, and is freed on return; a file whose matrix would be larger than both
    ``_BULK_CELLS_FLOOR`` and ``_BULK_CELLS_PER_BYTE`` times its body (a large,
    sparse host) takes the line pass instead.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ParseError(0, f"not ASCII: {exc}") from None
    return _parse_bulk(text) or _parse_lines(text)


def _decimal(token: str) -> int:
    """The value of an optional minus and ASCII digits; ``int`` alone would also
    read a plus sign, underscores and non-ASCII digits."""
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise ValueError(token)
    return int(token)


_BULK_CELLS_FLOOR = 1 << 20  # a 1 MiB matrix, side 1024, is always allowed
_BULK_CELLS_PER_BYTE = 8  # beyond it, the matrix may take 8 bytes per byte of edge lines


def _parse_bulk(text: str) -> BipartiteGraph | None:
    """The graph of a canonical file, or None for any other file."""
    head, _, body = text.partition("\n")
    fields = head.split()
    shape = (body.count("\n"), body.count("\ne"), body[:1], body[-1:])
    try:  # a missing or non-integer header field
        x_size, y_size, m = map(_decimal, fields[2:])
    except ValueError:
        return None
    canonical = (m, m - 1, "e", "\n") if m else (0, 0, "", "")  # m lines, each e ... LF
    if (fields[:2] != ["p", "bip"] or min(x_size, y_size) < 0 or shape != canonical
            or x_size * y_size > max(_BULK_CELLS_FLOOR, _BULK_CELLS_PER_BYTE * len(body))):
        return None
    if not x_size * y_size:  # a side is empty, so no edge line could decode
        return None if m else BipartiteGraph(x_size, y_size, ())
    x_cell = {str(u): u * y_size for u in range(x_size)}  # X id -> first cell of its matrix row
    y_cell = {str(x_size + w): w for w in range(y_size)}  # Y id -> its matrix column
    cells = bytearray(b"0" * (x_size * y_size))
    start = 0
    while start < len(body):  # about 16 kB of whole lines at a time keeps each token list small
        end = body.find("\n", start + 16384) + 1 or len(body)
        part = body[start:end]
        tokens, lines = part.split(), part.count("\n")
        if len(tokens) != 3 * lines or tokens[::3].count("e") != lines:
            return None
        try:
            at = map(add, map(x_cell.__getitem__, tokens[1::3]), map(y_cell.__getitem__, tokens[2::3]))
            deque(map(cells.__setitem__, at, repeat(49)), maxlen=0)  # 49 is ord("1")
        except KeyError:  # an id out of range, on the wrong side or not in canonical decimal
            return None
        start = end
    if cells.count(49) != m:  # a duplicate edge sets no new cell
        return None
    return _from_cells(x_size, y_size, cells)


def _parse_lines(text: str) -> BipartiteGraph:
    """Parse ``text`` line by line, raising at the first bad line."""
    lines = ((no, raw.strip()) for no, raw in enumerate(text.split("\n"), start=1))
    lines = ((no, line) for no, line in lines if line and not line.startswith("c"))
    for line_no, line in lines:
        fields = line.split()
        if fields[0] != "p":
            raise ParseError(line_no, "edge before header" if fields[0] == "e" else f"unrecognized line {line!r}")
        if len(fields) != 5 or fields[1] != "bip":
            raise ParseError(line_no, f"malformed header {line!r}")
        try:
            x_size, y_size, declared = map(_decimal, fields[2:])
        except ValueError:
            raise ParseError(line_no, f"non-integer header field in {line!r}") from None
        if x_size < 0 or y_size < 0 or declared < 0:
            raise ParseError(line_no, "negative count in header")
        break
    else:
        raise ParseError(0, "missing header")

    def edges():
        nonlocal line_no
        for line_no, line in lines:
            fields = line.split()
            if fields[0] != "e":
                raise ParseError(line_no, "duplicate header" if fields[0] == "p" else f"unrecognized line {line!r}")
            if len(fields) != 3:
                raise ParseError(line_no, f"malformed edge line {line!r}")
            try:
                u, v = _decimal(fields[1]), _decimal(fields[2])
            except ValueError:
                raise ParseError(line_no, f"non-integer vertex id in {line!r}") from None
            if not (0 <= u < x_size):
                raise ParseError(line_no, f"x-side id {u} out of range [0,{x_size})")
            yield u, v

    try:  # the graph checks each edge's range, sides and duplicates once, as it streams in
        g = BipartiteGraph(x_size, y_size, edges())
    except ParseError:
        raise
    except GraphError as exc:  # reported at the line of the edge it rejected
        raise ParseError(line_no, str(exc)) from None
    if g.edge_count != declared:  # no duplicate got in, so this counts the edge lines
        raise ParseError(0, f"header declares {declared} edges, found {g.edge_count}")
    return g


def serialize_graph(g: BipartiteGraph) -> str:
    """Inverse of :func:`parse_graph`; edges emitted in ascending (x, y) order."""
    lines = [f"p bip {g.x_size} {g.y_size} {g.edge_count}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# -- generators ------------------------------------------------------------

DEFAULT_FILL_P = 0.5  # fill probability of gen_random_mindeg, trials and `gen random`


def gen_complete(m: int) -> BipartiteGraph:
    """Complete bipartite graph K_{m,m}."""
    if m < 1:
        raise GraphError("gen_complete requires m >= 1")
    return graph_of_rows(m, m, [(1 << m) - 1] * m)


def gen_random_mindeg(
    x_size: int, y_size: int, delta: int, seed: int, fill_p: float = DEFAULT_FILL_P
) -> BipartiteGraph:
    """Seeded random bipartite graph with minimum degree at least ``delta``.

    The base depends on the host shape. With equal sides ``s`` it is built
    from rounds of random perfect matchings, each avoiding edges already
    present (see :func:`_add_matching_round`). When ``delta <= s/2`` it is
    ``delta`` rounds. When ``delta > s/2`` it is the complement in K_{s,s} of
    ``s - delta`` rounds, which are fewer. The rounds are disjoint perfect
    matchings, so r rounds give every vertex exactly r neighbours and their
    complement gives it s - r: either way the base is ``delta``-regular.
    With unequal sides it is :func:`_repair` alone on the empty graph: every
    vertex below ``delta`` gets random missing edges, X side first.
    Then every remaining non-edge is added independently with probability
    ``fill_p``, drawing one number per unset cell in row-major order.
    ``seed`` must be >= 0: ``random.Random`` seeds a negative int by its
    absolute value.
    """
    if x_size < 1 or y_size < 1:
        raise GraphError("sides must be nonempty")
    if delta < 0 or delta > min(x_size, y_size):
        raise GraphError(f"delta {delta} infeasible for sides {x_size}+{y_size}")
    if not 0 <= fill_p <= 1:
        raise GraphError(f"fill_p {fill_p} is not a probability in [0, 1]")
    if seed < 0:
        raise GraphError(f"seed must be >= 0, got {seed}")
    rng = random.Random(seed)
    present = [0] * x_size  # per-x bitmask of chosen y offsets
    y_full = (1 << y_size) - 1
    if x_size == y_size:
        dense = 2 * delta > x_size
        for _ in range(x_size - delta if dense else delta):
            _add_matching_round(present, rng)
        if dense:
            present = [~row & y_full for row in present]
    else:
        _repair(present, x_size, y_size, delta, rng)
    draw = rng.random
    for u, row in enumerate(present):
        unset = ~row & y_full
        while unset:  # one draw per unset cell, lowest first
            low = unset & -unset
            if draw() < fill_p:
                row |= low
            unset ^= low
        present[u] = row
    return graph_of_rows(x_size, y_size, present)


def _add_matching_round(present: list[int], rng) -> None:
    """Add one random perfect matching of K_{s,s} avoiding present edges, where
    s = ``len(present)`` and the base so far is regular.

    A random permutation proposes each X vertex's partner; vertices whose
    proposal is a present edge are rematched by :func:`augment` over bitmask
    rows of allowed partners. The allowed pairs form a regular bipartite
    graph, which by Hall's theorem has a perfect matching, so the round
    always completes and adds exactly one new neighbour to every vertex.
    Rounds from the empty base are therefore disjoint perfect matchings,
    whose complement :func:`gen_random_mindeg` takes when ``delta`` is
    past half the side.

    The permutation is ``rng.shuffle``'s Fisher-Yates from the top, inlined
    with the same ``getrandbits`` draws, so it and the stream left behind
    equal ``rng.shuffle(list(range(size)))``.
    """
    size = len(present)
    full = (1 << size) - 1
    allowed = [~row & full for row in present]
    match_l = list(range(size))
    getrandbits = rng.getrandbits
    for i in range(size - 1, 0, -1):
        bits = (i + 1).bit_length()
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        match_l[i], match_l[j] = match_l[j], match_l[i]
    match_r = [-1] * size
    free_r = full
    unmatched = []
    for l, r in enumerate(match_l):
        if allowed[l] >> r & 1:
            match_r[r] = l
            free_r ^= 1 << r
        else:
            match_l[l] = -1
            unmatched.append(l)
    for root in unmatched:
        free_r = augment(allowed, match_l, match_r, free_r, root)
    for l, r in enumerate(match_l):
        present[l] |= 1 << r


def augment(allowed, match_l: list[int], match_r: list[int], free_r: int, root: int) -> int:
    """Grow a matching along one breadth-first augmenting path from the
    unmatched left vertex ``root``; returns the updated free-right mask.

    ``allowed[u]`` is the bitmask of right vertices left vertex ``u`` may take,
    ``match_l``/``match_r`` hold partners (-1 if unmatched) and are updated in
    place, ``free_r`` marks unmatched right vertices. The path ends at the
    lowest-id free neighbour of the first queued vertex that has one; if none
    exists nothing changes. The queue holds each searched vertex's unseen
    candidates as one mask and takes their partners lowest bit first, so
    candidates behind the first free slot are never visited. Iterative, so
    path length is not bounded by the recursion limit.
    """
    parent = {}
    seen = 0
    queue = deque()  # (vertex, candidates whose partners are not yet searched)
    u = root
    while True:
        cands = allowed[u] & ~seen
        seen |= cands
        ends = cands & free_r
        if ends:
            r = (ends & -ends).bit_length() - 1
            free_r ^= 1 << r
            while True:  # flip the path back to the root
                match_r[r] = u
                match_l[u], r = r, match_l[u]
                if u == root:
                    return free_r
                u = parent[r]
        if cands:
            queue.append((u, cands))
        if not queue:
            return free_r
        owner, cands = queue[0]
        low = cands & -cands
        if cands == low:
            queue.popleft()
        else:
            queue[0] = (owner, cands ^ low)
        r = low.bit_length() - 1
        parent[r] = owner
        u = match_r[r]


def _repair(present: list[int], x_size: int, y_size: int, delta: int, rng) -> None:
    """Top up every vertex below ``delta`` with random missing edges, X side
    then Y side; on the empty graph, this is the whole unequal-sides base."""
    for u in range(x_size):
        short = delta - present[u].bit_count()
        if short > 0:
            missing = [w for w in range(y_size) if not present[u] >> w & 1]
            for w in rng.sample(missing, short):
                present[u] |= 1 << w
    for w in range(y_size):
        missing = [u for u in range(x_size) if not present[u] >> w & 1]
        short = delta - (x_size - len(missing))
        if short > 0:
            for u in rng.sample(missing, short):
                present[u] |= 1 << w


def gen_sharpness(k: int):
    """Tight example showing the degree bound cannot drop: 4k+2 vertices, delta = k+1.

    Sides are X1|X2|{u} and Y1|Y2|{v} with |X1|=|X2|=|Y1|=|Y2|=k. X1-Y1 and
    X2-Y2 are complete, u joins all of Y1 and v, v joins all of X2 and u, and
    X1 is matched to Y2 by the i-th-to-i-th perfect matching. Returns the graph
    paired with its target profile of k-1 four-cycles and one six-cycle.
    """
    if k < 2 or k % 2:
        raise GraphError("gen_sharpness requires an even k >= 2")
    y1, v = (1 << k) - 1, 1 << 2 * k  # Y offsets: Y1 = 0..k-1, Y2 = k..2k-1, v = 2k
    rows = [y1 | 1 << k + i for i in range(k)] + [y1 << k | v] * k + [y1 | v]  # X1, X2, u
    g = graph_of_rows(2 * k + 1, 2 * k + 1, rows)
    profile = make_profile([4] * (k - 1) + [6], mode="conjecture")
    return g, profile
