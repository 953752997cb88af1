import hashlib
import random
import sys

import pytest

from cyclepack import (
    BipartiteGraph,
    GraphError,
    ParseError,
    gen_complete,
    gen_random_mindeg,
    gen_sharpness,
    parse_graph,
    serialize_graph,
)
from cyclepack import graphs
from cyclepack.graphs import _add_matching_round, _parse_bulk, _parse_lines, graph_of_rows
from cyclepack.packer import mix_seed


class TestConstruction:
    def test_rejects_intra_side_edge(self):
        with pytest.raises(GraphError):
            BipartiteGraph(2, 2, [(0, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError):
            BipartiteGraph(2, 2, [(0, 2), (0, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            BipartiteGraph(2, 2, [(0, 7)])

    def test_rejects_negative_side(self):
        with pytest.raises(GraphError, match="nonnegative"):
            BipartiteGraph(-1, 2, [])

    def test_adjacency_symmetry(self):
        g = gen_complete(3)
        for u in range(g.num_vertices):
            for v in range(g.num_vertices):
                assert g.adjacency[u] >> v & 1 == g.adjacency[v] >> u & 1

    def test_degree_sums(self):
        g = gen_random_mindeg(5, 5, 2, seed=3)
        x_sum = sum(a.bit_count() for a in g.adjacency[: g.x_size])
        y_sum = sum(a.bit_count() for a in g.adjacency[g.x_size :])
        assert x_sum == y_sum == g.edge_count


class TestDegreeQueries:
    def test_complete_degree(self):
        g = gen_complete(3)
        assert all(g.adjacency[v].bit_count() == 3 for v in range(6))

    def test_empty_graph_degree(self):
        g = BipartiteGraph(2, 2, [])
        assert g.adjacency == (0, 0, 0, 0)

    def test_sharpness_special_vertex_degree(self):
        # u is adjacent to the k vertices of Y1 plus v
        g, _ = gen_sharpness(2)
        u = 2 * 2
        assert g.adjacency[u] == 1 << 5 | 1 << 6 | 1 << 9  # Y1 = {5,6}, v = 9

    def test_min_degree_complete(self):
        assert gen_complete(4).min_degree() == 4

    def test_min_degree_complete_minus_matching(self):
        m = 4
        edges = [(u, m + v) for u in range(m) for v in range(m) if u != v]
        assert BipartiteGraph(m, m, edges).min_degree() == 3

    def test_min_degree_sharpness(self):
        g, _ = gen_sharpness(2)
        assert g.min_degree() == 3

    def test_min_degree_empty_graph(self):
        with pytest.raises(GraphError):
            BipartiteGraph(0, 0, []).min_degree()


class TestParseSerialize:
    def test_parse_k22(self):
        text = "p bip 2 2 4\ne 0 2\ne 0 3\ne 1 2\ne 1 3\n"
        g = parse_graph(text)
        assert g == gen_complete(2)

    def test_parse_isolated_vertices(self):
        g = parse_graph("p bip 1 1 0\n")
        assert g.num_vertices == 2 and g.edge_count == 0

    def test_parse_intra_side_edge_fails_with_line(self):
        with pytest.raises(ParseError) as err:
            parse_graph("p bip 2 2 1\ne 0 1\n")
        assert err.value.line_no == 2

    def test_parse_duplicate_edge(self):
        with pytest.raises(ParseError):
            parse_graph("p bip 2 2 2\ne 0 2\ne 0 2\n")

    # every parse error names its line, or line 0 when no one line is at fault
    @pytest.mark.parametrize(
        "text, line_no",
        [
            ("p bip 2 2 2\ne 0 2\ne 0 2\n", 3),  # duplicate edge
            ("p bip 2 2 2\ne 0 2\nc reversed\ne 2 0\n", 4),  # Y id first
            ("p bip 2 2 2\ne 0 3\ne 1 4\n", 3),  # Y id past the last vertex
            ("p bip 1 1 0\np bip 1 1 0\n", 2),  # duplicate header
            ("p bip 1 1 1\ne 0\n", 2),  # malformed edge line
            ("p bip 1 1 1\ne 0 a\n", 2),  # non-integer vertex id
            (b"p bip 1 1 0\n\xff", 0),  # not ASCII
            ("e 0 1\np bip 1 1 1\n", 1),  # edge before header
            ("q bip 1 1 0\n", 1),  # unrecognized first line
            ("p bip 1 one 0\n", 1),  # non-integer header field
            ("p bip 1 1 -1\n", 1),  # negative count
            ("", 0),  # missing header
            ("c only a comment\n", 0),  # missing header
        ],
    )
    def test_parse_edge_error_reports_its_line(self, text, line_no):
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert err.value.line_no == line_no

    # int() also reads a plus sign, underscores and non-ASCII digits; a count or
    # id is an optional minus and ASCII digits, and a negative one keeps its error
    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("p bip 11 11 1\ne 1_0 11\n", "line 2: non-integer vertex id in 'e 1_0 11'", id="underscore-x-id"),
            pytest.param("p bip 2 2 1\ne 0 0_2\n", "line 2: non-integer vertex id in 'e 0 0_2'", id="underscore-y-id"),
            pytest.param("p bip 2 2 1\ne +0 2\n", "line 2: non-integer vertex id in 'e +0 2'", id="plus-id"),
            pytest.param("p bip 2 2 1\ne \u0660 \u0662\n", "line 2: non-integer vertex id in 'e \u0660 \u0662'",
                         id="arabic-indic-ids"),
            pytest.param("p bip 2 2 1\ne \uff10 2\n", "line 2: non-integer vertex id in 'e \uff10 2'", id="fullwidth-id"),
            pytest.param("p bip 1_1 11 0\n", "line 1: non-integer header field in 'p bip 1_1 11 0'",
                         id="underscore-count"),
            pytest.param("p bip 1 1 +1\ne 0 1\n", "line 1: non-integer header field in 'p bip 1 1 +1'", id="plus-count"),
            pytest.param("p bip 2 2 1\ne -1 2\n", "line 2: x-side id -1 out of range [0,2)", id="negative-x-id"),
            pytest.param("p bip 2 2 1\ne 0 -2\n", "line 2: edge (0,-2) out of range for 2+2 vertices", id="negative-y-id"),
            pytest.param("p bip 1 1 -1\n", "line 1: negative count in header", id="negative-count"),
        ],
    )
    def test_only_decimal_numbers_read(self, text, message):
        for parse in (parse_graph, _parse_lines):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert str(err.value) == message

    def test_parse_bad_header(self):
        with pytest.raises(ParseError):
            parse_graph("p graph 2 2 1\ne 0 2\n")

    def test_parse_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_graph("p bip 2 2 3\ne 0 2\n")

    def test_parse_comments_and_bytes(self):
        g = parse_graph(b"c hello\np bip 1 1 1\nc mid\ne 0 1\n")
        assert g.edge_count == 1

    def test_serialize_round_trip_k33(self):
        g = gen_complete(3)
        assert parse_graph(serialize_graph(g)) == g

    def test_serialize_empty(self):
        g = BipartiteGraph(1, 1, [])
        assert serialize_graph(g) == "p bip 1 1 0\n"

    def test_round_trip_random_graphs(self):
        rng = random.Random(12345)
        for _ in range(100):
            x = rng.randint(1, 6)
            y = rng.randint(1, 6)
            edges = [
                (u, x + v)
                for u in range(x)
                for v in range(y)
                if rng.random() < 0.4
            ]
            g = BipartiteGraph(x, y, edges)
            again = parse_graph(serialize_graph(g))
            assert again == g


def parse_outcome(parse, text):
    """What a parser makes of ``text``: the graph, or its error's message and line."""
    try:
        g = parse(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line_no)
    return ("graph", g.x_size, g.y_size, g.adjacency)


class TestBulkParse:
    # a canonical file is built in bulk; every other file takes the line pass
    @pytest.mark.parametrize(
        "text, bulk",
        [
            ("p bip 2 2 2\ne 0 2 e 1 3\n\n", False),  # two edges on one line, blank line after
            ("p bip 2 2 2\ne 0 2 e 1 3\n \t\n", False),  # the same, whitespace-only line after
            ("p bip 2 2 1\ne 0 2 e 0 2\n", False),  # a repeated edge on one line keeps the popcount
            ("p bip 2 2 2\r\ne 0 2\r\ne 1 3\r\n", True),  # CRLF line endings
            ("p bip 2 2 2\ne\t0\t2\ne  1  3  \n", True),  # tabs, repeated and trailing spaces
            (" p bip 2 2 2 \ne 0 2\ne 1 3\n", True),  # whitespace around the header
            ("p bip 2 2 2\ne 0 2\n e 1 3\n", False),  # leading blank on an edge line
            ("p bip 2 2 2\ne 0 2\nc note\ne 1 3\n", False),  # comment in the body
            ("c note\np bip 2 2 2\ne 0 2\ne 1 3\n", False),  # header after a comment
            ("p bip 2 2 0\ne 0 2\n", False),  # m = 0, then an edge line
            ("p bip 2 2 0\nc tail\n", False),  # m = 0, then a comment
            ("p bip 2 2 0\n", True),
            ("p bip 2 2 2\ne 0 2\ne 1 3", False),  # no newline after the last edge
            ("p bip 2 2 2\ne 0 2\ne 0 2\n", False),  # duplicate edge
            ("p bip 2 2 1\ne 0 2\ne 1 3\n", False),  # more edge lines than declared
            ("p bip 2 2 2\ne 2 0\ne 1 3\n", False),  # Y id first
            ("p bip 2 2 1\ne 0 2 3\n", False),  # a fourth token on the line
            ("p bip 2 2 1\nex 0 2\n", False),  # a line tag other than e
            ("p bip 2 2 1\ne -1 2\n", False),  # negative X id
            ("p bip 2 2 1\ne 2 3\n", False),  # X id on the Y side
            ("p bip 2 2 2\ne 0 1\ne 1 0\n", False),  # one edge inside X, both ways: popcount 2
            ("p bip 2 2 1\ne 0 4\n", False),  # Y id past the last vertex
            ("p bip 2 2 1\ne 0 2.0\n", False),  # non-integer id
            ("p bip 300 300 2\ne 0 599\ne 299 300\n", True),
            ("p bip 2 2 1\ne 00 2\n", False),  # a leading zero: the line pass reads it, the bulk pass does not
            ("p bip 2 2 1\ne +0 2\n", False),  # a sign and an underscore: neither pass reads them
            ("p bip 2 2 1\ne 0 0_2\n", False),
            ("p bip 0 3 0\n", True),  # empty sides
            ("p bip 3 0 0\n", True),
            ("p bip 2000 2000 1\ne 0 2000\n", False),  # sparse: the cell matrix would be 4 MB
            pytest.param(serialize_graph(gen_random_mindeg(150, 150, 101, 1)), True,
                         id="side-150 guaranteed-regime host"),  # a silent fall-back is caught here
        ],
    )
    def test_trap_agrees_with_line_pass(self, text, bulk):
        assert (_parse_bulk(text) is not None) == bulk
        assert parse_outcome(parse_graph, text) == parse_outcome(_parse_lines, text)

    @pytest.mark.parametrize("u, v", [("00", "2")])
    def test_noncanonical_ids_read_as_their_value(self, u, v):
        assert _parse_lines(f"p bip 2 2 1\ne {u} {v}\n") == BipartiteGraph(2, 2, [(0, 2)])

    def test_bytes_input_goes_through_bulk(self):
        text = "p bip 2 2 2\ne 0 2\ne 1 3\n"
        assert _parse_bulk(text) is not None
        assert parse_graph(text.encode("ascii")) == _parse_lines(text)

    def test_random_mutations_agree_with_line_pass(self):
        rng = random.Random(2024)
        alphabet = ["e", "c", " ", "\n", "\t", "\r", "-", *"0123456789", "\ne 0 2 e 1 3\n"]
        bulk_accepted = 0
        for trial in range(3000):
            x, y = rng.randint(0, 4), rng.randint(0, 4)
            edges = [(u, x + w) for u in range(x) for w in range(y) if rng.random() < 0.5]
            text = serialize_graph(BipartiteGraph(x, y, edges))
            for _ in range(rng.randint(0, 3)):
                at = rng.randint(0, len(text))
                if rng.random() < 0.5 and at < len(text):
                    text = text[:at] + text[at + 1 :]
                else:
                    text = text[:at] + rng.choice(alphabet) + text[at:]
            bulk_accepted += _parse_bulk(text) is not None
            assert parse_outcome(parse_graph, text) == parse_outcome(_parse_lines, text), (trial, text)
        assert 0 < bulk_accepted < 3000

    def test_round_trip_any_graph(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def graphs(draw):
            x, y = draw(st.integers(0, 300)), draw(st.integers(0, 300))
            if not (x and y):
                return BipartiteGraph(x, y, [])
            edge = st.tuples(st.integers(0, x - 1), st.integers(x, x + y - 1))
            return BipartiteGraph(x, y, draw(st.sets(edge, max_size=80)))

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(graphs())
        @hypothesis.example(BipartiteGraph(0, 0, []))
        @hypothesis.example(BipartiteGraph(200, 200, [(0, 200), (199, 399), (128, 300)]))
        def round_trip(g):
            text = serialize_graph(g)
            assert _parse_bulk(text) == g  # a serialized graph is canonical
            assert parse_graph(text) == g

        round_trip()


class TestGenerators:
    def test_complete_sizes(self):
        assert gen_complete(3).edge_count == 9
        assert gen_complete(3).min_degree() == 3
        assert gen_complete(1).edge_count == 1
        assert gen_complete(5).edge_count == 25

    def test_complete_equals_checked_construction(self):
        for m in range(1, 7):
            assert gen_complete(m) == BipartiteGraph(m, m, [(u, m + w) for u in range(m) for w in range(m)])

    def test_rows_agree_with_checked_construction(self):
        rng = random.Random(2024)
        shapes = [(1, 1), (1, 7), (7, 1), (3, 9), (9, 3), (12, 5), (64, 65)]
        for x, y in shapes:
            for rows in ([0] * x, [(1 << y) - 1] * x, [rng.getrandbits(y) for _ in range(x)]):
                edges = [(u, x + w) for u, row in enumerate(rows) for w in range(y) if row >> w & 1]
                assert graph_of_rows(x, y, rows) == BipartiteGraph(x, y, edges), (x, y, rows)

    def test_complete_zero_rejected(self):
        with pytest.raises(GraphError):
            gen_complete(0)

    def test_random_full_delta_forces_complete(self):
        assert gen_random_mindeg(6, 6, 6, seed=1) == gen_complete(6)

    def test_random_rejects_empty_sides(self):
        with pytest.raises(GraphError, match="nonempty"):
            gen_random_mindeg(0, 0, 0, 1)

    def test_random_zero_delta(self):
        g = gen_random_mindeg(4, 4, 0, seed=1)
        assert g.min_degree() >= 0

    def test_random_respects_delta(self):
        assert gen_random_mindeg(6, 6, 5, seed=42).min_degree() >= 5

    def test_random_seed_determinism(self):
        a = gen_random_mindeg(6, 6, 3, seed=7)
        b = gen_random_mindeg(6, 6, 3, seed=7)
        c = gen_random_mindeg(6, 6, 3, seed=8)
        assert a == b
        assert a != c

    def test_random_rejects_negative_seed(self):
        # random.Random seeds -3 as 3, so a negative seed would alias its absolute value
        with pytest.raises(GraphError, match="seed must be >= 0"):
            gen_random_mindeg(9, 9, 5, -3)

    def test_random_min_degree_property(self, monkeypatch):
        rng = random.Random(777)
        for trial in range(60):
            x = rng.randint(2, 7)
            y = rng.randint(2, 7)
            d = rng.randint(0, min(x, y))
            g = gen_random_mindeg(x, y, d, seed=trial, fill_p=rng.choice([0.1, 0.5, 0.9]))
            assert g.min_degree() >= d
            assert all((u < x) != (v < x) for u, v in g.edges())
        # with unequal sides the top-up alone is the base: it starts from no
        # edges, and at fill 0 nothing else adds any, so the floor is its own.
        # Its X pass gives each X vertex delta edges, and its Y pass must add
        # more whenever that leaves a Y vertex short
        y_pass = 0

        def counting_repair(present, x_size, y_size, delta, rng):
            nonlocal y_pass
            assert present == [0] * x_size
            repair(present, x_size, y_size, delta, rng)
            y_pass += sum(row.bit_count() - delta for row in present)

        repair = graphs._repair
        monkeypatch.setattr(graphs, "_repair", counting_repair)
        for trial in range(300):
            x, y = rng.sample(range(1, 17), 2)
            d = rng.randint(0, min(x, y))
            g = gen_random_mindeg(x, y, d, seed=trial, fill_p=0)
            assert g.min_degree() >= d, (x, y, d, trial)
        assert y_pass > 0

    def test_equal_sides_rounds_leave_nothing_to_repair(self):
        # Hall: with equal sides a round's allowed pairs form a regular bipartite
        # graph, so each round is a perfect matching of new edges and r rounds
        # give every vertex exactly r neighbours; their complement gives it
        # side - r, so either base the generator builds is regular and the
        # top-up would add nothing
        rng = random.Random(4040)
        for side in range(1, 41):
            for _ in range(3):
                rounds = rng.randint(0, side)
                present = [0] * side
                draws = random.Random(rng.getrandbits(32))
                for _ in range(rounds):
                    _add_matching_round(present, draws)
                complement = [~row & (1 << side) - 1 for row in present]
                for rows, degree in ((present, rounds), (complement, side - rounds)):
                    assert all(row.bit_count() == degree for row in rows), (side, rounds)
                    assert all(sum(row >> w & 1 for row in rows) == degree for w in range(side)), (side, rounds)

    def test_matching_round_permutation_is_shuffle(self):
        # on the empty base every proposal is allowed, so the round is its
        # permutation: it must be rng.shuffle's, drawn from the same stream
        # and leaving it in the same state
        for seed in range(40):
            for size in range(201):
                present, draws = [0] * size, random.Random(seed)
                _add_matching_round(present, draws)
                expected, reference = list(range(size)), random.Random(seed)
                reference.shuffle(expected)
                assert present == [1 << r for r in expected], (seed, size)
                assert draws.random() == reference.random(), (seed, size)

    def test_random_equal_sides_no_fill_is_regular(self):
        # delta rounds up to half the side, the complement of side - delta
        # rounds past it: floor and ceiling of side/2 at odd and even sides,
        # side/2 + 1, side - 1, and side itself (no rounds, a complete host)
        shapes = [(5, 2), (5, 3), (8, 4), (8, 5), (9, 4), (9, 5), (10, 6), (11, 6), (12, 11), (13, 12),
                  (12, 12), (13, 13)]
        for seed in range(40):
            for side, d in shapes:
                g = gen_random_mindeg(side, side, d, seed=seed, fill_p=0)
                assert all(a.bit_count() == d for a in g.adjacency), (side, d, seed)

    def test_random_needs_no_deep_recursion(self):
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth += 1
            frame = frame.f_back
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            g = gen_random_mindeg(100, 100, 67, seed=7)
        finally:
            sys.setrecursionlimit(old)
        assert g.min_degree() >= 67

    @pytest.mark.parametrize(
        "shape, digest",
        [
            ((30, 30, 20, 7, 0.0), "367c6641c2236da8e2ce25921875123e213513eddd897764d435d309f2da4f0c"),
            ((40, 40, 27, 3, 0.5), "cb4add6e0aaceebbaf676e0d0802056550964cdcc83e906749d0dccd1f48a0f9"),
            ((25, 40, 15, 11, 0.5), "b50f670e98fd8e309c27c03872784224472aff4b3e4eb4c9f960db5f76520333"),
            ((40, 17, 12, 5, 0.0), "0371bed09c0981260c4023999a5f2eedef46e7b67a4df4020f7f99d448c43738"),
            ((90, 90, 61, 1024, 0.5), "9bbf29769b4ca70fcd33b8ecb4ed2330f978473c7cedef2d758776bb285519e9"),
            ((40, 17, 14, 0, 0.0), "9754a6bd7275da2e355bf3b510a2d5714280cd87e3b8bab8aab2267ca9593241"),
        ],
    )
    def test_random_instances_pinned(self, shape, digest):
        # (x, y, delta, seed, fill_p): `gen random` and `trials` draw these exact hosts.
        # The three equal-sides shapes were re-recorded when a base past half
        # density became the complement of side - delta rounds; the unequal ones did not move
        text = serialize_graph(gen_random_mindeg(*shape))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_repair_tops_up_the_unequal_ci_host(self, monkeypatch):
        # the host CI's unequal-sides step draws: at fill 0 the top-up is the
        # whole base, called once on no edges; its X pass gives each of the 40
        # X vertices 14 neighbours, which leaves no Y vertex short of 14
        calls = []
        original = graphs._repair

        def counted(present, x_size, y_size, delta, rng):
            calls.append(list(present))
            original(present, x_size, y_size, delta, rng)

        monkeypatch.setattr(graphs, "_repair", counted)
        g = gen_random_mindeg(40, 17, 14, 0, 0.0)
        assert calls == [[0] * 40]
        assert [a.bit_count() for a in g.adjacency[:40]] == [14] * 40
        assert g.edge_count == 560 and g.min_degree() == 14

    def test_random_hosts_wide_pinned(self):
        # every shape at sides 1-12 (equal and unequal, every delta, five fills),
        # the first 25 trial hosts of each benchmark trials-desk config and the
        # benchmark trials-scale hosts, all at campaign seed 1024. One digest per
        # base: unequal sides (recorded before they lost their matching rounds),
        # equal sides at delta <= side/2 (delta rounds, recorded before a denser
        # base became a complement, and unmoved by it) and equal sides at
        # delta > side/2 (the complement of side - delta rounds)
        shapes = []
        for x in range(1, 13):
            for y in range(1, 13):
                for d in range(min(x, y) + 1):
                    for fill in (0, 0.05, 0.1, 0.5, 0.9):
                        shapes.append((x, y, d, len(shapes), fill))
        for side, d, fill in [(6, 5, 0.5), (9, 5, 0.5), (8, 2, 0.1), (9, 3, 0.05)]:
            shapes += [(side, side, d, mix_seed(1024, i), fill) for i in range(25)]
        shapes += [(s, s, 2 * s // 3 + 1, mix_seed(1024, 0), 0.5) for s in range(60, 91, 6)]
        sparse, dense, unequal = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
        for x, y, d, seed, fill in shapes:
            base = unequal if x != y else dense if 2 * d > x else sparse
            base.update(serialize_graph(gen_random_mindeg(x, y, d, seed, fill)).encode())
        assert len(shapes) == 4076
        assert sparse.hexdigest() == "2a2fcb23edb882f05751d92bfec7b3821082a8fa1da954b3c2482e18d77a1986"
        assert dense.hexdigest() == "6a192d0968bfd47d4628b8a0de4b6225980f946436ef418656b736448c3331eb"
        assert unequal.hexdigest() == "fdb6d044f1b544275b41c660b248b1a00a043f8322889d553dc9c2d4c3d60f21"

    @pytest.mark.parametrize(
        "k, digest",
        [
            (2, "4a5d1eaae04a4f7093ff44bc5eb6f52f87bee8e94d6570a3e22f5dbccb731b12"),
            (4, "6085d34d24fd539bd6510e2df402f4db982dbe2a17732b5875d8754bd3e476a3"),
            (8, "eabe26c22822450d18f4acd640441c2f0b967581454ce6bca50ade8171d43c1e"),
        ],
    )
    def test_sharpness_instances_pinned(self, k, digest):
        # `gen sharpness` and `sharpness` certify these exact hosts
        text = serialize_graph(gen_sharpness(k)[0])
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_random_infeasible_delta(self):
        with pytest.raises(GraphError):
            gen_random_mindeg(3, 5, 4, seed=0)

    def test_sharpness_k2(self):
        g, profile = gen_sharpness(2)
        assert g.num_vertices == 10
        assert g.min_degree() == 3
        assert sorted(profile.lengths) == [4, 6]
        assert profile.mode == "conjecture"

    def test_sharpness_k4(self):
        g, profile = gen_sharpness(4)
        assert g.num_vertices == 18
        assert g.min_degree() == 5
        assert sorted(profile.lengths) == [4, 4, 4, 6]

    def test_sharpness_vertex_budget(self):
        for k in (2, 4, 6):
            g, _ = gen_sharpness(k)
            assert g.num_vertices == 4 * k + 2
            assert g.min_degree() == k + 1

    def test_sharpness_rejects_odd_or_small(self):
        with pytest.raises(GraphError):
            gen_sharpness(3)
        with pytest.raises(GraphError):
            gen_sharpness(0)
