from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symrig.errors import BadPermutation, CapExceeded, InvalidGraph, LengthMismatch, SelfLoop, SymrigError
from symrig.graphs import (
    Graph,
    Permutation,
    automorphisms,
    bar_images,
    bar_vectors,
    coincidence_automorphisms,
    format_cycles,
    is_automorphism,
    iter_automorphisms,
    joint_matches,
    parse_cycles,
    short_bars,
)


def perms(n: int):
    return st.permutations(range(n)).map(lambda xs: Permutation(tuple(xs)))


class TestPermutation:
    def test_identity(self):
        e = Permutation.identity(4)
        assert e.is_identity()
        assert e.images == (0, 1, 2, 3)

    def test_not_bijection(self):
        with pytest.raises(BadPermutation):
            Permutation((0, 0, 1))

    def test_compose_order(self):
        # the product that applies b first, a(b(i)), read from the images, is again a permutation
        a = Permutation((1, 0, 2))
        b = Permutation((0, 2, 1))
        assert Permutation(tuple(a.images[j] for j in b.images)).images == (1, 2, 0)
        assert Permutation(tuple(b.images[j] for j in a.images)).images == (2, 0, 1)

    def test_inverse(self):
        # the inverse, read from the images by argsort, runs every cycle backwards and has the same order
        p = Permutation((2, 0, 3, 1))
        inverse = Permutation(tuple(np.argsort(p.images).tolist()))
        assert inverse.images == (1, 3, 0, 2)
        assert inverse.cycles() == [(0, 1, 3, 2)] and p.cycles() == [(0, 2, 3, 1)]
        assert inverse.order() == p.order() == 4

    def test_order(self):
        assert Permutation((1, 0, 3, 2)).order() == 2
        assert Permutation((1, 2, 0)).order() == 3
        assert Permutation((1, 2, 3, 0, 5, 4)).order() == 4
        assert Permutation.identity(5).order() == 1

    def test_cycles(self):
        p = Permutation((1, 0, 2, 4, 3))
        assert p.cycles() == [(0, 1), (3, 4)]
        assert p.cycles(include_fixed=True) == [(0, 1), (2,), (3, 4)]



class TestGraph:
    def test_make_rejects_self_loop(self):
        with pytest.raises(SelfLoop):
            Graph.make(3, [(0, 0)])

    def test_make_rejects_duplicate(self):
        with pytest.raises(ValueError):
            Graph.make(3, [(0, 1), (1, 0)])

    def test_make_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.make(3, [(0, 5)])

    def test_default_labels(self):
        g = Graph.make(3, [(0, 1)])
        assert g.labels == ("v1", "v2", "v3")

    def test_complete_bipartite(self):
        g = Graph.complete_bipartite(3, 3)
        assert g.n == 6
        assert g.edge_count == 9
        assert (0, 1) not in g.edges
        assert (0, 3) in g.edges

    def test_counts(self):
        k4 = Graph.complete(4)
        assert k4.edge_count == 6
        assert [len(a) for a in k4.adjacency()] == [3] * 4
        assert [len(a) for a in Graph.cycle(5).adjacency()] == [2] * 5

    def test_bars_sorted_once_and_read_only(self):
        g = Graph.make(4, [(3, 1), (0, 2), (1, 0)])
        assert g.bars.tolist() == [[0, 1], [0, 2], [1, 3]]
        assert not g.bars.flags.writeable
        assert Graph.make(2, []).bars.shape == (0, 2)
        same = Graph.make(4, [(1, 3), (0, 2), (0, 1)])
        assert g == same and hash(g) == hash(same)

    def test_bar_vectors_and_short_bars(self):
        g = Graph.make(3, [(0, 1), (1, 2), (0, 2)])
        p = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.05]])
        assert np.array_equal(bar_vectors(g, p), [[-1.0, 0.0], [-1.0, -0.05], [0.0, -0.05]])
        assert np.array_equal(bar_vectors(g, np.stack([p, 2 * p])), [bar_vectors(g, p), bar_vectors(g, 2 * p)])
        assert short_bars(g, p, 0.1).tolist() == [[1, 2]]
        assert short_bars(g, p, 0.01).shape == (0, 2)

    def test_index_of(self):
        g = Graph.make(2, [(0, 1)], labels=("a", "b"))
        assert g.index["b"] == 1
        with pytest.raises(BadPermutation):
            parse_cycles("(zz)", g.index)

    def test_label_index_is_built_once(self):
        g = Graph.make(3, [(0, 1)], labels=("a", "b", "c"))
        assert g.index == {"a": 0, "b": 1, "c": 2}
        assert g.index is g.index
        assert g == Graph.make(3, [(0, 1)], labels=("a", "b", "c"))
        # a Graph built directly may not repeat a label
        with pytest.raises(InvalidGraph):
            Graph(n=2, edges=frozenset(), labels=("x", "x"))

    @pytest.mark.parametrize("n,edges,labels", [
        (3, {(0, 1), (2, 1)}, ("a", "b", "c")),
        (3, {(1, 1)}, ("a", "b", "c")),
        (3, {(0, 3)}, ("a", "b", "c")),
        (3, {(-1, 2)}, ("a", "b", "c")),
        (3, set(), ("a", "b")),
        (0, set(), ()),
    ], ids=["reversed_bar", "self_loop", "out_of_range", "negative", "too_few_labels", "no_vertex"])
    def test_constructor_refuses_what_make_refuses(self, n, edges, labels):
        with pytest.raises(InvalidGraph, match="0 <= u < v < n"):
            Graph(n=n, edges=frozenset(edges), labels=labels)

    @pytest.mark.parametrize("text", ["(a b c)", "(c a)", "id", "(a)(b c)"])
    def test_parse_cycles_reads_the_graph_index(self, text):
        g = Graph.make(3, [(0, 1)], labels=("a", "b", "c"))
        assert parse_cycles(text, g.index) == parse_cycles(text, g.labels)
        with pytest.raises(BadPermutation, match="unknown vertex name 'zz'"):
            parse_cycles("(a zz)", g.index)


class TestAutomorphisms:
    def test_triangle(self):
        assert len(automorphisms(Graph.complete(3))) == 6

    def test_cycle4(self):
        assert len(automorphisms(Graph.cycle(4))) == 8

    def test_cycle9_dihedral(self):
        assert len(automorphisms(Graph.cycle(9))) == 18

    def test_k33(self):
        # part swaps times 3! x 3! part permutations
        assert len(automorphisms(Graph.complete_bipartite(3, 3))) == 72

    def test_path_graph(self):
        g = Graph.make(3, [(0, 1), (1, 2)])
        auts = automorphisms(g)
        assert len(auts) == 2
        assert Permutation((2, 1, 0)) in auts

    def test_sorted_lexicographically(self):
        auts = automorphisms(Graph.complete(3))
        assert auts == sorted(auts)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            automorphisms(Graph.cycle(13))

    def test_is_automorphism(self):
        g = Graph.cycle(4)
        assert is_automorphism(g, Permutation((1, 2, 3, 0)))
        assert not is_automorphism(g, Permutation((1, 0, 2, 3)))
        with pytest.raises(LengthMismatch):
            is_automorphism(g, Permutation((0, 1, 2)))

    def test_coincidence(self):
        # two triangles sharing a bar, both apexes at the origin
        g = Graph.make(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        p = np.array([[0.8, 0.35], [-0.8, -0.35], [0.0, 0.0], [0.0, 0.0]])
        found = coincidence_automorphisms(g, p)
        assert found == [Permutation.identity(4), Permutation((0, 1, 3, 2))]

    def test_coincidence_injective(self):
        g = Graph.complete(3)
        p = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert coincidence_automorphisms(g, p) == [Permutation.identity(3)]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_allowed_equals_filtering_the_full_list(self, data):
        n = data.draw(st.integers(1, 6))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        g = Graph.make(n, edges)
        entries = st.sampled_from([True, True, True, False])
        allowed = np.array(data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)))
        expected = [a for a in automorphisms(g) if all(allowed[v, a(v)] for v in range(n))]
        assert automorphisms(g, allowed=allowed) == expected

    def test_allowed_does_not_lift_the_cap(self):
        with pytest.raises(CapExceeded):
            automorphisms(Graph.cycle(13), allowed=np.eye(13, dtype=bool))


def loop_is_automorphism(graph, images):
    """The per-edge rule: every edge's image is an edge."""
    return all((min(images[u], images[v]), max(images[u], images[v])) in graph.edges for u, v in graph.edges)


class TestBatchedAutomorphismCheck:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_stack_matches_the_per_edge_loop(self, data):
        n = data.draw(st.integers(1, 9))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        g = Graph.make(n, edges)
        stack = data.draw(st.lists(st.permutations(range(n)), max_size=8))
        # the graph's own automorphisms too, so that both answers occur
        stack += [list(a.images) for a in islice(iter_automorphisms(g), 4)]
        images = np.array(stack, dtype=int).reshape(len(stack), n)
        expected = [loop_is_automorphism(g, row) for row in stack]
        assert is_automorphism(g, images).tolist() == expected
        for row, ok in zip(stack, expected):
            assert is_automorphism(g, Permutation(tuple(row))) is ok
            moved = bar_images(g, np.array(row))
            assert np.array_equal(moved >= 0, [(min(row[u], row[v]), max(row[u], row[v])) in g.edges
                                               for u, v in g.bars.tolist()])
            assert all(tuple(g.bars[k]) == tuple(sorted((row[u], row[v])))
                       for k, (u, v) in zip(moved, g.bars.tolist()) if k >= 0)

    def test_graph_without_bars(self):
        g = Graph.make(3, [])
        assert is_automorphism(g, np.array([[1, 2, 0], [0, 1, 2]])).tolist() == [True, True]
        assert is_automorphism(g, np.zeros((0, 3), dtype=int)).shape == (0,)

    def test_stack_of_the_wrong_width(self):
        with pytest.raises(LengthMismatch):
            is_automorphism(Graph.cycle(4), np.array([[0, 1, 2]]))

    def test_search_is_lazy(self):
        # 10 joints at one spot and no bars: 10! automorphisms, of which only three are formed
        g = Graph.make(10, [])
        search = iter_automorphisms(g, allowed=joint_matches(np.zeros((10, 2)), np.zeros((10, 2)), 1e-9))
        first = [next(search) for _ in range(3)]
        assert [p.images[7:] for p in first] == [(7, 8, 9), (7, 9, 8), (8, 7, 9)]
        assert all(p.images[:7] == tuple(range(7)) for p in first)

    def test_joint_matches_over_a_stack(self):
        p = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-12]])
        stacked = joint_matches(np.stack([p, p[::-1]]), p, 1e-9)
        assert np.array_equal(stacked[0], joint_matches(p, p, 1e-9))
        assert np.array_equal(stacked[1], joint_matches(p[::-1], p, 1e-9))


class TestCycleNotation:
    LABELS = ("v1", "v2", "v3", "v4")

    def test_format_identity(self):
        assert format_cycles(Permutation.identity(4), self.LABELS) == "id"

    def test_format_transposition(self):
        assert format_cycles(Permutation((1, 0, 2, 3)), self.LABELS) == "(v1 v2)"

    def test_format_include_fixed(self):
        text = format_cycles(Permutation((1, 0, 2, 3)), self.LABELS, include_fixed=True)
        assert text == "(v1 v2)(v3)(v4)"

    def test_parse_identity(self):
        assert parse_cycles("id", self.LABELS).is_identity()
        assert parse_cycles("()", self.LABELS).is_identity()

    def test_parse_product(self):
        p = parse_cycles("(v1 v2)(v3 v4)", self.LABELS)
        assert p.images == (1, 0, 3, 2)

    def test_parse_three_cycle(self):
        p = parse_cycles("(v1 v2 v3)", self.LABELS)
        assert p.images == (1, 2, 0, 3)

    def test_parse_singleton(self):
        p = parse_cycles("(v1 v2)(v3)", self.LABELS)
        assert p.images == (1, 0, 2, 3)

    def test_parse_rejects_unknown_name(self):
        with pytest.raises(BadPermutation):
            parse_cycles("(v1 zz)", self.LABELS)

    def test_parse_rejects_repeat(self):
        with pytest.raises(BadPermutation):
            parse_cycles("(v1 v2)(v2 v3)", self.LABELS)

    def test_parse_rejects_unbalanced(self):
        with pytest.raises(BadPermutation):
            parse_cycles("(v1 v2", self.LABELS)

    @settings(max_examples=60, deadline=None)
    @given(perms(6))
    def test_roundtrip(self, p):
        labels = tuple(f"n{i}" for i in range(6))
        assert parse_cycles(format_cycles(p, labels), labels) == p


# Labels that cycle notation can carry: no whitespace, parentheses or commas ("#" joins stems below).
LABEL = st.text(
    alphabet=st.characters(blacklist_categories=("Z", "C", "Cs"), blacklist_characters="(),#"),
    min_size=1, max_size=6,
)


@st.composite
def labeled_perms(draw):
    """A permutation of up to 200 vertices with random labels: random stems, then stem#k."""
    n = draw(st.integers(1, 200))
    stems = draw(st.lists(LABEL, min_size=1, max_size=12, unique=True))
    labels = tuple(stems[:n]) + tuple(f"{stems[i % len(stems)]}#{i}" for i in range(len(stems), n))
    images = draw(st.permutations(range(n)))
    return Permutation(tuple(images)), labels


class TestParseCycles:
    LABELS = ("v1", "v2", "v3", "v4")

    @settings(max_examples=150, deadline=None)
    @given(labeled_perms(), st.booleans())
    def test_round_trip_with_random_labels(self, case, include_fixed):
        p, labels = case
        assert parse_cycles(format_cycles(p, labels, include_fixed=include_fixed), labels) == p

    @pytest.mark.parametrize("text, message", [
        ("(v1 v2", "unbalanced parentheses in '(v1 v2'"),
        ("(v1 v2)(v3", "unbalanced parentheses in '(v1 v2)(v3'"),
        ("v1 (v2 v3)", "expected '(' in 'v1 (v2 v3)'"),
        ("(v1 v2) v3 ()", "expected '(' in '(v1 v2) v3 ()'"),
        (")(", "expected '(' in ')('"),
        ("(v1 zz)", "unknown vertex name 'zz' in '(v1 zz)'"),
        ("(v1(v2))", "unknown vertex name 'v1(v2' in '(v1(v2))'"),
        ("(v1 v2)(v2 v3)", "vertex 'v2' appears twice in '(v1 v2)(v2 v3)'"),
        ("(v1 v2 v1)", "vertex 'v1' appears twice in '(v1 v2 v1)'"),
        ("(v3)(v1 v3)", "vertex 'v3' appears twice in '(v3)(v1 v3)'"),
    ])
    def test_malformed_text_names_its_first_fault(self, text, message):
        with pytest.raises(BadPermutation) as caught:
            parse_cycles(text, self.LABELS)
        assert str(caught.value) == message

    def test_faults_are_reported_in_reading_order(self):
        # a repeat in the first cycle comes before an unknown name in the second, and both
        # before text that is not a cycle
        with pytest.raises(BadPermutation, match="vertex 'v1' appears twice"):
            parse_cycles("(v1 v1)(zz) x", self.LABELS)
        with pytest.raises(BadPermutation, match="unknown vertex name 'zz'"):
            parse_cycles("(v1 v2)(zz v1) x", self.LABELS)

    def test_commas_whitespace_and_empty_cycles(self):
        p = parse_cycles(" ( v1,v2 )\t()\n(v3 , v4) ", self.LABELS)
        assert p.images == (1, 0, 3, 2)


class TestGraphErrors:
    @pytest.mark.parametrize("args", [
        (0, []),
        (3, [(0, 1), (1, 0)]),
        (3, [(0, 5)]),
        (3, [(0, 1)], ("a", "a", "b")),
        (3, [(0, 1)], ("a", "b")),
    ], ids=["no vertices", "duplicate edge", "out of range", "repeated label", "short labels"])
    def test_bad_graph_is_a_symrig_error(self, args):
        with pytest.raises(InvalidGraph) as caught:
            Graph.make(*args)
        assert isinstance(caught.value, SymrigError) and isinstance(caught.value, ValueError)
