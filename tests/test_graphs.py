"""Labeled graphs: construction, text format, quotients, chromatic counts."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grhopf import (
    Graph,
    GraphParseError,
    InputError,
    chromatic_polynomial,
    chromatic_value,
    complete_graph,
    components_partition,
    discrete_graph,
    edge_pair,
    parse_key,
)
from grhopf.keys import FlatM

from .test_keys import labeled_graphs, safe_labels

# the running 7-vertex example: a triangle block, a 4-cycle-with-chord
# block, and three bridging edges
FUN_VERTICES = ("f", "u", "n", "m", "a", "t", "h")
FUN_EDGES = (
    ("f", "u"),
    ("f", "n"),
    ("u", "n"),
    ("m", "a"),
    ("a", "t"),
    ("t", "h"),
    ("m", "h"),
    ("a", "n"),
    ("m", "u"),
    ("a", "u"),
)


def fun_graph() -> Graph:
    return Graph(FUN_VERTICES, FUN_EDGES)


def path3() -> Graph:
    return Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])


def test_edge_pair_canonical():
    assert edge_pair("b", "a") == ("a", "b")
    with pytest.raises(InputError):
        edge_pair("a", "a")


def test_construction_validation():
    with pytest.raises(InputError):
        Graph(["a", "a"], [])
    with pytest.raises(InputError):
        Graph(["a"], [("a", "b")])
    with pytest.raises(InputError):
        Graph(["a", "b"], [("a", "a")])
    with pytest.raises(InputError):
        Graph([""], [])


def test_equality_ignores_vertex_listing_order():
    g1 = Graph(["b", "a"], [("a", "b")])
    g2 = Graph(["a", "b"], [("b", "a")])
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 is g2


def test_equal_subgraphs_of_different_graphs_are_one_object():
    path = Graph(["c", "b", "a"], [("a", "b"), ("b", "c")])
    triangle = complete_graph(["a", "b", "c"])
    edge = path.induced({"a", "b"})
    assert triangle.induced({"a", "b"}) is edge
    assert triangle._induced(edge.mask) is edge
    # a subgraph of a subgraph, and a graph built outright, are that object
    assert path.induced({"a", "b", "c"}) is path
    assert fun_graph().induced({"m", "a", "t", "h"}).induced({"a", "t"}) is Graph(
        ["t", "a"], [("a", "t")]
    )
    assert path.induced({"a", "c"}) is triangle.complement().induced({"a", "c"})


def test_basic_accessors():
    g = fun_graph()
    assert g.n == 7
    assert len(g.edges) == 10
    assert g.has_edge("u", "f") and not g.has_edge("f", "h")


def test_induced_subgraph():
    g = fun_graph()
    sub = g.induced({"f", "u", "n"})
    assert sub == complete_graph(["f", "n", "u"])
    sub2 = g.induced({"m", "a", "t", "h"})
    assert len(sub2.edges) == 4  # the 4-cycle m-a-t-h
    with pytest.raises(InputError):
        g.induced({"f", "z"})


def test_complement_involution_and_size():
    g = fun_graph()
    c = g.complement()
    assert len(c.edges) == 21 - 10
    assert c.complement() == g
    assert discrete_graph(["a", "b", "c"]).complement() == complete_graph(["a", "b", "c"])


def test_crossing_edges():
    g = fun_graph()
    assert g.crossing_edges({"f", "u", "n"}, {"m", "a", "t", "h"}) == 3
    assert g.crossing_edges({"f"}, {"h"}) == 0
    with pytest.raises(InputError):
        g.crossing_edges({"f"}, {"f", "u"})


def test_quotient_merges_blocks():
    g = path3()
    q = g.quotient([("a", "b"), ("c",)])
    assert q == Graph(["a", "c"], [("a", "c")])
    # parallel edges collapse; blocks come in any order and any iterable
    g2 = Graph(["a", "b", "c", "d"], [("a", "c"), ("b", "c"), ("a", "d")])
    q2 = g2.quotient(iter([{"d"}, ("b", "a"), ("c",)]))
    assert q2 == Graph(["a", "c", "d"], [("a", "c"), ("a", "d")])


@pytest.mark.parametrize(
    "blocks, message",
    [
        ([("a", "b")], "partition does not cover the vertex set"),
        ([("a", "b"), ("c", "z")], "partition does not cover the vertex set"),
        ([("a", "b"), (), ("c",)], "empty block"),
        ([("b", "c"), ("a", "b")], "label 'b' appears in two blocks"),
        ([("a",), ("b", "c"), ("a", "b", "c")], "label 'a' appears in two blocks"),
        ([("b", "a", "a"), ("c",)], "label 'a' appears twice in one block"),
        ([("a",), ("b", "a", "a", "c")], "label 'a' appears in two blocks"),
        # the first repeat in the order given, as the key constructors name
        # it, and before an empty block
        ([("b", "a"), ("b", "a")], "label 'b' appears in two blocks"),
        ([(), ("c", "a", "b", "b")], "label 'b' appears twice in one block"),
    ],
)
def test_quotient_refuses_blocks_that_do_not_partition(blocks, message):
    with pytest.raises(InputError) as exc:
        path3().quotient(blocks)
    assert str(exc.value) == message


def test_quotient_label_cannot_collide_with_a_vertex():
    # merging a and b must not produce a second vertex named "ab"
    g = Graph(["a", "b", "ab"], [("a", "b"), ("b", "ab")])
    q = g.quotient([("a", "b"), ("ab",)])
    assert q == Graph(["a", "ab"], [("a", "ab")])
    assert chromatic_polynomial(g) == (0, 1, -2, 1)


def test_text_round_trip():
    g = fun_graph()
    again = Graph.from_text(g.to_text())
    assert again == g
    assert Graph.from_text("") == Graph([], [])


def test_from_text_comments_and_blanks():
    text = "# a path\nv a\n\nv b # second vertex\nv c\ne a b\ne b c\n"
    assert Graph.from_text(text) == path3()


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("v a\nv a\n", "duplicate vertex"),
        ("v a\ne a b\n", "undeclared"),
        ("v a\ne a a\n", "loop"),
        ("v a\nv b\ne a b\ne b a\n", "duplicate edge"),
        ("x a\n", "unknown"),
        ("v a\ne a\n", "expected"),
    ],
)
def test_parse_errors_carry_position(text, fragment):
    with pytest.raises(GraphParseError) as exc:
        Graph.from_text(text)
    msg = str(exc.value)
    assert fragment in msg
    assert "line" in msg and "column" in msg


def test_label_that_breaks_a_flat_literal_is_rejected():
    # a vertex a-b makes the flat {a-b, c} print as a-b-c, which parses back
    # as the edge (a, b-c): a different key
    flat = FlatM([("a-b", "c")])
    assert parse_key("flat_m", flat.literal()) != flat
    with pytest.raises(InputError, match="reserved character '-'"):
        Graph(["a-b", "c"], [("a-b", "c")])


@pytest.mark.parametrize("ch", "<>,|/-()#")
def test_reserved_label_characters_are_rejected(ch):
    with pytest.raises(InputError) as exc:
        Graph([f"a{ch}b"])
    assert f"reserved character {ch!r}" in str(exc.value)


def test_reserved_label_character_parse_error_has_its_position():
    with pytest.raises(GraphParseError) as exc:
        Graph.from_text("v a\n  v b|c\n")
    assert (exc.value.line, exc.value.column) == (2, 6)
    assert "reserved character '|'" in str(exc.value)


def test_components_partition():
    # canonical blocks: sorted labels in each block, blocks sorted
    g = fun_graph()
    assert components_partition(g.vertices, g.edges) == (tuple(sorted(FUN_VERTICES)),)
    assert components_partition("cba", [("c", "b")]) == (("a",), ("b", "c"))
    assert components_partition("dcba", [("d", "a")]) == (("a", "d"), ("b",), ("c",))
    assert components_partition([], []) == ()


def test_chromatic_hand_values():
    k3 = complete_graph("abc")
    # x(x-1)(x-2) = x^3 - 3x^2 + 2x
    assert chromatic_polynomial(k3) == (0, 2, -3, 1)
    assert chromatic_value(k3, 3) == 6
    assert chromatic_value(k3, -1) == -6
    p3 = path3()
    # x(x-1)^2 = x^3 - 2x^2 + x
    assert chromatic_polynomial(p3) == (0, 1, -2, 1)
    assert chromatic_value(p3, -1) == -4
    assert chromatic_value(discrete_graph("ab"), -1) == 1
    assert chromatic_value(Graph([], []), -1) == 1


small_graphs = st.integers(min_value=0, max_value=31).map(
    lambda mask: Graph(
        "abcd",
        [
            p
            for i, p in enumerate(
                [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
            )
            if (mask >> i) & 1
        ],
    )
)


@given(small_graphs)
def test_complement_involution_property(g):
    assert g.complement().complement() == g


@given(small_graphs)
def test_induced_edge_count_plus_crossing(g):
    s, t = frozenset("ab"), frozenset("cd")
    total = len(g.induced(s).edges) + len(g.induced(t).edges) + g.crossing_edges(s, t)
    assert total == len(g.edges)


@given(small_graphs)
def test_chromatic_at_positive_ints_counts_colorings(g):
    # brute-force proper colorings with 3 colors
    from itertools import product as iproduct

    count = 0
    for assignment in iproduct(range(3), repeat=g.n):
        color = dict(zip(g.vertices, assignment))
        if all(color[u] != color[v] for u, v in g.edges):
            count += 1
    assert chromatic_value(g, 3) == count


@given(labeled_graphs(), st.data())
def test_chromatic_polynomial_is_invariant_under_relabeling(g, data):
    new = data.draw(st.lists(safe_labels, min_size=g.n, max_size=g.n, unique=True))
    name = dict(zip(g.vertices, new))
    h = Graph(new, [(name[u], name[v]) for u, v in g.edges])
    assert chromatic_polynomial(h) == chromatic_polynomial(g)
