"""Basis key literals: parsing, canonical emission, round trips, and where
malformed keys are refused."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grhopf import (
    MONOID_IDS,
    AcyclicOrientation,
    FlatM,
    Graph,
    InputError,
    LinearOrder,
    MatchingP,
    PartitionM,
    SetCompositionKey,
    UnitKey,
    get_monoid,
    make_element,
    parse_key,
)


def test_linear_order_literal():
    k = parse_key("order", "a<b<c")
    assert isinstance(k, LinearOrder) and k.seq == ("a", "b", "c")
    assert k.literal() == "a<b<c"
    assert parse_key("order", "()") == LinearOrder(())
    assert LinearOrder(()).literal() == "()"


def test_linear_order_rejects_duplicates():
    with pytest.raises(InputError):
        parse_key("order", "a<b<a")


@pytest.mark.parametrize(
    "kind, literal, message",
    [
        ("order", "a<b<a", "repeated label in order ('a', 'b', 'a')"),
        ("composition", "a,b|a", "label 'a' appears twice in composition"),
        ("orientation", "a>a", "loop arc at 'a'"),
        ("flat_m", "a-a", "loop at 'a'"),
        ("partition_m", "a,b/a", "label 'a' appears in two blocks"),
    ],
)
def test_parse_key_refuses_repeated_labels_and_loops(kind, literal, message):
    with pytest.raises(InputError) as exc:
        parse_key(kind, literal)
    assert str(exc.value) == message


# key constructors only canonicalize; a defective key built directly is
# refused where it enters an element
DIRECT_DEFECTS = {
    "order": ("L", lambda: LinearOrder(("a", "b", "a"))),
    "composition_repeat": ("Sigma", lambda: SetCompositionKey([("a",), ("a",)])),
    "composition_empty_block": ("Sigma", lambda: SetCompositionKey([("a", "b"), ()])),
    "orientation_loop": ("AO", lambda: AcyclicOrientation([("a", "a")])),
    "flat_loop": ("FL_M", lambda: FlatM([("a", "a")])),
    "partition": ("Pi_m", lambda: PartitionM([("a", "b"), ("a",)])),
    "partition_empty_block": ("Pi_m", lambda: PartitionM([("a", "b"), ()])),
}


@pytest.mark.parametrize("mid, build", DIRECT_DEFECTS.values(), ids=DIRECT_DEFECTS)
def test_make_element_refuses_directly_built_defects(mid, build):
    # the labels of each defect cover the vertex set of one graph exactly,
    # so only the key's own defect can refuse it there
    for g in (Graph(["a"]), Graph(["a", "b"], [("a", "b")])):
        with pytest.raises(InputError):
            make_element(mid, g, build())


def test_orientation_literal():
    k = parse_key("orientation", "b>a,b>c")
    assert isinstance(k, AcyclicOrientation)
    assert k.arcs == frozenset({("b", "a"), ("b", "c")})
    assert k.literal() == "b>a,b>c"
    assert parse_key("orientation", "()").arcs == frozenset()


def test_composition_literal():
    k = parse_key("composition", "b,a|c")
    assert isinstance(k, SetCompositionKey)
    assert k.blocks == (("a", "b"), ("c",))
    assert k.literal() == "a,b|c"
    assert parse_key("composition", "()").blocks == ()


def test_partition_literals():
    k = parse_key("partition_m", "c/b,a")
    assert isinstance(k, PartitionM)
    assert k.literal() == "a,b/c"
    # the payload is the canonical blocks, whatever order they came in
    assert k.blocks == (("a", "b"), ("c",))
    assert k == PartitionM([("c",), ("b", "a")])
    assert parse_key("partition_m", "()").blocks == ()
    kp = parse_key("partition_p", "a/b")
    assert kp.literal() == "a/b"
    assert kp != k  # different basis kinds never compare equal


def test_edge_set_literals_accept_both_edge_spellings():
    k1 = parse_key("flat_m", "ab,bc")
    k2 = parse_key("flat_m", "a-b,b-c")
    assert isinstance(k1, FlatM)
    assert k1 == k2
    assert k1.literal() == "a-b,b-c"
    long = parse_key("matching_p", "v1-v2")
    assert isinstance(long, MatchingP)
    assert long.edges == frozenset({("v1", "v2")})
    with pytest.raises(InputError):
        parse_key("flat_m", "abc")  # ambiguous without a dash
    with pytest.raises(InputError):
        parse_key("flat_m", "a-a")


def test_unit_literal():
    k = parse_key("unit", "unit")
    assert isinstance(k, UnitKey)
    assert k.literal() == "unit"
    assert parse_key("unit", "()") == k


def test_unknown_kind():
    with pytest.raises(InputError):
        parse_key("nonsense", "a<b")


def test_keys_hash_and_eq_by_kind_and_payload():
    a = parse_key("order", "a<b")
    b = parse_key("order", "a<b")
    assert a == b and hash(a) == hash(b)
    assert parse_key("flat_m", "ab") != parse_key("flat_p", "ab")
    assert parse_key("partition_m", "a,b") != parse_key("partition_p", "a,b")


# labels drawn from characters that no key literal uses as a separator
safe_labels = st.text(alphabet="abxyz019_.", min_size=1, max_size=3)


@st.composite
def labeled_graphs(draw, min_vertices=0):
    labels = draw(st.lists(safe_labels, min_size=min_vertices, max_size=4, unique=True))
    pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(labels, edges)


@settings(max_examples=40, deadline=None)
@given(labeled_graphs())
def test_every_key_kind_round_trips_through_its_literal(g):
    for mid in MONOID_IDS:
        spec = get_monoid(mid)
        for key in spec.basis(g):
            assert spec.parse_key(key.literal()) == key
