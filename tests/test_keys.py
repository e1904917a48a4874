"""Basis key literals: parsing, canonical emission, round trips, and where
malformed keys are refused."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grhopf import (
    MONOID_IDS,
    AcyclicOrientation,
    Element,
    FlatM,
    FlatP,
    Graph,
    InputError,
    LinearOrder,
    MatchingM,
    MatchingP,
    PartitionM,
    PartitionP,
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
        ("partition_m", "a,a", "label 'a' appears twice in one block"),
        ("flat_m", "a-b,c-d,a-b", "edge a-b appears twice in flat"),
        ("orientation", "a>b,a>b", "arc a>b appears twice in orientation"),
        ("matching_p", "a-b,b-a", "edge a-b appears twice in matching"),
    ],
)
def test_parse_key_refuses_repeated_labels_and_loops(kind, literal, message):
    with pytest.raises(InputError) as exc:
        parse_key(kind, literal)
    assert str(exc.value) == message


# defects that no key constructor can see: a key built directly with one is
# refused where it enters an element
DIRECT_DEFECTS = {
    "composition_empty_block": ("Sigma", lambda: SetCompositionKey([("a", "b"), ()])),
    "orientation_loop": ("AO", lambda: AcyclicOrientation([("a", "a")])),
    "flat_loop": ("FL_M", lambda: FlatM([("a", "a")])),
    "partition_empty_block": ("Pi_m", lambda: PartitionM([("a", "b"), ()])),
}

# a block repeating a label is refused by its constructor, so it never
# reaches make_element as the valid key a or a/b
BLOCK_REPEATS = {
    "composition_block_repeat": ("Sigma", lambda: SetCompositionKey([("a", "a")])),
    "partition_block_repeat": ("Pi_m", lambda: PartitionM([("a", "a"), ("b",)])),
}


@pytest.mark.parametrize(
    "mid, build",
    [*DIRECT_DEFECTS.values(), *BLOCK_REPEATS.values()],
    ids=[*DIRECT_DEFECTS, *BLOCK_REPEATS],
)
def test_make_element_refuses_directly_built_defects(mid, build):
    # the labels of each defect cover the vertex set of one graph exactly,
    # so only the key's own defect can refuse it there
    for g in (Graph(["a"]), Graph(["a", "b"], [("a", "b")])):
        with pytest.raises(InputError):
            make_element(mid, g, build())


# a mask cannot hold a label twice, so the label constructors refuse a
# repeat themselves, with parse_key's messages and the first repeat in the
# order given; the edge-set constructors refuse a repeated edge (counted
# after b-a becomes a-b) or arc the same way, so none collapses into a
# smaller key
CONSTRUCTOR_REFUSALS = {
    "order": (
        lambda: LinearOrder(("a", "b", "a")),
        "repeated label in order ('a', 'b', 'a')",
    ),
    "order_generator": (
        lambda: LinearOrder(v for v in ("a", "b", "a")),
        "repeated label in order ('a', 'b', 'a')",
    ),
    "composition_repeat": (
        lambda: SetCompositionKey([("a",), ("a",)]),
        "label 'a' appears twice in composition",
    ),
    "composition_block_repeat": (
        lambda: SetCompositionKey([("a", "a")]),
        "label 'a' appears twice in composition",
    ),
    "composition_first_repeat": (
        lambda: SetCompositionKey([("c", "d"), ("d", "c")]),
        "label 'd' appears twice in composition",
    ),
    "partition": (
        lambda: PartitionM([("a", "b"), ("a",)]),
        "label 'a' appears in two blocks",
    ),
    "partition_block_repeat": (
        lambda: PartitionP([("a", "a"), ("b",)]),
        "label 'a' appears twice in one block",
    ),
    "partition_repeat_across_then_inside": (
        lambda: PartitionM([("a",), ("b", "a", "a")]),
        "label 'a' appears in two blocks",
    ),
    "flat": (
        lambda: FlatM([("a", "b"), ("c", "d"), ("a", "b")]),
        "edge a-b appears twice in flat",
    ),
    "flat_reversed": (lambda: FlatP([("a", "b"), ("b", "a")]), "edge a-b appears twice in flat"),
    "matching_generator": (
        lambda: MatchingM(iter([("b", "a"), ("c", "d"), ("a", "b")])),
        "edge a-b appears twice in matching",
    ),
    "matching_first_repeat": (
        lambda: MatchingP([("c", "d"), ("b", "a"), ("d", "c"), ("a", "b")]),
        "edge c-d appears twice in matching",
    ),
    "orientation": (
        lambda: AcyclicOrientation([("a", "b"), ("b", "c"), ("a", "b")]),
        "arc a>b appears twice in orientation",
    ),
}


@pytest.mark.parametrize(
    "build, message", CONSTRUCTOR_REFUSALS.values(), ids=CONSTRUCTOR_REFUSALS
)
def test_key_constructors_refuse_repeated_labels(build, message):
    with pytest.raises(InputError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "mid, build, case, collapsed, message",
    [
        (
            "Sigma",
            BLOCK_REPEATS["composition_block_repeat"][1],
            "a,a repeats a label inside one block",
            "a",
            "label 'a' appears twice in composition",
        ),
        (
            "Pi_m",
            BLOCK_REPEATS["partition_block_repeat"][1],
            "a,a/b does not collapse into a/b",
            "a/b",
            "label 'a' appears twice in one block",
        ),
    ],
)
def test_a_block_repeating_a_label_keeps_its_label_level_refusal(
    mid, build, case, collapsed, message
):
    # the repeat is refused on labels, before a mask could drop it and
    # leave the valid key it would collapse into
    with pytest.raises(InputError) as exc:
        build()
    assert str(exc.value) == message, case
    assert get_monoid(mid).parse_key(collapsed).literal() == collapsed


def test_make_element_takes_the_term_forms_of_element():
    g = Graph(["a", "b"])
    ab = parse_key("order", "a<b")
    want = Element("L", g, {ab: 2})
    assert str(want) == "(2) a<b"
    for terms in ({ab: 2}, [(ab, 2)], ((k, c) for k, c in [(ab, 2)])):
        assert make_element("L", g, terms) == want
    # every key is checked, also where its terms cancel
    stray = parse_key("order", "a<c")
    for terms in ({stray: 0}, [(stray, 1), (stray, -1)]):
        with pytest.raises(InputError) as exc:
            make_element("L", g, terms)
        assert str(exc.value) == "a<c is not an order of ['a', 'b']"


def test_vertex_set_keys_pickle_by_labels():
    # the fresh interpreter meets other labels first, so its bits differ
    # from this process's; an unpickled key must still read as the key its
    # literal names there, and be that one object, as it is here
    keys = [
        LinearOrder(["pk_c", "pk_a", "pk_b"]),
        SetCompositionKey([("pk_b",), ("pk_c", "pk_a")]),
        PartitionM([("pk_c",), ("pk_b", "pk_a")]),
        PartitionP([("pk_a", "pk_c"), ("pk_b",)]),
        AcyclicOrientation([("pk_c", "pk_a"), ("pk_a", "pk_b")]),
        FlatM([("pk_c", "pk_a")]),
        FlatP([]),
        MatchingM([("pk_a", "pk_b")]),
        MatchingP([("pk_c", "pk_b")]),
        UnitKey(),
        Graph(["pk_c", "pk_a", "pk_b"], [("pk_a", "pk_c")]),
    ]
    assert all(a is b for a, b in zip(pickle.loads(pickle.dumps(keys)), keys))
    script = (
        "import pickle, sys\n"
        "from grhopf import Graph, parse_key\n"
        "Graph(['other_z', 'pk_b', 'other_y', 'pk_c'])\n"
        "for obj in pickle.loads(sys.stdin.buffer.read()):\n"
        "    if isinstance(obj, Graph):\n"
        "        same = obj is Graph(obj.vertices, obj.edges)\n"
        "        print(obj.to_text().replace(chr(10), ';'), same)\n"
        "        continue\n"
        "    print(obj.literal(), obj is parse_key(obj.kind, obj.literal()))\n"
    )
    src = str(Path(sys.modules["grhopf"].__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", script],
        input=pickle.dumps(keys),
        capture_output=True,
        env=env,
        check=True,
        timeout=60,
    ).stdout.decode().splitlines()
    assert out == [
        "pk_c<pk_a<pk_b True",
        "pk_b|pk_a,pk_c True",
        "pk_a,pk_b/pk_c True",
        "pk_a,pk_c/pk_b True",
        "pk_a>pk_b,pk_c>pk_a True",
        "pk_a-pk_c True",
        "() True",
        "pk_a-pk_b True",
        "pk_b-pk_c True",
        "unit True",
        "v pk_a;v pk_b;v pk_c;e pk_a pk_c; True",
    ]


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
    # one key per class and payload, however it is built
    assert a is b is LinearOrder(["a", "b"]) is LinearOrder._of(a.masks)
    assert SetCompositionKey([("b",), ("a",)]) is parse_key("composition", "b|a")
    assert PartitionM([("b",), ("a",)]) is parse_key("partition_m", "a/b")
    assert PartitionP._of(PartitionM([("a",)]).masks) is PartitionP([("a",)])
    assert AcyclicOrientation([("b", "a")]) is parse_key("orientation", "b>a")
    assert FlatM([("b", "a")]) is FlatM._of(frozenset({("a", "b")}))
    assert MatchingP([("a", "b")]) is parse_key("matching_p", "ab")
    assert UnitKey() is parse_key("unit", "()") is UnitKey._of(None)


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
