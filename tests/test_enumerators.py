"""Structure enumeration: counts against independent formulas, order tests."""

import math
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grhopf import (
    MONOID_IDS,
    AcyclicOrientation,
    FlatM,
    Graph,
    InputError,
    PartitionM,
    SetCompositionKey,
    acyclic_orientations,
    bell_number,
    chromatic_polynomial,
    chromatic_value,
    complete_graph,
    components_partition,
    corpus,
    discrete_graph,
    flats,
    get_monoid,
    fubini_number,
    is_flat,
    is_matching,
    linear_orders,
    matchings,
    ordered_bipartitions,
    set_compositions,
    stable_compositions,
)
from grhopf.enumerators import (
    _ordered_bipartitions,
    _ordered_tripartitions,
    _refinements,
    _refining_payloads,
)
from grhopf.graphs import _BIT, _labels_of, _mask_of
from grhopf.monoids import _flats_below, _p_in_m


def path3():
    return Graph("abc", [("a", "b"), ("b", "c")])


def comp(text):
    return SetCompositionKey(
        tuple(tuple(sorted(b.split(","))) for b in text.split("|"))
    )


def test_bell_and_fubini_numbers():
    assert [bell_number(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]
    assert [fubini_number(n) for n in range(6)] == [1, 1, 3, 13, 75, 541]


def test_ordered_bipartitions_count_and_disjointness():
    bips = ordered_bipartitions("abc")
    assert len(bips) == 8
    for s, t in bips:
        assert s | t == frozenset("abc") and not (s & t)
    assert len(set(bips)) == 8
    assert ordered_bipartitions([]) == [(frozenset(), frozenset())]
    # every call hands out its own list
    bips.clear()
    assert ordered_bipartitions("cba") == ordered_bipartitions("abc") != bips


def test_ordered_tripartitions_count():
    trips = _decoded(_ordered_tripartitions(_mask_of("abc")))
    assert len(trips) == 27
    for a, b, c in trips:
        assert a | b | c == frozenset("abc")
        assert not (a & b) and not (a & c) and not (b & c)


# declared as in the CLI transcripts: the bits run neither with nor against
# the sorted order x1, x10, x2, y
SPLIT_LABELS = ("y", "x2", "x10", "x1")
Graph(SPLIT_LABELS)


def _splits_by_labels(labels, parts):
    """Every assignment of labels to `parts` sides, as label sets, sorted by
    the sorted labels of each side."""
    out = []
    for assign in product(range(parts), repeat=len(labels)):
        out.append(tuple(frozenset(v for v, a in zip(labels, assign) if a == i)
                         for i in range(parts)))
    out.sort(key=lambda sides: [sorted(side) for side in sides])
    return out


def _decoded(splits):
    return [tuple(frozenset(_labels_of(m)) for m in sides) for sides in splits]


def test_mask_splits_follow_label_order_not_bit_order():
    assert sorted(SPLIT_LABELS, key=_BIT.get) != sorted(SPLIT_LABELS)
    for n in range(len(SPLIT_LABELS) + 1):
        for labels in combinations(SPLIT_LABELS, n):
            mask = _mask_of(labels)
            got = _decoded(_ordered_bipartitions(mask))
            assert got == _splits_by_labels(labels, 2) == ordered_bipartitions(labels)
            assert _decoded(_ordered_tripartitions(mask)) == _splits_by_labels(labels, 3)


@pytest.mark.parametrize(
    "enumerate_labels, where",
    [
        (set_compositions, "twice in composition"),
        (ordered_bipartitions, "twice in split"),
    ],
)
def test_label_enumerators_refuse_a_repeated_label(enumerate_labels, where):
    with pytest.raises(InputError, match=f"^label 'b' appears {where}$"):
        enumerate_labels("bab")


def test_linear_orders_count():
    assert len(linear_orders("abcd")) == math.factorial(4)
    assert len(linear_orders([])) == 1
    seqs = {o.seq for o in linear_orders("ab")}
    assert seqs == {("a", "b"), ("b", "a")}


def test_acyclic_orientations_counts():
    assert len(acyclic_orientations(complete_graph("abc"))) == 6
    assert len(acyclic_orientations(path3())) == 4
    assert len(acyclic_orientations(discrete_graph("abcd"))) == 1
    # 4-cycle: 2^4 - 2 cyclic = 14
    c4 = Graph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    assert len(acyclic_orientations(c4)) == 14
    # K7: one acyclic orientation per linear order
    assert len(acyclic_orientations(complete_graph("abcdefg"))) == math.factorial(7)


def test_acyclic_orientations_are_acyclic_and_cover():
    g = complete_graph("abc")
    for o in acyclic_orientations(g):
        assert len(o.arcs) == len(g.edges)
        # no directed 2- or 3-cycle possible if topological order exists
        tails = {u for u, _ in o.arcs}
        assert len(tails) <= g.n


def test_set_compositions_count_is_fubini():
    for n, labels in [(0, ""), (1, "a"), (2, "ab"), (3, "abc"), (4, "abcd")]:
        assert len(set_compositions(labels)) == fubini_number(n)


def test_set_partitions_count_is_bell():
    for n, labels in [(0, ""), (1, "a"), (2, "ab"), (3, "abc"), (4, "abcd"), (5, "abcde")]:
        for mid in ("Pi_m", "Pi_p"):
            assert len(get_monoid(mid).basis(discrete_graph(labels))) == bell_number(n)
    assert len(_refinements(PartitionM([("a", "b", "c")]).masks)) == bell_number(3)
    below = _refinements(PartitionM([("a", "b"), ("c",)]).masks)
    assert sorted(PartitionM._of(p).literal() for p in below) == ["a,b/c", "a/b/c"]


def test_partitions_refining_keeps_literal_order_against_bit_order():
    # declared last label first, so bit order runs against label order
    Graph(["rq4", "rq3", "rq2", "rq1"])
    assert _BIT["rq4"] < _BIT["rq3"] < _BIT["rq2"] < _BIT["rq1"]
    labels = ("rq1", "rq2", "rq3", "rq4")
    lattice = _refinements(PartitionM([labels]).masks)
    literals = [PartitionM._of(p).literal() for p in lattice]
    # the cached lattice is in enumeration order, which is not literal order
    assert literals != sorted(literals)
    # the basis lists the same partitions by literal
    basis = [k.literal() for k in get_monoid("Pi_m").basis(discrete_graph(labels))]
    assert basis == sorted(literals)
    assert len(basis) == bell_number(4)


def test_stable_structures_on_path():
    g = path3()
    # blocks must avoid edges ab, bc: {a,c} is the only nonsingleton block
    stable_partitions = get_monoid("SPi_m").basis
    assert len(stable_partitions(g)) == 2
    assert len(stable_compositions(g)) == 8
    assert len(stable_partitions(complete_graph("abc"))) == 1
    assert len(stable_compositions(complete_graph("abc"))) == 6
    assert len(stable_partitions(discrete_graph("abc"))) == bell_number(3)


def _refining_keys(coarse):
    return [SetCompositionKey._of(p) for p in _refining_payloads(coarse.masks)]


def test_compositions_refining_counts():
    # refinements of one k-block composition multiply per-block counts
    assert len(_refining_keys(comp("a,b,c"))) == fubini_number(3)
    assert len(_refining_keys(comp("a,b|c,d"))) == 9
    allc = _refining_keys(comp("a,b|c"))
    assert comp("b|a|c") in allc and comp("a|c|b") not in allc
    assert len(set(allc)) == len(allc)


def test_every_basis_and_enumerator_is_sorted_by_literal():
    # labels whose literal order differs from their tuple order: "v10<v1"
    # sorts before "v1<v10" ('0' < '<'), and "a+-b" before "a-b" ('+' < '-')
    graphs = (
        Graph(["v1", "v2", "v10"], [("v1", "v10"), ("v10", "v2")]),
        Graph(["a", "a+", "b"], [("a", "b"), ("a+", "b")]),
    )
    for g in graphs:
        listings = {mid: [k.literal() for k in get_monoid(mid).basis(g)] for mid in MONOID_IDS}
        listings.update(
            linear_orders=[k.literal() for k in linear_orders(g.vertices)],
            acyclic_orientations=[k.literal() for k in acyclic_orientations(g)],
            set_compositions=[k.literal() for k in set_compositions(g.vertices)],
            stable_compositions=[k.literal() for k in stable_compositions(g)],
            flats=[FlatM(es).literal() for es in flats(g)],
            matchings=[FlatM(es).literal() for es in matchings(g)],
        )
        for name, literals in listings.items():
            assert literals == sorted(literals), (g, name)
            assert len(set(literals)) == len(literals), (g, name)


def test_flats_and_matchings_on_small_graphs():
    k3 = complete_graph("abc")
    assert len(flats(k3)) == 5  # empty, three single edges, full triangle
    assert len(flats(path3())) == 4
    assert len(matchings(path3())) == 3  # empty, ab, bc
    k4 = complete_graph("abcd")
    assert len(flats(k4)) == bell_number(4)
    assert len(matchings(k4)) == 10  # empty + 6 single edges + 3 perfect
    k7 = complete_graph("abcdefg")
    assert len(flats(k7)) == bell_number(7) == 877
    # 1 + C(7,2) + C(7,4)*3 + C(7,6)*15 matchings of 0, 1, 2, 3 edges
    assert len(matchings(k7)) == 232


def test_is_flat_closure_condition():
    k3 = complete_graph("abc")
    ab = frozenset({("a", "b")})
    two = frozenset({("a", "b"), ("b", "c")})
    assert is_flat(k3, ab)
    # two edges of a triangle span all three vertices but omit the third edge
    assert not is_flat(k3, two)
    assert is_flat(k3, k3.edges)
    assert is_flat(path3(), two)


def test_is_matching():
    assert is_matching(frozenset())
    assert is_matching(frozenset({("a", "b"), ("c", "d")}))
    assert not is_matching(frozenset({("a", "b"), ("b", "c")}))


def test_orientation_count_equals_signed_chromatic_value():
    # independent counting routes for every 4-vertex graph
    names = "abcd"
    pairs = [(names[i], names[j]) for i in range(4) for j in range(i + 1, 4)]
    for mask in range(1 << 6):
        g = Graph(names, [p for i, p in enumerate(pairs) if (mask >> i) & 1])
        assert len(acyclic_orientations(g)) == (-1) ** g.n * chromatic_value(g, -1)


subsets = st.sets(st.sampled_from("abcd"), max_size=4)


@given(subsets)
def test_bipartitions_complete(labels):
    bips = ordered_bipartitions(labels)
    assert len(bips) == 2 ** len(labels)


@given(st.integers(min_value=0, max_value=63))
def test_stable_partitions_are_partitions_with_independent_blocks(mask):
    names = "abcd"
    pairs = [(names[i], names[j]) for i in range(4) for j in range(i + 1, 4)]
    g = Graph(names, [p for i, p in enumerate(pairs) if (mask >> i) & 1])
    stable = get_monoid("SPi_m").basis(g)
    assert set(stable) <= set(get_monoid("Pi_m").basis(g))
    for p in stable:
        for block in p.blocks:
            for i, u in enumerate(block):
                for v in block[i + 1 :]:
                    assert not g.has_edge(u, v)


@given(st.integers(min_value=0, max_value=63))
def test_flats_closed_under_component_closure(mask):
    names = "abcd"
    pairs = [(names[i], names[j]) for i in range(4) for j in range(i + 1, 4)]
    g = Graph(names, [p for i, p in enumerate(pairs) if (mask >> i) & 1])
    for f in flats(g):
        assert is_flat(g, f)
    for m in matchings(g):
        assert is_matching(m) and is_flat(g, m)


# registered against their sorted order, so the mask kernels meet labels
# whose bit order is the reverse of their literal order
ORACLE_LABELS = ("ov5", "ov4", "ov3", "ov2", "ov1")
Graph(ORACLE_LABELS)


def _partitions_by_labels(vs):
    """Every set partition of the labels vs, recursively: the first label
    joins a block of a partition of the rest, or starts its own."""
    if not vs:
        yield ()
        return
    first, rest = vs[0], vs[1:]
    for tail in _partitions_by_labels(rest):
        for i in range(len(tail)):
            yield tail[:i] + ((first,) + tail[i],) + tail[i + 1 :]
        yield ((first,),) + tail


def _canonical(blocks):
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def _by_literal(structures, sep):
    return sorted(structures, key=lambda blocks: sep.join(",".join(b) for b in blocks))


@st.composite
def oracle_graphs(draw):
    labels = draw(st.lists(st.sampled_from(ORACLE_LABELS), unique=True))
    pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(labels, edges)


@settings(max_examples=25, deadline=None)
@given(oracle_graphs())
def test_mask_kernels_agree_with_label_level_brute_force(g):
    assert [_BIT[v] for v in ORACLE_LABELS] == sorted(_BIT[v] for v in ORACLE_LABELS)

    def independent(block):
        return not any(g.has_edge(u, v) for i, u in enumerate(block) for v in block[i + 1 :])

    every = _by_literal(map(_canonical, _partitions_by_labels(g.vertices)), "/")
    assert [k.blocks for k in get_monoid("Pi_m").basis(g)] == every
    stable = [p for p in every if all(map(independent, p))]
    assert [k.blocks for k in get_monoid("SPi_m").basis(g)] == stable
    for coarse in every:
        per_block = [list(_partitions_by_labels(b)) for b in coarse]
        below = {_canonical(b for piece in choice for b in piece) for choice in product(*per_block)}
        lattice = [PartitionM._of(p).blocks for p in _refinements(PartitionM(coarse).masks)]
        assert _by_literal(lattice, "/") == _by_literal(below, "/"), coarse
    compositions = [c for p in every for c in permutations(p) if all(map(independent, c))]
    assert [k.blocks for k in stable_compositions(g)] == _by_literal(compositions, "|")

    # the edge-subset filters and the label-product loop the kernels replaced
    edges = sorted(g.edges)
    subsets = [
        frozenset(e for i, e in enumerate(edges) if m >> i & 1) for m in range(1 << len(edges))
    ]

    def closed(es):
        where = {v: i for i, b in enumerate(components_partition(g.vertices, es)) for v in b}
        return all(e in es for e in edges if where[e[0]] == where[e[1]])

    def edge_literal(es):
        return FlatM(es).literal()

    assert flats(g) == sorted(filter(closed, subsets), key=edge_literal)
    assert matchings(g) == sorted(filter(is_matching, subsets), key=edge_literal)
    # an orientation is acyclic when some order of the vertices agrees with it
    orders = [{v: i for i, v in enumerate(p)} for p in permutations(g.vertices)]
    acyclic = [
        AcyclicOrientation(arcs).literal()
        for arcs in product(*[((u, v), (v, u)) for u, v in edges])
        if any(all(pos[u] < pos[v] for u, v in arcs) for pos in orders)
    ]
    assert [k.literal() for k in acyclic_orientations(g)] == sorted(acyclic)
    triples = []
    for assign in product(range(3), repeat=g.n):
        parts = [[], [], []]
        for v, a in zip(g.vertices, assign):
            parts[a].append(v)
        triples.append(tuple(frozenset(p) for p in parts))
    triples.sort(key=lambda abc: tuple(sorted(p) for p in abc))
    assert _decoded(_ordered_tripartitions(g.mask)) == triples


# ---------------------------------------------------------------- identities

# Whitney 1932; Rota 1964; Stanley, Enumerative Combinatorics 1, ch. 3.  The
# chromatic polynomial comes from deletion-contraction, independent of every
# basis enumerator it is compared with.


def _falling(x, k):
    return math.prod(x - i for i in range(k))


def test_chromatic_polynomial_sums_over_the_stable_and_flat_bases():
    for g in corpus(5):
        spi, ssigma = get_monoid("SPi_m").basis(g), get_monoid("SSigma").basis(g)
        bond_lattice = [
            (dict(_p_in_m(_flats_below, f))[frozenset()], len(components_partition(g.vertices, f)))
            for f in flats(g)
        ]
        # n + 1 points fix a polynomial of degree n
        for x in range(g.n + 1):
            chi = sum(c * x**i for i, c in enumerate(chromatic_polynomial(g)))
            # a proper colouring is a stable partition with distinct block
            # colours, or a stable composition with increasing ones
            assert sum(_falling(x, len(k.masks)) for k in spi) == chi, (g, x)
            assert sum(math.comb(x, len(k.masks)) for k in ssigma) == chi, (g, x)
            # Whitney-Rota: mu(empty, F) x^c(F) over the flats F
            assert sum(mu * x**c for mu, c in bond_lattice) == chi, (g, x)


def test_matchings_count_by_deleting_an_edge_or_its_ends():
    for g in corpus(5):
        for e in g.edges:
            without_e = Graph(g.vertices, g.edges - {e})
            without_ends = g.induced(g.vertex_set - set(e))
            assert len(matchings(g)) == len(matchings(without_e)) + len(matchings(without_ends)), (g, e)
