"""Monoid structure maps: braiding weights, products, coproducts, bases."""

import math
from itertools import combinations, permutations
from itertools import product as product_of
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grhopf import (
    EMPTY_GRAPH,
    MONOID_IDS,
    MONOIDS,
    Element,
    Graph,
    InputError,
    LinearOrder,
    Q,
    QTPolynomial,
    T,
    TensorElement,
    antipode_element,
    apply_path,
    basis_change,
    bell_number,
    braiding_coeff,
    complete_graph,
    coproduct_component,
    corpus,
    counit_value,
    discrete_graph,
    fubini_number,
    get_monoid,
    make_element,
    morphism_apply,
    ordered_bipartitions,
    product,
    unit_element,
)
from grhopf.enumerators import _ordered_bipartitions
from grhopf.graphs import _BIT, _mask_of
from grhopf.keys import (
    AcyclicOrientation,
    PartitionM,
    PartitionP,
    SetCompositionKey,
    UnitKey,
)
from grhopf.monoids import _basis_cached, _crossing_exponents, _split_blocks

from .test_graphs import fun_graph


def p3():
    return Graph("abc", [("a", "b"), ("b", "c")])


def key(mid, text):
    return get_monoid(mid).parse_key(text)


def one_term(mid, g, text, coeff=1):
    return make_element(mid, g, key(mid, text), coeff)


def test_catalog_ids_and_flags():
    assert MONOID_IDS == (
        "L",
        "AO",
        "Sigma",
        "SSigma",
        "Pi_m",
        "Pi_p",
        "SPi_m",
        "SPi_p",
        "FL_M",
        "FL_P",
        "Match_M",
        "Match_P",
        "E",
    )
    flags = {mid: (MONOIDS[mid].uses_q, MONOIDS[mid].uses_t) for mid in MONOID_IDS}
    assert flags["L"] == (True, True)
    assert flags["Sigma"] == (True, True)
    assert flags["SSigma"] == (True, True)
    assert flags["AO"] == (True, False)
    for mid in ("Pi_m", "Pi_p", "SPi_m", "SPi_p", "FL_M", "FL_P", "Match_M", "Match_P", "E"):
        assert flags[mid] == (False, False)


def test_every_basis_key_passes_validation():
    # the antipode check and the structure-map checks enumerate keys and
    # ask the maps without validating them again
    for g in corpus(4):
        for mid in MONOID_IDS:
            spec = get_monoid(mid)
            for k in _basis_cached(mid, g):
                spec.validate_key(g, k)


def _candidate_keys(key_cls, g):
    """Every key of key_cls's kind on g's labels, built without any
    enumerator: orders from permutations, orientations from all 2^|E|
    choices of arc direction, block keys from every map of the vertices to
    block indices, edge-set keys from every edge subset."""
    vs, edges = g.vertices, sorted(g.edges)
    if key_cls is LinearOrder:
        return [LinearOrder(p) for p in permutations(vs)]
    if key_cls is AcyclicOrientation:
        return [
            AcyclicOrientation((v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips))
            for flips in product_of(range(2), repeat=len(edges))
        ]
    if key_cls in (SetCompositionKey, PartitionM, PartitionP):
        keys = []
        for index in product_of(range(len(vs)), repeat=len(vs)):
            blocks = ([v for v, i in zip(vs, index) if i == j] for j in range(len(vs)))
            keys.append(key_cls([b for b in blocks if b]))
        return keys
    if key_cls is UnitKey:
        return [UnitKey()]
    return [key_cls(es) for r in range(len(edges) + 1) for es in combinations(edges, r)]


def test_every_valid_key_is_enumerated():
    # the converse of test_every_basis_key_passes_validation: a basis that
    # dropped a key would still pass every suite
    for g in corpus(4):
        for mid in MONOID_IDS:
            spec = get_monoid(mid)
            valid = set()
            for k in _candidate_keys(spec.key_cls, g):
                try:
                    spec.validate_key(g, k)
                except InputError:
                    continue
                valid.add(k)
            basis = spec.basis(g)
            assert len(set(basis)) == len(basis), (mid, g)
            assert set(basis) == valid, (mid, g)


def test_braiding_weight_counts_crossing_edges_and_nonedges():
    g = p3()
    assert braiding_coeff(g, {"a"}, {"b", "c"}) == Q * T
    assert braiding_coeff(g, {"b"}, {"a", "c"}) == Q * Q
    assert braiding_coeff(g, {"a", "c"}, {"b"}) == Q * Q
    assert braiding_coeff(complete_graph("abc"), {"a"}, {"b", "c"}) == Q * Q
    assert braiding_coeff(discrete_graph("abc"), {"a"}, {"b", "c"}) == T * T
    assert braiding_coeff(g, set(), {"a", "b", "c"}) == 1


def test_monoid_braiding_drops_unused_parameters():
    g = p3()
    s, t = _mask_of("a"), _mask_of("bc")
    # exponent pairs (qe, te): L keeps q * t, AO only q, the rest 1
    assert get_monoid("L").braiding(g, s, t) == (1, 1)
    assert get_monoid("AO").braiding(g, s, t) == (1, 0)
    assert get_monoid("Pi_m").braiding(g, s, t) == (0, 0)
    assert get_monoid("E").braiding(g, s, t) == (0, 0)


def test_basis_sizes_small():
    g = p3()
    sizes = {mid: len(get_monoid(mid).basis(g)) for mid in MONOID_IDS}
    assert sizes == {
        "L": 6,
        "AO": 4,
        "Sigma": 13,
        "SSigma": 8,
        "Pi_m": 5,
        "Pi_p": 5,
        "SPi_m": 2,
        "SPi_p": 2,
        "FL_M": 4,
        "FL_P": 4,
        "Match_M": 3,
        "Match_P": 3,
        "E": 1,
    }
    k4 = complete_graph("wxyz")
    assert len(get_monoid("L").basis(k4)) == math.factorial(4)
    assert len(get_monoid("AO").basis(k4)) == math.factorial(4)
    assert len(get_monoid("Sigma").basis(k4)) == fubini_number(4)
    assert len(get_monoid("SSigma").basis(k4)) == math.factorial(4)
    assert len(get_monoid("FL_M").basis(k4)) == bell_number(4)
    assert len(get_monoid("SPi_m").basis(k4)) == 1


def test_order_product_concatenates():
    g = p3()
    x = one_term("L", g.induced({"a"}), "a")
    y = one_term("L", g.induced({"b", "c"}), "c<b")
    res = product("L", g, {"a"}, {"b", "c"}, x, y)
    assert res == one_term("L", g, "a<c<b")


def test_order_coproduct_counts_crossing_inversions():
    g = p3()
    x = one_term("L", g, "a<b<c")
    # S={b}: edge ab crosses and a precedes b, so one q-inversion; the
    # complement pair ac stays inside T
    res = coproduct_component("L", g, {"b"}, {"a", "c"}, x)
    want = TensorElement(
        "L",
        g.induced({"b"}),
        g.induced({"a", "c"}),
        [((key("L", "b"), key("L", "a<c")), Q)],
    )
    assert res == want
    # leading-prefix split never creates inversions
    res2 = coproduct_component("L", g, {"a"}, {"b", "c"}, x)
    assert res2.terms == {(key("L", "a"), key("L", "b<c")): QTPolynomial.one()}
    # K2 complement pair: splitting b|a on a<b costs one t on the empty graph
    d2 = discrete_graph("ab")
    res3 = coproduct_component("L", d2, {"b"}, {"a"}, one_term("L", d2, "a<b"))
    assert list(res3.terms.values()) == [T]


def test_orientation_product_adds_left_to_right_arcs():
    g = fun_graph()
    s = {"f", "u", "n"}
    t = {"m", "a", "t", "h"}
    x = one_term("AO", g.induced(s), "f>u,f>n,u>n")
    y = one_term("AO", g.induced(t), "m>a,a>t,t>h,m>h")
    res = product("AO", g, s, t, x, y)
    assert res == one_term("AO", g, "f>u,f>n,u>n,m>a,a>t,t>h,m>h,n>a,u>m,u>a")


def test_orientation_coproduct_figure_value():
    # the coproduct figure's orientation: crossing arcs a->n, m->u, u->a;
    # two of them point from the right side into the left, hence q^2
    g = fun_graph()
    o = one_term("AO", g, "f>u,f>n,u>n,m>a,a>t,t>h,m>h,a>n,m>u,u>a")
    s = {"f", "u", "n"}
    t = {"m", "a", "t", "h"}
    res = coproduct_component("AO", g, s, t, o)
    want = TensorElement(
        "AO",
        g.induced(s),
        g.induced(t),
        [((key("AO", "f>u,f>n,u>n"), key("AO", "m>a,a>t,t>h,m>h")), Q * Q)],
    )
    assert res == want
    # the antipode figure's variant reverses u>a, giving a third inward arc
    o2 = one_term("AO", g, "f>u,f>n,u>n,m>a,a>t,t>h,m>h,a>n,m>u,a>u")
    res2 = coproduct_component("AO", g, s, t, o2)
    assert list(res2.terms.values()) == [Q * Q * Q]


def test_composition_product_concatenates_blocks():
    g = p3()
    x = one_term("Sigma", g.induced({"b"}), "b")
    y = one_term("Sigma", g.induced({"a", "c"}), "a,c")
    res = product("Sigma", g, {"b"}, {"a", "c"}, x, y)
    assert res == one_term("Sigma", g, "b|a,c")


def test_composition_coproduct_counts_block_inversions():
    k2 = complete_graph("ab")
    x = one_term("Sigma", k2, "a|b")
    # b sits in a later block than a across the edge ab
    res = coproduct_component("Sigma", k2, {"b"}, {"a"}, x)
    assert list(res.terms.values()) == [Q]
    res2 = coproduct_component("Sigma", k2, {"a"}, {"b"}, x)
    assert list(res2.terms.values()) == [QTPolynomial.one()]
    # single block: no strictly-later pairs in either direction
    y = one_term("Sigma", k2, "a,b")
    res3 = coproduct_component("Sigma", k2, {"b"}, {"a"}, y)
    assert list(res3.terms.values()) == [QTPolynomial.one()]
    # non-edge pair costs t instead of q
    d2 = discrete_graph("ab")
    res4 = coproduct_component("Sigma", d2, {"b"}, {"a"}, one_term("Sigma", d2, "a|b"))
    assert list(res4.terms.values()) == [T]


def test_exponent_helpers_count_by_their_definitions():
    # brute force over vertex pairs, every split and every composition of
    # the fun graph's first five vertices
    g = fun_graph().induced({"f", "u", "n", "m", "a"})
    for k in get_monoid("Sigma").basis(g):
        rank = {v: i for i, b in enumerate(k.blocks) for v in b}
        crossing = [(u, v) for u in g.vertices for v in g.vertices
                    if u < v and rank[u] != rank[v]]
        qe = sum(1 for u, v in crossing if g.has_edge(u, v))
        assert _crossing_exponents(rank, g.edges) == (qe, len(crossing) - qe)
        for s, t in ordered_bipartitions(g.vertices):
            inverted = [(u, v) for u in s for v in t if rank[u] > rank[v]]
            qe = sum(1 for u, v in inverted if g.has_edge(u, v))
            got = _split_blocks(g, _mask_of(s), _mask_of(t), k.masks)
            assert got[2:] == (qe, len(inverted) - qe)


# labels no other test uses, registered in reverse order, so that their
# bits run against their sorted order
KERNEL_LABELS = ("kz", "ky", "kx", "kw")
Graph(KERNEL_LABELS)


@st.composite
def kernel_graphs(draw):
    labels = draw(st.lists(st.sampled_from(KERNEL_LABELS), unique=True))
    pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(labels, edges)


def _coproduct_by_labels(mid, g, s, t, key):
    """The coproduct counted at label level: restricted label views, None
    where a p-partition block meets both sides, and the crossing edges and
    non-edges from an S vertex to a T vertex of strictly lower rank."""
    if mid == "L":
        rank = {v: i for i, v in enumerate(key.seq)}
        left = tuple(v for v in key.seq if v in s)
        right = tuple(v for v in key.seq if v in t)
    elif mid in ("Pi_p", "SPi_p"):
        if any(set(b) & s and set(b) & t for b in key.blocks):
            return None
        left = tuple(b for b in key.blocks if set(b) <= s)
        right = tuple(b for b in key.blocks if set(b) <= t)
        return left, right, 0, 0
    else:
        rank = {v: i for i, b in enumerate(key.blocks) for v in b}
        left = tuple(bb for b in key.blocks if (bb := tuple(v for v in b if v in s)))
        right = tuple(bb for b in key.blocks if (bb := tuple(v for v in b if v in t)))
    lower = [(u, v) for u in s for v in t if rank[u] > rank[v]]
    qe = sum(1 for u, v in lower if g.has_edge(u, v))
    return left, right, qe, len(lower) - qe


@settings(max_examples=25, deadline=None)
@given(kernel_graphs())
def test_mask_kernel_agrees_with_label_level_counts(g):
    assert [_BIT[v] for v in KERNEL_LABELS] == sorted(_BIT[v] for v in KERNEL_LABELS)
    for mid in ("L", "Sigma", "SSigma", "Pi_p", "SPi_p"):
        spec = get_monoid(mid)
        view = attrgetter("seq" if mid == "L" else "blocks")
        for k in spec.basis(g):
            for s, t in ordered_bipartitions(g.vertices):
                want = _coproduct_by_labels(mid, g, s, t, k)
                got = spec.coproduct_key(g, _mask_of(s), _mask_of(t), k)
                if want is None or got is None:
                    assert got is want, (mid, g, k, s)
                    continue
                lk, rk, qe, te = got
                assert (view(lk), view(rk)) == want[:2], (mid, g, k, s)
                assert (qe, te) == want[2:], (mid, g, k, s)


def _exponents_by_labels(mid, g, S, T, key):
    """(qe, te) counted on labels: for orders and compositions the edges
    and the non-edges {u, v} with u in T, v in S and u's block earlier than
    v's; for orientations the arcs from T to S."""
    if mid == "AO":
        return sum(1 for u, v in key.arcs if u in T and v in S), 0
    blocks = [(v,) for v in key.seq] if mid == "L" else key.blocks
    rank = {v: i for i, b in enumerate(blocks) for v in b}
    pairs = [(u, v) for u in T for v in S if rank[u] < rank[v]]
    qe = sum(1 for u, v in pairs if g.has_edge(u, v))
    return qe, len(pairs) - qe


def test_key_level_exponents_equal_label_level_counts_on_corpus4():
    for g in corpus(4):
        splits = [(S, T, _mask_of(S), _mask_of(T)) for S, T in ordered_bipartitions(g.vertices)]
        for mid in MONOID_IDS:
            spec = get_monoid(mid)
            for S, T, s, t in splits:
                [((qe, te), _one)] = braiding_coeff(g, S, T).terms()
                want = (qe if spec.uses_q else 0, te if spec.uses_t else 0)
                assert spec.braiding(g, s, t) == want, (mid, g, S)
            if mid not in ("L", "AO", "Sigma", "SSigma"):
                continue
            for k in spec.basis(g):
                for S, T, s, t in splits:
                    want = _exponents_by_labels(mid, g, set(S), set(T), k)
                    assert spec.coproduct_key(g, s, t, k)[2:] == want, (mid, g, k, S)


# The orientation, flat and matching maps as label loops over the arcs and
# edges: the reference the cached edge-set maps must reproduce.


def _pairs_inside(pairs, mask):
    return frozenset(p for p in pairs if _BIT[p[0]] & mask and _BIT[p[1]] & mask)


def _product_key_by_labels(mid, g, s, t, x, y):
    if mid != "AO":
        return type(x)._of(x.edges | y.edges)
    cross = []
    for a, b in g.edges:
        if _BIT[a] & s and _BIT[b] & t:
            cross.append((a, b))
        elif _BIT[b] & s and _BIT[a] & t:
            cross.append((b, a))
    return AcyclicOrientation._of(x.arcs | y.arcs | frozenset(cross))


def _coproduct_key_by_labels(mid, g, s, t, key):
    if mid == "AO":
        qe = sum(1 for u, v in key.arcs if _BIT[u] & t and _BIT[v] & s)
        left, right = _pairs_inside(key.arcs, s), _pairs_inside(key.arcs, t)
        return AcyclicOrientation._of(left), AcyclicOrientation._of(right), qe, 0
    left, right = _pairs_inside(key.edges, s), _pairs_inside(key.edges, t)
    if mid.endswith("_P") and left | right != key.edges:
        return None
    return type(key)._of(left), type(key)._of(right), 0, 0


def test_edge_set_maps_equal_the_label_loops():
    # declared last label first, so bit order runs against label order; its
    # induced subgraphs are split too, each with a root other than itself
    rev = Graph(
        ["re4", "re3", "re2", "re1"],
        [("re4", "re3"), ("re3", "re2"), ("re2", "re4"), ("re2", "re1")],
    )
    assert _BIT["re4"] < _BIT["re3"] < _BIT["re2"] < _BIT["re1"]
    graphs = corpus(4) + [rev._induced(m) for m, _ in _ordered_bipartitions(rev.mask)]
    for g in graphs:
        for mid in ("AO", "FL_M", "FL_P", "Match_M", "Match_P"):
            spec = get_monoid(mid)
            for s, t in _ordered_bipartitions(g.mask):
                for k in spec.basis(g):
                    want = _coproduct_key_by_labels(mid, g, s, t, k)
                    assert spec.coproduct_key(g, s, t, k) == want, (mid, g, k, s)
                for x in spec.basis(g._induced(s)):
                    for y in spec.basis(g._induced(t)):
                        want = _product_key_by_labels(mid, g, s, t, x, y)
                        assert spec.product_key(g, s, t, x, y) is want, (mid, g, x, y)


def test_partition_m_coproduct_restricts_unconditionally():
    g = p3()
    x = one_term("Pi_m", g, "a,b/c")
    res = coproduct_component("Pi_m", g, {"a", "c"}, {"b"}, x)
    assert res.terms == {
        (key("Pi_m", "a/c"), key("Pi_m", "b")): QTPolynomial.one()
    }


def test_partition_maps_give_canonical_blocks():
    # restricting a,d/b,c to {c,d} leaves the blocks d then c, and the
    # product of c with a,b lists c first: both come out sorted
    spec = get_monoid("Pi_m")
    g = discrete_graph("abcd")
    left, right, qe, te = spec.coproduct_key(
        g, _mask_of("cd"), _mask_of("ab"), key("Pi_m", "a,d/b,c")
    )
    assert (left.blocks, right.blocks, qe, te) == (
        (("c",), ("d",)),
        (("a",), ("b",)),
        0,
        0,
    )
    x, y = key("Pi_m", "c"), key("Pi_m", "a,b")
    assert spec.product_key(g, _mask_of("c"), _mask_of("ab"), x, y).blocks == (("a", "b"), ("c",))


def test_partition_p_coproduct_vanishes_on_split_blocks():
    g = p3()
    x = one_term("Pi_p", g, "a,b/c")
    assert coproduct_component("Pi_p", g, {"a", "c"}, {"b"}, x).terms == {}
    # compatible split passes through with coefficient one
    res = coproduct_component("Pi_p", g, {"a", "b"}, {"c"}, x)
    assert res.terms == {
        (key("Pi_p", "a,b"), key("Pi_p", "c")): QTPolynomial.one()
    }


def test_flat_m_coproduct_restricts_edges():
    g = p3()
    x = one_term("FL_M", g, "ab")
    res = coproduct_component("FL_M", g, {"a"}, {"b", "c"}, x)
    assert res.terms == {
        (key("FL_M", "()"), key("FL_M", "()")): QTPolynomial.one()
    }
    assert coproduct_component("FL_P", g, {"a"}, {"b", "c"}, one_term("FL_P", g, "ab")).terms == {}


def test_flat_product_is_union():
    g = p3()
    x = one_term("FL_M", g.induced({"a", "b"}), "ab")
    y = one_term("FL_M", g.induced({"c"}), "()")
    res = product("FL_M", g, {"a", "b"}, {"c"}, x, y)
    assert res == one_term("FL_M", g, "ab")


def test_unit_and_counit():
    for mid in MONOID_IDS:
        u = unit_element(mid)
        assert u.graph == EMPTY_GRAPH
        assert counit_value(u) == 1
        g = p3()
        x = Element.of(mid, g, get_monoid(mid).basis(g)[0])
        with pytest.raises(InputError):
            counit_value(x)


def test_stable_monoids_reject_unstable_keys():
    g = p3()
    with pytest.raises(InputError):
        make_element("SPi_m", g, key("SPi_m", "a,b/c"))
    with pytest.raises(InputError):
        make_element("SSigma", g, key("SSigma", "a,b|c"))
    with pytest.raises(InputError):
        make_element("Match_M", g, key("Match_M", "ab,bc"))
    # stable inputs pass
    make_element("SPi_m", g, key("SPi_m", "a,c/b"))
    make_element("Match_M", g, key("Match_M", "ab"))


def test_orientation_keys_validated():
    g = p3()
    with pytest.raises(InputError):
        make_element("AO", g, key("AO", "a>b"))  # missing edge bc
    with pytest.raises(InputError):
        make_element("AO", g, key("AO", "a>b,b>c,c>a"))  # not an edge ca
    make_element("AO", g, key("AO", "a>b,c>b"))


def test_flat_keys_validated():
    g = p3()
    with pytest.raises(InputError):
        make_element("FL_M", g, key("FL_M", "ac"))  # not an edge
    k3 = complete_graph("abc")
    with pytest.raises(InputError):
        make_element("FL_M", k3, key("FL_M", "ab,bc"))  # not closed
    make_element("FL_M", k3, key("FL_M", "ab,bc,ac"))


def test_basis_change_hand_values():
    g = p3()
    m = one_term("Pi_m", g, "a,b/c")
    p = basis_change("Pi_m", "Pi_p", g, m)
    assert p == one_term("Pi_p", g, "a,b/c") + one_term("Pi_p", g, "a/b/c")
    back = basis_change("Pi_p", "Pi_m", g, p)
    assert back == one_term("Pi_m", g, "a,b/c")
    # inverting a single p key subtracts the refinement
    p_single = one_term("Pi_p", g, "a,b/c")
    m_of_p = basis_change("Pi_p", "Pi_m", g, p_single)
    assert m_of_p == one_term("Pi_m", g, "a,b/c") - one_term("Pi_m", g, "a/b/c")


def test_flat_basis_change_hand_values():
    g = p3()
    m = one_term("FL_M", g, "ab")
    p = basis_change("FL_M", "FL_P", g, m)
    assert p == one_term("FL_P", g, "()") + one_term("FL_P", g, "ab")
    assert basis_change("FL_P", "FL_M", g, p) == one_term("FL_M", g, "ab")
    p0 = one_term("FL_P", g, "ab")
    assert basis_change("FL_P", "FL_M", g, p0) == one_term(
        "FL_M", g, "ab"
    ) - one_term("FL_M", g, "()")


def test_basis_change_keeps_polynomial_coefficients():
    # q m_x + t m_y, and the same in the p basis, for both families; the
    # strings are those of the Element-level sums the integer kernel replaced
    g = p3()

    def changed(mid_from, mid_to, x, y):
        spec = get_monoid(mid_from)
        terms = [(spec.parse_key(x), Q), (spec.parse_key(y), T)]
        return str(basis_change(mid_from, mid_to, g, make_element(mid_from, g, terms)))

    assert changed("Pi_m", "Pi_p", "a,b/c", "a,b,c") == (
        "(t) a,b,c + (q + t) a,b/c + (t) a,c/b + (t) a/b,c + (q + t) a/b/c"
    )
    assert changed("Pi_p", "Pi_m", "a,b/c", "a,b,c") == (
        "(t) a,b,c + (q - t) a,b/c + (-t) a,c/b + (-t) a/b,c + (-q + 2*t) a/b/c"
    )
    assert changed("FL_M", "FL_P", "ab", "ab,bc") == (
        "(q + t) () + (q + t) a-b + (t) a-b,b-c + (t) b-c"
    )
    assert changed("FL_P", "FL_M", "ab", "ab,bc") == (
        "(-q + t) () + (q - t) a-b + (t) a-b,b-c + (-t) b-c"
    )


def test_basis_change_rejects_non_partners():
    g = p3()
    x = one_term("Pi_m", g, "a/b/c")
    with pytest.raises(InputError):
        basis_change("Pi_m", "FL_M", g, x)
    with pytest.raises(InputError):
        basis_change("Pi_m", "Pi_m", g, x)
    with pytest.raises(InputError):
        basis_change("L", "AO", g, one_term("L", g, "a<b<c"))


def test_product_validates_split_and_factors():
    g = p3()
    x = one_term("L", g.induced({"a"}), "a")
    y = one_term("L", g.induced({"b", "c"}), "b<c")
    with pytest.raises(InputError):
        product("L", g, {"a"}, {"b"}, x, y)  # split misses c
    with pytest.raises(InputError):
        product("L", g, {"a", "b"}, {"c"}, x, y)  # factors on wrong graphs


def test_product_and_coproduct_validate_every_term():
    g = p3()
    gs, gt = g.induced({"a"}), g.induced({"b", "c"})
    y = one_term("L", gt, "b<c")
    stray = Element.of("L", gs, LinearOrder(("x",)))
    with pytest.raises(InputError, match="is not an order of"):
        product("L", g, {"a"}, {"b", "c"}, stray, y)
    with pytest.raises(InputError, match="is not an order of"):
        product("L", g, {"b", "c"}, {"a"}, y, stray)
    short = Element.of("L", g, LinearOrder(("a", "x")))
    with pytest.raises(InputError, match="is not an order of"):
        coproduct_component("L", g, {"a"}, {"b", "c"}, short)


def _foreign_element_cases():
    g = p3()
    ab = g.induced({"a", "b"})
    y = one_term("L", g.induced({"c"}), "c")
    return {
        "product": ("L", ab, lambda x: product("L", g, {"a", "b"}, {"c"}, x, y)),
        "coproduct_component": ("L", g, lambda x: coproduct_component("L", g, {"a"}, "bc", x)),
        "basis_change": ("Pi_m", g, lambda x: basis_change("Pi_m", "Pi_p", g, x)),
        "apply_path": ("L", g, lambda x: apply_path(("iota_L_SSigma", "pi_arrow_SSigma"), g, x)),
        "morphism_apply": ("L", g, lambda x: morphism_apply("pi_arrow_L", g, x)),
        "antipode_element": ("L", g, lambda x: antipode_element("L", g, x)),
    }


@pytest.mark.parametrize("element_map", list(_foreign_element_cases()))
def test_element_maps_refuse_a_foreign_element(element_map):
    mid, h, apply = _foreign_element_cases()[element_map]
    apply(Element.of(mid, h, get_monoid(mid).basis(h)[0]))
    # an element of another monoid: the morphisms do not apply to it
    with pytest.raises(InputError):
        apply(Element.of("E", h, get_monoid("E").basis(h)[0]))
    # an element on another graph, whose key is a basis key there
    other = h.complement()
    with pytest.raises(InputError, match="^element does not live on this graph/monoid$"):
        apply(Element.of(mid, other, get_monoid(mid).basis(other)[0]))
    # no element at all: a tensor of the monoid
    with pytest.raises(InputError, match="^element does not live on this graph/monoid$"):
        apply(TensorElement(mid, h, h, ()))
    # a key over other labels, which an unvalidated Element holds
    stray = get_monoid(mid).basis(Graph("xy", []))[0]
    with pytest.raises(InputError):
        apply(Element(mid, h, [(stray, 1)]))


def test_unit_species_collapses_everything():
    g = p3()
    spec = get_monoid("E")
    assert len(spec.basis(g)) == 1
    x = one_term("E", g.induced({"a"}), "unit")
    y = one_term("E", g.induced({"b", "c"}), "unit")
    assert product("E", g, {"a"}, {"b", "c"}, x, y) == one_term("E", g, "unit")
    res = coproduct_component("E", g, {"b"}, {"a", "c"}, one_term("E", g, "unit"))
    assert list(res.terms.values()) == [QTPolynomial.one()]
