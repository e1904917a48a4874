"""Antipode routes: alternating sum, one-sided recursions, closed forms.

Hand values below were derived on paper from the defining alternating
sum; the suite freezes them so the implementations cannot drift.
"""

import importlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grhopf import (
    CLOSED_FORM_IDS,
    METHODS,
    MONOID_IDS,
    MONOIDS,
    ORACLE_GATED_IDS,
    Element,
    Graph,
    InputError,
    LinearOrder,
    PartitionM,
    Q,
    QTPolynomial,
    SetCompositionKey,
    antipode,
    antipode_element,
    antipode_table,
    corpus,
    discrete_graph,
    get_monoid,
    make_element,
    ordered_bipartitions,
    unit_element,
)
from grhopf import monoids
from grhopf.antipode import _closed_sums, _takeuchi_sums
from grhopf.enumerators import _refining_payloads
from grhopf.graphs import _labels_of, _mask_of
from grhopf.monoids import _crossing_exponents

from .test_graphs import path3
from .test_keys import labeled_graphs


def k2():
    return Graph("ab", [("a", "b")])


def key(mid, text):
    return get_monoid(mid).parse_key(text)


def elem(mid, g, text, coeff=1):
    return make_element(mid, g, key(mid, text), coeff)


# ---------------------------------------------------------------- hand values


def test_order_antipode_k2():
    g = k2()
    want = elem("L", g, "b<a", Q)
    for m in METHODS:
        assert antipode("L", g, key("L", "a<b"), m) == want


def test_order_antipode_path3():
    g = path3()
    want = elem("L", g, "c<b<a", QTPolynomial.monomial(2, 1, -1))
    for m in METHODS:
        assert antipode("L", g, key("L", "a<b<c"), m) == want


def test_orientation_antipode_reverses_arcs():
    g = path3()
    want = elem("AO", g, "b>a,c>b", QTPolynomial.monomial(2, 0, -1))
    for m in METHODS:
        assert antipode("AO", g, key("AO", "a>b,b>c"), m) == want


def test_composition_antipode_k2_single_block():
    g = k2()
    want = (
        elem("Sigma", g, "a,b", -1)
        + elem("Sigma", g, "a|b")
        + elem("Sigma", g, "b|a")
    )
    for m in METHODS:
        assert antipode("Sigma", g, key("Sigma", "a,b"), m) == want


def test_composition_antipode_k2_split_block():
    g = k2()
    want = elem("Sigma", g, "b|a", Q)
    for m in METHODS:
        assert antipode("Sigma", g, key("Sigma", "a|b"), m) == want


def test_stable_composition_antipode_discrete():
    g = Graph("ab", [])
    want = elem("SSigma", g, "b|a", QTPolynomial.monomial(0, 1))
    for m in METHODS:
        assert antipode("SSigma", g, key("SSigma", "a|b"), m) == want


def test_flat_m_antipode_k2():
    g = k2()
    want = elem("FL_M", g, "()", 2) + elem("FL_M", g, "ab", -1)
    for m in METHODS:
        assert antipode("FL_M", g, key("FL_M", "ab"), m) == want


def test_flat_m_antipode_path3():
    g = path3()
    want = (
        elem("FL_M", g, "()", -4)
        + elem("FL_M", g, "ab", 2)
        + elem("FL_M", g, "bc", 2)
        + elem("FL_M", g, "ab,bc", -1)
    )
    for m in METHODS:
        assert antipode("FL_M", g, key("FL_M", "ab,bc"), m) == want


def test_flat_m_closed_form_when_a_label_spells_a_merged_block():
    # the quotient by the flat a-b must not reuse the existing vertex "ab"
    g = Graph(["a", "b", "ab"], [("a", "b"), ("b", "ab")])
    for k in get_monoid("FL_M").basis(g):
        assert antipode("FL_M", g, k, "closed") == antipode("FL_M", g, k, "takeuchi")
    top = antipode("FL_M", g, key("FL_M", "a-b,ab-b"), "closed")
    assert top.coefficient(key("FL_M", "a-b")) == 2


def test_partition_p_antipode_signs():
    g = path3()
    assert antipode("Pi_p", g, key("Pi_p", "a,b/c"), "closed") == elem(
        "Pi_p", g, "a,b/c"
    )
    assert antipode("Pi_p", g, key("Pi_p", "a/b/c"), "closed") == elem(
        "Pi_p", g, "a/b/c", -1
    )


def test_flat_p_antipode_signs():
    g = path3()
    # sign is parity of the number of connected pieces the flat leaves
    assert antipode("FL_P", g, key("FL_P", "ab"), "closed") == elem("FL_P", g, "ab")
    assert antipode("FL_P", g, key("FL_P", "()"), "closed") == elem(
        "FL_P", g, "()", -1
    )


def test_unit_species_antipode_sign():
    g = path3()
    assert antipode("E", g, key("E", "unit"), "closed") == elem("E", g, "unit", -1)


# -------------------------------------------------------- method equivalence


def test_all_methods_agree_on_small_corpus():
    for g in corpus(2):
        for mid in MONOID_IDS:
            spec = get_monoid(mid)
            methods = ["takeuchi", "milnor-moore-left", "milnor-moore-right"]
            if mid in CLOSED_FORM_IDS:
                methods.append("closed")
            for k in spec.basis(g):
                vals = [antipode(mid, g, k, m) for m in methods]
                assert all(v == vals[0] for v in vals[1:]), (mid, g, k)


# ------------------------------------------- alternating sum, flat reference


def _flat_takeuchi_terms(spec, g, key):
    # the alternating sum as one independent loop per set composition:
    # left-iterated coproducts along the blocks, then left-iterated products;
    # one ((product key, qe, te), sign) per composition that does not vanish
    for comp in get_monoid("Sigma").basis(g):
        parts = comp.blocks
        if not parts:  # the empty graph's length-zero composition
            yield (key, 0, 0), 1
            continue
        qe = te = 0
        pieces = []
        cur_graph, cur_key = g, key
        rest = g.mask
        for block in parts[:-1]:
            s = _mask_of(block)
            rest = rest ^ s
            res = spec.coproduct_key(cur_graph, s, rest, cur_key)
            if res is None:
                break
            lk, cur_key, cq, ct = res
            qe, te = qe + cq, te + ct
            pieces.append(lk)
            cur_graph = cur_graph.induced(_labels_of(rest))
        else:
            pieces.append(cur_key)
            acc_set = _mask_of(parts[0])
            pk = pieces[0]
            for block, piece in zip(parts[1:], pieces[1:]):
                s = _mask_of(block)
                pk = spec.product_key(g.induced(_labels_of(acc_set | s)), acc_set, s, pk, piece)
                acc_set = acc_set | s
            yield (pk, qe, te), -1 if len(parts) % 2 else 1


class _ReadRecordingDict(dict):
    """A term map that records the term of each `get` call: the walk reads
    the entry of each composition's term once, as it adds the sign."""

    def __init__(self):
        super().__init__()
        self.reads = Counter()

    def get(self, term, *default):
        self.reads[term] += 1
        return super().get(term, *default)


def _assert_walk_matches_flat_reference(mid, g, keys):
    spec = get_monoid(mid)
    for k in keys:
        flat = list(_flat_takeuchi_terms(spec, g, k))
        # one read of its term per composition whose coproducts do not vanish
        sums = _ReadRecordingDict()
        _takeuchi_sums(spec, g, k, sums)
        assert sums.reads == Counter(term for term, _ in flat), (mid, g, k)
        expected = Element(
            mid, g, [(pk, QTPolynomial.monomial(qe, te, c)) for (pk, qe, te), c in flat]
        )
        assert antipode(mid, g, k, "takeuchi") == expected, (mid, g, k)


def test_prefix_walk_equals_flat_alternating_sum_on_corpus3():
    for g in corpus(3):
        for mid in MONOID_IDS:
            _assert_walk_matches_flat_reference(mid, g, get_monoid(mid).basis(g))


_N4 = ["v1", "v2", "v3", "v4"]


@pytest.mark.parametrize(
    "edges",
    [
        [("v1", "v2")],
        [("v1", "v2"), ("v2", "v3"), ("v3", "v4")],
        [("v1", "v2"), ("v1", "v3"), ("v1", "v4"), ("v2", "v3"), ("v2", "v4")],
    ],
    ids=["edge", "path", "k4_minus_edge"],
)
def test_prefix_walk_equals_flat_alternating_sum_on_four_vertices(edges):
    # every key of every basis: Fubini(4) = 75 compositions per key
    g = Graph(_N4, edges)
    for mid in MONOID_IDS:
        _assert_walk_matches_flat_reference(mid, g, get_monoid(mid).basis(g))


@pytest.mark.parametrize(
    "g",
    [
        # the bull: a triangle with a pendant edge at two of its corners
        Graph("abcde", [("a", "b"), ("b", "c"), ("a", "c"), ("a", "d"), ("b", "e")]),
        # a 5-cycle with one chord
        Graph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e"), ("a", "c")]),
    ],
    ids=["bull", "c5_chord"],
)
def test_prefix_walk_equals_flat_alternating_sum_on_five_vertices(g):
    # four keys spread over each basis: the flat loop costs Fubini(5) = 541
    # compositions per key
    for mid in MONOID_IDS:
        basis = get_monoid(mid).basis(g)
        step = max(1, len(basis) // 4)
        _assert_walk_matches_flat_reference(mid, g, basis[::step][:4])


@settings(max_examples=50, deadline=None)
@given(labeled_graphs(min_vertices=3), st.data())
def test_closed_forms_equal_the_alternating_sum_over_random_labels(g, data):
    for mid in CLOSED_FORM_IDS:
        k = data.draw(st.sampled_from(get_monoid(mid).basis(g)), label=mid)
        assert antipode(mid, g, k, "closed") == antipode(mid, g, k, "takeuchi"), (mid, k)


def test_gated_ids_are_a_subset_of_closed_ids():
    assert set(ORACLE_GATED_IDS) <= set(CLOSED_FORM_IDS)
    assert "SPi_m" not in CLOSED_FORM_IDS
    assert "Match_M" not in CLOSED_FORM_IDS


def test_missing_closed_forms_raise():
    g = k2()
    with pytest.raises(InputError):
        antipode("SPi_m", g, key("SPi_m", "a/b"), "closed")
    with pytest.raises(InputError):
        antipode("Match_M", g, key("Match_M", "()"), "closed")
    with pytest.raises(InputError):
        antipode("L", g, key("L", "a<b"), "no-such-method")


def _pi_m_antipode_through_p(key):
    # the two rebasings the product formula collapses: m -> p by the zeta
    # sum, Pi_p's sign (-1)^l(y), then p -> m by the Moebius expansion
    as_p = monoids._rebased("Pi_m", {key.masks: 1})
    flipped = {y: c if len(y) % 2 == 0 else -c for y, c in as_p.items()}
    as_m = monoids._rebased("Pi_p", flipped)
    return {(PartitionM._of(y), 0, 0): c for y, c in as_m.items()}


def test_pi_m_closed_form_equals_the_two_rebasings(monkeypatch):
    calls = Counter()
    p_in_m = monoids._p_in_m

    def counted(below, top):
        calls["_p_in_m"] += 1
        return p_in_m(below, top)

    monkeypatch.setattr(monoids, "_p_in_m", counted)
    spec = get_monoid("Pi_m")
    cases = [(g, k) for g in corpus(4) for k in spec.basis(g)]
    for n in (5, 6, 7):
        # fresh labels, so no lattice or Moebius table below them is warm
        g = discrete_graph([f"pi_m_closed_{n}_{i}" for i in range(n)])
        cases.append((g, PartitionM([g.vertices])))
    for g, k in cases:
        closed = _closed_sums(spec, g, k)
        assert calls["_p_in_m"] == 0, (g, k)
        assert closed == _pi_m_antipode_through_p(k), (g, k)
        calls.clear()
    # the reference did expand: the counter sees the Moebius route
    assert _pi_m_antipode_through_p(cases[-1][1]) and calls["_p_in_m"] > 0


def test_per_refinement_reweighting_is_wrong():
    # regression witness: weighting each refinement by its own crossing
    # statistic (instead of one prefactor from the input key) breaks the
    # defining alternating sum already on a single edge
    g = k2()
    k = key("Sigma", "a,b")
    reverse = SetCompositionKey(reversed(k.blocks))
    terms = []
    for ref in map(SetCompositionKey._of, _refining_payloads(reverse.masks)):
        rank = {v: i for i, b in enumerate(ref.blocks) for v in b}
        qe, te = _crossing_exponents(rank, g.edges)
        sign = 1 if len(ref.blocks) % 2 == 0 else -1
        terms.append((ref, QTPolynomial.monomial(qe, te, sign)))
    variant = Element("Sigma", g, terms)
    reference = antipode("Sigma", g, k, "takeuchi")
    assert variant != reference
    assert antipode("Sigma", g, k, "closed") == reference


# ---------------------------------------------------------- axioms and shape


def _convolution_with_identity(mid, g, k):
    spec = get_monoid(mid)
    acc = Element.zero(mid, g)
    for s, t in ordered_bipartitions(g.vertices):
        ms, mt = _mask_of(s), _mask_of(t)
        res = spec.coproduct_key(g, ms, mt, k)
        if res is None:
            continue
        lk, rk, qe, te = res
        c = QTPolynomial.monomial(qe, te)
        sx = antipode(mid, g.induced(s), lk, "milnor-moore-left")
        for k2, c2 in sx.terms.items():
            pk = spec.product_key(g, ms, mt, k2, rk)
            acc = acc + Element.of(mid, g, pk, c * c2)
    return acc


def test_convolution_inverse_of_identity():
    # (s * id)(x) = unit(counit(x)) vanishes on every nonempty graph
    for g in corpus(2):
        if g.n == 0:
            continue
        for mid in ("L", "AO", "Sigma", "Pi_m", "FL_M", "Match_M", "E"):
            for k in get_monoid(mid).basis(g):
                assert _convolution_with_identity(mid, g, k).is_zero, (mid, g, k)


def test_convolution_cancels_only_in_the_sum():
    # on one vertex the two split contributions are nonzero but opposite
    g = Graph("a", [])
    spec = get_monoid("L")
    k = key("L", "a")
    parts = []
    for s, t in ordered_bipartitions(g.vertices):
        ms, mt = _mask_of(s), _mask_of(t)
        lk, rk, qe, te = spec.coproduct_key(g, ms, mt, k)
        c = QTPolynomial.monomial(qe, te)
        sx = antipode("L", g.induced(s), lk, "milnor-moore-left")
        term = Element.zero("L", g)
        for k2, c2 in sx.terms.items():
            pk = spec.product_key(g, ms, mt, k2, rk)
            term = term + Element.of("L", g, pk, c * c2)
        parts.append(term)
    assert len(parts) == 2
    assert not parts[0].is_zero and not parts[1].is_zero
    assert (parts[0] + parts[1]).is_zero


def test_empty_graph_antipode_is_identity():
    for mid in MONOID_IDS:
        x = unit_element(mid)
        g = x.graph
        k = get_monoid(mid).empty_key()
        for m in ("takeuchi", "milnor-moore-left", "milnor-moore-right"):
            assert antipode(mid, g, k, m) == x


def test_antipode_is_involutive_on_undeformed_families():
    g = path3()
    for mid in ("Pi_m", "Pi_p", "SPi_m", "SPi_p", "FL_M", "FL_P", "Match_M", "Match_P", "E"):
        spec = get_monoid(mid)
        for k in spec.basis(g):
            once = antipode(mid, g, k, "takeuchi")
            twice = antipode_element(mid, g, once, "takeuchi")
            assert twice == Element.of(mid, g, k), (mid, k)


def test_antipode_squared_deforms_for_orders():
    g = k2()
    once = antipode("L", g, key("L", "a<b"), "takeuchi")
    twice = antipode_element("L", g, once, "takeuchi")
    assert twice == elem("L", g, "a<b", Q * Q)


def test_antipode_element_is_linear():
    g = k2()
    x = elem("L", g, "a<b", 3) + elem("L", g, "b<a", Q)
    y = antipode_element("L", g, x)
    want = elem("L", g, "b<a", Q * 3) + elem("L", g, "a<b", Q * Q)
    assert y == want
    assert antipode_element("L", g, Element.zero("L", g)).is_zero


@pytest.mark.parametrize(
    "mid, x",
    [
        ("L", Element.zero("L", k2())),
        ("L", elem("L", path3().complement(), "a<b<c")),
        ("Sigma", elem("SSigma", path3(), "a,c|b")),
    ],
    ids=["zero-on-another-graph", "on-another-graph", "in-another-monoid"],
)
def test_antipode_element_refuses_another_context_before_computing(monkeypatch, mid, x):
    # the element's monoid and graph are checked as coproduct_component
    # checks them, before any route runs; the nonzero elements' keys are
    # basis keys of the stated monoid and graph
    module = importlib.import_module("grhopf.antipode")
    for name in ("_takeuchi_sums", "_mm"):
        monkeypatch.setattr(module, name, lambda *args: pytest.fail("a route ran"))
    for method in ("takeuchi", "milnor-moore-left"):
        with pytest.raises(InputError, match="^element does not live on this graph/monoid$"):
            antipode_element(mid, path3(), x, method)


def test_cache_refuses_a_key_that_is_not_a_basis_key_of_the_graph():
    # an order of three labels is no basis key of the path a-b; both
    # recursions answer like every other antipode route: they refuse
    g = Graph(["a", "b"], [("a", "b")])
    bad = LinearOrder("abc")
    with pytest.raises(InputError) as route:
        antipode("L", g, bad, "milnor-moore-left")
    with pytest.raises(InputError) as exc:
        antipode("L", g, bad, "milnor-moore-right")
    assert str(exc.value) == str(route.value)


def test_cache_sides_and_table():
    g = path3()
    k = key("L", "b<a<c")
    assert antipode("L", g, k, "milnor-moore-left") == antipode("L", g, k, "takeuchi")
    assert antipode("L", g, k, "milnor-moore-right") == antipode("L", g, k, "takeuchi")
    x = elem("L", g, "a<b<c", 2) + elem("L", g, "c<a<b")
    assert antipode_element("L", g, x, "milnor-moore-left") == antipode_element("L", g, x)
    with pytest.raises(InputError):
        antipode("L", g, k, "milnor-moore-middle")
    table = antipode_table("AO", g)
    assert set(table) == set(get_monoid("AO").basis(g))
    for k, v in table.items():
        assert v == antipode("AO", g, k, "takeuchi")


def test_antipode_element_expands_each_recursion_step_once(monkeypatch):
    # the terms of one element share a recursion memo and a coproduct
    # table: the sum of all 24 orders of K4 expands each of the 64
    # (subgraph, order) steps once, as antipode_table does
    g = corpus(4)[-1]
    basis = get_monoid("L").basis(g)
    want = Element.zero("L", g)
    for k in basis:
        want = want + antipode("L", g, k, "milnor-moore-left")
    module = importlib.import_module("grhopf.antipode")
    expand = module._mm_terms
    expanded = []

    def counted(spec, h, k, *rest):
        expanded.append((h, k))
        return expand(spec, h, k, *rest)

    monkeypatch.setattr(module, "_mm_terms", counted)
    x = make_element("L", g, dict.fromkeys(basis, 1))
    assert antipode_element("L", g, x, "milnor-moore-left") == want
    assert len(expanded) == len(set(expanded)) == 64
    expanded.clear()
    antipode_table("L", g)
    assert len(expanded) == 64


class _LReversedProduct(type(MONOIDS["L"])):
    """L, except that the product puts the right factor's order first."""

    def product_key(self, g, s, t, x, y):
        return self.key_cls._of(y.masks + x.masks)


def test_no_product_outlives_its_call(monkeypatch):
    # products are cached per spec object in the store: a product mutant
    # put into MONOIDS after a first answer on the same graph is a new
    # spec, so it must change the next one
    g = path3()
    k = key("L", "a<b<c")
    x = elem("L", g, "a<b<c")
    methods = ("takeuchi", "milnor-moore-left", "milnor-moore-right")
    before = [antipode("L", g, k, m) for m in methods]
    before += [antipode_element("L", g, x, m) for m in methods]
    before.append(antipode_table("L", g)[k])
    assert all(str(v) == "(-q^2*t) c<b<a" for v in before)
    monkeypatch.setitem(MONOIDS, "L", _LReversedProduct())
    after = [antipode("L", g, k, m) for m in methods]
    after += [antipode_element("L", g, x, m) for m in methods]
    after.append(antipode_table("L", g)[k])
    assert after == [after[0]] * len(after)
    assert str(after[0]).startswith("(-q^2*t + 2*q*t - 1) a<b<c + ")
