"""Formal linear combinations over Z[q,t]: module laws and context checks."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grhopf import (
    Element,
    Graph,
    InputError,
    LinearOrder,
    Q,
    QTPolynomial,
    T,
    TensorElement,
    discrete_graph,
    get_monoid,
    linear_extend,
)


def p3():
    return Graph("abc", [("a", "b"), ("b", "c")])


def k_abc(*seqs):
    return [LinearOrder(tuple(s)) for s in seqs]


def test_zero_and_of():
    g = p3()
    z = Element.zero("L", g)
    assert z.is_zero and not z
    x = Element.of("L", g, LinearOrder(("a", "b", "c")))
    assert not x.is_zero
    assert x.coefficient(LinearOrder(("a", "b", "c"))) == 1
    assert x.coefficient(LinearOrder(("c", "b", "a"))).is_zero


def test_addition_merges_and_cancels():
    g = p3()
    key = LinearOrder(("a", "b", "c"))
    x = Element.of("L", g, key, Q)
    y = Element.of("L", g, key, 1 - Q)
    assert (x + y) == Element.of("L", g, key)
    assert (x - x).is_zero
    assert (x + (-x)).is_zero


def test_scale_and_rmul():
    g = p3()
    key = LinearOrder(("a", "b", "c"))
    x = Element.of("L", g, key)
    assert x.scale(Q) == Element.of("L", g, key, Q)
    assert Q * x == x.scale(Q)
    assert 3 * x == x.scale(3)
    assert (0 * x).is_zero


def test_context_mismatch_rejected():
    g = p3()
    other = Graph("abc", [("a", "b")])
    x = Element.of("L", g, LinearOrder(("a", "b", "c")))
    y = Element.of("L", other, LinearOrder(("a", "b", "c")))
    with pytest.raises(InputError):
        x + y
    z = Element.of("AO", g, LinearOrder(("a", "b", "c")))
    with pytest.raises(InputError):
        x + z


def test_str_sorted_by_key_literal():
    g = p3()
    a, b = k_abc("abc", "cba")
    x = Element.of("L", g, b, T) + Element.of("L", g, a, Q)
    assert str(x) == "(q) a<b<c + (t) c<b<a"
    assert str(Element.zero("L", g)) == "0"


def test_specialize():
    g = p3()
    key = LinearOrder(("a", "b", "c"))
    x = Element.of("L", g, key, Q * T)
    assert x.specialize(q_one=True) == Element.of("L", g, key, T)
    assert x.specialize(True, True) == Element.of("L", g, key)


def test_tensor_element_ops():
    g = p3()
    gs = g.induced({"a", "b"})
    gt = g.induced({"c"})
    ka = LinearOrder(("a", "b"))
    kb = LinearOrder(("c",))
    t1 = TensorElement("L", gs, gt, [((ka, kb), Q)])
    t2 = TensorElement("L", gs, gt, [((ka, kb), 1 - Q)])
    assert (t1 + t2).items() == [((ka, kb), t1.terms[(ka, kb)] + t2.terms[(ka, kb)])]
    assert (t1 - t1).terms == {}
    assert t1.scale(T).terms == {(ka, kb): Q * T}
    assert str(t1) == "(q) a<b (x) c"


def test_tensor_context_mismatch():
    g = p3()
    gs = g.induced({"a", "b"})
    gt = g.induced({"c"})
    ka, kb = LinearOrder(("a", "b")), LinearOrder(("c",))
    t1 = TensorElement("L", gs, gt, [((ka, kb), Q)])
    t2 = TensorElement("L", gt, gs, [((kb, ka), Q)])
    with pytest.raises(InputError):
        t1 + t2


def test_linear_extend():
    g = p3()
    a, b = k_abc("abc", "cba")
    x = Element.of("L", g, a, Q) + Element.of("L", g, b, 2)

    def reverse(key):
        return Element.of("L", g, LinearOrder(tuple(reversed(key.seq))))

    y = linear_extend(reverse, x)
    assert y == Element.of("L", g, b, Q) + Element.of("L", g, a, 2)
    assert linear_extend(reverse, Element.zero("L", g)).is_zero


def test_linear_extend_refuses_an_image_in_another_context():
    g = p3()
    h = g.induced({"a", "b"})
    x = Element.of("L", g, LinearOrder(("a", "b", "c")), Q)
    with pytest.raises(InputError, match="context mismatch") as other_graph:
        linear_extend(lambda key: Element.of("L", h, LinearOrder(("a", "b"))), x)
    assert str(other_graph.value) == f"context mismatch: {x.context} vs {('L', h)}"
    with pytest.raises(InputError) as other_monoid:
        linear_extend(lambda key: Element.of("Sigma", g, key), x)
    assert str(other_monoid.value) == f"context mismatch: {x.context} vs {('Sigma', g)}"


# ---------------------------------------------------------------- module laws


def _element_module():
    g = p3()
    return (
        lambda terms: Element("L", g, terms),
        get_monoid("L").basis(g),
        lambda terms: Element("L", Graph("abc", [("a", "b")]), terms),
    )


def _tensor_module():
    g = Graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    gs, gt = g.induced({"a", "b"}), g.induced({"c", "d"})
    orders = get_monoid("L").basis
    pairs = [(x, y) for x in orders(discrete_graph("ab")) for y in orders(discrete_graph("cd"))]
    return (
        lambda terms: TensorElement("L", gs, gt, terms),
        pairs,
        lambda terms: TensorElement("L", gt, gs, terms),
    )


MODULES = {"element": _element_module, "tensor": _tensor_module}

polys = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2)), max_size=3
).map(lambda ts: QTPolynomial([((qe, te), c) for qe, te, c in ts]))


def _draw(data, kind, count):
    make, keys, other = MODULES[kind]()
    term_maps = st.dictionaries(st.sampled_from(keys), polys, max_size=len(keys))
    return make, other, [make(data.draw(term_maps)) for _ in range(count)]


@pytest.mark.parametrize("kind", sorted(MODULES))
@given(data=st.data())
def test_addition_is_associative_and_commutative(kind, data):
    _make, _other, (x, y, z) = _draw(data, kind, 3)
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert all((x + y).terms.values())


@pytest.mark.parametrize("kind", sorted(MODULES))
@given(data=st.data())
def test_difference_with_itself_is_zero(kind, data):
    make, _other, (x,) = _draw(data, kind, 1)
    d = x - x
    assert d == make({}) and d.terms == {} and not d


@pytest.mark.parametrize("kind", sorted(MODULES))
@given(data=st.data(), c=polys)
def test_scale_distributes_over_addition(kind, data, c):
    _make, _other, (x, y) = _draw(data, kind, 2)
    assert (x + y).scale(c) == x.scale(c) + y.scale(c)


@pytest.mark.parametrize("kind", sorted(MODULES))
@given(data=st.data())
def test_addition_across_contexts_is_rejected(kind, data):
    _make, other, (x,) = _draw(data, kind, 1)
    with pytest.raises(InputError):
        x + other(x.terms)
