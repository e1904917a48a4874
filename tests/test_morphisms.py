"""Structure-preserving maps: key images, routes, linearity, diagram data."""

import pytest

from grhopf import (
    DIAGRAMS,
    MORPHISM_NAMES,
    MORPHISMS,
    Element,
    Graph,
    InputError,
    Q,
    apply_path,
    get_morphism,
    get_monoid,
    make_element,
    morphism_apply,
)

from .test_graphs import fun_graph


def p3():
    return Graph("abc", [("a", "b"), ("b", "c")])


def key(mid, text):
    return get_monoid(mid).parse_key(text)


def test_registry_names():
    assert len(MORPHISM_NAMES) == 13
    assert set(MORPHISM_NAMES) == {
        "iota_L_SSigma",
        "iota_SSigma_Sigma",
        "pi_arrow_L",
        "pi_arrow_SSigma",
        "pi_abelianize",
        "pi_AO_E",
        "pi_Sigma_Pi",
        "pi_SSigma_SPi",
        "iota_SPi_Pi",
        "iota_FL_Pi",
        "phi_Pi_FL",
        "rho_SPi_E",
        "iota_E_FL",
    }
    with pytest.raises(InputError):
        get_morphism("no_such_map")


def test_order_to_composition_image():
    g = p3()
    f = get_morphism("iota_L_SSigma")
    assert f.map_key(g, key("L", "b<a<c")) == key("SSigma", "b|a|c")
    assert f.codomain("L") == "SSigma"
    with pytest.raises(InputError):
        f.codomain("AO")


def test_order_to_orientation_image():
    g = p3()
    f = get_morphism("pi_arrow_L")
    # arcs point from the earlier vertex toward the later one
    assert f.map_key(g, key("L", "a<b<c")) == key("AO", "a>b,b>c")
    assert f.map_key(g, key("L", "c<b<a")) == key("AO", "b>a,c>b")


def test_stable_composition_to_orientation_image():
    g = p3()
    f = get_morphism("pi_arrow_SSigma")
    assert f.map_key(g, key("SSigma", "a,c|b")) == key("AO", "a>b,c>b")
    with pytest.raises(InputError):
        f.map_key(g, key("SSigma", "a,b|c"))  # edge inside a block


def test_composition_to_partition_image():
    g = p3()
    f = get_morphism("pi_Sigma_Pi")
    assert f.map_key(g, key("Sigma", "b,c|a")) == key("Pi_m", "a/b,c")
    assert f.codomain("Sigma") == "Pi_m"


def test_partition_inclusion_has_two_routes():
    f = get_morphism("iota_SPi_Pi")
    assert f.routes == {"SPi_m": "Pi_m", "SPi_p": "Pi_p"}
    g = p3()
    k = key("SPi_m", "a,c/b")
    assert f.map_key(g, k) == k  # payload identical, kind handled by route


def test_flat_to_partition_image_on_seven_vertex_example():
    g = fun_graph()
    f = get_morphism("iota_FL_Pi")
    flat = key("FL_P", "un,fu,fn,ma,at")
    assert f.map_key(g, flat) == key("Pi_p", "f,u,n/m,a,t/h")


def test_partition_to_flat_image_on_seven_vertex_example():
    g = fun_graph()
    f = get_morphism("phi_Pi_FL")
    part = key("Pi_m", "u,n/f,m,a,t/h")
    assert f.map_key(g, part) == key("FL_M", "un,ma,at")


def test_unit_targets():
    g = p3()
    assert get_morphism("pi_abelianize").map_key(g, key("L", "a<b<c")) == key("E", "unit")
    assert get_morphism("pi_AO_E").map_key(g, key("AO", "a>b,b>c")) == key("E", "unit")
    assert get_morphism("iota_E_FL").map_key(g, key("E", "unit")) == key("FL_M", "()")


def test_specialization_rule():
    # parameters survive only when both endpoints deform along them
    assert get_morphism("iota_L_SSigma").specialization("L") == (False, False)
    assert get_morphism("pi_arrow_L").specialization("L") == (False, True)
    assert get_morphism("pi_arrow_SSigma").specialization("SSigma") == (False, True)
    assert get_morphism("pi_abelianize").specialization("L") == (True, True)
    assert get_morphism("iota_SPi_Pi").specialization("SPi_m") == (True, True)


def test_morphism_apply_is_linear():
    g = p3()
    x = make_element("L", g, key("L", "a<b<c"), Q) + make_element(
        "L", g, key("L", "c<b<a"), 2
    )
    y = morphism_apply("iota_L_SSigma", g, x)
    want = make_element("SSigma", g, key("SSigma", "a|b|c"), Q) + make_element(
        "SSigma", g, key("SSigma", "c|b|a"), 2
    )
    assert y == want


def test_morphism_apply_validates():
    g = p3()
    x = make_element("L", g, key("L", "a<b<c"))
    with pytest.raises(InputError):
        morphism_apply("pi_Sigma_Pi", g, x)  # L is not a source of this map
    with pytest.raises(InputError):
        morphism_apply("iota_L_SSigma", p3().complement(), x)  # wrong graph


def test_apply_path_composes():
    g = p3()
    x = make_element("L", g, key("L", "a<b<c"))
    via = apply_path(("iota_L_SSigma", "pi_arrow_SSigma", "pi_AO_E"), g, x)
    assert via == make_element("E", g, key("E", "unit"))


def test_images_collapse_distinct_keys():
    # the unit-species maps merge everything: coefficients add up
    g = p3()
    x = make_element("L", g, key("L", "a<b<c")) + make_element("L", g, key("L", "b<a<c"))
    y = morphism_apply("pi_abelianize", g, x)
    assert y == make_element("E", g, key("E", "unit"), 2)


def test_diagram_table_routes_compose():
    assert len(DIAGRAMS) == 6
    names = [name for name, _, _, _ in DIAGRAMS]
    assert len(set(names)) == 6
    for name, dom, path_a, path_b in DIAGRAMS:
        for path in (path_a, path_b):
            mid = dom
            for step in path:
                mid = get_morphism(step).codomain(mid)
            # both paths must land in one codomain
            if path is path_a:
                end_a = mid
        assert mid == end_a


def test_every_registered_morphism_maps_some_basis_key():
    g = p3()
    for name in MORPHISM_NAMES:
        f = MORPHISMS[name]
        for dom, cod in f.routes.items():
            basis = get_monoid(dom).basis(g)
            img = f.map_key(g, basis[0])
            get_monoid(cod).validate_key(g, img)
