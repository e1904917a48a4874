"""The named structure-preserving maps between the thirteen monoids.

Each map sends a basis key to a single basis key with coefficient one and
extends linearly.  A map may serve several source bases (the sub-partition
inclusion works in both the m and p bases), so a morphism carries a route
table from source monoid id to target monoid id.

A morphism respects products and coproducts after the deformation
parameters not shared by both ends are set to one: q survives only if both
ends deform along edges, t only if both deform along non-edges.  The
verifier uses `specialization(...)` for exactly that comparison.

One walker (`_along`) takes a key along a path of morphisms; `apply_path`,
`morphism_apply` (its one-step case) and the verifier's diagram check all
use it, so an image that is no basis key of its monoid is refused with the
name of the morphism that made it.
"""

from __future__ import annotations

from .elements import Element, _accumulate
from .errors import InputError
from .graphs import Graph, _mask_of, components_partition
from .keys import (
    AcyclicOrientation,
    FlatM,
    PartitionM,
    PartitionP,
    SetCompositionKey,
    UnitKey,
)
from .monoids import MONOIDS, _checked, get_monoid


class Morphism:
    __slots__ = ("name", "routes", "_key_map")

    def __init__(self, name: str, routes: dict[str, str], key_map):
        self.name = name
        self.routes = dict(routes)
        self._key_map = key_map

    def codomain(self, mid_from: str) -> str:
        if mid_from not in self.routes:
            raise InputError(
                f"{self.name} does not apply to {mid_from}; "
                f"sources: {', '.join(sorted(self.routes))}"
            )
        return self.routes[mid_from]

    def map_key(self, g: Graph, key):
        return self._key_map(g, key)

    def specialization(self, mid_from: str) -> tuple[bool, bool]:
        """(set q to 1?, set t to 1?) for the structure-map comparison."""
        dom = get_monoid(mid_from)
        cod = get_monoid(self.codomain(mid_from))
        return (not (dom.uses_q and cod.uses_q), not (dom.uses_t and cod.uses_t))


def _order_to_composition(g, key):
    # an order's single-bit masks are the blocks of its singleton composition
    return SetCompositionKey._of(key.masks)


def _identity(g, key):
    return key


def _order_to_orientation(g, key):
    pos = {v: i for i, v in enumerate(key.seq)}
    return AcyclicOrientation._of(
        frozenset((u, v) if pos[u] < pos[v] else (v, u) for u, v in g.edges)
    )


def _composition_to_orientation(g, key):
    pos = {v: i for i, b in enumerate(key.blocks) for v in b}
    arcs = []
    for u, v in g.edges:
        if pos[u] == pos[v]:
            raise InputError(
                f"edge {u}-{v} lies inside a block; key is not stable"
            )
        arcs.append((u, v) if pos[u] < pos[v] else (v, u))
    return AcyclicOrientation._of(frozenset(arcs))


def _to_unit(g, key):
    return UnitKey()


def _composition_to_partition(g, key):
    return PartitionM._of(tuple(sorted(key.masks)))


def _flat_to_partition(g, key):
    comp = components_partition(g.vertices, key.edges)
    return PartitionP._of(tuple(sorted(map(_mask_of, comp))))


def _partition_to_flat(g, key):
    return FlatM._of(g._edges_inside(key.masks))


def _unit_to_flat(g, key):
    return FlatM._of(frozenset())


MORPHISMS: dict[str, Morphism] = {
    m.name: m
    for m in (
        Morphism("iota_L_SSigma", {"L": "SSigma"}, _order_to_composition),
        Morphism("iota_SSigma_Sigma", {"SSigma": "Sigma"}, _identity),
        Morphism("pi_arrow_L", {"L": "AO"}, _order_to_orientation),
        Morphism("pi_arrow_SSigma", {"SSigma": "AO"}, _composition_to_orientation),
        Morphism("pi_abelianize", {"L": "E"}, _to_unit),
        Morphism("pi_AO_E", {"AO": "E"}, _to_unit),
        Morphism("pi_Sigma_Pi", {"Sigma": "Pi_m"}, _composition_to_partition),
        Morphism("pi_SSigma_SPi", {"SSigma": "SPi_m"}, _composition_to_partition),
        Morphism("iota_SPi_Pi", {"SPi_m": "Pi_m", "SPi_p": "Pi_p"}, _identity),
        Morphism("iota_FL_Pi", {"FL_P": "Pi_p"}, _flat_to_partition),
        Morphism("phi_Pi_FL", {"Pi_m": "FL_M"}, _partition_to_flat),
        Morphism("rho_SPi_E", {"SPi_m": "E"}, _to_unit),
        Morphism("iota_E_FL", {"E": "FL_M"}, _unit_to_flat),
    )
}

MORPHISM_NAMES = tuple(MORPHISMS)

# Composite identities the verifier pastes together.  Each entry compares
# two morphism paths out of one source monoid; the private direct map below
# closes the order-to-composition triangle.
_DIRECT_ORDER_TO_SIGMA = Morphism(
    "_iota_L_Sigma", {"L": "Sigma"}, _order_to_composition
)

DIAGRAMS: tuple[tuple[str, str, tuple, tuple], ...] = (
    ("order_composition_triangle", "L",
     ("iota_L_SSigma", "iota_SSigma_Sigma"), ("_iota_L_Sigma",)),
    ("order_orientation_triangle", "L",
     ("iota_L_SSigma", "pi_arrow_SSigma"), ("pi_arrow_L",)),
    ("orientation_counting_triangle", "L",
     ("pi_arrow_L", "pi_AO_E"), ("pi_abelianize",)),
    ("partition_flat_square", "SPi_m",
     ("iota_SPi_Pi", "phi_Pi_FL"), ("rho_SPi_E", "iota_E_FL")),
    ("composition_partition_square", "SSigma",
     ("pi_SSigma_SPi", "iota_SPi_Pi"), ("iota_SSigma_Sigma", "pi_Sigma_Pi")),
    ("counting_map_factorization", "L",
     ("iota_L_SSigma", "pi_SSigma_SPi", "rho_SPi_E"), ("pi_abelianize",)),
)


def get_morphism(name: str) -> Morphism:
    if name == "_iota_L_Sigma":
        return _DIRECT_ORDER_TO_SIGMA
    if name not in MORPHISMS:
        raise InputError(
            f"unknown morphism {name!r}; choose from {', '.join(MORPHISM_NAMES)}"
        )
    return MORPHISMS[name]


def _along(path: tuple, mid: str, g: Graph, key) -> tuple:
    """(monoid id, key) at the end of path from a basis key of mid on g.
    Each morphism sends a key to one key with coefficient one, so this is
    the path applied to the key's element; an image that is no basis key
    of its monoid is refused with the morphism's name."""
    for name in path:
        morphism = get_morphism(name)
        mid = morphism.codomain(mid)
        key = morphism.map_key(g, key)
        try:
            MONOIDS[mid].validate_key(g, key)
        except InputError as exc:
            raise InputError(f"{name}: {exc}") from exc
    return mid, key


def morphism_apply(name: str, g: Graph, x: Element) -> Element:
    """Apply a named morphism to an element, validating the route."""
    return apply_path((name,), g, x)


def apply_path(path: tuple[str, ...], g: Graph, x: Element) -> Element:
    """Compose morphisms left to right along a route starting at x's monoid,
    mapping each key of x along the whole path (`_along`).  Refused, in this
    order: a first morphism that is unknown or does not apply to x's
    monoid, an element not on g, a key of x that is no basis key of g, a
    later morphism that is unknown or does not apply where the path has
    reached, and an image that is no basis key of its monoid."""
    cod = get_morphism(path[0]).codomain(x.monoid) if path else x.monoid
    _checked(get_monoid(x.monoid), g, x)
    for name in path[1:]:
        cod = get_morphism(name).codomain(cod)
    out = Element.zero(cod, g)
    _accumulate(out.terms, ((_along(path, x.monoid, g, k)[1], c) for k, c in x.terms.items()))
    return out
