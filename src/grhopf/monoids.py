"""The catalog of thirteen bimonoid structures on graph-indexed bases.

Every structure exposes the same key-level interface: a finite basis per
graph, a product component per ordered vertex bipartition (always a single
key with coefficient one), and a coproduct component per bipartition (at
most one key pair, with a monomial coefficient q^qe t^te).  The key-level
maps hand that coefficient over as its exponent pair (qe, te) of plain
integers, and so does the braiding; only element-level code, and a
witness that prints one, turns an exponent pair into a `QTPolynomial`.
Each structure names its key class; `validate_key` is where a key is
checked against a graph (a key constructor only refuses a repeat), and the
element-level wrappers extend the key-level maps linearly after `_checked`
has refused any element of another monoid or graph and validated every
term they are given; the morphisms and the antipode use it too.  A
structure's `_enumerate_basis(g)` yields payloads in any order, and
`_basis_cached(spec, g)` is the one place that makes basis keys, orders
them by literal and caches them, per spec object: a spec swapped into
`MONOIDS` is asked for its own basis.

A split (S, T) is a pair of vertex masks at the key level (`product_key`,
`coproduct_key`, `braiding`) and a pair of label sets at the element level
(`product`, `coproduct_component`, `braiding_coeff`); `Graph._split`
checks and converts the label sets of `product` and `coproduct_component`,
`Graph.crossing_edges` those of `braiding_coeff`, which need not cover the
graph.

The orientation, flat and matching keys hold label pairs, and their maps
intersect whole sets with edge sets cached per graph and vertex mask: a
flat or matching coproduct keeps the key's edges in the edges of
`Graph._induced(mask)`, an orientation's keeps its arcs in `_arcs` of the
induced graph (every edge both ways round) and counts its arcs in
`_leaving(root, T)` (the root graph's arcs that leave T) as its q
exponent, and an orientation's product adds `_leaving(root, S)` cut to the
graph's arcs.

The m/p (and M/P) basis changes rebase {payload: coefficient} maps:
`_rebased(mid_from, terms)` picks the lattice of mid_from's family and the
direction itself.  The two graph-independent lattices are cached per top
element, `enumerators._refinements` and `_flats_below`; from m to p it
takes the zeta sum over the lattice, from p to m the Moebius expansion
`_p_in_m`.  `basis_change` builds an Element only at the public boundary.

A coproduct row (`MonoidSpec.coproducts`) holds, per (graph, key), the
`coproduct_key` value of every non-vanishing split of the key, keyed by the
split's S mask in bipartition order, so a law can walk a row or look one
split up.  For a species the products and the rows are fixed values, so one
store (`_store`) owns them: per spec object one cached copy of the monoid,
whose `product_key` and `coproducts` remember each result by its argument
tuple, for the graphs induced from one root graph.  The antipode calls and
the verifier's checks read that copy, so each coproduct and each product is
computed once across all of them; the spec in `MONOIDS` computes both
afresh on every call.  A call on another root graph empties the store, and
so does the end of `verify.run_suite` (`_clear_store`); a spec swapped into
`MONOIDS` is a new key.  The store holds structure-map values only, never
an antipode value or a verdict.

Deformation is per structure: linear orders and set compositions pick up a
q power per crossing edge and a t power per crossing non-edge, orientations
only the q power, and the partition/flat/matching/unit structures none.
The `uses_q` / `uses_t` flags drive both the coproduct statistics and the
braiding used in the compatibility axiom.

Identifiers: L, AO, Sigma, SSigma, Pi_m, Pi_p, SPi_m, SPi_p, FL_M, FL_P,
Match_M, Match_P, E.
"""

from __future__ import annotations

import copy
from collections import Counter
from functools import cache, lru_cache, reduce
from itertools import permutations
from operator import or_

from . import enumerators, keys
from .elements import Element, TensorElement, _accumulate
from .errors import InputError
from .graphs import _BIT, Graph, _mask_of
from .keys import (
    AcyclicOrientation,
    BasisKey,
    FlatM,
    FlatP,
    LinearOrder,
    MatchingM,
    MatchingP,
    PartitionM,
    PartitionP,
    SetCompositionKey,
    UnitKey,
)
from .qtpoly import QTPolynomial

EMPTY_GRAPH = Graph(())


# ---------------------------------------------------------------- statistics

# A linear order is the set composition into singletons, so one mask kernel
# splits both.  The closed forms count with `_crossing_exponents` on a label
# rank map instead, so they stay a route independent of the alternating sum
# and the recursions, which count with the kernel.


def _split_blocks(g: Graph, s: int, t: int, masks) -> tuple[tuple, tuple, int, int]:
    """The (s, t) split of a sequence of block masks: the nonempty s parts
    and t parts in block order, and (qe, te), the crossing edges and the
    crossing non-edges that join a vertex of s to a vertex of t in a
    strictly earlier block."""
    adj = g._adjacency()
    left, right = [], []
    lower_t = qe = pairs = 0  # lower_t: the T vertices of earlier blocks
    for b in masks:
        bs = b & s
        if bs:
            left.append(bs)
            if lower_t:
                pairs += bs.bit_count() * lower_t.bit_count()
                while bs:
                    low = bs & -bs
                    qe += (adj[low] & lower_t).bit_count()
                    bs ^= low
        bt = b & t
        if bt:
            right.append(bt)
            lower_t |= bt
    return tuple(left), tuple(right), qe, pairs - qe


def _crossing_exponents(rank, edges) -> tuple[int, int]:
    """(qe, te): the edges, and the non-edges, whose ends have different
    ranks."""
    qe = sum(1 for a, b in edges if rank[a] != rank[b])
    n = len(rank)
    same = sum(c * c for c in Counter(rank.values()).values())
    return qe, (n * n - same) // 2 - qe


def braiding_coeff(g: Graph, S, T) -> QTPolynomial:
    """Graph braiding weight: q per crossing edge, t per crossing non-edge."""
    s, t = frozenset(S), frozenset(T)
    cross = g.crossing_edges(s, t)
    return QTPolynomial.monomial(cross, len(s) * len(t) - cross)


def _braiding(g: Graph, s: int, t: int) -> tuple[int, int]:
    """The exponent pair (qe, te) of `braiding_coeff` on the masks of a
    split."""
    cross = g._crossing(s, t)
    return cross, s.bit_count() * t.bit_count() - cross


# ---------------------------------------------------------------- catalog


class MonoidSpec:
    """One bimonoid structure; subclasses fill in the key-level maps."""

    id: str = ""
    key_cls: type[BasisKey] = BasisKey
    uses_q: bool = False
    uses_t: bool = False

    @property
    def key_kind(self) -> str:
        return self.key_cls.kind

    # -- basis and validity

    def basis(self, g: Graph) -> tuple[BasisKey, ...]:
        return _basis_cached(self, g)

    def _enumerate_basis(self, g: Graph):
        """The payloads of the basis keys on g, in any order."""
        raise NotImplementedError

    def empty_key(self) -> BasisKey:
        return self.parse_key("()")

    def validate_key(self, g: Graph, key: BasisKey) -> None:
        """Refuse a key that is not a basis key of g.  This is the one check
        of a key's payload; each subclass extends this kind check."""
        if not isinstance(key, self.key_cls):
            raise InputError(f"{self.id} expects {self.key_kind} keys, got {key!r}")

    # -- structure maps (key level)

    def product_key(self, g: Graph, s: int, t: int, x: BasisKey, y: BasisKey) -> BasisKey:
        raise NotImplementedError

    def coproduct_key(self, g: Graph, s: int, t: int, key: BasisKey):
        """None, or (left_key, right_key, qe, te): the two factors and the
        exponents of their coefficient q^qe t^te."""
        raise NotImplementedError

    def coproducts(self, g: Graph, key: BasisKey) -> dict:
        """The row of key on g: a dict from the S mask of each split (S, T)
        where `coproduct_key` does not vanish to its value there, in
        `enumerators._ordered_bipartitions` order, the empty splits
        included.  Computed afresh; the copy in `_store` caches it."""
        coproduct_key = self.coproduct_key
        return {
            s: res
            for s, t in enumerators._ordered_bipartitions(g.mask)
            if (res := coproduct_key(g, s, t, key)) is not None
        }

    def braiding(self, g: Graph, s: int, t: int) -> tuple[int, int]:
        """The exponent pair (qe, te) of the structure's own braiding weight
        on the (s, t) crossing: the graph braiding with the exponent of each
        parameter it does not deform set to zero."""
        if not (self.uses_q or self.uses_t):
            return 0, 0
        qe, te = _braiding(g, s, t)
        return (qe if self.uses_q else 0), (te if self.uses_t else 0)

    def parse_key(self, text: str) -> BasisKey:
        return keys.parse_key(self.key_kind, text)


class _BlockSequenceMonoid(MonoidSpec):
    """Orders and set compositions: a key is a sequence of vertex blocks,
    the product concatenates two sequences and the coproduct splits one
    with `_split_blocks`."""

    uses_q = True
    uses_t = True

    def product_key(self, g, s, t, x, y):
        return self.key_cls._of(x.masks + y.masks)

    def coproduct_key(self, g, s, t, key):
        left, right, qe, te = _split_blocks(g, s, t, key.masks)
        key_of = self.key_cls._of
        return key_of(left), key_of(right), qe, te


class _OrderMonoid(_BlockSequenceMonoid):
    id = "L"
    key_cls = LinearOrder

    def _enumerate_basis(self, g):
        return permutations([_BIT[v] for v in g.vertices])

    def validate_key(self, g, key):
        super().validate_key(g, key)
        if len(key.masks) != g.n or reduce(or_, key.masks, 0) != g.mask:
            raise InputError(f"{key.literal()} is not an order of {sorted(g.vertex_set)}")


class _OrientationMonoid(MonoidSpec):
    id = "AO"
    key_cls = AcyclicOrientation
    uses_q = True
    uses_t = False

    def _enumerate_basis(self, g):
        return map(frozenset, enumerators._acyclic_arc_sets(g))

    def validate_key(self, g, key):
        super().validate_key(g, key)
        undirected = frozenset(
            (u, v) if u < v else (v, u) for u, v in key.arcs
        )
        if undirected != g.edges or len(key.arcs) != len(g.edges):
            raise InputError(f"{key.literal()} does not orient every edge exactly once")
        if not enumerators._is_acyclic(key.arcs):
            raise InputError(f"{key.literal()} has a directed cycle")

    def product_key(self, g, s, t, x, y):
        # every crossing edge points from the s side to the t side
        return AcyclicOrientation._of(x.arcs | y.arcs | (_leaving(g._root, s) & _arcs(g)))

    def coproduct_key(self, g, s, t, key):
        arcs = key.arcs
        key_of = AcyclicOrientation._of
        left = key_of(arcs & _arcs(g._induced(s)))
        right = key_of(arcs & _arcs(g._induced(t)))
        return left, right, len(arcs & _leaving(g._root, t)), 0


@lru_cache(maxsize=None)
def _arcs(g: Graph) -> frozenset:
    """The arcs of g: each edge both ways round."""
    return g.edges | frozenset([(v, u) for u, v in g.edges])


@lru_cache(maxsize=None)
def _leaving(root: Graph, mask: int) -> frozenset:
    """The arcs of root from a vertex of mask to a vertex outside it.  On a
    graph induced from root and split as (mask, rest), the arcs of the
    graph among them are the crossing edges oriented from mask to rest;
    keyed on the root, so every induced subgraph of it shares one entry per
    mask."""
    out = []
    for a, b in root.edges:
        in_a, in_b = _BIT[a] & mask, _BIT[b] & mask
        if in_a and not in_b:
            out.append((a, b))
        elif in_b and not in_a:
            out.append((b, a))
    return frozenset(out)


def _validate_blocks(g: Graph, key, verb: str, stable: bool) -> None:
    """Refuse blocks that do not cover g exactly once without an empty
    block, or (when stable) that hold an edge of g."""
    ground = size = 0
    for b in key.masks:
        ground |= b
        size += b.bit_count()
    if ground != g.mask:
        raise InputError(f"{key.literal()} does not {verb} {sorted(g.vertex_set)}")
    if not all(key.masks) or size != g.n:
        raise InputError(f"{key.literal()} repeats a label or has an empty block")
    if stable and not all(map(g._independent, key.masks)):
        # name the first dependent block in the literal's order
        b = next(b for b in key.blocks if not g._independent(_mask_of(b)))
        raise InputError(f"block {','.join(b)} is not independent")


class _CompositionMonoid(_BlockSequenceMonoid):
    key_cls = SetCompositionKey

    def __init__(self, mid: str, stable: bool):
        self.id = mid
        self.stable = stable

    def _enumerate_basis(self, g):
        return enumerators._block_sequences(g.mask, g._independent if self.stable else bool)

    def validate_key(self, g, key):
        super().validate_key(g, key)
        _validate_blocks(g, key, "compose", self.stable)


class _PartitionMonoid(MonoidSpec):
    def __init__(self, mid: str, basis_tag: str, stable: bool):
        self.id = mid
        self.basis_tag = basis_tag
        self.stable = stable
        self.key_cls = PartitionM if basis_tag == "m" else PartitionP

    def _enumerate_basis(self, g):
        keep = g._independent if self.stable else bool
        return [tuple(sorted(p)) for p in enumerators._block_sets(g.mask, keep)]

    def validate_key(self, g, key):
        super().validate_key(g, key)
        _validate_blocks(g, key, "partition", self.stable)

    def product_key(self, g, s, t, x, y):
        return self.key_cls._of(tuple(sorted(x.masks + y.masks)))

    def coproduct_key(self, g, s, t, key):
        masks = key.masks
        if self.basis_tag == "p" and any(b & s and b & t for b in masks):
            return None
        key_of = self.key_cls._of
        left = key_of(tuple(sorted([bs for b in masks if (bs := b & s)])))
        right = key_of(tuple(sorted([bt for b in masks if (bt := b & t)])))
        return left, right, 0, 0


class _FlatMonoid(MonoidSpec):
    def __init__(self, mid: str, basis_tag: str, matchings_only: bool):
        self.id = mid
        self.basis_tag = basis_tag
        self.matchings_only = matchings_only
        if matchings_only:
            self.key_cls = MatchingM if basis_tag == "M" else MatchingP
        else:
            self.key_cls = FlatM if basis_tag == "M" else FlatP

    def _enumerate_basis(self, g):
        return enumerators.matchings(g) if self.matchings_only else enumerators.flats(g)

    def validate_key(self, g, key):
        super().validate_key(g, key)
        if not key.edges <= g.edges:
            raise InputError(f"{key.literal()} uses edges outside the graph")
        if self.matchings_only:
            if not enumerators.is_matching(key.edges):
                raise InputError(f"{key.literal()} is not a matching")
        elif not enumerators.is_flat(g, key.edges):
            raise InputError(f"{key.literal()} is not a flat")

    def product_key(self, g, s, t, x, y):
        return self.key_cls._of(x.edges | y.edges)

    def coproduct_key(self, g, s, t, key):
        edges = key.edges
        left, right = edges & g._induced(s).edges, edges & g._induced(t).edges
        if self.basis_tag == "P" and len(left) + len(right) != len(edges):
            return None
        key_of = self.key_cls._of
        return key_of(left), key_of(right), 0, 0


_UNIT = UnitKey()
_UNIT_SPLIT = (_UNIT, _UNIT, 0, 0)


class _UnitSpeciesMonoid(MonoidSpec):
    id = "E"
    key_cls = UnitKey

    def _enumerate_basis(self, g):
        return [None]

    def product_key(self, g, s, t, x, y):
        return _UNIT

    def coproduct_key(self, g, s, t, key):
        return _UNIT_SPLIT


MONOIDS: dict[str, MonoidSpec] = {
    m.id: m
    for m in (
        _OrderMonoid(),
        _OrientationMonoid(),
        _CompositionMonoid("Sigma", stable=False),
        _CompositionMonoid("SSigma", stable=True),
        _PartitionMonoid("Pi_m", "m", stable=False),
        _PartitionMonoid("Pi_p", "p", stable=False),
        _PartitionMonoid("SPi_m", "m", stable=True),
        _PartitionMonoid("SPi_p", "p", stable=True),
        _FlatMonoid("FL_M", "M", matchings_only=False),
        _FlatMonoid("FL_P", "P", matchings_only=False),
        _FlatMonoid("Match_M", "M", matchings_only=True),
        _FlatMonoid("Match_P", "P", matchings_only=True),
        _UnitSpeciesMonoid(),
    )
}

MONOID_IDS = tuple(MONOIDS)


def get_monoid(mid: str) -> MonoidSpec:
    try:
        return MONOIDS[mid]
    except KeyError:
        raise InputError(
            f"unknown monoid {mid!r}; choose from {', '.join(MONOID_IDS)}"
        ) from None


@lru_cache(maxsize=None)
def _basis_cached(spec: MonoidSpec, g: Graph) -> tuple[BasisKey, ...]:
    """The basis of spec on g: its keys on `_enumerate_basis(g)`, by literal."""
    cls = spec.key_cls
    return tuple(sorted(map(cls._of, spec._enumerate_basis(g)), key=cls.literal))


# spec object -> its cached copy, for the graphs induced from _store_root only
_STORE: dict = {}
_store_root: Graph | None = None


def _store(spec: MonoidSpec, g: Graph) -> MonoidSpec:
    """The cached copy of spec for g and every graph induced from g's root:
    one per spec object, made on first use and kept until a call on another
    root graph, or `_clear_store`, empties the store.  The copy's
    `product_key` and `coproducts` remember every result by their argument
    tuple; its other maps are spec's own."""
    global _store_root
    if g._root is not _store_root:
        _clear_store()
        _store_root = g._root
    twin = _STORE.get(spec)
    if twin is None:
        twin = _STORE[spec] = copy.copy(spec)
        twin.basis = spec.basis  # one basis cache entry per spec, not per copy
        twin.product_key = cache(spec.product_key)
        twin.coproducts = cache(spec.coproducts)
    return twin


def _clear_store() -> None:
    """Drop every cached copy of `_store`."""
    global _store_root
    _STORE.clear()
    _store_root = None


# ---------------------------------------------------------------- wrappers


def _checked(spec: MonoidSpec, g: Graph, x: Element) -> None:
    """Refuse x unless it is an element of spec's monoid on g whose every
    key is a basis key of g: the one refusal of a foreign element."""
    # an Element's context is (monoid, graph); graphs are interned
    if not isinstance(x, Element) or x.context != (spec.id, g):
        raise InputError("element does not live on this graph/monoid")
    for k in x.terms:
        spec.validate_key(g, k)


def make_element(mid: str, g: Graph, key_or_terms, coeff=1) -> Element:
    """Validated Element constructor."""
    spec = get_monoid(mid)
    if isinstance(key_or_terms, BasisKey):
        terms = [(key_or_terms, coeff)]
    elif isinstance(key_or_terms, dict):
        terms = list(key_or_terms.items())
    else:
        terms = list(key_or_terms)
    # before Element merges the terms, so a key whose terms cancel is checked
    for k, _c in terms:
        spec.validate_key(g, k)
    return Element(mid, g, terms)


def product(mid: str, g: Graph, S, T, x: Element, y: Element) -> Element:
    """The (S, T) product component applied to elements on G_S and G_T."""
    spec = get_monoid(mid)
    s, t = g._split(S, T)
    _checked(spec, g._induced(s), x)
    _checked(spec, g._induced(t), y)
    out = Element.zero(mid, g)
    _accumulate(
        out.terms,
        (
            (spec.product_key(g, s, t, kx, ky), cx * cy)
            for kx, cx in x.terms.items()
            for ky, cy in y.terms.items()
        ),
    )
    return out


def coproduct_component(mid: str, g: Graph, S, T, x: Element) -> TensorElement:
    """The (S, T) coproduct component applied to an element on g."""
    spec = get_monoid(mid)
    s, t = g._split(S, T)
    _checked(spec, g, x)
    out = TensorElement.zero(mid, g._induced(s), g._induced(t))
    _accumulate(
        out.terms,
        (
            ((res[0], res[1]), c * QTPolynomial.monomial(res[2], res[3]))
            for k, c in x.terms.items()
            if (res := spec.coproduct_key(g, s, t, k)) is not None
        ),
    )
    return out


def unit_element(mid: str) -> Element:
    """The unit: the empty structure on the empty graph."""
    spec = get_monoid(mid)
    return Element.of(mid, EMPTY_GRAPH, spec.empty_key())


def counit_value(x: Element) -> QTPolynomial:
    """The counit: defined on the empty-graph component only."""
    if not isinstance(x, Element) or x.graph.n != 0:
        raise InputError("counit applies to empty-graph elements only")
    spec = get_monoid(x.monoid)
    _checked(spec, EMPTY_GRAPH, x)
    return x.coefficient(spec.empty_key())


# ---------------------------------------------------------------- basis change

# each m/p (or M/P) basis and the other basis of the same family
BASIS_PARTNER = {
    "Pi_m": "Pi_p",
    "Pi_p": "Pi_m",
    "SPi_m": "SPi_p",
    "SPi_p": "SPi_m",
    "FL_M": "FL_P",
    "FL_P": "FL_M",
    "Match_M": "Match_P",
    "Match_P": "Match_M",
}


@lru_cache(maxsize=None)
def _flats_below(edges: frozenset) -> tuple[frozenset, ...]:
    """The flat lattice below the flat with these edges, cached per flat.
    The flats of g inside its flat F are exactly the flats of the graph F
    spans, so they depend on F alone."""
    return tuple(enumerators.flats(Graph({v for e in edges for v in e}, edges)))


@lru_cache(maxsize=None)
def _p_in_m(below, top) -> tuple[tuple[object, int], ...]:
    """The p (or P) basis element at `top` in the m (or M) basis, as
    (payload, coefficient) pairs: p_x = m_x minus the sum of p_y over every
    y that `below(x)` lists other than x, recursively (the Moebius
    expansion).  Neither lattice depends on the graph (partition masks are
    process-wide, flats are label pairs), so neither does the table."""
    acc = {top: 1}
    for y in below(top):
        if y != top:
            _accumulate(acc, ((z, -c) for z, c in _p_in_m(below, y)))
    return tuple(acc.items())


def _rebased(mid_from: str, terms: dict) -> dict:
    """The map {payload: coefficient} of terms of mid_from rewritten in its
    partner basis, over the cached lattice of its family
    (`enumerators._refinements` on partition masks, `_flats_below` on edge
    sets).  From m to p it is the zeta sum, m_x = the sum of p_y over every
    y in below(x); from p to m the Moebius expansion of `_p_in_m`.  Neither
    route reads the other's table.  Coefficients may be integers or
    `QTPolynomial`s; integers keep the sum free of polynomial arithmetic."""
    partitions = get_monoid(mid_from).key_cls in (PartitionM, PartitionP)
    below = enumerators._refinements if partitions else _flats_below
    m_to_p = mid_from.endswith(("_m", "_M"))
    out: dict = {}
    for top, c in terms.items():
        if m_to_p:
            _accumulate(out, ((y, c) for y in below(top)))
        else:
            _accumulate(out, ((y, c * n) for y, n in _p_in_m(below, top)))
    return out


def basis_change(mid_from: str, mid_to: str, g: Graph, x: Element) -> Element:
    """Rewrite x between the m/p (or M/P) bases of the same family."""
    if BASIS_PARTNER.get(mid_from) != mid_to:
        raise InputError(f"no basis change from {mid_from} to {mid_to}")
    _checked(get_monoid(mid_from), g, x)
    rebased = _rebased(mid_from, {k._payload: c for k, c in x.terms.items()})
    key_of = get_monoid(mid_to).key_cls._of
    out = Element.zero(mid_to, g)
    _accumulate(out.terms, ((key_of(y), c) for y, c in rebased.items()))
    return out
