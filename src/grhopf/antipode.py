"""Antipode computation by four independent routes: the alternating-sum
formula, two one-sided recursions and per-structure closed forms.

The verifier confronts the routes with each other on every key of every
corpus graph.  The closed forms are the fast route; the composition and
flat-m forms are gated on agreement with the alternating sum wherever the
verifier runs.  The partition m form is the product formula
S(m_x) = sum over z <= x of (-1)^l(z) prod_B c_B(z)! m_z, with c_B(z) the
blocks of z inside the block B of x, in one pass over the lattice below x:
going to the p basis, flipping Pi_p's sign and coming back by the Moebius
function collapses block by block to it, since [z, x] is a product of
partition lattices (Rota 1964).  It reads no basis-change table.

Every route computes an exponent map {(key, qe, te): nonzero int}, the
coefficient of q^qe t^te on key, by adding exponents and integers, with no
polynomial arithmetic.  `antipode` looks the route up in `_ROUTES`,
validates the key once and builds the `Element` (`elements._element`);
the verifier compares the maps themselves.

The alternating sum and the recursions read every coproduct row
(`coproducts`) and every product from the cached copy of the monoid in the
store of the graph's root (`monoids._store`): each (subgraph, key) is split
once and each (graph, S, T, x, y) product computed once across all the
calls and checks on one root graph.  The store holds structure-map values
only; no antipode value is remembered there.

The alternating sum walks set compositions depth-first over their first
blocks, so compositions sharing a prefix share that prefix's coproducts,
products and coefficient exponents, and a vanishing coproduct prunes every
composition that starts with it.  A prefix adds the term of each
composition one block longer where it peels that block, and only a prefix
with at least two vertices left to place is walked further, so no
one-vertex rest is ever split.  It stays the alternating sum, not a third
recursion: no partial sum is remembered across branches, and every
non-vanishing composition adds exactly one signed term.  The recursions
memoize their maps per (induced subgraph, key) in a dict made per call:
`antipode` gives each query a fresh memo, `antipode_element` and
`antipode_table` share one across the keys they are given, and the
verifier one per side across a whole check.  A memo is never shared by
two routes: it is keyed by (subgraph, key) alone, so a memo shared by the
two recursions would hand one side's maps to the other.
"""

from __future__ import annotations

from math import factorial

from .elements import Element, _accumulate, _element, linear_extend
from .enumerators import _acyclic_arc_sets, _refinements, _refining_payloads, flats
from .errors import InputError
from .graphs import Graph, components_partition
from .keys import (
    AcyclicOrientation,
    BasisKey,
    LinearOrder,
    PartitionM,
    SetCompositionKey,
)
from .monoids import _checked, _crossing_exponents, _store, get_monoid

# Closed forms compared unconditionally against the general methods; the
# composition and flat-m forms are oracle-gated (verdict recorded by the
# verifier) per the design notes.
CLOSED_FORM_IDS = (
    "L",
    "AO",
    "Sigma",
    "SSigma",
    "Pi_m",
    "Pi_p",
    "SPi_p",
    "FL_M",
    "FL_P",
    "Match_P",
    "E",
)
ORACLE_GATED_IDS = ("Sigma", "SSigma", "FL_M")

# method -> route: (spec, g, basis key of g, recursion memo) -> exponent map
_ROUTES = {
    "takeuchi": lambda spec, g, key, memo: _takeuchi_sums(spec, g, key, {}),
    "milnor-moore-left": lambda spec, g, key, memo: _mm(spec, g, key, "left", memo),
    "milnor-moore-right": lambda spec, g, key, memo: _mm(spec, g, key, "right", memo),
    "closed": lambda spec, g, key, memo: _closed_sums(spec, g, key),
}
METHODS = tuple(_ROUTES)


def _route(method: str):
    """The route of method, refused unless method is one of METHODS."""
    route = _ROUTES.get(method)
    if route is None:
        raise InputError(f"unknown antipode method {method!r}; choose from {METHODS}")
    return route


def antipode(mid: str, g: Graph, key: BasisKey, method: str = "takeuchi") -> Element:
    """The antipode of key by one route of METHODS.  Refused, in this order,
    for an unknown method, an unknown monoid, a key that is not a basis key
    of g, and a monoid without a closed form when that route is asked."""
    route = _route(method)
    spec = _store(get_monoid(mid), g)
    spec.validate_key(g, key)
    return _element(mid, g, route(spec, g, key, {}))


def antipode_element(mid: str, g: Graph, x: Element, method: str = "takeuchi") -> Element:
    """The antipode of x by one route of METHODS, refused as `antipode`
    refuses, and for an element that does not live on g in monoid mid; x
    and every key of it are checked before any is computed, and the terms
    share one recursion memo."""
    route = _route(method)
    spec = _store(get_monoid(mid), g)
    _checked(spec, g, x)
    memo: dict = {}
    return linear_extend(lambda k: _element(mid, g, route(spec, g, k, memo)), x)


# ---------------------------------------------------------------- alternating sum


def _takeuchi_sums(spec, g: Graph, key: BasisKey, sums: dict) -> dict:
    """Sum the alternating sum into the exponent map sums, {(product key,
    qe, te): summed sign}, and return it: each set composition whose
    iterated coproduct does not vanish reads its entry once and adds its
    sign to it, the entry of its product key and coefficient q^qe t^te, and
    an entry is dropped as soon as it cancels.  The walk is depth-first
    over first blocks.

    A node is a composition prefix: the graph on the vertices still to
    place with its right coproduct key, the placed vertices with their
    left-folded product key, and the exponents of the prefix's coefficient,
    which are the sums of its coproducts' exponents.  A node peels every
    nonempty proper first block off the rest.  For each it folds the block
    into the prefix's product and adds, there and then, the term of the
    child's composition that ends with all vertices left as one block; the
    child becomes a node of its own only if at least two vertices are left,
    as only then can a proper block follow.  The one-block composition of g
    (the length-zero one when g is empty) is added before the walk.  A
    vanishing coproduct prunes every composition that starts with that
    prefix.

    Each coproduct is the value `coproduct_key` gives for its arguments,
    read from spec's row of the (subgraph, key) (`coproducts`).  On the
    store's cached copy a (subgraph, key) reached by several prefixes, or by
    several calls on one root graph, is split once; on a spec of `MONOIDS`
    it is split afresh each time.  No partial sum is remembered (see the
    module docstring).
    """
    product_key = spec.product_key
    coproducts = spec.coproducts
    term = (key, 0, 0)
    acc = sums.get(term, 0) + (-1 if g.n else 1)
    if acc:
        sums[term] = acc
    else:
        del sums[term]
    # (rest graph of at least two vertices, its key, mask of the placed
    # vertices, product key of the placed blocks or None, the prefix's q
    # and t exponents, the sign of the compositions of its children)
    stack = [(g, key, 0, None, 0, 0, 1)] if g.n > 1 else []
    # placed mask -> the subgraphs on the placed vertices and on the rest
    halves: dict = {}
    while stack:
        rest_g, rest_key, placed, pk, qe, te, sign = stack.pop()
        rest = rest_g.mask
        for s, (lk, rk, cq, ct) in coproducts(rest_g, rest_key).items():
            if not s or s == rest:
                continue
            done = placed | s
            pair = halves.get(done)
            if pair is None:
                pair = halves[done] = (g._induced(done), g._induced(g.mask ^ done))
            if pk is not None:
                lk = product_key(pair[0], placed, s, pk, lk)
            left = rest ^ s
            cq += qe
            ct += te
            # a sign is +-1, so a sum cancels only where the entry was there
            term = (product_key(g, done, left, lk, rk), cq, ct)
            acc = sums.get(term, 0) + sign
            if acc:
                sums[term] = acc
            else:
                del sums[term]
            if left & (left - 1):
                stack.append((pair[1], rk, done, lk, cq, ct, -sign))
    return sums


# ---------------------------------------------------------------- recursions


def _mm(spec, g: Graph, key: BasisKey, side: str, memo: dict) -> dict:
    """The exponent map of key's antipode on g by the one-sided recursion
    of side ("left" or "right"): peel a bipartition, recurse on the
    strictly smaller factor.  Memoized per (g, key) in memo; the returned
    map is shared with the memo and must not be changed."""
    if g.n == 0:
        return {(key, 0, 0): 1}
    mk = (g, key)
    hit = memo.get(mk)
    if hit is None:
        hit = memo[mk] = _accumulate({}, _mm_terms(spec, g, key, side, memo))
    return hit


def _mm_terms(spec, g: Graph, key: BasisKey, side: str, memo: dict):
    """For each peeled bipartition with coproduct monomial q^qe t^te, one
    ((product key, qe + qe', te + te'), -c') pair per term c' q^qe' t^te'
    of the recursed factor's exponent map, multiplied back with the other
    factor's key."""
    left = side == "left"
    product_key = spec.product_key
    for s, (lk, rk, qe, te) in spec.coproducts(g, key).items():
        t = g.mask ^ s
        # the recursed factor must be strictly smaller than g
        if not (t if left else s):
            continue
        rec = _mm(spec, g._induced(s if left else t), lk if left else rk, side, memo)
        for (k2, q2, t2), c2 in rec.items():
            x, y = (k2, rk) if left else (lk, k2)
            yield (product_key(g, s, t, x, y), qe + q2, te + t2), -c2


def antipode_table(mid: str, g: Graph) -> dict[BasisKey, Element]:
    """Antipode of every basis key of g by the left recursion, sharing one
    memo across the basis."""
    spec = _store(get_monoid(mid), g)
    memo: dict = {}
    return {k: _element(mid, g, _mm(spec, g, k, "left", memo)) for k in spec.basis(g)}


# ---------------------------------------------------------------- closed forms


def _closed_sums(spec, g: Graph, key: BasisKey) -> dict:
    """The exponent map of the antipode of a basis key of g by its monoid's
    catalogued closed form."""
    mid = spec.id
    sign = -1 if g.n % 2 else 1

    if mid == "L":
        qe, te = _crossing_exponents({v: i for i, v in enumerate(key.seq)}, g.edges)
        return {(LinearOrder._of(key.masks[::-1]), qe, te): sign}

    if mid == "AO":
        reverse = AcyclicOrientation._of(frozenset((v, u) for u, v in key.arcs))
        return {(reverse, len(g.edges), 0): sign}

    if mid in ("Sigma", "SSigma"):
        qe, te = _crossing_exponents(
            {v: i for i, b in enumerate(key.blocks) for v in b}, g.edges
        )
        return {
            (SetCompositionKey._of(ref), qe, te): 1 if len(ref) % 2 == 0 else -1
            for ref in _refining_payloads(key.masks[::-1])
        }

    if mid in ("Pi_p", "SPi_p"):
        return {(key, 0, 0): 1 if len(key.masks) % 2 == 0 else -1}

    if mid == "Pi_m":
        # S(m_x) = sum over z <= x of (-1)^l(z) prod_B c_B(z)! m_z, c_B(z)
        # the blocks of z inside the block B of x: [z, x] is the product of
        # the lattices Pi_{c_B}, where mu(0, pi) = prod (-1)^(|b|-1) (|b|-1)!
        # and the sum of prod (|b|-1)! is c!, permutations by cycle type.
        out = {}
        for z in _refinements(key.masks):
            c = -1 if len(z) % 2 else 1
            for top in key.masks:
                c *= factorial(sum(1 for b in z if b & top))
            out[PartitionM._of(z), 0, 0] = c
        return out

    if mid == "FL_M":
        sub = Graph(g.vertices, key.edges)
        out = {}
        for h in flats(sub):
            comp = components_partition(g.vertices, h)
            # the quotient is a simple graph, so o_hf >= 1: no zero entry
            o_hf = len(_acyclic_arc_sets(sub.quotient(comp)))
            out[type(key)._of(h), 0, 0] = o_hf if len(comp) % 2 == 0 else -o_hf
        return out

    if mid in ("FL_P", "Match_P"):
        comps = len(components_partition(g.vertices, key.edges))
        return {(key, 0, 0): 1 if comps % 2 == 0 else -1}

    if mid == "E":
        return {(key, 0, 0): sign}

    raise InputError(
        f"{mid} has no catalogued closed form; use the takeuchi method"
    )
