"""Antipode computation: the alternating-sum formula, two one-sided
recursions, and per-structure closed forms.

All three general methods are independent routes to the same map, so the
verifier can confront them with each other on every key of every corpus
graph.  The closed forms are the fast route; the composition and flat-m
forms are additionally confronted with the alternating-sum oracle wherever
the verifier runs (their catalog entries are gated on that agreement).

The alternating sum walks set compositions depth-first over their first
blocks, so compositions sharing a prefix share that prefix's coproducts,
products and coefficient, computed once per prefix instead of once per
composition, and a vanishing coproduct prunes every composition that
starts with it.  It stays the alternating sum, not a third recursion: no
result is remembered across branches or keyed on a (subgraph, key) pair,
every non-vanishing composition contributes exactly one signed term, and
every structure-map call has the arguments the composition-by-composition
loop gives it.  A composition's coefficient is the product of its
coproducts' monomials, so the walk adds their exponent pairs along the
prefix as plain integers; `_takeuchi_sums` adds the signs per (product
key, exponent pair) into one map in place, and `antipode_takeuchi` builds
`QTPolynomial`s only from the sums that do not cancel.

The one-sided recursions compute in the same representation: an exponent
map {(key, qe, te): nonzero int}, the coefficient of q^qe t^te on key.
Multiplying a recursed term by a coproduct monomial adds exponents, and
negating it negates an integer.  `AntipodeCache` memoizes exponent maps and
`_element` turns one into an `Element` at the public boundary.
"""

from __future__ import annotations

from .elements import Element, _accumulate, linear_extend
from .enumerators import (
    _ordered_bipartitions,
    _refinements,
    acyclic_orientations,
    compositions_refining,
    flats,
)
from .errors import InputError
from .graphs import Graph, components_partition
from .keys import (
    AcyclicOrientation,
    BasisKey,
    LinearOrder,
    PartitionM,
    SetCompositionKey,
    UnitKey,
)
from .monoids import _crossing_exponents, _rebased, get_monoid
from .qtpoly import QTPolynomial

METHODS = ("takeuchi", "milnor-moore-left", "milnor-moore-right", "closed")

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


def antipode(mid: str, g: Graph, key: BasisKey, method: str = "takeuchi") -> Element:
    if method == "takeuchi":
        return antipode_takeuchi(mid, g, key)
    if method == "milnor-moore-left":
        return antipode_milnor_moore(mid, g, key, side="left")
    if method == "milnor-moore-right":
        return antipode_milnor_moore(mid, g, key, side="right")
    if method == "closed":
        return antipode_closed_form(mid, g, key)
    raise InputError(f"unknown antipode method {method!r}; choose from {METHODS}")


def antipode_element(mid: str, g: Graph, x: Element, method: str = "takeuchi") -> Element:
    return linear_extend(lambda k: antipode(mid, g, k, method), x)


# ---------------------------------------------------------------- alternating sum


def antipode_takeuchi(mid: str, g: Graph, key: BasisKey) -> Element:
    """Alternating sum over all set compositions of the vertex set of the
    k-fold product of the k-fold coproduct; the empty-graph antipode is the
    identity (the single length-zero composition)."""
    spec = get_monoid(mid)
    spec.validate_key(g, key)
    if g.n == 0:
        return Element.of(mid, g, key)
    return _element(mid, g, _takeuchi_sums(spec, g, key, {}))


def _element(mid: str, g: Graph, sums: dict) -> Element:
    """The Element of an exponent map {(key, qe, te): nonzero int}: one
    `QTPolynomial` per key, built from its terms with no polynomial
    arithmetic."""
    by_key: dict = {}
    for (k, qe, te), c in sums.items():
        by_key.setdefault(k, {})[qe, te] = c
    return Element(mid, g, ((k, QTPolynomial(ts)) for k, ts in by_key.items()))


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
    which are the sums of its coproducts' exponents.  Each node counts the
    composition ending with all remaining vertices as one block, then peels
    every nonempty proper first block off the rest; a vanishing coproduct
    prunes every composition that starts with that prefix.  Nothing is
    remembered across branches (see the module docstring).
    """
    product_key, coproduct_key = spec.product_key, spec.coproduct_key
    # (rest graph, its key, mask of the placed vertices, product key of the
    # placed blocks or None, the prefix's q and t exponents, the sign of the
    # node's own composition: -1 for an odd number of blocks)
    stack = [(g, key, 0, None, 0, 0, -1)]
    while stack:
        rest_g, rest_key, placed, pk, qe, te, sign = stack.pop()
        last = rest_key if pk is None else product_key(
            g, placed, rest_g.mask, pk, rest_key
        )
        term = (last, qe, te)
        # a sign is +-1, so a sum cancels only where the entry was there
        acc = sums.get(term, 0) + sign
        if acc:
            sums[term] = acc
        else:
            del sums[term]
        for s, t in _ordered_bipartitions(rest_g.mask):
            if not s or not t:
                continue
            res = coproduct_key(rest_g, s, t, rest_key)
            if res is None:
                continue
            lk, rk, cq, ct = res
            done = placed | s
            if pk is not None:
                lk = product_key(g._induced(done), placed, s, pk, lk)
            stack.append((rest_g._induced(t), rk, done, lk, qe + cq, te + ct, -sign))
    return sums


# ---------------------------------------------------------------- recursions


def antipode_milnor_moore(mid: str, g: Graph, key: BasisKey, side: str = "left") -> Element:
    """One-sided recursion: peel a bipartition, recurse on the strictly
    smaller factor, memoized per induced subgraph and key."""
    return AntipodeCache(mid, side).of(g, key)


def _mm(spec, g: Graph, key: BasisKey, side: str, memo: dict) -> dict:
    """The exponent map of key's antipode on g, memoized per (g, key); the
    returned map is shared with the memo and must not be changed."""
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
    for s, t in _ordered_bipartitions(g.mask):
        # the recursed factor must be strictly smaller than g
        if not (t if left else s):
            continue
        res = spec.coproduct_key(g, s, t, key)
        if res is None:
            continue
        lk, rk, qe, te = res
        rec = _mm(spec, g._induced(s if left else t), lk if left else rk, side, memo)
        for (k2, q2, t2), c2 in rec.items():
            x, y = (k2, rk) if left else (lk, k2)
            yield (product_key(g, s, t, x, y), qe + q2, te + t2), -c2


class AntipodeCache:
    """Memoized one-sided antipode evaluator, shared across many calls.

    The memo spans induced subgraphs, so convolution sums and repeated
    per-key queries on one graph reuse each other's recursion work.  It
    holds exponent maps {(key, qe, te): int}; `of` returns an `Element`,
    `_of` the memoized map itself.
    """

    __slots__ = ("spec", "side", "_memo")

    def __init__(self, mid: str, side: str = "left"):
        if side not in ("left", "right"):
            raise InputError(f"side must be 'left' or 'right', got {side!r}")
        self.spec = get_monoid(mid)
        self.side = side
        self._memo: dict = {}

    def of(self, g: Graph, key: BasisKey) -> Element:
        """The antipode of key, refused unless it is a basis key of g."""
        self.spec.validate_key(g, key)
        return _element(self.spec.id, g, self._of(g, key))

    def _of(self, g: Graph, key: BasisKey) -> dict:
        """The exponent map of the antipode of a key the caller knows to be
        a basis key of g, such as a factor of a basis key's coproduct.  The
        map is the memo's own and must not be changed."""
        return _mm(self.spec, g, key, self.side, self._memo)

    def of_element(self, x: Element) -> Element:
        return linear_extend(lambda k: self.of(x.graph, k), x)


def antipode_table(mid: str, g: Graph) -> dict[BasisKey, Element]:
    """Antipode of every basis key of g, sharing one recursion memo."""
    cache = AntipodeCache(mid)
    return {k: cache.of(g, k) for k in get_monoid(mid).basis(g)}


# ---------------------------------------------------------------- closed forms


def antipode_closed_form(mid: str, g: Graph, key: BasisKey) -> Element:
    spec = get_monoid(mid)
    spec.validate_key(g, key)
    sign = -1 if g.n % 2 else 1

    if mid == "L":
        qe, te = _crossing_exponents({v: i for i, v in enumerate(key.seq)}, g.edges)
        coeff = QTPolynomial.monomial(qe, te, sign)
        return Element.of(mid, g, LinearOrder._of(key.masks[::-1]), coeff)

    if mid == "AO":
        coeff = QTPolynomial.monomial(len(g.edges), 0, sign)
        reverse = AcyclicOrientation._of(frozenset((v, u) for u, v in key.arcs))
        return Element.of(mid, g, reverse, coeff)

    if mid in ("Sigma", "SSigma"):
        qe, te = _crossing_exponents(
            {v: i for i, b in enumerate(key.blocks) for v in b}, g.edges
        )
        prefactor = QTPolynomial.monomial(qe, te)
        reverse = SetCompositionKey._of(key.masks[::-1])
        terms = []
        for ref in compositions_refining(reverse):
            c = prefactor if len(ref.masks) % 2 == 0 else -prefactor
            terms.append((ref, c))
        return Element(mid, g, terms)

    if mid in ("Pi_p", "SPi_p"):
        c = 1 if len(key.masks) % 2 == 0 else -1
        return Element.of(mid, g, key, c)

    if mid == "Pi_m":
        # through the p basis on integer maps: m -> p, Pi_p's sign, p -> m
        as_p = _rebased(_refinements, True, {key.masks: 1})
        flipped = {y: c if len(y) % 2 == 0 else -c for y, c in as_p.items()}
        as_m = _rebased(_refinements, False, flipped)
        return Element(mid, g, ((PartitionM._of(y), c) for y, c in as_m.items()))

    if mid == "FL_M":
        sub = Graph(g.vertices, key.edges)
        terms = []
        for h in flats(sub):
            comp = components_partition(g.vertices, h)
            c_h = len(comp)
            merged = sub.quotient(comp)
            o_hf = len(acyclic_orientations(merged))
            coeff = o_hf if c_h % 2 == 0 else -o_hf
            terms.append((type(key)._of(h), coeff))
        return Element(mid, g, terms)

    if mid in ("FL_P", "Match_P"):
        comps = len(components_partition(g.vertices, key.edges))
        return Element.of(mid, g, key, 1 if comps % 2 == 0 else -1)

    if mid == "E":
        return Element.of(mid, g, UnitKey(), sign)

    raise InputError(
        f"{mid} has no catalogued closed form; use the takeuchi method"
    )
