"""Exhaustive enumeration kernels for the structures on small graphs.

The kernels yield payloads, never keys (`monoids._basis_cached` makes and
orders those); only `flats`, `matchings` and `ordered_bipartitions` return
a list sorted by literal.  These are desk-scale algorithms: exact,
exhaustive, and pruned as soon as a branch fails.

Compositions and partitions come from two kernels on vertex masks, each
with a block predicate `keep` that prunes a block as soon as it is chosen:
`_block_sequences` yields compositions and `_block_sets` partitions.  The
stable bases keep independent blocks, the others every block (`bool`, as
blocks are nonempty).  A flat is the edges inside the blocks of a partition
into connected blocks, a matching those of a partition into vertices and
edges.  Labels are decoded at the boundary, where a repeated one is refused.

A split is a pair of submasks.  `_ordered_bipartitions(mask)` lists them
sorted by (labels of S, labels of T), the order that every split loop, and
so every witness, follows; `ordered_bipartitions` decodes the same list to
label sets.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb

from .errors import InputError
from .graphs import Graph, _block_masks, _labels_of, _mask_of, components_partition
from .keys import _edges_literal


# ---------------------------------------------------------------- splits


def ordered_bipartitions(labels) -> list[tuple[frozenset, frozenset]]:
    """All 2^n ordered pairs (S, T) with S disjoint-union T = labels."""
    (mask,) = _block_masks([labels], "twice in split")
    return [tuple(frozenset(_labels_of(m)) for m in st) for st in _ordered_bipartitions(mask)]


@lru_cache(maxsize=None)
def _ordered_bipartitions(mask: int) -> tuple[tuple[int, int], ...]:
    """The (S, T) submask pairs of mask in (labels of S, labels of T) order."""
    out = []
    s = mask
    while True:
        out.append((s, mask ^ s))
        if not s:
            break
        s = (s - 1) & mask
    out.sort(key=lambda st: (_labels_of(st[0]), _labels_of(st[1])))
    return tuple(out)


def _ordered_tripartitions(mask: int) -> list[tuple[int, int, int]]:
    """The (A, B, C) submask triples of mask: each split (A, rest) with rest
    split again, which lists them in (labels of A, labels of B) order."""
    return [
        (a, b, c)
        for a, rest in _ordered_bipartitions(mask)
        for b, c in _ordered_bipartitions(rest)
    ]


# ---------------------------------------------------------------- orientations


def _is_acyclic(arcs) -> bool:
    # Kahn peeling on the arc set.
    indeg: dict[str, int] = {}
    out: dict[str, list[str]] = {}
    for u, v in arcs:
        indeg[v] = indeg.get(v, 0) + 1
        indeg.setdefault(u, 0)
        out.setdefault(u, []).append(v)
        out.setdefault(v, [])
    queue = [v for v, d in indeg.items() if d == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == len(indeg)


def _acyclic_arc_sets(g: Graph) -> list[tuple[tuple[str, str], ...]]:
    """The arc tuples of all acyclic orientations of g, unsorted and not
    made into keys: its sorted edges are oriented one at a time, each both
    ways, and an arc set is dropped as soon as it holds a directed cycle."""
    partial = [()]
    for u, v in sorted(g.edges):
        partial = [
            grown
            for arcs in partial
            for grown in (arcs + ((u, v),), arcs + ((v, u),))
            if _is_acyclic(grown)
        ]
    return partial


# ---------------------------------------------------------------- compositions


def _block_sequences(mask: int, keep):
    """Every sequence of disjoint blocks covering mask, each a nonempty
    submask that passes keep."""
    if not mask:
        yield ()
        return
    # Choose the first block as any nonempty submask, recurse on the rest.
    first = mask
    while first:
        if keep(first):
            for tail in _block_sequences(mask ^ first, keep):
                yield (first,) + tail
        first = (first - 1) & mask


def _refining_payloads(masks):
    """The payloads of all compositions below the one with these block
    masks, in enumeration order: each block split into its own composition,
    concatenated in block order."""
    per_block = [list(_block_sequences(b, bool)) for b in masks]
    for choice in product(*per_block):
        yield tuple(b for piece in choice for b in piece)


# ---------------------------------------------------------------- partitions


def _block_sets(mask: int, keep):
    """Every set of disjoint blocks covering mask, each passing keep: the
    first block is the lowest bit plus any submask of the rest."""
    if not mask:
        yield ()
        return
    low = mask & -mask
    rest = sub = mask ^ low
    while True:
        if keep(low | sub):
            for tail in _block_sets(rest ^ sub, keep):
                yield (low | sub,) + tail
        if not sub:
            return
        sub = (sub - 1) & rest


@lru_cache(maxsize=None)
def _refinements(masks) -> tuple[tuple[int, ...], ...]:
    """The refinement lattice below the partition with these block masks:
    the payloads of all partitions below it, each block partitioned
    independently.  The masks are process-wide, so the lattice depends on
    them alone and is cached per partition; it is listed in enumeration
    order, not literal order."""
    per_block = [tuple(_block_sets(b, bool)) for b in masks]
    return tuple(
        tuple(sorted([b for piece in c for b in piece])) for c in product(*per_block)
    )


# ---------------------------------------------------------------- flats


def is_flat(g: Graph, edges) -> bool:
    """A flat is an edge set closed under connectivity: every g-edge inside
    one of its components already belongs to it."""
    es = frozenset(edges)
    if not es <= g.edges:
        raise InputError("not a subset of the graph's edges")
    comp = components_partition(g.vertices, es)
    return g._edges_inside([_mask_of(b) for b in comp]) == es


def is_matching(edges) -> bool:
    seen: set[str] = set()
    for u, v in edges:
        if u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


def _edge_sets(g: Graph, keep) -> list[frozenset]:
    """The edges inside the blocks of each partition of g into blocks that
    pass keep, sorted by literal."""
    out = [g._edges_inside(p) for p in _block_sets(g.mask, keep)]
    out.sort(key=_edges_literal)
    return out


def flats(g: Graph) -> list[frozenset]:
    """All flats of g as edge sets: the edges inside the blocks of each
    partition of g into connected blocks."""
    return _edge_sets(g, g._connected)


def matchings(g: Graph) -> list[frozenset]:
    """All matchings of g as edge sets: the edges inside the blocks of each
    partition of g into single vertices and edges."""
    return _edge_sets(g, lambda b: b.bit_count() <= 2 and g._connected(b))


# ---------------------------------------------------------------- counting


def bell_number(n: int) -> int:
    """Bell number via the Bell triangle (independent of the enumerators)."""
    if n < 0:
        raise InputError(f"no Bell number of {n}")
    if n == 0:
        return 1
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def fubini_number(n: int) -> int:
    """Ordered Bell number via the double-sum recurrence."""
    if n < 0:
        raise InputError(f"no Fubini number of {n}")
    memo = [1]
    for m in range(1, n + 1):
        memo.append(sum(comb(m, k) * memo[m - k] for k in range(1, m + 1)))
    return memo[n]
