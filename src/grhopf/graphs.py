"""Finite simple graphs with labeled vertices, set partitions of labels, and
the vertex bits that vertex-set keys are made of.

Vertices are distinct nonempty strings, kept sorted; edges are unordered
pairs stored as lexicographically sorted 2-tuples.  There is one graph per
vertex and edge set, which the constructor returns (an unpickled graph
too), so equal graphs are one object and compare and hash by identity.
Derived canonical forms (blocks, serializations) use label order.  A set
partition is a sorted tuple of sorted label tuples, its blocks.  A quotient
keeps each block's smallest label, which no other block can hold.

One process-wide label map gives every label the program meets its own bit,
in the order labels are first seen (a graph registers its vertices in the
order they are declared), so a vertex set is an int mask and has the same
mask on every graph that holds it.  The map only grows and never remaps a
bit, so a mask stays valid for the life of the process; bit order is not
label order, so every listing and literal decodes masks back to sorted
labels.  Masks never leave the process: graphs and keys pickle by labels.
A split of a graph's vertices is a pair of masks inside the program: the
private `Graph._induced` and `Graph._crossing` take masks, while the public
`induced` and `crossing_edges` take labels, check them and convert them.

The text format, one declaration per line::

    # comment
    v a
    v b
    e a b

Duplicate vertices or edges, loops, undeclared endpoints, and labels holding
a reserved character are hard parse errors carrying a line/column position.

Labels may not contain any of the characters `<>,|/-()#`: they separate
labels in key literals (`a<b`, `a>b`, `a,b|c`, `a,b/c`, `a-b`, `()`)
and start comments in the text format, so a label holding one would spell a
literal that parses back as a different key.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import GraphParseError, InputError

_RESERVED = frozenset("<>,|/-()#")


def _reserved_char(label: str) -> int:
    """Index of the first reserved character in label, or -1."""
    if _RESERVED.isdisjoint(label):
        return -1
    return next(i for i, ch in enumerate(label) if ch in _RESERVED)


def edge_pair(u: str, v: str) -> tuple[str, str]:
    """Canonical undirected edge: sorted endpoint pair, loops rejected."""
    if u == v:
        raise InputError(f"loop at {u!r}")
    return (u, v) if u < v else (v, u)


# ---------------------------------------------------------------- vertex bits

_BIT: dict[str, int] = {}  # label -> its single-bit mask
_LABEL: dict[int, str] = {}  # single-bit mask -> label
_MASK_LABELS: dict[int, tuple[str, ...]] = {}


def _label_bit(v: str) -> int:
    """The bit of a label, registering the label on first sight."""
    bit = _BIT.get(v)
    if bit is None:
        bit = _BIT[v] = 1 << len(_LABEL)
        _LABEL[bit] = v
    return bit


def _mask_of(labels) -> int:
    """The mask of some labels, registering new ones."""
    mask = 0
    for v in labels:
        mask |= _label_bit(v)
    return mask


def _bit_labels(bits) -> tuple[str, ...]:
    """The label of each single-bit mask, in order."""
    return tuple(map(_LABEL.__getitem__, bits))


def _labels_of(mask: int) -> tuple[str, ...]:
    """The sorted labels of a mask."""
    labels = _MASK_LABELS.get(mask)
    if labels is None:
        out = []
        rest = mask
        while rest:
            low = rest & -rest
            out.append(_LABEL[low])
            rest ^= low
        labels = _MASK_LABELS[mask] = tuple(sorted(out))
    return labels


# (sorted vertices, edge set) -> the one graph on them.  The table only
# grows, like the label map: the caches keyed on graphs keep them alive
# anyway, and a weak table that let graphs go cost more time than it saved.
_GRAPHS: dict[tuple, "Graph"] = {}


class Graph:
    __slots__ = ("vertices", "edges", "mask", "_vset", "_adj", "_root")

    def __new__(cls, vertices, edges=()):
        vset = set()
        mask = 0
        for v in vertices:
            if not isinstance(v, str) or not v or any(ch.isspace() for ch in v):
                raise InputError(f"bad vertex label {v!r}")
            at = _reserved_char(v)
            if at >= 0:
                raise InputError(
                    f"vertex label {v!r} contains the reserved character {v[at]!r}"
                )
            if v in vset:
                raise InputError(f"duplicate vertex {v!r}")
            vset.add(v)
            mask |= _label_bit(v)
        es = set()
        for e in edges:
            u, v = e
            if u not in vset or v not in vset:
                raise InputError(f"edge endpoint not a vertex: {e!r}")
            es.add(edge_pair(u, v))
        # a graph is its vertex set plus edge set; the listing order in which
        # vertices arrived is presentation only, so canonicalize it away
        key = (tuple(sorted(vset)), frozenset(es))
        g = _GRAPHS.get(key)
        if g is None:
            g = _GRAPHS[key] = object.__new__(cls)
            g.vertices, g.edges = key
            g.mask = mask
            g._vset = frozenset(vset)
            g._adj, g._root = None, g  # _root: the graph g was induced from
        return g

    def __reduce__(self):
        # by labels: the receiving process has its own bits and string hashes
        return Graph, (self.vertices, self.edges)

    def _adjacency(self) -> dict[int, int]:
        """Vertex bit -> mask of its neighbours, built on first use."""
        adj = self._adj
        if adj is None:
            adj = self._adj = {_BIT[v]: 0 for v in self.vertices}
            for u, v in self.edges:
                bu, bv = _BIT[u], _BIT[v]
                adj[bu] |= bv
                adj[bv] |= bu
        return adj

    def _independent(self, mask: int) -> bool:
        """Whether the vertices of mask span no edge."""
        adj = self._adjacency()
        rest = mask
        while rest:
            low = rest & -rest
            if adj[low] & mask:
                return False
            rest ^= low
        return True

    def _connected(self, mask: int) -> bool:
        """Whether the vertices of the nonempty mask span a connected
        subgraph: everything reached from its lowest bit inside mask."""
        adj = self._adjacency()
        seen = todo = mask & -mask
        while todo:
            low = todo & -todo
            new = adj[low] & mask & ~seen
            seen |= new
            todo = (todo ^ low) | new
        return seen == mask

    def _crossing(self, s: int, t: int) -> int:
        """The number of edges joining the disjoint submasks s and t."""
        adj = self._adjacency()
        count = 0
        while s:
            low = s & -s
            count += (adj[low] & t).bit_count()
            s ^= low
        return count

    def _induced(self, mask: int) -> "Graph":
        """The subgraph induced on the submask mask: g itself for its own
        mask, else the one cached on the graph g was induced from, so a
        corpus graph's subgraphs share one cache entry per mask."""
        return self if mask == self.mask else _subgraph(self._root, mask)

    def _edges_inside(self, masks) -> frozenset:
        """The edges with both ends in one of the blocks masks."""
        return frozenset(
            e for e in self.edges if any(_BIT[e[0]] & b and _BIT[e[1]] & b for b in masks)
        )

    # ------------------------------------------------------------ basics

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def vertex_set(self) -> frozenset:
        return self._vset

    def has_edge(self, u, v) -> bool:
        return edge_pair(u, v) in self.edges

    def __repr__(self):
        es = ",".join(f"{u}{v}" for u, v in sorted(self.edges))
        return f"Graph({','.join(self.vertices)};{es})"

    # ------------------------------------------------------------ operations

    def induced(self, subset) -> "Graph":
        s = frozenset(subset)
        if not s <= self._vset:
            raise InputError(f"not vertices of this graph: {sorted(s - self._vset)}")
        return self._induced(_mask_of(s))

    def complement(self) -> "Graph":
        return _complement(self)

    def quotient(self, blocks) -> "Graph":
        """Merge each block to one vertex labeled by its smallest label.

        The blocks must partition the vertex set, so two merged vertices
        never share a label.  Edges are set-semantic: parallel edges
        collapse, internal edges drop.
        """
        label = {}
        for b in blocks:
            bb = sorted(b)
            if not bb:
                raise InputError("empty block")
            for i, v in enumerate(bb):
                if v in label:
                    # sorted, so a repeat inside this block follows itself
                    where = "twice in one block" if i and bb[i - 1] == v else "in two blocks"
                    raise InputError(f"label {v!r} appears {where}")
                label[v] = bb[0]
        if label.keys() != self._vset:
            raise InputError("partition does not cover the vertex set")
        new_vertices = sorted({label[v] for v in self.vertices})
        new_edges = set()
        for u, v in self.edges:
            if label[u] != label[v]:
                new_edges.add(edge_pair(label[u], label[v]))
        return Graph(new_vertices, new_edges)

    def crossing_edges(self, S, T) -> int:
        """Number of edges with one endpoint in S and the other in T."""
        s, t = frozenset(S), frozenset(T)
        if s & t:
            raise InputError("S and T overlap")
        bad = (s | t) - self._vset
        if bad:
            raise InputError(f"not vertices of this graph: {sorted(bad)}")
        return self._crossing(_mask_of(s), _mask_of(t))

    # ------------------------------------------------------------ text format

    def to_text(self) -> str:
        lines = [f"v {v}" for v in self.vertices]
        lines += [f"e {u} {v}" for u, v in sorted(self.edges)]
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def from_text(text: str) -> "Graph":
        vertices: list[str] = []
        vset: set[str] = set()
        edges: set[tuple[str, str]] = set()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0]
            if not line.strip():
                continue
            tokens = line.split()
            col = raw.index(tokens[0]) + 1
            kind = tokens[0]
            if kind == "v":
                if len(tokens) != 2:
                    raise GraphParseError("expected: v <label>", lineno, col)
                v = tokens[1]
                at = _reserved_char(v)
                if at >= 0:
                    raise GraphParseError(
                        f"vertex label {v!r} contains the reserved character {v[at]!r}",
                        lineno,
                        raw.index(v, col + len(kind) - 1) + at + 1,
                    )
                if v in vset:
                    raise GraphParseError(f"duplicate vertex {v!r}", lineno, col)
                vertices.append(v)
                vset.add(v)
            elif kind == "e":
                if len(tokens) != 3:
                    raise GraphParseError("expected: e <a> <b>", lineno, col)
                a, b = tokens[1], tokens[2]
                if a == b:
                    raise GraphParseError(f"loop at {a!r}", lineno, col)
                for x in (a, b):
                    if x not in vset:
                        raise GraphParseError(f"undeclared endpoint {x!r}", lineno, col)
                e = edge_pair(a, b)
                if e in edges:
                    raise GraphParseError(f"duplicate edge {a!r} {b!r}", lineno, col)
                edges.add(e)
            else:
                raise GraphParseError(f"unknown declaration {kind!r}", lineno, col)
        return Graph(vertices, edges)


@lru_cache(maxsize=None)
def _subgraph(g: Graph, mask: int) -> Graph:
    sub = Graph(
        (v for v in g.vertices if _BIT[v] & mask),
        (e for e in g.edges if _BIT[e[0]] & mask and _BIT[e[1]] & mask),
    )
    sub._root = g
    return sub


def _complement(g: Graph) -> Graph:
    vs = sorted(g.vertices)
    non_edges = [
        (vs[i], vs[j])
        for i in range(len(vs))
        for j in range(i + 1, len(vs))
        if (vs[i], vs[j]) not in g.edges
    ]
    return Graph(g.vertices, non_edges)


def complete_graph(labels) -> Graph:
    vs = sorted(labels)
    return Graph(
        labels, [(vs[i], vs[j]) for i in range(len(vs)) for j in range(i + 1, len(vs))]
    )


def discrete_graph(labels) -> Graph:
    return Graph(labels, ())


# ---------------------------------------------------------------- partitions


def components_partition(vertices, edges) -> tuple[tuple[str, ...], ...]:
    """Connected components of (vertices, edges) as canonical blocks."""
    vs = list(vertices)
    vset = set(vs)
    parent = {v: v for v in vs}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        if u not in vset or v not in vset:
            raise InputError(f"edge endpoint not a vertex: {(u, v)!r}")
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[str, list[str]] = {}
    for v in vs:
        groups.setdefault(find(v), []).append(v)
    return tuple(sorted([tuple(sorted(b)) for b in groups.values()]))


# ---------------------------------------------------------------- chromatic


@lru_cache(maxsize=None)
def chromatic_polynomial(g: Graph) -> tuple[int, ...]:
    """Coefficients of the proper-coloring counting polynomial, index = power.

    Deletion-contraction with set-semantic contraction; independent of any
    orientation enumeration, so it can serve as a counting oracle.
    """
    if not g.edges:
        return (0,) * g.n + (1,)
    e = min(g.edges)
    deleted = Graph(g.vertices, g.edges - {e})
    merged = g.quotient([e] + [(v,) for v in g.vertices if v not in e])
    a = chromatic_polynomial(deleted)
    b = chromatic_polynomial(merged)
    size = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(size)
    )


def chromatic_value(g: Graph, x: int) -> int:
    coeffs = chromatic_polynomial(g)
    total = 0
    for c in reversed(coeffs):
        total = total * x + c
    return total
