"""Tagged basis keys for the combinatorial bases.

Each monoid draws its basis from one key kind: linear orders, acyclic
orientations, set compositions, set partitions (m or p tag), flats or
matchings (M or P tag), or the single unit key.  Keys store pure
combinatorial payload; validity against a particular graph is checked by
the structure catalog, not here.

Canonical literals (also the CLI grammar)::

    order        a<b<c
    orientation  a>b,b>c          (tail>head pairs)
    composition  a,b|c
    partition    a,b/c
    flat         a-b,b-c          (input may abbreviate 1-char labels: ab,bc)
    unit         unit
    empty        ()               (any empty structure)
"""

from __future__ import annotations

from .errors import InputError
from .graphs import VertexPartition, edge_pair


class BasisKey:
    __slots__ = ()
    kind: str = ""

    def literal(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<{self.kind} {self.literal()}>"


class LinearOrder(BasisKey):
    __slots__ = ("seq", "_hash")
    kind = "order"

    def __init__(self, seq):
        self.seq = tuple(seq)
        if len(set(self.seq)) != len(self.seq):
            raise InputError(f"repeated label in order {self.seq!r}")
        self._hash = hash(("order", self.seq))

    def literal(self):
        return "<".join(self.seq) if self.seq else "()"

    def __eq__(self, other):
        return isinstance(other, LinearOrder) and self.seq == other.seq

    def __hash__(self):
        return self._hash


class AcyclicOrientation(BasisKey):
    __slots__ = ("arcs", "_hash")
    kind = "orientation"

    def __init__(self, arcs):
        pairs = set()
        for u, v in arcs:
            if u == v:
                raise InputError(f"loop arc at {u!r}")
            pairs.add((u, v))
        self.arcs = frozenset(pairs)
        self._hash = hash(("orientation", self.arcs))

    def literal(self):
        if not self.arcs:
            return "()"
        return ",".join(f"{u}>{v}" for u, v in sorted(self.arcs))

    def __eq__(self, other):
        return isinstance(other, AcyclicOrientation) and self.arcs == other.arcs

    def __hash__(self):
        return self._hash


class SetCompositionKey(BasisKey):
    __slots__ = ("blocks", "_hash")
    kind = "composition"

    def __init__(self, blocks):
        canon = []
        seen: set[str] = set()
        for b in blocks:
            bb = tuple(sorted(b))
            if not bb:
                raise InputError("empty block in composition")
            for v in bb:
                if v in seen:
                    raise InputError(f"label {v!r} appears twice in composition")
                seen.add(v)
            canon.append(bb)
        self.blocks = tuple(canon)
        self._hash = hash(("composition", self.blocks))

    def literal(self):
        if not self.blocks:
            return "()"
        return "|".join(",".join(b) for b in self.blocks)

    def __eq__(self, other):
        return isinstance(other, SetCompositionKey) and self.blocks == other.blocks

    def __hash__(self):
        return self._hash


class _PartitionKey(BasisKey):
    __slots__ = ("partition", "_hash")

    def __init__(self, partition):
        if not isinstance(partition, VertexPartition):
            partition = VertexPartition(partition)
        self.partition = partition
        self._hash = hash((self.kind, partition))

    def literal(self):
        return str(self.partition)

    def __eq__(self, other):
        return type(other) is type(self) and self.partition == other.partition

    def __hash__(self):
        return self._hash


class PartitionM(_PartitionKey):
    __slots__ = ()
    kind = "partition_m"


class PartitionP(_PartitionKey):
    __slots__ = ()
    kind = "partition_p"


class _EdgeSetKey(BasisKey):
    __slots__ = ("edges", "_hash")

    def __init__(self, edges):
        self.edges = frozenset(edge_pair(u, v) for u, v in edges)
        self._hash = hash((self.kind, self.edges))

    def literal(self):
        return _edges_literal(self.edges)

    def __eq__(self, other):
        return type(other) is type(self) and self.edges == other.edges

    def __hash__(self):
        return self._hash


def _edges_literal(edges) -> str:
    """The literal of the flat or matching key on an edge set."""
    return ",".join(f"{u}-{v}" for u, v in sorted(edges)) if edges else "()"


class FlatM(_EdgeSetKey):
    __slots__ = ()
    kind = "flat_m"


class FlatP(_EdgeSetKey):
    __slots__ = ()
    kind = "flat_p"


class MatchingM(_EdgeSetKey):
    __slots__ = ()
    kind = "matching_m"


class MatchingP(_EdgeSetKey):
    __slots__ = ()
    kind = "matching_p"


class UnitKey(BasisKey):
    __slots__ = ("_hash",)
    kind = "unit"

    def __init__(self):
        self._hash = hash("unit-key")

    def literal(self):
        return "unit"

    def __eq__(self, other):
        return isinstance(other, UnitKey)

    def __hash__(self):
        return self._hash


# ---------------------------------------------------------------- literals

_KIND_CLASSES = {
    cls.kind: cls
    for cls in (
        LinearOrder,
        AcyclicOrientation,
        SetCompositionKey,
        PartitionM,
        PartitionP,
        FlatM,
        FlatP,
        MatchingM,
        MatchingP,
        UnitKey,
    )
}


def _split_labels(text, sep):
    parts = [p.strip() for p in text.split(sep)]
    if any(not p for p in parts):
        raise InputError(f"empty label in key literal {text!r}")
    return parts


def _parse_edge_token(tok):
    tok = tok.strip()
    if "-" in tok:
        u, _, v = tok.partition("-")
        u, v = u.strip(), v.strip()
    elif len(tok) == 2:
        u, v = tok[0], tok[1]
    else:
        raise InputError(
            f"cannot parse edge {tok!r}: use u-v, or uv for 1-char labels"
        )
    if not u or not v:
        raise InputError(f"cannot parse edge {tok!r}")
    return u, v


def parse_key(kind: str, text: str) -> BasisKey:
    """Parse a canonical key literal of the given kind."""
    if kind not in _KIND_CLASSES:
        raise InputError(f"unknown key kind {kind!r}")
    text = text.strip()
    if kind == "unit":
        if text not in ("unit", "()"):
            raise InputError(f"the unit key literal is 'unit', got {text!r}")
        return UnitKey()
    if text == "()":
        text = ""
    if kind == "order":
        return LinearOrder(_split_labels(text, "<") if text else ())
    if kind == "orientation":
        arcs = []
        if text:
            for tok in _split_labels(text, ","):
                u, _, v = tok.partition(">")
                u, v = u.strip(), v.strip()
                if not u or not v:
                    raise InputError(f"cannot parse arc {tok!r}: use tail>head")
                arcs.append((u, v))
        return AcyclicOrientation(arcs)
    if kind == "composition":
        blocks = [_split_labels(b, ",") for b in _split_labels(text, "|")] if text else []
        return SetCompositionKey(blocks)
    if kind in ("partition_m", "partition_p"):
        blocks = [_split_labels(b, ",") for b in _split_labels(text, "/")] if text else []
        return _KIND_CLASSES[kind](VertexPartition(blocks))
    # flats and matchings
    edges = [_parse_edge_token(tok) for tok in _split_labels(text, ",")] if text else []
    return _KIND_CLASSES[kind](edges)

