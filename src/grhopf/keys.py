"""Tagged basis keys for the combinatorial bases.

Each monoid draws its basis from one key kind: linear orders, acyclic
orientations, set compositions, set partitions (m or p tag), flats or
matchings (M or P tag), or the single unit key.

A key is its class and one payload slot: `BasisKey` defines equality,
hashing and repr from that pair once, and each key class only
canonicalizes its payload in `__init__` and emits its literal.  The payload
reads under its own name (`seq`, `arcs`, `blocks`, `edges`).  A set
composition and a set partition are the same data, a tuple of sorted label
tuples; a partition's blocks are sorted too.
Constructors canonicalize but never check, because the structure maps build
keys on every hot path; validity is checked once where keys enter the
program: `parse_key` refuses malformed literals, and the structure
catalog's `validate_key` refuses a key that is not a basis key of the graph.

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
from .graphs import _partition_blocks, edge_pair


class BasisKey:
    """A canonical payload tagged by its key class; subclasses set
    `_payload` and `_hash` in `__init__`."""

    __slots__ = ("_payload", "_hash")
    kind: str = ""

    def literal(self) -> str:
        raise NotImplementedError

    def __eq__(self, other):
        return type(other) is type(self) and self._payload == other._payload

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<{self.kind} {self.literal()}>"


class LinearOrder(BasisKey):
    __slots__ = ()
    kind = "order"
    seq = BasisKey._payload

    def __init__(self, seq):
        self.seq = seq = tuple(seq)
        self._hash = hash(("order", seq))

    def literal(self):
        return "<".join(self.seq) if self.seq else "()"


class AcyclicOrientation(BasisKey):
    __slots__ = ()
    kind = "orientation"
    arcs = BasisKey._payload  # (tail, head) pairs

    def __init__(self, arcs):
        self.arcs = arcs = frozenset(arcs)
        self._hash = hash(("orientation", arcs))

    def literal(self):
        if not self.arcs:
            return "()"
        return ",".join(f"{u}>{v}" for u, v in sorted(self.arcs))


class SetCompositionKey(BasisKey):
    __slots__ = ()
    kind = "composition"
    blocks = BasisKey._payload  # tuple of sorted label tuples

    def __init__(self, blocks):
        self.blocks = blocks = tuple([tuple(sorted(b)) for b in blocks])
        self._hash = hash(("composition", blocks))

    def literal(self):
        return _blocks_literal(self.blocks, "|")


class _PartitionKey(BasisKey):
    __slots__ = ()
    blocks = BasisKey._payload  # sorted tuple of sorted label tuples

    def __init__(self, blocks):
        self.blocks = blocks = _partition_blocks(blocks)
        self._hash = hash((self.kind, blocks))

    def literal(self):
        return _blocks_literal(self.blocks, "/")


def _blocks_literal(blocks, sep: str) -> str:
    """The literal of the composition ("|") or partition ("/") on blocks."""
    return sep.join(",".join(b) for b in blocks) if blocks else "()"


class PartitionM(_PartitionKey):
    __slots__ = ()
    kind = "partition_m"


class PartitionP(_PartitionKey):
    __slots__ = ()
    kind = "partition_p"


class _EdgeSetKey(BasisKey):
    __slots__ = ()
    edges = BasisKey._payload  # frozenset of sorted endpoint pairs

    def __init__(self, edges):
        self.edges = edges = frozenset((u, v) if u < v else (v, u) for u, v in edges)
        self._hash = hash((self.kind, edges))

    def literal(self):
        return _edges_literal(self.edges)


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
    __slots__ = ()
    kind = "unit"

    def __init__(self):
        self._payload = None
        self._hash = hash("unit-key")

    def literal(self):
        return "unit"


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
    """Parse a canonical key literal of the given kind, refusing repeated
    labels and loops."""
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
        key = LinearOrder(_split_labels(text, "<") if text else ())
        if len(set(key.seq)) != len(key.seq):
            raise InputError(f"repeated label in order {key.seq!r}")
        return key
    if kind == "orientation":
        arcs = []
        if text:
            for tok in _split_labels(text, ","):
                u, _, v = tok.partition(">")
                u, v = u.strip(), v.strip()
                if not u or not v:
                    raise InputError(f"cannot parse arc {tok!r}: use tail>head")
                arcs.append((u, v))
        loop = next((u for u, v in arcs if u == v), None)
        if loop is not None:
            raise InputError(f"loop arc at {loop!r}")
        return AcyclicOrientation(arcs)
    if kind in ("composition", "partition_m", "partition_p"):
        composition = kind == "composition"
        parts = _split_labels(text, "|" if composition else "/") if text else []
        blocks = [sorted(_split_labels(b, ",")) for b in parts]
        # report the first repeat in the literal's own block order
        seen: set[str] = set()
        for v in (v for b in blocks for v in b):
            if v in seen:
                where = "twice in composition" if composition else "in two blocks"
                raise InputError(f"label {v!r} appears {where}")
            seen.add(v)
        return _KIND_CLASSES[kind](blocks)
    # flats and matchings
    edges = [_parse_edge_token(tok) for tok in _split_labels(text, ",")] if text else []
    return _KIND_CLASSES[kind]([edge_pair(u, v) for u, v in edges])
