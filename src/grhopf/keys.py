"""Tagged basis keys for the combinatorial bases.

Each monoid draws its basis from one key kind: linear orders, acyclic
orientations, set compositions, set partitions (m or p tag), flats or
matchings (M or P tag), or the single unit key.

A key is its class and one payload slot.  `BasisKey._of(payload)`, the
one construction path, returns the one key per class and payload (an
unpickled key too), so equal keys are one object and compare and hash by
identity.  Each key class builds its payload in `__new__` and emits its
literal.

The vertex-set keys (orders, compositions, partitions) hold vertex masks
over the process-wide label map of `graphs`, under the name `masks`: an
order is the tuple of its single-bit masks, a composition the tuple of its
block masks, and a partition the sorted tuple of its block masks.  The
basis cache and structure maps build them from masks through `_of`,
which skips the label constructor.  Labels come back only at the
boundary: literals, the `seq` and `blocks` label views, and pickles all
decode the masks.  The edge-set keys (`arcs`, `edges`) hold frozensets of
label pairs, so their literals and the basis-change tables keyed on them
do not depend on a graph; the structure maps cut them with frozenset `&`
and `|` against edge sets cached per graph and vertex mask (see
`monoids`), never pair by pair.

A mask cannot hold a label twice, so the label constructors of the
vertex-set keys refuse a repeated label through `graphs._block_masks`,
with `parse_key`'s messages, naming the first repeat in the order given.
The orientation and edge-set constructors likewise refuse a repeated arc
or edge, an edge counted after `b-a` becomes `a-b`, so a literal never
collapses into a smaller key.  No hot path calls a constructor: the
structure maps build keys through `_of`.  The unit constructor checks
nothing.  The rest is checked once where keys enter the program:
`parse_key` refuses malformed literals and loops, and the structure
catalog's `validate_key` refuses a key that is not a basis key of the
graph, such as one with an empty block.

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
from .graphs import _bit_labels, _block_masks, _label_bit, _labels_of, edge_pair


class BasisKey:
    """A canonical payload tagged by its key class, one key per payload."""

    __slots__ = ("_payload",)
    kind: str = ""

    def __init_subclass__(cls):
        # payload -> key, per class.  The tables only grow, like the label
        # map: a weak table that let unused keys go kept memory flat but
        # cost more time than it saved.
        cls._keys = {}

    @classmethod
    def _of(cls, payload):
        """The key on an already canonical payload: the one construction
        path, and how the structure maps build keys from masks."""
        key = cls._keys.get(payload)
        if key is None:
            key = cls._keys[payload] = object.__new__(cls)
            key._payload = payload
        return key

    def __reduce__(self):
        return self._of, (self._payload,)

    def literal(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<{self.kind} {self.literal()}>"


class LinearOrder(BasisKey):
    __slots__ = ()
    kind = "order"
    masks = BasisKey._payload  # the single-bit mask of each position

    def __new__(cls, seq):
        seq = tuple(seq)
        masks = tuple([_label_bit(v) for v in seq])
        if len(set(masks)) != len(masks):
            raise InputError(f"repeated label in order {seq!r}")
        return cls._of(masks)

    @property
    def seq(self) -> tuple[str, ...]:
        return _bit_labels(self.masks)

    def __reduce__(self):
        return LinearOrder, (self.seq,)

    def literal(self):
        return "<".join(self.seq) if self.masks else "()"


class AcyclicOrientation(BasisKey):
    __slots__ = ()
    kind = "orientation"
    arcs = BasisKey._payload  # (tail, head) pairs

    def __new__(cls, arcs):
        return cls._of(_distinct(arcs, "arc {}>{} appears twice in orientation"))

    def literal(self):
        if not self.arcs:
            return "()"
        return ",".join(f"{u}>{v}" for u, v in sorted(self.arcs))


def _distinct(pairs, message: str) -> frozenset:
    """The set of the arcs or edges in pairs, refusing the first one met
    twice with message formatted with its two ends."""
    seen = set()
    for p in pairs:
        if p in seen:
            raise InputError(message.format(*p))
        seen.add(p)
    return frozenset(seen)


class _BlocksKey(BasisKey):
    """A key on a tuple of block masks: a composition or a partition."""

    __slots__ = ()

    @property
    def blocks(self) -> tuple[tuple[str, ...], ...]:
        """The blocks as sorted label tuples, in the literal's order."""
        return tuple(map(_labels_of, self.masks))

    def __reduce__(self):
        return type(self), (self.blocks,)


class SetCompositionKey(_BlocksKey):
    __slots__ = ()
    kind = "composition"
    masks = BasisKey._payload  # block masks in composition order

    def __new__(cls, blocks):
        return cls._of(tuple(_block_masks(blocks, "twice in composition")))

    def literal(self):
        return _blocks_literal(self.blocks, "|")


class _PartitionKey(_BlocksKey):
    __slots__ = ()
    masks = BasisKey._payload  # sorted block masks

    def __new__(cls, blocks):
        masks = _block_masks(blocks, "in two blocks", "twice in one block")
        return cls._of(tuple(sorted(masks)))

    @property
    def blocks(self) -> tuple[tuple[str, ...], ...]:
        return tuple(sorted(super().blocks))

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

    def __new__(cls, edges):
        noun = cls.kind.partition("_")[0]  # flat or matching
        pairs = ((u, v) if u < v else (v, u) for u, v in edges)
        return cls._of(_distinct(pairs, f"edge {{}}-{{}} appears twice in {noun}"))

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

    def __new__(cls):
        return cls._of(None)

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
        loop = next((u for u, v in arcs if u == v), None)
        if loop is not None:
            raise InputError(f"loop arc at {loop!r}")
        return AcyclicOrientation(arcs)
    if kind in ("composition", "partition_m", "partition_p"):
        parts = _split_labels(text, "|" if kind == "composition" else "/") if text else []
        # sorted blocks: the constructor names the first repeat in the
        # literal's own block order
        return _KIND_CLASSES[kind]([sorted(_split_labels(b, ",")) for b in parts])
    # flats and matchings
    edges = [_parse_edge_token(tok) for tok in _split_labels(text, ",")] if text else []
    return _KIND_CLASSES[kind]([edge_pair(u, v) for u, v in edges])
