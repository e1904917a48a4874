"""Free Z[q,t]-modules over basis keys: one module per context.

Every value a structure map produces is a formal linear combination of
basis keys, stored as a map from key to nonzero QTPolynomial coefficient.
The context tuple names the module it lives in: an Element has context
(monoid, graph) and combines keys of one monoid's basis on one graph; a
TensorElement has context (monoid, left_graph, right_graph) and combines
pairs of keys on a pair of induced subgraphs.  Both share one
implementation of the module operations.  Zero coefficients are dropped
everywhere, so equality of term maps is equality of elements; arithmetic
across different contexts is an input error.

`qtpoly._accumulate` is the one place where (key, coefficient) pairs are
merged into a term map; every structure map builds its result through it.
`_element` is the one place where an exponent map {(key, qe, te): int},
the form every antipode route computes, becomes an Element.
"""

from __future__ import annotations

from .errors import InputError
from .graphs import Graph
from .keys import BasisKey
from .qtpoly import QTPolynomial, _accumulate


def _coeff(c) -> QTPolynomial:
    if isinstance(c, QTPolynomial):
        return c
    if isinstance(c, int):
        return QTPolynomial.const(c)
    raise InputError(f"bad coefficient {c!r}")


def _merged(terms) -> dict:
    """The term map of a dict or an iterable of (key, coefficient) pairs."""
    if not terms:
        return {}
    if isinstance(terms, dict):
        terms = terms.items()
    return _accumulate({}, ((k, _coeff(c)) for k, c in terms))


class _LinearCombination:
    """A finite Z[q,t]-combination of keys in the module named by `context`."""

    __slots__ = ("context", "terms")

    @classmethod
    def zero(cls, *context):
        return cls(*context)

    def _like(self, terms: dict):
        # same module, terms already merged
        out = type(self)(*self.context)
        out.terms = terms
        return out

    @property
    def monoid(self) -> str:
        return self.context[0]

    # ------------------------------------------------------------ arithmetic

    def _check_context(self, other: "_LinearCombination"):
        if self.context != other.context:
            raise InputError(f"context mismatch: {self.context} vs {other.context}")

    def __add__(self, other):
        if not isinstance(other, _LinearCombination):
            return NotImplemented
        self._check_context(other)
        return self._like(_accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = _coeff(c)
        if not c:
            return self._like({})
        return self._like({k: v for k, v in ((k, v * c) for k, v in self.terms.items()) if v})

    __rmul__ = scale

    def __eq__(self, other):
        return (
            isinstance(other, _LinearCombination)
            and self.context == other.context
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, key) -> QTPolynomial:
        return self.terms.get(key, QTPolynomial.zero())

    def specialize(self, q_one: bool = False, t_one: bool = False):
        return type(self)(
            *self.context,
            ((k, c.specialize(q_one, t_one)) for k, c in self.terms.items()),
        )

    def __repr__(self):
        return f"{type(self).__name__}[{self.monoid}]({self})"


class Element(_LinearCombination):
    __slots__ = ()

    def __init__(self, monoid: str, graph: Graph, terms=()):
        self.context = (monoid, graph)
        self.terms = _merged(terms)

    @property
    def graph(self) -> Graph:
        return self.context[1]

    @staticmethod
    def of(monoid: str, graph: Graph, key: BasisKey, coeff=1) -> "Element":
        return Element(monoid, graph, [(key, coeff)])

    def items(self):
        """Terms in canonical order (sorted by key literal)."""
        return sorted(self.terms.items(), key=lambda kv: kv[0].literal())

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c}) {k.literal()}" for k, c in self.items())


def _element(mid: str, g: Graph, sums: dict) -> Element:
    """The Element of an exponent map {(key, qe, te): nonzero int}: one
    `QTPolynomial` per key, built from its terms with no polynomial
    arithmetic."""
    by_key: dict = {}
    for (k, qe, te), c in sums.items():
        by_key.setdefault(k, {})[qe, te] = c
    return Element(mid, g, ((k, QTPolynomial(ts)) for k, ts in by_key.items()))


class TensorElement(_LinearCombination):
    __slots__ = ()

    def __init__(self, monoid: str, left_graph: Graph, right_graph: Graph, terms=()):
        self.context = (monoid, left_graph, right_graph)
        self.terms = _merged(terms)

    @property
    def left_graph(self) -> Graph:
        return self.context[1]

    @property
    def right_graph(self) -> Graph:
        return self.context[2]

    def items(self):
        return sorted(
            self.terms.items(), key=lambda kv: (kv[0][0].literal(), kv[0][1].literal())
        )

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"({c}) {l.literal()} (x) {r.literal()}" for (l, r), c in self.items()
        )


def linear_extend(f, x: _LinearCombination):
    """Extend a key-level map linearly: the sum of coeff * f(key) over the
    terms of x.  Every f(key) must lie in x's own context, which also holds
    the result (the zero input maps to the zero of that context).  The terms
    are summed into one term map."""
    terms: dict = {}
    for k, c in x.terms.items():
        y = f(k)
        x._check_context(y)
        _accumulate(terms, ((k2, c2 * c) for k2, c2 in y.terms.items()))
    return x._like(terms)
