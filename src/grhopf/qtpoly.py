"""Exact arithmetic in Z[q, t], the coefficient ring of every structure map.

A polynomial is stored as a map from (q-exponent, t-exponent) to a nonzero
integer coefficient; the zero polynomial is the empty map.  Exponents are
nonnegative.  Python integers keep every coefficient exact at any size.
Instances are immutable and hash as they compare (a constant equals and
hashes as its integer), so they can key dicts and be compared for exact
equality.

`_accumulate` merges (key, coefficient) pairs into a term map, dropping
what cancels.  Polynomial construction, sums and products build their
exponent maps through it, and `elements` its key maps.
"""

from __future__ import annotations


def _accumulate(terms: dict, pairs) -> dict:
    """Add each (key, coefficient) pair into `terms`, dropping keys whose
    coefficient cancels to zero; returns `terms`."""
    for k, c in pairs:
        acc = terms.get(k)
        acc = c if acc is None else acc + c
        if acc:
            terms[k] = acc
        elif k in terms:
            del terms[k]
    return terms


class QTPolynomial:
    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else list(terms)
        for (qe, te), _c in items:
            if qe < 0 or te < 0:
                raise ValueError("exponents must be nonnegative")
        self._terms = _accumulate({}, items)

    # ------------------------------------------------------------ constructors

    @staticmethod
    def zero() -> "QTPolynomial":
        return _ZERO

    @staticmethod
    def one() -> "QTPolynomial":
        return _ONE

    @staticmethod
    def const(c: int) -> "QTPolynomial":
        if c == 0:
            return _ZERO
        if c == 1:
            return _ONE
        return QTPolynomial([((0, 0), c)])

    @staticmethod
    def monomial(qe: int, te: int, c: int = 1) -> "QTPolynomial":
        """c * q^qe * t^te; with c = 1, one shared instance per exponent pair."""
        if c != 1:
            return QTPolynomial([((qe, te), c)])
        out = _MONOMIALS.get((qe, te))
        if out is None:
            out = _MONOMIALS[(qe, te)] = QTPolynomial([((qe, te), 1)])
        return out

    # ------------------------------------------------------------ inspection

    def terms(self):
        """Canonical term list: ((qe, te), coeff) sorted by exponent pair."""
        return tuple(sorted(self._terms.items()))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, QTPolynomial):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == QTPolynomial.const(other)._terms
        return NotImplemented

    def __hash__(self):
        # a constant equals its integer, so it hashes as that integer
        if self._terms.keys() <= {(0, 0)}:
            return hash(self._terms.get((0, 0), 0))
        return hash(frozenset(self._terms.items()))

    # ------------------------------------------------------------ arithmetic

    @staticmethod
    def _coerce(other):
        if isinstance(other, QTPolynomial):
            return other
        if isinstance(other, int):
            return QTPolynomial.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = QTPolynomial.__new__(QTPolynomial)
        out._terms = _accumulate(dict(self._terms), o._terms.items())
        return out

    __radd__ = __add__

    def __neg__(self):
        out = QTPolynomial.__new__(QTPolynomial)
        out._terms = {k: -c for k, c in self._terms.items()}
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self._terms or not o._terms:
            return _ZERO
        out = QTPolynomial.__new__(QTPolynomial)
        out._terms = _accumulate(
            {},
            (
                ((q1 + q2, t1 + t2), c1 * c2)
                for (q1, t1), c1 in self._terms.items()
                for (q2, t2), c2 in o._terms.items()
            ),
        )
        return out

    __rmul__ = __mul__

    # ------------------------------------------------------------ maps

    def evaluate(self, q_value, t_value):
        """Value at a point; exact for int/Fraction arguments."""
        total = 0
        for (qe, te), c in self._terms.items():
            total += c * q_value**qe * t_value**te
        return total

    def specialize(self, q_one: bool = False, t_one: bool = False) -> "QTPolynomial":
        """Substitute q=1 and/or t=1, staying inside Z[q, t]."""
        if not (q_one or t_one):
            return self
        return QTPolynomial(
            (((0 if q_one else qe), (0 if t_one else te)), c)
            for (qe, te), c in self._terms.items()
        )

    def swap_qt(self) -> "QTPolynomial":
        """The image under exchanging q and t."""
        return QTPolynomial((((te, qe), c) for (qe, te), c in self._terms.items()))

    # ------------------------------------------------------------ printing

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for (qe, te), c in sorted(self._terms.items(), reverse=True):
            body = "*".join(
                ([f"q^{qe}" if qe > 1 else "q"] if qe else [])
                + ([f"t^{te}" if te > 1 else "t"] if te else [])
            )
            if not body:
                frag = str(abs(c))
            elif abs(c) == 1:
                frag = body
            else:
                frag = f"{abs(c)}*{body}"
            if not parts:
                parts.append(frag if c > 0 else f"-{frag}")
            else:
                parts.append(f"+ {frag}" if c > 0 else f"- {frag}")
        return " ".join(parts)

    def __repr__(self):
        return f"QTPolynomial({self})"


_ZERO = QTPolynomial()
_ONE = QTPolynomial([((0, 0), 1)])
# the unit-coefficient monomials handed out so far; instances are immutable,
# so every caller may share one
_MONOMIALS: dict[tuple[int, int], QTPolynomial] = {(0, 0): _ONE}

ZERO = _ZERO
ONE = _ONE
Q = QTPolynomial.monomial(1, 0)
T = QTPolynomial.monomial(0, 1)
