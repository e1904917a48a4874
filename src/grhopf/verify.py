"""Mechanical verification harness.

Every algebraic law the package claims is rechecked here by brute force on
exhaustive corpora of small labeled graphs: bimonoid axioms, antipode method
agreement and convolution identities, (co)commutativity flavors, morphism
axioms and pasted diagrams, complementation functor identities, the
orientation-count/chromatic-polynomial identity, and basis-change round trips.

Products and coproducts come from one cached copy of each monoid in the
store of the graph's root (`monoids._store`), whose `product_key` and
`coproducts` (every non-vanishing split of a (subgraph, key), keyed by its
S mask) remember their values.  `check_bimonoid`, `check_commutativity`,
`check_antipode` and both ends of each route of `check_morphism` read it,
so each structure-map value of a graph is computed once across all its
checks; `run_suite` empties it when it returns.  The store holds
structure-map values only, never an antipode value or a verdict; the
antipode check's recursion memos and the morphism check's map memo are made
per check.  The bimonoid and morphism laws compare whole coproduct rows, or
maps built from them (coassociativity compares a key's two iterated
coproducts as maps over tripartitions), and only where they differ rank
the differences to name the first witness in the law's split and key
order; commutativity reads both directions of a split from one row.

Each check looks for a witness, its first counterexample, and `_record`
turns that witness (or None) into the check's `CheckRecord`.  `_splits`
gives every ordered bipartition of a graph as a pair of vertex masks with
both induced subgraphs; the checks hand those masks to the key-level maps,
and a witness names a split by its sorted labels (`_parts`).  The key-level
maps give each coefficient as its exponent pair (qe, te), so the checks add
exponents where a law multiplies monomials and compare tuples of integers;
a witness prints the pair as a `QTPolynomial` (`_coeff_str`).

Checks are grouped into named suites.  One table, `_SUITE_RECORDS`, maps
each concrete suite to its record builder, (monoid ids, graph, key cap) ->
(records, observed commutativity failures); `SUITES` is its keys in order,
then "all".  `run_suite` builds one work list per run: the corpus once, the
seeded sample of five-vertex graphs for the expensive suites once, and the
stanley suite's six-vertex samples only when that suite runs.  Each task is
a (suite, monoid ids, graph, key cap) tuple, which a worker process looks
up in the table by suite name.  `run_suite` returns a `VerificationReport`
holding one `CheckRecord` per (check, monoid, graph) triple; record order
is deterministic for a given (suite, n_max, seed), including under --jobs
parallelism.  Both are named tuples, so they compare, print and pickle by
their fields.
"""

from __future__ import annotations

import copy
import math
import os
import random
import time
from collections import namedtuple
from functools import lru_cache

from .antipode import (
    CLOSED_FORM_IDS,
    ORACLE_GATED_IDS,
    _closed_sums,
    _mm,
    _takeuchi_sums,
)
from .elements import Element, _accumulate, _element
from .enumerators import (
    _acyclic_arc_sets,
    _ordered_bipartitions,
    _ordered_tripartitions,
    bell_number,
)
from .errors import InputError
from .graphs import Graph, _labels_of, chromatic_value
from .monoids import (
    BASIS_PARTNER,
    MONOID_IDS,
    MONOIDS,
    _basis_cached,
    _braiding,
    _clear_store,
    _rebased,
    _store,
    get_monoid,
)
from .morphisms import DIAGRAMS, MORPHISMS, _along, get_morphism
from .qtpoly import QTPolynomial

MAX_CORPUS_N = 5

# suites whose per-graph cost explodes at n=5; they run on a seeded sample
# of 5-vertex graphs with a per-basis key cap instead of the full 1024
EXPENSIVE_SUITES = frozenset({"bimonoid", "antipode", "commutativity", "morphisms"})
SAMPLE_GRAPHS_5 = 16
KEY_CAP_5 = 8

# sub-monoids whose bases are proper subsets of an ambient basis; closure of
# the structure maps is a claim worth rechecking, not a tautology
CLOSURE_IDS = ("SSigma", "SPi_m", "SPi_p", "Match_M", "Match_P")

COMMUTATIVITY_FLAVORS = (
    "commutative_exact",
    "commutative_plain",
    "cocommutative_exact",
    "cocommutative_plain",
    "disjoint_commutative",
    "join_commutative",
)

# flavors that provably hold on every graph, per monoid
_ALL_FLAVORS = frozenset(COMMUTATIVITY_FLAVORS)
EXPECTED_ALWAYS: dict[str, frozenset[str]] = {
    "L": frozenset({"cocommutative_plain"}),
    "AO": frozenset({"cocommutative_plain", "disjoint_commutative"}),
    "Sigma": frozenset({"cocommutative_plain"}),
    "SSigma": frozenset({"cocommutative_plain"}),
    "Pi_m": _ALL_FLAVORS,
    "Pi_p": _ALL_FLAVORS,
    "SPi_m": _ALL_FLAVORS,
    "SPi_p": _ALL_FLAVORS,
    "FL_M": _ALL_FLAVORS,
    "FL_P": _ALL_FLAVORS,
    "Match_M": _ALL_FLAVORS,
    "Match_P": _ALL_FLAVORS,
    "E": _ALL_FLAVORS,
}

# monoids whose every commutativity flavor holds; their antipodes are
# involutions
COMMUTATIVE_FAMILY = tuple(
    mid for mid, flavors in EXPECTED_ALWAYS.items() if flavors == _ALL_FLAVORS
)

# flavors that fail on some corpus graph; the suite must find a witness
EXPECTED_FAILING: dict[str, frozenset[str]] = {
    mid: _ALL_FLAVORS - flavors for mid, flavors in EXPECTED_ALWAYS.items()
}


class CheckRecord(namedtuple("CheckRecord", "check monoid graph passed detail", defaults=[None])):
    __slots__ = ()
    # unhashable, as a dataclass with eq is: a record's detail and a
    # report's records are mutable
    __hash__ = None

    def to_json(self) -> dict:
        return self._asdict()


class VerificationReport(
    namedtuple(
        "VerificationReport",
        "suite n_max seed selection graph_count records wall_time_s",
        defaults=[None, 0.0],
    )
):
    __slots__ = ()
    __hash__ = None

    def __new__(cls, *args, **kwargs):
        # a report built without records gets a list of its own
        report = super().__new__(cls, *args, **kwargs)
        return report._replace(records=[]) if report.records is None else report

    @property
    def passed_count(self) -> int:
        return sum(1 for r in self.records if r.passed)

    @property
    def failed_count(self) -> int:
        return sum(1 for r in self.records if not r.passed)

    @property
    def ok(self) -> bool:
        return self.failed_count == 0

    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.passed]

    def to_json(self) -> dict:
        return {
            "schema": "grhopf.report/1",
            "suite": self.suite,
            "n_max": self.n_max,
            "seed": self.seed,
            "selection": list(self.selection),
            "graph_count": self.graph_count,
            "records": [r.to_json() for r in self.records],
            "summary": {
                "checks": len(self.records),
                "passed": self.passed_count,
                "failed": self.failed_count,
            },
            "wall_time_s": self.wall_time_s,
        }

    def summary_text(self) -> str:
        # deterministic: never includes timing
        lines = []
        for rec in self.failures():
            graph_one_line = rec.graph.replace("\n", "; ")
            lines.append(
                f"FAIL {rec.check} monoid={rec.monoid or '-'} graph=[{graph_one_line}]"
            )
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"suite={self.suite} n_max={self.n_max} graphs={self.graph_count} "
            f"checks={len(self.records)} passed={self.passed_count} "
            f"failed={self.failed_count} -> {verdict}"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# corpora


def corpus(n_max: int) -> list[Graph]:
    """All labeled graphs on vertex sets {v1..vn} for 0 <= n <= n_max."""
    if n_max < 0:
        raise InputError(f"n_max must be nonnegative, got {n_max}")
    if n_max > MAX_CORPUS_N:
        raise InputError(
            f"exhaustive corpus is capped at n_max={MAX_CORPUS_N} "
            f"({2 ** math.comb(MAX_CORPUS_N, 2)} graphs at n={MAX_CORPUS_N}); "
            f"use sampled_graphs for larger sizes"
        )
    graphs = []
    for n in range(n_max + 1):
        names = [f"v{i}" for i in range(1, n + 1)]
        pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
        for mask in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if (mask >> i) & 1]
            graphs.append(Graph(names, edges))
    return graphs


def sampled_graphs(n: int, count: int, seed: int) -> list[Graph]:
    """`count` seeded random graphs on {v1..vn}, edge probability 1/2."""
    if n < 0 or count < 0:
        raise InputError("n and count must be nonnegative")
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(1, n + 1)]
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    out = []
    for _ in range(count):
        out.append(Graph(names, [p for p in pairs if rng.random() < 0.5]))
    return out


def _capped_basis(mid: str, g: Graph, key_cap: int | None):
    # a tuple's slice covering all of it is the tuple itself
    return _basis_cached(mid, g)[:key_cap]


def _refuse_bad_cap(key_cap: int | None) -> None:
    """Refuse a key cap below 1, which would slice off the basis's last
    keys, or all of them, and let the check pass on what is left."""
    if key_cap is not None and key_cap < 1:
        raise InputError(f"key_cap must be positive, got {key_cap}")


def _record(check: str, subject: str, g: Graph, witness: dict | None) -> CheckRecord:
    """The record of one check on one graph, given the check's witness: its
    first counterexample, or None when it found none."""
    return CheckRecord(check, subject, g.to_text(), witness is None, witness)


def _splits(g: Graph) -> list[tuple[int, int, Graph, Graph]]:
    """Every ordered bipartition (S, T) of g as vertex masks, with the
    subgraphs they induce, in the order of `enumerators.ordered_bipartitions`."""
    return [(s, t, g._induced(s), g._induced(t)) for s, t in _ordered_bipartitions(g.mask)]


def _parts(*masks) -> list[list[str]]:
    """The sorted labels of each mask: how a witness names a split."""
    return [list(_labels_of(m)) for m in masks]


# ---------------------------------------------------------------------------
# bimonoid axioms


def _coeff_str(qe: int, te: int) -> str:
    """The monomial q^qe t^te as a witness prints it."""
    return str(QTPolynomial.monomial(qe, te))


def _tensor_str(t) -> str:
    """A (key, ..., key, qe, te) tuple as `(q^qe*t^te) k1 (x) k2 ...`; None
    is 0."""
    if t is None:
        return "0"
    return f"({_coeff_str(t[-2], t[-1])}) " + " (x) ".join(k.literal() for k in t[:-2])


def _least_difference(one: dict, other: dict, rank: dict):
    """The key, least by rank, at which two maps differ; a key missing from
    a map stands for None there."""
    return min(
        (k for k in one.keys() | other.keys() if one.get(k) != other.get(k)),
        key=rank.__getitem__,
    )


def _assoc_witness(spec, g: Graph, key_cap=None) -> dict | None:
    for a_set, b_set, c_set in _ordered_tripartitions(g.mask):
        ga, gb, gc = g._induced(a_set), g._induced(b_set), g._induced(c_set)
        gab = g._induced(a_set | b_set)
        gbc = g._induced(b_set | c_set)
        for x in _capped_basis(spec.id, ga, key_cap):
            for y in _capped_basis(spec.id, gb, key_cap):
                xy = spec.product_key(gab, a_set, b_set, x, y)
                for z in _capped_basis(spec.id, gc, key_cap):
                    left = spec.product_key(g, a_set | b_set, c_set, xy, z)
                    yz = spec.product_key(gbc, b_set, c_set, y, z)
                    right = spec.product_key(g, a_set, b_set | c_set, x, yz)
                    if left != right:
                        return {
                            "axiom": "associativity",
                            "parts": _parts(a_set, b_set, c_set),
                            "keys": [x.literal(), y.literal(), z.literal()],
                            "left": left.literal(),
                            "right": right.literal(),
                        }
    return None


def _coassoc_witness(spec, g: Graph, key_cap) -> dict | None:
    """Both iterated coproducts of each key, as maps from a tripartition
    (A, B, C) to (keys, qe, te) over the tripartitions where they do not
    vanish.  The witness is the least failing tripartition in
    `_ordered_tripartitions` order, then the least key in basis order."""
    full = g.mask
    least = None  # (tripartition rank, key, (A, B), both paths there)
    rank = None
    for key in _capped_basis(spec.id, g, key_cap):
        row = spec.coproducts(g, key)
        # split off A first, then cut B|C; a tripartition is keyed by (A, B)
        first_then_rest = {
            (a, b): (ka, kb, kc, q1 + q2, t1 + t2)
            for a, (ka, k_bc, q1, t1) in row.items()
            for b, (kb, kc, q2, t2) in spec.coproducts(g._induced(full ^ a), k_bc).items()
        }
        # cut C off first, then split A|B
        rest_then_first = {
            (a, ab ^ a): (ka, kb, kc, q1 + q2, t1 + t2)
            for ab, (k_ab, kc, q1, t1) in row.items()
            for a, (ka, kb, q2, t2) in spec.coproducts(g._induced(ab), k_ab).items()
        }
        if first_then_rest == rest_then_first:
            continue
        if rank is None:
            rank = {(a, b): i for i, (a, b, _) in enumerate(_ordered_tripartitions(full))}
        ab = _least_difference(first_then_rest, rest_then_first, rank)
        if least is None or rank[ab] < least[0]:
            least = (rank[ab], key, ab, first_then_rest.get(ab), rest_then_first.get(ab))
    if least is None:
        return None
    _, key, (a, b), path1, path2 = least
    return {
        "axiom": "coassociativity",
        "parts": _parts(a, b, full ^ a ^ b),
        "key": key.literal(),
        "path_first_then_rest": _tensor_str(path1),
        "path_rest_then_first": _tensor_str(path2),
    }


def _unit_counit_witness(spec, g: Graph, key_cap) -> dict | None:
    empty = 0
    full = g.mask
    e_key = spec.empty_key()
    for key in _capped_basis(spec.id, g, key_cap):
        if spec.product_key(g, empty, full, e_key, key) != key:
            return {"axiom": "left_unit", "key": key.literal()}
        if spec.product_key(g, full, empty, key, e_key) != key:
            return {"axiom": "right_unit", "key": key.literal()}
        row = spec.coproducts(g, key)
        left = row.get(empty)
        if left != (e_key, key, 0, 0):
            return {
                "axiom": "left_counit",
                "key": key.literal(),
                "got": _tensor_str(left),
            }
        # on the empty graph (empty, full) is the one split, both ways round
        right = row.get(full)
        if right != (key, e_key, 0, 0):
            return {
                "axiom": "right_counit",
                "key": key.literal(),
                "got": _tensor_str(right),
            }
    return None


def _compat_witness(spec, g: Graph, key_cap) -> dict | None:
    """Per product split (S, T) and keys x, y: the coproduct of x*y at each
    split (A, B) against the braided exchange of x's and y's coproducts at
    their parts of (A, B).  The witness is the least (S, T), then (A, B),
    then x, then y."""
    product_key, coproducts = spec.product_key, spec.coproducts
    splits = _splits(g)
    for s_set, t_set, gs, gt in splits:
        # each coproduct split with its parts on S and T and the braiding of
        # S's B part past T's A part
        cuts = []
        for a_set, b_set, ga, gb in splits:
            sa, sb = s_set & a_set, s_set & b_set
            ta, tb = t_set & a_set, t_set & b_set
            cuts.append((a_set, sa, ta, ga, gb, sb, tb, *spec.braiding(g, sb, ta)))
        least = None  # (cut rank, x rank, y rank, x, y, lhs, rhs)
        ys = [(y, coproducts(gt, y)) for y in _capped_basis(spec.id, gt, key_cap)]
        for i, x in enumerate(_capped_basis(spec.id, gs, key_cap)):
            x_row = coproducts(gs, x)
            for j, (y, y_row) in enumerate(ys):
                prod_row = coproducts(g, product_key(g, s_set, t_set, x, y))
                for k, (a_set, sa, ta, ga, gb, sb, tb, beta_q, beta_t) in enumerate(cuts):
                    lhs = prod_row.get(a_set)
                    left_x, right_y = x_row.get(sa), y_row.get(ta)
                    if left_x is None or right_y is None:
                        if lhs is None:
                            continue
                        rhs = None
                    else:
                        xa, xb, q1, t1 = left_x
                        ya, yb, q2, t2 = right_y
                        rhs = (
                            product_key(ga, sa, ta, xa, ya),
                            product_key(gb, sb, tb, xb, yb),
                            q1 + q2 + beta_q,
                            t1 + t2 + beta_t,
                        )
                        if lhs == rhs:
                            continue
                    if least is None or (k, i, j) < least[:3]:
                        least = (k, i, j, x, y, lhs, rhs)
        if least is not None:
            k, _, _, x, y, lhs, rhs = least
            a_set, b_set = splits[k][:2]
            return {
                "axiom": "product_coproduct_compatibility",
                "product_split": _parts(s_set, t_set),
                "coproduct_split": _parts(a_set, b_set),
                "keys": [x.literal(), y.literal()],
                "coproduct_of_product": _tensor_str(lhs),
                "braided_exchange": _tensor_str(rhs),
            }
    return None


def _closure_witness(spec, g: Graph, key_cap) -> dict | None:
    # products of basis keys and coproduct factors must land back in the
    # basis; each (graph, key) is validated once, so its refusal is the
    # same wherever it recurs
    refusals: dict = {}

    def refusal(h: Graph, key) -> str | None:
        if (h, key) not in refusals:
            try:
                spec.validate_key(h, key)
                refusals[h, key] = None
            except InputError as exc:
                refusals[h, key] = str(exc)
        return refusals[h, key]

    rows = [(key, spec.coproducts(g, key)) for key in _capped_basis(spec.id, g, key_cap)]
    for s_set, t_set, gs, gt in _splits(g):
        for x in _capped_basis(spec.id, gs, key_cap):
            for y in _capped_basis(spec.id, gt, key_cap):
                error = refusal(g, spec.product_key(g, s_set, t_set, x, y))
                if error is not None:
                    return {
                        "axiom": "product_closure",
                        "split": _parts(s_set, t_set),
                        "keys": [x.literal(), y.literal()],
                        "error": error,
                    }
        for key, row in rows:
            res = row.get(s_set)
            if res is None:
                continue
            error = refusal(gs, res[0])
            if error is None:
                error = refusal(gt, res[1])
            if error is not None:
                return {
                    "axiom": "coproduct_closure",
                    "split": _parts(s_set, t_set),
                    "key": key.literal(),
                    "error": error,
                }
    return None


def check_bimonoid(mid: str, g: Graph, key_cap: int | None = None) -> CheckRecord:
    """Associativity, coassociativity, (co)unit laws, braided compatibility,
    and (for sub-monoids) closure, on one graph.  One record; the detail
    carries the first failing axiom's counterexample.  The axioms read the
    cached copy of `monoids._store`."""
    _refuse_bad_cap(key_cap)
    spec = _store(get_monoid(mid), g)
    witness = (
        _assoc_witness(spec, g, key_cap)
        or _coassoc_witness(spec, g, key_cap)
        or _unit_counit_witness(spec, g, key_cap)
        or _compat_witness(spec, g, key_cap)
    )
    if witness is None and mid in CLOSURE_IDS:
        witness = _closure_witness(spec, g, key_cap)
    return _record("bimonoid", mid, g, witness)


# ---------------------------------------------------------------------------
# antipode checks


def check_antipode(mid: str, g: Graph, key_cap: int | None = None) -> list[CheckRecord]:
    """Recompute the antipode of every basis key by all applicable methods
    and assert they agree; assert both convolution identities; for the
    commutative family assert the antipode is an involution.

    Returns the main `antipode` record plus, for monoids whose closed form
    is oracle-gated, a separate `antipode_closed_form_verdict` record."""
    _refuse_bad_cap(key_cap)
    spec = _store(get_monoid(mid), g)
    # one recursion memo per side for the whole check: the routes, the
    # convolution laws and the involution share each (subgraph, key) map
    memos = {"left": {}, "right": {}}
    has_closed = mid in CLOSED_FORM_IDS
    gated = mid in ORACLE_GATED_IDS
    closed_witness: dict | None = None
    basis = _capped_basis(mid, g, key_cap)

    def first_failure() -> dict | None:
        nonlocal closed_witness
        # each route maps a basis key, which needs no validation, to an
        # exponent map with no zero entry: equal maps are equal Elements
        for key in basis:
            reference = _takeuchi_sums(spec, g, key, {})
            for side in ("left", "right"):
                other = _mm(spec, g, key, side, memos[side])
                if other != reference:
                    # no reference to judge the closed form against
                    closed_witness = {"verdict": "skipped: methods disagree"}
                    return {
                        "law": "method_agreement",
                        "key": key.literal(),
                        "takeuchi": str(_element(mid, g, reference)),
                        f"milnor-moore-{side}": str(_element(mid, g, other)),
                    }
            if has_closed:
                closed = _closed_sums(spec, g, key)
                if closed != reference:
                    witness = {
                        "key": key.literal(),
                        "takeuchi": str(_element(mid, g, reference)),
                        "closed": str(_element(mid, g, closed)),
                    }
                    if not gated:
                        return {"law": "method_agreement", **witness}
                    if closed_witness is None:
                        closed_witness = witness

        # convolution: summing mu o (s (x) id) o Delta over all ordered
        # bipartitions gives unit o counit (zero on every nonempty graph).
        # Each law takes s from the other side's recursion: a recursion
        # satisfies its own side's law by definition, whatever the maps.
        # These laws and the involution below ask the recursions unchecked:
        # their keys are coproduct factors of basis keys and products of
        # such factors, whose closure `_closure_witness` checks.
        if g.n > 0:
            for key in basis:
                splits = spec.coproducts(g, key).items()
                for law, side, s_on_left in (
                    ("convolution_left", "right", True),
                    ("convolution_right", "left", False),
                ):
                    # (product key, qe, te) -> summed coefficient
                    leftover: dict = {}
                    for s_set, (lk, rk, qe, te) in splits:
                        t_set = g.mask ^ s_set
                        h, hk = (s_set, lk) if s_on_left else (t_set, rk)
                        rec = _mm(spec, g._induced(h), hk, side, memos[side])
                        for (sk, sq, st), c in rec.items():
                            x, y = (sk, rk) if s_on_left else (lk, sk)
                            prod = spec.product_key(g, s_set, t_set, x, y)
                            _accumulate(leftover, (((prod, qe + sq, te + st), c),))
                    if leftover:
                        return {
                            "law": law,
                            "key": key.literal(),
                            "got": str(_element(mid, g, leftover)),
                        }

        if mid in COMMUTATIVE_FAMILY:
            # s from the left recursion, which by now agrees with the
            # alternating sum on every basis key
            left = memos["left"]
            for key in basis:
                twice: dict = {}
                for (k, qe, te), c in _mm(spec, g, key, "left", left).items():
                    pairs = (
                        ((k2, qe + q2, te + t2), c * c2)
                        for (k2, q2, t2), c2 in _mm(spec, g, k, "left", left).items()
                    )
                    _accumulate(twice, pairs)
                if twice != {(key, 0, 0): 1}:
                    return {
                        "law": "involution",
                        "key": key.literal(),
                        "s_of_s": str(_element(mid, g, twice)),
                    }
        return None

    records = [_record("antipode", mid, g, first_failure())]
    if gated:
        records.append(_record("antipode_closed_form_verdict", mid, g, closed_witness))
    return records


# ---------------------------------------------------------------------------
# commutativity flavors


def check_commutativity(
    mid: str, g: Graph, key_cap: int | None = None
) -> dict[str, tuple[bool, dict | None]]:
    """Evaluate all six (co)commutativity flavors on one graph.

    Returns {flavor: (holds, witness-or-None)}.  Interpretation against the
    per-monoid expectation tables happens in the suite driver, which also
    aggregates corpus-wide witnesses for the must-fail flavors.  Products
    and coproducts come from the cached copy of `monoids._store`, each
    key's coproducts in both directions from one row."""
    _refuse_bad_cap(key_cap)
    spec = _store(get_monoid(mid), g)
    rows = [(key, spec.coproducts(g, key)) for key in _capped_basis(mid, g, key_cap)]
    # flavor -> its first witness; built only when some flavor first fails
    found: dict[str, dict] = {}

    def note(failed: list[str], witness) -> None:
        missing = [f for f in failed if f not in found]
        if missing:
            detail = witness()
            for f in missing:
                found[f] = detail

    for s_set, t_set, gs, gt in _splits(g):
        crossing = g._crossing(s_set, t_set)
        beta_q, beta_t = spec.braiding(g, s_set, t_set)
        # flavors that fail wherever the braided exchange does on this split
        braided = ["commutative_exact"]
        if crossing == 0:
            braided.append("disjoint_commutative")
        if crossing == s_set.bit_count() * t_set.bit_count():
            braided.append("join_commutative")
        beta_is_one = not (beta_q or beta_t)
        sb = _capped_basis(mid, gs, key_cap)
        # once every flavor the products here can fail has its witness, no
        # product on this split can change the result
        tb = () if found.keys() >= {*braided, "commutative_plain"} else _capped_basis(
            mid, gt, key_cap
        )
        for x in sb:
            for y in tb:
                fwd = spec.product_key(g, s_set, t_set, x, y)
                bwd = spec.product_key(g, t_set, s_set, y, x)
                keys_match = fwd == bwd
                if keys_match and beta_is_one:
                    continue
                note(
                    braided if keys_match else braided + ["commutative_plain"],
                    lambda: {
                        "split": _parts(s_set, t_set),
                        "keys": [x.literal(), y.literal()],
                        "forward": fwd.literal(),
                        "backward": bwd.literal(),
                        "braiding": _coeff_str(beta_q, beta_t),
                    },
                )
        for key, row in rows:
            fwd, bwd = row.get(s_set), row.get(t_set)
            swapped = None
            if bwd is not None:
                swapped = (bwd[1], bwd[0], bwd[2] + beta_q, bwd[3] + beta_t)
            if fwd == swapped:
                continue
            plain_fwd = None if fwd is None else (fwd[0], fwd[1])
            plain_swapped = None if bwd is None else (bwd[1], bwd[0])
            note(
                ["cocommutative_exact"]
                + (["cocommutative_plain"] if plain_fwd != plain_swapped else []),
                lambda: {
                    "split": _parts(s_set, t_set),
                    "key": key.literal(),
                    "coproduct": _tensor_str(fwd),
                    "braided_swap_of_reverse": _tensor_str(swapped),
                },
            )

    return {
        flavor: (flavor not in found, found.get(flavor))
        for flavor in COMMUTATIVITY_FLAVORS
    }


# ---------------------------------------------------------------------------
# morphisms and diagrams


def _morphism_witness(morphism, g: Graph, key_cap: int | None) -> dict | None:
    """Per route: the images of the basis keys, then split by split the
    product law before the coproduct law.  Each key's coproduct law is one
    comparison of its domain row, pushed through the map, with its image's
    codomain row; the witness is the least failing split, then the least
    key, unless the product law fails on or before that split.  Both ends
    are cached copies from `monoids._store`, and each (graph, key) is
    mapped once per check."""
    splits = _splits(g)
    halves = {s: (gs, gt) for s, _, gs, gt in splits}
    images: dict = {}

    def image(h: Graph, key):
        hit = images.get((h, key))
        if hit is None:
            hit = images[h, key] = morphism.map_key(h, key)
        return hit

    for dom_id in sorted(morphism.routes):
        cod_id = morphism.routes[dom_id]
        dom = _store(MONOIDS[dom_id], g)
        cod = _store(MONOIDS[cod_id], g)
        route = [dom_id, cod_id]
        q_one, t_one = morphism.specialization(dom_id)
        basis = _capped_basis(dom_id, g, key_cap)
        for key in basis:
            try:
                cod.validate_key(g, image(g, key))
            except InputError as exc:
                return {
                    "law": "map_closure",
                    "route": route,
                    "key": key.literal(),
                    "error": str(exc),
                }
        # both sides specialize: q = 1 (t = 1) sets the q (t) exponent to 0
        rank = None
        cut = None  # (split rank, key, coproduct then map, map then coproduct)
        for key in basis:
            pushed = {}
            for s, (lk, rk, qe, te) in dom.coproducts(g, key).items():
                gs, gt = halves[s]
                pushed[s] = (image(gs, lk), image(gt, rk), 0 if q_one else qe, 0 if t_one else te)
            direct = {
                s: (lk, rk, 0 if q_one else qe, 0 if t_one else te)
                for s, (lk, rk, qe, te) in cod.coproducts(g, image(g, key)).items()
            }
            if pushed == direct:
                continue
            if rank is None:
                rank = {split[0]: i for i, split in enumerate(splits)}
            s = _least_difference(pushed, direct, rank)
            if cut is None or rank[s] < cut[0]:
                cut = (rank[s], key, pushed.get(s), direct.get(s))
        last = len(splits) if cut is None else cut[0] + 1
        for s_set, t_set, gs, gt in splits[:last]:
            sb = _capped_basis(dom_id, gs, key_cap)
            tb = [(y, image(gt, y)) for y in _capped_basis(dom_id, gt, key_cap)]
            for x in sb:
                fx = image(gs, x)
                for y, fy in tb:
                    # products have unit coefficients, so this is key equality
                    mapped = image(g, dom.product_key(g, s_set, t_set, x, y))
                    direct = cod.product_key(g, s_set, t_set, fx, fy)
                    if mapped != direct:
                        return {
                            "law": "product_intertwines",
                            "route": route,
                            "split": _parts(s_set, t_set),
                            "keys": [x.literal(), y.literal()],
                            "map_of_product": mapped.literal(),
                            "product_of_maps": direct.literal(),
                        }
        if cut is not None:
            i, key, pushed, direct = cut
            return {
                "law": "coproduct_intertwines",
                "route": route,
                "split": _parts(*splits[i][:2]),
                "key": key.literal(),
                "map_then_coproduct": _tensor_str(direct),
                "coproduct_then_map": _tensor_str(pushed),
            }
    return None


def check_morphism(name: str, g: Graph, key_cap: int | None = None) -> CheckRecord:
    """One morphism, one graph: the induced map must intertwine products and
    coproducts on every route, with deformation parameters specialized away
    whenever the two ends disagree on them."""
    _refuse_bad_cap(key_cap)
    witness = _morphism_witness(get_morphism(name), g, key_cap)
    return _record("morphism", name, g, witness)


def check_diagram(diagram_name: str, g: Graph, key_cap: int | None = None) -> CheckRecord:
    """Both composites around one pasted diagram agree on every basis key."""
    _refuse_bad_cap(key_cap)
    for name, dom_id, path_a, path_b in DIAGRAMS:
        if name == diagram_name:
            break
    else:
        raise InputError(f"unknown diagram {diagram_name!r}")
    for key in _capped_basis(dom_id, g, key_cap):
        witness = {"key": key.literal(), "path": list(path_a), "other_path": list(path_b)}
        try:
            end_a = _along(path_a, dom_id, g, key)
            end_b = _along(path_b, dom_id, g, key)
        except InputError as exc:
            return _record("diagram", diagram_name, g, {**witness, "error": str(exc)})
        if end_a != end_b:
            via_a, via_b = (str(Element.of(mid, g, k)) for mid, k in (end_a, end_b))
            witness.update(via_path=via_a, via_other_path=via_b)
            return _record("diagram", diagram_name, g, witness)
    return _record("diagram", diagram_name, g, None)


# ---------------------------------------------------------------------------
# functor identities, orientation counts, basis changes


@lru_cache(maxsize=None)
def _complement_witness(g: Graph) -> dict | None:
    """The first failure of the complement laws that hold for every monoid:
    complement is an involution, and the full two-parameter braiding
    statistic, before per-monoid specialization, swaps its parameters under
    complement.  None when both hold.  The result is shared by every caller,
    so callers copy it before handing it out."""
    comp = g.complement()
    if comp.complement() != g:
        return {"law": "complement_involution"}
    for s_set, t_set in _ordered_bipartitions(g.mask):
        qe, te = _braiding(g, s_set, t_set)
        full_there = _braiding(comp, s_set, t_set)
        if full_there != (te, qe):
            return {
                "law": "complement_swaps_parameters",
                "split": _parts(s_set, t_set),
                "braiding": _coeff_str(qe, te),
                "complement_braiding": _coeff_str(*full_there),
            }
    return None


def _functor_witness(mid: str, g: Graph) -> dict | None:
    spec = get_monoid(mid)
    witness = _complement_witness(g)
    if witness is not None:
        return copy.deepcopy(witness)

    complete = len(g.edges) == math.comb(g.n, 2)
    discrete = not g.edges
    # each law names the exponent that must be zero: te in (qe, te) on a
    # complete graph, qe on a discrete one
    checks = []
    if complete:
        checks.append(("complete_t_free", 1))
    if discrete:
        checks.append(("discrete_q_free", 0))
    for law, which in checks:
        for s_set, t_set in _ordered_bipartitions(g.mask):
            beta = spec.braiding(g, s_set, t_set)
            if beta[which]:
                return {"law": law, "where": "braiding", "coefficient": _coeff_str(*beta)}
            for key in _basis_cached(mid, g):
                res = spec.coproduct_key(g, s_set, t_set, key)
                if res is not None and res[2 + which]:
                    return {
                        "law": law,
                        "where": "coproduct",
                        "split": _parts(s_set, t_set),
                        "key": key.literal(),
                        "coefficient": _coeff_str(res[2], res[3]),
                    }

    expected: int | None = None
    if complete:
        expected = {
            "L": math.factorial(g.n),
            "AO": math.factorial(g.n),
            "SSigma": math.factorial(g.n),
            "FL_M": bell_number(g.n),
            "FL_P": bell_number(g.n),
            "SPi_m": 1,
            "SPi_p": 1,
        }.get(mid)
    if expected is None and discrete:
        expected = {
            "AO": 1,
            "SPi_m": bell_number(g.n),
            "SPi_p": bell_number(g.n),
            "FL_M": 1,
            "FL_P": 1,
        }.get(mid)
    if expected is not None:
        count = len(_basis_cached(mid, g))
        if count != expected:
            return {"law": "basis_count", "expected": expected, "got": count}
    return None


def check_functors(mid: str, g: Graph) -> CheckRecord:
    """Complementation identities for one monoid on one graph: the braiding
    swaps its parameters under complement, complement is an involution, and
    on complete (resp. discrete) graphs every structure constant is t-free
    (resp. q-free).  On complete/discrete graphs also recheck the closed
    basis-count identities."""
    return _record("functors", mid, g, _functor_witness(mid, g))


def check_stanley(g: Graph) -> CheckRecord:
    """Orientation count equals the chromatic polynomial at -1 up to sign.
    The two sides come from independent algorithms; the orientations are
    counted as arc sets, never made into keys."""
    count = len(_acyclic_arc_sets(g))
    chrom = (-1) ** g.n * chromatic_value(g, -1)
    witness = None
    if count != chrom:
        witness = {"orientations": count, "signed_chromatic": chrom}
    return _record("stanley", "AO", g, witness)


def check_basis_change(mid: str, g: Graph) -> CheckRecord:
    """Round trip through the partner basis is the identity on every key,
    and every key's image lies in the partner basis of g.  The round trip
    runs on {payload: int} maps, out by one route and back by the other
    (`monoids._rebased`); an `Element` is built only for a witness.  Refused
    for a monoid without a partner basis."""
    spec = get_monoid(mid)
    partner = BASIS_PARTNER.get(mid)
    if partner is None:
        raise InputError(f"{mid} has no partner basis")
    partner_spec = get_monoid(partner)
    partner_payloads = {k._payload for k in partner_spec.basis(g)}
    for key in spec.basis(g):
        one = {key._payload: 1}
        over = _rebased(mid, one)
        outside = next((y for y in over if y not in partner_payloads), None)
        if outside is not None:
            witness = {"outside_basis": partner_spec.key_cls._of(outside).literal()}
        else:
            back = _rebased(partner, over)
            if back == one:
                continue
            round_trip = Element(mid, g, ((spec.key_cls._of(y), c) for y, c in back.items()))
            witness = {"round_trip": str(round_trip)}
        return _record(
            "basis_change",
            mid,
            g,
            {"key": key.literal(), "partner_basis": partner, **witness},
        )
    return _record("basis_change", mid, g, None)


# ---------------------------------------------------------------------------
# suite driver


def _commutativity_records(mids, g: Graph, key_cap):
    """One commutativity record per monoid, plus the observed (monoid,
    flavor, witness) failures of its must-fail flavors, which `run_suite`
    gathers into corpus-level witness records."""
    records: list[CheckRecord] = []
    observed: list[tuple[str, str, dict]] = []
    for mid in mids:
        flavor_results = check_commutativity(mid, g, key_cap)
        bad = None
        for flavor in sorted(EXPECTED_ALWAYS[mid]):
            holds, witness = flavor_results[flavor]
            if not holds:
                bad = {"flavor": flavor, **witness}
                break
        # a passing record lists every flavor that holds on g
        holding = sorted(f for f, (ok, _) in flavor_results.items() if ok)
        records.append(
            CheckRecord("commutativity", mid, g.to_text(), bad is None, bad or {"holds": holding})
        )
        for flavor in sorted(EXPECTED_FAILING[mid]):
            holds, witness = flavor_results[flavor]
            if not holds:
                observed.append((mid, flavor, witness))
    return records, observed


# each concrete suite's record builder: (monoid ids, graph, key cap) ->
# (records, observed commutativity failures).  The morphisms suite checks
# the morphisms with a domain in the selection and the diagrams rooted there.
_SUITE_RECORDS = {
    "bimonoid": lambda mids, g, cap: ([check_bimonoid(mid, g, cap) for mid in mids], []),
    "antipode": lambda mids, g, cap: (
        [r for mid in mids for r in check_antipode(mid, g, cap)], []
    ),
    "commutativity": _commutativity_records,
    "morphisms": lambda mids, g, cap: (
        [
            check_morphism(name, g, cap)
            for name, morphism in MORPHISMS.items()
            if any(d in mids for d in morphism.routes)
        ]
        + [check_diagram(name, g, cap) for name, dom, _, _ in DIAGRAMS if dom in mids],
        [],
    ),
    "functors": lambda mids, g, cap: ([check_functors(mid, g) for mid in mids], []),
    "stanley": lambda mids, g, cap: ([check_stanley(g)], []),
    "basis-change": lambda mids, g, cap: (
        [check_basis_change(mid, g) for mid in mids if mid in BASIS_PARTNER], []
    ),
}

SUITES = (*_SUITE_RECORDS, "all")


def _worker(task):
    # a task names its suite, so that it pickles without the builder
    suite, mids, g, key_cap = task
    return _SUITE_RECORDS[suite](mids, g, key_cap)


def run_suite(
    suite: str,
    n_max: int,
    monoids: list[str] | None = None,
    seed: int = 0,
    jobs: int = 1,
    samples6: int = 0,
) -> VerificationReport:
    """Run one named suite (or "all") over the exhaustive corpus.

    `monoids` filters which monoids (and, for the morphisms suite, which
    morphisms by domain) are exercised.  `samples6` appends that many seeded
    random 6-vertex graphs to the stanley suite's corpus.  `jobs` > 1
    distributes graphs over up to that many worker processes, at most one
    per task and per CPU; record order is identical to the serial run."""
    if suite not in SUITES:
        raise InputError(f"unknown suite {suite!r}; expected one of {', '.join(SUITES)}")
    if jobs < 1:
        raise InputError(f"jobs must be positive, got {jobs}")
    if samples6 < 0:
        raise InputError(f"samples6 must be nonnegative, got {samples6}")
    if monoids is None:
        mids = MONOID_IDS
    else:
        for mid in monoids:
            get_monoid(mid)
        mids = tuple(dict.fromkeys(monoids))
        if not mids:
            raise InputError("empty monoid selection")

    start = time.perf_counter()
    graphs = corpus(n_max)
    concrete = SUITES[:-1] if suite == "all" else (suite,)
    # the run's one work list: the light suites walk the whole corpus; the
    # expensive suites keep every graph on at most 4 vertices but replace the
    # 1024 five-vertex graphs by one seeded sample with a per-basis key cap
    small = [g for g in graphs if g.n <= 4]
    big = graphs[len(small) :]
    if len(big) > SAMPLE_GRAPHS_5:
        big = random.Random(seed).sample(big, SAMPLE_GRAPHS_5)
    sampled = [(g, None) for g in small] + [(g, KEY_CAP_5) for g in big]
    exhaustive = [(g, None) for g in graphs]
    work = {sub: sampled if sub in EXPENSIVE_SUITES else exhaustive for sub in concrete}
    if "stanley" in work:
        work["stanley"] = exhaustive + [(g, None) for g in sampled_graphs(6, samples6, seed)]
    tasks = [(sub, mids, g, cap) for sub, pairs in work.items() for g, cap in pairs]

    records: list[CheckRecord] = []
    observed: list[tuple[str, str, dict]] = []
    # the pool forks all its workers at its first submit
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    try:
        if workers <= 1:
            results = map(_worker, tasks)
        else:
            # imported only here, so that importing grhopf loads no process pool
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as executor:
                results = list(executor.map(_worker, tasks, chunksize=8))
        for recs, obs in results:
            records.extend(recs)
            observed.extend(obs)
    finally:
        # the last task's structure maps: no later call of this run needs them
        _clear_store()

    # corpus-level witness records: flavors expected to fail must actually
    # fail somewhere, provided the corpus has graphs that can show it
    if "commutativity" in work and n_max >= 2:
        found: dict[tuple[str, str], dict] = {}
        for mid, flavor, witness in observed:
            found.setdefault((mid, flavor), witness)
        for mid in mids:
            for flavor in sorted(EXPECTED_FAILING[mid]):
                witness = found.get((mid, flavor), {"error": "no failing witness found in corpus"})
                detail = {"flavor": flavor, **witness}
                passed = (mid, flavor) in found
                records.append(CheckRecord("commutativity_witness", mid, "", passed, detail))

    graph_count = len(graphs) + (samples6 if "stanley" in work else 0)
    return VerificationReport(
        suite=suite,
        n_max=n_max,
        seed=seed,
        selection=mids,
        graph_count=graph_count,
        records=records,
        wall_time_s=time.perf_counter() - start,
    )
