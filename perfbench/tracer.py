"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the public functions and methods of every grhopf
layer module (qtpoly, keys, graphs, enumerators, elements, monoids,
antipode, morphisms, verify) and rebinds every module global that holds
one of them, so names imported with `from .x import f` are traced too.

Every wrapped call pushes a frame; on return its duration, minus the time
of the wrapped calls made inside it, is that layer's self time.  Calls into
the hottest leaves (polynomial arithmetic, key and graph methods, the
key-level structure maps) add into per-op count/time totals; every other
call keeps one span (id, parent span, op, name, start, end) in memory until
`write_spans` runs at the end.  Private helpers are not wrapped: their time
counts toward the layer that called them.
"""

from __future__ import annotations

import gzip
import inspect
import json
import math
import sys
import time
from collections import defaultdict

LAYERS = (
    "qtpoly",
    "keys",
    "graphs",
    "enumerators",
    "elements",
    "monoids",
    "antipode",
    "morphisms",
    "verify",
)
# dunder methods that do layer work; other dunders (hash, bool, repr) stay
# unwrapped and count toward their caller
DUNDERS = frozenset(
    {"__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
     "__neg__", "__eq__", "__str__"}
)
# classes whose methods are leaves: no span, per-op totals only
LEAF_CLASSES = frozenset(
    {"QTPolynomial", "LinearOrder", "AcyclicOrientation", "SetCompositionKey",
     "_PartitionKey", "_EdgeSetKey", "UnitKey", "BasisKey", "Graph", "VertexPartition"}
)
LEAF_METHODS = frozenset(
    {"product_key", "coproduct_key", "braiding", "validate_key", "empty_key",
     "map_key", "codomain", "specialization"}
)
LEAF_FUNCTIONS = frozenset(
    {"edge_pair", "braiding_coeff", "get_monoid", "get_morphism", "_basis_cached",
     "composition_crossing_edges", "composition_crossing_pairs",
     "composition_edge_inversions", "composition_pair_inversions",
     "order_edge_inversions", "order_pair_inversions", "arc_count_from_to"}
)
# the one private function wrapped: the basis cache every route goes through
BASIS_CACHE = "monoids._basis_cached"

CHECKS = ("bimonoid", "commutativity", "morphism", "diagram", "antipode")


def _fubini(n: int) -> int:
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(math.comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = [[0.0, 0.0]]  # [start, child time]
        self.span_stack: list[int] = [0]
        self.op = 0
        # per op: {name or (name, monoid id): [calls, total s, self s]}
        self.totals: dict = {}
        self.per_op: dict[int, dict] = {0: self.totals}
        self.spans: list = []
        self.op_spans: list[tuple] = []
        self.extra: dict[str, int] = defaultdict(int)
        self._seen_induced: set = set()
        self._seen_compositions: set = set()
        self._monoid_ids: frozenset = frozenset()
        self._spec_cls = None
        self._hooks = self._post_hooks()

    # ------------------------------------------------------------ ops

    def begin_op(self, name: str) -> None:
        """Start op number `self.op + 1`; its span id is minus its number."""
        self.op += 1
        self.totals = self.per_op[self.op] = {}
        self.span_stack[0] = -self.op
        self._op_start = time.perf_counter()
        self._op_name = name

    def end_op(self) -> None:
        self.op_spans.append((-self.op, 0, self.op, "op." + self._op_name,
                              self._op_start, time.perf_counter()))

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, name: str, layer: str, leaf: bool):
        stack, span_stack, spans = self.stack, self.span_stack, self.spans
        post = self._hooks.get(name)
        per_monoid = layer == "monoids"
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [perf(), 0.0]
            stack.append(frame)
            if not leaf:
                span_id = len(spans) + 1
                spans.append(None)  # reserve the id; filled on return
                span_stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - frame[0]
                stack[-1][1] += dur
                key = (name, tracer._monoid_of(args)) if per_monoid else name
                tot = tracer.totals.get(key)
                if tot is None:
                    tracer.totals[key] = [1, dur, dur - frame[1]]
                else:
                    tot[0] += 1
                    tot[1] += dur
                    tot[2] += dur - frame[1]
                if not leaf:
                    span_stack.pop()
                    spans[span_id - 1] = (span_id, span_stack[-1], tracer.op, name,
                                          frame[0], end)
            if post is not None:
                post(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _monoid_of(self, args) -> str:
        if args:
            first = args[0]
            if isinstance(first, self._spec_cls):
                return first.id
            if isinstance(first, str) and first in self._monoid_ids:
                return first
        return "other"

    def install(self) -> None:
        """Wrap every layer; call once, before any grhopf object is built."""
        import grhopf
        from grhopf import monoids

        self._spec_cls = monoids.MonoidSpec
        self._monoid_ids = frozenset(monoids.MONOID_IDS)
        modules = {layer: sys.modules[f"grhopf.{layer}"] for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
                elif _is_function(obj) and obj.__module__ == mod.__name__:
                    if attr.startswith("_") and f"{layer}.{attr}" != BASIS_CACHE:
                        continue
                    leaf = attr in LEAF_FUNCTIONS
                    replaced[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer, leaf)
        # rebind at every binding site, the package namespace included
        for mod in [grhopf, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def _wrap_class(self, cls, layer: str) -> None:
        leaf_class = cls.__name__ in LEAF_CLASSES
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("__"):
                if attr not in DUNDERS:
                    continue
            elif attr.startswith("_"):
                continue
            leaf = leaf_class or attr in LEAF_METHODS
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(raw.__func__, name, layer, leaf)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(raw, name, layer, leaf))

    # ------------------------------------------------------------ counters

    def _post_hooks(self):
        extra = self.extra

        def induced(args, result):
            key = (args[0], frozenset(args[1]))
            if key in self._seen_induced:
                extra["graphs.induced.repeats"] += 1
            else:
                self._seen_induced.add(key)

        def set_compositions(args, result):
            extra["enumerators.set_compositions.items"] += len(result)
            key = frozenset(args[0])
            if key in self._seen_compositions:
                extra["enumerators.set_compositions.repeats"] += 1
            else:
                self._seen_compositions.add(key)

        def coproduct_key(args, result):
            if result is None:
                extra["monoids.coproduct_key.zero"] += 1

        def basis(args, result):
            extra["monoids.basis.keys"] += len(result)

        def takeuchi(args, result):
            extra["antipode.takeuchi.compositions"] += _fubini(args[1].n)
            extra["antipode.takeuchi.terms"] += len(result.terms)

        hooks = {
            "graphs.Graph.induced": induced,
            "enumerators.set_compositions": set_compositions,
            BASIS_CACHE: basis,
            "antipode.antipode_takeuchi": takeuchi,
        }
        for cls in ("_OrderMonoid", "_OrientationMonoid", "_CompositionMonoid",
                    "_PartitionMonoid", "_FlatMonoid", "_UnitSpeciesMonoid"):
            hooks[f"monoids.{cls}.coproduct_key"] = coproduct_key
        return hooks

    # ------------------------------------------------------------ results

    def _aggregate(self):
        """(calls by name, self s by name, self s by monoid id) over all ops."""
        calls: dict[str, int] = defaultdict(int)
        own: dict[str, float] = defaultdict(float)
        by_monoid: dict[str, float] = defaultdict(float)
        for totals in self.per_op.values():
            for key, (n, _dur, self_s) in totals.items():
                name = key[0] if isinstance(key, tuple) else key
                calls[name] += n
                own[name] += self_s
                if isinstance(key, tuple):
                    by_monoid[key[1]] += self_s
        return calls, own, by_monoid

    @staticmethod
    def _sum(calls, *names: str) -> int:
        return sum(calls.get(name, 0) for name in names)

    @staticmethod
    def _ends(calls, suffix: str, prefix: str) -> int:
        return sum(n for name, n in calls.items()
                   if name.endswith(suffix) and name.startswith(prefix))

    def counts(self) -> dict[str, float]:
        """Deterministic work counts and ratios."""
        e = self.extra
        calls = self._aggregate()[0]
        c = {}
        c["qtpoly.mul.calls"] = self._sum(calls, "qtpoly.QTPolynomial.__mul__",
                                          "qtpoly.QTPolynomial.__rmul__")
        c["qtpoly.add.calls"] = self._sum(calls, "qtpoly.QTPolynomial.__add__",
                                          "qtpoly.QTPolynomial.__radd__")
        c["qtpoly.new.calls"] = self._sum(calls, "qtpoly.QTPolynomial.__init__")
        c["keys.new.calls"] = self._ends(calls, ".__init__", "keys.")
        c["keys.composition.new.calls"] = self._sum(calls, "keys.SetCompositionKey.__init__")
        induced = self._sum(calls, "graphs.Graph.induced")
        c["graphs.induced.calls"] = induced
        c["graphs.induced.repeat_ratio"] = _ratio(e["graphs.induced.repeats"], induced)
        c["graphs.crossing_edges.calls"] = self._sum(calls, "graphs.Graph.crossing_edges")
        comps = self._sum(calls, "enumerators.set_compositions")
        c["enumerators.set_compositions.calls"] = comps
        c["enumerators.set_compositions.items"] = e["enumerators.set_compositions.items"]
        c["enumerators.set_compositions.repeat_ratio"] = _ratio(
            e["enumerators.set_compositions.repeats"], comps)
        c["enumerators.splits.calls"] = self._sum(calls, "enumerators.ordered_bipartitions",
                                                  "enumerators.ordered_tripartitions")
        c["enumerators.orientations.calls"] = self._sum(calls, "enumerators.acyclic_orientations")
        c["enumerators.flats.calls"] = self._sum(calls, "enumerators.flats")
        c["elements.new.calls"] = self._sum(calls, "elements.Element.__init__",
                                            "elements.TensorElement.__init__")
        c["elements.eq.calls"] = self._sum(calls, "elements.Element.__eq__",
                                           "elements.TensorElement.__eq__")
        c["monoids.product_key.calls"] = self._ends(calls, ".product_key", "monoids.")
        cop = self._ends(calls, ".coproduct_key", "monoids.")
        c["monoids.coproduct_key.calls"] = cop
        c["monoids.coproduct_key.zero_ratio"] = _ratio(e["monoids.coproduct_key.zero"], cop)
        c["monoids.basis.calls"] = self._sum(calls, "monoids._basis_cached")
        c["monoids.basis.keys"] = e["monoids.basis.keys"]
        c["monoids.basis_change.calls"] = self._sum(calls, "monoids.basis_change")
        take = self._sum(calls, "antipode.antipode_takeuchi")
        c["antipode.takeuchi.calls"] = take
        c["antipode.takeuchi.compositions"] = e["antipode.takeuchi.compositions"]
        c["antipode.takeuchi.useful_ratio"] = _ratio(
            e["antipode.takeuchi.terms"], e["antipode.takeuchi.compositions"])
        c["antipode.milnor_moore.calls"] = self._sum(calls, "antipode.antipode_milnor_moore",
                                                     "antipode.AntipodeCache.of")
        c["antipode.closed.calls"] = self._sum(calls, "antipode.antipode_closed_form")
        c["morphisms.map_key.calls"] = self._sum(calls, "morphisms.Morphism.map_key")
        c["morphisms.apply.calls"] = self._sum(calls, "morphisms.morphism_apply")
        return c

    def times(self) -> dict[str, float]:
        """Self times in seconds, per layer and per named entry point."""
        _calls, ns, by_monoid = self._aggregate()
        t = {}
        for layer in LAYERS:
            t[f"{layer}.self_s"] = sum(v for k, v in ns.items() if k.startswith(layer + "."))
        for mid in sorted(self._monoid_ids):
            t[f"monoids.{mid}.self_s"] = by_monoid.get(mid, 0.0)
        t["antipode.takeuchi.self_s"] = ns.get("antipode.antipode_takeuchi", 0.0)
        t["antipode.milnor_moore.self_s"] = (
            ns.get("antipode.antipode_milnor_moore", 0.0)
            + ns.get("antipode.AntipodeCache.of", 0.0)
            + ns.get("antipode.AntipodeCache.of_element", 0.0))
        t["antipode.closed.self_s"] = ns.get("antipode.antipode_closed_form", 0.0)
        for check in CHECKS:
            t[f"verify.check_{check}.self_s"] = ns.get(f"verify.check_{check}", 0.0)
        return t

    def write_spans(self, path) -> int:
        """Write every span, plus per-op leaf totals, as gzipped JSON lines."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.op_spans + self.spans:
                if span is None:
                    continue
                sid, parent, op, name, start, end = span
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": start, "end": end}) + "\n")
            for op, totals in self.per_op.items():
                for key, (n, dur, self_s) in totals.items():
                    fh.write(json.dumps({"op": op, "name": key, "calls": n, "total_s": dur,
                                         "self_s": self_s}) + "\n")
        return len(self.op_spans) + len(self.spans)


def _is_function(obj) -> bool:
    # functools.lru_cache wrappers are not plain functions
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
