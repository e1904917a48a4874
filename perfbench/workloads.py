"""Workload definitions: seeded inputs, the ops that feed them to grhopf,
output checks, the output digest and the work-count guard.

Inputs are generated here from the seed with the standard library only;
grhopf receives them through its public API (the `check_*` functions,
`antipode`, `product`, `coproduct_component`, `morphism_apply`,
`basis_change`, `MonoidSpec.basis`).  The catalog tables below are this
benchmark's own copy, so that a program that drops a monoid, a morphism or
a record fails the work-count guard instead of getting faster.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("axioms-n4", "antipode-n4", "calc-n6")

# monoid id -> kind of key literal the benchmark generates for it
MONOID_KINDS = {
    "L": "order",
    "AO": "orientation",
    "Sigma": "composition",
    "SSigma": "stable_composition",
    "Pi_m": "partition",
    "Pi_p": "partition",
    "SPi_m": "stable_partition",
    "SPi_p": "stable_partition",
    "FL_M": "flat",
    "FL_P": "flat",
    "Match_M": "matching",
    "Match_P": "matching",
    "E": "unit",
}
MONOIDS = tuple(MONOID_KINDS)

# morphism name -> source monoids it applies to
MORPHISM_SOURCES = {
    "iota_L_SSigma": ("L",),
    "iota_SSigma_Sigma": ("SSigma",),
    "pi_arrow_L": ("L",),
    "pi_arrow_SSigma": ("SSigma",),
    "pi_abelianize": ("L",),
    "pi_AO_E": ("AO",),
    "pi_Sigma_Pi": ("Sigma",),
    "pi_SSigma_SPi": ("SSigma",),
    "iota_SPi_Pi": ("SPi_m", "SPi_p"),
    "iota_FL_Pi": ("FL_P",),
    "phi_Pi_FL": ("Pi_m",),
    "rho_SPi_E": ("SPi_m",),
    "iota_E_FL": ("E",),
}
DIAGRAMS = (
    "order_composition_triangle",
    "order_orientation_triangle",
    "orientation_counting_triangle",
    "partition_flat_square",
    "composition_partition_square",
    "counting_map_factorization",
)
BASIS_PARTNER = {
    "Pi_m": "Pi_p",
    "Pi_p": "Pi_m",
    "SPi_m": "SPi_p",
    "SPi_p": "SPi_m",
    "FL_M": "FL_P",
    "FL_P": "FL_M",
    "Match_M": "Match_P",
    "Match_P": "Match_M",
}
# monoids whose check_antipode adds an antipode_closed_form_verdict record
ANTIPODE_VERDICT_IDS = ("Sigma", "SSigma", "FL_M")

# The seed names the vertices: it decides which label plays which vertex of
# a fixed shape, and in calc-n6 also picks the labels.  Everything else (the
# shapes, and calc-n6's keys, splits and query order) is fixed and drawn on
# the shapes' own vertex order, so every seed asks the same questions up to
# the names of the vertices and the amount of work barely moves with it.
N4_LABELS = ("v1", "v2", "v3", "v4")
N4_SHAPES = (  # one 4-vertex graph each: an edge, a path, K4 minus an edge
    ((0, 1),),
    ((0, 1), (1, 2), (2, 3)),
    ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)),
)
CALC_SHAPES = (  # the four 6-vertex pool graphs, with 6 to 9 edges
    ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)),  # a hexagon
    ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)),  # with a chord
    ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (1, 4)),  # two triangles
    ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (2, 5)),  # K4 and a path
)


# ---------------------------------------------------------------------------
# independent basis counts (bitmask dynamic programs, no grhopf code)


def _subsets(mask):
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def _low_subsets(mask):
    """Subsets of mask that contain its lowest bit."""
    low = mask & -mask
    for sub in _subsets(mask ^ low):
        yield sub | low
    yield low


def basis_sizes(n: int, edges: list[tuple[int, int]]) -> dict[str, int]:
    """Basis size of every monoid on a graph with vertices 0..n-1."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    full = (1 << n) - 1

    def independent(mask):
        return all(not (adj[i] & mask) for i in range(n) if mask >> i & 1)

    def connected(mask):
        seen = frontier = mask & -mask
        while frontier:
            nxt = 0
            for i in range(n):
                if frontier >> i & 1:
                    nxt |= adj[i] & mask
            frontier = nxt & ~seen
            seen |= frontier
        return seen == mask

    def table(step):
        out = [0] * (full + 1)
        out[0] = 1
        for mask in range(1, full + 1):
            out[mask] = step(mask, out)
        return out[full]

    def compositions(pred):
        return table(lambda m, t: sum(t[m ^ s] for s in _subsets(m) if pred(s)))

    def partitions(pred):
        return table(lambda m, t: sum(t[m ^ s] for s in _low_subsets(m) if pred(s)))

    def acyclic(m, t):
        return sum(
            (-1) ** (bin(s).count("1") + 1) * t[m ^ s]
            for s in _subsets(m)
            if independent(s)
        )

    def matchings(m, t):
        low = m & -m
        v = low.bit_length() - 1
        rest = m ^ low
        return t[rest] + sum(t[rest ^ (1 << u)] for u in range(n) if (rest & adj[v]) >> u & 1)

    every = lambda s: True  # noqa: E731
    sigma = compositions(every)
    ssigma = compositions(independent)
    pi = partitions(every)
    spi = partitions(independent)
    fl = partitions(connected)
    match = table(matchings)
    return {
        "L": math.factorial(n),
        "AO": table(acyclic),
        "Sigma": sigma,
        "SSigma": ssigma,
        "Pi_m": pi,
        "Pi_p": pi,
        "SPi_m": spi,
        "SPi_p": spi,
        "FL_M": fl,
        "FL_P": fl,
        "Match_M": match,
        "Match_P": match,
        "E": 1,
    }


def _graph_basis_sizes(labels, edges) -> dict[str, int]:
    index = {v: i for i, v in enumerate(labels)}
    return basis_sizes(len(labels), [(index[u], index[v]) for u, v in edges])


# ---------------------------------------------------------------------------
# seeded key literals


def _blocks(rng, labels, adj=None):
    """A random set composition of labels; with adj, every block is an
    independent set."""
    blocks: list[list[str]] = []
    for v in rng.sample(labels, len(labels)):
        fits = [b for b in blocks if adj is None or not any(u in adj[v] for u in b)]
        choice = rng.randrange(len(fits) + 1)
        if choice == len(fits):
            blocks.append([v])
        else:
            fits[choice].append(v)
    rng.shuffle(blocks)
    return [sorted(b) for b in blocks]


def key_literal(rng, kind: str, labels, edges) -> str:
    """A valid key literal of the given kind on the graph (labels, edges)."""
    labels = list(labels)
    adj = {v: set() for v in labels}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    if kind == "unit":
        return "unit"
    if not labels:
        return "()"
    if kind == "order":
        return "<".join(rng.sample(labels, len(labels)))
    if kind == "orientation":
        pos = {v: i for i, v in enumerate(rng.sample(labels, len(labels)))}
        arcs = [(u, v) if pos[u] < pos[v] else (v, u) for u, v in sorted(edges)]
        return ",".join(f"{u}>{v}" for u, v in arcs) or "()"
    if kind in ("composition", "stable_composition"):
        blocks = _blocks(rng, labels, adj if kind == "stable_composition" else None)
        return "|".join(",".join(b) for b in blocks)
    if kind in ("partition", "stable_partition"):
        blocks = _blocks(rng, labels, adj if kind == "stable_partition" else None)
        return "/".join(",".join(b) for b in sorted(blocks))
    if kind == "flat":
        # the edges inside the blocks of any vertex partition form a flat
        where = {v: i for i, b in enumerate(_blocks(rng, labels)) for v in b}
        flat = [e for e in sorted(edges) if where[e[0]] == where[e[1]]]
        return ",".join(f"{u}-{v}" for u, v in flat) or "()"
    if kind == "matching":
        used: set[str] = set()
        chosen = []
        for u, v in rng.sample(list(edges), len(edges)):
            if u not in used and v not in used and rng.random() < 0.7:
                used |= {u, v}
                chosen.append((u, v))
        return ",".join(f"{u}-{v}" for u, v in sorted(chosen)) or "()"
    raise ValueError(f"unknown key kind {kind!r}")


def _induced_edges(edges, side):
    return [e for e in edges if e[0] in side and e[1] in side]




# ---------------------------------------------------------------------------
# inputs


class Inputs:
    """Everything one run of a workload feeds to grhopf, built from the seed."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.graph_specs: list[tuple[tuple[str, ...], list[tuple[str, str]]]] = []
        # per graph: its labels in the shape's vertex order, and its edges
        # in the shape's edge order
        self.orders: list[list[str]] = []
        self.shape_edges: list[list[tuple[str, str]]] = []
        self.ops: list[tuple] = []
        if workload == "calc-n6":
            self._calc(random.Random(f"{workload}:{seed}"))
        else:
            self._n4(random.Random(f"n4:{seed}"))  # one sample for both n4 workloads

    def _add_graph(self, shape, order: list[str]) -> None:
        """The shape with vertex i named order[i]."""
        edges = [(order[u], order[v]) for u, v in shape]
        self.orders.append(order)
        self.shape_edges.append(edges)
        self.graph_specs.append((tuple(sorted(order)), sorted(tuple(sorted(e)) for e in edges)))

    def _n4(self, rng: random.Random):
        for shape in N4_SHAPES:
            self._add_graph(shape, rng.sample(N4_LABELS, len(N4_LABELS)))
        for gi in range(len(self.graph_specs)):
            if self.workload == "antipode-n4":
                self.ops += [("antipode", mid, gi) for mid in MONOIDS]
                continue
            self.ops += [("bimonoid", mid, gi) for mid in MONOIDS]
            self.ops += [("commutativity", mid, gi) for mid in MONOIDS]
            self.ops += [("morphism", name, gi) for name in MORPHISM_SOURCES]
            self.ops += [("diagram", name, gi) for name in DIAGRAMS]

    def _calc(self, names: random.Random):
        for shape in CALC_SHAPES:
            self._add_graph(shape, names.sample("abcdefghijklmnopqrstuvwxyz", 6))
        rng = random.Random("calc-n6")
        pool = len(CALC_SHAPES)
        batch = []
        for i, mid in enumerate(MONOIDS):
            batch.append(("antipode_all", mid, *self._key(rng, mid, i % pool)))
            batch.append(("coproduct", mid, *self._split_key(rng, mid, (i + 1) % pool)))
            batch.append(("product", mid, *self._split_factors(rng, mid, (i + 2) % pool)))
        for i, (name, sources) in enumerate(MORPHISM_SOURCES.items()):
            mid = rng.choice(sources)
            gi, literal = self._key(rng, mid, (i + 3) % pool)
            batch.append(("morphism_apply", name, gi, mid, literal))
        for i, mid in enumerate(BASIS_PARTNER):
            batch.append(("basis_change", mid, *self._key(rng, mid, i % pool)))
        rng.shuffle(batch)
        self.ops = batch

    def _key(self, rng, mid, gi):
        kind = MONOID_KINDS[mid]
        return gi, key_literal(rng, kind, self.orders[gi], self.shape_edges[gi])

    def _split(self, rng, gi):
        """A split of the graph into two halves, each in the shape's order."""
        order = self.orders[gi]
        chosen = set(rng.sample(order, len(order) // 2))
        return [v for v in order if v in chosen], [v for v in order if v not in chosen]

    def _split_key(self, rng, mid, gi):
        gi, literal = self._key(rng, mid, gi)
        s, t = self._split(rng, gi)
        return gi, tuple(sorted(s)), tuple(sorted(t)), literal

    def _split_factors(self, rng, mid, gi):
        s, t = self._split(rng, gi)
        edges = self.shape_edges[gi]
        kind = MONOID_KINDS[mid]
        left = key_literal(rng, kind, s, _induced_edges(edges, s))
        right = key_literal(rng, kind, t, _induced_edges(edges, t))
        return gi, tuple(sorted(s)), tuple(sorted(t)), left, right


# ---------------------------------------------------------------------------
# execution


class Runner:
    """Feeds one workload's inputs to grhopf; keeps outputs for the checks."""

    def __init__(self, inputs: Inputs):
        import grhopf

        self.g = grhopf
        self.inputs = inputs
        self.graphs = [grhopf.Graph(labels, edges) for labels, edges in inputs.graph_specs]
        self.outputs: list = []
        self.bad: list[str] = []

    def run_op(self, op: tuple) -> None:
        kind = op[0]
        handler = getattr(self, "_op_" + kind)
        try:
            ok, out = handler(*op[1:])
        except Exception as exc:  # an op that raises counts as failed
            ok, out = False, f"raised {type(exc).__name__}: {exc}"
        self.outputs.append(out)
        if not ok:
            self.bad.append(f"{op[:3]!r}: {str(out)[:300]}")

    # -- verify-level ops: a record is the output, passed=True is correct

    def _records(self, recs):
        recs = recs if isinstance(recs, list) else [recs]
        return all(r.passed for r in recs), [r.to_json() for r in recs]

    def _op_bimonoid(self, mid, gi):
        return self._records(self.g.check_bimonoid(mid, self.graphs[gi]))

    def _op_morphism(self, name, gi):
        return self._records(self.g.check_morphism(name, self.graphs[gi]))

    def _op_diagram(self, name, gi):
        return self._records(self.g.check_diagram(name, self.graphs[gi]))

    def _op_commutativity(self, mid, gi):
        from grhopf.verify import EXPECTED_ALWAYS

        flavors = self.g.check_commutativity(mid, self.graphs[gi])
        ok = all(flavors[f][0] for f in EXPECTED_ALWAYS[mid])
        return ok, {"monoid": mid, "flavors": {f: list(v) for f, v in sorted(flavors.items())}}

    def _op_antipode(self, mid, gi):
        return self._records(self.g.check_antipode(mid, self.graphs[gi]))

    # -- element-level ops (calc-n6), each as the CLI subcommand runs it

    def _op_antipode_all(self, mid, gi, literal):
        # every applicable method, like `grhopf antipode --method all`
        g = self.graphs[gi]
        key = self.g.get_monoid(mid).parse_key(literal)
        self.g.make_element(mid, g, key)
        methods = [
            m for m in self.g.METHODS if m != "closed" or mid in self.g.CLOSED_FORM_IDS
        ]
        values = [self.g.antipode(mid, g, key, m) for m in methods]
        return all(v == values[0] for v in values), [str(v) for v in values]

    def _element(self, mid, g, literal):
        return self.g.make_element(mid, g, self.g.get_monoid(mid).parse_key(literal))

    def _op_coproduct(self, mid, gi, s, t, literal):
        g = self.graphs[gi]
        out = self.g.coproduct_component(mid, g, s, t, self._element(mid, g, literal))
        return len(out.terms) <= 1, str(out)

    def _op_product(self, mid, gi, s, t, left, right):
        g = self.graphs[gi]
        x = self._element(mid, g.induced(s), left)
        y = self._element(mid, g.induced(t), right)
        out = self.g.product(mid, g, s, t, x, y)
        return _single_unit_term(out), str(out)

    def _op_morphism_apply(self, name, gi, mid, literal):
        g = self.graphs[gi]
        out = self.g.morphism_apply(name, g, self._element(mid, g, literal))
        return _single_unit_term(out), str(out)

    def _op_basis_change(self, mid, gi, literal):
        g = self.graphs[gi]
        x = self._element(mid, g, literal)
        partner = BASIS_PARTNER[mid]
        over = self.g.basis_change(mid, partner, g, x)
        back = self.g.basis_change(partner, mid, g, over)
        return back == x, str(over)

    # -- after the timed region

    def digest(self) -> str:
        h = hashlib.sha256()
        for out in self.outputs:
            h.update(json.dumps(out, sort_keys=True).encode())
            h.update(b"\n")
        return h.hexdigest()


def _single_unit_term(x) -> bool:
    return len(x.terms) == 1 and next(iter(x.terms.values())) == 1


def _grhopf_basis_mismatches(g, pairs) -> list[str]:
    """Compare grhopf's basis sizes with the independent counts."""
    bad = []
    for labels, edges in pairs:
        graph = g.Graph(labels, edges)
        want = _graph_basis_sizes(labels, edges)
        for mid in MONOIDS:
            got = len(g.get_monoid(mid).basis(graph))
            if got != want[mid]:
                bad.append(f"basis {mid} on {graph!r}: {got} keys, expected {want[mid]}")
    return bad


def work_counts(runner: Runner) -> tuple[dict, list[str]]:
    """Exact work counts of a finished run, and every way they differ from
    what its inputs imply."""
    inputs = runner.inputs
    outs = runner.outputs
    problems: list[str] = []
    counts: dict = {"ops": len(outs)}

    def expect(name, got, want):
        counts[name] = got
        if got != want:
            problems.append(f"{name}: {got}, expected {want}")

    expect("ops_attempted", len(outs), len(inputs.ops))
    specs = inputs.graph_specs
    counts["graphs"] = len(specs)
    counts["basis_keys"] = sum(sum(_graph_basis_sizes(*s).values()) for s in specs)
    problems += _grhopf_basis_mismatches(runner.g, specs)
    if inputs.workload == "axioms-n4":
        per_graph = {"bimonoid": 13, "commutativity": 13, "morphism": 13, "diagram": 6}
        for kind, n in per_graph.items():
            got = sum(
                1 if isinstance(o, dict) else len(o)
                for op, o in zip(inputs.ops, outs)
                if op[0] == kind
            )
            expect(f"records_{kind}", got, n * len(specs))
    elif inputs.workload == "antipode-n4":
        got = sum(len(o) for o in outs if isinstance(o, list))
        want = (len(MONOIDS) + len(ANTIPODE_VERDICT_IDS)) * len(specs)
        expect("records_antipode", got, want)
    else:
        kinds: dict[str, int] = {}
        for op in inputs.ops:
            kinds[op[0]] = kinds.get(op[0], 0) + 1
        want = {
            "antipode_all": len(MONOIDS),
            "coproduct": len(MONOIDS),
            "product": len(MONOIDS),
            "morphism_apply": len(MORPHISM_SOURCES),
            "basis_change": len(BASIS_PARTNER),
        }
        for kind, n in want.items():
            expect(f"queries_{kind}", kinds.get(kind, 0), n)
    return counts, problems
