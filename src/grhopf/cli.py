"""Command line interface.

Exit codes: 0 on success, 1 when a verification or agreement check fails,
2 on malformed input (bad graph text, unknown key, invalid options).

All default output is byte-identical across runs for the same inputs; wall
time appears only inside --json verification reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .antipode import CLOSED_FORM_IDS, METHODS, antipode
from .elements import Element
from .errors import InputError
from .graphs import Graph
from .monoids import (
    MONOID_IDS,
    basis_change,
    coproduct_component,
    get_monoid,
    make_element,
    product,
)
from .morphisms import MORPHISM_NAMES, get_morphism, morphism_apply
from .verify import SUITES, corpus, run_suite


def _load_graph(path: str) -> Graph:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read graph file {path!r}: {exc}") from exc
    return Graph.from_text(text)


def _parse_split(text: str, g: Graph) -> tuple[frozenset, frozenset]:
    if text.count("|") != 1:
        raise InputError(
            f"split must contain exactly one '|' separating the two sides, got {text!r}"
        )
    left, right = text.split("|")
    s = frozenset(tok.strip() for tok in left.split(",") if tok.strip())
    t = frozenset(tok.strip() for tok in right.split(",") if tok.strip())
    if s & t:
        raise InputError(f"split sides overlap: {sorted(s & t)}")
    if s | t != g.vertex_set:
        missing = sorted(g.vertex_set - (s | t))
        extra = sorted((s | t) - g.vertex_set)
        parts = []
        if missing:
            parts.append(f"missing vertices {missing}")
        if extra:
            parts.append(f"unknown vertices {extra}")
        raise InputError(f"split does not partition the vertex set: {'; '.join(parts)}")
    return s, t


def _key_element(mid: str, g: Graph, text: str) -> Element:
    key = get_monoid(mid).parse_key(text)
    return make_element(mid, g, key)


def _default_jobs() -> int:
    raw = os.environ.get("GRHOPF_JOBS", "").strip()
    if not raw:
        return 1
    try:
        jobs = int(raw)
    except ValueError as exc:
        raise InputError(f"GRHOPF_JOBS must be an integer, got {raw!r}") from exc
    if jobs < 1:
        raise InputError(f"GRHOPF_JOBS must be positive, got {jobs}")
    return jobs


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_enumerate(args) -> int:
    g = _load_graph(args.graph)
    basis = get_monoid(args.monoid).basis(g)
    if args.list:
        for key in basis:
            print(key.literal())
    else:
        print(len(basis))
    return 0


def _cmd_product(args) -> int:
    g = _load_graph(args.graph)
    s, t = _parse_split(args.split, g)
    x = _key_element(args.monoid, g.induced(s), args.left)
    y = _key_element(args.monoid, g.induced(t), args.right)
    print(product(args.monoid, g, s, t, x, y))
    return 0


def _cmd_coproduct(args) -> int:
    g = _load_graph(args.graph)
    s, t = _parse_split(args.split, g)
    x = _key_element(args.monoid, g, args.key)
    print(coproduct_component(args.monoid, g, s, t, x))
    return 0


def _cmd_antipode(args) -> int:
    g = _load_graph(args.graph)
    key = get_monoid(args.monoid).parse_key(args.key)
    if args.method != "all":
        print(antipode(args.monoid, g, key, args.method))
        return 0
    methods = [m for m in METHODS if m != "closed" or args.monoid in CLOSED_FORM_IDS]
    results = [(m, antipode(args.monoid, g, key, m)) for m in methods]
    for name, value in results:
        print(f"{name}: {value}")
    agree = all(value == results[0][1] for _, value in results)
    print(f"verdict: {'AGREE' if agree else 'DISAGREE'}")
    return 0 if agree else 1


def _cmd_basis_change(args) -> int:
    g = _load_graph(args.graph)
    x = _key_element(args.monoid, g, args.key)
    print(basis_change(args.monoid, args.to, g, x))
    return 0


def _cmd_morphism(args) -> int:
    g = _load_graph(args.graph)
    get_morphism(args.name)
    x = _key_element(args.monoid, g, args.key)
    print(morphism_apply(args.name, g, x))
    return 0


def _cmd_verify(args) -> int:
    jobs = args.jobs if args.jobs is not None else _default_jobs()
    if args.json:
        # refuse a report path before the run; leave the file system as it was
        fresh = not os.path.exists(args.json)
        try:
            open(args.json, "a", encoding="utf-8").close()
        except OSError as exc:
            raise InputError(f"cannot write report {args.json!r}: {exc.strerror}") from exc
        if fresh:
            os.remove(args.json)
    report = run_suite(
        args.suite,
        args.nmax,
        monoids=args.monoid or None,
        seed=args.seed,
        jobs=jobs,
        samples6=args.samples,
    )
    print(report.summary_text())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if report.ok else 1


def _cmd_corpus_stats(args) -> int:
    graphs = corpus(args.nmax)
    by_n: dict[int, int] = {}
    for g in graphs:
        by_n[g.n] = by_n.get(g.n, 0) + 1
    for n in sorted(by_n):
        print(f"n={n}: {by_n[n]} graphs")
    print(f"total: {len(graphs)} graphs")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grhopf",
        description=(
            "Exact (q,t)-deformed product/coproduct/antipode computations on "
            "graph-indexed combinatorial structures, with a verification harness."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph(p):
        p.add_argument(
            "--graph",
            required=True,
            help="path to a graph file ('v <label>' and 'e <u> <v>' lines), or - for stdin",
        )

    def add_monoid(p):
        p.add_argument(
            "--monoid",
            required=True,
            choices=MONOID_IDS,
            help="monoid identifier",
        )

    p = sub.add_parser("enumerate", help="count (or list) the basis keys on a graph")
    add_monoid(p)
    add_graph(p)
    p.add_argument("--list", action="store_true", help="print one key literal per line")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("product", help="multiply two basis keys along a split")
    add_monoid(p)
    add_graph(p)
    p.add_argument("--split", required=True, help="vertex split, e.g. 'a,b|c,d'")
    p.add_argument("--left", required=True, help="key literal on the left side")
    p.add_argument("--right", required=True, help="key literal on the right side")
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("coproduct", help="one coproduct component of a basis key")
    add_monoid(p)
    add_graph(p)
    p.add_argument("--split", required=True, help="vertex split, e.g. 'a,b|c,d'")
    p.add_argument("--key", required=True, help="key literal on the whole graph")
    p.set_defaults(fn=_cmd_coproduct)

    p = sub.add_parser("antipode", help="antipode of a basis key")
    add_monoid(p)
    add_graph(p)
    p.add_argument("--key", required=True, help="key literal on the whole graph")
    p.add_argument(
        "--method",
        default="takeuchi",
        choices=METHODS + ("all",),
        help="computation route; 'all' compares every applicable route",
    )
    p.set_defaults(fn=_cmd_antipode)

    p = sub.add_parser("basis-change", help="rewrite a key in a partner basis")
    add_monoid(p)
    add_graph(p)
    p.add_argument("--to", required=True, choices=MONOID_IDS, help="target basis")
    p.add_argument("--key", required=True, help="key literal on the whole graph")
    p.set_defaults(fn=_cmd_basis_change)

    p = sub.add_parser("morphism", help="apply a named structure-preserving map")
    p.add_argument(
        "--name", required=True, choices=MORPHISM_NAMES, help="morphism name"
    )
    add_monoid(p)
    add_graph(p)
    p.add_argument("--key", required=True, help="key literal on the whole graph")
    p.set_defaults(fn=_cmd_morphism)

    p = sub.add_parser("verify", help="run a verification suite over small-graph corpora")
    p.add_argument("--suite", default="all", choices=SUITES, help="suite name")
    p.add_argument("--nmax", type=int, default=4, help="largest corpus vertex count (max 5)")
    p.add_argument(
        "--monoid",
        action="append",
        choices=MONOID_IDS,
        help="restrict to these monoids (repeatable)",
    )
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument(
        "--samples",
        type=int,
        default=0,
        help="extra seeded random 6-vertex graphs for the stanley suite",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: GRHOPF_JOBS or 1)",
    )
    p.add_argument("--json", help="also write the full report as JSON to this path")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("corpus-stats", help="print the exhaustive corpus composition")
    p.add_argument("--nmax", type=int, default=4, help="largest corpus vertex count (max 5)")
    p.set_defaults(fn=_cmd_corpus_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
