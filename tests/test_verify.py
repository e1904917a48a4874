"""Verification harness: corpora, record counts, determinism, reporting."""

import concurrent.futures
import copy
import hashlib
import importlib
import json
import os
import pickle
import random
import re
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

from grhopf import (
    MONOID_IDS,
    MONOIDS,
    MORPHISMS,
    AcyclicOrientation,
    CheckRecord,
    Element,
    Graph,
    InputError,
    Morphism,
    PartitionM,
    QTPolynomial,
    SetCompositionKey,
    VerificationReport,
    antipode,
    antipode_element,
    antipode_table,
    apply_path,
    check_antipode,
    check_basis_change,
    check_bimonoid,
    check_commutativity,
    check_diagram,
    check_functors,
    check_morphism,
    check_stanley,
    corpus,
    get_monoid,
    morphism_apply,
    ordered_bipartitions,
    run_suite,
    sampled_graphs,
)
from grhopf import monoids, verify
from grhopf.cli import main as cli_main
from grhopf.enumerators import _acyclic_arc_sets
from grhopf.graphs import _mask_of
from grhopf.verify import (
    COMMUTATIVITY_FLAVORS,
    EXPECTED_ALWAYS,
    EXPECTED_FAILING,
    MAX_CORPUS_N,
    SUITES,
    _assoc_witness,
    _closure_witness,
    _coassoc_witness,
    _compat_witness,
    _mm,
    _takeuchi_sums,
    _unit_counit_witness,
)

from .test_antipode import _LReversedProduct


@pytest.fixture(scope="module")
def bimonoid3():
    return run_suite("bimonoid", 3)


@pytest.fixture(scope="module")
def antipode3():
    return run_suite("antipode", 3)


@pytest.fixture(scope="module")
def commutativity3():
    return run_suite("commutativity", 3)


@pytest.fixture(scope="module")
def morphisms3():
    return run_suite("morphisms", 3)


@pytest.fixture(scope="module")
def all2():
    return run_suite("all", 2)


def test_corpus_sizes():
    # unlabeled-isomorphic duplicates are intentional: vertex-labeled graphs
    assert [len(corpus(n)) for n in range(5)] == [1, 2, 4, 12, 76]
    with pytest.raises(InputError):
        corpus(MAX_CORPUS_N + 1)
    with pytest.raises(InputError):
        corpus(-1)


def test_corpus_contents_small():
    got = {g.to_text() for g in corpus(2)}
    assert Graph((), ()).to_text() in got
    assert Graph(("v1",), ()).to_text() in got
    assert Graph(("v1", "v2"), ()).to_text() in got
    assert Graph(("v1", "v2"), (("v1", "v2"),)).to_text() in got


def test_sampled_graphs_deterministic():
    a = sampled_graphs(5, 16, seed=0)
    b = sampled_graphs(5, 16, seed=0)
    c = sampled_graphs(5, 16, seed=1)
    assert a == b
    assert a != c
    assert len(a) == 16
    assert all(g.n == 5 for g in a)


def test_bimonoid_counts(bimonoid3):
    # one record per (monoid, graph); closure checks for the sub-monoid
    # families fold into that record's axiom list
    assert len(bimonoid3.records) == 13 * 12
    assert bimonoid3.ok
    assert bimonoid3.graph_count == 12


def test_antipode_counts(antipode3):
    # per (monoid, graph) plus one gated closed-form verdict per gated id
    checks = {r.check for r in antipode3.records}
    assert checks == {"antipode", "antipode_closed_form_verdict"}
    verdicts = [r for r in antipode3.records if r.check == "antipode_closed_form_verdict"]
    assert len(verdicts) == 3 * 12
    assert all(v.passed for v in verdicts)
    assert len(antipode3.records) == 13 * 12 + 36
    assert antipode3.ok


def test_commutativity_counts(commutativity3):
    per_graph = [r for r in commutativity3.records if r.check == "commutativity"]
    witnesses = [
        r for r in commutativity3.records if r.check == "commutativity_witness"
    ]
    assert len(per_graph) == 13 * 12
    expected_witnesses = sum(len(EXPECTED_FAILING[mid]) for mid in MONOID_IDS)
    assert len(witnesses) == expected_witnesses
    assert commutativity3.ok
    for w in witnesses:
        assert w.graph == ""
        assert "flavor" in w.detail


def test_morphism_counts(morphisms3):
    per_graph = {}
    for r in morphisms3.records:
        per_graph.setdefault(r.graph, []).append(r)
    assert len(per_graph) == 12
    for recs in per_graph.values():
        assert len(recs) == 13 + 6
    assert morphisms3.ok


def test_all_suite_record_total(all2):
    assert all2.ok
    assert len(all2.records) == 351
    checks = {r.check for r in all2.records}
    assert checks == {
        "bimonoid",
        "antipode",
        "antipode_closed_form_verdict",
        "commutativity",
        "commutativity_witness",
        "morphism",
        "diagram",
        "functors",
        "stanley",
        "basis_change",
    }


def test_light_suites_pass():
    for suite, expected in (("functors", 13 * 12), ("stanley", 12), ("basis-change", 8 * 12)):
        rep = run_suite(suite, 3)
        assert rep.ok, suite
        assert len(rep.records) == expected, suite


def test_stanley_six_vertex_samples():
    rep = run_suite("stanley", 1, samples6=5)
    assert rep.ok
    assert len(rep.records) == 2 + 5
    assert rep.graph_count == 2 + 5


def test_stanley_when_a_label_spells_a_merged_block():
    # deletion-contraction merges a and b; the merged vertex must stay
    # distinct from the existing vertex "ab"
    g = Graph(["a", "b", "ab"], [("a", "b"), ("b", "ab")])
    assert check_stanley(g).passed


def test_stanley_counts_the_orientation_kernel_without_interning_keys():
    for g in corpus(4):
        assert len(_acyclic_arc_sets(g)) == len(get_monoid("AO").basis(g)), g
    # fresh labels: an orientation key of this graph would be a new entry
    labels = [f"stanley_fresh_{i}" for i in range(5)]
    g = Graph(labels, [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]])
    interned = len(AcyclicOrientation._keys)
    assert check_stanley(g).passed
    assert len(AcyclicOrientation._keys) == interned


def test_fl_m_closed_form_counts_orientations_without_interning_keys():
    for n in (4, 5):
        # fresh labels: an orientation key of a quotient would be a new entry
        labels = [f"fl_m_fresh_{n}_{i}" for i in range(n)]
        g = Graph(labels, [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]])
        interned = len(AcyclicOrientation._keys)
        assert all(r.passed for r in check_antipode("FL_M", g)), n
        assert len(AcyclicOrientation._keys) == interned, n


def test_monoid_selection():
    rep = run_suite("bimonoid", 2, monoids=["L", "AO", "L"])
    assert rep.selection == ("L", "AO")
    assert {r.monoid for r in rep.records} == {"L", "AO"}
    assert len(rep.records) == 2 * 4


def test_morphism_selection_by_domain():
    rep = run_suite("morphisms", 2, monoids=["L"])
    # three catalogued maps out of L, four pasted diagrams rooted at L
    assert len(rep.records) == (3 + 4) * 4
    assert rep.ok


def test_run_suite_validation():
    with pytest.raises(InputError):
        run_suite("nope", 2)
    with pytest.raises(InputError):
        run_suite("bimonoid", 6)
    with pytest.raises(InputError):
        run_suite("bimonoid", 2, monoids=["XX"])
    with pytest.raises(InputError):
        run_suite("bimonoid", 2, monoids=[])
    with pytest.raises(InputError):
        run_suite("bimonoid", 2, jobs=0)
    with pytest.raises(InputError):
        run_suite("stanley", 2, samples6=-1)


def test_parallel_matches_serial(monkeypatch):
    # a worker process may hold other label bits than this one (a spawned
    # worker starts from an empty label map), so no record may depend on them;
    # two CPUs, so that the pool runs on a host of one too
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for suite, monoids in (
        ("stanley", None),
        ("antipode", ["L", "Sigma", "Pi_p"]),
        ("bimonoid", ["L", "Sigma", "Pi_p"]),
    ):
        one = run_suite(suite, 3, monoids=monoids, jobs=1)
        two = run_suite(suite, 3, monoids=monoids, jobs=2)
        assert [r.to_json() for r in one.records] == [r.to_json() for r in two.records]


class _SerialPool:
    """Stands in for `ProcessPoolExecutor`: records the worker count it was
    asked for and maps in this process, so no worker process starts."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of each pool `run_suite` opens, on a host of 8 CPUs;
    `run_suite` imports the pool class from `concurrent.futures` when it
    opens one."""
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", partial(_SerialPool, sizes))
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    return sizes


@pytest.mark.parametrize(
    ("jobs", "nmax", "cpus", "sizes"),
    [
        (500, 1, 8, [2]),  # stanley on corpus(1): two graphs, two workers
        (500, 3, 8, [8]),
        (500, 3, None, []),  # an unknown CPU count runs serially
        (3, 3, 8, [3]),
        (2, 0, 8, []),  # one graph
    ],
)
def test_run_suite_starts_no_more_workers_than_tasks_or_cpus(
    monkeypatch, pool_sizes, jobs, nmax, cpus, sizes
):
    serial = run_suite("stanley", nmax, jobs=1)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    pooled = run_suite("stanley", nmax, jobs=jobs)
    assert pool_sizes == sizes
    assert [r.to_json() for r in pooled.records] == [r.to_json() for r in serial.records]
    assert pooled.summary_text() == serial.summary_text()


def test_jobs_env_starts_no_more_workers_than_graphs(capsys, monkeypatch, pool_sizes):
    argv = ["verify", "--suite", "stanley", "--nmax", "1"]
    assert cli_main(argv) == 0
    serial = capsys.readouterr()
    monkeypatch.setenv("GRHOPF_JOBS", "500")
    assert cli_main(argv) == 0
    assert capsys.readouterr() == serial
    assert cli_main([*argv, "--jobs", "500"]) == 0
    assert capsys.readouterr() == serial
    assert pool_sizes == [2, 2]


def test_report_json_shape(bimonoid3):
    data = bimonoid3.to_json()
    assert data["schema"] == "grhopf.report/1"
    assert data["suite"] == "bimonoid"
    assert data["n_max"] == 3
    assert data["seed"] == 0
    assert data["selection"] == list(MONOID_IDS)
    assert data["summary"] == {
        "checks": len(bimonoid3.records),
        "passed": len(bimonoid3.records),
        "failed": 0,
    }
    assert isinstance(data["wall_time_s"], float)
    rec = data["records"][0]
    assert set(rec) == {"check", "monoid", "graph", "passed", "detail"}


def test_summary_text_deterministic(bimonoid3):
    text = bimonoid3.summary_text()
    assert text == bimonoid3.summary_text()
    assert "wall" not in text
    last = text.splitlines()[-1]
    assert last.startswith("suite=bimonoid n_max=3 graphs=12 ")
    assert last.endswith("-> PASS")


def test_summary_text_failure_lines():
    rep = VerificationReport(
        suite="bimonoid",
        n_max=1,
        seed=0,
        selection=("L",),
        graph_count=1,
        records=[
            CheckRecord("bimonoid", "L", "v a\nv b", False, {"error": "boom"}),
            CheckRecord("bimonoid", "L", "v a", True, {}),
        ],
    )
    assert not rep.ok
    assert rep.failures()[0].detail == {"error": "boom"}
    lines = rep.summary_text().splitlines()
    assert lines[0] == "FAIL bimonoid monoid=L graph=[v a; v b]"
    assert lines[-1].endswith("-> FAIL")


def test_records_keep_repr_equality_json_and_pickling():
    rec = CheckRecord("bimonoid", "L", "v a", False, {"error": "boom"})
    assert repr(rec) == (
        "CheckRecord(check='bimonoid', monoid='L', graph='v a', passed=False,"
        " detail={'error': 'boom'})"
    )
    assert rec == CheckRecord("bimonoid", "L", "v a", False, {"error": "boom"})
    assert CheckRecord("stanley", "AO", "v a", True).detail is None
    as_json = rec.to_json()
    assert list(as_json) == ["check", "monoid", "graph", "passed", "detail"]
    assert as_json == {
        "check": "bimonoid",
        "monoid": "L",
        "graph": "v a",
        "passed": False,
        "detail": {"error": "boom"},
    }
    others = dict(check="antipode", monoid="AO", graph="v b", passed=True, detail=None)
    for field, other in others.items():
        assert CheckRecord(**{**as_json, field: other}) != rec, field

    fields = dict(
        suite="bimonoid",
        n_max=1,
        seed=0,
        selection=("L",),
        graph_count=1,
        records=[rec],
        wall_time_s=0.5,
    )
    rep = VerificationReport(**fields)
    assert repr(rep) == (
        "VerificationReport(suite='bimonoid', n_max=1, seed=0, selection=('L',),"
        f" graph_count=1, records=[{rec!r}], wall_time_s=0.5)"
    )
    assert rep == VerificationReport(**fields)
    others = dict(
        suite="antipode", n_max=2, seed=1, selection=("AO",), graph_count=2, records=[],
        wall_time_s=0.25,
    )
    for field, other in others.items():
        assert VerificationReport(**{**fields, field: other}) != rep, field
    assert rep.to_json() == {
        "schema": "grhopf.report/1",
        "suite": "bimonoid",
        "n_max": 1,
        "seed": 0,
        "selection": ["L"],
        "graph_count": 1,
        "records": [as_json],
        "summary": {"checks": 1, "passed": 0, "failed": 1},
        "wall_time_s": 0.5,
    }
    empty = VerificationReport("bimonoid", 1, 0, ("L",), 1)
    assert (empty.records, empty.wall_time_s) == ([], 0.0)
    # each report gets its own record list
    assert empty.records is not VerificationReport("bimonoid", 1, 0, ("L",), 1).records

    for obj in (rec, rep, empty):
        assert pickle.loads(pickle.dumps(obj)) == obj
        with pytest.raises(TypeError):
            hash(obj)


def test_expected_commutativity_tables_partition_flavors():
    assert set(EXPECTED_ALWAYS) == set(MONOID_IDS)
    assert set(EXPECTED_FAILING) == set(MONOID_IDS)
    for mid in MONOID_IDS:
        always = EXPECTED_ALWAYS[mid]
        failing = EXPECTED_FAILING[mid]
        assert always | failing == set(COMMUTATIVITY_FLAVORS)
        assert not (always & failing)


# sha256 of the JSON list of every record's [check, monoid, graph, passed] in
# run_suite("all", 5, monoids=["E"], seed=3, samples6=2)
WORK_LIST_DIGEST = "c275fd46ad73a403e0d757208dce963895795de850c74d697c2d9932005abccb"


def test_all_suites_walk_one_work_list():
    rep = run_suite("all", 5, monoids=["E"], seed=3, samples6=2)
    rows = [[r.check, r.monoid, r.graph, r.passed] for r in rep.records]
    assert len(rows) == 2570
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == WORK_LIST_DIGEST
    five = [g for g in corpus(5) if g.n == 5]
    sample = [g.to_text() for g in random.Random(3).sample(five, verify.SAMPLE_GRAPHS_5)]
    five_texts = {g.to_text() for g in five}

    def five_vertex_graphs(check):
        return [r.graph for r in rep.records if r.check == check and r.graph in five_texts]

    # the expensive suites name the same seeded sample, in its order
    for check in ("bimonoid", "antipode", "commutativity", "morphism"):
        assert five_vertex_graphs(check) == sample, check
    # the light suites walk every five-vertex graph in corpus order
    everything = [g.to_text() for g in five]
    for check in ("functors", "stanley"):
        assert five_vertex_graphs(check) == everything, check


def test_readme_names_every_suite_in_order():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("## Verification harness", 1)[1].split("\n## ", 1)[0]
    assert tuple(re.findall(r"^- `([a-z-]+)`:", section, re.M)) == SUITES


def test_suites_tuple():
    assert SUITES == (
        "bimonoid",
        "antipode",
        "commutativity",
        "morphisms",
        "functors",
        "stanley",
        "basis-change",
        "all",
    )


def test_coproduct_rows_equal_the_raw_map():
    # a row keys the raw coproduct_key value of each non-vanishing split by
    # its S mask, in the order of ordered_bipartitions; a vanishing split
    # has no entry.  The spec computes a row afresh on every call, the
    # store's copy once
    vanishing = 0
    for mid in MONOID_IDS:
        spec = get_monoid(mid)
        for g in corpus(3):
            cached = monoids._store(spec, g)
            for key in spec.basis(g):
                row = spec.coproducts(g, key)
                expected = []
                for s_labels, t_labels in ordered_bipartitions(g.vertices):
                    s, t = _mask_of(s_labels), _mask_of(t_labels)
                    res = spec.coproduct_key(g, s, t, key)
                    if res is None:
                        vanishing += 1
                    else:
                        expected.append((s, res))
                assert list(row.items()) == expected, (mid, g, key)
                assert spec.coproducts(g, key) is not row
                assert list(cached.coproducts(g, key).items()) == expected
                assert cached.coproducts(g, key) is cached.coproducts(g, key)
    assert vanishing


class _SigmaDroppingT(type(MONOIDS["Sigma"])):
    """Sigma, except that the coproduct forgets its t power on one split."""

    SPLIT = (_mask_of(["v1"]), _mask_of(["v2", "v3"]))

    def coproduct_key(self, g, S, T, key):
        res = super().coproduct_key(g, S, T, key)
        if res is not None and (S, T) == self.SPLIT:
            return res[0], res[1], res[2], 0
        return res


_LAWS = (_assoc_witness, _coassoc_witness, _unit_counit_witness, _compat_witness, _closure_witness)


def _raw_and_cached_agree(spec, g: Graph) -> list:
    """Every bimonoid law's witness and every key's alternating sum and
    recursions on g, on spec itself (the uncached reference) and on its
    cached copy from the store; asserts they agree and returns the
    witnesses."""
    cached = monoids._store(spec, g)
    witnesses = [law(spec, g, None) for law in _LAWS]
    assert [law(cached, g, None) for law in _LAWS] == witnesses, (spec.id, g)
    for key in spec.basis(g):
        for route in (
            lambda s: _takeuchi_sums(s, g, key, {}),
            lambda s: _mm(s, g, key, "left", {}),
            lambda s: _mm(s, g, key, "right", {}),
        ):
            assert route(cached) == route(spec), (spec.id, g, key)
    return witnesses


def test_memoized_checks_report_the_raw_witnesses(monkeypatch):
    for mid in MONOID_IDS:
        for g in corpus(3):
            assert _raw_and_cached_agree(MONOIDS[mid], g) == [None] * len(_LAWS), (mid, g)

    broken = _SigmaDroppingT("Sigma", stable=False)
    monkeypatch.setitem(MONOIDS, "Sigma", broken)
    coassociativity_fails = 0
    for g in corpus(3):
        witnesses = _raw_and_cached_agree(broken, g)
        # the first law witness is the one the check reports
        assert check_bimonoid("Sigma", g).detail == next(
            (w for w in witnesses[:4] if w is not None), None
        ), g
        coassociativity_fails += witnesses[1] is not None
    assert coassociativity_fails

    assert not check_commutativity("Sigma", _P3)["cocommutative_exact"][0]


def test_functors_build_no_basis_where_no_count_is_expected():
    # a path is neither complete nor discrete, so no basis count applies
    g = Graph(["p1", "p2", "p3"], [("p1", "p2"), ("p2", "p3")])
    before = verify._basis_cached.cache_info()
    for mid in MONOID_IDS:
        assert check_functors(mid, g).passed
    after = verify._basis_cached.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits


def test_gated_antipode_keeps_its_verdict_when_a_convolution_fails(monkeypatch):
    # every route agrees on the identity, which is not the antipode: the
    # convolution law fails after the closed form has been judged
    monkeypatch.setattr(verify, "_takeuchi_sums", lambda spec, g, key, sums: {(key, 0, 0): 1})
    # the recursions' exponent maps for method agreement and for the
    # convolution and involution laws
    monkeypatch.setattr(verify, "_mm", lambda spec, g, key, side, memo: {(key, 0, 0): 1})
    g = Graph(["v1", "v2"], [("v1", "v2")])
    main, verdict = check_antipode("Sigma", g)
    assert not main.passed and main.detail["law"] == "convolution_left"
    assert verdict.check == "antipode_closed_form_verdict"
    assert not verdict.passed
    assert verdict.detail["takeuchi"] == str(Element.of("Sigma", g, get_monoid("Sigma").basis(g)[0]))


_ARITHMETIC = ("__mul__", "__rmul__", "__neg__", "__add__", "__radd__", "__sub__", "__rsub__")


def _count_calls(monkeypatch, cls, names) -> dict:
    """Wrap each named method of cls with a counter; returns the live
    {method name: calls} map."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        inner = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(cls, name, counted(name))
    return calls


def _count_polynomial_arithmetic(monkeypatch) -> dict:
    """The live {method name: calls} map of `QTPolynomial` arithmetic."""
    return _count_calls(monkeypatch, QTPolynomial, _ARITHMETIC)


def test_antipode_laws_do_no_polynomial_arithmetic(monkeypatch):
    # every route, law and closed form sums exponent maps of keys the check
    # enumerated itself: a passing check does no polynomial arithmetic,
    # builds no Element and validates no key (every subclass's validate_key
    # calls the base one)
    arithmetic = _count_polynomial_arithmetic(monkeypatch)
    built = _count_calls(monkeypatch, Element, ("__init__",))
    validated = _count_calls(monkeypatch, monoids.MonoidSpec, ("validate_key",))
    for mid in MONOID_IDS:
        for g in corpus(3):
            assert all(r.passed for r in check_antipode(mid, g)), (mid, g)
    assert arithmetic == dict.fromkeys(_ARITHMETIC, 0)
    assert built == {"__init__": 0}
    assert validated == {"validate_key": 0}


def test_antipode_check_expands_each_recursion_step_once(monkeypatch):
    # one memo per side spans the routes, both convolution laws and the
    # involution: a fresh memo per query keeps every verdict but redoes
    # the recursions
    module = importlib.import_module("grhopf.antipode")
    expand = module._mm_terms
    expanded = Counter()

    def counted(spec, g, key, side, memo):
        expanded[g, key, side] += 1
        return expand(spec, g, key, side, memo)

    monkeypatch.setattr(module, "_mm_terms", counted)
    for mid in MONOID_IDS:
        for g in corpus(3):
            expanded.clear()
            assert all(r.passed for r in check_antipode(mid, g)), (mid, g)
            assert g.n == 0 or expanded, (mid, g)
            assert max(expanded.values(), default=1) == 1, (mid, g)


def _count_map(monkeypatch, name) -> Counter:
    """Put a copy of every monoid whose structure map name counts its calls
    into MONOIDS; returns the live {(monoid id, *arguments): calls}
    counter."""
    computed = Counter()

    def counted(spec):
        inner = getattr(spec, name)

        def wrapper(*args):
            computed[spec.id, *args] += 1
            return inner(*args)

        twin = copy.copy(spec)
        setattr(twin, name, wrapper)
        return twin

    for mid in MONOID_IDS:
        monkeypatch.setitem(MONOIDS, mid, counted(MONOIDS[mid]))
    return computed


def test_antipode_check_computes_each_coproduct_once(monkeypatch):
    # one cached copy's rows span the alternating sum, both recursions, both
    # convolution laws and the involution: each (graph, split, key) is
    # computed once per check
    computed = _count_map(monkeypatch, "coproduct_key")
    for mid in MONOID_IDS:
        for g in corpus(3):
            computed.clear()
            assert all(r.passed for r in check_antipode(mid, g)), (mid, g)
            assert g.n == 0 or computed, (mid, g)
            assert max(computed.values(), default=1) == 1, (mid, g)


def test_antipode_check_computes_each_product_once(monkeypatch):
    # one product-cached spec spans the alternating sum, both recursions,
    # both convolution laws and the involution: each (graph, s, t, x, y)
    # is computed once per check
    computed = _count_map(monkeypatch, "product_key")
    for mid in MONOID_IDS:
        for g in corpus(3):
            computed.clear()
            assert all(r.passed for r in check_antipode(mid, g)), (mid, g)
            assert max(computed.values(), default=1) == 1, (mid, g)
    assert computed


def test_antipode_calls_compute_each_product_once(monkeypatch):
    # antipode_table and every antipode_element call on one root graph read
    # one product-cached spec from the store: the first call computes
    # products, and no product is computed twice over all the calls
    computed = _count_map(monkeypatch, "product_key")
    g = corpus(4)[-1]
    for mid in MONOID_IDS:
        basis = get_monoid(mid).basis(g)
        computed.clear()
        antipode_table(mid, g)
        assert g.n == 4 and computed, mid
        x = Element(mid, g, dict.fromkeys(basis, 1))
        for method in ("takeuchi", "milnor-moore-left", "milnor-moore-right"):
            antipode_element(mid, g, x, method)
        assert max(computed.values()) == 1, mid


def test_checks_of_one_graph_compute_each_structure_map_once(monkeypatch):
    # the bimonoid, commutativity, antipode and morphism checks of one graph
    # read one store: each (graph, split, key) coproduct and each product of
    # a monoid is computed at most once over all of them
    coproducts = _count_map(monkeypatch, "coproduct_key")
    products = _count_map(monkeypatch, "product_key")
    for g in corpus(3):
        coproducts.clear()
        products.clear()
        for mid in MONOID_IDS:
            assert check_bimonoid(mid, g).passed, (mid, g)
            check_commutativity(mid, g)
            assert all(r.passed for r in check_antipode(mid, g)), (mid, g)
        for name in MORPHISMS:
            assert check_morphism(name, g).passed, (name, g)
        assert coproducts and max(coproducts.values()) == 1, g
        assert g.n == 0 or max(products.values()) == 1, g


def test_basis_changes_do_no_polynomial_arithmetic(monkeypatch):
    # the round trip and Pi_m's closed form rebase {payload: int} maps
    calls = _count_polynomial_arithmetic(monkeypatch)
    for g in corpus(3):
        for mid in monoids.BASIS_PARTNER:
            assert check_basis_change(mid, g).passed, (mid, g)
        for k in get_monoid("Pi_m").basis(g):
            antipode("Pi_m", g, k, "closed")
    assert calls == dict.fromkeys(_ARITHMETIC, 0)


class _MatchMWithExtraQ(type(MONOIDS["Match_M"])):
    """Match_M with one extra factor q on four coproduct splits.  On the
    edgeless graph v1..v4, whose one key is the empty matching, the
    alternating sum and both recursions give -q^2 + 4*q - 2 on the whole
    graph, but the recursions disagree below it: the left one gives -q on
    v1,v2,v3 and q - 2 on v1,v2,v4, the right one q - 2 and -q.  Match_M
    has no closed form to catch this."""

    SHIFTED = frozenset(
        {
            (_mask_of(["v2", "v3"]), _mask_of(["v1"])),
            (_mask_of(["v4"]), _mask_of(["v1", "v2"])),
            (_mask_of(["v1", "v2", "v4"]), _mask_of(["v3"])),
            (_mask_of(["v4"]), _mask_of(["v1", "v2", "v3"])),
        }
    )

    def coproduct_key(self, g, S, T, key):
        left, right, qe, te = super().coproduct_key(g, S, T, key)
        if (S, T) in self.SHIFTED:
            qe += 1
        return left, right, qe, te


def test_convolution_laws_take_the_antipode_from_the_other_recursion(monkeypatch):
    # each one-sided recursion satisfies its own side's law by definition,
    # so only the crossed sums can see that these maps have no two-sided
    # inverse
    monkeypatch.setitem(MONOIDS, "Match_M", _MatchMWithExtraQ("Match_M", "M", True))
    g = Graph(["v1", "v2", "v3", "v4"])
    empty = get_monoid("Match_M").empty_key()

    def by_sides(h):
        methods = ("milnor-moore-left", "milnor-moore-right")
        return tuple(str(antipode("Match_M", h, empty, m)) for m in methods)

    assert by_sides(g) == ("(-q^2 + 4*q - 2) ()",) * 2
    for sub, by_left, by_right in (
        (["v1", "v2", "v3"], "(-q) ()", "(q - 2) ()"),
        (["v1", "v2", "v4"], "(q - 2) ()", "(-q) ()"),
    ):
        assert by_sides(g.induced(sub)) == (by_left, by_right)
    (record,) = check_antipode("Match_M", g)
    assert not record.passed
    assert record.detail == {
        "law": "convolution_left",
        "key": "()",
        "got": "(-2*q^2 + 4*q - 2) ()",
    }


# ---------------------------------------------------------------------------
# pinned failure witnesses: each broken fixture must report exactly this
# first counterexample


_P3 = Graph(["v1", "v2", "v3"], [("v1", "v2")])
_K3 = Graph(["v1", "v2", "v3"], [("v1", "v2"), ("v1", "v3"), ("v2", "v3")])
_D3 = Graph(["v1", "v2", "v3"], [])


def _reversed_order_inclusion():
    return Morphism(
        "iota_L_SSigma",
        {"L": "SSigma"},
        lambda g, key: SetCompositionKey((v,) for v in reversed(key.seq)),
    )


# the first witnesses of `_SigmaDroppingT` on _P3
_COASSOCIATIVITY_WITNESS = {
    "axiom": "coassociativity",
    "parts": [["v1"], ["v2"], ["v3"]],
    "key": "v2,v3|v1",
    "path_first_then_rest": "(q) v1 (x) v2 (x) v3",
    "path_rest_then_first": "(q*t) v1 (x) v2 (x) v3",
}
_MORPHISM_COPRODUCT_WITNESS = {
    "law": "coproduct_intertwines",
    "route": ["SSigma", "Sigma"],
    "split": [["v1"], ["v2", "v3"]],
    "key": "v2,v3|v1",
    "map_then_coproduct": "(q) v1 (x) v2,v3",
    "coproduct_then_map": "(q*t) v1 (x) v2,v3",
}


def test_bimonoid_coassociativity_witness(monkeypatch):
    monkeypatch.setitem(MONOIDS, "Sigma", _SigmaDroppingT("Sigma", stable=False))
    record = check_bimonoid("Sigma", _P3)
    assert not record.passed
    assert record.detail == _COASSOCIATIVITY_WITNESS


class _SigmaShiftedBraiding(type(MONOIDS["Sigma"])):
    """Sigma, except that its braiding gains a factor q on one split."""

    SPLIT = (_mask_of(["v2"]), _mask_of(["v1"]))

    def braiding(self, g, S, T):
        qe, te = super().braiding(g, S, T)
        return (qe + 1, te) if (S, T) == self.SPLIT else (qe, te)


def test_bimonoid_compatibility_witness(monkeypatch):
    monkeypatch.setitem(MONOIDS, "Sigma", _SigmaShiftedBraiding("Sigma", stable=False))
    assert check_bimonoid("Sigma", _P3).detail == {
        "axiom": "product_coproduct_compatibility",
        "product_split": [["v2"], ["v1", "v3"]],
        "coproduct_split": [["v1"], ["v2", "v3"]],
        "keys": ["v2", "v1,v3"],
        "coproduct_of_product": "(q) v1 (x) v2|v3",
        "braided_exchange": "(q^2) v1 (x) v2|v3",
    }


class _MatchMSingleEdges(type(MONOIDS["Match_M"])):
    """Match_M, except that a key of two or more edges is refused."""

    def validate_key(self, g, key):
        super().validate_key(g, key)
        if len(key.edges) > 1:
            raise InputError(f"{key.literal()} has more than one edge")


class _SSigmaRefusingOneVertex(type(MONOIDS["SSigma"])):
    """SSigma, except that every key on a one-vertex graph is refused."""

    def validate_key(self, g, key):
        super().validate_key(g, key)
        if g.n == 1:
            raise InputError(f"{key.literal()} lies on one vertex")


def test_bimonoid_closure_witnesses(monkeypatch):
    # within a split, products are validated before coproduct factors
    monkeypatch.setitem(MONOIDS, "Match_M", _MatchMSingleEdges("Match_M", "M", True))
    two_edges = Graph(["v1", "v2", "v3", "v4"], [("v1", "v2"), ("v3", "v4")])
    assert check_bimonoid("Match_M", two_edges).detail == {
        "axiom": "product_closure",
        "split": [[], ["v1", "v2", "v3", "v4"]],
        "keys": ["()", "v1-v2,v3-v4"],
        "error": "v1-v2,v3-v4 has more than one edge",
    }
    monkeypatch.setitem(MONOIDS, "SSigma", _SSigmaRefusingOneVertex("SSigma", stable=True))
    assert check_bimonoid("SSigma", _P3).detail == {
        "axiom": "coproduct_closure",
        "split": [["v1"], ["v2", "v3"]],
        "key": "v1,v3|v2",
        "error": "v1 lies on one vertex",
    }


class _LSwappingOneSplit(type(MONOIDS["L"])):
    """L, except that the product on one split of _P3 puts the right
    factor's order first, which breaks associativity."""

    SPLIT = (_mask_of(["v2"]), _mask_of(["v1", "v3"]))

    def product_key(self, g, S, T, x, y):
        if (S, T) == self.SPLIT:
            return super().product_key(g, T, S, y, x)
        return super().product_key(g, S, T, x, y)


def test_bimonoid_associativity_witness(monkeypatch):
    monkeypatch.setitem(MONOIDS, "L", _LSwappingOneSplit())
    assert check_bimonoid("L", _P3).detail == {
        "axiom": "associativity",
        "parts": [["v2"], ["v1"], ["v3"]],
        "keys": ["v2", "v1", "v3"],
        "left": "v2<v1<v3",
        "right": "v1<v3<v2",
    }


def test_antipode_recursion_disagreement_witness(monkeypatch):
    # without associativity the right recursion leaves the alternating sum
    # (the left one happens to agree on this key)
    monkeypatch.setitem(MONOIDS, "L", _LSwappingOneSplit())
    (main,) = check_antipode("L", _P3)
    assert main.detail == {
        "law": "method_agreement",
        "key": "v1<v2<v3",
        "takeuchi": "(q) v1<v3<v2 + (-q) v2<v1<v3 + (-q*t^2) v3<v2<v1",
        "milnor-moore-right": "(q*t) v2<v3<v1 + (-q*t) v3<v1<v2 + (-q*t^2) v3<v2<v1",
    }


_V12 = Graph(["v1", "v2"], [("v1", "v2")])


class _PiMSeparatingAtOneLaw(type(MONOIDS["Pi_m"])):
    """Pi_m, except that on _V12 one (co)unit map sends the one-block
    partition v1,v2 to v1/v2.  No proper split of _V12 tells the two apart
    and v1/v2 stays put, so associativity and coassociativity still hold and
    the named law is the first to fail."""

    JOINED = PartitionM([["v1", "v2"]])
    APART = PartitionM([["v1"], ["v2"]])

    def __init__(self, law):
        super().__init__("Pi_m", "m", stable=False)
        self.law = law

    def _moved(self, law, key, g, S, T, trivial):
        """APART for JOINED when law is this mutant's and (S, T) is the
        trivial split of _V12; else key."""
        on = self.law == law and g.mask == _V12.mask and (S, T) == trivial
        return self.APART if on and key is self.JOINED else key

    def product_key(self, g, S, T, x, y):
        res = super().product_key(g, S, T, x, y)
        res = self._moved("left_unit", res, g, S, T, (0, g.mask))
        return self._moved("right_unit", res, g, S, T, (g.mask, 0))

    def coproduct_key(self, g, S, T, key):
        left, right, qe, te = super().coproduct_key(g, S, T, key)
        right = self._moved("left_counit", right, g, S, T, (0, g.mask))
        left = self._moved("right_counit", left, g, S, T, (g.mask, 0))
        return left, right, qe, te


@pytest.mark.parametrize(
    "law, got",
    [
        ("left_unit", None),
        ("right_unit", None),
        ("left_counit", "(1) () (x) v1/v2"),
        ("right_counit", "(1) v1/v2 (x) ()"),
    ],
)
def test_bimonoid_unit_and_counit_witnesses(monkeypatch, law, got):
    monkeypatch.setitem(MONOIDS, "Pi_m", _PiMSeparatingAtOneLaw(law))
    witness = {"axiom": law, "key": "v1,v2"}
    if got is not None:
        witness["got"] = got
    assert check_bimonoid("Pi_m", _V12).detail == witness


def test_commutativity_first_witnesses():
    product_witness = {
        "split": [["v1"], ["v2", "v3"]],
        "keys": ["v1", "v2<v3"],
        "forward": "v1<v2<v3",
        "backward": "v2<v3<v1",
        "braiding": "q*t",
    }
    assert check_commutativity("L", _P3) == {
        "commutative_exact": (False, product_witness),
        "commutative_plain": (False, product_witness),
        "cocommutative_exact": (
            False,
            {
                "split": [["v1"], ["v2", "v3"]],
                "key": "v1<v2<v3",
                "coproduct": "(1) v1 (x) v2<v3",
                "braided_swap_of_reverse": "(q^2*t^2) v1 (x) v2<v3",
            },
        ),
        "cocommutative_plain": (True, None),
        "disjoint_commutative": (
            False,
            {
                "split": [["v1", "v2"], ["v3"]],
                "keys": ["v1<v2", "v3"],
                "forward": "v1<v2<v3",
                "backward": "v3<v1<v2",
                "braiding": "t^2",
            },
        ),
        "join_commutative": (True, None),
    }
    product_witness = {
        "split": [["v1"], ["v2", "v3"]],
        "keys": ["()", "()"],
        "forward": "v1>v2",
        "backward": "v2>v1",
        "braiding": "q",
    }
    assert check_commutativity("AO", _P3) == {
        "commutative_exact": (False, product_witness),
        "commutative_plain": (False, product_witness),
        "cocommutative_exact": (
            False,
            {
                "split": [["v1"], ["v2", "v3"]],
                "key": "v1>v2",
                "coproduct": "(1) () (x) ()",
                "braided_swap_of_reverse": "(q^2) () (x) ()",
            },
        ),
        "cocommutative_plain": (True, None),
        "disjoint_commutative": (True, None),
        "join_commutative": (True, None),
    }


def test_commutativity_record_names_a_failing_expected_flavor(monkeypatch):
    # L is not commutative, so expecting it to be fails the record with the
    # flavor's witness
    expected = EXPECTED_ALWAYS["L"] | {"commutative_exact"}
    monkeypatch.setitem(EXPECTED_ALWAYS, "L", expected)
    (record,), _observed = verify._commutativity_records(["L"], _P3, None)
    assert not record.passed
    assert record.detail == {
        "flavor": "commutative_exact",
        **check_commutativity("L", _P3)["commutative_exact"][1],
    }


class _SigmaBrokenTwice(_SigmaDroppingT):
    """`_SigmaDroppingT` whose product also swaps its factors on a split
    that comes after the coproduct's broken split."""

    PRODUCT_SPLIT = (_mask_of(["v2"]), _mask_of(["v1", "v3"]))

    def product_key(self, g, S, T, x, y):
        if (S, T) == self.PRODUCT_SPLIT:
            return super().product_key(g, T, S, y, x)
        return super().product_key(g, S, T, x, y)


def test_morphism_witness_takes_the_earlier_split(monkeypatch):
    # the product law fails on a later split than the coproduct law, and
    # the laws run split by split
    monkeypatch.setitem(MONOIDS, "Sigma", _SigmaBrokenTwice("Sigma", stable=False))
    assert check_morphism("iota_SSigma_Sigma", _P3).detail == _MORPHISM_COPRODUCT_WITNESS


def test_morphism_product_witness(monkeypatch):
    monkeypatch.setitem(MORPHISMS, "iota_L_SSigma", _reversed_order_inclusion())
    record = check_morphism("iota_L_SSigma", _P3)
    assert (record.check, record.monoid, record.passed) == ("morphism", "iota_L_SSigma", False)
    assert record.detail == {
        "law": "product_intertwines",
        "route": ["L", "SSigma"],
        "split": [["v1"], ["v2", "v3"]],
        "keys": ["v1", "v2<v3"],
        "map_of_product": "v3|v2|v1",
        "product_of_maps": "v1|v3|v2",
    }


def test_morphism_coproduct_witness(monkeypatch):
    monkeypatch.setitem(MONOIDS, "Sigma", _SigmaDroppingT("Sigma", stable=False))
    record = check_morphism("iota_SSigma_Sigma", _P3)
    assert not record.passed
    assert record.detail == _MORPHISM_COPRODUCT_WITNESS


def test_no_structure_map_outlives_its_spec(monkeypatch):
    # the store keeps each graph's structure maps per spec object, so a
    # mutant put into MONOIDS after a first pass on the same graph gets
    # fresh ones and fails as it does on a cold store; the L product mutant
    # is the one that moves a commutativity witness on _P3
    def run():
        return (
            check_bimonoid("Sigma", _P3),
            check_commutativity("L", _P3),
            check_morphism("iota_SSigma_Sigma", _P3),
            check_antipode("L", _P3),
        )

    bimonoid, commutativity, morphism, (antipode_record,) = run()
    assert bimonoid.passed and morphism.passed and antipode_record.passed
    monkeypatch.setitem(MONOIDS, "Sigma", _SigmaDroppingT("Sigma", stable=False))
    monkeypatch.setitem(MONOIDS, "L", _LReversedProduct())
    warm = run()
    bimonoid, mutant_commutativity, morphism, (antipode_record,) = warm
    assert bimonoid.detail == _COASSOCIATIVITY_WITNESS
    assert mutant_commutativity != commutativity
    assert morphism.detail == _MORPHISM_COPRODUCT_WITNESS
    assert antipode_record.detail == {
        "law": "method_agreement",
        "key": "v1<v2<v3",
        "takeuchi": "(-q*t^2 + q*t + t^2 - 1) v1<v2<v3 + (-q*t + q) v1<v3<v2"
        " + (-t^2 + t) v2<v1<v3 + (-t + 1) v2<v3<v1 + (-q + 1) v3<v1<v2"
        " + (-1) v3<v2<v1",
        "closed": "(-q*t^2) v3<v2<v1",
    }
    monoids._clear_store()
    assert run() == warm


class _SigmaRecordingRows(type(MONOIDS["Sigma"])):
    """Sigma, recording the (graph, key) of every row it computes."""

    def __init__(self):
        super().__init__("Sigma", stable=False)
        self.computed = []

    def coproducts(self, g, key):
        self.computed.append((g, key))
        return super().coproducts(g, key)


def test_store_holds_one_root_graph_until_the_run_ends(monkeypatch):
    recording = _SigmaRecordingRows()
    monkeypatch.setitem(MONOIDS, "Sigma", recording)
    first = Graph(["a1", "a2", "a3"], [("a1", "a2")])
    second = Graph(["b1", "b2"], [("b1", "b2")])
    check_bimonoid("Sigma", first)
    made_on_first = monoids._STORE[recording]
    recording.computed.clear()
    check_bimonoid("Sigma", second)
    assert monoids._store_root is second
    held = monoids._STORE[recording]
    assert list(monoids._STORE) == [recording] and held is not made_on_first
    # the copy holds the rows it missed, which are the rows computed since
    # the root changed: every one lies in the second graph
    assert held.coproducts.cache_info().currsize == len(recording.computed)
    assert recording.computed
    assert all(h.mask & second.mask == h.mask for h, _key in recording.computed)
    run_suite("bimonoid", 2, monoids=["Sigma"])
    assert monoids._STORE == {} and monoids._store_root is None


def test_diagram_witness(monkeypatch):
    monkeypatch.setitem(MORPHISMS, "iota_L_SSigma", _reversed_order_inclusion())
    record = check_diagram("order_composition_triangle", _P3)
    assert (record.check, record.monoid, record.passed) == (
        "diagram",
        "order_composition_triangle",
        False,
    )
    assert record.detail == {
        "key": "v1<v2<v3",
        "path": ["iota_L_SSigma", "iota_SSigma_Sigma"],
        "other_path": ["_iota_L_Sigma"],
        "via_path": "(1) v3|v2|v1",
        "via_other_path": "(1) v1|v2|v3",
    }


def _one_block_inclusion():
    # every order goes to the one-block composition, which is stable only
    # on an edgeless graph
    return Morphism(
        "iota_L_SSigma",
        {"L": "SSigma"},
        lambda g, key: SetCompositionKey._of((g.mask,) if g.n else ()),
    )


def test_morphism_image_outside_its_codomain_fails_the_check(monkeypatch, capsys):
    # the morphism and diagram checks record the invalid image instead of
    # refusing it, so the suite reports FAIL rather than malformed input
    monkeypatch.setitem(MORPHISMS, "iota_L_SSigma", _one_block_inclusion())
    assert check_morphism("iota_L_SSigma", _P3).detail == {
        "law": "map_closure",
        "route": ["L", "SSigma"],
        "key": "v1<v2<v3",
        "error": "block v1,v2,v3 is not independent",
    }
    assert check_diagram("order_composition_triangle", _P3).detail == {
        "key": "v1<v2<v3",
        "path": ["iota_L_SSigma", "iota_SSigma_Sigma"],
        "other_path": ["_iota_L_Sigma"],
        "error": "iota_L_SSigma: block v1,v2,v3 is not independent",
    }
    report = run_suite("morphisms", 3, monoids=["L"])
    failed = {(r.check, r.monoid) for r in report.records if not r.passed}
    assert ("morphism", "iota_L_SSigma") in failed
    assert ("diagram", "order_composition_triangle") in failed
    argv = ["verify", "--suite", "morphisms", "--nmax", "3", "--monoid", "L", "--jobs", "1"]
    assert cli_main(argv) == 1
    assert "failed=36 -> FAIL" in capsys.readouterr().out


def test_morphism_image_outside_its_codomain_is_refused_with_its_name(
    monkeypatch, capsys, tmp_path
):
    # the element-level entries walk every key along the path as the
    # diagram check does, so each refuses the invalid image by the name of
    # the morphism that made it
    monkeypatch.setitem(MORPHISMS, "iota_L_SSigma", _one_block_inclusion())
    x = Element.of("L", _P3, get_monoid("L").parse_key("v1<v2<v3"))
    message = "^iota_L_SSigma: block v1,v2,v3 is not independent$"
    with pytest.raises(InputError, match=message):
        morphism_apply("iota_L_SSigma", _P3, x)
    with pytest.raises(InputError, match=message):
        apply_path(("iota_L_SSigma", "iota_SSigma_Sigma"), _P3, x)
    path = tmp_path / "p3.graph"
    path.write_text("v v1\nv v2\nv v3\ne v1 v2\n", encoding="utf-8")
    argv = ["morphism", "--name", "iota_L_SSigma", "--monoid", "L", "--graph", str(path)]
    assert cli_main([*argv, "--key", "v1<v2<v3"]) == 2
    assert capsys.readouterr().err == f"error: {message[1:-1]}\n"


class _LWithTCoproduct(type(MONOIDS["L"])):
    """L, except that every coproduct coefficient gains a factor t."""

    def coproduct_key(self, g, S, T, key):
        left, right, qe, te = super().coproduct_key(g, S, T, key)
        return left, right, qe, te + 1


class _LWithQBraiding(type(MONOIDS["L"])):
    """L, except that its braiding is q on every split."""

    def braiding(self, g, S, T):
        return 1, 0


def test_functors_complete_t_free_witness(monkeypatch):
    monkeypatch.setitem(MONOIDS, "L", _LWithTCoproduct())
    record = check_functors("L", _K3)
    assert (record.check, record.monoid, record.passed) == ("functors", "L", False)
    assert record.detail == {
        "law": "complete_t_free",
        "where": "coproduct",
        "split": [[], ["v1", "v2", "v3"]],
        "key": "v1<v2<v3",
        "coefficient": "t",
    }


def test_functors_discrete_q_free_witness(monkeypatch):
    monkeypatch.setitem(MONOIDS, "L", _LWithQBraiding())
    record = check_functors("L", _D3)
    assert not record.passed
    assert record.detail == {"law": "discrete_q_free", "where": "braiding", "coefficient": "q"}


def test_functors_basis_count_witness(monkeypatch):
    full = verify._basis_cached
    monkeypatch.setattr(verify, "_basis_cached", lambda spec, g: full(spec, g)[:-1])
    record = check_functors("AO", _K3)
    assert not record.passed
    assert record.detail == {"law": "basis_count", "expected": 6, "got": 5}


def test_functors_complement_swaps_parameters_witness(monkeypatch):
    # a braiding that forgets its t parameter does not swap under
    # complement; the complement witness is cached per graph, so it is
    # dropped before and after the mutant
    monkeypatch.setattr(verify, "_braiding", lambda g, s, t: (g._crossing(s, t), 0))
    verify._complement_witness.cache_clear()
    try:
        record = check_functors("L", _P3)
    finally:
        verify._complement_witness.cache_clear()
    assert not record.passed
    assert record.detail == {
        "law": "complement_swaps_parameters",
        "split": [["v1"], ["v2", "v3"]],
        "braiding": "q",
        "complement_braiding": "q",
    }


class _LWithoutFirstKey(type(MONOIDS["L"])):
    """L, except that its basis lacks the first payload it enumerates."""

    def _enumerate_basis(self, g):
        return list(super()._enumerate_basis(g))[1:]


def test_a_spec_swapped_in_after_its_basis_was_cached_is_asked_for_its_own(monkeypatch):
    assert len(MONOIDS["L"].basis(_K3)) == 6
    monkeypatch.setitem(MONOIDS, "L", _LWithoutFirstKey())
    assert len(get_monoid("L").basis(_K3)) == 5
    record = check_functors("L", _K3)
    assert not record.passed
    assert record.detail == {"law": "basis_count", "expected": 6, "got": 5}


def test_basis_change_witness(monkeypatch):
    monkeypatch.setattr(monoids, "_p_in_m", lambda below, top: ((top, 1),))
    record = check_basis_change("Pi_m", _P3)
    assert (record.check, record.monoid, record.passed) == ("basis_change", "Pi_m", False)
    assert record.detail == {
        "key": "v1,v2,v3",
        "partner_basis": "Pi_p",
        "round_trip": "(1) v1,v2,v3 + (1) v1,v2/v3 + (1) v1,v3/v2 + (1) v1/v2,v3 + "
        "(1) v1/v2/v3",
    }


def test_basis_change_image_outside_the_partner_basis_witness(monkeypatch):
    # Pi_p's basis on P3 without its last key, v1/v2/v3: the round trip
    # alone would still pass
    full = monoids._basis_cached
    monkeypatch.setattr(
        monoids,
        "_basis_cached",
        lambda spec, g: full(spec, g)[:-1] if spec.id == "Pi_p" else full(spec, g),
    )
    record = check_basis_change("Pi_m", _P3)
    assert (record.check, record.monoid, record.passed) == ("basis_change", "Pi_m", False)
    assert record.detail == {
        "key": "v1,v2,v3",
        "partner_basis": "Pi_p",
        "outside_basis": "v1/v2/v3",
    }


def test_basis_change_check_refuses_a_monoid_without_a_partner_basis():
    for mid in ("L", "Sigma", "E"):
        with pytest.raises(InputError, match=f"^{mid} has no partner basis$"):
            check_basis_change(mid, _P3)


@pytest.mark.parametrize("key_cap", [0, -1])
@pytest.mark.parametrize(
    "check, subject",
    [
        (check_bimonoid, "L"),
        (check_antipode, "L"),
        (check_commutativity, "L"),
        (check_morphism, "iota_L_SSigma"),
        (check_diagram, "order_composition_triangle"),
    ],
    ids=["bimonoid", "antipode", "commutativity", "morphism", "diagram"],
)
def test_checks_refuse_a_key_cap_below_one(check, subject, key_cap):
    # a cap of -1 would check every key but the last, and 0 none at all
    with pytest.raises(InputError, match=f"^key_cap must be positive, got {key_cap}$"):
        check(subject, _P3, key_cap)
    check(subject, _P3, 1)


def test_stanley_witness(monkeypatch):
    exact = verify.chromatic_value
    monkeypatch.setattr(verify, "chromatic_value", lambda g, x: exact(g, x) + 1)
    record = check_stanley(_P3)
    assert (record.check, record.monoid, record.passed) == ("stanley", "AO", False)
    assert record.detail == {"orientations": 2, "signed_chromatic": 1}


def test_involution_witnesses(monkeypatch):
    # L and Sigma are not commutative, so their antipodes are no involutions
    monkeypatch.setattr(verify, "COMMUTATIVE_FAMILY", verify.COMMUTATIVE_FAMILY + ("L", "Sigma"))
    (record,) = check_antipode("L", Graph(["v1", "v2"], [("v1", "v2")]))
    assert not record.passed
    assert record.detail == {"law": "involution", "key": "v1<v2", "s_of_s": "(q^2) v1<v2"}
    main, verdict = check_antipode("Sigma", _P3)
    assert verdict.passed and not main.passed
    assert main.detail == {
        "law": "involution",
        "key": "v1,v2,v3",
        "s_of_s": "(1) v1,v2,v3 + (t^2 - 1) v1,v2|v3 + (q*t - 1) v1,v3|v2"
        " + (q*t - 1) v1|v2,v3 + (q*t^2 - q*t - t^2 + 1) v1|v2|v3"
        " + (q*t^2 - 2*q*t + 1) v1|v3|v2 + (q*t - 1) v2,v3|v1"
        " + (q*t - 1) v2|v1,v3 + (q*t^2 - q*t - t^2 + 1) v2|v1|v3"
        " + (q*t^2 - 2*q*t + 1) v2|v3|v1 + (t^2 - 1) v3|v1,v2"
        " + (q*t^2 - q*t - t^2 + 1) v3|v1|v2 + (q*t^2 - q*t - t^2 + 1) v3|v2|v1",
    }
