"""Command line surface: subcommands, exit codes, deterministic bytes."""

import hashlib
import io
import json
import random

import pytest

from grhopf.cli import main
from grhopf.monoids import BASIS_PARTNER, MONOID_IDS, MONOIDS

from .test_verify import _MatchMWithExtraQ

P3_TEXT = "v a\nv b\nv c\ne a b\ne b c\n"


@pytest.fixture
def p3_path(tmp_path):
    path = tmp_path / "p3.graph"
    path.write_text(P3_TEXT, encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_count(capsys, p3_path):
    code, out, err = run(capsys, ["enumerate", "--monoid", "L", "--graph", p3_path])
    assert (code, out, err) == (0, "6\n", "")


def test_enumerate_list(capsys, p3_path):
    code, out, err = run(
        capsys, ["enumerate", "--monoid", "AO", "--graph", p3_path, "--list"]
    )
    assert code == 0
    assert out == "a>b,b>c\na>b,c>b\nb>a,b>c\nb>a,c>b\n"


def test_graph_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(P3_TEXT))
    code, out, err = run(capsys, ["enumerate", "--monoid", "E", "--graph", "-"])
    assert (code, out) == (0, "1\n")


def test_product(capsys, p3_path):
    code, out, err = run(
        capsys,
        [
            "product",
            "--monoid",
            "L",
            "--graph",
            p3_path,
            "--split",
            "a,b|c",
            "--left",
            "b<a",
            "--right",
            "c",
        ],
    )
    assert (code, out) == (0, "(1) b<a<c\n")


def test_coproduct(capsys, p3_path):
    code, out, err = run(
        capsys,
        [
            "coproduct",
            "--monoid",
            "L",
            "--graph",
            p3_path,
            "--split",
            "b|a,c",
            "--key",
            "a<b<c",
        ],
    )
    assert (code, out) == (0, "(q) b (x) a<c\n")


def test_antipode_single_method(capsys, p3_path):
    code, out, err = run(
        capsys,
        ["antipode", "--monoid", "L", "--graph", p3_path, "--key", "a<b<c"],
    )
    assert (code, out) == (0, "(-q^2*t) c<b<a\n")


def test_antipode_all_methods(capsys, p3_path):
    code, out, err = run(
        capsys,
        [
            "antipode",
            "--monoid",
            "L",
            "--graph",
            p3_path,
            "--key",
            "a<b<c",
            "--method",
            "all",
        ],
    )
    assert code == 0
    assert out == (
        "takeuchi: (-q^2*t) c<b<a\n"
        "milnor-moore-left: (-q^2*t) c<b<a\n"
        "milnor-moore-right: (-q^2*t) c<b<a\n"
        "closed: (-q^2*t) c<b<a\n"
        "verdict: AGREE\n"
    )


def test_antipode_all_skips_missing_closed_form(capsys, p3_path):
    code, out, err = run(
        capsys,
        [
            "antipode",
            "--monoid",
            "SPi_m",
            "--graph",
            p3_path,
            "--key",
            "a,c/b",
            "--method",
            "all",
        ],
    )
    assert code == 0
    assert "closed:" not in out
    assert out.endswith("verdict: AGREE\n")


def test_antipode_all_reports_disagreement(capsys, tmp_path, monkeypatch):
    # the mutant's two recursions differ on three edgeless vertices; the
    # routes share coproduct rows and products but each recursion keeps
    # its own memo, so neither side is handed the other's answer
    monkeypatch.setitem(MONOIDS, "Match_M", _MatchMWithExtraQ("Match_M", "M", True))
    path = tmp_path / "d3.graph"
    path.write_text("v v1\nv v2\nv v3\n", encoding="utf-8")
    argv = ["antipode", "--monoid", "Match_M", "--graph", str(path), "--key", "()"]
    code, out, err = run(capsys, [*argv, "--method", "all"])
    assert code == 1
    assert out == (
        "takeuchi: (q - 2) ()\n"
        "milnor-moore-left: (-q) ()\n"
        "milnor-moore-right: (q - 2) ()\n"
        "verdict: DISAGREE\n"
    )


def test_basis_change(capsys, p3_path):
    code, out, err = run(
        capsys,
        [
            "basis-change",
            "--monoid",
            "Pi_m",
            "--graph",
            p3_path,
            "--to",
            "Pi_p",
            "--key",
            "a,b/c",
        ],
    )
    assert (code, out) == (0, "(1) a,b/c + (1) a/b/c\n")


def test_morphism(capsys, p3_path):
    code, out, err = run(
        capsys,
        [
            "morphism",
            "--name",
            "iota_L_SSigma",
            "--monoid",
            "L",
            "--graph",
            p3_path,
            "--key",
            "b<a<c",
        ],
    )
    assert (code, out) == (0, "(1) b|a|c\n")


def test_corpus_stats(capsys):
    code, out, err = run(capsys, ["corpus-stats", "--nmax", "2"])
    assert code == 0
    assert out == "n=0: 1 graphs\nn=1: 1 graphs\nn=2: 2 graphs\ntotal: 4 graphs\n"


def test_verify_summary_and_json(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, err = run(
        capsys,
        [
            "verify",
            "--suite",
            "stanley",
            "--nmax",
            "2",
            "--json",
            str(report_path),
        ],
    )
    assert code == 0
    assert out == "suite=stanley n_max=2 graphs=4 checks=4 passed=4 failed=0 -> PASS\n"
    data = json.loads(report_path.read_text(encoding="utf-8"))
    assert data["schema"] == "grhopf.report/1"
    assert data["summary"] == {"checks": 4, "passed": 4, "failed": 0}
    assert "wall_time_s" in data
    # file is written with sorted keys for stable diffs
    assert list(data) == sorted(data)


def test_verify_monoid_filter(capsys):
    code, out, err = run(
        capsys,
        ["verify", "--suite", "bimonoid", "--nmax", "2", "--monoid", "L", "--monoid", "AO"],
    )
    assert code == 0
    assert "checks=8 passed=8 failed=0 -> PASS" in out


def test_reruns_are_byte_identical(capsys, p3_path):
    argv = ["antipode", "--monoid", "Sigma", "--graph", p3_path, "--key", "a|b,c"]
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first == second


def test_jobs_env(capsys, monkeypatch):
    monkeypatch.setenv("GRHOPF_JOBS", "2")
    code, out, err = run(capsys, ["verify", "--suite", "stanley", "--nmax", "2"])
    assert code == 0
    assert out.endswith("-> PASS\n")


def test_jobs_env_invalid(capsys, monkeypatch):
    monkeypatch.setenv("GRHOPF_JOBS", "many")
    code, out, err = run(capsys, ["verify", "--suite", "stanley", "--nmax", "1"])
    assert code == 2
    assert err.startswith("error: GRHOPF_JOBS must be an integer")


def test_error_exit_codes(capsys, tmp_path, p3_path):
    code, out, err = run(capsys, ["enumerate", "--monoid", "L", "--graph", str(tmp_path / "nope")])
    assert code == 2
    assert err.startswith("error: cannot read graph file")

    code, out, err = run(
        capsys,
        ["coproduct", "--monoid", "L", "--graph", p3_path, "--split", "a|b", "--key", "a<b<c"],
    )
    assert code == 2
    assert "does not partition" in err

    code, out, err = run(
        capsys,
        ["coproduct", "--monoid", "L", "--graph", p3_path, "--split", "a|b|c", "--key", "a<b<c"],
    )
    assert code == 2
    assert "exactly one '|'" in err

    code, out, err = run(
        capsys,
        ["antipode", "--monoid", "L", "--graph", p3_path, "--key", "a<b"],
    )
    assert code == 2
    assert err.startswith("error:")

    code, out, err = run(
        capsys,
        ["basis-change", "--monoid", "Pi_m", "--graph", p3_path, "--to", "FL_M", "--key", "a,b/c"],
    )
    assert code == 2
    assert err.startswith("error:")


def test_non_utf8_graph_file_is_refused(capsys, tmp_path):
    path = tmp_path / "bad.graph"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, ["enumerate", "--monoid", "L", "--graph", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read graph file") and "decode" in err


def test_verify_refuses_an_unwritable_report_before_the_run(capsys, tmp_path, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the suite ran")

    monkeypatch.setattr("grhopf.cli.run_suite", no_run)
    for path in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run(
            capsys, ["verify", "--suite", "stanley", "--nmax", "1", "--json", str(path)]
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write report {str(path)!r}: ")
        assert err.count("\n") == 1
    # the probe leaves no file behind when the run is refused after it
    monkeypatch.undo()
    path = tmp_path / "x.json"
    code, out, err = run(capsys, ["verify", "--nmax", "9", "--json", str(path)])
    assert (code, out) == (2, "") and not path.exists()


def test_split_tolerates_spaces(capsys, p3_path):
    code, out, err = run(
        capsys,
        [
            "coproduct",
            "--monoid",
            "Pi_m",
            "--graph",
            p3_path,
            "--split",
            " b , c | a ",
            "--key",
            "a,b/c",
        ],
    )
    assert code == 0
    assert "(x)" in out


# ---------------------------------------------------------------- transcript

# Two graphs whose declaration order is not label order, so bits do not
# follow literals: a triangle a-b-c with a tail c-d-e, and the 4-cycle
# y-x2-x10-x1.  The second graph spells the transcript's literals through
# TRANSCRIPT_LABELS, so "e" names a label outside it.
TRANSCRIPT_GRAPHS = (
    "v d\nv b\nv e\nv a\nv c\ne a b\ne b c\ne a c\ne c d\ne d e\n",
    "v y\nv x2\nv x10\nv x1\ne y x2\ne x2 x10\ne x10 x1\ne x1 y\n",
)
TRANSCRIPT_LABELS = ({}, {"a": "x1", "b": "x10", "c": "x2", "d": "y", "e": "z"})
# malformed or refused literals, each sent to every monoid: repeated labels,
# empty labels and blocks, non-covers, dependent blocks, loops, edges outside
# the graph, a non-flat and a non-matching
REFUSED_LITERALS = (
    "a<b<a", "a<b", "b<a<c<d<e<a", "a>b,b>a", "a>a", "a,a|b", "a,a", "a|a",
    "a||b", "a|b,a|c,d,e", "b,a,b|c,d,e", "a/a", "a,a/b", "a,b/a", "a//b",
    "a,b//c", "a,,b/c,d,e", "b,a/a,b/c,d,e", "a,b/c", "a,b/c/d/e", "a,b|c|d|e",
    "a-a", "abc", "a-e", "a-b,b-c", "a-b,a-c", "a-b,c-d,a-b", "unit,a",
)
# (calls, sha256 of the transcript); regenerate only for a change meant to
# alter CLI output, and say so where the change is recorded
TRANSCRIPT_DIGEST = (1779, "1d66f60fba0ead576f7b5db7af6d6dc0c46629a881d1141aa8899af9713032d0")


def _transcript(capsys, graph_path, labels):
    """Every call of the sweep on one graph, with its exit code, stdout and
    stderr; basis keys are read from the sweep's own listings."""
    lines = []

    def call(*argv):
        code, out, err = run(capsys, list(argv))
        lines.append(f"$ {' '.join(argv)}\n{code}\n{out}{err}")
        return out.splitlines()

    def spell(literal):
        return "".join(labels.get(ch, ch) for ch in literal)

    g = ("--graph", graph_path)
    listings = {mid: call("enumerate", "--monoid", mid, *g, "--list") for mid in MONOID_IDS}
    for mid in ("FL_M", "FL_P", "Match_M", "Match_P"):
        for key in listings[mid]:
            call("basis-change", "--monoid", mid, "--to", BASIS_PARTNER[mid], *g, "--key", key)
            call("antipode", "--monoid", mid, *g, "--key", key, "--method", "all")
    for name, mid in (("iota_FL_Pi", "FL_P"), ("phi_Pi_FL", "Pi_m"), ("iota_E_FL", "E")):
        for key in listings[mid]:
            call("morphism", "--name", name, "--monoid", mid, *g, "--key", key)
    # the antipode routes validate their key, basis-change goes through
    # make_element as coproduct and morphism do
    for literal in map(spell, REFUSED_LITERALS):
        for mid in MONOID_IDS:
            call("antipode", "--monoid", mid, *g, "--key", literal, "--method", "all")
            call("basis-change", "--monoid", mid, "--to", BASIS_PARTNER.get(mid, "E"),
                 *g, "--key", literal)
    return lines


def test_cli_transcript_is_unchanged(capsys, tmp_path):
    lines = []
    for i, (text, labels) in enumerate(zip(TRANSCRIPT_GRAPHS, TRANSCRIPT_LABELS)):
        path = tmp_path / f"g{i}.graph"
        path.write_text(text, encoding="utf-8")
        lines += [line.replace(str(path), f"g{i}") for line in _transcript(capsys, str(path), labels)]
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == TRANSCRIPT_DIGEST


# ---------------------------------------------------------------- split transcript

# seeded picks from the listings; the same seed gives the same calls
SPLIT_SEED = 2011
# the morphism routes the first transcript does not take
SPLIT_MORPHISMS = (
    ("iota_L_SSigma", "L"), ("pi_arrow_L", "L"), ("pi_abelianize", "L"),
    ("iota_SSigma_Sigma", "SSigma"), ("pi_arrow_SSigma", "SSigma"),
    ("pi_SSigma_SPi", "SSigma"), ("pi_AO_E", "AO"), ("pi_Sigma_Pi", "Sigma"),
    ("iota_SPi_Pi", "SPi_m"), ("iota_SPi_Pi", "SPi_p"), ("rho_SPi_E", "SPi_m"),
)
# (calls, sha256 of the transcript), generated before splits became masks;
# regenerate only for a change meant to alter CLI output
SPLIT_TRANSCRIPT_DIGEST = (1475, "9b8664a4535b7969e8382ef9bf41a4c55092cbdc9326fc0f16bfc74a11f6df63")


def _split_transcript(capsys, tmp_path, name, text, seed):
    """The split-taking commands on one graph: `product` and `coproduct` on
    seeded splits for every monoid, `antipode --method all` on sampled
    vertex-set keys, `basis-change` on partition keys, and the morphisms
    above.  Every key is a basis key read from a listing of the sweep, so
    every call answers."""
    rng = random.Random(seed)
    lines = []
    paths = {}

    def graph_file(side):
        """The path of the subgraph induced on side, written on first use."""
        if side not in paths:
            edges = [e for e in graph_edges if e[0] in side and e[1] in side]
            body = "".join(f"v {v}\n" for v in side) + "".join(f"e {u} {v}\n" for u, v in edges)
            paths[side] = tmp_path / f"{name}-{len(paths)}.graph"
            paths[side].write_text(body, encoding="utf-8")
        return str(paths[side])

    def call(*argv):
        code, out, err = run(capsys, list(argv))
        line = f"$ {' '.join(argv)}\n{code}\n{out}{err}"
        for side, path in paths.items():
            line = line.replace(str(path), f"{name}[{','.join(side)}]")
        lines.append(line)
        return out.splitlines()

    def listing(mid, side):
        return call("enumerate", "--monoid", mid, "--graph", graph_file(side), "--list")

    def sample(keys, k):
        return rng.sample(keys, min(k, len(keys)))

    decls = [line.split()[1:] for line in text.splitlines()]
    vertices = tuple(d[0] for d in decls if len(d) == 1)
    graph_edges = [tuple(d) for d in decls if len(d) == 2]
    splits = [((), vertices), (vertices, ())]
    for _ in range(4):
        left = tuple(v for v in vertices if rng.random() < 0.5)
        splits.append((left, tuple(v for v in vertices if v not in left)))
    g = ("--graph", graph_file(vertices))
    for mid in MONOID_IDS:
        keys = listing(mid, vertices)
        for s, t in splits:
            split = f"{','.join(s)}|{','.join(t)}"
            for key in sample(keys, 3):
                call("coproduct", "--monoid", mid, *g, "--split", split, "--key", key)
            for x in sample(listing(mid, s), 2):
                for y in sample(listing(mid, t), 2):
                    call("product", "--monoid", mid, *g, "--split", split,
                         "--left", x, "--right", y)
        if mid in ("L", "Sigma", "SSigma", "Pi_m", "Pi_p", "SPi_m", "SPi_p"):
            for key in sample(keys, 4):
                call("antipode", "--monoid", mid, *g, "--key", key, "--method", "all")
        if mid in ("Pi_m", "Pi_p", "SPi_m", "SPi_p"):
            for key in sample(keys, 8):
                call("basis-change", "--monoid", mid, "--to", BASIS_PARTNER[mid], *g,
                     "--key", key)
        for morphism, _ in filter(lambda route: route[1] == mid, SPLIT_MORPHISMS):
            for key in sample(keys, 6):
                call("morphism", "--name", morphism, "--monoid", mid, *g, "--key", key)
    return lines


def test_cli_split_transcript_is_unchanged(capsys, tmp_path):
    lines = []
    for i, text in enumerate(TRANSCRIPT_GRAPHS):
        lines += _split_transcript(capsys, tmp_path, f"g{i}", text, SPLIT_SEED + i)
    assert all(line.split("\n")[1] == "0" for line in lines)
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == SPLIT_TRANSCRIPT_DIGEST
