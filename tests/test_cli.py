import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import domlab
from domlab.cli import main
from domlab.catalog import complete_graph, cycle_graph
from domlab.enumeration import DEFAULT_BUDGET
from domlab.graph6 import save_graph6_file, to_graph6


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_invariants_named_cycle7_json(capsys):
    code, out, _ = run(capsys, "invariants", "named:cycle:7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma"] == 3
    assert payload["upper_gamma"] == 3
    assert payload["well_dominated"] is True


def test_invariants_graph6_literal(capsys):
    code, out, _ = run(capsys, "invariants", "Ch")  # P4
    assert code == 0
    assert "well_dominated: true" in out


def test_invariants_multigraph_file(capsys, tmp_path):
    path = tmp_path / "three.g6"
    save_graph6_file(path, [cycle_graph(n) for n in (4, 5, 7)])
    code, out, _ = run(capsys, "invariants", str(path), "--json")
    assert code == 0
    rows = json.loads(out)
    assert [r["gamma"] for r in rows] == [2, 2, 3]


def test_decide_assert_exit_codes(capsys):
    code, _, _ = run(capsys, "decide", "well-dominated", "named:cycle:7", "--assert")
    assert code == 0
    code, _, _ = run(capsys, "decide", "well-dominated", "named:path:3", "--assert")
    assert code == 1
    code, _, _ = run(capsys, "decide", "well-dominated", "named:path:3")
    assert code == 0


def test_product_emit_graph6_isomorphic_flag(capsys):
    code, out, err = run(capsys, "product", "cartesian",
                         "named:complete:2", "named:complete:2", "--emit", "graph6")
    assert code == 0
    from domlab.graph6 import parse_graph6
    from domlab.isomorphism import are_isomorphic

    assert are_isomorphic(parse_graph6(out.strip()), cycle_graph(4))
    assert "named:cycle:4" in err


def test_product_json_and_dot(capsys):
    code, out, _ = run(capsys, "product", "disjunctive",
                       "named:complete:2", "named:complete:2", "--json")
    payload = json.loads(out)
    assert payload["isomorphic_to"] == "named:complete:4"
    code, out, _ = run(capsys, "product", "cartesian", "A_", "A_", "--emit", "dot")
    assert code == 0 and out.startswith("graph G {") and "--" in out


def test_classify_output(capsys):
    code, out, _ = run(capsys, "classify", "named:corona-of:path:3", "--json")
    payload = json.loads(out)
    assert payload["small_triangle_free_tag"] == "P3-corona"
    assert payload["corona"]["matching"] == [[0, 3], [1, 4], [2, 5]]
    assert payload["pc_partition"]["cycle_side"] == []


def test_greedy_deterministic_by_seed(capsys):
    code, out1, _ = run(capsys, "greedy", "named:cycle:7", "--seed", "5", "--json")
    assert code == 0
    _, out2, _ = run(capsys, "greedy", "named:cycle:7", "--seed", "5", "--json")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["size"] == 3  # C7 is well-dominated: every run hits gamma
    code, out, _ = run(capsys, "greedy", "named:path:4", "--ordering", "0,1,2,3", "--json")
    assert json.loads(out)["result"] == [1, 3]
    code, out, _ = run(capsys, "greedy", "named:cycle:4", "--ordering", "0,1,2,3", "--json")
    assert json.loads(out)["result"] == [2, 3]


def test_enumerate_output(capsys, tmp_path):
    code, out, _ = run(capsys, "enumerate", "4", "--triangle-free")
    assert code == 0
    assert len(out.strip().splitlines()) == 3
    target = tmp_path / "c4.g6"
    code, _, _ = run(capsys, "enumerate", "4", "--output", str(target))
    assert code == 0 and len(target.read_text().strip().splitlines()) == 6


def test_enumerate_output_creates_directories_atomically(capsys, tmp_path):
    _, listed, _ = run(capsys, "enumerate", "5")
    target = tmp_path / "new" / "sub" / "n5.g6"
    code, out, err = run(capsys, "enumerate", "5", "--output", str(target))
    assert (code, out, err) == (0, "", "")
    assert target.read_text() == listed
    assert list(target.parent.iterdir()) == [target]  # no temporary file left


@pytest.mark.parametrize("argv", [
    ["enumerate", "5"],
    ["verify", "LNE", "--min-order", "5", "--max-order", "5", "--workers", "1"],
])
def test_cache_file_of_another_order_fails(capsys, tmp_path, argv):
    _, order4, _ = run(capsys, "enumerate", "4")
    for planted in (order4, ""):  # graphs of order 4, or none
        (tmp_path / "connected-n5.g6").write_text(planted)
        code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == 2
        assert out == ""
        assert str(tmp_path / "connected-n5.g6") in err


def test_verify_list_and_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--list", "--json")
    assert code == 0
    rows = json.loads(out)
    assert any(r["id"] == "TF11" for r in rows)

    code, out, _ = run(capsys, "verify", "TF11", "--max-order", "6",
                       "--triangle-free", "--workers", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["counterexample_count"] == 0
    assert payload["schema"] == "domlab-report-v1"


@pytest.mark.parametrize("extra", [
    ["LNE"], ["--corpus", "x.g6"], ["--min-order", "2"], ["--max-order", "5"],
    ["--triangle-free"], ["--product-cap", "4"], ["--budget", str(DEFAULT_BUDGET)],
    ["--cap", "0"], ["--workers", "0"], ["--cache-dir", "c"],
])
def test_verify_list_takes_no_sweep_option(capsys, extra):
    code, out, err = run(capsys, "verify", "--list", *extra, "--json")
    assert (code, out) == (2, "") and "--list" in err


def test_verify_sweep_with_no_instance_fails(capsys, tmp_path):
    path = tmp_path / "k3.g6"
    save_graph6_file(path, [complete_graph(3)])
    for argv in (["T1", "--max-order", "3", "--product-cap", "3"],  # no product of order <= 3
                 ["LNE", "--corpus", str(path), "--triangle-free"]):
        code, out, err = run(capsys, "verify", *argv, "--workers", "1")
        assert (code, out) == (2, "") and "has no instance in" in err, argv


def test_closed_stdout_exits_141_quietly():
    # The reader closes the pipe before the list, small enough to sit in the
    # stdout buffer until the end, is written: the flush in main must see it.
    # The child's stdout is block-buffered, as a pipe's is by default.
    src = str(Path(domlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen([sys.executable, "-m", "domlab.cli", "verify", "--list"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(), err) == (141, b"")


def test_verify_json_matches_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    from importlib import resources

    schema = json.loads(
        resources.files("domlab").joinpath("schemas/report-v1.json").read_text()
    )
    code, out, _ = run(capsys, "verify", "PX", "--min-order", "2",
                       "--max-order", "5", "--workers", "1", "--json")
    assert code == 0
    jsonschema.validate(json.loads(out), schema)


def test_verify_json_deterministic_modulo_elapsed(capsys):
    argv = ["verify", "LNE", "--max-order", "5", "--workers", "1", "--json"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    strip = lambda s: re.sub(r'"elapsed_ms": [0-9.]+', '"elapsed_ms": 0', s)
    assert strip(out1) == strip(out2)


def test_verify_product_cap_flag(capsys):
    code, out, _ = run(capsys, "verify", "UB3", "--max-order", "4",
                       "--product-cap", "6", "--workers", "1", "--json")
    assert code == 0
    small = json.loads(out)["scanned"]
    code, out, _ = run(capsys, "verify", "UB3", "--max-order", "4",
                       "--workers", "1", "--json")
    assert small < json.loads(out)["scanned"]


def test_verify_bad_product_cap_fails_before_corpus_load(capsys, tmp_path, monkeypatch):
    import domlab.verify

    def no_load(path):
        raise AssertionError("corpus loaded before the spec was checked")

    monkeypatch.setattr(domlab.verify, "load_graph6_file", no_load)
    path = tmp_path / "in.g6"
    save_graph6_file(path, [cycle_graph(5)])
    code, out, err = run(capsys, "verify", "T1", "--corpus", str(path),
                         "--product-cap", "100", "--workers", "1")
    assert code == 2
    assert out == ""
    assert "product cap 100" in err


@pytest.mark.parametrize("orders", [
    ["--min-order", "50", "--max-order", "70"],
    ["--min-order", "3"],
    ["--max-order", "5"],
])
def test_verify_orders_with_file_corpus_fail_before_load(capsys, tmp_path, monkeypatch, orders):
    import domlab.verify

    def no_load(path):
        raise AssertionError("corpus loaded although its orders were given")

    monkeypatch.setattr(domlab.verify, "load_graph6_file", no_load)
    path = tmp_path / "two.g6"
    save_graph6_file(path, [cycle_graph(4), cycle_graph(5)])
    code, out, err = run(capsys, "verify", "LNE", "--corpus", str(path), *orders,
                         "--workers", "1")
    assert code == 2
    assert out == ""
    assert "do not apply to a --corpus file" in err


@pytest.mark.parametrize("argv, env", [
    (["--workers", "0"], {}),
    (["--workers", "-3"], {}),
    (["--cap", "-1"], {}),
    ([], {"DOMLAB_WORKERS": "0"}),
])
def test_verify_bad_workers_or_cap_fail_before_instances(capsys, monkeypatch, argv, env):
    import domlab.verify

    def no_instances(*args):
        raise AssertionError("instances built before workers and cap were checked")

    monkeypatch.setattr(domlab.verify, "_instances", no_instances)
    for key, val in env.items():
        monkeypatch.setenv(key, val)
    code, out, err = run(capsys, "verify", "DK", *argv)
    assert code == 2
    assert out == ""
    assert "workers must be at least 1 and cap at least 0" in err


@pytest.mark.parametrize("env, conf", [
    ({"DOMLAB_WORKERS": "abc"}, ""),
    ({}, "cache_dir=unused\nworkers=abc\n"),
], ids=["env", "config-file"])
def test_verify_non_integer_workers_fail_before_instances(capsys, tmp_path, monkeypatch,
                                                          env, conf):
    import domlab.verify

    def no_instances(*args):
        raise AssertionError("instances built before workers were checked")

    monkeypatch.setattr(domlab.verify, "_instances", no_instances)
    monkeypatch.delenv("DOMLAB_WORKERS", raising=False)
    for key, val in env.items():
        monkeypatch.setenv(key, val)
    (tmp_path / "domlab.conf").write_text(conf)
    monkeypatch.setenv("DOMLAB_CONFIG", str(tmp_path / "domlab.conf"))
    code, out, err = run(capsys, "verify", "DK")
    assert code == 2
    assert out == ""
    assert "workers must be an integer, got 'abc'" in err


@pytest.mark.parametrize("argv, message", [
    (["verify", "CHAIN", "--product-cap", "5", "--workers", "1"],
     "--product-cap does not apply to CHAIN"),
    (["greedy", "named:cycle:5", "--seed", "3", "--ordering", "0,1,2,3,4"],
     "not allowed with argument"),
], ids=["verify-single-graph-product-cap", "greedy-seed-and-ordering"])
def test_ignored_flags_fail_before_any_work(capsys, monkeypatch, argv, message):
    import domlab.cli
    import domlab.verify

    def no_work(*args):
        raise AssertionError("work started before the flags were checked")

    monkeypatch.setattr(domlab.verify, "_instances", no_work)
    monkeypatch.setattr(domlab.cli, "load_graphs", no_work)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects conflicting flags itself
        code = exc.code
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert message in out.err


@pytest.mark.parametrize("argv", [
    ["enumerate", "70", "--budget", "80"],
    ["verify", "LNE", "--max-order", "70", "--budget", "80", "--workers", "1"],
])
def test_orders_above_max_order_fail_at_once(capsys, monkeypatch, argv):
    import domlab.enumeration

    def no_build(*args):
        raise AssertionError("a corpus was built before the order was checked")

    monkeypatch.setattr(domlab.enumeration, "_load_or_build_connected", no_build)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "budget 1..62" in err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("argv, message", [
    (["enumerate", "8", "--cache-dir", "{file}/cache"], "{file}"),
    (["enumerate", "8", "--cache-dir", "{file}"], "{file}"),
    (["verify", "LNE", "--max-order", "8", "--cache-dir", "{file}/cache", "--workers", "1"],
     "{file}"),
    (["enumerate", "3", "--budget", "0"], "budget must be at least 1, got 0"),
    (["verify", "LNE", "--budget", "-1", "--workers", "1"], "budget must be at least 1, got -1"),
], ids=["enumerate-dir-below-file", "enumerate-dir-is-file", "verify-dir-below-file",
        "enumerate-budget-0", "verify-budget-negative"])
def test_bad_cache_dir_or_budget_fail_at_once(capsys, tmp_path, monkeypatch, argv, message):
    import domlab.enumeration

    def no_build(*args):
        raise AssertionError("a corpus was built before the cache dir and budget were checked")

    monkeypatch.setattr(domlab.enumeration, "connected_graphs", no_build)
    blocker = tmp_path / "file"
    blocker.write_text("")
    start = time.perf_counter()
    code, out, err = run(capsys, *(a.replace("{file}", str(blocker)) for a in argv))
    assert code == 2
    assert out == ""
    assert message.replace("{file}", str(blocker)) in err
    assert time.perf_counter() - start < 1


def test_verify_default_corpus_keeps_triangle_free(capsys):
    # T2's default corpus is triangle-free; narrowing the orders must not
    # silently drop that filter
    code, out, _ = run(capsys, "verify", "T2", "--max-order", "4",
                       "--workers", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    # ordered pairs of the 5 connected triangle-free graphs of orders 2..4
    assert payload["scanned"] == 25
    assert "triangle-free" in payload["corpus"]


def test_verify_file_corpus(capsys, tmp_path):
    path = tmp_path / "in.g6"
    save_graph6_file(path, [cycle_graph(n) for n in (3, 4, 5, 6, 7)])
    code, out, _ = run(capsys, "verify", "CHAIN", "--corpus", str(path),
                       "--workers", "1", "--json")
    assert code == 0
    assert json.loads(out)["scanned"] == 5


def test_enumerate_then_verify_pipeline(capsys, tmp_path):
    corpus = tmp_path / "n5.g6"
    code, _, _ = run(capsys, "enumerate", "5", "--output", str(corpus))
    assert code == 0
    code, out, _ = run(capsys, "verify", "PX", "--corpus", str(corpus),
                       "--workers", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["scanned"] == 21 and payload["counterexample_count"] == 0


def test_error_exit_codes(capsys):
    code, _, err = run(capsys, "invariants", "~~~not-a-graph")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "verify", "NOPE")
    assert code == 2
    code, _, err = run(capsys, "invariants", "named:cycle:2")
    assert code == 2
    code, _, err = run(capsys, "enumerate", "10")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["invariants"], ["decide", "connected"], ["classify"], ["greedy"],
    ["verify", "LNE", "--workers", "1", "--corpus"],
], ids=lambda argv: argv[0])
def test_empty_g6_file_is_an_input_error(capsys, tmp_path, argv):
    empty = tmp_path / "EMPTY.g6"
    empty.write_text("")
    code, out, err = run(capsys, *argv, str(empty))
    assert (code, out) == (2, "")
    assert err == f"error: no graphs in {empty}\n"


@pytest.mark.parametrize("target", ["nope.conf", "."], ids=["missing", "directory"])
def test_named_config_that_is_not_a_file_fails(capsys, tmp_path, monkeypatch, target):
    monkeypatch.delenv("DOMLAB_WORKERS", raising=False)
    monkeypatch.delenv("DOMLAB_CACHE_DIR", raising=False)
    monkeypatch.setenv("DOMLAB_CONFIG", str(tmp_path / target))
    code, out, err = run(capsys, "verify", "LNE", "--max-order", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: DOMLAB_CONFIG names") and err.count("\n") == 1
    # the default file may be missing
    monkeypatch.delenv("DOMLAB_CONFIG")
    monkeypatch.setenv("HOME", str(tmp_path))
    code, out, err = run(capsys, "verify", "LNE", "--max-order", "3")
    assert (code, err) == (0, "") and "scanned: 4" in out


def test_env_config_precedence(capsys, tmp_path, monkeypatch):
    cache_a = tmp_path / "a"
    cache_b = tmp_path / "b"
    conf = tmp_path / "domlab.conf"
    conf.write_text(f"cache_dir={cache_a}\n")
    monkeypatch.setenv("DOMLAB_CONFIG", str(conf))
    code, _, _ = run(capsys, "enumerate", "3", "--output", str(tmp_path / "x.g6"))
    assert code == 0 and (cache_a / "connected-n3.g6").exists()
    monkeypatch.setenv("DOMLAB_CACHE_DIR", str(cache_b))
    code, _, _ = run(capsys, "enumerate", "4", "--output", str(tmp_path / "y.g6"))
    assert code == 0 and (cache_b / "connected-n4.g6").exists()
    assert not (cache_a / "connected-n4.g6").exists()


def test_human_output_is_pinned(capsys, tmp_path):
    # The nested human layout (lists of rows, indented sub-objects, lists of
    # scalar lists one inner list per line) that no JSON test reads: one
    # sha256 over the exit code and stdout of each invocation, elapsed_ms
    # stripped.
    mixed = tmp_path / "mixed.g6"
    save_graph6_file(mixed, [cycle_graph(n) for n in (4, 5, 6)])
    invocations = [
        ["invariants", "named:cycle:7"],
        ["invariants", str(mixed)],
        ["decide", "well-dominated", str(mixed), "--assert"],
        ["product", "cartesian", "named:complete:2", "named:path:3"],
        ["product", "cartesian", "named:complete:1", "named:special:H1"],
        ["product", "cartesian", "named:complete:2", "named:complete:2", "--emit", "graph6"],
        ["product", "direct", "named:path:3", "named:cycle:4", "--emit", "dot"],
        ["product", "disjunctive", "named:complete:2", "named:complete:2", "--json"],
        ["classify", "named:corona-of:path:3"],
        ["classify", "named:special:H1"],
        ["greedy", "named:cycle:7", "--seed", "5"],
        ["greedy", "named:cycle:7", "--mode", "independent", "--ordering", "6,5,4,3,2,1,0"],
        ["verify", "--list"],
        ["verify", "LNE", "--max-order", "4", "--workers", "1"],
    ]
    digest = hashlib.sha256()
    for argv in invocations:
        code, out, _ = run(capsys, *argv)
        digest.update(f"{code}\n{re.sub(r'elapsed_ms: [0-9.e-]+', 'elapsed_ms', out)}".encode())
    assert digest.hexdigest() == "970a4ff560c8bffa4726ed12b606759e817fb89084e49f95dcceef7b66de3391"


# -- the command-line contract ----------------------------------------------------

GOOD_GRAPHS = [  # graph6 literals, named: specs of order <= 8, and file names
    "@", "Ch", "DQc", "Bw", "named:complete:1", "named:path:4", "named:cycle:7",
    "named:special:H1", "named:corona-of:path:4", "named:corona-of:corona-of:complete:2",
    "good",
]
BAD_GRAPHS = [
    "?", "", "A_x", "B~", "~~~", "not-a-graph", "named:cycle:2", "named:complete:0",
    "named:path:x", "named:nope:3", "named:special:Q13", "named:corona-of:", "named:complete:63",
    # deeper than the recursion limit, which Hypothesis raises by 2,000 frames
    "named:" + "corona-of:" * 4000 + "complete:1",
    "bad-line", "empty", "binary", "dir",
]
FILES = ["good", "bad-line", "empty", "binary", "dir"]
CACHE_DIRS = ["cache", "cache", "cache", "wrong-order", "empty-cache", "good"]


@pytest.fixture(scope="module")
def contract_root(tmp_path_factory):
    """Every file the grammar names: .g6 inputs, cache directories (one whose
    files for orders 1..5 hold a 6-cycle, one whose files are empty) and
    config files, all under one temporary directory."""
    root = tmp_path_factory.mktemp("contract")
    save_graph6_file(root / "good", [cycle_graph(n) for n in (4, 5, 7)])
    (root / "bad-line").write_text("Ch\n~~~\n")
    (root / "empty").write_text("")
    (root / "binary").write_bytes(b"\xff\xfe\x00\x81")
    (root / "dir").mkdir()
    for name, planted in (("wrong-order", [cycle_graph(6)]), ("empty-cache", [])):
        for n in range(1, 6):
            for suffix in ("", "-trianglefree"):
                save_graph6_file(root / name / f"connected-n{n}{suffix}.g6", planted)
    (root / "good.conf").write_text(f"workers=1\ncache_dir={root / 'cache'}\n")
    (root / "wrong.conf").write_text(f"cache_dir={root / 'wrong-order'}\n")
    return root


PAIR_SWEEPS = ["T1", "T4", "DK", "DIND", "DTOT"]


@st.composite
def contract_calls(draw, root):
    """The argvs to run one after another, the DOMLAB_* environment to run
    them in, and "fail" when they name a bad input, "finish" when each must
    finish its sweep, else None; no draw enumerates or sweeps past order 5,
    and some sweeps fork a child (``--workers 2``).  About one draw in six is
    a sweep of good values only: one sweep, or two pair sweeps back to back
    on one corpus and cache dir."""
    def pick(options):
        return draw(st.sampled_from(options))

    def maybe(*flag):
        return list(flag) if draw(st.booleans()) else []

    def path(name):
        return str(root / name)

    graphs = []  # the graph and corpus arguments drawn, by name

    def graph():
        graphs.append(pick(pick([GOOD_GRAPHS, BAD_GRAPHS])))
        return path(graphs[-1]) if graphs[-1] in FILES else graphs[-1]

    env = {"HOME": str(root)}
    config = pick([None, None, None, "good.conf", "wrong.conf", "nope.conf", "dir"])
    env_cache, flag_cache = pick([None, *CACHE_DIRS]), pick([None, None, *CACHE_DIRS])
    if config is not None:
        env["DOMLAB_CONFIG"] = path(config)
    if env_cache is not None:
        env["DOMLAB_CACHE_DIR"] = path(env_cache)
    cache = ["--cache-dir", path(flag_cache)] if flag_cache else []
    # the cache directory that counts: flag, environment, then config file (a
    # config that is not a file is as bad as a bad directory)
    cache_dir = flag_cache or env_cache or {"good.conf": "cache",
                                            "wrong.conf": "wrong-order"}.get(config, config)
    command = pick(["invariants", "decide", "product", "classify", "greedy",
                    "enumerate", "enumerate", "verify", "verify", "verify", "sweep", "sweep"])
    bad = False
    if command == "sweep":
        tid = pick(["LNE", "TF11", "PRISM", *PAIR_SWEEPS])
        options = ["--max-order", pick(["2", "3"]), "--workers", pick(["1", "1", "1", "2"])]
        options += maybe("--cache-dir", path("cache")) + maybe("--json")
        tids = [tid, pick([t for t in PAIR_SWEEPS if t != tid])] if tid in PAIR_SWEEPS else [tid]
        return [["verify", t, *options] for t in tids], {"HOME": str(root)}, "finish"
    if command in ("invariants", "classify"):
        argv = [command, graph()]
    elif command == "decide":
        argv = [command, pick(["well-dominated", "well-covered", "connected",
                               "triangle-free", "corona", "pc-member"]), graph()]
        argv += maybe("--assert")
    elif command == "product":
        argv = [command, pick(["cartesian", "direct", "disjunctive"]), graph(), graph()]
        argv += maybe("--emit", pick(["graph6", "dot"]))
    elif command == "greedy":
        argv = [command, graph()] + maybe("--mode", pick(["dominating", "independent"]))
        argv += pick([[], ["--seed", "5"], ["--ordering", pick(["0,1,2,3", "3,2,1,0", "0,0", "a"])]])
    elif command == "enumerate":
        argv = [command, pick(["1", "3", "4", "5", "0", "10", "63"])] + maybe("--triangle-free")
        argv += maybe("--budget", pick(["0", "3", "9", "9"]))
        argv += maybe("--output", pick([path("out/n.g6"), path("dir")])) + cache
        bad = cache_dir not in (None, "cache")
    else:
        tid = pick(["LNE", "TF11", "PRISM", "T1", "T4", "DK", "NOPE", "--list", None])
        argv = [command] + ([tid] if tid else [])
        corpus = maybe(pick(FILES))
        argv += (["--corpus", path(*corpus)] if corpus else []) + maybe("--triangle-free")
        if not corpus or draw(st.booleans()):  # orders bound every enumerated corpus
            argv += ["--max-order", pick(["1", "3", "4", "5", "0"])]
            argv += maybe("--min-order", pick(["2", "4"]))
        argv += maybe("--product-cap", pick(["4", "25", "25", "0", "63"]))
        argv += maybe("--budget", pick(["0", "9", "9"])) + maybe("--cap", pick(["0", "0", "-1"]))
        workers = pick(["1", "1", "2", "0", "-2", None])
        if workers is None:  # the environment, never the CPU count
            env["DOMLAB_WORKERS"] = pick(["1", "x", "0"])
        else:
            argv += ["--workers", workers]
        argv += cache
        graphs += corpus
        # every --list draw carries a sweep option (--corpus or --max-order)
        bad = tid == "--list" or not corpus and cache_dir not in (None, "cache")
    bad = bad or any(g in BAD_GRAPHS for g in graphs)
    return [argv + maybe("--json") if command != "enumerate" else argv], env, "fail" if bad else None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_contract(contract_root, data):
    # Whatever argparse accepts ends with exit 0, 1 or 2 and no traceback; 2
    # is one "error:" line and nothing on stdout, 1 only a failed
    # decide --assert, and 0 always reports something (or writes --output).
    # A draw that names a bad graph, corpus file, cache directory or config
    # file exits 2; a sweep of good values only exits 0.
    argvs, env, expect = data.draw(contract_calls(contract_root))
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, env):
            for name in {"DOMLAB_CONFIG", "DOMLAB_CACHE_DIR", "DOMLAB_WORKERS"} - set(env):
                os.environ.pop(name, None)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            except SystemExit as exc:  # argparse rejected the draw
                assert exc.code == 2 and expect != "finish", argv
                return
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), argv
        assert code == {"fail": 2, "finish": 0}.get(expect, code), argv
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        elif code == 1:
            assert argv[0] == "decide" and "--assert" in argv, argv
        else:
            assert out or "--output" in argv, argv
