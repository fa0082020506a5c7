"""Checks of the benchmark itself; not part of the package's test suite.

    python3 -m pytest perfbench/test_perfbench.py -q

The slow ones prepare and sweep the real ``table`` and ``pairs`` corpora
(about three minutes on two cores).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import workloads as W
from tracer import SELF_METRICS

SEEDS = (11, 12)


@pytest.fixture(scope="module")
def runners():
    made = {}

    def get(workload: str, seed: int):
        if (workload, seed) not in made:
            r = run.Runner(workload, seed, time.monotonic() + 3600)
            r.set_up()
            assert r.problems == []
            made[workload, seed] = (r, r.corpus)
        return made[workload, seed]

    yield get
    for r, _ in made.values():
        shutil.rmtree(r.dir, ignore_errors=True)


@pytest.mark.parametrize("workload", ["table", "pairs"])
def test_seeds_relabel_but_keep_every_verdict(runners, workload):
    (ra, corpus_a), (rb, corpus_b) = (runners(workload, s) for s in SEEDS)
    name = W.corpus_file(5, False)
    assert (corpus_a / name).read_bytes() != (corpus_b / name).read_bytes()
    workers = run.nproc() if workload == "pairs" else 1
    a = ra.run_pass(corpus_a, workers)
    b = rb.run_pass(corpus_b, workers)
    assert a["problems"] == [] and b["problems"] == []
    assert a["ops"] == b["ops"]


def test_traced_runs_repeat_equal_work_and_account_for_wall(runners, tmp_path):
    r, corpus = runners("table", SEEDS[0])
    first, second = (r.run_pass(corpus, 1, tmp_path / f"{i}.spans") for i in range(2))
    for p in (first, second):
        assert p["problems"] == []
        layers = p["layers"]
        covered = sum(layers[m] for m in SELF_METRICS)
        assert math.isclose(covered + layers["trace.unattributed_s"], layers["trace.wall_s"],
                            rel_tol=1e-9)
        assert 0 <= layers["trace.unattributed_s"] < 0.01 * layers["trace.wall_s"]
    assert run.equal_work_problems(first["layers"], second["layers"]) == []
    header = json.loads((tmp_path / "0.spans").read_text())
    assert (tmp_path / "0.bin").stat().st_size == header["spans"] * 24
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    produced = set(first["layers"]) | {f"verify.{t}_s" for t in run.GOLDEN["table"]}
    derived = {"trace.untraced_wall_s", "trace.overhead_s", "enumeration.labelings_per_class",
               "domination.cache_hits", "domination.cache_misses", "domination.cache_hit_frac",
               "verify.pool_workers", "verify.pool_wait_s", "verify.pool_wall_s",
               "verify.child_cpu_s", "verify.pool_efficiency"}
    assert {m["name"] for m in spec["per_layer"]} == produced | derived


def test_equal_work_counts_must_repeat():
    counts = {k: 10 for k in W.EQUAL_WORK}
    assert run.equal_work_problems(counts, dict(counts)) == []
    changed = {**counts, "products.vertices": 11}
    assert run.equal_work_problems(counts, changed) == [
        "equal-work count products.vertices: 10 in one traced pass, 11 in the other"]


def test_a_changed_count_fails_its_operation():
    ops = {tid: {"counts": list(c)} for tid, c in run.GOLDEN["table"].items()}
    ops["TF11"]["member_tags"] = run.GOLDEN["member_tags"]["TF11"]
    assert run.check_pass("table", {"ops": ops}, Path()) == []
    ops["DK"]["counts"][1] += 1
    ops["TF11"]["member_tags"] = ops["TF11"]["member_tags"][1:]
    del ops["E1"]
    problems = run.check_pass("table", {"ops": ops}, Path())
    assert [p.split(":")[0] for p in problems] == ["DK", "E1", "TF11"]


def test_census_files_must_be_distinct_and_ordered(tmp_path):
    path = tmp_path / "x.g6"
    path.write_text("Bw\nBW\n")  # 2 edges, then 1 edge
    assert run.check_census_file(path, 2) == [f"{path.name}: not ordered by edge count, then graph6"]
    path.write_text("BW\nBW\n")
    assert run.check_census_file(path, 2) == [f"{path.name}: repeated graph6 strings"]
    path.write_text("BW\nBw\n")
    assert run.check_census_file(path, 2) == []


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
