"""Tests of the benchmark itself (not collected by the main suite).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import run  # noqa: E402
from workloads import SMOKE, WORKLOADS, smoke_jobs  # noqa: E402

ROOT = BENCH_DIR.parent


@pytest.fixture(scope="module")
def runner():
    return run.Runner(ROOT, run.load_digests())


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_smoke_workload_passes_its_checks(runner, workload):
    result = runner.run_pass(list(smoke_jobs(workload)))
    assert [(r["job"], r["status"]) for r in result["jobs"]] == [(j.id, "ok") for j in smoke_jobs(workload)]
    assert result["wall_s"] > 0 and result["peak_rss_mb"] > 0 and result["bytes_out"] > 0


def test_wrong_digest_counts_as_failed(runner):
    jobs = list(smoke_jobs("region"))
    digests = json.loads(json.dumps(runner.digests))
    digests[jobs[0].id]["stdout"] = "0" * 64
    broken = run.Runner(ROOT, digests)
    good = run.summarize([runner.run_pass(jobs, setup_samples=1)], trace=False)
    bad = run.summarize([broken.run_pass(jobs, setup_samples=1)], trace=False)
    assert (good["correct"], good["failed"]) == (True, 0)
    assert (bad["correct"], bad["failed"]) == (False, 1)
    assert bad["metrics"]["ops_ok_frac"]["value"] < good["metrics"]["ops_ok_frac"]["value"]


def test_traced_self_times_fit_in_job_wall_time(runner):
    job = next(j for j in WORKLOADS["analysis"] if j.id == "criterion-m4")
    result = runner.run_job(job, traced=True)
    assert result["status"] == "ok"  # tracing leaves the output bytes unchanged
    spans = result["trace"]["spans"]
    assert {(s["parent"], s["name"], s["calls"]) for s in spans} >= {
        (None, "cli.dispatch", 1),
        ("cli.dispatch", "cli.build_parser", 1),
        ("cli.dispatch", "probe.criterion_check", 1),
    }
    assert all(s["self_s"] >= 0 for s in spans)
    assert sum(s["self_s"] for s in spans) <= result["wall_s"]


class _OrderRecorder:
    def setup_sample(self):
        return {"wall_s": 0.0}

    def run_pass(self, jobs, traced=False, setup_samples=0):
        return {"traced": traced, "order": [job.id for job in jobs]}


def test_seed_permutes_job_order_only():
    jobs = WORKLOADS["region"]

    def orders(seed):
        return [p["order"] for p in run.measure(_OrderRecorder(), jobs, seed, 0, trace=True)]

    assert orders(1) == orders(1)
    assert orders(1) != orders(2)
    assert all(sorted(order) == sorted(job.id for job in jobs) for order in orders(2))


def test_row_check_for_jobs_without_digest():
    header = b"k,x,log_dkg_f,rate\n"
    rows = b"".join(b"%d,1.5,2.25,0.5\n" % k for k in range(1, 21))
    assert run._check_rows(header + rows, 20) == ("ok", "")
    assert run._check_rows(header + rows, 21)[0] == "failed"
    assert run._check_rows(header + rows.replace(b"2.25", b"inf", 1), 20)[0] == "failed"


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_compare_refuses_other_backend():
    same = {"machine": {"python": "3.11.7", "mpmath_backend": "python"}}
    other = {"machine": {"python": "3.11.7", "mpmath_backend": "gmpy"}}
    assert compare.mismatched_machine([same, same]) == []
    assert compare.mismatched_machine([same, other]) == ["mpmath_backend"]


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "region", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout
