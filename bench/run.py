#!/usr/bin/env python3
"""gsmult benchmark driver.

    python3 bench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Run from the root of a gsmult source checkout.  Each job of the workload is
a fresh ``python -m gsmult.cli ...`` process, started only after the
previous one exited (closed loop, one client), with ``src`` on PYTHONPATH
and its working directory under ``.bench_work/``.  Passes over the job list
repeat, each in an order drawn from ``--seed``, until another pass would
overrun ``--seconds``.  Every job's exit status, stderr, stdout and emitted
files are checked; see ``Runner.check_job``.

Times are reported at the reference machine speed: each timed item is
bracketed by runs of a fixed calibration loop, and its wall time is scaled
by ``CALIB_REF_S`` over the loop's median time around it.  The raw times are
kept in the record and reported by the traced run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes launched through ``traceboot.py`` and reports the
per-layer metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--out FILE`` also
writes the full record (machine, per-job results, spans) for ``compare.py``.
``--pin`` re-pins the workload's digests instead of measuring.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from traceboot import COUNTERS, TARGETS, metric_name
from workloads import WORKLOADS, Job

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS_PATH = BENCH_DIR / "digests.json"
TRACEBOOT = BENCH_DIR / "traceboot.py"
SETUP_SAMPLES_PER_PASS = 3
CALIB_SAMPLES = 3
# Time of one calibrate() call on the reference machine (2-core VM, Python
# 3.11.7) when it runs at its usual speed.  Only ratios to it are used.
CALIB_REF_S = 0.020
JOB_CPU_LIMIT_S = 60
TRACEBACK_MARK = b"Traceback (most recent call last)"
HELP_PREFIX = b"usage: gsmult"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "ops_ok_frac": "ratio"}
COUNT_UNITS = {
    "oracle.cells_certified": "count",
    "derivpoly.table_cells": "count",
    "derivpoly.eval_exact_share": "ratio",
    "precision.precision_errors": "count",
    "cli.bytes_out": "bytes",
    "cli.import_s": "s",
    "cli.cpu_s": "s",
    "ops_failed_frac": "ratio",
    "trace.overhead_s": "s",
    "bench.wall_raw_s": "s",
    "bench.setup_raw_s": "s",
    "bench.calib_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for mod_name, qualname in TARGETS:
        units[metric_name(mod_name, qualname) + ".calls"] = "count"
        units[metric_name(mod_name, qualname) + ".self_s"] = "s"
    units.update(COUNT_UNITS)
    return units


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def machine_record() -> dict:
    import mpmath

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "platform": platform.platform(),
    }


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop of the kinds of work gsmult does:
    big-integer products and divisions, Fraction sums and small dicts.

    The shared machine's speed swings by up to 2x within minutes, and CPU
    time swings with it; timing this loop next to each job measures the
    swing so that it can be divided out.
    """
    t0 = time.perf_counter()
    big = 3**3000
    acc = 0
    for i in range(1, 2000):
        acc += (big * (i + 1)) // (i + 7)
        acc += (Fraction(i, i + 3) + Fraction(1, i)).numerator
        acc += len({j: j * i for j in range(20)})
    elapsed = time.perf_counter() - t0
    if acc <= 0:
        raise AssertionError("calibration loop result lost")
    return elapsed


class Runner:
    """Launches jobs from one checkout and checks their outputs."""

    def __init__(self, root: Path, digests: dict):
        self.digests = digests
        self.workdir = root / ".bench_work"
        self.workdir.mkdir(exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env.pop("GSM_PRECISION_BITS", None)

    def launch(self, job: Job, traced: bool) -> dict:
        """Run one job to completion; return its measurements and outputs."""
        for name in job.files:
            (self.workdir / name).unlink(missing_ok=True)
        spans_path = self.workdir / "spans.json"
        spans_path.unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, str(TRACEBOOT), str(spans_path), job.id, "--", *job.argv]
        else:
            cmd = [sys.executable, "-m", "gsmult.cli", *job.argv]
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=self.workdir, env=self.env, stdout=out, stderr=err, preexec_fn=_limit_cpu
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = {
            "job": job.id,
            "traced": traced,
            "exit": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mib": usage.ru_maxrss / 1024.0,
            "stdout": out_path.read_bytes(),
            "stderr": err_path.read_bytes(),
            "files": {},
        }
        for name in job.files:
            path = self.workdir / name
            if path.exists():
                result["files"][name] = path.read_bytes()
                path.unlink()
        if traced and spans_path.exists():
            result["trace"] = json.loads(spans_path.read_text(encoding="utf-8"))
        return result

    def check_job(self, job: Job, result: dict) -> tuple[str, str]:
        """Classify a finished job as ("ok"|"failed"|"wrong", reason).

        "failed": non-zero exit, a traceback on stderr, or a missing output.
        "wrong": the job completed but its bytes differ from the pinned ones.
        """
        if result["exit"] != 0:
            return "failed", "exit status %d" % result["exit"]
        if TRACEBACK_MARK in result["stderr"]:
            return "failed", "traceback on stderr"
        missing = [name for name in job.files if name not in result["files"]]
        if missing:
            return "failed", "missing output %s" % ", ".join(missing)
        if job.rows is not None:
            return _check_rows(result["files"][job.files[0]], job.rows)
        pinned = self.digests.get(job.id)
        if pinned is None:
            return "wrong", "no pinned digest"
        if sha256(result["stdout"]) != pinned["stdout"]:
            return "wrong", "stdout digest mismatch"
        for name in job.files:
            if sha256(result["files"][name]) != pinned["files"].get(name):
                return "wrong", "digest mismatch in %s" % name
        return "ok", ""

    def run_job(self, job: Job, traced: bool = False) -> dict:
        result = self.launch(job, traced)
        result["status"], result["reason"] = self.check_job(job, result)
        result["bytes_out"] = len(result["stdout"]) + sum(len(b) for b in result["files"].values())
        for key in ("stdout", "stderr", "files"):
            del result[key]
        return result

    def setup_sample(self) -> dict:
        """Wall time of ``gsmult --help``: interpreter start, import, parser build."""
        cmd = [sys.executable, "-m", "gsmult.cli", "--help"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True)
        wall = time.perf_counter() - t0
        if proc.returncode != 0 or not proc.stdout.startswith(HELP_PREFIX):
            raise RuntimeError("gsmult --help failed: %s" % proc.stderr.decode(errors="replace")[-500:])
        return {"wall_s": wall}

    def run_pass(self, jobs: list[Job], traced: bool = False, setup_samples: int = 0) -> dict:
        """``setup_samples`` set-up samples, then the jobs in the given order.

        Calibration runs before the first item and after every item; each
        item's ``calib_s`` is the median of the runs on both sides of it.
        """
        calib = [[calibrate() for _ in range(CALIB_SAMPLES)]]
        setup, results = [], []
        for _ in range(setup_samples):
            setup.append(self.setup_sample())
            calib.append([calibrate() for _ in range(CALIB_SAMPLES)])
        for job in jobs:
            results.append(self.run_job(job, traced))
            calib.append([calibrate() for _ in range(CALIB_SAMPLES)])
        for i, item in enumerate(setup + results):
            item["calib_s"] = statistics.median(calib[i] + calib[i + 1])
        return {
            "traced": traced,
            "order": [job.id for job in jobs],
            "wall_s": sum(r["wall_s"] for r in results),
            "cpu_s": sum(r["cpu_s"] for r in results),
            "peak_rss_mb": max(r["maxrss_mib"] for r in results),
            "bytes_out": sum(r["bytes_out"] for r in results),
            "calib_s": statistics.median(c for group in calib for c in group),
            "setup": setup,
            "jobs": results,
        }


def _limit_cpu() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (JOB_CPU_LIMIT_S, JOB_CPU_LIMIT_S))


def _check_rows(data: bytes, rows: int) -> tuple[str, str]:
    lines = data.decode("utf-8", errors="replace").splitlines()[1:]
    if len(lines) != rows:
        return "failed", "expected %d data rows, got %d" % (rows, len(lines))
    for line in lines:
        try:
            values = [float(field) for field in line.split(",")]
        except ValueError:
            return "failed", "non-numeric row %r" % line
        if not all(math.isfinite(v) for v in values):
            return "failed", "non-finite row %r" % line
    return "ok", ""


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def measure(runner: Runner, jobs: tuple[Job, ...], seed: int, seconds: float, trace: bool) -> list[dict]:
    """Passes until another would overrun ``seconds``.

    Each untraced pass starts with set-up samples, so that they spread over
    the run; with ``trace`` each untraced pass is followed by a traced one.
    """
    rng = random.Random(seed)
    runner.setup_sample()  # warm the bytecode cache; users pay compilation once
    passes = []
    rounds = 0
    t0 = time.perf_counter()
    while True:
        for traced in ((False, True) if trace else (False,)):
            order = list(jobs)
            rng.shuffle(order)
            passes.append(runner.run_pass(order, traced, 0 if traced else SETUP_SAMPLES_PER_PASS))
        rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / rounds > seconds:
            return passes


def scaled(item: dict, key: str) -> float:
    """``item[key]`` converted to the reference machine speed."""
    return item[key] * CALIB_REF_S / item["calib_s"]


def pass_estimate(passes: list[dict], key: str, raw: bool = False) -> float:
    """One pass's total of ``key``: the sum over jobs of each job's median.

    Single jobs vary by 30-50% from pass to pass; the per-job median drops
    those spikes where a median of pass totals, over only a few passes a
    run, would keep them.
    """
    samples: dict[str, list[float]] = {}
    for p in passes:
        for r in p["jobs"]:
            samples.setdefault(r["job"], []).append(r[key] if raw else scaled(r, key))
    return sum(statistics.median(v) for v in samples.values())


def summarize(passes: list[dict], trace: bool) -> dict:
    """Reduce a run to the result object printed on the last line."""
    plain = [p for p in passes if not p["traced"]]
    results = [r for p in passes for r in p["jobs"]]
    attempted = len(results)
    failed = sum(r["status"] != "ok" for r in results)
    setup = [s for p in plain for s in p["setup"]]
    if not trace:
        values = {
            "wall_s": pass_estimate(plain, "wall_s"),
            "setup_s": statistics.median(scaled(s, "wall_s") for s in setup),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "ops_ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    else:
        values = _layer_values(passes)
        values["ops_failed_frac"] = failed / attempted
        values["bench.setup_raw_s"] = statistics.median(s["wall_s"] for s in setup)
        units = per_layer_units()
    return {
        "correct": not any(r["status"] == "wrong" for r in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def _layer_values(passes: list[dict]) -> dict:
    """Per-layer metrics: span sums per traced pass, medians over passes."""
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    per_pass = []
    for p in traced:
        v = dict.fromkeys(per_layer_units(), 0.0)
        counts = dict.fromkeys(COUNTERS, 0)
        for r in p["jobs"]:
            trace = r.get("trace")
            if trace is None:
                continue
            scale = CALIB_REF_S / r["calib_s"]
            v["cli.import_s"] += trace["import_s"] * scale
            for span in trace["spans"]:
                v[span["name"] + ".calls"] += span["calls"]
                v[span["name"] + ".self_s"] += span["self_s"] * scale
            for name, n in trace["counts"].items():
                counts[name] += n
        for name in ("oracle.cells_certified", "derivpoly.table_cells", "precision.precision_errors"):
            v[name] = counts[name]
        evals = v["derivpoly.eval_log_magnitude.calls"]
        v["derivpoly.eval_exact_share"] = counts["derivpoly.eval_exact"] / evals if evals else 0.0
        per_pass.append(v)
    values = {name: statistics.median(v[name] for v in per_pass) for name in per_layer_units()}
    values["cli.bytes_out"] = statistics.median(p["bytes_out"] for p in plain)
    values["cli.cpu_s"] = pass_estimate(plain, "cpu_s")
    values["trace.overhead_s"] = pass_estimate(traced, "wall_s") - pass_estimate(plain, "wall_s")
    values["bench.wall_raw_s"] = pass_estimate(plain, "wall_s", raw=True)
    values["bench.calib_s"] = statistics.median(p["calib_s"] for p in passes)
    return values


def pin(runner: Runner, workload: str) -> None:
    """Record stdout and file digests of every digest-checked job."""
    digests = load_digests()
    for job in WORKLOADS[workload]:
        if job.rows is not None:
            continue
        result = runner.launch(job, traced=False)
        if result["exit"] != 0 or TRACEBACK_MARK in result["stderr"]:
            raise SystemExit("refusing to pin %s: it failed (exit %d)" % (job.id, result["exit"]))
        digests[job.id] = {
            "stdout": sha256(result["stdout"]),
            "files": {name: sha256(data) for name, data in sorted(result["files"].items())},
        }
        print("pinned %s" % job.id)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _report(passes: list[dict], summary: dict, machine: dict, load_before, load_after) -> None:
    print("# machine %s" % json.dumps(machine, sort_keys=True))
    print("# load average before %s after %s" % (load_before, load_after))
    print("# passes: %d, set-up samples: %d" % (len(passes), sum(len(p["setup"]) for p in passes)))
    for i, p in enumerate(passes):
        bad = ["%s: %s" % (r["job"], r["reason"]) for r in p["jobs"] if r["status"] != "ok"]
        print("# pass %d%s: raw wall %.3f s, cpu %.3f s, calibration %.4f s, peak rss %.1f MiB%s" % (
            i, " (traced)" if p["traced"] else "", p["wall_s"], p["cpu_s"], p["calib_s"], p["peak_rss_mb"],
            "; failed " + "; ".join(bad) if bad else ""))
    for name, metric in summary["metrics"].items():
        print("# %-44s %14.6g %s" % (name, metric["value"], metric["unit"]))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="write the full run record as JSON")
    parser.add_argument("--pin", action="store_true", help="re-pin this workload's output digests")
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "gsmult" / "cli.py").is_file():
        print("no gsmult source tree under %s; run from the root of a checkout" % root, file=sys.stderr)
        return 2
    runner = Runner(root, load_digests())
    if args.pin:
        pin(runner, args.workload)
        return 0
    machine = machine_record()
    load_before = os.getloadavg()
    passes = measure(runner, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    load_after = os.getloadavg()
    summary = summarize(passes, bool(args.trace))
    _report(passes, summary, machine, load_before, load_after)
    if args.out is not None:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": machine,
            "load_before": load_before,
            "load_after": load_after,
            "calib_ref_s": CALIB_REF_S,
            "passes": passes,
            "result": summary,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
