"""The benchmark's pinned outputs, in-process.

Each job's argv is read from ``bench/workloads.py`` and run through
``cli.dispatch`` in an empty working directory; the sha256 of what it prints
and of every file it emits must equal the digests pinned in
``bench/digests.json``.  Every job with a pinned digest is covered (a job
that only counts rows has none).  Both bench files are only read.
"""

import hashlib
import json

import pytest

from gsmult.cli import dispatch

from conftest import ROOT, bench_module

DIGESTS = json.loads((ROOT / "bench" / "digests.json").read_text(encoding="utf-8"))
JOBS = {job.id: job for jobs in bench_module("workloads").WORKLOADS.values() for job in jobs}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_pinned_job_is_a_workload_job():
    assert sorted(DIGESTS) == sorted(job_id for job_id, job in JOBS.items() if job.rows is None)


@pytest.mark.parametrize("job_id", sorted(DIGESTS))
def test_stdout_matches_the_pinned_digest(tmp_path, monkeypatch, capsys, job_id):
    job, pinned = JOBS[job_id], DIGESTS[job_id]
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert dispatch(job.argv) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == pinned["stdout"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(job.files) == sorted(pinned["files"])
    for name in job.files:
        assert _sha256((tmp_path / name).read_bytes()) == pinned["files"][name], name
