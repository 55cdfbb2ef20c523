"""The benchmark's pinned stdout of the identity and criterion jobs, in-process.

Each job's argv is read from ``bench/workloads.py`` and run through
``cli.dispatch``; the sha256 of what it prints must equal the digest pinned
in ``bench/digests.json``.  These jobs write no files, so stdout is all
their output.  Both bench files are only read.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from gsmult.cli import dispatch

BENCH = Path(__file__).resolve().parent.parent / "bench"
JOB_IDS = ("ident-m4-t1_2", "ident-m3-t5_6", "ident-m3-t2-j30", "criterion-m4")


def _jobs():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {job.id: job for jobs in module.WORKLOADS.values() for job in jobs}


@pytest.mark.parametrize("job_id", JOB_IDS)
def test_stdout_matches_the_pinned_digest(capsys, job_id):
    job = _jobs()[job_id]
    assert not job.files
    pinned = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))[job_id]["stdout"]
    capsys.readouterr()
    assert dispatch(job.argv) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == pinned
