"""The benchmark's workloads: fixed lists of ``gsmult`` CLI invocations.

Each job is one fresh ``python -m gsmult.cli ARGV`` process.  ``files`` names
the files the job emits (relative to its working directory); stdout and each
of them are checked against the sha256 digests pinned in ``digests.json``.
A job with ``rows`` set has no pinned digest; it passes when it exits 0 and
its single emitted CSV holds exactly that many data rows, all finite.

Why each workload exists is documented in README.md.  No argv uses
``--threads``: users run at the default of one thread.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class Job(NamedTuple):
    id: str
    argv: tuple[str, ...]
    files: tuple[str, ...] = ()
    rows: Optional[int] = None


def _job(job_id: str, cmd: str, files: tuple[str, ...] = (), rows: Optional[int] = None) -> Job:
    return Job(job_id, tuple(cmd.split()), files, rows)


def _classify(job_id: str, theta: str, s: str, m: int, space: str, extra: str = "") -> Job:
    cmd = "wedge classify --theta %s --s %s --m %d --space %s %s" % (theta, s, m, space, extra)
    return _job(job_id, cmd)


WORKLOADS: dict[str, tuple[Job, ...]] = {
    # Exact-integer path: table convolution, the oracles, the identity checks
    # and JSON emission.  No gsfunc or wedge code runs.
    "certify": (
        _job("table-m4-k500", "table --m 4 --kmax 500 --out t4.json", ("t4.json",)),
        _job("coeffs-m4-k200", "verify coeffs --m 4 --kmax 200 --json r4.json", ("r4.json",)),
        _job("coeffs-m2-k200", "verify coeffs --m 2 --kmax 200 --json r2.json", ("r2.json",)),
        _job("ident-m4-t1_2", "verify identities --m 4 --kmax 600 --theta 1/2"),
        _job("ident-m3-t5_6", "verify identities --m 3 --kmax 400 --theta 5/6"),
        _job("ident-m3-t2-j30", "verify identities --m 3 --kmax 200 --theta 2 --jmax 30"),
    ),
    # Multiprecision path: the interval Leibniz engine, precision conversions
    # and the derivpoly evaluators.  No oracle or wedge code runs.
    "analysis": (
        _job("bound-t1_2", "gs bound --theta 1/2 --kmax 60"),
        # The default slope tolerance fails at kmax 60 for theta 2.
        _job("bound-t2", "gs bound --theta 2 --kmax 60 --slope-tol 1e-2"),
        _job("seminorm-h", "gs seminorm --kind h --h 1/2 --theta 1 --s 1 --kmax 20 --csv h.csv", ("h.csv",)),
        _job(
            "seminorm-a-gauss",
            "gs seminorm --kind a --a 1/2 --theta 1 --s 1 --f gaussian --kmax 40 --grid 16:20 --csv a.csv",
            ("a.csv",),
        ),
        _job("probe-m3-t2", "probe run --m 3 --theta 2 --nu 2 --kmax 200 --csv p3.csv", ("p3.csv",)),
        _job("probe-m2-t1-neg", "probe run --m 2 --theta 1 --nu 1 --kmax 300 --sign - --csv p2.csv", ("p2.csv",)),
        _job("criterion-m4", "probe criterion --m 4 --theta 1 --s 1 --jmax 40"),
        # Non-integer evaluation point: no digest exists for it yet.
        _job("probe-m3-t3_2", "probe run --m 3 --theta 3/2 --nu 3/2 --kmax 20 --csv pf.csv", ("pf.csv",), rows=20),
    ),
    # Wedge classification and file emission, in bulk and per point.  The
    # point queries are almost all interpreter start-up and import.
    "region": (
        _job(
            "figure-r4-csv",
            "wedge figure --m 4 --space roumieu --format csv --theta-step 1/100 --s-step 1/100 --out r4.csv",
            ("r4.csv",),
        ),
        _job(
            "figure-b3-svg",
            "wedge figure --m 3 --space beurling --monomial --format svg --theta-step 1/100 --s-step 1/100 --out b3.svg",
            ("b3.svg",),
        ),
        _job(
            "figure-b2-csv",
            "wedge figure --m 2 --space beurling --format csv --theta-step 1/60 --s-step 1/60 --out b2.csv",
            ("b2.csv",),
        ),
        _classify("classify-strip", "2", "1", 2, "roumieu"),
        _classify("classify-boundary", "1/3", "1", 4, "beurling"),
        _classify("classify-corner", "1/2", "1", 3, "beurling"),
        _classify("classify-trivial", "1/4", "1/2", 4, "roumieu"),
        _classify("classify-monomial", "2", "3", 3, "beurling", "--monomial"),
        _classify("classify-propagator", "1", "3/2", 3, "roumieu", "--propagator"),
        _classify("classify-d2", "3/4", "2", 4, "roumieu", "--d 2"),
    ),
}

# Cheap digest-pinned jobs, one small set per workload, for the benchmark's
# own tests.
SMOKE: dict[str, tuple[str, ...]] = {
    "certify": ("ident-m3-t2-j30",),
    "analysis": ("criterion-m4",),
    "region": ("classify-corner", "classify-propagator"),
}


def smoke_jobs(workload: str) -> tuple[Job, ...]:
    wanted = SMOKE[workload]
    return tuple(j for j in WORKLOADS[workload] if j.id in wanted)
