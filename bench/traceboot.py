"""Traced launcher for one gsmult CLI job.

    python bench/traceboot.py SPANS_JSON JOB_ID -- ARGV...

Imports ``gsmult.cli``, wraps the public functions in ``TARGETS`` in every
gsmult module namespace that holds a reference to them, then runs
``gsmult.cli.dispatch(ARGV)`` and exits with its status, as
``python -m gsmult.cli ARGV`` would.  Spans are kept in memory, aggregated
per (parent, name), and written to SPANS_JSON when the job exits, also when
it raises.  The program itself is not modified.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, qualified name) of every function timed in the traced run.
TARGETS: tuple[tuple[str, str], ...] = (
    ("oracle", "certify"),
    ("oracle", "coeff_oracle"),
    ("oracle", "symbolic_recursion_oracle"),
    ("oracle", "hermite_oracle"),
    ("oracle", "OracleReport.to_json"),
    ("derivpoly", "build_coeff_table"),
    ("derivpoly", "CoeffTable.to_json"),
    ("derivpoly", "eval_log_magnitude"),
    ("derivpoly", "gaussian_parts"),
    ("identities", "check_ratio_bound"),
    ("identities", "check_wedge_fn_nonneg"),
    ("identities", "check_lower_bound"),
    ("identities", "check_ck2_bound"),
    ("gsfunc", "verify_gs_bound"),
    ("gsfunc", "gs_derivative_series"),
    ("gsfunc", "seminorm"),
    ("gsfunc", "seminorm_cells"),
    ("gsfunc", "GSFunction.derivatives"),
    ("gsfunc", "Gaussian.derivatives"),
    ("precision", "to_iv"),
    ("precision", "to_mpf"),
    ("precision", "certified_midpoint"),
    ("precision", "half_log_of_int"),
    ("probe", "probe_series"),
    ("probe", "criterion_check"),
    ("probe", "estimate_rate"),
    ("wedge", "classify_multiplier"),
    ("wedge", "classify"),
    ("wedge", "render_region_csv"),
    ("wedge", "render_region_svg"),
    ("wedge", "emit_region_grid"),
    ("_util", "format_fraction"),
    ("_util", "format_mpf"),
    ("_util", "pmap"),
    ("cli", "build_parser"),
    ("cli", "dispatch"),
)

# Counts taken at the same boundaries; their names are the metric names.
COUNTERS: tuple[str, ...] = (
    "oracle.cells_certified",
    "derivpoly.table_cells",
    "derivpoly.eval_exact",
    "precision.precision_errors",
)


def metric_name(module: str, qualname: str) -> str:
    """Span and metric name of a target; metric names start with a letter,
    so ``_util`` reports as ``util``."""
    return "%s.%s" % (module.lstrip("_"), qualname)


class Tracer:
    """Span stack plus per-(parent, name) aggregates for one job."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.stack: list[list] = []  # [name, start, time covered by children]
        self.spans: dict[tuple, list] = {}  # (parent, name) -> [calls, total, self, first start, last end]
        self.counts = dict.fromkeys(COUNTERS, 0)

    def wrap(self, name: str, fn, observe=None):
        clock = time.perf_counter
        stack = self.stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dur
                key = (parent[0] if parent is not None else None, name)
                agg = spans.get(key)
                if agg is None:
                    spans[key] = [1, dur, dur - frame[2], frame[1], end]
                else:
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[2]
                    agg[4] = end
            if observe is not None:
                observe(result, args)
            return result

        return traced

    def record(self) -> dict:
        return {
            "job": self.job_id,
            "spans": [
                {"parent": parent, "name": name, "calls": a[0], "total_s": a[1], "self_s": a[2],
                 "start": a[3], "end": a[4]}
                for (parent, name), a in self.spans.items()
            ],
            "counts": self.counts,
        }


def _table_cells(table) -> int:
    return sum(len(row) for row in table.rows)


def _observers(tracer: Tracer) -> dict:
    counts = tracer.counts

    def certified(report, args):
        counts["oracle.cells_certified"] += _table_cells(args[0]) - len(report.discrepancies)

    def table_built(table, args):
        counts["derivpoly.table_cells"] += _table_cells(table)

    def evaluated(result, args):
        counts["derivpoly.eval_exact"] += bool(result.exact)

    return {
        "oracle.certify": certified,
        "derivpoly.build_coeff_table": table_built,
        "derivpoly.eval_log_magnitude": evaluated,
    }


def install(tracer: Tracer) -> None:
    """Wrap every target wherever a gsmult namespace refers to it."""
    modules = {name: mod for name, mod in sys.modules.items() if name == "gsmult" or name.startswith("gsmult.")}
    observers = _observers(tracer)
    for mod_name, qualname in TARGETS:
        metric = metric_name(mod_name, qualname)
        owner = modules["gsmult." + mod_name]
        *cls_path, attr = qualname.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = tracer.wrap(metric, original, observers.get(metric))
        if cls_path:
            setattr(owner, attr, wrapped)
            continue
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    precision_error = modules["gsmult.precision"].PrecisionError
    base_init = precision_error.__init__

    def counting_init(self, *args, **kwargs):
        tracer.counts["precision.precision_errors"] += 1
        base_init(self, *args, **kwargs)

    precision_error.__init__ = counting_init


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: traceboot.py SPANS_JSON JOB_ID -- ARGV...", file=sys.stderr)
        return 2
    spans_path, job_id, cli_argv = argv[0], argv[1], argv[3:]
    t0 = time.perf_counter()
    import gsmult.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer(job_id)
    install(tracer)
    try:
        return gsmult.cli.dispatch(cli_argv)
    finally:
        record = tracer.record()
        record["import_s"] = import_s
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
