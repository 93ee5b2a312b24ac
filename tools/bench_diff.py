#!/usr/bin/env python3
"""Validate and diff BENCH_*.json files (the bench harness's machine output).

Modes:
  bench_diff.py --validate FILE [FILE...]
      Schema-check each file; exit 1 on the first violation.
  bench_diff.py BASELINE CANDIDATE [options]
      Compare two runs point-by-point (points are matched on their full label
      set). Exit 1 when any matched point regresses: throughput drops more
      than --max-throughput-drop (default 15%), or p99 latency inflates more
      than --max-p99-inflation (default 50%). Points with fewer than
      --min-commits root commits (default 50) are skipped as noise — tiny
      smoke windows commit a handful of transactions and their ratios are
      meaningless.
  bench_diff.py --fig6 FIG4_FILE FIG5_FILE
      Print Figure 6 (RTS throughput over TFA and over TFA+Backoff, low
      contention from fig4_throughput_low output, high from
      fig5_throughput_high output) for every node count both files share.
  bench_diff.py --self-test
      Run the built-in synthetic checks (used by ctest); exit 0 iff they pass.

No third-party dependencies — stdlib json/argparse only.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

SCHEMA_VERSION = 1

# Every point that reports `throughput` (i.e. came from a measurement window,
# not a microbenchmark) must also report the latency percentiles and the
# degradation counters — that is the contract the regression gate relies on.
WINDOW_REQUIRED_METRICS = (
    "latency_p50_us",
    "latency_p99_us",
    "rpc_retries",
    "dedup_hits",
    "watchdog_aborts",
    "grant_reforwards",
)


class SchemaError(Exception):
    pass


def validate_doc(doc, name="<doc>"):
    """Raises SchemaError on the first violation."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{name}: top level must be an object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(
            f"{name}: schema_version must be {SCHEMA_VERSION}, "
            f"got {doc.get('schema_version')!r}")
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        raise SchemaError(f"{name}: 'bench' must be a non-empty string")
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        raise SchemaError(f"{name}: 'meta' must be an object")
    if not isinstance(meta.get("git_sha"), str):
        raise SchemaError(f"{name}: meta.git_sha must be a string")
    points = doc.get("points")
    if not isinstance(points, list):
        raise SchemaError(f"{name}: 'points' must be an array")
    for i, point in enumerate(points):
        where = f"{name}: points[{i}]"
        if not isinstance(point, dict):
            raise SchemaError(f"{where} must be an object")
        labels = point.get("labels")
        if not isinstance(labels, dict):
            raise SchemaError(f"{where}.labels must be an object")
        for k, v in labels.items():
            if not isinstance(v, str):
                raise SchemaError(f"{where}.labels[{k!r}] must be a string")
        metrics = point.get("metrics")
        if not isinstance(metrics, dict) or not metrics:
            raise SchemaError(f"{where}.metrics must be a non-empty object")
        for k, v in metrics.items():
            if v is not None and not isinstance(v, (int, float)):
                raise SchemaError(f"{where}.metrics[{k!r}] must be a number")
            if isinstance(v, float) and not math.isfinite(v):
                raise SchemaError(f"{where}.metrics[{k!r}] is not finite")
        if "throughput" in metrics:
            for required in WINDOW_REQUIRED_METRICS:
                if required not in metrics:
                    raise SchemaError(
                        f"{where}: window point missing metric {required!r}")


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def point_key(point):
    return tuple(sorted(point["labels"].items()))


def fmt_key(key):
    return "/".join(f"{k}={v}" for k, v in key) or "<unlabelled>"


def compare(baseline, candidate, opts):
    """Returns a list of regression strings (empty = pass)."""
    base_points = {point_key(p): p["metrics"] for p in baseline["points"]}
    cand_points = {point_key(p): p["metrics"] for p in candidate["points"]}

    regressions = []
    compared = skipped = 0
    for key, base in sorted(base_points.items()):
        cand = cand_points.get(key)
        if cand is None:
            print(f"  ~ {fmt_key(key)}: missing from candidate (skipped)")
            continue
        if "throughput" not in base or "throughput" not in cand:
            continue
        commits = min(base.get("commits_root", 0), cand.get("commits_root", 0))
        if commits < opts.min_commits:
            skipped += 1
            continue
        compared += 1

        base_thr, cand_thr = base["throughput"], cand["throughput"]
        if base_thr > 0:
            drop = 1.0 - cand_thr / base_thr
            if drop > opts.max_throughput_drop:
                regressions.append(
                    f"{fmt_key(key)}: throughput {base_thr:.1f} -> {cand_thr:.1f} "
                    f"(-{drop:.1%}, limit -{opts.max_throughput_drop:.0%})")

        base_p99 = base.get("latency_p99_us", 0)
        cand_p99 = cand.get("latency_p99_us", 0)
        if base_p99 > 0:
            inflation = cand_p99 / base_p99 - 1.0
            if inflation > opts.max_p99_inflation:
                regressions.append(
                    f"{fmt_key(key)}: p99 {base_p99:.0f}us -> {cand_p99:.0f}us "
                    f"(+{inflation:.1%}, limit +{opts.max_p99_inflation:.0%})")

        if cand.get("verified", 1) < 1 <= base.get("verified", 1):
            regressions.append(f"{fmt_key(key)}: candidate failed verification")

    print(f"  compared {compared} point(s), skipped {skipped} "
          f"below --min-commits={opts.min_commits}")
    return regressions


# Figure 6's bars: RTS over each competitor, per contention level.
FIG6_BENCHES = ("fig4_throughput_low", "fig5_throughput_high")
FIG6_BASELINES = ("tfa", "backoff")


def fig6_rows(low, high):
    """Figure 6 as rows of (nodes, workload, [speedups]) for the node counts
    both docs cover. Speedups are RTS throughput over tfa and backoff at low,
    then at high contention; None where a point is missing or has no
    throughput."""
    tables = [{(p["labels"].get("nodes"), p["labels"].get("workload"),
                p["labels"].get("scheduler")): p["metrics"]["throughput"]
               for p in doc["points"] if "throughput" in p["metrics"]}
              for doc in (low, high)]
    shared = {k[0] for k in tables[0]} & {k[0] for k in tables[1]} - {None}
    workloads = dict.fromkeys(k[1] for table in tables for k in table)
    rows = []
    for nodes in sorted(shared, key=lambda n: (len(n), n)):
        for workload in workloads:
            speedups = []
            for table in tables:
                rts = table.get((nodes, workload, "rts"))
                for baseline in FIG6_BASELINES:
                    other = table.get((nodes, workload, baseline))
                    speedups.append(rts / other if rts is not None and other
                                    else None)
            rows.append((nodes, workload, speedups))
    return rows


def print_fig6(rows):
    def cell(value, width):
        return f"{value:{width - 1}.2f}x" if value is not None else f"{'-':>{width}}"

    header = (f"{'benchmark':<12} | {'TFA(low)':>10} {'Backoff(low)':>14} | "
              f"{'TFA(high)':>10} {'Backoff(high)':>14}")
    for nodes in dict.fromkeys(r[0] for r in rows):
        group = [(workload, s) for n, workload, s in rows if n == nodes]
        print(f"# Figure 6 at nodes={nodes}: RTS throughput / competitor throughput")
        print(header)
        print("-" * len(header))
        for workload, s in group:
            print(f"{workload:<12} | {cell(s[0], 10)} {cell(s[1], 14)} | "
                  f"{cell(s[2], 10)} {cell(s[3], 14)}")
        low, high = (max([v for _, s in group for v in s[i:i + 2] if v is not None]
                         or [0.0]) for i in (0, 2))
        print(f"# max speedup: {low:.2f}x (low) / {high:.2f}x (high); "
              "paper: 1.53x / 1.88x\n")


def make_doc(points, bench="synthetic"):
    return {
        "schema_version": SCHEMA_VERSION,
        "bench": bench,
        "meta": {"git_sha": "selftest"},
        "points": points,
    }


def make_point(labels, throughput, p99, commits=1000, verified=1):
    metrics = {
        "throughput": throughput,
        "commits_root": commits,
        "latency_p50_us": p99 / 2,
        "latency_p99_us": p99,
        "rpc_retries": 0,
        "dedup_hits": 0,
        "watchdog_aborts": 0,
        "grant_reforwards": 0,
        "verified": verified,
    }
    return {"labels": labels, "metrics": metrics}


def self_test():
    default = argparse.Namespace(
        max_throughput_drop=0.15, max_p99_inflation=0.5, min_commits=50)
    failures = []

    def check(name, condition):
        print(f"  {'ok' if condition else 'FAIL'}: {name}")
        if not condition:
            failures.append(name)

    labels = {"workload": "bank", "scheduler": "rts", "nodes": "8"}
    base = make_doc([make_point(labels, 1000.0, 500.0)])

    # Identical runs pass.
    check("identical runs pass", not compare(base, base, default))
    # A 30% throughput drop must be flagged.
    slow = make_doc([make_point(labels, 700.0, 500.0)])
    check("30% throughput drop flagged", bool(compare(base, slow, default)))
    # p99 doubling must be flagged.
    tail = make_doc([make_point(labels, 1000.0, 1100.0)])
    check("p99 inflation flagged", bool(compare(base, tail, default)))
    # Noise guard: the same drop with too few commits is skipped.
    noisy_base = make_doc([make_point(labels, 1000.0, 500.0, commits=5)])
    noisy_slow = make_doc([make_point(labels, 500.0, 500.0, commits=5)])
    check("low-commit points skipped",
          not compare(noisy_base, noisy_slow, default))
    # A verification failure in the candidate must be flagged.
    broken = make_doc([make_point(labels, 1000.0, 500.0, verified=0)])
    check("verify failure flagged", bool(compare(base, broken, default)))
    # Schema checks: a valid doc validates, a window point without p99 fails.
    try:
        validate_doc(base, "base")
        check("valid doc validates", True)
    except SchemaError:
        check("valid doc validates", False)
    bad = make_doc([make_point(labels, 1000.0, 500.0)])
    del bad["points"][0]["metrics"]["latency_p99_us"]
    try:
        validate_doc(bad, "bad")
        check("missing p99 rejected", False)
    except SchemaError:
        check("missing p99 rejected", True)
    try:
        validate_doc(make_doc([{"labels": {}, "metrics": {"x": float("nan")}}]))
        check("NaN metric rejected", False)
    except SchemaError:
        check("NaN metric rejected", True)
    # Figure 6 covers only the node counts both files share: 8 here, not the
    # fig4-only 4 or the fig5-only 16.
    def fig_point(nodes, scheduler, throughput):
        return make_point({"workload": "bank", "scheduler": scheduler,
                           "nodes": nodes}, throughput, 500.0)
    low = make_doc([fig_point(n, s, t) for n in ("4", "8")
                    for s, t in (("rts", 300.0), ("tfa", 200.0),
                                 ("backoff", 250.0))], FIG6_BENCHES[0])
    high = make_doc([fig_point(n, s, t) for n in ("8", "16")
                     for s, t in (("rts", 180.0), ("tfa", 100.0),
                                  ("backoff", 0.0))], FIG6_BENCHES[1])
    check("fig6 reads the shared node counts",
          fig6_rows(low, high) == [("8", "bank", [1.5, 1.2, 1.8, None])])

    if failures:
        print(f"self-test: {len(failures)} check(s) failed")
        return 1
    print("self-test: all checks passed")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*",
                        help="BASELINE CANDIDATE, or files for --validate")
    parser.add_argument("--validate", action="store_true",
                        help="schema-check the given files instead of diffing")
    parser.add_argument("--fig6", action="store_true",
                        help="print Figure 6 from FIG4_FILE and FIG5_FILE")
    parser.add_argument("--self-test", action="store_true",
                        help="run built-in synthetic checks")
    parser.add_argument("--max-throughput-drop", type=float, default=0.15,
                        metavar="FRAC",
                        help="fail when throughput drops more (default 0.15)")
    parser.add_argument("--max-p99-inflation", type=float, default=0.5,
                        metavar="FRAC",
                        help="fail when p99 inflates more (default 0.5)")
    parser.add_argument("--min-commits", type=int, default=50,
                        help="skip points with fewer root commits (default 50)")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but exit 0 (CI smoke runs)")
    opts = parser.parse_args(argv)

    if opts.self_test:
        return self_test()

    if opts.validate:
        if not opts.files:
            parser.error("--validate needs at least one file")
        for path in opts.files:
            try:
                validate_doc(load(path), path)
            except SchemaError as exc:
                print(f"INVALID: {exc}")
                return 1
            print(f"ok: {path}")
        return 0

    if len(opts.files) != 2:
        parser.error("--fig6 needs FIG4_FILE and FIG5_FILE" if opts.fig6 else
                     "compare mode needs exactly BASELINE and CANDIDATE")
    try:
        docs = [load(path) for path in opts.files]
        for doc, path in zip(docs, opts.files):
            validate_doc(doc, path)
    except SchemaError as exc:
        print(f"INVALID: {exc}")
        return 1

    if opts.fig6:
        for doc, path, bench in zip(docs, opts.files, FIG6_BENCHES):
            if doc["bench"] != bench:
                print(f"INVALID: {path}: expected a {bench} file, "
                      f"got {doc['bench']!r}")
                return 1
        rows = fig6_rows(*docs)
        if not rows:
            print("no node count appears in both files")
            return 1
        print_fig6(rows)
        return 0

    baseline, candidate = docs

    print(f"comparing {opts.files[0]} (baseline) vs {opts.files[1]}")
    regressions = compare(baseline, candidate, opts)
    if regressions:
        print(f"\n{len(regressions)} regression(s):")
        for regression in regressions:
            print(f"  !! {regression}")
        return 0 if opts.warn_only else 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
