#!/usr/bin/env python3
"""Compare freshly-generated BENCH_*.json files against a committed baseline.

Each BENCH file carries a top-level ``time_sec`` plus optional per-row
series. Rows are matched by their identity fields (everything that is not
a measurement), and a row whose ``time_sec`` grew by more than the
threshold factor counts as a regression. Missing rows and missing files
are reported too (a bench that stopped emitting a row would otherwise
pass silently).

Intended use (CI runs this as a blocking gate):

    python3 tools/bench_diff.py \
        --baseline-dir . --current-dir fresh-bench \
        --benches scaling,table1 --threshold 1.3 \
        --per-bench table1=1.5,scaling=1.45 \
        --markdown-out "$GITHUB_STEP_SUMMARY"

``--per-bench`` overrides the global threshold for individual benches;
the committed CI values are derived from observed same-runner run-to-run
noise on each bench's artifacts (see docs/BENCHMARKS.md for the numbers
and how to re-derive them from the uploaded ``bench-json`` artifacts).

Besides each row's ``time_sec``, every field named in GATED_FIELDS (e.g.
``rewrite_sec``, the saturation phase the tail models spend most of their
time in) gates with the same threshold and the same min-time floor — so
only rows where that phase is above timer noise participate.

``--markdown-out`` appends a GitHub-flavored markdown summary (one table
per bench: baseline vs current time per row, ratio, verdict) to the given
file — CI points it at the job summary page. See docs/BENCHMARKS.md for
the full JSON schema and gating semantics.

Exit status: 0 when no regression, 1 on any regression or missing data,
2 on usage errors.
"""

import argparse
import json
import os
import sys

# Fields that *identify* a row (which workload/config it measures). Every
# other field is an output — a measurement or a derived result — and may
# legitimately drift without breaking row matching (e.g. a new rewrite
# rule changing saturated e-node counts must still compare times, not
# report the row missing).
IDENTITY_FIELDS = ("family", "n", "model", "kind", "iter", "rule")

# Measurement fields gated per row (when present in both baseline and
# current, and above the min-time floor). time_sec is the end-to-end row
# time; rewrite_sec isolates the saturation phase so a rewrite-engine
# regression on a tail model cannot hide behind an extraction win;
# extract_sec and rewrite_apply_sec gate the k-best derivation and the
# apply phase of saturation on their own, so a slowdown in either is a
# regression even when the row total stays within its threshold.
GATED_FIELDS = ("time_sec", "rewrite_sec", "extract_sec", "rewrite_apply_sec")


def row_key(row):
    """Identity of a row: its identity fields, order-insensitive."""
    key = tuple((k, str(row[k])) for k in IDENTITY_FIELDS if k in row)
    if key:
        return key
    # No known identity field: fall back to position-free full identity
    # minus the one field always treated as a measurement.
    return tuple(sorted((k, str(v)) for k, v in row.items() if k != "time_sec"))


def load(path):
    with open(path) as f:
        return json.load(f)


def compare_bench(name, baseline, current, threshold, min_time, report, md):
    ok = True
    base_time = baseline.get("time_sec")
    cur_time = current.get("time_sec")
    if base_time and cur_time:
        ratio = cur_time / base_time if base_time > 0 else float("inf")
        line = f"{name}: total {base_time:.3f}s -> {cur_time:.3f}s ({ratio:.2f}x)"
        # The total is informational only: it includes fixed harness
        # overhead, so per-row times below are what gate.
        report.append("  " + line)

    md.append(f"### `{name}` (threshold {threshold:.2f}x)")
    md.append("")
    md.append("| row | baseline (s) | current (s) | ratio | verdict |")
    md.append("| --- | ---: | ---: | ---: | --- |")
    if base_time and cur_time:
        ratio = cur_time / base_time if base_time > 0 else float("inf")
        md.append(
            f"| *total (informational)* | {base_time:.3f} | {cur_time:.3f} "
            f"| {ratio:.2f}x | |"
        )

    base_rows = {row_key(r): r for r in baseline.get("rows", [])}
    cur_rows = {row_key(r): r for r in current.get("rows", [])}
    for key, base_row in base_rows.items():
        cur_row = cur_rows.get(key)
        ident = ", ".join(f"{k}={v}" for k, v in key)
        if cur_row is None:
            report.append(f"  MISSING ROW [{name}] {ident}")
            md.append(f"| {ident} | — | — | — | :x: missing |")
            ok = False
            continue
        for field in GATED_FIELDS:
            bt, ct = base_row.get(field), cur_row.get(field)
            if bt is None or ct is None or bt <= 0:
                continue
            label = ident if field == "time_sec" else f"{ident} [{field}]"
            if bt < min_time and ct < min_time:
                # Sub-floor rows are pure timer noise; growth ratios on
                # them would flap CI.
                if field == "time_sec":
                    md.append(
                        f"| {label} | {bt:.4f} | {ct:.4f} | | below floor |"
                    )
                continue
            ratio = ct / bt
            if ratio > threshold:
                report.append(
                    f"  REGRESSION [{name}] {label}: "
                    f"{bt:.4f}s -> {ct:.4f}s ({ratio:.2f}x > {threshold:.2f}x)"
                )
                md.append(
                    f"| {label} | {bt:.4f} | {ct:.4f} | {ratio:.2f}x "
                    f"| :x: regression |"
                )
                ok = False
            else:
                md.append(
                    f"| {label} | {bt:.4f} | {ct:.4f} | {ratio:.2f}x | ok |"
                )
    md.append("")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline-dir", required=True)
    ap.add_argument("--current-dir", required=True)
    ap.add_argument(
        "--benches",
        default="scaling,table1",
        help="comma-separated bench names (BENCH_<name>.json)",
    )
    ap.add_argument(
        "--threshold",
        type=float,
        default=1.3,
        help="max allowed per-row growth factor on gated fields",
    )
    ap.add_argument(
        "--per-bench",
        default="",
        help="per-bench threshold overrides, e.g. 'table1=1.5,scaling=1.45' "
        "(benches not listed use --threshold)",
    )
    ap.add_argument(
        "--min-time",
        type=float,
        default=0.05,
        help="ignore rows whose time stays below this many seconds",
    )
    ap.add_argument(
        "--markdown-out",
        default=None,
        help="append a markdown summary (per-bench tables) to this file; "
        "CI points it at $GITHUB_STEP_SUMMARY",
    )
    args = ap.parse_args()

    per_bench = {}
    for entry in [e.strip() for e in args.per_bench.split(",") if e.strip()]:
        bench, _, value = entry.partition("=")
        try:
            per_bench[bench.strip()] = float(value)
        except ValueError:
            print(f"bad --per-bench entry: {entry!r}", file=sys.stderr)
            return 2

    ok = True
    report = []
    md = [f"## Bench regression report (threshold {args.threshold:.2f}x)", ""]
    for name in [b.strip() for b in args.benches.split(",") if b.strip()]:
        fname = f"BENCH_{name}.json"
        base_path = os.path.join(args.baseline_dir, fname)
        cur_path = os.path.join(args.current_dir, fname)
        if not os.path.exists(base_path):
            report.append(f"  NO BASELINE for {name} ({base_path})")
            md.append(f"- :x: no baseline for `{name}`")
            ok = False
            continue
        if not os.path.exists(cur_path):
            report.append(f"  NO CURRENT RESULT for {name} ({cur_path})")
            md.append(f"- :x: no current result for `{name}`")
            ok = False
            continue
        try:
            ok &= compare_bench(
                name,
                load(base_path),
                load(cur_path),
                per_bench.get(name, args.threshold),
                args.min_time,
                report,
                md,
            )
        except (json.JSONDecodeError, OSError) as e:
            report.append(f"  UNREADABLE {name}: {e}")
            md.append(f"- :x: unreadable `{name}`: {e}")
            ok = False

    print("bench_diff report (threshold {:.2f}x):".format(args.threshold))
    for line in report:
        print(line)
    print("RESULT:", "OK" if ok else "REGRESSION")

    md.append(f"**Result: {'OK' if ok else 'REGRESSION'}**")
    md.append("")
    if args.markdown_out:
        with open(args.markdown_out, "a") as f:
            f.write("\n".join(md) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
