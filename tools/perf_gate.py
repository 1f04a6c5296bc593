#!/usr/bin/env python3
"""Enforced warm-path perf gate (DESIGN.md §10).

Compares freshly measured bench JSON against the committed baselines
(BENCH_serve.json, BENCH_blas.json) and FAILS — nonzero exit — when any
warm-path record regressed by more than --max-regress after machine-speed
normalization. Run the bench with the SAME flags the committed baseline
was generated with, so record keys intersect:

    ./build/serve_throughput --threads 8 --json /tmp/serve.json
    ./build/micro_blas --json /tmp/blas.json
    python3 tools/perf_gate.py BENCH_serve.json:/tmp/serve.json \
                               BENCH_blas.json:/tmp/blas.json

Noise. Small-request serving rates (f64 batched updates especially)
swing 30-40% run to run, so a single sample on either side of the
comparison would flake a 20% gate. Two defenses:

  * A pair may list several CURRENT files (BASELINE:CUR1:CUR2:...);
    the gate takes the BEST rate per key across them. Run the bench
    twice in CI — a path is only flagged when it can't hit the
    baseline in any attempt.
  * Baselines should be the per-key MEDIAN of several runs, not one
    lucky sample. `--merge-median OUT RUN1.json RUN2.json ...`
    regenerates a baseline that way (identity fields must match
    across runs; every numeric metric field is medianed). The merge
    also stamps each record with its observed replication noise,
    noise_floor = min(rate)/median(rate) across the baseline runs.
  * A key whose own baseline replication varies more than the gate
    threshold cannot be gated at that threshold: when noise_floor <
    --noise-cutoff (default 0.9) the key is EXCLUDED and reported as
    skipped — never silently. Stable keys keep the strict floor.

Method. Every record is keyed by its identity fields (phase, dtype, shape,
batch, clients, ...) and measured by its rate metric ('gflops' when
present, else 'req_per_sec' — higher is better). For each key present in
both baseline and current, the gate computes ratio = current / baseline.
The MEDIAN ratio over all keys is taken as the machine-speed factor (CI
runners are not the machine the baseline was recorded on), and each key's
normalized ratio = ratio / median is compared against 1 - max_regress.

This catches the regression class a code change causes: one path (a
kernel, the batched stream, the serving warm loop) getting slower
RELATIVE to the rest of the suite. A perfectly uniform slowdown of every
record is indistinguishable from a slower machine and is absorbed by the
normalization — that is the price of running on heterogeneous CI
hardware, and it is why the baselines are regenerated (and eyeballed)
whenever a PR intentionally shifts the perf envelope.

Baseline keys with no match in any current file (a renamed or dropped
bench row, or an ISA tier this runner lacks, e.g. the avx512 rows of
BENCH_blas.json) are not gated but listed by name, so a rename cannot
quietly take a row out of the gate.

Cold and overload phases are excluded: cold pays one-off plan builds, and
the overload phase's completed/sec depends on the admission mix, not on
warm-path speed. Records without a rate metric (counter records) are
skipped.
"""

import argparse
import json
import statistics
import sys

# Fields that carry measurements or run-dependent counters; everything
# else identifies the record.
METRIC_FIELDS = frozenset({
    "req_per_sec", "mean_ms", "mean_us", "gflops", "seconds",
    "cache_hits", "cache_misses", "schedule_builds", "workspace_grows",
    "thread_pack_allocs", "plan_misses",
    "offered", "completed", "rejected", "shed", "deadline_expired",
    "completed_per_sec", "admission_wait_p99_us", "queue_wait_p99_us",
    "compute_p99_us", "speedup", "noise_floor",
})

# Phases whose rates are not warm-path statements (see module docstring).
SKIP_PHASES = frozenset({"cold", "overload", "batched_warm_counters"})


def rate_metric(rec):
    if "gflops" in rec:
        return "gflops"
    if "req_per_sec" in rec:
        return "req_per_sec"
    return None


def load_rates(path):
    """{identity key: (rate, noise_floor)} for every gated record in a
    bench JSON file. noise_floor is 1.0 unless the file is a merged
    baseline that recorded one."""
    with open(path) as f:
        records = json.load(f)
    rates = {}
    for rec in records:
        if rec.get("phase") in SKIP_PHASES:
            continue
        metric = rate_metric(rec)
        if metric is None:
            continue
        key = tuple(sorted((k, v) for k, v in rec.items()
                           if k not in METRIC_FIELDS))
        rates[key] = (float(rec[metric]), float(rec.get("noise_floor", 1.0)))
    return rates


def describe(key):
    return " ".join(f"{k}={v}" for k, v in key)


def merge_median(out_path, run_paths):
    """Write per-key medians of every metric field across bench runs.

    Record order and identity fields come from the first run; a key
    missing from any later run is a hard error (the runs were not
    generated with the same flags).
    """
    runs = []
    for path in run_paths:
        with open(path) as f:
            records = json.load(f)
        by_key = {}
        for rec in records:
            key = tuple(sorted((k, v) for k, v in rec.items()
                               if k not in METRIC_FIELDS))
            by_key[key] = rec
        runs.append((path, records, by_key))

    first_path, first_records, _ = runs[0]
    merged = []
    for rec in first_records:
        key = tuple(sorted((k, v) for k, v in rec.items()
                           if k not in METRIC_FIELDS))
        samples = []
        for path, _, by_key in runs:
            if key not in by_key:
                print(f"perf gate: FAIL — record {describe(key)} from "
                      f"{first_path} missing in {path}; rerun with "
                      f"matching flags", file=sys.stderr)
                return 1
            samples.append(by_key[key])
        out = dict(rec)
        for field in rec:
            if field in METRIC_FIELDS:
                out[field] = statistics.median(float(s[field])
                                               for s in samples)
        metric = rate_metric(rec)
        if metric is not None and len(samples) > 1:
            vals = [float(s[metric]) for s in samples]
            med = statistics.median(vals)
            out["noise_floor"] = round(min(vals) / med, 4) if med > 0 else 1.0
        merged.append(out)
    with open(out_path, "w") as f:
        json.dump(merged, f, indent=1)
        f.write("\n")
    print(f"perf gate: wrote {len(merged)} median-of-{len(runs)} records "
          f"to {out_path}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("pairs", nargs="+", metavar="BASELINE:CURRENT[:CURRENT...]",
                    help="committed baseline JSON and one or more freshly "
                         "measured JSON files (best rate per key is gated)")
    ap.add_argument("--merge-median", metavar="OUT",
                    help="instead of gating, merge the positional args "
                         "(plain JSON paths, no colons) into OUT taking the "
                         "per-key median of every metric field")
    ap.add_argument("--max-regress", type=float, default=0.20,
                    help="fail when a normalized rate drops more than this "
                         "fraction below baseline (default 0.20)")
    ap.add_argument("--min-keys", type=int, default=3,
                    help="fail unless at least this many record keys "
                         "intersect across all pairs (default 3)")
    ap.add_argument("--noise-cutoff", type=float, default=0.9,
                    help="exclude keys whose baseline noise_floor is below "
                         "this — their own replication noise exceeds the "
                         "gate threshold (default 0.9)")
    args = ap.parse_args()

    if args.merge_median:
        return merge_median(args.merge_median, args.pairs)

    ratios = {}  # identity key (with file tag) -> current/baseline
    skipped_noisy = []
    unmatched = []  # baseline keys (with file tag) absent from every current file
    for pair in args.pairs:
        parts = pair.split(":")
        if len(parts) < 2:
            ap.error(f"expected BASELINE:CURRENT[:CURRENT...], got '{pair}'")
        base_path, cur_paths = parts[0], parts[1:]
        base = load_rates(base_path)
        cur = {}  # best (highest) observed rate per key across current runs
        for cur_path in cur_paths:
            for key, (rate, _) in load_rates(cur_path).items():
                cur[key] = max(rate, cur.get(key, 0.0))
        shared = base.keys() & cur.keys()
        unmatched.extend((base_path,) + key for key in base.keys() - cur.keys())
        if not shared:
            print(f"perf gate: FAIL — no intersecting records between "
                  f"{base_path} and {':'.join(cur_paths)}; run the bench "
                  f"with the baseline's flags", file=sys.stderr)
            return 1
        for key in shared:
            rate, noise = base[key]
            if rate <= 0:
                continue
            if noise < args.noise_cutoff:
                skipped_noisy.append(((base_path,) + key, noise))
                continue
            ratios[(base_path,) + key] = cur[key] / rate

    if len(ratios) < args.min_keys:
        print(f"perf gate: FAIL — only {len(ratios)} intersecting records "
              f"(need {args.min_keys}); baselines are stale", file=sys.stderr)
        return 1

    machine = statistics.median(ratios.values())
    floor = 1.0 - args.max_regress
    failures = []
    for key, ratio in sorted(ratios.items(), key=lambda kv: kv[1]):
        normalized = ratio / machine
        if normalized < floor:
            failures.append((key, ratio, normalized))

    print(f"perf gate: {len(ratios)} records compared, machine-speed "
          f"factor {machine:.3f}, floor {floor:.2f} (normalized)")
    if skipped_noisy:
        print(f"perf gate: {len(skipped_noisy)} key(s) excluded — baseline "
              f"replication noise below cutoff {args.noise_cutoff:.2f}:")
        for key, noise in sorted(skipped_noisy, key=lambda kv: kv[1]):
            print(f"  skipped (noise_floor {noise:.3f}): "
                  f"{describe(key[1:])} [{key[0]}]")
    if unmatched:
        print(f"perf gate: {len(unmatched)} baseline key(s) matched no current "
              f"record and are not gated:")
        for key in sorted(unmatched, key=str):
            print(f"  unmatched: {describe(key[1:])} [{key[0]}]")
    worst = sorted(ratios.items(), key=lambda kv: kv[1])[:5]
    for key, ratio in worst:
        print(f"  slowest: {ratio / machine:6.3f}x normalized "
              f"({ratio:6.3f}x raw)  {describe(key[1:])} [{key[0]}]")

    if failures:
        print(f"perf gate: FAIL — {len(failures)} warm-path record(s) "
              f"regressed more than {args.max_regress:.0%}:", file=sys.stderr)
        for key, ratio, normalized in failures:
            print(f"  {normalized:6.3f}x normalized ({ratio:6.3f}x raw)  "
                  f"{describe(key[1:])} [{key[0]}]", file=sys.stderr)
        return 1
    print("perf gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
