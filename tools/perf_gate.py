#!/usr/bin/env python3
"""Paired perf gate (DESIGN.md §10): a change against its parent build.

    python3 tools/perf_gate.py SAMPLES --run PARENT_BUILD CHANGE_BUILD

discards one serve run (the first process after an idle spell runs up to
2x slow), then runs the serving and leaf-kernel benches of both builds
PAIRS times each in ABBA order (pair 0 runs the parent first, pair 1 the
change first, ...), saves each run as SAMPLES/BENCH.SIDE.PAIR.json and
gates them; `perf_gate.py SAMPLES` gates runs saved earlier.

A record is keyed by its identity fields (not its measurements or host
stamp) and measured by its rate ('gflops' if present, else 'req_per_sec').
Each pair gives a key one change/parent ratio. Sorted, the ratios from the
(PAIRS - FAIL_BELOW + 1)-th to the FAIL_BELOW-th span the median's
sign-test interval; with 10 pairs each end errs with probability 56/1024
(5.5%). A key FAILS (nonzero exit) when the interval lies below FLOOR, so
when at least FAIL_BELOW ratios, and the median, do. A key whose interval
holds FLOOR is listed as unresolved. Both sides ran on the same host, so
nothing is normalized. Parent keys the change lacks are listed by name.
Cold and overload phases (one-off plan builds; the admission mix) are not
gated.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

PAIRS = 10       # parent/change run pairs per bench
FAIL_BELOW = 8   # a key fails when this many of its change/parent ratios ...
FLOOR = 0.8      # ... are below this

BENCHES = {"serve": ["serve_throughput", "--threads", "4"], "blas": ["micro_blas"]}
SIDES = ("parent", "change")
# Measurements, and the host stamp (bench/bench_common.hpp), which a parent
# build may predate. Counter-only records carry no rate and are not gated.
NOT_IDENTITY = frozenset({
    "req_per_sec", "mean_ms", "mean_us", "gflops", "seconds", "cache_hits", "cache_misses",
    "cpu_model", "nproc", "isa_f64", "isa_f32", "build_type", "git_sha",
})
SKIP_PHASES = frozenset({"cold", "overload"})


def load_rates(path):
    """{identity key: rate} for every gated record in a bench JSON file."""
    rates = {}
    with open(path) as f:
        for rec in json.load(f):
            metric = "gflops" if "gflops" in rec else "req_per_sec"
            if rec.get("phase") not in SKIP_PHASES and metric in rec:
                key = tuple(sorted((k, v) for k, v in rec.items() if k not in NOT_IDENTITY))
                rates[key] = float(rec[metric])
    return rates


def describe(bench, key):
    return f"[{bench}] " + " ".join(f"{k}={v}" for k, v in key)


def sample_path(samples, bench, side, pair):
    return os.path.join(samples, f"{bench}.{side}.{pair}.json")


def run(samples, builds):
    os.makedirs(samples, exist_ok=True)
    argv = BENCHES["serve"]
    subprocess.run([os.path.join(builds["parent"], argv[0])] + argv[1:], capture_output=True)
    for pair in range(PAIRS):
        for bench, argv in BENCHES.items():
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                out = sample_path(samples, bench, side, pair)
                cmd = [os.path.join(builds[side], argv[0])] + argv[1:] + ["--json", out]
                start = time.monotonic()
                proc = subprocess.run(cmd, capture_output=True, text=True)
                if proc.returncode != 0:
                    print(proc.stdout + proc.stderr, file=sys.stderr)
                    print(f"perf gate: FAIL — {' '.join(cmd)} exited "
                          f"{proc.returncode}", file=sys.stderr)
                    return False
                print(f"perf gate: pair {pair + 1}/{PAIRS} {bench} {side}: "
                      f"{time.monotonic() - start:.1f} s", flush=True)
    return True


def gate(samples):
    ratios = {}  # (bench, key) -> change/parent per pair
    named = []   # (label, bench, key) listed but not gated
    for bench in BENCHES:
        for pair in range(PAIRS):
            paths = [sample_path(samples, bench, side, pair) for side in SIDES]
            if not all(map(os.path.exists, paths)):
                print(f"perf gate: FAIL — {paths} missing; the gate needs "
                      f"{PAIRS} pairs per bench", file=sys.stderr)
                return 1
            parent, change = map(load_rates, paths)
            named += [("unmatched (parent only)", bench, k) for k in parent.keys() - change.keys()]
            for key in parent.keys() & change.keys():
                ratios.setdefault((bench, key), []).append(change[key] / parent[key])
    named += [("unmatched (some pairs)", b, k) for (b, k), rs in ratios.items() if len(rs) < PAIRS]
    rows = []  # (median, sign-test interval low, high, bench, key)
    for (bench, key), rs in ratios.items():
        if len(rs) == PAIRS:
            rs.sort()
            rows.append((statistics.median(rs), rs[PAIRS - FAIL_BELOW], rs[FAIL_BELOW - 1],
                         bench, key))
    rows.sort()
    failures = [r for r in rows if r[2] < FLOOR]
    unresolved = [r for r in rows if r[1] < FLOOR <= r[2]]

    print(f"perf gate: {len(rows)} keys over {PAIRS} pairs; a key fails when "
          f"{FAIL_BELOW} of its change/parent ratios are below {FLOOR:.2f}")
    for label, bench, key in sorted(set(named), key=str):
        print(f"  {label}, not gated: {describe(bench, key)}")
    for row in unresolved:
        print(f"  unresolved: {show(row)}")
    if not rows or failures:
        print(f"perf gate: FAIL — {len(failures)} key(s) regressed more than "
              f"{1 - FLOOR:.0%}{'' if rows else '; no key was gated'}", file=sys.stderr)
        for row in failures:
            print(f"  {show(row)}", file=sys.stderr)
        return 1
    print(f"perf gate: PASS ({len(unresolved)} unresolved)")
    return 0


def show(row):
    median, low, high, bench, key = row
    return f"median {median:6.3f}x, interval {low:6.3f}-{high:6.3f}x  {describe(bench, key)}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("samples", help="directory of BENCH.SIDE.PAIR.json runs")
    ap.add_argument("--run", nargs=2, metavar=("PARENT_BUILD", "CHANGE_BUILD"),
                    help="first run both builds' benches into SAMPLES")
    args = ap.parse_args(argv)
    if args.run and not run(args.samples, dict(zip(SIDES, args.run))):
        return 1
    return gate(args.samples)


if __name__ == "__main__":
    sys.exit(main())
