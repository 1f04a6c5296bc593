#!/usr/bin/env python3
"""Choose the pinned tuner values the benchmark runs with.

    python3 perfbench/pin.py

Runs a fresh in-memory strassen::Tuner in RUNS separate processes per ISA
tier this CPU supports, and pins each value (f64/f32 base-case cut-off,
f64/f32 tall-skinny ratio) to its most frequent pick; a tie goes to the
smaller value. Writes perfbench/tuning_cache.txt (the library's cache-file
format) and perfbench/pin_counts.json (every pick's count, per tier).
Run on the benchmark host, with nothing else busy.
"""

import collections
import json
import os
import subprocess
import sys

import run

TIERS = ("avx512", "avx2", "scalar")
KEYS = ("f64", "f32", "f64-ts", "f32-ts")
RUNS = 20  # fresh processes per tier


def main():
    binary = os.path.join(run.build(), "perfbench")
    env = {k: v for k, v in os.environ.items()
           if k not in run.CLEARED_ENV and k != "ATALIB_TUNING_CACHE"}
    counts = {}
    for tier in TIERS:
        picks = collections.defaultdict(collections.Counter)
        seconds = []
        for _ in range(RUNS):
            out = subprocess.run([binary, "--probe-tuner", tier], env=env,
                                 capture_output=True, text=True, timeout=120)
            if out.returncode != 0:
                break  # tier not supported on this CPU
            rec = json.loads(out.stdout.strip().splitlines()[-1])
            seconds.append(rec["seconds"])
            for k in KEYS:
                picks[k][rec[k]] += 1
        if picks:
            counts[tier] = {"runs": RUNS, "tuner_seconds_max": max(seconds),
                            "picks": {k: {str(v): n for v, n in sorted(picks[k].items())}
                                      for k in KEYS}}
            print(f"{tier}: " + ", ".join(f"{k} {dict(picks[k])}" for k in KEYS))

    lines = []
    for tier, rec in counts.items():
        for k in KEYS:
            by_value = rec["picks"][k]
            value = min(by_value, key=lambda v: (-by_value[v], int(v)))
            rec.setdefault("pinned", {})[k] = int(value)
            lines.append(f"{tier} {k} {value}")
    with open(os.path.join(run.HERE, "tuning_cache.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")
    with open(os.path.join(run.HERE, "pin_counts.json"), "w") as f:
        json.dump(counts, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
