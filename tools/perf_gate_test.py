#!/usr/bin/env python3
"""Self-test of tools/perf_gate.py on synthetic paired runs (ctest
perf_gate_test). Pair p scales both sides by HOST[p] and the change side
by JITTER[p]; only the change side carries a host stamp."""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_gate  # noqa: E402

RUNS = {
    "serve": [{"phase": "cold", "clients": 1, "req_per_sec": 600.0},
              {"phase": "warm", "clients": 1, "requests": 32, "req_per_sec": 1000.0},
              {"phase": "scale", "clients": 4, "requests": 128, "req_per_sec": 1500.0},
              {"phase": "overload", "policy": "reject", "completed_per_sec": 2000.0}],
    "blas": [{"bench": "gemm_tn", "dtype": "f64", "n": 256, "gflops": 40.0},
             {"bench": "syrk_ln", "dtype": "f32", "n": 256, "gflops": 100.0}],
}
STAMP = {"cpu_model": "Test CPU", "nproc": 4, "isa_f64": "avx512", "isa_f32": "avx512",
         "build_type": "Release", "git_sha": "0123456789ab"}
HOST = [1.0, 0.8, 1.15, 0.9, 1.05, 0.7, 1.2, 0.95]
JITTER = [1.03, 0.97, 1.0, 1.05, 0.96, 1.02, 0.98, 1.04]


def is_warm(rec):
    return rec.get("phase") == "warm"


def gate(change=lambda rec, pair: 1.0, drop=lambda rec: False):
    """Gate PAIRS synthetic pairs; the change side's rate of `rec` in
    `pair` is scaled by change(rec, pair), and left out where drop(rec)."""
    with tempfile.TemporaryDirectory() as root:
        for bench, records in RUNS.items():
            for pair in range(perf_gate.PAIRS):
                host = HOST[pair % len(HOST)]
                for side in perf_gate.SIDES:
                    out = []
                    for rec in records:
                        rec, factor = dict(rec), host
                        if side == "change":
                            if drop(rec):
                                continue
                            factor *= JITTER[pair % len(JITTER)] * change(rec, pair)
                            rec.update(STAMP)
                        metric = next(k for k in rec if k.endswith(("per_sec", "gflops")))
                        rec[metric] *= factor
                        out.append(rec)
                    with open(perf_gate.sample_path(root, bench, side, pair), "w") as f:
                        json.dump(out, f)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = perf_gate.main([root])
        return code, out.getvalue()


class PairedGate(unittest.TestCase):
    def test_unchanged_run_passes(self):
        code, out = gate()
        self.assertEqual(code, 0, out)
        self.assertIn("4 keys", out)  # cold and overload are not gated
        self.assertNotIn("not gated", out)
        self.assertIn("PASS (0 unresolved)", out)

    def test_key_25_percent_slower_in_every_pair_fails_by_name(self):
        code, out = gate(change=lambda rec, pair: 0.75 if is_warm(rec) else 1.0)
        self.assertEqual(code, 1, out)
        self.assertRegex(out, r"1 key\(s\) regressed[^\n]*\n +median +0\.\d+x.*phase=warm")

    def test_single_outlier_pair_passes(self):
        code, out = gate(change=lambda rec, pair: 0.4 if is_warm(rec) and pair == 3 else 1.0)
        self.assertEqual(code, 0, out)

    def test_high_jitter_key_passes_as_unresolved_by_name(self):
        swing = [1.3, 0.6, 1.1, 0.62, 1.2, 0.65, 1.0, 0.9, 0.64, 1.05]
        code, out = gate(change=lambda rec, pair: swing[pair] if is_warm(rec) else 1.0)
        self.assertEqual(code, 0, out)
        self.assertRegex(out, r"unresolved: median .*interval +0\.6\d+- *1\.\d+x .*phase=warm")
        self.assertIn("PASS (1 unresolved)", out)

    def test_key_missing_on_change_side_is_named(self):
        code, out = gate(drop=is_warm)
        self.assertEqual(code, 0, out)
        self.assertRegex(out, r"unmatched .*\[serve\] clients=1 phase=warm")

    def test_uniform_slowdown_of_every_key_fails(self):
        code, out = gate(change=lambda rec, pair: 0.7)
        self.assertEqual(code, 1, out)
        self.assertIn("4 key(s) regressed", out)


if __name__ == "__main__":
    unittest.main()
