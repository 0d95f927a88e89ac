#!/usr/bin/env python3
"""Benchmark self-test: every workload, tiny sizes, end to end.

    python3 perfbench/selftest.py

Runs each workload of BENCHMARK.json through perfbench/run.py with
--tiny, untraced and traced, and asserts that the run exits 0, that the
correctness gate passes, that at least one operation was attempted, and
that every metric BENCHMARK.json names appears with its declared unit
(end-to-end metrics untraced, per-layer metrics traced), and no other.
Exits 1 if any check fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "2", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise AssertionError("%s trace=%d exited %d\n%s%s" % (
            workload, trace, out.returncode, out.stdout[-2000:], out.stderr[-2000:]))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for w in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            name = "%s trace=%d" % (w, trace)
            try:
                res = run(w, trace)
                assert set(res) == {"correct", "attempted", "failed", "metrics"}, "result keys"
                assert res["correct"] is True, "correctness gate failed"
                assert res["attempted"] >= 1, "nothing attempted"
                for m in spec[key]:
                    got = res["metrics"].get(m["name"])
                    assert got is not None, "metric %s missing" % m["name"]
                    assert got["unit"] == m["unit"], "metric %s unit %s, want %s" % (
                        m["name"], got["unit"], m["unit"])
                    assert isinstance(got["value"], (int, float)), "metric %s not a number" % m["name"]
                extra = set(res["metrics"]) - {m["name"] for m in spec[key]}
                assert not extra, "metrics not in BENCHMARK.json: %s" % sorted(extra)
                print("PASS %s (%d attempted)" % (name, res["attempted"]))
            except (AssertionError, ValueError, subprocess.TimeoutExpired) as e:
                failures += 1
                print("FAIL %s: %s" % (name, e))
    print("selftest: %s" % ("pass" if failures == 0 else "%d failure(s)" % failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
