#!/usr/bin/env python3
"""Compare two benchmark results files.

    python3 perfbench/compare.py BASE.json NEW.json

Each file is one run's record from perfbench/results/. Refuses (exit 2)
when the two were measured on different host facts (core count, the
server's worker-domain count, OCaml version), or are different
workloads, trace modes, sizes or run lengths; otherwise prints every
metric of both with its change relative to BASE.
"""

import json
import sys

HOST_FACTS = ("nproc", "server_domains", "ocaml")


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    a, b = (json.load(open(p)) for p in argv)
    for key in ("workload", "trace", "tiny", "seconds"):
        if a.get(key) != b.get(key):
            sys.stderr.write("refusing: %s differs (%r vs %r)\n" % (key, a.get(key), b.get(key)))
            return 2
    for fact in HOST_FACTS:
        if a["host"].get(fact) != b["host"].get(fact):
            sys.stderr.write("refusing: host fact %s differs (%r vs %r)\n" % (
                fact, a["host"].get(fact), b["host"].get(fact)))
            return 2
    print("%s trace=%d  base %s (seed %d)  new %s (seed %d)" % (
        a["workload"], a["trace"], a["host"]["git_rev"][:12], a["seed"],
        b["host"]["git_rev"][:12], b["seed"]))
    for name, m in a["metrics"].items():
        if name not in b["metrics"]:
            print("  %-34s %14.4f  (missing in new)" % (name, m["value"]))
            continue
        va, vb = m["value"], b["metrics"][name]["value"]
        rel = "%+.1f%%" % (100.0 * (vb - va) / va) if va else "n/a"
        print("  %-34s %14.4f -> %14.4f %-6s %s" % (name, va, vb, m["unit"], rel))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
