#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a source tree. Builds dpserved and the load
generator (perfbench/perfbench.exe) with dune inside the tree, then runs
the generator, which spawns dpserved, drives workload W and prints one
JSON result as its last line. Stores, logs and results stay under
perfbench/_work and perfbench/results.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def src_digest():
    """MD5 over the program's sources (lib/ and bin/), path-sorted."""
    h = hashlib.md5()
    for top in ("lib", "bin"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(hashlib.md5(f.read()).digest())
    return h.hexdigest()


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main(argv):
    for needed in ("dune-project", "lib", os.path.join("bin", "dpserved.ml")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.stderr.write(
                "perfbench: %s not found; run from the root of a full source tree\n" % needed)
            return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet",
         "./perfbench/perfbench.exe", "./bin/dpserved.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
    server = os.path.join(ROOT, "_build", "default", "bin", "dpserved.exe")
    cmd = [exe] + argv + [
        "--server", server,
        "--work", os.path.join(HERE, "_work"),
        "--results", os.path.join(HERE, "results"),
        "--rev", git_rev(),
        "--src-digest", src_digest(),
    ]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
