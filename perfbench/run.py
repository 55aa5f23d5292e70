#!/usr/bin/env python3
"""Build perfbench from this checkout's source and run one workload.

    python3 perfbench/run.py --workload pcg-7pt --seed 1 --seconds 10 --trace 0

The Go build cache, the binary and the traced run's spans all live under
.bench_build/ at the root of the checkout, so nothing is written outside it.
The last line of standard output is the benchmark's JSON result; the exit
code is the benchmark's. A failed build exits 1 without a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")


def build():
    env = dict(
        os.environ,
        GOCACHE=os.path.join(OUT, "gocache"),
        GOMODCACHE=os.path.join(OUT, "gomodcache"),
        GOPATH=os.path.join(OUT, "gopath"),
        HOME=os.path.join(OUT, "home"),
        XDG_CONFIG_HOME=os.path.join(OUT, "home", ".config"),
        XDG_CACHE_HOME=os.path.join(OUT, "home", ".cache"),
        GOENV="off",
        GOFLAGS="-mod=mod",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    exe = os.path.join(OUT, "perfbench")
    r = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env,
                       stdout=sys.stderr)
    return exe if r.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(add_help=False)
    ap.add_argument("--workload", default="")
    known, _ = ap.parse_known_args()
    os.makedirs(OUT, exist_ok=True)
    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    spans = os.path.join(OUT, "spans-%s.csv" % os.path.basename(known.workload))
    return subprocess.run([exe] + sys.argv[1:] + ["--spans", spans]).returncode


if __name__ == "__main__":
    sys.exit(main())
