#!/usr/bin/env python3
"""Build and run the goldfish repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: unlearn-mlp, unlearn-conv, fl-stream, shard-delete, or all.
The benchmark (the library from src/ plus the program in this directory) is
configured and built with CMake in $CARGO_TARGET_DIR (default .bench_build)
on every call; an up-to-date build costs well under a second. Build output
goes to stderr. The program's report goes to stdout and its last line is the
JSON result; trace spans and fingerprinted results land in .bench_out/.
Exits non-zero, printing no result, when the build or the run fails.
"""
import os
import subprocess
import sys
from pathlib import Path

# Each workload must finish within 180 s; `all` runs four of them.
RUN_TIMEOUT_S = 175


def main():
    here = Path(__file__).resolve().parent
    root = here.parent
    build = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build.is_absolute():
        build = root / build
    build = build / "perfbench"
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))

    steps = []
    if not any((build / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(here), "-B", str(build),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    binary = build / "goldfish_perfbench"
    cmd = [str(binary), *sys.argv[1:], "--out", str(root / ".bench_out")]
    timeout = RUN_TIMEOUT_S * (4 if "all" in sys.argv[1:] else 1)
    try:
        done = subprocess.run(cmd, cwd=root, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout} s", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
