#!/usr/bin/env python3
"""Builds and runs the Shelley-MP repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (the shipped libraries from src/ plus the
shelley_perfbench program) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then runs it.  Build output goes to stderr; the
last stdout line is the program's JSON result.  Exits non-zero, without a
result, when the sources are missing or the build or the run fails.  See
perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "shelley_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "shelley_perfbench")


def main():
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        print("perfbench: no Shelley-MP sources beside perfbench/; run it "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(os.path.join(target, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2
    command = [binary, *sys.argv[1:],
               "--config", os.path.join(HERE, "config.json")]
    # The program's own tracing, metrics and logging stay off: the traced
    # run times layers from outside.
    env = {k: v for k, v in os.environ.items()
           if k not in ("SHELLEY_TRACE", "SHELLEY_LOG")}
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
