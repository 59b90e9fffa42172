#!/usr/bin/env python3
"""Build grappolo's repository benchmark from source and run it.

    python3 perfbench/run.py --workload batch-file --seed 1 --seconds 26 --trace 0

Run from the repository root. The Go build cache, the binary and every file
the benchmark generates stay under the build directory ($CARGO_TARGET_DIR
if set, else .bench_build), so nothing is written outside the checkout. The
build needs no network: the benchmark module depends only on the parent
grappolo module, through a directory replace. A failed build exits 1
without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOPATH": "gopath",
        "GOTMPDIR": "tmp",
        "TMPDIR": "tmp",
        "HOME": "home",
        "XDG_CONFIG_HOME": "home/config",
        "XDG_CACHE_HOME": "home/cache",
    }
    for var, sub in dirs.items():
        env[var] = os.path.join(build, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOSUMDB="off", GOWORK="off",
               GOFLAGS="-mod=readonly", CGO_ENABLED="0")
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [exe] + sys.argv[1:] + ["--workdir", os.path.join(build, "perfbench-work")]
    sys.stdout.flush()
    os.chdir(ROOT)
    # Replace this process, so a signal sent to the benchmark reaches it.
    os.execve(exe, args, env)
    return 1


if __name__ == "__main__":
    sys.exit(main())
