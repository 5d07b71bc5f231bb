#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper-suite|serve-mixed|sat-certify \
        [--seed N] [--seconds S] [--trace 0|1]

The build uses dune inside the checkout (with the shared dune cache off,
so nothing is written outside it). The benchmark binary prints every
metric with its unit and sample count, and as its last line the JSON
result. Exit status: 0 correct, 1 some operation failed, 2 no result
(for example when the build fails).
"""

import os
import shutil
import signal
import subprocess
import sys

TARGETS = ["./perfbench/bench.exe", "./bin/qca_serve_cli.exe"]
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
SERVE = os.path.join("_build", "default", "bin", "qca_serve_cli.exe")


def main(argv):
    dune = shutil.which("dune")
    if dune is None:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet"] + TARGETS,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stderr)
        print("run.py: build failed", file=sys.stderr)
        return 2
    # The run keeps to one core, and so does the qca-serve daemon that
    # serve-mixed starts, which inherits the mask: the client, the
    # daemon and the reference kernel then never wait for a wake-up
    # across cores, which on a shared VM took a varying part of a small
    # request's latency.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    child = subprocess.Popen([BENCH, "--serve-exe", SERVE] + argv)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
