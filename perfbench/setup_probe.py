"""Time one cold set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <size>

Prints the seconds spent on imports, mask and plan building, and input
generation for the first ``workloads.PRELOAD_OPS`` ops.  ``run.py``
starts this several times and reports the median as ``setup_s``.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import bootstrap  # noqa: E402

bootstrap.prepare()

import workloads  # noqa: E402


def main() -> None:
    name, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    wl = workloads.WORKLOADS[name](seed, size)
    wl.setup()
    for i in range(workloads.PRELOAD_OPS):
        wl.inputs(i)
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main()
