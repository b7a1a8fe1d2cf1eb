"""Host probe: fixed start-up work that shares nothing with dcnsim.

    python3 perfbench/hostprobe.py

Starts like the benchmark's set-up probe (interpreter, numpy, the standard
modules the benchmark loads) and then builds a fixed synthetic job set the
way a workload generator would: small random traffic matrices, a dict of
server-pair flows and a sort.  It prints "ready" when done.  run.py times
it next to each set-up probe to measure the host's speed in the run; its
work never changes with dcnsim, so a change to dcnsim cannot move it.
"""

import argparse  # noqa: F401  (loaded, as the benchmark loads it)
import dataclasses
import json  # noqa: F401
import statistics  # noqa: F401
import subprocess  # noqa: F401

import numpy as np

JOBS = 150
SERVERS = 3456
SLOTS = 2


@dataclasses.dataclass(frozen=True)
class Job:
    id: int
    vms: int
    matrix: np.ndarray


def main():
    rng = np.random.default_rng(0)
    jobs = []
    for job_id in range(JOBS):
        vms = int(rng.integers(2, 24))
        matrix = rng.random((vms, vms)) * (rng.random((vms, vms)) < 0.3)
        jobs.append(Job(job_id, vms, matrix))
    hosts = {(job.id, m): int(rng.integers(0, SERVERS))
             for job in jobs for m in range(job.vms)}
    for _ in range(SLOTS):
        flows = {}
        for job in jobs:
            for m1, m2 in np.argwhere(job.matrix > 0):
                src, dst = hosts[(job.id, m1)], hosts[(job.id, m2)]
                if src != dst:
                    flows[(src, dst)] = flows.get((src, dst), 0.0) + float(job.matrix[m1, m2])
        sorted(flows.items())
    print("ready", flush=True)


if __name__ == "__main__":
    main()
