"""Reference grid: greedy-sp and opt_eea-eer at k = 8, 16, 24 and 32.

    python3 perfbench/grid.py

Runs one untraced and then one traced round of each pair at u = 0.5 and
horizon 100, with the benchmark's timers and checks, and prints a
Markdown table: the untraced wall time, then the traced time of each
pipeline stage (generation, assignment, demand build, routing, and
run_scenario's own accounting loop).  It takes several minutes.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 11  # the ROADMAP Baseline grid's seed


def main():
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import bench, workloads

    print("| k | pair | run_s | gen | assign | demands | route | account | flows |")
    print("|---|---|---|---|---|---|---|---|---|")
    for k in (8, 16, 24, 32):
        for pair in (("greedy", "sp"), ("opt_eea", "eer")):
            workload = workloads.Workload(f"grid_k{k}", k, (pair,))
            inputs = workloads.prepare(workload, SEED)
            traced, extra = bench.traced_run(inputs, 1e-9, bench_log)
            m = {name: v["value"] for name, v in traced["metrics"].items()}
            route = m["routing.sp_route_s"] + m["routing.eer_s"]
            print(f"| {k} | {'-'.join(pair)} | {extra['untraced_round_s'][0]:.2f} "
                  f"| {m['workload.generate_s']:.3f} | {m['assignment.assign_s']:.2f} "
                  f"| {m['workload.demands_s']:.2f} | {route:.2f} "
                  f"| {m['simengine.self_s']:.2f} | {m['workload.flows']} |", flush=True)


def bench_log(message):
    print(message, file=sys.stderr, flush=True)


if __name__ == "__main__":
    sys.exit(main())
