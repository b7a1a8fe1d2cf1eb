"""Benchmark of the dcnsim pipeline: host time, memory and modelled energy.

    python3 perfbench/run.py --workload eer_k24 --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's scenarios through dcnsim's public
API for about --seconds seconds, in one process with one thread.  It
checks every report against the benchmark's own computations (checks.py)
and prints, as its last line, one JSON object with the keys "correct",
"attempted", "failed" and "metrics".  With --trace 0 the metrics are the
end-to-end ones, measured with no wrapper installed.  With --trace 1 the
run alternates untraced and traced rounds and reports the per-layer
metrics, the tracing overhead and the plan checks.  The end-to-end times
are scaled by the host's speed in the run, measured with host probes (see
HOST_PROBE below).  A check that fails ends the run with exit code 1 and
a message naming the scenario, the slot and the values.  Results and
spans are written to perfbench/out/.
"""

import os
import sys

# One thread: BLAS pools are pinned before numpy loads, here and in the
# set-up probes, which inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
WORKLOAD_NAMES = ("sp_k24", "eer_k24", "sweep_k8", "lowstartup_k16")
# Set-up is timed in fresh processes, so each sample pays the interpreter
# start and the imports; the median of these is setup_s.  PROBES_PER_ROUND
# probes run before each timed round, and more after the last until there
# are at least SETUP_PROBES, so the samples spread over the whole run
# rather than one moment of the host's load.
PROBES_PER_ROUND = 2
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 60
# The speed of a shared host drifts by up to 1.6x over minutes, longer
# than a run, as other tenants load it.  A host probe (hostprobe.py) runs
# after each set-up probe: a fresh interpreter doing fixed start-up work
# of the same kind, with nothing of dcnsim, so no change to dcnsim can
# move it.  run_s and setup_s are the measured medians scaled by
# HOST_REFERENCE_S / (median host probe of the run): the time they would
# take on a host where the probe takes HOST_REFERENCE_S, about its median
# on the 2-vCPU host the bounds were measured on.
HOST_PROBE = os.path.join(ROOT, "perfbench", "hostprobe.py")
HOST_REFERENCE_S = 0.25


def log(message):
    print(message, file=sys.stderr, flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dcnsim", "__init__.py")):
        log(f"perfbench: no dcnsim source under {SRC}")
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import bench, checks, workloads

    inputs = workloads.prepare(workloads.WORKLOADS[args.workload], args.seed)
    if args.probe_setup:
        print("ready", flush=True)
        return 0
    try:
        if args.trace:
            result, extra = bench.traced_run(inputs, args.seconds, log)
        else:
            setup, host = [], []

            def probe():
                setup.append(probe_setup(args))
                host.append(probe_host())

            def probe_round():
                for _ in range(PROBES_PER_ROUND):
                    probe()

            result, extra = bench.end_to_end_run(inputs, args.seconds, log, probe_round)
            while len(setup) < SETUP_PROBES:
                probe()
            scale = HOST_REFERENCE_S / statistics.median(host)
            metrics = result["metrics"]
            extra["run_s_measured"] = metrics["run_s"]["value"]
            metrics["run_s"]["value"] *= scale
            metrics["setup_s"] = {"value": statistics.median(setup) * scale,
                                  "unit": "s"}
            extra.update(setup_probes_s=setup, host_probes_s=host, host_scale=scale)
    except checks.CheckFailed as exc:
        log(f"perfbench: check failed: {exc}")
        return 1
    write_outputs(args, result, extra)
    print(json.dumps(result))
    return 0


def probe_setup(args):
    """Seconds from a fresh process's start to its first timed scenario."""
    return time_to_ready([sys.executable, os.path.abspath(__file__), "--probe-setup",
                          "--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", "0"])


def probe_host():
    """Seconds a fresh interpreter takes to run hostprobe.py."""
    return time_to_ready([sys.executable, HOST_PROBE])


def time_to_ready(command):
    """Seconds from starting `command` until it prints "ready"; waits for its exit."""
    gc.collect()
    began = perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        took = perf_counter() - began
        try:
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"probe {command[1:3]} failed with exit code {proc.returncode}")
    return took


def write_outputs(args, result, extra):
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    spans = extra.pop("spans", None)
    if spans is not None:
        with open(stem + "-spans.json", "w") as fh:
            json.dump(spans, fh)
    with open(stem + ".json", "w") as fh:
        json.dump({"result": result, **extra}, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main())
