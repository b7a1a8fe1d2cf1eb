"""Reports pinned bit for bit.

One sha256 over the JSON of every report's fingerprint (and of a small
sweep's rows and summary), in a fixed order.  A refactor that keeps the
simulator's behaviour keeps this digest; a change that moves any energy
total, path choice or random draw changes it and must say so.  A third
sha256 pins the placements of the traffic-aware assignments, whose rack
cuts (`graphkit.min_k_cut`) the report digests reach only through energy.
"""

import hashlib
import json
import os

import numpy as np

from dcnsim.assignment import assign
from dcnsim.power import PowerParams
from dcnsim.simengine import STRATEGY_GRID, Scenario, run_scenario, sweep
from dcnsim.topology import build_fat_tree
from dcnsim.workload import WorkloadConfig, generate_workload

DIGEST = "aed2880a5269fa083d4d2e0f17cc14c16d255d93a026be95cf138bde727fdc5d"
# At k=8 every agg group has few cores and EER rarely ties between paths;
# these larger trees exercise ties, cross-pod spread and many more demands.
LARGE_DIGEST = "bb15c76f2f9970cd29eb1e3681224d55dabdb1f40c9300f3be6f79dd358fb659"
LARGE_CASES = (
    (16, 11, (("opt_eea", "eer"), ("greedy", "sp"), ("greedy", "ecmp"))),
    (24, 1, (("greedy", "sp"), ("opt_eea", "eer"))),
)

# eea and opt_eea at u=0.5 over two seeds at k = 4, 8 and 16, then opt_eea
# at k=24: 151 rack cuts of up to 22 units, about 0.5 s.
PLACEMENT_DIGEST = "b29593a5c343f1e37b8ab941781939fd2e6f44b1d00a941db94bc37f254c1ab2"
PLACEMENT_CASES = (
    *((k, seed, name) for k in (4, 8, 16) for seed in (1, 2) for name in ("eea", "opt_eea")),
    (24, 1, "opt_eea"),
)

LOW_STARTUP = PowerParams(sigma=0.01, mu=1.0, capacity=30.0)
PAIRS = STRATEGY_GRID + (("greedy", "ecmp"),)


def _payloads():
    for power in (PowerParams(), LOW_STARTUP):
        for assign_name, route_name in PAIRS:
            scenario = Scenario(
                k=8, assign_strategy=assign_name, route_strategy=route_name,
                seed=11, utilization=0.5, horizon=30, power=power,
            )
            yield run_scenario(scenario).fingerprint()
    reports, tables = sweep(4, [0.2, 0.5], 2, base_seed=3, horizon=20)
    for report in reports:
        yield report.fingerprint()
    for row in tables["rows"]:
        yield {key: value for key, value in row.items() if key != "runtime_ms"}
    yield tables["summary"]


def _large_payloads():
    for k, seed, pairs in LARGE_CASES:
        for assign_name, route_name in pairs:
            scenario = Scenario(
                k=k, assign_strategy=assign_name, route_strategy=route_name,
                seed=seed, utilization=0.5,
            )
            yield run_scenario(scenario).fingerprint()


def _placement_payloads():
    for k, seed, name in PLACEMENT_CASES:
        jobs = generate_workload(WorkloadConfig(k=k, target_utilization=0.5), seed)
        placement = assign(name, jobs, build_fat_tree(k), seed=seed, horizon=100)
        yield sorted(placement.placements.items())


def _digest(payloads):
    digest = hashlib.sha256()
    for payload in payloads:
        digest.update(json.dumps(payload, sort_keys=True).encode())
    return digest.hexdigest()


def _platform():
    """numpy's version and BLAS, which a digest failure names: every digest
    was recorded on numpy 2.4.6 with OpenBLAS's SkylakeX kernel."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints it; a build may name no BLAS
        blas = "not reported"
    else:
        blas = ", ".join(f"{key}: {blas.get(key)}" for key in (
            "name", "version", "openblas configuration"))
    return (f"numpy {np.__version__}; BLAS {blas}; "
            f"OPENBLAS_CORETYPE={os.environ.get('OPENBLAS_CORETYPE')}")


def test_reports_match_the_pinned_digest():
    assert _digest(_payloads()) == DIGEST, _platform()


def test_larger_trees_match_the_pinned_digest():
    assert _digest(_large_payloads()) == LARGE_DIGEST, _platform()


def test_placements_match_the_pinned_digest():
    assert _digest(_placement_payloads()) == PLACEMENT_DIGEST, _platform()
