"""Reports pinned bit for bit.

One sha256 over the JSON of every report's fingerprint (and of a small
sweep's rows and summary), in a fixed order.  A refactor that keeps the
simulator's behaviour keeps this digest; a change that moves any energy
total, path choice or random draw changes it and must say so.
"""

import hashlib
import json

from dcnsim.power import PowerParams
from dcnsim.simengine import STRATEGY_GRID, Scenario, run_scenario, sweep

DIGEST = "aed2880a5269fa083d4d2e0f17cc14c16d255d93a026be95cf138bde727fdc5d"
# At k=8 every agg group has few cores and EER rarely ties between paths;
# these larger trees exercise ties, cross-pod spread and many more demands.
LARGE_DIGEST = "bb15c76f2f9970cd29eb1e3681224d55dabdb1f40c9300f3be6f79dd358fb659"
LARGE_CASES = (
    (16, 11, (("opt_eea", "eer"), ("greedy", "sp"), ("greedy", "ecmp"))),
    (24, 1, (("greedy", "sp"), ("opt_eea", "eer"))),
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


def _digest(payloads):
    digest = hashlib.sha256()
    for payload in payloads:
        digest.update(json.dumps(payload, sort_keys=True).encode())
    return digest.hexdigest()


def test_reports_match_the_pinned_digest():
    assert _digest(_payloads()) == DIGEST


def test_larger_trees_match_the_pinned_digest():
    assert _digest(_large_payloads()) == LARGE_DIGEST
