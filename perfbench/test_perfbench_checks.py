"""The benchmark's checkers: hand-computed k = 4 cases and perturbed reports.

Run with:  PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses

import numpy as np
import pytest

from dcnsim import PowerParams, Scenario, generate_workload, run_scenario
from dcnsim.routing import RoutingPlan, sp_route
from dcnsim.topology import build_fat_tree
from dcnsim.workload import Job, Transfer, WorkloadConfig, demands_at
from perfbench import checks

POWER = PowerParams()
RATE = 100.0  # Mbps, one flow from VM 0 to VM 1


def _one_flow(dst_server):
    """k = 4, one job with one flow from server 0 to `dst_server` in slots 1..2."""
    job = Job(id=0, vm_count=2,
              transfers=(Transfer(1, 2, np.array([[0.0, RATE], [0.0, 0.0]])),))
    placement = {(0, 0): 0, (0, 1): dst_server}
    exp = checks.expected_loads("hand", [job], placement, k=4, horizon=4)
    return job, placement, exp


def _f(load):
    return POWER.sigma + POWER.mu * load**POWER.alpha


# k = 4: two servers per rack, four per pod; ToRs 0..7, aggs 8..15, cores 16..19.
@pytest.mark.parametrize("dst, tors, pods, core", [
    (1, {0: 0.1}, {}, 0.0),                     # same rack
    (2, {0: 0.1, 1: 0.1}, {0: 0.1}, 0.0),       # same pod, other rack
    (4, {0: 0.1, 2: 0.1}, {0: 0.1, 1: 0.1}, 0.1),  # other pod
])
def test_hand_computed_loads_and_bound(dst, tors, pods, core):
    _, _, exp = _one_flow(dst)
    want_tors = np.zeros(8)
    want_pods = np.zeros(4)
    for tor, load in tors.items():
        want_tors[tor] = load
    for pod, load in pods.items():
        want_pods[pod] = load
    for t in (1, 2):
        np.testing.assert_allclose(exp.tor_loads[t], want_tors)
        np.testing.assert_allclose(exp.pod_loads[t], want_pods)
        assert exp.core_loads[t] == pytest.approx(core)
        assert exp.demand_mbps[t] == RATE
    for t in (0, 3):
        assert not exp.tor_loads[t].any() and exp.demand_mbps[t] == 0.0
    # Every busy layer group needs one switch at 0.1 Gbps.
    busy = len(tors) + len(pods) + (core > 0)
    bounds = checks.slot_bounds(exp, POWER, [True] * 4)
    assert bounds[1] == pytest.approx(busy * _f(0.1))
    assert bounds[0] == 0.0


@pytest.mark.parametrize("dst", [1, 2, 4])
def test_shortest_path_plan_passes(dst):
    job, placement, exp = _one_flow(dst)
    tree = build_fat_tree(4)
    flows = demands_at([job], placement, 1).flows
    plan = sp_route(flows, tree, params=POWER, timeslot=1)
    checks.check_plan(plan, exp, POWER, "sp")
    # A shortest path sits exactly on the bound when one switch per layer is busy.
    watts = sum(_f(load) for load in plan.loads.values())
    assert watts == pytest.approx(checks.slot_bounds(exp, POWER, [True] * 4)[1])


@pytest.mark.parametrize("path", [
    (0, 9, 2, 10, 2),   # a second agg where the core belongs
    (0, 8, 18, 10, 2),  # core of group 1 under aggs at position 0
    (0, 8, 16, 10),     # stops short of the destination ToR
])
def test_bad_paths_are_rejected(path):
    _, _, exp = _one_flow(4)
    loads = {}
    for sw in path:
        loads[sw] = loads.get(sw, 0.0) + RATE / 1000.0
    plan = RoutingPlan(timeslot=1, routes=((0, 4, RATE, path),), loads=loads)
    with pytest.raises(checks.CheckFailed, match="slot 1"):
        checks.check_plan(plan, exp, POWER, "sp")


def test_lost_demand_is_rejected():
    _, _, exp = _one_flow(4)
    path = (0, 8, 16, 10, 2)
    plan = RoutingPlan(timeslot=1, routes=((0, 4, RATE / 2, path),),
                       loads={sw: RATE / 2000.0 for sw in path})
    with pytest.raises(checks.CheckFailed, match="offered demand"):
        checks.check_plan(plan, exp, POWER, "sp")


@pytest.fixture(scope="module")
def small_run():
    jobs = generate_workload(WorkloadConfig(k=4, target_utilization=0.5, horizon=12), 3)
    scenario = Scenario(k=4, assign_strategy="greedy", route_strategy="sp",
                        seed=3, horizon=12)
    return scenario, checks.expect(scenario, jobs), run_scenario(scenario, jobs=jobs)


def test_real_report_passes(small_run):
    scenario, exp, report = small_run
    assert report.total_energy_wt > 0
    bound = checks.check_report(report, exp, scenario.power)
    assert bound <= report.total_energy_wt * (1 + checks.REL_TOL)


def test_scaled_tor_energy_is_rejected(small_run):
    scenario, exp, report = small_run
    layers = dict(report.layer_breakdown)
    layers["agg"] -= 0.01 * layers["tor"]
    layers["tor"] *= 1.01  # total and layer sum unchanged
    bad = dataclasses.replace(report, layer_breakdown=layers)
    with pytest.raises(checks.CheckFailed, match="ToR-layer energy"):
        checks.check_report(bad, exp, scenario.power)


def test_slot_under_the_bound_is_rejected(small_run):
    scenario, exp, report = small_run
    bounds = checks.slot_bounds(exp, scenario.power, [True] * scenario.horizon)
    t = int(np.argmax(bounds))
    watts = list(report.per_timeslot_watts)
    cut = watts[t] - 0.5 * bounds[t]
    watts[t] -= cut
    layers = dict(report.layer_breakdown)
    layers["agg"] -= cut  # keeps the sums and the ToR layer consistent
    bad = dataclasses.replace(report, per_timeslot_watts=tuple(watts),
                              layer_breakdown=layers,
                              total_energy_wt=report.total_energy_wt - cut)
    with pytest.raises(checks.CheckFailed, match=f"slot {t} .* under the lower bound"):
        checks.check_report(bad, exp, scenario.power)
