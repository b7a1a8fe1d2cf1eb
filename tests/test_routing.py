"""Shortest path, ECMP, active-set estimation and balanced routing."""

import math
import re

import numpy as np
import pytest

from dcnsim.errors import CapacityError, DomainError, InfeasibleError
from dcnsim.power import PowerParams, switch_power
import dcnsim.routing as routing
from dcnsim.routing import (
    ROUTERS,
    ActiveSet,
    balanced_route,
    ecmp_route,
    eer,
    estimate_active_set,
    sp_route,
)
from dcnsim.topology import AGG, TOR, build_fat_tree
from dcnsim.workload import DemandSet, WorkloadConfig, demands_at, generate_workload
from linkcheck import link_loads, loads_from_links
from oracles import ListedActiveSet, candidate_paths, server_id, switch_neighbors, tor_id

PARAMS = PowerParams()  # sigma 200, mu 1e-4, alpha 2, capacity 1000 Gbps


def _plan_energy(plan):
    return sum(switch_power(load, PARAMS) for load in plan.loads.values())


def _full_active_set(tree):
    return ActiveSet(
        widths={p: tree.half for p in range(tree.num_pods)},
        cores_per_group=(tree.half,) * tree.half,
    )


def _workload_demands(k, util, seed, t=0, horizon=20):
    from dcnsim.assignment import assign

    tree = build_fat_tree(k)
    jobs = generate_workload(
        WorkloadConfig(k=k, target_utilization=util, horizon=horizon), seed
    )
    placements = assign("greedy", jobs, tree, horizon=horizon).placements
    return tree, demands_at(jobs, placements, t).flows


# --- shortest path -----------------------------------------------------------


def test_sp_intra_rack_uses_only_the_tor():
    tree = build_fat_tree(4)
    plan = sp_route([(0, 1, 100.0)], tree, params=PARAMS)
    assert plan.routes[0][3] == (tor_id(tree, 0, 0),)
    assert plan.loads == {tor_id(tree, 0, 0): 0.1}


def test_sp_empty_demands():
    tree = build_fat_tree(4)
    plan = sp_route([], tree, params=PARAMS)
    assert plan.routes == () and plan.loads == {}


def test_sp_is_deterministic_and_symmetric_per_pair():
    tree = build_fat_tree(8)
    a, b = 3, 125
    p1 = sp_route([(a, b, 10.0)], tree, params=PARAMS).routes[0][3]
    p2 = sp_route([(a, b, 10.0)], tree, params=PARAMS).routes[0][3]
    back = sp_route([(b, a, 10.0)], tree, params=PARAMS).routes[0][3]
    assert p1 == p2
    assert back == tuple(reversed(p1))


def test_sp_paths_are_valid_shortest_paths():
    tree = build_fat_tree(8)
    rng = np.random.default_rng(2)
    for _ in range(100):
        src, dst = rng.choice(tree.num_servers, size=2, replace=False)
        (route,) = sp_route([(int(src), int(dst), 5.0)], tree, params=PARAMS).routes
        path = route[3]
        candidates = set(candidate_paths(tree, int(src), int(dst)))
        assert path in candidates
        shortest = min(len(p) for p in candidates)
        assert len(path) == shortest


def test_sp_equal_demands_from_one_rack_share_lowest_path():
    # two cross-pod demands from rack (0,0) whose pair keys both select
    # agg position 0 and the first core of group 0
    tree = build_fat_tree(4)
    from dcnsim.routing import _pair_key

    found = []
    for src in tree.rack_servers(0, 0):
        for dst in range(tree.servers_per_pod, tree.num_servers):
            key = _pair_key(src, dst)
            if key % tree.half == 0 and (key >> 8) % tree.half == 0:
                found.append((src, dst, 40.0))
        if len(found) >= 2:
            break
    assert len(found) >= 2
    plan = sp_route(found[:2], tree, params=PARAMS)
    for src, dst, _, path in plan.routes:
        assert path[1] == tree.agg_id(tree.server_pod(src), 0)
        assert path[2] == tree.core_id(0, 0)


def test_sp_reports_capacity_violations():
    tree = build_fat_tree(4)
    over = 1.2e6  # 1200 Gbps on a 1000 Gbps switch
    plan = sp_route([(0, 1, over)], tree, params=PARAMS, timeslot=4)
    assert plan.violations == (tor_id(tree, 0, 0),)
    assert plan.timeslot == 4


# --- ECMP ---------------------------------------------------------------------


def test_ecmp_single_path_demand_ignores_seed():
    tree = build_fat_tree(4)
    for seed in range(5):
        plan = ecmp_route([(0, 1, 10.0)], tree, seed=seed, params=PARAMS)
        assert plan.routes[0][3] == (tor_id(tree, 0, 0),)


def test_ecmp_uniform_over_candidate_paths():
    tree = build_fat_tree(4)
    src, dst = 0, 15
    paths = candidate_paths(tree, src, dst)
    counts = {p: 0 for p in paths}
    trials = 10_000
    for seed in range(trials):
        plan = ecmp_route([(src, dst, 10.0)], tree, seed=seed, params=PARAMS)
        counts[plan.routes[0][3]] += 1
    p = 1 / len(paths)
    sigma = math.sqrt(p * (1 - p) / trials)
    for c in counts.values():
        assert abs(c / trials - p) <= 5 * sigma


def test_ecmp_rarely_beats_sp_on_energy():
    # the random spread lights at least as many switches as the fixed
    # per-pair choice in nearly every draw
    wins = 0
    trials = 40
    for seed in range(trials):
        tree, flows = _workload_demands(4, util=0.6, seed=seed, t=5)
        sp = _plan_energy(sp_route(flows, tree, params=PARAMS))
        ec = _plan_energy(ecmp_route(flows, tree, seed=seed, params=PARAMS))
        if ec >= sp - 1e-9:
            wins += 1
    assert wins >= math.ceil(0.95 * trials)


# --- active set estimation ------------------------------------------------------


def test_estimate_no_inter_rack_traffic_keeps_aggs_asleep():
    tree = build_fat_tree(4)
    active = estimate_active_set([(0, 1, 500.0)], tree, PARAMS)
    assert active.widths == {}
    assert active.cores_per_group == ()


def test_estimate_agg_count_from_ceiling():
    tree = build_fat_tree(8)
    # 1.5 * C of intra-pod traffic in many small flows: ceiling says 2
    flows = []
    rate_each = 1500.0 / 30 * 1000.0  # Mbps, 30 flows totalling 1500 Gbps
    rack0, rack1 = tree.rack_servers(0, 0), tree.rack_servers(0, 1)
    for i in range(30):
        flows.append((rack0[i % 4], rack1[(i + 1) % 4], rate_each))
    active = estimate_active_set(flows, tree, PARAMS)
    assert active.widths[0] == 2
    assert active.cores_per_group == ()


def test_estimate_ffd_confirms_two_for_two_large_flows():
    tree = build_fat_tree(8)
    flows = [
        (server_id(tree, 0, 0, 0), server_id(tree, 0, 1, 0), 600_000.0),
        (server_id(tree, 0, 0, 1), server_id(tree, 0, 2, 0), 600_000.0),
    ]
    active = estimate_active_set(flows, tree, PARAMS)
    assert active.widths[0] == 2


def test_estimate_large_plus_small_fits_one_agg():
    tree = build_fat_tree(8)
    flows = [(server_id(tree, 0, 0, 0), server_id(tree, 0, 1, 0), 600_000.0)]
    small_total = 300_000.0
    for i in range(10):
        flows.append(
            (server_id(tree, 0, 0, 1 + i % 3), server_id(tree, 0, 2, i % 4), small_total / 10)
        )
    active = estimate_active_set(flows, tree, PARAMS)
    assert active.widths[0] == 1


def test_estimate_same_positions_across_cross_pod_pods():
    tree = build_fat_tree(8)
    flows = [
        # pod 0 needs two aggs; pods 1 and 2 are light
        (server_id(tree, 0, 0, 0), server_id(tree, 1, 0, 0), 600_000.0),
        (server_id(tree, 0, 1, 0), server_id(tree, 2, 0, 0), 600_000.0),
    ]
    active = estimate_active_set(flows, tree, PARAMS)
    assert active.widths == {0: 2, 1: 2, 2: 2}
    # every group with an awake core is an awake agg position everywhere
    assert len(active.cores_per_group) <= min(active.widths.values())


def test_estimate_cores_round_robin_across_groups():
    tree = build_fat_tree(8)
    flows = [
        (server_id(tree, 0, 0, 0), server_id(tree, 1, 0, 0), 900_000.0),
        (server_id(tree, 0, 1, 0), server_id(tree, 1, 1, 0), 900_000.0),
    ]
    active = estimate_active_set(flows, tree, PARAMS)
    # 1.8 Tbps cross-pod -> two cores, one per reachable group
    assert active.cores_per_group == (1, 1)


def test_estimate_infeasible_single_demand():
    tree = build_fat_tree(4)
    with pytest.raises(InfeasibleError):
        estimate_active_set([(0, 2, 1.5e6)], tree, PARAMS)


def test_eer_rejects_a_negative_rate():
    tree = build_fat_tree(4)
    with pytest.raises(DomainError, match="negative size"):
        eer([(0, 8, -5.0)], tree, PARAMS)
    with pytest.raises(DomainError, match="negative size"):
        estimate_active_set([(0, 2, 300.0), (1, 3, -5.0)], tree, PARAMS)


# Each router on one hand-built set: a list of (src, dst, rate) tuples.
ALONE = {
    "sp": lambda flows, tree: sp_route(flows, tree, PARAMS),
    "ecmp": lambda flows, tree: ecmp_route(flows, tree, [1, 0], PARAMS),
    "eer": lambda flows, tree: eer(flows, tree, PARAMS),
}


@pytest.mark.parametrize("router", sorted(ROUTERS))
@pytest.mark.parametrize("flow, message", [
    ((0, 16, 5.0), "demand 1 (0->16, 5.0 Mbps): server 16 is not one of the "
                   "tree's 16 servers"),
    ((-1, 3, 5.0), "demand 1 (-1->3, 5.0 Mbps): server -1 is not one"),
    ((3, 3, 5.0), "demand 1 (3->3, 5.0 Mbps) runs from server 3 to itself"),
    ((3, 12, -5.0), "demand 1 (3->12, -5.0 Mbps) has negative size"),
    ((3, 12, math.nan), "demand 1 (3->12, nan Mbps) has a non-finite rate"),
    ((3, 12, math.inf), "demand 1 (3->12, inf Mbps) has a non-finite rate"),
])
def test_routers_name_a_demand_outside_the_tree_or_with_a_bad_rate(
    monkeypatch, router, flow, message
):
    # At k=4 (16 servers), server 16 once rode agg 8 as its ToR.
    tree = build_fat_tree(4)
    monkeypatch.setattr(routing, "_paths", lambda *args: pytest.fail("path built"))
    flows = [(0, 1, 1.0), flow]
    with pytest.raises(DomainError, match=re.escape(message)):
        ALONE[router](flows, tree)
    with pytest.raises(DomainError, match=re.escape(message)):
        ROUTERS[router]([DemandSet.of(flows)], tree, PARAMS, [0], 1)


# --- balanced routing -------------------------------------------------------------


def test_balanced_spreads_equal_demands_over_positions():
    tree = build_fat_tree(4)
    src0 = server_id(tree, 0, 0, 0)
    src1 = server_id(tree, 0, 1, 0)
    dst0 = server_id(tree, 1, 0, 0)
    dst1 = server_id(tree, 1, 1, 0)
    active = ActiveSet(widths={0: 2, 1: 2}, cores_per_group=(1, 1))
    plan = balanced_route(
        [(src0, dst0, 500.0), (src1, dst1, 500.0)], tree, active, params=PARAMS
    )
    aggs_used = {
        sw for _, _, _, path in plan.routes for sw in path if tree.layer(sw) == AGG
    }
    assert len(aggs_used) == 4  # both demands took different positions


def test_balanced_names_a_demand_with_no_active_path():
    # pod 1 keeps no agg awake, so the cross-pod demand has no path
    tree = build_fat_tree(8)
    src, dst = server_id(tree, 0, 0, 0), server_id(tree, 1, 0, 0)
    active = ActiveSet(widths={0: 1}, cores_per_group=(1,))
    with pytest.raises(InfeasibleError) as err:
        balanced_route([(src, dst, 100.0)], tree, active, params=PARAMS)
    message = str(err.value)
    assert "no active path" in message
    assert "from pod 0 to pod 1" in message
    assert f"demand {src}->{dst}" in message


def test_balanced_single_demand_takes_first_candidate():
    tree = build_fat_tree(4)
    active = _full_active_set(tree)
    plan = balanced_route([(0, 15, 100.0)], tree, active, params=PARAMS)
    assert plan.routes[0][3] == candidate_paths(tree, 0, 15)[0]


def test_balanced_beats_ecmp_max_load():
    beaten = 0
    trials = 40
    for seed in range(trials):
        tree, flows = _workload_demands(4, util=0.7, seed=seed, t=3)
        if not flows:
            trials -= 1
            continue
        active = _full_active_set(tree)
        bal = balanced_route(flows, tree, active, params=PARAMS)
        ecm = ecmp_route(flows, tree, seed=seed, params=PARAMS)
        if max(bal.loads.values()) <= max(ecm.loads.values()) + 1e-12:
            beaten += 1
    assert beaten >= math.ceil(0.95 * trials)


def test_balanced_is_unsplittable():
    tree, flows = _workload_demands(4, util=0.5, seed=1, t=2)
    active = _full_active_set(tree)
    plan = balanced_route(flows, tree, active, params=PARAMS)
    assert len(plan.routes) == len(flows)
    routed = sorted((s, d, r) for s, d, r, _ in plan.routes)
    assert routed == sorted(flows)


# --- the composed router -----------------------------------------------------------


def test_eer_empty_demands_sleep_everything():
    tree = build_fat_tree(4)
    active, plan = eer([], tree, PARAMS)
    assert active.widths == {} and active.cores_per_group == ()
    assert plan.loads == {}
    assert _plan_energy(plan) == 0.0


def test_eer_intra_rack_only_needs_tors():
    tree = build_fat_tree(4)
    active, plan = eer([(0, 1, 300.0), (2, 3, 200.0)], tree, PARAMS)
    assert active.widths == {} and active.cores_per_group == ()
    layers = {tree.layer(sw) for sw in plan.loads}
    assert layers == {TOR}


def test_eer_never_uses_more_switches_than_sp():
    for seed in range(8):
        tree, flows = _workload_demands(4, util=0.6, seed=seed, t=4)
        sp = sp_route(flows, tree, params=PARAMS)
        _, plan = eer(flows, tree, PARAMS)
        sp_non_tor = {sw for sw in sp.loads if tree.layer(sw) != TOR}
        eer_non_tor = {sw for sw in plan.loads if tree.layer(sw) != TOR}
        assert len(eer_non_tor) <= len(sp_non_tor)


def test_eer_routes_a_set_that_needs_every_core_its_aggs_reach():
    # At 1 Gbps a switch carries one of these 875 Mbps flows.  One leaves
    # and one enters each pod, so every pod needs both its aggs, and the
    # four cross-pod flows need all 4 cores: exactly the cores that two
    # agg positions reach.  Both counts sit on their bound, not past it.
    tree = build_fat_tree(4)
    flows = [(4 * p, 4 * ((p + 1) % 4) + 2, 875.0) for p in range(4)]
    active, plan = eer(flows, tree, PowerParams(capacity=1.0))
    assert active.cores_per_group == (2, 2) and plan.violations == ()
    assert plan.loads == dict.fromkeys(range(tree.num_switches), 0.875)


def test_eer_escalates_once_when_coupling_bites():
    # three 600 Gbps flows between three pods: per-pod ceilings say two
    # aggs, FFD sizes three cores, but the pairwise coupling still jams
    # one flow; the retry widens the set and the plan comes out clean
    tree = build_fat_tree(8)
    flows = [
        (server_id(tree, 0, 0, 0), server_id(tree, 1, 0, 0), 600_000.0),
        (server_id(tree, 0, 1, 0), server_id(tree, 2, 0, 0), 600_000.0),
        (server_id(tree, 1, 1, 0), server_id(tree, 2, 1, 0), 600_000.0),
    ]
    active, plan = eer(flows, tree, PARAMS)
    assert plan.violations == ()
    assert max(plan.loads.values()) <= PARAMS.capacity
    assert active.widths[0] == 3  # widened by the retry


def test_a_batchs_last_set_reads_at_minus_one_also_after_a_retry():
    # Set 1 needs EER's retry (the flows above); reading it as [-1] gives
    # the retried set and plan, and the arrays hold the retried set too.
    tree = build_fat_tree(8)
    calm = DemandSet.of([(server_id(tree, 0, 0, 0), server_id(tree, 1, 0, 0), 1.0)])
    jam = DemandSet.of([
        (server_id(tree, 0, 0, 0), server_id(tree, 1, 0, 0), 600_000.0),
        (server_id(tree, 0, 1, 0), server_id(tree, 2, 0, 0), 600_000.0),
        (server_id(tree, 1, 1, 0), server_id(tree, 2, 1, 0), 600_000.0),
    ])
    actives, plans = eer([calm, jam], tree, PARAMS, [0, 1])
    alone, plan = eer(jam, tree, PARAMS, 1)
    assert actives[-1] == actives[1] == alone and actives[1].widths[0] == 3
    assert actives.widths[1].tolist() == [alone.widths.get(p, 0) for p in range(tree.num_pods)]
    assert actives.groups[1] == len(alone.cores_per_group)
    assert plans[-1].timeslot == 1 and plans[-1].loads == plans[1].loads == plan.loads
    assert plans[-1].routes == plan.routes and plans[-1].violations == ()
    sp = sp_route([calm, jam], tree, PARAMS, [0, 1])
    assert sp[-1].timeslot == 1 and sp[-1].loads == sp_route(jam, tree, PARAMS).loads
    assert sp[-2].timeslot == 0
    for out_of_range in (2, -3):
        with pytest.raises(IndexError):
            sp[out_of_range]
        with pytest.raises(IndexError):
            actives[out_of_range]


def test_eer_fails_early_on_an_overloaded_tor(monkeypatch):
    # ToR load is fixed by the placement, so EER must not retry wider
    import dcnsim.routing as routing

    calls = []
    estimate = routing.estimate_active_set
    monkeypatch.setattr(
        routing, "estimate_active_set",
        lambda *args, **kw: calls.append(kw) or estimate(*args, **kw),
    )
    tree = build_fat_tree(4)
    flows = [(0, 2, 600_000.0), (1, 3, 600_000.0)]
    with pytest.raises(InfeasibleError) as err:
        eer(flows, tree, PARAMS, timeslot=5)
    assert "ToR switches [0, 1]" in str(err.value)
    assert "t=5" in str(err.value)
    assert len(calls) == 1


def test_eer_names_the_switches_a_failed_retry_leaves_over_capacity(monkeypatch):
    # with a retry that does not widen, the coupling case above stays
    # jammed and the error names the overloaded switches and the slot
    import dcnsim.routing as routing

    estimate = routing.estimate_active_set
    monkeypatch.setattr(
        routing, "estimate_active_set",
        lambda demands, tree, params, extra=0: estimate(demands, tree, params),
    )
    tree = build_fat_tree(8)
    flows = [
        (server_id(tree, 0, 0, 0), server_id(tree, 1, 0, 0), 600_000.0),
        (server_id(tree, 0, 1, 0), server_id(tree, 2, 0, 0), 600_000.0),
        (server_id(tree, 1, 1, 0), server_id(tree, 2, 1, 0), 600_000.0),
    ]
    active = estimate(flows, tree, PARAMS)
    jammed = balanced_route(flows, tree, active, params=PARAMS).violations
    assert jammed and all(tree.layer(sw) != TOR for sw in jammed)
    with pytest.raises(CapacityError) as err:
        eer(flows, tree, PARAMS, timeslot=9)
    assert err.value.switches == jammed
    assert err.value.timeslot == 9


def test_eer_monotone_in_demands():
    rng = np.random.default_rng(3)
    tree = build_fat_tree(4)
    for _ in range(20):
        count = int(rng.integers(1, 12))
        flows = []
        for _ in range(count):
            src, dst = rng.choice(tree.num_servers, size=2, replace=False)
            flows.append((int(src), int(dst), float(rng.uniform(10, 5000))))
        extra_src, extra_dst = rng.choice(tree.num_servers, size=2, replace=False)
        extra = (int(extra_src), int(extra_dst), float(rng.uniform(10, 5000)))
        counts = [
            sum(active.widths.values()) + sum(active.cores_per_group)
            for active in (
                estimate_active_set(flows, tree, PARAMS),
                estimate_active_set(flows + [extra], tree, PARAMS),
            )
        ]
        assert counts[1] >= counts[0]


def test_sleeping_switches_carry_no_load():
    tree, flows = _workload_demands(4, util=0.5, seed=2, t=1)
    active, plan = eer(flows, tree, PARAMS)
    endpoints = {tree.tor_of_server(s) for flow in flows for s in flow[:2]}
    allowed = ListedActiveSet.of(active, tree).switches(tree) | endpoints
    for sw, load in plan.loads.items():
        assert sw in allowed
        assert load > 0


def test_half_sum_link_identity_for_all_routers():
    for seed in range(5):
        tree, flows = _workload_demands(4, util=0.6, seed=seed, t=6)
        plans = [
            sp_route(flows, tree, params=PARAMS),
            ecmp_route(flows, tree, seed=seed, params=PARAMS),
            eer(flows, tree, PARAMS)[1],
        ]
        for plan in plans:
            recomputed = loads_from_links(plan)
            assert set(recomputed) == set(plan.loads)
            for sw, load in plan.loads.items():
                assert math.isclose(recomputed[sw], load, rel_tol=1e-9, abs_tol=1e-12)


def test_flow_conservation_paths_connect_endpoints():
    tree, flows = _workload_demands(4, util=0.5, seed=4, t=2)
    for plan in (
        sp_route(flows, tree, params=PARAMS),
        eer(flows, tree, PARAMS)[1],
    ):
        for src, dst, _, path in plan.routes:
            assert path[0] == tree.tor_of_server(src)
            assert path[-1] == tree.tor_of_server(dst)
            for a, b in zip(path, path[1:]):
                assert b in switch_neighbors(tree, a)


def test_balanced_agg_loads_obey_fewer_is_better():
    # P(n) over each pod's aggregated agg-layer load is non-decreasing in
    # n at and beyond the active count the estimator picked
    tree, flows = _workload_demands(8, util=0.7, seed=5, t=3)
    active, plan = eer(flows, tree, PARAMS)
    for pod, width in active.widths.items():
        load = sum(
            plan.loads.get(tree.agg_id(pod, j), 0.0) for j in range(width)
        )
        if load == 0:
            continue
        n_min = max(1, math.ceil(load / PARAMS.capacity))
        for n in range(n_min, n_min + 6):
            p_n = n * PARAMS.sigma + n * PARAMS.mu * (load / n) ** PARAMS.alpha
            p_n1 = (n + 1) * PARAMS.sigma + (n + 1) * PARAMS.mu * (
                load / (n + 1)
            ) ** PARAMS.alpha
            assert p_n <= p_n1 + 1e-9 * p_n1


def test_route_rows_export():
    tree = build_fat_tree(4)
    plan = sp_route([(0, 2, 25.0)], tree, params=PARAMS, timeslot=7)
    (row,) = plan.rows()
    assert row[0] == 7 and row[1] == 0 and row[2] == 2 and row[3] == 25.0
    assert row[4][0] == tree.tor_of_server(0)


def test_link_loads_include_server_links():
    tree = build_fat_tree(4)
    plan = sp_route([(0, 1, 100.0)], tree, params=PARAMS)
    per_link = link_loads(plan)
    tor = tor_id(tree, 0, 0)
    assert per_link[frozenset((("host", 0), ("switch", tor)))] == 0.1
    assert per_link[frozenset((("switch", tor), ("host", 1)))] == 0.1
