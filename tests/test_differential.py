"""The per-slot hot paths against the per-entry loops they replaced.

The demand table, `demands_at` and the array routers must give
bit-identical results to these references: the same demands in the
same order, and the same
routes, loads (in the same key order) and violations from the same
seed.  `run_scenario`, which routes each run of identical slots once,
must give the report and the per-slot plans of a loop that routes every
slot.  The rack partition must give the groups, and build the graph,
of one that gathers each block with `np.ix_`, and the super-VM merge
the groups of nested Python scans.  The per-demand routers, that loop,
that partition and that merge are in `oracles.py`.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dcnsim.assignment as assignment
import dcnsim.routing as routing
from dcnsim.errors import DomainError, SimulationError
from dcnsim.power import PowerParams
from dcnsim.assignment import (
    STRATEGIES,
    SuperVM,
    partition_into_racks,
    shrink_to_super_vms,
    single_vm_units,
)
from dcnsim.graphkit import min_k_cut
from dcnsim.errors import InfeasibleError
from dcnsim.routing import MBPS_PER_GBPS, ROUTERS, ecmp_route, eer, sp_route
from dcnsim.simengine import Scenario, run_scenario
from dcnsim.topology import build_fat_tree
from dcnsim.workload import Job, Transfer, demand_table, demands_at, referential_matrix
from oracles import (
    ecmp_oracle,
    eer_oracle,
    partition_oracle,
    run_each_slot,
    shrink_oracle,
    sp_oracle,
)

HORIZON = 6
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def demands_loop(jobs, assignment, t):
    """The per-entry loop `demands_at` replaced: the summation-order reference."""
    flows = {}
    for job in jobs:
        matrix = job.traffic_at(t)
        if matrix is None:
            continue
        hosts = [assignment[(job.id, m)] for m in range(job.vm_count)]
        for m1, m2 in np.argwhere(matrix > 0):
            src, dst = hosts[m1], hosts[m2]
            if src != dst:
                flows[(src, dst)] = flows.get((src, dst), 0.0) + float(matrix[m1, m2])
    return tuple((s, d, r) for (s, d), r in sorted(flows.items()))


def ecmp_reference(demands, tree, seed):
    """ECMP that builds every candidate path and keeps the drawn one."""
    rng = np.random.default_rng(seed)
    routes, loads = [], {}
    for src, dst, rate in demands:
        paths = tree.candidate_paths(src, dst)
        path = paths[int(rng.integers(len(paths)))]
        routes.append((src, dst, rate, path))
        for sw in path:
            loads[sw] = loads.get(sw, 0.0) + rate / MBPS_PER_GBPS
    return tuple(routes), loads


# Zeros, fractions and rates six orders of magnitude apart, so another
# summation order changes the last bits of a sum.
RATES = st.one_of(
    st.just(0.0),
    st.sampled_from([0.1, 1 / 3, 0.7, 50.0]),
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    st.floats(min_value=1e5, max_value=1e6, allow_nan=False),
)


@st.composite
def transfers(draw, n):
    start = draw(st.integers(0, HORIZON - 1))
    end = draw(st.integers(start, HORIZON - 1))
    matrix = np.array(draw(st.lists(RATES, min_size=n * n, max_size=n * n)))
    matrix = matrix.reshape(n, n)
    np.fill_diagonal(matrix, 0.0)
    return Transfer(start, end, matrix)


@st.composite
def placed_jobs(draw):
    """(jobs, assignment, t) at k = 4, 6 or 8.

    VMs drawn from a small server pool share servers.  The last job is
    active at t with all its VMs on one server.
    """
    tree = build_fat_tree(draw(st.sampled_from([4, 6, 8])))
    pool = draw(st.lists(st.integers(0, tree.num_servers - 1), min_size=1, max_size=6))
    t = draw(st.integers(0, HORIZON - 1))
    jobs, assignment = [], {}
    for job_id in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 5))
        # Several transfers per job overlap where their windows meet.
        trs = draw(st.lists(transfers(n), min_size=1, max_size=3))
        jobs.append(Job(id=job_id, vm_count=n, transfers=trs))
        for m in range(n):
            assignment[(job_id, m)] = draw(st.sampled_from(pool))
    n = draw(st.integers(2, 4))
    matrix = np.full((n, n), 5.0)
    np.fill_diagonal(matrix, 0.0)
    colocated = Job(id=len(jobs), vm_count=n, transfers=(Transfer(t, t, matrix),))
    jobs.append(colocated)
    for m in range(n):
        assignment[(colocated.id, m)] = pool[0]
    return jobs, assignment, t


def _assert_demands(demands, expected):
    """`demands` are the `expected` flows, by dtype and by bytes."""
    src, dst, rate = ([flow[i] for flow in expected] for i in range(3))
    assert (demands.src.dtype, demands.dst.dtype, demands.rate.dtype) == (
        np.int64, np.int64, np.float64)
    assert demands.src.tobytes() == np.array(src, dtype=np.int64).tobytes()
    assert demands.dst.tobytes() == np.array(dst, dtype=np.int64).tobytes()
    assert demands.rate.tobytes() == np.array(rate, dtype=np.float64).tobytes()
    flows = demands.flows
    assert flows == expected
    assert [tuple(map(type, f)) for f in flows] == [(int, int, float)] * len(flows)


@SETTINGS
@given(placed_jobs())
def test_demands_match_the_per_entry_loop(case):
    jobs, assignment, t = case
    _assert_demands(demands_at(jobs, assignment, t), demands_loop(jobs, assignment, t))


@st.composite
def placed_workloads(draw):
    """(jobs, assignment) over HORIZON slots at k = 4, 6 or 8.

    Jobs have zero to three transfers whose windows lean towards slot 0
    and the last slot, so they overlap; matrices hold zeros; VMs take one
    to three slots, and VMs drawn from a small server pool share servers.
    """
    tree = build_fat_tree(draw(st.sampled_from([4, 6, 8])))
    pool = draw(st.lists(st.integers(0, tree.num_servers - 1), min_size=1, max_size=4))
    jobs, assignment = [], {}
    for job_id in range(draw(st.integers(0, 5))):
        n = draw(st.integers(1, 5))
        trs = []
        for _ in range(draw(st.integers(0, 3))):
            start = draw(st.one_of(st.just(0), st.integers(0, HORIZON - 1)))
            end = draw(st.one_of(st.just(HORIZON - 1), st.integers(start, HORIZON - 1)))
            matrix = np.array(draw(st.lists(RATES, min_size=n * n, max_size=n * n)))
            matrix = matrix.reshape(n, n)
            np.fill_diagonal(matrix, 0.0)
            trs.append(Transfer(start, end, matrix))
        jobs.append(Job(id=job_id, vm_count=n, transfers=trs,
                        vm_resource=draw(st.integers(1, 3))))
        for m in range(n):
            assignment[(job_id, m)] = draw(st.sampled_from(pool))
    return jobs, assignment


def _pair_flows(rates, n=2):
    """A job per rate list whose VM pairs all send from server 0 to server 1.

    VMs below n // 2 sit on server 0, the others on server 1; `rates`
    fill the matrix entries from the first half to the second, row-major.
    """
    jobs, assignment = [], {}
    for job_id, job_rates in enumerate(rates):
        matrix = np.zeros((n, n))
        matrix[: n // 2, n // 2 :].flat = job_rates
        jobs.append(Job(id=job_id, vm_count=n,
                        transfers=(Transfer(0, HORIZON - 1, matrix),)))
        for m in range(n):
            assignment[(job_id, m)] = int(m >= n // 2)
    return jobs, assignment


# 1e16 + 1.0 rounds back to 1e16, while 1.0 + 1.0 + 1e16 does not: adding
# in another job order (first case) or in column-major order within a
# job (second case) changes the rate.
@SETTINGS
@given(placed_workloads())
@example(_pair_flows([[1e16], [1.0], [1.0]]))
@example(_pair_flows([[1.0, 1e16, 1.0, 0.0]], n=4))
def test_demand_table_matches_the_per_entry_loop_in_every_slot(case):
    jobs, assignment = case
    table = demand_table(jobs, assignment)
    for t in range(HORIZON):
        _assert_demands(table.at(t), demands_loop(jobs, assignment, t))


@SETTINGS
@given(placed_workloads(), st.data())
def test_demands_at_needs_servers_only_for_active_jobs(case, data):
    jobs, assignment = case
    if not jobs:
        return
    job = data.draw(st.sampled_from(jobs))
    m = data.draw(st.integers(0, job.vm_count - 1))
    del assignment[(job.id, m)]
    for t in range(HORIZON):
        if job.traffic_at(t) is None:
            _assert_demands(demands_at(jobs, assignment, t),
                            demands_loop(jobs, assignment, t))
            continue
        with pytest.raises(DomainError) as raised:
            demands_at(jobs, assignment, t)
        assert str(raised.value) == f"job {job.id} VM {m} has no assigned server"


@st.composite
def flows_of_every_kind(draw):
    """(tree, demands): random demands plus one same-rack, same-pod and cross-pod."""
    tree = build_fat_tree(draw(st.sampled_from([4, 6, 8])))
    last = tree.num_servers - 1
    pairs = draw(st.lists(
        st.tuples(st.integers(0, last), st.integers(0, last)).filter(
            lambda p: p[0] != p[1]),
        max_size=40,
    ))
    pairs += [(0, 1), (0, tree.servers_per_rack), (last, 0)]
    rates = draw(st.lists(RATES.filter(bool), min_size=len(pairs),
                          max_size=len(pairs)))
    return tree, [(s, d, r) for (s, d), r in zip(draw(st.permutations(pairs)), rates)]


@SETTINGS
@given(flows_of_every_kind(), st.integers(0, 2**32 - 1), st.integers(0, 99))
def test_ecmp_matches_the_candidate_path_reference(case, seed, t):
    tree, demands = case
    plan = ecmp_route(demands, tree, seed=[seed, t], params=PowerParams())
    routes, loads = ecmp_reference(demands, tree, [seed, t])
    assert plan.routes == routes
    assert list(plan.loads.items()) == list(loads.items())


@st.composite
def slot_demands(draw):
    """(tree, demands) at k = 4, 6 or 8, in any order, some pairs repeated.

    A slot is all same-rack, has no same-rack demand, or mixes both.
    """
    tree = build_fat_tree(draw(st.sampled_from([4, 6, 8])))
    kind = draw(st.sampled_from(["mixed", "same_rack", "inter_rack"]))
    spr, last = tree.servers_per_rack, tree.num_servers - 1
    pairs = []
    for _ in range(draw(st.integers(0, 30))):
        src = draw(st.integers(0, last))
        rack = src // spr
        if kind == "same_rack" or (kind == "mixed" and draw(st.booleans())):
            dst = draw(st.integers(rack * spr, rack * spr + spr - 1).filter(
                lambda d: d != src))
        else:
            dst = draw(st.integers(0, last).filter(lambda d: d // spr != rack))
        pairs.append((src, dst))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=6))
    rates = draw(st.lists(RATES, min_size=len(pairs), max_size=len(pairs)))
    demands = [(s, d, r) for (s, d), r in zip(pairs, rates)]
    return tree, draw(st.permutations(demands))


def _plan(plan):
    return (plan.timeslot, plan.routes, list(plan.loads.items()), plan.violations)


def _outcome(route):
    """The router's result, or the type and message of the error it raised."""
    try:
        return route()
    except SimulationError as exc:
        return type(exc), str(exc)


@SETTINGS
@given(slot_demands(), st.integers(0, 99))
def test_sp_matches_the_per_demand_oracle(case, t):
    tree, demands = case
    params = PowerParams(capacity=1.0)  # some switches over capacity
    plan = sp_route(demands, tree, params, t)
    assert _plan(plan) == _plan(sp_oracle(demands, tree, params, t))


@SETTINGS
@given(slot_demands(), st.integers(0, 2**32 - 1), st.integers(0, 99))
def test_ecmp_matches_the_per_demand_oracle(case, seed, t):
    tree, demands = case
    params = PowerParams(capacity=1.0)
    plan = ecmp_route(demands, tree, [seed, t], params, t)
    assert _plan(plan) == _plan(ecmp_oracle(demands, tree, [seed, t], params, t))


# Three 600 Gbps flows between three pods: the first estimate jams one
# flow and the extra=1 retry routes it.
COUPLED = (build_fat_tree(8), [(0, 16, 600_000.0), (4, 32, 600_000.0),
                               (20, 36, 600_000.0)])


# Pod 0 needs two aggs.  Routed largest first, the 350 Gbps demand finds
# both its ToRs at 400 Gbps, so its two candidates tie on the ToR peak
# and the first one wins, though the second agg is idle.
TOR_BOUND = (build_fat_tree(8), [(0, 1, 450_000.0), (4, 8, 400_000.0),
                                 (5, 9, 350_000.0), (2, 12, 300_000.0)])


@SETTINGS
@given(slot_demands(), st.sampled_from([1000.0, 2.0, 0.2]), st.integers(0, 99))
@example(COUPLED, 1000.0, 3)
@example(TOR_BOUND, 1000.0, 0)
def test_eer_matches_the_per_demand_oracle(case, capacity, t):
    tree, demands = case
    params = PowerParams(capacity=capacity)

    def array_result():
        active, plan = eer(demands, tree, params, t)
        return active, _plan(plan)

    def oracle_result():
        active, plan = eer_oracle(demands, tree, params, t)
        return active, _plan(plan)

    got, want = _outcome(array_result), _outcome(oracle_result)
    if isinstance(want[0], type):
        assert got == want
    else:
        assert got[1] == want[1]
        assert list(got[0].positions.items()) == list(want[0].positions.items())
        assert (got[0].cores, got[0].cross_pods) == (want[0].cores, want[0].cross_pods)


def test_eer_retry_matches_the_oracle(monkeypatch):
    tree, demands = COUPLED
    params = PowerParams()
    extras, oracle_extras = [], []
    estimate = routing.estimate_active_set
    monkeypatch.setattr(
        routing, "estimate_active_set",
        lambda demands, tree, params, extra=0: (
            extras.append(extra) or estimate(demands, tree, params, extra=extra)),
    )
    active, plan = eer(demands, tree, params, 3)
    want_active, want = eer_oracle(demands, tree, params, 3,
                                   on_estimate=oracle_extras.append)
    assert extras == oracle_extras == [0, 1]
    assert _plan(plan) == _plan(want) and plan.violations == ()
    assert active == want_active


# --- the segment loop ---------------------------------------------------

LOW_STARTUP = PowerParams(sigma=0.01, mu=1.0, capacity=30.0)


def _matrix(n, rate):
    matrix = np.full((n, n), rate)
    np.fill_diagonal(matrix, 0.0)
    return matrix


# Job 0's two transfers overlap on slots 1-2, and its six VMs span two
# racks at k=4; nothing runs in slot 5; job 1's window ends in the last
# slot.
OVERLAPPING = [
    Job(id=0, vm_count=6, transfers=(Transfer(0, 2, _matrix(6, 40.0)),
                                     Transfer(1, 4, _matrix(6, 1 / 3)))),
    Job(id=1, vm_count=3, transfers=(Transfer(6, 7, _matrix(3, 7e5)),)),
]


def _scenario(k, assign_name, route_name, horizon, power=PowerParams(), seed=5):
    return Scenario(k=k, assign_strategy=assign_name, route_strategy=route_name,
                    seed=seed, horizon=horizon, power=power)


@st.composite
def segment_cases(draw):
    """(scenario, jobs): hand-built jobs with several, overlapping windows.

    Windows lean towards slot 0 and the last slot; slots that no window
    covers, and jobs whose VMs share a server, leave idle stretches.
    """
    horizon = draw(st.integers(1, 8))
    jobs = []
    for job_id in range(draw(st.integers(0, 4))):
        n = draw(st.integers(2, 6))
        trs = []
        for _ in range(draw(st.integers(1, 3))):
            start = draw(st.one_of(st.just(0), st.integers(0, horizon - 1)))
            end = draw(st.one_of(st.just(horizon - 1), st.integers(start, horizon - 1)))
            matrix = np.array(draw(st.lists(RATES, min_size=n * n, max_size=n * n)))
            matrix = matrix.reshape(n, n)
            np.fill_diagonal(matrix, 0.0)
            trs.append(Transfer(start, end, matrix))
        jobs.append(Job(id=job_id, vm_count=n, transfers=trs))
    scenario = _scenario(
        draw(st.sampled_from([4, 6, 8])), draw(st.sampled_from(sorted(STRATEGIES))),
        draw(st.sampled_from(sorted(ROUTERS))), horizon,
        draw(st.sampled_from([PowerParams(), LOW_STARTUP])),
        draw(st.integers(0, 2**16)),
    )
    return scenario, jobs


def _slot(plan):
    return (plan.timeslot, plan.rows(), list(plan.loads.items()), plan.violations)


def _runs(scenario, jobs):
    """(outcome, per-slot plans) of run_scenario and of the per-slot loop."""
    results = []
    for run in (run_scenario, run_each_slot):
        plans = []
        outcome = _outcome(lambda: run(
            scenario, jobs, on_plan=lambda plan: plans.append(_slot(plan))
        ).fingerprint())
        results.append((outcome, plans))
    return results


@settings(max_examples=120, deadline=None, derandomize=True)
@given(segment_cases())
@example((_scenario(4, "greedy", "sp", 8), OVERLAPPING))
@example((_scenario(4, "greedy", "ecmp", 8), OVERLAPPING))
@example((_scenario(6, "opt_eea", "eer", 8, LOW_STARTUP), OVERLAPPING))
def test_segment_loop_matches_the_per_slot_loop(case):
    scenario, jobs = case
    (got, got_plans), (want, want_plans) = _runs(scenario, jobs)
    assert got == want
    assert got_plans == want_plans
    if isinstance(want, dict):
        assert [plan[0] for plan in got_plans] == list(range(scenario.horizon))


def test_eer_failure_in_a_later_segment_names_its_slot():
    # Slots 0-2 carry nothing: job 0's VMs share server 0.  From slot 3
    # job 1 sends 600 Mbps each way between servers 1 and 2, in racks 0
    # and 1: each demand fits the 1 Gbps switches, but each of the two
    # ToRs carries both directions.
    quiet = Job(id=0, vm_count=2, transfers=(Transfer(0, 2, _matrix(2, 50.0)),))
    matrix = np.zeros((4, 4))
    matrix[0, 2] = matrix[1, 3] = matrix[2, 0] = matrix[3, 1] = 300.0
    busy = Job(id=1, vm_count=4, transfers=(Transfer(3, 5, matrix),))
    scenario = _scenario(4, "greedy", "eer", 6, PowerParams(capacity=1.0))
    (got, got_plans), (want, want_plans) = _runs(scenario, [quiet, busy])
    assert got == want == (
        InfeasibleError,
        "placement overloads ToR switches [0, 1] at t=3; no routing can relieve them",
    )
    assert got_plans == want_plans and [p[0] for p in got_plans] == [0, 1, 2]


# --- the rack partition ------------------------------------------------------


@st.composite
def rack_partitions(draw):
    """(units, t_ref, k_racks) for one job of 1-20 VMs.

    The units are super-VMs (server capacity 1-4 over a `vm_resource` of
    1-3) or single VMs.  Entries mix zeros, fractions and magnitudes
    six orders apart, so another summation order changes the last bits
    of a weight; some rows are all zero.
    """
    n = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    transfers = []
    for _ in range(draw(st.integers(1, 2))):
        scale = rng.choice([1.0, 1 / 3, 1e3, 1e6], size=(n, n))
        matrix = rng.random((n, n)) * scale
        matrix[rng.random((n, n)) < draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))] = 0.0
        matrix[draw(st.lists(st.integers(0, n - 1), max_size=n))] = 0.0
        np.fill_diagonal(matrix, 0.0)
        transfers.append(Transfer(0, draw(st.integers(0, 2)), matrix))
    job = Job(id=0, vm_count=n, transfers=transfers,
              vm_resource=draw(st.one_of(st.just(1), st.integers(1, 3))))
    if draw(st.booleans()):
        units = shrink_to_super_vms(job, draw(st.one_of(st.just(4), st.integers(1, 4))))
    else:
        units = single_vm_units(job)
    k_racks = draw(st.one_of(st.integers(2, 3), st.integers(1, 12)))
    return units, referential_matrix(job), k_racks


def _row_major_blocks():
    """Three two-VM units whose 2x2 blocks sum to 1.3 row by row, not by column."""
    t_ref = np.zeros((6, 6))
    t_ref[np.ix_([0, 1], [2, 3])] = t_ref[np.ix_([2, 3], [0, 1])] = [[0.1, 0.1],
                                                                      [1.0, 0.1]]
    units = [SuperVM(0, (2 * i, 2 * i + 1), 2) for i in range(3)]
    return units, t_ref, 2


@SETTINGS
@given(rack_partitions())
@example(_row_major_blocks())
def test_partition_matches_the_ix_reference(case):
    units, t_ref, k_racks = case
    want, want_graph = partition_oracle(units, t_ref, k_racks)
    graphs = []

    def recording_cut(graph, k):
        graphs.append(graph)
        return min_k_cut(graph, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assignment, "min_k_cut", recording_cut)
        assert partition_into_racks(units, t_ref, k_racks) == want
    if not 1 < k_racks < len(units):
        assert graphs == []
    else:
        (graph,) = graphs
        assert [list(adj.items()) for adj in graph.adj] == [
            list(adj.items()) for adj in want_graph.adj]


# --- the super-VM merge ------------------------------------------------------


@st.composite
def merge_cases(draw):
    """(job, server capacity) for one job of 1-12 VMs.

    Entries are the integers 0-2, so many pairs tie for the maximum and
    the tie rule decides most merges.
    """
    n = draw(st.integers(1, 12))
    matrix = np.array(
        draw(st.lists(st.integers(0, 2), min_size=n * n, max_size=n * n)),
        dtype=float,
    ).reshape(n, n)
    np.fill_diagonal(matrix, 0.0)
    job = Job(id=0, vm_count=n, transfers=(Transfer(0, 0, matrix),),
              vm_resource=draw(st.integers(1, 3)))
    return job, draw(st.integers(1, 5))


def _column_tie():
    """Entries (0, 2) and (1, 0) tie: row-major order meets (0, 2) first."""
    matrix = np.zeros((3, 3))
    matrix[0, 2] = matrix[1, 0] = 1.0
    return Job(id=0, vm_count=3, transfers=(Transfer(0, 0, matrix),)), 2


@SETTINGS
@given(merge_cases())
@example(_column_tie())
def test_merge_matches_the_nested_scan(case):
    job, capacity = case
    assert shrink_to_super_vms(job, capacity) == shrink_oracle(job, capacity)
