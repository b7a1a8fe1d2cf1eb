"""The per-slot hot paths against the per-entry loops they replaced.

The demand table, `demands_at` and the array routers must give
bit-identical results to these references: the same demands in the
same order, and the same
routes, loads (in the same key order) and violations from the same
seed.  `run_scenario`, which routes each run of identical slots once,
must give the report and the per-slot plans of a loop that routes every
slot, and the same ones under any batch budget (`BATCH_ROWS`).  The
rack partition must give the groups, and build the graph, of one that
gathers each block with `np.ix_`, and the super-VM merge
the groups of nested Python scans.  Max-flow must give the flow bits
and source side of plain Edmonds-Karp, k-means++ seeding the picks of
per-pair `norm_distance` distances, and pod clustering the clusters,
overflow and distance bits of centers taken by `np.mean` of a list.
The per-demand routers, that loop, that partition, that merge and
those kernels are in `oracles.py`.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dcnsim.assignment as assignment
import dcnsim.graphkit as graphkit
import dcnsim.routing as routing
import dcnsim.simengine as simengine
from dcnsim.errors import DomainError, SimulationError
from dcnsim.power import PowerParams, switch_powers
from dcnsim.assignment import (
    STRATEGIES,
    assign,
    SuperVM,
    cluster_jobs,
    partition_into_racks,
    shrink_to_super_vms,
    single_vm_units,
)
from dcnsim.graphkit import WeightedGraph, kmeans_pp_seed, max_flow_min_cut, min_k_cut
from dcnsim.errors import InfeasibleError
from dcnsim.routing import (
    MBPS_PER_GBPS,
    ROUTERS,
    ecmp_route,
    eer,
    estimate_active_set,
    sp_route,
)
from dcnsim.simengine import Scenario, run_scenario
from dcnsim.topology import build_fat_tree
from dcnsim.workload import (
    DemandSet,
    Job,
    Transfer,
    demand_table,
    demands_at,
    gap_distance,
    referential_matrix,
)
from oracles import (
    ListedActiveSet,
    by_size_oracle,
    candidate_paths,
    cluster_oracle,
    demand_table_oracle,
    ecmp_oracle,
    edmonds_karp,
    eer_oracle,
    estimate_oracle,
    kmeans_pp_oracle,
    norm_distance,
    partition_oracle,
    run_each_slot,
    shrink_oracle,
    sp_oracle,
    sp_segment_oracle,
    switch_power_each,
    table_at_oracle,
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
        paths = candidate_paths(tree, src, dst)
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
def tree_workloads(draw, transfers=(0, 3)):
    """(tree, jobs, assignment) over HORIZON slots at k = 4, 6 or 8.

    Jobs have zero to three transfers (or as many as `transfers` bounds)
    whose windows lean towards slot 0 and the last slot, so they overlap;
    matrices hold zeros; VMs take one to three slots, and VMs drawn from
    a small server pool share servers.
    """
    tree = build_fat_tree(draw(st.sampled_from([4, 6, 8])))
    pool = draw(st.lists(st.integers(0, tree.num_servers - 1), min_size=1, max_size=4))
    jobs, assignment = [], {}
    for job_id in range(draw(st.integers(0, 5))):
        n = draw(st.integers(1, 5))
        trs = []
        for _ in range(draw(st.integers(*transfers))):
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
    return tree, jobs, assignment


def placed_workloads():
    """(jobs, assignment) of `tree_workloads`."""
    return tree_workloads().map(lambda case: case[1:])


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
def slot_demands(draw, tree=None):
    """(tree, demands) at k = 4, 6 or 8, in any order, some pairs repeated.

    A slot is all same-rack, has no same-rack demand, or mixes both.
    """
    tree = tree or build_fat_tree(draw(st.sampled_from([4, 6, 8])))
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


# Pod 0's own traffic needs two aggs, so its same-pod 500 Gbps demand
# chooses between them.  The 600 Gbps cross-pod demand before it has one
# path (one core), which loads agg(0, 0), so the choice falls on agg(0, 1).
MIXED = (build_fat_tree(8), [(4, 8, 500_000.0), (0, 16, 600_000.0)])


# A same-rack demand loads ToR 0 to 600 Gbps first.  The 350 Gbps demand
# then lifts ToR 0 to 950 Gbps, which ties both its candidates (agg 32
# already carries 600 Gbps), so it takes agg 32.  A loop that left the
# same-rack load out of ToR 0 would send it to the idle agg 33.
SAME_RACK_FLOOR = (build_fat_tree(8), [(0, 1, 600_000.0), (4, 8, 600_000.0),
                                       (2, 12, 350_000.0), (6, 10, 100_000.0)])


@SETTINGS
@given(slot_demands(), st.sampled_from([1000.0, 2.0, 0.2]), st.integers(0, 99))
@example(COUPLED, 1000.0, 3)
@example(TOR_BOUND, 1000.0, 0)
@example(MIXED, 1000.0, 0)
@example(SAME_RACK_FLOOR, 1000.0, 0)
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
        assert ListedActiveSet.of(got[0], tree) == want[0]  # positions as dicts


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
    assert ListedActiveSet.of(active, tree) == want_active


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


# Job 0 sends 5e-324 Mbps per VM pair, which rounds to 0.0 Gbps: its
# switches carry load 0.0 in slots 0-1; from slot 2 job 1's traffic
# shares ToR 1 with it.
UNDERFLOW = [
    Job(id=0, vm_count=6, transfers=(Transfer(0, 3, _matrix(6, 5e-324)),)),
    Job(id=1, vm_count=3, transfers=(Transfer(2, 5, _matrix(3, 40.0)),)),
]


def _scenario(k, assign_name, route_name, horizon, power=PowerParams(), seed=5,
              server_capacity=2):
    return Scenario(k=k, assign_strategy=assign_name, route_strategy=route_name,
                    seed=seed, horizon=horizon, power=power,
                    server_capacity=server_capacity)


# Switches of 0.3 and 1 Gbps, VM-pair rates of a few hundredths to a
# fifth of that, and VMs that may each take a server of their own: a pod
# or the core often needs more than one switch while every ToR fits, so
# EER's greedy loop, `ffd_pack` and the retry run, and some segments
# fail, inside the batches that `run_scenario` routes.
TIGHT = (PowerParams(capacity=0.3), PowerParams(capacity=1.0))
TIGHT_SHARES = (0.0, 0.04, 0.08, 0.15, 0.22)


@st.composite
def segment_cases(draw):
    """(scenario, jobs): hand-built jobs with several, overlapping windows.

    Windows lean towards slot 0 and the last slot; slots that no window
    covers, and jobs whose VMs share a server, leave idle stretches.
    """
    horizon = draw(st.integers(1, 8))
    power = draw(st.sampled_from([PowerParams(), LOW_STARTUP, *TIGHT]))
    rates = RATES
    if power in TIGHT:
        rates = st.sampled_from([share * power.capacity * MBPS_PER_GBPS
                                 for share in TIGHT_SHARES])
    jobs = []
    for job_id in range(draw(st.integers(0, 4))):
        n = draw(st.integers(2, 6))
        trs = []
        for _ in range(draw(st.integers(1, 3))):
            start = draw(st.one_of(st.just(0), st.integers(0, horizon - 1)))
            end = draw(st.one_of(st.just(horizon - 1), st.integers(start, horizon - 1)))
            matrix = np.array(draw(st.lists(rates, min_size=n * n, max_size=n * n)))
            matrix = matrix.reshape(n, n)
            np.fill_diagonal(matrix, 0.0)
            trs.append(Transfer(start, end, matrix))
        jobs.append(Job(id=job_id, vm_count=n, transfers=trs))
    scenario = _scenario(
        draw(st.sampled_from([4, 6, 8])), draw(st.sampled_from(sorted(STRATEGIES))),
        draw(st.sampled_from(sorted(ROUTERS))), horizon, power,
        draw(st.integers(0, 2**16)), draw(st.sampled_from([2, 1])),
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


# Three segments routed in one batch at C = 1 Gbps: slot 0 routes; in
# slot 1 job 1's flows overload ToR 1; in slot 2 job 2 sends 1.5 Gbps
# between pods, more than a switch carries, which the batch's active set
# estimate meets before slot 1's plans.  The run must fail on slot 1.
MIDDLE_FAILS = [
    Job(id=0, vm_count=3, transfers=(Transfer(0, 2, _matrix(3, 5.0)),)),
    Job(id=1, vm_count=4, transfers=(Transfer(1, 1, np.array(
        [[0, 0, 300.0, 0], [0, 0, 0, 300.0], [300.0, 0, 0, 0], [0, 300.0, 0, 0]])),)),
    Job(id=2, vm_count=3, transfers=(Transfer(2, 2, np.array(
        [[0, 0, 1500.0], [0, 0, 0], [0, 0, 0]])),)),
]


def _coupled_in_a_batch():
    """COUPLED's three flows in slot 2 of four, between quieter slots.

    One 37-VM job, one VM per server, so greedy puts VM i on server i:
    the segment of slot 2 retries with a wider active set inside the
    batch of the run's three segments.
    """
    coupled, quiet = np.zeros((37, 37)), np.zeros((37, 37))
    coupled[0, 16] = coupled[4, 32] = coupled[20, 36] = 600_000.0
    quiet[1, 2] = quiet[5, 9] = 40.0
    job = Job(id=0, vm_count=37, transfers=(Transfer(0, 3, quiet), Transfer(2, 2, coupled)))
    return _scenario(8, "greedy", "eer", 4, server_capacity=1), [job]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(segment_cases())
@example((_scenario(4, "greedy", "sp", 8), OVERLAPPING))
@example((_scenario(4, "greedy", "ecmp", 8), OVERLAPPING))
@example((_scenario(6, "opt_eea", "eer", 8, LOW_STARTUP), OVERLAPPING))
@example((_scenario(4, "greedy", "sp", 6), UNDERFLOW))
@example((_scenario(4, "greedy", "eer", 3, TIGHT[1]), MIDDLE_FAILS))
@example(_coupled_in_a_batch())
def test_segment_loop_matches_the_per_slot_loop(case):
    scenario, jobs = case
    (got, got_plans), (want, want_plans) = _runs(scenario, jobs)
    assert got == want
    assert got_plans == want_plans
    # Without on_plan a failed batch is replayed the same way.
    assert _outcome(lambda: run_scenario(scenario, jobs).fingerprint()) == want
    if isinstance(want, dict):
        assert [plan[0] for plan in got_plans] == list(range(scenario.horizon))


# Every item a batch alone, a budget that splits a k=4 or k=8 run into
# batches of several segments, the default, and the whole run as one batch.
BUDGETS = (1, 200, simengine.BATCH_ROWS, 10**9)


def _under_budgets(monkeypatch, run):
    """`run()` once under each of BUDGETS."""
    results = []
    for rows in BUDGETS:
        monkeypatch.setattr(simengine, "BATCH_ROWS", rows)
        results.append(run())
    return results


@pytest.mark.parametrize("k", [4, 8])
@pytest.mark.parametrize("route", ["sp", "ecmp", "eer"])
@pytest.mark.parametrize("power", [PowerParams(), LOW_STARTUP], ids=["default", "low"])
def test_the_batch_budget_never_changes_a_report(monkeypatch, k, route, power):
    scenario = Scenario(k=k, assign_strategy="greedy", route_strategy=route, seed=11,
                        utilization=0.5, horizon=100, power=power)
    first, *rest = _under_budgets(monkeypatch,
                                  lambda: run_scenario(scenario).fingerprint())
    assert rest == [first] * len(rest)


def _later_tor_overload():
    """Slots 0-2 carry nothing: job 0's VMs share server 0.  From slot 3
    job 1 sends 600 Mbps each way between servers 1 and 2, in racks 0
    and 1: each demand fits the 1 Gbps switches, but each of the two
    ToRs carries both directions."""
    quiet = Job(id=0, vm_count=2, transfers=(Transfer(0, 2, _matrix(2, 50.0)),))
    matrix = np.zeros((4, 4))
    matrix[0, 2] = matrix[1, 3] = matrix[2, 0] = matrix[3, 1] = 300.0
    busy = Job(id=1, vm_count=4, transfers=(Transfer(3, 5, matrix),))
    return _scenario(4, "greedy", "eer", 6, PowerParams(capacity=1.0)), [quiet, busy]


@pytest.mark.parametrize("case", [
    (_scenario(4, "greedy", "eer", 3, TIGHT[1]), MIDDLE_FAILS),
    _later_tor_overload(),
], ids=["middle_fails", "later_tor_overload"])
def test_the_batch_budget_never_changes_a_failing_run(monkeypatch, case):
    scenario, jobs = case

    def run():
        plans = []
        outcome = _outcome(lambda: run_scenario(
            scenario, jobs, on_plan=lambda plan: plans.append(_slot(plan))).fingerprint())
        return outcome, plans

    (outcome, plans), *rest = _under_budgets(monkeypatch, run)
    assert isinstance(outcome, tuple) and issubclass(outcome[0], SimulationError)
    assert plans
    assert rest == [(outcome, plans)] * len(rest)


@SETTINGS
@given(
    st.lists(st.one_of(st.just(0.0), st.just(5e-324), st.floats(0.0, 3000.0)),
             max_size=30),
    st.sampled_from([PowerParams(), LOW_STARTUP, PowerParams(alpha=2.5),
                     PowerParams(sigma=0.0, mu=0.3, alpha=1.7)]),
)
# numpy's power gives 2846.831024813296**2 one bit off Python's.
@example([2846.831024813296, 0.0, 5e-324], PowerParams())
def test_switch_powers_match_the_python_float_curve(loads, params):
    watts = switch_powers(np.array(loads, dtype=float), params)
    assert watts.dtype == np.float64
    assert [w.hex() for w in watts.tolist()] == [
        switch_power_each(load, params).hex() for load in loads
    ]


def test_a_run_fails_on_the_first_failing_segment_of_a_batch():
    with pytest.raises(InfeasibleError, match=r"ToR switches \[1\] at t=1;"):
        run_scenario(_scenario(4, "greedy", "eer", 3, TIGHT[1]), MIDDLE_FAILS)


def test_a_switch_at_zero_load_costs_nothing_and_is_not_active():
    """UNDERFLOW really lists switches at load 0.0, so its pinned example
    above compares the zero-load rule with `run_each_slot`."""
    plans = []
    report = run_scenario(_scenario(4, "greedy", "sp", 6), UNDERFLOW,
                          on_plan=plans.append)
    # Servers 0-2 (racks 0 and 1) host job 0, servers 3-4 (racks 1 and 2) job 1.
    idle = plans[0].loads
    assert set(idle.values()) == {0.0} and {0, 1} < set(idle)
    assert report.per_timeslot_watts[:2] == (0.0, 0.0)
    assert report.active_switches[:2] == (0, 0)
    loaded = plans[2].loads
    assert loaded[0] == 0.0 and loaded[1] > 0.0
    assert report.active_switches[2] == sum(load > 0 for load in loaded.values())


def test_eer_failure_in_a_later_segment_names_its_slot():
    (got, got_plans), (want, want_plans) = _runs(*_later_tor_overload())
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

    Entries are either the integers 0-2, so many pairs tie for the
    maximum and the tie rule decides most merges, or `RATES`, so a
    merged row summed in another order changes its last bits.
    """
    n = draw(st.integers(1, 12))
    entries = draw(st.sampled_from([st.integers(0, 2), RATES]))
    matrix = np.array(
        draw(st.lists(entries, min_size=n * n, max_size=n * n)), dtype=float
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


def _absorb_order():
    """VMs 0 and 1 merge, then absorb VM 3, VM 2, and VM 4 or VM 5.

    Added in the order the members joined, VM 5's merged entry is
    ((2**-53 + 0) + 2**-53) + 1 = 1 + 2**-52 and beats VM 4's 1.  Added
    in index order it would be ((2**-53 + 0) + 1) + 2**-53 = 1, a tie
    that goes to VM 4.
    """
    tiny = 2.0**-53
    matrix = np.zeros((6, 6))
    matrix[0, 1], matrix[0, 3], matrix[0, 2] = 10.0, 5.0, 4.0
    matrix[0, 4], matrix[0, 5], matrix[3, 5], matrix[2, 5] = 1.0, tiny, tiny, 1.0
    return Job(id=0, vm_count=6, transfers=(Transfer(0, 0, matrix),)), 5


@SETTINGS
@given(merge_cases())
@example(_column_tie())
@example(_absorb_order())
def test_merge_matches_the_nested_scan(case):
    job, capacity = case
    assert shrink_to_super_vms(job, capacity) == shrink_oracle(job, capacity)


# --- max-flow, k-means++ seeding and pod clustering --------------------------

# Equal weights, sums that land a hair off each other (0.1 + 0.2), and
# residues just below, at and above the 1e-12 saturation tolerance.
CAPACITIES = st.one_of(
    st.sampled_from([1.0, 1.0, 0.1, 0.2, 0.3, 1 / 3, 1e-12, 5e-13, 2e-12, 1e6]),
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
)


@st.composite
def flow_graphs(draw):
    """(graph, s, t) on 2-9 vertices, some edges added twice."""
    n = draw(st.integers(2, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    density = draw(st.sampled_from([0.2, 0.5, 1.0]))
    graph = WeightedGraph(n)
    for u, v in draw(st.permutations(pairs)):
        for _ in range(draw(st.sampled_from([0, 1, 2]) if density < 1 else st.just(1))):
            if draw(st.floats(0, 1)) <= density:
                graph.add_edge(u, v, draw(CAPACITIES))
    s, t = draw(st.permutations(range(n)))[:2]
    return graph, s, t


def _ladder():
    """A 0-1-2-3 path beside a 0-4-3 path and a direct edge.  After the
    direct and the two-hop path, 0->4 keeps a residue of 9.9998e-13, just
    under the tolerance, and the three-hop path leaves 5.6e-17 on the
    1->2 edge, whose weight was added as 0.1 + 0.2."""
    graph = WeightedGraph(5)
    for u, v, w in ((0, 1, 0.3), (1, 2, 0.1), (1, 2, 0.2), (2, 3, 0.3),
                    (0, 4, 1.0), (4, 3, 1.0 - 1e-12), (0, 3, 0.5)):
        graph.add_edge(u, v, w)
    return graph, 0, 3


@SETTINGS
@given(flow_graphs())
@example(_ladder())
def test_max_flow_matches_edmonds_karp(case):
    graph, s, t = case
    flow, side = max_flow_min_cut(graph, s, t)
    want_flow, want_side = edmonds_karp(graph, s, t)
    assert flow.hex() == want_flow.hex()
    assert side == want_side


# Patterns from a small pool, so vectors coincide and some draws leave
# only centers' twins (the uniform fallback), and from magnitudes far
# apart, so a norm summed in another order changes its last bits.
PATTERN_VALUES = st.one_of(st.sampled_from([0.0, 1.0, 0.1]), RATES)


@st.composite
def pattern_sets(draw):
    """(vectors, k, seed): 1-12 vectors of one length 1-7."""
    length = draw(st.integers(1, 7))
    pool = draw(st.lists(
        st.lists(PATTERN_VALUES, min_size=length, max_size=length),
        min_size=1, max_size=4,
    ))
    rows = draw(st.lists(
        st.one_of(st.sampled_from(pool),
                  st.lists(PATTERN_VALUES, min_size=length, max_size=length)),
        min_size=1, max_size=12,
    ))
    vectors = [np.array(r, dtype=float) for r in rows]
    return vectors, draw(st.integers(1, len(vectors))), draw(st.integers(0, 2**32 - 1))


@SETTINGS
@given(pattern_sets())
@example(([np.ones(3)] * 5, 4, 7))
def test_kmeans_seeding_matches_per_pair_norms(case):
    vectors, k, seed = case
    assert kmeans_pp_seed(vectors, k, seed=seed) == kmeans_pp_oracle(vectors, k, seed=seed)


@SETTINGS
@given(pattern_sets(), st.data())
def test_kmeans_distances_are_the_norm_bits(case, data):
    vectors, _, _ = case
    center = data.draw(st.integers(0, len(vectors) - 1))
    got = graphkit._distances(graphkit._stacked(vectors), center)
    assert [d.hex() for d in got] == [
        norm_distance(v, vectors[center]).hex() for v in vectors]


@st.composite
def clustered_jobs(draw):
    """(jobs, n_pods, pod capacity, horizon): 2-40 jobs on 1-3 pods.

    Horizon 1 often, where a pattern is a single rate and numpy sums a
    center's column pairwise once a cluster holds more than 8 members;
    a tight pod capacity sends some jobs to the overflow group.
    """
    horizon = draw(st.sampled_from([1, 1, 2, 5]))
    jobs = []
    for job_id in range(draw(st.integers(2, 40))):
        n = draw(st.integers(2, 4))
        rate = draw(PATTERN_VALUES)
        start = draw(st.integers(0, horizon - 1))
        end = draw(st.integers(start, horizon - 1))
        jobs.append(Job(id=job_id, vm_count=n,
                        transfers=(Transfer(start, end, _matrix(n, rate)),)))
    n_pods = draw(st.integers(1, min(3, len(jobs))))
    capacity = draw(st.sampled_from([4, 20, 200]))
    return jobs, n_pods, capacity, horizon


@SETTINGS
@given(clustered_jobs(), st.integers(0, 2**32 - 1))
def test_clusters_match_the_list_mean_oracle(case, seed):
    jobs, n_pods, capacity, horizon = case
    measured = []

    def recording(gaps):  # one call per job, one row per feasible center
        distances = gap_distance(gaps)
        measured.extend(distances.tolist())
        return distances

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assignment, "gap_distance", recording)
        got = cluster_jobs(jobs, n_pods, capacity, horizon, seed=seed)
    want, distances = cluster_oracle(jobs, n_pods, capacity, horizon, seed=seed)
    assert (got.clusters, got.overflow) == (want.clusters, want.overflow)
    assert [d.hex() for d in measured] == [d.hex() for d in distances]


# --- per-run pair rows, EER's demand order and the table read ---------------


def _plan_bits(plan):
    """A plan's slot, switches, Gbps bits, violations and routes."""
    return (plan.timeslot, plan.switches.tolist(),
            [gbps.hex() for gbps in plan.gbps.tolist()], plan.violations, plan.routes)


@SETTINGS
@given(tree_workloads(), st.sampled_from([1000.0, 1.0]))
def test_sp_pair_rows_match_the_segment_oracle(case, capacity):
    tree, jobs, assignment = case
    params = PowerParams(capacity=capacity)
    table = demand_table(jobs, assignment)
    for first, _ in table.segments(HORIZON):
        demands = table.at(first)
        assert _plan_bits(sp_route(demands, tree, params, first)) == _plan_bits(
            sp_segment_oracle(demands, tree, params, first))


@SETTINGS
@given(slot_demands(), st.integers(0, 99))
def test_sp_on_a_hand_built_set_matches_the_segment_oracle(case, t):
    tree, demands = case
    params = PowerParams(capacity=1.0)
    assert _plan_bits(sp_route(demands, tree, params, t)) == _plan_bits(
        sp_segment_oracle(demands, tree, params, t))


def test_sp_rows_are_kept_per_tree():
    # Servers 0-15 exist at k=4 and k=6, on different racks and pods.
    job = Job(id=0, vm_count=4, transfers=(Transfer(0, 1, _matrix(4, 50.0)),))
    table = demand_table([job], {(0, m): 5 * m for m in range(4)})
    params = PowerParams()
    for k in (4, 6, 4):
        tree, demands = build_fat_tree(k), table.at(0)
        assert _plan_bits(sp_route(demands, tree, params)) == _plan_bits(
            sp_segment_oracle(demands, tree, params))


TIED_RATES = (0.5, 50.0, 300.0)


@st.composite
def tied_demands(draw):
    """(tree, demands) whose rates take three values, so most of them tie.

    The set is hand-built in any order with repeated pairs, or strictly
    ordered by (src, dst), the order `DemandTable.at` gives.
    """
    tree = build_fat_tree(draw(st.sampled_from([4, 6, 8])))
    last = tree.num_servers - 1
    pairs = draw(st.lists(
        st.tuples(st.integers(0, last), st.integers(0, last)).filter(
            lambda p: p[0] != p[1]),
        max_size=60,
    ))
    if draw(st.booleans()):
        pairs = sorted(set(pairs))
    rates = draw(st.lists(st.sampled_from(TIED_RATES), min_size=len(pairs),
                          max_size=len(pairs)))
    return tree, DemandSet.of([(s, d, r) for (s, d), r in zip(pairs, rates)])


def _tied_by_hand():
    """40 unordered demands at k=8, some pairs repeated, three rates."""
    rng = np.random.default_rng(7)
    pairs = [tuple(rng.choice(128, size=2, replace=False).tolist()) for _ in range(36)]
    pairs += pairs[:4]
    rates = rng.choice(TIED_RATES, size=len(pairs)).tolist()
    return build_fat_tree(8), DemandSet.of(
        [(s, d, r) for (s, d), r in zip(pairs, rates)])


def _tied_from_table():
    """A slot read from a demand table: 56 pairs, every rate 50 Mbps."""
    job = Job(id=0, vm_count=8, transfers=(Transfer(0, 0, _matrix(8, 50.0)),))
    table = demand_table([job], {(0, m): 9 * m for m in range(8)})
    return build_fat_tree(8), table.at(0)


@SETTINGS
@given(tied_demands())
@example(_tied_by_hand())
@example(_tied_from_table())
def test_eer_orders_tied_demands_by_pair_order_and_a_stable_sort(case):
    tree, demands = case
    want = by_size_oracle(demands.src, demands.dst, demands.rate)
    assert routing._by_size(routing._Batch(demands, tree)).tolist() == want.tolist()
    params = PowerParams()
    assert _outcome(lambda: _plan(eer(demands, tree, params, 0)[1])) == _outcome(
        lambda: _plan(eer_oracle(demands.flows, tree, params, 0)[1]))


# --- batches ------------------------------------------------------------------


@st.composite
def batches(draw):
    """(tree, sets): a placed workload's segments, read from its demand
    table, or one to four hand-built sets of one tree."""
    if draw(st.booleans()):
        tree, jobs, assignment = draw(tree_workloads())
        table = demand_table(jobs, assignment)
        return tree, [table.at(first) for first, _ in table.segments(HORIZON)]
    tree = build_fat_tree(draw(st.sampled_from([4, 6, 8])))
    return tree, [DemandSet.of(draw(slot_demands(tree))[1])
                  for _ in range(draw(st.integers(1, 4)))]


def _active_bits(active):
    return list(active.widths.items()), active.cores_per_group


# Each router's call, on one set or on a batch, and its results as a list
# of comparable bits per set.
BATCH_CALLS = {
    "sp": (lambda d, tree, params, t, seed: sp_route(d, tree, params, t),
           lambda plans: [_plan_bits(plan) for plan in plans]),
    "ecmp": (lambda d, tree, params, t, seed: ecmp_route(d, tree, seed, params, t),
             lambda plans: [_plan_bits(plan) for plan in plans]),
    "estimate": (lambda d, tree, params, t, seed: estimate_active_set(d, tree, params),
                 lambda actives: [_active_bits(active) for active in actives]),
    "eer": (lambda d, tree, params, t, seed: eer(d, tree, params, t),
            lambda results: [(_active_bits(active), _plan_bits(plan))
                             for active, plan in results]),
}


@SETTINGS
@given(batches(), st.sampled_from(sorted(BATCH_CALLS)),
       st.sampled_from([1000.0, 2.0, 0.2, None]), st.integers(0, 2**32 - 1))
@example((COUPLED[0], [DemandSet.of(flows) for _, flows in (MIXED, COUPLED, TOR_BOUND)]),
         "eer", 1000.0, 0)
# The first set overloads ToR 0 once routed; the second's demand exceeds
# a switch, which the batch's active set estimate meets first, so the
# batch raises the second set's error.
@example((build_fat_tree(4), [DemandSet.of([(1, 2, 600.0), (2, 1, 600.0)]),
                              DemandSet.of([(3, 4, 1500.0)])]), "eer", 1.0, 0)
def test_a_batch_gives_each_set_what_it_gets_alone(case, router, capacity, seed):
    """Switch order, Gbps bits, violations, routes and active sets; a
    batch that fails raises the error type and message that one of its
    failing sets raises alone (`run_scenario` finds the first).

    A capacity of None is just above the largest demand, so every demand
    fits a switch but a pod or the core may need more than one.
    """
    tree, sets = case
    if capacity is None:
        peak = max((d.rate.max() for d in sets if len(d.rate)), default=MBPS_PER_GBPS)
        capacity = max(1.1 * float(peak) / MBPS_PER_GBPS, 1e-6)
    params = PowerParams(capacity=capacity)
    slots = list(range(10, 10 + len(sets)))
    seeds = [[seed, t] for t in slots]
    call, bits = BATCH_CALLS[router]

    def batched():
        result = call(sets, tree, params, slots, seeds)
        return bits(list(zip(*result)) if router == "eer" else result)

    def alone(j):
        return bits([call(sets[j], tree, params, slots[j], seeds[j])])

    outcomes = [_outcome(lambda: alone(j)) for j in range(len(sets))]
    failures = [outcome for outcome in outcomes if isinstance(outcome, tuple)]
    got = _outcome(batched)
    if failures:
        assert got in failures
    else:
        assert got == [item for outcome in outcomes for item in outcome]


def test_a_too_wide_pod_is_named_by_its_first_item():
    """At C = 1 Gbps pods 1 and 0 each need three of k = 4's two aggs.
    Pod 1's item comes first, so the error names pod 1, for the set
    alone and as the second set of a batch, as the oracle does."""
    tree, params = build_fat_tree(4), PowerParams(capacity=1.0)
    flows = [(4, 6, 900.0), (5, 7, 900.0), (6, 4, 900.0),
             (0, 2, 900.0), (1, 3, 900.0), (2, 0, 900.0)]
    want = _outcome(lambda: estimate_oracle(flows, tree, params))
    assert want == (InfeasibleError, "pod 1 needs 3 aggregation switches "
                    "for 2.7 Gbps but only has 2")
    assert _outcome(lambda: estimate_active_set(DemandSet.of(flows), tree, params)) == want
    assert _outcome(lambda: estimate_active_set(
        [DemandSet.of([(0, 2, 100.0)]), DemandSet.of(flows)], tree, params)) == want


def _job(job_id, windows, n=3, rate=40.0):
    return Job(id=job_id, vm_count=n,
               transfers=tuple(Transfer(a, b, _matrix(n, rate)) for a, b in windows))


# Job 0 runs in slot 2 alone; job 1 from slot 0, and again in the last
# slot; job 2's windows overlap on slot 1; slots 3 and 4 carry nothing.
EDGE_UNITS = (
    [_job(0, [(2, 2)]), _job(1, [(0, 1), (HORIZON - 1, HORIZON - 1)]),
     _job(2, [(0, 1), (1, 2)], rate=0.7)],
    {(j, m): 5 * j + 2 * m for j in range(3) for m in range(3)},
)


@SETTINGS
@given(placed_workloads(), st.permutations(range(HORIZON)))
@example(EDGE_UNITS, list(range(HORIZON)))
@example(EDGE_UNITS, list(reversed(range(HORIZON))))
def test_a_table_read_depends_on_the_slot_alone(case, order):
    jobs, assignment = case
    table = demand_table(jobs, assignment)
    run = [first for first, _ in table.segments(HORIZON)]  # the order a run reads
    for t in [*run, *order]:  # then any order of slots
        demands = table.at(t)
        _assert_demands(demands, demands_loop(jobs, assignment, t))
        assert demands.table is table
        assert table.src[demands.pair].tolist() == demands.src.tolist()
        assert table.dst[demands.pair].tolist() == demands.dst.tolist()


def test_edge_units_cover_one_slot_units_both_ends_and_empty_segments():
    table = demand_table(*EDGE_UNITS)
    assert (table.start == table.end).any()
    assert table.start.min() == 0 and table.end.max() == HORIZON - 1
    assert [len(table.at(t).src) for t in (3, 4)] == [0, 0]


TABLE_ARRAYS = ("start", "end", "size", "src", "dst", "pair", "rate")


@SETTINGS
@given(tree_workloads(transfers=(1, 4)))
@example((build_fat_tree(4), *EDGE_UNITS))
@example((build_fat_tree(4), *_pair_flows([[1.0, 1e16, 1.0, 0.0]], n=4)))
@example((build_fat_tree(4), [], {}))
def test_demand_table_matches_the_unit_by_unit_oracle(case):
    """Every array of the table, its dtype and its bytes."""
    _, jobs, assignment = case
    got, want = demand_table(jobs, assignment), demand_table_oracle(jobs, assignment)
    for name in TABLE_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


@st.composite
def shared_pair_tables(draw):
    """(jobs, assignment) at k = 4 or 6 with one to four slots per server.

    VMs fill a small pool of servers, up to the capacity of each, so one
    unit may send several rows over a server pair that another unit
    shares.  Units may be one slot long, and may have no rows (zero
    rates, or every VM on one server).
    """
    capacity = draw(st.integers(1, 4))
    tree = build_fat_tree(draw(st.sampled_from([4, 6])), server_capacity=capacity)
    pool = draw(st.lists(st.integers(0, tree.num_servers - 1), min_size=1, max_size=4,
                         unique=True))
    free = dict.fromkeys([*pool, *range(tree.num_servers)], capacity)
    jobs, assignment = [], {}
    for job_id in range(draw(st.integers(0, 5))):
        n = draw(st.integers(1, 5))
        trs = []
        for _ in range(draw(st.integers(0, 3))):
            start = draw(st.integers(0, HORIZON - 1))
            end = draw(st.one_of(st.just(start), st.integers(start, HORIZON - 1)))
            matrix = np.array(draw(st.lists(RATES, min_size=n * n, max_size=n * n)))
            matrix = matrix.reshape(n, n)
            np.fill_diagonal(matrix, 0.0)
            trs.append(Transfer(start, end, matrix))
        jobs.append(Job(id=job_id, vm_count=n, transfers=trs))
        for m in range(n):
            room = [server for server in pool if free[server]]
            server = draw(st.sampled_from(room)) if room else next(
                server for server, slots in free.items() if slots)
            free[server] -= 1
            assignment[(job_id, m)] = server
    return jobs, assignment


def _set_bits(demands):
    return [(a.dtype.str, a.tobytes())
            for a in (demands.src, demands.dst, demands.rate, demands.pair)]


def _joined(parts, dtype):
    return np.concatenate([np.empty(0, dtype=dtype), *parts], dtype=dtype, casting="unsafe")


# Unit A sends 1e16 and unit B 1.0 twice over one server pair, both live in
# every slot: adding in row order gives 1e16, adding B's rows first 1e16 + 2.
@SETTINGS
@given(shared_pair_tables(), st.lists(st.integers(-1, HORIZON), max_size=8))
@example(_pair_flows([[1e16, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]], n=4), [0, 0, 3])
@example(EDGE_UNITS, [*range(-1, HORIZON + 1), 1, 1])
@example(([], {}), [0, 0])
def test_a_batch_read_matches_the_row_oracle_slot_by_slot(case, slots):
    """`DemandTable.read` gives the oracle's reads of the rows joined, with
    uint16 servers and pair ids in the table's dtype, and each slot's
    bounds; item j and `at` give the oracle's read at slots[j].  Every
    array by dtype and bytes."""
    jobs, assignment = case
    table = demand_table(jobs, assignment)
    want = [table_at_oracle(table, t) for t in slots]
    got = table.read(slots)
    assert got.demands.table is table
    assert got.bounds == [0, *itertools.accumulate(len(d.src) for d in want)]
    assert _set_bits(got.demands) == [
        (a.dtype.str, a.tobytes()) for a in (
            _joined([d.src for d in want], np.uint16), _joined([d.dst for d in want], np.uint16),
            _joined([d.rate for d in want], np.float64),
            _joined([d.pair for d in want], table.pair.dtype))]
    assert len(got) == len(slots)
    for j, t in enumerate(slots):
        assert _set_bits(got[j]) == _set_bits(want[j]) == _set_bits(table.at(t))
        assert table.at(t).table is table


def test_a_shared_pair_adds_its_rows_in_row_order():
    table = demand_table(*_pair_flows([[1e16, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]], n=4))
    assert table.at(0).rate.tolist() == [1e16]


ENTRY_ARRAYS = ("start", "end", "src", "dst", "pair", "rate")


@SETTINGS
@given(shared_pair_tables())
@example(EDGE_UNITS)
@example(([], {}))
def test_entries_match_the_pair_by_pair_oracle(case):
    """Every array of the entry view, its dtype and its bytes."""
    got, want = (build(*case).entries for build in (demand_table, demand_table_oracle))
    for name in ENTRY_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


# --- what on_plan receives ------------------------------------------------------


def _one_set_router(scenario, tree):
    """The router of `scenario` on one slot's demands, called alone."""
    params, seed = scenario.power, scenario.seed
    return {
        "sp": lambda demands, t: sp_route(demands, tree, params, t),
        "ecmp": lambda demands, t: ecmp_route(demands, tree, [seed, t], params, t),
        "eer": lambda demands, t: eer(demands, tree, params, t)[1],
    }[scenario.route_strategy]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(segment_cases())
@example(_coupled_in_a_batch())
@example((_scenario(4, "greedy", "eer", 3, TIGHT[1]), MIDDLE_FAILS))
@example((_scenario(4, "greedy", "ecmp", 8), OVERLAPPING))
def test_on_plan_gets_each_slots_one_set_plan_and_changes_no_report(case):
    """A run reports the same with and without `on_plan`, which gets, for
    each slot it reaches, the plan that the router gives that slot's
    demands alone: switches, Gbps bits, violations and routes."""
    scenario, jobs = case
    plans = []
    got = _outcome(lambda: run_scenario(scenario, jobs, on_plan=plans.append).fingerprint())
    assert _outcome(lambda: run_scenario(scenario, jobs).fingerprint()) == got
    if not plans:
        return
    tree = build_fat_tree(scenario.k, server_capacity=scenario.server_capacity)
    placement = assign(scenario.assign_strategy, jobs, tree, seed=scenario.seed,
                       horizon=scenario.horizon)
    table = demand_table(jobs, placement.placements)
    alone = _one_set_router(scenario, tree)
    assert [plan.timeslot for plan in plans] == list(range(len(plans)))
    for plan in plans:
        assert _plan_bits(plan) == _plan_bits(alone(table.at(plan.timeslot), plan.timeslot))
