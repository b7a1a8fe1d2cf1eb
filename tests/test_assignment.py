"""Super-VM merging, clustering, rack partitioning, packing, strategies."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcnsim.assignment import (
    SuperVM,
    assign,
    cluster_jobs,
    estimate_pod_count,
    pack_cluster_into_pod,
    partition_into_racks,
    shrink_to_super_vms,
    single_vm_units,
)
from dcnsim.errors import DomainError, InfeasibleError
from dcnsim.topology import build_fat_tree
from oracles import RescanFirstFit, greedy_oracle, opt_greedy_oracle
from dcnsim.workload import (
    Job,
    Transfer,
    WorkloadConfig,
    demands_at,
    generate_workload,
)


def _job_with_ref(matrix, job_id=0):
    """Job whose one-slot transfer makes its referential matrix `matrix`."""
    m = np.asarray(matrix, dtype=float)
    return Job(id=job_id, vm_count=m.shape[0], transfers=(Transfer(0, 0, m),))


def _members(units):
    return [u.members for u in units]


# --- shrinking ---------------------------------------------------------------


def test_shrink_capacity_one_is_identity():
    job = _job_with_ref(np.array([[0, 5, 1], [5, 0, 1], [1, 1, 0]]))
    units = shrink_to_super_vms(job, 1)
    assert _members(units) == [(0,), (1,), (2,)]


def test_shrink_hand_trace_two_pairs():
    # unique maximum at (0,1); the disjoint pair (2,3) outweighs anything
    # incident to the first group, so two clean pairs come out
    t = np.array(
        [
            [0.0, 9.0, 0.5, 0.2],
            [0.1, 0.0, 0.3, 0.4],
            [0.2, 0.1, 0.0, 8.0],
            [0.3, 0.2, 0.5, 0.0],
        ]
    )
    units = shrink_to_super_vms(_job_with_ref(t), 2)
    assert _members(units) == [(0, 1), (2, 3)]
    assert all(u.size == 2 for u in units)


def test_shrink_zero_matrix_ties_by_index():
    job = _job_with_ref(np.zeros((3, 3)))
    units = shrink_to_super_vms(job, 2)
    assert _members(units) == [(0, 1), (2,)]
    assert [u.size for u in units] == [2, 1]


def test_shrink_absorbs_largest_row_value_at_capacity_three():
    # after merging (0,1), the combined row is largest toward VM 3
    t = np.array(
        [
            [0.0, 9.0, 1.0, 4.0],
            [0.0, 0.0, 1.0, 4.0],
            [1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    units = shrink_to_super_vms(_job_with_ref(t), 3)
    assert units[0].members == (0, 1, 3)
    assert units[1].members == (2,)


def test_shrink_covers_all_vms_disjointly():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(1, 12))
        m = rng.uniform(0, 10, size=(n, n))
        np.fill_diagonal(m, 0.0)
        cap = int(rng.integers(1, 5))
        units = shrink_to_super_vms(_job_with_ref(m), cap)
        seen = [v for u in units for v in u.members]
        assert sorted(seen) == list(range(n))
        assert all(u.size <= cap for u in units)


# --- pod estimation and clustering -------------------------------------------


def test_estimate_pod_count():
    assert estimate_pod_count([], 32) == 0
    jobs = [Job(id=i, vm_count=8) for i in range(4)]
    assert estimate_pod_count(jobs, 32) == 1
    jobs = [Job(id=i, vm_count=8) for i in range(10)]  # 80 slots = 2.5 pods
    assert estimate_pod_count(jobs, 32) == 3


def _window_job(job_id, start, end, n=2, rate=10.0):
    m = np.full((n, n), rate)
    np.fill_diagonal(m, 0.0)
    return Job(id=job_id, vm_count=n, transfers=(Transfer(start, end, m),))


def test_cluster_single_job():
    job = _window_job(0, 0, 3)
    clusters = cluster_jobs([job], 1, pod_slot_capacity=8, horizon=10, seed=0)
    assert clusters.clusters == [[0]]
    assert clusters.overflow == []


def test_cluster_center_is_mean_of_members(monkeypatch):
    # Over a one-slot horizon a job's pattern is its rate.  Seeds 0 and
    # 10 open clusters 0 and 1; the 4-slot job of rate 1 goes first and
    # joins the more dissimilar cluster 1, whose center becomes 5.5.
    # The probe then joins whichever center lies farther from its rate:
    # 4 -> cluster 0 (a center left at 10 would draw it to 1), 2 ->
    # cluster 1 (a center moved to the newest member, 1, would send it
    # to 0).
    import dcnsim.assignment as assignment

    monkeypatch.setattr(assignment, "kmeans_pp_seed", lambda vectors, k, seed: [0, 1])
    for probe_rate, joins in ((4.0, 0), (2.0, 1)):
        jobs = [
            _window_job(0, 0, 0, rate=0.0),
            _window_job(1, 0, 0, rate=10.0),
            _window_job(2, 0, 0, n=4, rate=1.0),
            _window_job(3, 0, 0, rate=probe_rate),
        ]
        clusters = cluster_jobs(jobs, 2, pod_slot_capacity=100, horizon=1, seed=0)
        assert clusters.clusters[1][:2] == [1, 2]
        assert 3 in clusters.clusters[joins], probe_rate


def test_identical_patterns_split_across_clusters():
    # two early-window jobs and two late-window jobs; seeding can never
    # pick two identical vectors, and the most-dissimilar rule sends
    # each remaining job to the cluster with the other pattern
    early = [_window_job(0, 0, 2), _window_job(1, 0, 2)]
    late = [_window_job(2, 7, 9), _window_job(3, 7, 9)]
    for seed in range(10):
        clusters = cluster_jobs(
            early + late, 2, pod_slot_capacity=8, horizon=10, seed=seed
        )
        assert clusters.overflow == []
        for group in clusters.clusters:
            kinds = {0 if j <= 1 else 1 for j in group}
            assert kinds == {0, 1}


def test_cluster_capacity_forces_overflow():
    jobs = [_window_job(i, 0, 2, n=4) for i in range(3)]  # 4 slots each
    clusters = cluster_jobs(jobs, 1, pod_slot_capacity=8, horizon=5, seed=0)
    placed = [j for group in clusters.clusters for j in group]
    assert len(placed) == 2
    assert len(clusters.overflow) == 1


def test_cluster_requires_pods_for_jobs():
    with pytest.raises(DomainError):
        cluster_jobs([_window_job(0, 0, 1)], 0, 8, 5, seed=0)


# --- rack partitioning --------------------------------------------------------


def _singleton_units(n, job_id=0):
    return [SuperVM(job_id, (i,), 1) for i in range(n)]


def test_partition_single_unit():
    t = np.zeros((1, 1))
    assert partition_into_racks(_singleton_units(1), t, 4) == [[0]]


def test_partition_path_graph():
    t = np.zeros((3, 3))
    t[0, 1] = 1.0
    t[1, 2] = 5.0
    groups = partition_into_racks(_singleton_units(3), t, 2)
    assert groups == [[0], [1, 2]]


def test_partition_clamps_to_unit_count():
    t = np.ones((3, 3)) - np.eye(3)
    groups = partition_into_racks(_singleton_units(3), t, 7)
    assert groups == [[0], [1], [2]]


# --- packing -------------------------------------------------------------------


def _all_free(servers, capacity=2):
    return {s: capacity for s in servers}


def test_pack_single_set_lands_in_first_rack():
    job = Job(id=0, vm_count=2)
    units = single_vm_units(job)
    placements = pack_cluster_into_pod(
        [(job, [units])], [[0, 1], [2, 3]], 2, _all_free([0, 1, 2, 3])
    )
    assert set(placements.values()) <= {0, 1}


def test_pack_resorts_racks_between_jobs():
    # three single-group jobs of 3, 2 and 1 one-slot units over two racks
    # of four servers: 3-group -> rack 0; rack order flips; 2-group and
    # then the 1-group land in rack 1 (emptier after the re-sort)
    jobs = [Job(id=i, vm_count=n) for i, n in enumerate((3, 2, 1))]
    partitions = [(job, [single_vm_units(job)]) for job in jobs]
    racks = [[0, 1, 2, 3], [4, 5, 6, 7]]
    placements = pack_cluster_into_pod(partitions, racks, 2, _all_free(range(8)))
    rack_of = lambda s: 0 if s < 4 else 1
    assert {rack_of(placements[(0, m)]) for m in range(3)} == {0}
    assert {rack_of(placements[(1, m)]) for m in range(2)} == {1}
    assert rack_of(placements[(2, 0)]) == 1


def test_pack_distinct_servers_within_group():
    job = Job(id=0, vm_count=3)
    units = single_vm_units(job)
    placements = pack_cluster_into_pod([(job, [units])], [[0, 1, 2, 3]], 2, _all_free(range(4)))
    servers = [placements[(0, m)] for m in range(3)]
    assert len(set(servers)) == 3


def test_pack_splits_oversized_group_across_racks():
    # five server-sized units cannot fit one rack of four servers
    job = Job(id=0, vm_count=10)
    units = [SuperVM(0, (2 * i, 2 * i + 1), 2) for i in range(5)]
    racks = [[0, 1, 2, 3], [4, 5, 6, 7]]
    placements = pack_cluster_into_pod([(job, [units])], racks, 2, _all_free(range(8)))
    rack_of = lambda s: 0 if s < 4 else 1
    used_racks = {rack_of(s) for s in placements.values()}
    assert used_racks == {0, 1}
    per_rack = [sum(1 for s in set(placements.values()) if rack_of(s) == r) for r in (0, 1)]
    assert sorted(per_rack) == [1, 4]


def test_pack_overflow_raises():
    job = Job(id=0, vm_count=6)
    units = [SuperVM(0, (2 * i, 2 * i + 1), 2) for i in range(3)]
    with pytest.raises(InfeasibleError):
        pack_cluster_into_pod([(job, [units])], [[0, 1]], 2, _all_free([0, 1]))


# --- strategies -----------------------------------------------------------------


def test_greedy_first_fit_order():
    tree = build_fat_tree(4)
    jobs = [Job(id=0, vm_count=3)]
    placements = assign("greedy", jobs, tree, horizon=1).placements
    assert placements == {(0, 0): 0, (0, 1): 0, (0, 2): 1}


def test_greedy_fills_pod_zero_first():
    tree = build_fat_tree(4)
    jobs = [Job(id=i, vm_count=2) for i in range(5)]  # 10 slots
    assignment = assign("greedy", jobs, tree, horizon=1)
    pods = [tree.server_pod(s) for s in assignment.placements.values()]
    # pod 0 holds 8 slots; the ninth and tenth VM spill into pod 1
    assert pods.count(0) == 8
    assert pods.count(1) == 2


def test_opt_greedy_cohosts_pairs():
    tree = build_fat_tree(4)
    m = np.array([[0.0, 50.0], [50.0, 0.0]])
    jobs = [Job(id=0, vm_count=2, transfers=(Transfer(0, 5, m),))]
    placements = assign("opt_greedy", jobs, tree, horizon=10).placements
    assert placements[(0, 0)] == placements[(0, 1)]


def test_opt_greedy_places_a_stranded_super_vm_one_vm_at_a_time():
    # Sixteen 2-VM jobs leave each of k=4's sixteen 3-slot servers one
    # slot free, so the last job's 3-slot super-VM fits no server whole.
    tree = build_fat_tree(4, server_capacity=3)
    pair = np.array([[0.0, 50.0], [50.0, 0.0]])
    trio = np.full((3, 3), 50.0) - np.diag([50.0] * 3)
    jobs = [Job(id=j, vm_count=2, transfers=(Transfer(0, 5, pair),)) for j in range(16)]
    jobs.append(Job(id=16, vm_count=3, transfers=(Transfer(0, 5, trio),)))
    assert shrink_to_super_vms(jobs[-1], 3) == [SuperVM(16, (0, 1, 2), 3)]
    want = {(j, m): j for j in range(16) for m in range(2)}
    want.update({(16, 0): 0, (16, 1): 1, (16, 2): 2})
    assert assign("opt_greedy", jobs, tree, horizon=6).placements == want


def test_opt_eea_cohosts_two_vm_job():
    tree = build_fat_tree(4)
    m = np.array([[0.0, 50.0], [50.0, 0.0]])
    jobs = [Job(id=0, vm_count=2, transfers=(Transfer(0, 5, m),))]
    placements = assign("opt_eea", jobs, tree, seed=0, horizon=10).placements
    assert placements[(0, 0)] == placements[(0, 1)]


def test_opt_eea_single_pod_workload_stays_in_one_pod():
    tree = build_fat_tree(4)  # pod capacity 8 slots
    jobs = [_window_job(i, 0, 5, n=4, rate=20.0) for i in range(2)]  # 8 slots
    assignment = assign("opt_eea", jobs, tree, seed=3, horizon=10)
    pods = {tree.server_pod(s) for s in assignment.placements.values()}
    assert pods == {0}  # one estimated pod, and the first one at that


def test_assignments_satisfy_constraints_on_random_workloads():
    rng = np.random.default_rng(61)
    for trial in range(6):
        k = int(rng.choice([4, 8]))
        tree = build_fat_tree(k)
        util = float(rng.uniform(0.2, 0.9))
        jobs = generate_workload(
            WorkloadConfig(k=k, target_utilization=util, horizon=20), seed=trial
        )
        for name in ("greedy", "opt_greedy", "eea", "opt_eea"):
            assign(name, jobs, tree, seed=trial, horizon=20).validate(jobs, tree)


def test_pipeline_assignments_are_deterministic():
    tree = build_fat_tree(4)
    jobs = generate_workload(
        WorkloadConfig(k=4, target_utilization=0.6, horizon=15), seed=9
    )
    for name in ("eea", "opt_eea"):
        a = assign(name, jobs, tree, seed=4, horizon=15)
        b = assign(name, jobs, tree, seed=4, horizon=15)
        assert a.placements == b.placements


def test_overflow_demand_is_rejected():
    tree = build_fat_tree(4)  # 32 slots
    jobs = [Job(id=0, vm_count=33)]
    with pytest.raises(InfeasibleError):
        assign("greedy", jobs, tree, horizon=5)
    with pytest.raises(InfeasibleError):
        assign("opt_eea", jobs, tree, seed=0, horizon=5)


def test_oversized_job_is_preplaced_greedily():
    tree = build_fat_tree(4)  # pod capacity 8
    big = _window_job(0, 0, 3, n=10, rate=5.0)  # needs 10 slots > one pod
    small = _window_job(1, 0, 3, n=2, rate=5.0)
    assignment = assign("opt_eea", [big, small], tree, seed=0, horizon=5)
    assignment.validate([big, small], tree)
    pods = {tree.server_pod(assignment.placements[(0, m)]) for m in range(10)}
    assert len(pods) >= 2  # it genuinely spans pods


# --- co-hosting reduces demand (the transformation's point) ----------------


def test_cohosting_removes_network_demand():
    rng = np.random.default_rng(71)
    for trial in range(10):
        n = int(rng.integers(3, 9))
        m = rng.uniform(0, 20, size=(n, n))
        np.fill_diagonal(m, 0.0)
        job = Job(id=0, vm_count=n, transfers=(Transfer(0, 0, m),))
        units = shrink_to_super_vms(job, 2)
        merged = {}
        for server, unit in enumerate(units):
            for vm in unit.members:
                merged[(0, vm)] = server
        spread = {(0, vm): vm for vm in range(n)}
        merged_rate = demands_at([job], merged, 0).rate.sum()
        spread_rate = demands_at([job], spread, 0).rate.sum()
        assert merged_rate <= spread_rate + 1e-9


# --- rack/pod principles as numeric properties ------------------------------


def test_compacting_two_tors_into_one_saves_power():
    # sigma + mu*(w1+w2+w3+w4)**a <= 2*sigma + mu*(w1+w2+w3)**a + mu*(w2+w3+w4)**a
    rng = np.random.default_rng(83)
    for _ in range(1000):
        alpha = float(rng.uniform(1.01, 3.0))
        mu = float(rng.uniform(1e-5, 1e-2))
        capacity = float(rng.uniform(10, 2000))
        sigma = mu * (alpha - 1) * capacity**alpha * float(rng.uniform(1.0, 4.0))
        w = rng.uniform(0, 1, size=4)
        w = w / w.sum() * capacity * float(rng.uniform(0, 1))
        one = sigma + mu * w.sum() ** alpha
        two = 2 * sigma + mu * (w[0] + w[1] + w[2]) ** alpha + mu * (
            w[1] + w[2] + w[3]
        ) ** alpha
        assert one <= two + 1e-9 * max(one, two)


def test_distributing_across_enough_racks_saves_power():
    # with k racks (k >= 4**(alpha/(alpha-1))), spreading beats compacting
    rng = np.random.default_rng(89)
    mu, alpha = 1e-4, 2.0
    for k in (16, 20, 32):
        for _ in range(300):
            u = float(rng.uniform(0.01, 100.0))
            w = float(rng.uniform(0.01, 100.0))
            compact = mu * (k * u + k * (k - 1) / 2 * w) ** alpha
            spread = k * mu * (u + (k - 1) * w) ** alpha + (k / 2) * mu * (
                (k - 1) * w
            ) ** alpha
            assert compact - spread > 0


# --- first-fit cursor against a rescanning first-fit ---------------------------


@st.composite
def crowded_jobs(draw):
    """(tree, jobs) at k=4 requesting 75% to just over 100% of the slots.

    Servers hold 2-4 slots and VMs take 1-3, so free slots fragment and
    super-VMs often find no server with room for all their VMs.
    """
    tree = build_fat_tree(4, server_capacity=draw(st.integers(2, 4)))
    target = draw(st.integers(tree.total_slots * 3 // 4, tree.total_slots + 2))
    jobs, slots = [], 0
    while slots < target:
        n = draw(st.integers(1, 6))
        rates = draw(st.lists(st.integers(0, 9), min_size=n * n, max_size=n * n))
        matrix = np.array(rates, dtype=float).reshape(n, n)
        np.fill_diagonal(matrix, 0.0)
        jobs.append(Job(id=len(jobs), vm_count=n, vm_resource=draw(st.integers(1, 3)),
                        transfers=(Transfer(0, draw(st.integers(0, 9)), matrix),)))
        slots += jobs[-1].slots
    return tree, jobs


def _placed(place):
    """The placements, or the InfeasibleError message, of `place()`."""
    try:
        return place().placements
    except InfeasibleError as exc:
        return str(exc)


FIRST_FIT = settings(max_examples=150, deadline=None, derandomize=True)


@FIRST_FIT
@given(crowded_jobs())
def test_first_fit_matches_a_rescanning_first_fit(case):
    tree, jobs = case
    assert _placed(lambda: assign("greedy", jobs, tree, horizon=10)) == _placed(
        lambda: greedy_oracle(jobs, tree))
    assert _placed(lambda: assign("opt_greedy", jobs, tree, horizon=10)) == _placed(
        lambda: opt_greedy_oracle(jobs, tree))


@FIRST_FIT
@given(crowded_jobs(), st.sampled_from(["eea", "opt_eea"]), st.integers(0, 99))
def test_pipelines_match_a_rescanning_first_fit(case, name, seed):
    tree, jobs = case
    got = _placed(lambda: assign(name, jobs, tree, seed=seed, horizon=10))
    with mock.patch("dcnsim.assignment._FirstFit", RescanFirstFit):
        want = _placed(lambda: assign(name, jobs, tree, seed=seed, horizon=10))
    assert got == want
