"""Workload generation, referential matrices, pattern vectors, demands."""

import math
import re

import numpy as np
import pytest

from dcnsim.errors import ConfigError, DomainError
from dcnsim.simengine import Scenario, run_scenario
from dcnsim.workload import (
    DIST_MAX,
    Job,
    SavedConfig,
    Transfer,
    WorkloadConfig,
    demands_at,
    generate_workload,
    load_workload,
    pattern_vector,
    referential_matrix,
    save_workload,
)
from oracles import job_distance


def _matrix(n, value=10.0):
    m = np.full((n, n), value)
    np.fill_diagonal(m, 0.0)
    return m


def test_zero_utilization_gives_empty_workload():
    cfg = WorkloadConfig(k=4, target_utilization=0.0)
    assert generate_workload(cfg, seed=1) == []


def test_stopping_rule_half_utilization():
    # k=4: 16 servers x 2 slots = 32 slots; target 16; jobs clamp at the
    # pod capacity of 8 slots, so the overshoot stays below one job.
    cfg = WorkloadConfig(k=4, target_utilization=0.5)
    jobs = generate_workload(cfg, seed=7)
    total = sum(j.slots for j in jobs)
    assert 16 <= total < 16 + 8


@pytest.mark.parametrize("seed", [0, 1, 2, 11])
def test_full_utilization_fits_and_runs(seed):
    # the last job takes only the VMs still free: unclamped, seeds 1, 2
    # and 11 asked for 259, 261 and 257 of the 256 slots of k=8
    cfg = WorkloadConfig(k=8, target_utilization=1.0, horizon=10)
    assert sum(j.slots for j in generate_workload(cfg, seed)) == 256
    report = run_scenario(Scenario(
        k=8, assign_strategy="greedy", route_strategy="sp", seed=seed,
        utilization=1.0, horizon=10,
    ))
    assert report.total_energy_wt > 0


def test_utilization_bounds_checked():
    with pytest.raises(ConfigError):
        WorkloadConfig(k=4, target_utilization=1.5)
    with pytest.raises(ConfigError):
        WorkloadConfig(k=4, target_utilization=-0.1)


def test_generation_is_reproducible_bit_exact():
    cfg = WorkloadConfig(k=4, target_utilization=0.6)
    a = generate_workload(cfg, seed=123)
    b = generate_workload(cfg, seed=123)
    assert len(a) == len(b)
    for ja, jb in zip(a, b):
        assert ja.vm_count == jb.vm_count
        for ta, tb in zip(ja.transfers, jb.transfers):
            assert (ta.start, ta.end) == (tb.start, tb.end)
            assert np.array_equal(ta.matrix, tb.matrix)
    other = generate_workload(cfg, seed=124)
    assert any(
        ja.vm_count != jo.vm_count
        or not np.array_equal(ja.transfers[0].matrix, jo.transfers[0].matrix)
        for ja, jo in zip(a, other)
    )


def test_generated_jobs_respect_sizes_and_windows():
    cfg = WorkloadConfig(k=8, target_utilization=0.7, horizon=50)
    jobs = generate_workload(cfg, seed=5)
    pod_slots = (8**2 // 4) * 2
    for job in jobs:
        assert 2 <= job.vm_count
        assert job.slots <= pod_slots
        (tr,) = job.transfers
        assert 0 <= tr.start <= tr.end <= 49
        assert tr.matrix.shape == (job.vm_count, job.vm_count)
        assert (tr.matrix >= 0).all()
        assert not np.diagonal(tr.matrix).any()


def test_sample_mean_rate_near_50():
    # Law of large numbers over the N(50, 1) Mbps entries.
    cfg = WorkloadConfig(k=16, target_utilization=0.7)
    jobs = generate_workload(cfg, seed=42)
    entries = np.concatenate(
        [
            tr.matrix[~np.eye(job.vm_count, dtype=bool)]
            for job in jobs
            for tr in job.transfers
        ]
    )
    assert len(entries) >= 10_000
    assert 49.0 <= entries.mean() <= 51.0


def test_referential_matrix_basics():
    empty = Job(id=0, vm_count=3)
    assert not referential_matrix(empty).any()

    b = _matrix(3)
    job = Job(id=1, vm_count=3, transfers=(Transfer(2, 6, b),))
    assert np.allclose(referential_matrix(job), 5 * b)


def test_referential_matrix_matches_per_timeslot_sum():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        transfers = []
        for _ in range(int(rng.integers(1, 4))):
            start = int(rng.integers(0, 20))
            end = int(rng.integers(start, 20))
            m = rng.uniform(0, 5, size=(n, n))
            np.fill_diagonal(m, 0.0)
            transfers.append(Transfer(start, end, m))
        job = Job(id=0, vm_count=n, transfers=tuple(transfers))
        brute = np.zeros((n, n))
        for t in range(20):
            m = job.traffic_at(t)
            if m is not None:
                brute += m
        assert np.allclose(referential_matrix(job), brute)


def test_pattern_vector_values():
    empty = Job(id=0, vm_count=4)
    assert np.array_equal(pattern_vector(empty, 6), np.zeros(6))

    m = np.array([[0.0, 60.0], [40.0, 0.0]])
    job = Job(id=1, vm_count=2, transfers=(Transfer(3, 4, m),))
    vec = pattern_vector(job, 8)
    # total 100 over n^2/2 = 2 -> 50 inside the window
    assert np.allclose(vec[[3, 4]], 50.0)
    assert not vec[[0, 1, 2, 5, 6, 7]].any()

    double = Job(id=2, vm_count=2, transfers=(Transfer(3, 4, 2 * m),))
    assert np.allclose(pattern_vector(double, 8), 2 * vec)


def test_pattern_vector_zero_outside_the_window():
    job = Job(id=0, vm_count=2, transfers=(Transfer(1, 2, _matrix(2)),))
    vec = pattern_vector(job, 4)
    assert vec[0] == 0.0 and vec[3] == 0.0
    assert (vec[1:3] > 0).all()


def test_job_distance():
    assert job_distance(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == DIST_MAX
    v = np.array([0.6, 0.8])
    assert math.isclose(job_distance(v, np.zeros(2)), 1.0, rel_tol=1e-12)
    assert math.isclose(
        job_distance(np.array([3.0, 0.0]), np.array([0.0, 4.0])), 0.2, rel_tol=1e-12
    )
    with pytest.raises(DomainError):
        job_distance(np.zeros(3), np.zeros(2))


def test_demands_quiet_outside_windows():
    job = Job(id=0, vm_count=2, transfers=(Transfer(5, 9, _matrix(2)),))
    assignment = {(0, 0): 0, (0, 1): 1}
    assert demands_at([job], assignment, 2).flows == ()
    assert demands_at([job], assignment, 5).flows != ()


def test_cohosted_pair_emits_nothing():
    job = Job(id=0, vm_count=2, transfers=(Transfer(0, 3, _matrix(2)),))
    assignment = {(0, 0): 4, (0, 1): 4}
    assert demands_at([job], assignment, 1).flows == ()


def test_demand_direction_and_rates():
    m = np.array([[0.0, 30.0], [20.0, 0.0]])
    job = Job(id=0, vm_count=2, transfers=(Transfer(0, 0, m),))
    assignment = {(0, 0): 7, (0, 1): 9}
    flows = demands_at([job], assignment, 0).flows
    assert flows == ((7, 9, 30.0), (9, 7, 20.0))


def test_demand_aggregation_preserves_rate():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        m = rng.uniform(0, 10, size=(n, n))
        np.fill_diagonal(m, 0.0)
        job = Job(id=0, vm_count=n, transfers=(Transfer(0, 0, m),))
        hosts = rng.integers(0, 3, size=n)
        assignment = {(0, i): int(hosts[i]) for i in range(n)}
        expected = sum(
            m[i, j]
            for i in range(n)
            for j in range(n)
            if hosts[i] != hosts[j]
        )
        produced = float(demands_at([job], assignment, 0).rate.sum())
        assert math.isclose(produced, expected, rel_tol=1e-12, abs_tol=1e-12)


def test_unassigned_vm_is_an_error():
    job = Job(id=3, vm_count=2, transfers=(Transfer(0, 1, _matrix(2)),))
    with pytest.raises(DomainError, match="job 3 VM 1"):
        demands_at([job], {(3, 0): 0}, 0)


def test_workload_file_roundtrip(tmp_path):
    cfg = WorkloadConfig(k=4, target_utilization=0.5)
    jobs = generate_workload(cfg, seed=77)
    path = tmp_path / "wl.json"
    save_workload(path, jobs, horizon=100, seed=77, config=SavedConfig(k=4))
    loaded, meta = load_workload(path)
    assert meta["horizon"] == 100 and meta["seed"] == 77
    assert meta["config"] == SavedConfig(k=4)
    assert len(loaded) == len(jobs)
    for a, b in zip(jobs, loaded):
        assert a.vm_count == b.vm_count and a.vm_resource == b.vm_resource
        for ta, tb in zip(a.transfers, b.transfers):
            assert (ta.start, ta.end) == (tb.start, tb.end)
            assert np.array_equal(ta.matrix, tb.matrix)


def test_transfer_validation():
    with pytest.raises(DomainError):
        Transfer(5, 4, _matrix(2))
    with pytest.raises(DomainError):
        Transfer(0, 1, np.ones((2, 2)))  # nonzero diagonal
    with pytest.raises(DomainError):
        Transfer(0, 1, -_matrix(2))
    with pytest.raises(DomainError):
        Job(id=0, vm_count=3, transfers=(Transfer(0, 1, _matrix(2)),))


@pytest.mark.parametrize("start, end, name", [
    (0.5, 2, "start"), (True, 2, "start"), (0, 2.0, "end"), (0, np.int64(2), "end"),
])
def test_a_transfer_window_needs_int_slots(start, end, name):
    with pytest.raises(DomainError, match=f"transfer {name} must be an int"):
        Transfer(start, end, _matrix(2))


@pytest.mark.parametrize("fields, cause", [
    (dict(id="a"), "job id must be an int, got 'a'"),
    (dict(id=True), "job id must be an int, got True"),
    (dict(vm_count=0), "vm_count must be an int >= 1, got 0"),
    (dict(vm_count=2.0), "vm_count must be an int >= 1, got 2.0"),
    (dict(vm_resource=1.5), "vm_resource must be an int >= 1, got 1.5"),
    (dict(vm_resource=True), "vm_resource must be an int >= 1, got True"),
])
def test_a_job_needs_an_int_id_and_int_counts(fields, cause):
    with pytest.raises(DomainError, match=re.escape(cause)):
        Job(**{"id": 0, "vm_count": 2, **fields})


@pytest.mark.parametrize("k, server_capacity, cause", [
    (5, 2, "k must be even"), (4, 0, "server_capacity must be >= 1"),
    (4, -2, "server_capacity must be >= 1"),
])
def test_a_workload_config_checks_its_tree(k, server_capacity, cause):
    with pytest.raises(ConfigError, match=cause):
        WorkloadConfig(k=k, target_utilization=0.5, server_capacity=server_capacity)


@pytest.mark.parametrize("seed", [-1, True, 1.0, None])
def test_a_workload_draw_needs_an_int_seed_of_at_least_0(seed):
    with pytest.raises(ConfigError, match="seed must be an int >= 0"):
        generate_workload(WorkloadConfig(k=4, target_utilization=0.5), seed)


def test_jobs_and_transfers_compare_and_hash_by_value():
    def job(rate=10.0, end=1, vm_resource=1):
        return Job(id=3, vm_count=2, vm_resource=vm_resource,
                   transfers=(Transfer(0, end, _matrix(2, rate)),))

    a, b = job(), job()  # equal, with distinct matrix arrays
    assert a.transfers[0].matrix is not b.transfers[0].matrix
    assert a == b and a.transfers[0] == b.transfers[0]
    assert hash(a) == hash(b) and len({a, b}) == 1
    assert a != job(rate=10.5) and a != job(end=2) and a != job(vm_resource=2)
    assert Transfer(0, 1, _matrix(2)) != Transfer(0, 1, _matrix(3))
    assert a.transfers[0] != "transfer"
    cfg = WorkloadConfig(k=4, target_utilization=0.5)
    assert generate_workload(cfg, seed=77) == generate_workload(cfg, seed=77)
