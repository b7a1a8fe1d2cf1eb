"""The per-slot hot paths against the per-entry loops they replaced.

`demands_at` and `ecmp_route` must give bit-identical results to these
references: the same flows with the same Python types, and the same
routes and loads in the same order from the same seed.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dcnsim.power import PowerParams
from dcnsim.routing import MBPS_PER_GBPS, ecmp_route
from dcnsim.topology import build_fat_tree
from dcnsim.workload import Job, Transfer, demands_at

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


@SETTINGS
@given(placed_jobs())
def test_demands_match_the_per_entry_loop(case):
    jobs, assignment, t = case
    flows = demands_at(jobs, assignment, t).flows
    expected = demands_loop(jobs, assignment, t)
    assert flows == expected
    assert [tuple(map(type, f)) for f in flows] == [(int, int, float)] * len(flows)


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
