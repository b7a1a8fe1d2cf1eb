"""Per-demand routers, rescanning first-fit and the per-slot engine loop.

Each router routes a list of (src, dst, rate) tuples one demand at a
time, in the order and with the float additions the array routers must
reproduce bit for bit.  They return `Plan`s for comparison with
`dcnsim.routing.RoutingPlan`.  The first-fit placements rescan the
servers from the first for every search, where `assignment` resumes a
cursor.  `run_each_slot` is `run_scenario` as it was before segments:
it builds, routes and meters every timeslot.  `partition_oracle` cuts
every job, building its rack graph with two `np.ix_` gathers per pair,
`shrink_oracle` merges super-VMs with nested Python scans for each
maximum, and `tree_min_cut` reads a pairwise minimum cut off a
Gomory-Hu tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dcnsim import simengine
from dcnsim.assignment import (
    Assignment,
    SuperVM,
    _absorb,
    _first_fit_over,
    assign,
    shrink_to_super_vms,
)
from dcnsim.errors import CapacityError, DomainError, InfeasibleError
from dcnsim.graphkit import WeightedGraph, ffd_pack, min_k_cut, ordered_sum
from dcnsim.power import switch_power
from dcnsim.routing import MBPS_PER_GBPS, ROUTERS, ActiveSet, _pair_key
from dcnsim.topology import AGG, CORE, TOR, build_fat_tree
from dcnsim.workload import demands_at, referential_matrix


@dataclass
class Plan:
    timeslot: int
    routes: tuple
    loads: dict
    violations: tuple


def _finish_plan(timeslot, routes, loads, params):
    cap = params.max_load()
    return Plan(
        timeslot=timeslot,
        routes=tuple(routes),
        loads=loads,
        violations=tuple(sorted(sw for sw, load in loads.items() if load > cap)),
    )


def _add_path(loads, path, gbps):
    for sw in path:
        loads[sw] = loads.get(sw, 0.0) + gbps


def route_each(demands, tree, params, timeslot, choose) -> Plan:
    """Route every demand, in order, on the up-down path `choose` picks."""
    half = tree.half
    routes, loads = [], {}
    for src, dst, rate in demands:
        src_tor, dst_tor = tree.tor_of_server(src), tree.tor_of_server(dst)
        if src_tor == dst_tor:
            path = (src_tor,)
        else:
            src_pod, dst_pod = src_tor // half, dst_tor // half
            position, index = choose(src, dst, src_pod == dst_pod)
            up = tree.agg_id(src_pod, position)
            if src_pod == dst_pod:
                path = (src_tor, up, dst_tor)
            else:
                core = tree.core_id(position, index)
                path = (src_tor, up, core, tree.agg_id(dst_pod, position), dst_tor)
        routes.append((src, dst, rate, path))
        _add_path(loads, path, rate / MBPS_PER_GBPS)
    return _finish_plan(timeslot, routes, loads, params)


def sp_oracle(demands, tree, params, timeslot=0) -> Plan:
    half = tree.half

    def choose(src, dst, same_pod):
        key = int(_pair_key(src, dst))
        return key % half, (key >> 8) % half

    return route_each(demands, tree, params, timeslot, choose)


def ecmp_oracle(demands, tree, seed, params, timeslot=0) -> Plan:
    """One scalar draw per inter-rack flow, in demand order."""
    rng = np.random.default_rng(seed)
    half = tree.half

    def choose(src, dst, same_pod):
        if same_pod:
            return int(rng.integers(half)), 0
        return divmod(int(rng.integers(half * half)), half)

    return route_each(demands, tree, params, timeslot, choose)


def estimate_oracle(demands, tree, params, extra=0) -> ActiveSet:
    cap = params.capacity
    pod_items: dict[int, list[float]] = {}
    core_items: list[float] = []
    cross_pods: set[int] = set()
    for src, dst, rate in demands:
        if tree.tor_of_server(src) == tree.tor_of_server(dst):
            continue
        gbps = rate / MBPS_PER_GBPS
        if gbps > cap:
            raise InfeasibleError(
                f"demand {src}->{dst} of {gbps} Gbps exceeds switch capacity {cap}"
            )
        src_pod, dst_pod = tree.server_pod(src), tree.server_pod(dst)
        pod_items.setdefault(src_pod, []).append(gbps)
        if src_pod != dst_pod:
            pod_items.setdefault(dst_pod, []).append(gbps)
            core_items.append(gbps)
            cross_pods.update((src_pod, dst_pod))

    agg_need: dict[int, int] = {}
    for pod, items in pod_items.items():
        total = ordered_sum(items)
        need = int(max(-(-total // cap), len(ffd_pack(items, cap))))
        if need > tree.half:
            raise InfeasibleError(
                f"pod {pod} needs {need} aggregation switches for "
                f"{total:.1f} Gbps but only has {tree.half}"
            )
        agg_need[pod] = min(tree.half, need + extra)

    n_core = 0
    if core_items:
        total = ordered_sum(core_items)
        n_core = int(max(-(-total // cap), len(ffd_pack(core_items, cap))))
        if n_core > tree.num_cores:
            raise InfeasibleError(
                f"cross-pod traffic {total:.1f} Gbps needs {n_core} "
                f"cores but only {tree.num_cores} exist"
            )
        n_core = min(tree.num_cores, n_core + extra)

    shared = max((agg_need[p] for p in cross_pods), default=0)
    positions = {}
    for pod, need in agg_need.items():
        width = max(need, shared) if pod in cross_pods else need
        positions[pod] = tuple(range(width))

    cores = []
    if n_core:
        groups = max(shared, 1)
        for index in range(tree.half):
            for group in range(groups):
                if len(cores) < n_core:
                    cores.append(tree.core_id(group, index))
        if len(cores) < n_core:
            raise InfeasibleError(
                f"need {n_core} cores but only {len(cores)} are reachable from "
                f"{groups} agg positions"
            )
    return ActiveSet(positions=positions, cores=tuple(cores),
                     cross_pods=frozenset(cross_pods))


def _allowed_paths(tree, active_set, cores_by_group, src, dst):
    src_tor, dst_tor = tree.tor_of_server(src), tree.tor_of_server(dst)
    if src_tor == dst_tor:
        return [(src_tor,)]
    src_pod, dst_pod = tree.server_pod(src), tree.server_pod(dst)
    positions = active_set.positions.get(src_pod, ())
    if src_pod == dst_pod:
        paths = [(src_tor, tree.agg_id(src_pod, j), dst_tor) for j in positions]
    else:
        shared = sorted(set(positions) & set(active_set.positions.get(dst_pod, ())))
        paths = [
            (src_tor, tree.agg_id(src_pod, j), core, tree.agg_id(dst_pod, j), dst_tor)
            for j in shared
            for core in cores_by_group.get(j, ())
        ]
    if not paths:
        raise InfeasibleError(
            f"no active path through the aggregation layer from pod {src_pod} "
            f"to pod {dst_pod} for demand {src}->{dst}"
        )
    return paths


def balanced_oracle(demands, tree, active_set, params, timeslot=0) -> Plan:
    """Largest first; each demand takes the candidate with the lowest peak."""
    cores_by_group = active_set.cores_by_group(tree)
    ordered = sorted(demands, key=lambda d: (-d[2], d[0], d[1]))
    routes, loads = [], {}
    for src, dst, rate in ordered:
        candidates = _allowed_paths(tree, active_set, cores_by_group, src, dst)
        gbps = rate / MBPS_PER_GBPS
        best, best_peak = None, None
        for path in candidates:
            peak = max(loads.get(sw, 0.0) + gbps for sw in path)
            if best_peak is None or peak < best_peak:
                best, best_peak = path, peak
        routes.append((src, dst, rate, best))
        _add_path(loads, best, gbps)
    routes.sort(key=lambda r: (r[0], r[1]))
    return _finish_plan(timeslot, routes, loads, params)


def eer_oracle(demands, tree, params, timeslot=0, on_estimate=None):
    """(active set, plan); `on_estimate(extra)` hears of every estimate."""
    def estimate(extra):
        if on_estimate is not None:
            on_estimate(extra)
        return estimate_oracle(demands, tree, params, extra=extra)

    active = estimate(0)
    plan = balanced_oracle(demands, tree, active, params, timeslot)
    tors = [sw for sw in plan.violations if tree.layer(sw) == TOR]
    if tors:
        raise InfeasibleError(
            f"placement overloads ToR switches {tors} at t={timeslot}; "
            f"no routing can relieve them"
        )
    if plan.violations:
        active = estimate(1)
        plan = balanced_oracle(demands, tree, active, params, timeslot)
        if plan.violations:
            raise CapacityError(
                f"switches over capacity at t={timeslot}: {list(plan.violations)}",
                switches=plan.violations,
                timeslot=timeslot,
            )
    return active, plan


def first_fit_server(servers, free, size: int):
    """The first of `servers` with `size` free slots, or None: a full rescan."""
    for server in servers:
        if free[server] >= size:
            return server
    return None


class RescanFirstFit:
    """`assignment._FirstFit` that rescans its whole order on every search."""

    def __init__(self, servers, free):
        self.servers = list(servers)
        self.free = free

    def server(self, size: int):
        return first_fit_server(self.servers, self.free, size)


def greedy_oracle(jobs, tree) -> Assignment:
    """`greedy_assign` with every VM's search starting from server 0."""
    free = _first_fit_over(jobs, tree).free
    placements = {}
    for job in jobs:
        for m in range(job.vm_count):
            server = first_fit_server(range(tree.num_servers), free, job.vm_resource)
            if server is None:
                raise InfeasibleError(f"no server can host job {job.id} VM {m}")
            placements[(job.id, m)] = server
            free[server] -= job.vm_resource
    return Assignment(placements)


def opt_greedy_oracle(jobs, tree) -> Assignment:
    """`opt_greedy_assign` with every search starting from server 0.

    A super-VM no server has room for falls back to placing its VMs one
    by one.
    """
    servers = range(tree.num_servers)
    free = _first_fit_over(jobs, tree).free
    placements = {}
    for job in jobs:
        for unit in shrink_to_super_vms(job, tree.server_capacity):
            server = first_fit_server(servers, free, unit.size)
            if server is not None:
                for m in unit.members:
                    placements[(job.id, m)] = server
                free[server] -= unit.size
                continue
            for m in unit.members:
                server = first_fit_server(servers, free, job.vm_resource)
                if server is None:
                    raise InfeasibleError(f"no server can host job {job.id} VM {m}")
                placements[(job.id, m)] = server
                free[server] -= job.vm_resource
    return Assignment(placements)


def shrink_oracle(job, server_slot_capacity: int) -> list[SuperVM]:
    """`shrink_to_super_vms` with nested Python scans for every maximum.

    Each scan walks the live VMs in index order and keeps the first
    strictly larger value, so ties go to the lowest index, row-major.
    """
    if server_slot_capacity < 1:
        raise DomainError("server capacity must be >= 1")
    n = job.vm_count
    max_members = server_slot_capacity // job.vm_resource
    if max_members <= 1:
        return [SuperVM(job.id, (m,), job.vm_resource) for m in range(n)]

    work = referential_matrix(job).copy()
    alive = set(range(n))
    groups: list[list[int]] = []
    while len(alive) >= 2:
        order = sorted(alive)
        m1, m2, best = -1, -1, -math.inf
        for a in order:
            for b in order:
                if a != b and work[a, b] > best:
                    m1, m2, best = a, b, work[a, b]
        group = [m1, m2]
        _absorb(work, m1, m2)
        alive.discard(m2)
        while len(group) < max_members and len(alive) >= 2:
            target, best = -1, -math.inf
            for b in sorted(alive):
                if b != m1 and work[m1, b] > best:
                    target, best = b, work[m1, b]
            group.append(target)
            _absorb(work, m1, target)
            alive.discard(target)
        alive.discard(m1)
        groups.append(sorted(group))
    for leftover in sorted(alive):
        groups.append([leftover])
    return [
        SuperVM(job.id, tuple(g), len(g) * job.vm_resource) for g in groups
    ]


def partition_oracle(super_vms, t_ref, k_racks):
    """`partition_into_racks` that cuts every job with two or more groups.

    The rack graph takes two `np.ix_` blocks of `t_ref` per unit pair.
    Returns (groups, the graph it cut or None).
    """
    if k_racks < 1:
        raise DomainError("k_racks must be >= 1")
    count = len(super_vms)
    if count == 0:
        return [], None
    k = min(k_racks, count)
    if k == 1:
        return [list(range(count))], None
    graph = WeightedGraph(count)
    for a in range(count):
        rows = list(super_vms[a].members)
        for b in range(a + 1, count):
            cols = list(super_vms[b].members)
            w = float(t_ref[np.ix_(rows, cols)].sum() + t_ref[np.ix_(cols, rows)].sum())
            if w > 0:
                graph.add_edge(a, b, w)
    components, _ = min_k_cut(graph, k)
    return components, graph


def tree_min_cut(tree, u: int, v: int) -> float:
    """Minimum u-v cut of the source graph: the lightest edge on the tree path."""
    if u == v:
        raise DomainError(f"min cut undefined for identical vertices ({u})")

    def path_to_root(node):
        path = [node]
        while tree.parent[path[-1]] >= 0:
            path.append(tree.parent[path[-1]])
        return path

    up, vp = path_to_root(u), path_to_root(v)
    on_up = {node: i for i, node in enumerate(up)}
    meet = next(node for node in vp if node in on_up)
    cut = math.inf
    for node in up[: on_up[meet]]:
        cut = min(cut, tree.weight[node])
    for node in vp:
        if node == meet:
            break
        cut = min(cut, tree.weight[node])
    return cut


def run_each_slot(scenario, jobs=None, on_plan=None):
    """The report `run_scenario` gives, from demands and a plan per slot.

    Its `runtime_ms` is 0.0; compare reports by `fingerprint()`.
    """
    tree = build_fat_tree(scenario.k, server_capacity=scenario.server_capacity)
    jobs = simengine._resolve_workload(scenario, jobs)
    simengine._check_windows(jobs, scenario.horizon)
    params = scenario.power
    placement = assign(
        scenario.assign_strategy, jobs, tree,
        seed=scenario.seed, horizon=scenario.horizon,
    )
    placement.validate(jobs, tree)
    route = ROUTERS[scenario.route_strategy]

    per_slot_watts, active_counts, violations = [], [], {}
    layer_totals = {TOR: 0.0, AGG: 0.0, CORE: 0.0}
    for t in range(scenario.horizon):
        plan = route(demands_at(jobs, placement, t), tree, params, t, scenario.seed)
        if plan.violations:
            violations[t] = plan.violations
        if on_plan is not None:
            on_plan(plan)
        watts = 0.0
        for sw, load in plan.loads.items():
            p = switch_power(load, params, check=False)
            watts += p
            layer_totals[tree.layer(sw)] += p
        per_slot_watts.append(watts)
        active_counts.append(sum(1 for load in plan.loads.values() if load > 0))
    return simengine.EnergyReport(
        scenario=scenario.describe(),
        total_energy_wt=float(ordered_sum(per_slot_watts)),
        per_timeslot_watts=tuple(per_slot_watts),
        layer_breakdown={layer: float(v) for layer, v in layer_totals.items()},
        active_switches=tuple(active_counts),
        runtime_ms=0.0,
        violations=violations,
    )
