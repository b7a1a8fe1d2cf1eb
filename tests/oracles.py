"""Per-demand routers, rescanning first-fit and the per-slot engine loop.

Each router routes a list of (src, dst, rate) tuples one demand at a
time, in the order and with the float additions the array routers must
reproduce bit for bit.  They return `Plan`s for comparison with
`dcnsim.routing.RoutingPlan`; EER's oracles keep the active set as
explicit lists (`ListedActiveSet`), which `ListedActiveSet.of` rebuilds
from `routing.ActiveSet`'s counts.  The first-fit placements rescan the
servers from the first for every search, where `assignment` resumes a
cursor.  `run_each_slot` is `run_scenario` as it was before segments:
it builds, routes and meters every timeslot, switch by switch, with
`switch_power_each`, the power curve in Python floats.
`partition_oracle` cuts every job, building its rack graph with two
`np.ix_` gathers per pair, `shrink_oracle` merges super-VMs with nested
Python scans for each maximum, and `tree_min_cut` reads a pairwise
minimum cut off a Gomory-Hu tree.  `graph_edges` lists a graph's edges
and `cut_weight` sums the weight a partition cuts, which `min_k_cut`
does not report.  `edmonds_karp` is max-flow with
every breadth-first search run until it dequeues the sink;
`kmeans_pp_oracle` and `cluster_oracle` measure every distance with its
own `norm_distance` call, and `cluster_oracle` keeps each center as
the `np.mean` of a list of vectors.  `candidate_paths` lists a pair's
equal-cost up-down paths the way a per-pair router would; it and
`switch_neighbors` (the Fat-Tree's links, for walking it) work from the
`server_id` and `tor_id` arithmetic of `dcnsim.topology`'s identity
scheme.  `sp_segment_oracle` is sp as an array call that builds every
demand's path afresh, where `sp_route` gathers per-pair rows built once
per run; `by_size_oracle` is EER's demand order by `pair_order` and a
stable sort.  `demand_table_oracle` builds the demand table unit by
unit, reading each unit's matrix entries with its own `nonzero`, where
`demand_table` reads every unit's entries in one pass.  `power_rate`
(watts per Gbps of load) and `job_distance` (`gap_distance` of two
patterns) are helpers only tests call.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from dcnsim import simengine
from dcnsim.assignment import (
    Assignment,
    PodClusters,
    SuperVM,
    _first_fit_over,
    assign,
    shrink_to_super_vms,
)
from dcnsim.errors import CapacityError, DomainError, InfeasibleError
from dcnsim.graphkit import WeightedGraph, ffd_pack, min_k_cut, ordered_sum
from dcnsim.routing import MBPS_PER_GBPS, ROUTERS, RoutingPlan, _pair_key
from dcnsim.topology import AGG, CORE, TOR, build_fat_tree
from dcnsim.workload import (
    DIST_MAX,
    DemandSet,
    DemandTable,
    _hosts,
    _index_dtype,
    _stretches,
    demands_at,
    gap_distance,
    pair_order,
    pattern_vector,
    referential_matrix,
)


def server_id(tree, pod, rack, slot) -> int:
    return pod * tree.servers_per_pod + rack * tree.servers_per_rack + slot


def tor_id(tree, pod, rack) -> int:
    return pod * tree.half + rack


def switch_neighbors(tree, switch) -> list[int]:
    """Adjacent switches of a switch (server links not included)."""
    kind = tree.layer(switch)
    if kind == TOR:
        pod = switch // tree.half
        return [tree.agg_id(pod, j) for j in range(tree.half)]
    if kind == AGG:
        pod, position = divmod(switch - tree.agg_base, tree.half)
        tors = [tor_id(tree, pod, r) for r in range(tree.half)]
        cores = [tree.core_id(position, i) for i in range(tree.half)]
        return tors + cores
    group = (switch - tree.core_base) // tree.half
    return [tree.agg_id(pod, group) for pod in range(tree.num_pods)]


def candidate_paths(tree, src, dst) -> list[tuple[int, ...]]:
    """All equal-cost up-down paths between two distinct servers.

    Same rack -> one ToR-only path; same pod -> one path per agg
    position; cross pod -> one path per (agg position, core) pair.
    Order is deterministic: position-major, then core index.
    """
    tree.check_server(src)
    tree.check_server(dst)
    if src == dst:
        raise DomainError(f"no path between a server and itself ({src})")
    src_pod, dst_pod = tree.server_pod(src), tree.server_pod(dst)
    src_tor, dst_tor = tree.tor_of_server(src), tree.tor_of_server(dst)
    if src_tor == dst_tor:
        return [(src_tor,)]
    if src_pod == dst_pod:
        return [(src_tor, tree.agg_id(src_pod, j), dst_tor) for j in range(tree.half)]
    return [
        (src_tor, tree.agg_id(src_pod, j), tree.core_id(j, i),
         tree.agg_id(dst_pod, j), dst_tor)
        for j in range(tree.half)
        for i in range(tree.half)
    ]


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


def sp_segment_oracle(demands, tree, params, timeslot=0) -> RoutingPlan:
    """sp as one segment's array call: every demand's ToRs, pods, pair hash
    and five-switch path built afresh from its endpoints, in int64, and
    each path's hop count summed from its row."""
    if not isinstance(demands, DemandSet):
        demands = DemandSet.of(demands)
    ends = np.array((demands.src, demands.dst))
    tors, pods = tree.tor_of_server(ends), tree.server_pod(ends)
    key = _pair_key(demands.src, demands.dst)
    half = tree.half
    position, index = key % half, (key >> 8) % half
    up, down = pods * half + (position + tree.agg_base)
    core = position * half + index + tree.core_base
    hops = np.array((tors[0], up, core, down, tors[1]))
    hops[1:, tors[0] == tors[1]] = -1
    hops[2:4, pods[0] == pods[1]] = -1
    hops = hops.T
    on_path = hops >= 0
    switches = hops[on_path]
    gbps = np.repeat(demands.rate / MBPS_PER_GBPS, on_path.sum(axis=1))
    sums = np.bincount(switches, weights=gbps)
    first = np.full(len(sums), len(switches))
    np.minimum.at(first, switches, np.arange(len(switches)))
    seen = (first < len(switches)).nonzero()[0]
    seen = seen[first[seen].argsort(kind="stable")]
    return RoutingPlan(
        timeslot,
        violations=tuple((sums > params.max_load()).nonzero()[0].tolist()),
        paths=(demands, hops, False),
        switches=seen,
        gbps=sums[seen],
    )


def ecmp_oracle(demands, tree, seed, params, timeslot=0) -> Plan:
    """One scalar draw per inter-rack flow, in demand order."""
    rng = np.random.default_rng(seed)
    half = tree.half

    def choose(src, dst, same_pod):
        if same_pod:
            return int(rng.integers(half)), 0
        return divmod(int(rng.integers(half * half)), half)

    return route_each(demands, tree, params, timeslot, choose)


@dataclass(frozen=True)
class ListedActiveSet:
    """An active set as explicit lists, the oracles' own form.

    `positions` maps each pod to its awake agg positions: `estimate_oracle`
    lists the pods in order of their first item, `of` in pod order, and
    the two compare as dicts.  `cores` lists the awake core ids in the
    order the round robin takes them.
    """

    positions: dict
    cores: tuple[int, ...]

    @classmethod
    def of(cls, active, tree) -> ListedActiveSet:
        """The lists a `routing.ActiveSet` of counts stands for."""
        per_group = active.cores_per_group
        return cls(
            positions={pod: tuple(range(w)) for pod, w in active.widths.items()},
            cores=tuple(
                tree.core_id(group, index)
                for index in range(tree.half)
                for group in range(len(per_group))
                if index < per_group[group]
            ),
        )

    def switches(self, tree) -> set[int]:
        """The ids of every awake agg and core."""
        aggs = {tree.agg_id(pod, j) for pod, js in self.positions.items() for j in js}
        return aggs | set(self.cores)

    def cores_by_group(self, tree) -> dict[int, list[int]]:
        by_group: dict[int, list[int]] = {}
        for core in self.cores:
            group = (core - tree.core_base) // tree.half
            by_group.setdefault(group, []).append(core)
        return by_group


def estimate_oracle(demands, tree, params, extra=0) -> ListedActiveSet:
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
    return ListedActiveSet(positions=positions, cores=tuple(cores))


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


def by_size_oracle(src, dst, rate) -> np.ndarray:
    """EER's demand order as `pair_order` and then a stable sort of the
    negated rates, whatever the input order and however many rates tie."""
    by_pair = pair_order(src, dst)
    return by_pair[(-rate[by_pair]).argsort(kind="stable")]


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
    """`assign("greedy", ...)` with every VM's search starting from server 0."""
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
    """`assign("opt_greedy", ...)` with every search starting from server 0.

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


def _absorb(work: np.ndarray, keep: int, other: int) -> None:
    work[keep, :] += work[other, :]
    work[:, keep] += work[:, other]
    work[other, :] = 0.0
    work[:, other] = 0.0
    work[keep, keep] = 0.0


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
    return min_k_cut(graph, k), graph


def graph_edges(graph):
    """Each edge of a `WeightedGraph` once, as (u, v, weight) with u < v, by u
    and then in v's order in u's adjacency."""
    for u in range(graph.n):
        for v, w in graph.adj[u].items():
            if u < v:
                yield u, v, w


def cut_weight(graph, components) -> float:
    """The weight of the edges between components, added in `graph_edges` order."""
    label = {v: idx for idx, comp in enumerate(components) for v in comp}
    return ordered_sum(w for u, v, w in graph_edges(graph) if label[u] != label[v])


def edmonds_karp(graph, s: int, t: int):
    """`max_flow_min_cut` as plain Edmonds-Karp: every augmenting path from
    a breadth-first search that runs until it dequeues the sink."""
    if s == t:
        raise DomainError(f"source and sink coincide ({s})")
    n = graph.n
    residual = [dict(graph.adj[u]) for u in range(n)]
    flow = 0.0
    while True:
        parent = [-1] * n
        parent[s] = s
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if u == t:
                break
            for v, cap in residual[u].items():
                if cap > 1e-12 and parent[v] == -1:
                    parent[v] = u
                    queue.append(v)
        if parent[t] == -1:
            break
        bottleneck = math.inf
        v = t
        while v != s:
            u = parent[v]
            bottleneck = min(bottleneck, residual[u][v])
            v = u
        v = t
        while v != s:
            u = parent[v]
            residual[u][v] -= bottleneck
            residual[v][u] = residual[v].get(u, 0.0) + bottleneck
            v = u
        flow += bottleneck
    source_side = {u for u in range(n) if parent[u] != -1}
    return flow, source_side


def norm_distance(a, b) -> float:
    """Euclidean distance by one pairwise sum of squares per pair."""
    gap = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return math.sqrt(np.add.reduce(gap * gap))


def kmeans_pp_oracle(vectors, k: int, seed=None) -> list[int]:
    """`kmeans_pp_seed` measuring every distance with `norm_distance`."""
    n = len(vectors)
    if not (1 <= k <= n):
        raise DomainError(f"k must be within [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(n))]
    best = [norm_distance(vectors[i], vectors[chosen[0]]) for i in range(n)]
    while len(chosen) < k:
        weights = np.array(
            [0.0 if i in chosen else best[i] ** 2 for i in range(n)], dtype=float
        )
        total = weights.sum()
        if total > 0:
            pick = int(rng.choice(n, p=weights / total))
        else:
            remaining = [i for i in range(n) if i not in chosen]
            pick = int(remaining[rng.integers(len(remaining))])
        chosen.append(pick)
        for i in range(n):
            d = norm_distance(vectors[i], vectors[pick])
            if d < best[i]:
                best[i] = d
    return chosen


def cluster_oracle(jobs, n_pods, pod_slot_capacity, horizon, seed=None):
    """`cluster_jobs` with per-pair `norm_distance` distances and each
    center the `np.mean` of a list of its members' vectors.

    Returns (PodClusters, every job-to-center distance in the order the
    assignment loop measures them).
    """
    distances = []
    if not jobs:
        return PodClusters(clusters=[[] for _ in range(n_pods)], overflow=[]), distances
    vectors = [pattern_vector(job, horizon) for job in jobs]
    seed_positions = kmeans_pp_oracle(vectors, n_pods, seed=seed)
    clusters = [[jobs[p].id] for p in seed_positions]
    centers = [vectors[p] for p in seed_positions]
    member_vecs = [[vectors[p]] for p in seed_positions]
    loads = [jobs[p].slots for p in seed_positions]
    seeded = set(seed_positions)
    remaining = [i for i in range(len(jobs)) if i not in seeded]
    remaining.sort(key=lambda i: (-jobs[i].slots, jobs[i].id))
    overflow = []
    for i in remaining:
        job = jobs[i]
        feasible = [
            c for c in range(n_pods) if loads[c] + job.slots <= pod_slot_capacity
        ]
        if not feasible:
            overflow.append(job.id)
            continue

        def distance(c):
            norm = norm_distance(vectors[i], centers[c])
            distances.append(DIST_MAX if norm == 0.0 else 1.0 / norm)
            return distances[-1]

        _, best = min((distance(c), c) for c in feasible)
        clusters[best].append(job.id)
        member_vecs[best].append(vectors[i])
        loads[best] += job.slots
        centers[best] = np.mean(member_vecs[best], axis=0)
    return PodClusters(clusters=clusters, overflow=overflow), distances


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


def switch_power_each(load, params) -> float:
    """One switch's watts at `load` Gbps, in Python floats; 0.0 at no load."""
    if load == 0:
        return 0.0
    return params.sigma + params.mu * load**params.alpha


def power_rate(load: float, params) -> float:
    """Watts consumed per Gbps of load; undefined at zero load."""
    if load <= 0:
        raise DomainError(f"power rate undefined for load {load}")
    return switch_power_each(load, params) / load


def job_distance(v1, v2) -> float:
    """Inverse L2 separation: similar patterns sit at a large distance."""
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    if v1.shape != v2.shape:
        raise DomainError(f"pattern length mismatch: {v1.shape} vs {v2.shape}")
    return float(gap_distance(np.ravel(v1 - v2)[None])[0])


def run_each_slot(scenario, jobs=None, on_plan=None):
    """The report `run_scenario` gives, from demands and a plan per slot.

    Its `runtime_ms` is 0.0; compare reports by `fingerprint()`.
    """
    tree = build_fat_tree(scenario.k, server_capacity=scenario.server_capacity)
    jobs = simengine._resolve_workload(scenario, jobs)
    simengine._check_jobs(jobs, scenario.horizon)
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
        plan = route([demands_at(jobs, placement.placements, t)], tree, params, [t],
                     scenario.seed)[0]
        if plan.violations:
            violations[t] = plan.violations
        if on_plan is not None:
            on_plan(plan)
        watts = 0.0
        for sw, load in plan.loads.items():
            p = switch_power_each(load, params)
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


def demand_table_oracle(jobs, assignment) -> DemandTable:
    """`workload.demand_table` built unit by unit: each unit's rows are its
    matrix's `nonzero` entries off a shared server, row-major, written into
    preallocated compact arrays in the order they are built."""
    starts, ends, units = [], [], []
    for job in jobs:
        hosts = _hosts(job, assignment)
        for first, last in _stretches(job):
            matrix = job.traffic_at(first)
            sent = matrix > 0
            sent &= hosts[:, None] != hosts
            starts.append(first)
            ends.append(last)
            units.append((hosts, matrix, sent))
    size = np.array([np.count_nonzero(sent) for _, _, sent in units], dtype=np.int64)
    rows = int(size.sum())
    src = np.empty(rows, dtype=np.uint16)
    dst = np.empty(rows, dtype=np.uint16)
    rate = np.empty(rows)
    begin = 0
    for hosts, matrix, sent in units:
        row, col = sent.nonzero()
        stop = begin + len(row)
        src[begin:stop] = hosts[row]
        dst[begin:stop] = hosts[col]
        rate[begin:stop] = matrix[row, col]
        begin = stop
    order = pair_order(src, dst)
    src, dst = src[order], dst[order]
    first = np.empty(rows, dtype=bool)
    first[:1] = True
    first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    heads = first.nonzero()[0]
    pair = np.empty(rows, dtype=_index_dtype(len(heads)))
    pair[order] = np.arange(len(heads), dtype=pair.dtype).repeat(
        np.diff(heads, append=rows))
    return DemandTable(
        np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64), size,
        src[heads], dst[heads], pair, rate,
    )
