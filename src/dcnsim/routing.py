"""Per-timeslot routing over the Fat-Tree.

Three routers share one plan format and one family of equal-cost
up-down paths:

* sp_route    - deterministic shortest paths; among the equal-cost
  candidates a fixed symmetric mix of the endpoint ids selects the agg
  position and core, the way static per-pair forwarding tables do.
* ecmp_route  - per-flow uniform random choice among the candidates.
* eer         - two phases: size a minimal active switch set from the
  traffic (ceiling plus a first-fit-decreasing feasibility pass), then
  spread whole demands over it greedily, largest first, always taking
  the path that keeps the maximum traversed load lowest.

sp and ecmp share one per-demand loop and differ only in its choice.
Demand rates arrive in Mbps; switch loads are kept in Gbps.  Every plan
lists its switches over capacity; eer treats them as errors since it
controls its own active set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import CapacityError, InfeasibleError
from .graphkit import ffd_pack
from .power import PowerParams
from .topology import TOR, FatTree

MBPS_PER_GBPS = 1000.0


@dataclass(frozen=True)
class ActiveSet:
    """Switches allowed to carry traffic in one timeslot.

    Aggregation positions are identical across pods that exchange
    cross-pod traffic, so every selected core (group = agg position)
    connects selected aggs on both sides.
    """

    positions: Mapping[int, tuple[int, ...]]  # pod -> agg positions
    cores: tuple[int, ...]
    cross_pods: frozenset[int]

    def agg_ids(self, tree: FatTree) -> set[int]:
        return {
            tree.agg_id(pod, j) for pod, js in self.positions.items() for j in js
        }

    def cores_by_group(self, tree: FatTree) -> dict[int, list[int]]:
        by_group: dict[int, list[int]] = {}
        for core in self.cores:
            group = (core - tree.core_base) // tree.half
            by_group.setdefault(group, []).append(core)
        return by_group


@dataclass(frozen=True)
class RoutingPlan:
    """Routes plus the resulting per-switch loads for one timeslot."""

    timeslot: int
    routes: tuple[tuple[int, int, float, tuple[int, ...]], ...]  # src, dst, Mbps, path
    loads: Mapping[int, float]  # switch -> Gbps
    violations: tuple[int, ...] = ()

    def rows(self) -> list[tuple[int, int, int, float, list[int]]]:
        """Flat export: (timeslot, src, dst, rate Mbps, switch path)."""
        return [
            (self.timeslot, src, dst, rate, list(path))
            for src, dst, rate, path in self.routes
        ]


def _finish_plan(timeslot, routes, loads, params):
    cap = params.max_load()
    return RoutingPlan(
        timeslot=timeslot,
        routes=tuple(routes),
        loads=loads,
        violations=tuple(sorted(sw for sw, load in loads.items() if load > cap)),
    )


def _add_path(loads, path, gbps):
    for sw in path:
        loads[sw] = loads.get(sw, 0.0) + gbps


def _route_each(demands, tree: FatTree, params, timeslot, choose) -> RoutingPlan:
    """Route every demand, in order, on the up-down path `choose` picks.

    `choose(src, dst, same_pod)` returns the agg position and the core
    index (ignored within a pod) of an inter-rack demand; a same-rack
    demand rides its ToR alone and is not offered to `choose`.
    """
    half = tree.half
    routes, loads = [], {}
    for src, dst, rate in demands:
        src_tor, dst_tor = tree.tor_of_server(src), tree.tor_of_server(dst)
        if src_tor == dst_tor:
            path = (src_tor,)
        else:
            # ToRs are numbered pod-major, k/2 per pod.
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


def sp_route(
    demands, tree: FatTree, params: PowerParams, timeslot: int = 0
) -> RoutingPlan:
    """Deterministic shortest-path routing (static forwarding tables).

    Every demand takes a hop-minimal path.  Among the equal-cost
    candidates, a fixed symmetric mix of the endpoint ids selects the
    agg position and core, the way a shortest-path computation over the
    full graph lands on one arbitrary-but-stable tie per pair: the two
    directions of a flow pair always ride the same switches, while
    different pairs fan out across positions.
    """
    half = tree.half

    def choose(src, dst, same_pod):
        key = _pair_key(src, dst)
        return key % half, (key >> 8) % half

    return _route_each(demands, tree, params, timeslot, choose)


def _pair_key(a: int, b: int) -> int:
    """Stable symmetric mix of an unordered server pair."""
    lo, hi = (a, b) if a <= b else (b, a)
    x = (lo * 0x9E3779B1 + hi * 0x85EBCA77) & 0xFFFFFFFF
    x ^= x >> 16
    x = (x * 0x045D9F3B) & 0xFFFFFFFF
    x ^= x >> 13
    return x


def ecmp_route(
    demands, tree: FatTree, seed, params: PowerParams, timeslot: int = 0
) -> RoutingPlan:
    """Equal-cost multipath: seeded uniform path choice per flow.

    Each inter-rack flow draws one index into `FatTree.candidate_paths`'
    order (position-major, then core index).  A same-rack flow has one
    candidate and draws nothing, as `integers(1)` would leave the
    generator unchanged.
    """
    rng = np.random.default_rng(seed)
    half = tree.half

    def choose(src, dst, same_pod):
        if same_pod:
            return int(rng.integers(half)), 0
        return divmod(int(rng.integers(half * half)), half)

    return _route_each(demands, tree, params, timeslot, choose)


# --- energy-efficient routing -------------------------------------------


def estimate_active_set(
    demands, tree: FatTree, params: PowerParams, extra: int = 0
) -> ActiveSet:
    """Phase one: how many switches must stay awake, and which.

    Per pod the agg count is the traffic-over-capacity ceiling, raised
    if first-fit-decreasing needs more bins to fit the unsplittable
    flows; same for the core count over the cross-pod traffic.  Pods
    with cross-pod traffic all use the same agg positions 0..n-1 so the
    selected cores connect them; cores are taken round-robin across the
    reachable groups.  `extra` widens every count (escalation retry).
    """
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
        need = int(max(-(-sum(items) // cap), len(ffd_pack(items, cap))))
        if need > tree.half:
            raise InfeasibleError(
                f"pod {pod} needs {need} aggregation switches for "
                f"{sum(items):.1f} Gbps but only has {tree.half}"
            )
        agg_need[pod] = min(tree.half, need + extra)

    n_core = 0
    if core_items:
        n_core = int(
            max(-(-sum(core_items) // cap), len(ffd_pack(core_items, cap)))
        )
        if n_core > tree.num_cores:
            raise InfeasibleError(
                f"cross-pod traffic {sum(core_items):.1f} Gbps needs {n_core} "
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

    return ActiveSet(
        positions=positions,
        cores=tuple(cores),
        cross_pods=frozenset(cross_pods),
    )


def balanced_route(
    demands, tree: FatTree, active_set: ActiveSet,
    params: PowerParams, timeslot: int = 0,
) -> RoutingPlan:
    """Phase two: spread whole demands evenly over the active switches.

    Demands go largest first; each takes the allowed candidate path that
    minimizes the resulting maximum load among its own switches (ties:
    first candidate, position-major).  Endpoint ToRs are always allowed.
    """
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


def eer(
    demands, tree: FatTree, params: PowerParams, timeslot: int = 0
) -> tuple[ActiveSet, RoutingPlan]:
    """Active-switch selection followed by balanced multipath routing.

    If the balanced pass still overloads a switch (the feasibility pass
    is a heuristic), the active set is re-estimated once with one more
    switch per layer; a plan still over capacity is a CapacityError.  An
    overloaded ToR fails at once: its load is fixed by the placement,
    not the routing.
    """
    active = estimate_active_set(demands, tree, params)
    plan = balanced_route(demands, tree, active, params, timeslot)
    tors = [sw for sw in plan.violations if tree.layer(sw) == TOR]
    if tors:
        raise InfeasibleError(
            f"placement overloads ToR switches {tors} at t={timeslot}; "
            f"no routing can relieve them"
        )
    if plan.violations:
        active = estimate_active_set(demands, tree, params, extra=1)
        plan = balanced_route(demands, tree, active, params, timeslot)
        if plan.violations:
            raise CapacityError(
                f"switches over capacity at t={timeslot}: {list(plan.violations)}",
                switches=plan.violations,
                timeslot=timeslot,
            )
    return active, plan


# Router name -> plan of one timeslot t, called (flows, tree, params, t, run
# seed).  Each entry looks its router up here when called, like
# assignment.STRATEGIES, so a replaced `sp_route` is the one that runs.
ROUTERS = {
    "sp": lambda flows, tree, params, t, seed: sp_route(flows, tree, params, t),
    "ecmp": lambda flows, tree, params, t, seed: ecmp_route(
        flows, tree, [seed, t], params, t
    ),
    "eer": lambda flows, tree, params, t, seed: eer(flows, tree, params, t)[1],
}
