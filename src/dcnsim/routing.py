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

Every router takes a slot's DemandSet and works on whole arrays.  A
same-rack demand rides its ToR alone, so only inter-rack demands reach
a path choice: sp's pair hash and ecmp's draws are array operations,
and eer's greedy loop visits only them.  sp and ecmp share one routing
core and differ only in its choice.  Switch loads come from one ordered
bincount over every path's switches.  Demand rates arrive in Mbps;
switch loads are kept in Gbps.  Every plan lists its switches over
capacity; eer treats them as errors since it controls its own active
set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import CapacityError, InfeasibleError
from .graphkit import ffd_pack, ordered_sum
from .power import PowerParams
from .topology import TOR, FatTree
from .workload import DemandSet, pair_order

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


class RoutingPlan:
    """Per-switch loads of one timeslot and the route of every demand.

    `loads` lists each switch in the order it first carries load.  A
    router keeps its path choices as arrays, `paths` = (demands in
    routing order, hops, by_pair): row i of `hops` holds demand i's
    source ToR, up agg, core, down agg and destination ToR, -1 where its
    path has none, and the routes list the demands in routing order, or
    stably sorted by (src, dst) if `by_pair`.  `routes`, one (src, dst,
    rate Mbps, switch path) tuple per demand, is built from them when
    first read; a plan built by hand passes its routes instead.
    """

    def __init__(self, timeslot: int, loads: Mapping[int, float],
                 violations: tuple[int, ...] = (), routes=None, paths=None):
        self.timeslot = timeslot
        self.loads = loads  # switch -> Gbps
        self.violations = violations
        self._routes = routes
        self._paths = paths

    @property
    def routes(self) -> tuple[tuple[int, int, float, tuple[int, ...]], ...]:
        if self._routes is None:
            demands, hops, by_pair = self._paths
            src, dst = demands.src.tolist(), demands.dst.tolist()
            rate, hops = demands.rate.tolist(), hops.tolist()
            rows = range(len(src))
            if by_pair:
                rows = sorted(rows, key=lambda i: (src[i], dst[i]))
            self._routes = tuple(
                (src[i], dst[i], rate[i], tuple(sw for sw in hops[i] if sw >= 0))
                for i in rows
            )
        return self._routes

    def at(self, timeslot: int) -> RoutingPlan:
        """This plan for another timeslot with the same demands.

        The copy shares the loads, violations and path choices (and the
        routes, once read) instead of copying them.
        """
        return RoutingPlan(timeslot, self.loads, self.violations,
                           self._routes, self._paths)

    def rows(self) -> list[tuple[int, int, int, float, list[int]]]:
        """Flat export: (timeslot, src, dst, rate Mbps, switch path)."""
        return [
            (self.timeslot, src, dst, rate, list(path))
            for src, dst, rate, path in self.routes
        ]


def _demand_set(demands) -> DemandSet:
    """A DemandSet as given, or one of hand-built (src, dst, rate) tuples."""
    if isinstance(demands, DemandSet):
        return demands
    return DemandSet.of(demands)


def _paths(tree: FatTree, src_tor, dst_tor, position, index):
    """Every demand's up-down path as one row of five switches, -1 for none.

    A same-rack demand's path is its ToR alone.  An inter-rack demand
    goes up through agg position `position` of its pod and, across pods,
    through core `index` of that position's group.
    """
    half = tree.half
    pods = np.array((src_tor, dst_tor)) // half
    up, down = pods * half + (position + tree.agg_base)
    core = position * half + index + tree.core_base
    hops = np.array((src_tor, up, core, down, dst_tor))
    hops[1:, src_tor == dst_tor] = -1
    hops[2:4, pods[0] == pods[1]] = -1
    return hops.T


def _finish_plan(timeslot, demands, hops, params, by_pair=False):
    """Loads from one ordered bincount over every path's switches.

    `bincount` adds in input order from 0.0, so each switch's load sums
    its demands' rates in routing order, as adding them one by one would.
    """
    on_path = hops >= 0
    switches = hops[on_path]  # row by row: in routing order
    gbps = np.repeat(demands.rate / MBPS_PER_GBPS, on_path.sum(axis=1))
    sums = np.bincount(switches, weights=gbps)
    seen = list(dict.fromkeys(switches.tolist()))  # in order of first load
    return RoutingPlan(
        timeslot,
        loads=dict(zip(seen, sums[seen].tolist())),
        violations=tuple((sums > params.max_load()).nonzero()[0].tolist()),
        paths=(demands, hops, by_pair),
    )


def _route(demands, tree: FatTree, params, timeslot, choose) -> RoutingPlan:
    """Route every demand, in order, on the up-down path `choose` picks.

    `choose(src, dst, src_tor, dst_tor)` returns every demand's agg
    position and core index, which a same-rack demand (it rides its ToR
    alone) and, for the core, a same-pod demand ignore.
    """
    demands = _demand_set(demands)
    spr = tree.servers_per_rack
    src_tor, dst_tor = demands.src // spr, demands.dst // spr
    position, index = choose(demands.src, demands.dst, src_tor, dst_tor)
    hops = _paths(tree, src_tor, dst_tor, position, index)
    return _finish_plan(timeslot, demands, hops, params)


def sp_route(
    demands: DemandSet, tree: FatTree, params: PowerParams, timeslot: int = 0
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

    def choose(src, dst, src_tor, dst_tor):
        key = _pair_key(src, dst)
        return key % half, (key >> 8) % half

    return _route(demands, tree, params, timeslot, choose)


def _pair_key(a, b):
    """Stable symmetric mix of unordered server pairs (ints or arrays).

    Server ids stay below 2**15, so no product overflows int64.
    """
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    x, hi = np.minimum(a, b), np.maximum(a, b)
    x *= 0x9E3779B1
    hi *= 0x85EBCA77
    x += hi
    x &= 0xFFFFFFFF
    x ^= x >> 16
    x *= 0x045D9F3B
    x &= 0xFFFFFFFF
    x ^= x >> 13
    return x


def ecmp_route(
    demands: DemandSet, tree: FatTree, seed, params: PowerParams, timeslot: int = 0
) -> RoutingPlan:
    """Equal-cost multipath: seeded uniform path choice per flow.

    Each inter-rack flow draws one index into `FatTree.candidate_paths`'
    order (position-major, then core index), in demand order, from one
    `integers` call; it draws the same values as one call per flow.  A
    same-rack flow has one candidate and draws nothing, as `integers(1)`
    would leave the generator unchanged.
    """
    rng = np.random.default_rng(seed)
    half = tree.half

    def choose(src, dst, src_tor, dst_tor):
        same_pod = src_tor // half == dst_tor // half
        inter = src_tor != dst_tor
        draw = np.zeros(len(src), dtype=np.int64)
        draw[inter] = rng.integers(0, np.where(same_pod, half, half * half)[inter])
        return np.where(same_pod, draw, draw // half), draw % half

    return _route(demands, tree, params, timeslot, choose)


# --- energy-efficient routing -------------------------------------------


def estimate_active_set(
    demands: DemandSet, tree: FatTree, params: PowerParams, extra: int = 0
) -> ActiveSet:
    """Phase one: how many switches must stay awake, and which.

    Per pod the agg count is the traffic-over-capacity ceiling, raised
    if first-fit-decreasing needs more bins to fit the unsplittable
    flows; same for the core count over the cross-pod traffic.  Pods
    with cross-pod traffic all use the same agg positions 0..n-1 so the
    selected cores connect them; cores are taken round-robin across the
    reachable groups.  Same-rack demands need neither.  `extra` widens
    every count (escalation retry).
    """
    cap = params.capacity
    demands = _demand_set(demands)
    spr, spp = tree.servers_per_rack, tree.servers_per_pod
    keep = demands.src // spr != demands.dst // spr
    gbps = demands.rate[keep] / MBPS_PER_GBPS
    pod_items: dict[int, list[float]] = {}
    core_items: list[float] = []
    cross_pods: set[int] = set()
    for src, dst, g in zip(
        demands.src[keep].tolist(), demands.dst[keep].tolist(), gbps.tolist()
    ):
        if g > cap:
            raise InfeasibleError(
                f"demand {src}->{dst} of {g} Gbps exceeds switch capacity {cap}"
            )
        src_pod, dst_pod = src // spp, dst // spp
        pod_items.setdefault(src_pod, []).append(g)
        if src_pod != dst_pod:
            pod_items.setdefault(dst_pod, []).append(g)
            core_items.append(g)
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

    return ActiveSet(
        positions=positions,
        cores=tuple(cores),
        cross_pods=frozenset(cross_pods),
    )


def balanced_route(
    demands: DemandSet, tree: FatTree, active_set: ActiveSet,
    params: PowerParams, timeslot: int = 0,
) -> RoutingPlan:
    """Phase two: spread whole demands evenly over the active switches.

    Demands go largest first (then by src, dst); each inter-rack one
    takes the allowed candidate path that minimizes the resulting maximum
    load among its own switches (ties: first candidate, position-major).
    Endpoint ToRs are always allowed; a same-rack demand rides its ToR.
    """
    demands = _demand_set(demands)
    by_size = pair_order(demands.src, demands.dst)
    by_size = by_size[(-demands.rate[by_size]).argsort(kind="stable")]
    ordered = DemandSet(
        demands.src[by_size], demands.dst[by_size], demands.rate[by_size]
    )
    spr, half = tree.servers_per_rack, tree.half
    src_tor, dst_tor = ordered.src // spr, ordered.dst // spr
    inter = (src_tor != dst_tor).nonzero()[0]
    gbps = ordered.rate / MBPS_PER_GBPS
    tor_peaks = _tor_loads_before(src_tor, dst_tor, inter, gbps) + gbps[inter]

    cores_by_group = active_set.cores_by_group(tree)
    allowed: dict[tuple[int, int], list] = {}
    load = [0.0] * tree.num_switches  # agg and core loads so far
    positions, indexes = [], []
    for j, (from_tor, to_tor, g, tor_peak) in enumerate(zip(
        src_tor[inter].tolist(), dst_tor[inter].tolist(),
        gbps[inter].tolist(), tor_peaks.tolist(),
    )):
        pods = (from_tor // half, to_tor // half)
        candidates = allowed.get(pods)
        if candidates is None:
            candidates = allowed[pods] = _allowed_paths(
                tree, active_set, cores_by_group, *pods
            )
        if not candidates:
            i = inter[j]
            raise InfeasibleError(
                f"no active path through the aggregation layer from pod "
                f"{pods[0]} to pod {pods[1]} for demand "
                f"{ordered.src[i]}->{ordered.dst[i]}"
            )
        best, best_peak = None, None
        for candidate in candidates:
            peak = tor_peak
            for sw in candidate[2]:
                here = load[sw] + g
                if here > peak:
                    peak = here
            if best_peak is None or peak < best_peak:
                best, best_peak = candidate, peak
        position, index, switches = best
        for sw in switches:
            load[sw] += g
        positions.append(position)
        indexes.append(index)

    position, index = np.zeros((2, len(src_tor)), dtype=np.int64)
    position[inter], index[inter] = positions, indexes
    hops = _paths(tree, src_tor, dst_tor, position, index)
    return _finish_plan(timeslot, ordered, hops, params, by_pair=True)


def _tor_loads_before(src_tor, dst_tor, inter, gbps):
    """Each inter-rack demand's larger endpoint-ToR load (Gbps) before it.

    The path choice never moves a ToR's load: demand i adds its rate to
    its source ToR and, when inter-rack, to its destination ToR, in
    routing order.  A ToR takes at most one of each demand's additions,
    so laying each ToR's additions out in one row, in demand order, and
    summing every row with one sequential cumsum gives the partial sums
    that adding them one by one gives.  Since `x + g` is monotone in x,
    the larger endpoint load plus g is the larger of the two ToR peaks.
    """
    n = len(src_tor)
    if not inter.size:
        return np.empty(0)
    # Addition 2i is demand i's source ToR, 2i + 1 its destination ToR.
    adds = np.zeros((n, 2), dtype=bool)
    adds[:, 0] = True
    adds[inter, 1] = True
    adds = adds.ravel().nonzero()[0]
    tors = np.array((src_tor, dst_tor)).T.ravel()[adds]
    by_tor = tors.astype(np.uint16).argsort(kind="stable")  # ToR ids fit 16 bits
    tors, adds = tors[by_tor], adds[by_tor]
    rank = np.arange(len(tors)) - tors.searchsorted(tors)  # place in its ToR's row
    rows = np.zeros((tors[-1] + 1, rank.max() + 2))
    rows[tors, rank + 1] = gbps[adds // 2]
    rows.cumsum(axis=1, out=rows)
    before = np.zeros((n, 2))
    before.ravel()[adds] = rows[tors, rank]
    return before[inter].max(axis=1)


def _allowed_paths(tree, active_set, cores_by_group, src_pod, dst_pod):
    """(position, core index, agg and core switches) of each allowed path."""
    positions = active_set.positions.get(src_pod, ())
    if src_pod == dst_pod:
        return [(j, 0, (tree.agg_id(src_pod, j),)) for j in positions]
    shared = sorted(set(positions) & set(active_set.positions.get(dst_pod, ())))
    return [
        (
            j, (core - tree.core_base) % tree.half,
            (tree.agg_id(src_pod, j), core, tree.agg_id(dst_pod, j)),
        )
        for j in shared
        for core in cores_by_group.get(j, ())
    ]


def eer(
    demands: DemandSet, tree: FatTree, params: PowerParams, timeslot: int = 0
) -> tuple[ActiveSet, RoutingPlan]:
    """Active-switch selection followed by balanced multipath routing.

    If the balanced pass still overloads a switch (the feasibility pass
    is a heuristic), the active set is re-estimated once with one more
    switch per layer; a plan still over capacity is a CapacityError.  An
    overloaded ToR fails at once: its load is fixed by the placement,
    not the routing.
    """
    demands = _demand_set(demands)
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


# Router name -> plan of one timeslot t, called (demands, tree, params, t,
# run seed).  Each entry looks its router up here when called, like
# assignment.STRATEGIES, so a replaced `sp_route` is the one that runs.
ROUTERS = {
    "sp": lambda demands, tree, params, t, seed: sp_route(demands, tree, params, t),
    "ecmp": lambda demands, tree, params, t, seed: ecmp_route(
        demands, tree, [seed, t], params, t
    ),
    "eer": lambda demands, tree, params, t, seed: eer(demands, tree, params, t)[1],
}
# Routers whose plan depends on the timeslot, not only on its demands:
# ecmp seeds its draws with [seed, t].  Every other router gives equal
# demands the same plan, so `run_scenario` routes the first slot of a
# segment (slots with the same demands) and reuses that plan for the rest.
DRAWS_PER_SLOT = frozenset({"ecmp"})
