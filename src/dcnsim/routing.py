"""Per-timeslot routing over the Fat-Tree.

Three routers share one plan format and one family of equal-cost
up-down paths:

* sp_route    - deterministic shortest paths; among the equal-cost
  candidates a fixed symmetric mix of the endpoint ids selects the agg
  position and core, the way static per-pair forwarding tables do.
* ecmp_route  - per-flow uniform random choice among the candidates,
  ordered position-major, then by core index.
* eer         - two phases: size a minimal active switch set from the
  traffic (ceiling plus a first-fit-decreasing feasibility pass), then
  spread whole demands over it greedily, largest first, always taking
  the path that keeps the maximum traversed load lowest.

Every router takes a slot's DemandSet and works on whole arrays.  A
set not read from a run's demand table is checked first: a server
outside the tree or a negative or non-finite rate is a DomainError.
A same-rack demand rides its ToR alone, so only inter-rack demands
reach a path choice.  Every path is one row of five switch ids, -1
where it has none.

sp's path is a pure function of the server pair, so it builds one row
per pair of the run's demand table, once per run, and each slot
gathers its pairs' rows by pair id (`DemandSet.pair_rows`).  ecmp and
eer read each demand's ToR and pod off the tree in every slot
(`FatTree.tor_of_server` and `FatTree.server_pod`, one call each over
all endpoints): ecmp's draws are per slot, and eer's choices depend on
the slot's loads.  eer sizes its active set with ordered bincounts, and
calls the first-fit-decreasing packer only for a pod or core layer
whose flows do not fit one switch.  Its active set is counts, so each
demand's number of allowed paths is array arithmetic; a forced demand
(one path) takes agg position 0 and core index 0, and the greedy loop
runs only when some demand has a choice.  It orders demands largest
first with numpy's default sort and sorts stably only when two rates
tie, since without ties every sort gives the stable order.

Switch loads come from one ordered bincount over every path's
switches; a plan keeps them as two arrays, switch ids in order of first
load and their Gbps, and builds the switch -> load dict, like the
routes, only when read.  Demand rates arrive in Mbps; switch loads are
kept in Gbps.  Every plan lists its switches over capacity; eer treats
them as errors since it controls its own active set.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import CapacityError, DomainError, InfeasibleError
from .graphkit import ffd_one_bin, ffd_pack
from .power import PowerParams
from .topology import TOR, FatTree
from .workload import DemandSet, pair_order

MBPS_PER_GBPS = 1000.0


@dataclass(frozen=True)
class ActiveSet:
    """Switches allowed to carry traffic in one timeslot, as counts.

    Pod p keeps agg positions 0..widths[p]-1 awake (a pod not listed
    keeps none), and core group j, the cores behind agg position j,
    keeps core indices 0..cores_per_group[j]-1 awake.
    `estimate_active_set` gives every pod with cross-pod traffic the
    same width, so every awake core connects awake aggs on both sides.
    """

    widths: Mapping[int, int]  # pod -> awake agg positions
    cores_per_group: tuple[int, ...]  # agg position -> awake core indices

    def paths(self, tree: FatTree, src_pod: int, dst_pod: int):
        """(position, core index, agg and core switches) of each allowed path.

        Across pods, position j must be awake in both pods.  The paths
        come position-major, then by core index.
        """
        width = self.widths.get(src_pod, 0)
        if src_pod == dst_pod:
            return [(j, 0, (tree.agg_id(src_pod, j),)) for j in range(width)]
        shared = min(width, self.widths.get(dst_pod, 0))
        return [
            (
                j, i,
                (tree.agg_id(src_pod, j), tree.core_id(j, i), tree.agg_id(dst_pod, j)),
            )
            for j, cores in enumerate(self.cores_per_group[:shared])
            for i in range(cores)
        ]


class RoutingPlan:
    """Per-switch loads of one timeslot and the route of every demand.

    `switches` and `gbps` are arrays: every switch on some demand's path,
    in the order it first carries load, and its load in Gbps (0.0 for a
    switch whose demands' rates all round to nothing).  `loads`, the
    dict switch -> Gbps in that order, is built from them when first
    read.  A router keeps its path choices as arrays, `paths` = (demands
    in routing order, hops, by_pair): row i of `hops` holds demand i's
    source ToR, up agg, core, down agg and destination ToR, -1 where its
    path has none, and the routes list the demands in routing order, or
    stably sorted by (src, dst) if `by_pair`.  `routes`, one (src, dst,
    rate Mbps, switch path) tuple per demand, is built from them when
    first read.  A plan built by hand passes its `loads` dict and its
    routes instead.
    """

    def __init__(self, timeslot: int, loads: Mapping[int, float] | None = None,
                 violations: tuple[int, ...] = (), routes=None, paths=None,
                 switches=None, gbps=None):
        self.timeslot = timeslot
        if loads is not None:
            switches = np.fromiter(loads, dtype=np.int64, count=len(loads))
            gbps = np.fromiter(loads.values(), dtype=float, count=len(loads))
        self.switches = switches  # int64 switch ids, in order of first load
        self.gbps = gbps  # each switch's load in Gbps
        self.violations = violations
        self._loads = loads
        self._routes = routes
        self._paths = paths

    @property
    def loads(self) -> Mapping[int, float]:
        if self._loads is None:
            self._loads = dict(zip(self.switches.tolist(), self.gbps.tolist()))
        return self._loads

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

        The copy shares the load arrays, violations and path choices
        (and the loads and routes, once read) instead of copying them.
        """
        plan = copy.copy(self)
        plan.timeslot = timeslot
        return plan

    def rows(self) -> list[tuple[int, int, int, float, list[int]]]:
        """Flat export: (timeslot, src, dst, rate Mbps, switch path)."""
        return [
            (self.timeslot, src, dst, rate, list(path))
            for src, dst, rate, path in self.routes
        ]


def _demand_set(demands, tree: FatTree) -> DemandSet:
    """A DemandSet as given, or one of hand-built (src, dst, rate) tuples.

    A set not read from a run's demand table is checked first: a server
    outside the tree, or a negative or non-finite rate, is a DomainError
    naming the first demand that has one.  A table's sets are valid by
    construction.
    """
    if not isinstance(demands, DemandSet):
        demands = DemandSet.of(demands)
    if demands.table is not None:
        return demands
    ends = np.array((demands.src, demands.dst))
    outside = ((ends < 0) | (ends >= tree.num_servers)).any(axis=0)
    bad = outside | ~(np.isfinite(demands.rate) & (demands.rate >= 0))
    if bad.any():
        i = int(bad.argmax())
        src, dst = ends[:, i].tolist()
        rate = float(demands.rate[i])
        what = f"demand {i} ({src}->{dst}, {rate} Mbps)"
        if outside[i]:
            server = src if not 0 <= src < tree.num_servers else dst
            raise DomainError(
                f"{what}: server {server} is not one of the tree's "
                f"{tree.num_servers} servers"
            )
        if rate < 0:
            raise DomainError(f"{what} has negative size")
        raise DomainError(f"{what} has a non-finite rate")
    return demands


def _ends(tree: FatTree, demands: DemandSet):
    """Every demand's (source, destination) ToRs and pods, as two-row arrays."""
    ends = np.array((demands.src, demands.dst))
    return tree.tor_of_server(ends), tree.server_pod(ends)


def _paths(tree: FatTree, tors, pods, position, index):
    """Every demand's up-down path as one row of five switches, -1 for none.

    A same-rack demand's path is its ToR alone.  An inter-rack demand
    goes up through agg position `position` of its pod and, across pods,
    through core `index` of that position's group.
    """
    half = tree.half
    up, down = pods * half + (position + tree.agg_base)
    core = position * half + index + tree.core_base
    hops = np.array((tors[0], up, core, down, tors[1]))
    hops[1:, tors[0] == tors[1]] = -1
    hops[2:4, pods[0] == pods[1]] = -1
    return hops.T


def _finish_plan(timeslot, demands, hops, params, by_pair=False):
    """Loads from one ordered bincount over every path's switches.

    `bincount` adds in input order from 0.0, so each switch's load sums
    its demands' rates in routing order, as adding them one by one would.
    The plan lists the switches in order of first load: each switch's
    first position in the path sequence, found by `minimum.at`, and
    those distinct positions sorted.
    """
    switches = hops[hops >= 0]  # row by row: in routing order
    # 1, 3 or 5 hops: a same-rack path has no up agg, a same-pod one no core.
    hop_count = 1 + 2 * (hops[:, 1] >= 0) + 2 * (hops[:, 2] >= 0)
    gbps = np.repeat(demands.rate / MBPS_PER_GBPS, hop_count)
    sums = np.bincount(switches, weights=gbps)
    first = np.full(len(sums), len(switches))
    np.minimum.at(first, switches, np.arange(len(switches)))
    seen = (first < len(switches)).nonzero()[0]
    seen = seen[first[seen].argsort(kind="stable")]
    return RoutingPlan(
        timeslot,
        violations=tuple((sums > params.max_load()).nonzero()[0].tolist()),
        paths=(demands, hops, by_pair),
        switches=seen,
        gbps=sums[seen],
    )


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

    The path is a pure function of the server pair, so a set read from
    a run's demand table gathers its pairs' rows, built once per run
    (`DemandSet.pair_rows`); a hand-built set builds its own.
    """
    demands = _demand_set(demands, tree)
    hops = demands.pair_rows(("sp", tree.k), functools.partial(_sp_paths, tree))
    return _finish_plan(timeslot, demands, hops, params)


def _sp_paths(tree: FatTree, src, dst):
    """sp's path of each server pair: `_paths` rows of int16 switch ids."""
    ends = np.array((src, dst), dtype=np.int64)
    key = _pair_key(src, dst)
    half = tree.half
    hops = _paths(tree, tree.tor_of_server(ends), tree.server_pod(ends),
                  key % half, (key >> 8) % half)
    return hops.astype(np.int16, order="C")


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

    Each inter-rack flow draws one index into its equal-cost paths,
    ordered position-major, then by core index, in demand order, from
    one `integers` call; it draws the same values as one call per flow.
    A same-rack flow has one candidate and draws nothing, as
    `integers(1)` would leave the generator unchanged.
    """
    demands = _demand_set(demands, tree)
    rng = np.random.default_rng(seed)
    half = tree.half
    tors, pods = _ends(tree, demands)
    same_pod = pods[0] == pods[1]
    inter = tors[0] != tors[1]
    draw = np.zeros(len(demands.src), dtype=np.int64)
    draw[inter] = rng.integers(0, np.where(same_pod, half, half * half)[inter])
    position = np.where(same_pod, draw, draw // half)
    hops = _paths(tree, tors, pods, position, draw % half)
    return _finish_plan(timeslot, demands, hops, params)


# --- energy-efficient routing -------------------------------------------


def estimate_active_set(
    demands: DemandSet, tree: FatTree, params: PowerParams, extra: int = 0
) -> ActiveSet:
    """Phase one: how many switches must stay awake, and which.

    Per pod the agg count is the traffic-over-capacity ceiling, raised
    if first-fit-decreasing needs more bins to fit the unsplittable
    flows; same for the core count over the cross-pod traffic.  Pods
    with cross-pod traffic all keep the largest of their agg counts, n,
    so the awake cores connect them; the cores are dealt round-robin
    over the n groups.  Same-rack demands need neither.  `extra` widens
    every count (escalation retry).

    Each layer's total is one ordered bincount over the inter-rack
    demands' items, in the order the flows join each pod's list and the
    core's, so it adds what a left-to-right sum of those lists adds.
    `ffd_one_bin` decides exactly when FFD needs one bin; only the other
    layers are packed by `ffd_pack`.
    """
    cap = params.capacity
    demands = _demand_set(demands, tree)
    tors, pods = _ends(tree, demands)
    keep = tors[0] != tors[1]
    gbps = demands.rate[keep] / MBPS_PER_GBPS
    over = gbps > cap
    if over.any():
        i = int(over.argmax())
        src, dst = demands.src[keep][i], demands.dst[keep][i]
        raise InfeasibleError(
            f"demand {int(src)}->{int(dst)} of {float(gbps[i])} Gbps "
            f"exceeds switch capacity {cap}"
        )
    # Each demand's items, as (row, size): its source pod's, then, across
    # pods, its destination pod's and the core's (row num_pods), so every
    # row lists its items in demand order.
    src_pod, dst_pod = pods[:, keep]
    cross = src_pod != dst_pod
    rows = np.array((src_pod, dst_pod, src_pod))
    rows[2] = core_row = tree.num_pods
    rows = rows.T[cross[:, None] | [True, False, False]]
    sizes = gbps.repeat(np.where(cross, 3, 1))
    totals = np.bincount(rows, weights=sizes, minlength=core_row + 1).tolist()
    one_bin = ffd_one_bin(rows, sizes, cap, core_row + 1).tolist()

    def needed(row):
        bins = 1 if one_bin[row] else len(ffd_pack(sizes[rows == row].tolist(), cap))
        return int(max(-(-totals[row] // cap), bins))

    agg_need: dict[int, int] = {}
    for pod in dict.fromkeys(rows.tolist()):  # in order of first item
        if pod == core_row:
            continue
        n_agg = needed(pod)
        if n_agg > tree.half:
            raise InfeasibleError(
                f"pod {pod} needs {n_agg} aggregation switches for "
                f"{totals[pod]:.1f} Gbps but only has {tree.half}"
            )
        agg_need[pod] = min(tree.half, n_agg + extra)

    n_core = 0
    if cross.any():
        n_core = needed(core_row)
        if n_core > tree.num_cores:
            raise InfeasibleError(
                f"cross-pod traffic {totals[core_row]:.1f} Gbps needs "
                f"{n_core} cores but only {tree.num_cores} exist"
            )
        n_core = min(tree.num_cores, n_core + extra)

    cross_pods = set(np.concatenate((src_pod[cross], dst_pod[cross])).tolist())
    shared = max((agg_need[p] for p in cross_pods), default=0)
    widths = {
        pod: max(need, shared) if pod in cross_pods else need
        for pod, need in agg_need.items()
    }
    cores_per_group = ()
    if n_core:
        groups = max(shared, 1)
        if n_core > groups * tree.half:
            raise InfeasibleError(
                f"need {n_core} cores but only {groups * tree.half} are reachable "
                f"from {groups} agg positions"
            )
        cores_per_group = tuple(len(range(j, n_core, groups)) for j in range(groups))
    return ActiveSet(widths=widths, cores_per_group=cores_per_group)


def balanced_route(
    demands: DemandSet, tree: FatTree, active_set: ActiveSet,
    params: PowerParams, timeslot: int = 0,
) -> RoutingPlan:
    """Phase two: spread whole demands evenly over the active switches.

    Demands go largest first (then by src, dst); each inter-rack one
    takes the allowed candidate path that minimizes the resulting maximum
    load among its own switches (ties: first candidate, position-major).
    Endpoint ToRs are always allowed; a same-rack demand rides its ToR.

    Each demand's number of allowed paths is array arithmetic over the
    counts, and a forced demand (one path) takes agg position 0 and core
    index 0.  Only when some demand has a choice does the greedy loop
    run: it visits every demand, adding it to its endpoint ToRs, whose
    larger load is the floor of each candidate's peak, and lists a pod
    pair's allowed paths (`ActiveSet.paths`) when it first meets it.
    """
    demands = _demand_set(demands, tree)
    by_size = _by_size(demands)
    ordered = DemandSet(
        demands.src[by_size], demands.dst[by_size], demands.rate[by_size]
    )
    tors, pods = _ends(tree, ordered)
    inter = (tors[0] != tors[1]).nonzero()[0]
    inter_pods = pods[:, inter]
    width = np.zeros(tree.num_pods, dtype=np.int64)
    width[list(active_set.widths)] = list(active_set.widths.values())
    widths = width[inter_pods]
    # reach[n]: the awake cores behind agg positions 0..n-1
    reach = np.cumsum((0, *active_set.cores_per_group))
    shared = np.minimum(widths.min(axis=0), len(reach) - 1)
    count = np.where(inter_pods[0] == inter_pods[1], widths[0], reach[shared])
    if not count.all():
        j = int(count.argmin())  # the first demand with no path
        i = inter[j]
        raise InfeasibleError(
            f"no active path through the aggregation layer from pod "
            f"{int(inter_pods[0][j])} to pod {int(inter_pods[1][j])} for demand "
            f"{ordered.src[i]}->{ordered.dst[i]}"
        )
    position, index = np.zeros((2, len(ordered.src)), dtype=np.int64)

    if (count > 1).any():
        allowed = functools.cache(lambda a, b: active_set.paths(tree, a, b))
        gbps = (ordered.rate / MBPS_PER_GBPS).tolist()
        load = [0.0] * tree.num_switches  # every switch's load so far
        positions, indexes = [], []
        for a, b, pa, pb, g in zip(*tors.tolist(), *pods.tolist(), gbps):
            load[a] += g
            if a == b:
                continue
            load[b] += g
            floor = max(load[a], load[b])
            best, best_peak = None, None
            for candidate in allowed(pa, pb):
                peak = floor
                for sw in candidate[2]:
                    here = load[sw] + g
                    if here > peak:
                        peak = here
                if best_peak is None or peak < best_peak:
                    best, best_peak = candidate, peak
            for sw in best[2]:
                load[sw] += g
            positions.append(best[0])
            indexes.append(best[1])
        position[inter], index[inter] = positions, indexes
    hops = _paths(tree, tors, pods, position, index)
    return _finish_plan(timeslot, ordered, hops, params, by_pair=True)


def _by_size(demands: DemandSet) -> np.ndarray:
    """EER's demand order: largest rate first, ties by (src, dst).

    That is `pair_order` followed by a stable sort of the negated rates.
    A set already strictly ordered by (src, dst), as `DemandTable.at`
    gives, skips `pair_order`.  Without two equal rates every sort gives
    the one stable order, so the stable sort runs only on a tie.
    """
    src, dst = demands.src, demands.dst
    pair = (src.astype(np.int64) << 16) | dst  # server ids fit 16 bits
    by_pair = None if (pair[1:] > pair[:-1]).all() else pair_order(src, dst)
    size = -demands.rate if by_pair is None else -demands.rate[by_pair]
    order = size.argsort()
    ranked = size[order]
    if (ranked[1:] == ranked[:-1]).any():
        order = size.argsort(kind="stable")
    return order if by_pair is None else by_pair[order]


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
    demands = _demand_set(demands, tree)
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
