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

Every router takes one slot's DemandSet, or a batch, with a list of
timeslots, one per set: `DemandSets`, the joined arrays of a run's
demand table read at a batch of slots (`DemandTable.read`), or a list
of DemandSets, which the router joins set after set.  `run_scenario`
batches consecutive segments of a run.  A batch's plans come as arrays
(`Plans`), and eer's active sets too (`ActiveSets`); each is a sequence
whose item j, built when read, is what routing set j alone gives, as
is item j of `DemandSets`.  One set is a batch of one, and its result
comes unwrapped.  The routers route a batch's joined arrays with one
pass of array calls: each set's rows are offset by its index in the
batch, so one ordered bincount gives every set's totals and loads,
adding what a bincount per set adds.  A set not read from a
run's demand table is checked first: a server outside the tree, a
demand from a server to itself, or a negative or non-finite rate is a
DomainError.  A same-rack demand rides its ToR alone, so only
inter-rack demands reach a path choice.  Every path is one row of five
switch ids, -1 where it has none.

sp's path is a pure function of the server pair, and so are the ToRs,
pods and forced path (agg position 0, core index 0) that ecmp and eer
read.  Each is built once per run, one row per pair of the run's demand
table, and a batch gathers its pairs' rows by pair id
(`DemandSet.pair_rows`).  ecmp draws each set's choices from that set's
own seed.  eer sizes its active sets with ordered bincounts, and calls
the first-fit-decreasing packer only for a pod or core layer whose
flows do not fit one switch.  An active set is counts, so each demand's
number of allowed paths is array arithmetic; a forced demand (one path)
takes its forced path, and the greedy loop runs over one set's demands
only when one of them has a choice.  It orders each set's demands
largest first with numpy's default sort and sorts stably only when two
rates of a set tie, since without ties every sort gives the stable
order.  eer's balancing reads the batch's active sets as arrays: each
set's widths per pod and its cores per agg position.  A set whose plan
overloads a switch escalates alone, and its plan is spliced into the
batch's arrays.  A batch that fails raises the error that one of its
failing sets raises alone; `run_scenario` replays a failed batch set by
set, so that a run fails on its first failing segment.

A plan keeps its switch loads as two arrays, switch ids in order of
first load and their Gbps, and builds the switch -> load dict, like
the routes, only when read.  A batch's `Plans` holds every set's two
arrays end to end, which `run_scenario` meters as they are; a set's
RoutingPlan is built only for `on_plan`, the one-set call or eer's
retry.  Demand rates arrive in Mbps; switch loads are kept in Gbps.
Every plan lists its switches over capacity; eer treats them as errors
since it controls its own active set.
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
from .workload import DemandSet, DemandSets, _index_dtype, pair_order

MBPS_PER_GBPS = 1000.0


@dataclass(frozen=True)
class ActiveSet:
    """Switches allowed to carry traffic in one timeslot, as counts.

    Pod p keeps agg positions 0..widths[p]-1 awake (a pod not listed
    keeps none), and core group j, the cores behind agg position j,
    keeps core indices 0..cores_per_group[j]-1 awake.  `widths` lists
    its pods in pod order.
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


class ActiveSets:
    """A batch's active sets as arrays; set j's ActiveSet is built when read.

    Row j of `widths` holds set j's awake agg positions per pod, 0 for a
    pod it does not list, and row j of `cores` its awake core indices per
    agg position, 0 past its `groups[j]` core groups.  `of` converts a
    list of ActiveSets.  `replace` puts another set in place of one (EER's
    retry), in the arrays.
    """

    def __init__(self, widths: np.ndarray, cores: np.ndarray, groups: np.ndarray):
        self.widths, self.cores, self.groups = widths, cores, groups

    @classmethod
    def of(cls, actives, tree: FatTree) -> ActiveSets:
        groups = np.array([len(a.cores_per_group) for a in actives], dtype=np.int64)
        widths = np.zeros((len(actives), tree.num_pods), dtype=np.int64)
        cores = np.zeros((len(actives), groups.max()), dtype=np.int64)
        for j, active in enumerate(actives):
            widths[j, list(active.widths)] = list(active.widths.values())
            cores[j, :groups[j]] = active.cores_per_group
        return cls(widths, cores, groups)

    def __len__(self) -> int:
        return len(self.groups)

    def __getitem__(self, j: int) -> ActiveSet:
        j = range(len(self))[j]  # a negative j counts from the end
        pods = self.widths[j].nonzero()[0]
        return ActiveSet(
            widths=dict(zip(pods.tolist(), self.widths[j, pods].tolist())),
            cores_per_group=tuple(self.cores[j, :self.groups[j]].tolist()),
        )

    def replace(self, j: int, active: ActiveSet) -> None:
        """Put `active` in place of set j."""
        j = range(len(self))[j]
        groups = len(active.cores_per_group)
        if groups > self.cores.shape[1]:
            self.cores = np.pad(self.cores, ((0, 0), (0, groups - self.cores.shape[1])))
        self.widths[j] = 0
        self.widths[j, list(active.widths)] = list(active.widths.values())
        self.cores[j] = 0
        self.cores[j, :groups] = active.cores_per_group
        self.groups[j] = groups


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
    outside the tree, a demand from a server to itself (co-hosted
    traffic never reaches a NIC), or a negative or non-finite rate, is a
    DomainError naming the first demand that has one.  A table's sets
    are valid by construction.
    """
    if not isinstance(demands, DemandSet):
        demands = DemandSet.of(demands)
    if demands.table is not None:
        return demands
    ends = np.array((demands.src, demands.dst))
    outside = ((ends < 0) | (ends >= tree.num_servers)).any(axis=0)
    bad = outside | (ends[0] == ends[1])
    bad |= ~(np.isfinite(demands.rate) & (demands.rate >= 0))
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
        if src == dst:
            raise DomainError(f"{what} runs from server {src} to itself")
        if rate < 0:
            raise DomainError(f"{what} has negative size")
        raise DomainError(f"{what} has a non-finite rate")
    return demands


def _is_batch(demands) -> bool:
    """Whether a router's `demands` are a batch: DemandSets, or a list of DemandSets."""
    return isinstance(demands, DemandSets) or (isinstance(demands, list) and bool(
        demands) and isinstance(demands[0], DemandSet))


class _Batch:
    """The demand sets of one router call, as joined arrays (`DemandSets`).

    A batch read from a run's demand table comes joined; one set, or a
    list of sets, is checked and joined set after set (`DemandSets.of`).
    `demands` holds every set's demands; set j owns rows
    bounds[j]:bounds[j+1], and `seg` names each row's set, in the
    narrowest dtype that numbers the sets (`_index_dtype`).  `alone` says
    the call routes one set, as one set or as a batch of one, so there is
    nothing to offset.
    """

    def __init__(self, demands, tree: FatTree, timeslot=None):
        self.single = not _is_batch(demands)
        self.slots = [timeslot] if self.single else timeslot
        if not isinstance(demands, DemandSets):
            demands = DemandSets.of(
                [_demand_set(d, tree) for d in ([demands] if self.single else demands)])
        self.sets, self.demands, self.bounds = demands, demands.demands, demands.bounds
        self.alone = len(demands) == 1
        sizes = np.diff(self.bounds)
        self.seg = np.repeat(np.arange(len(sizes), dtype=_index_dtype(len(sizes))), sizes)

    @classmethod
    def of(cls, demands, tree: FatTree, timeslot=None) -> _Batch:
        """`demands` as a batch; eer hands its own batch on to its phases,
        which then give it their results as arrays."""
        return demands if isinstance(demands, _Batch) else cls(demands, tree, timeslot)

    def listed(self, result):
        """A phase's result on this batch, as a list with one item per set."""
        return [result] if self.single else result

    def result(self, per_set):
        """The router's result: the one set's, or the list of every set's."""
        return per_set[0] if self.single else per_set


def _pair_ends(tree: FatTree, src, dst):
    """Each server pair's source and destination ToR, then pod, as int16 rows.

    Four int16 make an 8-byte row, which numpy's `take` copies as one
    item: about four times as fast as rows of 10 bytes.
    """
    rows = np.empty((len(src), 4), dtype=np.int16)
    rows[:, 0], rows[:, 1] = tree.tor_of_server(src), tree.tor_of_server(dst)
    rows[:, 2], rows[:, 3] = tree.server_pod(src), tree.server_pod(dst)
    return rows


def _ends(tree: FatTree, demands: DemandSet):
    """Every demand's (source, destination) ToRs and pods, as two-row arrays."""
    rows = demands.pair_rows(("ends", tree.k), functools.partial(_pair_ends, tree))
    return rows[:, :2].T, rows[:, 2:].T


def _forced_paths(tree: FatTree, src, dst):
    """Each server pair's `_paths` row through agg position 0 and core
    index 0: eer's path for a demand with one allowed path."""
    ends = _pair_ends(tree, src, dst)
    zero = np.zeros(len(ends), dtype=np.int16)
    return _paths(tree, ends[:, :2].T, ends[:, 2:].T, zero, zero)


def _paths(tree: FatTree, tors, pods, position, index):
    """Every demand's up-down path as one row of five int16 switch ids,
    -1 for none (switch ids stay below 2**15, k <= 48).

    A same-rack demand's path is its ToR alone.  An inter-rack demand
    goes up through agg position `position` of its pod and, across pods,
    through core `index` of that position's group.  Given int16 ToRs,
    pods, positions and indexes, every step stays in int16.
    """
    up, down = tree.agg_id(pods, position)
    core = tree.core_id(position, index)
    same_rack, same_pod = tors[0] == tors[1], pods[0] == pods[1]
    return np.stack(
        (tors[0], np.where(same_rack, -1, up), np.where(same_pod, -1, core),
         np.where(same_pod, -1, down), np.where(same_rack, -1, tors[1])),
        axis=1, dtype=np.int16, casting="unsafe")


def _finish_plans(batch: _Batch, demands, hops, tree: FatTree, params,
                  by_pair=False) -> Plans:
    """The batch's plans, from one ordered bincount over every path's switches.

    Each set's switch ids are offset by its index in the batch times the
    tree's switch count, so every set has bins of its own.  `bincount`
    adds in input order from 0.0, so each switch's load sums its set's
    demands' rates in routing order, as adding them one by one would.  A
    plan lists its switches in order of first load: each switch's first
    position in the path sequence, found by `minimum.at`, and those
    distinct positions sorted, which also keeps the sets in batch order.
    Each per-hop array is freed after its last read.
    """
    n_switches = tree.num_switches
    on_path = hops >= 0
    if batch.alone:
        switches = hops[on_path]  # row by row: in routing order
    else:
        ids = hops.astype(np.int32)
        ids += np.multiply(batch.seg, n_switches, dtype=np.int32)[:, None]
        switches = ids[on_path]
        del ids
    # 1, 3 or 5 hops: a same-rack path has no up agg, a same-pod one no core.
    hop_count = 1 + 2 * on_path[:, 1] + 2 * on_path[:, 2]
    del on_path
    gbps = np.repeat(demands.rate / MBPS_PER_GBPS, hop_count)
    del hop_count
    sums = np.bincount(switches, weights=gbps)
    del gbps
    n_hops = len(switches)
    first = np.full(len(sums), n_hops, dtype=np.int32)
    np.minimum.at(first, switches, np.arange(n_hops, dtype=np.int32))
    del switches
    seen = (first < n_hops).nonzero()[0]
    seen = seen[first[seen].argsort(kind="stable")]
    over = (sums > params.max_load()).nonzero()[0]
    loads = sums[seen]
    if batch.alone:
        cut, over_cut = [0, len(seen)], [0, len(over)]
    else:
        # Set j's ids are j * n_switches and up, and `seen` lists set after set.
        edges = np.arange(len(batch.sets) + 1) * n_switches
        cut = np.searchsorted(seen, edges).tolist()
        over_cut = np.searchsorted(over, edges).tolist()
        seen %= n_switches
        over %= n_switches
    return Plans(batch, (demands, hops, by_pair), seen, loads, cut, over, over_cut)


class Plans:
    """A batch's plans as arrays; set j's RoutingPlan is built when read.

    `switches` and `gbps` hold every set's plan switches and loads, set
    after set: set j's are switches[cut[j]:cut[j + 1]].  `over` holds
    every set's switches over capacity, set j's at
    over[over_cut[j]:over_cut[j + 1]].  The meter reads these arrays, and
    `plans[j]` builds set j's plan, with its rows of the batch's path
    choices (`paths`, as in `RoutingPlan`).  `replace` puts another plan
    in place of one set's (EER's retry), in the arrays too.
    """

    def __init__(self, batch: _Batch, paths, switches, gbps, cut, over, over_cut):
        self.batch = batch
        self.paths = paths  # (the batch's demands, hops, by_pair)
        self.switches, self.gbps, self.cut = switches, gbps, cut
        self.over, self.over_cut = over, over_cut
        self._replaced: dict[int, RoutingPlan] = {}

    def __len__(self) -> int:
        return len(self.cut) - 1

    def failing(self) -> list[int]:
        """The sets whose plan lists a switch over capacity, in batch order."""
        return np.flatnonzero(np.diff(self.over_cut)).tolist()

    def violations(self, j: int) -> tuple[int, ...]:
        return tuple(self.over[self.over_cut[j]:self.over_cut[j + 1]].tolist())

    def __getitem__(self, j: int) -> RoutingPlan:
        j = range(len(self))[j]  # a negative j counts from the end
        if j in self._replaced:
            return self._replaced[j]
        batch, (demands, hops, by_pair) = self.batch, self.paths
        lo, hi = batch.bounds[j], batch.bounds[j + 1]
        part = demands if batch.alone else DemandSet(
            demands.src[lo:hi], demands.dst[lo:hi], demands.rate[lo:hi])
        return RoutingPlan(
            batch.slots[j],
            violations=self.violations(j),
            paths=(part, hops[lo:hi], by_pair),
            switches=self.switches[self.cut[j]:self.cut[j + 1]],
            gbps=self.gbps[self.cut[j]:self.cut[j + 1]],
        )

    def replace(self, j: int, plan: RoutingPlan) -> None:
        """Put `plan` in place of set j's plan."""
        j = range(len(self))[j]
        self._replaced[j] = plan
        self.switches, _ = _splice(self.switches, self.cut, j, plan.switches)
        self.gbps, self.cut = _splice(self.gbps, self.cut, j, plan.gbps)
        self.over, self.over_cut = _splice(
            self.over, self.over_cut, j, np.array(plan.violations, dtype=np.int64))


def _splice(array, cut, j, part):
    """`array` with its block cut[j]:cut[j + 1] replaced by `part`, and the new cut."""
    lo, hi = cut[j], cut[j + 1]
    shift = len(part) - (hi - lo)
    return (np.concatenate((array[:lo], part, array[hi:])),
            cut[:j + 1] + [c + shift for c in cut[j + 1:]])


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
    (`DemandSet.pair_rows`); a hand-built set builds its own.  Given a
    batch (a list of sets and a list of timeslots), it returns a plan
    per set.
    """
    batch = _Batch(demands, tree, timeslot)
    hops = batch.demands.pair_rows(("sp", tree.k), functools.partial(_sp_paths, tree))
    return batch.result(_finish_plans(batch, batch.demands, hops, tree, params))


def _sp_paths(tree: FatTree, src, dst):
    """sp's path of each server pair, as `_paths` rows."""
    ends = _pair_ends(tree, src, dst)
    key = _pair_key(src, dst)
    half = tree.half
    return _paths(tree, ends[:, :2].T, ends[:, 2:].T, (key % half).astype(np.int16),
                  ((key >> 8) % half).astype(np.int16))


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
    one `integers` call per set; it draws the same values as one call
    per flow.  A same-rack flow has one candidate and draws nothing, as
    `integers(1)` would leave the generator unchanged.  Given a batch,
    `seed` lists one seed per set.
    """
    batch = _Batch(demands, tree, timeslot)
    seeds = [seed] if batch.single else seed
    half = tree.half
    tors, pods = _ends(tree, batch.demands)
    same_pod = pods[0] == pods[1]
    inter = (tors[0] != tors[1]).nonzero()[0]
    high = np.where(same_pod[inter], half, half * half)
    cut = np.searchsorted(inter, batch.bounds).tolist()
    draw = np.zeros(len(same_pod), dtype=np.int16)  # below half**2 <= 576
    draw[inter] = np.concatenate([
        np.random.default_rng(set_seed).integers(0, high[lo:hi])
        for set_seed, lo, hi in zip(seeds, cut, cut[1:])
    ])
    position, index = np.divmod(draw, half)
    hops = _paths(tree, tors, pods, np.where(same_pod, draw, position), index)
    return batch.result(_finish_plans(batch, batch.demands, hops, tree, params))


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
    every count (escalation retry).  Given a batch, it returns the
    batch's active sets as arrays (`ActiveSets`), which `balanced_route`
    reads as they are.

    Each layer's total is one ordered bincount over the inter-rack
    demands' items, in the order the flows join each pod's list and the
    core's, so it adds what a left-to-right sum of those lists adds.
    `ffd_one_bin` decides exactly when FFD needs one bin; only the other
    layers are packed by `ffd_pack`.
    """
    handed = isinstance(demands, _Batch)  # eer's batch: its arrays go back
    batch = _Batch.of(demands, tree)
    cap = params.capacity
    demands = batch.demands
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
    # row lists its items in demand order.  Set j's rows are offset by
    # j * (num_pods + 1).
    core_row = tree.num_pods
    per_set = core_row + 1
    src_pod, dst_pod = pods[:, keep]
    cross = src_pod != dst_pod
    item_rows = np.array((src_pod, dst_pod, src_pod), dtype=np.int64)
    item_rows[2] = core_row
    if not batch.alone:
        item_rows += np.multiply(batch.seg[keep], per_set, dtype=np.int64)
    rows = item_rows.T[cross[:, None] | [True, False, False]]
    sizes = gbps.repeat(np.where(cross, 3, 1))
    n_rows = len(batch.sets) * per_set
    totals = np.bincount(rows, weights=sizes, minlength=n_rows)
    present = np.bincount(rows, minlength=n_rows) > 0
    one_bin = ffd_one_bin(rows, sizes, cap, n_rows)
    bins = one_bin.astype(np.int64)
    for row in (present & ~one_bin).nonzero()[0].tolist():
        bins[row] = len(ffd_pack(sizes[rows == row].tolist(), cap))
    # Each row's count: its total's ceiling over the capacity, taken with
    # numpy's float `floor_divide` (Python's float `//`), raised to the bins
    # FFD needs.
    need = np.maximum(-np.floor_divide(-totals, cap), bins).astype(np.int64)
    need = need.reshape(-1, per_set)
    crossing = np.zeros(n_rows, dtype=bool)  # the pods cross-pod demands join
    crossing[item_rows[:2, cross]] = True
    crossing = crossing.reshape(-1, per_set)[:, :core_row]
    present = present.reshape(-1, per_set)

    half = tree.half
    agg_need = np.minimum(half, need[:, :core_row] + extra)
    has_core = present[:, core_row]
    n_core = np.where(has_core, np.minimum(tree.num_cores, need[:, core_row] + extra), 0)
    shared = np.where(crossing, agg_need, 0).max(axis=1)
    widths = np.where(crossing, np.maximum(agg_need, shared[:, None]), agg_need)
    groups = np.maximum(shared, 1)

    too_wide = present[:, :core_row] & (need[:, :core_row] > half)
    too_many = has_core & (need[:, core_row] > tree.num_cores)
    unreachable = n_core > groups * half
    failing = too_wide.any(axis=1) | too_many | unreachable
    if failing.any():
        j = int(failing.argmax())
        totals = totals.reshape(-1, per_set)[j].tolist()
        if too_wide[j].any():
            # Name the too-wide pod that the set's items reach first.
            wide_rows = j * per_set + too_wide[j].nonzero()[0]
            pod = int(rows[np.isin(rows, wide_rows)][0]) % per_set
            raise InfeasibleError(
                f"pod {pod} needs {int(need[j, pod])} aggregation switches "
                f"for {totals[pod]:.1f} Gbps but only has {half}"
            )
        if too_many[j]:
            raise InfeasibleError(
                f"cross-pod traffic {totals[core_row]:.1f} Gbps needs "
                f"{int(need[j, core_row])} cores but only {tree.num_cores} exist"
            )
        raise InfeasibleError(
            f"need {int(n_core[j])} cores but only {int(groups[j]) * half} are "
            f"reachable from {int(groups[j])} agg positions"
        )

    # The cores are dealt round-robin over the groups: group g of n gets
    # len(range(g, n_core, n)) of them.
    groups = np.where(n_core > 0, groups, 0)
    group = np.arange(groups.max())
    cores = np.where(group < groups[:, None],
                     (n_core[:, None] - group + groups[:, None] - 1)
                     // np.maximum(groups, 1)[:, None], 0)
    actives = ActiveSets(np.where(present[:, :core_row], widths, 0), cores, groups)
    return actives if handed else batch.result(actives)


def balanced_route(
    demands: DemandSet, tree: FatTree, active_set: ActiveSet,
    params: PowerParams, timeslot: int = 0,
) -> RoutingPlan:
    """Phase two: spread whole demands evenly over the active switches.

    Demands go largest first (then by src, dst); each inter-rack one
    takes the allowed candidate path that minimizes the resulting maximum
    load among its own switches (ties: first candidate, position-major).
    Endpoint ToRs are always allowed; a same-rack demand rides its ToR.
    Given a batch, `active_set` lists one active set per set, or holds
    them as `ActiveSets`.

    Each demand's number of allowed paths is array arithmetic over the
    counts, and a forced demand (one path) takes its forced path.  Only
    a set in which some demand has a choice runs the greedy loop
    (`_greedy`) over its demands.
    """
    handed = isinstance(demands, _Batch)  # eer's batch: its arrays go back
    batch = _Batch.of(demands, tree, timeslot)
    actives = active_set if isinstance(active_set, ActiveSets) else ActiveSets.of(
        batch.listed(active_set), tree)
    demands = batch.demands
    by_size = _by_size(batch)
    ordered = DemandSet(
        demands.src[by_size], demands.dst[by_size], demands.rate[by_size],
        None if demands.pair is None else demands.pair[by_size], demands.table,
    )
    tors, pods = _ends(tree, ordered)
    hops = ordered.pair_rows(("forced", tree.k), functools.partial(_forced_paths, tree))
    inter = (tors[0] != tors[1]).nonzero()[0]
    inter_pods = pods[:, inter]
    # reach[j, n]: set j's awake cores behind agg positions 0..n-1.
    groups = actives.cores.shape[1]
    reach = np.zeros((len(actives), groups + 1), dtype=np.int64)
    np.cumsum(actives.cores, axis=1, out=reach[:, 1:])
    set_of = batch.seg[inter]  # by_size keeps every set's rows in place
    widths = actives.widths[set_of, inter_pods]
    shared = np.minimum(widths.min(axis=0), groups)
    count = np.where(inter_pods[0] == inter_pods[1], widths[0], reach[set_of, shared])
    if not count.all():
        j = int(count.argmin())  # the first demand with no path
        i = inter[j]
        raise InfeasibleError(
            f"no active path through the aggregation layer from pod "
            f"{int(inter_pods[0][j])} to pod {int(inter_pods[1][j])} for demand "
            f"{ordered.src[i]}->{ordered.dst[i]}"
        )
    for j in dict.fromkeys(set_of[count > 1].tolist()):  # the sets with a choice
        lo, hi = batch.bounds[j], batch.bounds[j + 1]
        set_tors, set_pods = tors[:, lo:hi], pods[:, lo:hi]
        position, index = _greedy(tree, actives[j], set_tors, set_pods,
                                  ordered.rate[lo:hi])
        hops[lo:hi] = _paths(tree, set_tors, set_pods, position, index)
    plans = _finish_plans(batch, ordered, hops, tree, params, by_pair=True)
    return plans if handed else batch.result(plans)


def _greedy(tree: FatTree, active_set: ActiveSet, tors, pods, rate):
    """Each demand's agg position and core index, by the min-max greedy loop.

    It visits one set's demands in routing order, adding each to its
    endpoint ToRs, whose larger load is the floor of each candidate's
    peak, and lists a pod pair's allowed paths (`ActiveSet.paths`) when
    it first meets it.  A same-rack demand gets position and index 0.
    """
    allowed = functools.cache(lambda a, b: active_set.paths(tree, a, b))
    load = [0.0] * tree.num_switches  # every switch's load so far
    positions, indexes = [], []
    gbps = (rate / MBPS_PER_GBPS).tolist()
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
    position, index = np.zeros((2, len(gbps)), dtype=np.int16)
    inter = tors[0] != tors[1]
    position[inter], index[inter] = positions, indexes
    return position, index


def _by_size(batch: _Batch) -> np.ndarray:
    """EER's demand order: largest rate first, ties by (src, dst).

    That is `pair_order` followed by a stable sort of the negated rates,
    set by set, with the sets kept in batch order.  Sets already strictly
    ordered by (src, dst), as `DemandTable.at` gives, skip `pair_order`.
    Without two equal rates in a set every sort gives the one stable
    order, so the stable sort runs only on a tie.
    """
    demands = batch.demands
    src, dst = demands.src, demands.dst
    new_set = batch.seg[1:] != batch.seg[:-1]
    pair = (src.astype(np.int64) << 16) | dst  # server ids fit 16 bits
    by_pair = None
    if not ((pair[1:] > pair[:-1]) | new_set).all():
        by_pair = _in_sets(pair_order(src, dst), batch)
    size = -demands.rate if by_pair is None else -demands.rate[by_pair]
    order = _in_sets(size.argsort(), batch)
    ranked = size[order]
    if ((ranked[1:] == ranked[:-1]) & ~new_set).any():
        order = _in_sets(size.argsort(kind="stable"), batch)
    return order if by_pair is None else by_pair[order]


def _in_sets(order, batch: _Batch):
    """`order` regrouped set by set, in batch order, keeping its order
    within each set."""
    if batch.alone:
        return order
    # numpy sorts uint16 `seg` stably by radix.
    return order[batch.seg[order].argsort(kind="stable")]


def eer(
    demands: DemandSet, tree: FatTree, params: PowerParams, timeslot: int = 0
) -> tuple[ActiveSet, RoutingPlan]:
    """Active-switch selection followed by balanced multipath routing.

    If the balanced pass still overloads a switch (the feasibility pass
    is a heuristic), the active set is re-estimated once with one more
    switch per layer; a plan still over capacity is a CapacityError.  An
    overloaded ToR fails at once: its load is fixed by the placement,
    not the routing.  Given a batch, it returns the batch's active sets
    (`ActiveSets`) and plans (`Plans`); a set that needs the retry
    retries alone, and its retried set and plan replace its first ones.
    A batch that fails raises the error that one of its failing sets
    raises alone; `run_scenario` replays it set by set.
    """
    batch = _Batch(demands, tree, timeslot)
    actives = estimate_active_set(batch, tree, params)
    plans = balanced_route(batch, tree, actives, params)
    for j in plans.failing():
        demands, timeslot = batch.sets[j], batch.slots[j]
        tors = [sw for sw in plans.violations(j) if tree.layer(sw) == TOR]
        if tors:
            raise InfeasibleError(
                f"placement overloads ToR switches {tors} at t={timeslot}; "
                f"no routing can relieve them"
            )
        active = estimate_active_set(demands, tree, params, extra=1)
        plan = balanced_route(demands, tree, active, params, timeslot)
        if plan.violations:
            raise CapacityError(
                f"switches over capacity at t={timeslot}: {list(plan.violations)}",
                switches=plan.violations,
                timeslot=timeslot,
            )
        actives.replace(j, active)
        plans.replace(j, plan)
    return batch.result(actives), batch.result(plans)


# Router name -> the plans of a batch (`Plans`), called (demands, tree, params,
# timeslots, run seed) with a list of DemandSets and a list of timeslots,
# one per set.  Each entry looks its router up here when called, like
# assignment.STRATEGIES, so a replaced `sp_route` is the one that runs.
ROUTERS = {
    "sp": lambda demands, tree, params, t, seed: sp_route(demands, tree, params, t),
    "ecmp": lambda demands, tree, params, t, seed: ecmp_route(
        demands, tree, [[seed, s] for s in t], params, t),
    "eer": lambda demands, tree, params, t, seed: eer(demands, tree, params, t)[1],
}
# Routers whose plan depends on the timeslot, not only on its demands:
# ecmp seeds its draws with [seed, t].  Every other router gives equal
# demands the same plan, so `run_scenario` routes each segment (slots
# with the same demands) once and reuses that plan for all its slots.
DRAWS_PER_SLOT = frozenset({"ecmp"})
