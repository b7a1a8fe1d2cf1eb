"""Result and plan checks computed from the jobs and the placement alone.

Nothing here calls dcnsim's routing or energy accounting.  Switch and
server ids are re-derived from the documented Fat-Tree numbering
(servers pod-major, then ToRs, aggregation switches and cores), and
every expected figure follows from the placement and the traffic
matrices:

* a ToR's load is fixed by placement and traffic, whatever the routing;
* so are each pod's aggregation-layer total and the core-layer total,
  because every minimal path crosses exactly one aggregation switch in
  each pod it leaves or enters and one core when it changes pod;
* by convexity of f(x) = sigma + mu * x**alpha, n active switches that
  share a layer total L draw at least n*sigma + mu*n*(L/n)**alpha, which
  gives a per-slot energy lower bound that holds for any routing
  (ElasticTree-style consolidation; Heller et al., NSDI 2010).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dcnsim.assignment import assign
from dcnsim.power import CAPACITY_RTOL
from dcnsim.topology import build_fat_tree

REL_TOL = 1e-9
MBPS_PER_GBPS = 1000.0


class CheckFailed(Exception):
    """A result or plan disagrees with the benchmark's own computation."""


@dataclass(frozen=True)
class Ids:
    """Fat-Tree numbering for a k-ary tree, derived from k alone."""

    k: int

    @property
    def half(self) -> int:
        return self.k // 2

    @property
    def servers_per_pod(self) -> int:
        return self.half * self.half

    @property
    def num_tors(self) -> int:
        return self.k * self.half

    @property
    def agg_base(self) -> int:
        return self.k * self.half

    @property
    def core_base(self) -> int:
        return self.k * self.k

    @property
    def num_cores(self) -> int:
        return self.half * self.half


@dataclass(frozen=True)
class Expected:
    """Routing-invariant figures of one scenario, per timeslot.

    Loads are in Gbps, demand totals in Mbps.
    """

    label: str
    ids: Ids
    tor_loads: np.ndarray  # (horizon, ToRs): every ToR's load
    pod_loads: np.ndarray  # (horizon, pods): each pod's aggregation-layer total
    core_loads: np.ndarray  # (horizon,): the core-layer total
    demand_mbps: np.ndarray  # (horizon,): traffic between distinct servers


def expected_loads(label, jobs, placement, k, horizon) -> Expected:
    """Per-slot loads implied by `placement` ((job id, vm) -> server)."""
    ids = Ids(k)
    tor_loads = np.zeros((horizon, ids.num_tors))
    pod_loads = np.zeros((horizon, k))
    core_loads = np.zeros(horizon)
    demand = np.zeros(horizon)
    for job in jobs:
        hosts = np.array([placement[(job.id, m)] for m in range(job.vm_count)])
        tor = hosts // ids.half
        pod = hosts // ids.servers_per_pod
        off_server = hosts[:, None] != hosts[None, :]
        off_rack = tor[:, None] != tor[None, :]
        off_pod = pod[:, None] != pod[None, :]
        for tr in job.transfers:
            first, last = tr.start, min(tr.end, horizon - 1)
            if first > last:
                continue
            rate = tr.matrix / MBPS_PER_GBPS
            leaving_rack = rate * off_rack
            leaving_pod = rate * off_pod
            # The source ToR carries every flow between distinct servers;
            # the destination ToR only those that leave the source rack.
            tors = np.bincount(tor, weights=(rate * off_server).sum(axis=1),
                               minlength=ids.num_tors)
            tors += np.bincount(tor, weights=leaving_rack.sum(axis=0),
                                minlength=ids.num_tors)
            pods = np.bincount(pod, weights=leaving_rack.sum(axis=1), minlength=k)
            pods += np.bincount(pod, weights=leaving_pod.sum(axis=0), minlength=k)
            window = slice(first, last + 1)
            tor_loads[window] += tors
            pod_loads[window] += pods
            core_loads[window] += leaving_pod.sum()
            demand[window] += (tr.matrix * off_server).sum()
    return Expected(label, ids, tor_loads, pod_loads, core_loads, demand)


def expect(scenario, jobs) -> Expected:
    """Expected figures of a scenario, from the public `assign` and its seed."""
    tree = build_fat_tree(scenario.k, server_capacity=scenario.server_capacity)
    placement = assign(
        scenario.assign_strategy, jobs, tree,
        seed=scenario.seed, horizon=scenario.horizon,
    )
    label = f"{scenario.assign_strategy}-{scenario.route_strategy} seed {scenario.seed}"
    if scenario.utilization is not None:
        label += f" u={scenario.utilization}"
    return expected_loads(
        label, jobs, placement.placements, scenario.k, scenario.horizon
    )


def switch_watts(loads, power) -> np.ndarray:
    """f(load) per switch; a switch without load sleeps and draws nothing."""
    loads = np.asarray(loads, dtype=float)
    safe = np.where(loads > 0, loads, 0.0)
    return np.where(loads > 0, power.sigma + power.mu * safe**power.alpha, 0.0)


def layer_bound(totals, switches: int, power, within_capacity) -> np.ndarray:
    """Least power of a layer of `switches` switches sharing `totals`.

    Minimises n*sigma + mu*n*(L/n)**alpha over whole n: at least
    ceil(L/C) when no switch may exceed capacity, else at least 1, and
    at most the layer's size.  The continuous minimiser is L/r* with
    r* = (sigma / (mu*(alpha-1)))**(1/alpha); the cost is convex in n, so
    the whole-n minimum sits at its floor or ceiling, clipped.
    """
    totals = np.asarray(totals, dtype=float)
    busy = totals > 0
    load = np.where(busy, totals, 1.0)
    max_load = power.capacity * (1.0 + CAPACITY_RTOL)
    lo = np.where(within_capacity, np.maximum(1.0, np.ceil(load / max_load)), 1.0)
    hi = np.maximum(lo, switches)
    r_star = (power.sigma / (power.mu * (power.alpha - 1.0))) ** (1.0 / power.alpha)
    n_star = load / r_star if r_star > 0 else np.full_like(load, np.inf)
    best = None
    for n in (np.floor(n_star), np.ceil(n_star)):
        n = np.clip(n, lo, hi)
        cost = n * power.sigma + power.mu * n * (load / n) ** power.alpha
        best = cost if best is None else np.minimum(best, cost)
    return np.where(busy, best, 0.0)


def slot_bounds(exp: Expected, power, within_capacity) -> np.ndarray:
    """Per-slot watts that no routing of this placement can undercut."""
    ids = exp.ids
    ok = np.asarray(within_capacity, dtype=bool)
    tors = switch_watts(exp.tor_loads, power).sum(axis=1)
    pods = layer_bound(exp.pod_loads, ids.half, power, ok[:, None]).sum(axis=1)
    core = layer_bound(exp.core_loads, ids.num_cores, power, ok)
    return tors + pods + core


def _close(got, want, what):
    if abs(got - want) > REL_TOL * max(abs(got), abs(want)):
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def check_report(report, exp: Expected, power) -> float:
    """Check one EnergyReport; returns its energy lower bound (Wt)."""
    name = exp.label
    watts = np.asarray(report.per_timeslot_watts, dtype=float)
    horizon = len(exp.demand_mbps)
    if len(watts) != horizon:
        raise CheckFailed(f"{name}: {len(watts)} slots reported, expected {horizon}")
    total = report.total_energy_wt
    _close(math.fsum(report.layer_breakdown.values()), total,
           f"{name}: layer breakdown sum against the total")
    _close(math.fsum(watts), total, f"{name}: slot sum against the total")
    _close(report.layer_breakdown["tor"],
           float(switch_watts(exp.tor_loads, power).sum()),
           f"{name}: ToR-layer energy")
    within = [t not in report.violations for t in range(horizon)]
    bound = slot_bounds(exp, power, within)
    below = np.flatnonzero(watts < bound * (1.0 - REL_TOL))
    if below.size:
        t = int(below[0])
        raise CheckFailed(
            f"{name}: slot {t} draws {watts[t]!r} W, under the lower bound "
            f"{bound[t]!r} W"
        )
    return float(bound.sum())


def check_plan(plan, exp: Expected, power, router: str) -> None:
    """Check one timeslot's RoutingPlan against first principles."""
    ids, t = exp.ids, plan.timeslot
    where = f"{exp.label}: slot {t}"
    groups: dict[int, list] = {1: [], 3: [], 5: []}
    rate_total = hop_total = 0.0
    for src, dst, rate, path in plan.routes:
        rows = groups.get(len(path))
        if rows is None:
            raise CheckFailed(f"{where}: route {src}->{dst} has path {path}")
        rows.append((src, dst, *path))
        rate_total += rate
        hop_total += rate * len(path)
    for hops, rows in groups.items():
        if rows:
            _check_paths(np.array(rows, dtype=np.int64), hops, ids, where)
    _close(math.fsum(plan.loads.values()), hop_total / MBPS_PER_GBPS,
           f"{where}: switch loads against rate x hops")
    _close(rate_total, float(exp.demand_mbps[t]),
           f"{where}: routed rate against the offered demand")
    if router == "eer":
        peak = max(plan.loads.values(), default=0.0)
        if plan.violations or peak > power.capacity * (1.0 + CAPACITY_RTOL):
            raise CheckFailed(
                f"{where}: EER plan over capacity {power.capacity} Gbps "
                f"(peak {peak!r}, violations {list(plan.violations)})"
            )


def _check_paths(rows, hops, ids: Ids, where):
    """Each row is (src, dst, switch...); all paths have `hops` switches."""
    src, dst, first, last = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, -1]
    src_tor, dst_tor = src // ids.half, dst // ids.half
    src_pod, dst_pod = src // ids.servers_per_pod, dst // ids.servers_per_pod
    ok = (src != dst) & (first == src_tor) & (last == dst_tor)
    if hops == 1:
        ok &= src_tor == dst_tor
    elif hops == 3:
        agg = rows[:, 3] - ids.agg_base
        ok &= (src_pod == dst_pod) & (src_tor != dst_tor)
        ok &= (agg >= 0) & (agg // ids.half == src_pod)
    else:
        up, core, down = (rows[:, 3] - ids.agg_base, rows[:, 4] - ids.core_base,
                          rows[:, 5] - ids.agg_base)
        ok &= src_pod != dst_pod
        ok &= (up >= 0) & (up // ids.half == src_pod)
        ok &= (down >= 0) & (down // ids.half == dst_pod)
        ok &= (core >= 0) & (core < ids.num_cores)
        # An aggregation switch at position j reaches only the cores of group j.
        ok &= (up % ids.half == core // ids.half) & (down % ids.half == core // ids.half)
    if not ok.all():
        bad = rows[int(np.argmin(ok))]
        raise CheckFailed(
            f"{where}: route {bad[0]}->{bad[1]} takes {tuple(bad[2:].tolist())}, "
            f"not a minimal Fat-Tree path between their ToRs"
        )


def check_sweep_ratios(reports, rows) -> None:
    """Each row's ratio is its energy over the greedy-sp energy of its seed."""
    if len(rows) != len(reports):
        raise CheckFailed(f"sweep: {len(rows)} rows for {len(reports)} reports")
    baseline = {}
    for report in reports:
        sc = report.scenario
        if (sc["assign"], sc["route"]) == ("greedy", "sp"):
            baseline[sc["utilization"], sc["workload_seed"]] = report.total_energy_wt
    for report, row in zip(reports, rows):
        sc = report.scenario
        key = (sc["utilization"], sc["workload_seed"])
        if key not in baseline:
            raise CheckFailed(f"sweep: no greedy-sp run for u={key[0]} seed {key[1]}")
        want = report.total_energy_wt / baseline[key]
        _close(row["ratio_to_baseline"], want,
               f"sweep: ratio of {sc['label']} u={key[0]} seed {key[1]}")
