"""VM-to-server assignment: the traffic-aware pipeline and its baselines.

The optimized pipeline works per job in four stages: merge the
highest-traffic VM pairs into server-sized super-VMs, cluster jobs onto
the estimated number of pods by traffic-pattern dissimilarity, split
each job's super-VMs into rack groups along minimum cuts of its traffic
graph, and pack the groups into racks greedily.  The baselines are
plain first-fit (greedy), first-fit over super-VMs (opt_greedy) and the
pipeline without the super-VM merge (eea).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError, InfeasibleError
from .graphkit import WeightedGraph, kmeans_pp_seed, min_k_cut
from .topology import FatTree
from .workload import Job, gap_distance, pattern_vector, referential_matrix


@dataclass(frozen=True)
class SuperVM:
    """A group of one job's VMs that will share a single server."""

    job_id: int
    members: tuple[int, ...]
    size: int  # slots

    def __post_init__(self):
        if len(set(self.members)) != len(self.members):
            raise DomainError(f"duplicate members in super-VM {self.members}")


class Assignment:
    """Total map from VM identity (job id, vm index) to server id."""

    def __init__(self, placements: Mapping[tuple[int, int], int]):
        self.placements = dict(placements)

    def validate(self, jobs: Sequence[Job], tree: FatTree) -> None:
        """Check totality, uniqueness of placement and server capacity.

        The placement holds every VM of `jobs` and no other when it has as
        many keys as they have VMs and each (job id, VM index) is one of
        them, looked up in one pass; only a placement that fails builds
        the sets its error names.  Then one bincount adds each server's
        slots, and the first server in placement order that is not the
        tree's, or holds more than its capacity, is named.  A server id is
        an int; any other is not the tree's.
        """
        placed = self.placements
        counts = [job.vm_count for job in jobs]
        ids = itertools.chain.from_iterable(map(itertools.repeat, (j.id for j in jobs), counts))
        vms = itertools.chain.from_iterable(map(range, counts))
        if len(placed) != sum(counts) or not all(map(placed.__contains__, zip(ids, vms))):
            expected = {(job.id, m) for job in jobs for m in range(job.vm_count)}
            missing = expected - set(placed)
            if missing:
                raise DomainError(f"unassigned VMs: {sorted(missing)[:5]} ...")
            extra = set(placed) - expected
            if extra:
                raise DomainError(f"assignment covers unknown VMs: {sorted(extra)[:5]}")
        values = list(placed.values())
        servers = np.array(values)
        if servers.dtype.kind not in "iu":  # some id is not an int: it is outside
            servers = np.array([s if isinstance(s, (int, np.integer)) and
                                0 <= s < tree.num_servers else -1 for s in values],
                               dtype=np.int64)
        outside = (servers < 0) | (servers >= tree.num_servers)
        servers[outside] = 0
        resource = {job.id: job.vm_resource for job in jobs}
        slots = np.fromiter(map(resource.__getitem__, map(operator.itemgetter(0), placed)),
                            dtype=np.int64, count=len(placed))
        slots[outside] = 0
        used = np.bincount(servers, weights=slots, minlength=tree.num_servers)
        bad = outside | (used[servers] > tree.server_capacity)
        if bad.any():
            i = int(bad.argmax())
            if outside[i]:
                raise DomainError(f"unknown server id {values[i]}")
            raise DomainError(
                f"server {values[i]} holds {int(used[servers[i]])} slots > capacity "
                f"{tree.server_capacity}"
            )


@dataclass
class PodClusters:
    """Job groups destined for individual pods, plus the overflow group."""

    clusters: list[list[int]]
    overflow: list[int]


# --- super-VM transformation ----------------------------------------------


def shrink_to_super_vms(
    job: Job, server_slot_capacity: int, t_ref: np.ndarray | None = None
) -> list[SuperVM]:
    """Merge the job's VMs into server-sized groups, highest traffic first.

    Repeatedly take the largest entry of the lifetime traffic matrix
    `t_ref` (built from the job if not given) between two unmerged VMs,
    merge them (their mutual traffic disappears, their traffic to others
    adds up), then keep absorbing the VM with the largest value in the
    merged row until the group fills a server.  Ties break toward the
    lowest VM index; leftover VMs become singletons.

    A merge takes both VMs out of play and never changes the traffic
    between two unmerged VMs.  So the pair picks walk one stable
    descending sort of the matrix's entries in row-major order, past the
    diagonal and pairs with a merged VM; only the absorb loop adds rows.
    """
    if server_slot_capacity < 1:
        raise DomainError("server capacity must be >= 1")
    max_members = server_slot_capacity // job.vm_resource
    if max_members <= 1:
        return single_vm_units(job)

    if t_ref is None:
        t_ref = referential_matrix(job)
    n = job.vm_count
    entries = iter(np.argsort(-t_ref.ravel(), kind="stable").tolist())
    alive = [True] * n
    live = n
    groups: list[list[int]] = []
    while live >= 2:
        for entry in entries:
            m1, m2 = divmod(entry, n)
            if m1 != m2 and alive[m1] and alive[m2]:
                break
        group = [m1, m2]
        alive[m1] = alive[m2] = False
        live -= 2
        if len(group) < max_members and live:
            # The merged row, summed in member order as repeated merges
            # would add it; only its live entries are read.
            merged = t_ref[m1] + t_ref[m2]
            while len(group) < max_members and live:
                target = int(np.where(alive, merged, -math.inf).argmax())
                group.append(target)
                alive[target] = False
                live -= 1
                merged += t_ref[target]
        groups.append(sorted(group))
    groups += [[m] for m in range(n) if alive[m]]
    return [
        SuperVM(job.id, tuple(g), len(g) * job.vm_resource) for g in groups
    ]


def single_vm_units(job: Job) -> list[SuperVM]:
    """Each VM as its own unit (the pipeline without the merge step)."""
    return [SuperVM(job.id, (m,), job.vm_resource) for m in range(job.vm_count)]


# --- job clustering --------------------------------------------------------


def estimate_pod_count(jobs: Sequence[Job], pod_slot_capacity: int) -> int:
    """Minimum number of pods covering the summed slot demand."""
    if pod_slot_capacity <= 0:
        raise DomainError("pod capacity must be > 0")
    total = sum(job.slots for job in jobs)
    return -(-total // pod_slot_capacity)


def cluster_jobs(
    jobs: Sequence[Job],
    n_pods: int,
    pod_slot_capacity: int,
    horizon: int,
    seed=None,
) -> PodClusters:
    """Group jobs into per-pod clusters by traffic-pattern distance.

    Cluster seeds come from k-means++ on the pattern vectors; remaining
    jobs (largest demand first) join the feasible cluster whose center
    pattern differs most from theirs, the lowest-numbered on a tie.  A
    job is measured against every feasible center in one `gap_distance`
    call, one row per center.  A center is the mean of its members'
    vectors.  Jobs that fit nowhere land in the overflow group.
    """
    if not jobs:
        return PodClusters(clusters=[[] for _ in range(n_pods)], overflow=[])
    if n_pods < 1:
        raise DomainError("need at least one pod for a nonempty job set")

    stack = np.array([pattern_vector(job, horizon) for job in jobs])
    seed_positions = kmeans_pp_seed(stack, n_pods, seed=seed)
    clusters = [[jobs[p].id] for p in seed_positions]
    members = [[p] for p in seed_positions]
    centers = stack[seed_positions]
    loads = np.array([jobs[p].slots for p in seed_positions])

    seeded = set(seed_positions)
    remaining = [i for i in range(len(jobs)) if i not in seeded]
    remaining.sort(key=lambda i: (-jobs[i].slots, jobs[i].id))
    overflow = []
    for i in remaining:
        job = jobs[i]
        feasible = (loads + job.slots <= pod_slot_capacity).nonzero()[0]
        if not len(feasible):
            overflow.append(job.id)
            continue
        # One distance per feasible center; the first minimum is the
        # lowest-numbered center among the nearest.
        distances = gap_distance(stack[i] - centers[feasible])
        best = int(feasible[distances.argmin()])
        clusters[best].append(job.id)
        members[best].append(i)
        loads[best] += job.slots
        # A mean of the stacked rows, not a running sum: numpy sums one
        # column pairwise, so at horizon 1 the two can differ.
        centers[best] = stack[members[best]].mean(axis=0)
    return PodClusters(clusters=clusters, overflow=overflow)


# --- rack partitioning ------------------------------------------------------


def partition_into_racks(
    super_vms: Sequence[SuperVM], t_ref: np.ndarray, k_racks: int
) -> list[list[int]]:
    """Split a job's units into at most k_racks groups along minimum cuts.

    Edge weights aggregate the lifetime traffic between the units in
    both directions; the partition keeps the heaviest-communicating
    units together.  Returns groups of indices into super_vms.

    With no more units than racks (k == count) the only partition into
    k nonempty groups is one unit per group, so the weights cannot
    change the answer and no graph is built.
    """
    if k_racks < 1:
        raise DomainError("k_racks must be >= 1")
    count = len(super_vms)
    if count == 0:
        return []
    k = min(k_racks, count)
    if k == 1:
        return [list(range(count))]
    if k == count:
        return [[a] for a in range(count)]
    members = [list(unit.members) for unit in super_vms]
    if all(len(m) == 1 for m in members):
        # One VM a unit: each weight is two entries of t_ref.
        ix = [m for m, in members]
        block = t_ref[np.ix_(ix, ix)]
        weights = block + block.T
        np.fill_diagonal(weights, 0.0)
    else:
        rows = [t_ref[m] for m in members]
        weights = np.zeros((count, count))
        for a in range(count):
            for b in range(a + 1, count):
                # take() keeps each block row-major, so it sums in the same
                # order as t_ref[np.ix_(...)]; rows[a][:, ...] would not.
                weights[a, b] = weights[b, a] = (
                    rows[a].take(members[b], axis=1).sum()
                    + rows[b].take(members[a], axis=1).sum()
                )
    return min_k_cut(WeightedGraph.of_matrix(weights), k)


# --- rack packing ------------------------------------------------------------


class _PodState:
    """Mutable rack/server occupancy for one pod during packing."""

    def __init__(self, racks: Sequence[Sequence[int]], server_capacity: int, free):
        self.racks = [list(r) for r in racks]
        self.capacity = server_capacity
        self.free = free  # shared map server -> free slots
        self.order = list(range(len(self.racks)))
        self.rack_of = {s: r for r, servers in enumerate(self.racks) for s in servers}
        self.idle = {s for s in self.rack_of if free[s] >= server_capacity}
        self.used = [
            sum(1 for s in servers if s not in self.idle) for servers in self.racks
        ]

    def resort(self, landed: Iterable[int]) -> None:
        """Count the idle servers among `landed` that now hold a unit, then
        order the racks by ascending used-server count.  Free slots only
        fall, so a used server stays used."""
        for s in landed:
            if s in self.idle and self.free[s] < self.capacity:
                self.idle.discard(s)
                self.used[self.rack_of[s]] += 1
        self.order.sort(key=lambda r: (self.used[r], r))

    def rack_placement(self, rack: int, units: Sequence[SuperVM]):
        """Distinct-server placement of a whole set, or None if it won't fit.

        Units take the first free server in their given order.
        """
        taken: set[int] = set()
        chosen = []
        for unit in units:
            for server in self.racks[rack]:
                if server not in taken and self.free[server] >= unit.size:
                    taken.add(server)
                    chosen.append((unit, server))
                    break
            else:
                return None
        return chosen


def pack_cluster_into_pod(
    job_partitions: Sequence[tuple[Job, Sequence[Sequence[SuperVM]]]],
    racks: Sequence[Sequence[int]],
    server_capacity: int,
    free,
) -> dict[tuple[int, int], int]:
    """Pack each job's unit groups into the pod's racks; returns the placements.

    Per job, groups go largest first into the first rack (in the current
    scan order) that can host the whole group on distinct servers; after
    each job the racks re-sort by ascending used-server count.  A group
    too big for any single rack is split across the emptiest racks.
    `free` maps each server to its free slots and is updated in place.
    Raises if the pod genuinely cannot hold the cluster.
    """
    pod = _PodState(racks, server_capacity, free)
    placements: dict[tuple[int, int], int] = {}

    for job, groups in job_partitions:
        ordered = sorted(
            groups,
            key=lambda g: (-sum(u.size for u in g), min(u.members for u in g)),
        )
        for group in ordered:
            units = sorted(group, key=lambda u: (-u.size, u.members))
            placed = None
            for rack in pod.order:
                placed = pod.rack_placement(rack, units)
                if placed is not None:
                    break
            if placed is not None:
                for unit, server in placed:
                    _commit(placements, free, unit, server)
                continue
            # Split across the emptiest racks, filling each in turn.
            fit = _FirstFit(
                [s for rack in _by_emptiest(pod) for s in pod.racks[rack]], free
            )
            for unit in units:
                _place_unit(unit, job, fit, placements)
        pod.resort(
            placements[(job.id, m)]
            for group in groups
            for unit in group
            for m in unit.members
        )
    return placements


def _by_emptiest(pod: _PodState) -> list[int]:
    frees = [sum(pod.free[s] for s in pod.racks[r]) for r in range(len(pod.racks))]
    return sorted(range(len(pod.racks)), key=lambda r: (-frees[r], r))


def _commit(placements, free, unit: SuperVM, server: int) -> None:
    for m in unit.members:
        placements[(unit.job_id, m)] = server
    free[server] -= unit.size


class _FirstFit:
    """First-fit over a fixed server order while free slots only fall.

    The first server with room for a size never moves backwards when
    `free` only decreases, so one cursor per size resumes where the last
    search for that size stopped: a whole placement pass walks the order
    once per size, not once per VM.
    """

    def __init__(self, servers: Iterable[int], free):
        self.servers = list(servers)
        self.free = free  # server -> free slots, shared with the caller
        self.cursor: dict[int, int] = {}

    def server(self, size: int):
        """The first server with at least `size` free slots, or None."""
        servers, free = self.servers, self.free
        i = self.cursor.get(size, 0)
        while i < len(servers) and free[servers[i]] < size:
            i += 1
        self.cursor[size] = i
        return servers[i] if i < len(servers) else None


# --- assignment strategies ---------------------------------------------------


def _first_fit_assign(jobs, tree, merge, seed, horizon) -> Assignment:
    """First-fit in (job, vm index) order: super-VMs with `merge`, else VMs."""
    fit = _first_fit_over(jobs, tree)
    placements: dict[tuple[int, int], int] = {}
    for job in jobs:
        if merge:
            for unit in shrink_to_super_vms(job, tree.server_capacity):
                _place_unit(unit, job, fit, placements)
        else:
            _place_vms(job, range(job.vm_count), fit, placements)
    return Assignment(placements)


def _pipeline_assign(jobs, tree, merge, seed, horizon) -> Assignment:
    """Merge (with `merge`), cluster into pods, min-cut racks, pack."""
    anywhere = _first_fit_over(jobs, tree)
    free = anywhere.free
    by_id = {job.id: job for job in jobs}
    placements: dict[tuple[int, int], int] = {}

    # Jobs larger than a pod cannot be clustered; place them greedily first.
    normal = [job for job in jobs if job.slots <= tree.pod_slot_capacity]
    for job in jobs:
        if job.slots > tree.pod_slot_capacity:
            for unit in _units(job, tree, merge):
                _place_unit(unit, job, anywhere, placements)

    n_pods = estimate_pod_count(normal, tree.pod_slot_capacity)
    if n_pods == 0:
        return Assignment(placements)
    clusters = cluster_jobs(normal, n_pods, tree.pod_slot_capacity, horizon, seed=seed)

    # Prefer untouched pods for the clusters, emptiest first.
    def pod_used(p: int) -> int:
        return sum(tree.server_capacity - free[s] for s in tree.pod_servers(p))

    target_pods = sorted(range(tree.num_pods), key=lambda p: (pod_used(p), p))[:n_pods]

    for cluster_index, job_ids in enumerate(clusters.clusters):
        pod = target_pods[cluster_index]
        racks = [tree.rack_servers(pod, r) for r in range(tree.racks_per_pod)]
        ordered_ids = sorted(job_ids, key=lambda j: (-by_id[j].slots, j))
        partitions = []
        for job_id in ordered_ids:
            job = by_id[job_id]
            t_ref = referential_matrix(job)  # merge and cut share it
            units = _units(job, tree, merge, t_ref)
            groups = partition_into_racks(units, t_ref, tree.racks_per_pod)
            partitions.append((job, [[units[i] for i in g] for g in groups]))
        placements.update(
            pack_cluster_into_pod(partitions, racks, tree.server_capacity, free)
        )

    # Overflow jobs fill vacant capacity of the cluster pods, then anywhere.
    in_clusters = _FirstFit(
        (s for p in target_pods for s in tree.pod_servers(p)), free
    )
    for job_id in sorted(clusters.overflow, key=lambda j: (-by_id[j].slots, j)):
        job = by_id[job_id]
        for unit in _units(job, tree, merge):
            server = in_clusters.server(unit.size)
            if server is not None:
                _commit(placements, free, unit, server)
            else:
                _place_unit(unit, job, anywhere, placements)
    return Assignment(placements)


def _units(job: Job, tree: FatTree, merge: bool, t_ref=None) -> list[SuperVM]:
    """The job's placement units: its super-VMs with `merge`, else its VMs."""
    if merge:
        return shrink_to_super_vms(job, tree.server_capacity, t_ref)
    return single_vm_units(job)


def _first_fit_over(jobs: Sequence[Job], tree: FatTree) -> _FirstFit:
    """First-fit over every server of the empty datacenter, once the jobs fit."""
    total = sum(job.slots for job in jobs)
    if total > tree.total_slots:
        raise InfeasibleError(
            f"workload requests {total} slots but the datacenter has "
            f"{tree.total_slots}"
        )
    free = {s: tree.server_capacity for s in range(tree.num_servers)}
    return _FirstFit(range(tree.num_servers), free)


def _place_unit(unit: SuperVM, job: Job, fit: _FirstFit, placements) -> None:
    server = fit.server(unit.size)
    if server is not None:
        _commit(placements, fit.free, unit, server)
    else:
        # Slot fragmentation can strand a multi-VM unit even when total
        # free capacity suffices; place its VMs one by one.
        _place_vms(job, unit.members, fit, placements)


def _place_vms(job: Job, members: Iterable[int], fit: _FirstFit, placements) -> None:
    free = fit.free
    for m in members:
        server = fit.server(job.vm_resource)
        if server is None:
            raise InfeasibleError(f"no server can host job {job.id} VM {m}")
        placements[(job.id, m)] = server
        free[server] -= job.vm_resource


# The ablation grid of the paper's placement principles, reached through
# `assign`: a placer per strategy, and whether it merges super-VMs first.
STRATEGIES = {
    "greedy": (_first_fit_assign, False),
    "opt_greedy": (_first_fit_assign, True),
    "eea": (_pipeline_assign, False),
    "opt_eea": (_pipeline_assign, True),
}
# Strategies whose placement depends on the run seed (k-means++ clustering).
SEEDED = frozenset(n for n, (placer, _) in STRATEGIES.items() if placer is _pipeline_assign)


def assign(name: str, jobs: Sequence[Job], tree: FatTree, seed=None, *, horizon: int):
    """Dispatch by strategy name; seed and horizon only matter for the pipelines."""
    if name not in STRATEGIES:
        raise DomainError(f"unknown assignment strategy {name!r}")
    placer, merge = STRATEGIES[name]
    return placer(jobs, tree, merge, seed, horizon)
