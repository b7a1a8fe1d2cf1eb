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

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError, InfeasibleError
from .graphkit import WeightedGraph, kmeans_pp_seed, min_k_cut
from .topology import FatTree
from .workload import Job, job_distance, pattern_vector, referential_matrix


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

    def __getitem__(self, key):
        return self.placements[key]

    def __contains__(self, key):
        return key in self.placements

    def __len__(self):
        return len(self.placements)

    def __eq__(self, other):
        return isinstance(other, Assignment) and self.placements == other.placements

    def validate(self, jobs: Sequence[Job], tree: FatTree) -> None:
        """Check totality, uniqueness of placement and server capacity."""
        expected = {(job.id, m) for job in jobs for m in range(job.vm_count)}
        missing = expected - set(self.placements)
        if missing:
            raise DomainError(f"unassigned VMs: {sorted(missing)[:5]} ...")
        extra = set(self.placements) - expected
        if extra:
            raise DomainError(f"assignment covers unknown VMs: {sorted(extra)[:5]}")
        resource = {job.id: job.vm_resource for job in jobs}
        usage: dict[int, int] = {}
        for (job_id, _), server in self.placements.items():
            usage[server] = usage.get(server, 0) + resource[job_id]
        for server, used in usage.items():
            tree.check_server(server)
            if used > tree.server_capacity:
                raise DomainError(
                    f"server {server} holds {used} slots > capacity "
                    f"{tree.server_capacity}"
                )


@dataclass
class PodClusters:
    """Job groups destined for individual pods, plus the overflow group."""

    clusters: list[list[int]]
    overflow: list[int]
    centers: list[np.ndarray] = field(default_factory=list)


# --- super-VM transformation ----------------------------------------------


def shrink_to_super_vms(job: Job, server_slot_capacity: int) -> list[SuperVM]:
    """Merge the job's VMs into server-sized groups, highest traffic first.

    Repeatedly take the largest entry of the lifetime traffic matrix,
    merge the two VMs (their mutual traffic disappears, their traffic to
    others adds up), then keep absorbing the VM with the largest value
    in the merged row until the group fills a server.  Ties break toward
    the lowest VM index; leftover VMs become singletons.
    """
    if server_slot_capacity < 1:
        raise DomainError("server capacity must be >= 1")
    max_members = server_slot_capacity // job.vm_resource
    if max_members <= 1:
        return single_vm_units(job)

    work = referential_matrix(job)
    n = job.vm_count
    alive = np.ones(n, dtype=bool)
    off_diagonal = ~np.eye(n, dtype=bool)
    groups: list[list[int]] = []
    while np.count_nonzero(alive) >= 2:
        # argmax returns the first maximum in row-major order, which is
        # the lowest-index tie rule; the masks keep it to live VMs.
        pairs = alive[:, None] & alive & off_diagonal
        m1, m2 = divmod(int(np.where(pairs, work, -math.inf).argmax()), n)
        group = [m1, m2]
        _absorb(work, m1, m2)
        alive[m1] = alive[m2] = False
        while len(group) < max_members and np.count_nonzero(alive):
            target = int(np.where(alive, work[m1], -math.inf).argmax())
            group.append(target)
            _absorb(work, m1, target)
            alive[target] = False
        groups.append(sorted(group))
    groups += [[m] for m in np.flatnonzero(alive).tolist()]
    return [
        SuperVM(job.id, tuple(g), len(g) * job.vm_resource) for g in groups
    ]


def _absorb(work: np.ndarray, keep: int, other: int) -> None:
    work[keep, :] += work[other, :]
    work[:, keep] += work[:, other]
    work[other, :] = 0.0
    work[:, other] = 0.0
    work[keep, keep] = 0.0


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
    pattern differs most from theirs.  Centers are running means of
    member vectors.  Jobs that fit nowhere land in the overflow group.
    """
    if not jobs:
        return PodClusters(clusters=[[] for _ in range(n_pods)], overflow=[])
    if n_pods < 1:
        raise DomainError("need at least one pod for a nonempty job set")

    vectors = [pattern_vector(job, horizon) for job in jobs]
    seed_positions = kmeans_pp_seed(vectors, n_pods, seed=seed)
    clusters = [[jobs[p].id] for p in seed_positions]
    centers = [vectors[p].copy() for p in seed_positions]
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
        _, best = min((job_distance(vectors[i], centers[c]), c) for c in feasible)
        clusters[best].append(job.id)
        member_vecs[best].append(vectors[i])
        loads[best] += job.slots
        centers[best] = np.mean(member_vecs[best], axis=0)
    return PodClusters(clusters=clusters, overflow=overflow, centers=centers)


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
    rows = [t_ref[m] for m in members]
    graph = WeightedGraph(count)
    for a in range(count):
        for b in range(a + 1, count):
            # take() keeps each block row-major, so it sums in the same
            # order as t_ref[np.ix_(...)]; rows[a][:, ...] would not.
            w = float(
                rows[a].take(members[b], axis=1).sum()
                + rows[b].take(members[a], axis=1).sum()
            )
            if w > 0:
                graph.add_edge(a, b, w)
    components, _ = min_k_cut(graph, k)
    return components


# --- rack packing ------------------------------------------------------------


class _PodState:
    """Mutable rack/server occupancy for one pod during packing."""

    def __init__(self, racks: Sequence[Sequence[int]], server_capacity: int, free):
        self.racks = [list(r) for r in racks]
        self.capacity = server_capacity
        self.free = free  # shared map server -> free slots
        self.order = list(range(len(self.racks)))

    def used_servers(self, rack: int) -> int:
        return sum(1 for s in self.racks[rack] if self.free[s] < self.capacity)

    def resort(self) -> None:
        self.order.sort(key=lambda r: (self.used_servers(r), r))

    def rack_placement(self, rack: int, units: Sequence[SuperVM]):
        """Distinct-server placement of a whole set, or None if it won't fit."""
        taken: set[int] = set()
        chosen = []
        for unit in sorted(units, key=lambda u: (-u.size, u.members)):
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
    free=None,
) -> tuple[dict[tuple[int, int], int], list[str]]:
    """Pack each job's unit groups into the pod's racks.

    Per job, groups go largest first into the first rack (in the current
    scan order) that can host the whole group on distinct servers; after
    each job the racks re-sort by ascending used-server count.  A group
    too big for any single rack is split across the emptiest racks, with
    a warning.  Raises if the pod genuinely cannot hold the cluster.
    """
    if free is None:
        free = {s: server_capacity for rack in racks for s in rack}
    pod = _PodState(racks, server_capacity, free)
    placements: dict[tuple[int, int], int] = {}
    warnings: list[str] = []

    for job, groups in job_partitions:
        ordered = sorted(
            groups,
            key=lambda g: (-sum(u.size for u in g), min(u.members for u in g)),
        )
        for group in ordered:
            placed = None
            for rack in pod.order:
                placed = pod.rack_placement(rack, group)
                if placed is not None:
                    break
            if placed is not None:
                for unit, server in placed:
                    _commit(placements, free, unit, server)
                continue
            # Split across the emptiest racks, filling each in turn.
            warnings.append(
                f"job {job.id}: group of {sum(u.size for u in group)} slots "
                f"split across racks"
            )
            fit = _FirstFit(
                [s for rack in _by_emptiest(pod) for s in pod.racks[rack]], free
            )
            for unit in sorted(group, key=lambda u: (-u.size, u.members)):
                _place_unit(unit, job, fit, placements)
        pod.resort()
    return placements, warnings


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


def greedy_assign(jobs: Sequence[Job], tree: FatTree) -> Assignment:
    """First-fit: VMs in (job, vm index) order onto the first open server."""
    fit = _first_fit_over(jobs, tree)
    placements: dict[tuple[int, int], int] = {}
    for job in jobs:
        _place_vms(job, range(job.vm_count), fit, placements)
    return Assignment(placements)


def opt_greedy_assign(jobs: Sequence[Job], tree: FatTree) -> Assignment:
    """First-fit over super-VMs: merge first, then place groups greedily."""
    fit = _first_fit_over(jobs, tree)
    placements: dict[tuple[int, int], int] = {}
    for job in jobs:
        for unit in shrink_to_super_vms(job, tree.server_capacity):
            _place_unit(unit, job, fit, placements)
    return Assignment(placements)


def eea_assign(
    jobs: Sequence[Job], tree: FatTree, seed=None, horizon=None
) -> Assignment:
    """The pod/rack pipeline applied to raw VMs (no super-VM merge)."""
    return _pipeline_assign(jobs, tree, seed, horizon, shrink=False)


def opt_eea(
    jobs: Sequence[Job], tree: FatTree, seed=None, horizon=None
) -> Assignment:
    """The full pipeline: shrink, cluster into pods, min-cut racks, pack."""
    return _pipeline_assign(jobs, tree, seed, horizon, shrink=True)


def _pipeline_assign(jobs, tree, seed, horizon, shrink) -> Assignment:
    anywhere = _first_fit_over(jobs, tree)
    free = anywhere.free
    if horizon is None:
        horizon = max(
            (tr.end + 1 for job in jobs for tr in job.transfers), default=1
        )
    units_of = {
        job.id: (
            shrink_to_super_vms(job, tree.server_capacity)
            if shrink
            else single_vm_units(job)
        )
        for job in jobs
    }
    by_id = {job.id: job for job in jobs}
    placements: dict[tuple[int, int], int] = {}

    # Jobs larger than a pod cannot be clustered; place them greedily first.
    normal = [job for job in jobs if job.slots <= tree.pod_slot_capacity]
    for job in jobs:
        if job.slots > tree.pod_slot_capacity:
            for unit in units_of[job.id]:
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
            units = units_of[job_id]
            t_ref = referential_matrix(job)
            groups = partition_into_racks(units, t_ref, tree.racks_per_pod)
            partitions.append((job, [[units[i] for i in g] for g in groups]))
        placed, _ = pack_cluster_into_pod(
            partitions, racks, tree.server_capacity, free=free
        )
        placements.update(placed)

    # Overflow jobs fill vacant capacity of the cluster pods, then anywhere.
    in_clusters = _FirstFit(
        (s for p in target_pods for s in tree.pod_servers(p)), free
    )
    for job_id in sorted(clusters.overflow, key=lambda j: (-by_id[j].slots, j)):
        job = by_id[job_id]
        for unit in units_of[job_id]:
            server = in_clusters.server(unit.size)
            if server is not None:
                _commit(placements, free, unit, server)
            else:
                _place_unit(unit, job, anywhere, placements)
    return Assignment(placements)


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


STRATEGIES = {
    "greedy": lambda jobs, tree, seed, horizon: greedy_assign(jobs, tree),
    "opt_greedy": lambda jobs, tree, seed, horizon: opt_greedy_assign(jobs, tree),
    "eea": eea_assign,
    "opt_eea": opt_eea,
}


def assign(name: str, jobs: Sequence[Job], tree: FatTree, seed=None, horizon=None):
    """Dispatch by strategy name; seed only matters for the pipelines."""
    if name not in STRATEGIES:
        raise DomainError(f"unknown assignment strategy {name!r}")
    return STRATEGIES[name](jobs, tree, seed, horizon)
