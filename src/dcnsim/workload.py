"""Jobs, transfers and the synthetic workload generator.

A job is a set of VMs plus one or more transfers: time-windowed traffic
matrices in Mbps (entry (a, b) = flow a -> b).  Background traffic
outside transfer windows is modeled as exactly zero so idle switches
can sleep.  Workload files are versioned JSON and round-trip losslessly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DomainError

# Distance sentinel for identical traffic patterns (the inverse-norm
# distance is singular there); large enough to dominate any real value.
DIST_MAX = 1e12


@dataclass(frozen=True)
class Transfer:
    """One communication-intensive window: [start, end] timeslots, rate matrix."""

    start: int
    end: int
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))
        if self.start > self.end:
            raise DomainError(f"transfer window [{self.start}, {self.end}] is empty")
        if self.start < 0:
            raise DomainError(f"transfer start {self.start} before horizon start")
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"traffic matrix must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise DomainError("traffic matrix entries must be finite")
        if (m < 0).any():
            raise DomainError("traffic matrix entries must be >= 0")
        if np.diagonal(m).any():
            raise DomainError("traffic matrix diagonal must be zero")

    def active_at(self, t: int) -> bool:
        return self.start <= t <= self.end

    def duration(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class Job:
    """A job: n VMs (each needing vm_resource slots) plus its transfers."""

    id: int
    vm_count: int
    transfers: tuple[Transfer, ...] = ()
    vm_resource: int = 1

    def __post_init__(self):
        object.__setattr__(self, "transfers", tuple(self.transfers))
        if self.vm_count < 1:
            raise DomainError(f"job {self.id}: vm_count must be >= 1")
        if self.vm_resource < 1:
            raise DomainError(f"job {self.id}: vm_resource must be >= 1")
        for tr in self.transfers:
            if tr.matrix.shape != (self.vm_count, self.vm_count):
                raise DomainError(
                    f"job {self.id}: transfer matrix shape {tr.matrix.shape} "
                    f"does not match vm_count {self.vm_count}"
                )

    @property
    def slots(self) -> int:
        return self.vm_count * self.vm_resource

    def traffic_at(self, t: int):
        """Summed traffic matrix of transfers active at t, or None if idle."""
        active = [tr.matrix for tr in self.transfers if tr.active_at(t)]
        if not active:
            return None
        if len(active) == 1:
            return active[0]
        return sum(active)


@dataclass(frozen=True, eq=False)
class DemandSet:
    """Server-to-server demands (Mbps) for one timeslot as three arrays.

    Demand i runs from server `src[i]` to `dst[i]` (src != dst) at
    `rate[i]` Mbps.
    """

    src: np.ndarray  # int64
    dst: np.ndarray  # int64
    rate: np.ndarray  # float64

    @classmethod
    def of(cls, flows) -> DemandSet:
        """The demands of hand-built (src, dst, rate) tuples, in their order."""
        src, dst, rate = zip(*flows) if flows else ((), (), ())
        return cls(
            np.array(src, dtype=np.int64),
            np.array(dst, dtype=np.int64),
            np.array(rate, dtype=float),
        )

    @property
    def flows(self) -> tuple[tuple[int, int, float], ...]:
        """(src, dst, rate) per demand, built on demand for readers."""
        return tuple(zip(self.src.tolist(), self.dst.tolist(), self.rate.tolist()))


@dataclass(frozen=True)
class WorkloadConfig:
    """Synthetic workload knobs; defaults follow the experiment setup.

    Job VM counts are drawn from N(vm_mean, vm_std) with vm_mean
    defaulting to the servers-per-rack count (k/2) and vm_std to half of
    it; draws rounding below 2 are redrawn, and counts are clamped so a
    job always fits one pod and the whole VMs still free in the
    datacenter.  Window length is a uniform fraction of the horizon
    (profiled jobs are network-intensive for 30..60% of their run); the
    window is truncated at the horizon end.
    """

    k: int
    target_utilization: float
    horizon: int = 100
    server_capacity: int = 2
    vm_resource: int = 1
    rate_mean_mbps: float = 50.0
    rate_std_mbps: float = 1.0
    vm_mean: float | None = None
    vm_std: float | None = None
    window_frac_min: float = 0.3
    window_frac_max: float = 0.6

    def __post_init__(self):
        if self.k % 2 != 0 or not (4 <= self.k <= 48):
            raise ConfigError(f"k must be even and within [4, 48], got {self.k}")
        if not (0.0 <= self.target_utilization <= 1.0):
            raise ConfigError(
                f"target_utilization must be within [0, 1], got {self.target_utilization}"
            )
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if not (0 < self.window_frac_min <= self.window_frac_max <= 1.0):
            raise ConfigError("window fractions must satisfy 0 < min <= max <= 1")

    def resolved_vm_mean(self) -> float:
        return self.vm_mean if self.vm_mean is not None else self.k / 2.0

    def resolved_vm_std(self) -> float:
        return self.vm_std if self.vm_std is not None else 0.5 * self.resolved_vm_mean()


def generate_workload(cfg: WorkloadConfig, seed: int) -> list[Job]:
    """Draw jobs until the requested slots first reach the target utilization.

    Deterministic given (cfg, seed): one RNG stream, fixed draw order per
    job (vm count, window start, window fraction, rate matrix).
    """
    total_slots = (cfg.k**3 // 4) * cfg.server_capacity
    pod_slots = (cfg.k**2 // 4) * cfg.server_capacity
    target = cfg.target_utilization * total_slots
    rng = np.random.default_rng(seed)
    vm_mean, vm_std = cfg.resolved_vm_mean(), cfg.resolved_vm_std()
    max_vms = max(2, pod_slots // cfg.vm_resource)

    jobs: list[Job] = []
    requested = 0
    while requested < target and total_slots - requested >= cfg.vm_resource:
        while True:
            n = int(round(rng.normal(vm_mean, vm_std)))
            if n >= 2:
                break
        n = min(n, max_vms, (total_slots - requested) // cfg.vm_resource)
        start = int(rng.integers(0, cfg.horizon))
        frac = rng.uniform(cfg.window_frac_min, cfg.window_frac_max)
        length = max(1, int(round(frac * cfg.horizon)))
        end = min(cfg.horizon - 1, start + length - 1)
        matrix = rng.normal(cfg.rate_mean_mbps, cfg.rate_std_mbps, size=(n, n))
        np.clip(matrix, 0.0, None, out=matrix)
        np.fill_diagonal(matrix, 0.0)
        jobs.append(
            Job(
                id=len(jobs),
                vm_count=n,
                transfers=(Transfer(start, end, matrix),),
                vm_resource=cfg.vm_resource,
            )
        )
        requested += jobs[-1].slots
    return jobs


def referential_matrix(job: Job) -> np.ndarray:
    """Lifetime pairwise traffic: per-entry sum of T(t) over all timeslots."""
    total = np.zeros((job.vm_count, job.vm_count))
    for tr in job.transfers:
        total += tr.duration() * tr.matrix
    return total


def pattern_vector(job: Job, horizon: int, epsilon: float = 0.0) -> np.ndarray:
    """Per-timeslot average pairwise traffic (epsilon outside windows)."""
    if horizon < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    raw = np.zeros(horizon)
    covered = np.zeros(horizon, dtype=bool)
    denom = job.vm_count**2 / 2.0
    for tr in job.transfers:
        value = float(tr.matrix.sum()) / denom
        lo, hi = max(0, tr.start), min(horizon - 1, tr.end)
        if lo <= hi:
            # Overlapping transfers stack on top of each other.
            raw[lo : hi + 1] += value
            covered[lo : hi + 1] = True
    return np.where(covered, raw, epsilon)


def job_distance(v1: np.ndarray, v2: np.ndarray, dist_max: float = DIST_MAX) -> float:
    """Inverse L2 separation: similar patterns sit at a large distance."""
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    if v1.shape != v2.shape:
        raise DomainError(f"pattern length mismatch: {v1.shape} vs {v2.shape}")
    norm = float(np.linalg.norm(v1 - v2))
    if norm == 0.0:
        return dist_max
    return 1.0 / norm


@dataclass(frozen=True, eq=False)
class DemandTable:
    """Every VM-pair flow of a placed workload, built once per run.

    A unit is one job over a stretch of slots in which its set of active
    transfers does not change; unit u sends the job's summed matrix of
    those transfers over slots start[u]..end[u].  Row i is one positive
    entry of a unit's matrix whose two VMs sit on different servers: it
    carries rate[i] Mbps from server src[i] to dst[i] while unit[i] is
    active.  Rows are stably ordered by (src, dst) once; within a pair
    they keep job order, then row-major (source VM, destination VM)
    order, which is the order `at` adds them in.
    """

    start: np.ndarray  # int64 per unit
    end: np.ndarray  # int64 per unit
    src: np.ndarray  # uint16 per row (server ids fit 16 bits, k <= 48)
    dst: np.ndarray  # uint16 per row
    rate: np.ndarray  # float64 per row
    unit: np.ndarray  # uint16 per row (int32 past 65,536 units)

    def at(self, t: int) -> DemandSet:
        """Server-to-server demands of the units active at slot t.

        The kept rows are already in pair order; each pair's rate adds
        its VM-pair rates in row order, starting from 0.0.  Another
        order may change the last bits of the rates and so of every
        energy total.
        """
        keep = ((self.start <= t) & (t <= self.end))[self.unit]
        src, dst, rate = self.src[keep], self.dst[keep], self.rate[keep]
        if not len(src):
            empty = np.empty(0, dtype=np.int64)
            return DemandSet(empty, empty, np.empty(0))
        first = np.empty(len(src), dtype=bool)
        first[0] = True
        first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        group = first.cumsum()
        group -= 1
        rate = np.bincount(group, weights=rate)
        return DemandSet(
            src[first].astype(np.int64), dst[first].astype(np.int64), rate
        )


def demand_table(
    jobs: Sequence[Job], assignment: Mapping[tuple[int, int], int]
) -> DemandTable:
    """The demand table of `jobs` placed by `assignment`.

    VM pairs co-hosted on one server emit nothing (their traffic never
    reaches a NIC).  A VM of a listed job without a server is a
    DomainError.  The rows fill preallocated compact arrays, and each
    unsorted array is freed as soon as its sorted copy exists.
    """
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
    rows = sum(int(np.count_nonzero(sent)) for _, _, sent in units)
    src = np.empty(rows, dtype=np.uint16)
    dst = np.empty(rows, dtype=np.uint16)
    rate = np.empty(rows)
    unit = np.empty(rows, dtype=np.uint16 if len(units) <= 1 << 16 else np.int32)
    begin = 0
    for u, (hosts, matrix, sent) in enumerate(units):
        row, col = sent.nonzero()
        stop = begin + len(row)
        src[begin:stop] = hosts[row]
        dst[begin:stop] = hosts[col]
        rate[begin:stop] = matrix[row, col]
        unit[begin:stop] = u
        begin = stop
    del units
    # `pair_order`'s two stable radix passes, by dst and then by src, each
    # applied at once so that no unsorted column outlives its sorted copy.
    columns = [src, dst, rate, unit]
    del src, dst, rate, unit
    for key in (1, 0):
        order = columns[key].argsort(kind="stable")
        for i, column in enumerate(columns):
            columns[i] = column[order]
    return DemandTable(np.array(starts, dtype=np.int64),
                       np.array(ends, dtype=np.int64), *columns)


def _hosts(job: Job, assignment) -> np.ndarray:
    """The servers of the job's VMs, in VM order, as uint16."""
    try:
        return np.array(
            [assignment[(job.id, m)] for m in range(job.vm_count)], dtype=np.uint16
        )
    except KeyError:
        m = next(m for m in range(job.vm_count) if (job.id, m) not in assignment)
        raise DomainError(f"job {job.id} VM {m} has no assigned server") from None


def _stretches(job: Job):
    """(first, last) slot of each stretch with the same, nonempty set of
    the job's transfers active."""
    edges = sorted({e for tr in job.transfers for e in (tr.start, tr.end + 1)})
    for first, stop in zip(edges, edges[1:]):
        if any(tr.active_at(first) for tr in job.transfers):
            yield first, stop - 1


def demands_at(
    jobs: Sequence[Job], assignment: Mapping[tuple[int, int], int], t: int
) -> DemandSet:
    """Server-to-server demands produced by transfers active at timeslot t.

    The demand table (`demand_table`) of the jobs active at t, read at
    t: multiple VM-pair flows between the same server pair aggregate
    into one demand, co-hosted VM pairs emit nothing, and demands come
    ordered by (src, dst).  A server pair's rate sums its VM-pair rates
    job by job in the order of `jobs`, and within a job in row-major
    (source VM, destination VM) order of the summed traffic matrix,
    starting from 0.0.  Only an active job needs its VMs assigned.
    """
    active = [job for job in jobs if any(tr.active_at(t) for tr in job.transfers)]
    return demand_table(active, assignment).at(t)


def pair_order(src, dst) -> np.ndarray:
    """Stable order of server pairs by (src, dst).

    Two radix passes: server ids fit 16 bits (k <= 48).  numpy's radix
    sort is faster than its comparison sorts here, and its code is a
    small part of what they load into memory.
    """
    order = dst.astype(np.uint16).argsort(kind="stable")
    return order[src[order].astype(np.uint16).argsort(kind="stable")]


# --- workload files ------------------------------------------------------

WORKLOAD_FORMAT_VERSION = 1


def save_workload(path, jobs: Sequence[Job], horizon: int, seed=None, config=None):
    """Write jobs to a versioned JSON workload file."""
    doc = {
        "version": WORKLOAD_FORMAT_VERSION,
        "horizon": horizon,
        "seed": seed,
        "config": config or {},
        "jobs": [
            {
                "id": job.id,
                "vm_count": job.vm_count,
                "vm_resource": job.vm_resource,
                "transfers": [
                    {
                        "start": tr.start,
                        "end": tr.end,
                        "matrix": tr.matrix.tolist(),
                    }
                    for tr in job.transfers
                ],
            }
            for job in jobs
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_document(path, kind: str, version: int, build):
    """Read a versioned JSON file and return `build(document)`.

    A file that is not JSON, holds no JSON object or another version, or
    whose document lacks a key or holds a value of the wrong type or out
    of its domain (a negative or non-finite rate, say), raises
    ConfigError naming the file.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{kind} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{kind} file {path} does not hold a JSON object")
    if doc.get("version") != version:
        raise ConfigError(
            f"unsupported {kind} file version {doc.get('version')!r} in {path}"
        )
    try:
        return build(doc)
    except KeyError as exc:
        raise ConfigError(f"{kind} file {path} lacks the key {exc.args[0]!r}") from exc
    except (AttributeError, DomainError, TypeError, ValueError) as exc:
        raise ConfigError(f"{kind} file {path} is malformed: {exc}") from exc


def load_workload(path):
    """Read a workload file (see `load_document`); returns (jobs, metadata)."""
    return load_document(path, "workload", WORKLOAD_FORMAT_VERSION, _workload_of)


def _workload_of(doc):
    jobs = [
        Job(
            id=entry["id"],
            vm_count=entry["vm_count"],
            vm_resource=entry.get("vm_resource", 1),
            transfers=tuple(
                Transfer(tr["start"], tr["end"], np.array(tr["matrix"], dtype=float))
                for tr in entry["transfers"]
            ),
        )
        for entry in doc["jobs"]
    ]
    return jobs, {k: doc.get(k) for k in ("horizon", "seed", "config")}
