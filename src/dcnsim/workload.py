"""Jobs, transfers and the synthetic workload generator.

A job is a set of VMs plus one or more transfers: time-windowed traffic
matrices in Mbps (entry (a, b) = flow a -> b).  Background traffic
outside transfer windows is modeled as exactly zero so idle switches
can sleep.  Workload files are versioned JSON and round-trip losslessly.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .topology import FatTree

# Distance sentinel for identical traffic patterns (the inverse-norm
# distance is singular there); large enough to dominate any real value.
DIST_MAX = 1e12


@dataclass(frozen=True, eq=False)
class Transfer:
    """One communication-intensive window: [start, end] timeslots, rate matrix.

    `start` and `end` are Python ints (not bools), as a workload file
    stores them.  Transfers compare field by field, matrices by value,
    and hash by their window and matrix shape, so a `Job` holding them
    compares and hashes too.
    """

    start: int
    end: int
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))
        for name, value in (("start", self.start), ("end", self.end)):
            if not _is_int(value):
                raise DomainError(f"transfer {name} must be an int, got {value!r}")
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

    def __eq__(self, other):
        if not isinstance(other, Transfer):
            return NotImplemented
        return ((self.start, self.end) == (other.start, other.end)
                and np.array_equal(self.matrix, other.matrix))

    def __hash__(self):
        return hash((self.start, self.end, self.matrix.shape))

    def active_at(self, t: int) -> bool:
        return self.start <= t <= self.end

    def duration(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class Job:
    """A job: n VMs (each needing vm_resource slots) plus its transfers.

    `id` is an int and the two counts are ints >= 1, none of them a bool,
    as a workload file stores them.
    """

    id: int
    vm_count: int
    transfers: tuple[Transfer, ...] = ()
    vm_resource: int = 1

    def __post_init__(self):
        object.__setattr__(self, "transfers", tuple(self.transfers))
        if not _is_int(self.id):
            raise DomainError(f"job id must be an int, got {self.id!r}")
        for name in ("vm_count", "vm_resource"):
            value = getattr(self, name)
            if not (_is_int(value) and value >= 1):
                raise DomainError(
                    f"job {self.id}: {name} must be an int >= 1, got {value!r}")
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
    `rate[i]` Mbps.  A set read from a run's demand table (`DemandTable.at`)
    also carries that table and each demand's pair id in it, so a router
    whose choice is a pure function of the server pair derives its rows
    once per run (`pair_rows`).  A hand-built set has neither: it is its
    own pair table, with ids 0..n-1.
    """

    src: np.ndarray  # int64
    dst: np.ndarray  # int64
    rate: np.ndarray  # float64
    pair: np.ndarray | None = None  # each demand's pair id in `table`
    table: DemandTable | None = field(default=None, repr=False)

    def pair_rows(self, key, build):
        """Row i of `build(src, dst)` for each demand i's server pair.

        A set read from a table gathers the rows that the table builds
        once for all its pairs (`DemandTable.pair_rows`); a hand-built set
        builds them over its own pairs.
        """
        if self.table is None:
            return build(self.src, self.dst)
        return self.table.pair_rows(key, build).take(self.pair, axis=0)

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


# The generator's fixed draws, after the experiment setup: one slot per
# VM; VM counts from N(k/2, VM_STD_OF_MEAN * k/2); window lengths a
# uniform WINDOW_FRAC_MIN..WINDOW_FRAC_MAX share of the horizon (profiled
# jobs are network-intensive for 30..60% of their run); pairwise rates
# from N(RATE_MEAN_MBPS, RATE_STD_MBPS), clipped at 0.
VM_RESOURCE = 1
VM_STD_OF_MEAN = 0.5
WINDOW_FRAC_MIN = 0.3
WINDOW_FRAC_MAX = 0.6
RATE_MEAN_MBPS = 50.0
RATE_STD_MBPS = 1.0


@dataclass(frozen=True)
class WorkloadConfig:
    """Synthetic workload size: Fat-Tree arity, share of the VM slots to
    request, horizon and slots per server; the constants above fix the rest.

    VM-count draws rounding below 2 are redrawn, and counts are clamped so
    a job always fits one pod and the whole VMs still free in the
    datacenter; the window is truncated at the horizon end.
    """

    k: int
    target_utilization: float
    horizon: int = 100
    server_capacity: int = 2

    def __post_init__(self):
        FatTree(self.k, self.server_capacity)  # checks the tree's dimensions
        if not (0.0 <= self.target_utilization <= 1.0):
            raise ConfigError(
                f"target_utilization must be within [0, 1], got {self.target_utilization}"
            )
        if not is_horizon(self.horizon):
            raise ConfigError(f"horizon must be an int >= 1, got {self.horizon!r}")


def is_horizon(value) -> bool:
    """Whether `value` can be a horizon: an int (not a bool) of at least 1."""
    return _is_int(value) and value >= 1


def is_seed(value) -> bool:
    """Whether `value` can seed a draw: an int (not a bool) of at least 0."""
    return _is_int(value) and value >= 0


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def repeated_id(jobs: Sequence[Job]):
    """An id that two of `jobs` share, or None.  A placement keys VMs by
    (job id, VM index), so two jobs with one id would lose VMs."""
    counts = Counter(job.id for job in jobs)
    return next((job_id for job_id, n in counts.items() if n > 1), None)


def generate_workload(cfg: WorkloadConfig, seed: int) -> list[Job]:
    """Draw jobs until the requested slots first reach the target utilization.

    Deterministic given (cfg, seed): one RNG stream, fixed draw order per
    job (vm count, window start, window fraction, rate matrix).  A seed
    that is not an int >= 0 is a ConfigError.
    """
    if not is_seed(seed):
        raise ConfigError(f"seed must be an int >= 0, got {seed!r}")
    total_slots = (cfg.k**3 // 4) * cfg.server_capacity
    pod_slots = (cfg.k**2 // 4) * cfg.server_capacity
    target = cfg.target_utilization * total_slots
    rng = np.random.default_rng(seed)
    vm_mean = cfg.k / 2.0
    vm_std = VM_STD_OF_MEAN * vm_mean
    max_vms = max(2, pod_slots // VM_RESOURCE)

    jobs: list[Job] = []
    requested = 0
    while requested < target and total_slots - requested >= VM_RESOURCE:
        while True:
            n = int(round(rng.normal(vm_mean, vm_std)))
            if n >= 2:
                break
        n = min(n, max_vms, (total_slots - requested) // VM_RESOURCE)
        start = int(rng.integers(0, cfg.horizon))
        frac = rng.uniform(WINDOW_FRAC_MIN, WINDOW_FRAC_MAX)
        length = max(1, int(round(frac * cfg.horizon)))
        end = min(cfg.horizon - 1, start + length - 1)
        matrix = rng.normal(RATE_MEAN_MBPS, RATE_STD_MBPS, size=(n, n))
        np.clip(matrix, 0.0, None, out=matrix)
        np.fill_diagonal(matrix, 0.0)
        jobs.append(
            Job(
                id=len(jobs),
                vm_count=n,
                transfers=(Transfer(start, end, matrix),),
                vm_resource=VM_RESOURCE,
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


def pattern_vector(job: Job, horizon: int) -> np.ndarray:
    """Per-timeslot average pairwise traffic (zero outside windows)."""
    if horizon < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    raw = np.zeros(horizon)
    denom = job.vm_count**2 / 2.0
    for tr in job.transfers:
        value = float(tr.matrix.sum()) / denom
        lo, hi = max(0, tr.start), min(horizon - 1, tr.end)
        if lo <= hi:
            # Overlapping transfers stack on top of each other.
            raw[lo : hi + 1] += value
    return raw


def gap_distance(gap: np.ndarray) -> float:
    """Inverse L2 norm of the 1-D difference of two patterns: similar
    patterns sit at a large distance.

    The norm is `np.linalg.norm`'s own: the square root of one `dot`,
    which keeps its order of summation.
    """
    norm = math.sqrt(gap.dot(gap))
    if norm == 0.0:
        return DIST_MAX
    return 1.0 / norm


@dataclass(frozen=True, eq=False)
class DemandTable:
    """Every VM-pair flow of a placed workload, built once per run.

    A unit is one job over a stretch of slots in which its set of active
    transfers does not change; unit u sends the job's summed matrix of
    those transfers over slots start[u]..end[u].  Server pair p runs
    from server `src[p]` to `dst[p]`; the pairs are distinct and ordered
    by (src, dst).  Row i is one positive entry of a unit's matrix whose
    two VMs sit on different servers: it carries rate[i] Mbps over pair
    pair[i].  Rows come unit by unit, in job order, and row-major
    (source VM, destination VM) within a unit: unit u owns the next
    size[u] rows.  That is the order `at` adds them in.

    `at` is a pure function of the slot.  `pair_rows` keeps what a
    router derives per pair (sp's paths) for the run.
    """

    start: np.ndarray  # int64 per unit
    end: np.ndarray  # int64 per unit
    size: np.ndarray  # int64 rows per unit
    src: np.ndarray  # uint16 per pair (server ids fit 16 bits, k <= 48)
    dst: np.ndarray  # uint16 per pair
    pair: np.ndarray  # uint16 per row (int32 past 65,536 pairs)
    rate: np.ndarray  # float64 per row
    _rows: dict = field(init=False, repr=False, default_factory=dict)

    def segments(self, horizon: int):
        """[first, stop) runs of the horizon's slots in which no unit starts or ends."""
        edges = sorted({0, horizon, *self.start.tolist(), *(self.end + 1).tolist()})
        return zip(edges, edges[1:])

    def at(self, t: int) -> DemandSet:
        """Server-to-server demands of the units active at slot t.

        One bincount by pair id adds each pair's VM-pair rates in row
        order, starting from 0.0.  Another order may change the last
        bits of the rates and so of every energy total.  Every row's
        rate is positive, so a pair is present exactly when its sum is.
        """
        keep = ((self.start <= t) & (t <= self.end)).repeat(self.size)
        pair = self.pair[keep]
        if not len(pair):  # an empty bincount is int64
            empty = np.empty(0, dtype=np.int64)
            return DemandSet(empty, empty, np.empty(0), empty, self)
        rate = np.bincount(pair, weights=self.rate[keep], minlength=len(self.src))
        present = (rate > 0).nonzero()[0]
        return DemandSet(self.src[present].astype(np.int64),
                         self.dst[present].astype(np.int64), rate[present],
                         present, self)

    def pair_rows(self, key, build):
        """`build(src, dst)` over every pair of the table, built once per key."""
        rows = self._rows.get(key)
        if rows is None:
            rows = self._rows[key] = build(self.src, self.dst)
        return rows


def demand_table(
    jobs: Sequence[Job], assignment: Mapping[tuple[int, int], int]
) -> DemandTable:
    """The demand table of `jobs` placed by `assignment`.

    VM pairs co-hosted on one server emit nothing (their traffic never
    reaches a NIC).  A VM of a listed job without a server is a
    DomainError.  The rows fill preallocated compact arrays in the order
    they are built; only the pair ids come from a sort of the rows'
    server pairs.
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
    del units
    order = pair_order(src, dst)
    src, dst = src[order], dst[order]  # the rows' pairs, sorted
    first = np.empty(rows, dtype=bool)
    first[:1] = True
    first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    heads = first.nonzero()[0]  # each pair's first sorted row
    pair = np.empty(rows, dtype=_index_dtype(len(heads)))
    pair[order] = np.arange(len(heads), dtype=pair.dtype).repeat(
        np.diff(heads, append=rows))
    return DemandTable(
        np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64), size,
        src[heads], dst[heads], pair, rate,
    )


def _index_dtype(count: int):
    """The narrowest dtype that numbers `count` items: uint16, else int32."""
    return np.uint16 if count <= 1 << 16 else np.int32


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

    A file that is not JSON, holds no JSON object or another version (an
    int, so not `true` or `1.0`), or whose document lacks a key or holds
    a value of the wrong type or out of its domain (a negative or
    non-finite rate, say), raises ConfigError naming the file.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{kind} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{kind} file {path} does not hold a JSON object")
    found = doc.get("version")
    if not _is_int(found) or found != version:
        raise ConfigError(
            f"unsupported {kind} file version {found!r} in {path}"
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
                Transfer(tr["start"], tr["end"],
                         _matrix(tr["matrix"], f"jobs[{i}].transfers[{j}].matrix"))
                for j, tr in enumerate(_array(entry["transfers"], f"jobs[{i}].transfers"))
            ),
        )
        for i, entry in enumerate(_array(doc["jobs"], "jobs"))
    ]
    horizon, seed, config = doc["horizon"], doc.get("seed"), doc.get("config")
    if (job_id := repeated_id(jobs)) is not None:
        raise ValueError(f"job id {job_id!r} is repeated")
    if not is_horizon(horizon):
        raise ValueError(f"horizon must be an int >= 1, got {horizon!r}")
    if seed is not None and not is_seed(seed):
        raise ValueError(f"seed must be an int or null, and not negative; got {seed!r}")
    if config is not None and not isinstance(config, dict):
        raise ValueError(f"config must be an object or null, got {config!r}")
    utilization = (config or {}).get("utilization")
    if utilization is not None and type(utilization) not in (int, float):
        raise ValueError(f"utilization must be a number or absent, got {utilization!r}")
    return jobs, {"horizon": horizon, "seed": seed, "config": config}


def _array(value, path: str) -> list:
    """`value` if it is a JSON array; else a ValueError naming its `path`."""
    if not isinstance(value, list):
        raise ValueError(f"{path} must be a JSON array, got {value!r}")
    return value


def _matrix(rows, path: str) -> np.ndarray:
    """A traffic matrix read from JSON: an array of arrays of numbers.

    A bool or a string such as "0.5", which numpy would cast to a float,
    is a ValueError naming its `path`.
    """
    for r, row in enumerate(_array(rows, path)):
        for c, entry in enumerate(_array(row, f"{path}[{r}]")):
            if type(entry) not in (int, float):
                raise ValueError(f"{path}[{r}][{c}] must be a number, got {entry!r}")
    return np.array(rows, dtype=float)
