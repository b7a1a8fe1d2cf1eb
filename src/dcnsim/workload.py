"""Jobs, transfers and the synthetic workload generator.

A job is a set of VMs plus one or more transfers: time-windowed traffic
matrices in Mbps (entry (a, b) = flow a -> b).  Background traffic
outside transfer windows is modeled as exactly zero so idle switches
can sleep.  Workload files are versioned JSON and round-trip losslessly.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
import typing
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DomainError, SimulationError
from .graphkit import norm
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
    `rate[i]` Mbps.  A set read from a run's demand table (`DemandTable.at`,
    or an item of `DemandTable.read`) also carries that table and each
    demand's pair id in it, so a router whose choice is a pure function
    of the server pair derives its rows once per run (`pair_rows`).  A
    hand-built set has neither: it is its own pair table, with ids 0..n-1.
    """

    src: np.ndarray  # int64 (uint16 in a batch's joined set)
    dst: np.ndarray  # int64 (uint16 in a batch's joined set)
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


class DemandSets:
    """A batch of demand sets as joined arrays; set j's DemandSet is built when read.

    `demands` holds every set's demands, set after set: set j owns rows
    bounds[j]:bounds[j + 1].  `DemandTable.read` gives a batch whose
    servers are uint16 and whose pair ids are in the table's dtype, a row
    of 14 bytes rather than 32; `of` joins a list of sets so, keeping pair
    ids only when every set comes from one table, and keeps one set as it
    is.  Item j is set j as `DemandTable.at` gives it, with int64 servers
    and pair ids.
    """

    def __init__(self, demands: DemandSet, bounds: list[int]):
        self.demands, self.bounds = demands, bounds

    @classmethod
    def of(cls, sets: Sequence[DemandSet]) -> DemandSets:
        """A list of sets joined set after set."""
        bounds = [0, *itertools.accumulate(len(d.src) for d in sets)]
        if len(sets) == 1:
            return cls(sets[0], bounds)
        table = sets[0].table
        shared = table is not None and all(d.table is table for d in sets)
        return cls(DemandSet(
            *(np.concatenate([getattr(d, end) for d in sets], dtype=np.uint16,
                             casting="unsafe")  # server ids fit 16 bits (k <= 48)
              for end in ("src", "dst")),
            np.concatenate([d.rate for d in sets]),
            np.concatenate([d.pair for d in sets], dtype=table.pair.dtype,
                           casting="unsafe") if shared else None,
            table if shared else None,
        ), bounds)

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __getitem__(self, j: int) -> DemandSet:
        j = range(len(self))[j]  # a negative j counts from the end
        lo, hi = self.bounds[j], self.bounds[j + 1]
        d = self.demands
        return DemandSet(d.src[lo:hi].astype(np.int64), d.dst[lo:hi].astype(np.int64),
                         d.rate[lo:hi],
                         None if d.pair is None else d.pair[lo:hi].astype(np.int64),
                         d.table)


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
        check_utilization(self.target_utilization)
        if not is_horizon(self.horizon):
            raise ConfigError(f"horizon must be an int >= 1, got {self.horizon!r}")


def check_utilization(value: float) -> None:
    """A target utilization is a share of the VM slots: within [0, 1]."""
    if not (0.0 <= value <= 1.0):
        raise ConfigError(f"target_utilization must be within [0, 1], got {value}")


@dataclass(frozen=True)
class SavedConfig:
    """A workload file's `config`: the `gen` options its jobs were drawn
    with, each one optional.  A key given must lie where that option's own
    check puts it, `FatTree`'s for `k` and `server_capacity` and
    `check_utilization` for `utilization`; a failure names `config.<key>`.
    `save_workload` writes it and `load_workload` reads it back."""

    k: int | None = None
    utilization: float | None = None
    server_capacity: int | None = None

    def __post_init__(self):
        checks = {"k": FatTree, "utilization": check_utilization,
                  "server_capacity": lambda c: FatTree(4, c)}
        for key, check in checks.items():
            if (value := getattr(self, key)) is not None:
                try:
                    check(value)
                except ConfigError as exc:
                    raise ConfigError(f"config.{key}: {exc}") from None


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
    tree = FatTree(cfg.k, cfg.server_capacity)
    total_slots, pod_slots = tree.total_slots, tree.pod_slot_capacity
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


def gap_distance(gaps: np.ndarray) -> np.ndarray:
    """Inverse L2 norm (`graphkit.norm`) of each row of `gaps`, each the
    difference of two patterns: similar patterns sit at a large distance."""
    length = norm(gaps)
    return np.divide(1.0, length, out=np.full(len(length), DIST_MAX), where=length != 0.0)


@dataclass(frozen=True, eq=False)
class Entries:
    """A demand table's entry view: its rows as they are read, in pair order.

    A server pair whose rows all come from one unit is one entry, whose
    rate is the ordered bincount of those rows, so the sum the unit gives
    the pair.  A pair with rows from two or more units keeps each row as
    an entry of its own, in row order.  Entry i is live over slots
    start[i]..end[i], its unit's window, and carries rate[i] Mbps from
    server src[i] to dst[i], pair pair[i] of the table.
    """

    start: np.ndarray  # int32 per entry (int64 for a window past 2**31 - 1)
    end: np.ndarray  # same dtype as start
    src: np.ndarray  # uint16
    dst: np.ndarray  # uint16
    pair: np.ndarray  # the table's pair dtype
    rate: np.ndarray  # float64


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
    size[u] rows.  A pair's demand at a slot adds its live rows in that
    order, from 0.0.

    Reads go through `entries` (`Entries`), built with the rows from
    the same pair sort: `read` gives a batch of slots in one pass, and
    `at` one slot.  Both are pure functions of the slots.  `pair_rows`
    keeps what a router derives per pair (sp's paths) for the run.
    """

    start: np.ndarray  # int64 per unit
    end: np.ndarray  # int64 per unit
    size: np.ndarray  # int64 rows per unit
    src: np.ndarray  # uint16 per pair (server ids fit 16 bits, k <= 48)
    dst: np.ndarray  # uint16 per pair
    pair: np.ndarray  # uint16 per row (int32 past 65,536 pairs)
    rate: np.ndarray  # float64 per row
    entries: Entries
    _rows: dict = field(init=False, repr=False, default_factory=dict)

    def segments(self, horizon: int):
        """[first, stop) runs of the horizon's slots in which no unit starts or ends."""
        edges = sorted({0, horizon, *self.start.tolist(), *(self.end + 1).tolist()})
        return zip(edges, edges[1:])

    def read(self, slots: Sequence[int]) -> DemandSets:
        """The demands at each of `slots`, set j at slots[j], as one batch.

        One window comparison per slot over the entries gives that slot's
        live entries, in pair order, and the joined arrays gather them
        slot after slot.  Only where one slot has two or more live
        entries of a pair (rows of two units that share it) does one
        ordered bincount over the runs of equal (slot, pair) add them, in
        row order from 0.0, as adding the pair's live rows does; another
        order may change the last bits of the rates and so of every
        energy total.  Every rate is positive, so each live pair is a
        demand.
        """
        e = self.entries
        e_start, e_end = e.start, e.end
        live = [np.flatnonzero((e_start <= t) & (t <= e_end)) for t in slots]
        entry = live[0] if len(live) == 1 else np.concatenate(
            [np.empty(0, dtype=np.intp), *live])
        bounds = [0, *itertools.accumulate(map(len, live))]
        del live
        pair, rate = e.pair[entry], e.rate[entry]
        if len(e.rate) > len(self.src):  # a pair has entries of two units
            slot = np.arange(len(slots)).repeat(np.diff(bounds))
            head = np.ones(len(entry), dtype=bool)
            head[1:] = (pair[1:] != pair[:-1]) | (slot[1:] != slot[:-1])
            if not head.all():
                rate = np.bincount(head.cumsum() - 1, weights=rate)
                entry, pair, slot = entry[head], pair[head], slot[head]
                bounds = [0, *np.bincount(slot, minlength=len(slots)).cumsum().tolist()]
        return DemandSets(DemandSet(e.src[entry], e.dst[entry], rate, pair, self), bounds)

    def at(self, t: int) -> DemandSet:
        """Server-to-server demands of the units active at slot t (`read`)."""
        return self.read([t])[0]

    def pair_rows(self, key, build):
        """`build(src, dst)` over every pair of the table, built once per key."""
        rows = self._rows.get(key)
        if rows is None:
            rows = self._rows[key] = build(self.src, self.dst)
        return rows


def demand_table(
    jobs: Sequence[Job], assignment: Mapping[tuple[int, int], int]
) -> DemandTable:
    """The demand table of `jobs` placed by `assignment`, with its entries.

    VM pairs co-hosted on one server emit nothing (their traffic never
    reaches a NIC).  A VM of a listed job without a server is a
    DomainError.  Every unit's matrix entries are read in one pass over
    their row-major concatenation: entry e of an n x n unit runs from the
    unit's VM e // n to its VM e % n.  Indices are int32, and each
    temporary is freed after its last read.  The pair ids and the entry
    view come from one stable sort of the rows' server pairs, which keeps
    each pair's rows in row order.
    """
    hosts, starts, last_slots, widths, first_vm, matrices = [], [], [], [], [], []
    vms = 0
    for job in jobs:
        hosts.append(_hosts(job, assignment))
        for first, last in _stretches(job):
            starts.append(first)
            last_slots.append(last)
            widths.append(job.vm_count)
            first_vm.append(vms)
            matrices.append(job.traffic_at(first).ravel())
        vms += job.vm_count
    entries = np.square(np.array(widths, dtype=np.int64))
    rate = np.concatenate(matrices) if matrices else np.empty(0)
    del matrices
    begins = np.cumsum(entries) - entries  # each unit's first entry
    e = np.arange(len(rate), dtype=np.int32)
    e -= np.repeat(begins.astype(np.int32), entries)
    n = np.repeat(np.array(widths, dtype=np.int32), entries)
    row, col = np.divmod(e, n)
    del e, n
    base = np.repeat(np.array(first_vm, dtype=np.int32), entries)
    row += base
    col += base
    del base
    hosts = np.concatenate(hosts) if hosts else np.empty(0, dtype=np.uint16)
    src = hosts[row]
    del row
    dst = hosts[col]
    del col
    sent = rate > 0
    sent &= src != dst
    size = (np.add.reduceat(sent, begins, dtype=np.int64) if len(begins)
            else np.empty(0, dtype=np.int64))
    src, dst, rate = src[sent], dst[sent], rate[sent]
    del sent
    rows = len(rate)
    order = pair_order(src, dst)
    src, dst = src[order], dst[order]  # the rows' pairs, sorted
    first = np.empty(rows, dtype=bool)
    first[:1] = True
    first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    heads = first.nonzero()[0]  # each pair's first sorted row
    lengths = np.diff(heads, append=rows)  # each pair's rows
    sorted_pair = np.arange(len(heads), dtype=_index_dtype(len(heads))).repeat(lengths)
    pair = np.empty(rows, dtype=sorted_pair.dtype)
    pair[order] = sorted_pair
    # A pair's rows keep row order, so their units rise: the pair is one
    # unit's when its first and last rows are.  Row r is in the unit of
    # the first unit end (`stops`) past r.
    stops = np.cumsum(size)
    shared = (stops.searchsorted(order[heads], side="right")
              != stops.searchsorted(order[heads + lengths - 1], side="right"))
    first |= shared.repeat(lengths)  # the rows that open an entry
    del lengths, shared
    opens = first.nonzero()[0]  # each entry's first sorted row
    pair_src, pair_dst = src[heads], dst[heads]
    del heads
    entry_src, entry_dst, entry_pair = src[opens], dst[opens], sorted_pair[opens]
    del src, dst, sorted_pair
    unit = stops.searchsorted(order[opens], side="right")
    # Each row's entry, in row order: a bincount over the rows then adds
    # an entry's rows in row order, as over the sorted rows.
    sorted_entry = first.cumsum(dtype=np.int32)
    del first
    sorted_entry -= 1
    entry = np.empty(rows, dtype=np.int32)
    entry[order] = sorted_entry
    del sorted_entry, order
    start, end = np.array(starts, dtype=np.int64), np.array(last_slots, dtype=np.int64)
    window = np.int32 if max(last_slots, default=0) < 2**31 else np.int64
    view = Entries(
        start[unit].astype(window), end[unit].astype(window), entry_src, entry_dst,
        entry_pair,
        # An empty bincount is int64.
        np.bincount(entry, weights=rate, minlength=len(opens)).astype(float, copy=False),
    )
    return DemandTable(start, end, size, pair_src, pair_dst, pair, rate, view)


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


def save_workload(path, jobs: Sequence[Job], horizon: int, seed=None,
                  config: SavedConfig = SavedConfig()):
    """Write jobs to a versioned JSON workload file (`to_json`)."""
    with open(path, "w") as fh:
        json.dump({"version": WORKLOAD_FORMAT_VERSION, "horizon": horizon, "seed": seed,
                   "config": to_json(config), "jobs": to_json(list(jobs))}, fh)


def load_document(path, kind: str, version: int, build):
    """Read a versioned JSON file and return `build(document)`.

    A file that is not JSON (NaN, Infinity and 1e400 are not), holds no
    JSON object or another version (an int, so not `true` or `1.0`), or
    whose document lacks a key or holds a value of the wrong type or size
    or that a record's own checks refuse, raises ConfigError naming the file.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh, parse_constant=_not_finite, parse_float=_finite_float)
        except ValueError as exc:  # a JSONDecodeError, or a number refused
            raise ConfigError(f"{kind} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{kind} file {path} does not hold a JSON object")
    found = doc.get("version")
    if not _is_int(found) or found != version:
        raise ConfigError(f"unsupported {kind} file version {found!r} in {path}")
    try:
        return build(doc)
    except KeyError as exc:
        raise ConfigError(f"{kind} file {path} lacks the key {exc.args[0]!r}") from exc
    except (AttributeError, OverflowError, SimulationError, TypeError, ValueError) as exc:
        raise ConfigError(f"{kind} file {path} is malformed: {exc}") from exc


def _not_finite(constant):
    raise ValueError(f"{constant} is not a finite number")


def _finite_float(literal: str) -> float:
    if math.isinf(value := float(literal)):
        _not_finite(literal)
    return value


def load_workload(path):
    """Read a workload file (see `load_document`); returns (jobs, metadata),
    the metadata's `config` a SavedConfig (all None for a null config)."""
    return load_document(path, "workload", WORKLOAD_FORMAT_VERSION, _workload_of)


def _workload_of(doc):
    check_keys(doc, "", ("version", "horizon", "jobs"), ("seed", "config"))
    jobs = list(from_json(tuple[Job, ...], doc["jobs"], "jobs"))
    horizon, seed, config = doc["horizon"], doc.get("seed"), doc.get("config")
    if (job_id := repeated_id(jobs)) is not None:
        raise ValueError(f"job id {job_id!r} is repeated")
    if not is_horizon(horizon):
        raise ValueError(f"horizon must be an int >= 1, got {horizon!r}")
    if seed is not None and not is_seed(seed):
        raise ValueError(f"seed must be an int or null, and not negative; got {seed!r}")
    if config is not None and not isinstance(config, dict):
        raise ValueError(f"config must be an object or null, got {config!r}")
    config = from_json(SavedConfig, config or {}, "config")
    return jobs, {"horizon": horizon, "seed": seed, "config": config}


# --- records as JSON: a dataclass declares its object's keys and their types;
# a scalar read from JSON, or a scalar or null, has one of these types (so an
# int or a number is not a bool).
_SCALARS = {int: ({int}, "an int"), float: ({int, float}, "a number"), str: ({str}, "a string")}
_SCALARS.update({hint | None: ({*kinds, type(None)}, f"{name} or null")
                 for hint, (kinds, name) in _SCALARS.items()})


def to_json(value):
    """`value` as JSON holds it: a dataclass as an object of its fields, a
    tuple as an array, a matrix as an array of rows, dict keys as strings."""
    if is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(key): to_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_json(item) for item in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def from_json(hint, value, path: str):
    """`value`, read from JSON at `path`, as the type `hint` names: a
    dataclass from an object of its fields (`check_keys`; one with a
    default may be left out), a tuple or a matrix from an array, a dict
    from an object, each int key as `str` writes an int.  A wrong JSON
    type is a ValueError naming its `path`.  Every field's JSON type is
    checked before a dataclass is built, so its own checks (Job, Transfer,
    PowerParams) only ever see values of their types."""
    if is_dataclass(hint):
        hints, required = _schema(hint)
        check_keys(value, path, required, hints)
        return hint(**{key: from_json(hints[key], item, _at(path, key))
                       for key, item in value.items()})
    if hint is np.ndarray:
        return np.array(from_json(tuple[tuple[float, ...], ...], value, path), dtype=float)
    origin, args = typing.get_origin(hint) or hint, typing.get_args(hint)
    if origin is tuple:
        items = _of(list, value, path)
        if args[0] in _SCALARS and set(map(type, items)) <= _SCALARS[args[0]][0]:
            return tuple(items)  # at once; else the first bad item is named
        return tuple(from_json(args[0], item, f"{path}[{i}]") for i, item in enumerate(items))
    if origin is dict:
        key_type, item_type = args or (str, typing.Any)
        for key in _of(dict, value, path):
            if key_type is int and not re.fullmatch("-?(0|[1-9][0-9]*)", key):
                raise ValueError(f"{_at(path, key)} must be keyed by an int, got {key!r}")
        return {key_type(key): from_json(item_type, item, _at(path, key))
                for key, item in value.items()}
    if hint in _SCALARS and type(value) not in _SCALARS[hint][0]:
        raise ValueError(f"{path} must be {_SCALARS[hint][1]}, got {value!r}")
    return value


@functools.cache
def _schema(cls):
    """A dataclass's field types by name, and the fields without a default."""
    return typing.get_type_hints(cls), [
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]


def check_keys(doc, path: str, required, optional=()) -> None:
    """Check that `doc` at `path` ("" for the document) is an object with
    every `required` key and no other but `optional` ones; name any other."""
    for key in _of(dict, doc, path):
        if key not in required and key not in optional:
            raise ValueError(f"{path or 'the document'} has the unknown key {key!r}")
    for key in required:
        if key not in doc:
            raise KeyError(_at(path, key))


def _at(path: str, key) -> str:
    return f"{path}.{key}" if path else key


def _of(kind, value, path: str):
    """`value` if it is a JSON array or object (`kind` list or dict)."""
    if not isinstance(value, kind):
        name = "array" if kind is list else "object"
        raise ValueError(f"{path or 'the document'} must be a JSON {name}, got {value!r}")
    return value
