"""Scenario orchestration: assign once, route every timeslot, account energy.

A scenario pairs an assignment strategy with a routing strategy over one
workload.  VMs are never migrated; the per-timeslot demand sets follow
from the single assignment, and every timeslot's plan depends only on
its own demands (and, for ecmp, its own draws).
Comparisons normalize each run against the greedy-assignment /
shortest-path run on the same workload.
"""

from __future__ import annotations

import json
import math
import time
import typing
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .assignment import SEEDED, STRATEGIES, assign
from .errors import ConfigError, SimulationError
from .graphkit import ordered_sum
from .power import PowerParams, switch_powers
from .routing import DRAWS_PER_SLOT, ROUTERS
from .topology import AGG, CORE, TOR, build_fat_tree
from .workload import (
    WorkloadConfig,
    check_keys,
    demand_table,
    from_json,
    generate_workload,
    is_seed,
    load_document,
    repeated_id,
    to_json,
)

REPORT_FORMAT_VERSION = 1

# The report's switch layers, in `layer_breakdown` order, and their bins
# in `_meter`'s bincount; bin SLOT_BIN + j sums plan j's slot watts.
LAYERS = (TOR, AGG, CORE)
LAYER_BINS = np.arange(len(LAYERS))
SLOT_BIN = len(LAYERS)
# A report's layer totals add its switches' watts in another order than
# its slot totals do, so their sum may differ from total_energy_wt in the
# last bits: by up to 2.7e-15 of it over 132 reports at k = 4, 8 and 16
# (every strategy and router, both power regimes, u = 0.3 and 0.6).
LAYER_SUM_RTOL = 1e-9

# The demand rows a batch of segments holds at most (`_batches`).  numpy's
# fixed cost per call outweighs its work on small sets, and a batch routes
# many segments with one pass of calls.  A k=8 segment holds about 50
# demands, a k=16 one 700-1,150 and a median k=24 one about 5,000, so the
# budget must cover several k=16 segments to save anything there.
# Nine rounds of the benchmark workloads at each budget, interleaved in
# one process (2-vCPU host), with the traced peak of a round:
#   rows     k=8 (sweep_k8)    k=16 (lowstartup_k16)   k=24 (eer_k24)
#   1,024    0.208 s, 0.58 MB  0.656 s, 0.84 MB        0.184 s, 2.39 MB
#   4,096    -9%, 1.03 MB      -23%, 1.13 MB           -2%, 2.62 MB
#   8,192    -12%, 1.06 MB     -22%, 1.72 MB           -7%, 2.90 MB
#   16,384   -15%, 1.06 MB     -19%, 2.97 MB           -5%, 3.60 MB
# A curve of fifteen rounds put k=16 at -16%, -29% and -31% for 4,096,
# 8,192 and 16,384 rows; the host's speed drifts.  8,192 is at or
# near the best at every k, for 60% of 16,384's peak at k=16.  On its
# own it raised perfbench's peak RSS by 1.0-1.5%; the batch path's narrow
# dtypes (`routing._Batch`, `_paths`) and `_finish_plans`'s early frees
# take that back.  A larger segment is a batch alone.
BATCH_ROWS = 8192

STRATEGY_GRID = (
    ("greedy", "sp"),
    ("opt_greedy", "sp"),
    ("greedy", "eer"),
    ("eea", "eer"),
    ("opt_eea", "eer"),
)

TABLE_COLUMNS = (
    "scenario",
    "utilization",
    "seed",
    "total_energy_wt",
    "ratio_to_baseline",
    "runtime_ms",
    "violations",
)


@dataclass(frozen=True)
class Scenario:
    """One (assignment strategy, routing strategy) run over a workload."""

    k: int
    assign_strategy: str
    route_strategy: str
    seed: int | None = 0
    utilization: float | None = None
    workload_seed: int | None = None
    workload_path: str | None = None  # labels the report; jobs are passed in
    horizon: int = 100
    server_capacity: int = 2
    timeslot_seconds: float = 60.0
    power: PowerParams = field(default_factory=PowerParams)

    def __post_init__(self):
        if self.assign_strategy not in STRATEGIES:
            raise ConfigError(
                f"assign strategy must be one of {tuple(STRATEGIES)}, "
                f"got {self.assign_strategy!r}"
            )
        if self.route_strategy not in ROUTERS:
            raise ConfigError(
                f"route strategy must be one of {tuple(ROUTERS)}, "
                f"got {self.route_strategy!r}"
            )
        self.workload_config()  # checks k, utilization, horizon and server_capacity
        for name in ("seed", "workload_seed"):
            value = getattr(self, name)
            if value is not None and not is_seed(value):
                raise ConfigError(f"{name} must be an int >= 0 or None, got {value!r}")
        if not (math.isfinite(self.timeslot_seconds) and self.timeslot_seconds > 0):
            raise ConfigError(
                f"timeslot_seconds must be finite and > 0, got {self.timeslot_seconds}"
            )
        if self.stochastic and self.seed is None:
            raise ConfigError(
                f"{self.label} uses randomness and needs an explicit seed"
            )

    def workload_config(self) -> WorkloadConfig:
        """The config of the inline workload; utilization 0.0 when none is set."""
        return WorkloadConfig(self.k, self.utilization or 0.0, self.horizon,
                              self.server_capacity)

    @property
    def label(self) -> str:
        return f"{self.assign_strategy}-{self.route_strategy}"

    @property
    def stochastic(self) -> bool:
        return self.route_strategy in DRAWS_PER_SLOT or self.assign_strategy in SEEDED

    def describe(self) -> dict:
        """The scenario as its report holds it (`SCENARIO_KEYS`)."""
        return {"label": self.label,
                **{RENAMED.get(key, key): value for key, value in to_json(self).items()}}


# A report's scenario: its label, then its fields, two of them renamed, by
# key, each with the type its JSON value has (`from_json`).
RENAMED = {"assign_strategy": "assign", "route_strategy": "route"}
SCENARIO_KEYS = {"label": str, **{RENAMED.get(key, key): hint
                                  for key, hint in typing.get_type_hints(Scenario).items()}}


@dataclass(frozen=True)
class EnergyReport:
    """Energy accounting for one scenario run.

    Totals are watt-timeslots; total_energy_joules applies the
    configured timeslot duration for presentation.
    """

    scenario: dict
    total_energy_wt: float
    per_timeslot_watts: tuple[float, ...]
    layer_breakdown: dict[str, float]
    active_switches: tuple[int, ...]
    runtime_ms: float
    violations: dict[int, tuple[int, ...]]

    @property
    def total_energy_joules(self) -> float:
        return self.total_energy_wt * self.scenario["timeslot_seconds"]

    def fingerprint(self) -> dict:
        """Deterministic payload (all but the wall clock), as JSON holds it."""
        return to_json({f.name: getattr(self, f.name) for f in fields(self)
                        if f.name != "runtime_ms"})


def save_report(report: EnergyReport, path) -> None:
    with open(path, "w") as fh:
        json.dump({"version": REPORT_FORMAT_VERSION, **report.fingerprint(),
                   "runtime_ms": report.runtime_ms}, fh)


def load_report(path) -> EnergyReport:
    """Read a report file (`load_document`, `from_json`): its scenario is what
    `describe()` gives for the `Scenario` its SCENARIO_KEYS build, and its
    figures fit it, one per slot of the horizon and a total per layer, none
    negative, with `total_energy_wt` the ordered sum of the slots' watts and
    the layer totals' sum within LAYER_SUM_RTOL of it."""
    return load_document(path, "report", REPORT_FORMAT_VERSION, _report_of)


def _report_of(doc) -> EnergyReport:
    report = from_json(EnergyReport, {k: v for k, v in doc.items() if k != "version"}, "")
    described = report.scenario
    check_keys(described, "scenario", SCENARIO_KEYS)
    values = {key: from_json(hint, described[key], f"scenario.{key}")
              for key, hint in SCENARIO_KEYS.items()}
    scenario = Scenario(**{f.name: values[RENAMED.get(f.name, f.name)]
                           for f in fields(Scenario)})
    for key, value in scenario.describe().items():
        if value != described[key]:
            raise ValueError(f"scenario.{key} must be {value!r}, got {described[key]!r}")
    check_keys(report.layer_breakdown, "layer_breakdown", LAYERS)
    figures = {f"layer_breakdown.{k}": watts for k, watts in report.layer_breakdown.items()}
    for key in ("per_timeslot_watts", "active_switches"):
        if (slots := len(getattr(report, key))) != scenario.horizon:
            raise ValueError(f"{key} must hold {scenario.horizon} slots, got {slots}")
        figures.update((f"{key}[{t}]", figure) for t, figure in enumerate(getattr(report, key)))
    for name, figure in figures.items():
        if figure < 0:
            raise ValueError(f"{name} must be >= 0, got {figure!r}")
    if (total := ordered_sum(report.per_timeslot_watts)) != report.total_energy_wt:
        raise ValueError(f"total_energy_wt must be the sum of per_timeslot_watts, "
                         f"{total!r}, got {report.total_energy_wt!r}")
    layers = ordered_sum(report.layer_breakdown[layer] for layer in LAYERS)
    if abs(layers - total) > LAYER_SUM_RTOL * total:
        raise ValueError(f"layer_breakdown must add up to total_energy_wt {total!r} "
                         f"within {LAYER_SUM_RTOL:g} of it, got {layers!r}")
    return report


def _resolve_workload(scenario: Scenario, jobs=None):
    if jobs is not None:
        return list(jobs)
    if scenario.workload_path is not None:
        raise ConfigError(
            f"workload_path {scenario.workload_path!r} only labels the report; "
            f"pass the file's jobs to run_scenario"
        )
    if scenario.utilization is None:
        raise ConfigError("scenario needs an inline utilization or explicit jobs")
    workload_seed = (
        scenario.workload_seed if scenario.workload_seed is not None else scenario.seed
    )
    return generate_workload(scenario.workload_config(), workload_seed)


def _check_jobs(jobs, horizon: int) -> None:
    """Reject a repeated job id, or a transfer window that ends past the
    last timeslot."""
    if (job_id := repeated_id(jobs)) is not None:
        raise ConfigError(f"job id {job_id!r} is repeated")
    for job in jobs:
        for tr in job.transfers:
            if tr.end >= horizon:
                raise ConfigError(
                    f"job {job.id}: transfer window [{tr.start}, {tr.end}] ends "
                    f"past the horizon of {horizon} timeslots"
                )


def _meter(plans, slots, layer_of, totals, params):
    """The layer totals after a batch's plans (`routing.Plans`), and arrays of
    each plan's slot watts and active count; plan j covers slots[j] slots.

    One `switch_powers` call prices every plan's switches, read from the
    batch's arrays, and one ordered bincount adds, in input order from
    0.0: bins 0-2 (ToR, agg, core) start from the running `totals` and
    take each plan's switches' watts, in plan order, once per slot it
    covers, plan after plan; bin SLOT_BIN + j takes plan j's watts once,
    as one slot's sum.  That is what adding switch by switch, slot by
    slot, adds.  A switch at load 0.0 costs nothing and is not active.
    """
    gbps, switches = plans.gbps, plans.switches
    watts = switch_powers(gbps, params)
    sizes = np.diff(plans.cut)
    bins = SLOT_BIN + len(plans)
    slot_bin = np.repeat(np.arange(SLOT_BIN, bins), sizes)
    # Bins 0-2 take plan j's block of `watts` once per slot it covers: the
    # blocks' positions, `taken`, are `arange` when every plan covers one.
    blocks = np.repeat(np.arange(len(plans)), slots)
    lengths = sizes[blocks]
    ends = np.cumsum(lengths)
    taken = np.arange(ends[-1]) + np.repeat(
        (np.cumsum(sizes) - sizes)[blocks] - (ends - lengths), lengths)
    sums = np.bincount(
        np.concatenate((LAYER_BINS, layer_of[switches][taken], slot_bin)),
        weights=np.concatenate((totals, watts[taken], watts)),
        minlength=bins,
    )
    active = np.bincount(slot_bin[gbps != 0], minlength=bins)[SLOT_BIN:]
    return sums[:SLOT_BIN], sums[SLOT_BIN:], active


def _batches(table, horizon: int, step: int, least_rows: int):
    """Batches of consecutive (demands, first slot, stop) of a run, to route together.

    Every segment of the table reads its demands once (`DemandTable.at`)
    and gives one item per `step` slots.  A batch takes items while their
    demand rows total at most BATCH_ROWS; an item larger than that is a
    batch alone.  Each item counts as at least `least_rows` rows.  A batch
    is handed on as soon as no item can join it.
    """
    batch, rows = [], 0
    for first, stop in table.segments(horizon):
        demands = table.at(first)
        size = max(len(demands.src), least_rows)
        for start in range(first, stop, step):
            if batch and rows + size > BATCH_ROWS:
                yield batch
                batch, rows = [], 0
            batch.append((demands, start, min(start + step, stop)))
            rows += size
            if rows + least_rows > BATCH_ROWS:
                # No item fits any more: route the batch before the next
                # segment is read, so a large segment is held alone.
                yield batch
                batch, rows = [], 0
    if batch:
        yield batch


def run_scenario(scenario: Scenario, jobs=None, on_plan=None) -> EnergyReport:
    """Assign VMs once, then route and meter every timeslot.

    The horizon splits into segments at every transfer window's edges
    (`DemandTable.segments`); within a segment the active transfers, and
    so the demands, do not change.  The demand table maps every VM pair
    to its server pair once per run, since VMs never move; each segment
    reads its demands from it at the segment's first slot, summing the
    rows of the units active there.  The demands carry the table and
    their pair ids, so a router builds what it derives per server pair
    once per run and each segment gathers its pairs' rows
    (`DemandSet.pair_rows`).  sp and eer route each segment once and
    reuse that plan for its slots; ecmp, whose draws are seeded per slot
    (`routing.DRAWS_PER_SLOT`), routes every slot.  Consecutive segments
    (for ecmp, slots) go to the router as one batch while their demand
    rows total at most BATCH_ROWS (`_batches`).  A batch's plans stay
    the router's arrays (`routing.Plans`): they are metered by one
    ordered bincount over their switches' watts (`_meter`), and one
    `repeat` gives every slot its plan's watts and active count.  The
    report is the same as routing and metering every slot afresh: a
    reused slot adds its switches' watts to the layer totals in the same
    order.  `on_plan`, when given, still receives one RoutingPlan per
    timeslot, carrying that slot's `timeslot` (route inspection); only
    then is each segment's plan built.  A batch that fails is routed
    again set by set, so the run fails with the error of its first
    failing segment (for ecmp, slot), and `on_plan` first receives the
    plan of every slot before it.

    A transfer window that ends past the horizon, or a job id that two
    jobs share, is a ConfigError.
    Baseline routers may overload switches at extreme load; those
    timeslots are flagged in the report instead of aborting the run.
    The energy-efficient router controls its own active set, so a
    violation there is a real error and propagates.
    """
    started = time.perf_counter()
    tree = build_fat_tree(scenario.k, server_capacity=scenario.server_capacity)
    jobs = _resolve_workload(scenario, jobs)
    _check_jobs(jobs, scenario.horizon)
    params = scenario.power

    placement = assign(
        scenario.assign_strategy, jobs, tree,
        seed=scenario.seed, horizon=scenario.horizon,
    )
    placement.validate(jobs, tree)
    route = ROUTERS[scenario.route_strategy]
    step = 1 if scenario.route_strategy in DRAWS_PER_SLOT else scenario.horizon
    # Each switch's bin in _meter: its layer's index in LAYERS.
    layer_of = np.repeat(LAYER_BINS, (tree.num_tors, tree.num_aggs, tree.num_cores))

    per_slot_watts: list[float] = []
    active_counts: list[int] = []
    violations: dict[int, tuple[int, ...]] = {}
    layer_totals = np.zeros(len(LAYERS))

    def route_batch(batch):
        """Route a batch, hand its plans to `on_plan` and meter them."""
        nonlocal layer_totals
        sets, starts, stops = map(list, zip(*batch))
        try:
            plans = route(sets, tree, params, starts, scenario.seed)
        except SimulationError:
            if len(batch) > 1:
                # Set by set: the first failing set raises its own error
                # again, and on_plan gets every slot before it.
                for item in batch:
                    route_batch([item])
            raise
        spans = np.subtract(stops, starts)
        for j in plans.failing():
            violations.update(dict.fromkeys(range(starts[j], stops[j]),
                                            plans.violations(j)))
        if on_plan is not None:
            for j, (start, stop) in enumerate(zip(starts, stops)):
                plan = plans[j]
                for t in range(start, stop):
                    on_plan(plan if t == start else plan.at(t))
        layer_totals, watts, active = _meter(plans, spans, layer_of, layer_totals, params)
        # As objects, so a plan's slots share one float and one int, as a
        # list repeat would: a float per slot would make each kept report
        # 24 bytes a slot larger.
        per_slot_watts.extend(watts.astype(object).repeat(spans).tolist())
        active_counts.extend(active.astype(object).repeat(spans).tolist())

    table = demand_table(jobs, placement.placements)
    # A router keeps a bin of about 16 bytes per switch for each set of a
    # batch, and a demand row costs about 100 bytes at the batch's peak,
    # so each set counts as at least a sixth of the switches in rows.  A
    # k=16 run of 2,000 one-slot segments of two demands each peaks at
    # 1.2 MB traced so, and at 3.2 MB with k rows a set (0.7 MB at 1,024
    # rows); no benchmark workload has segments that small.
    for batch in _batches(table, scenario.horizon, step, tree.num_switches // 6):
        route_batch(batch)
        del batch  # free its demands and plans before the next builds its own

    runtime_ms = (time.perf_counter() - started) * 1000.0
    return EnergyReport(
        scenario=scenario.describe(),
        total_energy_wt=float(ordered_sum(per_slot_watts)),
        per_timeslot_watts=tuple(per_slot_watts),
        layer_breakdown=dict(zip(LAYERS, layer_totals.tolist())),
        active_switches=tuple(active_counts),
        runtime_ms=runtime_ms,
        violations=violations,
    )


# --- comparisons -----------------------------------------------------------


def _workload_seed(scenario: dict):
    """Seed that generated the workload: the workload seed, else the scenario seed."""
    seed = scenario.get("workload_seed")
    return seed if seed is not None else scenario.get("seed")


def _workload_identity(scenario: dict):
    return (
        scenario.get("workload_path"),
        scenario.get("utilization"),
        _workload_seed(scenario),
    )


def table_row(report: EnergyReport, baseline_wt: float) -> dict:
    """One comparison-table row: the report against a baseline energy.

    `ratio_to_baseline` is the report's energy over the baseline's.
    Against a baseline of 0 it is 1.0 when the report used no energy
    either and `math.inf` when it did.
    """
    sc = report.scenario
    energy = report.total_energy_wt
    if baseline_wt > 0:
        ratio = energy / baseline_wt
    else:
        ratio = math.inf if energy > 0 else 1.0
    return {
        "scenario": sc["label"],
        "utilization": sc.get("utilization"),
        "seed": _workload_seed(sc),
        "total_energy_wt": energy,
        "ratio_to_baseline": ratio,
        "runtime_ms": report.runtime_ms,
        "violations": len(report.violations),
    }


def compare(reports: Sequence[EnergyReport]) -> dict:
    """Normalize runs against the greedy-sp run on the same workload.

    Returns {"rows": per-run table rows, "summary": per-(strategy,
    utilization) mean/std of the ratios}.  A missing baseline for any
    workload is an error.
    """
    baselines = {}
    for report in reports:
        sc = report.scenario
        if sc["assign"] == "greedy" and sc["route"] == "sp":
            baselines[_workload_identity(sc)] = report.total_energy_wt

    rows = []
    grouped: dict[tuple, list[float]] = {}
    energies: dict[tuple, list[float]] = {}
    for report in reports:
        sc = report.scenario
        identity = _workload_identity(sc)
        if identity not in baselines:
            raise ConfigError(
                f"no greedy-sp baseline for workload {identity} "
                f"(scenario {sc['label']})"
            )
        row = table_row(report, baselines[identity])
        rows.append(row)
        key = (sc["label"], sc.get("utilization"))
        grouped.setdefault(key, []).append(row["ratio_to_baseline"])
        energies.setdefault(key, []).append(report.total_energy_wt)

    summary = []
    for (label, util), ratios in sorted(grouped.items(), key=lambda kv: str(kv[0])):
        summary.append(
            {
                "scenario": label,
                "utilization": util,
                "repeats": len(ratios),
                "mean_energy_wt": float(np.mean(energies[(label, util)])),
                "mean_ratio": float(np.mean(ratios)),
                "std_ratio": float(np.std(ratios)),
            }
        )
    return {"rows": rows, "summary": summary}


def derived_seed(*parts: int) -> int:
    """Stable scalar seed derived from a tuple of integers."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def check_sweep(
    k: int,
    utilizations: Sequence[float],
    repeats: int,
    base_seed: int = 0,
    horizon: int = 100,
    server_capacity: int = 2,
) -> None:
    """Raise ConfigError unless `sweep` can run these arguments' cells.

    A sweep needs a utilization, a repeat, a seed and a valid workload
    config per level; `sweep` checks this before its first cell, and a
    caller can check it before preparing any output.
    """
    if not utilizations:
        raise ConfigError("sweep needs at least one utilization")
    if repeats < 1:
        raise ConfigError(f"sweep needs repeats >= 1, got {repeats}")
    if not is_seed(base_seed):
        raise ConfigError(f"sweep needs a seed that is an int >= 0, got {base_seed!r}")
    for utilization in utilizations:
        WorkloadConfig(k=k, target_utilization=utilization, horizon=horizon,
                       server_capacity=server_capacity)


def sweep(
    k: int,
    utilizations: Sequence[float],
    repeats: int,
    base_seed: int = 0,
    horizon: int = 100,
    server_capacity: int = 2,
    power: PowerParams = None,
    grid: Sequence[tuple[str, str]] = STRATEGY_GRID,
) -> tuple[list[EnergyReport], dict]:
    """Run the strategy grid over utilizations x repeats; one workload per cell.

    Every repeat draws a fresh workload seed; all strategies in the grid
    share that workload, so the comparison is paired per seed.
    """
    check_sweep(k, utilizations, repeats, base_seed, horizon, server_capacity)
    power = power or PowerParams()
    reports: list[EnergyReport] = []
    for u_index, utilization in enumerate(utilizations):
        for repeat in range(repeats):
            seed = derived_seed(base_seed, u_index, repeat)
            cfg = WorkloadConfig(
                k=k, target_utilization=utilization, horizon=horizon,
                server_capacity=server_capacity,
            )
            jobs = generate_workload(cfg, seed)
            for assign_name, route_name in grid:
                scenario = Scenario(
                    k=k,
                    assign_strategy=assign_name,
                    route_strategy=route_name,
                    seed=seed,
                    utilization=utilization,
                    workload_seed=seed,
                    horizon=horizon,
                    server_capacity=server_capacity,
                    power=power,
                )
                reports.append(run_scenario(scenario, jobs=jobs))
    return reports, compare(reports)


def write_table(rows: Sequence[dict], path) -> None:
    """Flat tabular export with the fixed column set, comma separated."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=TABLE_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({col: row.get(col) for col in TABLE_COLUMNS})
