"""The benchmark's workloads: their inputs and one timed round of each.

Why these four (README.md has the measured make-up of each):

* sp_k24 - greedy-sp at k = 24: demand build and static shortest paths
  only.  EER, the assignment pipeline and graphkit never run, so a change
  to them must leave this workload unchanged.
* eer_k24 - opt_eea-eer at k = 24, the headline pair at large k: EER,
  assignment and the per-slot ToR lookups all weigh here.
* sweep_k8 - the strategy grid through `sweep` at k = 8: 60 small
  scenarios where per-call overhead, assignment and graphkit weigh most,
  and consecutive slots often repeat their active-job set.
* lowstartup_k16 - the power regime where spreading traffic beats
  consolidating it; the only workload that runs ECMP.  C is 30 Gbps:
  at 20 Gbps one workload seed in twenty overloads a ToR through the
  placement alone, which no routing can repair, and EER then fails.
  Its energy grows with the square of the ToR loads, so one large job
  moves it by a quarter; six workload draws per seed keep its spread
  between seeds near a tenth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from dcnsim import PowerParams, Scenario, generate_workload, run_scenario, sweep
from dcnsim.errors import SimulationError
from dcnsim.simengine import STRATEGY_GRID
from dcnsim.workload import WorkloadConfig

HORIZON = 100
UTILIZATION = 0.5
SWEEP_UTILIZATIONS = (0.15, 0.35, 0.55, 0.75)
SWEEP_REPEATS = 3
LOW_STARTUP = PowerParams(sigma=0.01, mu=1.0, alpha=2.0, capacity=30.0)


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    pairs: tuple[tuple[str, str], ...]
    power: PowerParams = field(default_factory=PowerParams)
    through_sweep: bool = False
    draws: int = 1  # workloads drawn per seed, each run with every pair


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sp_k24", 24, (("greedy", "sp"),)),
        Workload("eer_k24", 24, (("opt_eea", "eer"),)),
        Workload("sweep_k8", 8, STRATEGY_GRID, through_sweep=True),
        Workload(
            "lowstartup_k16", 16,
            (("greedy", "ecmp"), ("greedy", "eer"), ("opt_eea", "eer")),
            power=LOW_STARTUP, draws=6,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """A workload at one seed: every scenario a round runs, with its jobs."""

    workload: Workload
    seed: int
    cases: tuple[tuple[Scenario, list], ...]


@dataclass(frozen=True)
class Round:
    reports: tuple  # one EnergyReport per case, None where the scenario failed
    rows: tuple  # sweep table rows; empty outside sweep_k8
    failed: int


def derived_seed(*parts: int) -> int:
    """A workload seed derived from `parts`, the way `sweep` derives its own."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def prepare(workload: Workload, seed: int) -> Inputs:
    """Generate the workload's jobs; the program later receives only these."""
    cases = []
    if workload.through_sweep:
        # sweep generates these itself; the benchmark needs them for its checks.
        for u_index, utilization in enumerate(SWEEP_UTILIZATIONS):
            for repeat in range(SWEEP_REPEATS):
                cell_seed = derived_seed(seed, u_index, repeat)
                cfg = WorkloadConfig(k=workload.k, target_utilization=utilization,
                                     horizon=HORIZON)
                jobs = generate_workload(cfg, cell_seed)
                cases += [
                    (Scenario(k=workload.k, assign_strategy=a, route_strategy=r,
                              seed=cell_seed, utilization=utilization,
                              workload_seed=cell_seed, horizon=HORIZON,
                              power=workload.power), jobs)
                    for a, r in workload.pairs
                ]
    else:
        cfg = WorkloadConfig(k=workload.k, target_utilization=UTILIZATION,
                             horizon=HORIZON)
        draw_seeds = ([seed] if workload.draws == 1 else
                      [derived_seed(seed, draw) for draw in range(workload.draws)])
        for draw_seed in draw_seeds:
            jobs = generate_workload(cfg, draw_seed)
            cases += [
                (Scenario(k=workload.k, assign_strategy=a, route_strategy=r,
                          seed=draw_seed, horizon=HORIZON, power=workload.power), jobs)
                for a, r in workload.pairs
            ]
    return Inputs(workload, seed, tuple(cases))


def run_round(inputs: Inputs, log) -> Round:
    """Run every scenario of the workload once, through the public API."""
    workload = inputs.workload
    if workload.through_sweep:
        try:
            reports, tables = sweep(
                workload.k, SWEEP_UTILIZATIONS, SWEEP_REPEATS, base_seed=inputs.seed,
                horizon=HORIZON, power=workload.power, grid=workload.pairs,
            )
        except SimulationError as exc:
            log(f"{workload.name}: sweep failed: {exc}")
            return Round((None,) * len(inputs.cases), (), len(inputs.cases))
        return Round(tuple(reports), tuple(tables["rows"]), 0)
    reports = []
    for scenario, jobs in inputs.cases:
        try:
            reports.append(run_scenario(scenario, jobs=jobs))
        except SimulationError as exc:
            log(f"{workload.name}: {scenario.label} failed: {exc}")
            reports.append(None)
    return Round(tuple(reports), (), reports.count(None))
