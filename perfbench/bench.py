"""Timed rounds, result checks and the traced run.

A round runs every scenario of a workload once.  A run repeats whole
rounds until the next one would end past its time budget (at least one
round), so every run attempts the same scenarios a whole number of times.
Times are medians over the rounds of a run.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
from time import perf_counter

from perfbench import checks, workloads
from perfbench.tracing import Tracer, installed

TIME_METRICS = (
    ("workload.generate_s", "workload.generate"),
    ("workload.demands_s", "workload.demands"),
    ("assignment.assign_s", "assignment.assign"),
    ("graphkit.min_k_cut_s", "graphkit.min_k_cut"),
    ("graphkit.kmeans_pp_seed_s", "graphkit.kmeans_pp_seed"),
    ("graphkit.ffd_pack_s", "graphkit.ffd_pack"),
    ("routing.sp_route_s", "routing.sp_route"),
    ("routing.ecmp_route_s", "routing.ecmp_route"),
    ("routing.eer_s", "routing.eer"),
    ("routing.estimate_active_set_s", "routing.estimate_active_set"),
    ("routing.balanced_route_s", "routing.balanced_route"),
)
COUNT_METRICS = (
    ("workload.demands_calls", "workload.demands"),
    ("workload.flows", "workload.flows"),
    ("graphkit.min_k_cut_calls", "graphkit.min_k_cut"),
    ("graphkit.ffd_pack_calls", "graphkit.ffd_pack"),
    ("routing.eer_escalations", "routing.eer_escalations"),
    ("topology.tor_of_server_calls", "topology.tor_of_server"),
    ("power.switch_power_calls", "power.switch_power"),
)
ROUTERS = ("routing.sp_route", "routing.ecmp_route", "routing.eer")


def repeat_rounds(seconds, one):
    """Call `one` until the next call would end past `seconds`; at least once."""
    results = []
    start = perf_counter()
    while True:
        gc.collect()
        began = perf_counter()
        results.append(one())
        now = perf_counter()
        if (now - start) + (now - began) > seconds:
            return results


def timed_round(inputs, log):
    began = perf_counter()
    outcome = workloads.run_round(inputs, log)
    return perf_counter() - began, outcome


def end_to_end_run(inputs, seconds, log, before_round):
    """Untraced rounds; returns the result (without setup_s) and run details.

    `before_round()` runs ahead of each round, outside its timing but
    inside the run's time budget.
    """
    def one():
        before_round()
        return timed_round(inputs, log)

    rounds = repeat_rounds(seconds, one)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = [took for took, _ in rounds]
    outcomes = [outcome for _, outcome in rounds]
    energy_wt, gaps = verify(inputs, outcomes, {})
    metrics = {
        "run_s": {"value": statistics.median(times), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "energy_wt": {"value": energy_wt, "unit": "Wt"},
    }
    return _result(inputs, outcomes, metrics), {"round_s": times,
                                                "energy_over_bound": gaps}


def traced_run(inputs, seconds, log):
    """Alternating untraced and traced rounds; returns per-layer metrics."""
    expectations = {scenario: checks.expect(scenario, jobs)
                    for scenario, jobs in inputs.cases}
    tracers = []

    def pair():
        plain = timed_round(inputs, log)
        gc.collect()
        tracer = Tracer()
        with installed(replacements(tracer, inputs, expectations)):
            if not inputs.workload.through_sweep:
                # Generation is set-up here; sweep generates inside the round.
                workloads.prepare(inputs.workload, inputs.seed)
            took, outcome = timed_round(inputs, log)
        tracers.append(tracer)
        # The plan checks run inside the traced round but are not its cost.
        return plain, (took - tracer.total_s("bench.plan_check"), outcome)

    pairs = repeat_rounds(seconds, pair)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    outcomes = [o for _, o in plain] + [o for _, o in traced]
    energy_wt, gaps = verify(inputs, outcomes, expectations)
    per_round = [layer_metrics(tracer, outcome)
                 for tracer, (_, outcome) in zip(tracers, traced)]
    # median_low keeps each figure a measured value, and counts whole.
    metrics = {name: {"value": statistics.median_low(r[name][0] for r in per_round),
                      "unit": per_round[0][name][1]}
               for name in per_round[0]}
    overhead = (statistics.median(t for t, _ in traced)
                - statistics.median(t for t, _ in plain))
    metrics["tracing.overhead_s"] = {"value": overhead, "unit": "s"}
    first = tracers[0]
    extra = {
        "untraced_round_s": [t for t, _ in plain],
        "traced_round_s": [t for t, _ in traced],
        "energy_wt": energy_wt,
        "energy_over_bound": gaps,
        "spans": {"fields": ["name", "start", "end", "parent"],
                  "spans": first.spans, "counts": dict(first.counts)},
    }
    return _result(inputs, outcomes, metrics), extra


def _result(inputs, outcomes, metrics):
    # energy_wt sums only the scenarios that ran, so a run with a failed
    # scenario cannot stand for the workload: it is reported as incorrect.
    failed = sum(o.failed for o in outcomes)
    return {
        "correct": failed == 0,
        "attempted": len(outcomes) * len(inputs.cases),
        "failed": failed,
        "metrics": metrics,
    }


def verify(inputs, outcomes, expectations):
    """Check the first round from first principles and the others against it.

    Returns the workload's energy (Wt, summed over its scenarios) and each
    scenario's energy over its lower bound.
    """
    first = outcomes[0]
    for later in outcomes[1:]:
        for (scenario, _), a, b in zip(inputs.cases, first.reports, later.reports):
            if a is not None and b is not None and a.fingerprint() != b.fingerprint():
                raise checks.CheckFailed(
                    f"{scenario.label} seed {scenario.seed}: a repeated round "
                    f"reported {b.total_energy_wt!r} Wt, the first "
                    f"{a.total_energy_wt!r} Wt")
    gaps = {}
    for (scenario, jobs), report in zip(inputs.cases, first.reports):
        if report is None:
            continue
        if report.scenario != scenario.describe():
            raise checks.CheckFailed(
                f"expected scenario {scenario.describe()}, got {report.scenario}")
        exp = expectations.get(scenario) or checks.expect(scenario, jobs)
        bound = checks.check_report(report, exp, scenario.power)
        gaps[exp.label] = report.total_energy_wt / bound if bound else None
    if inputs.workload.through_sweep and first.failed == 0:
        checks.check_sweep_ratios(first.reports, first.rows)
    energy = math.fsum(r.total_energy_wt for r in first.reports if r is not None)
    return energy, gaps


def layer_metrics(tracer, outcome):
    """Per-layer figures of one traced pass: {name: (value, unit)}."""
    counts = tracer.counts
    metrics = {name: (tracer.total_s(span), "s") for name, span in TIME_METRICS}
    metrics.update({name: (counts[key], "count") for name, key in COUNT_METRICS})
    metrics["routing.plans"] = (sum(counts[r] for r in ROUTERS), "count")
    metrics["simengine.self_s"] = (tracer.self_s("simengine.run_scenario"), "s")
    metrics["simengine.active_switch_slots"] = (
        sum(sum(r.active_switches) for r in outcome.reports if r is not None),
        "count")
    return metrics


def replacements(tracer, inputs, expectations):
    """(owner, attribute, wrapper) for every traced public function.

    Each function is replaced where its callers look it up: in the module
    that imports it, in its own module for internal callers, and on the
    class for a method.
    """
    from dcnsim import (assignment, graphkit, power, routing, simengine, topology,
                        workload)

    run_scenario = simengine.run_scenario

    def run_checked(scenario, jobs=None, on_plan=None):
        exp = expectations.get(scenario)
        if exp is None:
            raise checks.CheckFailed(
                f"{scenario.label} seed {scenario.seed} is not a scenario of "
                f"{inputs.workload.name}")
        route, params = scenario.route_strategy, scenario.power
        check = tracer.span("bench.plan_check",
                            lambda plan: checks.check_plan(plan, exp, params, route))
        return run_scenario(scenario, jobs=jobs, on_plan=check)

    def count_flows(counts, args, kwargs, result):
        counts["workload.flows"] += len(result.flows)

    def count_escalation(counts, args, kwargs, result):
        if kwargs.get("extra", args[4] if len(args) > 4 else 0) > 0:
            counts["routing.eer_escalations"] += 1

    wrappers = {
        "generate_workload": tracer.span("workload.generate",
                                         workload.generate_workload),
        "demands_at": tracer.span("workload.demands", workload.demands_at,
                                  count_flows),
        "assign": tracer.span("assignment.assign", assignment.assign),
        "min_k_cut": tracer.span("graphkit.min_k_cut", graphkit.min_k_cut),
        "kmeans_pp_seed": tracer.span("graphkit.kmeans_pp_seed",
                                      graphkit.kmeans_pp_seed),
        "ffd_pack": tracer.span("graphkit.ffd_pack", graphkit.ffd_pack),
        "sp_route": tracer.span("routing.sp_route", routing.sp_route),
        "ecmp_route": tracer.span("routing.ecmp_route", routing.ecmp_route),
        "eer": tracer.span("routing.eer", routing.eer),
        "estimate_active_set": tracer.span("routing.estimate_active_set",
                                           routing.estimate_active_set,
                                           count_escalation),
        "balanced_route": tracer.span("routing.balanced_route",
                                      routing.balanced_route),
        "run_scenario": tracer.span("simengine.run_scenario", run_checked),
        "sweep": tracer.span("simengine.sweep", simengine.sweep),
        "switch_power": tracer.count("power.switch_power", power.switch_power),
        "tor_of_server": tracer.count("topology.tor_of_server",
                                      topology.FatTree.tor_of_server),
    }
    owners = (workloads, simengine, workload, assignment, graphkit, routing, power,
              topology.FatTree)
    return [(owner, name, wrapper)
            for owner in owners
            for name, wrapper in wrappers.items()
            if name in vars(owner)]
