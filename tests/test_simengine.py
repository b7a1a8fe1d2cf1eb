"""Scenario runs, reports, comparisons and sweeps."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

import dcnsim.routing as routing
from dcnsim.errors import ConfigError
from dcnsim.power import PowerParams, switch_power
from dcnsim.simengine import (
    STRATEGY_GRID,
    EnergyReport,
    Scenario,
    check_sweep,
    compare,
    load_report,
    run_scenario,
    save_report,
    sweep,
    table_row,
)
from dcnsim.workload import (
    WorkloadConfig,
    generate_workload,
    load_workload,
    save_workload,
)


def _scenario(**kw):
    base = dict(
        k=4, assign_strategy="greedy", route_strategy="sp",
        seed=1, utilization=0.4, horizon=12,
    )
    base.update(kw)
    return Scenario(**base)


def test_empty_workload_costs_nothing():
    report = run_scenario(_scenario(utilization=0.0))
    assert report.total_energy_wt == 0.0
    assert all(w == 0 for w in report.per_timeslot_watts)
    assert sum(report.layer_breakdown.values()) == 0.0


def test_cohosted_job_consumes_no_network_energy():
    from dcnsim.workload import Job, Transfer

    m = np.array([[0.0, 80.0], [80.0, 0.0]])
    job = Job(id=0, vm_count=2, transfers=(Transfer(2, 9, m),))
    report = run_scenario(
        _scenario(assign_strategy="opt_eea", route_strategy="eer"), jobs=[job]
    )
    assert report.total_energy_wt == 0.0


def test_report_totals_are_consistent():
    report = run_scenario(_scenario(utilization=0.6))
    assert math.isclose(
        report.total_energy_wt, sum(report.per_timeslot_watts), rel_tol=1e-12
    )
    assert math.isclose(
        report.total_energy_wt, sum(report.layer_breakdown.values()), rel_tol=1e-12
    )
    assert len(report.per_timeslot_watts) == 12
    assert len(report.active_switches) == 12
    assert report.total_energy_joules == report.total_energy_wt * 60.0


def test_same_seed_reproduces_bit_identical_reports():
    for assign_name, route_name in (("greedy", "ecmp"), ("opt_eea", "eer")):
        sc = _scenario(assign_strategy=assign_name, route_strategy=route_name, seed=5)
        a = run_scenario(sc)
        b = run_scenario(sc)
        assert a.fingerprint() == b.fingerprint()


def test_seed_changes_only_stochastic_strategies(tmp_path):
    jobs = generate_workload(
        WorkloadConfig(k=4, target_utilization=0.5, horizon=12), seed=3
    )
    path = tmp_path / "wl.json"
    save_workload(path, jobs, horizon=12, seed=3)

    def payload(report):
        fp = report.fingerprint()
        fp["scenario"] = {
            key: v for key, v in fp["scenario"].items() if key != "seed"
        }
        return fp

    loaded, _ = load_workload(path)
    determinist = [
        run_scenario(
            _scenario(workload_path=str(path), utilization=None, seed=s), jobs=loaded
        )
        for s in (1, 2, 3)
    ]
    assert payload(determinist[0]) == payload(determinist[1]) == payload(determinist[2])

    stochastic = [
        run_scenario(
            _scenario(
                assign_strategy="opt_eea", route_strategy="eer",
                workload_path=str(path), utilization=None, seed=s,
            ),
            jobs=loaded,
        )
        for s in (1, 2, 3, 4)
    ]
    assert len({tuple(r.per_timeslot_watts) for r in stochastic}) > 1


@pytest.mark.parametrize("assign, seeded", [
    ("greedy", False), ("opt_greedy", False), ("eea", True), ("opt_eea", True),
])
def test_only_the_pipeline_strategies_need_a_seed(assign, seeded):
    # k-means++ clustering is the pipeline's only draw; first-fit draws nothing.
    if seeded:
        with pytest.raises(ConfigError, match=f"{assign}-sp uses randomness"):
            _scenario(assign_strategy=assign, seed=None)
    else:
        assert _scenario(assign_strategy=assign, seed=None).seed is None


def test_a_workload_path_without_its_jobs_is_refused(tmp_path):
    # the path only labels the report: run_scenario neither reads the
    # file nor generates a workload the label would misname
    jobs = generate_workload(
        WorkloadConfig(k=4, target_utilization=0.5, horizon=12), seed=3
    )
    path = tmp_path / "wl.json"
    save_workload(path, jobs, horizon=12, seed=3)
    for utilization in (None, 0.5):
        with pytest.raises(ConfigError, match="only labels the report"):
            run_scenario(_scenario(workload_path=str(path), utilization=utilization))
    with pytest.raises(ConfigError, match="utilization or explicit jobs"):
        run_scenario(_scenario(utilization=None))


def test_report_roundtrip(tmp_path):
    report = run_scenario(_scenario(route_strategy="ecmp", utilization=0.5))
    path = tmp_path / "report.json"
    save_report(report, path)
    loaded = load_report(path)
    assert loaded.fingerprint() == report.fingerprint()
    assert loaded.runtime_ms == report.runtime_ms


def test_a_saved_report_lists_its_keys_in_a_fixed_order(tmp_path):
    path = tmp_path / "report.json"
    save_report(run_scenario(_scenario()), path)
    doc = json.loads(path.read_text())
    assert list(doc) == [
        "version", "scenario", "total_energy_wt", "per_timeslot_watts",
        "layer_breakdown", "active_switches", "violations", "runtime_ms",
    ]
    assert list(doc["scenario"]) == [
        "label", "k", "assign", "route", "seed", "utilization", "workload_seed",
        "workload_path", "horizon", "server_capacity", "timeslot_seconds", "power",
    ]
    assert list(doc["scenario"]["power"]) == ["sigma", "mu", "alpha", "capacity"]


def test_report_total_matches_recomputation_from_load_maps():
    # round-trip accounting: the engine's total equals the power curve
    # applied to the raw per-timeslot switch loads
    plans = []
    sc = _scenario(assign_strategy="opt_eea", route_strategy="eer", utilization=0.6)
    report = run_scenario(sc, on_plan=plans.append)
    per_slot = [
        sum(switch_power(load, PowerParams()) for load in plan.loads.values())
        for plan in plans
    ]
    assert math.isclose(sum(per_slot), report.total_energy_wt, rel_tol=1e-12)
    assert np.allclose(per_slot, report.per_timeslot_watts)


def test_compare_baseline_against_itself():
    report = run_scenario(_scenario())
    table = compare([report])
    assert table["rows"][0]["ratio_to_baseline"] == 1.0
    assert table["summary"][0]["mean_ratio"] == 1.0


def test_ratio_against_a_zero_baseline():
    used = run_scenario(_scenario())
    idle = run_scenario(_scenario(utilization=0.0))
    assert used.total_energy_wt > 0 and idle.total_energy_wt == 0.0
    assert table_row(used, 0.0)["ratio_to_baseline"] == math.inf
    assert table_row(idle, 0.0)["ratio_to_baseline"] == 1.0


def test_compare_labels_rows_with_a_zero_workload_seed():
    report = run_scenario(_scenario(seed=7, workload_seed=0))
    assert compare([report])["rows"][0]["seed"] == 0


def test_jobs_sharing_an_id_are_a_config_error():
    jobs = generate_workload(WorkloadConfig(k=4, target_utilization=0.4, horizon=12), 1)
    jobs[-1] = dataclasses.replace(jobs[-1], id=jobs[0].id)
    with pytest.raises(ConfigError, match=f"job id {jobs[0].id} is repeated"):
        run_scenario(_scenario(), jobs)


def test_compare_requires_baseline():
    report = run_scenario(_scenario(route_strategy="ecmp"))
    with pytest.raises(ConfigError):
        compare([report])


def test_sp_builds_each_pair_path_once_per_run(monkeypatch):
    built = []
    paths = routing._sp_paths
    monkeypatch.setattr(routing, "_sp_paths", lambda tree, src, dst: (
        built.append(len(src)) or paths(tree, src, dst)))
    plans = []
    report = run_scenario(_scenario(k=8, horizon=30), on_plan=plans.append)
    assert len(built) == 1 and len(plans) == 30
    assert built[0] == len({(s, d) for plan in plans for s, d, _, _ in plan.routes})
    assert report.total_energy_wt > 0


def test_eer_is_never_worse_than_sp_for_the_same_assignment():
    for seed in range(6):
        jobs = generate_workload(
            WorkloadConfig(k=4, target_utilization=0.5, horizon=12), seed=seed
        )
        base = run_scenario(_scenario(seed=seed, workload_seed=seed), jobs=jobs)
        eer_run = run_scenario(
            _scenario(route_strategy="eer", seed=seed, workload_seed=seed), jobs=jobs
        )
        assert eer_run.total_energy_wt <= base.total_energy_wt + 1e-9


def test_sweep_arity_and_pairing():
    reports, tables = sweep(
        k=4, utilizations=[0.3], repeats=1, base_seed=7, horizon=8
    )
    assert len(reports) == len(STRATEGY_GRID)
    assert len(tables["rows"]) == len(STRATEGY_GRID)
    labels = {row["scenario"] for row in tables["rows"]}
    assert labels == {f"{a}-{r}" for a, r in STRATEGY_GRID}
    base_rows = [r for r in tables["rows"] if r["scenario"] == "greedy-sp"]
    assert base_rows[0]["ratio_to_baseline"] == 1.0


def test_sweep_needs_a_level_and_a_repeat():
    with pytest.raises(ConfigError, match="repeats >= 1, got 0"):
        sweep(4, [0.3], 0)
    with pytest.raises(ConfigError, match="at least one utilization"):
        sweep(4, [], 1)


@pytest.mark.parametrize("field, value", [
    ("seed", -1), ("seed", True), ("workload_seed", -3), ("workload_seed", 2.0),
])
def test_scenario_seeds_are_ints_of_at_least_0(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be an int >= 0 or None"):
        _scenario(**{field: value})


def test_a_sweep_needs_a_seed_of_at_least_0():
    with pytest.raises(ConfigError, match="seed that is an int >= 0, got -1"):
        check_sweep(4, [0.3], 1, base_seed=-1)


def test_sweep_energy_grows_with_utilization():
    reports, tables = sweep(
        k=4, utilizations=[0.2, 0.5, 0.8], repeats=3, base_seed=1, horizon=10,
        grid=(("greedy", "sp"),),
    )
    points = [
        (row["utilization"], row["total_energy_wt"]) for row in tables["rows"]
    ]
    utils = np.array([p[0] for p in points])
    energy = np.array([p[1] for p in points])
    ranks_u = np.argsort(np.argsort(utils))
    ranks_e = np.argsort(np.argsort(energy))
    rho = np.corrcoef(ranks_u, ranks_e)[0, 1]
    assert rho > 0


def test_scenario_validation():
    with pytest.raises(ConfigError):
        Scenario(k=4, assign_strategy="nope", route_strategy="sp")
    with pytest.raises(ConfigError, match=r"\('sp', 'ecmp', 'eer'\)"):
        Scenario(k=4, assign_strategy="greedy", route_strategy="nope")
    with pytest.raises(ConfigError):
        run_scenario(Scenario(k=4, assign_strategy="greedy", route_strategy="sp"))
    for horizon in (-5, 0, 2.5, "abc", True):
        with pytest.raises(ConfigError, match="horizon must be an int >= 1"):
            Scenario(k=4, assign_strategy="greedy", route_strategy="sp",
                     horizon=horizon)


@pytest.mark.parametrize("field, value, cause", [
    ("k", 5, "k must be even and within [4, 48], got 5"),
    ("k", 50, "k must be even and within [4, 48], got 50"),
    ("server_capacity", 0, "server_capacity must be >= 1, got 0"),
    ("utilization", -1.0, "target_utilization must be within [0, 1], got -1.0"),
    ("utilization", 1.5, "target_utilization must be within [0, 1], got 1.5"),
    ("utilization", math.nan, "target_utilization must be within [0, 1], got nan"),
])
def test_a_scenario_checks_what_its_workload_config_checks(field, value, cause):
    # A report labelled with such a value would describe no workload that ran.
    with pytest.raises(ConfigError, match=re.escape(cause)):
        _scenario(**{field: value})


def test_a_scenario_draws_its_inline_workload_from_its_config():
    scenario = _scenario(k=8, utilization=None, horizon=7, server_capacity=3)
    assert scenario.workload_config() == WorkloadConfig(8, 0.0, 7, 3)
    scenario = _scenario(utilization=0.3, seed=5)
    assert run_scenario(scenario).fingerprint() == run_scenario(
        scenario, generate_workload(scenario.workload_config(), 5)).fingerprint()


def test_violations_are_recorded_not_fatal_for_baselines():
    from dcnsim.workload import Job, Transfer

    # greedy co-hosts VMs 0 and 1 on server 0, so the 1400 Gbps flow
    # from VM 0 to VM 2 (on server 1) overloads their shared ToR
    m = np.zeros((3, 3))
    m[0, 2] = 1.4e6
    job = Job(id=0, vm_count=3, transfers=(Transfer(0, 4, m),))
    report = run_scenario(_scenario(horizon=6), jobs=[job])
    assert set(report.violations) == {0, 1, 2, 3, 4}
    assert report.total_energy_wt > 0
