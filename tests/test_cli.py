"""CLI subcommands, config files and exit codes."""

import argparse
import csv
import json
import math

import pytest

from dcnsim.cli import OPTIONS, build_parser, main
from dcnsim.simengine import TABLE_COLUMNS, Scenario, load_report
from dcnsim.workload import WorkloadConfig, generate_workload, load_workload


def test_gen_run_compare_pipeline(tmp_path):
    wl = tmp_path / "wl.json"
    assert main(["gen", "--k", "4", "--utilization", "0.4", "--seed", "5",
                 "--horizon", "10", "--out", str(wl)]) == 0
    jobs, meta = load_workload(wl)
    assert jobs and meta["horizon"] == 10

    base = tmp_path / "base.json"
    assert main(["run", "--workload", str(wl), "--assign", "greedy",
                 "--route", "sp", "--k", "4", "--seed", "5", "--horizon", "10",
                 "--out", str(base)]) == 0
    report = load_report(base)
    assert report.scenario["label"] == "greedy-sp"

    other = tmp_path / "eer.json"
    assert main(["run", "--workload", str(wl), "--assign", "opt_eea",
                 "--route", "eer", "--k", "4", "--seed", "5", "--horizon", "10",
                 "--out", str(other)]) == 0

    table = tmp_path / "cmp.csv"
    assert main(["compare", "--reports", str(base), str(other),
                 "--baseline", str(base), "--out", str(table)]) == 0
    with open(table) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == list(TABLE_COLUMNS)
    by_label = {r["scenario"]: r for r in rows}
    assert float(by_label["greedy-sp"]["ratio_to_baseline"]) == 1.0
    assert float(by_label["opt_eea-eer"]["ratio_to_baseline"]) <= 1.0


def test_run_can_dump_routes(tmp_path):
    wl = tmp_path / "wl.json"
    main(["gen", "--k", "4", "--utilization", "0.3", "--seed", "2",
          "--horizon", "6", "--out", str(wl)])
    out = tmp_path / "r.json"
    routes = tmp_path / "routes.csv"
    assert main(["run", "--workload", str(wl), "--assign", "greedy",
                 "--route", "sp", "--k", "4", "--seed", "2", "--horizon", "6",
                 "--out", str(out), "--dump-routes", str(routes)]) == 0
    with open(routes) as fh:
        rows = list(csv.DictReader(fh))
    assert rows, "expected at least one routed demand"
    assert set(rows[0]) == {"timeslot", "src", "dst", "rate_mbps", "path"}


def test_sweep_outputs(tmp_path):
    out = tmp_path / "sweepdir"
    assert main(["sweep", "--k", "4", "--utilizations", "0.3", "--repeats", "1",
                 "--seed", "3", "--horizon", "6", "--out", str(out)]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert "sweep.csv" in files and "summary.json" in files
    assert sum(name.endswith(".json") for name in files) >= 6  # 5 reports + summary
    summary = json.loads((out / "summary.json").read_text())
    assert {row["scenario"] for row in summary} == {
        "greedy-sp", "opt_greedy-sp", "greedy-eer", "eea-eer", "opt_eea-eer"
    }


def test_config_file_supplies_and_flags_override(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("k = 4\nutilization = 0.3\nseed = 9\nhorizon = 6\n")
    wl = tmp_path / "wl.json"
    assert main(["gen", "--config", str(cfg), "--out", str(wl)]) == 0
    _, meta = load_workload(wl)
    assert meta["seed"] == 9

    wl2 = tmp_path / "wl2.json"
    assert main(["gen", "--config", str(cfg), "--seed", "11", "--out", str(wl2)]) == 0
    _, meta2 = load_workload(wl2)
    assert meta2["seed"] == 11


def test_config_error_exit_code(tmp_path):
    out = tmp_path / "x.json"
    assert main(["gen", "--k", "4", "--utilization", "1.5", "--out", str(out)]) == 2
    assert main(["gen", "--k", "5", "--utilization", "0.5", "--out", str(out)]) == 2
    assert main(["run", "--route", "sp", "--assign", "greedy", "--out", str(out)]) == 2


def _jobs_text(*jobs):
    """A workload file's text holding a two-VM job per (id, window start)."""
    return json.dumps({"version": 1, "horizon": 10, "jobs": [
        {"id": job_id, "vm_count": 2,
         "transfers": [{"start": start, "end": 9, "matrix": [[0, 1], [1, 0]]}]}
        for job_id, start in jobs]})


def _job_text(**fields):
    """A workload file's text holding one two-VM job with `fields` set."""
    job = {"id": 0, "vm_count": 2, "vm_resource": 1,
           "transfers": [{"start": 0, "end": 9, "matrix": [[0, 1], [1, 0]]}]}
    return json.dumps({"version": 1, "horizon": 10, "jobs": [{**job, **fields}]})


@pytest.mark.parametrize("text, cause", [
    ("{not json", "not valid JSON"),
    ('{"version": 1, "horizon": 10}', "lacks the key 'jobs'"),
    ('{"version": 1, "horizon": 10, "jobs": [1]}', "is malformed"),
    ('{"version": 1, "horizon": "abc", "jobs": []}', "horizon must be an int >= 1"),
    ('{"version": 1, "horizon": 10, "config": "x", "jobs": []}',
     "config must be an object or null"),
    ('{"version": 1, "horizon": 10, "seed": "x", "jobs": []}',
     "seed must be an int or null"),
    ('{"version": 1, "horizon": 10, "config": {"utilization": "abc"}, "jobs": []}',
     "utilization must be a number"),
    # The config is a record: each key has its type and, given, its domain.
    ('{"version": 1, "horizon": 10, "config": {"k": "x"}, "jobs": []}',
     "config.k must be an int or null, got 'x'"),
    ('{"version": 1, "horizon": 10, "config": {"utilization": 1.5}, "jobs": []}',
     "config.utilization: target_utilization must be within [0, 1], got 1.5"),
    ('{"version": 1, "horizon": 10, "config": {"k": 5}, "jobs": []}',
     "config.k: k must be even and within [4, 48], got 5"),
    ('{"version": 1, "horizon": 10, "config": {"server_capacity": 0}, "jobs": []}',
     "config.server_capacity: server_capacity must be >= 1, got 0"),
    ('{"version": 1, "horizon": 10, "config": {"utilisation": 0.5}, "jobs": []}',
     "config has the unknown key 'utilisation'"),
    (_jobs_text((0, 7.5)), "jobs[0].transfers[0].start must be an int, got 7.5"),
    (_jobs_text((0, True)), "jobs[0].transfers[0].start must be an int, got True"),
    (_jobs_text((0, 0), (1, 2), (0, 4)), "job id 0 is repeated"),
    (_job_text(vm_resource=1.5), "jobs[0].vm_resource must be an int, got 1.5"),
    (_job_text(vm_resource=True), "jobs[0].vm_resource must be an int, got True"),
    (_job_text(vm_count=2.0), "jobs[0].vm_count must be an int, got 2.0"),
    (_job_text(id="a"), "jobs[0].id must be an int, got 'a'"),
    (_job_text(vm_count=0), "job 0: vm_count must be an int >= 1, got 0"),
    ('{"version": 1, "horizon": 10, "jobs": {}}', "jobs must be a JSON array, got {}"),
    (_job_text(transfers={}), "jobs[0].transfers must be a JSON array, got {}"),
    (_job_text(transfers=[{"start": 0, "end": 9, "matrix": [[0, True], [False, 0]]}]),
     "jobs[0].transfers[0].matrix[0][1] must be a number, got True"),
    (_job_text(transfers=[{"start": 0, "end": 9, "matrix": [[0, 1], ["0.5", 0]]}]),
     "jobs[0].transfers[0].matrix[1][0] must be a number, got '0.5'"),
    (_job_text(transfers=[{"start": 0, "end": 9, "matrix": [[0, 1], {"0": 1}]}]),
     "jobs[0].transfers[0].matrix[1] must be a JSON array, got {'0': 1}"),
    ('{"version": 1, "horizon": 10, "seed": -1, "jobs": []}', "not negative; got -1"),
    # true and 1.0 equal 1 in Python, but neither is a file version.
    ('{"version": true, "horizon": 10, "jobs": []}', "unsupported workload file version True"),
    ('{"version": 1.0, "horizon": 10, "jobs": []}', "unsupported workload file version 1.0"),
    # Every object's keys are its record's fields: no more, and none left
    # out that has no default.
    ('{"version": 1, "horizon": 10, "jobs": [], "extra": 1}',
     "the document has the unknown key 'extra'"),
    (_job_text(vm_resources=2), "jobs[0] has the unknown key 'vm_resources'"),
    (_job_text(transfers=[{"start": 0, "end": 9, "matrix": [[0, 1], [1, 0]], "rate": 1}]),
     "jobs[0].transfers[0] has the unknown key 'rate'"),
    ('{"version": 1, "horizon": 10, "jobs": [{"id": 0, "transfers": []}]}',
     "lacks the key 'jobs[0].vm_count'"),
    # A number no float can hold: a literal that rounds to infinity, or an
    # int too large to convert.
    (_job_text().replace("[[0, 1]", "[[0, 1e400]"), "not valid JSON: 1e400 is not a finite"),
    (_job_text().replace("[[0, 1]", f"[[{10**399}, 1]"),
     "malformed: int too large to convert to float"),
])
def test_bad_workload_file_is_a_config_error(tmp_path, capsys, text, cause):
    wl = tmp_path / "bad.json"
    wl.write_text(text)
    assert main(["run", "--workload", str(wl), "--k", "4",
                 "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(wl) in err and cause in err


def _scenario(**fields):
    """A two-slot greedy-sp report's scenario with `fields` set."""
    scenario = Scenario(k=4, assign_strategy="greedy", route_strategy="sp", horizon=2)
    return {**scenario.describe(), **fields}


def _report_text(**fields):
    """A report file's text: a two-slot greedy-sp report with `fields` set.
    A float field that is NaN or infinite is written as that JSON token."""
    report = {
        "version": 1,
        "scenario": _scenario(),
        "total_energy_wt": 800.0, "per_timeslot_watts": [400.0, 400.0],
        "layer_breakdown": {"tor": 800.0, "agg": 0.0, "core": 0.0},
        "active_switches": [2, 2], "violations": {}, "runtime_ms": 1.0,
    }
    return json.dumps({**report, **fields})


@pytest.mark.parametrize("argv", [
    ["run", "--workload", "{path}", "--k", "4"],
    ["compare", "--reports", "{path}", "--baseline", "{path}"],
])
def test_a_file_that_is_not_utf8_is_not_valid_json(tmp_path, capsys, argv):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{")
    argv = [arg.format(path=path) for arg in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"{path} is not valid JSON: 'utf-8'" in err


def test_the_report_rows_start_from_a_valid_report(tmp_path):
    report = tmp_path / "report.json"
    report.write_text(_report_text())
    assert main(["compare", "--reports", str(report), "--baseline", str(report),
                 "--out", str(tmp_path / "x.csv")]) == 0


@pytest.mark.parametrize("text, cause", [
    (None, "No such file"),
    ("{not json", "not valid JSON"),
    ('{"version": 1}', "lacks the key 'scenario'"),
    ('{"version": true}', "unsupported report file version True"),
    (_report_text(total_energy_wt="x"), "total_energy_wt must be a number, got 'x'"),
    (_report_text(scenario=[]), "scenario must be a JSON object, got []"),
    (_report_text(scenario={}), "lacks the key 'scenario.label'"),
    (_report_text(per_timeslot_watts="abc"),
     "per_timeslot_watts must be a JSON array, got 'abc'"),
    (_report_text(scenario=_scenario(label=[])), "scenario.label must be a string, got []"),
    (_report_text(scenario=_scenario(k="x")), "scenario.k must be an int, got 'x'"),
    (_report_text(scenario=_scenario(utilization="x")),
     "scenario.utilization must be a number or null, got 'x'"),
    (_report_text(scenario=_scenario(power="x")),
     "scenario.power must be a JSON object, got 'x'"),
    (_report_text(scenario=_scenario(label="greedy-eer")),
     "scenario.label must be 'greedy-sp', got 'greedy-eer'"),
    (_report_text(violations={"x": [1]}), "violations.x must be keyed by an int, got 'x'"),
    # The scenario's values build the Scenario, and describe() must give
    # the file's object back: each value is in its domain, power holds all
    # four parameters, and the label names the strategies.
    (_report_text(scenario=_scenario(power={})),
     "scenario.power must be {'sigma': 200.0, 'mu': 0.0001, 'alpha': 2.0, "
     "'capacity': 1000.0}, got {}"),
    (_report_text(scenario=_scenario(power={"sigma": 200.0, "mu": 1e-4, "alpha": 2.0})),
     "'capacity': 1000.0}, got {'sigma': 200.0, 'mu': 0.0001, 'alpha': 2.0}"),
    (_report_text(scenario=_scenario(power={"sigma": "x"})),
     "scenario.power.sigma must be a number, got 'x'"),
    (_report_text(scenario=_scenario(power={"sigma": -1})), "sigma must be >= 0, got -1"),
    (_report_text(scenario=_scenario(seed=-5)), "seed must be an int >= 0 or None, got -5"),
    (_report_text(scenario=_scenario(horizon=0)), "horizon must be an int >= 1, got 0"),
    (_report_text(scenario=_scenario(server_capacity=0)),
     "server_capacity must be >= 1, got 0"),
    (_report_text(scenario=_scenario(k=5)), "k must be even and within [4, 48], got 5"),
    (_report_text(scenario=_scenario(utilization=-1)),
     "target_utilization must be within [0, 1], got -1"),
    (_report_text(scenario=_scenario(timeslot_seconds=-60)),
     "timeslot_seconds must be finite and > 0, got -60"),
    (_report_text(scenario=_scenario(assign="zzz", label="zzz-sp")),
     "assign strategy must be one of"),
    (_report_text(scenario=_scenario(route="ecmp", label="greedy-ecmp", seed=None)),
     "greedy-ecmp uses randomness and needs an explicit seed"),
    # NaN and Infinity are not JSON numbers.
    (_report_text(scenario=_scenario(timeslot_seconds=math.nan)),
     "not valid JSON: NaN is not a finite number"),
    (_report_text(total_energy_wt=math.nan), "not valid JSON: NaN is not a finite number"),
    (_report_text(per_timeslot_watts=[400.0, math.inf]),
     "not valid JSON: Infinity is not a finite number"),
    (_report_text(layer_breakdown={"tor": -math.inf, "agg": 0.0, "core": 0.0}),
     "not valid JSON: -Infinity is not a finite number"),
    # The figures fit the scenario: one per slot, a total per layer.
    (_report_text(per_timeslot_watts=[400.0]), "per_timeslot_watts must hold 2 slots, got 1"),
    (_report_text(active_switches=[2, 2, 2]), "active_switches must hold 2 slots, got 3"),
    (_report_text(layer_breakdown={"agg": 800.0, "core": 0.0}),
     "lacks the key 'layer_breakdown.tor'"),
    (_report_text(layer_breakdown={"tor": 800.0, "agg": 0.0, "core": 0.0, "spine": 0.0}),
     "layer_breakdown has the unknown key 'spine'"),
    (_report_text(violations={" 3": [1]}), "violations. 3 must be keyed by an int, got ' 3'"),
    # The figures add up: none is negative, and the total is the slots' sum.
    (_report_text().replace('"total_energy_wt": 800.0', '"total_energy_wt": 1e400'),
     "not valid JSON: 1e400 is not a finite number"),
    (_report_text(total_energy_wt=-5),
     "total_energy_wt must be the sum of per_timeslot_watts, 800.0, got -5"),
    (_report_text(total_energy_wt=1600.0),
     "total_energy_wt must be the sum of per_timeslot_watts, 800.0, got 1600.0"),
    (_report_text(per_timeslot_watts=[-400.0, 1200.0]),
     "per_timeslot_watts[0] must be >= 0, got -400.0"),
    (_report_text(active_switches=[2, -1]), "active_switches[1] must be >= 0, got -1"),
    (_report_text(layer_breakdown={"tor": 800.0, "agg": -1.0, "core": 1.0}),
     "layer_breakdown.agg must be >= 0, got -1.0"),
    (_report_text(layer_breakdown={"tor": 1600.0, "agg": 0.0, "core": 0.0}),
     "layer_breakdown must add up to total_energy_wt 800.0 within 1e-09 of it, "
     "got 1600.0"),
])
def test_bad_report_file_is_a_config_error(tmp_path, capsys, text, cause):
    report = tmp_path / "bad.json"
    if text is not None:
        report.write_text(text)
    assert main(["compare", "--reports", str(report), "--baseline", str(report),
                 "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(report) in err and cause in err


@pytest.mark.parametrize("flags, config", [
    (["--utilization", "-1"], {}),
    ([], {"utilization": -1}),
    ([], {"utilization": 1.5}),
])
def test_a_run_refuses_a_utilization_outside_0_to_1(tmp_path, capsys, flags, config):
    # Given by the flag or by the workload file, it would label the report;
    # the file's is refused as it loads, naming the file and the key.
    wl = tmp_path / "wl.json"
    assert main(["gen", "--k", "4", "--utilization", "0.4", "--seed", "3",
                 "--horizon", "6", "--out", str(wl)]) == 0
    doc = json.loads(wl.read_text())
    doc["config"].update(config)
    wl.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["run", "--workload", str(wl), "--k", "4", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    where = f"workload file {wl} is malformed: config.utilization: " if config else ""
    assert err.startswith(
        f"config error: {where}target_utilization must be within [0, 1], got ")
    assert not out.exists()


def test_bad_utilizations_are_a_config_error(tmp_path, capsys):
    assert main(["sweep", "--k", "4", "--utilizations", "a,b",
                 "--out", str(tmp_path / "sw")]) == 2
    assert capsys.readouterr().err.startswith("config error: utilizations 'a,b'")
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("flags, cause", [
    (["--repeats", "0"], "repeats >= 1, got 0"),
    (["--utilizations", ","], "at least one utilization"),
])
def test_sweep_needs_a_level_and_a_repeat(tmp_path, capsys, flags, cause):
    assert main(["sweep", "--k", "4", "--horizon", "4", *flags,
                 "--out", str(tmp_path / "sw")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: sweep needs ") and cause in err
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("flags, cause", [
    (["--k", "5"], "k must be even"),
    (["--k", "4", "--utilizations", "1.5"], "target_utilization must be within"),
    (["--k", "4", "--server-capacity", "0"], "server_capacity must be >= 1"),
])
def test_a_sweep_that_cannot_run_leaves_no_directory(tmp_path, capsys, flags, cause):
    assert main(["sweep", "--horizon", "4", *flags, "--out", str(tmp_path / "sw")]) == 2
    assert cause in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def test_a_config_key_no_subcommand_reads_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("k = 4\nutilization = 0.3\nsigmaa = 5\n")
    out = tmp_path / "r.json"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(cfg) in err and "'sigmaa'" in err
    assert not out.exists()


def test_one_config_file_serves_gen_run_and_sweep(tmp_path):
    cfg = tmp_path / "all.cfg"
    cfg.write_text(
        "k = 4\nutilization = 0.3\nutilizations = 0.3\nrepeats = 1\n"
        "horizon = 4\nseed = 2\nassign = greedy\nroute = sp\nsigma = 150\n"
    )
    wl = tmp_path / "wl.json"
    assert main(["gen", "--config", str(cfg), "--out", str(wl)]) == 0
    assert main(["run", "--config", str(cfg), "--workload", str(wl),
                 "--out", str(tmp_path / "r.json")]) == 0
    assert load_report(tmp_path / "r.json").scenario["power"]["sigma"] == 150.0
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw")]) == 0


def test_unwritable_report_path_exits_2(tmp_path, capsys, monkeypatch):
    import dcnsim.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("the scenario ran before the report path was checked")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    out = tmp_path / "nodir" / "r.json"
    assert main(["run", "--k", "4", "--utilization", "0.3", "--horizon", "4",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(out) in err


def test_report_path_check_leaves_the_path_as_it_was(tmp_path, monkeypatch):
    import dcnsim.cli as cli
    from dcnsim.errors import InfeasibleError

    def infeasible(*args, **kwargs):
        raise InfeasibleError("no room")

    monkeypatch.setattr(cli, "run_scenario", infeasible)
    argv = ["run", "--k", "4", "--utilization", "0.3", "--horizon", "4", "--out"]
    missing, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("earlier report")
    assert main(argv + [str(missing)]) == 3
    assert main(argv + [str(old)]) == 3
    assert not missing.exists() and old.read_text() == "earlier report"


@pytest.mark.parametrize("flag, value, field", [
    ("--mu", "nan", "mu"),
    ("--sigma", "inf", "sigma"),
    ("--alpha", "nan", "alpha"),
    ("--capacity-gbps", "inf", "capacity"),
    ("--timeslot-seconds", "-5", "timeslot_seconds"),
    ("--timeslot-seconds", "0", "timeslot_seconds"),
    ("--timeslot-seconds", "nan", "timeslot_seconds"),
    ("--timeslot-seconds", "inf", "timeslot_seconds"),
])
def test_non_finite_or_non_positive_values_are_config_errors(
        tmp_path, capsys, flag, value, field):
    out = tmp_path / "r.json"
    assert main(["run", "--k", "4", "--utilization", "0.3", "--horizon", "4",
                 flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field} must be ")
    assert not out.exists()


@pytest.mark.parametrize("entry", ["NaN", "Infinity"])
@pytest.mark.parametrize("route", ["sp", "eer"])
def test_non_finite_traffic_entries_are_config_errors(tmp_path, capsys, entry, route):
    wl = tmp_path / "wl.json"
    wl.write_text(
        '{"version": 1, "horizon": 4, "seed": 0, "config": {}, "jobs": [{"id": 0, '
        '"vm_count": 2, "transfers": [{"start": 0, "end": 1, "matrix": '
        f'[[0, {entry}], [5, 0]]}}]}}]}}'
    )
    out = tmp_path / "r.json"
    assert main(["run", "--workload", str(wl), "--k", "4", "--server-capacity", "1",
                 "--route", route, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(wl) in err and "finite" in err
    assert not out.exists()


def test_unset_options_keep_the_library_defaults(tmp_path):
    wl, out = tmp_path / "wl.json", tmp_path / "r.json"
    assert main(["gen", "--k", "4", "--utilization", "0.3", "--out", str(wl)]) == 0
    assert main(["run", "--k", "4", "--utilization", "0.3", "--out", str(out)]) == 0
    scenario = Scenario(k=4, assign_strategy="greedy", route_strategy="sp",
                        utilization=0.3)
    assert load_report(out).scenario == scenario.describe()
    jobs, meta = load_workload(wl)
    cfg = WorkloadConfig(k=4, target_utilization=0.3)
    assert jobs == generate_workload(cfg, scenario.seed)
    assert (meta["horizon"], meta["seed"], meta["config"].server_capacity) == (
        cfg.horizon, scenario.seed, cfg.server_capacity)


def test_sweep_reads_utilizations_and_repeats_from_the_config(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("k = 4\nutilizations = 0.3\nrepeats = 1\nhorizon = 4\n")
    out = tmp_path / "sweepdir"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    reports = [p for p in out.glob("*.json") if p.name != "summary.json"]
    assert len(reports) == 5
    assert "wrote 5 reports" in capsys.readouterr().out


def test_windows_past_the_horizon_are_a_config_error(tmp_path, capsys):
    wl = tmp_path / "wl.json"
    assert main(["gen", "--k", "4", "--utilization", "0.3", "--seed", "2",
                 "--horizon", "10", "--out", str(wl)]) == 0
    assert main(["run", "--workload", str(wl), "--k", "4", "--horizon", "5",
                 "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "config error: job " in err and "past the horizon of 5 timeslots" in err


def test_infeasible_exit_code(tmp_path):
    wl = tmp_path / "big.json"
    assert main(["gen", "--k", "8", "--utilization", "0.9", "--seed", "1",
                 "--horizon", "6", "--out", str(wl)]) == 0
    out = tmp_path / "r.json"
    # a k=8 workload cannot fit the 32 slots of a k=4 tree
    assert main(["run", "--workload", str(wl), "--assign", "greedy",
                 "--route", "sp", "--k", "4", "--seed", "1", "--horizon", "6",
                 "--out", str(out)]) == 3


def test_run_takes_the_workload_files_horizon(tmp_path):
    wl = tmp_path / "wl.json"
    assert main(["gen", "--k", "4", "--utilization", "0.3", "--seed", "2",
                 "--horizon", "10", "--out", str(wl)]) == 0
    out = tmp_path / "r.json"
    assert main(["run", "--workload", str(wl), "--k", "4", "--out", str(out)]) == 0
    report = load_report(out)
    assert report.scenario["horizon"] == 10
    assert len(report.per_timeslot_watts) == 10


def test_compare_labels_rows_with_the_workload_seed(tmp_path):
    wl = tmp_path / "wl.json"
    assert main(["gen", "--k", "4", "--utilization", "0.3", "--seed", "0",
                 "--horizon", "6", "--out", str(wl)]) == 0
    base = tmp_path / "base.json"
    assert main(["run", "--workload", str(wl), "--k", "4", "--seed", "7",
                 "--out", str(base)]) == 0
    table = tmp_path / "cmp.csv"
    assert main(["compare", "--reports", str(base), "--baseline", str(base),
                 "--out", str(table)]) == 0
    with open(table) as fh:
        (row,) = csv.DictReader(fh)
    assert row["seed"] == "0"


def test_eer_tor_overload_exit_code(tmp_path, capsys):
    wl = tmp_path / "wl.json"
    assert main(["gen", "--k", "4", "--utilization", "0.5", "--seed", "3",
                 "--horizon", "8", "--out", str(wl)]) == 0
    out = tmp_path / "r.json"
    # 0.3 Gbps fits every single demand but not the placement's ToR load
    assert main(["run", "--workload", str(wl), "--k", "4", "--assign", "greedy",
                 "--route", "eer", "--sigma", "0.01", "--mu", "1",
                 "--capacity-gbps", "0.3", "--out", str(out)]) == 3
    assert "ToR switches [0] at t=1" in capsys.readouterr().err


# Each subcommand's flags, by dest and in help order.
FLAGS = {
    "gen": ["k", "utilization", "seed", "horizon", "server_capacity", "config", "out"],
    "run": ["workload", "assign", "route", "k", "seed", "utilization", "horizon",
            "server_capacity", "timeslot_seconds", "sigma", "mu", "alpha",
            "capacity_gbps", "dump_routes", "config", "out"],
    "compare": ["reports", "baseline", "out"],
    "sweep": ["k", "utilizations", "repeats", "seed", "horizon", "server_capacity",
              "sigma", "mu", "alpha", "capacity_gbps", "config", "out"],
}


def _subparsers():
    (action,) = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_every_option_has_a_flag_and_a_config_key():
    flags = {name: [a.dest for a in sub._actions if a.dest != "help"]
             for name, sub in _subparsers().items()}
    assert flags == FLAGS
    backed = {dest for dests in flags.values() for dest in dests} - {
        "config", "out", "dump_routes", "reports", "baseline"}
    assert backed == set(OPTIONS)
    for sub in _subparsers().values():
        for action in sub._actions:
            if action.dest in OPTIONS:
                assert action.type is OPTIONS[action.dest].type
                assert action.default is None


@pytest.mark.parametrize("text, line, cause", [
    ("k = four\n", 1, "k = 'four'"),
    ("k = 4\nrepeats = x\n", 2, "repeats = 'x'"),
    ("k = 4\nhorizon = 2.5\n", 2, "horizon = '2.5'"),
    ("k = 4\nroute = spp\n", 2, "route = 'spp': not one of"),
    ("k = 4\nutilizations = a,b\n", 2,
     "utilizations = 'a,b': could not convert string to float: 'a'"),
])
@pytest.mark.parametrize("command", ["gen", "run", "sweep"])
def test_a_config_value_that_does_not_cast_is_a_config_error(
        tmp_path, capsys, text, line, cause, command):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}:{line}: ") and cause in err
    assert not out.exists()


def test_a_config_horizon_beats_the_workload_files(tmp_path):
    wl = tmp_path / "wl.json"
    assert main(["gen", "--k", "4", "--utilization", "0.3", "--seed", "2",
                 "--horizon", "6", "--out", str(wl)]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"k = 4\nworkload = {wl}\nhorizon = 8\n")
    out = tmp_path / "r.json"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert load_report(out).scenario["horizon"] == 8
    assert main(["run", "--config", str(cfg), "--horizon", "7", "--out", str(out)]) == 0
    assert load_report(out).scenario["horizon"] == 7


@pytest.mark.parametrize("argv, cause", [
    (["gen", "--k", "4", "--utilization", "0.4", "--seed", "-1"],
     "seed must be an int >= 0, got -1"),
    (["run", "--k", "4", "--utilization", "0.4", "--route", "ecmp", "--seed", "-1"],
     "seed must be an int >= 0 or None, got -1"),
    (["run", "--k", "4", "--utilization", "0.4", "--assign", "opt_eea",
      "--route", "eer", "--seed", "-1"], "seed must be an int >= 0 or None, got -1"),
    (["sweep", "--k", "4", "--utilizations", "0.4", "--repeats", "1", "--horizon", "4",
      "--seed", "-1"], "sweep needs a seed that is an int >= 0, got -1"),
    (["gen", "--k", "4", "--utilization", "0.4", "--server-capacity", "0"],
     "server_capacity must be >= 1, got 0"),
    (["gen", "--k", "4", "--utilization", "0.4", "--server-capacity", "-2"],
     "server_capacity must be >= 1, got -2"),
])
def test_a_negative_seed_or_empty_server_is_a_config_error(
        tmp_path, capsys, argv, cause):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {cause}\n"
    assert not out.exists()
