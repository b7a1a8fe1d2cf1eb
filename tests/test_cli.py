"""CLI subcommands, config files and exit codes."""

import csv
import json

import pytest

from dcnsim.cli import main
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


@pytest.mark.parametrize("text, cause", [
    ("{not json", "not valid JSON"),
    ('{"version": 1, "horizon": 10}', "lacks the key 'jobs'"),
    ('{"version": 1, "horizon": 10, "jobs": [1]}', "is malformed"),
])
def test_bad_workload_file_is_a_config_error(tmp_path, capsys, text, cause):
    wl = tmp_path / "bad.json"
    wl.write_text(text)
    assert main(["run", "--workload", str(wl), "--k", "4",
                 "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(wl) in err and cause in err


@pytest.mark.parametrize("text, cause", [
    (None, "No such file"),
    ("{not json", "not valid JSON"),
    ('{"version": 1}', "lacks the key 'scenario'"),
])
def test_bad_report_file_is_a_config_error(tmp_path, capsys, text, cause):
    report = tmp_path / "bad.json"
    if text is not None:
        report.write_text(text)
    assert main(["compare", "--reports", str(report), "--baseline", str(report),
                 "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(report) in err and cause in err


def test_bad_utilizations_are_a_config_error(tmp_path, capsys):
    assert main(["sweep", "--k", "4", "--utilizations", "a,b",
                 "--out", str(tmp_path / "sw")]) == 2
    assert capsys.readouterr().err.startswith("config error: utilizations 'a,b'")
    assert not (tmp_path / "sw").exists()


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

    def drawn(jobs):
        return [(job.id, job.vm_count, [(tr.start, tr.end, tr.matrix.tolist())
                                        for tr in job.transfers]) for job in jobs]

    assert drawn(jobs) == drawn(generate_workload(cfg, scenario.seed))
    assert (meta["horizon"], meta["seed"], meta["config"]["server_capacity"]) == (
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
