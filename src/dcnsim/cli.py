"""Command line interface: gen / run / compare / sweep.

A plain key=value config file can pre-fill any option; explicit flags
win, and a key that no subcommand reads is a configuration error.
Exit codes: 0 success, 2 configuration error or unreadable file, 3
infeasible placement or routing.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .assignment import STRATEGIES
from .errors import CapacityError, ConfigError, InfeasibleError, SimulationError
from .power import PowerParams
from .routing import ROUTERS
from .simengine import (
    Scenario,
    check_sweep,
    load_report,
    run_scenario,
    save_report,
    sweep,
    table_row,
    write_table,
)
from .workload import WorkloadConfig, generate_workload, load_workload, save_workload

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

SWEEP_UTILIZATIONS = ",".join(f"{u / 100:.2f}" for u in range(5, 96, 10))
SWEEP_REPEATS = 5

# The keys that some subcommand reads from a config file.  One file may
# serve gen, run and sweep, so each accepts the keys the others read.
CONFIG_KEYS = frozenset({
    "k", "seed", "utilization", "utilizations", "repeats", "horizon",
    "server_capacity", "workload", "assign", "route", "timeslot_seconds",
    "sigma", "mu", "alpha", "capacity_gbps",
})


def parse_config_file(path) -> dict:
    """Read `key = value` lines; '#' starts a comment, '-' in a key reads as '_'."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: no subcommand reads the key {key!r}")
            values[key] = value.strip()
    return values


def _option(args, cfg, name, cast, default=None):
    """Flag > config file > default."""
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    if name in cfg:
        try:
            return cast(cfg[name])
        except ValueError as exc:
            raise ConfigError(f"config value {name}={cfg[name]!r}: {exc}") from exc
    return default


def _present(**values) -> dict:
    """The values that are set; an unset option keeps its library default."""
    return {name: value for name, value in values.items() if value is not None}


def _check_writable(path) -> None:
    """Raise the OSError that writing `path` would raise, leaving it as it was."""
    existed = os.path.exists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def _power_from(args, cfg) -> PowerParams:
    return PowerParams(**_present(
        sigma=_option(args, cfg, "sigma", float),
        mu=_option(args, cfg, "mu", float),
        alpha=_option(args, cfg, "alpha", float),
        capacity=_option(args, cfg, "capacity_gbps", float),
    ))


def cmd_gen(args) -> int:
    cfg = parse_config_file(args.config) if args.config else {}
    k = _option(args, cfg, "k", int)
    utilization = _option(args, cfg, "utilization", float)
    # Unseeded, gen draws the workload that an unseeded `run` draws.
    seed = _option(args, cfg, "seed", int, Scenario.seed)
    if k is None or utilization is None:
        raise ConfigError("gen needs --k and --utilization")
    wl_cfg = WorkloadConfig(
        k=k, target_utilization=utilization, **_present(
            horizon=_option(args, cfg, "horizon", int),
            server_capacity=_option(args, cfg, "server_capacity", int),
        ),
    )
    jobs = generate_workload(wl_cfg, seed)
    save_workload(
        args.out, jobs, horizon=wl_cfg.horizon, seed=seed,
        config={
            "k": k, "utilization": utilization,
            "server_capacity": wl_cfg.server_capacity,
        },
    )
    print(f"wrote {len(jobs)} jobs ({sum(j.slots for j in jobs)} slots) to {args.out}")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = parse_config_file(args.config) if args.config else {}
    k = _option(args, cfg, "k", int)
    if k is None:
        raise ConfigError("run needs --k")
    workload_path = _option(args, cfg, "workload", str)
    utilization = _option(args, cfg, "utilization", float)
    horizon = _option(args, cfg, "horizon", int)
    jobs = workload_seed = None
    if workload_path:
        jobs, meta = load_workload(workload_path)
        # Label the report with the file's provenance so comparison
        # tables carry the utilization and generating seed.
        workload_seed = meta["seed"]
        if utilization is None:
            utilization = (meta["config"] or {}).get("utilization")
        if horizon is None:
            horizon = meta["horizon"]
    scenario = Scenario(
        k=k,
        assign_strategy=_option(args, cfg, "assign", str, "greedy"),
        route_strategy=_option(args, cfg, "route", str, "sp"),
        utilization=utilization,
        workload_seed=workload_seed,
        workload_path=workload_path,
        power=_power_from(args, cfg),
        **_present(
            seed=_option(args, cfg, "seed", int),
            horizon=horizon,
            server_capacity=_option(args, cfg, "server_capacity", int),
            timeslot_seconds=_option(args, cfg, "timeslot_seconds", float),
        ),
    )
    _check_writable(args.out)  # before the run, not after it
    route_writer = None
    route_fh = None
    if args.dump_routes:
        route_fh = open(args.dump_routes, "w", newline="")
        writer = csv.writer(route_fh)
        writer.writerow(["timeslot", "src", "dst", "rate_mbps", "path"])

        def route_writer(plan):
            for t, src, dst, rate, path in plan.rows():
                writer.writerow([t, src, dst, rate, " ".join(map(str, path))])

    try:
        report = run_scenario(scenario, jobs=jobs, on_plan=route_writer)
    finally:
        if route_fh:
            route_fh.close()
    save_report(report, args.out)
    print(
        f"{scenario.label}: {report.total_energy_wt:.1f} watt-timeslots "
        f"({report.total_energy_joules:.0f} J), "
        f"{len(report.violations)} violating timeslots, "
        f"{report.runtime_ms:.0f} ms -> {args.out}"
    )
    return EXIT_OK


def cmd_compare(args) -> int:
    baseline = load_report(args.baseline)
    reports = [baseline] + [
        load_report(p) for p in args.reports if os.path.abspath(p) != os.path.abspath(args.baseline)
    ]
    base = baseline.total_energy_wt
    if base <= 0:
        raise ConfigError("baseline report has zero energy; ratios are undefined")
    rows = [table_row(report, base) for report in reports]
    write_table(rows, args.out)
    for row in rows:
        print(
            f"{row['scenario']:>16}  {row['total_energy_wt']:12.1f} wt  "
            f"ratio {row['ratio_to_baseline']:.3f}"
        )
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = parse_config_file(args.config) if args.config else {}
    k = _option(args, cfg, "k", int)
    if k is None:
        raise ConfigError("sweep needs --k")
    levels = _option(args, cfg, "utilizations", str, SWEEP_UTILIZATIONS)
    try:
        utilizations = [float(u) for u in levels.split(",") if u.strip()]
    except ValueError as exc:
        raise ConfigError(f"utilizations {levels!r}: {exc}") from exc
    cells = dict(
        k=k,
        utilizations=utilizations,
        repeats=_option(args, cfg, "repeats", int, SWEEP_REPEATS),
        **_present(
            horizon=_option(args, cfg, "horizon", int),
            server_capacity=_option(args, cfg, "server_capacity", int),
        ),
    )
    power = _power_from(args, cfg)
    check_sweep(**cells)  # before the output directory exists, not after
    os.makedirs(args.out, exist_ok=True)
    reports, tables = sweep(
        **cells, power=power, **_present(base_seed=_option(args, cfg, "seed", int))
    )
    for index, report in enumerate(reports):
        sc = report.scenario
        name = f"{sc['label']}_u{sc['utilization']:.2f}_s{sc['workload_seed']}.json"
        save_report(report, os.path.join(args.out, name))
    write_table(tables["rows"], os.path.join(args.out, "sweep.csv"))
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        json.dump(tables["summary"], fh, indent=2)
    for entry in tables["summary"]:
        print(
            f"{entry['scenario']:>16} @ {entry['utilization']:.2f}: "
            f"ratio {entry['mean_ratio']:.3f} +- {entry['std_ratio']:.3f} "
            f"({entry['repeats']} runs)"
        )
    print(f"wrote {len(reports)} reports to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcnsim",
        description="Fat-Tree data center network energy simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic workload file")
    gen.add_argument("--k", type=int)
    gen.add_argument("--utilization", type=float)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--horizon", type=int)
    gen.add_argument("--server-capacity", dest="server_capacity", type=int)
    gen.add_argument("--config")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    run = sub.add_parser("run", help="run one scenario and write its report")
    run.add_argument("--workload", help="workload file (else --utilization generates)")
    run.add_argument("--assign", choices=STRATEGIES)
    run.add_argument("--route", choices=ROUTERS)
    run.add_argument("--k", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--utilization", type=float)
    run.add_argument("--horizon", type=int)
    run.add_argument("--server-capacity", dest="server_capacity", type=int)
    run.add_argument("--timeslot-seconds", dest="timeslot_seconds", type=float)
    run.add_argument("--sigma", type=float)
    run.add_argument("--mu", type=float)
    run.add_argument("--alpha", type=float)
    run.add_argument("--capacity-gbps", dest="capacity_gbps", type=float)
    run.add_argument("--dump-routes", help="also write per-timeslot routes as CSV")
    run.add_argument("--config")
    run.add_argument("--out", required=True)
    run.set_defaults(func=cmd_run)

    cmp_ = sub.add_parser("compare", help="tabulate reports against a baseline")
    cmp_.add_argument("--reports", nargs="+", required=True)
    cmp_.add_argument("--baseline", required=True)
    cmp_.add_argument("--out", required=True)
    cmp_.set_defaults(func=cmd_compare)

    sw = sub.add_parser("sweep", help="strategy grid over utilization levels")
    sw.add_argument("--k", type=int)
    sw.add_argument(
        "--utilizations", help="comma separated; default 0.05..0.95 step 0.10"
    )
    sw.add_argument("--repeats", type=int, help=f"default {SWEEP_REPEATS}")
    sw.add_argument("--seed", type=int)
    sw.add_argument("--horizon", type=int)
    sw.add_argument("--server-capacity", dest="server_capacity", type=int)
    sw.add_argument("--sigma", type=float)
    sw.add_argument("--mu", type=float)
    sw.add_argument("--alpha", type=float)
    sw.add_argument("--capacity-gbps", dest="capacity_gbps", type=float)
    sw.add_argument("--config")
    sw.add_argument("--out", required=True)
    sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleError, CapacityError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
