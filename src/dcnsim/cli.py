"""Command line interface: gen / run / compare / sweep.

`OPTIONS` declares each option that a flag or a key=value config file
can set.  One file may serve gen, run and sweep; a key not in `OPTIONS`,
or a value that does not cast, is a configuration error naming the file
and line, even for a key the subcommand does not use.  A flag wins over
the file, the file over the default.  Exit codes: 0 success, 2
configuration error or unreadable file, 3 infeasible placement or routing.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections import namedtuple

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
from .workload import (
    SavedConfig, WorkloadConfig, generate_workload, load_workload, save_workload,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

SWEEP_REPEATS = 5


def levels(text: str) -> tuple[float, ...]:
    """Comma-separated utilization levels as floats.

    A list that does not cast is a ConfigError, not a ValueError, so
    argparse hands it on to `main` as a configuration error instead of
    printing a usage error.
    """
    try:
        return tuple(float(u) for u in text.split(",") if u.strip())
    except ValueError as exc:
        raise ConfigError(f"utilizations {text!r}: {exc}") from exc


SWEEP_UTILIZATIONS = tuple(u / 100 for u in range(5, 96, 10))

# An option's type casts its flag and config values, its default holds when
# neither gives one, and its help and choices go to its flag.  OPTIONS
# keys each by config key and flag dest (--server-capacity sets
# server_capacity).  The defaults are the library's, but for the CLI's
# own: greedy/sp and the sweep's levels and repeats.  `run` replaces a
# defaulted horizon with its workload file's.
Option = namedtuple("Option", "type default help choices", defaults=(None,) * 3)
OPTIONS = {
    "k": Option(int),
    "seed": Option(int, Scenario.seed),  # unseeded, gen draws what run draws
    "utilization": Option(float),
    "utilizations": Option(
        levels, SWEEP_UTILIZATIONS, "comma separated; default 0.05..0.95 step 0.10"
    ),
    "repeats": Option(int, SWEEP_REPEATS, f"default {SWEEP_REPEATS}"),
    "horizon": Option(int, WorkloadConfig.horizon),
    "server_capacity": Option(int, WorkloadConfig.server_capacity),
    "workload": Option(str, help="workload file (else --utilization generates)"),
    "assign": Option(str, "greedy", choices=STRATEGIES),
    "route": Option(str, "sp", choices=ROUTERS),
    "timeslot_seconds": Option(float, Scenario.timeslot_seconds),
    "sigma": Option(float, PowerParams.sigma),
    "mu": Option(float, PowerParams.mu),
    "alpha": Option(float, PowerParams.alpha),
    "capacity_gbps": Option(float, PowerParams.capacity),
}
POWER_OPTIONS = ("sigma", "mu", "alpha", "capacity_gbps")


def parse_config_file(path) -> dict:
    """Read `key = value` lines, each value cast and checked as `OPTIONS`
    says; '#' starts a comment, '-' in a key reads as '_'."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key, value = key.strip().replace("-", "_"), value.strip()
            if key not in OPTIONS:
                raise ConfigError(f"{path}:{lineno}: no subcommand reads the key {key!r}")
            option = OPTIONS[key]
            try:
                values[key] = option.type(value)
                if option.choices and values[key] not in option.choices:
                    raise ValueError(f"not one of {tuple(option.choices)}")
            except (ValueError, ConfigError) as exc:
                # The line names the key, so a type's own ConfigError gives its cause.
                cause = exc.__cause__ or exc
                raise ConfigError(f"{path}:{lineno}: {key} = {value!r}: {cause}") from exc
    return values


def _with_config(args) -> set:
    """Set each of the subcommand's options that no flag set from the
    --config file, else to its default; returns the names defaulted."""
    cfg = parse_config_file(args.config) if args.config else {}
    unset = {name for name in OPTIONS if getattr(args, name, 0) is None}
    for name in unset:
        setattr(args, name, cfg.get(name, OPTIONS[name].default))
    return unset - cfg.keys()


def _check_writable(path) -> None:
    """Raise the OSError that writing `path` would raise, leaving it as it was."""
    existed = os.path.exists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def _power_from(args) -> PowerParams:
    return PowerParams(
        sigma=args.sigma, mu=args.mu, alpha=args.alpha, capacity=args.capacity_gbps
    )


def cmd_gen(args) -> int:
    _with_config(args)
    if args.k is None or args.utilization is None:
        raise ConfigError("gen needs --k and --utilization")
    wl_cfg = WorkloadConfig(
        k=args.k, target_utilization=args.utilization,
        horizon=args.horizon, server_capacity=args.server_capacity,
    )
    jobs = generate_workload(wl_cfg, args.seed)
    save_workload(args.out, jobs, horizon=wl_cfg.horizon, seed=args.seed, config=SavedConfig(
        k=args.k, utilization=args.utilization, server_capacity=wl_cfg.server_capacity,
    ))
    print(f"wrote {len(jobs)} jobs ({sum(j.slots for j in jobs)} slots) to {args.out}")
    return EXIT_OK


def cmd_run(args) -> int:
    defaulted = _with_config(args)
    if args.k is None:
        raise ConfigError("run needs --k")
    jobs = workload_seed = None
    if args.workload:
        jobs, meta = load_workload(args.workload)
        # Label the report with the file's provenance so comparison
        # tables carry the utilization and generating seed.
        workload_seed = meta["seed"]
        if args.utilization is None:
            args.utilization = meta["config"].utilization
        if "horizon" in defaulted:
            args.horizon = meta["horizon"]
    scenario = Scenario(
        k=args.k, assign_strategy=args.assign, route_strategy=args.route,
        seed=args.seed, utilization=args.utilization, workload_seed=workload_seed,
        workload_path=args.workload, horizon=args.horizon,
        server_capacity=args.server_capacity, timeslot_seconds=args.timeslot_seconds,
        power=_power_from(args),
    )
    _check_writable(args.out)  # before the run, not after it
    route_writer = route_fh = None
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
    _with_config(args)
    if args.k is None:
        raise ConfigError("sweep needs --k")
    cells = dict(
        k=args.k, utilizations=args.utilizations, repeats=args.repeats, base_seed=args.seed,
        horizon=args.horizon, server_capacity=args.server_capacity,
    )
    power = _power_from(args)
    check_sweep(**cells)  # before the output directory exists, not after
    os.makedirs(args.out, exist_ok=True)
    reports, tables = sweep(**cells, power=power)
    for report in reports:
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


def _add_options(parser, *names) -> None:
    """Add the flag of each named option; an absent flag leaves it None."""
    for name in names:
        option = OPTIONS[name]
        parser.add_argument("--" + name.replace("_", "-"), type=option.type,
                            choices=option.choices, help=option.help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcnsim",
        description="Fat-Tree data center network energy simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic workload file")
    _add_options(gen, "k", "utilization", "seed", "horizon", "server_capacity")

    run = sub.add_parser("run", help="run one scenario and write its report")
    _add_options(
        run, "workload", "assign", "route", "k", "seed", "utilization", "horizon",
        "server_capacity", "timeslot_seconds", *POWER_OPTIONS,
    )
    run.add_argument("--dump-routes", help="also write per-timeslot routes as CSV")

    cmp_ = sub.add_parser("compare", help="tabulate reports against a baseline")
    cmp_.add_argument("--reports", nargs="+", required=True)
    cmp_.add_argument("--baseline", required=True)
    cmp_.add_argument("--out", required=True)
    cmp_.set_defaults(func=cmd_compare)

    sw = sub.add_parser("sweep", help="strategy grid over utilization levels")
    _add_options(
        sw, "k", "utilizations", "repeats", "seed", "horizon", "server_capacity",
        *POWER_OPTIONS,
    )

    for configurable, func in ((gen, cmd_gen), (run, cmd_run), (sw, cmd_sweep)):
        configurable.add_argument("--config")
        configurable.add_argument("--out", required=True)
        configurable.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)  # a flag's type may raise a ConfigError
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
