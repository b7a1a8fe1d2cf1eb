"""Acceptance criteria: one test per criterion, each prints PASS/FAIL.

Run `pytest -v tests/test_acceptance.py` (or `-s` to see the detail
lines); every criterion states its tolerance inline.
"""

import itertools
import math
import time

import numpy as np

from dcnsim.assignment import assign
from dcnsim.graphkit import WeightedGraph, ffd_pack, gomory_hu_tree, max_flow_min_cut, min_k_cut
from dcnsim.power import PowerParams, switch_power
from dcnsim.routing import ecmp_route, eer, sp_route
from dcnsim.simengine import Scenario, run_scenario, sweep
from dcnsim.topology import build_fat_tree
from dcnsim.workload import WorkloadConfig, demands_at, generate_workload
from linkcheck import loads_from_links
from oracles import ListedActiveSet, cut_weight, graph_edges, tree_min_cut

BENCH = PowerParams(sigma=200.0, mu=1e-4, alpha=2.0, capacity=1000.0)


def _verdict(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_01_power_model_anchors():
    full = switch_power(1000.0, BENCH)
    idle = switch_power(0.0, BENCH)
    ok = math.isclose(full, 300.0, rel_tol=1e-9) and idle == 0.0
    _verdict(1, ok, f"f(1000)={full!r}, f(0)={idle!r}")


def test_criterion_02_topology_anchors():
    sizes = {k: build_fat_tree(k) for k in (4, 16, 24)}
    got = {k: (t.num_switches, t.num_servers) for k, t in sizes.items()}
    ok = got == {4: (20, 16), 16: (320, 1024), 24: (720, 3456)}
    _verdict(2, ok, f"{got}")


def test_criterion_03_ecmp_consumes_more_than_sp():
    started = time.perf_counter()
    levels = (0.1, 0.3, 0.5, 0.7, 0.9)
    detail = []
    ok = True
    for level in levels:
        sp_totals, ecmp_totals = [], []
        for seed in range(10):
            jobs = generate_workload(
                WorkloadConfig(k=4, target_utilization=level, horizon=40), seed
            )
            common = dict(k=4, utilization=level, workload_seed=seed, horizon=40)
            sp_run = run_scenario(
                Scenario(assign_strategy="greedy", route_strategy="sp",
                         seed=seed, **common),
                jobs=jobs,
            )
            ecmp_run = run_scenario(
                Scenario(assign_strategy="greedy", route_strategy="ecmp",
                         seed=seed, **common),
                jobs=jobs,
            )
            sp_totals.append(sp_run.total_energy_wt)
            ecmp_totals.append(ecmp_run.total_energy_wt)
        # paired one-sided comparison of the means at this level
        ok = ok and np.mean(ecmp_totals) >= np.mean(sp_totals) - 1e-9
        detail.append(f"{level:.0%}: ecmp/sp={np.mean(ecmp_totals)/np.mean(sp_totals):.3f}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    _verdict(3, ok, "; ".join(detail) + f" ({elapsed:.1f}s)")


def test_criterion_04_strategy_ordering_and_savings():
    started = time.perf_counter()
    levels = (0.25, 0.45, 0.65)
    _, tables = sweep(
        k=8, utilizations=list(levels), repeats=5, base_seed=42, horizon=100
    )
    mean_energy = {
        (row["scenario"], row["utilization"]): row["mean_energy_wt"]
        for row in tables["summary"]
    }
    chain = ("opt_eea-eer", "eea-eer", "greedy-eer", "greedy-sp")
    ordering_ok = all(
        mean_energy[(a, u)] <= mean_energy[(b, u)] + 1e-9
        for u in levels
        for a, b in zip(chain, chain[1:])
    )
    greedy_ratio = min(
        mean_energy[("greedy-eer", u)] / mean_energy[("greedy-sp", u)] for u in levels
    )
    full_ratio = min(
        mean_energy[("opt_eea-eer", u)] / mean_energy[("greedy-sp", u)] for u in levels
    )
    elapsed = time.perf_counter() - started
    ok = ordering_ok and greedy_ratio <= 0.8 and full_ratio <= 0.7 and elapsed < 120.0
    _verdict(
        4,
        ok,
        f"ordering={'ok' if ordering_ok else 'BROKEN'}, "
        f"best greedy-eer ratio {greedy_ratio:.3f} (<=0.8), "
        f"best opt_eea-eer ratio {full_ratio:.3f} (<=0.7) ({elapsed:.1f}s)",
    )


def _random_graph(rng, n, density=0.6):
    g = WeightedGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                g.add_edge(u, v, int(rng.integers(1, 11)))
    return g


def _exact_k_cut(g, k):
    best = math.inf
    labels = [0] * g.n

    def go(v, used):
        nonlocal best
        if v == g.n:
            if used == k:
                w = sum(wt for a, b, wt in graph_edges(g) if labels[a] != labels[b])
                best = min(best, w)
            return
        for c in range(min(used + 1, k)):
            labels[v] = c
            go(v + 1, max(used, c + 1))

    go(0, 0)
    return best


def test_criterion_05_graph_kernels_match_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(1234)
    cut_checks = bound_checks = 0
    ok = True
    for _ in range(200):
        n = int(rng.integers(3, 8))
        g = _random_graph(rng, n)
        tree = gomory_hu_tree(g)
        for u, v in itertools.combinations(range(n), 2):
            direct, _ = max_flow_min_cut(g, u, v)
            if not math.isclose(tree_min_cut(tree, u, v), direct, rel_tol=1e-9):
                ok = False
            cut_checks += 1
        for k in (2, 3):
            if k > n:
                continue
            weight = cut_weight(g, min_k_cut(g, k))
            if weight > 2 * (1 - 1 / k) * _exact_k_cut(g, k) + 1e-9:
                ok = False
            bound_checks += 1
    # FFD: capacity discipline on random instances plus the hand trace
    for _ in range(100):
        items = [int(rng.integers(1, 11)) for _ in range(int(rng.integers(0, 13)))]
        for b in ffd_pack(items, 10):
            if sum(items[i] for i in b) > 10:
                ok = False
    ok = ok and ffd_pack([7, 5, 4, 3, 1], 10) == [[0, 3], [1, 2, 4]]
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    _verdict(
        5, ok,
        f"{cut_checks} pairwise cuts, {bound_checks} k-cut bounds ({elapsed:.1f}s)",
    )


def test_criterion_06_power_inequality_suites():
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    violations = 0

    # (a) compacting two racks' VMs into one: 10^4 random draws
    for _ in range(10_000):
        alpha = float(rng.uniform(1.0 + 1e-9, 3.0))
        mu = float(rng.uniform(1e-5, 1e-2))
        capacity = float(rng.uniform(10.0, 2000.0))
        sigma = mu * (alpha - 1) * capacity**alpha * float(rng.uniform(1.0, 5.0))
        w = rng.uniform(0.0, 1.0, size=4)
        w *= capacity * float(rng.uniform(0.0, 1.0)) / w.sum()
        lhs = sigma + mu * w.sum() ** alpha
        rhs = 2 * sigma + mu * (w[0] + w[1] + w[2]) ** alpha
        rhs += mu * (w[1] + w[2] + w[3]) ** alpha
        if lhs > rhs + 1e-9 * max(lhs, rhs):
            violations += 1

    # (b) spreading one job over k >= 16 racks (alpha = 2) always wins
    for k in (16, 20, 32):
        for _ in range(3000):
            u = float(rng.uniform(1e-3, 100.0))
            w = float(rng.uniform(1e-3, 100.0))
            compact = (k * u + k * (k - 1) / 2 * w) ** 2
            spread = k * (u + (k - 1) * w) ** 2 + (k / 2) * ((k - 1) * w) ** 2
            if compact - spread <= 0:
                violations += 1

    # (c) balanced power over n switches is non-decreasing in n
    for _ in range(10_000):
        alpha = float(rng.uniform(1.0 + 1e-6, 3.0))
        mu = float(rng.uniform(1e-5, 1e-2))
        capacity = float(rng.uniform(10.0, 2000.0))
        sigma = mu * (alpha - 1) * capacity**alpha * float(rng.uniform(1.0, 5.0))
        load = float(rng.uniform(0.01, 40.0)) * capacity
        n = max(int(rng.integers(1, 40)), math.ceil(load / capacity))
        p_n = n * sigma + n * mu * (load / n) ** alpha
        p_next = (n + 1) * sigma + (n + 1) * mu * (load / (n + 1)) ** alpha
        if p_next < p_n - 1e-9 * p_n:
            violations += 1

    elapsed = time.perf_counter() - started
    ok = violations == 0 and elapsed < 20.0
    _verdict(6, ok, f"{violations} violations across 26000 draws ({elapsed:.1f}s)")


def test_criterion_07_structural_validation():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    strategies = ("greedy", "opt_greedy", "eea", "opt_eea")
    routers = ("sp", "ecmp", "eer")
    checked_plans = 0
    ok = True
    for trial in range(50):
        k = int(rng.choice([4, 8]))
        tree = build_fat_tree(k)
        utilization = float(rng.uniform(0.1, 0.9))
        horizon = 15
        jobs = generate_workload(
            WorkloadConfig(k=k, target_utilization=utilization, horizon=horizon),
            seed=trial,
        )
        strategy = strategies[trial % 4]
        router = routers[trial % 3]
        placement = assign(strategy, jobs, tree, seed=trial, horizon=horizon)
        placement.validate(jobs, tree)  # capacity, totality, uniqueness
        # EER may only wake the ToRs of racks that host a VM
        occupied_tors = {tree.tor_of_server(s) for s in placement.placements.values()}
        for t in range(horizon):
            flows = demands_at(jobs, placement.placements, t).flows
            if router == "sp":
                plan = sp_route(flows, tree, params=BENCH, timeslot=t)
                allowed = None
            elif router == "ecmp":
                plan = ecmp_route(flows, tree, seed=[trial, t], params=BENCH, timeslot=t)
                allowed = None
            else:
                active, plan = eer(flows, tree, BENCH, timeslot=t)
                allowed = ListedActiveSet.of(active, tree).switches(tree) | occupied_tors
            checked_plans += 1
            if plan.violations:
                ok = False
            recomputed = loads_from_links(plan)
            for sw, load in plan.loads.items():
                if load > BENCH.max_load():
                    ok = False
                if not math.isclose(recomputed.get(sw, 0.0), load, rel_tol=1e-9, abs_tol=1e-12):
                    ok = False
                if allowed is not None and sw not in allowed:
                    ok = False
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    _verdict(7, ok, f"50 scenarios, {checked_plans} plans ({elapsed:.1f}s)")


def test_criterion_08_determinism():
    ok = True
    detail = []
    # bit-identical repeat for a fully stochastic pairing
    sc = Scenario(
        k=4, assign_strategy="opt_eea", route_strategy="eer",
        seed=7, utilization=0.5, horizon=15,
    )
    ok = ok and run_scenario(sc).fingerprint() == run_scenario(sc).fingerprint()
    detail.append("repeat=bit-identical")

    # deterministic pairing ignores the seed once the workload is fixed
    jobs = generate_workload(
        WorkloadConfig(k=4, target_utilization=0.5, horizon=15), seed=3
    )

    def payload(seed, assign_name, route_name):
        report = run_scenario(
            Scenario(
                k=4, assign_strategy=assign_name, route_strategy=route_name,
                seed=seed, utilization=0.5, workload_seed=3, horizon=15,
            ),
            jobs=jobs,
        )
        return tuple(report.per_timeslot_watts)

    greedy_runs = {payload(s, "greedy", "sp") for s in (1, 2, 3)}
    ok = ok and len(greedy_runs) == 1
    detail.append("greedy-sp seed-invariant")

    ecmp_runs = {payload(s, "greedy", "ecmp") for s in (1, 2, 3, 4)}
    ok = ok and len(ecmp_runs) > 1
    detail.append("ecmp varies with seed")
    _verdict(8, ok, ", ".join(detail))


def test_criterion_09_runtime_envelope():
    sc = Scenario(
        k=16, assign_strategy="opt_eea", route_strategy="eer",
        seed=11, utilization=0.5, horizon=100,
    )
    started = time.perf_counter()
    report = run_scenario(sc)
    elapsed = time.perf_counter() - started
    ok = elapsed <= 60.0 and report.total_energy_wt > 0
    _verdict(9, ok, f"k=16 full run in {elapsed:.1f}s (limit 60s)")
