"""Energy simulation of Fat-Tree data center networks.

Deterministic, seedable models of switch power, synthetic workloads,
VM-to-server assignment strategies and per-timeslot routing, plus a
scenario engine that compares their energy use.

The package exports the library API that README documents; every
pipeline stage, router and error class lives in its submodule
(`dcnsim.assignment`, `dcnsim.routing`, `dcnsim.errors`, ...).
"""

from .power import PowerParams
from .routing import RoutingPlan
from .simengine import EnergyReport, Scenario, run_scenario, sweep
from .workload import DemandSet, WorkloadConfig, demands_at, generate_workload

__all__ = [
    "DemandSet",
    "EnergyReport",
    "PowerParams",
    "RoutingPlan",
    "Scenario",
    "WorkloadConfig",
    "demands_at",
    "generate_workload",
    "run_scenario",
    "sweep",
]
__version__ = "0.1.0"
