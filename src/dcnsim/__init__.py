"""Energy simulation of Fat-Tree data center networks.

Deterministic, seedable models of switch power, synthetic workloads,
VM-to-server assignment strategies and per-timeslot routing, plus a
scenario engine that compares their energy use.
"""

from .assignment import (
    Assignment,
    SuperVM,
    cluster_jobs,
    eea_assign,
    estimate_pod_count,
    greedy_assign,
    opt_eea,
    opt_greedy_assign,
    partition_into_racks,
    shrink_to_super_vms,
)
from .errors import (
    CapacityError,
    ConfigError,
    DomainError,
    InfeasibleError,
    SimulationError,
)
from .graphkit import (
    CutTree,
    WeightedGraph,
    ffd_pack,
    gomory_hu_tree,
    kmeans_pp_seed,
    max_flow_min_cut,
    min_k_cut,
)
from .power import PowerParams, optimal_rate, power_rate, switch_power
from .routing import (
    ROUTERS,
    ActiveSet,
    RoutingPlan,
    balanced_route,
    ecmp_route,
    eer,
    estimate_active_set,
    sp_route,
)
from .simengine import (
    EnergyReport,
    Scenario,
    compare,
    run_scenario,
    sweep,
)
from .topology import FatTree, build_fat_tree
from .workload import (
    DemandSet,
    Job,
    Transfer,
    WorkloadConfig,
    demands_at,
    generate_workload,
    job_distance,
    load_workload,
    pattern_vector,
    referential_matrix,
    save_workload,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
