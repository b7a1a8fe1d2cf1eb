"""Per-link bookkeeping that cross-checks a routing plan's switch loads."""

from dcnsim.routing import MBPS_PER_GBPS


def link_loads(plan) -> dict[frozenset, float]:
    """Per-link loads (Gbps) implied by the plan, server links included."""
    loads: dict[frozenset, float] = {}

    def bump(a, b, gbps):
        key = frozenset((a, b))
        loads[key] = loads.get(key, 0.0) + gbps

    for src, dst, rate, path in plan.routes:
        gbps = rate / MBPS_PER_GBPS
        bump(("host", src), ("switch", path[0]), gbps)
        for a, b in zip(path, path[1:]):
            bump(("switch", a), ("switch", b), gbps)
        bump(("switch", path[-1]), ("host", dst), gbps)
    return loads


def loads_from_links(plan) -> dict[int, float]:
    """Recompute switch loads as half the sum of incident link loads.

    Every flow both enters and leaves a switch, so halving the incident
    sum recovers the traversal-count load; this cross-checks the two
    bookkeeping schemes.
    """
    loads: dict[int, float] = {}
    for key, value in link_loads(plan).items():
        for node in key:
            if node[0] == "switch":
                loads[node[1]] = loads.get(node[1], 0.0) + value
    return {sw: v / 2.0 for sw, v in loads.items()}
