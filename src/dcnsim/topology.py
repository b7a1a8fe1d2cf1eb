"""k-ary Fat-Tree construction and structural queries.

Identity scheme (pod-major, fixed so reports are comparable):

* servers  0 .. k**3/4 - 1, pod-major then rack-major then slot
* ToRs     0 .. k**2/2 - 1           (pod * k/2 + rack)
* aggs     k**2/2 .. k**2 - 1        (k**2/2 + pod * k/2 + position)
* cores    k**2 .. 5k**2/4 - 1       (k**2 + group * k/2 + index)

The aggregation switch at position j of every pod connects to the k/2
core switches of group j, so a core of group j only ever joins the
position-j aggs of two pods.  Switch-to-switch link capacity is not
modeled; the per-switch capacity is the binding constraint.
"""

from __future__ import annotations

from .errors import ConfigError, DomainError

TOR = "tor"
AGG = "agg"
CORE = "core"


class FatTree:
    """Immutable k-ary Fat-Tree with per-server VM slot capacity."""

    def __init__(self, k: int, server_capacity: int = 2):
        if k % 2 != 0 or not (4 <= k <= 48):
            raise ConfigError(f"k must be even and within [4, 48], got {k}")
        if server_capacity < 1:
            raise ConfigError(f"server_capacity must be >= 1, got {server_capacity}")
        self.k = k
        self.half = k // 2
        self.server_capacity = server_capacity
        self.num_pods = k
        self.racks_per_pod = self.half
        self.servers_per_rack = self.half
        self.servers_per_pod = self.half * self.half
        self.num_servers = k**3 // 4
        self.num_tors = k * self.half
        self.num_aggs = k * self.half
        self.num_cores = self.half * self.half
        self.num_switches = self.num_tors + self.num_aggs + self.num_cores
        self.agg_base = self.num_tors
        self.core_base = self.num_tors + self.num_aggs
        self.pod_slot_capacity = self.servers_per_pod * server_capacity
        self.total_slots = self.num_servers * server_capacity

    # --- id arithmetic -------------------------------------------------

    def check_server(self, server: int) -> None:
        if not (0 <= server < self.num_servers):
            raise DomainError(f"unknown server id {server}")

    def server_pod(self, server: int) -> int:
        return server // self.servers_per_pod

    def server_id(self, pod: int, rack: int, slot: int) -> int:
        return pod * self.servers_per_pod + rack * self.servers_per_rack + slot

    def tor_id(self, pod: int, rack: int) -> int:
        return pod * self.half + rack

    def agg_id(self, pod: int, position: int) -> int:
        return self.agg_base + pod * self.half + position

    def core_id(self, group: int, index: int) -> int:
        return self.core_base + group * self.half + index

    def tor_of_server(self, server: int) -> int:
        # Racks are numbered pod-major like servers, k/2 servers each.
        return server // self.servers_per_rack

    def layer(self, switch: int) -> str:
        if 0 <= switch < self.agg_base:
            return TOR
        if switch < self.core_base:
            return AGG
        if switch < self.num_switches:
            return CORE
        raise DomainError(f"unknown switch id {switch}")

    def rack_servers(self, pod: int, rack: int) -> list[int]:
        base = pod * self.servers_per_pod + rack * self.servers_per_rack
        return list(range(base, base + self.servers_per_rack))

    def pod_servers(self, pod: int) -> list[int]:
        base = pod * self.servers_per_pod
        return list(range(base, base + self.servers_per_pod))

    # --- adjacency (for structural checks) -----------------------------

    def switch_neighbors(self, switch: int) -> list[int]:
        """Adjacent switches of a switch (server links not included)."""
        kind = self.layer(switch)
        if kind == TOR:
            pod = switch // self.half
            return [self.agg_id(pod, j) for j in range(self.half)]
        if kind == AGG:
            local = switch - self.agg_base
            pod, position = divmod(local, self.half)
            tors = [self.tor_id(pod, r) for r in range(self.half)]
            cores = [self.core_id(position, i) for i in range(self.half)]
            return tors + cores
        local = switch - self.core_base
        group = local // self.half
        return [self.agg_id(pod, group) for pod in range(self.num_pods)]

    # --- path enumeration ----------------------------------------------

    def candidate_paths(self, src_server: int, dst_server: int) -> list[tuple[int, ...]]:
        """All equal-cost up-down paths between two distinct servers.

        Same rack -> one ToR-only path; same pod -> one path per agg
        position; cross pod -> one path per (agg position, core) pair.
        Order is deterministic: position-major, then core index.
        """
        self.check_server(src_server)
        self.check_server(dst_server)
        if src_server == dst_server:
            raise DomainError(f"no path between a server and itself ({src_server})")
        src_pod, dst_pod = self.server_pod(src_server), self.server_pod(dst_server)
        src_tor, dst_tor = self.tor_of_server(src_server), self.tor_of_server(dst_server)
        if src_tor == dst_tor:
            return [(src_tor,)]
        if src_pod == dst_pod:
            return [
                (src_tor, self.agg_id(src_pod, j), dst_tor)
                for j in range(self.half)
            ]
        paths = []
        for j in range(self.half):
            up = self.agg_id(src_pod, j)
            down = self.agg_id(dst_pod, j)
            for i in range(self.half):
                paths.append((src_tor, up, self.core_id(j, i), down, dst_tor))
        return paths


def build_fat_tree(k: int, server_capacity: int = 2) -> FatTree:
    """Construct the k-ary Fat-Tree (k even, 4 <= k <= 48)."""
    return FatTree(k, server_capacity=server_capacity)
