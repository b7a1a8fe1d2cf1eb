"""k-ary Fat-Tree construction and id arithmetic.

Identity scheme (pod-major, fixed so reports are comparable):

* servers  0 .. k**3/4 - 1, pod-major then rack-major then slot
* ToRs     0 .. k**2/2 - 1           (pod * k/2 + rack)
* aggs     k**2/2 .. k**2 - 1        (k**2/2 + pod * k/2 + position)
* cores    k**2 .. 5k**2/4 - 1       (k**2 + group * k/2 + index)

The aggregation switch at position j of every pod connects to the k/2
core switches of group j, so a core of group j only ever joins the
position-j aggs of two pods.  Between servers in different racks the
equal-cost up-down paths are one per agg position within a pod and one
per (agg position, core index) pair across pods; the routers name a
path by that position and index.  `server_pod` and `tor_of_server`
take a server id or an integer array of them, and `agg_id` and
`core_id` ints or integer arrays; no other module of the package
derives a rack or pod from a server id, or numbers a switch.
Switch-to-switch link capacity is not modeled; the per-switch capacity
is the binding constraint.
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


def build_fat_tree(k: int, server_capacity: int = 2) -> FatTree:
    """Construct the k-ary Fat-Tree (k even, 4 <= k <= 48)."""
    return FatTree(k, server_capacity=server_capacity)
