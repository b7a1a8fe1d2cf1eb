"""Fat-Tree construction and id arithmetic, and the test-side path
enumeration (`oracles.candidate_paths`) checked against the links."""

import numpy as np
import pytest

from dcnsim.errors import ConfigError, DomainError
from dcnsim.topology import AGG, CORE, TOR, build_fat_tree
from oracles import candidate_paths, switch_neighbors, tor_id


@pytest.mark.parametrize(
    "k,switches,servers",
    [(4, 20, 16), (16, 320, 1024), (24, 720, 3456)],
)
def test_size_anchors(k, switches, servers):
    tree = build_fat_tree(k)
    assert tree.num_switches == switches
    assert tree.num_servers == servers


@pytest.mark.parametrize("k", [4, 6, 8, 10, 12, 16])
def test_count_closed_forms(k):
    tree = build_fat_tree(k)
    assert tree.num_pods == k
    assert tree.racks_per_pod == k // 2
    assert tree.num_tors == k * k // 2
    assert tree.num_aggs == k * k // 2
    assert tree.num_cores == (k // 2) ** 2
    assert tree.num_switches == 5 * k * k // 4
    assert tree.num_servers == k**3 // 4


def test_build_rejects_bad_k():
    for bad in (3, 5, 2, 0, 50, -4):
        with pytest.raises(ConfigError):
            build_fat_tree(bad)


def test_server_coordinates():
    tree = build_fat_tree(4)
    assert (tree.server_pod(0), tree.tor_of_server(0)) == (0, tor_id(tree, 0, 0))
    assert (tree.server_pod(15), tree.tor_of_server(15)) == (3, tor_id(tree, 3, 1))
    big = build_fat_tree(16)
    assert (big.server_pod(1023), big.tor_of_server(1023)) == (15, tor_id(big, 15, 7))
    # the routers pass integer arrays of endpoints
    servers = np.array([[0, 15], [1, 2]])
    assert tree.tor_of_server(servers).tolist() == [[0, tor_id(tree, 3, 1)], [0, 1]]
    assert tree.server_pod(servers).tolist() == [[0, 3], [0, 0]]
    with pytest.raises(DomainError):
        tree.check_server(16)
    with pytest.raises(DomainError):
        tree.check_server(-1)


def test_candidate_path_counts_k4():
    tree = build_fat_tree(4)
    same_rack = candidate_paths(tree, 0, 1)
    assert len(same_rack) == 1 and len(same_rack[0]) == 1
    same_pod = candidate_paths(tree, 0, 2)
    assert len(same_pod) == 2 and all(len(p) == 3 for p in same_pod)
    cross = candidate_paths(tree, 0, 15)
    assert len(cross) == 4 and all(len(p) == 5 for p in cross)
    with pytest.raises(DomainError):
        candidate_paths(tree, 3, 3)


def _exhaustive_paths(tree, src, dst):
    """Oracle: enumerate valid layered up-down switch walks via adjacency."""
    src_tor, dst_tor = tree.tor_of_server(src), tree.tor_of_server(dst)
    if src_tor == dst_tor:
        return {(src_tor,)}
    found = set()
    for agg_up in switch_neighbors(tree, src_tor):
        if tree.layer(agg_up) != AGG:
            continue
        if dst_tor in switch_neighbors(tree, agg_up):
            found.add((src_tor, agg_up, dst_tor))
        for core in switch_neighbors(tree, agg_up):
            if tree.layer(core) != CORE:
                continue
            for agg_down in switch_neighbors(tree, core):
                if (
                    agg_down != agg_up
                    and dst_tor in switch_neighbors(tree, agg_down)
                ):
                    found.add((src_tor, agg_up, core, agg_down, dst_tor))
    # keep only hop-minimal walks: 3 switches inside a pod, 5 across
    if tree.server_pod(src) == tree.server_pod(dst):
        return {p for p in found if len(p) == 3}
    return {p for p in found if len(p) == 5}


@pytest.mark.parametrize("k", [4, 6])
def test_candidate_paths_match_exhaustive_walk(k):
    tree = build_fat_tree(k)
    probes = [(0, 1), (0, 2), (0, tree.num_servers - 1), (1, tree.servers_per_pod)]
    for src, dst in probes:
        if src == dst:
            continue
        got = set(candidate_paths(tree, src, dst))
        assert got == _exhaustive_paths(tree, src, dst)


@pytest.mark.parametrize("k", [4, 8])
def test_paths_are_layer_valid_and_adjacent(k):
    tree = build_fat_tree(k)
    expected_layers = {1: [TOR], 3: [TOR, AGG, TOR], 5: [TOR, AGG, CORE, AGG, TOR]}
    pairs = [(0, 1), (0, tree.servers_per_rack), (0, tree.num_servers - 1)]
    for src, dst in pairs:
        for sw in candidate_paths(tree, src, dst):
            assert [tree.layer(s) for s in sw] == expected_layers[len(sw)]
            for a, b in zip(sw, sw[1:]):
                assert b in switch_neighbors(tree, a)
            assert sw[0] == tree.tor_of_server(src)
            assert sw[-1] == tree.tor_of_server(dst)


@pytest.mark.parametrize("k", [4, 6, 8])
def test_path_count_closed_forms(k):
    tree = build_fat_tree(k)
    half = k // 2
    same_pod = candidate_paths(tree, 0, tree.servers_per_rack)
    assert len(same_pod) == half
    cross = candidate_paths(tree, 0, tree.num_servers - 1)
    assert len(cross) == half * half


@pytest.mark.parametrize("k", [4, 6, 8, 12])
def test_agg_fanout_property(k):
    # Outer (core-side) fan-out of every agg equals its inner (ToR-side)
    # fan-out; the pod-level assignment principles rely on this shape.
    tree = build_fat_tree(k)
    for pod in range(tree.num_pods):
        for position in range(tree.racks_per_pod):
            neighbors = switch_neighbors(tree, tree.agg_id(pod, position))
            tors = [s for s in neighbors if tree.layer(s) == TOR]
            cores = [s for s in neighbors if tree.layer(s) == CORE]
            assert len(tors) == k // 2
            assert len(cores) == k // 2


def test_graph_is_connected():
    tree = build_fat_tree(6)
    seen = {0}
    frontier = [0]
    while frontier:
        sw = frontier.pop()
        for nb in switch_neighbors(tree, sw):
            if nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    assert len(seen) == tree.num_switches


def test_deterministic_candidate_order():
    tree = build_fat_tree(4)
    first = candidate_paths(tree, 0, 15)[0]
    # position-major, core-index-minor: the first path uses position 0
    # aggs and the first core of group 0
    assert first == (
        tor_id(tree, 0, 0),
        tree.agg_id(0, 0),
        tree.core_id(0, 0),
        tree.agg_id(3, 0),
        tor_id(tree, 3, 1),
    )
