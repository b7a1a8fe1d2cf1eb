"""Cut values of graphkit against networkx on random weighted graphs.

networkx is a test-only oracle; without it these tests skip.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcnsim.graphkit import WeightedGraph, gomory_hu_tree, max_flow_min_cut
from oracles import tree_min_cut

nx = pytest.importorskip("networkx")

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)
WEIGHTS = st.one_of(st.integers(1, 20).map(float),
                    st.floats(min_value=0.01, max_value=100.0))


@st.composite
def weighted_graphs(draw):
    """(WeightedGraph, networkx.Graph) with the same 2-12 nodes and edges.

    Sparse draws leave graphs disconnected, so some cuts are zero.
    """
    n = draw(st.integers(2, 12))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=len(pairs)))
    graph, reference = WeightedGraph(n), nx.Graph()
    reference.add_nodes_from(range(n))
    for u, v in edges:
        w = draw(WEIGHTS)
        graph.add_edge(u, v, w)
        reference.add_edge(u, v, capacity=w, weight=w)
    return graph, reference


def _close(a, b):
    return a == pytest.approx(b, rel=1e-9, abs=1e-9)


@SETTINGS
@given(weighted_graphs(), st.data())
def test_max_flow_matches_networkx_minimum_cut(case, data):
    graph, reference = case
    s, t = data.draw(st.lists(st.integers(0, graph.n - 1), min_size=2,
                              max_size=2, unique=True))
    flow, source_side = max_flow_min_cut(graph, s, t)
    assert _close(flow, nx.minimum_cut(reference, s, t)[0])
    assert s in source_side and t not in source_side
    rest = set(range(graph.n)) - source_side
    assert _close(graph.weight_between(source_side, rest), flow)


@SETTINGS
@given(weighted_graphs())
def test_gomory_hu_cuts_match_networkx(case):
    graph, reference = case
    tree = gomory_hu_tree(graph)
    connected = nx.is_connected(reference)
    if connected:
        nx_tree = nx.gomory_hu_tree(reference)
    for u, v in itertools.combinations(range(graph.n), 2):
        cut = tree_min_cut(tree, u, v)
        assert _close(cut, nx.minimum_cut_value(reference, u, v))
        if connected:
            path = nx.shortest_path(nx_tree, u, v)
            assert _close(cut, min(nx_tree[a][b]["weight"]
                                   for a, b in zip(path, path[1:])))
