"""Toolkit oracles: flows vs cut enumeration, cut trees, k-cut, seeding, FFD."""

import ast
import itertools
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dcnsim
from dcnsim.errors import DomainError
from dcnsim.graphkit import (
    WeightedGraph,
    ffd_one_bin,
    ffd_pack,
    gomory_hu_tree,
    kmeans_pp_seed,
    max_flow_min_cut,
    min_k_cut,
    ordered_sum,
)
from oracles import cut_weight, graph_edges, tree_min_cut


def _random_graph(rng, n, density=0.6, max_w=10):
    g = WeightedGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                g.add_edge(u, v, int(rng.integers(1, max_w + 1)))
    return g


def _brute_force_min_cut(g, s, t):
    """Enumerate every s-t bipartition; n is tiny."""
    others = [v for v in range(g.n) if v not in (s, t)]
    best = math.inf
    for r in range(len(others) + 1):
        for side in itertools.combinations(others, r):
            s_side = set(side) | {s}
            w = sum(
                wt for u, v, wt in graph_edges(g) if (u in s_side) != (v in s_side)
            )
            best = min(best, w)
    return best


def test_max_flow_simple_cases():
    g = WeightedGraph(2)
    g.add_edge(0, 1, 5)
    flow, side = max_flow_min_cut(g, 0, 1)
    assert flow == 5
    assert 0 in side and 1 not in side

    path = WeightedGraph(3)
    path.add_edge(0, 1, 1)
    path.add_edge(1, 2, 5)
    flow, _ = max_flow_min_cut(path, 0, 2)
    assert flow == 1

    with pytest.raises(DomainError):
        max_flow_min_cut(path, 1, 1)


@pytest.mark.parametrize("s, t, bad", [(-1, 0, "source -1"), (0, 3, "sink 3"),
                                       (2, -1, "sink -1"), (3, 3, "source 3")])
def test_max_flow_rejects_a_vertex_out_of_range(s, t, bad):
    path = WeightedGraph(3)
    path.add_edge(0, 1, 1)
    path.add_edge(1, 2, 5)
    with pytest.raises(DomainError, match=rf"{bad} outside vertex range \[0, 2\]"):
        max_flow_min_cut(path, s, t)


def test_max_flow_equals_brute_force_on_random_graphs():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(3, 7))
        g = _random_graph(rng, n)
        s, t = rng.choice(n, size=2, replace=False)
        flow, side = max_flow_min_cut(g, int(s), int(t))
        assert math.isclose(flow, _brute_force_min_cut(g, int(s), int(t)), rel_tol=1e-9)
        # returned partition separates s and t and realizes the flow value
        assert int(s) in side and int(t) not in side
        crossing = sum(
            w for u, v, w in graph_edges(g) if (u in side) != (v in side)
        )
        assert math.isclose(crossing, flow, rel_tol=1e-9)


def test_gomory_hu_triangle_and_star():
    tri = WeightedGraph(3)
    for u, v in ((0, 1), (1, 2), (0, 2)):
        tri.add_edge(u, v, 1)
    tree = gomory_hu_tree(tri)
    for u, v in ((0, 1), (1, 2), (0, 2)):
        assert tree_min_cut(tree, u, v) == 2

    star = WeightedGraph(4)
    weights = {1: 3.0, 2: 5.0, 3: 2.0}
    for leaf, w in weights.items():
        star.add_edge(0, leaf, w)
    tree = gomory_hu_tree(star)
    for leaf, w in weights.items():
        for other in range(4):
            if other != leaf:
                assert tree_min_cut(tree, leaf, other) == min(
                    w, weights.get(other, math.inf)
                )


def test_gomory_hu_matches_pairwise_max_flow():
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(3, 8))
        g = _random_graph(rng, n)
        tree = gomory_hu_tree(g)
        for u in range(n):
            for v in range(u + 1, n):
                direct, _ = max_flow_min_cut(g, u, v)
                assert math.isclose(tree_min_cut(tree, u, v), direct, rel_tol=1e-9)


def test_gomory_hu_is_a_genuine_cut_tree():
    # Each tree edge's bipartition must realize its label in the graph;
    # the k-cut approximation bound rests on this.
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(3, 8))
        g = _random_graph(rng, n)
        tree = gomory_hu_tree(g)
        for child, parent, label in tree.edges():
            side = _tree_side(tree, child, parent)
            crossing = sum(
                w for u, v, w in graph_edges(g) if (u in side) != (v in side)
            )
            assert math.isclose(crossing, label, rel_tol=1e-9)


def _tree_side(tree, child, parent):
    """Vertices on the child side after removing edge (child, parent)."""
    adj = {v: set() for v in range(tree.n)}
    for a, b, _ in tree.edges():
        adj[a].add(b)
        adj[b].add(a)
    adj[child].discard(parent)
    adj[parent].discard(child)
    side, frontier = {child}, [child]
    while frontier:
        u = frontier.pop()
        for v in adj[u]:
            if v not in side:
                side.add(v)
                frontier.append(v)
    return side


def _brute_force_k_cut(g, k):
    """Minimum crossing weight over all partitions into exactly k blocks."""
    best = math.inf
    labels = [0] * g.n

    def assign(v, used):
        nonlocal best
        if v == g.n:
            if used == k:
                w = sum(
                    wt for a, b, wt in graph_edges(g) if labels[a] != labels[b]
                )
                best = min(best, w)
            return
        for c in range(min(used + 1, k)):
            labels[v] = c
            assign(v + 1, max(used, c + 1))

    assign(0, 0)
    return best


def test_min_k_cut_examples():
    g = WeightedGraph(3)
    g.add_edge(0, 1, 1)
    g.add_edge(1, 2, 5)
    comps = min_k_cut(g, 1)
    assert comps == [[0, 1, 2]] and cut_weight(g, comps) == 0.0

    comps = min_k_cut(g, 2)
    assert comps == [[0], [1, 2]]
    assert cut_weight(g, comps) == 1.0

    with pytest.raises(DomainError):
        min_k_cut(g, 0)
    with pytest.raises(DomainError):
        min_k_cut(g, 4)


def test_min_k_cut_is_partition_and_within_bound():
    rng = np.random.default_rng(37)
    for _ in range(50):
        n = int(rng.integers(3, 7))
        g = _random_graph(rng, n, density=0.7)
        for k in (2, 3):
            if k > n:
                continue
            comps = min_k_cut(g, k)
            weight = cut_weight(g, comps)
            flat = sorted(v for comp in comps for v in comp)
            assert flat == list(range(n))  # disjoint cover
            assert len(comps) == k
            opt = _brute_force_k_cut(g, k)
            assert weight <= 2 * (1 - 1 / k) * opt + 1e-9
            # the ordered cut weight matches a plain sum over the partition
            label = {v: i for i, comp in enumerate(comps) for v in comp}
            recomputed = sum(
                w for u, v, w in graph_edges(g) if label[u] != label[v]
            )
            assert math.isclose(weight, recomputed, rel_tol=1e-12, abs_tol=1e-12)


def test_min_k_cut_within_bound_at_every_k():
    # k = n must give the singletons, cut along every edge: the rack
    # partition returns them without cutting when a job has no more
    # units than racks.
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        g = _random_graph(rng, n, density=float(rng.choice([0.3, 0.6, 0.9])))
        for k in range(2, n + 1):
            comps = min_k_cut(g, k)
            weight = cut_weight(g, comps)
            assert sorted(v for comp in comps for v in comp) == list(range(n))
            assert len(comps) == k
            assert weight <= 2 * (1 - 1 / k) * _brute_force_k_cut(g, k) + 1e-9
        assert comps == [[v] for v in range(n)]
        assert weight == ordered_sum(w for _, _, w in graph_edges(g))


def test_max_flow_matches_scipy_on_integer_capacities():
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    sparse = pytest.importorskip("scipy.sparse")
    rng = np.random.default_rng(43)
    for _ in range(80):
        n = int(rng.integers(2, 13))
        g = _random_graph(rng, n, density=float(rng.choice([0.2, 0.5, 0.8])), max_w=50)
        capacity = np.zeros((n, n), dtype=np.int32)
        for u, v, w in graph_edges(g):
            capacity[u, v] = capacity[v, u] = int(w)
        s, t = (int(x) for x in rng.choice(n, size=2, replace=False))
        flow, _ = max_flow_min_cut(g, s, t)
        expected = csgraph.maximum_flow(sparse.csr_array(capacity), s, t).flow_value
        assert flow == expected


def test_kmeans_seed_all_and_errors():
    vectors = [np.array([float(i), 0.0]) for i in range(5)]
    chosen = kmeans_pp_seed(vectors, 5, seed=3)
    assert sorted(chosen) == [0, 1, 2, 3, 4]
    with pytest.raises(DomainError):
        kmeans_pp_seed(vectors, 6, seed=3)
    with pytest.raises(DomainError):
        kmeans_pp_seed(vectors, 0, seed=3)
    assert kmeans_pp_seed(vectors, 3, seed=11) == kmeans_pp_seed(vectors, 3, seed=11)


def test_kmeans_first_center_uniform():
    vectors = [np.array([float(i)]) for i in range(4)]
    counts = np.zeros(4)
    trials = 10_000
    for seed in range(trials):
        counts[kmeans_pp_seed(vectors, 1, seed=seed)[0]] += 1
    p = 1 / 4
    sigma = math.sqrt(p * (1 - p) / trials)
    assert np.all(np.abs(counts / trials - p) <= 5 * sigma)


def test_kmeans_separated_clusters_get_both_seeds():
    left = [np.array([0.0 + 0.01 * i, 0.0]) for i in range(5)]
    right = [np.array([100.0 + 0.01 * i, 0.0]) for i in range(5)]
    vectors = left + right
    hits = 0
    trials = 1000
    for seed in range(trials):
        a, b = kmeans_pp_seed(vectors, 2, seed=seed)
        if (a < 5) != (b < 5):
            hits += 1
    assert hits >= 0.99 * trials


@pytest.mark.parametrize("vectors", [
    [np.zeros(2), np.zeros(3)],
    [np.zeros(3), np.zeros(1), np.zeros(3)],
    [np.zeros(2), np.zeros((1, 2))],
])
def test_kmeans_rejects_patterns_of_unequal_length(vectors):
    with pytest.raises(DomainError, match="pattern length mismatch"):
        kmeans_pp_seed(vectors, 2, seed=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kmeans_rejects_a_non_finite_vector(bad):
    vectors = [np.zeros(2), np.array([1.0, bad]), np.ones(2)]
    with pytest.raises(DomainError, match="vector 1 is not finite"):
        kmeans_pp_seed(vectors, 2, seed=0)


def test_kmeans_duplicate_vectors_still_complete():
    vectors = [np.zeros(2)] * 4
    assert sorted(kmeans_pp_seed(vectors, 4, seed=0)) == [0, 1, 2, 3]


def test_ffd_hand_trace():
    bins = ffd_pack([7, 5, 4, 3, 1], 10)
    sizes = [[7, 3], [5, 4, 1]]
    assert [[ [7, 5, 4, 3, 1][i] for i in b] for b in bins] == sizes
    assert bins == [[0, 3], [1, 2, 4]]


def test_ffd_edge_cases():
    assert ffd_pack([], 10) == []
    with pytest.raises(DomainError):
        ffd_pack([11], 10)
    with pytest.raises(DomainError):
        ffd_pack([-1], 10)
    # ties keep original index order
    assert ffd_pack([5, 5, 5], 10) == [[0, 1], [2]]


def _optimal_bins(items, cap):
    """Exhaustive DP over subsets; n <= 12."""
    n = len(items)
    feasible = [False] * (1 << n)
    for mask in range(1 << n):
        total = sum(items[i] for i in range(n) if mask >> i & 1)
        feasible[mask] = total <= cap
    best = [math.inf] * (1 << n)
    best[0] = 0
    for mask in range(1, 1 << n):
        sub = mask
        while sub:
            if feasible[sub] and best[mask ^ sub] + 1 < best[mask]:
                best[mask] = best[mask ^ sub] + 1
            sub = (sub - 1) & mask
    return best[(1 << n) - 1]


def test_ffd_against_exhaustive_optimum():
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(1, 13))
        cap = 100
        items = [int(rng.integers(1, cap + 1)) for _ in range(n)]
        bins = ffd_pack(items, cap)
        # never violate capacity; output is a permutation partition
        assert sorted(i for b in bins for i in b) == list(range(n))
        for b in bins:
            assert sum(items[i] for i in b) <= cap
        opt = _optimal_bins(items, cap)
        assert len(bins) <= opt + 1
        assert len(bins) <= math.ceil(11 / 9 * opt) + 1


def _nudged(value, ulps):
    """`value` moved by `ulps` units in the last place, never below 0."""
    for _ in range(abs(ulps)):
        value = float(np.nextafter(value, math.inf if ulps > 0 else -math.inf))
    return max(value, 0.0)


@st.composite
def packing_rows(draw):
    """(rows, sizes, capacity, n_rows): rows of every kind, items interleaved.

    Besides random sizes, a row may hold equal sizes, a single item, no
    item, or sizes whose last one fills what FFD leaves of the bin, give
    or take a few ulps, where one bin is decided by the last bit.
    """
    capacity = draw(st.sampled_from([1.0, 0.3, 30.0, 1000.0])
                    | st.floats(min_value=1e-3, max_value=1e3))
    fraction = st.sampled_from([0.05, 0.1, 0.2, 0.3, 1 / 3, 0.5, 0.7, 0.9, 1.0])
    size = (fraction.map(lambda f: f * capacity)
            | st.floats(min_value=0.0, max_value=capacity))
    rows, sizes = [], []
    n_rows = draw(st.integers(1, 4))
    for row in range(n_rows):
        kind = draw(st.sampled_from(["random", "equal", "single", "empty", "fill"]))
        if kind == "random":
            items = draw(st.lists(size, max_size=8))
        elif kind == "equal":
            items = [draw(size)] * draw(st.integers(2, 8))
        elif kind == "single":
            items = [draw(size)]
        elif kind == "empty":
            items = []
        else:
            items = draw(st.lists(size, min_size=1, max_size=6))
            free = capacity
            for item in sorted(items, reverse=True):
                free -= item
            if free >= 0:
                items.append(min(_nudged(free, draw(st.integers(-3, 3))), capacity))
        rows += [row] * len(items)
        sizes += items
    order = draw(st.permutations(range(len(rows))))
    return ([rows[i] for i in order], [sizes[i] for i in order], capacity, n_rows)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(packing_rows())
# FFD sorts to [0.9, 0.1]: 1.0 - 0.9 leaves 0.09999999999999998 < 0.1,
# though 0.9 + 0.1 == 1.0 and the items fit in their given order.
@example(([0, 0], [0.1, 0.9], 1.0, 1))
@example(([0, 1, 0, 1], [0.2, 0.1, 0.1, 0.2], 0.3, 3))
def test_one_bin_check_matches_ffd(case):
    rows, sizes, capacity, n_rows = case
    got = ffd_one_bin(np.array(rows, dtype=np.int64), np.array(sizes), capacity, n_rows)
    want = [
        len(ffd_pack([s for r, s in zip(rows, sizes) if r == row], capacity)) == 1
        for row in range(n_rows)
    ]
    assert got.tolist() == want


def test_one_bin_check_rejects_sizes_outside_the_bin():
    with pytest.raises(DomainError, match="item 1 has negative size"):
        ffd_one_bin(np.array([0, 0]), np.array([0.5, -0.1]), 1.0, 1)
    with pytest.raises(DomainError, match="item 0 of size 1.5 exceeds"):
        ffd_one_bin(np.array([1, 0]), np.array([1.5, 0.2]), 1.0, 2)
    assert ffd_one_bin(np.array([0, 0]), np.array([0.0, 1.0]), 1.0, 1).tolist() == [True]


# Calls whose sums a BLAS kernel may order by CPU: their bits could then
# differ between machines, and distances decide placements.
BLAS_CALLS = {"dot", "matmul", "einsum"}


def _blas_uses(source: str) -> list[str]:
    """Each use in `source` of `dot`, `matmul`, `einsum`, `linalg` or `@`."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in BLAS_CALLS:
                uses.append(f"line {node.lineno}: a call to {name}")
        names = {getattr(node, "attr", None), getattr(node, "id", None),
                 getattr(node, "module", None), getattr(node, "name", None)}
        if any(name and "linalg" in name.split(".") for name in names):
            uses.append(f"line {getattr(node, 'lineno', '?')}: linalg")
        if isinstance(getattr(node, "op", None), ast.MatMult):
            uses.append(f"line {node.lineno}: the @ operator")
    return uses


@pytest.mark.parametrize("source, found", [
    ("np.dot(a, b)", 1), ("a.dot(b)", 1), ("np.matmul(a, b)", 1),
    ("np.einsum('i,i', a, a)", 1), ("a @ b", 1), ("a @= b", 1),
    ("np.linalg.norm(a)", 1), ("from numpy import linalg", 1),
    ("import numpy.linalg", 1), ("from numpy.linalg import norm", 1),
    ("@functools.cache\ndef f(a):\n    return np.add.reduce(a * a)", 0),
])
def test_the_blas_check_finds_each_use(source, found):
    assert len(_blas_uses(source)) == found


def test_no_module_sums_by_a_blas_kernel():
    root = pathlib.Path(dcnsim.__file__).parent
    uses = {path.name: _blas_uses(path.read_text()) for path in sorted(root.glob("*.py"))}
    assert len(uses) >= 9 and not any(uses.values()), uses
