"""Self-contained algorithm toolkit.

Max-flow / min-cut, Gomory-Hu cut trees (Gusfield construction),
approximate minimum k-cut, k-means++ seeding and first-fit-decreasing
bin packing.  Instances here are small (tens of vertices, hundreds of
items).  Their results decide placements, so every kernel keeps a fixed
float order, and a faster form must give the same bits:

* `max_flow_min_cut` augments along the same paths as plain
  Edmonds-Karp, in the same order, with the same subtractions.
* `norm` (k-means++ and pattern distances) sums each gap's squares by
  numpy's own pairwise `add.reduce` along the gap, one gap or a row of
  gaps per call, not by `dot`, whose order the BLAS kernel sets.
* `weight_between` and `ordered_sum` add left to right; `ffd_one_bin`
  adds each row's sizes in FFD order.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .errors import DomainError


class WeightedGraph:
    """Undirected graph with non-negative edge weights; no self-loops.

    Adding an existing edge accumulates its weight.
    """

    def __init__(self, n: int):
        if n < 1:
            raise DomainError(f"graph needs at least one vertex, got {n}")
        self.n = n
        self.adj: list[dict[int, float]] = [dict() for _ in range(n)]

    @classmethod
    def of_matrix(cls, weights: np.ndarray) -> WeightedGraph:
        """The graph of a symmetric n x n weight matrix with a zero diagonal.

        Entry (u, v) is edge u-v's weight, a weight of 0 adds no edge, and
        each vertex lists its neighbours in ascending order: the graph that
        `add_edge` builds over the pairs u < v in row-major order.
        """
        graph = cls(len(weights))
        bad = ~np.isfinite(weights) | (weights < 0)
        if bad.any():
            raise DomainError(
                f"edge weight must be finite and >= 0, got {weights[bad][0]}")
        for u, row in enumerate(weights):
            near = row.nonzero()[0]
            graph.adj[u] = dict(zip(near.tolist(), row[near].tolist()))
        return graph

    def add_edge(self, u: int, v: int, weight: float) -> None:
        if u == v:
            raise DomainError(f"self-loop on vertex {u}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise DomainError(f"edge ({u}, {v}) outside vertex range")
        if not math.isfinite(weight) or weight < 0:
            raise DomainError(f"edge weight must be finite and >= 0, got {weight}")
        if weight == 0:
            return
        self.adj[u][v] = self.adj[u].get(v, 0.0) + weight
        self.adj[v][u] = self.adj[v].get(u, 0.0) + weight

    def weight_between(self, group_a, group_b) -> float:
        """Total weight of edges with one endpoint in each group."""
        b = set(group_b)
        return ordered_sum(
            w for u in group_a for v, w in self.adj[u].items() if v in b
        )


# A residual capacity at or below this counts as saturated.
_RESIDUE = 1e-12


def ordered_sum(values) -> float:
    """Left-to-right float sum from 0.0, the same on every Python.

    Python 3.12 made the builtin `sum` of floats a compensated sum, whose
    last bits can differ from plain addition; totals that feed a report
    or a decision add in order instead.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def max_flow_min_cut(graph: WeightedGraph, s: int, t: int):
    """Edmonds-Karp max flow; returns (flow value, source-side vertex set).

    Each breadth-first search stops when it discovers the sink, whose
    parent chain is fixed from then on.  Paths of one and two edges come
    first, without a search: the direct edge, then s -> v -> t for each v
    in s's adjacency order.  The searches would find them in that order,
    since no augmentation raises the residual of an edge out of s or
    into t, and no path is shorter.
    """
    n = graph.n
    for name, vertex in (("source", s), ("sink", t)):
        if not 0 <= vertex < n:
            raise DomainError(f"{name} {vertex} outside vertex range [0, {n - 1}]")
    if s == t:
        raise DomainError(f"source and sink coincide ({s})")
    # Residual capacities; an undirected edge gives capacity both ways.
    residual = [dict(adj) for adj in graph.adj]
    out_of_s, into_t = residual[s], residual[t]
    flow = 0.0
    if out_of_s.get(t, 0.0) > _RESIDUE:
        bottleneck = out_of_s[t]
        out_of_s[t] -= bottleneck
        into_t[s] = into_t.get(s, 0.0) + bottleneck
        flow += bottleneck
    for v, cap in out_of_s.items():
        via = residual[v]
        if v != t and cap > _RESIDUE and via.get(t, 0.0) > _RESIDUE:
            bottleneck = min(via[t], cap)
            via[t] -= bottleneck
            into_t[v] = into_t.get(v, 0.0) + bottleneck
            out_of_s[v] -= bottleneck
            via[s] = via.get(s, 0.0) + bottleneck
            flow += bottleneck
    while True:
        parent = [-1] * n
        parent[s] = s
        queue = deque([s])
        while queue and parent[t] == -1:
            u = queue.popleft()
            for v, cap in residual[u].items():
                if cap > _RESIDUE and parent[v] == -1:
                    parent[v] = u
                    if v == t:
                        break
                    queue.append(v)
        if parent[t] == -1:
            break
        bottleneck = math.inf
        v = t
        while v != s:
            u = parent[v]
            bottleneck = min(bottleneck, residual[u][v])
            v = u
        v = t
        while v != s:
            u = parent[v]
            residual[u][v] -= bottleneck
            residual[v][u] = residual[v].get(u, 0.0) + bottleneck
            v = u
        flow += bottleneck
    source_side = {u for u in range(n) if parent[u] != -1}
    return flow, source_side


class CutTree:
    """Gomory-Hu tree: min edge label on the tree path = pairwise min cut."""

    def __init__(self, parent: list[int], weight: list[float]):
        self.parent = parent
        self.weight = weight
        self.n = len(parent)

    def edges(self):
        for v in range(self.n):
            if self.parent[v] >= 0:
                yield v, self.parent[v], self.weight[v]


def gomory_hu_tree(graph: WeightedGraph) -> CutTree:
    """Gusfield's cut-tree construction: n-1 max-flow calls, no contraction.

    The sibling re-hang plus grandparent swap keep the tree a genuine
    cut tree (each tree edge's bipartition realizes its label), which
    the k-cut approximation below relies on.
    """
    n = graph.n
    parent = [0] * n
    weight = [0.0] * n
    parent[0] = -1
    for v in range(1, n):
        pv = parent[v]
        flow, source_side = max_flow_min_cut(graph, v, pv)
        weight[v] = flow
        for u in range(n):
            if u != v and parent[u] == pv and u in source_side:
                parent[u] = v
        gp = parent[pv]
        if gp >= 0 and gp in source_side:
            parent[v] = gp
            parent[pv] = v
            weight[v] = weight[pv]
            weight[pv] = flow
    return CutTree(parent, weight)


def _connected_components(n: int, adjacency) -> list[list[int]]:
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adjacency(u):
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        components.append(sorted(comp))
    return components


def min_k_cut(graph: WeightedGraph, k: int):
    """Approximate minimum k-cut via the k-1 lightest Gomory-Hu cuts.

    Removing the union of those cuts can fragment the graph into more
    than k pieces; fragments are then re-merged greedily by smallest
    inter-component weight (spurious fragments sit at weight 0) until
    exactly k remain.  Returns the components, each sorted and listed by
    least vertex; the weight they cut is within 2*(1 - 1/k) of optimal.
    """
    if not (1 <= k <= graph.n):
        raise DomainError(f"k must be within [1, {graph.n}], got {k}")
    if k == 1:
        return [list(range(graph.n))]
    tree = gomory_hu_tree(graph)
    tree_edges = sorted(tree.edges(), key=lambda e: (e[2], e[0], e[1]))
    removed = tree_edges[: k - 1]
    kept = tree_edges[k - 1 :]

    # Tree components after dropping the removed edges.
    tree_adj: list[list[int]] = [[] for _ in range(graph.n)]
    for a, b, _ in kept:
        tree_adj[a].append(b)
        tree_adj[b].append(a)
    tree_comp = [0] * graph.n
    for label, comp in enumerate(_connected_components(graph.n, lambda u: tree_adj[u])):
        for v in comp:
            tree_comp[v] = label

    # Drop every graph edge crossing tree components, then re-read the
    # actual graph components (tree components may induce disconnected
    # subgraphs, which is where extra fragments come from).
    def same_side_neighbors(u):
        return [v for v in graph.adj[u] if tree_comp[v] == tree_comp[u]]

    components = _connected_components(graph.n, same_side_neighbors)

    while len(components) > k:
        best = None
        for i in range(len(components)):
            for j in range(i + 1, len(components)):
                w = graph.weight_between(components[i], components[j])
                key = (w, components[i][0], components[j][0])
                if best is None or key < best[0]:
                    best = (key, i, j)
        _, i, j = best
        merged = sorted(components[i] + components[j])
        components = [c for idx, c in enumerate(components) if idx not in (i, j)]
        components.append(merged)
        components.sort(key=lambda c: c[0])
    return components


def kmeans_pp_seed(vectors, k: int, seed=None) -> list[int]:
    """k-means++ seeding: D^2-weighted sampling of k center indices.

    The first center is uniform; each next one is drawn with probability
    proportional to the squared Euclidean distance to its nearest chosen
    center.  Deterministic given the seed.  The vectors must share one
    shape and be finite.
    """
    n = len(vectors)
    if not (1 <= k <= n):
        raise DomainError(f"k must be within [1, {n}], got {k}")
    stack = _stacked(vectors)
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(n))]
    taken = np.zeros(n, dtype=bool)
    taken[chosen[0]] = True
    best = _distances(stack, chosen[0])
    while len(chosen) < k:
        # A chosen center sits at distance 0 from itself, so it weighs 0.
        # Python's `d ** 2`, not numpy's square: their last bits can differ.
        weights = np.array([d ** 2 for d in best.tolist()])
        total = weights.sum()
        if total > 0:
            pick = int(rng.choice(n, p=weights / total))
        else:
            # All remaining candidates coincide with a center; fall back
            # to a uniform draw over the unchosen ones.
            remaining = (~taken).nonzero()[0]
            pick = int(remaining[rng.integers(len(remaining))])
        chosen.append(pick)
        taken[pick] = True
        best = np.minimum(best, _distances(stack, pick))
    return chosen


def _stacked(vectors) -> np.ndarray:
    """The vectors as the rows of one finite float array, each flattened."""
    try:
        stack = np.asarray(vectors, dtype=float)
    except ValueError:
        shapes = [np.shape(v) for v in vectors]
        odd = next((s for s in shapes if s != shapes[0]), None)
        if odd is None:
            raise
        raise DomainError(f"pattern length mismatch: {shapes[0]} vs {odd}") from None
    stack = stack.reshape(len(stack), stack.size // len(stack))
    finite = np.isfinite(stack).all(axis=1)
    if not finite.all():
        raise DomainError(f"vector {int(finite.argmin())} is not finite")
    return stack


def _distances(stack: np.ndarray, center: int) -> np.ndarray:
    """Each row's Euclidean distance to row `center` (`norm`)."""
    return norm(stack - stack[center])


def norm(gap: np.ndarray):
    """The Euclidean norm of a 1-D gap, or of each row of a 2-D one.

    Each gap's squares are summed along the gap by numpy's pairwise
    `add.reduce`, whose order numpy's source fixes on any CPU; a row of a
    2-D gap sums as that row would alone.
    """
    return np.sqrt(np.add.reduce(gap * gap, axis=-1))


def ffd_pack(items, bin_capacity: float) -> list[list[int]]:
    """First-fit-decreasing bin packing; returns bins of original indices.

    Ties on equal sizes keep original index order.  An item larger than
    the bin capacity is an error.
    """
    for idx, size in enumerate(items):
        if size > bin_capacity:
            raise DomainError(
                f"item {idx} of size {size} exceeds bin capacity {bin_capacity}"
            )
        if size < 0:
            raise DomainError(f"item {idx} has negative size {size}")
    order = sorted(range(len(items)), key=lambda i: (-items[i], i))
    bins: list[list[int]] = []
    space: list[float] = []
    for idx in order:
        size = items[idx]
        for b, free in enumerate(space):
            if size <= free:
                bins[b].append(idx)
                space[b] = free - size
                break
        else:
            bins.append([idx])
            space.append(bin_capacity - size)
    return bins


def ffd_one_bin(rows, sizes, bin_capacity: float, n_rows: int) -> np.ndarray:
    """Per row r < n_rows: does `ffd_pack` put the sizes in row r in one bin?

    Row r's items are `sizes[rows == r]` in array order, each within
    [0, bin_capacity]; a size outside is an error, as in `ffd_pack`.
    With one bin open, FFD keeps an item in it iff `size <= free`, that
    is iff `fl(free - size) >= 0`, and the free space never rises, so its
    last value decides.  One ordered bincount gives minus that value:
    each row starts at -bin_capacity and adds its sizes in FFD order
    (largest first, ties in index order), the same roundings negated.  An
    empty row packs into no bin.
    """
    rows, sizes = np.asarray(rows, dtype=np.intp), np.asarray(sizes, dtype=float)
    bad = (sizes < 0) | (sizes > bin_capacity)
    if bad.any():
        idx = int(bad.argmax())
        size = float(sizes[idx])
        if size < 0:
            raise DomainError(f"item {idx} has negative size {size}")
        raise DomainError(
            f"item {idx} of size {size} exceeds bin capacity {bin_capacity}"
        )
    order = np.lexsort((-sizes, rows))
    overflow = np.bincount(
        np.concatenate((np.arange(n_rows), rows[order])),
        weights=np.concatenate((np.full(n_rows, -float(bin_capacity)), sizes[order])),
        minlength=n_rows,
    )
    return (overflow <= 0) & (np.bincount(rows, minlength=n_rows) > 0)
