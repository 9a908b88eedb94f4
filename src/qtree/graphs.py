"""Tree-network families and their structural statistics.

Generators cover chains, stars, dendrimers, Vicsek fractals and randomly
grown scale-free trees.  Graphs are undirected, connected and acyclic,
stored as adjacency lists with 0-based breadth-first node indexing, so
repeated construction with identical parameters yields identical edge
lists.

Structural statistics split the nodes into leaves (functionality 1),
parents (non-leaves adjacent to at least one leaf) and the rest; these
counts drive the structural transport-efficiency bounds.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidParameterError, NoParentsError, SizeLimitError

MAX_NODES_DEFAULT = 2_000_000

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class TreeGraph:
    """Undirected tree given by per-node neighbor lists.

    ``adjacency[j]`` holds the sorted neighbor indices of node ``j``; the
    functionality (degree) of ``j`` is ``len(adjacency[j])``.  Instances
    are immutable and safe to share across workers.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    label: str = ""

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self.adjacency]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        out = [(u, v) for u, nbrs in enumerate(self.adjacency) for v in nbrs if u < v]
        out.sort()
        return out


@dataclass(frozen=True)
class StructuralStats:
    """Leaf/parent counts and restricted functionality averages.

    ``per_node_delta[i]`` is delta for ``parent_ids[i]``: the number of
    non-leaf neighbors of that parent minus one (a star center has
    delta = -1).
    """

    n_leaves: int
    n_parents: int
    avg_f_nonleaf: float
    avg_f_minus_delta_parents: float
    avg_f_parents: float
    per_node_delta: tuple[int, ...]
    leaf_ids: tuple[int, ...]
    parent_ids: tuple[int, ...]


def _finalize(adj: list[list[int]], label: str) -> TreeGraph:
    return TreeGraph(
        n=len(adj),
        adjacency=tuple(tuple(sorted(nbrs)) for nbrs in adj),
        label=label,
    )


def generate_chain(n: int) -> TreeGraph:
    """Path graph 0-1-...-(n-1)."""
    if n < 2:
        raise InvalidParameterError(f"chain needs n >= 2, got {n}")
    adj: list[list[int]] = [[] for _ in range(n)]
    for i in range(n - 1):
        adj[i].append(i + 1)
        adj[i + 1].append(i)
    return _finalize(adj, f"chain(n={n})")


def generate_star(n: int) -> TreeGraph:
    """Star with center 0 and n-1 leaves."""
    if n < 2:
        raise InvalidParameterError(f"star needs n >= 2, got {n}")
    adj: list[list[int]] = [[] for _ in range(n)]
    for i in range(1, n):
        adj[0].append(i)
        adj[i].append(0)
    return _finalize(adj, f"star(n={n})")


def generate_dendrimer(f: int, g: int, max_nodes: int = MAX_NODES_DEFAULT) -> TreeGraph:
    """Dendrimer of functionality f and generation g.

    The core carries f branches; every internal node at depth < g has
    f - 1 children; all depth-g nodes are leaves.  Total node count is
    1 + f((f-1)^g - 1)/(f-2).  Nodes are indexed breadth-first from the
    core.
    """
    if f < 3:
        raise InvalidParameterError(f"dendrimer needs f >= 3, got {f}")
    if g < 1:
        raise InvalidParameterError(f"dendrimer needs g >= 1, got {g}")
    n_total = 1 + f * ((f - 1) ** g - 1) // (f - 2)
    if n_total > max_nodes:
        raise SizeLimitError(
            f"dendrimer(f={f}, g={g}) has {n_total} nodes, above the limit {max_nodes}"
        )
    adj: list[list[int]] = [[] for _ in range(n_total)]
    nxt = 1
    frontier = [0]
    for depth in range(g):
        new_frontier = []
        children_per_node = f if depth == 0 else f - 1
        for node in frontier:
            for _ in range(children_per_node):
                adj[node].append(nxt)
                adj[nxt].append(node)
                new_frontier.append(nxt)
                nxt += 1
        frontier = new_frontier
    assert nxt == n_total
    return _finalize(adj, f"dendrimer(f={f},g={g})")


def _bfs_relabel(adj: list[list[int]], root: int) -> list[list[int]]:
    """Relabel nodes in BFS order from root, exploring neighbors ascending."""
    n = len(adj)
    order = []
    seen = [False] * n
    seen[root] = True
    queue = deque([root])
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in sorted(adj[u]):
            if not seen[v]:
                seen[v] = True
                queue.append(v)
    relabel = [0] * n
    for new, old in enumerate(order):
        relabel[old] = new
    out: list[list[int]] = [[] for _ in range(n)]
    for old, nbrs in enumerate(adj):
        out[relabel[old]] = [relabel[v] for v in nbrs]
    return out


def generate_vicsek(f: int, g: int, max_nodes: int = MAX_NODES_DEFAULT) -> TreeGraph:
    """Vicsek fractal of functionality f and generation g.

    Generation 1 is a star of f + 1 nodes.  Generation g joins f + 1
    copies of generation g - 1 (one central, f peripheral) with exactly
    one new bond per peripheral copy, between the lowest-index leaf on
    each arm of the central copy and the lowest-index leaf of that
    peripheral copy.  Total node count is (f + 1)^g.
    """
    if f < 3:
        raise InvalidParameterError(f"vicsek needs f >= 3, got {f}")
    if g < 1:
        raise InvalidParameterError(f"vicsek needs g >= 1, got {g}")
    n_total = (f + 1) ** g
    if n_total > max_nodes:
        raise SizeLimitError(
            f"vicsek(f={f}, g={g}) has {n_total} nodes, above the limit {max_nodes}"
        )
    adj: list[list[int]] = [[] for _ in range(f + 1)]
    for i in range(1, f + 1):
        adj[0].append(i)
        adj[i].append(0)
    m = f + 1
    for _ in range(g - 1):
        degrees = [len(nbrs) for nbrs in adj]
        leaves = [u for u in range(m) if degrees[u] == 1]
        copy_attach = min(leaves)
        # arm of each node = which neighbor of the center its subtree hangs from
        arm_leaf: dict[int, int] = {}
        for root in sorted(adj[0]):
            stack = [root]
            seen = {0, root}
            best = m
            while stack:
                u = stack.pop()
                if degrees[u] == 1 and u < best:
                    best = u
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            arm_leaf[root] = best
        new_adj: list[list[int]] = [[] for _ in range(m * (f + 1))]
        for offset in range(0, m * (f + 1), m):
            for u, nbrs in enumerate(adj):
                new_adj[u + offset] = [v + offset for v in nbrs]
        for i, root in enumerate(sorted(arm_leaf), start=1):
            u = arm_leaf[root]
            v = i * m + copy_attach
            new_adj[u].append(v)
            new_adj[v].append(u)
        adj = _bfs_relabel(new_adj, 0)
        m *= f + 1
    assert m == n_total
    return _finalize(adj, f"vicsek(f={f},g={g})")


def generate_sft(n: int, s: float, f_max: int | None = None, seed: int = 0) -> TreeGraph:
    """Scale-free tree grown breadth-first to exactly n nodes.

    Each node, on creation, draws a target functionality from the
    truncated power law P(f) proportional to f^(-s) on {2, ..., f_max}.
    The root opens that many slots; every other node spends one bond on
    its parent and opens the rest.  New nodes attach to the open slot of
    the lowest-index node (first-in first-out), which realizes shell by
    shell growth; nodes whose slots are still unfilled when node n - 1
    is placed end up as leaves or low-degree nodes.

    Deterministic for fixed (n, s, f_max, seed).
    """
    if n < 3:
        raise InvalidParameterError(f"sft needs n >= 3, got {n}")
    if not s > 1:
        raise InvalidParameterError(f"sft needs scaling exponent s > 1, got {s}")
    if f_max is None:
        f_max = n - 1
    if not 2 <= f_max <= n - 1:
        raise InvalidParameterError(f"sft needs 2 <= f_max <= n-1, got f_max={f_max}")
    seed = int(seed) & _MASK64

    rng = np.random.default_rng(seed)
    support = np.arange(2, f_max + 1, dtype=np.float64)
    weights = support ** (-float(s))
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    cdf[-1] = 1.0
    targets = 2 + np.searchsorted(cdf, rng.random(n), side="right")

    capacity = targets.astype(np.int64)
    capacity[1:] -= 1  # one bond per non-root node goes to its parent
    slot_ends = np.cumsum(capacity)
    parents = np.searchsorted(slot_ends, np.arange(n - 1), side="right")

    adj: list[list[int]] = [[] for _ in range(n)]
    for child in range(1, n):
        p = int(parents[child - 1])
        adj[p].append(child)
        adj[child].append(p)
    label = f"sft(n={n},s={float(s)!r},f_max={f_max},seed={seed})"
    return _finalize(adj, label)


def structural_stats(g: TreeGraph) -> StructuralStats:
    """Exact leaf/parent counts and restricted functionality averages."""
    deg = g.degrees()
    leaf_ids = tuple(j for j in range(g.n) if deg[j] == 1)
    is_leaf = [False] * g.n
    for j in leaf_ids:
        is_leaf[j] = True
    parent_ids = tuple(
        j
        for j in range(g.n)
        if not is_leaf[j] and any(is_leaf[v] for v in g.adjacency[j])
    )
    if not parent_ids:
        raise NoParentsError(
            f"graph {g.label or '<unlabeled>'} with n={g.n} has no parent nodes"
        )
    n_leaves = len(leaf_ids)
    n_parents = len(parent_ids)
    deltas = []
    for j in parent_ids:
        nonleaf_nbrs = sum(1 for v in g.adjacency[j] if not is_leaf[v])
        deltas.append(nonleaf_nbrs - 1)
    nonleaf_count = g.n - n_leaves
    sum_f_nonleaf = 2 * (g.n - 1) - n_leaves
    sum_f_parents = sum(deg[j] for j in parent_ids)
    sum_delta = sum(deltas)
    return StructuralStats(
        n_leaves=n_leaves,
        n_parents=n_parents,
        avg_f_nonleaf=sum_f_nonleaf / nonleaf_count,
        avg_f_minus_delta_parents=(sum_f_parents - sum_delta) / n_parents,
        avg_f_parents=sum_f_parents / n_parents,
        per_node_delta=tuple(deltas),
        leaf_ids=leaf_ids,
        parent_ids=tuple(parent_ids),
    )


def validate_tree(g: TreeGraph) -> str | None:
    """Check all tree invariants; return None when valid.

    On failure returns a short description of the first violated
    invariant instead of raising.
    """
    n = g.n
    if n < 1 or len(g.adjacency) != n:
        return "node count mismatch"
    edge_count = 0
    for u, nbrs in enumerate(g.adjacency):
        for v in nbrs:
            if not 0 <= v < n:
                return f"neighbor index out of range at node {u}"
            if v == u:
                return f"self-loop at node {u}"
        if len(set(nbrs)) != len(nbrs):
            return f"duplicate edge at node {u}"
        edge_count += len(nbrs)
    neighbor_sets = [set(nbrs) for nbrs in g.adjacency]
    for u, nbrs in enumerate(g.adjacency):
        for v in nbrs:
            if u not in neighbor_sets[v]:
                return f"asymmetric adjacency between {u} and {v}"
    edge_count //= 2
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    reached = 1
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if not seen[v]:
                seen[v] = True
                reached += 1
                queue.append(v)
    if reached != n:
        return "disconnected"
    if edge_count > n - 1:
        return "cycle detected"
    return None


# --- edge-list text format -------------------------------------------------
#
# Optional "# key=value" header comments (format version, label), then a
# line with the node count, then one "u v" line per edge with u < v in
# lexicographic order.  Writing then reading is the identity.

FORMAT_HEADER = "# qtree-format=1"


def edge_list_text(g: TreeGraph) -> str:
    lines = [FORMAT_HEADER]
    if g.label:
        lines.append(f"# label={g.label}")
    lines.append(str(g.n))
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list_text(text: str) -> TreeGraph:
    label = ""
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, value = body.split("=", 1)
                if key.strip() == "label":
                    label = value.strip()
            continue
        try:
            parts = [int(token) for token in line.split()]
        except ValueError:
            raise InvalidParameterError(f"line {lineno}: non-integer token in {line!r}") from None
        if n is None:
            if len(parts) != 1:
                raise InvalidParameterError(f"line {lineno}: expected node count")
            n = parts[0]
            continue
        if len(parts) != 2:
            raise InvalidParameterError(f"line {lineno}: expected 'u v' edge")
        edges.append((parts[0], parts[1]))
    if n is None:
        raise InvalidParameterError("edge list has no node-count line")
    if len(edges) != n - 1:
        raise InvalidParameterError(
            f"edge list has {len(edges)} edges, expected {n - 1} for n={n}"
        )
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidParameterError(f"edge ({u}, {v}) out of range for n={n}")
        adj[u].append(v)
        adj[v].append(u)
    g = _finalize(adj, label)
    violation = validate_tree(g)
    if violation is not None:
        raise InvalidParameterError(f"edge list is not a valid tree: {violation}")
    return g


def write_edge_list(g: TreeGraph, path: str | Path) -> None:
    Path(path).write_text(edge_list_text(g), encoding="utf-8")


def read_edge_list(path: str | Path) -> TreeGraph:
    return parse_edge_list_text(Path(path).read_text(encoding="utf-8"))
