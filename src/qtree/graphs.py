"""Tree-network families and their structural statistics.

Generators cover chains, stars, dendrimers, Vicsek fractals and randomly
grown scale-free trees.  A tree is stored as its breadth-first parent
array: node 0 is the root, every other node's parent has a lower index,
and the children of each node are numbered consecutively in the order
of their parents.  Repeated construction with identical parameters
yields identical edge lists.

Reading an edge list renumbers its nodes breadth-first from node 0,
visiting neighbours in ascending order.  This is the identity on the
files qtree writes; for any other file, node indices in the results
(such as `StructuralStats.leaf_ids` and `parent_ids`) refer to that
numbering.

Structural statistics split the nodes into leaves (functionality 1),
parents (non-leaves adjacent to at least one leaf) and the rest; these
counts drive the structural transport-efficiency bounds.
"""
from __future__ import annotations

import math
import os
from collections.abc import Iterator, Sequence
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError, NoParentsError, SizeLimitError

MAX_NODES_DEFAULT = 2_000_000

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class TreeGraph:
    """Undirected tree given by its breadth-first parent array.

    ``parents[0] = -1`` marks the root; every other node v has parent
    ``parents[v] < v``, and ``parents[1:]`` is nondecreasing.  The
    functionality (degree) of v is its child count, plus one for v > 0.
    Instances are immutable and safe to share across workers.
    """

    parents: tuple[int, ...]
    label: str = ""

    @property
    def n(self) -> int:
        return len(self.parents)

    def degrees(self) -> list[int]:
        degrees = np.bincount(np.array(self.parents[1:], dtype=np.int64), minlength=self.n)
        degrees[1:] += 1
        return degrees.tolist()

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically: (parent, child)."""
        return list(zip(self.parents[1:], range(1, self.n)))


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


def _check_size(label: str, n: int) -> None:
    if n > MAX_NODES_DEFAULT:
        # str() refuses ints of more than 4300 digits
        count = n if n.bit_length() <= 64 else "more than 2^64"
        raise SizeLimitError(f"{label} has {count} nodes, above the limit {MAX_NODES_DEFAULT}")


def _check_generation(label: str, g: int) -> None:
    # dendrimers and Vicsek fractals have more than 2^g nodes: refusing a large g
    # first keeps their exact count, a number of about g log2(f) bits, from being formed
    if g > MAX_NODES_DEFAULT.bit_length():
        raise SizeLimitError(f"{label} has more than 2^{min(g, 64)} nodes, "
                             f"above the limit {MAX_NODES_DEFAULT}")


def _bfs_parents(n: int, u, v) -> tuple[int, ...]:
    """Breadth-first parent array of the graph on nodes 0..n-1 with edges (u[i], v[i]).

    Nodes are renumbered in the order a breadth-first search from node 0
    reaches them, visiting each node's neighbours in ascending order.
    Refuses a graph in which some node is not reached; given n - 1
    edges, that is exactly a graph that is not a tree (a cycle, a
    self-loop or a repeated edge leaves it short of an edge).
    """
    ends = np.concatenate((u, v))
    others = np.concatenate((v, u))
    by_end = np.lexsort((others, ends))
    nbrs = others[by_end].tolist()
    starts = np.searchsorted(ends[by_end], np.arange(n + 1)).tolist()
    new = [-1] * n
    new[0] = 0
    order = [0]
    parents = [-1]
    for p, old in enumerate(order):  # the list grows while it is walked
        for w in nbrs[starts[old]:starts[old + 1]]:
            if new[w] < 0:
                new[w] = len(order)
                order.append(w)
                parents.append(p)
    if len(order) < n:
        raise InvalidParameterError(
            f"edge list is not a tree: {n - len(order)} of its {n} nodes are not connected "
            "to node 0 (with n - 1 edges, a cycle, self-loop or repeated edge does this)"
        )
    return tuple(parents)


def generate_chain(n: int) -> TreeGraph:
    """Path graph 0-1-...-(n-1)."""
    if n < 2:
        raise InvalidParameterError(f"chain needs n >= 2, got {n}")
    label = f"chain(n={n})"
    _check_size(label, n)
    return TreeGraph(tuple(range(-1, n - 1)), label)


def generate_star(n: int) -> TreeGraph:
    """Star with center 0 and n-1 leaves."""
    if n < 2:
        raise InvalidParameterError(f"star needs n >= 2, got {n}")
    label = f"star(n={n})"
    _check_size(label, n)
    return TreeGraph((-1,) + (0,) * (n - 1), label)


def generate_dendrimer(f: int, g: int) -> TreeGraph:
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
    label = f"dendrimer(f={f},g={g})"
    _check_generation(label, g)
    n_total = 1 + f * ((f - 1) ** g - 1) // (f - 2)
    _check_size(label, n_total)
    n_inner = n_total - f * (f - 1) ** (g - 1)  # all but the depth-g leaves
    children = np.full(n_inner, f - 1)
    children[0] = f
    return TreeGraph((-1, *np.repeat(np.arange(n_inner), children).tolist()), label)


def generate_vicsek(f: int, g: int) -> TreeGraph:
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
    label = f"vicsek(f={f},g={g})"
    _check_generation(label, g)
    _check_size(label, (f + 1) ** g)
    parents = (-1,) + (0,) * f
    for _ in range(g - 1):
        m = len(parents)
        # the center's f children are nodes 1..f; arm[v] is the one v hangs from
        arm = list(range(m))
        for v in range(f + 1, m):
            arm[v] = arm[parents[v]]
        children = np.bincount(parents[1:], minlength=m)
        leaves = np.flatnonzero(children == 0)  # node 0, the center, has f children
        _, first = np.unique(np.array(arm)[leaves], return_index=True)
        arm_leaves = leaves[first]  # lowest-index leaf of arms 1..f
        copies = np.arange(f + 1)[:, None] * m
        u = (np.array(parents[1:]) + copies).ravel()
        v = (np.arange(1, m) + copies).ravel()
        u = np.concatenate((u, arm_leaves))
        v = np.concatenate((v, copies[1:, 0] + leaves[0]))
        parents = _bfs_parents(m * (f + 1), u, v)
    return TreeGraph(parents, label)


def _check_sft_size(n: int, f_max: int) -> None:
    _check_size(f"sft(n={n})", n)
    if n < 3:
        raise InvalidParameterError(f"sft needs n >= 3, got {n}")
    if not 2 <= f_max <= n - 1:
        raise InvalidParameterError(f"sft needs 2 <= f_max <= n-1, got f_max={f_max}")


def _sft_cdf(n: int, s: float, f_max: int) -> np.ndarray:
    """Checked CDF of P(f) ~ f^(-s) on {2, ..., f_max}; entry k is P(f <= k + 2)."""
    _check_sft_size(n, f_max)
    if not (s > 1 and math.isfinite(s)):
        raise InvalidParameterError(f"sft needs a finite scaling exponent s > 1, got {s}")
    support = np.arange(2, f_max + 1, dtype=np.float64)
    weights = support ** (-float(s))
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    cdf[-1] = 1.0
    return cdf


# NumPy's SeedSequence (pool of four 32-bit words) and PCG64 seeding, as
# fixed by numpy/random/bit_generator.pyx and pcg64.h, hashed for a whole
# array of seeds at once.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_keys(init: int, mult: int) -> Iterator[tuple[np.uint32, np.uint32]]:
    """The (xor, multiply) constants of successive SeedSequence hash steps."""
    key = init
    while True:
        following = key * mult & _MASK32
        yield np.uint32(key), np.uint32(following)
        key = following


def _hashmix(value: np.ndarray, keys) -> np.ndarray:
    xor_key, mul_key = next(keys)
    value = (value ^ xor_key) * mul_key
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
    return result ^ (result >> 16)


def _seed_state_words(seeds: np.ndarray) -> list[np.ndarray]:
    """SeedSequence(seed).generate_state(4, np.uint64) of each uint64 seed, as four arrays.

    The entropy is the seed's low and high 32-bit words; a seed below
    2^32 has one word, and the zero padding of the pool gives it the
    same state, so every seed takes the same path.
    """
    keys = _hash_keys(0x43B0D7E5, 0x931E8875)
    zero = np.zeros(len(seeds), dtype=np.uint32)
    entropy = [(seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32), zero, zero]
    pool = [_hashmix(word, keys) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], keys))
    keys = _hash_keys(0x8B51F9DD, 0x58F38DED)
    words = [_hashmix(pool[k % 4], keys).astype(np.uint64) for k in range(8)]
    return [low | high << 32 for low, high in zip(words[::2], words[1::2])]


def _uniform_rows(seeds: Sequence[int] | np.ndarray, n: int) -> np.ndarray:
    """Row i is the first n uniform draws of NumPy's default generator seeded with seeds[i].

    That generator is PCG64 seeded through SeedSequence(seeds[i]); the
    seed hashing runs on the whole array, and one reused PCG64 is set to
    each row's state and draws the row in one call.
    """
    w0, w1, w2, w3 = (w.tolist() for w in _seed_state_words(np.asarray(seeds, dtype=np.uint64)))
    draws = np.empty((len(w0), n))
    bits = np.random.PCG64(0)
    generator = np.random.Generator(bits)
    for row, a, b, c, d in zip(draws, w0, w1, w2, w3):
        # pcg64_set_seed: inc = 2 (c 2^64 + d) + 1 and state = (a 2^64 + b + inc) M + inc
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        state = ((a << 64 | b) + inc) * _PCG64_MULT + inc & _MASK128
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        generator.random(out=row)
    return draws


def _grow_sft_parents(cdf: np.ndarray, n: int, seeds: Sequence[int] | np.ndarray) -> np.ndarray:
    """Parent arrays of len(seeds) scale-free trees on n nodes, one row per seed.

    Row i holds the parents of nodes 1..n-1 of the tree grown from
    seeds[i]: node j's target functionality comes from the j-th uniform
    draw of `np.random.Generator(np.random.PCG64(seeds[i]))`, NumPy's
    default generator, on the installed NumPy; the SeedSequence hashing
    and PCG64 seeding run in NumPy over all seeds at once
    (`_uniform_rows`).  The open slots are numbered in node order, and
    node c fills slot c - 1, so its parent is the node owning that slot.
    A row does not depend on the other seeds of the call.
    """
    capacity = 2 + np.searchsorted(cdf, _uniform_rows(seeds, n), side="right")
    capacity[:, 1:] -= 1  # one bond per non-root node goes to its parent
    # node k owns slots ends[k - 1]..ends[k] - 1; only the first n - 1 slots are filled
    ends = np.minimum(np.cumsum(capacity, axis=1), n - 1)
    owned = np.diff(ends, axis=1, prepend=0)
    nodes = np.broadcast_to(np.arange(n), owned.shape)
    return np.repeat(nodes.ravel(), owned.ravel()).reshape(len(owned), n - 1)


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
    if f_max is None:
        f_max = n - 1
    cdf = _sft_cdf(n, s, f_max)
    seed = int(seed) & _MASK64
    parents = _grow_sft_parents(cdf, n, [seed])[0]
    return TreeGraph((-1, *parents.tolist()),
                     f"sft(n={n},s={float(s)!r},f_max={f_max},seed={seed})")


class _TreeCounts(NamedTuple):
    """Leaf/parent counts of a block of trees on n nodes each.

    Per-node fields have shape (trees, n); per-tree fields have shape
    (trees,).  Averages of a tree without parents are not numbers.
    """

    is_leaf: np.ndarray
    is_parent: np.ndarray
    delta: np.ndarray  # non-leaf neighbors minus one
    n_leaves: np.ndarray
    n_parents: np.ndarray
    avg_f_nonleaf: np.ndarray
    avg_f_minus_delta_parents: np.ndarray
    avg_f_parents: np.ndarray


def _count_leaves_and_parents(parents: np.ndarray, n: int) -> _TreeCounts:
    """Leaves, parents and functionality averages of trees given by parent arrays.

    Row i of the (trees, n - 1) array holds the parents of nodes 1..n-1
    of tree i.  Leaves have functionality 1; parents are non-leaves with
    at least one leaf neighbor.
    """
    trees = parents.shape[0]
    flat = (parents + (np.arange(trees) * n)[:, None]).ravel()  # parent ids across the block
    degrees = np.bincount(flat, minlength=trees * n).reshape(trees, n)
    degrees[:, 1:] += 1  # the bond to the parent
    is_leaf = degrees == 1
    leaf_nbrs = np.bincount(flat[is_leaf[:, 1:].ravel()], minlength=trees * n).reshape(trees, n)
    leaf_nbrs[:, 1:] += is_leaf.ravel()[flat].reshape(trees, n - 1)  # a root of functionality 1
    is_parent = ~is_leaf & (leaf_nbrs > 0)
    delta = degrees - leaf_nbrs - 1
    n_leaves = is_leaf.sum(axis=1)
    n_parents = is_parent.sum(axis=1)
    sum_f_parents = np.where(is_parent, degrees, 0).sum(axis=1)
    sum_delta = np.where(is_parent, delta, 0).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _TreeCounts(
            is_leaf=is_leaf,
            is_parent=is_parent,
            delta=delta,
            n_leaves=n_leaves,
            n_parents=n_parents,
            avg_f_nonleaf=(2 * (n - 1) - n_leaves) / (n - n_leaves),
            avg_f_minus_delta_parents=(sum_f_parents - sum_delta) / n_parents,
            avg_f_parents=sum_f_parents / n_parents,
        )


def structural_stats(g: TreeGraph) -> StructuralStats:
    """Exact leaf/parent counts and restricted functionality averages."""
    c = _count_leaves_and_parents(np.array([g.parents[1:]], dtype=np.int64), g.n)
    if not c.n_parents[0]:
        raise NoParentsError(
            f"graph {g.label or '<unlabeled>'} with n={g.n} has no parent nodes"
        )
    parent_ids = np.flatnonzero(c.is_parent[0])
    return StructuralStats(
        n_leaves=int(c.n_leaves[0]),
        n_parents=int(c.n_parents[0]),
        avg_f_nonleaf=float(c.avg_f_nonleaf[0]),
        avg_f_minus_delta_parents=float(c.avg_f_minus_delta_parents[0]),
        avg_f_parents=float(c.avg_f_parents[0]),
        per_node_delta=tuple(c.delta[0, parent_ids].tolist()),
        leaf_ids=tuple(np.flatnonzero(c.is_leaf[0]).tolist()),
        parent_ids=tuple(parent_ids.tolist()),
    )


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
    """The tree of an edge list, its nodes renumbered breadth-first from node 0."""
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
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidParameterError(f"edge ({u}, {v}) out of range for n={n}")
    ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return TreeGraph(_bfs_parents(n, ends[:, 0], ends[:, 1]), label)


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write text as UTF-8 so that path holds either its old content or all of text.

    The text goes to a temporary file beside path, which then replaces
    path in one rename; on any failure the temporary file is removed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            tmp.unlink()
        raise


def write_edge_list(g: TreeGraph, path: str | Path) -> None:
    write_text_atomic(path, edge_list_text(g))


def read_edge_list(path: str | Path) -> TreeGraph:
    return parse_edge_list_text(Path(path).read_text(encoding="utf-8"))
