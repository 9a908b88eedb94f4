"""Tree-network families and their structural statistics.

Generators cover chains, stars, dendrimers, Vicsek fractals and randomly
grown scale-free trees.  A tree is stored as its breadth-first parent
array, one read-only int64 numpy array that every layer reads: node 0
is the root, every other node's parent has a lower index, and the
children of each node are numbered consecutively in the order of their
parents.  Repeated construction with identical parameters yields
identical edge lists.

Reading an edge list renumbers its nodes breadth-first from node 0,
visiting neighbours in ascending order.  A file whose edges are
(parents[v], v) of a breadth-first parent array, as in every file qtree
writes, is already so numbered and is read as it is.

Structural statistics split the nodes into leaves (functionality 1),
parents (non-leaves adjacent to at least one leaf) and the rest.  The
structural transport-efficiency bounds need five totals of a tree: the
leaf and parent counts and three functionality averages.  One record,
`StructuralStats`, holds them with n, for one tree (`structural_stats`)
or for a block of scale-free trees at once (`_count_sft_trees`).
"""
from __future__ import annotations

import ctypes
import functools
import math
import os
import re
from collections.abc import Iterable, Iterator, Sequence
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GeneratorLayoutError, InvalidParameterError, NoParentsError, SizeLimitError

MAX_NODES_DEFAULT = 2_000_000

# Values per block of every array qtree cuts into blocks: edge ends and CSV cells as
# they are formatted, the time series' phases, a sweep block's nodes, a task's PCG64
# state words and the plan's `.tolist()` chunks.  A block's NumPy arrays, of 8 or 16
# bytes per value, stay well under the 4 MiB from which NumPy asks for transparent huge
# pages, so peak memory does not depend on free huge pages, and no output is held whole.
_BLOCK = 1 << 16

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class TreeGraph:
    """Undirected tree given by its breadth-first parent array.

    ``parents[0] = -1`` marks the root; every other node v has parent
    ``parents[v] < v``, and ``parents[1:]`` is nondecreasing.  The
    functionality (degree) of v is its child count, plus one for v > 0.
    ``parents`` is a read-only int64 numpy array, copied once from the
    integer sequence given.  ``==`` compares the parents by value and
    the label, and equal graphs hash equal.  Instances are immutable
    and safe to share across workers: a pickled or copied graph is
    rebuilt through the constructor, so its parents stay read-only.
    """

    parents: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        parents = np.array(self.parents, dtype=np.int64)
        parents.flags.writeable = False
        object.__setattr__(self, "parents", parents)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TreeGraph):
            return NotImplemented
        return self.label == other.label and np.array_equal(self.parents, other.parents)

    def __hash__(self) -> int:
        return hash((self.label, self.parents.tobytes()))

    def __reduce__(self):
        return TreeGraph, (self.parents, self.label)

    @property
    def n(self) -> int:
        return len(self.parents)

    def degrees(self) -> list[int]:
        degrees = np.bincount(self.parents[1:], minlength=self.n)
        degrees[1:] += 1
        return degrees.tolist()

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically: (parent, child)."""
        return list(zip(self.parents[1:].tolist(), range(1, self.n)))


@dataclass(frozen=True)
class StructuralStats:
    """Leaf/parent counts and restricted functionality averages of trees on n nodes.

    The fields after n are one tree's Python scalars, or a block's
    arrays of shape (trees,).  A parent's delta is its number of non-leaf
    neighbors minus one (a star center has delta = -1);
    avg_f_minus_delta_parents averages f - delta over the parents.
    """

    n: int
    n_leaves: int | np.ndarray
    n_parents: int | np.ndarray
    avg_f_nonleaf: float | np.ndarray
    avg_f_minus_delta_parents: float | np.ndarray
    avg_f_parents: float | np.ndarray


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


def _bfs_parents(n: int, u, v) -> np.ndarray:
    """Breadth-first parent array of the graph on nodes 0..n-1 with edges (u[i], v[i]).

    Nodes are renumbered in the order a breadth-first search from node 0
    reaches them, visiting each node's neighbours in ascending order.
    Refuses a graph in which some node is not reached; given n - 1
    edges, that is exactly a graph that is not a tree (a cycle, a
    self-loop or a repeated edge leaves it short of an edge).  In a
    tree, every edge joins a node to its parent, the end reached first.
    """
    ends = np.concatenate((u, v))
    others = np.concatenate((v, u))
    by_end = np.lexsort((others, ends))
    nbrs = others[by_end].tolist()
    starts = np.searchsorted(ends[by_end], np.arange(n + 1)).tolist()
    new = [-1] * n
    new[0] = 0
    order = [0]
    for old in order:  # the list grows while it is walked
        for w in nbrs[starts[old]:starts[old + 1]]:
            if new[w] < 0:
                new[w] = len(order)
                order.append(w)
    if len(order) < n:
        raise InvalidParameterError(
            f"edge list is not a tree: {n - len(order)} of its {n} nodes are not connected "
            "to node 0 (with n - 1 edges, a cycle, self-loop or repeated edge does this)"
        )
    new = np.array(new)
    parents = np.full(n, -1)
    parents[np.maximum(new[u], new[v])] = np.minimum(new[u], new[v])
    return parents


def generate_chain(n: int) -> TreeGraph:
    """Path graph 0-1-...-(n-1)."""
    if n < 2:
        raise InvalidParameterError(f"chain needs n >= 2, got {n}")
    label = f"chain(n={n})"
    _check_size(label, n)
    return TreeGraph(np.arange(-1, n - 1), label)


def generate_star(n: int) -> TreeGraph:
    """Star with center 0 and n-1 leaves."""
    if n < 2:
        raise InvalidParameterError(f"star needs n >= 2, got {n}")
    label = f"star(n={n})"
    _check_size(label, n)
    return TreeGraph(np.repeat([-1, 0], [1, n - 1]), label)


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
    return TreeGraph(np.concatenate(([-1], np.repeat(np.arange(n_inner), children))), label)


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
    parents = np.repeat([-1, 0], [1, f])
    for _ in range(g - 1):
        m = len(parents)
        # the center's f children are nodes 1..f; arm[v] is the one v hangs from
        arm = list(range(m))
        parent_of = parents.tolist()
        for v in range(f + 1, m):
            arm[v] = arm[parent_of[v]]
        children = np.bincount(parents[1:], minlength=m)
        leaves = np.flatnonzero(children == 0)  # node 0, the center, has f children
        _, first = np.unique(np.array(arm)[leaves], return_index=True)
        arm_leaves = leaves[first]  # lowest-index leaf of arms 1..f
        copies = np.arange(f + 1)[:, None] * m
        u = (parents[1:] + copies).ravel()
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


def _check_power_law(s: float) -> None:
    """Refuse an exponent s of the power law f^(-s) on f >= 2 that is not finite and above 1,
    or whose largest weight, 2^(-s), underflows to zero, as then does every sum of weights."""
    if not (s > 1 and math.isfinite(s)):
        raise InvalidParameterError(f"scaling exponent s must be finite and exceed 1, got {s}")
    if not 2.0 ** -s > 0:
        raise InvalidParameterError(
            f"weights f^(-s) underflow to zero for s={s}; the largest usable s is about 1074")


def _sft_cdf(s: float, f_max: int) -> np.ndarray:
    """CDF of P(f) ~ f^(-s) on {2, ..., f_max}, with f_max >= 2; entry k is P(f <= k + 2)."""
    _check_power_law(s)
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
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG64_MULT_LOW, _PCG64_MULT_HIGH = _PCG64_MULT & _MASK64, _PCG64_MULT >> 64


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


def _pcg64_states(seeds: np.ndarray) -> np.ndarray:
    """The state of `PCG64(seed)` for each uint64 seed, one row of four uint64 words per seed.

    The words are state low, state high, inc low and inc high.  With the
    SeedSequence words (a, b, c, d), pcg64_set_seed sets inc = 2 (c 2^64
    + d) + 1 and state = (a 2^64 + b + inc) M + inc mod 2^128; here in
    wrapping uint64 arithmetic over all seeds at once.
    """
    a, b, c, d = _seed_state_words(seeds)
    states = np.empty((len(seeds), 4), dtype=np.uint64)
    inc_low, inc_high = states[:, 2], states[:, 3]
    inc_low[:] = d << 1 | 1
    inc_high[:] = c << 1 | d >> 63
    x_low = b + inc_low
    x_high = a + inc_high + (x_low < b)
    # x M mod 2^128: the full product of the low words from their 32-bit halves,
    # and the cross terms, which only reach the high word, wrapped
    x0, x1 = x_low & _MASK32, x_low >> 32
    m0, m1 = _PCG64_MULT_LOW & _MASK32, _PCG64_MULT_LOW >> 32
    x0_m1, x1_m0 = x0 * m1, x1 * m0
    middle = (x0 * m0 >> 32) + (x0_m1 & _MASK32) + (x1_m0 & _MASK32)
    product_high = (x1 * m1 + (x0_m1 >> 32) + (x1_m0 >> 32) + (middle >> 32)
                    + x_high * _PCG64_MULT_LOW + x_low * _PCG64_MULT_HIGH)
    product_low = x_low * _PCG64_MULT_LOW
    states[:, 0] = product_low + inc_low
    states[:, 1] = product_high + inc_high + (states[:, 0] < product_low)
    return states


def _pcg64_state_words(bits: np.random.PCG64) -> ctypes.Array:
    """A view of the four uint64 words of `bits`' state: state low, state high, inc low, inc high.

    `bits.ctypes.state_address` is the address of NumPy's pcg64_state,
    whose first field points to the 128-bit state and increment (pcg64.h,
    native 128-bit integers on a little-endian machine).  That layout is
    not NumPy API; `_check_pcg64_layout` verifies it.  The caller keeps
    `bits` alive while it uses the view.
    """
    address = ctypes.c_void_p.from_address(bits.ctypes.state_address).value
    return (ctypes.c_uint64 * 4).from_address(address)


@functools.cache
def _check_pcg64_layout() -> None:
    """Refuse a NumPy whose PCG64 state does not read, through the view, as its `state` dict."""
    bits = np.random.PCG64(0)
    expected = bits.state["state"]
    state, inc = expected["state"], expected["inc"]
    if list(_pcg64_state_words(bits)) != [state & _MASK64, state >> 64, inc & _MASK64, inc >> 64]:
        raise GeneratorLayoutError(
            f"NumPy {np.__version__} does not lay out the PCG64 state as four little-endian "
            "uint64 words behind its state pointer; qtree cannot seed scale-free trees on it")


def _uniform_rows(seeds: Sequence[int] | np.ndarray, n: int, block: int) -> Iterator[np.ndarray]:
    """The first n uniform draws of NumPy's default generator seeded with each seed, one
    row per seed, in arrays of `block` consecutive rows (the last may hold fewer).

    That generator is PCG64 seeded through SeedSequence(seed); the
    seeding runs once, on the whole seed array (`_pcg64_states`), and
    each row's state is written through the state pointer of one reused
    PCG64, which then draws the row in one call.
    """
    _check_pcg64_layout()
    states = _pcg64_states(np.asarray(seeds, dtype=np.uint64))
    bits = np.random.PCG64(0)
    random = np.random.Generator(bits).random
    state = _pcg64_state_words(bits)
    for start in range(0, len(states), block):
        rows = states[start:start + block].tolist()
        draws = np.empty((len(rows), n))
        # random() draws whole 64-bit words, so the buffered 32-bit half behind the state
        # stays unset
        for row, words in zip(draws, rows):
            state[:] = words
            random(out=row)
        yield draws


_BUCKETS = 4096  # a power of two, so u * _BUCKETS and every bucket edge b / _BUCKETS are exact


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """Chen & Asau's guide table (AIIE Trans. 6 (1974) 163) of a CDF, as slot counts.

    With c_b = np.searchsorted(cdf, b / _BUCKETS, side="right"), entry b,
    for b = 0.._BUCKETS - 1, is 1 + c_b when bucket [b, b + 1) / _BUCKETS
    holds no CDF entry (c_b = c_{b+1}), and 0 when it holds one.
    """
    counts = np.searchsorted(cdf, np.arange(_BUCKETS + 1) / _BUCKETS, side="right")
    return np.where(counts[1:] == counts[:-1], counts[:-1] + 1, 0)


def _draw_functionalities(cdf: np.ndarray, table: np.ndarray, u: np.ndarray) -> np.ndarray:
    """np.searchsorted(cdf, u, side="right") + 1 of each draw u in [0, 1), by the guide
    table of cdf; u is scaled by _BUCKETS in place.

    That is 1 + d_j, the slots a node other than the root opens.  The
    count does not decrease in u, so a draw in a bucket that holds no
    CDF entry takes the bucket's table entry; only the draws whose entry
    is 0 are searched, each divided back by _BUCKETS (exact, as it is a
    power of two).
    """
    u *= _BUCKETS
    slots = table[u.astype(np.intp)]
    searched = np.flatnonzero(slots == 0)
    slots.flat[searched] = np.searchsorted(cdf, u.flat[searched] / _BUCKETS, side="right") + 1
    return slots


def _grow_sft_ends(cdf: np.ndarray, n: int, seeds: Sequence[int] | np.ndarray,
                   block: int) -> Iterator[np.ndarray]:
    """The running slot sums of len(seeds) scale-free trees on n nodes, one int64 row per
    seed, in arrays of `block` consecutive rows (the last may hold fewer).

    Node j's target functionality is 2 + d_j, with d_j from the j-th
    uniform draw of `np.random.Generator(np.random.PCG64(seeds[i]))`,
    NumPy's default generator, on the installed NumPy.  What does not
    depend on the rows runs once per call: the SeedSequence hashing and
    PCG64 seeding of all seeds, the one reused generator
    (`_uniform_rows`) and the guide table of cdf; only the per-node
    arrays, the draws and the sums, are made per block.

    The root opens 2 + d_0 slots and every other node, less the bond to
    its parent, 1 + d_j.  A block is one cumulative sum C of the 1 + d_j
    over the whole block, flat in row order, so it strictly increases
    across rows.  Row r's slot prefix sums are E_k = C[r n + k] -
    C[r n - 1] + 1, with C[-1] = 0: E_k is the slots opened by nodes
    0..k, unclipped, so E_k >= k + 2.  Node c fills slot c - 1, first in
    first out, so node k's children are the nodes E_{k-1} + 1..E_k
    below n, with E_{-1} = 0.  E does not depend on the other seeds of
    the call or on the block size; C restarts at each block.
    """
    table = _guide_table(cdf)
    for draws in _uniform_rows(seeds, n, block):
        sums = _draw_functionalities(cdf, table, draws)
        # in place, in int64: C < block n f_max, which passes 2^31 for large n
        np.cumsum(sums, out=sums.reshape(-1))
        yield sums


def _row_bases(sums: np.ndarray) -> np.ndarray:
    """C[r n - 1] of each row r of a block's running slot sums, with C[-1] = 0."""
    bases = np.zeros(len(sums), dtype=sums.dtype)
    bases[1:] = sums[:-1, -1]
    return bases


def _parent_arrays(sums: np.ndarray) -> np.ndarray:
    """Breadth-first parent arrays of trees given by a block's running slot sums
    (`_grow_sft_ends`), one row per tree.

    Node k's child count is min(E_k, n - 1) - min(E_{k-1}, n - 1), and
    node k is the parent of the next that many nodes after those of
    nodes 0..k-1; each row starts with the root's -1.
    """
    trees, n = sums.shape
    clipped = sums - (_row_bases(sums) - 1)[:, None]
    np.minimum(clipped, n - 1, out=clipped)
    children = clipped.copy()
    children[:, 1:] -= clipped[:, :-1]
    parents = np.full((trees, n), -1)
    nodes = np.broadcast_to(np.arange(n), children.shape)
    parents[:, 1:] = np.repeat(nodes.ravel(), children.ravel()).reshape(trees, n - 1)
    return parents


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
    _check_sft_size(n, f_max)
    cdf = _sft_cdf(s, f_max)
    seed = int(seed) & _MASK64
    (sums,) = _grow_sft_ends(cdf, n, [seed], 1)
    parents = _parent_arrays(sums)[0]
    return TreeGraph(parents, f"sft(n={n},s={float(s)!r},f_max={f_max},seed={seed})")


def _tree_totals(n: int, n_leaves, n_parents, sum_f_parents, sum_delta) -> StructuralStats:
    """The averages of trees on n nodes from their integer counts and sums over the parents."""
    return StructuralStats(
        n=n,
        n_leaves=n_leaves,
        n_parents=n_parents,
        avg_f_nonleaf=(2 * (n - 1) - n_leaves) / (n - n_leaves),
        avg_f_minus_delta_parents=(sum_f_parents - sum_delta) / n_parents,
        avg_f_parents=sum_f_parents / n_parents,
    )


def _sft_slot_counts(sums: np.ndarray) -> np.ndarray:
    """L, P and E_{P-1} of scale-free trees given by a block's running slot sums
    (`_grow_sft_ends`), one column per tree.

    L = #{k : E_k < n - 1} and P = #{k : E_k <= L}; `_count_sft_trees`
    gives every count and average from them.  C increases strictly, so
    with row r's base C[r n - 1] = B, L is where B + n - 2 sorts into C,
    side left, less r n: the row holds every entry below it (E_{n-1} >=
    n + 1), and every earlier entry is at most B.  P is likewise where
    B + L - 1 sorts, side right, less r n, which is negative when L = 0
    (B - 1 sorts before C[r n - 1] = B) and then clamped at 0.  Where
    P = 0, the third row holds no E_{P-1}; `_count_sft_trees` replaces
    it by E_{-1} = 0.  The columns of several blocks' calls can be
    joined and counted at once.
    """
    trees, n = sums.shape
    flat = sums.reshape(-1)
    bases = _row_bases(sums)
    starts = np.arange(0, trees * n, n)
    counts = np.empty((3, trees), dtype=np.int64)
    last, first, before = counts
    last[:] = np.searchsorted(flat, bases + (n - 2)) - starts
    found = np.maximum(np.searchsorted(flat, bases + (last - 1), side="right"), starts)
    first[:] = found - starts
    before[:] = flat[found - 1] - bases + 1
    return counts


def _count_sft_trees(n: int, slot_counts: np.ndarray) -> StructuralStats:
    """Leaf/parent counts and averages of scale-free trees on n nodes from their
    `_sft_slot_counts`.

    Every node opens at least one slot, so E strictly increases and the
    nodes with children form a prefix: node k has children exactly when
    E_{k-1} < n - 1.  With L = #{k : E_k < n - 1}, nodes 0..L are the
    non-leaves and L + 1..n - 1 the leaves.  A non-leaf k has a leaf
    child exactly when E_k > L, so with P = #{k : E_k <= L} the parents
    are P..L.  Their children are nodes E_{P-1} + 1..n - 1, so their
    functionalities sum to (n - 1 - E_{P-1}) + (L - P + 1) - [P = 0],
    the last terms counting the bonds to their parents.  Only node P
    can have non-leaf children, nodes E_{P-1} + 1..L; every other parent
    has delta = 0, so delta sums to (L - E_{P-1}) - [P = 0].  An SFT
    has n >= 3 nodes, so P <= L and every tree has a parent.
    """
    last, first, before = slot_counts
    root = first == 0
    before = np.where(root, 0, before)  # E_{P-1}, with E_{-1} = 0
    n_parents = last - first + 1
    return _tree_totals(n, n - 1 - last, n_parents,
                        n - 1 - before + n_parents - root, last - before - root)


def structural_stats(g: TreeGraph) -> StructuralStats:
    """Exact leaf/parent counts and restricted functionality averages."""
    below = g.parents[1:]
    degrees = np.bincount(below, minlength=g.n)
    degrees[1:] += 1  # the bond to the parent
    is_leaf = degrees == 1
    leaf_nbrs = np.bincount(below[is_leaf[1:]], minlength=g.n)
    leaf_nbrs[1:] += is_leaf[below]  # a root of functionality 1 is node 1's leaf neighbor
    parent_ids = np.flatnonzero(~is_leaf & (leaf_nbrs > 0))
    if not len(parent_ids):
        raise NoParentsError(
            f"graph {g.label or '<unlabeled>'} with n={g.n} has no parent nodes"
        )
    f_parents = degrees[parent_ids]
    delta = f_parents - leaf_nbrs[parent_ids] - 1
    return _tree_totals(g.n, int(np.count_nonzero(is_leaf)), len(parent_ids),
                        int(f_parents.sum()), int(delta.sum()))


# --- edge-list text format -------------------------------------------------
#
# Optional "# key=value" header comments (format version, label), then a
# line with the node count, then one "u v" line per edge with u < v in
# lexicographic order.  Writing then reading is the identity.

FORMAT_HEADER = "# qtree-format=1"

# comment lines, then the count line; in printable ASCII, lines end only at "\n", as
# they do for the line scan
_PLAIN_HEAD = re.compile(r"(?:#[\t -~]*\n)*[0-9]+\n")


def edge_list_text(g: TreeGraph) -> str:
    return "".join(_edge_list_parts(g))


def _edge_list_parts(g: TreeGraph) -> Iterator[str]:
    """The edge list of g in parts: the header lines, then the lines of _BLOCK // 2 edges
    at a time."""
    label = f"# label={g.label}\n" if g.label else ""
    yield f"{FORMAT_HEADER}\n{label}{g.n}\n"
    for start in range(1, g.n, _BLOCK // 2):
        stop = min(start + _BLOCK // 2, g.n)
        ends = np.column_stack((g.parents[start:stop], np.arange(start, stop))).ravel().tolist()
        yield "%d %d\n" * (stop - start) % tuple(ends)


def parse_edge_list_text(text: str) -> TreeGraph:
    """The tree of an edge list, its nodes renumbered breadth-first from node 0.

    A node count below 1 or above MAX_NODES_DEFAULT is refused before
    any edge is read.  The edges of a text in the form qtree writes are
    tokenized in one call (`_plain_edges`); any other text goes through
    a line scan, which gives every refusal its message.  When the edges
    are exactly (parents[v], v) for a breadth-first parent array, that
    array is the renumbering; any other tree is renumbered by
    `_bfs_parents`.
    """
    head = _PLAIN_HEAD.match(text)
    ends = None
    if head:
        label, n, _ = _scan_lines(head.group())
        ends = _plain_edges(text[head.end():], n)
    if ends is None:
        label, n, edges = _scan_lines(text)
        if len(edges) != n - 1:
            raise InvalidParameterError(
                f"edge list has {len(edges)} edges, expected {n - 1} for n={n}"
            )
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParameterError(f"edge ({u}, {v}) out of range for n={n}")
        ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
    u, v = ends[:, 0], ends[:, 1]
    # parents never decrease and parents[v] < v; with u >= 0, that makes u[0] the root 0
    if np.array_equal(v, np.arange(1, n)) and np.all(u[1:] >= u[:-1]) and np.all(u <= v - 1):
        return TreeGraph(np.concatenate(([-1], u)), label)
    return TreeGraph(_bfs_parents(n, u, v), label)


def _scan_lines(text: str) -> tuple[str, int, list[tuple[int, int]]]:
    """Label, node count and edges of an edge list, read line by line and checked as read."""
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
            if n < 1:
                raise InvalidParameterError(
                    f"line {lineno}: node count must be at least 1, got {n}")
            _check_size("edge list", n)
            continue
        if len(parts) != 2:
            raise InvalidParameterError(f"line {lineno}: expected 'u v' edge")
        edges.append((parts[0], parts[1]))
    if n is None:
        raise InvalidParameterError("edge list has no node-count line")
    return label, n, edges


def _plain_edges(body: str, n: int) -> np.ndarray | None:
    """The (n - 1) x 2 edge array of body when it is n - 1 lines "u v\n" of decimal
    digits with 0 <= u, v < n; otherwise None, and the line scan reads the text.
    """
    if not body.isascii():
        return None
    # without its digits, the body is " \n" per edge; its last byte ends the last edge
    if body.encode("ascii").translate(None, b"0123456789") != b" \n" * (n - 1) or (
            n > 1 and body[-1] != "\n"):
        return None
    tokens = np.fromstring(body, dtype=np.int64, sep=" ")  # an empty token leaves it short
    if len(tokens) != 2 * (n - 1) or np.any(tokens >= n):  # above 2^63 reads as 2^63 - 1
        return None
    return tokens.reshape(-1, 2)


def write_text_atomic(path: str | Path, text: str | Iterable[str]) -> None:
    """Write text, one str or its parts in order, as UTF-8 so that path holds either its
    old content or all of text.

    The text goes to a temporary file beside path, one part at a time,
    and the file then replaces path in one rename; on any failure, one
    raised while the parts are made included, the temporary file is
    removed.  An OSError is raised again with its errno and strerror and
    with path, not the temporary file, as its file name.
    """
    dest = Path(path)
    tmp = dest.with_name(f".{dest.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, dest)
    except BaseException as exc:
        with suppress(OSError):
            tmp.unlink()
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


def read_edge_list(path: str | Path) -> TreeGraph:
    return parse_edge_list_text(Path(path).read_text(encoding="utf-8"))
