"""Test-session set-up shared by every test module, and the n-node references.

The program diagonalizes trees, and counts exact multiplicities, only
through their branch-symmetry quotients.  The n-node paths below are
the independent oracles the tests compare that against: the full
matrix, `numpy.linalg.eigh` of it, its binned spectrum, the
node-averaged return probability from the full eigenbasis, the squared
averaged return amplitude from the eigenvalues, and the exact
multiplicity from one Jacobs-Trevisan pass over every node.  Other
references replay earlier forms of the program's own steps: the time
series with every phase evaluated directly, degeneracy binning by a
loop over the sorted eigenvalues and by tiling each solve's eigenvalues
count times, the edge-list reader that scans line by line, the
quotient plan that joins branches through a queue, the return weights
that recurse through nested groups of branches, the leaf and parent
counts taken from parent arrays by `np.bincount`, the edge list and the
time-series CSV body written by one `%` formatting call each, and the spectrum
and sweep CSVs built as one list of lines each, as the spectral and
ensemble modules once wrote them.  It also holds
two checks the program itself does not need: the breadth-first
parent-array invariant and the explicit leaf-pair eigenvectors at E*;
and the `in_process_pool` fixture, which runs the sweep's process pool
in the test's own process and records what it mapped.  The reduction of a
sweep row replays as `ensemble` once made it: three lists of its values.
"""
import math
import os
from collections import Counter, deque
from dataclasses import astuple, dataclass, fields
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qtree.errors import InvalidParameterError, SizeLimitError
from qtree.ensemble import EnsembleResult, SweepRow
from qtree.graphs import _BLOCK, FORMAT_HEADER, StructuralStats, TreeGraph, _bfs_parents
from qtree.spectral import Spectrum, _as_fraction, _bin, _matrix, _quotient

SRC = str(Path(__file__).resolve().parents[1] / "src")


def pytest_configure(config):
    # the CLI tests start `python -m qtree` in child interpreters: they
    # import the package from this checkout, as the tests themselves do
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def in_process_pool(monkeypatch):
    """Replace `ensemble.ProcessPoolExecutor` by an executor that maps in this process, so
    patched functions and counters reach its tasks; returns the record of the processes
    each pool was asked for (`started`) and of every task it mapped, in order (`mapped`)."""
    from qtree import ensemble

    record = SimpleNamespace(started=[], mapped=[])

    class InProcessExecutor:
        def __init__(self, max_workers):
            record.started.append(max_workers)

        def map(self, fn, tasks):
            record.mapped.extend(tasks)
            return map(fn, tasks)

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(ensemble, "ProcessPoolExecutor", InProcessExecutor)
    return record


def result_reference(cfg, done) -> EnsembleResult:
    """The reduction of a row's task results (values, functionality averages) with a list
    of the values, one of the averages and one of the squared deviations, each square
    taken once per distinct deviation by Python's float power."""
    values_array = np.concatenate([v for v, _ in done])
    values = values_array.tolist()
    avg_fs = np.concatenate([a for _, a in done]).tolist()
    mean = math.fsum(values) / cfg.r
    if cfg.r > 1:
        deviations, inverse = np.unique(values_array - mean, return_inverse=True)
        squares = np.array([d ** 2 for d in deviations.tolist()])[inverse]
        std_error = math.sqrt(math.fsum(squares.tolist()) / (cfg.r - 1) / cfg.r)
    else:
        std_error = 0.0
    return EnsembleResult(mean, std_error, math.fsum(avg_fs) / cfg.r, cfg, tuple(values))


@dataclass(frozen=True)
class DenseReference:
    """Full eigendecomposition of a Hamiltonian's n x n matrix, eigenvalues ascending."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column k pairs with eigenvalues[k]

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def spectrum(self, tol_abs=None):
        """The eigenvalues binned as the program bins them (default tolerance when None)."""
        return _bin([(self.eigenvalues, 1)], tol_abs)


def dense_matrix(h) -> np.ndarray:
    """Unit couplings on bonds and V(f_j) on the diagonal."""
    matrix = np.diag([h.potential.value(f) for f in h.graph.degrees()])
    for u, v in h.graph.edges():
        matrix[u, v] = matrix[v, u] = 1.0
    return matrix


def dense_reference(h) -> DenseReference:
    matrix = dense_matrix(h)
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    return DenseReference(matrix, eigenvalues, eigenvectors)


def dense_return_probability(ref: DenseReference, times, chunk: int = 2048) -> np.ndarray:
    """Node-averaged return probability, computed from the full eigenbasis."""
    t = np.asarray(times, dtype=float)
    weights = ref.eigenvectors ** 2  # (node, mode) overlap probabilities
    out = np.empty(len(t))
    for start in range(0, len(t), chunk):
        block = t[start : start + chunk]
        phases = np.exp(-1j * np.outer(block, ref.eigenvalues))
        amp = phases @ weights.T  # (time, node) return amplitudes
        out[start : start + len(block)] = np.mean(np.abs(amp) ** 2, axis=1)
    return out


def dense_abs_alpha_sq(ref: DenseReference, times, chunk: int = 2048) -> np.ndarray:
    """|(1/n) Tr exp(-iHt)|^2, the squared mean of exp(-i lambda_k t) over all eigenvalues."""
    t = np.asarray(times, dtype=float)
    out = np.empty(len(t))
    for start in range(0, len(t), chunk):
        block = t[start : start + chunk]
        phases = np.exp(-1j * np.outer(block, ref.eigenvalues))
        out[start : start + len(block)] = np.abs(phases.mean(axis=1)) ** 2
    return out


def direct_time_series(rw, times) -> tuple[np.ndarray, np.ndarray]:
    """|alpha|^2 and pbar from ReturnWeights, each phase exp(-i lambda_j t) evaluated directly."""
    t = np.asarray(times, dtype=float)
    share = rw.nodes / rw.nodes.sum()
    abs_alpha_sq, pi_bar = np.empty(len(t)), np.empty(len(t))
    step = max(1, _BLOCK // len(rw.eigenvalues))
    for start in range(0, len(t), step):
        amp = np.exp(-1j * np.outer(t[start : start + step], rw.eigenvalues)) @ rw.weights.T
        block = slice(start, start + len(amp))
        abs_alpha_sq[block] = np.abs(amp @ share) ** 2
        pi_bar[block] = (np.abs(amp) ** 2) @ share
    return abs_alpha_sq, pi_bar


def bin_reference(w, tol_abs) -> tuple[tuple[float, int], ...]:
    """Classes of sorted eigenvalues w, split where a gap exceeds tol_abs; each its mean and size."""
    classes = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > tol_abs:
            classes.append((float(np.mean(w[start:i])), i - start))
            start = i
    return tuple(classes)


def tiled_spectrum_reference(solved, tol_abs=None) -> Spectrum:
    """Binned spectrum of solves (eigenvalues, count): each solve's eigenvalues tiled count
    times, all sorted, then binned by `bin_reference` (default tolerance when None)."""
    w = np.sort(np.concatenate([np.tile(values, count) for values, count in solved]))
    if tol_abs is None:
        tol_abs = 1e-8 * (float(w[-1] - w[0]) + 1.0)
    return Spectrum(bin_reference(w, tol_abs), len(w), tol_abs)


def parse_edge_list_text_reference(text: str) -> TreeGraph:
    """The tree of an edge list, its nodes renumbered breadth-first from node 0, read line
    by line into a list of edges; no node-count limit."""
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


def plan_reference(parents, size_limit):
    """The quotient plan of a breadth-first parent array: shapes interned from the last
    node, each node's children taken off a queue of the branches not yet joined."""
    parents = parents.tolist()
    pending: deque[tuple[int, int]] = deque()  # (parent, shape) per unjoined branch, BFS order
    ids: dict[tuple, int] = {}
    shapes: list[tuple] = []  # (functionality, groups, quotient size)
    for v in range(len(parents) - 1, -1, -1):
        children = []
        while pending and pending[0][0] == v:
            children.append(pending.popleft()[1])
        children.sort()
        key = (len(children) + (v > 0), tuple(children))
        sid = ids.setdefault(key, len(ids))
        if sid == len(shapes):
            groups = tuple(Counter(children).items())
            size = 1 + sum(shapes[c][2] for c, _ in groups)
            if size_limit is not None and size > size_limit:
                raise SizeLimitError(f"n={len(parents)}: a quotient of {size} positions exceeds "
                                     f"the dense solver limit {size_limit}, which "
                                     "`qtree chi --size-limit` raises")
            shapes.append((key[0], groups, size))
        pending.append((parents[v], sid))
    counts = {len(shapes) - 1: 1}
    occurrences = [0] * len(shapes)  # of each shape as a position, over all counted quotients
    for s in range(len(shapes) - 1, -1, -1):
        occurrences[s] += counts.get(s, 0)
        for c, k in shapes[s][1]:
            occurrences[c] += occurrences[s]
            if k > 1:
                counts[c] = counts.get(c, 0) + occurrences[s] * (k - 1)
    return tuple(f for f, _, _ in shapes), {s: (_quotient(s, shapes), counts[s]) for s in counts}


def return_weights_reference(h) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, W and Pi_q of h's return weights, from the quotients of
    `plan_reference` by a recursion memoized per shape: the quotient of s gives its
    positions x^2 / Pi_q, and a group of k branches of shape c under position p passes
    (1 - 1/k) / Pi_p times c's own weights to the positions of the group's copy."""
    on_site = [h.potential.value(f) for f in h.functionality]
    quotients = plan_reference(h.graph.parents, None)[1]
    memo = {}

    def branch_weights(s):
        if s not in memo:
            shape, _, ks, nodes = quotient = quotients[s][0]
            w, x = np.linalg.eigh(_matrix(quotient, on_site))
            nodes = np.array(nodes)
            blocks = {s: (w, x * x / nodes[:, None])}
            for start, (c, k) in enumerate(zip(shape, ks)):
                if k == 1:
                    continue
                # nodes[start] = k Pi_p, so this is (1 - 1/k) / Pi_p
                for d, (wd, block) in branch_weights(c)[1].items():
                    if d not in blocks:
                        blocks[d] = (wd, np.zeros((len(nodes), len(wd))))
                    blocks[d][1][start:start + len(block)] += (k - 1) / nodes[start] * block
            memo[s] = nodes, blocks
        return memo[s]

    nodes, blocks = branch_weights(len(h.functionality) - 1)
    return (np.concatenate([w for w, _ in blocks.values()]),
            np.hstack([b for _, b in blocks.values()]), nodes)


def multiplicity_exact_reference(h, e) -> int:
    """Exact multiplicity of eigenvalue e by tree diagonalization over rationals.

    Jacobs & Trevisan, Linear Algebra Appl. 434 (2011) 81-88: one
    children-first pass from root 0 makes H - e*I congruent to a diagonal
    matrix whose zero entries count the multiplicity.  Requires every
    entry (potential values and e) to be representable as an exact
    rational: ints, Fractions, or finite floats taken at their binary value.
    """
    x = _as_fraction(e)
    n = h.graph.n
    parents = h.graph.parents.tolist()
    d = [h.potential.value_exact(f) - x for f in h.graph.degrees()]
    zero_child = [-1] * n
    for v in range(n - 1, -1, -1):
        c = zero_child[v]
        if c >= 0:
            # the zero child clears v's row and column, cutting v's parent edge
            d[c] = Fraction(2)
            d[v] = Fraction(-1, 2)
        elif v:
            if d[v] == 0:
                zero_child[parents[v]] = v
            else:
                d[parents[v]] -= 1 / d[v]
    return d.count(0)


def count_leaves_and_parents_reference(parents: np.ndarray, n: int) -> StructuralStats:
    """Leaves, parents and functionality averages of trees given by parent arrays.

    Row i of the (trees, n - 1) array holds the parents of nodes 1..n-1
    of tree i.  Degrees and leaf neighbors are counted by `np.bincount`
    over the parent ids of the whole block.
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
        return StructuralStats(
            n=n,
            n_leaves=n_leaves,
            n_parents=n_parents,
            avg_f_nonleaf=(2 * (n - 1) - n_leaves) / (n - n_leaves),
            avg_f_minus_delta_parents=(sum_f_parents - sum_delta) / n_parents,
            avg_f_parents=sum_f_parents / n_parents,
        )


def edge_list_text_reference(g: TreeGraph) -> str:
    """The edge list of g, its lines "%d %d\\n" of every edge written by one `%` call."""
    label = f"# label={g.label}\n" if g.label else ""
    edges = np.column_stack((g.parents[1:], np.arange(1, g.n))).ravel().tolist()
    return f"{FORMAT_HEADER}\n{label}{g.n}\n" + "%d %d\n" * (g.n - 1) % tuple(edges)


def fmt_rows_reference(columns) -> str:
    """The lines "%.17g,...,%.17g\\n" % row of every row of the columns, by one `%` call."""
    rows = np.column_stack(columns).ravel().tolist()
    return ("%.17g," * (len(columns) - 1) + "%.17g\n") * len(columns[0]) % tuple(rows)


def spectrum_csv_text_reference(sp: Spectrum) -> str:
    lines = [FORMAT_HEADER, "eigenvalue,multiplicity,density"]
    for rep, mult in sp.classes:
        lines.append(f"{rep:.17g},{mult},{mult / sp.n:.17g}")
    return "\n".join(lines) + "\n"


def _cell_reference(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def sweep_csv_text_reference(rows: list[SweepRow]) -> str:
    lines = [FORMAT_HEADER, ",".join(f.name for f in fields(SweepRow))]
    lines += [",".join(map(_cell_reference, astuple(row))) for row in rows]
    return "\n".join(lines) + "\n"


def validate_tree(g) -> str | None:
    """Check the breadth-first parent-array invariant; return None when valid.

    On failure returns a short description of the first violation
    instead of raising.
    """
    parents = g.parents.tolist()
    if len(parents) == 0 or parents[0] != -1:
        return "node 0 is not the root (parents[0] must be -1)"
    for v, (before, p) in enumerate(zip(parents, parents[1:]), start=1):
        if not 0 <= p < v:
            return f"parent {p} of node {v} is not an earlier node"
        if p < before:
            return f"parents are not in breadth-first order at node {v}"
    return None


def leaf_pair_eigenstates(h) -> list[np.ndarray]:
    """Orthonormal eigenvectors at E* built from leaves sharing a parent.

    For a parent with leaves l_1..l_m the vectors span the differences
    (|l_i> - |l_j>)/sqrt(2); the returned basis has m - 1 members per
    parent, so the total count is (number of leaves) - (number of
    parents).  Each vector satisfies H v = E* v because all leaves carry
    the same on-site value V(1) and couple only to their common parent.
    Each is a dense length-n vector, so the basis takes O(n^2) memory.
    """
    g = h.graph
    degrees = g.degrees()
    leaves_of: list[list[int]] = [[] for _ in range(g.n)]
    for v, p in enumerate(g.parents.tolist()):  # ascending in v, so each list comes out sorted
        neighbour = p if v else 1  # a root of functionality 1 hangs from node 1
        if degrees[v] == 1 and degrees[neighbour] > 1:
            leaves_of[neighbour].append(v)
    vectors: list[np.ndarray] = []
    for leaves in leaves_of:
        for k in range(1, len(leaves)):
            # Helmert vector: mutually orthogonal, zero coefficient sum
            v = np.zeros(g.n)
            norm = 1.0 / math.sqrt(k * (k + 1))
            v[leaves[:k]] = norm
            v[leaves[k]] = -k * norm
            vectors.append(v)
    return vectors
