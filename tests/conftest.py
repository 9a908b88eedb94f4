"""Test-session set-up shared by every test module, and the n-node references.

The program diagonalizes trees, and counts exact multiplicities, only
through their branch-symmetry quotients.  The n-node paths below are
the independent oracles the tests compare that against: the full
matrix, `numpy.linalg.eigh` of it, its binned spectrum, the
node-averaged return probability from the full eigenbasis, the squared
averaged return amplitude from the eigenvalues, and the exact
multiplicity from one Jacobs-Trevisan pass over every node.  Two
references replay earlier forms of the program's own steps: the time
series with every phase evaluated directly, and degeneracy binning by a
loop over the sorted eigenvalues.  It also holds two checks the program
itself does not need: the breadth-first parent-array invariant and the
explicit leaf-pair eigenvectors at E*.
"""
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from qtree.spectral import _as_fraction, _bin

SRC = str(Path(__file__).resolve().parents[1] / "src")


def pytest_configure(config):
    # the CLI tests start `python -m qtree` in child interpreters: they
    # import the package from this checkout, as the tests themselves do
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


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
        return _bin(self.eigenvalues, tol_abs)


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
    step = max(1, (1 << 16) // len(rw.eigenvalues))
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
    parents = h.graph.parents
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


def validate_tree(g) -> str | None:
    """Check the breadth-first parent-array invariant; return None when valid.

    On failure returns a short description of the first violation
    instead of raising.
    """
    if not g.parents or g.parents[0] != -1:
        return "node 0 is not the root (parents[0] must be -1)"
    for v, (before, p) in enumerate(zip(g.parents, g.parents[1:]), start=1):
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
    for v, p in enumerate(g.parents):  # ascending in v, so each list comes out sorted
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
