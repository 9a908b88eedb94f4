"""Test-session set-up shared by every test module, and the dense reference.

The program diagonalizes trees only through their branch-symmetry
quotients.  The dense n x n path below is the independent oracle the
tests compare that against: the full matrix, `numpy.linalg.eigh` of it,
its binned spectrum, the node-averaged return probability from the
full eigenbasis and the squared averaged return amplitude from the
eigenvalues.
"""
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qtree.spectral import _bin

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
