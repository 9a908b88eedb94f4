"""Hamiltonians on trees and their spectra.

The operator class has unit coupling on every bond and an on-site
potential that depends only on the node functionality, H[j][j] = V(f_j).
The two named members are the connectivity matrix (V(f) = f) and the
adjacency matrix (V(f) = 0); arbitrary finite tables are supported.

Eigenvalues are grouped into degeneracy classes to realize the discrete
spectral density.  An exact oracle, the Jacobs-Trevisan tree
diagonalization over rationals, guards the multiplicity of the
distinguished eigenvalue E* = V(1) carried by leaf-pair superposition
states.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import (
    IncompletePotentialError,
    InvalidParameterError,
    SizeLimitError,
    UnsupportedExactModeError,
)
from .graphs import FORMAT_HEADER, TreeGraph, write_text_atomic

DENSE_SOLVER_LIMIT = 4096

CONNECTIVITY_KIND = "connectivity"
ADJACENCY_KIND = "adjacency"
CUSTOM_KIND = "custom"


@dataclass(frozen=True)
class Potential:
    """On-site potential V(f): one of the named kinds or a finite table."""

    kind: str
    table: Mapping[int, float] | None = None

    def _entry(self, f: int):
        if self.kind == CONNECTIVITY_KIND:
            return f
        if self.kind == ADJACENCY_KIND:
            return 0
        assert self.table is not None
        try:
            return self.table[f]
        except KeyError:
            raise IncompletePotentialError(
                f"custom potential table has no entry for functionality {f}"
            ) from None

    def value(self, f: int) -> float:
        return float(self._entry(f))

    def value_exact(self, f: int) -> Fraction:
        """Entry as an exact rational; floats convert via their binary value."""
        return _as_fraction(self._entry(f))


CONNECTIVITY = Potential(CONNECTIVITY_KIND)
ADJACENCY = Potential(ADJACENCY_KIND)


def custom_potential(table: Mapping[int, float]) -> Potential:
    if not table:
        raise InvalidParameterError("custom potential table is empty")
    return Potential(CUSTOM_KIND, dict(table))


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise UnsupportedExactModeError(f"non-finite potential entry {x!r}")
        return Fraction(x)
    raise UnsupportedExactModeError(f"cannot treat {x!r} as an exact rational")


@dataclass(frozen=True)
class Hamiltonian:
    """Dense real symmetric operator tied to the tree it was built from.

    The n x n matrix is allocated on first use, so a solver can refuse an
    oversize tree before any O(n^2) memory is taken.
    """

    graph: TreeGraph
    potential: Potential
    e_star: float

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def matrix(self) -> np.ndarray:
        """Unit couplings on bonds and V(f_j) on the diagonal."""
        matrix = np.zeros((self.n, self.n))
        for j, nbrs in enumerate(self.graph.adjacency):
            matrix[j, list(nbrs)] = 1.0
            matrix[j, j] = self.potential.value(len(nbrs))
        return matrix


@dataclass(frozen=True)
class EigenSystem:
    """Full spectral decomposition, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column k pairs with eigenvalues[k]

    @property
    def n(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues grouped into degeneracy classes.

    Each class is (representative, multiplicity); representatives are
    strictly increasing and multiplicities sum to n.  The spectral
    density of a class is multiplicity / n.
    """

    classes: tuple[tuple[float, int], ...]
    n: int
    tol_abs: float

    def densities(self) -> list[float]:
        return [m / self.n for _, m in self.classes]

    def multiplicity_at(self, e: float, atol: float | None = None) -> int:
        atol = self.tol_abs if atol is None else atol
        best = min(self.classes, key=lambda c: abs(c[0] - e), default=None)
        if best is not None and abs(best[0] - e) <= atol:
            return best[1]
        return 0

    def density_at(self, e: float, atol: float | None = None) -> float:
        return self.multiplicity_at(e, atol) / self.n


def build_hamiltonian(g: TreeGraph, potential: Potential = CONNECTIVITY) -> Hamiltonian:
    """Hamiltonian with unit couplings on bonds and V(f_j) on the diagonal.

    Checks the potential against the tree's functionalities now; the
    dense matrix is built when a solver first reads it.
    """
    if potential.kind == CUSTOM_KIND:
        missing = sorted({f for f in g.degrees() if f not in potential.table} | (
            {1} if 1 not in potential.table else set()))
        if missing:
            raise IncompletePotentialError(
                f"custom potential table lacks entries for functionalities {missing}"
            )
    return Hamiltonian(graph=g, potential=potential, e_star=potential.value(1))


def _check_dense_size(h: Hamiltonian, size_limit: int) -> None:
    if h.n > size_limit:
        raise SizeLimitError(
            f"n={h.n} exceeds the dense solver limit {size_limit}; "
            "use structural estimators at this scale"
        )


def eigendecompose(h: Hamiltonian, size_limit: int = DENSE_SOLVER_LIMIT) -> EigenSystem:
    """Dense symmetric eigendecomposition; refuses n beyond size_limit."""
    _check_dense_size(h, size_limit)
    eigenvalues, eigenvectors = np.linalg.eigh(h.matrix)
    return EigenSystem(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def spectrum(h: Hamiltonian, tol_abs: float | None = None,
             size_limit: int = DENSE_SOLVER_LIMIT) -> Spectrum:
    """Binned spectrum from the eigenvalues alone; refuses n beyond size_limit."""
    _check_dense_size(h, size_limit)
    w = np.linalg.eigvalsh(h.matrix)
    return _bin(w, _default_tol(w) if tol_abs is None else tol_abs)


def default_degeneracy_tol(es: EigenSystem) -> float:
    return _default_tol(es.eigenvalues)


def _default_tol(w: np.ndarray) -> float:
    return 1e-8 * (float(w[-1] - w[0]) + 1.0)


def bin_degeneracies(es: EigenSystem, tol_abs: float) -> Spectrum:
    """Merge consecutive eigenvalues within tol_abs into one class.

    The class representative is the class mean.  Because clusters are
    separated by raw gaps above tol_abs, representatives of distinct
    classes are more than tol_abs apart.
    """
    return _bin(es.eigenvalues, tol_abs)


def _bin(w: np.ndarray, tol_abs: float) -> Spectrum:
    if not tol_abs > 0:
        raise InvalidParameterError(f"tol_abs must be positive, got {tol_abs}")
    n = len(w)
    classes: list[tuple[float, int]] = []
    start = 0
    for i in range(1, n + 1):
        if i == n or w[i] - w[i - 1] > tol_abs:
            classes.append((float(np.mean(w[start:i])), i - start))
            start = i
    return Spectrum(classes=tuple(classes), n=n, tol_abs=tol_abs)


def multiplicity_exact(h: Hamiltonian, e) -> int:
    """Exact multiplicity of eigenvalue e by tree diagonalization over rationals.

    Jacobs & Trevisan, Linear Algebra Appl. 434 (2011) 81-88: one
    children-first pass from root 0 makes H - e*I congruent to a diagonal
    matrix whose zero entries count the multiplicity.  Requires every
    entry (potential values and e) to be representable as an exact
    rational: ints, Fractions, or finite floats taken at their binary value.
    """
    x = _as_fraction(e)
    adjacency = h.graph.adjacency
    parent = [-1] * h.n
    order = [0]
    for u in order:  # breadth-first: the list grows while it is walked
        for v in adjacency[u]:
            if v != parent[u]:
                parent[v] = u
                order.append(v)
    d = [h.potential.value_exact(len(nbrs)) - x for nbrs in adjacency]
    zero_child = [-1] * h.n
    for v in reversed(order):
        c = zero_child[v]
        if c >= 0:
            # the zero child clears v's row and column, cutting v's parent edge
            d[c] = Fraction(2)
            d[v] = Fraction(-1, 2)
        elif parent[v] >= 0:
            if d[v] == 0:
                zero_child[parent[v]] = v
            else:
                d[parent[v]] -= 1 / d[v]
    return d.count(0)


def leaf_pair_eigenstates(g: TreeGraph, h: Hamiltonian) -> list[np.ndarray]:
    """Orthonormal eigenvectors at E* built from leaves sharing a parent.

    For a parent with leaves l_1..l_m the vectors span the differences
    (|l_i> - |l_j>)/sqrt(2); the returned basis has m - 1 members per
    parent, so the total count is (number of leaves) - (number of
    parents).  Each vector satisfies H v = E* v because all leaves carry
    the same on-site value V(1) and couple only to their common parent.
    """
    if h.graph.adjacency != g.adjacency:
        raise InvalidParameterError("hamiltonian was built from a different graph")
    deg = g.degrees()
    is_leaf = [d == 1 for d in deg]
    vectors: list[np.ndarray] = []
    for j in range(g.n):
        if is_leaf[j]:
            continue
        leaves = [v for v in g.adjacency[j] if is_leaf[v]]
        for k in range(1, len(leaves)):
            # Helmert vector: mutually orthogonal, zero coefficient sum
            v = np.zeros(g.n)
            norm = 1.0 / math.sqrt(k * (k + 1))
            for i in range(k):
                v[leaves[i]] = norm
            v[leaves[k]] = -k * norm
            vectors.append(v)
    return vectors


# --- spectrum export ---------------------------------------------------------

def spectrum_csv_text(sp: Spectrum) -> str:
    lines = [FORMAT_HEADER, "eigenvalue,multiplicity,density"]
    for rep, mult in sp.classes:
        lines.append(f"{rep:.17g},{mult},{mult / sp.n:.17g}")
    return "\n".join(lines) + "\n"


def write_spectrum_csv(sp: Spectrum, path: str | Path) -> None:
    write_text_atomic(path, spectrum_csv_text(sp))
