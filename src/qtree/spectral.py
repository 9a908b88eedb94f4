"""Hamiltonians on trees and their spectra.

The operator class has unit coupling on every bond and an on-site
potential that depends only on the node functionality, H[j][j] = V(f_j).
The two named members are the connectivity matrix (V(f) = f) and the
adjacency matrix (V(f) = 0); arbitrary finite tables are supported.

Every solve runs on the branch-symmetry quotient of the tree, never on
the n x n matrix.  The lemma: when a node has k >= 2 child branches of
the same rooted shape (same functionalities throughout, hence the same
matrix B, whose root keeps its on-site value V(f)), the antisymmetric
combinations of the copies give spec(B) k - 1 times, and the symmetric
one leaves H with the k branches replaced by one copy joined by a
coupling sqrt(k).  Applied at every node, the spectrum is eig(quotient
at the root) plus, for every repeated child group, k - 1 copies of that
branch's spectrum, found the same way.  One plan serves the solves,
the size check and the oracle: the branch shapes, interned children
first with their quotient sizes, and counts[s], how often eig(quotient
of s) occurs: 1 for the root plus k - 1 per group of k branches of
shape s in each counted quotient.  A branch's path from the root runs
through one copy of each group it passes, so its quotient is a block of
the root's: the root's is the largest solve, and interning stops at the
first branch above the size limit.  `build_hamiltonian` builds the plan
and checks the limit; the oracle on a tree above it needs size_limit=None.

Return probabilities come from the eigenvectors of the same quotients.
Branch swaps permute the tree nodes at one position q of the root
quotient, so they share a return probability; q stands for Pi_q nodes,
the product of the group sizes k on its path.  A normalized quotient
eigenvector x puts weight x_q^2 / Pi_q on each.  A group of k equal
branches of shape c under position p passes (1 - 1/k) / Pi_p times c's
own weights (same recursion, memoized per shape) to the positions of
the group's copy: 1 - 1/k is the diagonal of the antisymmetric projector
I - J/k, and 1/Pi_p spreads those sectors over the Pi_p copies of p,
whose own antisymmetric sectors enter through the enclosing groups.
With a column j per (solved shape, eigenvector index), of eigenvalue
lambda_j, pbar(t) = sum_q (Pi_q / n) |sum_j W[q, j] exp(-i lambda_j t)|^2;
each row of W sums to 1, and sum_q Pi_q W[q, j] counts column j's
tree eigenvectors.

An exact oracle, the Jacobs-Trevisan tree diagonalization over
rationals run on the same quotients, guards the multiplicity of the
distinguished eigenvalue E* = V(1) carried by leaf-pair superposition
states.
"""
from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field
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
    bad = sorted(f for f, value in table.items() if not math.isfinite(value))
    if bad:
        raise InvalidParameterError(f"custom potential is not finite at functionalities {bad}")
    return Potential(CUSTOM_KIND, dict(table))


def _as_fraction(x) -> Fraction:
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise UnsupportedExactModeError(f"non-finite potential entry {x!r}")
        return Fraction(x)
    raise UnsupportedExactModeError(f"cannot treat {x!r} as an exact rational")


@dataclass(frozen=True)
class Hamiltonian:
    """Real symmetric operator of a tree: unit couplings on bonds, V(f_j) on the diagonal."""

    graph: TreeGraph
    potential: Potential
    e_star: float
    # the plan: each shape's functionality by id; by counted shape, its quotient and count
    functionality: tuple[int, ...] = field(repr=False, compare=False)
    quotients: dict[int, tuple[tuple, int]] = field(repr=False, compare=False)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues grouped into degeneracy classes.

    Each class is (representative, multiplicity); representatives are
    strictly increasing and multiplicities sum to n.  The spectral
    density of a class is multiplicity / n.  solve_dims holds the
    dimension of each eigenvalue solve behind the classes, when known;
    it is left out of comparisons.
    """

    classes: tuple[tuple[float, int], ...]
    n: int
    tol_abs: float
    solve_dims: tuple[int, ...] = field(default=(), compare=False)

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


def build_hamiltonian(g: TreeGraph, potential: Potential = CONNECTIVITY,
                      size_limit: int | None = DENSE_SOLVER_LIMIT) -> Hamiltonian:
    """Hamiltonian and plan of g; refuses gaps in the potential, then quotients over size_limit."""
    if potential.kind == CUSTOM_KIND:
        missing = sorted({1, *g.degrees()} - potential.table.keys())
        if missing:
            raise IncompletePotentialError(
                f"custom potential table lacks entries for functionalities {missing}")
    return Hamiltonian(g, potential, potential.value(1), *_plan(g.parents, size_limit))


def spectrum(h: Hamiltonian, tol_abs: float | None = None) -> Spectrum:
    """Binned spectrum from the quotients' eigenvalues alone."""
    on_site = [h.potential.value(f) for f in h.functionality]
    w = np.sort(np.concatenate([np.tile(np.linalg.eigvalsh(_matrix(q, on_site)), count)
                                for q, count in h.quotients.values()]))
    return _bin(w, tol_abs, tuple(len(q[0]) for q, _ in h.quotients.values()))


@dataclass(frozen=True)
class ReturnWeights:
    """W, lambda_j and Pi_q of the module docstring, and the binned spectrum."""

    eigenvalues: np.ndarray
    weights: np.ndarray
    nodes: np.ndarray
    spectrum: Spectrum


def return_weights(h: Hamiltonian) -> ReturnWeights:
    """Weights of the node-averaged return probability."""
    on_site = [h.potential.value(f) for f in h.functionality]
    nodes, blocks = _branch_weights(len(h.functionality) - 1, h.quotients, on_site, {})
    eigenvalues = np.concatenate([w for w, _ in blocks.values()])
    weights = np.hstack([b for _, b in blocks.values()])
    w = np.sort(np.concatenate([np.tile(wd, h.quotients[d][1]) for d, (wd, _) in blocks.items()]))
    return ReturnWeights(eigenvalues, weights, nodes,
                         _bin(w, None, tuple(len(wd) for wd, _ in blocks.values())))


def _plan(parents, size_limit: int | None):
    """Functionality of each shape by id, the root's last, and by counted shape its
    quotient and count, as in the module docstring; refuses a quotient above size_limit.
    """
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
                                     f"the dense solver limit {size_limit}; raise --size-limit "
                                     "or use the structural estimators of `qtree sweep`")
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


def _quotient(s: int, shapes):
    """Positions of the quotient of a branch of shape s: shape, parent position, k and Pi of each.

    Positions are numbered in preorder as they are popped, so each copy
    is one block of positions ordered as its shape's own quotient;
    `_branch_weights` relies on this.  The walk is iterative because a
    chain is n deep.
    """
    shape, parent, ks, nodes = [], [], [], []
    stack = [(s, -1, 1)]
    while stack:
        t, p, k = stack.pop()
        shape.append(t)
        parent.append(p)
        ks.append(k)
        nodes.append(k * nodes[p] if p >= 0 else 1)
        stack.extend((c, len(shape) - 1, kc) for c, kc in reversed(shapes[t][1]))
    return shape, parent, ks, nodes


def _matrix(quotient, on_site) -> np.ndarray:
    """Quotient matrix: on-site values on the diagonal, sqrt(k) on each bond."""
    shape, parent, ks, _ = quotient
    matrix = np.diag([on_site[t] for t in shape])
    rows = np.arange(1, len(shape))
    matrix[rows, parent[1:]] = matrix[parent[1:], rows] = np.sqrt(ks[1:])
    return matrix


def _branch_weights(s: int, quotients, on_site, memo: dict):
    """Pi of each quotient position of shape s, and per shape solved in the branch
    its quotient's eigenvalues and weights (position x eigenvector); memoized per shape.
    """
    if s not in memo:
        shape, _, ks, nodes = quotient = quotients[s][0]
        w, x = np.linalg.eigh(_matrix(quotient, on_site))
        nodes = np.array(nodes)
        blocks = {s: (w, x * x / nodes[:, None])}
        for start, (c, k) in enumerate(zip(shape, ks)):
            if k == 1:
                continue
            # nodes[start] = k Pi_p, so this is (1 - 1/k) / Pi_p
            for d, (wd, block) in _branch_weights(c, quotients, on_site, memo)[1].items():
                if d not in blocks:
                    blocks[d] = (wd, np.zeros((len(nodes), len(wd))))
                blocks[d][1][start:start + len(block)] += (k - 1) / nodes[start] * block
        memo[s] = nodes, blocks
    return memo[s]


def _bin(w: np.ndarray, tol_abs: float | None, solve_dims: tuple[int, ...] = ()) -> Spectrum:
    """Merge consecutive sorted eigenvalues within tol_abs into one class.

    The class representative is the class mean.  Because clusters are
    separated by raw gaps above tol_abs, representatives of distinct
    classes are more than tol_abs apart.  The default tolerance is 1e-8
    times (spectral width + 1).
    """
    if tol_abs is None:
        tol_abs = 1e-8 * (float(w[-1] - w[0]) + 1.0)
    if not 0 < tol_abs < math.inf:
        raise InvalidParameterError(f"tol_abs must be finite and positive, got {tol_abs}")
    starts = np.flatnonzero(np.diff(w, prepend=-np.inf) > tol_abs)
    sizes = np.diff(starts, append=len(w))
    reps = w[starts]  # a singleton class is its eigenvalue
    # np.mean sums pairwise; a sequential np.add.reduceat would differ in the last bit
    for i in np.flatnonzero(sizes > 1).tolist():
        reps[i] = np.mean(w[starts[i]:starts[i] + sizes[i]])
    return Spectrum(classes=tuple(zip(reps.tolist(), sizes.tolist())), n=len(w),
                    tol_abs=tol_abs, solve_dims=solve_dims)


def multiplicity_exact(h: Hamiltonian, e) -> int:
    """Exact multiplicity of eigenvalue e by tree diagonalization over rationals.

    Jacobs & Trevisan, Linear Algebra Appl. 434 (2011) 81-88: one
    children-first pass makes Q - e*I congruent to a diagonal matrix
    whose zero entries count the multiplicity.  It runs on each solved
    quotient Q, where a bond sqrt(k) enters only squared, as the integer
    k, and the counts of zeros add up as the quotients' spectra do.
    Requires every entry (potential values and e) to be representable
    as an exact rational: ints, Fractions, or finite floats taken at
    their binary value.
    """
    x = _as_fraction(e)
    on_site = [h.potential.value_exact(f) - x for f in h.functionality]
    total = 0
    for (shape, parent, ks, _), count in h.quotients.values():
        d = [on_site[t] for t in shape]
        zero_child = [-1] * len(d)
        for v in range(len(d) - 1, -1, -1):
            c = zero_child[v]
            if c >= 0:
                # the zero child clears v's row and column, cutting v's parent bond
                d[c] = Fraction(2)
                d[v] = Fraction(-1, 2)
            elif v:
                if d[v] == 0:
                    zero_child[parent[v]] = v
                else:
                    d[parent[v]] -= ks[v] / d[v]
        total += count * d.count(0)
    return total


# --- spectrum export ---------------------------------------------------------

def spectrum_csv_text(sp: Spectrum) -> str:
    lines = [FORMAT_HEADER, "eigenvalue,multiplicity,density"]
    for rep, mult in sp.classes:
        lines.append(f"{rep:.17g},{mult},{mult / sp.n:.17g}")
    return "\n".join(lines) + "\n"


def write_spectrum_csv(sp: Spectrum, path: str | Path) -> None:
    write_text_atomic(path, spectrum_csv_text(sp))
