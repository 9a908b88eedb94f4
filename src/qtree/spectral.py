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
branch's spectrum, found the same way.  A branch's path from the root
runs through one copy of each group it passes, so its quotient is a
block of the root's, in preorder.  The plan, which serves the solves,
the size check and the oracle, is the root quotient alone (shape,
parent, group size k and Pi, the product of the k on the path, of each
position; shapes interned children first with their quotient sizes)
and one block (start, stop, count) per solved shape: the root's, of
count 1, then each repeated shape's at its first group position R
(k_R > 1) in preorder.  R stands for Pi_parent(R) groups of k_R copies,
so it adds Pi_R - Pi_parent(R) to its shape's count.  Interning stops
at the first branch above the size limit, which `build_hamiltonian`
checks; the oracle on a tree above it needs size_limit=None.

Return probabilities come from the eigenvectors of the same blocks.
Branch swaps permute the tree nodes at one position q of the root
quotient, so they share a return probability; q stands for Pi_q nodes.
A column j per (block, eigenvector x), of eigenvalue lambda_j, puts
W[q, j] = sum_R m_R x_(q-R)^2 / Pi_q on each, over the root (m = 1) and
the group positions R of the block's shape whose copy holds q (m_R =
Pi_R - Pi_parent(R)).  That sums the recursion in which a group of k
under position p passes (1 - 1/k) / Pi_p, the diagonal of I - J/k
spread over Pi_p copies: over every subset of R's group ancestors these
factors add up to m_R (`notes/decisions.md`).  Then pbar(t) =
sum_q (Pi_q / n) |sum_j W[q, j] exp(-i lambda_j t)|^2; each row of W
sums to 1, and sum_q Pi_q W[q, j] counts column j's tree eigenvectors.

An exact oracle, the Jacobs-Trevisan tree diagonalization over
rationals in one pass over the root quotient, guards the multiplicity
of the distinguished eigenvalue E* = V(1) carried by leaf-pair states.
"""
from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import (
    IncompletePotentialError,
    InvalidParameterError,
    SizeLimitError,
    UnsupportedExactModeError,
)
from .graphs import _BLOCK, TreeGraph

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
    """x exactly: any `numbers.Rational` (NumPy integers too) as itself, and any other
    finite `numbers.Real` (NumPy floats too) at its binary value."""
    if isinstance(x, numbers.Rational):
        return Fraction(int(x.numerator), int(x.denominator))
    if isinstance(x, numbers.Real):
        if not math.isfinite(x):
            raise UnsupportedExactModeError(f"non-finite potential entry {x!r}")
        ratio = getattr(x, "as_integer_ratio", float(x).as_integer_ratio)
        return Fraction(*ratio())
    raise UnsupportedExactModeError(f"cannot treat {x!r} as an exact rational")


@dataclass(frozen=True)
class Hamiltonian:
    """Real symmetric operator of a tree: unit couplings on bonds, V(f_j) on the diagonal."""

    graph: TreeGraph
    potential: Potential
    # the plan: each shape's functionality by id, the root quotient's positions as
    # `_quotient` lists them, and (start, stop, count) of each solved block, the root's first
    functionality: tuple[int, ...] = field(repr=False, compare=False)
    root: tuple[list, list, list, list] = field(repr=False, compare=False)
    blocks: tuple[tuple[int, int, int], ...] = field(repr=False, compare=False)

    @property
    def e_star(self) -> float:  # V(1), the eigenvalue of the leaf-pair states
        return self.potential.value(1)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues grouped into degeneracy classes.

    Each class is (representative, multiplicity); representatives are
    strictly increasing and multiplicities sum to n.  The spectral
    density of a class is multiplicity / n.  The binning margins are the
    largest gap between sorted solve eigenvalues that tol_abs merged and
    the smallest it kept between classes, None where there is none.
    """

    classes: tuple[tuple[float, int], ...]
    n: int
    tol_abs: float
    largest_merged_gap: float | None = field(default=None, repr=False, compare=False)
    smallest_separating_gap: float | None = field(default=None, repr=False, compare=False)

    def multiplicity_at(self, e: float) -> int:
        best = min(self.classes, key=lambda c: abs(c[0] - e), default=None)
        if best is not None and abs(best[0] - e) <= self.tol_abs:
            return best[1]
        return 0

    def density_at(self, e: float) -> float:
        return self.multiplicity_at(e) / self.n


def build_hamiltonian(g: TreeGraph, potential: Potential = CONNECTIVITY,
                      size_limit: int | None = DENSE_SOLVER_LIMIT) -> Hamiltonian:
    """Hamiltonian and plan of g; refuses a size_limit below 1, gaps in the potential, then
    quotients over size_limit."""
    if size_limit is not None and size_limit < 1:  # no quotient has fewer than 1 position
        raise InvalidParameterError(f"--size-limit must be at least 1, got {size_limit}")
    if potential.kind == CUSTOM_KIND:
        missing = sorted({1, *g.degrees()} - potential.table.keys())
        if missing:
            raise IncompletePotentialError(
                f"custom potential table lacks entries for functionalities {missing}")
    return Hamiltonian(g, potential, *_plan(g.parents, size_limit))


def _check_tol_abs(tol_abs: float | None) -> None:
    """Refuses a binning tolerance that is not finite and positive, in `qtree chi`'s words."""
    if tol_abs is not None and not 0 < tol_abs < math.inf:
        raise InvalidParameterError(f"--tol-abs must be finite and positive, got {tol_abs}")


def spectrum(h: Hamiltonian, tol_abs: float | None = None) -> Spectrum:
    """Binned spectrum from the blocks' eigenvalues alone; tol_abs is checked first."""
    _check_tol_abs(tol_abs)
    return _bin([(w, count) for w, (_, _, count) in zip(_solve(h, np.linalg.eigvalsh), h.blocks)],
                tol_abs)


def _solve(h: Hamiltonian, solver) -> list:
    """solver on each block of the root quotient's matrix, in the order of h.blocks."""
    matrix = _matrix(h.root, [h.potential.value(f) for f in h.functionality])
    return [solver(matrix[a:b, a:b]) for a, b, _ in h.blocks]


@dataclass(frozen=True)
class ReturnWeights:
    """W, lambda_j and Pi_q of the module docstring, and the binned spectrum."""

    eigenvalues: np.ndarray
    weights: np.ndarray
    nodes: np.ndarray
    spectrum: Spectrum


def return_weights(h: Hamiltonian) -> ReturnWeights:
    """Weights of the node-averaged return probability."""
    shape, parent, ks, nodes = h.root
    solved = _solve(h, np.linalg.eigh)
    # by solved shape: its eigenvectors squared and its columns of W, times Pi_q until the end
    columns = {shape[a]: (x * x, np.zeros((len(shape), b - a)))
               for (a, b, _), (_, x) in zip(h.blocks, solved)}
    # the root's block once, and each group position's Pi_r - Pi_parent times
    for r in (r for r, k in enumerate(ks) if k > 1 or r == 0):
        sq, cols = columns[shape[r]]
        cols[r:r + len(sq)] += (nodes[r] - nodes[parent[r]] if r else 1) * sq
    nodes = np.array(nodes)
    weights = np.hstack([cols for _, cols in columns.values()])
    weights /= nodes[:, None]
    return ReturnWeights(np.concatenate([w for w, _ in solved]), weights, nodes,
                         _bin([(w, count) for (w, _), (_, _, count) in zip(solved, h.blocks)],
                              None))


def _plan(parents, size_limit: int | None):
    """Functionality of each shape by id, the root's last, the root quotient's positions
    and its solved blocks, as in the module docstring; refuses a quotient above size_limit.

    parents is `TreeGraph.parents`, the tree's breadth-first parent array.
    Shapes are interned children first, from the last node: every leaf
    is shape 0 at once, and since breadth-first order numbers a node's
    children consecutively, their shapes are one slice of the per-node
    shape list.
    """
    n = len(parents)
    # breadth-first order: v's children, first[v]..first[v + 1] - 1, follow v - 1's
    first = np.cumsum(np.bincount(parents[1:] + 1, minlength=n + 1))
    first += 1
    inner = np.flatnonzero(first[1:] > first[:-1])[1:]  # nodes with children but the root

    def last_first():
        """(v, first child, last child + 1) of each node in inner, from the last, in blocks
        of `graphs._BLOCK` nodes, the length of each of the three `.tolist()` lists."""
        for stop in range(len(inner), 0, -_BLOCK):
            nodes = inner[max(stop - _BLOCK, 0):stop][::-1]
            yield from zip(nodes.tolist(), first[nodes].tolist(), first[nodes + 1].tolist())

    shapes: list[tuple] = []  # (functionality, groups, quotient size)

    def new_shape(f: int, children: list[int]) -> int:
        groups = tuple(Counter(children).items())
        size = 1 + sum(shapes[c][2] for c, _ in groups)
        if size_limit is not None and size > size_limit:
            raise SizeLimitError(f"n={n}: a quotient of {size} positions exceeds "
                                 f"the dense solver limit {size_limit}, which "
                                 "`qtree chi --size-limit` raises")
        shapes.append((f, groups, size))
        return len(shapes) - 1

    shape_of = [0] * n
    ids: dict[tuple, int] = {}  # a branch's shape by its sorted child shapes
    if n > 1:
        ids[()] = new_shape(1, [])
    for v, start, stop in last_first():
        children = shape_of[start:stop]
        children.sort()
        key = tuple(children)
        sid = ids.get(key)
        if sid is None:
            sid = ids[key] = new_shape(len(children) + 1, children)
        shape_of[v] = sid
    # the root's functionality is its child count, one less than a branch's, so its shape is new
    root = sorted(shape_of[first[0]:first[1]])
    new_shape(len(root), root)
    shape, parent, ks, nodes = quotient = _quotient(len(shapes) - 1, shapes)
    starts, counts = {shape[0]: 0}, {shape[0]: 1}
    for r in (r for r, k in enumerate(ks) if k > 1):
        t = shape[r]
        starts.setdefault(t, r)
        counts[t] = counts.get(t, 0) + nodes[r] - nodes[parent[r]]
    return (tuple(f for f, _, _ in shapes), quotient,
            tuple((a, a + shapes[t][2], counts[t]) for t, a in starts.items()))


def _quotient(s: int, shapes):
    """Positions of the quotient of a branch of shape s: shape, parent position, k and Pi of each.

    Positions are numbered in preorder as they are popped, so each copy
    is one block of positions ordered as its shape's own quotient; the
    plan's blocks rely on this.  The walk is iterative because a chain is
    n deep.
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


def _bin(solved, tol_abs: float | None) -> Spectrum:
    """Binned spectrum of solves given as (eigenvalues, count), each eigenvalue count times.

    The eigenvalues are sorted together with their counts, and
    consecutive ones within tol_abs merge into one class; the largest gap
    merged and the smallest gap kept are the spectrum's binning margins.
    The class representative is the mean of its eigenvalues, each
    repeated as often as it occurs.  Because clusters are separated by
    raw gaps above tol_abs, representatives of distinct classes are more
    than tol_abs apart.  The default tolerance is 1e-8 times (spectral width
    + 1), refused when the width overflows; a tol_abs given is checked by `_check_tol_abs`.
    A class whose mean overflows is refused too.
    """
    w = np.concatenate([values for values, _ in solved])
    order = np.argsort(w)
    w = w[order]
    counts = np.repeat([count for _, count in solved], [len(values) for values, _ in solved])
    counts = counts[order]
    if tol_abs is None:  # on Python floats, an overflow is inf, not a warning
        tol_abs = 1e-8 * (float(w[-1]) - float(w[0]) + 1.0)
        if tol_abs == math.inf:
            raise InvalidParameterError(f"spectral width {float(w[0])} to {float(w[-1])} overflows")
    with np.errstate(over="ignore"):  # a gap that overflows is inf, above any tol_abs
        gaps = np.diff(w, prepend=-np.inf)
    split = gaps > tol_abs
    starts = np.flatnonzero(split)
    merged, kept = gaps[~split], gaps[starts[1:]]
    stops = np.append(starts[1:], len(w))
    sizes = np.add.reduceat(counts, starts)
    reps = w[starts]  # a class of one eigenvalue is that eigenvalue
    # np.mean sums pairwise; a sequential np.add.reduceat would differ in the last bit
    for i in np.flatnonzero(sizes > 1).tolist():
        members = slice(starts[i], stops[i])
        with np.errstate(over="ignore", invalid="ignore"):  # inf + -inf is nan
            reps[i] = np.mean(np.repeat(w[members], counts[members]))
        if not math.isfinite(reps[i]):
            raise InvalidParameterError(
                f"the mean of the {int(sizes[i])} eigenvalues from {float(w[starts[i]])} to "
                f"{float(w[stops[i] - 1])} in one class overflows")
    return Spectrum(classes=tuple(zip(reps.tolist(), sizes.tolist())), n=int(counts.sum()),
                    tol_abs=tol_abs,
                    largest_merged_gap=float(merged.max()) if len(merged) else None,
                    smallest_separating_gap=float(kept.min()) if len(kept) else None)


def multiplicity_exact(h: Hamiltonian, e) -> int:
    """Exact multiplicity of eigenvalue e by tree diagonalization over rationals.

    Jacobs & Trevisan, Linear Algebra Appl. 434 (2011) 81-88: one
    children-first pass makes Q - e*I congruent to a diagonal matrix
    whose zero entries count the multiplicity.  It runs once over the
    root quotient Q, where a bond sqrt(k) enters only squared, as the
    integer k.  A subtree's pivots are those of a pass over it alone, so
    a block's zeros are those below its start and its start's own, and
    they add up as the blocks' spectra do.
    Requires every entry (potential values and e) to be representable
    as an exact rational: any rational, NumPy integers included, or a
    finite real, a float or NumPy float, taken at its binary value.
    """
    x = _as_fraction(e)
    on_site = [h.potential.value_exact(f) - x for f in h.functionality]
    shape, parent, ks, _ = h.root
    d = [on_site[t] for t in shape]  # pivots once done; None when cut by a zero child
    below = [0] * len(d)  # zeros left below each position once it is done
    for v in range(len(d) - 1, 0, -1):
        p = parent[v]
        below[p] += below[v]
        if d[v] == 0 and d[p] is None:  # p is cut already, so v's zero stays
            below[p] += 1
        elif d[v] == 0:  # v's 0 and p's pivot become 2 and -1/2, cutting p's parent bond
            d[p] = None
        elif d[v] is not None and d[p] is not None:  # a cut v's row and column are clear
            d[p] -= ks[v] / d[v]
    return sum(count * (below[a] + (d[a] == 0)) for a, _, count in h.blocks)
