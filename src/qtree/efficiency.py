"""Global transport-efficiency measures and their bounds.

The central quantity is chi, the infinite-time average of the squared
node-averaged return amplitude.  It equals the sum of squared spectral
densities, is bounded below by a flat-density expression built from a
single eigenvalue's density, and admits a structural bound in terms of
leaf/parent counts that survives the infinite-size limit.  Closed-form
limits for dendrimers, Vicsek fractals and scale-free trees, the zeta
function they need, and the critical-exponent fit at the breakdown of
transport live here as pure functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateAverageError,
    InvalidParameterError,
    NoParentsError,
    OutOfDomainError,
)
from .graphs import StructuralStats, TreeGraph, structural_stats
from .spectral import (
    CONNECTIVITY,
    DENSE_SOLVER_LIMIT,
    EigenSystem,
    Hamiltonian,
    Potential,
    Spectrum,
    bin_degeneracies,
    build_hamiltonian,
    default_degeneracy_tol,
    eigendecompose,
    multiplicity_exact,
    spectrum,
)

USE_MEASURED = "use-measured"
FORCE_ZERO = "force-zero"


def chi_exact(sp: Spectrum) -> float:
    """Sum of squared spectral densities over all degeneracy classes."""
    return math.fsum((mult / sp.n) ** 2 for _, mult in sp.classes)


def chi_lower_from_density(rho_star: float, n: int) -> float:
    """Flat-density lower bound rho*^2 + (1 - rho*)/n from one density."""
    if not 0.0 <= rho_star <= 1.0:
        raise InvalidParameterError(f"density must lie in [0, 1], got {rho_star}")
    if n < 1:
        raise InvalidParameterError(f"n must be positive, got {n}")
    return rho_star * rho_star + (1.0 - rho_star) / n


def rho_star_structural(st: StructuralStats, n: int) -> float:
    """Leaf-pair count bound (N_L - N_P)/n on the density at E*."""
    if st.n_parents < 1:
        raise NoParentsError("structural density bound needs at least one parent")
    return (st.n_leaves - st.n_parents) / n


def _python_square(x: np.ndarray) -> np.ndarray:
    """Elementwise x ** 2 rounded as Python's float power rounds it.

    Python's float ** goes through the C library's pow, which can differ
    from numpy's correctly rounded x * x in the last bit; squaring the
    distinct values in Python keeps array results equal to scalar ones.
    """
    values, inverse = np.unique(x, return_inverse=True)
    return np.array([v ** 2 for v in values.tolist()])[inverse]


def _flat_bound_truncated(a, b, n: int) -> np.ndarray:
    # a = avg functionality over non-leaves, b = avg (f - delta) over parents,
    # both 1-d and of equal length; this is the flat-density bound expanded
    # through order 1/n, elementwise.
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    bad = np.flatnonzero((a - 1.0 <= 0.0) | (b - 1.0 <= 0.0))
    if bad.size:
        i = bad[0]
        raise DegenerateAverageError(
            f"averages a={float(a[i])}, b={float(b[i])} make the bound's denominators vanish"
        )
    big_a = (a - 2.0) / (a - 1.0)
    big_b = (b - 2.0) / (b - 1.0)
    leading = big_a * big_a * big_b * big_b
    correction = 1.0 - big_a * big_b + 4.0 * (a - 2.0) / _python_square(a - 1.0) * big_b * big_b
    return leading + correction / n


def chi_structural(st: StructuralStats, n: int, delta_mode: str = USE_MEASURED) -> float:
    """Structural lower-bound value from functionality averages, to order 1/n.

    delta_mode selects the parent average: "use-measured" takes
    avg(f - delta), "force-zero" takes avg(f) as if no parent were bonded
    to more than one non-leaf.
    """
    if delta_mode == USE_MEASURED:
        b = st.avg_f_minus_delta_parents
    elif delta_mode == FORCE_ZERO:
        b = st.avg_f_parents
    else:
        raise InvalidParameterError(f"unknown delta_mode {delta_mode!r}")
    return float(_flat_bound_truncated([st.avg_f_nonleaf], [b], n)[0])


def avg_f_sft(s: float, f_max: int) -> float:
    """Mean functionality of the truncated power law on {2, ..., f_max}."""
    if not (s > 1 and math.isfinite(s)):
        raise InvalidParameterError(f"scaling exponent must be finite and exceed 1, got {s}")
    if f_max < 2:
        raise InvalidParameterError(f"f_max must be at least 2, got {f_max}")
    num = math.fsum(f ** (1.0 - s) for f in range(2, f_max + 1))
    den = math.fsum(f ** (-s) for f in range(2, f_max + 1))
    return num / den


_ZETA_CUTOFF = 32


def zeta(s: float) -> float:
    """Riemann zeta for s > 1 via Euler-Maclaurin with analytic tail.

    Sums the first terms directly and corrects with the integral tail
    M^(1-s)/(s-1) plus Bernoulli terms through B4, which keeps at least
    twelve significant digits even arbitrarily close to the pole at
    s = 1.
    """
    if not s > 1:
        raise OutOfDomainError(f"zeta implemented for s > 1 only, got {s}")
    m = float(_ZETA_CUTOFF)
    total = math.fsum(k ** (-s) for k in range(1, _ZETA_CUTOFF))
    total += m ** (1.0 - s) / (s - 1.0)
    total += 0.5 * m ** (-s)
    total += s * m ** (-s - 1.0) / 12.0
    total -= s * (s + 1.0) * (s + 2.0) * m ** (-s - 3.0) / 720.0
    return total


def chi_sft_infinite(s: float) -> float:
    """Infinite-size scale-free-tree bound 1 - 4(zeta(s)-1)/(zeta(s-1)-zeta(s)).

    Leading-order expression valid for s slightly above 2; it leaves
    [0, 1] for large s and is refused at s <= 2 where the functionality
    average diverges.
    """
    if not s > 2:
        raise OutOfDomainError(f"infinite-size form needs s > 2, got {s}")
    return 1.0 - 4.0 * (zeta(s) - 1.0) / (zeta(s - 1.0) - zeta(s))


def chi_sft_finite(s: float, f_max: int, n: int) -> float:
    """Finite-size scale-free-tree bound at the analytic mean functionality.

    Evaluates the structural bound with both averages equal to
    avg_f_sft(s, f_max) and delta forced to zero.
    """
    a = avg_f_sft(s, f_max)
    if a <= 2.0:
        raise DegenerateAverageError(
            f"mean functionality {a} <= 2 (f_max={f_max}) leaves no scale-free regime"
        )
    return float(_flat_bound_truncated([a], [a], n)[0])


def _exactable(f) -> bool:
    return isinstance(f, int) and not isinstance(f, bool)


def chi_dendrimer_inf(f):
    """Infinite-size chi of a dendrimer, (1 - 2/f)^2; exact on int input.

    Exact chi of finite dendrimers under the connectivity potential
    approaches this for f = 4 and 5, but for f = 3 it settles near
    0.1196 (0.11957, 0.11994, 0.11960 at g = 8, 9, 10, for any binning
    tolerance from 1e-11 to 1e-6), not at 1/9.
    """
    if f < 3:
        raise OutOfDomainError(f"dendrimer closed form needs f >= 3, got {f}")
    if _exactable(f):
        return (1 - Fraction(2, f)) ** 2
    return (1.0 - 2.0 / f) ** 2


def chi_vicsek_inf(f):
    """Infinite-size chi of a Vicsek fractal, 1 - 6(f-1)/(f(f+2)-2)."""
    if f < 3:
        raise OutOfDomainError(f"vicsek closed form needs f >= 3, got {f}")
    if _exactable(f):
        return 1 - Fraction(6 * (f - 1), f * (f + 2) - 2)
    return 1.0 - 6.0 * (f - 1.0) / (f * (f + 2.0) - 2.0)


def chi_lb_dendrimer_inf(f):
    """Infinite-size flat-density bound for a dendrimer, (1 - 1/(f-1))^4."""
    if f < 3:
        raise OutOfDomainError(f"dendrimer closed form needs f >= 3, got {f}")
    if _exactable(f):
        return (1 - Fraction(1, f - 1)) ** 4
    return (1.0 - 1.0 / (f - 1.0)) ** 4


def chi_lb_vicsek_inf(f):
    """Infinite-size flat-density bound for a Vicsek fractal, (1 - (4f-5)/(f^2-1))^2."""
    if f < 3:
        raise OutOfDomainError(f"vicsek closed form needs f >= 3, got {f}")
    if _exactable(f):
        return (1 - Fraction(4 * f - 5, f * f - 1)) ** 2
    return (1.0 - (4.0 * f - 5.0) / (f * f - 1.0)) ** 2


@dataclass(frozen=True)
class KappaFit:
    """Least-squares power-law fit of an order parameter near its critical point.

    window holds the fitted (log offset, log value) pairs; slope is the
    critical-exponent estimate and residual the largest absolute
    deviation of the fit in log space.
    """

    slope: float
    intercept: float
    window: tuple[tuple[float, float], ...]
    residual: float


def kappa_fit(points: Iterable[tuple[float, float]]) -> KappaFit:
    """Fit log(value) against log(offset) over a window of positive points."""
    pts = sorted(points)
    if len(pts) < 3:
        raise OutOfDomainError(f"need at least 3 points, got {len(pts)}")
    offsets = np.array([p[0] for p in pts], dtype=float)
    values = np.array([p[1] for p in pts], dtype=float)
    if np.any(offsets <= 0) or np.any(values <= 0):
        raise OutOfDomainError("offsets and values must be positive")
    if np.any(np.diff(offsets) <= 0):
        raise OutOfDomainError("offsets must be distinct")
    x = np.log(offsets)
    y = np.log(values)
    dx = x - x.mean()
    slope = float(np.dot(dx, y - y.mean()) / np.dot(dx, dx))
    intercept = float(y.mean() - slope * x.mean())
    residual = float(np.max(np.abs(y - (slope * x + intercept))))
    return KappaFit(
        slope=slope,
        intercept=intercept,
        window=tuple(zip(x.tolist(), y.tolist())),
        residual=residual,
    )


# --- time-domain quantities --------------------------------------------------

@dataclass(frozen=True)
class TimeSeries:
    """Sampled node-averaged return quantities on a common time grid."""

    times: np.ndarray
    abs_alpha_sq: np.ndarray
    pi_bar: np.ndarray


def return_amplitude_series(sp: Spectrum, times: Sequence[float]) -> np.ndarray:
    """|averaged return amplitude|^2 from the spectral density alone."""
    t = np.asarray(times, dtype=float)
    reps = np.array([rep for rep, _ in sp.classes])
    dens = np.array([mult / sp.n for _, mult in sp.classes])
    amp = np.exp(-1j * np.outer(t, reps)) @ dens
    return np.abs(amp) ** 2


def mean_return_probability_series(
    es: EigenSystem, times: Sequence[float], chunk: int = 2048
) -> np.ndarray:
    """Node-averaged return probability, computed from the full eigenbasis."""
    t = np.asarray(times, dtype=float)
    weights = es.eigenvectors ** 2  # (node, mode) overlap probabilities
    out = np.empty(len(t))
    for start in range(0, len(t), chunk):
        block = t[start : start + chunk]
        phases = np.exp(-1j * np.outer(block, es.eigenvalues))
        amp = phases @ weights.T  # (time, node) return amplitudes
        out[start : start + len(block)] = np.mean(np.abs(amp) ** 2, axis=1)
    return out


def default_time_grid(es: EigenSystem, samples: int = 10_000, horizon: float = 50.0) -> np.ndarray:
    """Uniform grid long enough to resolve the slowest spectral beat."""
    spread = float(es.eigenvalues[-1] - es.eigenvalues[0])
    t_max = horizon * es.n / spread if spread > 0 else horizon * es.n
    return np.linspace(0.0, t_max, samples)


def time_average(values: Sequence[float], times: Sequence[float]) -> float:
    """Trapezoidal mean of a sampled series over its uniform time window."""
    v = np.asarray(values, dtype=float)
    t = np.asarray(times, dtype=float)
    if len(v) != len(t):
        raise InvalidParameterError("values and times must have equal length")
    if len(t) < 2:
        raise OutOfDomainError("time average needs at least two samples")
    steps = np.diff(t)
    if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-6, atol=0.0):
        raise InvalidParameterError("time grid must be uniform and increasing")
    return float(np.trapezoid(v, t) / (t[-1] - t[0]))


def time_series(h: Hamiltonian, times: Sequence[float] | None = None,
                tol_abs: float | None = None) -> TimeSeries:
    es = eigendecompose(h)
    if times is None:
        times = default_time_grid(es)
    sp = bin_degeneracies(es, default_degeneracy_tol(es) if tol_abs is None else tol_abs)
    t = np.asarray(times, dtype=float)
    return TimeSeries(
        times=t,
        abs_alpha_sq=return_amplitude_series(sp, t),
        pi_bar=mean_return_probability_series(es, t),
    )


# --- per-graph report --------------------------------------------------------

@dataclass(frozen=True)
class EfficiencyReport:
    """All efficiency measures of one graph under one potential.

    rho_star_exact is the binned spectral density at E*; the exact
    rational oracle's multiplicity and its excess over the leaf-pair
    count are carried as diagnostics.  spectrum is the binned spectrum
    the measures come from; it is left out of repr and comparisons.
    """

    label: str
    n: int
    e_star: float
    chi_exact: float
    chi_spectral_lb: float
    chi_structural: float
    chi_structural_delta0: float
    rho_star_exact: float
    rho_star_structural: float
    leaf_pair_state_count: int
    multiplicity_e_star_exact: int
    extra_e_star_states: int
    spectrum: Spectrum = field(repr=False, compare=False)


def efficiency_report(
    g: TreeGraph,
    potential: Potential = CONNECTIVITY,
    *,
    tol_abs: float | None = None,
    size_limit: int = DENSE_SOLVER_LIMIT,
) -> EfficiencyReport:
    """Diagonalize one tree and assemble chi with all of its bounds."""
    st = structural_stats(g)  # raises NoParentsError for n = 2
    h = build_hamiltonian(g, potential)
    sp = spectrum(h, tol_abs, size_limit)
    rho_exact = sp.density_at(h.e_star)
    leaf_pairs = st.n_leaves - st.n_parents
    mult_exact = multiplicity_exact(h, h.potential.value_exact(1))
    return EfficiencyReport(
        label=g.label,
        n=g.n,
        e_star=h.e_star,
        chi_exact=chi_exact(sp),
        chi_spectral_lb=chi_lower_from_density(rho_exact, g.n),
        chi_structural=chi_structural(st, g.n, USE_MEASURED),
        chi_structural_delta0=chi_structural(st, g.n, FORCE_ZERO),
        rho_star_exact=rho_exact,
        rho_star_structural=rho_star_structural(st, g.n),
        leaf_pair_state_count=leaf_pairs,
        multiplicity_e_star_exact=mult_exact,
        extra_e_star_states=mult_exact - leaf_pairs,
        spectrum=sp,
    )
