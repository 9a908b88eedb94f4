"""Global transport-efficiency measures and their bounds.

The central quantity is chi, the infinite-time average of the squared
node-averaged return amplitude.  It equals the sum of squared spectral
densities, is bounded below by a flat-density expression built from a
single eigenvalue's density, and admits a structural bound in terms of
leaf/parent counts that survives the infinite-size limit.  Closed-form
limits for dendrimers, Vicsek fractals and scale-free trees, the zeta
function they need, and the critical-exponent fit at the breakdown of
transport live here as pure functions.  So does the time series whose
average chi is, `time_series(rw)`, summed from the quotient weights that
`spectral.return_weights` gives: it alone checks the time grid, cuts the
series into blocks of times, and records in `TimeSeries` how many ran.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateAverageError,
    InvalidParameterError,
    NoParentsError,
    OutOfDomainError,
    SizeLimitError,
)
from .graphs import _BLOCK, MAX_NODES_DEFAULT, StructuralStats, _check_power_law, structural_stats
from .spectral import (
    Hamiltonian,
    ReturnWeights,
    Spectrum,
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


def rho_star_structural(st: StructuralStats) -> float:
    """Leaf-pair count bound (N_L - N_P)/n on the density at E*."""
    if st.n_parents < 1:
        raise NoParentsError("structural density bound needs at least one parent")
    return (st.n_leaves - st.n_parents) / st.n


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


def chi_structural(st: StructuralStats, delta_mode: str = USE_MEASURED) -> float:
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
    return float(_flat_bound_truncated([st.avg_f_nonleaf], [b], st.n)[0])


def avg_f_sft(s: float, f_max: int) -> float:
    """Mean functionality of the truncated power law on {2, ..., f_max}."""
    _check_power_law(s)
    if f_max < 2:
        raise InvalidParameterError(f"f_max must be at least 2, got {f_max}")
    num = math.fsum(f ** (1.0 - s) for f in range(2, f_max + 1))
    den = math.fsum(f ** (-s) for f in range(2, f_max + 1))
    return num / den


_ZETA_CUTOFF = 32


def _em_tail(sigma: float) -> float:
    """m^sigma * sum_{k >= m} k^-sigma for m = _ZETA_CUTOFF by Euler-Maclaurin: the integral,
    B2, B4 and B6 terms."""
    m = _ZETA_CUTOFF
    rising3 = sigma * (sigma + 1.0) * (sigma + 2.0)
    return (m / (sigma - 1.0) + 0.5 + sigma / (12.0 * m) - rising3 / (720.0 * m ** 3)
            + rising3 * (sigma + 3.0) * (sigma + 4.0) / (30240.0 * m ** 5))


def zeta(s: float) -> float:
    """Riemann zeta for s > 1: the first terms summed directly plus the Euler-Maclaurin tail.

    The tail's leading term m^(1-s)/(s-1) carries the pole at s = 1
    analytically, so the result stays within a few units in the last
    place even arbitrarily close to it.
    """
    if not s > 1:
        raise OutOfDomainError(f"zeta implemented for s > 1 only, got {s}")
    m = _ZETA_CUTOFF
    return math.fsum([k ** (-s) for k in range(1, m)] + [m ** (-s) * _em_tail(s)])


def _zeta_tails(s: float) -> tuple[float, float]:
    """2^s (zeta(s) - 1) and 2^s (zeta(s - 1) - zeta(s)) for s > 2.

    Both are summed from k = 2 as sum (k/2)^-s and sum (k - 1)(k/2)^-s,
    whose k = 2 terms are 1, so nothing cancels and nothing overflows at
    large s.  The terms from the cutoff m on are the Euler-Maclaurin
    tails of zeta, scaled by 2^s; they vanish below the smallest double
    once (m/2)^-s does.
    """
    m = _ZETA_CUTOFF
    terms = [(k, (k / 2.0) ** -s) for k in range(2, m)]
    tail_s = tail_s1 = 0.0
    scale = (m / 2.0) ** -s  # 2^s m^-s
    if scale:
        tail_s = scale * _em_tail(s)
        tail_s1 = scale * m * _em_tail(s - 1.0)
    return (math.fsum([x for _, x in terms] + [tail_s]),
            math.fsum([(k - 1) * x for k, x in terms] + [tail_s1, -tail_s]))


def chi_sft_infinite(s: float) -> float:
    """Infinite-size scale-free-tree bound 1 - 4(zeta(s)-1)/(zeta(s-1)-zeta(s)).

    Leading-order expression valid for s slightly above 2; it leaves
    [0, 1] for large s (it tends to -3) and is refused at s <= 2 where
    the functionality average diverges.
    """
    if not s > 2:
        raise OutOfDomainError(f"infinite-size form needs s > 2, got {s}")
    leaves, links = _zeta_tails(s)
    return 1.0 - 4.0 * leaves / links


def chi_sft_finite(s: float, f_max: int, n: int) -> float:
    """Finite-size scale-free-tree bound at the analytic mean functionality.

    Evaluates the structural bound with both averages equal to
    avg_f_sft(s, f_max) and delta forced to zero.
    """
    return _chi_sft_at_mean(avg_f_sft(s, f_max), f_max, n)


def _chi_sft_at_mean(a: float, f_max: int, n: int) -> float:
    """chi_sft_finite from the mean functionality a = avg_f_sft(s, f_max)."""
    if a <= 2.0:
        raise DegenerateAverageError(
            f"mean functionality {a} <= 2 (f_max={f_max}) leaves no scale-free regime"
        )
    return float(_flat_bound_truncated([a], [a], n)[0])


def _closed_form_argument(f, family: str):
    """f as a Fraction for an int, so the closed form is exact, else as a float; refuses f < 3."""
    if f < 3:
        raise OutOfDomainError(f"{family} closed form needs f >= 3, got {f}")
    return Fraction(f) if isinstance(f, int) and not isinstance(f, bool) else float(f)


def chi_dendrimer_inf(f):
    """Infinite-size chi of a dendrimer, (1 - 2/f)^2; exact on int input.

    Exact chi of finite dendrimers under the connectivity potential
    approaches this for f = 5 (0.360018 at g = 7), but not for f = 3,
    where it settles near 0.1196 (0.11957, 0.11994, 0.11960 at g = 8, 9,
    10, for any binning tolerance from 1e-11 to 1e-6), nor for f = 4,
    where it settles above 1/4 (0.250349, 0.250580, 0.250546 at g = 6,
    8, 10); see notes/decisions.md section 06.
    """
    f = _closed_form_argument(f, "dendrimer")
    return (1 - 2 / f) ** 2


def chi_vicsek_inf(f):
    """Infinite-size chi of a Vicsek fractal, 1 - 6(f-1)/(f(f+2)-2)."""
    f = _closed_form_argument(f, "vicsek")
    return 1 - 6 * (f - 1) / (f * (f + 2) - 2)


def chi_lb_dendrimer_inf(f):
    """Infinite-size flat-density bound for a dendrimer, (1 - 1/(f-1))^4."""
    f = _closed_form_argument(f, "dendrimer")
    return (1 - 1 / (f - 1)) ** 4


def chi_lb_vicsek_inf(f):
    """Infinite-size flat-density bound for a Vicsek fractal, (1 - (4f-5)/(f^2-1))^2."""
    f = _closed_form_argument(f, "vicsek")
    return (1 - (4 * f - 5) / (f * f - 1)) ** 2


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
    if not np.all((0 < offsets) & (offsets < np.inf) & (0 < values) & (values < np.inf)):
        raise OutOfDomainError("offsets and values must be finite and positive")
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
    """Sampled node-averaged return quantities, and the number of time blocks they took."""

    times: np.ndarray
    abs_alpha_sq: np.ndarray
    pi_bar: np.ndarray
    blocks: int


def default_time_grid(sp: Spectrum, samples: int) -> np.ndarray:
    """Uniform grid long enough to resolve the slowest spectral beat."""
    spread = sp.classes[-1][0] - sp.classes[0][0]
    horizon = 50.0 * sp.n
    t_max = horizon / spread if spread > 0 else horizon
    return np.linspace(0.0, t_max, samples)


def _uniform_increasing(steps: np.ndarray) -> bool:
    """Whether the steps of a time grid are positive and equal to within 1e-6."""
    return not np.any(steps <= 0) and np.allclose(steps, steps[0], rtol=1e-6, atol=0.0)


def time_average(values: Sequence[float], times: Sequence[float]) -> float:
    """Trapezoidal mean of a sampled series over its uniform time window."""
    v = np.asarray(values, dtype=float)
    t = np.asarray(times, dtype=float)
    if len(v) != len(t):
        raise InvalidParameterError("values and times must have equal length")
    if len(t) < 2:
        raise OutOfDomainError("time average needs at least two samples")
    if not _uniform_increasing(np.diff(t)):
        raise InvalidParameterError("time grid must be uniform and increasing")
    return float(np.trapezoid(v, t) / (t[-1] - t[0]))


def _check_time_grid(t_max: float | None, samples: int) -> np.ndarray | None:
    """Refuses a t_max that is not positive, fewer than 2 or more than MAX_NODES_DEFAULT
    samples, and a grid linspace(0, t_max, samples) that repeats a time, as a subnormal t_max
    can; a NaN or infinite t_max is left to the phase overflow check.  Returns the grid if
    it had to build it, else None.

    It builds the grid only when the step s = t_max / (samples - 1) is below the smallest
    normal double.  With a normal s, linspace's times are t_i = fl(i * s), each within a
    relative 2^-53 of i * s, and its last time is t_max, within 2^-53 of (samples - 1) * s.
    So every step lies within 2 * samples * 2^-53 * s of s, below 2^-31 * s at samples <=
    2 000 000 < 2^21: positive, and equal far within the 1e-6 that the check allows.
    """
    if t_max is not None and t_max <= 0:
        raise InvalidParameterError(f"t_max must be positive, got {t_max!r}")
    if samples < 2:
        raise InvalidParameterError(
            f"a time series (--samples) needs at least 2 samples, got {samples}")
    if samples > MAX_NODES_DEFAULT:
        raise SizeLimitError(f"--samples {samples} is above the limit {MAX_NODES_DEFAULT}")
    if t_max is None or not t_max / (samples - 1) < sys.float_info.min:  # NaN is not below
        return None
    t = np.linspace(0.0, t_max, samples)
    if not _uniform_increasing(np.diff(t)):
        raise InvalidParameterError(f"--t-max {t_max!r} is too small for --samples {samples}: "
                                    "the time grid would repeat a time")
    return t


def _block_rows(columns: int) -> int:
    """Times per block of the series: at most `graphs._BLOCK` complex phases over all columns."""
    return max(1, _BLOCK // columns)


def time_series(rw: ReturnWeights, t_max: float | None = None, samples: int = 10_000) -> TimeSeries:
    """|averaged return amplitude|^2 and pbar on linspace(0, t_max, samples), from the
    quotient weights of `return_weights`; t_max=None takes `default_time_grid`'s horizon.

    At each time, amp_q = sum_j W[q, j] exp(-i lambda_j t) is the return
    amplitude of every node at root-quotient position q (spectral module
    docstring), pbar = sum_q (Pi_q/n) |amp_q|^2 and alpha = sum_q (Pi_q/n)
    amp_q, so |alpha|^2 <= pbar is Jensen's inequality on the same numbers.
    A grid `_check_time_grid` refuses, or on which some phase t * lambda_j
    is not finite, is refused before the first block.

    The grid is uniform, so phases are rotated rather than evaluated.
    The first block of S times is an (m x S) complex array, one row per
    weight column j, built by doubling: its times [k, 2k) are its times
    [0, k) times exp(-i t_k lambda), so only about log2(S) vectors of
    phases are evaluated directly.  Each block starting at t_b is the
    first block times exp(-i t_b lambda), evaluated directly, so no
    rounding carries from block to block; that is one complex multiply
    into a reused buffer, whose float view (m x 2S) holds re and im of
    each time side by side.  One real product with W, its rows scaled by
    sqrt(Pi_q/n), gives re and im of every scaled amplitude; pbar is each
    time's sum of squares over its two output columns, and alpha one
    product with sqrt(Pi_q/n).
    """
    t = _check_time_grid(t_max, samples)
    if t_max is None:
        t = default_time_grid(rw.spectrum, samples)
    lam = rw.eigenvalues
    # linspace ends on t_max; an infinite t_max is refused before linspace warns on it
    t_end, lam_max = float(t[-1] if t_max is None else t_max), float(np.abs(lam).max())
    if not math.isfinite(t_end * lam_max):  # on Python floats, an overflow is inf, not a warning
        raise InvalidParameterError(
            f"time grid to t={t_end!r} overflows the phases t * lambda (max |lambda| = {lam_max!r})"
        )
    if t is None:
        t = np.linspace(0.0, t_max, samples)
    root_share = np.sqrt(rw.nodes / rw.nodes.sum())
    scaled = np.ascontiguousarray(rw.weights * root_share[:, None])
    step = min(_block_rows(len(lam)), len(t))
    first = np.empty((len(lam), step), dtype=complex)
    first[:, 0] = 1.0
    k = 1
    while k < step:
        rows = min(k, step - k)
        np.multiply(first[:, :rows], np.exp(-1j * (t[k] * lam))[:, None], out=first[:, k:k + rows])
        k *= 2
    phases = np.empty_like(first)
    parts = phases.view(np.float64)  # column j: re, im of each time in turn
    amp = np.empty((len(scaled), 2 * step))
    abs_alpha_sq, pi_bar = np.empty(len(t)), np.empty(len(t))
    for start in range(0, len(t), step):
        rows = min(step, len(t) - start)
        np.multiply(first[:, :rows], np.exp(-1j * (t[start] * lam))[:, None], out=phases[:, :rows])
        out = np.matmul(scaled, parts[:, :2 * rows], out=amp[:, :2 * rows])
        alpha = root_share @ out
        squares = np.einsum("qj,qj->j", out, out)
        block = slice(start, start + rows)
        abs_alpha_sq[block] = alpha[0::2] ** 2 + alpha[1::2] ** 2
        pi_bar[block] = squares[0::2] + squares[1::2]
    return TimeSeries(t, abs_alpha_sq, pi_bar, blocks=-(-len(t) // step))


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


def efficiency_report(h: Hamiltonian, tol_abs: float | None = None) -> EfficiencyReport:
    """Diagonalize one tree's Hamiltonian and assemble chi with all of its bounds."""
    g = h.graph
    st = structural_stats(g)  # raises NoParentsError for n = 2
    sp = spectrum(h, tol_abs)
    rho_exact = sp.density_at(h.e_star)
    leaf_pairs = st.n_leaves - st.n_parents
    mult_exact = multiplicity_exact(h, h.potential.value_exact(1))
    return EfficiencyReport(
        label=g.label,
        n=g.n,
        e_star=h.e_star,
        chi_exact=chi_exact(sp),
        chi_spectral_lb=chi_lower_from_density(rho_exact, g.n),
        chi_structural=chi_structural(st, USE_MEASURED),
        chi_structural_delta0=chi_structural(st, FORCE_ZERO),
        rho_star_exact=rho_exact,
        rho_star_structural=rho_star_structural(st),
        leaf_pair_state_count=leaf_pairs,
        multiplicity_e_star_exact=mult_exact,
        extra_e_star_states=mult_exact - leaf_pairs,
        spectrum=sp,
    )
