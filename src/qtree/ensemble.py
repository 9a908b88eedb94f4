"""Deterministic Monte Carlo over scale-free-tree realizations.

Each realization gets its own seed derived injectively from the master
seed and the realization index, so results are bit-identical no matter
how the work is distributed across processes.  Aggregation always runs
in index order.

Realizations run in blocks of consecutive indices.  A block's seeds are
one SplitMix64 pass over the index array, and its trees are grown
together: row i draws exactly what NumPy's default generator seeded
with seed i draws, `np.random.Generator(np.random.PCG64(seed)).random(n)`
on the installed NumPy, with the seeding hashed in NumPy for the whole
block (`graphs._uniform_rows`).
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from .efficiency import (
    _chi_sft_at_mean,
    _flat_bound_truncated,
    avg_f_sft,
    chi_lower_from_density,
    chi_sft_infinite,
)
from .errors import (
    DegenerateAverageError,
    InvalidParameterError,
    NoParentsError,
    OutOfDomainError,
    QtreeError,
    SizeLimitError,
)
from .graphs import (
    FORMAT_HEADER,
    TreeGraph,
    _check_sft_size,
    _count_leaves_and_parents,
    _grow_sft_parents,
    _sft_cdf,
    write_text_atomic,
)
from .spectral import CONNECTIVITY, build_hamiltonian, multiplicity_exact

SPECTRAL_EXACT = "spectral-exact"
STRUCTURAL_DELTA0 = "structural-delta0"
STRUCTURAL_MEASURED = "structural-measured"
ESTIMATORS = (SPECTRAL_EXACT, STRUCTURAL_DELTA0, STRUCTURAL_MEASURED)

WORKERS_ENV_VAR = "QTREE_WORKERS"

_MASK64 = (1 << 64) - 1


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 output function of each uint64 in x, in wrapping uint64 arithmetic."""
    z = x + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


@dataclass(frozen=True)
class EnsembleConfig:
    n: int
    s: float
    f_max: int | None = None  # None means n - 1
    r: int = 1
    master_seed: int = 0
    estimator: str = STRUCTURAL_DELTA0

    def resolved_f_max(self) -> int:
        return self.n - 1 if self.f_max is None else self.f_max


@dataclass(frozen=True)
class EnsembleResult:
    mean_one_minus_chi_lb: float
    std_error: float
    realized_avg_f_mean: float
    config: EnsembleConfig
    per_realization: tuple[float, ...] | None = None


def _realization_seeds(master_seed: int, indices: np.ndarray) -> np.ndarray:
    """The realization seed of each uint64 index, as uint64."""
    return _splitmix64(np.uint64(master_seed & _MASK64) ^ _splitmix64(indices))


def realization_seed(master_seed: int, index: int) -> int:
    """Stable 64-bit per-realization seed, injective in index."""
    return int(_realization_seeds(master_seed, np.array([index & _MASK64], dtype=np.uint64))[0])


def _check_config(cfg: EnsembleConfig) -> None:
    _check_sft_size(cfg.n, cfg.resolved_f_max())
    if cfg.r < 1:
        raise InvalidParameterError(f"realization count must be >= 1, got {cfg.r}")
    if cfg.estimator not in ESTIMATORS:
        raise InvalidParameterError(
            f"unknown estimator {cfg.estimator!r}; choose one of {ESTIMATORS}"
        )


def _block_size(n: int) -> int:
    """Realizations per block: about 65 536 nodes, so each block array stays near 0.5 MB."""
    return -(-65_536 // n)


def _realize_block(
    task: tuple[EnsembleConfig, np.ndarray, int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """Realizations start..stop-1: (1 - chi lower bound, realized mean non-leaf functionality).

    Each tree is grown from its own realization seed, so a value does not
    depend on which block computes it.  An SFT has n >= 3 nodes and so
    at least one parent.
    """
    cfg, cdf, start, stop = task
    seeds = _realization_seeds(cfg.master_seed, np.arange(start, stop, dtype=np.uint64))
    parents = _grow_sft_parents(cdf, cfg.n, seeds)
    counts = _count_leaves_and_parents(parents, cfg.n)
    if cfg.estimator == SPECTRAL_EXACT:
        # the exact multiplicity of E* = 1, the connectivity matrix's leaf value
        trees = (build_hamiltonian(TreeGraph((-1, *row.tolist())), CONNECTIVITY, size_limit=None)
                 for row in parents)
        value = np.array([chi_lower_from_density(multiplicity_exact(h, 1) / cfg.n, cfg.n)
                          for h in trees])
    else:
        b = (counts.avg_f_parents if cfg.estimator == STRUCTURAL_DELTA0
             else counts.avg_f_minus_delta_parents)
        value = _flat_bound_truncated(counts.avg_f_nonleaf, b, cfg.n)
    return 1.0 - value, counts.avg_f_nonleaf


def resolve_workers(workers: int | None) -> int:
    if workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR, "1")
        try:
            workers = int(raw)
        except ValueError:
            raise InvalidParameterError(
                f"{WORKERS_ENV_VAR}={raw!r} is not an integer"
            ) from None
    if workers < 1:
        raise InvalidParameterError(f"worker count must be >= 1, got {workers}")
    return workers


def run_ensemble(
    cfg: EnsembleConfig,
    workers: int | None = None,
    keep_per_realization: bool = False,
) -> EnsembleResult:
    """Average 1 - chi_lb over r seeded realizations.

    The per-realization values depend only on the config, never on the
    worker count; rerunning with any parallelism reproduces the result
    bit for bit.
    """
    _check_config(cfg)
    workers = resolve_workers(workers)
    cdf = _sft_cdf(cfg.n, cfg.s, cfg.resolved_f_max())
    size = _block_size(cfg.n)
    tasks = [(cfg, cdf, start, min(start + size, cfg.r)) for start in range(0, cfg.r, size)]
    if workers > 1 and len(tasks) > 1:
        with Pool(min(workers, len(tasks))) as pool:
            blocks = pool.map(_realize_block, tasks,
                              chunksize=max(1, len(tasks) // (workers * 8)))
    else:
        blocks = [_realize_block(t) for t in tasks]
    values = np.concatenate([v for v, _ in blocks]).tolist()
    avg_fs = np.concatenate([a for _, a in blocks]).tolist()
    mean = math.fsum(values) / cfg.r  # fsum: exactly rounded, order independent
    if cfg.r > 1:
        variance = math.fsum((v - mean) ** 2 for v in values) / (cfg.r - 1)
        std_error = math.sqrt(variance / cfg.r)
    else:
        std_error = 0.0
    return EnsembleResult(
        mean_one_minus_chi_lb=mean,
        std_error=std_error,
        realized_avg_f_mean=math.fsum(avg_fs) / cfg.r,
        config=cfg,
        per_realization=tuple(values) if keep_per_realization else None,
    )


@dataclass(frozen=True)
class SweepRow:
    s: float
    n: int
    f_max: int
    r: int
    avg_f_analytic: float | None
    one_minus_chi_mc_mean: float | None
    one_minus_chi_mc_stderr: float | None
    one_minus_chi_analytic_finite: float | None
    one_minus_chi_analytic_infinite: float | None
    status: str


_ERROR_NAMES = {
    DegenerateAverageError: "degenerate-average",
    SizeLimitError: "size-limit",
    InvalidParameterError: "invalid-parameter",
    NoParentsError: "no-parents",
    OutOfDomainError: "out-of-domain",
}


def _error_name(exc: Exception) -> str:
    return _ERROR_NAMES.get(type(exc), type(exc).__name__)


def sweep(cfgs: list[EnsembleConfig], workers: int | None = None) -> list[SweepRow]:
    """Run one ensemble per config; errors flag the row, never abort the sweep."""
    if not cfgs:
        raise InvalidParameterError("sweep needs at least one config")
    rows = []
    for cfg in cfgs:
        status = "ok"
        f_max = cfg.resolved_f_max()
        avg_f = mc_mean = mc_err = finite = infinite = None
        try:
            _check_config(cfg)
            if cfg.s > 2:
                infinite = 1.0 - chi_sft_infinite(cfg.s)
            avg_f = avg_f_sft(cfg.s, f_max)
            finite = 1.0 - _chi_sft_at_mean(avg_f, f_max, cfg.n)
        except QtreeError as exc:
            status = _error_name(exc)
        try:
            result = run_ensemble(cfg, workers=workers)
            mc_mean = result.mean_one_minus_chi_lb
            mc_err = result.std_error
        except QtreeError as exc:
            status = _error_name(exc) if status == "ok" else status
        rows.append(
            SweepRow(
                s=cfg.s,
                n=cfg.n,
                f_max=f_max,
                r=cfg.r,
                avg_f_analytic=avg_f,
                one_minus_chi_mc_mean=mc_mean,
                one_minus_chi_mc_stderr=mc_err,
                one_minus_chi_analytic_finite=finite,
                one_minus_chi_analytic_infinite=infinite,
                status=status,
            )
        )
    return rows


SWEEP_COLUMNS = (
    "s,n,f_max,r,avg_f_analytic,one_minus_chi_mc_mean,one_minus_chi_mc_stderr,"
    "one_minus_chi_analytic_finite,one_minus_chi_analytic_infinite,status"
)


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def sweep_csv_text(rows: list[SweepRow]) -> str:
    lines = [FORMAT_HEADER, SWEEP_COLUMNS]
    for row in rows:
        lines.append(
            ",".join(
                _cell(v)
                for v in (
                    row.s,
                    row.n,
                    row.f_max,
                    row.r,
                    row.avg_f_analytic,
                    row.one_minus_chi_mc_mean,
                    row.one_minus_chi_mc_stderr,
                    row.one_minus_chi_analytic_finite,
                    row.one_minus_chi_analytic_infinite,
                    row.status,
                )
            )
        )
    return "\n".join(lines) + "\n"


def write_sweep_csv(rows: list[SweepRow], path: str | Path) -> None:
    write_text_atomic(path, sweep_csv_text(rows))
