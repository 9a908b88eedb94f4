"""Deterministic Monte Carlo over scale-free-tree realizations.

Each realization gets its own seed derived injectively from the master
seed and the realization index, so results are bit-identical no matter
how the work is distributed across processes.  Aggregation always runs
in index order.

Realizations run in tasks of consecutive indices, each a range of whole
blocks, sized by the one block size `graphs._BLOCK`: a block of n-node
trees holds ceil(_BLOCK / n) of them, about _BLOCK nodes, and a task at
most _BLOCK // 4 realizations, whose PCG64 states are four words each.
A sweep runs the tasks of all its rows in one ordered map, and
`run_ensemble` is the one-config case.
`_tasks` alone lays the tasks out: `_ensembles` maps what it gives, and
`sweep_counters` reads a sweep's realizations, blocks and seed passes
from it for the rows that ran.
What does not depend on the block runs once per task: the SplitMix64
pass over the index array, NumPy's SeedSequence hash and PCG64 seeding
of all the task's seeds, the one reused generator
(`graphs._uniform_rows`), the guide table of the functionality draw and,
for the structural estimators, the bound over all the task's trees.
Only the per-node arrays are made block by block: row i draws exactly
what NumPy's default generator seeded with seed i draws,
`np.random.Generator(np.random.PCG64(seed)).random(n)` on the installed
NumPy, and a grown block is one running sum of the slots its nodes open,
row after row (`graphs._grow_sft_ends`).  Every estimator takes each
tree's leaf and parent counts and functionality averages from it in
closed form, by two binary searches per tree (`graphs._sft_slot_counts`,
`graphs._count_sft_trees`), with no per-node leaf or parent array and no
pass over the nodes after the sum; only the spectral-exact estimator
builds the trees' parent arrays.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from itertools import islice
from multiprocessing import Pool

import numpy as np

from .efficiency import (
    _chi_sft_at_mean,
    _flat_bound_truncated,
    _python_square,
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
    _BLOCK,
    _MASK64,
    TreeGraph,
    _check_pcg64_layout,
    _check_sft_size,
    _count_sft_trees,
    _grow_sft_ends,
    _parent_arrays,
    _sft_cdf,
    _sft_slot_counts,
)
from .spectral import CONNECTIVITY, build_hamiltonian, multiplicity_exact

SPECTRAL_EXACT = "spectral-exact"
STRUCTURAL_DELTA0 = "structural-delta0"
STRUCTURAL_MEASURED = "structural-measured"
ESTIMATORS = (SPECTRAL_EXACT, STRUCTURAL_DELTA0, STRUCTURAL_MEASURED)


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
    per_realization: tuple[float, ...]


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


_TASK_REALIZATIONS = _BLOCK // 4  # a task's PCG64 states, four uint64 words each
_TASKS_PER_WORKER = 4  # so that a worker that finishes early finds more work


def _block_size(n: int) -> int:
    """Realizations per block: about `graphs._BLOCK` nodes, the values of each per-node
    array of a block (draws, slot prefix sums); at most a task's."""
    return min(-(-_BLOCK // n), _TASK_REALIZATIONS)


def _task_ranges(rows: list[tuple[int, int]], workers: int) -> list[list[tuple[int, int]]]:
    """Realizations 0..r-1 of each (r, block) row cut into tasks of consecutive whole blocks.

    A task holds at most _TASK_REALIZATIONS realizations.  One worker
    takes as few tasks as that allows; more workers get about
    _TASKS_PER_WORKER tasks each over all the rows, and every row at
    least one.  Each task hashes its seeds once.
    """
    spread = 1 if workers == 1 else workers * _TASKS_PER_WORKER
    per_task = -(-sum(-(-r // block) for r, block in rows) // spread)  # in blocks
    sizes = [block * min(_TASK_REALIZATIONS // block, per_task) for _, block in rows]
    return [[(start, min(start + size, r)) for start in range(0, r, size)]
            for (r, _), size in zip(rows, sizes)]


def _realize_task(
    task: tuple[EnsembleConfig, np.ndarray, int, int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """Realizations start..stop-1: (1 - chi lower bound, realized mean non-leaf functionality).

    The seeds and the generator are set up once for the whole task
    (`graphs._grow_sft_ends`); only the per-node arrays are made block
    by block, and the structural bound is evaluated once over all of
    the task's trees.  Each tree is grown from its own realization seed,
    so a value does not depend on the task or block that computes it.
    An SFT has n >= 3 nodes and so at least one parent.
    """
    cfg, cdf, start, stop, block = task
    seeds = _realization_seeds(cfg.master_seed, np.arange(start, stop, dtype=np.uint64))
    slot_counts, exact = [], []
    for sums in _grow_sft_ends(cdf, cfg.n, seeds, block):
        slot_counts.append(_sft_slot_counts(sums))
        if cfg.estimator == SPECTRAL_EXACT:
            # the exact multiplicity of E* = 1, the connectivity matrix's leaf value
            trees = (build_hamiltonian(TreeGraph(row), CONNECTIVITY, size_limit=None)
                     for row in _parent_arrays(sums))
            exact += [chi_lower_from_density(multiplicity_exact(h, 1) / cfg.n, cfg.n)
                      for h in trees]
    counts = _count_sft_trees(cfg.n, np.concatenate(slot_counts, axis=1))
    if cfg.estimator == SPECTRAL_EXACT:
        value = np.array(exact)
    else:
        b = (counts.avg_f_parents if cfg.estimator == STRUCTURAL_DELTA0
             else counts.avg_f_minus_delta_parents)
        value = _flat_bound_truncated(counts.avg_f_nonleaf, b, cfg.n)
    return 1.0 - value, counts.avg_f_nonleaf


def _check_workers(workers: int) -> None:
    """Refuse a worker count below 1, and a NumPy whose generator state qtree cannot write."""
    if workers < 1:
        raise InvalidParameterError(f"worker count must be >= 1, got {workers}")
    _check_pcg64_layout()


def _tasks(sizes: list[tuple[int, int]], workers: int) -> list[list[tuple[int, int, int]]]:
    """Each (n, r) row's tasks (start, stop, block), in blocks of `_block_size(n)`."""
    blocks = [_block_size(n) for n, _ in sizes]
    ranges = _task_ranges([(r, block) for (_, r), block in zip(sizes, blocks)], workers)
    return [[(start, stop, block) for start, stop in row] for block, row in zip(blocks, ranges)]


def _ensembles(runs: list[tuple[EnsembleConfig, np.ndarray]],
               workers: int) -> list[EnsembleResult]:
    """The ensemble of each checked config and the CDF it draws from, all tasks in one ordered
    map: in this process at one worker or one task, else in one process pool with no more
    processes than tasks, workers or CPUs this process may use."""
    rows = _tasks([(cfg.n, cfg.r) for cfg, _ in runs], workers)
    tasks = [(cfg, cdf, *task) for (cfg, cdf), row in zip(runs, rows) for task in row]
    if workers == 1 or len(tasks) <= 1:
        done = map(_realize_task, tasks)
    else:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        with Pool(min(workers, len(tasks), cpus or 1)) as pool:
            done = iter(pool.map(_realize_task, tasks, chunksize=1))
    return [_result(cfg, list(islice(done, len(row)))) for (cfg, _), row in zip(runs, rows)]


def _result(cfg: EnsembleConfig, done: list[tuple[np.ndarray, np.ndarray]]) -> EnsembleResult:
    values_array = np.concatenate([v for v, _ in done])
    values = values_array.tolist()
    avg_fs = np.concatenate([a for _, a in done]).tolist()
    mean = math.fsum(values) / cfg.r  # fsum: exactly rounded, order independent
    if cfg.r > 1:
        variance = math.fsum(_python_square(values_array - mean).tolist()) / (cfg.r - 1)
        std_error = math.sqrt(variance / cfg.r)
    else:
        std_error = 0.0
    return EnsembleResult(
        mean_one_minus_chi_lb=mean,
        std_error=std_error,
        realized_avg_f_mean=math.fsum(avg_fs) / cfg.r,
        config=cfg,
        per_realization=tuple(values),
    )


def run_ensemble(cfg: EnsembleConfig, workers: int = 1) -> EnsembleResult:
    """Average 1 - chi_lb over r seeded realizations.

    The per-realization values depend only on the config, never on the
    worker count; rerunning with any parallelism reproduces the result
    bit for bit.
    """
    _check_config(cfg)
    _check_workers(workers)
    (result,) = _ensembles([(cfg, _sft_cdf(cfg.s, cfg.resolved_f_max()))], workers)
    return result


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


def sweep(cfgs: list[EnsembleConfig], workers: int = 1) -> list[SweepRow]:
    """Run one ensemble per config; errors flag the row, never abort the sweep.

    A row that fails a check of its config, made once, gets its status
    and no tasks; the tasks of all other rows run in one ordered map.  No
    realization flags a row: on a checked config every tree has
    a - 1 = (n - 2)/(n - L) > 0 and every parent f - delta = leaf
    neighbours + 1 >= 2.  A worker count below 1 and a NumPy whose
    generator state qtree cannot write raise before the first row.
    """
    if not cfgs:
        raise InvalidParameterError("sweep needs at least one config")
    _check_workers(workers)
    rows = [_sweep_row(cfg) for cfg in cfgs]
    results = iter(_ensembles([(cfg, cdf) for cfg, (_, cdf) in zip(cfgs, rows) if cdf is not None],
                              workers))
    swept = []
    for row, cdf in rows:
        if cdf is not None:
            result = next(results)
            row = replace(row, one_minus_chi_mc_mean=result.mean_one_minus_chi_lb,
                          one_minus_chi_mc_stderr=result.std_error)
        swept.append(row)
    return swept


def sweep_counters(rows: list[SweepRow], workers: int) -> dict[str, int]:
    """The realizations, blocks and seed passes (tasks) `sweep` ran for rows, from `_tasks`."""
    ran = _tasks([(row.n, row.r) for row in rows if row.one_minus_chi_mc_mean is not None], workers)
    sizes = [(stop - start, block) for row in ran for start, stop, block in row]
    return {"realizations": sum(size for size, _ in sizes), "seed_passes": len(sizes),
            "blocks": sum(-(-size // block) for size, block in sizes)}


def _sweep_row(cfg: EnsembleConfig) -> tuple[SweepRow, np.ndarray | None]:
    """cfg's row without Monte Carlo columns, and its CDF, or None if a check failed; as
    `avg_f_sft` refuses every s that `_sft_cdf` refuses, the row's first error is its status."""
    status = "ok"
    f_max = cfg.resolved_f_max()
    avg_f = finite = infinite = cdf = None
    try:
        _check_config(cfg)
        if cfg.s > 2:
            infinite = 1.0 - chi_sft_infinite(cfg.s)
        avg_f = avg_f_sft(cfg.s, f_max)
        cdf = _sft_cdf(cfg.s, f_max)
        finite = 1.0 - _chi_sft_at_mean(avg_f, f_max, cfg.n)
    except QtreeError as exc:
        status = _error_name(exc)
    row = SweepRow(
        s=cfg.s,
        n=cfg.n,
        f_max=f_max,
        r=cfg.r,
        avg_f_analytic=avg_f,
        one_minus_chi_mc_mean=None,
        one_minus_chi_mc_stderr=None,
        one_minus_chi_analytic_finite=finite,
        one_minus_chi_analytic_infinite=infinite,
        status=status,
    )
    return row, cdf
