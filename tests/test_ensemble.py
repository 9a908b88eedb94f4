import hashlib
import math
import os
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtree import (
    CONNECTIVITY,
    EnsembleConfig,
    InvalidParameterError,
    SizeLimitError,
    build_hamiltonian,
    chi_lower_from_density,
    chi_structural,
    generate_sft,
    realization_seed,
    run_ensemble,
    structural_stats,
    sweep,
)
from qtree import ensemble, graphs
from qtree.cli import sweep_csv_text
from qtree.ensemble import _realization_seeds, _realize_task, _tasks
from qtree.graphs import _BUCKETS, MAX_NODES_DEFAULT, _sft_cdf, _uniform_rows
from qtree.spectral import _bin

from conftest import dense_matrix, dense_reference, result_reference


def test_three_node_ensemble_is_forced():
    # every realization is the 3-path, whose structural bound is 1/3
    for estimator in ("structural-delta0", "structural-measured"):
        res = run_ensemble(
            EnsembleConfig(n=3, s=2.5, r=64, master_seed=5, estimator=estimator)
        )
        assert res.mean_one_minus_chi_lb == pytest.approx(1 - 1 / 3, abs=1e-15)
        assert res.std_error == 0.0


def test_single_realization_has_zero_stderr():
    res = run_ensemble(EnsembleConfig(n=50, s=2.5, r=1, master_seed=1))
    assert res.std_error == 0.0
    assert res.per_realization == (res.mean_one_minus_chi_lb,)


def test_deterministic_across_worker_counts():
    # r = 2000 at n = 80 spans three realization blocks of 820
    cfg = EnsembleConfig(n=80, s=2.4, r=2000, master_seed=77)
    serial = run_ensemble(cfg, workers=1)
    parallel = run_ensemble(cfg, workers=4)
    assert serial.per_realization == parallel.per_realization
    assert serial.mean_one_minus_chi_lb == parallel.mean_one_minus_chi_lb
    assert serial.std_error == parallel.std_error
    assert serial.realized_avg_f_mean == parallel.realized_avg_f_mean


@pytest.mark.parametrize("estimator, n, r", [
    ("structural-delta0", 100, 1500), ("structural-measured", 60, 2400),
    ("spectral-exact", 60, 40),
])
def test_block_size_does_not_change_any_realization(monkeypatch, estimator, n, r):
    # a block's trees share its arrays of draws and slot prefix sums, and a task's trees
    # its seeds, generator and bound: a slip at a tree, block or task boundary would leak
    # into the next tree
    cfg = EnsembleConfig(n=n, s=2.3, r=r, master_seed=9, estimator=estimator)
    expected = run_ensemble(cfg)
    for size in (1, 7, 656):
        monkeypatch.setattr(ensemble, "_block_size", lambda n, size=size: size)
        for workers in (1, 2, 3):
            assert run_ensemble(cfg, workers=workers) == expected, (size, workers)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.tuples(st.integers(1, 10**6), st.integers(3, MAX_NODES_DEFAULT)),
                     min_size=1, max_size=6),
       workers=st.integers(1, 64))
def test_tasks_are_whole_blocks_of_at_most_2_14_realizations(rows, workers):
    sizes = [(r, ensemble._block_size(n)) for r, n in rows]
    tasks = _tasks([(n, r) for r, n in rows], workers)
    assert len(tasks) == len(rows)
    for (r, block), ranges in zip(sizes, tasks):
        assert all(size == block for _, _, size in ranges)
        assert [start for start, _, _ in ranges] == [0, *(stop for _, stop, _ in ranges[:-1])]
        assert ranges[-1][1] == r
        assert all(0 < stop - start <= 2**14 for start, stop, _ in ranges)
        assert all((stop - start) % block == 0 for start, stop, _ in ranges[:-1])
        if workers == 1:  # as few tasks as the cap allows
            assert len(ranges) == -(-r // (2**14 // block * block))
    # more workers get about four tasks each over the whole sweep, unless the cap cuts a row
    if workers > 1 and all(len(ranges) == 1 or ranges[0][1] < 2**14 // block * block
                           for (_, block), ranges in zip(sizes, tasks)):
        assert sum(map(len, tasks)) < 4 * workers + len(rows)


def test_each_task_hashes_its_seeds_once(monkeypatch):
    # n = 10 takes blocks of 6554 and tasks of two blocks, so r = 30 000 is three tasks
    hashed = []
    real_pcg64_states = graphs._pcg64_states

    def pcg64_states(seeds):
        hashed.append(len(seeds))
        return real_pcg64_states(seeds)

    cfg = EnsembleConfig(n=10, s=2.5, r=30_000, master_seed=4)
    expected = run_ensemble(cfg)
    monkeypatch.setattr(graphs, "_pcg64_states", pcg64_states)
    assert run_ensemble(cfg, workers=1) == expected
    assert hashed == [13_108, 13_108, 3784]
    assert len(hashed) == len(_tasks([(cfg.n, cfg.r)], 1)[0])


def test_structural_block_counts_from_draws_alone(monkeypatch):
    # the trees are counted in closed form from their running slot sums, so no parent array
    # is built and neither bincount nor a per-node count runs; a task hashes its seeds and
    # builds its guide table once, and then, block by block, searches only the draws in a
    # bucket (b, b + 1] / K that holds a CDF entry, and its running sum twice, once per tree
    searched, hashed = [], []
    real_searchsorted = np.searchsorted
    real_realization_seeds = ensemble._realization_seeds
    real_pcg64_states = graphs._pcg64_states

    def searchsorted(a, v, *args, **kwargs):
        searched.append((a is cdf, np.size(v)))
        return real_searchsorted(a, v, *args, **kwargs)

    def realization_seeds(*args):
        hashed.append("splitmix64")
        return real_realization_seeds(*args)

    def pcg64_states(seeds):
        hashed.append("seed sequence")
        return real_pcg64_states(seeds)

    def refuse(*args, **kwargs):
        raise AssertionError("a structural block built parent arrays or counted per node")

    n, block = 100, 656
    r = 3 * block + 5  # three full blocks and a partial one
    cdf = _sft_cdf(2.5, n - 1)
    held = np.unique(np.ceil(cdf * _BUCKETS) - 1)  # c * K is exact: K is a power of two
    seeds = _realization_seeds(0, np.arange(r, dtype=np.uint64))
    ambiguous = [int(np.isin(np.floor(draws * _BUCKETS), held).sum())
                 for draws in _uniform_rows(seeds, n, block)]
    assert len(ambiguous) == 4
    assert all(0 < count < 0.05 * block * n for count in ambiguous)
    for estimator in ("structural-delta0", "structural-measured"):
        task = (EnsembleConfig(n=n, s=2.5, r=r, estimator=estimator), cdf, 0, r, block)
        expected = _realize_task(task)
        searched.clear()
        hashed.clear()
        with monkeypatch.context() as m:
            m.setattr(np, "searchsorted", searchsorted)
            m.setattr(np, "repeat", refuse)
            m.setattr(np, "bincount", refuse)
            m.setattr(np, "count_nonzero", refuse)
            m.setattr(ensemble, "_realization_seeds", realization_seeds)
            m.setattr(graphs, "_pcg64_states", pcg64_states)
            got = _realize_task(task)
        assert hashed == ["splitmix64", "seed sequence"]
        assert [size for of_cdf, size in searched if of_cdf] == [_BUCKETS + 1, *ambiguous]
        # L and P: two searches of the running sum per block, one target per tree each
        sums_searched = [size for of_cdf, size in searched if not of_cdf]
        assert sums_searched == [trees for trees in (block,) * 3 + (5,) for _ in range(2)]
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))


def test_realization_seeds_injective():
    seeds = {realization_seed(12345, i) for i in range(20_000)}
    assert len(seeds) == 20_000
    assert realization_seed(1, 0) != realization_seed(2, 0)


def _splitmix64_reference(x):
    x = (x + 0x9E3779B97F4A7C15) & (2**64 - 1)
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
    return z ^ (z >> 31)


def test_realization_seed_is_splitmix64_of_master_and_index():
    for master, index in ((0, 0), (12345, 7), (2**64 - 1, 2**64 - 1), (-3, 2**70 + 5)):
        expected = _splitmix64_reference(
            (master & (2**64 - 1)) ^ _splitmix64_reference(index & (2**64 - 1)))
        assert realization_seed(master, index) == expected


def test_block_realization_seeds_equal_scalar_seeds():
    rng = np.random.default_rng(2024)
    masters = [0, 2**64 - 1, *rng.integers(0, 2**64 - 1, size=6, dtype=np.uint64, endpoint=True)]
    for master in map(int, masters):
        start = int(rng.integers(0, 10**6))
        block = _realization_seeds(master, np.arange(start, start + 700, dtype=np.uint64))
        assert block.dtype == np.uint64
        assert block.tolist() == [realization_seed(master, i) for i in range(start, start + 700)]


def test_structural_values_match_efficiency_module():
    # oracle equality at every index, for both structural estimators:
    # per-realization values recomputed from each graph; r = 1000 at
    # n = 100 is one full block of 656 and a partial one
    stats = [structural_stats(generate_sft(100, 2.5, 99, realization_seed(3, index)))
             for index in range(1000)]
    for estimator, mode in (("structural-delta0", "force-zero"),
                            ("structural-measured", "use-measured")):
        cfg = EnsembleConfig(n=100, s=2.5, r=1000, master_seed=3, estimator=estimator)
        res = run_ensemble(cfg)
        for index, st in enumerate(stats):
            assert res.per_realization[index] == 1.0 - chi_structural(st, mode), index
        assert res.realized_avg_f_mean == math.fsum(st.avg_f_nonleaf for st in stats) / cfg.r


def test_measured_mode_uses_measured_delta():
    cfg0 = EnsembleConfig(n=100, s=2.3, r=50, master_seed=9, estimator="structural-delta0")
    cfg1 = EnsembleConfig(n=100, s=2.3, r=50, master_seed=9, estimator="structural-measured")
    r0 = run_ensemble(cfg0)
    r1 = run_ensemble(cfg1)
    assert r0.per_realization != r1.per_realization
    g = generate_sft(100, 2.3, 99, realization_seed(9, 0))
    st = structural_stats(g)
    assert r1.per_realization[0] == 1.0 - chi_structural(st, "use-measured")


def test_spectral_exact_estimator_matches_direct_path():
    cfg = EnsembleConfig(n=40, s=2.5, r=8, master_seed=21, estimator="spectral-exact")
    res = run_ensemble(cfg)
    g = generate_sft(40, 2.5, 39, realization_seed(21, 2))
    h = build_hamiltonian(g, CONNECTIVITY)
    sp = dense_reference(h).spectrum()
    expected = 1.0 - chi_lower_from_density(sp.density_at(h.e_star), 40)
    assert res.per_realization[2] == expected


def test_spectral_exact_deterministic_across_workers():
    cfg = EnsembleConfig(n=30, s=2.5, r=24, master_seed=6, estimator="spectral-exact")
    serial = run_ensemble(cfg, workers=1)
    parallel = run_ensemble(cfg, workers=3)
    assert serial.per_realization == parallel.per_realization


def test_spectral_exact_runs_above_the_dense_solver_limit():
    # the estimator reads the exact E* multiplicity and solves nothing, so
    # n = 5000 runs; the reference is the binned spectrum of the dense matrix
    res = run_ensemble(EnsembleConfig(n=5000, s=2.5, r=1, estimator="spectral-exact"))
    h = build_hamiltonian(generate_sft(5000, 2.5, 4999, realization_seed(0, 0)), CONNECTIVITY)
    density = _bin([(np.linalg.eigvalsh(dense_matrix(h)), 1)], None).density_at(h.e_star)
    assert res.per_realization[0] == 1.0 - chi_lower_from_density(density, 5000)


def test_ensemble_size_limit():
    with pytest.raises(SizeLimitError, match="above the limit"):
        run_ensemble(EnsembleConfig(n=MAX_NODES_DEFAULT + 1, s=2.5, r=1))


def test_sweep_checks_each_row_before_its_analytic_values(monkeypatch):
    # the analytic mean loops over f_max = n - 1 values; an oversize row never reaches it
    def analytic_mean(*args):
        raise AssertionError("analytic values computed before the size check")

    monkeypatch.setattr("qtree.ensemble.avg_f_sft", analytic_mean)
    (row,) = sweep([EnsembleConfig(n=MAX_NODES_DEFAULT + 1, s=2.5, r=1)])
    assert row.status == "size-limit"
    assert row.avg_f_analytic is None


def test_sweep_refuses_more_realizations_than_the_limit_in_its_row(monkeypatch):
    # every task is listed before any runs, so an r of 10^12 would exhaust memory first
    monkeypatch.setattr(ensemble, "_ensembles", lambda *args: iter(()))
    (row,) = sweep([EnsembleConfig(n=100, s=2.5, r=MAX_NODES_DEFAULT + 1)])
    assert row.status == "size-limit"
    assert row.one_minus_chi_mc_mean is None
    ensemble._check_config(EnsembleConfig(n=100, s=2.5, r=MAX_NODES_DEFAULT))


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        run_ensemble(EnsembleConfig(n=50, s=2.5, r=0))
    with pytest.raises(InvalidParameterError):
        run_ensemble(EnsembleConfig(n=50, s=2.5, r=1, estimator="exact"))
    with pytest.raises(InvalidParameterError):
        run_ensemble(EnsembleConfig(n=50, s=2.5, r=4), workers=0)
    # a bad worker count is no row's error: sweep raises before its first row
    with pytest.raises(InvalidParameterError, match="worker count must be >= 1, got 0"):
        sweep([EnsembleConfig(n=50, s=2.5, r=4)], workers=0)


def test_sweep_rows_share_one_pool_and_match_one_worker(monkeypatch):
    # count the pools the sweep starts: one for all its rows, whose tasks map in order; two
    # usable CPUs, so that a pool starts on any host
    started, start_pool = [], ensemble.ProcessPoolExecutor

    def counting_pool(max_workers):
        started.append(max_workers)
        return start_pool(max_workers)

    monkeypatch.setattr(ensemble, "ProcessPoolExecutor", counting_pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfgs = [EnsembleConfig(n=80, s=s, r=2000, master_seed=77) for s in (2.2, 3.0, 4.0)]
    one_task = [EnsembleConfig(n=80, s=2.2, r=500, master_seed=77)]  # one block of 820
    expected, expected_one = sweep_csv_text(sweep(cfgs)), sweep_csv_text(sweep(one_task))
    assert started == []  # one worker runs every row in the process
    for workers in (2, 3):
        started.clear()
        assert sweep_csv_text(sweep(cfgs, workers=workers)) == expected
        assert len(started) == 1 and started[0] <= workers
        started.clear()
        assert sweep_csv_text(sweep(one_task, workers=workers)) == expected_one
        assert started == []  # a single task runs in the process


def test_sweep_of_mixed_rows_equals_one_row_sweeps_at_any_worker_count():
    # a row that fails a check gets no tasks; the tasks of the others, of several n, follow
    # each other in one map, and each row reads as the sweep of its config alone
    cfgs = [
        EnsembleConfig(n=80, s=2.4, r=2000, master_seed=3),
        EnsembleConfig(n=50, s=1075, r=10),  # weights underflow
        EnsembleConfig(n=120, s=3.0, r=1500, master_seed=5),
        EnsembleConfig(n=50, s=2.5, r=0),
        EnsembleConfig(n=60, s=2.5, f_max=2, r=700, master_seed=1),  # chains: no analytic value
        EnsembleConfig(n=50, s=2.5, r=4, estimator="exact"),
        EnsembleConfig(n=30, s=2.2, r=40, master_seed=2, estimator="spectral-exact"),
    ]
    expected = [row for cfg in cfgs for row in sweep([cfg])]
    assert [row.status for row in expected] == [
        "ok", "invalid-parameter", "ok", "invalid-parameter", "degenerate-average",
        "invalid-parameter", "ok"]
    assert [row.one_minus_chi_mc_mean is None for row in expected] == [
        False, True, False, True, False, True, False]
    for workers in (1, 2, 3):
        assert sweep(cfgs, workers=workers) == expected, workers


def test_pool_processes_are_capped_at_the_usable_cpus(monkeypatch, in_process_pool):
    # 5000 workers lay out a task per block, and the pool still starts a process per CPU
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cfg = EnsembleConfig(n=100, s=2.5, r=20_000, master_seed=8)
    expected = run_ensemble(cfg)
    assert len(_tasks([(cfg.n, cfg.r)], 5000)[0]) == 31
    assert run_ensemble(cfg, workers=5000) == expected
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert run_ensemble(cfg, workers=5000) == expected
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert run_ensemble(cfg, workers=5000) == expected
    assert run_ensemble(cfg, workers=4) == expected
    first = [min(31, cpus)] if cpus > 1 else []  # no pool when the cap is 1
    assert in_process_pool.started == [*first, 3, 5, 4]


def test_one_usable_cpu_runs_in_process_at_any_worker_count(monkeypatch, in_process_pool):
    # min(workers, tasks, CPUs) is 1: a pool of one process would only copy every task
    cfg = EnsembleConfig(n=100, s=2.5, r=20_000, master_seed=8)
    expected = run_ensemble(cfg)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert run_ensemble(cfg, workers=4) == expected
    assert in_process_pool.started == []


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), r=st.sampled_from([1, 2]) | st.integers(3, 400),
       handful=st.booleans())
def test_result_equals_the_three_list_reduction(data, r, handful):
    # the reduction's fields, bit for bit, over values split into one or several tasks, with
    # many distinct values or only a handful, as in a row at large s
    unit = st.floats(0.0, 1.0)
    if handful:
        unit = st.sampled_from(data.draw(st.lists(unit, min_size=1, max_size=4)))
    values = data.draw(st.lists(unit, min_size=r, max_size=r))
    avg_fs = data.draw(st.lists(st.floats(2.0, 100.0), min_size=r, max_size=r))
    cuts = sorted(set(data.draw(st.lists(st.integers(1, max(1, r - 1)), max_size=4))) - {r})
    done = [(np.array(values[a:b], dtype=float), np.array(avg_fs[a:b], dtype=float))
            for a, b in zip([0, *cuts], [*cuts, r])]
    cfg = EnsembleConfig(n=100, s=2.5, r=r)
    got, want = ensemble._result(cfg, done), result_reference(cfg, done)
    assert got == want and repr(got) == repr(want)  # repr: every float's bits, and 0.0's sign


def test_a_row_is_reduced_in_under_100_bytes_a_realization():
    # the values made Python floats once, as one tuple, and the list of their squared
    # deviations peak at about 72 B a realization; three lists took 121 B
    cfg = EnsembleConfig(n=100, s=2.5, r=200_000)
    cdf = _sft_cdf(cfg.s, cfg.resolved_f_max())
    done = [_realize_task((cfg, cdf, *task)) for task in _tasks([(cfg.n, cfg.r)], 1)[0]]
    tracemalloc.start()
    try:
        ensemble._result(cfg, done)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / cfg.r < 100, peak / cfg.r


def test_sweep_preserves_order_and_monotonicity():
    cfgs = [
        EnsembleConfig(n=100, s=s, r=2000, master_seed=11) for s in (2.2, 2.6, 3.0, 4.0)
    ]
    rows = sweep(cfgs)
    assert [row.s for row in rows] == [2.2, 2.6, 3.0, 4.0]
    assert all(row.status == "ok" for row in rows)
    # the efficiency bound decays toward the chain value as s grows,
    # so its complement 1 - chi_lb rises with s
    means = [row.one_minus_chi_mc_mean for row in rows]
    assert all(a < b for a, b in zip(means, means[1:]))
    finite = [row.one_minus_chi_analytic_finite for row in rows]
    assert all(a < b for a, b in zip(finite, finite[1:]))


@pytest.mark.parametrize("workers", [1, 2], ids=["workers=1", "workers=2"])
def test_a_sweep_holds_one_rows_result_at_a_time(monkeypatch, workers):
    # a row's result, which holds each of its realizations' values, is let go before the next
    # row's is made, so a sweep's memory does not grow with its rows
    made = []
    real_result = ensemble._result

    def result(cfg, done):
        assert all(ref() is None for ref in made), len(made)
        res = real_result(cfg, done)
        made.append(weakref.ref(res))
        return res

    cfgs = [EnsembleConfig(n=60, s=s, r=3000, master_seed=5) for s in (2.2, 2.6, 3.0, 4.0)]
    expected = sweep(cfgs)
    monkeypatch.setattr(ensemble, "_result", result)
    assert sweep(cfgs, workers=workers) == expected
    assert len(made) == len(cfgs)


def test_sweep_flags_degenerate_rows_and_continues():
    cfgs = [
        EnsembleConfig(n=50, s=2.5, f_max=2, r=10, master_seed=1),
        EnsembleConfig(n=50, s=2.5, r=10, master_seed=1),
    ]
    rows = sweep(cfgs)
    assert rows[0].status == "degenerate-average"
    assert rows[0].one_minus_chi_analytic_finite is None
    # capped functionality forces chains; the bound is exactly 1/n
    assert rows[0].one_minus_chi_mc_mean == pytest.approx(1 - 1 / 50, abs=1e-14)
    assert rows[1].status == "ok"


def test_sweep_flags_an_s_whose_weights_underflow_and_continues():
    # 2^-s is 0 above s = 1074; at 1074 every node takes functionality 2, so every
    # realization is a chain, whose bound is exactly 1/n
    rows = sweep([EnsembleConfig(n=50, s=s, r=10, master_seed=1) for s in (1075, 1e308, 1074)])
    assert [row.status for row in rows] == ["invalid-parameter"] * 2 + ["degenerate-average"]
    assert all(row.avg_f_analytic is None and row.one_minus_chi_mc_mean is None
               for row in rows[:2])
    assert rows[2].avg_f_analytic == 2.0
    assert rows[2].one_minus_chi_mc_mean == pytest.approx(1 - 1 / 50, abs=1e-14)


def test_sweep_rejects_empty_list():
    with pytest.raises(InvalidParameterError):
        sweep([])


def test_sweep_csv_layout():
    rows = sweep(
        [
            EnsembleConfig(n=60, s=1.8, r=5, master_seed=2),
            EnsembleConfig(n=60, s=2.5, r=5, master_seed=2),
        ]
    )
    text = sweep_csv_text(rows)
    lines = text.splitlines()
    assert lines[0] == "# qtree-format=1"
    assert lines[1] == (
        "s,n,f_max,r,avg_f_analytic,one_minus_chi_mc_mean,one_minus_chi_mc_stderr,"
        "one_minus_chi_analytic_finite,one_minus_chi_analytic_infinite,status"
    )
    low_s = lines[2].split(",")
    high_s = lines[3].split(",")
    # no infinite-size value at s <= 2: field stays empty, row still ok
    assert low_s[8] == ""
    assert low_s[9] == "ok"
    assert high_s[8] != ""
    assert float(high_s[0]) == 2.5
    assert high_s[1:4] == ["60", "59", "5"]


SWEEP_SHA256 = {
    # (estimator, n, r) -> SHA-256 of the sweep CSV over s = 2.2, 3.0, 6.0 with master seed 0
    ("structural-delta0", 100, 2000):
        "6fb487fde73f81a093cb6ecfb733acc4935cf8fcf264330c426a91c24004e348",
    ("structural-measured", 100, 2000):
        "f348ea5bc1a851657b41c89d09068f1edfceaca34c19dba7726e3dde3c8342d1",
    ("spectral-exact", 60, 300):
        "0f0e36f646ce9bb3aa81a10011c68765fc198f234bd9add8fd966ef7db8d9cd3",
}


@pytest.mark.parametrize("estimator, n, r", SWEEP_SHA256)
def test_sweep_csv_golden_sha256(estimator, n, r):
    # every realization's draws, seeds and counts stay bit-identical across refactors
    rows = sweep([EnsembleConfig(n=n, s=s, r=r, estimator=estimator) for s in (2.2, 3.0, 6.0)])
    digest = hashlib.sha256(sweep_csv_text(rows).encode()).hexdigest()
    assert digest == SWEEP_SHA256[estimator, n, r]
