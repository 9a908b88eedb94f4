import hashlib
import math

import numpy as np
import pytest

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
    sweep_csv_text,
)
from qtree.ensemble import _realization_seeds
from qtree.graphs import MAX_NODES_DEFAULT
from qtree.spectral import _bin

from conftest import dense_matrix, dense_reference


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
    assert res.per_realization is None


def test_deterministic_across_worker_counts():
    # r = 2000 at n = 80 spans three realization blocks of 820
    cfg = EnsembleConfig(n=80, s=2.4, r=2000, master_seed=77)
    serial = run_ensemble(cfg, workers=1, keep_per_realization=True)
    parallel = run_ensemble(cfg, workers=4, keep_per_realization=True)
    assert serial.per_realization == parallel.per_realization
    assert serial.mean_one_minus_chi_lb == parallel.mean_one_minus_chi_lb
    assert serial.std_error == parallel.std_error
    assert serial.realized_avg_f_mean == parallel.realized_avg_f_mean


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
        res = run_ensemble(cfg, keep_per_realization=True)
        for index, st in enumerate(stats):
            assert res.per_realization[index] == 1.0 - chi_structural(st, 100, mode), index
        assert res.realized_avg_f_mean == math.fsum(st.avg_f_nonleaf for st in stats) / cfg.r


def test_measured_mode_uses_measured_delta():
    cfg0 = EnsembleConfig(n=100, s=2.3, r=50, master_seed=9, estimator="structural-delta0")
    cfg1 = EnsembleConfig(n=100, s=2.3, r=50, master_seed=9, estimator="structural-measured")
    r0 = run_ensemble(cfg0, keep_per_realization=True)
    r1 = run_ensemble(cfg1, keep_per_realization=True)
    assert r0.per_realization != r1.per_realization
    g = generate_sft(100, 2.3, 99, realization_seed(9, 0))
    st = structural_stats(g)
    assert r1.per_realization[0] == 1.0 - chi_structural(st, 100, "use-measured")


def test_spectral_exact_estimator_matches_direct_path():
    cfg = EnsembleConfig(n=40, s=2.5, r=8, master_seed=21, estimator="spectral-exact")
    res = run_ensemble(cfg, keep_per_realization=True)
    g = generate_sft(40, 2.5, 39, realization_seed(21, 2))
    h = build_hamiltonian(g, CONNECTIVITY)
    sp = dense_reference(h).spectrum()
    expected = 1.0 - chi_lower_from_density(sp.density_at(h.e_star), 40)
    assert res.per_realization[2] == expected


def test_spectral_exact_deterministic_across_workers():
    cfg = EnsembleConfig(n=30, s=2.5, r=24, master_seed=6, estimator="spectral-exact")
    serial = run_ensemble(cfg, workers=1, keep_per_realization=True)
    parallel = run_ensemble(cfg, workers=3, keep_per_realization=True)
    assert serial.per_realization == parallel.per_realization


def test_spectral_exact_runs_above_the_dense_solver_limit():
    # the estimator reads the exact E* multiplicity and solves nothing, so
    # n = 5000 runs; the reference is the binned spectrum of the dense matrix
    res = run_ensemble(EnsembleConfig(n=5000, s=2.5, r=1, estimator="spectral-exact"),
                       keep_per_realization=True)
    h = build_hamiltonian(generate_sft(5000, 2.5, 4999, realization_seed(0, 0)), CONNECTIVITY)
    density = _bin(np.linalg.eigvalsh(dense_matrix(h)), None).density_at(h.e_star)
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


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        run_ensemble(EnsembleConfig(n=50, s=2.5, r=0))
    with pytest.raises(InvalidParameterError):
        run_ensemble(EnsembleConfig(n=50, s=2.5, r=1, estimator="exact"))
    with pytest.raises(InvalidParameterError):
        run_ensemble(EnsembleConfig(n=50, s=2.5, r=4), workers=0)


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
