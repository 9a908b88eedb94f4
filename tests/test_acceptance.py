"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values.  Criteria are asserted exactly at their stated
tolerances; see notes/decisions.md for the analysis of criteria that are
not attainable as stated.
"""
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from qtree import (
    CONNECTIVITY,
    EnsembleConfig,
    build_hamiltonian,
    chi_dendrimer_inf,
    chi_exact,
    chi_lb_dendrimer_inf,
    chi_lb_vicsek_inf,
    chi_lower_from_density,
    chi_sft_finite,
    chi_sft_infinite,
    chi_structural,
    chi_vicsek_inf,
    generate_chain,
    generate_dendrimer,
    generate_sft,
    generate_star,
    generate_vicsek,
    kappa_fit,
    multiplicity_exact,
    rho_star_structural,
    run_ensemble,
    structural_stats,
    time_average,
    time_series,
)

from conftest import dense_matrix, dense_reference, leaf_pair_eigenstates


def _criterion(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\n[acceptance] criterion {num:02d} ({name}): {status}{suffix}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _spectrum(g, potential=CONNECTIVITY):
    h = build_hamiltonian(g, potential)
    es = dense_reference(h)
    return h, es, es.spectrum()


def test_criterion_01_chain_identity():
    started = time.monotonic()
    worst = 0.0
    for n in range(2, 65):
        _, _, sp = _spectrum(generate_chain(n))
        worst = max(worst, abs(chi_exact(sp) - 1.0 / n))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-10 and elapsed < 5.0
    _criterion(1, "chain identity chi = 1/N", ok,
               f"max |chi - 1/N| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_star_identity():
    started = time.monotonic()
    worst = 0.0
    mult_ok = True
    for n in range(3, 65):
        g = generate_star(n)
        h, es, sp = _spectrum(g)
        worst = max(worst, abs(chi_exact(sp) - (1.0 - (4.0 * n - 6.0) / n**2)))
        if sp.multiplicity_at(1.0) != n - 2 or multiplicity_exact(h, 1) != n - 2:
            mult_ok = False
    elapsed = time.monotonic() - started
    ok = worst <= 1e-10 and mult_ok and elapsed < 5.0
    _criterion(2, "star identity chi = 1-(4N-6)/N^2", ok,
               f"max dev = {worst:.2e}, multiplicities N-2 both ways: {mult_ok}, "
               f"{elapsed:.2f}s")


def test_criterion_03_structural_identities():
    started = time.monotonic()

    def identity_dev(g):
        st = structural_stats(g)
        d1 = abs(st.n_parents - st.n_leaves / (st.avg_f_minus_delta_parents - 1.0))
        d2 = abs(st.n_leaves - (g.n - (g.n - 2) / (st.avg_f_nonleaf - 1.0)))
        return max(d1, d2)

    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        s = float(rng.uniform(2.1, 4.0))
        g = generate_sft(200, s, seed=int(rng.integers(0, 2**63)))
        worst = max(worst, identity_dev(g))
    deterministic = (
        [generate_chain(n) for n in (3, 10, 100, 1000)]
        + [generate_star(n) for n in (3, 10, 100, 1000)]
        + [generate_dendrimer(3, g) for g in range(1, 9)]
        + [generate_dendrimer(4, g) for g in range(1, 6)]
        + [generate_dendrimer(6, g) for g in range(1, 4)]
        + [generate_vicsek(3, g) for g in range(1, 6)]
        + [generate_vicsek(4, g) for g in range(1, 5)]
        + [generate_vicsek(5, g) for g in range(1, 4)]
    )
    for g in deterministic:
        if g.n >= 3:
            worst = max(worst, identity_dev(g))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-12
    _criterion(3, "structural count identities", ok,
               f"max deviation = {worst:.2e} over 1000 SFTs + deterministic "
               f"families up to N=1024, {elapsed:.1f}s")


def test_criterion_04_leaf_pair_eigenstates():
    graphs = [
        generate_chain(8),
        generate_star(8),
        generate_star(40),
        generate_dendrimer(3, 4),
        generate_dendrimer(4, 3),
        generate_vicsek(3, 3),
        generate_vicsek(4, 2),
        generate_sft(200, 2.4, seed=12),
        generate_sft(150, 3.5, seed=13),
    ]
    worst = 0.0
    counts_ok = True
    for g in graphs:
        st = structural_stats(g)
        h = build_hamiltonian(g, CONNECTIVITY)
        vectors = leaf_pair_eigenstates(h)
        if len(vectors) != st.n_leaves - st.n_parents:
            counts_ok = False
        matrix = dense_matrix(h)
        for v in vectors:
            worst = max(worst, float(np.max(np.abs(matrix @ v - h.e_star * v))))
    ok = worst <= 1e-12 and counts_ok
    _criterion(4, "leaf-pair eigenstates at E*", ok,
               f"max residual = {worst:.2e}, counts N_L - N_P: {counts_ok}")


def test_criterion_05_closed_forms_exact():
    checks = [
        (chi_dendrimer_inf(3), Fraction(1, 9)),
        (chi_vicsek_inf(4), Fraction(2, 11)),
        (chi_lb_dendrimer_inf(3), Fraction(1, 16)),
        (chi_lb_vicsek_inf(4), Fraction(16, 225)),
    ]
    ok = all(isinstance(got, Fraction) and got == want for got, want in checks)
    _criterion(5, "infinite-size closed forms", ok,
               ", ".join(str(got) for got, _ in checks))


def test_criterion_06_finite_size_convergence():
    g = generate_dendrimer(3, 8)
    h = build_hamiltonian(g, CONNECTIVITY)
    mult = multiplicity_exact(h, 1)
    rho = mult / g.n
    # E* density of dendrimer(3,g) tends to 1/4 + 1/64 + ... = 4/15: each
    # antisymmetric pair of k-level subtrees holds E* iff k = 1 (mod 4)
    # (derivation in notes/decisions.md, section 06)
    target = Fraction(4, 15)
    dendr_rel = abs(rho - target) / target
    dendr_ok = dendr_rel <= 0.05
    st = structural_stats(generate_vicsek(4, 4))
    vicsek_rel = abs(st.avg_f_nonleaf - 8 / 3) / (8 / 3)
    vicsek_ok = vicsek_rel <= 0.02
    ok = dendr_ok and vicsek_ok
    _criterion(6, "finite-size convergence", ok,
               f"dendrimer(3,8): nullity {mult}/766 = {rho:.5f} vs 4/15 "
               f"(rel {dendr_rel:.1%}, need <=5%: {dendr_ok}); "
               f"vicsek(4,4): <f> = {st.avg_f_nonleaf:.5f} vs 8/3 "
               f"(rel {vicsek_rel:.2%}, need <=2%: {vicsek_ok})")


def test_criterion_07_universal_exponent():
    started = time.monotonic()
    eps = np.logspace(-3, np.log10(5e-2), 20)
    sft_slope = kappa_fit(
        [(float(e), 1.0 - chi_sft_infinite(2.0 + float(e))) for e in eps]
    ).slope
    # control parameter is the inverse mean non-leaf functionality:
    # 1/f for dendrimers, 3/(f+4) for Vicsek fractals
    dendr_slope = kappa_fit(
        [(1.0 / f, 1.0 - float(chi_lb_dendrimer_inf(f))) for f in range(8, 65)]
    ).slope
    vicsek_slope = kappa_fit(
        [(3.0 / (f + 4), 1.0 - float(chi_lb_vicsek_inf(f))) for f in range(8, 65)]
    ).slope
    elapsed = time.monotonic() - started
    sft_ok = abs(sft_slope - 1.0) <= 0.02
    dendr_ok = abs(dendr_slope - 1.0) <= 0.02
    vicsek_ok = abs(vicsek_slope - 1.0) <= 0.02
    ok = sft_ok and dendr_ok and vicsek_ok and elapsed < 1.0
    _criterion(7, "universal exponent fits", ok,
               f"sft {sft_slope:.4f} ({sft_ok}), dendrimer {dendr_slope:.4f} "
               f"({dendr_ok}), vicsek {vicsek_slope:.4f} ({vicsek_ok}), "
               f"{elapsed:.2f}s")


def test_criterion_08_ensemble_sweep_vs_analytic():
    started = time.monotonic()
    n, r, f_max = 100, 10_000, 99
    s_values = (2.2, 2.6, 3.0, 4.0, 6.0)
    lines = []
    devs = []
    means = []
    for s in s_values:
        res = run_ensemble(
            EnsembleConfig(n=n, s=s, r=r, master_seed=20260810,
                           estimator="structural-delta0")
        )
        analytic = 1.0 - chi_sft_finite(s, f_max, n)
        dev = (res.mean_one_minus_chi_lb - analytic) / res.std_error
        devs.append(dev)
        means.append(res.mean_one_minus_chi_lb)
        lines.append(
            f"s={s}: mc={res.mean_one_minus_chi_lb:.6f}+-{res.std_error:.1e} "
            f"analytic={analytic:.6f} dev={dev:+.1f}se"
        )
    elapsed = time.monotonic() - started
    # the bound decays toward the chain value 1/N as s grows, so the MC
    # estimate of chi_lb must fall monotonically (its complement rises)
    monotone_ok = all(a < b for a, b in zip(means, means[1:]))
    within_ok = all(abs(d) <= 3.0 for d in devs)
    ok = monotone_ok and within_ok and elapsed < 120.0
    _criterion(8, "ensemble sweep vs analytic curve", ok,
               "; ".join(lines) + f"; monotone: {monotone_ok}, "
               f"all |dev|<=3se: {within_ok}, {elapsed:.0f}s")


def test_criterion_09_time_domain_inequality():
    started = time.monotonic()
    worst_gap = -1.0
    worst_avg = 0.0
    for g in [generate_chain(8), generate_star(8), generate_dendrimer(3, 3)]:
        ts = time_series(build_hamiltonian(g), samples=10_000)
        worst_gap = max(worst_gap, float(np.max(ts.abs_alpha_sq - ts.pi_bar)))
        worst_avg = max(worst_avg, abs(time_average(ts.abs_alpha_sq, ts.times)
                                       - chi_exact(ts.weights.spectrum)))
    elapsed = time.monotonic() - started
    ok = worst_gap <= 1e-12 and worst_avg <= 1e-2 and elapsed < 30.0
    _criterion(9, "time-domain inequality and average", ok,
               f"max(|alpha|^2 - pi) = {worst_gap:.2e}, "
               f"max |avg - chi| = {worst_avg:.2e}, {elapsed:.1f}s")


def test_criterion_10_sweep_determinism(tmp_path):
    def cli(*args):
        return subprocess.run([sys.executable, "-m", "qtree", *args],
                              capture_output=True, text=True)

    out = tmp_path / "sweep.csv"
    res = cli("sweep", "--n", "100", "--s-grid", "2.3,3.0", "--r", "500",
              "--seed", "77", "--workers", "1", "--out", str(out))
    rerun_out = tmp_path / "rerun.csv"
    res2 = cli("rerun", str(out) + ".manifest.json", "--out", str(rerun_out),
               "--workers", "8")
    ok = (res.returncode == 0 and res2.returncode == 0
          and out.read_bytes() == rerun_out.read_bytes())
    _criterion(10, "manifest rerun determinism", ok,
               "1-worker vs 8-worker rerun byte-identical")


def test_criterion_11_truncation_bound():
    graphs = (
        [generate_chain(n) for n in (5, 9, 33, 200)]
        + [generate_star(n) for n in (5, 9, 33, 200)]
        + [generate_dendrimer(3, g) for g in (2, 4, 6)]
        + [generate_dendrimer(5, 2)]
        + [generate_vicsek(3, 3), generate_vicsek(4, 2), generate_vicsek(4, 3)]
        + [generate_sft(n, s, seed=seed)
           for n, s, seed in ((50, 2.2, 1), (120, 2.8, 2), (500, 3.5, 3))]
    )
    worst_scaled = 0.0
    star5_gap = None
    for g in graphs:
        st = structural_stats(g)
        gap = abs(
            chi_structural(st, g.n)
            - chi_lower_from_density(rho_star_structural(st, g.n), g.n)
        )
        worst_scaled = max(worst_scaled, gap * g.n**2)
        if g.label == "star(n=5)":
            star5_gap = gap
    ok = worst_scaled <= 10.0 and star5_gap == pytest.approx(0.01, abs=1e-12)
    _criterion(11, "order-1/N truncation bound", ok,
               f"max N^2 * |gap| = {worst_scaled:.3f} (<= 10), "
               f"star(5) gap = {star5_gap:.4f} (0.45 vs 0.44)")
