import math
import re
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest

from qtree import (
    CONNECTIVITY,
    DegenerateAverageError,
    InvalidParameterError,
    NoParentsError,
    OutOfDomainError,
    SizeLimitError,
    Spectrum,
    avg_f_sft,
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
    default_time_grid,
    edge_list_text,
    efficiency_report,
    generate_chain,
    generate_dendrimer,
    generate_sft,
    generate_star,
    generate_vicsek,
    kappa_fit,
    return_weights,
    rho_star_structural,
    structural_stats,
    time_average,
    time_series,
    zeta,
)
from qtree import cli, efficiency
from qtree.efficiency import _flat_bound_truncated
from qtree.graphs import (
    MAX_NODES_DEFAULT,
    TreeGraph,
    _count_sft_trees,
    _grow_sft_ends,
    _parent_arrays,
    _sft_cdf,
    _sft_slot_counts,
)

from conftest import dense_reference

mpmath.mp.dps = 30


def spectrum_of(g, potential=CONNECTIVITY):
    """Hamiltonian, dense reference eigensystem and its binned spectrum."""
    h = build_hamiltonian(g, potential)
    es = dense_reference(h)
    return h, es, es.spectrum()


def eq8_fraction_oracle(a: Fraction, b: Fraction, n: int) -> Fraction:
    """Independent exact evaluation of the truncated flat-density bound."""
    lead = (1 - Fraction(1, 1) / (a - 1)) ** 2 * (1 - Fraction(1, 1) / (b - 1)) ** 2
    corr = (
        1
        - ((a - 2) / (a - 1)) * ((b - 2) / (b - 1))
        + 4 * ((a - 2) / (a - 1) ** 2) * ((b - 2) / (b - 1)) ** 2
    )
    return lead + corr / n


# --- chi and its flat-density bound -----------------------------------------

def test_chi_exact_chain3():
    _, _, sp = spectrum_of(generate_chain(3))
    assert chi_exact(sp) == pytest.approx(1 / 3, abs=1e-14)


def test_chi_exact_star4():
    _, _, sp = spectrum_of(generate_star(4))
    assert chi_exact(sp) == pytest.approx(0.375, abs=1e-14)


def test_chi_exact_fully_degenerate():
    sp = Spectrum(classes=((2.5, 7),), n=7, tol_abs=1e-8)
    assert chi_exact(sp) == 1.0


def test_chi_lower_matches_star4_exact():
    assert chi_lower_from_density(0.5, 4) == pytest.approx(0.375, abs=1e-15)


def test_chi_lower_flat_limit():
    for n in (3, 10, 64):
        assert chi_lower_from_density(1.0 / n, n) == pytest.approx(1.0 / n, abs=1e-15)


def test_chi_lower_saturates_at_one():
    assert chi_lower_from_density(1.0, 9) == 1.0


def test_chi_lower_rejects_bad_density():
    with pytest.raises(InvalidParameterError):
        chi_lower_from_density(1.5, 4)


def test_rho_star_structural_values():
    assert rho_star_structural(structural_stats(generate_star(5))) == 0.6
    assert rho_star_structural(structural_stats(generate_dendrimer(3, 2))) == 0.3
    assert rho_star_structural(structural_stats(generate_chain(4))) == 0.0


# --- structural bound ---------------------------------------------------------

def test_chi_structural_star5():
    # a = 4, b = 5: 0.25 + (1/5)(1 - 1/2 + 1/2) = 0.45
    st = structural_stats(generate_star(5))
    value = chi_structural(st)
    assert value == pytest.approx(0.45, abs=1e-14)
    assert value == pytest.approx(float(eq8_fraction_oracle(Fraction(4), Fraction(5), 5)))


def test_chi_structural_dendrimer32():
    # a = b = 3: (1/2)^2 (1/2)^2 + (1/10)(1 - 1/4 + 1/4) = 0.1625
    st = structural_stats(generate_dendrimer(3, 2))
    value = chi_structural(st)
    assert value == pytest.approx(0.1625, abs=1e-14)
    assert value == pytest.approx(float(eq8_fraction_oracle(Fraction(3), Fraction(3), 10)))


def test_chi_structural_chain_limit():
    # a = b = 2 collapses to 1/n
    st = structural_stats(generate_chain(10))
    assert st.avg_f_nonleaf == 2.0
    assert st.avg_f_minus_delta_parents == 2.0
    assert chi_structural(st) == pytest.approx(0.1, abs=1e-15)


def test_chi_structural_delta_modes_differ_on_star():
    st = structural_stats(generate_star(5))
    measured = chi_structural(st, "use-measured")
    forced = chi_structural(st, "force-zero")
    assert forced == pytest.approx(float(eq8_fraction_oracle(Fraction(4), Fraction(4), 5)))
    assert measured != forced


@pytest.mark.parametrize("mode", ["use-measured", "force-zero"])
def test_chi_structural_of_a_block_is_the_scalar_call_on_each_tree(mode):
    # a block's stats, counted in closed form from its slot sums as a sweep counts them,
    # give one value per tree: what each tree's own stats give
    n, seeds = 12, range(300)
    (sums,) = _grow_sft_ends(_sft_cdf(2.2, n - 1), n, seeds, len(seeds))
    values = chi_structural(_count_sft_trees(n, _sft_slot_counts(sums)), mode)
    trees = [structural_stats(TreeGraph(parents)) for parents in _parent_arrays(sums)]
    assert isinstance(values, np.ndarray) and values.shape == (len(seeds),)
    assert values.tolist() == [chi_structural(st, mode) for st in trees]
    assert len({st.avg_f_minus_delta_parents != st.avg_f_parents for st in trees}) == 2


def test_chi_structural_rejects_unknown_mode():
    st = structural_stats(generate_star(5))
    with pytest.raises(InvalidParameterError):
        chi_structural(st, "delta")


# --- power-law average and zeta ------------------------------------------------

def test_avg_f_sft_single_term():
    assert avg_f_sft(2.5, 2) == pytest.approx(2.0, abs=1e-15)


def test_avg_f_sft_large_s_limit():
    # subleading term decays like (2/3)^(s-1)
    assert avg_f_sft(50.0, 100) == pytest.approx(2.0, abs=1e-8)
    assert avg_f_sft(50.0, 100) > 2.0


@pytest.mark.parametrize("s", [1075, 1e308])
def test_avg_f_sft_refuses_an_s_whose_weights_underflow(s):
    with pytest.raises(InvalidParameterError, match="underflow"):
        avg_f_sft(s, 100)
    assert avg_f_sft(1074, 100) == 2.0  # 2^-1074, the smallest subnormal, is the only weight


def test_avg_f_sft_matches_exact_rational_sum():
    # direct summation oracle in exact arithmetic at integer s
    s = 3
    num = sum(Fraction(1, f ** (s - 1)) for f in range(2, 101))
    den = sum(Fraction(1, f**s) for f in range(2, 101))
    assert avg_f_sft(float(s), 100) == pytest.approx(float(num / den), rel=1e-13)


def test_avg_f_sft_between_bounds():
    value = avg_f_sft(2.5, 100)
    assert 2.0 < value < 100.0


def test_zeta_reference_points():
    assert zeta(2.0) == pytest.approx(math.pi**2 / 6, rel=1e-12)
    assert zeta(4.0) == pytest.approx(math.pi**4 / 90, rel=1e-12)


@pytest.mark.parametrize("s", [1.0001, 1.01, 1.1, 1.5, 2.0, 2.5, 3.0, 6.0, 12.0, 30.0])
def test_zeta_against_high_precision_oracle(s):
    assert zeta(s) == pytest.approx(float(mpmath.zeta(s)), rel=1e-12)


def test_zeta_near_pole_value():
    # diverges like 1/(s-1) + euler_gamma
    assert zeta(1.01) == pytest.approx(100.5779433385, rel=1e-10)


def test_zeta_out_of_domain():
    with pytest.raises(OutOfDomainError):
        zeta(1.0)
    with pytest.raises(OutOfDomainError):
        zeta(0.5)


# --- scale-free-tree closed forms ----------------------------------------------

def test_chi_sft_infinite_against_oracle():
    # at large s both zeta differences are about 2^-s: 60 digits keep the oracle exact
    with mpmath.workdps(60):
        for s in (2.01, 2.1, 2.5, 10, 30, 53):
            x = mpmath.mpf(s)
            expected = float(
                1 - 4 * (mpmath.zeta(x) - 1) / (mpmath.zeta(x - 1) - mpmath.zeta(x))
            )
            assert chi_sft_infinite(s) == pytest.approx(expected, rel=1e-11)
    assert chi_sft_infinite(1e4) == -3.0


def test_chi_sft_infinite_asymptotics():
    # near the transition 1 - chi behaves like 4 (zeta(2) - 1)(s - 2)
    s = 2.01
    assert 1 - chi_sft_infinite(s) == pytest.approx(
        4 * (math.pi**2 / 6 - 1) * (s - 2), rel=0.05
    )
    assert 1 - chi_sft_infinite(2.0001) < 1e-3


def test_chi_sft_infinite_domain():
    with pytest.raises(OutOfDomainError):
        chi_sft_infinite(2.0)


def test_chi_sft_finite_matches_structural_form():
    s, f_max, n = 2.5, 99, 100
    a = avg_f_sft(s, f_max)
    oracle = float(eq8_fraction_oracle(Fraction(a), Fraction(a), n))
    assert chi_sft_finite(s, f_max, n) == pytest.approx(oracle, rel=1e-13)


def test_chi_sft_finite_chain_limit():
    assert chi_sft_finite(40.0, 99, 1000) == pytest.approx(1e-3, rel=1e-6)


def test_chi_sft_finite_infinite_size_leaves_leading_term():
    s, f_max = 2.5, 99
    a = avg_f_sft(s, f_max)
    assert chi_sft_finite(s, f_max, 10**15) == pytest.approx(
        (1 - 1 / (a - 1)) ** 4, rel=1e-12
    )


def test_chi_sft_finite_degenerate_average():
    with pytest.raises(DegenerateAverageError):
        chi_sft_finite(2.5, 2, 100)


def test_finite_size_curves_approach_infinite_limit():
    # with f_max = n - 1 the finite-size curve converges to the bound at
    # the untruncated power-law mean (zeta(s-1) - 1)/(zeta(s) - 1)
    s = 2.3
    avg_inf = (zeta(s - 1) - 1.0) / (zeta(s) - 1.0)
    limit = 1.0 - (1.0 - 1.0 / (avg_inf - 1.0)) ** 4
    gaps = [
        abs((1.0 - chi_sft_finite(s, n - 1, n)) - limit)
        for n in (10**2, 10**3, 10**4, 10**5)
    ]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    # truncation at f_max = n - 1 decays like n^(2-s), so slowly
    assert gaps[-1] < 0.02
    assert gaps[-1] < gaps[0] / 5


# --- dendrimer and vicsek closed forms ------------------------------------------

def test_closed_forms_exact_rationals():
    assert chi_dendrimer_inf(3) == Fraction(1, 9)
    assert chi_vicsek_inf(4) == Fraction(2, 11)
    assert chi_lb_dendrimer_inf(3) == Fraction(1, 16)
    assert chi_lb_vicsek_inf(4) == Fraction(16, 225)


def test_closed_forms_bound_ordering():
    assert chi_lb_dendrimer_inf(3) <= chi_dendrimer_inf(3)
    assert chi_lb_vicsek_inf(4) <= chi_vicsek_inf(4)
    for f in (3, 5, 9, 40):
        assert chi_lb_dendrimer_inf(f) <= chi_dendrimer_inf(f)
        assert chi_lb_vicsek_inf(f) <= chi_vicsek_inf(f)


def test_closed_forms_breakdown_limit():
    f = 10**6
    for fn in (chi_dendrimer_inf, chi_vicsek_inf, chi_lb_dendrimer_inf, chi_lb_vicsek_inf):
        assert float(fn(f)) == pytest.approx(1.0, abs=1e-5)


def test_closed_forms_float_input():
    assert chi_dendrimer_inf(3.0) == pytest.approx(1 / 9, rel=1e-15)
    assert isinstance(chi_dendrimer_inf(3.0), float)


def test_closed_forms_domain():
    for fn in (chi_dendrimer_inf, chi_vicsek_inf, chi_lb_dendrimer_inf, chi_lb_vicsek_inf):
        with pytest.raises(OutOfDomainError):
            fn(2)


# --- critical-exponent fit -------------------------------------------------------

def test_kappa_fit_exact_power_law():
    xs = np.logspace(-3, -1, 12)
    fit = kappa_fit([(x, 7.0 * x) for x in xs])
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.residual < 1e-12
    fit = kappa_fit([(x, 2.5 * x**1.7) for x in xs])
    assert fit.slope == pytest.approx(1.7, abs=1e-12)


def test_kappa_fit_input_validation():
    with pytest.raises(OutOfDomainError):
        kappa_fit([(0.1, 1.0), (0.2, 2.0)])
    with pytest.raises(OutOfDomainError):
        kappa_fit([(0.1, 1.0), (0.2, 2.0), (0.2, 3.0)])
    with pytest.raises(OutOfDomainError):
        kappa_fit([(-0.1, 1.0), (0.2, 2.0), (0.3, 3.0)])
    with pytest.raises(OutOfDomainError):
        kappa_fit([(0.1, 0.0), (0.2, 2.0), (0.3, 3.0)])
    for bad in (math.nan, math.inf):
        with pytest.raises(OutOfDomainError, match="finite"):
            kappa_fit([(0.1, 1.0), (0.2, bad), (0.3, 3.0)])
        with pytest.raises(OutOfDomainError, match="finite"):
            kappa_fit([(0.1, 1.0), (0.2, 2.0), (bad, 3.0)])


def test_kappa_fit_sft_universal_exponent():
    eps = np.logspace(-3, math.log10(5e-2), 20)
    fit = kappa_fit([(e, 1.0 - chi_sft_infinite(2.0 + e)) for e in eps])
    assert fit.slope == pytest.approx(1.0, abs=0.02)


def test_kappa_fit_dendrimer_slope_approaches_one():
    def slope(f_lo, f_hi):
        pts = [(1.0 / f, 1.0 - float(chi_lb_dendrimer_inf(f))) for f in range(f_lo, f_hi + 1)]
        return kappa_fit(pts).slope

    near = slope(64, 512)
    far = slope(8, 64)
    assert abs(near - 1.0) < abs(far - 1.0)
    assert near == pytest.approx(1.0, abs=0.005)


def test_kappa_fit_vicsek_against_mean_functionality():
    # the control parameter is the inverse non-leaf mean functionality 3/(f+4)
    pts = [(3.0 / (f + 4), 1.0 - float(chi_lb_vicsek_inf(f))) for f in range(8, 65)]
    assert kappa_fit(pts).slope == pytest.approx(1.0, abs=0.02)


# --- time-domain quantities -------------------------------------------------------

def test_return_amplitude_at_t0():
    ts = time_series(return_weights(build_hamiltonian(generate_chain(3))), samples=2)
    assert ts.times[0] == 0.0
    assert ts.abs_alpha_sq[0] == pytest.approx(1.0, abs=1e-12)


def test_time_average_constant_series():
    t = np.linspace(0, 10, 100)
    assert time_average(np.full(100, 0.7), t) == pytest.approx(0.7, abs=1e-14)


def test_time_average_needs_two_samples():
    with pytest.raises(OutOfDomainError):
        time_average([1.0], [0.0])


def test_time_average_rejects_nonuniform_grid():
    with pytest.raises(InvalidParameterError):
        time_average([1.0, 2.0, 3.0], [0.0, 1.0, 3.0])


def test_chain3_long_time_average_reaches_chi():
    ts = time_series(return_weights(build_hamiltonian(generate_chain(3))), 200.0, 10_000)
    avg = time_average(ts.abs_alpha_sq, ts.times)
    assert avg == pytest.approx(1 / 3, abs=0.01)


def test_star4_long_time_average_reaches_chi():
    ts = time_series(return_weights(build_hamiltonian(generate_star(4))), 200.0, 10_000)
    avg = time_average(ts.abs_alpha_sq, ts.times)
    assert avg == pytest.approx(0.375, abs=0.01)


def test_return_probability_dominates_amplitude():
    for g in [generate_star(4), generate_chain(6), generate_dendrimer(3, 2)]:
        ts = time_series(return_weights(build_hamiltonian(g)), samples=2000)
        alpha2, pibar = ts.abs_alpha_sq, ts.pi_bar
        assert alpha2[0] == pytest.approx(1.0, abs=1e-12)
        assert pibar[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(alpha2 <= pibar + 1e-12)
        assert np.all(pibar <= 1.0 + 1e-12)
        assert np.all(alpha2 >= 0.0)


def test_chain3_mean_return_probability_average_above_chi():
    h, _, sp = spectrum_of(generate_chain(3))
    ts = time_series(return_weights(h), 200.0, 10_000)
    avg = time_average(ts.pi_bar, ts.times)
    assert avg >= chi_exact(sp) - 0.01


def test_series_memory_does_not_grow_with_the_grid():
    # chain(301) has no branch symmetry: 301 columns, so one (time, column)
    # array over 20 000 times would take 96 MB
    rw = return_weights(build_hamiltonian(generate_chain(301), CONNECTIVITY))
    tracemalloc.start()
    try:
        time_series(rw, 400.0, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_time_average_convergence_schedule():
    # error against chi shrinks under a halving tolerance schedule
    schedule = [(50, 2e-2), (100, 1e-2), (200, 5e-3), (400, 2.5e-3), (800, 1.25e-3)]
    for g in [generate_chain(3), generate_chain(8), generate_star(8)]:
        h, _, sp = spectrum_of(g)
        chi = chi_exact(sp)
        rw = return_weights(h)
        for t_max, tol in schedule:
            ts = time_series(rw, t_max, 10_000)
            avg = time_average(ts.abs_alpha_sq, ts.times)
            assert abs(avg - chi) <= tol, (g.label, t_max)


# --- bound ordering across families ----------------------------------------------

@pytest.mark.parametrize(
    "g",
    [
        generate_chain(5),
        generate_chain(31),
        generate_star(5),
        generate_star(31),
        generate_dendrimer(3, 3),
        generate_dendrimer(5, 2),
        generate_vicsek(4, 2),
        generate_vicsek(3, 3),
        generate_sft(120, 2.3, seed=1),
        generate_sft(240, 3.5, seed=2),
    ],
    ids=lambda g: g.label,
)
def test_bound_chain_ordering(g):
    h, es, sp = spectrum_of(g)
    st = structural_stats(g)
    rho_struct = rho_star_structural(st)
    rho_exact = sp.density_at(h.e_star)
    chi = chi_exact(sp)
    assert rho_struct <= rho_exact + 1e-12
    lb_struct = chi_lower_from_density(rho_struct, g.n)
    lb_exact = chi_lower_from_density(rho_exact, g.n)
    assert lb_struct <= lb_exact + 1e-12
    assert lb_exact <= chi + 1e-12


@pytest.mark.parametrize(
    "g",
    [
        generate_star(5),
        generate_star(20),
        generate_chain(12),
        generate_dendrimer(3, 4),
        generate_vicsek(4, 2),
        generate_sft(150, 2.5, seed=9),
    ],
    ids=lambda g: g.label,
)
def test_structural_bound_truncation_error(g):
    # the order-1/n truncation stays within a small multiple of 1/n^2
    st = structural_stats(g)
    truncated = chi_structural(st)
    full = chi_lower_from_density(rho_star_structural(st), g.n)
    assert abs(truncated - full) <= 2.0 / g.n**2 + 1e-15


def test_star5_truncation_overshoots_exact():
    # 0.45 vs the exact 0.44: the truncated bound may exceed exact chi
    g = generate_star(5)
    _, _, sp = spectrum_of(g)
    st = structural_stats(g)
    assert chi_exact(sp) == pytest.approx(0.44, abs=1e-12)
    assert chi_structural(st) == pytest.approx(0.45, abs=1e-12)
    assert chi_structural(st) > chi_exact(sp)


# --- per-graph report --------------------------------------------------------------

def test_efficiency_report_star4():
    rep = efficiency_report(build_hamiltonian(generate_star(4)))
    assert rep.n == 4
    assert rep.e_star == 1.0
    assert rep.chi_exact == pytest.approx(0.375, abs=1e-12)
    assert rep.chi_spectral_lb == pytest.approx(0.375, abs=1e-12)
    assert rep.rho_star_exact == pytest.approx(0.5, abs=1e-12)
    assert rep.rho_star_structural == pytest.approx(0.5, abs=1e-12)
    assert rep.leaf_pair_state_count == 2
    assert rep.multiplicity_e_star_exact == 2
    assert rep.extra_e_star_states == 0


def test_efficiency_report_invariants_on_families():
    for g in [generate_chain(20), generate_dendrimer(3, 3), generate_sft(100, 2.8, seed=4)]:
        rep = efficiency_report(build_hamiltonian(g))
        assert 1.0 / rep.n <= rep.chi_exact <= 1.0
        assert rep.rho_star_structural <= rep.rho_star_exact + 1e-12
        assert rep.chi_spectral_lb <= rep.chi_exact + 1e-12
        assert rep.multiplicity_e_star_exact >= rep.leaf_pair_state_count


def test_efficiency_report_rejects_two_node_tree():
    with pytest.raises(NoParentsError):
        efficiency_report(build_hamiltonian(generate_chain(2)))


def test_efficiency_report_refuses_an_oversize_plan_before_the_structural_pass(monkeypatch,
                                                                             tmp_path):
    # the report takes a Hamiltonian, whose plan has already refused an oversize tree
    reached = []
    monkeypatch.setattr("qtree.efficiency.structural_stats", reached.append)
    for g, size_limit in ((generate_chain(5000), []), (generate_chain(2), ["--size-limit", "1"])):
        edges = tmp_path / "g.edges"
        edges.write_text(edge_list_text(g), encoding="utf-8")
        out = tmp_path / "chi.json"
        assert cli.main(["chi", "--in", str(edges), "--out", str(out), *size_limit]) == 4
        assert not out.exists()
    assert reached == []


def test_time_series_bundle():
    from qtree import build_hamiltonian, time_series

    rw = return_weights(build_hamiltonian(generate_star(4)))
    ts = time_series(rw, 100.0, 2000)
    assert np.array_equal(ts.times, np.linspace(0.0, 100.0, 2000))
    assert ts.abs_alpha_sq[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(ts.abs_alpha_sq <= ts.pi_bar + 1e-12)
    assert time_average(ts.abs_alpha_sq, ts.times) == pytest.approx(0.375, abs=0.02)
    # without t_max: the default grid of the requested length, from the weights' spectrum
    ts = time_series(rw, samples=50)
    assert np.array_equal(ts.times, default_time_grid(rw.spectrum, samples=50))


@pytest.mark.parametrize("t_max", [1e308, float("nan")])
def test_time_series_refuses_a_grid_whose_phases_overflow(t_max):
    # max |lambda| of the star is above 1, so 1e308 * lambda is inf; NaN is refused before
    rw = return_weights(build_hamiltonian(generate_star(4)))
    message = (f"--t-max must be finite and positive, got {t_max}" if math.isnan(t_max) else
               f"time grid to t={t_max!r} overflows the phases t * lambda "
               f"(max |lambda| = {float(np.abs(rw.eigenvalues).max())!r})")
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
        time_series(rw, t_max, 50)


@pytest.mark.parametrize("t_max", [math.inf, math.nan])
def test_time_series_refuses_a_t_max_that_is_not_finite_before_any_grid(t_max):
    # np.linspace(0.0, inf, samples) warns "invalid value encountered in multiply"
    rw = return_weights(build_hamiltonian(generate_star(5)))
    message = f"--t-max must be finite and positive, got {t_max}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with mock.patch.object(efficiency.np, "linspace", side_effect=AssertionError("built")):
            with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
                time_series(rw, t_max, 10)


@pytest.mark.parametrize("samples, t_max", [(4, 5e-324), (7, 1e-320)])
def test_time_series_refuses_a_grid_that_repeats_a_time_before_any_block(samples, t_max):
    rw = return_weights(build_hamiltonian(generate_star(4)))
    with mock.patch.object(efficiency, "_block_rows", side_effect=AssertionError("ran")):
        with pytest.raises(InvalidParameterError, match="repeat a time"):
            time_series(rw, t_max, samples)
    ts = time_series(rw, 1e-320, 3)  # 0, 5e-321 and 1e-320 are evenly spaced
    assert ts.times.tolist() == [0.0, 5e-321, 1e-320]


@pytest.mark.parametrize("t_max", [None, 100.0])
@pytest.mark.parametrize("samples", [0, -3, 1])
def test_time_series_refuses_fewer_than_two_samples_before_any_block(samples, t_max):
    # as `qtree timeseries --samples` does: an empty grid has no last time, and np.linspace
    # refuses a negative count
    rw = return_weights(build_hamiltonian(generate_star(4)))
    with mock.patch.object(efficiency, "_block_rows", side_effect=AssertionError("ran")):
        with pytest.raises(InvalidParameterError, match=f"at least 2 samples, got {samples}$"):
            time_series(rw, t_max, samples)


@pytest.mark.parametrize("t_max", [None, 1.0])
def test_time_series_refuses_more_samples_than_the_limit_before_any_grid(t_max):
    # refused before np.linspace allocates the grid, which at 10^9 samples would take 8 GB
    rw = return_weights(build_hamiltonian(generate_star(4)))
    samples = MAX_NODES_DEFAULT + 1
    with mock.patch.object(efficiency.np, "linspace", side_effect=AssertionError("allocated")):
        with pytest.raises(SizeLimitError,
                           match=f"^--samples {samples} is above the limit {MAX_NODES_DEFAULT}$"):
            time_series(rw, t_max, samples)
    ts = time_series(rw, 1.0, 2)  # the fewest samples taken
    assert ts.times.tolist() == [0.0, 1.0]


@pytest.mark.parametrize("t_max", [None, 3.0])
def test_time_series_builds_its_grid_once(t_max):
    rw = return_weights(build_hamiltonian(generate_star(4)))
    with mock.patch.object(efficiency.np, "linspace", wraps=np.linspace) as linspace:
        ts = time_series(rw, t_max, 7)
    assert linspace.call_count == 1
    expected = default_time_grid(rw.spectrum, 7) if t_max is None else np.linspace(0.0, 3.0, 7)
    assert np.array_equal(ts.times, expected)


@pytest.mark.parametrize("t_max", [-1.0, 0.0, -0.0, -math.inf])
def test_time_series_refuses_a_t_max_that_is_not_positive(t_max):
    # the grid would start at 0 and end at or before it
    rw = return_weights(build_hamiltonian(generate_star(5)))
    message = f"--t-max must be finite and positive, got {t_max}"
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
        time_series(rw, t_max, 4)


def _reference_flat_bound(a, b, n):
    # the bound's formula on Python floats, as the scalar code evaluates it
    big_a = (a - 2.0) / (a - 1.0)
    big_b = (b - 2.0) / (b - 1.0)
    leading = big_a * big_a * big_b * big_b
    correction = 1.0 - big_a * big_b + 4.0 * (a - 2.0) / (a - 1.0) ** 2 * big_b * big_b
    return leading + correction / n


def test_flat_bound_on_arrays_equals_python_floats():
    # every non-leaf average a tree on n < 400 nodes can have, paired with
    # itself and reversed; rounding Python's float ** 2 as numpy's x * x
    # would change the bound in the last bit at n = 191 (45 leaves, b = a)
    for n in range(3, 400):
        a = [(2 * (n - 1) - leaves) / (n - leaves) for leaves in range(1, n - 1)]
        for b in (a, a[::-1]):
            expected = [_reference_flat_bound(x, y, n) for x, y in zip(a, b)]
            assert _flat_bound_truncated(a, b, n).tolist() == expected, n
