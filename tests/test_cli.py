"""End-to-end CLI checks via subprocess, and the CLI's input parsers in-process."""
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtree import (Potential, QtreeError, build_hamiltonian, read_edge_list, return_weights,
                   time_series)
from qtree import cli, efficiency, ensemble, errors, graphs, spectral

from conftest import (edge_list_text_reference, fmt_rows_reference, spectrum_csv_text_reference,
                      sweep_csv_text_reference)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qtree", *args],
        capture_output=True,
        text=True,
    )


def test_gen_dendrimer_generation_five(tmp_path):
    out = tmp_path / "d.edges"
    res = run_cli("gen", "--family", "dendrimer", "--f", "3", "--g", "5",
                  "--out", str(out))
    assert res.returncode == 0
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "94"
    assert len(lines) == 94  # node count line + 93 edges
    manifest = json.loads((tmp_path / "d.edges.manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["params"]["family"] == "dendrimer"
    assert manifest["outputs"] == [str(out)]
    assert manifest["duration_seconds"] >= 0


def test_gen_vicsek_generation_three(tmp_path):
    out = tmp_path / "v.edges"
    assert run_cli("gen", "--family", "vicsek", "--f", "4", "--g", "3",
                   "--out", str(out)).returncode == 0
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "125"


def test_gen_chain_two_nodes(tmp_path):
    out = tmp_path / "c.edges"
    assert run_cli("gen", "--family", "chain", "--n", "2",
                   "--out", str(out)).returncode == 0
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert lines == ["2", "0 1"]


def test_gen_invalid_parameters_exit_2(tmp_path):
    res = run_cli("gen", "--family", "chain", "--n", "1",
                  "--out", str(tmp_path / "x.edges"))
    assert res.returncode == 2
    assert "n >= 2" in res.stderr


def test_gen_usage_error_exit_2(tmp_path):
    res = run_cli("gen", "--family", "nope", "--out", str(tmp_path / "x"))
    assert res.returncode == 2


def test_gen_missing_family_flag_exit_2(tmp_path):
    res = run_cli("gen", "--family", "sft", "--n", "50",
                  "--out", str(tmp_path / "x.edges"))
    assert res.returncode == 2
    assert "--s" in res.stderr


def test_sweep_all_rows_failed_exit_5(tmp_path):
    # with f_max = 2 every node has functionality 2 or less: the averages are degenerate
    res = run_cli("sweep", "--n", "5000", "--s-grid", "2.5,3.0", "--r", "2", "--f-max", "2",
                  "--estimator", "spectral-exact", "--out", str(tmp_path / "s.csv"))
    assert res.returncode == 5
    assert res.stderr == "qtree: every sweep row failed\n"
    text = (tmp_path / "s.csv").read_text()
    assert text.count("degenerate-average") == 2
    # exit 5 still writes the CSV and its manifest
    manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
    assert (manifest["command"], manifest["outputs"]) == ("sweep", [str(tmp_path / "s.csv")])
    assert manifest["counters"] == {"blocks": 2, "realizations": 4, "seed_passes": 2}
    assert sorted(manifest["timings"]) == ["sweep_s", "write_s"]


def test_gen_sft_refuses_an_s_whose_weights_underflow_exit_2(tmp_path):
    out = tmp_path / "x.edges"
    res = run_cli("gen", "--family", "sft", "--n", "50", "--s", "1075", "--out", str(out))
    assert res.returncode == 2
    assert "underflow" in res.stderr and "Traceback" not in res.stderr
    assert not out.exists()


def test_sweep_rows_whose_weights_underflow_are_invalid_exit_5(tmp_path):
    res = run_cli("sweep", "--n", "50", "--s-grid", "1075,1e308", "--r", "4",
                  "--out", str(tmp_path / "s.csv"))
    assert res.returncode == 5
    assert "Traceback" not in res.stderr
    rows = (tmp_path / "s.csv").read_text().splitlines()[2:]
    assert [row.split(",")[-1] for row in rows] == ["invalid-parameter"] * 2


@pytest.fixture
def pcg64_words_swapped(monkeypatch):
    """The layout guard reads each 128-bit word's halves swapped, as under emulated 128-bit math."""
    words = graphs._pcg64_state_words

    def swapped(bits):
        state_low, state_high, inc_low, inc_high = words(bits)
        return [state_high, state_low, inc_high, inc_low]

    monkeypatch.setattr(graphs, "_pcg64_state_words", swapped)
    graphs._check_pcg64_layout.cache_clear()
    yield
    graphs._check_pcg64_layout.cache_clear()


@pytest.mark.parametrize("argv", [
    ["sweep", "--n", "50", "--s-grid", "2.5,3.0", "--r", "4"],
    ["gen", "--family", "sft", "--n", "50", "--s", "2.5"],
], ids=lambda argv: argv[0])
def test_generator_layout_mismatch_exits_2_before_any_output(argv, pcg64_words_swapped, tmp_path,
                                                             capsys):
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert f"NumPy {np.__version__}" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "out.manifest.json").exists()


def test_chi_star4(tmp_path):
    edges = tmp_path / "s4.edges"
    run_cli("gen", "--family", "star", "--n", "4", "--out", str(edges))
    out = tmp_path / "s4.json"
    res = run_cli("chi", "--in", str(edges), "--potential", "connectivity",
                  "--out", str(out))
    assert res.returncode == 0
    report = json.loads(out.read_text())
    assert report["chi_exact"] == pytest.approx(0.375, abs=1e-12)
    assert report["chi_spectral_lb"] == pytest.approx(0.375, abs=1e-12)
    assert report["label"] == "star(n=4)"
    assert report["multiplicity_e_star_exact"] == 2


def test_chi_chain64(tmp_path):
    edges = tmp_path / "c64.edges"
    run_cli("gen", "--family", "chain", "--n", "64", "--out", str(edges))
    out = tmp_path / "c64.json"
    assert run_cli("chi", "--in", str(edges), "--out", str(out)).returncode == 0
    report = json.loads(out.read_text())
    assert report["chi_exact"] == pytest.approx(1 / 64, abs=1e-12)


def test_chi_custom_potential(tmp_path):
    edges = tmp_path / "c3.edges"
    run_cli("gen", "--family", "chain", "--n", "3", "--out", str(edges))
    table = tmp_path / "pot.txt"
    table.write_text("1 5.0\n2 7.0\n")
    out = tmp_path / "c3.json"
    res = run_cli("chi", "--in", str(edges), "--potential", f"custom={table}",
                  "--out", str(out))
    assert res.returncode == 0
    assert json.loads(out.read_text())["e_star"] == 5.0


def test_chi_missing_input_exit_3(tmp_path):
    res = run_cli("chi", "--in", str(tmp_path / "absent.edges"),
                  "--out", str(tmp_path / "r.json"))
    assert res.returncode == 3


def test_chi_size_limit_exit_4(tmp_path):
    edges = tmp_path / "big.edges"
    run_cli("gen", "--family", "chain", "--n", "200", "--out", str(edges))
    res = run_cli("chi", "--in", str(edges), "--size-limit", "100",
                  "--out", str(tmp_path / "r.json"))
    assert res.returncode == 4
    assert "structural" in res.stderr


def test_chi_dendrimer_above_4096_nodes_solves_its_quotient(tmp_path):
    # n = 12 286 is above the default limit; the largest solve, the root's quotient, has 13
    edges = tmp_path / "d312.edges"
    assert run_cli("gen", "--family", "dendrimer", "--f", "3", "--g", "12",
                   "--out", str(edges)).returncode == 0
    out = tmp_path / "d312.json"
    res = run_cli("chi", "--in", str(edges), "--out", str(out))
    assert res.returncode == 0, res.stderr
    report = json.loads(out.read_text())
    counters = json.loads((tmp_path / "d312.json.manifest.json").read_text())["counters"]
    assert report["n"] == counters["n"] == 12_286
    assert counters["largest_solve_dim"] == 13
    assert report["multiplicity_e_star_exact"] == round(report["rho_star_exact"] * 12_286) == 3276


def test_chi_spectrum_export(tmp_path):
    edges = tmp_path / "s4.edges"
    run_cli("gen", "--family", "star", "--n", "4", "--out", str(edges))
    spectrum = tmp_path / "s4.spectrum.csv"
    res = run_cli("chi", "--in", str(edges), "--out", str(tmp_path / "r.json"),
                  "--spectrum-out", str(spectrum))
    assert res.returncode == 0
    lines = spectrum.read_text().splitlines()
    assert lines[1] == "eigenvalue,multiplicity,density"
    assert [int(line.split(",")[1]) for line in lines[2:]] == [1, 2, 1]


def test_sweep_derived_r_and_infinite_column(tmp_path):
    out = tmp_path / "sweep.csv"
    res = run_cli("sweep", "--n", "10000", "--s-grid", "1.9,2.5", "--r", "3",
                  "--seed", "4", "--out", str(out))
    assert res.returncode == 0
    lines = out.read_text().splitlines()
    rows = [dict(zip(lines[1].split(","), ln.split(","))) for ln in lines[2:]]
    assert rows[0]["one_minus_chi_analytic_infinite"] == ""
    assert rows[0]["status"] == "ok"
    assert rows[1]["one_minus_chi_analytic_infinite"] != ""
    # derived realization count: r = 10^6 / n
    out2 = tmp_path / "sweep2.csv"
    res = run_cli("sweep", "--n", "10000", "--s-grid", "2.5", "--paper-r",
                  "--seed", "4", "--out", str(out2))
    assert res.returncode == 0
    assert out2.read_text().splitlines()[2].split(",")[3] == "100"


def test_sweep_large_s_infinite_column(tmp_path):
    # both zeta differences are about 2^-s there; the closed form tends to -3
    out = tmp_path / "sweep.csv"
    res = run_cli("sweep", "--n", "50", "--s-grid", "40,53", "--r", "2", "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    rows = [dict(zip(lines[1].split(","), ln.split(","))) for ln in lines[2:]]
    assert [row["status"] for row in rows] == ["ok", "ok"]
    assert float(rows[0]["one_minus_chi_analytic_infinite"]) == pytest.approx(3.9999996382418805)
    assert float(rows[1]["one_minus_chi_analytic_infinite"]) == pytest.approx(3.9999999981412393)


def test_sweep_rerun_is_byte_identical_across_workers(tmp_path):
    out = tmp_path / "sweep.csv"
    res = run_cli("sweep", "--n", "60", "--s-grid", "2.3,3.1", "--r", "400",
                  "--seed", "123", "--workers", "1", "--out", str(out))
    assert res.returncode == 0
    rerun_out = tmp_path / "sweep-rerun.csv"
    res = run_cli("rerun", str(out) + ".manifest.json", "--out", str(rerun_out),
                  "--workers", "8")
    assert res.returncode == 0
    assert rerun_out.read_bytes() == out.read_bytes()
    for manifest_path in (str(out) + ".manifest.json", str(rerun_out) + ".manifest.json"):
        manifest = json.loads(Path(manifest_path).read_text())
        assert set(manifest["timings"]) == {"sweep_s", "write_s"}
        assert all(v >= 0 for v in manifest["timings"].values())
        # n = 60 takes blocks of 1093 realizations, so each row's 400 are one block and one
        # task, whose seeds are hashed in one pass; eight workers map the two tasks in one pool
        assert manifest["counters"] == {"realizations": 800, "blocks": 2, "seed_passes": 2}


@pytest.mark.parametrize("workers, seed_passes", [(None, 1), (1, 1), (2, 8)])
def test_sweep_manifest_counts_one_seed_pass_per_task(tmp_path, workers, seed_passes):
    # n = 100 takes blocks of 656, so the --paper-r row's 10 000 realizations are 16 blocks:
    # one task for one worker, and tasks of two blocks for two workers; without --workers
    # the sweep runs, and records, one worker, in process
    out = tmp_path / "sweep.csv"
    flags = [] if workers is None else ["--workers", str(workers)]
    res = run_cli("sweep", "--n", "100", "--s-grid", "2.5", "--paper-r", *flags,
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["params"]["workers"] == (workers or 1)
    assert manifest["counters"] == {"realizations": 10_000, "blocks": 16,
                                    "seed_passes": seed_passes}


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_manifest_counts_the_tasks_mapped_and_the_blocks_grown(
        tmp_path, monkeypatch, in_process_pool, workers):
    # n = 60 takes blocks of 1093, so each ok row's 2500 realizations are three blocks: one
    # task per row at one worker, and tasks of two blocks through the pool at two; the
    # row at s = 1075 is refused and runs nothing
    realized, grown = [], []
    realize_task, grow_sft_ends = ensemble._realize_task, ensemble._grow_sft_ends

    def counting_realize_task(task):
        realized.append(task)
        return realize_task(task)

    def counting_grow_sft_ends(*args):
        for sums in grow_sft_ends(*args):
            grown.append(len(sums))
            yield sums

    monkeypatch.setattr(ensemble, "_realize_task", counting_realize_task)
    monkeypatch.setattr(ensemble, "_grow_sft_ends", counting_grow_sft_ends)
    out = tmp_path / "sw.csv"
    assert cli.main(["sweep", "--n", "60", "--s-grid", "2.2,1075,3.0,4.0", "--r", "2500",
                     "--workers", str(workers), "--out", str(out)]) == 0
    counters = json.loads(Path(str(out) + ".manifest.json").read_text())["counters"]
    assert in_process_pool.mapped == (realized if workers > 1 else [])
    assert counters == {"realizations": sum(stop - start for _, _, start, stop, _ in realized),
                        "blocks": len(grown), "seed_passes": len(realized)}
    assert counters == {"realizations": 7500, "blocks": 9, "seed_passes": 3 * workers}
    assert sum(grown) == 7500


def test_paper_r_sweep_writes_the_same_csv_at_two_workers(tmp_path):
    # five rows of 16 blocks: one task per row for one worker; two workers ask for about
    # eight tasks over the whole sweep, so each row is two tasks, not eight
    counters = {}
    for workers in (1, 2):
        out = tmp_path / f"sweep-{workers}.csv"
        assert cli.main(["sweep", "--n", "100", "--s-grid", "2.2,2.6,3.0,4.0,6.0", "--paper-r",
                         "--workers", str(workers), "--out", str(out)]) == 0
        counters[workers] = json.loads(Path(str(out) + ".manifest.json").read_text())["counters"]
    assert (tmp_path / "sweep-2.csv").read_bytes() == (tmp_path / "sweep-1.csv").read_bytes()
    assert counters == {workers: {"realizations": 50_000, "blocks": 80, "seed_passes": passes}
                        for workers, passes in ((1, 5), (2, 10))}


def test_sweep_manifest_with_a_null_worker_count_reruns_on_one_worker(tmp_path):
    # manifests written while --workers had no default store "workers": null
    out = tmp_path / "sweep.csv"
    res = run_cli("sweep", "--n", "100", "--s-grid", "2.5", "--paper-r", "--workers", "2",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    manifest["params"]["workers"] = None
    old = tmp_path / "old.json"
    old.write_text(json.dumps(manifest))
    rerun_out = tmp_path / "rerun.csv"
    assert cli.main(["rerun", str(old), "--out", str(rerun_out)]) == 0
    assert rerun_out.read_bytes() == out.read_bytes()
    ran = json.loads(Path(str(rerun_out) + ".manifest.json").read_text())
    assert ran["params"]["workers"] == 1 and ran["counters"]["seed_passes"] == 1


def test_fit_kappa_synthetic_power_law(tmp_path):
    csv_path = tmp_path / "points.csv"
    rows = ["x,y"] + [f"{x},{3.0 * x ** 2}" for x in (0.01, 0.02, 0.04, 0.08, 0.16)]
    csv_path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "fit.json"
    res = run_cli("fit-kappa", "--in", str(csv_path), "--x-column", "x",
                  "--y-column", "y", "--out", str(out))
    assert res.returncode == 0
    fit = json.loads(out.read_text())
    assert fit["slope"] == pytest.approx(2.0, abs=1e-12)
    assert fit["residual"] < 1e-12
    assert fit["points_used"] == 5


def test_fit_kappa_manifest_timings_and_counters(tmp_path):
    csv_path = tmp_path / "points.csv"
    # six data rows: one failed, one with a non-positive x, four usable
    rows = ["x,y,status", "0.01,0.3,ok", "0.02,1.2,ok", "0.04,4.8,ok", "0.08,19.2,",
            "0.16,76.8,failed", "-0.1,1.0,ok"]
    csv_path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "fit.json"
    assert run_cli("fit-kappa", "--in", str(csv_path), "--x-column", "x",
                   "--y-column", "y", "--out", str(out)).returncode == 0
    second = tmp_path / "fit2.json"
    assert run_cli("rerun", str(out) + ".manifest.json",
                   "--out", str(second)).returncode == 0
    assert second.read_bytes() == out.read_bytes()
    for manifest_path in (str(out) + ".manifest.json", str(second) + ".manifest.json"):
        manifest = json.loads(Path(manifest_path).read_text())
        assert sorted(manifest["timings"]) == ["fit_s", "read_s", "write_s"]
        assert all(v >= 0 for v in manifest["timings"].values())
        assert manifest["counters"] == {"rows": 6, "points_used": 4}


def test_fit_kappa_on_sweep_infinite_column(tmp_path):
    out = tmp_path / "sweep.csv"
    grid = ",".join(str(round(2.0 + 0.001 * 1.5**k, 6)) for k in range(10))
    res = run_cli("sweep", "--n", "100", "--s-grid", grid, "--r", "1",
                  "--seed", "1", "--out", str(out))
    assert res.returncode == 0
    fit_out = tmp_path / "fit.json"
    res = run_cli("fit-kappa", "--in", str(out),
                  "--y-column", "one_minus_chi_analytic_infinite",
                  "--x-column", "s", "--offset", "2", "--x-max", "0.06",
                  "--out", str(fit_out))
    assert res.returncode == 0
    assert json.loads(fit_out.read_text())["slope"] == pytest.approx(1.0, abs=0.02)


def test_fit_kappa_inverted_offsets(tmp_path):
    # closed-form dendrimer bound against 1/f
    csv_path = tmp_path / "dendrimer.csv"
    lines = ["f,one_minus_chi"]
    for f in range(64, 513, 16):
        lines.append(f"{f},{1.0 - (1.0 - 1.0 / (f - 1.0)) ** 4}")
    csv_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "fit.json"
    res = run_cli("fit-kappa", "--in", str(csv_path), "--x-column", "f",
                  "--invert-x", "--y-column", "one_minus_chi", "--out", str(out))
    assert res.returncode == 0
    assert json.loads(out.read_text())["slope"] == pytest.approx(1.0, abs=0.01)


def test_fit_kappa_too_few_rows_exit_2(tmp_path):
    csv_path = tmp_path / "p.csv"
    csv_path.write_text("x,y\n0.1,1.0\n0.2,2.0\n")
    res = run_cli("fit-kappa", "--in", str(csv_path), "--x-column", "x",
                  "--y-column", "y", "--out", str(tmp_path / "f.json"))
    assert res.returncode == 2


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_fit_kappa_non_finite_point_exit_2(tmp_path, cell):
    # a non-finite point would make the slope NaN, which is not valid JSON
    csv_path = tmp_path / "p.csv"
    csv_path.write_text(f"x,y\n0.1,1.0\n0.2,2.0\n0.3,{cell}\n0.4,4.0\n")
    out = tmp_path / "f.json"
    res = run_cli("fit-kappa", "--in", str(csv_path), "--x-column", "x",
                  "--y-column", "y", "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("qtree: ") and "finite" in res.stderr
    assert not out.exists()


def test_timeseries_chain3(tmp_path):
    edges = tmp_path / "c3.edges"
    run_cli("gen", "--family", "chain", "--n", "3", "--out", str(edges))
    out = tmp_path / "ts.csv"
    res = run_cli("timeseries", "--in", str(edges), "--t-max", "200",
                  "--samples", "2000", "--out", str(out))
    assert res.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "t,abs_alpha_sq,pi_bar"
    first = lines[2].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1.0, abs=1e-12)
    assert float(first[2]) == pytest.approx(1.0, abs=1e-12)
    for line in lines[2:-1]:
        _, a, p = (float(v) for v in line.split(","))
        assert a <= p + 1e-12
    trailer = lines[-1]
    assert trailer.startswith("# time_average_abs_alpha_sq=")
    assert "chi_exact=" in trailer
    chi = float(trailer.split("chi_exact=")[1])
    avg = float(trailer.split("time_average_abs_alpha_sq=")[1].split()[0])
    assert chi == pytest.approx(1 / 3, abs=1e-12)
    assert avg == pytest.approx(chi, abs=0.01)


@pytest.mark.parametrize("t_max, samples", [
    pytest.param(None, 300, id="None"),
    pytest.param(50.0, 300, id="50.0"),
    pytest.param(None, 3 * 2 ** 14 + 5, id="more-samples-than-one-block"),
    pytest.param(1e17, 300, id="times-past-1e16"),  # "%.17g" writes those as d.ddde+16
])
def test_timeseries_body_is_each_value_at_17_digits(tmp_path, t_max, samples):
    edges, out = str(tmp_path / "d33.edges"), str(tmp_path / "ts.csv")
    assert cli.main(["gen", "--family", "dendrimer", "--f", "3", "--g", "3", "--out", edges]) == 0
    assert cli.main(["timeseries", "--in", edges, "--samples", str(samples), "--out", out]
                    + ([] if t_max is None else ["--t-max", str(t_max)])) == 0
    ts = time_series(return_weights(build_hamiltonian(read_edge_list(edges))), t_max, samples)
    lines = Path(out).read_text().splitlines()
    assert lines[2:-1] == [f"{t:.17g},{a:.17g},{p:.17g}"
                           for t, a, p in zip(ts.times, ts.abs_alpha_sq, ts.pi_bar)]


@pytest.mark.parametrize("samples, t_max", [(4, "5e-324"), (7, "1e-320")])
def test_timeseries_refuses_a_grid_that_repeats_a_time_before_reading(tmp_path, capsys,
                                                                       samples, t_max):
    # linspace(0, t_max, samples) rounds some subnormal times onto their neighbours; the
    # grid is checked with the other options, so the missing input is never opened
    out = tmp_path / "ts.csv"
    assert cli.main(["timeseries", "--in", str(tmp_path / "missing.edges"), "--t-max", t_max,
                     "--samples", str(samples), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qtree: ") and "--t-max" in err and "--samples" in err
    assert "repeat a time" in err
    assert not out.exists()


def test_timeseries_runs_on_a_subnormal_grid_that_does_not_repeat(tmp_path):
    edges, out = str(tmp_path / "s5.edges"), tmp_path / "ts.csv"
    assert cli.main(["gen", "--family", "star", "--n", "5", "--out", edges]) == 0
    assert cli.main(["timeseries", "--in", edges, "--t-max", "1e-320", "--samples", "3",
                     "--out", str(out)]) == 0
    body = out.read_text().splitlines()[2:-1]
    assert [float(line.split(",")[0]) for line in body] == [0.0, 5e-321, 1e-320]


@pytest.mark.parametrize("t_max", [None, "50"])
def test_timeseries_builds_one_time_grid_per_run(tmp_path, t_max):
    # the early check builds the grid only for a subnormal step, where linspace can
    # repeat a time; otherwise `time_series` builds it, once
    edges, out = str(tmp_path / "s5.edges"), str(tmp_path / "ts.csv")
    assert cli.main(["gen", "--family", "star", "--n", "5", "--out", edges]) == 0
    with mock.patch.object(efficiency.np, "linspace", wraps=np.linspace) as linspace:
        assert cli.main(["timeseries", "--in", edges, "--samples", "400", "--out", out]
                        + ([] if t_max is None else ["--t-max", t_max])) == 0
    assert linspace.call_count == 1


def _double(bits: int) -> float:
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


def _near_power_of_ten(e: int, toward: float | None) -> float:
    x = float(f"1e{e}")
    return x if toward is None else float(np.nextafter(x, toward))


def _tie(k: int, m: int) -> float:
    # an odd multiple of 2^(-1-p), p = 16 - k, in [10^k, 10^(k+1)): 10^p times it is an
    # odd multiple of 5^p / 2, half-way between two integers, so its 17 digits round to even
    p = 16 - k
    low = math.ceil(2 ** (p + 1) * Fraction(10) ** k)
    high = min(math.ceil(2 ** (p + 1) * Fraction(10) ** (k + 1)), 2 ** 53)
    return ((low + m % (high - low)) | 1) / 2.0 ** (p + 1)


_FORMATTED_DOUBLES = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(_double),  # raw bit patterns, inf and nan among them
    st.sampled_from([0.0, -0.0]),
    st.tuples(st.integers(1, 2 ** 52 - 1), st.sampled_from([0, 1 << 63])).map(  # subnormals
        lambda bits: _double(bits[0] | bits[1])),
    st.tuples(st.integers(-8, 18), st.sampled_from([-np.inf, None, np.inf])).map(
        lambda e: _near_power_of_ten(*e)),  # the 1e-6 and 1e16 edges among them
    st.tuples(st.integers(-6, 15), st.integers(0, 2 ** 60)).map(lambda km: _tie(*km)),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(_FORMATTED_DOUBLES, _FORMATTED_DOUBLES, _FORMATTED_DOUBLES),
                min_size=1, max_size=30))
def test_fmt_rows_writes_what_one_percent_call_writes(rows):
    columns = tuple(np.array(column) for column in zip(*rows))
    assert "".join(cli._fmt_rows(columns)) == fmt_rows_reference(columns)


def test_fmt_rows_writes_what_one_percent_call_writes_across_blocks():
    # random bit patterns of the fast range 2^-20 <= x < 2^54 and of every double, and
    # exact ties, over two blocks of _BLOCK // 3 rows and part of a third
    rng = np.random.default_rng(20261020)
    n = 2 * (graphs._BLOCK // 3) + 7
    fast = (rng.integers(1023 - 20, 1023 + 54, n).astype(np.uint64) << np.uint64(52)) \
        | rng.integers(0, 2 ** 52, n, dtype=np.uint64)
    ties = [_tie(int(k), int(m)) for k, m in zip(rng.integers(-6, 16, n),
                                                 rng.integers(0, 2 ** 60, n))]
    columns = (fast.view(np.float64), rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(
        np.float64), np.array(ties))
    assert "".join(cli._fmt_rows(columns)) == fmt_rows_reference(columns)


_CSV_POTENTIALS = {
    "connectivity": spectral.CONNECTIVITY,
    "adjacency": spectral.ADJACENCY,
    # V(1) = 0 and V(3) = -1: star(n) has the eigenvalue 0 n - 2 times and one below 0
    "custom": spectral.custom_potential({f: f % 3 - 1.0 for f in range(1, 1000)}),
}


@pytest.mark.parametrize("potential", _CSV_POTENTIALS.values(), ids=_CSV_POTENTIALS.keys())
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(
    st.builds(graphs.generate_star, st.integers(2, 40)),
    st.builds(graphs.generate_sft, st.integers(3, 300), st.floats(2.05, 6.0),
              seed=st.integers(0, 2 ** 32)),
))
def test_spectrum_csv_text_writes_what_its_reference_writes(potential, g):
    sp = spectral.spectrum(build_hamiltonian(g, potential))
    assert cli.spectrum_csv_text(sp) == spectrum_csv_text_reference(sp)


_SWEEP_CELLS = st.one_of(st.none(), st.floats())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.builds(
    ensemble.SweepRow, s=st.floats(), n=st.integers(0, 10 ** 6), f_max=st.integers(0, 10 ** 6),
    r=st.integers(0, 10 ** 6), avg_f_analytic=_SWEEP_CELLS, one_minus_chi_mc_mean=_SWEEP_CELLS,
    one_minus_chi_mc_stderr=_SWEEP_CELLS, one_minus_chi_analytic_finite=_SWEEP_CELLS,
    one_minus_chi_analytic_infinite=_SWEEP_CELLS,
    status=st.sampled_from(["ok", *ensemble._ERROR_NAMES.values()])), max_size=6))
def test_sweep_csv_text_writes_what_its_reference_writes(rows):
    assert cli.sweep_csv_text(rows) == sweep_csv_text_reference(rows)


def test_gen_writes_its_edge_list_part_by_part(tmp_path, monkeypatch):
    # parts of _BLOCK // 2 edges, here 4, are handed to the writer, never joined first
    monkeypatch.setattr(graphs, "_BLOCK", 8)
    parts, write = [], cli.write_text_atomic

    def recording_write(path, text):
        if path.endswith(".edges"):
            assert not isinstance(text, str)
            text = list(text)
            parts.extend(text)
        write(path, text)

    monkeypatch.setattr(cli, "write_text_atomic", recording_write)
    out = tmp_path / "c.edges"
    assert cli.main(["gen", "--family", "chain", "--n", "50", "--out", str(out)]) == 0
    assert [part.count("\n") for part in parts] == [3] + [4] * 12 + [1]  # header, 49 edges
    assert out.read_text() == edge_list_text_reference(graphs.generate_chain(50))


def test_timeseries_traces_less_memory_than_its_csv_holds(tmp_path):
    # the body goes to the file one block at a time, never whole as one string; measured
    # on a 56.0 MiB file: a traced peak of 39.1 MiB, and 135.2 MiB with the body joined first
    edges, out = str(tmp_path / "s5.edges"), tmp_path / "ts.csv"
    assert cli.main(["gen", "--family", "star", "--n", "5", "--out", edges]) == 0
    tracemalloc.start()
    try:
        assert cli.main(["timeseries", "--in", edges, "--samples", "1000000",
                         "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size


def test_timeseries_rerun_identical(tmp_path):
    edges = tmp_path / "s5.edges"
    run_cli("gen", "--family", "star", "--n", "5", "--out", str(edges))
    out = tmp_path / "ts.csv"
    assert run_cli("timeseries", "--in", str(edges), "--samples", "500",
                   "--out", str(out)).returncode == 0
    second = tmp_path / "ts2.csv"
    assert run_cli("rerun", str(out) + ".manifest.json",
                   "--out", str(second)).returncode == 0
    assert second.read_bytes() == out.read_bytes()
    for manifest_path in (str(out) + ".manifest.json", str(second) + ".manifest.json"):
        manifest = json.loads(Path(manifest_path).read_text())
        assert sorted(manifest["timings"]) == ["plan_s", "read_s", "series_s", "weights_s",
                                               "write_s"]
        assert all(v >= 0 for v in manifest["timings"].values())
        # star(5): a 2-position quotient at the root and the 1-node leaf shape; 3 columns
        # make blocks of _BLOCK // 3 times, so the 500 samples are one block; the
        # eigenvalues 0, 1 and 5 merge nowhere and lie 1 apart at the closest
        counters = manifest["counters"]
        assert counters.pop("nyquist_ratio") == pytest.approx(50 * 5 / (math.pi * 499),
                                                              rel=1e-12)
        assert counters == {"n": 5, "eigh_calls": 2, "largest_solve_dim": 2,
                            "weight_columns": 3, "series_blocks": 1, "tol_abs": 1e-8 * 6.0,
                            "largest_merged_gap": None, "smallest_separating_gap": 1.0}


def test_timeseries_manifest_counts_series_blocks(tmp_path):
    # chain(301) has no branch symmetry: 301 weight columns, so blocks of _BLOCK // 301 = 217
    # times, and 1000 samples take five blocks
    edges, out = str(tmp_path / "c.edges"), str(tmp_path / "ts.csv")
    assert cli.main(["gen", "--family", "chain", "--n", "301", "--out", edges]) == 0
    assert cli.main(["timeseries", "--in", edges, "--samples", "1000", "--out", out]) == 0
    manifest = json.loads(Path(out + ".manifest.json").read_text())
    assert manifest["counters"]["weight_columns"] == 301
    assert manifest["counters"]["series_blocks"] == 5


def test_timeseries_manifest_counts_the_kernel_blocks_run(tmp_path, monkeypatch):
    # blocks of 7 times: each runs one einsum over its amplitudes, and 100 samples take 15
    monkeypatch.setattr(efficiency, "_block_rows", lambda columns: 7)
    subscripts, einsum = [], np.einsum

    def counting_einsum(spec, *operands, **kwargs):
        subscripts.append(spec)
        return einsum(spec, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counting_einsum)
    edges, out = str(tmp_path / "d.edges"), str(tmp_path / "ts.csv")
    assert cli.main(["gen", "--family", "dendrimer", "--f", "3", "--g", "4", "--out", edges]) == 0
    assert cli.main(["timeseries", "--in", edges, "--samples", "100", "--out", out]) == 0
    manifest = json.loads(Path(out + ".manifest.json").read_text())
    assert manifest["counters"]["series_blocks"] == subscripts.count("qj,qj->j") == 15


def test_chi_and_timeseries_manifests_record_the_binning_margins(tmp_path):
    # dendrimer(3,6) repeats eigenvalues across its branch solves, which the tolerance
    # merges; the default grid's step is 50 n / (spread (samples - 1))
    edges = str(tmp_path / "d.edges")
    assert cli.main(["gen", "--family", "dendrimer", "--f", "3", "--g", "6", "--out", edges]) == 0
    h = build_hamiltonian(read_edge_list(edges))
    for command, sp, extra in (("chi", spectral.spectrum(h), []),
                               ("timeseries", return_weights(h).spectrum, ["--samples", "100"])):
        out = str(tmp_path / command)
        assert cli.main([command, "--in", edges, "--out", out, *extra]) == 0
        counters = json.loads(Path(out + ".manifest.json").read_text())["counters"]
        assert sp.largest_merged_gap is not None and sp.smallest_separating_gap is not None
        assert (counters["tol_abs"], counters["largest_merged_gap"],
                counters["smallest_separating_gap"]) == (
                    sp.tol_abs, sp.largest_merged_gap, sp.smallest_separating_gap)
        assert counters["largest_merged_gap"] <= sp.tol_abs < counters["smallest_separating_gap"]
    assert counters["nyquist_ratio"] == pytest.approx(50 * 190 / (math.pi * 99), rel=1e-12)


def test_chi_rerun_identical(tmp_path):
    edges = tmp_path / "d.edges"
    run_cli("gen", "--family", "dendrimer", "--f", "3", "--g", "3",
            "--out", str(edges))
    out = tmp_path / "r.json"
    assert run_cli("chi", "--in", str(edges), "--out", str(out)).returncode == 0
    second = tmp_path / "r2.json"
    assert run_cli("rerun", str(out) + ".manifest.json",
                   "--out", str(second)).returncode == 0
    assert second.read_bytes() == out.read_bytes()
    report = json.loads(out.read_text())
    for manifest_path in (str(out) + ".manifest.json", str(second) + ".manifest.json"):
        manifest = json.loads(Path(manifest_path).read_text())
        assert sorted(manifest["timings"]) == ["plan_s", "read_s", "report_s", "write_s"]
        assert all(v >= 0 for v in manifest["timings"].values())
        counters = manifest["counters"]
        assert counters["n"] == report["n"] == 22
        # dendrimer(3,3): one quotient chain of 4 levels and one solve per repeated branch
        assert counters["degeneracy_classes"] >= 1
        assert 1 <= counters["eigvalsh_calls"] <= 4
        assert counters["largest_solve_dim"] == 4


def test_gen_rerun_identical(tmp_path):
    out = tmp_path / "sft.edges"
    assert run_cli("gen", "--family", "sft", "--n", "300", "--s", "2.4",
                   "--seed", "9", "--out", str(out)).returncode == 0
    second = tmp_path / "sft2.edges"
    assert run_cli("rerun", str(out) + ".manifest.json",
                   "--out", str(second)).returncode == 0
    assert second.read_bytes() == out.read_bytes()
    for manifest_path in (str(out) + ".manifest.json", str(second) + ".manifest.json"):
        manifest = json.loads(Path(manifest_path).read_text())
        assert sorted(manifest["timings"]) == ["generate_s", "write_s"]
        assert all(v >= 0 for v in manifest["timings"].values())
        assert manifest["counters"] == {"n": 300}


@pytest.mark.parametrize("rerun", [False, True], ids=["cli", "rerun"])
@pytest.mark.parametrize("seed", [-1, 2**64, -(2**64)])
@pytest.mark.parametrize("command", ["gen", "sweep"])
def test_seed_outside_64_bits_exit_2_without_output(tmp_path, command, seed, rerun):
    # such a seed would alias the seed it equals mod 2^64
    params = ({"family": "sft", "n": 30, "s": 2.5} if command == "gen"
              else {"n": 30, "s_grid": "2.5", "r": 3})
    out = tmp_path / "out.txt"
    if rerun:
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"format": "qtree-manifest-1", "command": command,
                                        "params": {**params, "seed": seed}}))
        args = ["rerun", str(manifest)]
    else:
        args = [command, "--seed", str(seed)]
        args += [a for k, v in params.items() for a in ("--" + k.replace("_", "-"), str(v))]
    res = run_cli(*args, "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("qtree: ") and "--seed must be in [0, 2^64)" in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("command, key", [("timeseries", "t_max"), ("fit-kappa", "offset")])
def test_rerun_refuses_an_integer_no_float_holds(tmp_path, command, key):
    args, _ = _option_case(command, key, 10**400, rerun=True)(tmp_path)
    out = tmp_path / "out.txt"
    res = run_cli(*args, "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("qtree: ") and f"{key!r}" in res.stderr
    assert "reads back as inf" in res.stderr and "Traceback" not in res.stderr
    assert not out.exists()


def test_rerun_reads_an_integer_float_option_as_its_float(tmp_path):
    # numpy refuses 2^64 as an integer; the command line gives it as a float
    args = _rerun_of(tmp_path, "timeseries", {"t_max": 2**64, "samples": 5})
    out = tmp_path / "rerun.csv"
    res = run_cli(*args, "--out", str(out))
    assert res.returncode == 0, res.stderr
    direct = tmp_path / "direct.csv"
    assert run_cli("timeseries", "--in", str(tmp_path / "s5.edges"), "--t-max", str(2**64),
                   "--samples", "5", "--out", str(direct)).returncode == 0
    assert out.read_bytes() == direct.read_bytes()


def _round_trip_argv(command, tmp_path):
    edges = str(tmp_path / "d33.edges")
    if command != "gen":
        assert cli.main(["gen", "--family", "dendrimer", "--f", "3", "--g", "3",
                         "--out", edges]) == 0
    points = tmp_path / "points.csv"
    points.write_text("s,y\n" + "".join(f"{x},{x ** 1.5}\n" for x in (0.5, 1, 2, 4, 8)))
    return {
        "gen": ["gen", "--family", "sft", "--n", "40", "--s", "2.3", "--f-max", "9",
                "--seed", "7"],
        "chi": ["chi", "--in", edges, "--potential", "adjacency", "--tol-abs", "3e-9",
                "--spectrum-out", str(tmp_path / "spectrum.csv")],
        "sweep": ["sweep", "--n", "1000", "--s-grid", "2.5,3", "--paper-r",
                  "--estimator", "structural-measured"],
        "fit-kappa": ["fit-kappa", "--in", str(points), "--y-column", "y", "--offset", "-0.25",
                      "--invert-x", "--x-max", "1e3"],
        "timeseries": ["timeseries", "--in", edges, "--t-max", "0.7", "--samples", "20"],
    }[command]


@pytest.mark.parametrize("command", list(cli._RUNNERS))
def test_rerun_stores_the_params_it_was_given(tmp_path, command):
    out = tmp_path / "out"
    assert cli.main([*_round_trip_argv(command, tmp_path), "--out", str(out)]) == 0
    manifest = Path(str(out) + ".manifest.json")
    first, written = json.loads(manifest.read_text()), out.read_bytes()
    assert cli.main(["rerun", str(manifest)]) == 0
    assert json.loads(manifest.read_text())["params"] == first["params"]
    assert out.read_bytes() == written


@pytest.mark.parametrize("command, params, hint", [
    ("sweep", {"n": 30, "s_grid": "2.5", "paper_r": 1}, "--paper-r"),
    ("sweep", {"n": 30, "s_grid": "2.5", "r": 5, "paper_r": True}, "--paper-r"),
    ("chi", {"in": 5}, "'in'"),
    ("chi", {"in": "a\u0000b"}, "'in' holds a NUL"),
    ("chi", {"out": "a\u0000b"}, "'out' holds a NUL"),
    ("chi", {"potential": "custom=a\u0000b"}, "'potential' holds a NUL"),
], ids=["paper_r_1", "r_and_paper_r", "in_5", "nul_in", "nul_out", "nul_potential"])
def test_rerun_refuses_what_the_command_line_refuses(tmp_path, capsys, command, params, hint):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"format": cli.MANIFEST_FORMAT, "command": command,
                                    "params": params}))
    assert cli.main(["rerun", str(manifest), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qtree: ") and err.count("\n") == 1 and hint in err
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


@pytest.mark.parametrize("command, params, hint", [
    ("chi", {"in": "s5\ud800.edges", "out": "o.json"}, "--in 's5\\ud800.edges'"),
    ("chi", {"in": "s5.edges", "potential": "custom=p\ud800.txt", "out": "o.json"},
     "the potential table 'p\\ud800.txt'"),
    ("gen", {"family": "star", "n": 5, "out": "x\ud800.edges"}, "--out 'x\\ud800.edges'"),
], ids=["chi_in", "chi_potential", "gen_out"])
def test_rerun_refuses_a_path_with_a_lone_surrogate(tmp_path, monkeypatch, capsys,
                                                    command, params, hint):
    # JSON can escape a lone surrogate that no file name decodes to
    monkeypatch.chdir(tmp_path)
    Path("m.json").write_text(json.dumps({"format": cli.MANIFEST_FORMAT, "command": command,
                                          "params": params}))
    assert cli.main(["rerun", "m.json"]) == 2
    err = capsys.readouterr().err
    assert err == f"qtree: {hint} is not a file name\n"
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


def test_rerun_takes_a_path_of_undecodable_bytes(tmp_path):
    # the command line decodes byte 0xFF as the surrogate U+DCFF, which the manifest stores
    out = os.fsencode(tmp_path) + b"/x\xff.edges"
    gen = subprocess.run([sys.executable, "-m", "qtree", "gen", "--family", "star", "--n", "5",
                          "--out", out], capture_output=True)
    assert gen.returncode == 0, gen.stderr
    written = Path(os.fsdecode(out)).read_bytes()
    manifest = out + b".manifest.json"
    assert json.loads(Path(os.fsdecode(manifest)).read_text())["params"]["out"].endswith(
        "x\udcff.edges")
    rerun = subprocess.run([sys.executable, "-m", "qtree", "rerun", manifest], capture_output=True)
    assert rerun.returncode == 0, rerun.stderr
    assert Path(os.fsdecode(out)).read_bytes() == written
    assert sorted(os.listdir(os.fsencode(tmp_path))) == [b"x\xff.edges",
                                                        b"x\xff.edges.manifest.json"]


@pytest.mark.parametrize("command", ["chi", "timeseries"])
@pytest.mark.parametrize("text, count", [("0\n", 0), ("-5\n", -5)],
                         ids=["plain_head", "line_scan"])
def test_a_node_count_below_1_exits_2_naming_the_count_line(tmp_path, capsys, command,
                                                            text, count):
    edges, out = tmp_path / "bad.edges", tmp_path / "out"
    edges.write_text(text)
    assert cli.main([command, "--in", str(edges), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"qtree: line 1: node count must be at least 1, got {count}\n"
    assert not out.exists()
    edges.write_text("1\n")  # one node stays readable
    assert read_edge_list(edges).n == 1


@pytest.mark.parametrize("samples, code", [(1, 2), (graphs.MAX_NODES_DEFAULT + 1, 4)])
def test_cli_and_library_refuse_a_sample_count_in_the_same_words(tmp_path, capsys,
                                                                 samples, code):
    edges = str(tmp_path / "s5.edges")
    assert cli.main(["gen", "--family", "star", "--n", "5", "--out", edges]) == 0
    rw = return_weights(build_hamiltonian(read_edge_list(edges)))
    out = tmp_path / "ts.csv"
    with mock.patch.object(efficiency.np, "linspace", side_effect=AssertionError("allocated")):
        assert cli.main(["timeseries", "--in", edges, "--samples", str(samples),
                         "--out", str(out)]) == code
        with pytest.raises(QtreeError) as refused:
            time_series(rw, None, samples)
    err = capsys.readouterr().err
    assert err == f"qtree: {refused.value}\n" and "--samples" in err
    assert not out.exists()


def test_the_names_and_results_the_benchmark_tracer_reads_are_there():
    # perfbench/tracing.py wraps these names where the modules call them, and reads these
    # attributes of their results; a name it does not find is skipped, so its layer reads 0
    for module, names in [(cli, ["read_edge_list", "build_hamiltonian", "efficiency_report",
                                 "time_average", "chi_exact", "sweep"]),
                          (efficiency, ["structural_stats", "multiplicity_exact"]),
                          (ensemble, ["run_ensemble"])]:
        for name in names:
            assert callable(getattr(module, name, None)), (module.__name__, name)
    g = graphs.generate_dendrimer(3, 3)
    assert g.n == 22
    report = efficiency.efficiency_report(build_hamiltonian(g))
    assert (report.n, report.multiplicity_e_star_exact) == (22, 6)  # 12 leaves, 6 parents
    assert round(report.rho_star_exact * report.n) == 6
    cfg = ensemble.EnsembleConfig(n=30, s=2.5, r=3)
    assert ensemble.run_ensemble(cfg).config.r == 3
    assert [row.status for row in ensemble.sweep([cfg])] == ["ok"]


@pytest.mark.parametrize("command, params, workers", [
    ("sweep", {"n": 30, "s_grid": "2.5", "r": 5, "seed": 0}, 2),
    ("chi", {"potential": "custom={dir}/a=b/pot.txt"}, None),
    ("chi", {"tol_abs": 0.1 + 0.2}, None),
], ids=["seed_0_workers_2", "custom_path_with_equals", "tol_abs_0.1+0.2"])
def test_rerun_hands_each_stored_value_to_the_runner(tmp_path, command, params, workers):
    edges = tmp_path / "s5.edges"
    assert cli.main(["gen", "--family", "star", "--n", "5", "--out", str(edges)]) == 0
    (tmp_path / "a=b").mkdir()
    (tmp_path / "a=b" / "pot.txt").write_text("1 2.5\n4 -1\n")
    params = {key: value.format(dir=tmp_path) if isinstance(value, str) else value
              for key, value in params.items()}
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"format": cli.MANIFEST_FORMAT, "command": command,
                                    "params": {"in": str(edges), **params}}))
    out = tmp_path / "out"
    argv = ["rerun", str(manifest), "--out", str(out)]
    assert cli.main(argv + ([] if workers is None else ["--workers", str(workers)])) == 0
    # the manifest records the params the runner ran with
    ran = json.loads(Path(str(out) + ".manifest.json").read_text())["params"]
    assert {key: ran[key] for key in params} == params
    assert ran.get("workers") == workers


def test_rerun_of_a_stored_help_runs_the_command(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"format": cli.MANIFEST_FORMAT, "command": "gen", "params": {
        "family": "star", "n": 5, "help": True, "out": str(tmp_path / "s5.edges")}}))
    assert cli.main(["rerun", str(manifest)]) == 0
    assert capsys.readouterr() == ("", "")
    assert (tmp_path / "s5.edges").exists()


def test_usage_error_prints_one_line(capsys):
    assert cli.main(["gen", "--family", "nope", "--out", "unused"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qtree: ") and err.count("\n") == 1 and "--family" in err


@pytest.mark.parametrize("spectrum_name", ["r.json", "r.json.manifest.json", "sub/../r.json"])
def test_chi_refuses_a_spectrum_out_that_overwrites_the_report(tmp_path, capsys, spectrum_name):
    edges = tmp_path / "s5.edges"
    assert cli.main(["gen", "--family", "star", "--n", "5", "--out", str(edges)]) == 0
    before = sorted(tmp_path.iterdir())
    assert cli.main(["chi", "--in", str(edges), "--out", str(tmp_path / "r.json"),
                     "--spectrum-out", str(tmp_path / spectrum_name)]) == 2
    assert "--spectrum-out" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_rerun_refuses_an_out_that_overwrites_the_stored_spectrum(tmp_path, capsys):
    edges = tmp_path / "s5.edges"
    assert cli.main(["gen", "--family", "star", "--n", "5", "--out", str(edges)]) == 0
    spectrum = tmp_path / "r.csv"
    assert cli.main(["chi", "--in", str(edges), "--out", str(tmp_path / "r.json"),
                     "--spectrum-out", str(spectrum)]) == 0
    files = {p: p.read_bytes() for p in tmp_path.iterdir()}
    assert cli.main(["rerun", str(tmp_path / "r.json.manifest.json"),
                     "--out", str(spectrum)]) == 2
    assert "--spectrum-out" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == files


@pytest.mark.parametrize("argv", [
    ["chi", "--in", "t.edges", "--out", "t.edges"],
    ["chi", "--in", "t.edges", "--out", "r.json", "--spectrum-out", "t.edges"],
    ["chi", "--in", "r.manifest.json", "--out", "r"],
    ["chi", "--in", "t.edges", "--out", "link.edges"],
    ["chi", "--in", "t.edges", "--potential", "custom=pot.txt", "--out", "pot.txt"],
    ["chi", "--in", "t.edges", "--potential", "custom=pot.txt", "--out", "r.json",
     "--spectrum-out", "pot.txt"],
    ["timeseries", "--in", "t.edges", "--out", "t.edges"],
    ["timeseries", "--in", "r.manifest.json", "--out", "r"],
    ["timeseries", "--in", "t.edges", "--potential", "custom=pot.txt", "--out", "pot.txt"],
    ["fit-kappa", "--in", "p.csv", "--y-column", "s", "--out", "p.csv"],
    ["fit-kappa", "--in", "r.manifest.json", "--y-column", "s", "--out", "r"],
    ["rerun", "chi.json.manifest.json", "--out", "t.edges"],
    ["rerun", "ts.csv.manifest.json", "--out", "t.edges"],
    ["rerun", "fit.json.manifest.json", "--out", "p.csv"],
], ids=" ".join)
def test_an_output_that_would_overwrite_an_input_or_output_exits_2_writing_nothing(
        tmp_path, monkeypatch, capsys, argv):
    # every command checks its paths, as they resolve, before it reads or writes anything;
    # the tests above cover --spectrum-out against the report and its manifest
    monkeypatch.chdir(tmp_path)
    assert cli.main(["gen", "--family", "star", "--n", "5", "--out", "t.edges"]) == 0
    (tmp_path / "link.edges").symlink_to(tmp_path / "t.edges")
    (tmp_path / "r.manifest.json").write_bytes((tmp_path / "t.edges").read_bytes())
    (tmp_path / "pot.txt").write_text("1 1\n2 2\n4 4\n")
    assert cli.main(["sweep", "--n", "20", "--s-grid", "2.5,3.0,4.0", "--r", "3",
                     "--out", "p.csv"]) == 0
    assert cli.main(["chi", "--in", "t.edges", "--out", "chi.json",
                     "--spectrum-out", "spectrum.csv"]) == 0
    assert cli.main(["timeseries", "--in", "t.edges", "--samples", "5", "--out", "ts.csv"]) == 0
    assert cli.main(["fit-kappa", "--in", "p.csv", "--y-column", "s", "--out", "fit.json"]) == 0
    files = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("qtree: ") and "are the same file" in err and err.count("\n") == 1
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == files


def test_manifest_records_blas_thread_environment(tmp_path):
    env = {k: v for k, v in os.environ.items() if k not in cli.BLAS_ENV_VARS}
    out = tmp_path / "s5.edges"
    res = subprocess.run([sys.executable, "-m", "qtree", "gen", "--family", "star", "--n", "5",
                          "--out", str(out)], capture_output=True, text=True,
                         env={**env, "OPENBLAS_NUM_THREADS": "1"})
    assert res.returncode == 0
    manifest = json.loads((tmp_path / "s5.edges.manifest.json").read_text())
    assert manifest["blas_env"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                                    "MKL_NUM_THREADS": None}
    # rerun reads only the command and its params: it runs under its own environment
    second = tmp_path / "s5-rerun.edges"
    res = subprocess.run([sys.executable, "-m", "qtree", "rerun", str(out) + ".manifest.json",
                          "--out", str(second)], capture_output=True, text=True,
                         env={**env, "MKL_NUM_THREADS": "2"})
    assert res.returncode == 0
    assert second.read_bytes() == out.read_bytes()
    manifest = json.loads((tmp_path / "s5-rerun.edges.manifest.json").read_text())
    assert manifest["blas_env"] == {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None,
                                    "MKL_NUM_THREADS": "2"}


def test_rerun_rejects_non_manifest(tmp_path):
    bogus = tmp_path / "not-a-manifest.json"
    bogus.write_text("{\"foo\": 1}")
    assert run_cli("rerun", str(bogus)).returncode == 2
    bogus.write_text("not json")
    assert run_cli("rerun", str(bogus)).returncode == 2
    assert run_cli("rerun", str(tmp_path / "missing.json")).returncode == 3


def _bad_token_edge_list(tmp_path):
    edges = tmp_path / "bad.edges"
    edges.write_text("3\n0 1\n1 x\n")
    return ["chi", "--in", str(edges)], "line 3"


def _bad_potential_value(tmp_path):
    edges = tmp_path / "c3.edges"
    run_cli("gen", "--family", "chain", "--n", "3", "--out", str(edges))
    table = tmp_path / "pot.txt"
    table.write_text("1 5.0\n2 seven\n")
    return ["chi", "--in", str(edges), "--potential", f"custom={table}"], "line 2"


def _non_finite_potential_value(tmp_path):
    edges = tmp_path / "c3.edges"
    run_cli("gen", "--family", "chain", "--n", "3", "--out", str(edges))
    table = tmp_path / "pot.txt"
    table.write_text("1 nan\n2 7.0\n")
    return ["chi", "--in", str(edges), "--potential", f"custom={table}"], "line 1"


def _duplicate_potential_functionality(tmp_path):
    edges = tmp_path / "c3.edges"
    run_cli("gen", "--family", "chain", "--n", "3", "--out", str(edges))
    table = tmp_path / "pot.txt"
    table.write_text("1 5.0\n2 7.0\n1 9.0\n")
    return ["chi", "--in", str(edges), "--potential", f"custom={table}"], "lines 1 and 3"


def _manifest_without_params(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"format": "qtree-manifest-1", "command": "chi"}))
    return ["rerun", str(manifest)], "params"


def _rerun_of(tmp_path, command, params):
    edges = tmp_path / "s5.edges"
    run_cli("gen", "--family", "star", "--n", "5", "--out", str(edges))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"format": "qtree-manifest-1", "command": command,
                                    "params": {"in": str(edges), **params}}))
    return ["rerun", str(manifest)]


def _rerun_sweep_text_n(tmp_path):
    return _rerun_of(tmp_path, "sweep", {"n": "abc", "s_grid": "2.5", "r": 2}), "--n"


def _rerun_sweep_without_r(tmp_path):
    return _rerun_of(tmp_path, "sweep", {"n": 50, "s_grid": "2.5"}), "--r"


def _rerun_chi_numeric_in(tmp_path):
    return _rerun_of(tmp_path, "chi", {"in": 5}), "'in'"


def _rerun_timeseries_text_samples(tmp_path):
    return _rerun_of(tmp_path, "timeseries", {"samples": "x"}), "--samples"


def _rerun_chi_text_tol_abs(tmp_path):
    return _rerun_of(tmp_path, "chi", {"tol_abs": "x"}), "--tol-abs"


def _option_case(command, key, value, rerun):
    """A case giving `command` the out-of-range `value` for option `key`."""
    flag = "--" + key.replace("_", "-")

    def make_case(tmp_path):
        params = {key: value}
        if command == "fit-kappa":
            points = tmp_path / "points.csv"
            points.write_text("s,y\n1,1\n2,2\n3,3\n")
            params.update({"in": str(points), "y_column": "y"})
        if rerun:
            return _rerun_of(tmp_path, command, params), flag
        edges = tmp_path / "s5.edges"
        run_cli("gen", "--family", "star", "--n", "5", "--out", str(edges))
        params = {"in": str(edges), **params}
        return [command, *(a for k, v in params.items()
                           for a in ("--" + k.replace("_", "-"), str(v)))], flag

    make_case.__name__ = f"{'rerun_' if rerun else ''}{command}_{key}_{value}"
    return make_case


_OUT_OF_RANGE_OPTIONS = [
    _option_case(command, key, value, rerun)
    for rerun in (False, True)
    for command, key, value in [
        ("timeseries", "samples", 0), ("timeseries", "samples", -5),
        ("timeseries", "samples", 1), ("chi", "size_limit", 0),
        ("timeseries", "t_max", 0.0), ("timeseries", "t_max", float("nan")),
        ("timeseries", "t_max", float("inf")), ("chi", "tol_abs", float("inf")),
        ("fit-kappa", "x_min", float("nan")), ("fit-kappa", "x_max", float("nan")),
        ("fit-kappa", "offset", float("nan")), ("fit-kappa", "x_max", float("inf")),
    ]
]


def _overflowing_t_max(tmp_path):
    # finite, but t_max * max |lambda| is not
    edges = tmp_path / "s5.edges"
    run_cli("gen", "--family", "star", "--n", "5", "--out", str(edges))
    return ["timeseries", "--in", str(edges), "--t-max", "1e308"], "overflows the phases"


def _non_utf8_edge_list(tmp_path):
    edges = tmp_path / "latin1.edges"
    edges.write_bytes("# label=caf\xe9\n2\n0 1\n".encode("latin-1"))
    return ["chi", "--in", str(edges)], "UTF-8"


def _non_utf8_fit_kappa_csv(tmp_path):
    csv_path = tmp_path / "latin1.csv"
    csv_path.write_bytes(b"x,y\n1,1\n2,2\n3,3\n\xff\n")
    return ["fit-kappa", "--in", str(csv_path), "--x-column", "x", "--y-column", "y"], "UTF-8"


def _oversized_fit_kappa_cell(tmp_path):
    # above csv.field_size_limit(), 131 072 characters by default
    csv_path = tmp_path / "wide.csv"
    csv_path.write_text("# comment\nx,y\n1,1\n2," + "2" * 140_000 + "\n3,3\n4,4\n")
    return ["fit-kappa", "--in", str(csv_path), "--x-column", "x", "--y-column", "y"], \
        "data row 2 is not readable CSV: field larger than field limit"


def _oversized_fit_kappa_header(tmp_path):
    csv_path = tmp_path / "wide.csv"
    csv_path.write_text("x" * 140_000 + ",y\n1,1\n2,2\n3,3\n")
    return ["fit-kappa", "--in", str(csv_path), "--x-column", "x", "--y-column", "y"], \
        "the header is not readable CSV"


def _non_numeric_s_grid(tmp_path):
    return ["sweep", "--n", "50", "--s-grid", "2.5,abc", "--r", "2"], "'abc'"


def _infinite_s_grid(tmp_path):
    return ["sweep", "--n", "50", "--s-grid", "inf", "--r", "2"], "not finite"


def _infinite_sft_exponent(tmp_path):
    return ["gen", "--family", "sft", "--n", "50", "--s", "inf"], "finite"


@pytest.mark.parametrize(
    "make_case",
    [_bad_token_edge_list, _bad_potential_value, _non_finite_potential_value,
     _duplicate_potential_functionality, _manifest_without_params, _rerun_sweep_text_n,
     _rerun_sweep_without_r, _rerun_chi_numeric_in,
     _rerun_timeseries_text_samples, _rerun_chi_text_tol_abs,
     _non_utf8_edge_list, _non_utf8_fit_kappa_csv, _oversized_fit_kappa_cell,
     _oversized_fit_kappa_header, _non_numeric_s_grid,
     _infinite_s_grid, _infinite_sft_exponent, _overflowing_t_max, *_OUT_OF_RANGE_OPTIONS],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_malformed_input_exit_2(tmp_path, make_case):
    args, hint = make_case(tmp_path)
    out = tmp_path / "out.json"
    res = run_cli(*args, "--out", str(out))
    assert res.returncode == 2
    assert res.stderr.startswith("qtree: ")
    assert hint in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


def _run_cli_capped(address_space_bytes, *args):
    """run_cli in a child whose address space is capped, with one BLAS thread."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space_bytes, address_space_bytes))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "qtree", *args], capture_output=True,
                          text=True, preexec_fn=cap, env=env)


@pytest.mark.parametrize("command", ["chi", "timeseries"])
def test_oversize_tree_exit_4_without_dense_allocation(tmp_path, command):
    # a 5000 x 5000 matrix needs 191 MiB, more than the cap leaves after
    # the interpreter and numpy; the size check must come first
    cap = 256 << 20
    for n, expected in ((50, 0), (5000, 4)):
        edges = tmp_path / f"chain{n}.edges"
        assert run_cli("gen", "--family", "chain", "--n", str(n),
                       "--out", str(edges)).returncode == 0
        res = _run_cli_capped(cap, command, "--in", str(edges),
                              "--out", str(tmp_path / f"out{n}"))
        assert res.returncode == expected, res.stderr
    assert "exceeds the dense solver limit" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("family_args", [
    ["--family", "chain", "--n", "30000000"],
    ["--family", "star", "--n", "30000000"],
    ["--family", "sft", "--n", "100000000", "--s", "2.5"],
    ["--family", "dendrimer", "--f", "3", "--g", "30"],
    ["--family", "vicsek", "--f", "3", "--g", "20"],
], ids=lambda args: args[1])
def test_oversize_gen_exit_4_before_allocation(tmp_path, family_args):
    # each of these trees needs far more than the cap; the node count
    # check comes before any array or tuple of that size is made
    out = tmp_path / "big.edges"
    res = _run_cli_capped(512 << 20, "gen", *family_args, "--out", str(out))
    assert res.returncode == 4, res.stderr
    assert res.stderr.startswith("qtree: ") and "above the limit" in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


def test_oversize_sweep_exit_4_before_any_row(tmp_path):
    # one row's analytic averages alone would loop over 10^8 functionalities
    # and then fail to allocate its distribution under the cap
    out = tmp_path / "s.csv"
    res = _run_cli_capped(1 << 30, "sweep", "--n", "100000000", "--s-grid", "2.5", "--r", "1",
                          "--out", str(out))
    assert res.returncode == 4, res.stderr
    assert res.stderr.startswith("qtree: ") and "above the limit" in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


_SHARED_SWEEP_PARAMS = {
    # name: (params over n = 50, s = 2.5,3.0, r = 2; exit code; message part)
    "workers_0": ({"workers": 0}, 2, "worker count"),
    "r_0": ({"r": 0}, 2, "realization count"),
    "n_2": ({"n": 2}, 2, "n >= 3"),
    "n_0_paper_r": ({"n": 0, "r": None, "paper_r": True}, 2, "n >= 3"),
    "f_max_1": ({"f_max": 1}, 2, "f_max"),
    "n_above_node_limit": ({"n": 3_000_000}, 4, "above the limit"),
}


@pytest.mark.parametrize("rerun", [False, True], ids=["cli", "rerun"])
@pytest.mark.parametrize("case", _SHARED_SWEEP_PARAMS)
def test_sweep_refuses_shared_params_before_any_row(tmp_path, case, rerun):
    # every row would fail alike, so nothing is written and the exit is 2 or 4, not 5
    overrides, code, hint = _SHARED_SWEEP_PARAMS[case]
    params = {"n": 50, "s_grid": "2.5,3.0", "r": 2, **overrides}
    params = {key: value for key, value in params.items() if value is not None}
    out = tmp_path / "s.csv"
    if rerun:
        workers = params.pop("workers", None)
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"format": "qtree-manifest-1", "command": "sweep",
                                        "params": params}))
        args = ["rerun", str(manifest), "--out", str(out)]
        if workers is not None:
            args += ["--workers", str(workers)]
    else:
        args = ["sweep", "--out", str(out)]
        for key, value in params.items():
            flag = "--" + key.replace("_", "-")
            args += [flag] if value is True else [flag, str(value)]
    res = subprocess.run([sys.executable, "-m", "qtree", *args], capture_output=True,
                         text=True)
    assert res.returncode == code, res.stderr
    assert res.stderr.startswith("qtree: ") and hint in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("rerun", [False, True], ids=["cli", "rerun"])
def test_oversize_timeseries_samples_exit_4_before_allocation(tmp_path, rerun):
    # 10^9 samples need 8 GB per array, far more than the cap
    samples = 1_000_000_000
    if rerun:
        args = _rerun_of(tmp_path, "timeseries", {"samples": samples})
    else:
        edges = tmp_path / "s5.edges"
        assert run_cli("gen", "--family", "star", "--n", "5", "--out", str(edges)).returncode == 0
        args = ["timeseries", "--in", str(edges), "--samples", str(samples)]
    out = tmp_path / "ts.csv"
    res = _run_cli_capped(1 << 30, *args, "--out", str(out))
    assert res.returncode == 4, res.stderr
    assert res.stderr.startswith("qtree: ") and "--samples" in res.stderr
    assert "above the limit" in res.stderr and "Traceback" not in res.stderr
    assert not out.exists()


def test_huge_generation_exit_4_at_once(tmp_path):
    # the exact count 3^30000000 would take minutes to form; g alone settles it
    res = subprocess.run([sys.executable, "-m", "qtree", "gen", "--family", "dendrimer",
                          "--f", "4", "--g", "30000000", "--out", str(tmp_path / "d.edges")],
                         capture_output=True, text=True, timeout=2)
    assert res.returncode == 4, res.stderr
    assert "above the limit" in res.stderr


def test_timeseries_star_4000_within_address_space_cap(tmp_path):
    # a dense eigh of the 4000 x 4000 matrix and its eigenvectors does not
    # fit under this cap; the star's quotient at the root has two positions
    edges = tmp_path / "star.edges"
    assert run_cli("gen", "--family", "star", "--n", "4000", "--out", str(edges)).returncode == 0
    out = tmp_path / "ts.csv"
    res = _run_cli_capped(256 << 20, "timeseries", "--in", str(edges), "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 2 + 10_000 + 1
    footer = dict(item.split("=") for item in lines[-1].lstrip("# ").split())
    # E* = 1 holds n - 2 leaf-pair states; the other two eigenvalues are simple
    assert float(footer["chi_exact"]) == pytest.approx((3998 / 4000) ** 2 + 2 / 4000 ** 2,
                                                       rel=1e-12)
    assert float(footer["time_average_pi_bar"]) >= float(footer["chi_exact"]) - 0.01


def test_timeseries_out_of_memory_exits_4_writing_nothing(tmp_path):
    # measured: 10 samples on star(5) run at 104 MiB of address space and up; 2 000 000
    # samples exit 4 from 104 to 144 MiB, on the series' output arrays, allocated before the
    # kernel's first matrix product, whose OpenBLAS buffer aborts the run at 152-176 MiB
    edges = tmp_path / "s5.edges"
    assert run_cli("gen", "--family", "star", "--n", "5", "--out", str(edges)).returncode == 0
    res = _run_cli_capped(128 << 20, "timeseries", "--in", str(edges), "--samples", "2000000",
                          "--out", str(tmp_path / "ts.csv"))
    assert res.returncode == 4, res.stderr
    assert res.stderr.startswith("qtree: out of memory") and res.stderr.count("\n") == 1
    assert "Traceback" not in res.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s5.edges", "s5.edges.manifest.json"]


@pytest.mark.parametrize("error", [MemoryError(), MemoryError("Unable to allocate 8 GiB")])
def test_main_maps_a_memory_error_to_exit_4(tmp_path, capsys, error):
    edges, out = str(tmp_path / "s5.edges"), tmp_path / "ts.csv"
    assert cli.main(["gen", "--family", "star", "--n", "5", "--out", edges]) == 0
    with mock.patch.object(cli, "time_series", side_effect=error):
        assert cli.main(["timeseries", "--in", edges, "--out", str(out)]) == 4
    assert capsys.readouterr().err == ("qtree: out of memory"
                                       + (f" ({error})" if str(error) else "") + "\n")
    assert not out.exists()


def test_chi_refuses_a_class_mean_that_overflows_writing_nothing(tmp_path, capsys):
    # three eigenvalues of star(4) round to 1e308, and their sum overflows
    edges, table = str(tmp_path / "s4.edges"), tmp_path / "pot.txt"
    assert cli.main(["gen", "--family", "star", "--n", "4", "--out", edges]) == 0
    table.write_text("1 1e308\n3 -1e308\n")
    out, spectrum_out = tmp_path / "r.json", tmp_path / "r.csv"
    assert cli.main(["chi", "--in", edges, "--potential", f"custom={table}", "--tol-abs", "1e-8",
                     "--out", str(out), "--spectrum-out", str(spectrum_out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qtree: the mean of the 3 eigenvalues") and "overflows" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pot.txt", "s4.edges",
                                                          "s4.edges.manifest.json"]


def test_outputs_leave_no_temporary_files(tmp_path):
    assert run_cli("gen", "--family", "sft", "--n", "40", "--s", "2.5",
                   "--out", str(tmp_path / "t.edges")).returncode == 0
    assert run_cli("chi", "--in", str(tmp_path / "t.edges"), "--out", str(tmp_path / "r.json"),
                   "--spectrum-out", str(tmp_path / "r.csv")).returncode == 0
    assert run_cli("sweep", "--n", "40", "--s-grid", "2.5", "--r", "20",
                   "--out", str(tmp_path / "s.csv")).returncode == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "r.csv", "r.json", "r.json.manifest.json", "s.csv", "s.csv.manifest.json",
        "t.edges", "t.edges.manifest.json",
    ]


# what each command writes, run in this order; every quotient has a few positions only,
# so the outputs do not depend on the BLAS thread count
_GOLDEN_COMMANDS = [
    ["gen", "--family", "dendrimer", "--f", "3", "--g", "3", "--out", "d33.edges"],
    ["chi", "--in", "d33.edges", "--out", "d33.json", "--spectrum-out", "d33.csv"],
    ["sweep", "--n", "30", "--s-grid", "2.5,3.0", "--r", "50", "--out", "sweep2.csv"],
    ["sweep", "--n", "30", "--s-grid", "2.5,3.0,4.0", "--r", "50", "--out", "sweep3.csv"],
    ["fit-kappa", "--in", "sweep3.csv", "--y-column", "one_minus_chi_mc_mean", "--out", "fit.json"],
    ["gen", "--family", "star", "--n", "5", "--out", "s5.edges"],
    ["timeseries", "--in", "s5.edges", "--samples", "200", "--t-max", "5", "--out", "ts.csv"],
]
_GOLDEN_SHA256 = {
    "d33.edges": "c6d328499d284acabe79e1aa87f5708e1fdbf782fb2021706fc0528dc2aaee7c",
    "d33.json": "efc8292fab51773198f1d6c9c6b16024d3d0eefcae42376ec5b70dbff8431053",
    "d33.csv": "4bbedb0e340a2989982f7370938af7f5d553aa9045309d73cd8a6d9716a38b72",
    "sweep2.csv": "f7711c223c0c6b6a34cc565a5e4b7a3fa13740213e42cf204b01e8fe9208da0a",
    "sweep3.csv": "320277ee00e68f7e76de28bfbb1763fff2b147bea72716b8b0e5723ae6b7a3e1",
    "fit.json": "a6a85f54576ac56641ebda96263d3f7dbda73bd7988d288d8396889ab555bb68",
    "s5.edges": "6938162a157f18e999953e96d829154b28ba820a688e7234e8d818eb5b438476",
    "ts.csv": "ab3a80f15e4295ac4e22f6841f78d3a3ad436cb35669a0357f7cd3f46142f946",
}


@pytest.fixture(scope="module")
def golden_outputs(tmp_path_factory):
    """The folder that the commands of _GOLDEN_COMMANDS wrote, run through cli.main."""
    folder = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(folder)
        for argv in _GOLDEN_COMMANDS:
            assert cli.main(argv) == 0, argv
    return folder


def test_cli_output_files_golden_sha256(golden_outputs):
    # every byte each command writes stays the same across refactors
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in golden_outputs.iterdir() if not path.name.endswith(".manifest.json")}
    assert written == _GOLDEN_SHA256


def test_manifest_timings_fit_inside_the_run(golden_outputs):
    commands = set()
    for path in golden_outputs.glob("*.manifest.json"):
        manifest = json.loads(path.read_text())
        timings = manifest["timings"]
        assert "write_s" in timings and min(timings.values()) >= 0, path.name
        assert math.fsum(timings.values()) <= manifest["duration_seconds"], path.name
        commands.add(manifest["command"])
    assert commands == set(cli._RUNNERS)


def _refuse_to_run(params):
    raise AssertionError("the runner started")


@pytest.mark.parametrize("command", list(cli._RUNNERS))
def test_an_out_in_a_missing_directory_exits_3_naming_it(golden_outputs, tmp_path, capsys,
                                                         monkeypatch, command):
    # refused before the runner starts, as its write would fail after the whole run
    monkeypatch.setitem(cli._RUNNERS, command, _refuse_to_run)
    args = {
        "gen": ["--family", "star", "--n", "5"],
        "chi": ["--in", str(golden_outputs / "s5.edges")],
        "sweep": ["--n", "30", "--s-grid", "2.5", "--r", "5"],
        "fit-kappa": ["--in", str(golden_outputs / "sweep3.csv"),
                      "--y-column", "one_minus_chi_mc_mean"],
        "timeseries": ["--in", str(golden_outputs / "s5.edges"), "--samples", "20"],
    }[command]
    out = str(tmp_path / "missing" / "out")
    assert cli.main([command, *args, "--out", out]) == 3
    # the path given, not the temporary file beside it
    assert capsys.readouterr().err == f"qtree: [Errno 2] No such file or directory: {out!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_a_spectrum_out_in_a_missing_directory_exits_3_before_any_output(golden_outputs,
                                                                          tmp_path, capsys,
                                                                          monkeypatch):
    monkeypatch.setitem(cli._RUNNERS, "chi", _refuse_to_run)
    spectrum_out = str(tmp_path / "missing" / "x.csv")
    assert cli.main(["chi", "--in", str(golden_outputs / "s5.edges"), "--out",
                     str(tmp_path / "x.json"), "--spectrum-out", spectrum_out]) == 3
    assert (capsys.readouterr().err
            == f"qtree: [Errno 2] No such file or directory: {spectrum_out!r}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, option, value", [
    ("chi", "--tol-abs", "inf"), ("timeseries", "--t-max", "inf"), ("fit-kappa", "--offset", "nan"),
])
def test_an_option_out_of_range_is_refused_before_the_input_is_read(tmp_path, capsys, command,
                                                                    option, value):
    y_column = ["--y-column", "s"] if command == "fit-kappa" else []
    assert cli.main([command, "--in", str(tmp_path / "missing.edges"), *y_column, option, value,
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qtree: ") and option in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_unwritable_output_exit_3_without_partial_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()  # a directory cannot be replaced by the output file
    res = run_cli("sweep", "--n", "40", "--s-grid", "2.5", "--r", "20", "--out", str(target))
    assert res.returncode == 3
    assert res.stderr == f"qtree: [Errno 21] Is a directory: {str(target)!r}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert list(target.iterdir()) == []
    res = run_cli("gen", "--family", "star", "--n", "5",
                  "--out", str(tmp_path / "missing-dir" / "s.edges"))
    assert res.returncode == 3
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_version_flag():
    res = run_cli("--version")
    assert res.returncode == 0
    assert res.stdout.startswith("qtree ")


@pytest.mark.parametrize("command", ["chi", "timeseries"])
def test_one_quotient_plan_per_command(tmp_path, command):
    edges = tmp_path / "d35.edges"
    assert cli.main(["gen", "--family", "dendrimer", "--f", "3", "--g", "5",
                     "--out", str(edges)]) == 0
    with (mock.patch("qtree.spectral._plan", wraps=spectral._plan) as plan,
          mock.patch("qtree.spectral._quotient", wraps=spectral._quotient) as quotient,
          mock.patch("qtree.spectral._matrix", wraps=spectral._matrix) as matrix):
        assert cli.main([command, "--in", str(edges), "--out", str(tmp_path / "out")]) == 0
    # one expansion of the root quotient and one matrix, whose blocks are the solves
    assert plan.call_count == quotient.call_count == matrix.call_count == 1


POTENTIAL_TABLE_LIKE = st.lists(
    st.one_of(
        st.text(max_size=12),
        st.tuples(st.integers(-2, 8), st.floats()).map(lambda e: f"{e[0]} {e[1]}"),
        st.tuples(st.integers(1, 5), st.floats(-10, 10)).map(lambda e: f"{e[0]},{e[1]}"),
        st.sampled_from(["# comment", "1 nan", "2 inf", "3 -inf", "1 1e999", "x 1", "1", " "]),
    ),
    max_size=8,
).map("\n".join)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.text(), POTENTIAL_TABLE_LIKE))
def test_parse_potential_table_accepts_or_refuses_cleanly(text):
    with tempfile.TemporaryDirectory() as work:
        table = Path(work) / "pot.txt"
        table.write_text(text, encoding="utf-8")
        try:
            potential = cli._parse_potential(f"custom={table}")
        except QtreeError:
            return
    assert isinstance(potential, Potential) and potential.table
    assert all(isinstance(value, float) and value == value and abs(value) != float("inf")
               for value in potential.table.values())


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)
# every declared option of every subcommand, help among them, and one key none declares
PARAM_KEYS = st.sampled_from(sorted({action.dest for subparser in cli._build_parser()[1].values()
                                     for action in subparser._actions} | {"other"}))
MANIFEST_LIKE = st.fixed_dictionaries(
    {"format": st.sampled_from([cli.MANIFEST_FORMAT, "qtree-manifest-0"]),
     "command": st.sampled_from([*cli._RUNNERS, "rerun", "nope"]) | JSON_VALUES},
    optional={"params": st.dictionaries(PARAM_KEYS, JSON_VALUES, max_size=6) | JSON_VALUES},
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.text(), MANIFEST_LIKE.map(json.dumps), JSON_VALUES.map(json.dumps)))
@example("[" * 2000 + "]" * 2000)  # nested too deep for json.loads
def test_rerun_manifest_reader_accepts_or_refuses_cleanly(text):
    # the runners are replaced, so an accepted manifest runs nothing
    ran = []
    runners = {name: (lambda params, name=name: ran.append(name) or 0) for name in cli._RUNNERS}
    with tempfile.TemporaryDirectory() as work, mock.patch.dict(cli._RUNNERS, runners):
        manifest = Path(work) / "m.json"
        manifest.write_text(text, encoding="utf-8")
        try:
            assert cli.run_rerun({"manifest": str(manifest), "out": None, "workers": None}) == 0
        except QtreeError:
            return
    assert len(ran) == 1


@pytest.mark.parametrize("error, code", [
    (errors.InvalidParameterError, 2),
    (errors.OutOfDomainError, 2),
    (errors.DegenerateAverageError, 2),
    (errors.NoParentsError, 2),
    (errors.IncompletePotentialError, 2),
    (errors.UnsupportedExactModeError, 2),
    (errors.GeneratorLayoutError, 2),
    (errors.QtreeError, 2),
    (errors.SizeLimitError, 4),
], ids=lambda x: getattr(x, "__name__", str(x)))
def test_main_maps_each_error_class_to_its_exit_code(error, code, capsys):
    def stub(params):
        raise error("stub failure")

    with mock.patch.dict(cli._RUNNERS, {"gen": stub}):
        assert cli.main(["gen", "--family", "chain", "--n", "5", "--out", "unused"]) == code
    assert capsys.readouterr().err == "qtree: stub failure\n"


def test_every_error_class_has_a_mapping_test():
    # a new QtreeError subclass must be added to the table above
    declared = {obj for obj in vars(errors).values()
                if isinstance(obj, type) and issubclass(obj, errors.QtreeError)}
    assert declared == {
        errors.InvalidParameterError, errors.OutOfDomainError, errors.DegenerateAverageError,
        errors.NoParentsError, errors.IncompletePotentialError,
        errors.UnsupportedExactModeError, errors.GeneratorLayoutError, errors.QtreeError,
        errors.SizeLimitError,
    }


def test_commands_in_one_process_write_what_they_write_alone(tmp_path, monkeypatch):
    # the parser is built once per process; no option value may carry over between calls
    edges = tmp_path / "d34.edges"
    assert cli.main(["gen", "--family", "dendrimer", "--f", "3", "--g", "4",
                     "--out", str(edges)]) == 0
    commands = [
        ["chi", "--in", str(edges), "--potential", "adjacency", "--size-limit", "5",
         "--tol-abs", "1e-6", "--out", "chi_adjacency.json"],
        ["chi", "--in", str(edges), "--out", "chi.json", "--spectrum-out", "chi.csv"],
        ["timeseries", "--in", str(edges), "--samples", "64", "--out", "ts.csv"],
        ["sweep", "--n", "30", "--s-grid", "2.5,3", "--r", "6", "--out", "sweep.csv"],
        ["rerun", "chi.json.manifest.json", "--out", "chi_rerun.json"],
    ]
    together, alone = tmp_path / "together", tmp_path / "alone"
    together.mkdir()
    alone.mkdir()
    monkeypatch.chdir(together)
    for argv in commands:
        assert cli.main(argv) == 0, argv
    assert cli._build_parser() is cli._build_parser()
    for argv in commands:
        res = subprocess.run([sys.executable, "-m", "qtree", *argv], cwd=alone,
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
    for name in ("chi_adjacency.json", "chi.json", "chi.csv", "ts.csv", "sweep.csv",
                 "chi_rerun.json"):
        assert (together / name).read_bytes() == (alone / name).read_bytes(), name
    params = json.loads((together / "chi.json.manifest.json").read_text())["params"]
    assert (params["potential"], params["size_limit"], params["tol_abs"]) == (
        "connectivity", spectral.DENSE_SOLVER_LIMIT, None)


def test_chi_refuses_an_oversize_node_count_before_reading_edges(tmp_path, capsys):
    edges = tmp_path / "huge.edges"
    edges.write_text("# qtree-format=1\n2000001\n" + "0 1\n" * 2_000_000, encoding="utf-8")
    out = tmp_path / "r.json"
    started = time.monotonic()
    assert cli.main(["chi", "--in", str(edges), "--out", str(out)]) == 4
    assert time.monotonic() - started < 0.5
    assert capsys.readouterr().err == (
        "qtree: edge list has 2000001 nodes, above the limit 2000000\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.edges"]
