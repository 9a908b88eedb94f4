"""End-to-end CLI checks via subprocess, and the CLI's input parsers in-process."""
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtree import Potential, QtreeError, build_hamiltonian, read_edge_list, time_series
from qtree import cli, errors, spectral


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
    text = (tmp_path / "s.csv").read_text()
    assert text.count("degenerate-average") == 2


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
        assert len(manifest["timings"]["row_s"]) == 2
        assert all(v >= 0 for v in manifest["timings"]["row_s"])
        # n = 60 takes blocks of 1093 realizations, so each row's 400 are one block
        assert manifest["counters"] == {"realizations": 800, "blocks": 2}


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


@pytest.mark.parametrize("t_max", [None, 50.0])
def test_timeseries_body_is_each_value_at_17_digits(tmp_path, t_max):
    edges, out = str(tmp_path / "d33.edges"), str(tmp_path / "ts.csv")
    assert cli.main(["gen", "--family", "dendrimer", "--f", "3", "--g", "3", "--out", edges]) == 0
    assert cli.main(["timeseries", "--in", edges, "--samples", "300", "--out", out]
                    + ([] if t_max is None else ["--t-max", str(t_max)])) == 0
    ts = time_series(build_hamiltonian(read_edge_list(edges)), t_max, 300)
    lines = Path(out).read_text().splitlines()
    assert lines[2:-1] == [f"{t:.17g},{a:.17g},{p:.17g}"
                           for t, a, p in zip(ts.times, ts.abs_alpha_sq, ts.pi_bar)]


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
        assert sorted(manifest["timings"]) == ["read_s", "series_s", "write_s"]
        assert all(v >= 0 for v in manifest["timings"].values())
        # star(5): a 2-position quotient at the root and the 1-node leaf shape
        assert manifest["counters"] == {"n": 5, "eigh_calls": 2, "largest_solve_dim": 2,
                                        "weight_columns": 3}


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
        assert sorted(manifest["timings"]) == ["read_s", "report_s", "write_s"]
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
    return _rerun_of(tmp_path, "sweep", {"n": "abc", "s_grid": "2.5", "r": 2}), "'n'"


def _rerun_sweep_without_r(tmp_path):
    return _rerun_of(tmp_path, "sweep", {"n": 50, "s_grid": "2.5"}), "--r"


def _rerun_chi_numeric_in(tmp_path):
    return _rerun_of(tmp_path, "chi", {"in": 5}), "'in'"


def _rerun_timeseries_text_samples(tmp_path):
    return _rerun_of(tmp_path, "timeseries", {"samples": "x"}), "'samples'"


def _rerun_chi_text_tol_abs(tmp_path):
    return _rerun_of(tmp_path, "chi", {"tol_abs": "x"}), "'tol_abs'"


def _option_case(command, key, value, rerun):
    """A case giving `command` the out-of-range `value` for option `key`."""
    flag = "--" + key.replace("_", "-")

    def make_case(tmp_path):
        if rerun:
            return _rerun_of(tmp_path, command, {key: value}), flag
        edges = tmp_path / "s5.edges"
        run_cli("gen", "--family", "star", "--n", "5", "--out", str(edges))
        return [command, "--in", str(edges), flag, str(value)], flag

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
    ]
]


def _non_utf8_edge_list(tmp_path):
    edges = tmp_path / "latin1.edges"
    edges.write_bytes("# label=caf\xe9\n2\n0 1\n".encode("latin-1"))
    return ["chi", "--in", str(edges)], "UTF-8"


def _non_utf8_fit_kappa_csv(tmp_path):
    csv_path = tmp_path / "latin1.csv"
    csv_path.write_bytes(b"x,y\n1,1\n2,2\n3,3\n\xff\n")
    return ["fit-kappa", "--in", str(csv_path), "--x-column", "x", "--y-column", "y"], "UTF-8"


def _non_numeric_s_grid(tmp_path):
    return ["sweep", "--n", "50", "--s-grid", "2.5,abc", "--r", "2"], "'abc'"


def _infinite_s_grid(tmp_path):
    return ["sweep", "--n", "50", "--s-grid", "inf", "--r", "2"], "not finite"


def _infinite_sft_exponent(tmp_path):
    return ["gen", "--family", "sft", "--n", "50", "--s", "inf"], "finite"


@pytest.mark.parametrize(
    "make_case",
    [_bad_token_edge_list, _bad_potential_value, _non_finite_potential_value,
     _manifest_without_params, _rerun_sweep_text_n, _rerun_sweep_without_r,
     _rerun_chi_numeric_in,
     _rerun_timeseries_text_samples, _rerun_chi_text_tol_abs,
     _non_utf8_edge_list, _non_utf8_fit_kappa_csv, _non_numeric_s_grid,
     _infinite_s_grid, _infinite_sft_exponent, *_OUT_OF_RANGE_OPTIONS],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_malformed_input_exit_2(tmp_path, make_case):
    args, hint = make_case(tmp_path)
    res = run_cli(*args, "--out", str(tmp_path / "out.json"))
    assert res.returncode == 2
    assert res.stderr.startswith("qtree: ")
    assert hint in res.stderr
    assert "Traceback" not in res.stderr


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
    # name: (params over n = 50, s = 2.5,3.0, r = 2; environment; exit code; message part)
    "workers_0": ({"workers": 0}, {}, 2, "worker count"),
    "env_workers_abc": ({}, {"QTREE_WORKERS": "abc"}, 2, "QTREE_WORKERS"),
    "r_0": ({"r": 0}, {}, 2, "realization count"),
    "n_2": ({"n": 2}, {}, 2, "n >= 3"),
    "n_0_paper_r": ({"n": 0, "r": None, "paper_r": True}, {}, 2, "n >= 3"),
    "f_max_1": ({"f_max": 1}, {}, 2, "f_max"),
    "n_above_node_limit": ({"n": 3_000_000}, {}, 4, "above the limit"),
}


@pytest.mark.parametrize("rerun", [False, True], ids=["cli", "rerun"])
@pytest.mark.parametrize("case", _SHARED_SWEEP_PARAMS)
def test_sweep_refuses_shared_params_before_any_row(tmp_path, case, rerun):
    # every row would fail alike, so nothing is written and the exit is 2 or 4, not 5
    overrides, env, code, hint = _SHARED_SWEEP_PARAMS[case]
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
                         text=True, env={**os.environ, **env})
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


def test_unwritable_output_exit_3_without_partial_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()  # a directory cannot be replaced by the output file
    res = run_cli("sweep", "--n", "40", "--s-grid", "2.5", "--r", "20", "--out", str(target))
    assert res.returncode == 3
    assert res.stderr.startswith("qtree: ")
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
    with mock.patch("qtree.spectral._plan", wraps=spectral._plan) as plan:
        assert cli.main([command, "--in", str(edges), "--out", str(tmp_path / "out")]) == 0
    assert plan.call_count == 1


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
PARAM_KEYS = st.sampled_from(["in", "out", "n", "s", "s_grid", "r", "paper_r", "samples",
                              "t_max", "size_limit", "tol_abs", "potential", "estimator",
                              "family", "y_column", "workers", "help", "other"])
MANIFEST_LIKE = st.fixed_dictionaries(
    {"format": st.sampled_from([cli.MANIFEST_FORMAT, "qtree-manifest-0"]),
     "command": st.sampled_from([*cli._RUNNERS, "rerun", "nope"]) | JSON_VALUES},
    optional={"params": st.dictionaries(PARAM_KEYS, JSON_VALUES, max_size=6) | JSON_VALUES},
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.text(), MANIFEST_LIKE.map(json.dumps), JSON_VALUES.map(json.dumps)))
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
        errors.UnsupportedExactModeError, errors.QtreeError, errors.SizeLimitError,
    }
