"""End-to-end CLI checks via subprocess."""
import json
import os
import resource
import subprocess
import sys

import pytest


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
    res = run_cli("sweep", "--n", "5000", "--s-grid", "2.5,3.0", "--r", "2",
                  "--estimator", "spectral-exact", "--out", str(tmp_path / "s.csv"))
    assert res.returncode == 5
    text = (tmp_path / "s.csv").read_text()
    assert text.count("size-limit") == 2


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


def test_gen_rerun_identical(tmp_path):
    out = tmp_path / "sft.edges"
    assert run_cli("gen", "--family", "sft", "--n", "300", "--s", "2.4",
                   "--seed", "9", "--out", str(out)).returncode == 0
    second = tmp_path / "sft2.edges"
    assert run_cli("rerun", str(out) + ".manifest.json",
                   "--out", str(second)).returncode == 0
    assert second.read_bytes() == out.read_bytes()


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


def _manifest_without_params(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"format": "qtree-manifest-1", "command": "chi"}))
    return ["rerun", str(manifest)], "params"


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
    [_bad_token_edge_list, _bad_potential_value, _manifest_without_params,
     _non_utf8_edge_list, _non_utf8_fit_kappa_csv, _non_numeric_s_grid,
     _infinite_s_grid, _infinite_sft_exponent],
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
