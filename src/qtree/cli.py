"""Command-line front end.

One command produces one data file plus one manifest recording the
command, its full parameter set, the artifact version, the output paths
and the wall-clock duration.  `qtree rerun <manifest>` re-executes a
recorded command; deterministic commands reproduce their outputs byte
for byte, and the worker count never changes output bytes.

Exit codes: 0 success, 2 invalid parameters or usage, 3 I/O failure,
4 size limit exceeded, 5 every sweep row failed.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .efficiency import (
    chi_exact,
    efficiency_report,
    kappa_fit,
    time_average,
    time_series,
)
from .ensemble import (
    ESTIMATORS,
    STRUCTURAL_DELTA0,
    WORKERS_ENV_VAR,
    EnsembleConfig,
    _block_size,
    _check_config,
    resolve_workers,
    sweep,
    sweep_csv_text,
)
from .errors import InvalidParameterError, QtreeError, SizeLimitError
from .graphs import (
    FORMAT_HEADER,
    MAX_NODES_DEFAULT,
    edge_list_text,
    generate_chain,
    generate_dendrimer,
    generate_sft,
    generate_star,
    generate_vicsek,
    read_edge_list,
    write_text_atomic,
)
from .spectral import (
    ADJACENCY,
    CONNECTIVITY,
    DENSE_SOLVER_LIMIT,
    build_hamiltonian,
    custom_potential,
    spectrum_csv_text,
)

MANIFEST_FORMAT = "qtree-manifest-1"

# the BLAS thread count can change the last digits of eigenvalue-based outputs
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_manifest(command: str, params: dict, outputs: list[str],
                    master_seed: int | None, started: float, extra: dict | None = None) -> str:
    """Write <first output>.manifest.json; extra adds keys that rerun ignores."""
    manifest = {
        **(extra or {}),
        "format": MANIFEST_FORMAT,
        "command": command,
        "version": __version__,
        "params": params,
        "master_seed": master_seed,
        "outputs": outputs,
        "duration_seconds": time.monotonic() - started,
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV_VARS},
    }
    path = outputs[0] + ".manifest.json"
    write_text_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _parse_potential(choice: str):
    if choice == "connectivity":
        return CONNECTIVITY
    if choice == "adjacency":
        return ADJACENCY
    if choice.startswith("custom="):
        table = {}
        text = Path(choice.removeprefix("custom=")).read_text(encoding="utf-8")
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise InvalidParameterError(f"bad potential table line: {raw!r}")
            try:
                f, value = int(parts[0]), float(parts[1])
            except ValueError:
                raise InvalidParameterError(
                    f"potential table line {lineno}: {raw!r} is not 'f value'"
                ) from None
            if not math.isfinite(value):
                raise InvalidParameterError(
                    f"potential table line {lineno}: value {parts[1]!r} is not finite"
                )
            table[f] = value
        return custom_potential(table)
    raise InvalidParameterError(
        f"unknown potential {choice!r}; use connectivity, adjacency or custom=<path>"
    )


def _option(params: dict, key: str, default, valid, requirement: str):
    """params[key], or default when unset; refused unless valid(value)."""
    value = default if params.get(key) is None else params[key]
    if not valid(value):
        raise InvalidParameterError(f"--{key.replace('_', '-')} must be {requirement}, got {value}")
    return value


# --- runners (shared by the subcommands and `rerun`) -------------------------

_FAMILY_FLAGS = {
    "chain": ("n",),
    "star": ("n",),
    "dendrimer": ("f", "g"),
    "vicsek": ("f", "g"),
    "sft": ("n", "s"),
}


def run_gen(params: dict) -> int:
    started = time.monotonic()
    family = params["family"]
    required = _FAMILY_FLAGS.get(family)
    if required is None:
        raise InvalidParameterError(f"unknown family {family!r}")
    missing = [flag for flag in required if params.get(flag) is None]
    if missing:
        raise InvalidParameterError(
            f"family {family!r} needs --" + " --".join(missing)
        )
    if family == "chain":
        g = generate_chain(int(params["n"]))
    elif family == "star":
        g = generate_star(int(params["n"]))
    elif family == "dendrimer":
        g = generate_dendrimer(int(params["f"]), int(params["g"]))
    elif family == "vicsek":
        g = generate_vicsek(int(params["f"]), int(params["g"]))
    elif family == "sft":
        g = generate_sft(
            int(params["n"]),
            float(params["s"]),
            None if params.get("f_max") is None else int(params["f_max"]),
            int(params.get("seed") or 0),
        )
    generated = time.monotonic()
    out = params["out"]
    write_text_atomic(out, edge_list_text(g))
    _write_manifest("gen", params, [out],
                    int(params.get("seed") or 0) if family == "sft" else None, started, {
                        "timings": {"generate_s": generated - started,
                                    "write_s": time.monotonic() - generated},
                        "counters": {"n": g.n},
                    })
    return 0


def run_chi(params: dict) -> int:
    started = time.monotonic()
    g = read_edge_list(params["in"])
    potential = _parse_potential(params.get("potential", "connectivity"))
    read_done = time.monotonic()
    report = efficiency_report(
        g,
        potential,
        tol_abs=_option(params, "tol_abs", None, lambda v: v is None or 0 < v < math.inf,
                        "finite and positive"),
        size_limit=_option(params, "size_limit", DENSE_SOLVER_LIMIT, lambda v: v >= 1,
                           "at least 1"),
    )
    report_done = time.monotonic()
    out = params["out"]
    payload = {f.name: getattr(report, f.name) for f in fields(report) if f.name != "spectrum"}
    write_text_atomic(out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    outputs = [out]
    spectrum_out = params.get("spectrum_out")
    if spectrum_out:
        write_text_atomic(spectrum_out, spectrum_csv_text(report.spectrum))
        outputs.append(spectrum_out)
    sp = report.spectrum
    _write_manifest("chi", params, outputs, None, started, {
        "timings": {"read_s": read_done - started, "report_s": report_done - read_done,
                    "write_s": time.monotonic() - report_done},
        "counters": {"n": report.n, "degeneracy_classes": len(sp.classes),
                     "eigvalsh_calls": len(sp.solve_dims),
                     "largest_solve_dim": max(sp.solve_dims)},
    })
    return 0


def _parse_s(text: str) -> float:
    try:
        s = float(text)
    except ValueError:
        raise InvalidParameterError(f"s grid value {text.strip()!r} is not a number") from None
    if not math.isfinite(s):
        raise InvalidParameterError(f"s grid value {text.strip()!r} is not finite")
    return s


def run_sweep(params: dict) -> int:
    started = time.monotonic()
    n = int(params["n"])
    s_grid = [_parse_s(v) for v in str(params["s_grid"]).split(",") if v.strip()]
    if not s_grid:
        raise InvalidParameterError("empty s grid")
    if params.get("paper_r"):
        r = max(1, round(1_000_000 / max(n, 1)))  # n < 3 is refused below; max() only avoids / 0
    elif params.get("r") is not None:
        r = int(params["r"])
    else:
        raise InvalidParameterError("sweep needs --r or --paper-r")
    f_max = None if params.get("f_max") is None else int(params["f_max"])
    cfgs = [
        EnsembleConfig(
            n=n,
            s=s,
            f_max=f_max,
            r=r,
            master_seed=int(params.get("seed") or 0),
            estimator=params.get("estimator", STRUCTURAL_DELTA0),
        )
        for s in s_grid
    ]
    # before any row: what the rows share, including n, whose analytic mean loops over n - 1 values
    workers = resolve_workers(params.get("workers"))
    _check_config(cfgs[0])
    rows, row_s = [], []
    for cfg in cfgs:
        row_started = time.monotonic()
        rows += sweep([cfg], workers=workers)
        row_s.append(time.monotonic() - row_started)
    ran = sum(row.one_minus_chi_mc_mean is not None for row in rows)
    out = params["out"]
    write_text_atomic(out, sweep_csv_text(rows))
    _write_manifest("sweep", params, [out], int(params.get("seed") or 0), started, {
        "timings": {"row_s": row_s},
        "counters": {"realizations": ran * r, "blocks": ran * -(-r // _block_size(n))},
    })
    if all(row.status != "ok" for row in rows):
        print("qtree: every sweep row failed", file=sys.stderr)
        return 5
    return 0


def run_fit_kappa(params: dict) -> int:
    started = time.monotonic()
    x_col = params.get("x_column", "s")
    y_col = params["y_column"]
    offset = float(params.get("offset") or 0.0)
    invert = bool(params.get("invert_x"))
    x_min = params.get("x_min")
    x_max = params.get("x_max")

    text = Path(params["in"]).read_text(encoding="utf-8")
    data_lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    reader = csv.DictReader(io.StringIO("\n".join(data_lines)))
    points, rows = [], 0
    for row in reader:
        rows += 1
        if row.get("status") not in (None, "", "ok"):
            continue
        try:
            x = float(row[x_col])
            y = float(row[y_col])
        except (KeyError, TypeError, ValueError):
            continue
        x -= offset
        if invert:
            if x == 0:
                continue
            x = 1.0 / x
        if x <= 0 or y <= 0:
            continue
        if x_min is not None and x < float(x_min):
            continue
        if x_max is not None and x > float(x_max):
            continue
        points.append((x, y))
    if len(points) < 3:
        raise InvalidParameterError(
            f"need at least 3 usable rows, found {len(points)} "
            f"(columns {x_col!r}/{y_col!r})"
        )
    read_done = time.monotonic()
    fit = kappa_fit(points)
    fit_done = time.monotonic()
    out = params["out"]
    payload = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "residual": fit.residual,
        "window": [list(p) for p in fit.window],
        "points_used": len(points),
    }
    write_text_atomic(out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _write_manifest("fit-kappa", params, [out], None, started, {
        "timings": {"read_s": read_done - started, "fit_s": fit_done - read_done,
                    "write_s": time.monotonic() - fit_done},
        "counters": {"rows": rows, "points_used": len(points)},
    })
    return 0


def run_timeseries(params: dict) -> int:
    started = time.monotonic()
    samples = _option(params, "samples", 10_000, lambda v: v >= 2, "at least 2")
    if samples > MAX_NODES_DEFAULT:
        raise SizeLimitError(f"--samples {samples} is above the limit {MAX_NODES_DEFAULT}")
    t_max = _option(params, "t_max", None, lambda v: v is None or 0 < v < math.inf,
                    "finite and positive")
    g = read_edge_list(params["in"])
    potential = _parse_potential(params.get("potential", "connectivity"))
    read_done = time.monotonic()
    ts = time_series(build_hamiltonian(g, potential), t_max, samples)
    series_done = time.monotonic()
    # one formatting call for the body; "%.17g" writes the digits f"{x:.17g}" does
    rows = np.column_stack((ts.times, ts.abs_alpha_sq, ts.pi_bar)).ravel().tolist()
    sp = ts.weights.spectrum
    footer = "# time_average_abs_alpha_sq={} time_average_pi_bar={} chi_exact={}\n".format(
        _fmt(time_average(ts.abs_alpha_sq, ts.times)),
        _fmt(time_average(ts.pi_bar, ts.times)),
        _fmt(chi_exact(sp)),
    )
    out = params["out"]
    write_text_atomic(out, f"{FORMAT_HEADER}\nt,abs_alpha_sq,pi_bar\n"
                      + "%.17g,%.17g,%.17g\n" * len(ts.times) % tuple(rows) + footer)
    _write_manifest("timeseries", params, [out], None, started, {
        "timings": {"read_s": read_done - started, "series_s": series_done - read_done,
                    "write_s": time.monotonic() - series_done},
        "counters": {"n": g.n, "eigh_calls": len(sp.solve_dims),
                     "largest_solve_dim": max(sp.solve_dims),
                     "weight_columns": ts.weights.weights.shape[1]},
    })
    return 0


_RUNNERS = {
    "gen": run_gen,
    "chi": run_chi,
    "sweep": run_sweep,
    "fit-kappa": run_fit_kappa,
    "timeseries": run_timeseries,
}


def run_rerun(params: dict) -> int:
    try:
        manifest = json.loads(Path(params["manifest"]).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise InvalidParameterError(f"unreadable manifest: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
        raise InvalidParameterError(f"not a {MANIFEST_FORMAT} manifest")
    command = manifest.get("command")
    if not isinstance(command, str) or command not in _RUNNERS:
        raise InvalidParameterError(f"manifest names unknown command {command!r}")
    if not isinstance(manifest.get("params"), dict):
        raise InvalidParameterError("manifest has no params object")
    stored = dict(manifest["params"])
    if params.get("out") is not None:
        stored["out"] = params["out"]
    if params.get("workers") is not None:
        stored["workers"] = params["workers"]
    _, subcommands = _build_parser()
    _check_stored_params(subcommands[command], stored)
    try:
        return _RUNNERS[command](stored)
    except KeyError as exc:
        raise InvalidParameterError(f"manifest params lack {exc}") from None


def _check_stored_params(subparser: argparse.ArgumentParser, stored: dict) -> None:
    """Refuse a stored param whose JSON value does not fit its declared option.

    Keys the subcommand does not declare are left to the runner, which
    ignores them.
    """
    for action in subparser._actions:
        key = _param_key(action.dest)
        value = stored.get(key)
        if value is None:
            if action.required:
                raise InvalidParameterError(f"manifest params lack {key!r}")
            continue
        if action.nargs == 0:  # a flag
            fits, kind = isinstance(value, bool), "true or false"
        elif action.type is int:
            fits, kind = isinstance(value, int) and not isinstance(value, bool), "an integer"
        elif action.type is float:
            fits, kind = isinstance(value, (int, float)) and not isinstance(value, bool), "a number"
        else:
            fits, kind = isinstance(value, str), "a string"
        if fits and action.choices is not None and value not in action.choices:
            fits, kind = False, "one of " + ", ".join(map(str, action.choices))
        if not fits:
            raise InvalidParameterError(f"manifest param {key!r} must be {kind}, got {value!r}")


# --- argument parsing ---------------------------------------------------------

def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The qtree parser and, by name, the parser of each subcommand."""
    parser = argparse.ArgumentParser(
        prog="qtree",
        description="Quantum-walk transport efficiency on tree networks",
    )
    parser.add_argument("--version", action="version", version=f"qtree {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a tree and write its edge list")
    p.add_argument("--family", required=True,
                   choices=["chain", "star", "dendrimer", "vicsek", "sft"])
    p.add_argument("--n", type=int, help="node count (chain, star, sft)")
    p.add_argument("--f", type=int, help="functionality (dendrimer, vicsek)")
    p.add_argument("--g", type=int, help="generation (dendrimer, vicsek)")
    p.add_argument("--s", type=float, help="scaling exponent (sft)")
    p.add_argument("--f-max", type=int, help="functionality cap (sft, default n-1)")
    p.add_argument("--seed", type=int, default=0, help="rng seed (sft)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("chi", help="efficiency report for one edge-list file")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--potential", default="connectivity",
                   help="connectivity | adjacency | custom=<table file>")
    p.add_argument("--tol-abs", type=float, help="degeneracy binning tolerance")
    p.add_argument("--size-limit", type=int, default=DENSE_SOLVER_LIMIT,
                   help="largest quotient to diagonalize, in positions (default %(default)s)")
    p.add_argument("--spectrum-out", help="also export the binned spectrum CSV")
    p.add_argument("--out", required=True)

    p = sub.add_parser("sweep", help="Monte Carlo sweep over the scaling exponent")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s-grid", required=True, help="comma-separated s values")
    p.add_argument("--f-max", type=int)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--r", type=int, help="realizations per s value")
    group.add_argument("--paper-r", action="store_true",
                       help="use r = 10^6 / n realizations")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--estimator", default=STRUCTURAL_DELTA0, choices=list(ESTIMATORS))
    p.add_argument("--workers", type=int, help=f"default ${WORKERS_ENV_VAR} or 1")
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit-kappa", help="power-law exponent fit on a sweep CSV")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--y-column", required=True)
    p.add_argument("--x-column", default="s")
    p.add_argument("--offset", type=float, default=0.0,
                   help="subtract this from x before fitting")
    p.add_argument("--invert-x", action="store_true",
                   help="fit against 1/(x - offset)")
    p.add_argument("--x-min", type=float)
    p.add_argument("--x-max", type=float)
    p.add_argument("--out", required=True)

    p = sub.add_parser("timeseries", help="return-probability time series to CSV")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--potential", default="connectivity")
    p.add_argument("--t-max", type=float)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--out", required=True)

    p = sub.add_parser("rerun", help="re-execute a command from its manifest")
    p.add_argument("manifest")
    p.add_argument("--out", help="override the recorded output path")
    p.add_argument("--workers", type=int)
    return parser, sub.choices


def _param_key(dest: str) -> str:
    return dest.replace("in_path", "in")


def _params_from_args(args: argparse.Namespace) -> dict:
    params = {}
    for key, value in vars(args).items():
        if key in ("command",):
            continue
        params[_param_key(key)] = value
    return params


def main(argv: list[str] | None = None) -> int:
    parser, _ = _build_parser()
    args = parser.parse_args(argv)
    command = args.command
    params = _params_from_args(args)
    try:
        if command == "rerun":
            return run_rerun(params)
        return _RUNNERS[command](params)
    except SizeLimitError as exc:
        print(f"qtree: {exc}", file=sys.stderr)
        return 4
    except QtreeError as exc:
        print(f"qtree: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"qtree: input file is not UTF-8 text ({exc})", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"qtree: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
