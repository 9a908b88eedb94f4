"""Command-line front end.

One command produces its output files plus one manifest recording the
command, its full parameter set, the artifact version, the output paths,
the wall-clock duration and per-stage timings.  `qtree rerun <manifest>`
re-executes a recorded command; deterministic commands reproduce their
outputs byte for byte, and the worker count never changes output bytes.
Runners compute and write nothing; `_run` times them and writes every
output and manifest.  The CSVs are formatted here, each double as %.17g;
`graphs._edge_list_parts` formats the edge list, and `json.dumps` the JSON
files, each double as the shortest text that reads back (0.1, not 0.10000000000000001).
The time-series body and the edge list are formatted in parts of
`graphs._BLOCK` values, each written as it is made, so neither is held whole.

Exit codes: 0 success, 2 invalid parameters or usage, 3 I/O failure,
4 size limit exceeded or out of memory, 5 every sweep row failed.
"""
from __future__ import annotations

import argparse
import csv
import errno
import functools
import io
import itertools
import json
import math
import os
import reprlib
import sys
import time
from collections.abc import Iterable, Iterator
from concurrent.futures.process import BrokenProcessPool
from dataclasses import astuple, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .efficiency import (
    _check_time_grid,
    chi_exact,
    efficiency_report,
    kappa_fit,
    time_average,
    time_series,
)
from .ensemble import (
    ESTIMATORS,
    STRUCTURAL_DELTA0,
    EnsembleConfig,
    SweepRow,
    _check_config,
    sweep,
    sweep_counters,
)
from .errors import InvalidParameterError, QtreeError, SizeLimitError
from .graphs import (
    _BLOCK,
    FORMAT_HEADER,
    _edge_list_parts,
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
    Spectrum,
    _check_tol_abs,
    build_hamiltonian,
    custom_potential,
    return_weights,
)

MANIFEST_FORMAT = "qtree-manifest-1"

# the BLAS thread count can change the last digits of eigenvalue-based outputs
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def sweep_csv_text(rows: list[SweepRow]) -> str:
    lines = [FORMAT_HEADER, ",".join(f.name for f in fields(SweepRow))]
    lines += [",".join(map(_cell, astuple(row))) for row in rows]
    return "\n".join(lines) + "\n"


def spectrum_csv_text(sp: Spectrum) -> str:
    lines = [FORMAT_HEADER, "eigenvalue,multiplicity,density"]
    for rep, mult in sp.classes:
        lines.append(f"{rep:.17g},{mult},{mult / sp.n:.17g}")
    return "\n".join(lines) + "\n"


def _dekker_split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi, lo with a = hi + lo exactly and at most 26 significant bits in each (Dekker 1971)."""
    t = a * 134217729.0  # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _decimal17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """k, D for doubles 1e-6 < x < 1e16: x rounded half-to-even to 17 significant digits
    is D * 10^(k - 16), with 10^16 <= D < 10^17.

    The exact product x * 10^(16 - k) is hi + lo by Dekker's two-product
    (Numer. Math. 18 (1971) 224-242); 10^(16 - k) <= 10^22 is an exact
    double.  k is floor(log10 x), corrected where the product falls outside
    [10^16, 10^17).  hi >= 10^16 > 2^53 is an even integer, so hi + rint(lo)
    rounds the product half-to-even, as `%.17g` rounds.  A D of 10^17 would
    carry into k + 1; no double in the range is close enough below a power
    of ten to round up to one, so that is a guard.
    """
    powers = np.array([float(10 ** p) for p in range(23)])
    powers_hi, powers_lo = _dekker_split(powers)
    x_hi, x_lo = _dekker_split(x)

    def product(k):
        p = 16 - k
        hi = x * powers[p]
        return hi, (((x_hi * powers_hi[p] - hi) + x_hi * powers_lo[p] + x_lo * powers_hi[p])
                    + x_lo * powers_lo[p])

    k = np.clip(np.floor(np.log10(x)), -6, 15).astype(np.int64)  # off by one at most
    hi, lo = product(k)
    wrong = ((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).view(np.int8) \
        - ((hi < 1e16) | ((hi == 1e16) & (lo < 0)))
    if wrong.any():
        k += wrong
        hi, lo = product(k)
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = d == 10 ** 17
    return k + carry, np.where(carry, 10 ** 16, d)


def _fmt_rows(columns: tuple[np.ndarray, ...]) -> Iterator[str]:
    """The lines "%.17g,...,%.17g\\n" % row of every row of the columns, byte for byte,
    from NumPy, one block of `graphs._BLOCK` values, _BLOCK // len(columns) rows, at a time.

    Each double 1e-6 < x < 1e16 gets its 17 digits from `_decimal17`.
    Trailing zeros are dropped and the rest laid out as %g does: fixed
    notation for exponents -4..16, d.ddde-0k for k = -5 and -6.  Each
    string goes into one byte buffer, prefilled with '0', at an offset
    from the running sum of lengths; one scatter per digit writes digit j
    of every value, and punctuation comes last.  A value's digits past
    its last significant one are '0' and may land beyond its string, on
    punctuation, written later, or on a later value's digit j' < j,
    written later too, since the digits go from the last to the first.
    Every other value (0, negatives, x <= 1e-6, whose double 1e-6 lies
    below 10^-6, x >= 1e16, subnormals, inf and nan) is written by
    "%.17g" % x itself.
    """
    ranks = np.arange(1, 18, dtype=np.uint8)[:, None]
    rows = _BLOCK // len(columns)
    for first in range(0, len(columns[0]), rows):
        x = np.column_stack([c[first:first + rows] for c in columns]).ravel()
        fast = (x > 1e-6) & (x < 1e16)
        k, d = _decimal17(np.where(fast, x, 1.0))
        digits = np.empty((17, len(x)), np.uint8)  # row j: digit j of each value
        upper = (d // 10 ** 8).astype(np.int32)
        q = (d - upper * 10 ** 8).astype(np.int32)
        for j in range(16, -1, -1):
            if j == 8:
                q = upper
            q10 = q // 10
            digits[j] = q - 10 * q10
            q = q10
        s = ((digits != 0) * ranks).max(axis=0)  # significant digits
        digits += ord("0")
        sci = k < -4
        small = (k < 0) & ~sci  # "0.000ddd"
        lead = np.where(small, -k, 0)  # characters before the first digit, besides the point
        point = np.where(sci | small, 1, k + 1)  # place of the point in the string
        m = point - lead  # digits j >= m come after the point
        has_point = s > m
        length = lead + np.maximum(s, m) + has_point + 4 * sci
        slow = np.flatnonzero(~fast)
        texts = ["%.17g" % v for v in x[slow].tolist()]
        text_len = np.array([len(t) for t in texts], dtype=np.int64)
        length[slow] = text_len
        ends = np.cumsum(length + 1)
        sep = ends - 1
        start = sep - length
        buf = np.full(ends[-1] + 17, ord("0"), np.uint8)  # a value's digits overrun by < 17
        base, pos, after = start + lead, np.empty_like(start), np.empty(len(x), bool)
        for j in range(16, -1, -1):
            np.greater_equal(j, m, out=after)
            np.add(base, j, out=pos)
            pos += after
            buf[pos] = digits[j]
        buf[(start + point)[has_point]] = ord(".")
        exp = sep[sci]
        buf[exp - 4], buf[exp - 3], buf[exp - 1] = ord("e"), ord("-"), ord("0") - k[sci]
        buf[sep] = ord(",")
        buf[sep[len(columns) - 1::len(columns)]] = ord("\n")
        blob = np.frombuffer("".join(texts).encode("ascii"), np.uint8)
        buf[np.repeat(start[slow] - np.cumsum(text_len) + text_len, text_len)
            + np.arange(len(blob))] = blob
        yield buf[:ends[-1]].tobytes().decode("ascii")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _parse_potential(choice: str):
    if choice == "connectivity":
        return CONNECTIVITY
    if choice == "adjacency":
        return ADJACENCY
    if choice.startswith("custom="):
        table, line_of = {}, {}
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
            if f in line_of:
                raise InvalidParameterError(
                    f"potential table lines {line_of[f]} and {lineno} both give functionality {f}"
                )
            table[f], line_of[f] = value, lineno
        return custom_potential(table)
    raise InvalidParameterError(
        f"unknown potential {choice!r}; use connectivity, adjacency or custom=<path>"
    )


def _option(params: dict, key: str, valid, requirement: str):
    """params[key], refused unless valid(value)."""
    value = params[key]
    if not valid(value):
        raise InvalidParameterError(f"--{key.replace('_', '-')} must be {requirement}, got {value}")
    return value


def _seed(params: dict) -> int:
    """The --seed, refused outside [0, 2^64), where it would alias a seed in that range."""
    return _option(params, "seed", lambda v: 0 <= v < 1 << 64, "in [0, 2^64)")


# --- runners (shared by the subcommands and `rerun`) -------------------------

class _Made(NamedTuple):
    """A runner's output texts, one str or its parts, by path, the main one first; the
    time.monotonic() at which each stage ended, by timing key; counters, seed and exit code."""
    outputs: dict[str, str | Iterable[str]]
    stages: dict[str, float]
    counters: dict
    master_seed: int | None = None
    code: int = 0


# each family's generator and the flags it needs, in argument order; sft also takes --f-max
_FAMILIES = {
    "chain": (generate_chain, ("n",)),
    "star": (generate_star, ("n",)),
    "dendrimer": (generate_dendrimer, ("f", "g")),
    "vicsek": (generate_vicsek, ("f", "g")),
    "sft": (generate_sft, ("n", "s")),
}


def run_gen(params: dict) -> _Made:
    family = params["family"]
    generate, flags = _FAMILIES[family]
    missing = [flag for flag in flags if params[flag] is None]
    if missing:
        raise InvalidParameterError(
            f"family {family!r} needs --" + " --".join(missing)
        )
    # not --seed, whose default 0 cannot be told apart from a given 0
    takes = (*flags, "f_max") if family == "sft" else flags
    extra = [f"--{flag.replace('_', '-')}" for flag in ("n", "f", "g", "s", "f_max")
             if params[flag] is not None and flag not in takes]
    if extra:
        raise InvalidParameterError(f"family {family!r} does not take " + " ".join(extra))
    args = [params[flag] for flag in flags]
    seed = None
    if family == "sft":
        seed = _seed(params)
        args += [params["f_max"], seed]
    g = generate(*args)
    generated = time.monotonic()
    return _Made({params["out"]: _edge_list_parts(g)}, {"generate_s": generated}, {"n": g.n}, seed)


def _solve_counters(h, calls: str, sp: Spectrum) -> dict:
    """The count of eigensolves, one per block in h's plan, the largest one's size, and the
    tolerance and binning margins of their spectrum sp."""
    return {calls: len(h.blocks), "largest_solve_dim": max(b - a for a, b, _ in h.blocks),
            "tol_abs": sp.tol_abs, "largest_merged_gap": sp.largest_merged_gap,
            "smallest_separating_gap": sp.smallest_separating_gap}


def run_chi(params: dict) -> _Made:
    _check_tol_abs(params["tol_abs"])  # before the input is read
    g = read_edge_list(params["in"])
    potential = _parse_potential(params["potential"])
    read_done = time.monotonic()
    # the plan refuses an oversize tree before the report's structural pass
    h = build_hamiltonian(g, potential, params["size_limit"])
    plan_done = time.monotonic()
    report = efficiency_report(h, params["tol_abs"])
    report_done = time.monotonic()
    payload = {f.name: getattr(report, f.name) for f in fields(report) if f.name != "spectrum"}
    outputs = {params["out"]: _json_text(payload)}
    if params["spectrum_out"]:
        outputs[params["spectrum_out"]] = spectrum_csv_text(report.spectrum)
    return _Made(outputs, {"read_s": read_done, "plan_s": plan_done, "report_s": report_done},
                 {"n": report.n, "degeneracy_classes": len(report.spectrum.classes),
                  "e_star_binned_multiplicity": report.spectrum.multiplicity_at(report.e_star),
                  **_solve_counters(h, "eigvalsh_calls", report.spectrum)})


def _parse_s(text: str) -> float:
    try:
        s = float(text)
    except ValueError:
        raise InvalidParameterError(f"s grid value {text.strip()!r} is not a number") from None
    if not math.isfinite(s):
        raise InvalidParameterError(f"s grid value {text.strip()!r} is not finite")
    return s


def run_sweep(params: dict) -> _Made:
    n = params["n"]
    s_grid = [_parse_s(v) for v in params["s_grid"].split(",") if v.strip()]
    if not s_grid:
        raise InvalidParameterError("empty s grid")
    # n < 3 is refused below; max() only avoids / 0
    r = max(1, round(1_000_000 / max(n, 1))) if params["paper_r"] else params["r"]
    seed = _seed(params)
    cfgs = [
        EnsembleConfig(
            n=n,
            s=s,
            f_max=params["f_max"],
            r=r,
            master_seed=seed,
            estimator=params["estimator"],
        )
        for s in s_grid
    ]
    # before any row: what the rows share, including n, whose analytic mean loops over n - 1 values
    _check_config(cfgs[0])
    rows = sweep(cfgs, params["workers"])
    swept = time.monotonic()
    failed = all(row.status != "ok" for row in rows)
    return _Made({params["out"]: sweep_csv_text(rows)}, {"sweep_s": swept},
                 sweep_counters(rows, params["workers"]), seed, 5 if failed else 0)


def run_fit_kappa(params: dict) -> _Made:
    x_col, y_col = params["x_column"], params["y_column"]
    offset, x_min, x_max = (
        _option(params, key, lambda v: v is None or -math.inf < v < math.inf, "finite")
        for key in ("offset", "x_min", "x_max"))

    text = Path(params["in"]).read_text(encoding="utf-8")
    data_lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    reader = csv.DictReader(io.StringIO("\n".join(data_lines)))
    rows = None  # until the header is read
    try:
        reader.fieldnames  # reads the header
        rows = []
        for row in reader:
            rows.append(row)
    except csv.Error as exc:  # such as a cell above csv.field_size_limit()
        where = "the header" if rows is None else f"data row {len(rows) + 1}"
        raise InvalidParameterError(f"{params['in']}: {where} is not readable CSV: {exc}") from None
    points = []
    for row in rows:
        if row.get("status") not in (None, "", "ok"):
            continue
        try:
            x = float(row[x_col])
            y = float(row[y_col])
        except (KeyError, TypeError, ValueError):
            continue
        x -= offset
        if params["invert_x"]:
            if x == 0:
                continue
            x = 1.0 / x
        if x <= 0 or y <= 0:
            continue
        if x_min is not None and x < x_min:
            continue
        if x_max is not None and x > x_max:
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
    payload = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "residual": fit.residual,
        "window": [list(p) for p in fit.window],
        "points_used": len(points),
    }
    return _Made({params["out"]: _json_text(payload)}, {"read_s": read_done, "fit_s": fit_done},
                 {"rows": len(rows), "points_used": len(points)})


def run_timeseries(params: dict) -> _Made:
    _check_time_grid(params["t_max"], params["samples"])  # before the input is read
    g = read_edge_list(params["in"])
    potential = _parse_potential(params["potential"])
    read_done = time.monotonic()
    h = build_hamiltonian(g, potential)
    plan_done = time.monotonic()
    rw = return_weights(h)
    weights_done = time.monotonic()
    ts = time_series(rw, params["t_max"], params["samples"])
    series_done = time.monotonic()
    footer = "# time_average_abs_alpha_sq={} time_average_pi_bar={} chi_exact={}\n".format(
        _cell(time_average(ts.abs_alpha_sq, ts.times)),
        _cell(time_average(ts.pi_bar, ts.times)),
        _cell(chi_exact(rw.spectrum)),
    )
    # the body's blocks are formatted as they are written
    text = itertools.chain([f"{FORMAT_HEADER}\nt,abs_alpha_sq,pi_bar\n"],
                           _fmt_rows((ts.times, ts.abs_alpha_sq, ts.pi_bar)), [footer])
    # above 1, the step is too long for the fastest beat of pi_bar, the spectral spread
    spread = rw.spectrum.classes[-1][0] - rw.spectrum.classes[0][0]
    step = float(ts.times[-1]) / (len(ts.times) - 1)
    return _Made({params["out"]: text}, {"read_s": read_done, "plan_s": plan_done,
                                         "weights_s": weights_done, "series_s": series_done},
                 {"n": g.n, **_solve_counters(h, "eigh_calls", rw.spectrum),
                  "weight_columns": len(rw.eigenvalues), "series_blocks": ts.blocks,
                  "nyquist_ratio": step * spread / math.pi})


_RUNNERS = {
    "gen": run_gen,
    "chi": run_chi,
    "sweep": run_sweep,
    "fit-kappa": run_fit_kappa,
    "timeseries": run_timeseries,
}


def _check_paths(params: dict) -> None:
    """Refuse an empty path, and an output path that resolves to another output or to an
    input of the command; then, with the OSError its write would raise after the run, an
    output that is a folder or names none, or one in a missing folder."""
    out, potential = params["out"], params.get("potential") or ""
    table = potential.removeprefix("custom=") if potential.startswith("custom=") else None
    outputs = {"--out": out, "the manifest of --out": out + ".manifest.json",
               "--spectrum-out": params.get("spectrum_out")}
    inputs = {"--in": params.get("in"), "the potential table": table}
    resolved = {}
    for name, path in {**outputs, **inputs}.items():
        if path is None:
            continue
        if not path:  # '' would resolve to the working folder
            raise InvalidParameterError(f"{name} '' is not a file name")
        try:  # a manifest can hold a lone surrogate that no file name decodes to
            path = os.path.realpath(path)
        except UnicodeEncodeError:
            raise InvalidParameterError(f"{name} {path!r} is not a file name") from None
        for other, known in resolved.items():
            if known == path and (name in outputs or other in outputs):
                raise InvalidParameterError(f"{other} and {name} are the same file, {path}")
        resolved[name] = path
    for name in (name for name in outputs if name in resolved):
        if os.path.basename(outputs[name]) in ("", ".", "..") or os.path.isdir(resolved[name]):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), outputs[name])
        try:  # the trailing separator makes a folder that is a file fail too
            os.stat(os.path.join(os.path.dirname(resolved[name]), ""))
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, outputs[name]) from exc


def _run(command: str, params: dict) -> int:
    """Run a command on its params once no output of it would overwrite another or an input,
    then write its outputs in order and <first output>.manifest.json.  write_s runs from
    the end of the last stage, so it covers what the runner formats after that stage."""
    _check_paths(params)
    started = time.monotonic()
    made = _RUNNERS[command](params)
    timings, stage_start = {}, started
    for key, end in made.stages.items():
        timings[key], stage_start = end - stage_start, end
    for path, text in made.outputs.items():
        write_text_atomic(path, text)
    timings["write_s"] = time.monotonic() - stage_start
    manifest = {
        "timings": timings,
        "counters": made.counters,
        "format": MANIFEST_FORMAT,
        "command": command,
        "version": __version__,
        "params": params,
        "master_seed": made.master_seed,
        "outputs": list(made.outputs),
        "duration_seconds": time.monotonic() - started,
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV_VARS},
    }
    write_text_atomic(manifest["outputs"][0] + ".manifest.json", _json_text(manifest))
    if made.code == 5:
        print("qtree: every sweep row failed", file=sys.stderr)
    return made.code


def run_rerun(params: dict) -> int:
    """Run a manifest's command on its stored params, parsed as its command line would be."""
    if not params["manifest"]:  # '' would resolve to the working folder
        raise InvalidParameterError("the manifest '' is not a file name")
    try:
        manifest = json.loads(Path(params["manifest"]).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise InvalidParameterError(f"unreadable manifest: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
        raise InvalidParameterError(f"not a {MANIFEST_FORMAT} manifest")
    command = manifest.get("command")
    if not isinstance(command, str) or command not in _RUNNERS:
        raise InvalidParameterError(f"manifest names unknown command {command!r}")
    if not isinstance(manifest.get("params"), dict):
        raise InvalidParameterError("manifest has no params object")
    stored = dict(manifest["params"])
    for key, value in stored.items():
        if isinstance(value, str) and "\0" in value:  # no command line can carry a NUL
            raise InvalidParameterError(f"manifest param {key!r} holds a NUL character")
    for key in ("out", "workers"):
        if params[key] is not None:
            stored[key] = params[key]
    parser, subcommands = _build_parser()
    actions = [a for a in subcommands[command]._actions if a.dest != "help"]
    argv = [command]
    for action in actions:
        value = stored.get(action.dest)
        if value is True:
            argv.append(action.option_strings[0])
        elif value is not None and value is not False:
            text = value if isinstance(value, str) else repr(value)
            argv.append(f"{action.option_strings[0]}={text}")  # '=' keeps '-1' a value
    parsed = _params_from_args(parser.parse_args(argv))
    for action in actions:
        value, read = stored.get(action.dest), parsed[action.dest]
        # NaN reads back as NaN; false reads back as false, not as a 0 default
        same = (value is read if isinstance(value, bool)
                else value == read or value != value and read != read)
        if value is not None and not same:
            raise InvalidParameterError(
                f"manifest param {action.dest!r} is {reprlib.repr(value)}, "
                f"which reads back as {read!r}")
    return _run(command, parsed)


# --- argument parsing ---------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Refuses bad usage with InvalidParameterError, so main reports it as one line."""

    def error(self, message: str):
        raise InvalidParameterError(message)


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The qtree parser and, by name, the parser of each subcommand; built once per process.

    Parsing leaves a parser unchanged: each call gets a new namespace
    filled from the declared defaults.
    """
    parser = _Parser(
        prog="qtree",
        description="Quantum-walk transport efficiency on tree networks",
    )
    parser.add_argument("--version", action="version", version=f"qtree {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a tree and write its edge list")
    p.add_argument("--family", required=True, choices=list(_FAMILIES))
    p.add_argument("--n", type=int, help="node count (chain, star, sft)")
    p.add_argument("--f", type=int, help="functionality (dendrimer, vicsek)")
    p.add_argument("--g", type=int, help="generation (dendrimer, vicsek)")
    p.add_argument("--s", type=float, help="scaling exponent (sft)")
    p.add_argument("--f-max", type=int, help="functionality cap (sft, default n-1)")
    p.add_argument("--seed", type=int, default=0, help="rng seed (sft)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("chi", help="efficiency report for one edge-list file")
    p.add_argument("--in", required=True)
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
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (default %(default)s); below 1 is refused before any row")
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit-kappa", help="power-law exponent fit on a sweep CSV")
    p.add_argument("--in", required=True)
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
    p.add_argument("--in", required=True)
    p.add_argument("--potential", default="connectivity")
    p.add_argument("--t-max", type=float)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--out", required=True)

    p = sub.add_parser("rerun", help="re-execute a command from its manifest")
    p.add_argument("manifest")
    p.add_argument("--out", help="override the recorded output path")
    p.add_argument("--workers", type=int)
    return parser, sub.choices


def _params_from_args(args: argparse.Namespace) -> dict:
    return {key: value for key, value in vars(args).items() if key != "command"}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser()[0].parse_args(argv)
        params = _params_from_args(args)
        return run_rerun(params) if args.command == "rerun" else _run(args.command, params)
    except SizeLimitError as exc:
        print(f"qtree: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:  # numpy names the allocation; a bare MemoryError has no text
        print(f"qtree: out of memory{f' ({exc})' if str(exc) else ''}", file=sys.stderr)
        return 4
    except BrokenProcessPool:  # a worker ended without raising, as the OOM killer ends one
        print("qtree: a worker process was killed, most likely for lack of memory", file=sys.stderr)
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
