"""qtree benchmark: times `qtree` commands in-process and checks their outputs.

Run from the repository root:

    python3 perfbench/run.py --workload chi --seed 1 --seconds 40 --trace 0

`--workload` is chi, sweep or timeseries (see workloads.py and NOTES.md).
With `--trace 0` the commands run untraced and the last line of standard
output is a JSON object with the end-to-end metrics; with `--trace 1`
untraced and traced passes alternate and it carries the per-layer
metrics of the traced passes.  Inputs are generated from
`--seed`; every command's output is checked.  The full record and the
spans are written under perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

import checks
import tracing
from workloads import (
    SWEEP_R,
    WORKLOAD_NAMES,
    Command,
    Workload,
    command_argv,
    spectrum_path,
    workload,
)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WARMUP_N = 1000  # the first eigh at n = 766-1000 in a process can cost ~0.7-1 s extra
MIN_ROUNDS = 2  # sweep CSVs are compared across rounds; a traced run needs one of each kind
SETUP_PROBES = 2  # fresh processes that repeat set-up, besides the measuring process
# Seconds each calibration kernel takes on the reference machine (NOTES.md).
CALIBRATION_NOMINAL_S = {"eigh": 0.13, "phase": 0.1}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


# --- set-up ------------------------------------------------------------------

def setup(wl: Workload, work: Path):
    """Import qtree, warm BLAS up and generate the inputs.

    Returns (qtree main, edge-list path by input name, calibration kernel, seconds).
    """
    started = perf_counter()
    import numpy as np
    import qtree
    from qtree.cli import main as qtree_main

    if not Path(qtree.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"qtree imported from {qtree.__file__}, not from {ROOT / 'src'}")
    a = np.random.default_rng(0).standard_normal((WARMUP_N, WARMUP_N))
    a += a.T
    np.linalg.eigh(a)
    inputs = {}
    for name, gen_args in wl.inputs().items():
        path = str(work / f"{name}.edges")
        if qtree_main(["gen", *gen_args, "--out", path]) != 0:
            raise SystemExit(f"input generation failed for {name}")
        inputs[name] = path

    # Calibration kernels, each like the dominant operation of the workloads
    # that use it: "eigh" is the dense symmetric eigensolve of the warm-up
    # matrix; "phase" is |exp(-i t w^T) V^T|^2 averaged over one timeseries
    # chunk (1024 times, n = 766), which also tracked the sweep best.
    rng = np.random.default_rng(1)
    times = np.linspace(0.0, 100.0, 1024)
    freqs, weights = rng.standard_normal(766), rng.standard_normal((766, 766))
    kernels = {
        "eigh": lambda: np.linalg.eigh(a),
        "phase": lambda: np.mean(
            np.abs(np.exp(-1j * np.outer(times, freqs)) @ weights.T) ** 2, axis=1),
    }
    kernel, nominal = kernels[wl.calibration], CALIBRATION_NOMINAL_S[wl.calibration]

    def calibrate() -> float:
        """The kernel's time now, in units of its time on the reference machine."""
        t0 = perf_counter()
        kernel()
        return (perf_counter() - t0) / nominal

    calibrate()
    return qtree_main, inputs, calibrate, perf_counter() - started


def probe_setup(wl_name: str, seed: int) -> float:
    """Set-up time measured in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", wl_name,
         "--seed", str(seed), "--seconds", "1", "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def self_check(qtree_main, work: Path) -> list[str]:
    """The chi check passes a real report and fails one whose E* multiplicity is off by one."""
    edges, out = str(work / "selfcheck.edges"), str(work / "selfcheck.json")
    if qtree_main(["gen", "--family", "dendrimer", "--f", "3", "--g", "3", "--out", edges]) != 0 \
            or qtree_main(["chi", "--in", edges, "--out", out,
                           "--spectrum-out", spectrum_path(out)]) != 0:
        return ["self-check commands failed"]
    report = json.loads(Path(out).read_text(encoding="utf-8"))
    spectrum = Path(spectrum_path(out)).read_text(encoding="utf-8")
    problems = [f"self-check: real report failed: {f}" for f in checks.check_chi(report, spectrum)]
    corrupted = dict(report, multiplicity_e_star_exact=report["multiplicity_e_star_exact"] + 1)
    if not checks.check_chi(corrupted, spectrum):
        problems.append("self-check: report with E* multiplicity off by one passed the check")
    return problems


# --- running and checking commands --------------------------------------------

class Runner:
    """Runs rounds of a workload's commands, timing each and checking its output."""

    def __init__(self, wl: Workload, seed: int, qtree_main, inputs: dict[str, str], work: Path):
        self.wl, self.seed, self.main, self.inputs, self.work = wl, seed, qtree_main, inputs, work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._first_sweep: dict[str, bytes] = {}
        self._executions = {c.label: 0 for c in wl.commands}

    def run_round(self, calibrate) -> list[tuple[str, float, float]]:
        """One untraced round: each command `cmd.repeat` times, interleaved.

        The calibration kernel is timed before every command and after the
        last.  Returns (label, wall s, calibrated s) per execution, where the
        calibrated time is the wall time divided by the mean of the two
        relative kernel times around it.
        """
        walls, cals = [], []
        for index in range(max(c.repeat for c in self.wl.commands)):
            for cmd in self.wl.commands:
                if index < cmd.repeat:
                    cals.append(calibrate())
                    walls.append((cmd.label, self._execute(cmd, self.main,
                                                           self._executions[cmd.label])))
                    self._executions[cmd.label] += 1
        cals.append(calibrate())
        return [(label, wall, wall * 2 / (cals[i] + cals[i + 1]))
                for i, (label, wall) in enumerate(walls)]

    def run_pass(self, entry) -> tuple[dict[str, float], int]:
        """Each command once through `entry`, on the first tree of each input,
        so that counts repeat exactly.  Returns (wall s per label, bytes written)."""
        walls = {cmd.label: self._execute(cmd, entry, 0) for cmd in self.wl.commands}
        written = sum(os.path.getsize(p) for cmd in self.wl.commands
                      for p in _written(cmd, self._out(cmd)) if os.path.exists(p))
        return walls, written

    def _out(self, cmd: Command) -> str:
        return str(self.work / f"{cmd.label}.out")

    def _execute(self, cmd: Command, entry, execution: int) -> float:
        """Run and check one command; returns its wall time."""
        out = self._out(cmd)
        argv = command_argv(cmd, self.seed, self.inputs, out, execution)
        started = perf_counter()
        try:
            rc = entry(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed command; keep measuring the rest
            traceback.print_exc()
            rc = "exception"
        wall = perf_counter() - started
        self.attempted += 1
        failures = self._check(cmd, rc, out)
        if failures:
            self.failed += 1
            self.failures += [f"{cmd.label}: {f}" for f in failures]
        return wall

    def _check(self, cmd: Command, rc, out: str) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            text = Path(out).read_text(encoding="utf-8")
            if cmd.kind == "chi":
                spectrum = (Path(spectrum_path(out)).read_text(encoding="utf-8")
                            if cmd.spectrum else None)
                return checks.check_chi(json.loads(text), spectrum,
                                        cmd.input.e_star_multiplicity)
            if cmd.kind == "timeseries":
                return checks.check_timeseries(text)
            failures = checks.check_sweep(text, 1, SWEEP_R)
            if self._first_sweep.setdefault(cmd.label, text.encode()) != text.encode():
                failures.append("sweep CSV differs from the first round's")
            return failures
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"output unreadable: {exc!r}"]


def _written(cmd: Command, out: str) -> list[str]:
    paths = [out, out + ".manifest.json"]
    return paths + [spectrum_path(out)] if cmd.spectrum else paths


def measure(runner: Runner, seconds: float, calibrate) -> tuple[dict, dict]:
    """Untraced rounds until `seconds` would be exceeded (at least MIN_ROUNDS).

    Returns (wall s per label, calibrated s per label).
    """
    walls = {c.label: [] for c in runner.wl.commands}
    calibrated = {c.label: [] for c in runner.wl.commands}
    costs = []
    started = perf_counter()
    while len(costs) < MIN_ROUNDS or perf_counter() - started + statistics.mean(costs) <= seconds:
        round_started = perf_counter()
        for label, wall, cal in runner.run_round(calibrate):
            walls[label].append(wall)
            calibrated[label].append(cal)
        costs.append(perf_counter() - round_started)
    return walls, calibrated


def measure_traced(runner: Runner, seconds: float, spans_path: Path):
    """Untraced and traced passes in turn until `seconds` would be exceeded.

    Returns (wall s per label from untraced passes, wall s of each traced pass,
    per-layer metrics of each traced pass).  Spans go to `spans_path`.
    """
    walls = {c.label: [] for c in runner.wl.commands}
    traced_walls, layer_passes, costs = [], [], []
    tracer = tracing.Tracer()
    traced_main = tracer.wrap("cli.main", runner.main)
    started = perf_counter()
    with spans_path.open("w", encoding="utf-8") as spans_fh:
        while len(costs) < MIN_ROUNDS or perf_counter() - started + statistics.mean(costs) <= seconds:
            pass_started = perf_counter()
            if len(costs) % 2 == 0:
                for label, wall in runner.run_pass(runner.main)[0].items():
                    walls[label].append(wall)
            else:
                tracer.clear()
                with tracing.installed(tracer):
                    pass_walls, written = runner.run_pass(traced_main)
                traced_walls.append(sum(pass_walls.values()))
                metrics = tracing.pass_metrics(tracer.spans, len(pass_walls))
                metrics["cli.output_bytes"] = written
                layer_passes.append(metrics)
                tracing.write_spans(tracer.spans, spans_fh, len(costs))
            costs.append(perf_counter() - pass_started)
    return walls, traced_walls, layer_passes


# --- reporting -----------------------------------------------------------------

def timing_summary(samples: list[float]) -> dict:
    """Median and sample count; the highest of p90/p99 that has >= 10 samples beyond it."""
    summary = {"median": statistics.median(samples), "samples": len(samples),
               "values": samples}
    for q in (99, 90):
        if len(samples) * (100 - q) / 100 >= 10:
            summary[f"p{q}"] = statistics.quantiles(samples, n=100)[q - 1]
            break
    return summary


def command_metrics(samples: dict[str, list[float]], suffix: str) -> dict[str, dict]:
    """Time of each command under its own name (`<label><suffix>`)."""
    out = {f"{label}{suffix}": dict(timing_summary(v), unit="s") for label, v in samples.items()}
    sweeps = [m for name, m in out.items() if name.startswith("sweep_")]
    if sweeps:  # the whole grid: the per-s medians added up
        total = sum(m["median"] for m in sweeps)
        count = min(m["samples"] for m in sweeps)
        out[f"sweep{suffix}"] = {"median": total, "samples": count, "unit": "s"}
        out[f"sweep_realizations_per{suffix}"] = {
            "median": SWEEP_R * len(sweeps) / total, "samples": count, "unit": "1/s"}
    return out


def pass_time(wl: Workload, per_command: dict[str, dict], suffix: str) -> float:
    """One pass over the workload's commands, each at its median."""
    return sum(per_command[f"{c.label}{suffix}"]["median"] for c in wl.commands)


def geomean_time(wl: Workload, per_command: dict[str, dict], suffix: str) -> float:
    """Geometric mean over the workload's commands of each one's median."""
    return math.exp(statistics.fmean(
        math.log(per_command[f"{c.label}{suffix}"]["median"]) for c in wl.commands))


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return None


def _git_commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head.strip() if head else None
    ref = head[5:].strip()
    loose = _read(ROOT / ".git" / ref)
    if loose:
        return loose.strip()
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(blas_threads: int) -> dict:
    cpu_model = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and kind and size and kind.strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip()

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "cpu_model": cpu_model,
        "caches": caches,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qtree" / "cli.py").is_file():
        print(f"qtree sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    blas_threads = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(blas_threads)
    sys.path.insert(0, str(ROOT / "src"))
    wl = workload(args.workload, args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{wl.name}-", dir=OUT))
    try:
        qtree_main, inputs, calibrate, setup_s = setup(wl, work)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        problems = self_check(qtree_main, work)
        runner = Runner(wl, args.seed, qtree_main, inputs, work)
        if args.trace:
            walls, traced_walls, layer_passes = measure_traced(
                runner, args.seconds, OUT / f"{wl.name}.spans.jsonl")
        else:
            walls, calibrated = measure(runner, args.seconds, calibrate)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setups = [setup_s]
        if not args.trace:
            setups += [probe_setup(wl.name, args.seed) for _ in range(SETUP_PROBES)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    per_command = command_metrics(walls, "_s")
    round_s = pass_time(wl, per_command, "_s")
    wall_summary = {
        "round_s": {"value": round_s, "unit": "s"},
        "cmd_geomean_s": {"value": geomean_time(wl, per_command, "_s"), "unit": "s"},
        "ops_failed_ratio": {"value": runner.failed / runner.attempted, "unit": "ratio"},
    }
    if args.trace:
        layers = tracing.median_metrics(layer_passes)
        layers["trace_overhead_ratio"] = statistics.median(traced_walls) / round_s
        metrics = {k: {"value": v, "unit": tracing.LAYER_UNITS[k]} for k, v in layers.items()}
        wall_summary["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        details = {"traced_pass_walls_s": traced_walls}
    else:
        per_command_cal = command_metrics(calibrated, "_cal_s")
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "round_cal_s": {"value": pass_time(wl, per_command_cal, "_cal_s"), "unit": "s"},
            "cmd_geomean_cal_s": {"value": geomean_time(wl, per_command_cal, "_cal_s"),
                                  "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ops_ok_ratio": {"value": 1 - runner.failed / runner.attempted, "unit": "ratio"},
        }
        details = {"calibrated": per_command_cal, "setup_samples_s": setups}
    correct = runner.failed == 0 and not problems

    record = {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": environment(blas_threads),
        "inputs": {name: ["gen", *gen_args] for name, gen_args in wl.inputs().items()},
        "commands": per_command, **details,
        "ops_attempted": runner.attempted, "ops_failed": runner.failed,
        "failures": problems + runner.failures, "wall": wall_summary, "metrics": metrics,
    }
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload={wl.name} seed={args.seed} trace={args.trace}")
    print(f"why: {wl.why}")
    print("environment: " + json.dumps(record["environment"]))
    for name, m in per_command.items():
        print(f"{name:44s} {m['median']:12.6g} {m['unit']:5s} median of {m['samples']}")
    for name, m in {**wall_summary, **metrics}.items():
        print(f"{name:44s} {m['value']:12.6g} {m['unit']}")
    print(f"{'ops':44s} {runner.failed} failed of {runner.attempted}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
