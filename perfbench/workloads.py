"""The benchmark's workloads: generated inputs and the qtree commands run on them.

Each workload is one round of `qtree` command lines, run in-process
through `qtree.cli.main`.  The three workloads follow the three code
paths that produce the paper's quantities, so a change to one layer has
one workload that exercises it and at least one that does not.
"""
from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass

SWEEP_N = 100
SWEEP_S_GRID = ("2.2", "2.6", "3.0", "4.0", "6.0")
SWEEP_R = round(1_000_000 / SWEEP_N)  # what --paper-r selects at n = 100
TIMESERIES_SAMPLES = 10_000


@dataclass(frozen=True)
class Input:
    """Generated trees of one kind: `qtree gen` arguments and known exact facts.

    A random family has `variants` trees with seeds derived from the
    workload seed, and a command's k-th execution reads variant k mod
    `variants`: a run's median then does not rest on one tree, whose
    degeneracies change the eigensolver's and the oracle's cost.
    """

    name: str
    gen_args: Callable[[int], tuple[str, ...]]  # variant -> arguments
    e_star_multiplicity: int | None = None  # known exact value, when there is one
    variants: int = 1

    def variant_name(self, k: int) -> str:
        return f"{self.name}.{k % self.variants}"


@dataclass(frozen=True)
class Command:
    """One timed `qtree` command.

    `label` is the name the benchmark reports its wall time under
    (`<label>_s`).  `kind` selects the output check.  `repeat` gives a
    short command more samples per round than a long one.
    """

    label: str
    kind: str  # "chi", "sweep" or "timeseries"
    input: Input | None
    spectrum: bool = False
    repeat: int = 1  # executions per untraced round; more for short commands
    s: str = ""  # the sweep's scaling exponent


@dataclass(frozen=True)
class Workload:
    """`calibration` names the kernel that scales this workload's times (run.py)."""

    name: str
    why: str
    commands: tuple[Command, ...]
    calibration: str

    def inputs(self) -> dict[str, tuple[str, ...]]:
        """`qtree gen` arguments of every input tree, by variant name."""
        out: dict[str, tuple[str, ...]] = {}
        for cmd in self.commands:
            if cmd.input is not None:
                for k in range(cmd.input.variants):
                    out[cmd.input.variant_name(k)] = cmd.input.gen_args(k)
        return out


def derived_seed(seed: int, purpose: str) -> int:
    """A 31-bit seed for one purpose, fixed by the workload seed."""
    digest = hashlib.sha256(f"{seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _sft(name: str, n: int, seed: int, variants: int) -> Input:
    return Input(name, lambda k: ("--family", "sft", "--n", str(n), "--s", "2.5",
                                  "--seed", str(derived_seed(seed, f"{name}.{k}"))),
                 variants=variants)


# dendrimer(3,8): n = 766, no seed; its exact E* multiplicity is 204, of
# which 192 are leaf-pair states.
D38 = Input("d38", lambda k: ("--family", "dendrimer", "--f", "3", "--g", "8"), 204)


def workload(name: str, seed: int) -> Workload:
    """The named workload with its SFT seeds and sweep seed derived from `seed`."""
    sft1k = _sft("sft1k", 1000, seed, variants=4)
    sft4k = _sft("sft4k", 4000, seed, variants=3)
    if name == "chi":
        return Workload(
            name,
            "Spectral path: dense eigensolve, degeneracy binning and the exact "
            "rational E* oracle at n = 766, 1000 and 4000; never enters ensemble.",
            (
                Command("chi_d38", "chi", D38, spectrum=True, repeat=4),
                Command("chi_sft1k", "chi", sft1k, spectrum=True, repeat=4),
                Command("chi_sft4k", "chi", sft4k),
            ),
            "eigh",
        )
    if name == "sweep":
        return Workload(
            name,
            "Structural path: 50 000 n = 100 scale-free-tree realizations with "
            "structural counts only; never enters spectral.",
            # one command per s value: the same realizations as one sweep over
            # the grid, in ~2 s pieces that calibration brackets closely
            tuple(Command(f"sweep_s{s.replace('.', '')}", "sweep", None, s=s)
                  for s in SWEEP_S_GRID),
            "phase",
        )
    if name == "timeseries":
        return Workload(
            name,
            "Eigenvector path: full eigenbasis and return-probability series over "
            "10 000 times, which the eigenvalue-only chi path does not need.",
            (
                Command("timeseries_d38", "timeseries", D38),
                Command("timeseries_sft1k", "timeseries", sft1k),
            ),
            "phase",
        )
    raise ValueError(f"unknown workload {name!r}")


WORKLOAD_NAMES = ("chi", "sweep", "timeseries")


def command_argv(cmd: Command, seed: int, inputs: dict[str, str], out: str,
                 execution: int = 0) -> list[str]:
    """The `qtree` argument list for a command's `execution`-th run, writing to `out`.

    `inputs` maps variant names to edge-list paths.
    """
    if cmd.kind == "chi":
        argv = ["chi", "--in", inputs[cmd.input.variant_name(execution)], "--out", out]
        if cmd.spectrum:
            argv += ["--spectrum-out", spectrum_path(out)]
        return argv
    if cmd.kind == "timeseries":
        return ["timeseries", "--in", inputs[cmd.input.variant_name(execution)],
                "--samples", str(TIMESERIES_SAMPLES), "--out", out]
    if cmd.kind == "sweep":
        return ["sweep", "--n", str(SWEEP_N), "--s-grid", cmd.s, "--paper-r",
                "--workers", "1", "--seed", str(derived_seed(seed, "sweep")), "--out", out]
    raise ValueError(f"unknown command kind {cmd.kind!r}")


def spectrum_path(out: str) -> str:
    return out + ".spectrum.csv"
