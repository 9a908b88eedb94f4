"""Output checks that hold for every seed.

Each check takes what a command wrote and returns a list of failure
messages; an empty list means the output is correct.  Files are parsed
by column and key names, so added columns or keys do not break a check.
"""
from __future__ import annotations

import csv
import io
import math

TIMESERIES_CHI_REL_TOL = 0.01  # measured gaps: 0.15% (SFT n = 1000), 0.01% (dendrimer(3,8))


def _data_rows(text: str) -> list[dict[str, str]]:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def check_chi(report: dict, spectrum_csv: str | None = None,
              expect_multiplicity: int | None = None) -> list[str]:
    """Report invariants, and chi against the exported spectrum when there is one."""
    failures = []
    n = report["n"]
    mult = report["multiplicity_e_star_exact"]
    binned = round(report["rho_star_exact"] * n)
    if mult != binned:
        failures.append(f"exact E* multiplicity {mult} != binned {binned}")
    if mult is None or mult < report["leaf_pair_state_count"]:
        failures.append(
            f"exact E* multiplicity {mult} < leaf-pair count {report['leaf_pair_state_count']}"
        )
    if expect_multiplicity is not None and mult != expect_multiplicity:
        failures.append(f"exact E* multiplicity {mult} != known {expect_multiplicity}")
    if not report["chi_exact"] >= report["chi_spectral_lb"]:
        failures.append(f"chi {report['chi_exact']} < spectral bound {report['chi_spectral_lb']}")
    if spectrum_csv is not None:
        mults = [int(row["multiplicity"]) for row in _data_rows(spectrum_csv)]
        if sum(mults) != n:
            failures.append(f"spectrum multiplicities sum to {sum(mults)}, not n = {n}")
        chi = math.fsum((m / n) ** 2 for m in mults)
        if not math.isclose(chi, report["chi_exact"], rel_tol=1e-12, abs_tol=0.0):
            failures.append(f"chi {report['chi_exact']} != {chi} from the spectrum CSV")
    return failures


def check_timeseries(csv_text: str) -> list[str]:
    """The time average of |alpha|^2 lies within 1% of chi."""
    footer = csv_text.rstrip("\n").rsplit("\n", 1)[-1]
    values = dict(item.split("=", 1) for item in footer.lstrip("# ").split())
    try:
        average = float(values["time_average_abs_alpha_sq"])
        chi = float(values["chi_exact"])
    except (KeyError, ValueError):
        return [f"timeseries footer unreadable: {footer!r}"]
    if not abs(average - chi) <= TIMESERIES_CHI_REL_TOL * chi:
        return [f"time average {average} is not within 1% of chi {chi}"]
    return []


def check_sweep(csv_text: str, expected_rows: int, expected_r: int) -> list[str]:
    """Every row is ok with the expected realization count."""
    rows = _data_rows(csv_text)
    failures = []
    if len(rows) != expected_rows:
        failures.append(f"sweep has {len(rows)} rows, expected {expected_rows}")
    for row in rows:
        if row.get("status") != "ok":
            failures.append(f"sweep row s={row.get('s')} has status {row.get('status')!r}")
        if row.get("r") != str(expected_r):
            failures.append(f"sweep row s={row.get('s')} has r={row.get('r')}, expected {expected_r}")
    return failures
