"""Test-session set-up shared by every test module."""
import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def pytest_configure(config):
    # the CLI tests start `python -m qtree` in child interpreters: they
    # import the package from this checkout, as the tests themselves do
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
