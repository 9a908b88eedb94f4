"""The syntax of the declared Python floor."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_source_file_parses_at_the_declared_python_floor():
    # only the syntax: the floor's interpreter may lack NumPy, so the suite cannot run on it
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    minor = int(re.search(r'^requires-python = ">=3\.(\d+)"$', pyproject, re.M).group(1))
    sources = sorted((ROOT / "src" / "qtree").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, minor))
