"""The wheel's package data: every `package-data` glob in pyproject.toml
matches a file under src/ruledcurves/data, and every file there matches
a glob, so a stale glob and a data file a wheel would leave out both
fail."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ruledcurves"


def test_package_data_globs_match_the_data_files():
    tomllib = pytest.importorskip("tomllib")  # the standard library from Python 3.11
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    globs = config["tool"]["setuptools"]["package-data"]["ruledcurves"]
    shipped = set()
    for glob in globs:
        matched = {path for path in PACKAGE.glob(glob) if path.is_file()}
        assert matched, f"package-data glob {glob!r} matches no file"
        shipped |= matched
    files = {path for path in (PACKAGE / "data").rglob("*") if path.is_file()}
    assert files and files <= shipped, sorted(map(str, files - shipped))
