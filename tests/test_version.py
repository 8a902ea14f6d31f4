"""The package version agrees with the packaging metadata."""

import pathlib
import re

import homotopes


def test_version_matches_pyproject():
    text = (pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"', text, re.M).group(1) == homotopes.__version__
