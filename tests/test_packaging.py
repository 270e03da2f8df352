import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")


def test_project_scripts_resolve():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module_name, _, attribute = target.partition(":")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attribute)), f"script {name!r} -> {target!r}"
