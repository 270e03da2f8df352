import importlib
import pkgutil
from pathlib import Path

import pytest

import evreflex


def test_project_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module_name, _, attribute = target.partition(":")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attribute)), f"script {name!r} -> {target!r}"


_SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(evreflex.__path__))


def test_every_submodule_is_found():
    assert {"flow", "io_formats", "metrics", "policy", "sim", "tti", "types"} <= set(_SUBMODULES)


@pytest.mark.parametrize("module_name", ["evreflex"] + [f"evreflex.{m}" for m in _SUBMODULES])
def test_every_public_name_resolves(module_name):
    module = importlib.import_module(module_name)
    names = module.__all__
    assert len(names) == len(set(names)), f"{module_name}.__all__ repeats a name"
    missing = [name for name in names if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names {missing}, which it lacks"
