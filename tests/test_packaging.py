"""Packaging: every third-party module the package imports is declared, and
every name a package exports exists."""

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import heal

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

_PACKAGE = Path(heal.__file__).resolve().parent
_PYPROJECT = _PACKAGE.parents[1] / "pyproject.toml"


def _imported_top_level_modules():
    names = set()
    for path in _PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_every_third_party_import_is_a_declared_dependency():
    # Distribution names are compared with import names, so a dependency
    # whose two names differ would need a mapping here.
    with open(_PYPROJECT, "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.split(r"[\s<>=!~;\[]", r, maxsplit=1)[0].lower().replace("-", "_")
                for r in requirements}
    third_party = _imported_top_level_modules() - set(sys.stdlib_module_names) - {"heal"}
    assert third_party, "no third-party import found: the scan is broken"
    assert sorted(third_party - declared) == []


def test_every_package_export_resolves():
    # A stale ``__all__`` entry would break ``from heal.<package> import *``.
    packages = [heal] + [importlib.import_module(info.name)
                         for info in pkgutil.walk_packages(heal.__path__, "heal.")
                         if info.ispkg]
    exported = {p.__name__: p for p in packages if hasattr(p, "__all__")}
    assert "heal.simulator" in exported, "no package __all__ found: the scan is broken"
    for name, package in exported.items():
        assert [n for n in package.__all__ if not hasattr(package, n)] == [], name


def test_only_heal_rollouts_reads_a_correctness_verdict():
    # Every other module reads a trajectory's verdict through heal.rollouts.verdict,
    # which refuses a missing one; a direct ``.correct`` read would skip that rule.
    readers = []
    for path in sorted(_PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        readers += [f"{path.relative_to(_PACKAGE.parent)}:{node.lineno}"
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "correct"
                    and isinstance(node.ctx, ast.Load)]
    assert any(r.startswith("heal/rollouts.py:") for r in readers), "the scan is broken"
    assert [r for r in readers if not r.startswith("heal/rollouts.py:")] == []


def test_each_setting_rule_is_stated_once():
    # TrainConfig.validate calls the check of the function that takes each of
    # these settings; a comparison (or math test) of its own would state the
    # rule a second time.
    delegated = {"alpha", "gamma", "k_frac", "eps_low", "eps_high", "beta",
                 "temperature", "context_window", "max_len"}
    training = _PACKAGE / "simulator" / "training.py"
    tree = ast.parse(training.read_text(encoding="utf-8"), filename=str(training))
    validate = next(node for cls in tree.body if isinstance(cls, ast.ClassDef)
                    and cls.name == "TrainConfig" for node in cls.body
                    if isinstance(node, ast.FunctionDef) and node.name == "validate")
    tests = [node for node in ast.walk(validate) if isinstance(node, ast.Compare)
             or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "math"]
    compared = {node.attr for test in tests for node in ast.walk(test)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "self"}
    assert "mode" in compared, "no comparison found in validate: the scan is broken"
    assert sorted(compared & delegated) == []
    # The suite's caps are stated where the suite is made, and nowhere else.
    for text in ("n_target must be <=", "n_general must be <="):
        modules = [path.relative_to(_PACKAGE.parent).as_posix()
                   for path in sorted(_PACKAGE.rglob("*.py"))
                   if text in path.read_text(encoding="utf-8")]
        assert modules == ["heal/simulator/tasks.py"], text
