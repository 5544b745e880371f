"""Packaging: every third-party module the package imports is declared, and
every name a package exports exists."""

import ast
import dataclasses
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import heal
from heal.eda import RewardRecord
from heal.selection import SelectionScore
from heal.trace_io import MetricsRow

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


def _self_attributes(tree):
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self"}


def test_each_setting_rule_is_stated_once():
    # TrainConfig.validate calls the check of the function that takes each of
    # these settings; a comparison (or math test) of its own would state the
    # rule a second time.
    delegated = {"alpha", "gamma", "k_frac", "eps_low", "eps_high", "beta",
                 "temperature", "context_window", "max_len"}
    # These floors are one table, checked in one loop: a comparison of its own
    # outside a mode's rule would state a floor a second time.
    floored = {"batch_size", "steps", "seed", "log_every", "eda_start_step",
               "micro_chunks", "eval_prompts"}
    training = _PACKAGE / "simulator" / "training.py"
    tree = ast.parse(training.read_text(encoding="utf-8"), filename=str(training))
    validate = next(node for cls in tree.body if isinstance(cls, ast.ClassDef)
                    and cls.name == "TrainConfig" for node in cls.body
                    if isinstance(node, ast.FunctionDef) and node.name == "validate")
    tests = [node for node in ast.walk(validate) if isinstance(node, ast.Compare)
             or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "math"]
    compared = set().union(*map(_self_attributes, tests))
    assert "mode" in compared, "no comparison found in validate: the scan is broken"
    assert sorted(compared & delegated) == []
    mode_rules = {id(node) for rule in ast.walk(validate) if isinstance(rule, ast.If)
                  and "mode" in _self_attributes(rule.test) for node in ast.walk(rule.test)}
    assert "batch_size" in compared, "no mode rule on batch_size found: the scan is broken"
    outside = set().union(*(_self_attributes(t) for t in tests if id(t) not in mode_rules))
    assert sorted(outside & floored) == []
    # The suite's caps are stated where the suite is made, and nowhere else.
    for text in ("n_target must be <=", "n_general must be <="):
        modules = [path.relative_to(_PACKAGE.parent).as_posix()
                   for path in sorted(_PACKAGE.rglob("*.py"))
                   if text in path.read_text(encoding="utf-8")]
        assert modules == ["heal/simulator/tasks.py"], text


def test_each_trajectory_rule_is_stated_once():
    # The Trajectory constructor states what a trajectory's values may be; the
    # trace reader checks presence, JSON kinds and the entries of the real
    # lists (finite reals). A comparison in heal/trace_io.py that names a
    # channel, the index, the verdict or the domain would state a value rule a
    # second time. ``is`` tests look at presence, not at a value, and the file
    # rules of _checked_trajectories compare one line with another.
    values = {"domain", "DOMAINS", "index", "trajectory_index", "entropies", "step_entropies",
              "logprobs", "step_logprobs", "tokens", "correct"}
    trace_io = _PACKAGE / "trace_io.py"
    tree = ast.parse(trace_io.read_text(encoding="utf-8"), filename=str(trace_io))
    file_rules = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                      and node.name == "_checked_trajectories")
    exempt = {id(node) for node in ast.walk(file_rules)}
    named = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Compare) and id(node) not in exempt
                and not all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)):
            for part in ast.walk(node):
                if isinstance(part, ast.Name):
                    named.add(part.id)
                elif isinstance(part, ast.Attribute):
                    named.add(part.attr)
                elif isinstance(part, ast.Constant) and isinstance(part.value, str):
                    named.add(part.value)
    assert "step" in named, "no metrics comparison found: the scan is broken"
    assert sorted(named & values) == []


def _called_name(node):
    return getattr(node.func, "id", getattr(node.func, "attr", None))


def _int64_conversions(path):
    """Lines of ``path`` that call ``_decoded_array`` into int64."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _called_name(node) == "_decoded_array"
            and any(getattr(a, "attr", None) == "int64"
                    for a in node.args + [k.value for k in node.keywords])]


def test_each_id_conversion_is_stated_once():
    # heal.rollouts converts the token and context-id channels to int64
    # arrays, by one rule, when a Trajectory is made. An int64 conversion in
    # the trace reader or the gradient step would state that rule a second time.
    assert _int64_conversions(_PACKAGE / "rollouts.py"), "the scan is broken"
    for module in ("trace_io.py", "simulator/training.py"):
        assert _int64_conversions(_PACKAGE / module) == [], module


def test_each_list_conversion_is_stated_once():
    # heal.rollouts._decoded_array turns a list into an array with one
    # struct.pack_into call. A second packing call, or array.array (which
    # reads bytes as machine words), would convert by a second rule.
    importers, packers = [], []
    for path in sorted(_PACKAGE.rglob("*.py")):
        module = path.relative_to(_PACKAGE.parent).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        # ast.walk reaches an inner function after its outer one, so the
        # innermost function that holds a call names it.
        owner = {id(node): function.name for function in ast.walk(tree)
                 if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(function)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                importers += [module for alias in node.names
                              if alias.name.split(".")[0] == "array"]
            elif isinstance(node, ast.ImportFrom) and node.module == "array":
                importers.append(module)
            elif isinstance(node, ast.Call) and _called_name(node) == "pack_into":
                packers.append(f"{module}:{owner.get(id(node), '<module>')}")
    assert importers == []
    assert packers == ["heal/rollouts.py:_decoded_array"]


def _string_literals(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_each_output_line_is_stated_once():
    # A reward, select or metrics line is its record's fields, written from
    # the record. A field named in a string in the CLI or the analysis would
    # state a line a second time. The ids shared with other tables (passk's
    # header has prompt_id) are exempt.
    fields = {f.name for record in (RewardRecord, SelectionScore, MetricsRow)
              for f in dataclasses.fields(record)}
    fields -= {"prompt_id", "trajectory_id", "domain", "step"}
    assert "reward_rate" in _string_literals(_PACKAGE / "trace_io.py"), "the scan is broken"
    for module in ("cli.py", "analysis.py"):
        assert sorted(_string_literals(_PACKAGE / module) & fields) == [], module
