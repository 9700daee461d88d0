"""Every public function and class in ``src/saloha`` is used by the
package, exported in ``saloha.__all__`` or wrapped by the benchmark's
tracer: a helper that only its tests call does not belong in ``src``."""

import ast
import importlib
from pathlib import Path

import saloha

PACKAGE_DIR = Path(saloha.__file__).resolve().parent
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def traced_objects() -> list:
    """What each entry of the tracer's ``TARGETS`` wraps, read from its
    source without importing the bench package."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    (targets,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS"
    ]
    found = []
    for _, owner, attr in ast.literal_eval(targets):
        module_name, _, class_name = owner.partition(":")
        obj = importlib.import_module(module_name)
        found.append(getattr(getattr(obj, class_name) if class_name else obj, attr))
    return found


def test_all_is_the_library_surface():
    assert sorted(saloha.__all__) == [
        "ConfigError", "Engine", "Metrics", "RadioProfile", "ScenarioConfig",
        "Trace", "load_scenario", "run", "time_on_air",
    ]
    assert all(getattr(saloha, name) for name in saloha.__all__)


def test_every_public_definition_is_used_exported_or_traced():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in PACKAGE_DIR.glob("*.py")
        if path.name != "__init__.py"
    }
    # Names and attributes each top-level statement reads; imports and
    # docstrings are not reads.
    reads = [
        (stmt, {getattr(n, "id", "") or getattr(n, "attr", "") for n in ast.walk(stmt)})
        for tree in trees.values()
        for stmt in tree.body
    ]
    traced = {(obj.__module__, obj.__qualname__) for obj in traced_objects()}
    unused = [
        f"{module}.{d.name}"
        for module, tree in trees.items()
        for d in tree.body
        if isinstance(d, (ast.FunctionDef, ast.ClassDef))
        and not d.name.startswith("_")
        and d.name not in saloha.__all__
        and (f"saloha.{module}", d.name) not in traced
        and not any(d.name in names for stmt, names in reads if stmt is not d)
    ]
    assert not unused


def test_one_error_type_for_a_bad_scenario():
    # Every other precondition raises a plain ValueError; SyncError
    # stays with the sync module's contract checks.
    modules = [path.stem for path in PACKAGE_DIR.glob("*.py") if path.stem != "__init__"]
    defined = {
        obj
        for module in modules
        for obj in vars(importlib.import_module(f"saloha.{module}")).values()
        if isinstance(obj, type)
        and issubclass(obj, Exception)
        and obj.__module__.startswith("saloha")
    }
    assert {cls.__qualname__ for cls in defined} == {"ConfigError", "SyncError"}
    assert saloha.ConfigError is saloha.config.ConfigError is saloha.engine.ConfigError
