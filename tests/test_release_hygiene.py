"""Release hygiene: public API documentation and import health.

Cheap meta-tests that keep the library adoptable: every module and every
public class/function carries a docstring, the package imports cleanly
from a cold interpreter, the declared exports exist, and every public
class/function, and every public method of a public class, is used by
some code.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import repro

REPO = Path(__file__).resolve().parent.parent

#: Public definitions (``name`` or ``Class.method``) with no caller in the
#: package, its examples or ``perf/``, kept on purpose.
ORPHAN_EXEMPT = {
    # The event-schema oracle: the telemetry tests check logs against it.
    ("core/telemetry.py", "validate_event"),
    # A column type: the schema and page-layout tests build schemas with it.
    ("db/types.py", "int32"),
}

PACKAGES = [
    "repro",
    "repro.simulator",
    "repro.db",
    "repro.db.exec",
    "repro.workloads",
    "repro.core",
    "repro.staged",
    "repro.model",
    "repro.explore",
    "repro.serve",
]


def walk_modules():
    seen = []
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        seen.append(pkg)
        for info in pkgutil.iter_modules(pkg.__path__,
                                         prefix=pkg_name + "."):
            if not info.ispkg:
                seen.append(importlib.import_module(info.name))
    return seen


class TestHygiene:
    def test_every_module_has_a_docstring(self):
        missing = [m.__name__ for m in walk_modules() if not m.__doc__]
        assert not missing, f"modules without docstrings: {missing}"

    def test_public_callables_documented(self):
        undocumented = []
        for module in walk_modules():
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # re-export; documented at its home
                if not inspect.getdoc(obj):
                    undocumented.append(f"{module.__name__}.{name}")
        assert not undocumented, \
            f"undocumented public items: {undocumented}"

    def test_declared_exports_resolve(self):
        for pkg_name in PACKAGES:
            pkg = importlib.import_module(pkg_name)
            for name in getattr(pkg, "__all__", []):
                assert hasattr(pkg, name), f"{pkg_name}.__all__: {name}"

    def test_only_settings_reads_the_environment(self):
        """``repro.settings`` is the one place the package reads (or
        writes) the process environment."""
        root = Path(repro.__file__).parent
        readers = sorted(
            str(path.relative_to(root)) for path in root.rglob("*.py")
            if re.search(r"os\.environ|os\.getenv", path.read_text()))
        assert readers == ["settings.py"]

    def test_no_module_imports_numpy(self):
        """The package runs on the standard library alone: no module
        names numpy, so none can import it, eagerly or lazily."""
        root = Path(repro.__file__).parent
        users = sorted(
            str(path.relative_to(root)) for path in root.rglob("*.py")
            if re.search(r"\bnumpy\b", path.read_text()))
        assert users == []

    def test_no_orphans(self):
        """Every public top-level class or function under ``src/repro``,
        and every public method or property of a public class, is used
        by name in code: an AST name, attribute or imported name in the
        package, ``examples/`` or ``perf/``.  Docstrings do not count,
        nor do a package ``__init__``'s re-exports."""
        root = Path(repro.__file__).parent
        defined = []
        for path in sorted(root.rglob("*.py")):
            module = path.relative_to(root).as_posix()
            for node in ast.parse(path.read_text()).body:
                if not (isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                        and not node.name.startswith("_")):
                    continue
                defined.append((module, node.name, node.name))
                if isinstance(node, ast.ClassDef):
                    defined.extend(
                        (module, f"{node.name}.{item.name}", item.name)
                        for item in node.body
                        if isinstance(item, (ast.FunctionDef,
                                             ast.AsyncFunctionDef))
                        and not item.name.startswith("_"))
        used = set()
        for tree_root in (root, REPO / "examples", REPO / "perf"):
            for path in tree_root.rglob("*.py"):
                reexports = path.name == "__init__.py"
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.Name):
                        used.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        used.add(node.attr)
                    elif isinstance(node, ast.ImportFrom) and not reexports:
                        used.update(alias.name for alias in node.names)
        orphans = [f"{module}:{qualname}"
                   for module, qualname, name in defined
                   if name not in used
                   and (module, qualname) not in ORPHAN_EXEMPT]
        assert not orphans, f"public names no code uses: {orphans}"

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3 and all(p.isdigit() for p in parts)

    def test_public_methods_documented_on_key_classes(self):
        from repro.core.experiment import Experiment
        from repro.db.engine import Database
        from repro.simulator.cache import SetAssocCache
        from repro.simulator.machine import Machine

        for cls in (Machine, Database, Experiment, SetAssocCache):
            for name, member in inspect.getmembers(
                    cls, predicate=inspect.isfunction):
                if name.startswith("_"):
                    continue
                assert inspect.getdoc(member), f"{cls.__name__}.{name}"
