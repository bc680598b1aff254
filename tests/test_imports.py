import ast
import os
import pathlib
import subprocess
import sys

import mahaknn


def test_import_leaves_scipy_unloaded():
    # numpy is the only runtime dependency; scipy is installed for tests only.
    # The benchmark's set-up path loads only the modules it uses.
    src = os.path.dirname(os.path.dirname(os.path.abspath(mahaknn.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for statement, modules in [
        ("import mahaknn.cli", None),
        ("from mahaknn import cloudio, shapes",
         "mahaknn mahaknn.cloudio mahaknn.errors mahaknn.geometry mahaknn.shapes"),
    ]:
        code = (f"import sys; {statement}; print('scipy' in sys.modules, "
                "*sorted(m for m in sys.modules if m.partition('.')[0] == 'mahaknn'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        scipy, _, loaded = out.stdout.strip().partition(" ")
        assert scipy == "False"
        assert modules is None or loaded == modules


def private_reads(source):
    """(line, text) of each `x._name` in `source`, dunders aside, where x is not `self` or `cls`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
        ):
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_no_module_reaches_into_private_state_of_other_objects():
    # A value's private state is read through its own methods, as
    # `PointCloud.kept` and `kept_for` serve what is kept on a cloud.
    package = pathlib.Path(mahaknn.__file__).parent
    found = {
        path.name: reads
        for path in sorted(package.glob("*.py"))
        if (reads := private_reads(path.read_text()))
    }
    assert found == {}


def unused_imports(source):
    """Sorted names that `source` binds by `import` (`from __future__` aside)
    and never reads as a `Name`; annotations count as reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_no_module_imports_a_name_it_does_not_use():
    # Each public name has one import path, its own module.
    package = pathlib.Path(mahaknn.__file__).parent
    found = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}
