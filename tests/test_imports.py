import ast
import os
import pathlib
import subprocess
import sys

import mahaknn


def test_import_leaves_scipy_unloaded():
    # numpy is the only runtime dependency; scipy is installed for tests only.
    src = os.path.dirname(os.path.dirname(os.path.abspath(mahaknn.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, mahaknn, mahaknn.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


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
