import os
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
