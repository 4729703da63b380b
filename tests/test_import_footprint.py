"""Importing the package must not pull in scipy.stats.

``scipy.stats`` took about 0.26 s and 46 MiB to import (2-core x86 machine),
more than the rest of the package's imports together, and the package
needs nothing from it. A fresh interpreter is used so that modules the
test session has already loaded do not hide an import.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_import_does_not_load_scipy_stats():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import modesmc, modesmc.cli, sys; assert 'scipy.stats' not in sys.modules"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
