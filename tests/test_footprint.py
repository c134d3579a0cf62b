"""Start-up footprint: numpy is the compiler's (the slot scorer's
convolution) and only a process that compiles may load it.

Each case runs in a fresh interpreter — this one has numpy loaded
already — and reports whether ``numpy`` reached ``sys.modules``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import io
import sys

import repro.cli
import repro.exec
import repro.serve

loaded_on_import = "numpy" in sys.modules
rc = repro.cli.main(sys.argv[1:], out=io.StringIO()) if sys.argv[1:] else 0
print(rc, loaded_on_import, "numpy" in sys.modules)
"""


def probe(*argv: str) -> tuple[int, bool, bool]:
    """(exit code, numpy loaded by the imports, numpy loaded at exit)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    rc, on_import, at_exit = done.stdout.split()
    return int(rc), on_import == "True", at_exit == "True"


RUN = ["run", "--app", "sar", "--policy", "simple", "--scale", "0.01",
       "--no-cache"]


def test_imports_leave_numpy_unloaded():
    assert probe() == (0, False, False)


def test_scheme_off_run_never_loads_numpy():
    assert probe(*RUN) == (0, False, False)


def test_scheme_on_run_loads_numpy_to_compile():
    assert probe(*RUN, "--scheme") == (0, False, True)
