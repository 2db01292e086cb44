"""Start the ``exturan`` CLI or a script in a child process, from the imported package.

The child gets ``PYTHONPATH`` led by the absolute directory that holds the
imported ``exturan`` package, so it runs the same code whatever its working
directory and whether or not the package is installed; a relative entry
such as ``src`` would point at nothing once ``cwd`` moves. ``EXTURAN_CACHE``
is dropped, so that no user's record cache can answer an ``ex`` run.
"""

import os
import subprocess
import sys
from pathlib import Path

import exturan
from exturan.cli import CACHE_ENV

PACKAGE_ROOT = Path(exturan.__file__).resolve().parents[1]


def run_python(*args, cwd=None, timeout=None):
    """Run ``python *args`` in the child environment described above; past
    ``timeout`` seconds the child is killed and ``subprocess.TimeoutExpired``
    raised."""
    env = dict(os.environ)
    env.pop(CACHE_ENV, None)
    inherited = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([str(PACKAGE_ROOT), *inherited])
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, cwd=cwd, env=env,
                          timeout=timeout)


def run_cli(*args, cwd=None):
    return run_python("-m", "exturan", *args, cwd=cwd)
