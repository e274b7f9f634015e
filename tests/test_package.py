"""The package's public names and its import-time BLAS thread pin."""
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import bmbodies

_MODULES = ["bmbodies"] + [
    f"bmbodies.{info.name}" for info in pkgutil.iter_modules(bmbodies.__path__)
]


@pytest.mark.parametrize("name", _MODULES)
def test_every_public_name_resolves(name):
    # a name deleted from a module but left in an __all__ list fails here
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, "3"])
def test_import_pins_blas_threads_unless_the_user_set_them(preset):
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(bmbodies.__file__))]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    if preset is not None:
        env["OMP_NUM_THREADS"] = preset
    script = (
        "import os, sys\n"
        "import bmbodies\n"
        "assert 'numpy' in sys.modules\n"
        f"print(' '.join(os.environ[v] for v in {_BLAS_VARS!r}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [preset or "1", "1", "1"]
