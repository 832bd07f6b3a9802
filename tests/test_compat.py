"""Faults that would otherwise show only on users' machines.

The package must compile under the oldest Python that pyproject.toml admits
(requires-python >= 3.10); newer grammar such as `a[..., *idx]` (3.11+)
would otherwise fail there. And every `__all__` must name only what its
module defines, or `from bfflow.x import *` fails.
"""

import importlib
import os
import shutil
import subprocess
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bfflow"

_COMPILE_ALL = """
import sys
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        compile(fh.read(), path, "exec")
"""


def _python310():
    """(executable, environment) of a working Python 3.10, or None.

    A pyenv shim runs only the versions it is told to, so each installed
    3.10.x is tried through PYENV_VERSION as well."""
    exe = shutil.which("python3.10")
    if exe is None:
        return None
    envs = [dict(os.environ)]
    pyenv = shutil.which("pyenv")
    if pyenv:
        listed = subprocess.run([pyenv, "versions", "--bare"],
                                capture_output=True, text=True).stdout.split()
        envs += [{**os.environ, "PYENV_VERSION": v}
                 for v in listed if v.startswith("3.10")]
    for env in envs:
        probe = subprocess.run(
            [exe, "-c", "import sys; print(sys.version_info[:2] == (3, 10))"],
            capture_output=True, text=True, env=env)
        if probe.returncode == 0 and probe.stdout.strip() == "True":
            return exe, env
    return None


def test_sources_compile_under_python_3_10():
    found = _python310()
    if found is None:
        pytest.skip("no working python3.10 on PATH")
    exe, env = found
    files = sorted(str(p) for p in SRC.glob("*.py"))
    assert files
    run = subprocess.run([exe, "-c", _COMPILE_ALL, *files],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("module", ["bfflow"] + [f"bfflow.{p.stem}" for p in sorted(SRC.glob("*.py"))
                                                 if p.stem != "__init__"])
def test_all_lists_only_defined_names(module):
    namespace = {}
    exec(f"from {module} import *", namespace)  # a stale entry raises here
    assert set(getattr(importlib.import_module(module), "__all__", ())) <= set(namespace)
