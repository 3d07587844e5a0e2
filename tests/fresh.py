"""Fresh interpreters for the tests, and the worker count of in-process runs.

Every child interpreter the suite starts comes from ``run_python``:
``python -S -X dev -X warn_default_encoding`` with penair's sources on its
path. -S loads no site-packages, so a command that imported one fails;
-X dev reports a file, pipe or fork left open as a ResourceWarning, and
-X warn_default_encoding each call that relies on the locale's encoding as
an EncodingWarning. The child's own first lines make a ResourceWarning, and
an EncodingWarning raised in penair's modules, an error, so no environment
variable is needed; a child whose stderr mentions a ResourceWarning fails
the test that started it.

The module does not import pytest, so ``tests/test_synth_golden.py`` still
runs under an interpreter that has none.
"""

import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

from penair import cli

SRC = str(Path(cli.__file__).resolve().parents[1])
STRICT = ("import os, sys, warnings\n"
          "warnings.simplefilter('error', ResourceWarning)\n"
          "warnings.filterwarnings('error', category=EncodingWarning, module='penair')\n")


def run_python(code, args=(), env=None):
    """``code`` after STRICT in a fresh interpreter, ``args`` its
    ``sys.argv[1:]`` and ``env`` laid over this process's environment: the
    CompletedProcess, with stdout and stderr as bytes."""
    done = subprocess.run(
        [sys.executable, "-S", "-X", "dev", "-X", "warn_default_encoding", "-c", STRICT + code,
         *args], capture_output=True, env={**os.environ, "PYTHONPATH": SRC, **(env or {})},
        timeout=60)
    assert b"ResourceWarning" not in done.stderr, done.stderr.decode("utf-8", "replace")
    return done


def run_penair(argv, workers=None, prelude="", env=None):
    """The CLI on ``argv`` in a fresh interpreter: ``python -m penair``, or
    with ``workers`` ``cli.main`` with ``cli._usable_cpus()`` returning it.
    ``prelude`` runs first, with ``cli`` and ``parent``, the child's pid, bound."""
    if workers is None:
        start = "import runpy\nrunpy.run_module('penair', run_name='__main__', alter_sys=True)\n"
    else:
        start = f"cli._usable_cpus = lambda: {workers}\nsys.exit(cli.main(sys.argv[1:]))\n"
    return run_python(f"from penair import cli\nparent = os.getpid()\n{prelude}\n{start}", argv,
                      env)


@contextmanager
def usable_cpus(workers):
    """cli._usable_cpus() returns ``workers`` inside; None keeps the real count."""
    real = cli._usable_cpus
    if workers is not None:
        cli._usable_cpus = lambda: workers
    try:
        yield
    finally:
        cli._usable_cpus = real
