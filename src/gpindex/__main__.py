"""The ``gpindex`` program: ``python -m gpindex`` and the installed ``gpindex`` script."""

import gc
import os
import sys

from .cli import main


def run() -> int:
    """Run ``gpindex`` on ``sys.argv`` as a whole process; return its exit status.

    The cyclic garbage collector is off for the command, and the heap is
    frozen when it ends, so the collections the interpreter makes on its
    way out skip every object still alive. That is sound because a run's
    reference cycles do not grow with its input
    (``tests/test_cli.py::TestReferenceCycles``). Forked workers inherit
    the collector off, so none copies the pages it shares with this process.
    In-process callers of ``cli.main`` keep the collector as it was.
    """
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()
        try:
            sys.stdout.flush()
        except OSError:  # closed by its reader, as main reported: drop what it holds
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


if __name__ == "__main__":
    sys.exit(run())
