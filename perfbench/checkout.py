"""Where the checkout is, and the environment every benchmark child gets."""

import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: single-threaded BLAS in every worker and CLI child
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    """This environment with BLAS pinned and the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env.update(PINNED)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC if not path else SRC + os.pathsep + path
    return env
