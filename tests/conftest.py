import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


@pytest.fixture
def decomposed_sizes(monkeypatch):
    """Sizes of the ``eigh``, ``eigvalsh`` and ``cholesky`` calls the test makes, by name.

    One matrix, also a stack of one, is logged by its dimension; a stack
    of several by its shape.
    """
    sizes = {"eigh": [], "eigvalsh": [], "cholesky": []}
    for name, log in sizes.items():
        def counting(a, *args, _original=getattr(np.linalg, name), _log=log, **kwargs):
            shape = np.shape(a)
            _log.append(shape[-1] if np.prod(shape[:-2], dtype=int) == 1 else shape)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return sizes


@pytest.fixture
def scanned_sizes(monkeypatch):
    """The dimension of each Hermiticity scan (``qcore._hermiticity_defect``) the test makes."""
    from qprospect import qcore

    sizes, original = [], qcore._hermiticity_defect

    def counting(a):
        sizes.append(a.shape[0])
        return original(a)

    monkeypatch.setattr(qcore, "_hermiticity_defect", counting)
    return sizes
