"""Shared random constructors for the test suite.

The unitary, observable and amplitude constructors are the self-test's
own; only the rank-limited density and its composite are kept here.
"""

import numpy as np

from qprospect import CompositeState, DensityOperator
from qprospect.acceptance import (  # noqa: F401 - the tests import them from here
    _random_amplitudes as random_amplitudes,
    _random_observable as random_observable,
    _random_unitary as random_unitary,
)


def random_density(dim, rng, rank=None):
    rank = dim if rank is None else rank
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = a @ a.conj().T
    return DensityOperator(m / np.trace(m))


def random_composite(dim_a, dim_b, rng, rank=None):
    return CompositeState(random_density(dim_a * dim_b, rng, rank).matrix, (dim_a, dim_b))


def random_multimode_coefficients(dim, rng):
    b = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    while not np.any(b):  # pragma: no cover - astronomically unlikely
        b = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return b
