"""Shared random constructors for the test suite.

The unitary, observable and amplitude constructors are the self-test's
own; only the rank-limited density and its composite are kept here.
"""

import numpy as np

from qprospect import CompositeState, DensityOperator, QProspectError
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


def overflowing_cases(seed, build, hermitian=False, count=300):
    """``build(d, rng)`` at d up to 64, with entries replaced by finite ones up to 1e308.

    One case in four is yielded unchanged.  The others get between one and
    all entries replaced, with magnitudes spread evenly in exponent; products
    of such entries overflow, and ``inf - inf`` in a defect is NaN.  With
    ``hermitian`` the lower triangle mirrors the upper one and the diagonal
    is real, built without arithmetic so every entry stays finite.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        a = np.array(build(int(rng.choice((1, 2, 3, 4, 8, 16, 64))), rng), dtype=complex)
        if rng.random() < 0.75:
            flat = a.reshape(-1)
            k = rng.integers(1, flat.size + 1)
            parts = rng.choice([-1.0, 1.0], size=(k, 2)) * 10.0 ** rng.uniform(-3, 308, (k, 2))
            flat[rng.choice(flat.size, size=k, replace=False)] = parts[:, 0] + 1j * parts[:, 1]
            if hermitian:
                lower = np.tril_indices(a.shape[0], -1)
                a[lower] = a.T[lower].conj()
                a[np.diag_indices(a.shape[0])] = a.diagonal().real
        yield a


def returns_or_refuses(check, *args):
    """``check(*args)``, or None when it raises a package error."""
    try:
        return check(*args)
    except QProspectError:
        return None
