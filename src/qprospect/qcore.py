"""Dense linear-algebra kernel.

Everything here works on plain complex ``numpy`` arrays.  Composite
spaces use the row-major convention throughout the package: in
``tensor_product(a, b)`` the first factor owns the slow index, so the
product basis vector ``|n alpha>`` sits at flat position
``n * dim_b + alpha``.

Shapes are decided here too.  :func:`_require_equal` is the one check that
two dimensions agree, and :func:`_factor_dims` the one parse of a
composite object's factor dimensions: a tuple or list of exactly two
integers, never coerced.  So are a caller's numbers, flags and choices:
:func:`_require_numbers` reads every array, :func:`_require_real` every
real scalar, :func:`_require_bool` every flag and :func:`_require_choice`
every named choice, such as a stage kind.  Their refusals, and those of
the size, index and dimension checks, show an integer too long to print
by its sign and bit length (:func:`_shown`).  Two more rules have their one
home here: :func:`require_event` is the null-event guard, and
:func:`_set_fields` the one setter of a frozen instance's fields.
"""

import numpy as np

from . import policy
from .errors import (
    DimensionMismatchError,
    NumericContractError,
    SizeLimitError,
    ValidationError,
    ZeroProbabilityError,
)


def freeze(a: np.ndarray) -> np.ndarray:
    """Mark ``a`` read-only and return it."""
    a.setflags(write=False)
    return a


def _set_fields(obj, **fields):
    """Set fields of a frozen dataclass instance and return it; arrays are frozen, not copied."""
    for name, value in fields.items():
        object.__setattr__(obj, name, freeze(value) if isinstance(value, np.ndarray) else value)
    return obj


def require_within(measured, bound, message: str, error=ValidationError, **fields):
    """Raise ``error`` unless ``measured <= bound``, so a NaN is refused.

    ``message`` is a :meth:`str.format` template over ``measured``, ``bound``
    and ``fields``, filled only when raising; text from a scenario, such as
    a label, goes in a field and never into the template.  The raised error
    carries ``measured`` and ``bound`` as attributes.
    """
    if not measured <= bound:
        exc = error(message.format(measured=measured, bound=bound, **fields))
        exc.measured, exc.bound = measured, bound
        raise exc


def require_event(p, message: str, error=ZeroProbabilityError, **fields):
    """Raise ``error`` unless ``p > policy.ZERO_EVENT_TOL``: a null event, or a NaN, is refused.

    Conditioning, reduction and normalization are defined only on events of
    nonzero probability.  ``message`` is a :meth:`str.format` template over
    ``p`` and ``fields``, filled only when raising.
    """
    if not p > policy.ZERO_EVENT_TOL:
        raise error(message.format(p=p, **fields))


def _is_int(n) -> bool:
    """Whether ``n`` is a Python or numpy integer, not a ``bool``."""
    return isinstance(n, (int, np.integer)) and type(n) is not bool


class _Text(str):
    """Text that ``repr`` shows unquoted, as ``str`` does."""

    __repr__ = str.__str__


def _shown(x):
    """``x`` as a refusal shows it: a Python int of more than 64 bits, which
    ``str`` refuses past 4300 digits, as ``<k-bit integer>`` with its sign."""
    huge = isinstance(x, int) and x.bit_length() > 64
    return _Text(f"{'-' if x < 0 else ''}<{x.bit_length()}-bit integer>") if huge else x


def _require_indices(indices, bounds, message: str):
    """Raise :class:`ValidationError` unless each index is an integer
    (:func:`_is_int`) in ``range`` of its bound.  ``message`` is a
    :meth:`str.format` template over the indices (:func:`_shown`), then the bounds."""
    for n, bound in zip(indices, bounds):
        if not (_is_int(n) and 0 <= n < bound):
            raise ValidationError(message.format(*map(_shown, indices), *bounds))


def _require_size(n, least: int, what: str, message: str):
    """Raise :class:`ValidationError` unless ``n`` is an integer (:func:`_is_int`) of
    at least ``least``; below it, the error is ``message`` filled with :func:`_shown` ``n``."""
    if not _is_int(n):
        raise ValidationError(f"{what} must be an integer, got {n!r}")
    if n < least:
        raise ValidationError(message.format(_shown(n)))


def _require_real(x, what: str, message: str, *,
                  refused: str = "{what} must be a real number, got {x!r}", **fields) -> float:
    """``x`` as a finite Python float.  A :class:`ValidationError` unless ``x``
    is a Python or numpy integer or float, never a ``bool`` or a ``str``: a
    refused type gets ``refused``, a non-finite ``x`` gets ``message``; both
    are templates over ``what``, ``x`` (:func:`_shown`) and ``fields``."""
    if not (isinstance(x, (int, float, np.integer, np.floating)) and type(x) is not bool):
        raise ValidationError(refused.format(what=what, x=x, **fields))
    try:
        v = float(x)
    except OverflowError:  # an int beyond the float range
        v = np.inf
    if not np.isfinite(v):
        raise ValidationError(message.format(what=what, x=_shown(x), **fields))
    return v


def _require_reals(xs, n: int, what: str, message: str, **fields) -> tuple[float, ...]:
    """``xs``, a tuple, list or 1-d array of ``n`` numbers, each read by
    :func:`_require_real`; any other ``xs`` gets ``message`` too."""
    sequence = isinstance(xs, (tuple, list)) or isinstance(xs, np.ndarray) and xs.ndim == 1
    if not (sequence and len(xs) == n):
        raise ValidationError(message.format(what=what, x=xs, **fields))
    return tuple(_require_real(x, what, message, **fields) for x in xs)


def _require_numbers(a, name: str, real: bool = False, shape=None,
                     finite: bool = True) -> np.ndarray:
    """``a`` as an ndarray of finite complex numbers (float when ``real``), uncopied if it is one.

    A :class:`ValidationError` unless ``a`` is a rectangular array of integers
    or floats, or of complex numbers unless ``real``: never of ``bool``, ``str``
    or objects.  ``shape(a)``, when given, runs before the finiteness pass, so
    a caller's shape rules, and their error types, come first.  With
    ``finite=False`` an infinite entry passes and only NaN is refused.
    """
    try:
        a = np.asarray(a)
    except ValueError:  # a ragged sequence
        raise ValidationError(f"{name} must be a rectangular array of numbers") from None
    if a.dtype.kind not in ("iuf" if real else "iufc"):
        kind = "real numbers" if real else "numbers"
        raise ValidationError(f"{name} must hold {kind}, got dtype {a.dtype}")
    a = a.astype(float if real else complex, copy=False)
    if shape is not None:
        shape(a)
    if not (np.isfinite(a) if finite else ~np.isnan(a)).all():
        raise ValidationError(f"{name} has {'non-finite' if finite else 'NaN'} entries")
    return a


def _require_bool(flag, name: str) -> bool:
    """``flag`` as a Python bool; anything but a Python or numpy bool is a ValidationError."""
    if not isinstance(flag, (bool, np.bool_)):
        raise ValidationError(f"{name} must be a bool, got {_shown(flag)!r}")
    return bool(flag)


def _require_choice(value, choices: tuple[str, ...], what: str) -> str:
    """``value`` when it is a ``str`` among ``choices``; anything else, a
    one-element array of a choice included, is a :class:`ValidationError`."""
    if not (isinstance(value, str) and value in choices):
        *head, last = map(repr, choices)
        raise ValidationError(f"{what} must be {', '.join(head)} or {last}, got {_shown(value)!r}")
    return value


def _require_instance(value, cls: type, name: str):
    """Raise :class:`ValidationError` unless ``value`` is a ``cls``; the message names its type."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise ValidationError(f"{name} must be {article} {cls.__name__}, "
                              f"got {type(value).__name__}")


def _require_equal(got, want, message: str, *fields):
    """Raise :class:`DimensionMismatchError` unless ``got == want``.  ``message``
    is a template over ``got``, ``want``, then ``fields``, each :func:`_shown`,
    filled only when raising; a label from a scenario goes in a field, never
    into the template.
    """
    if got != want:
        raise DimensionMismatchError(message.format(*map(_shown, (got, want, *fields))))


def _factor_dims(dims) -> tuple[int, int]:
    """``dims`` as two Python ints; a :class:`ValidationError` unless it is a
    tuple or list of exactly two integers (:func:`_is_int`)."""
    if not (isinstance(dims, (tuple, list)) and len(dims) == 2 and all(map(_is_int, dims))):
        raise ValidationError(f"dims must be a pair of integers, got {dims!r}")
    return int(dims[0]), int(dims[1])


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """``m`` read by :func:`_require_numbers` as a square, nonempty matrix within the cap."""
    def square(a):
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
        if a.shape[0] == 0:
            raise ValidationError(f"{name} is empty")
        if a.shape[0] > policy.MAX_DIM:
            raise SizeLimitError(
                f"{name} has dimension {a.shape[0]}, above the cap {policy.MAX_DIM}"
            )
    return _require_numbers(m, name, shape=square)


def as_complex_vector(v, name: str = "vector") -> np.ndarray:
    """``v`` read by :func:`_require_numbers` as a nonempty 1-d array within the cap."""
    def flat(a):
        if a.ndim != 1 or a.size == 0:
            raise DimensionMismatchError(f"{name} must be a nonempty 1-d array")
        if a.size > policy.MAX_DIM:
            raise SizeLimitError(f"{name} has size {a.size}, above the cap {policy.MAX_DIM}")
    return _require_numbers(v, name, shape=flat)


def as_amplitude_matrix(c, tol: float) -> np.ndarray:
    """``c`` read by :func:`_require_numbers`: nonempty, 2-d, ``sum |c|^2`` 1 within ``tol``."""
    def nonempty(a):
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise DimensionMismatchError(f"amplitude matrix must be 2-d, got shape {a.shape}")
    c = _require_numbers(c, "amplitude matrix", shape=nonempty)
    total = float(np.sum(np.abs(c) ** 2))
    require_within(abs(total - 1.0), tol,
                   "amplitude matrix breaks unit total weight: sum |c|^2 = {total!r}", total=total)
    return c


def hermiticity_defect(m) -> float:
    """Max-abs deviation of ``m``, read by :func:`as_complex_matrix`, from its own adjoint."""
    return _hermiticity_defect(as_complex_matrix(m))


def _hermiticity_defect(a: np.ndarray) -> float:
    return float(np.abs(a - a.conj().T).max())


def require_hermitian(m, name: str = "matrix") -> np.ndarray:
    a = as_complex_matrix(m, name)
    require_within(_hermiticity_defect(a), policy.tolerance(),
                   "{name} is not Hermitian: max deviation {measured:.3e} exceeds {bound:.1e}",
                   name=name)
    return a


def require_unitary(m, name: str = "matrix") -> np.ndarray:
    a = as_complex_matrix(m, name)
    require_within(float(np.abs(a.conj().T @ a - np.eye(a.shape[0])).max()), policy.tolerance(),
                   "{name} is not unitary: max deviation {measured:.3e} exceeds {bound:.1e}",
                   name=name)
    return a


def real_probabilities(values, name: str = "probability", scale: float = 1.0) -> np.ndarray:
    """Check raw probability-like values entrywise and clamp them to [0, scale].

    The one probability window: ``scale`` is 1 for a sharp event, ``<B|B>``
    for a multimode one.  Every entry's imaginary part must vanish within
    ``w = policy.PROBABILITY_TOL * max(1, scale)`` and its real part lie in
    ``[-w, scale + w]``; a NaN part is a violation.  The first violation
    raises :class:`NumericContractError` naming the entry's index
    (``name[n, alpha]`` for a table, plain ``name`` for a scalar), with
    ``measured`` |imaginary part| or the distance outside [0, scale] and
    ``bound`` ``w``.  Clamping is only allowed after the window check passes.
    """
    w = policy.PROBABILITY_TOL * max(1.0, scale)
    a = np.asarray(values, dtype=complex)
    broken = ~((np.abs(a.imag) <= w) & (-w <= a.real) & (a.real <= scale + w))
    if broken.any():
        at = tuple(int(k) for k in np.argwhere(broken)[0])
        where = f"{name}[{', '.join(map(str, at))}]" if at else name
        require_within(abs(a.imag[at]), w, "{where} has imaginary residue {imag:.3e} beyond "
                       "{bound:.1e}", NumericContractError, where=where, imag=a.imag[at])
        x = float(a.real[at])
        require_within(max(-x, x - scale), w, "{where} = {x!r} lies outside [-{bound:.0e}, "
                       "{scale:.12g} + {bound:.0e}]", NumericContractError, where=where, x=x,
                       scale=scale)
    # like min(max(x, 0.0), scale) on a float: -0.0 passes unchanged (NaN was refused)
    return a.real.clip(0.0, scale)


def real_probability(value: complex, name: str = "probability", scale: float = 1.0) -> float:
    """Scalar case of :func:`real_probabilities`."""
    return float(real_probabilities(value, name, scale))


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with the first factor as the slow index."""
    a = as_complex_matrix(a, "first factor")
    b = as_complex_matrix(b, "second factor")
    if a.shape[0] * b.shape[0] > policy.MAX_DIM:
        raise SizeLimitError(
            f"product dimension {a.shape[0] * b.shape[0]} exceeds the cap {policy.MAX_DIM}"
        )
    return np.kron(a, b)


def partial_trace(m, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one factor of a bipartite operator.

    Parameters
    ----------
    m : array_like
        Operator on the product space, shape ``(d0*d1, d0*d1)``.
    dims : (int, int)
        Dimensions ``(d0, d1)`` of the two factors, first factor slow.
    keep : int
        0 keeps the first factor (traces out the second), 1 keeps the
        second.

    A raw ``m`` is checked in full here: square, nonempty, within the cap
    and finite.  The reductions of a validated state (``CompositeState``,
    ``composite.marginals``, ``channels.readout``) skip that O(D^2) scan,
    because the state's matrix was checked once, when the state was built;
    those of a pure ``CompositeState`` are read from its amplitude matrix.
    """
    return _partial_trace(as_complex_matrix(m, "bipartite operator"), dims, keep)


def _partial_trace(a: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """:func:`partial_trace` of a square finite complex ``a``; checks ``dims`` and ``keep``."""
    d0, d1 = _factor_dims(dims)
    if d0 < 1 or d1 < 1 or d0 * d1 != a.shape[0]:
        raise DimensionMismatchError(
            f"dims {dims} incompatible with operator of dimension {a.shape[0]}"
        )
    _require_indices((keep,), (2,), "keep must be 0 or 1, got {0!r}")
    four = a.reshape(d0, d1, d0, d1)
    if keep == 0:
        return np.einsum("ijkj->ik", four)
    return np.einsum("ijil->jl", four)


def matrix_exponential(h, t: float) -> np.ndarray:
    """Unitary propagator ``exp(-i h t)`` of a Hermitian generator.

    Computed by eigendecomposition, which keeps the result unitary to
    machine precision for the dimensions this package supports.
    """
    a = require_hermitian(h, "generator")
    t = _require_real(t, "time", "time must be finite")
    return propagator_from_eigh(np.linalg.eigh(a), t)


def propagator_from_eigh(decomposition: tuple[np.ndarray, np.ndarray], t: float) -> np.ndarray:
    """``exp(-i h t)`` from the eigendecomposition ``(w, v) = eigh(h)``.

    The phase formula of :func:`matrix_exponential`, for a caller that
    evolves under one generator for several times and decomposes it once.
    ``v`` is unitary to machine precision, and so is the result.  A
    stacked decomposition (``eigh`` of a ``(k, b, b)`` stack of generators)
    gives the ``(k, b, b)`` stack of their propagators.
    """
    w, v = decomposition
    phases = np.exp(-1j * w * t)
    return (v * phases[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def _require_dims(dim: int, dims: tuple[int, int] | None, what: str = "matrix"):
    if dims is not None:
        _require_equal(dim, dims[0] * dims[1], "{2} dimension {0} does not match dims {3} x {4}",
                       what, *dims)


def _require_unit_trace(tr: complex, name: str, composite: bool):
    # a composite state has always reported the trace alone
    detail = "" if composite else " (deviation {measured:.3e} exceeds {bound:.1e})"
    require_within(abs(tr - 1.0), policy.tolerance(), "{name} breaks unit trace: Tr = {tr!r}"
                   + detail, name=name, tr=float(tr.real))


def validate_state(
    m, name: str, dims: tuple[int, int] | None = None, *, spectrum: np.ndarray | None = None
):
    """Check a statistical operator once; return it with its spectrum, if found.

    The checks run in this order: square, finite and within the dimension
    cap; Hermitian; of dimension ``dims[0] * dims[1]`` when the factor
    dimensions ``dims`` of a composite state are given; unit trace;
    positive-semidefinite (lowest eigenvalue at or above minus the
    tolerance).

    Positivity is proved by one Cholesky factorization where that proof is
    sound (:func:`_cholesky_accepts`); every state it does not accept is
    judged by ``eigvalsh``, whose lowest eigenvalue the refusal names.

    Returns ``(matrix, spectrum)``: a private copy of the input, and its
    ascending eigenvalues when ``eigvalsh`` ran, or ``None`` when the
    factorization accepted.  A ``DensityOperator`` finds a ``None``
    spectrum on its first read, so no caller decomposes the same matrix
    twice.

    A caller that built ``m`` from validated states may pass its
    ascending ``spectrum`` known in closed form (:func:`product_state`,
    ``channels.evolve``), bounded far inside the tolerance, or one it
    computed and reads next; positivity is then read from it and no
    factorization runs.
    """
    a = np.array(require_hermitian(m, name))
    _require_dims(a.shape[0], dims)
    _require_unit_trace(a.trace(), name, composite=dims is not None)
    tol = policy.tolerance()
    if spectrum is None:
        if _cholesky_accepts(a, tol):
            return a, None
        spectrum = np.linalg.eigvalsh(a)
    low = spectrum.min()
    require_within(-low, tol, "{name} not positive-semidefinite: lowest eigenvalue {low:.3e}",
                   name=name, low=low)
    return a, spectrum


def _cholesky_accepts(a: np.ndarray, tol: float) -> bool:
    """Whether one Cholesky factorization proves ``lambda_min(a) > -tol``.

    ``a`` is finite, Hermitian and of trace 1 within ``tol``; ``A = a +
    (tol / 2) 1`` is factored.  ``cholesky`` reads the lower triangle, as
    ``eigvalsh`` does, so both judge the same matrix.

    A factorization of ``A`` that runs to completion gives ``R* R = A + dA``
    with ``||dA||_2 <= g tr(A) / (1 - g)``, ``g = gamma_(d+2)`` (Higham,
    *Accuracy and Stability of Numerical Algorithms*, Thm 10.3 with
    ``|| |R*| |R| ||_2 <= tr(R* R)``; one more ``u`` for the rounded shift)
    and ``tr(A) <= 1 + tol + d tol / 2``.  As ``R* R`` is positive-
    semidefinite, ``lambda_min(a) >= -tol / 2 - ||dA||_2``.  The
    factorization is tried only when four times that bound (room for
    complex arithmetic) is below ``tol / 2``, so an accept means
    ``lambda_min(a) > -5 tol / 8``, which the backward-stable ``eigvalsh``
    accepts too.  At the default tolerance this holds up to ``MAX_DIM``
    with a margin of about 27; a scoped tolerance below about 4e-12
    (2e-13 at d = 256) goes straight to ``eigvalsh``.

    A factor that is not finite proves nothing: OpenBLAS ``potrf`` can
    finish on the NaN pivot of an overflowing entry without reporting it.
    """
    d = a.shape[0]
    nu = (d + 2) * 2.0 ** -53  # u = 2^-53, the unit roundoff of float64
    g = nu / (1.0 - nu)
    if not 4.0 * g * (1.0 + tol * (1.0 + d / 2.0)) / (1.0 - g) < tol / 2.0:
        return False
    shifted = a.copy()
    shifted.flat[::d + 1] += tol / 2.0
    try:
        return bool(np.isfinite(np.linalg.cholesky(shifted)).all())
    except np.linalg.LinAlgError:
        return False


def rank_one(v: np.ndarray):
    """``|v><v|`` and its ascending spectrum ``(0, ..., 0, Tr)``, unchecked.

    :func:`pure_state` gives the bound behind the closed-form spectrum.
    """
    a = np.outer(v, v.conj())
    w = np.zeros(a.shape[0])
    w[-1] = a.trace().real
    return a, w


def pure_state(v, name: str, dims: tuple[int, int] | None = None):
    """The pure state ``|v><v|`` with its spectrum, without a decomposition.

    ``v`` must be a finite nonempty vector within the dimension cap, of
    size ``dims[0] * dims[1]`` when the factor dimensions ``dims`` of a
    composite state are given, and the built matrix must have unit trace;
    the messages are the ones :func:`validate_state` gives.

    Hermiticity and positivity are not checked because they hold by
    construction.  Each entry ``v_i conj(v_j)`` is one rounded complex
    product, so ``|a_ij - conj(a_ji)|`` stays within a few units in the
    last place of ``|v_i v_j|`` (below 1e-15 for a unit vector), and the
    exact ``|v><v|`` has rank one with eigenvalues ``(0, ..., 0, <v|v>)``.
    That spectrum, ascending like ``eigvalsh``, is returned with the trace
    of the built matrix as its top entry.
    """
    v, w = _pure_spectrum(v, name, dims)
    return np.outer(v, v.conj()), w


def _pure_spectrum(v, name: str, dims: tuple[int, int] | None = None):
    """Every check of :func:`pure_state`, without building ``|v><v|``.

    Returns the checked vector and the spectrum ``(0, ..., 0, Tr)``.  ``Tr``
    is the sum of ``v * conj(v)``, bit for bit the trace of the built matrix.
    """
    v = as_complex_vector(v, name)
    _require_dims(v.size, dims)
    tr = (v * v.conj()).sum()
    _require_unit_trace(tr, name, composite=dims is not None)
    w = np.zeros(v.size)
    w[-1] = tr.real
    return v, w


def validate_rank_one(m, name: str, dims: tuple[int, int] | None = None):
    """Check a rank-one positive operator; return a copy and its ascending spectrum.

    In order: square, finite and within the cap; Hermitian; of dimension
    ``dims[0] * dims[1]`` when ``dims`` is given; positive; rank at most one
    (second eigenvalue at most the tolerance times ``max(1, largest)``).
    """
    a = np.array(require_hermitian(m, name))
    _require_dims(a.shape[0], dims, "operator")
    tol = policy.tolerance()
    w = np.linalg.eigvalsh(a)
    low = w.min()
    require_within(-low, tol, "{name} not positive: lowest eigenvalue {low:.3e}",
                   name=name, low=low)
    if w.size > 1:
        require_within(w[-2], tol * max(1.0, w[-1]),
                       "{name} has rank > 1: second eigenvalue {measured:.3e}", name=name)
    return a, w


def product_state(a, wa, b, wb, name: str, dims: tuple[int, int] | None = None):
    """The product state ``a (x) b`` with its spectrum, without a decomposition.

    ``a`` and ``b`` are validated states and ``wa``, ``wb`` their kept
    ascending spectra.  The eigenvalues of a Kronecker product are the
    pairwise products of the factors', so positivity is read from the
    sorted outer product of ``wa`` and ``wb``; every other check of
    :func:`validate_state` runs on the built matrix.  The kept spectra are
    within a small multiple of ``eps * dim`` of exact (``eigvalsh`` is
    backward stable), and each entry ``a_ij b_kl`` is one rounded product,
    which moves the eigenvalues by at most ``eps`` for unit-trace positive
    factors: orders of magnitude inside the tolerance up to ``MAX_DIM``.
    """
    spectrum = np.sort(np.multiply.outer(wa, wb), axis=None)
    return validate_state(tensor_product(a, b), name, dims, spectrum=spectrum)


def mode_split(coeff: np.ndarray, m: np.ndarray):
    """Split ``<b|m|b>`` into its classical and interference parts.

    ``m`` is a matrix in the mode basis of the weights ``b = coeff``, or a
    stack of them.  Returns, per matrix, ``direct = <b|m|b>`` (complex),
    ``f = sum_a |b_a|^2 Re m_aa`` and ``q = 2 Re sum_{a<c} conj(b_a) b_c m_ac``.
    ``q`` is its own sum, never ``direct - f``, so ``direct = f + q`` checks it.
    """
    mb = m @ coeff
    direct = np.matmul(coeff.conj(), mb[..., None])[..., 0]
    f = np.sum(np.abs(coeff) ** 2 * m.diagonal(axis1=-2, axis2=-1).real, axis=-1)
    i, j = np.triu_indices(coeff.size, k=1)
    # contiguous, so each matrix's terms are summed pairwise as one vector's are
    q = 2.0 * np.sum((coeff.conj()[i] * coeff[j] * m[..., i, j]).real.copy(), axis=-1)
    return direct, f, q


def spectral_norm(m) -> float:
    """Largest eigenvalue of a Hermitian positive-semidefinite matrix."""
    a = require_hermitian(m, "operator")
    w = np.linalg.eigvalsh(a)
    low = w.min()
    require_within(-low, policy.tolerance(),
                   "operator has negative eigenvalue {low:.3e}, not positive-semidefinite",
                   low=low)
    return float(w.max())
