"""Events and the operators that test them.

An event is a possible outcome of measuring an observable; it is tested
by the projector on the corresponding eigenvector.  A multimode state
is a weighted superposition of basis modes ``|B> = sum_a b_a |a>`` whose
coefficient vector need not be normalized; it induces a rank-one
generalized proposition ``|B><B|``.  Families of generalized propositions
that resolve the identity form a positive operator-valued measure.
"""

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import policy, qcore
from .errors import DimensionMismatchError, NumericContractError, ValidationError


@dataclass(frozen=True, eq=False)
class Observable:
    """Nondegenerate observable: real outcome values and an orthonormal eigenbasis.

    Parameters
    ----------
    eigenvalues : array_like
        Real outcome values, pairwise distinct.
    eigenbasis : array_like
        Square complex matrix whose *columns* are the eigenvectors, in the
        same order as ``eigenvalues``.
    label : str
        Short name used in diagnostics and result tables.
    """

    eigenvalues: np.ndarray
    eigenbasis: np.ndarray
    label: str = "A"

    def __post_init__(self):
        basis = np.array(qcore.as_complex_matrix(self.eigenbasis, "eigenbasis"))
        values = np.array(self.eigenvalues, dtype=float).reshape(-1)
        if values.size != basis.shape[0]:
            raise DimensionMismatchError(
                f"{values.size} eigenvalues vs eigenbasis of dimension {basis.shape[0]}"
            )
        if not np.all(np.isfinite(values)):
            raise ValidationError("eigenvalues must be finite")
        gaps = np.abs(values[:, None] - values[None, :])
        gaps[np.diag_indices_from(gaps)] = np.inf
        if gaps.min() <= policy.EIGENVALUE_GAP:
            raise ValidationError(
                f"observable {self.label!r} is degenerate: eigenvalue gap "
                f"{gaps.min():.3e} at or below {policy.EIGENVALUE_GAP:.0e}"
            )
        qcore.require_unitary(basis, f"eigenbasis of {self.label!r}")
        object.__setattr__(self, "eigenvalues", qcore.freeze(values))
        object.__setattr__(self, "eigenbasis", qcore.freeze(basis))

    @property
    def dim(self) -> int:
        return self.eigenbasis.shape[0]

    def vector(self, n: int) -> np.ndarray:
        """Eigenvector for outcome index ``n``."""
        if not 0 <= n < self.dim:
            raise ValidationError(f"outcome index {n} out of range for dim {self.dim}")
        return self.eigenbasis[:, n]

    def operator(self) -> np.ndarray:
        """Dense Hermitian matrix ``sum_n A_n |n><n|``."""
        return (self.eigenbasis * self.eigenvalues) @ self.eigenbasis.conj().T

    @classmethod
    def standard(cls, dim: int, label: str = "N", eigenvalues=None) -> "Observable":
        """Observable diagonal in the computational basis (values 0..dim-1)."""
        if eigenvalues is None:
            eigenvalues = np.arange(dim, dtype=float)
        return cls(eigenvalues, np.eye(dim, dtype=complex), label)


def basis_change(obs_a: Observable, obs_b: Observable) -> np.ndarray:
    """Default transform between two observables' eigenbases, ``A^dag B``.

    Maps coordinates in the eigenbasis of ``obs_b`` to coordinates in the
    eigenbasis of ``obs_a``: entry ``[n, alpha]`` is ``<n|alpha>``.  Unitary
    whenever both bases are orthonormal.
    """
    if obs_a.dim != obs_b.dim:
        raise DimensionMismatchError(
            f"observables {obs_a.label!r} and {obs_b.label!r} act on different spaces"
        )
    return obs_a.eigenbasis.conj().T @ obs_b.eigenbasis


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _trusted(cls, *values, **fields):
    """An instance of a validated class from values whose checks already hold.

    The one way past ``__post_init__``, for states and operators whose
    spectrum is known in closed form (:mod:`qcore` ``pure_state``,
    ``product_state``, ``rank_one``; ``channels.evolve``; eigenvector
    projectors in :func:`projector_of`).  Values fill the dataclass fields
    in order or by name; arrays are frozen, not copied.
    """
    obj = object.__new__(cls)
    named = zip(_field_names(cls), values)
    for name, value in [*named, *fields.items()]:
        if isinstance(value, np.ndarray):
            value = qcore.freeze(value)
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Statistical operator: Hermitian, unit trace, positive-semidefinite.

    ``spectrum`` holds the ascending eigenvalues found while validating.
    """

    matrix: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m, w = qcore.validate_state(self.matrix, "density operator")
        object.__setattr__(self, "matrix", qcore.freeze(m))
        object.__setattr__(self, "spectrum", qcore.freeze(w))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    @classmethod
    def from_pure(cls, vector) -> "DensityOperator":
        """Pure state ``|v><v|`` of a unit vector, without a decomposition.

        Checked here: the vector is 1-d, nonempty, finite and within
        ``MAX_DIM`` (before the outer product is built), its norm is 1
        within ``NORM_TOL`` and its squared norm within the tolerance (the
        trace the built matrix will have, checked as ``from_amplitudes``
        checks its total weight), and the built matrix has unit trace
        within the tolerance.  Held by construction and not checked:
        hermiticity and positivity (see :func:`qcore.pure_state`); the
        spectrum is ``(0, ..., 0, Tr)``.
        """
        v = qcore.as_complex_vector(vector, "state vector")
        norm = float(np.linalg.norm(v))
        qcore.require_within(abs(norm - 1.0), policy.NORM_TOL,
                             "state vector norm {norm!r} deviates from 1 beyond {bound:.0e}",
                             norm=norm)
        qcore.require_within(abs(norm * norm - 1.0), policy.tolerance(),
                             "state vector norm {norm!r} deviates from 1: squared norm is off "
                             "by {measured:.3e}, beyond {bound:.1e}", norm=norm)
        # a plain DensityOperator also when called on a subclass, which may
        # need fields a vector does not give (CompositeState's dims)
        return _trusted(DensityOperator, *qcore.pure_state(v, "density operator"))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        return DensityOperator(np.eye(dim, dtype=complex) / dim)


@dataclass(frozen=True, eq=False)
class Projector:
    """Rank-one projector testing a single event, tagged with its origin.

    A supplied matrix is checked for hermiticity and idempotence, in
    O(d^3); :func:`projector_of` checks an eigenvector's in O(d).
    """

    matrix: np.ndarray
    source: tuple[str, int] = ("", -1)

    def __post_init__(self):
        m = np.array(qcore.require_hermitian(self.matrix, "projector"))
        _require_idempotent(float(np.abs(m @ m - m).max()))
        object.__setattr__(self, "matrix", qcore.freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def projector_of(obs: Observable, n: int) -> Projector:
    """Projector ``|v><v|`` on the ``n``-th eigenvector ``v`` of ``obs``.

    Hermitian by construction (see :func:`qcore.pure_state`), finite and
    within the cap as the validated eigenbasis is.  Idempotence is checked
    exactly in O(d): ``P^2 - P = (<v|v> - 1) P``, so ``max |P^2 - P|`` is
    ``|<v|v> - 1| max_i |v_i|^2``, read from the diagonal.  An observable
    built under a looser :func:`policy.tolerance_scope` may break it.
    """
    v = obs.vector(n)
    m = np.outer(v, v.conj())
    w = m.diagonal().real
    _require_idempotent(abs(w.sum() - 1.0) * w.max())
    return _trusted(Projector, m, (obs.label, n))


def _require_idempotent(defect: float):
    qcore.require_within(defect, policy.tolerance(),
                         "not idempotent: max |P^2 - P| = {measured:.3e}")


@dataclass(frozen=True, eq=False)
class MultimodeState:
    """Superposition ``|B> = sum_a b_a |a>`` over the eigenmodes of a basis.

    The coefficient vector is *not* required to be normalized; its squared
    norm ``<B|B>`` rescales every operator built from the state.  At least
    one coefficient must be nonzero, and ``<B|B>`` must be finite.
    """

    coefficients: np.ndarray
    basis: Observable

    def __post_init__(self):
        b = np.array(qcore.as_complex_vector(self.coefficients, "coefficients"))
        if b.size != self.basis.dim:
            raise DimensionMismatchError(
                f"{b.size} coefficients vs basis of dimension {self.basis.dim}"
            )
        if not np.any(b != 0):
            raise ValidationError("multimode state needs at least one nonzero coefficient")
        object.__setattr__(self, "coefficients", qcore.freeze(b))
        gram = self.gram()
        if not np.isfinite(gram):
            raise ValidationError(f"multimode state norm <B|B> = {gram} is not finite")

    @property
    def dim(self) -> int:
        return self.basis.dim

    def gram(self) -> float:
        """Squared norm ``<B|B>``."""
        return float(np.vdot(self.coefficients, self.coefficients).real)

    def vector(self) -> np.ndarray:
        """The state expanded in the underlying space."""
        return self.basis.eigenbasis @ self.coefficients

    @classmethod
    def in_standard_basis(cls, coefficients, label: str = "B") -> "MultimodeState":
        b = qcore.as_complex_vector(coefficients, "coefficients")
        return cls(b, Observable.standard(b.size, label))


@dataclass(frozen=True, eq=False)
class GeneralizedProposition:
    """Rank-one positive operator ``|B><B|`` testing a multimode event.

    Unlike a projector it need not be idempotent: ``P^2 = <B|B> P``, so the
    operator carries the weight of its defining state.  Instances may be
    built from a :class:`MultimodeState` or supplied as raw operators, which
    are validated for self-adjointness, positivity, and unit rank.
    """

    operator: np.ndarray

    def __post_init__(self):
        m, w = qcore.validate_rank_one(self.operator, "generalized proposition")
        _require_weight(w)
        object.__setattr__(self, "operator", qcore.freeze(m))

    @property
    def dim(self) -> int:
        return self.operator.shape[0]

    def weight(self) -> float:
        """The scale ``<B|B>`` such that ``P^2 = <B|B> P``."""
        return float(np.trace(self.operator).real)

    @classmethod
    def from_state(cls, state: MultimodeState) -> "GeneralizedProposition":
        """``|B><B|``, rank one by construction, so not decomposed.

        Checked: finite entries (``|b_a|^2`` may overflow) and a nonzero weight.
        """
        m, w = qcore.rank_one(state.vector())
        qcore.as_complex_matrix(m, "generalized proposition")
        _require_weight(w)
        return _trusted(cls, m)


def _require_weight(w: np.ndarray):
    if w[-1] <= policy.tolerance():
        raise ValidationError("generalized proposition is (numerically) zero")


class MultimodeProbability(NamedTuple):
    """Probability of a multimode event split into its two contributions."""

    p: float
    classical: float
    quantum: float


def multimode_probability(rho: DensityOperator, state: MultimodeState) -> MultimodeProbability:
    """Probability ``Tr(rho |B><B|)`` of a multimode event, decomposed.

    The classical part keeps only the diagonal ``sum_a |b_a|^2 <a|rho|a>``;
    the quantum part is the interference of distinct modes,
    ``2 Re sum_{a<b} b_a* b_b <a|rho|b>``.  Their sum must reproduce the
    direct expectation within 1e-12, and the total must lie within the
    window ``[0, <B|B>]`` set by the state's squared norm.
    """
    if rho.dim != state.dim:
        raise DimensionMismatchError(
            f"density operator dim {rho.dim} vs multimode state dim {state.dim}"
        )
    e = state.basis.eigenbasis
    m = e.conj().T @ rho.matrix @ e  # <a|rho|b> in the mode basis
    direct, classical, quantum = qcore.mode_split(state.coefficients, m)
    direct, classical, quantum = complex(direct), float(classical), float(quantum)

    window = policy.PROBABILITY_TOL * max(1.0, state.gram())
    qcore.require_within(abs(direct.imag), window,
                         "multimode probability has imaginary residue {imag:.3e}",
                         NumericContractError, imag=direct.imag)
    p = direct.real
    if not -window <= p <= state.gram() + window:
        raise NumericContractError(f"multimode probability {p!r} outside [0, <B|B>] window")
    gap = p - (classical + quantum)
    qcore.require_within(abs(gap), window,
                         "multimode decomposition broken: p - (classical + quantum) = {gap:.3e}",
                         NumericContractError, gap=gap)
    p = min(max(p, 0.0), state.gram())
    return MultimodeProbability(p, classical, quantum)


@dataclass(frozen=True)
class PovmReport:
    """Outcome of checking a family of propositions against the identity."""

    residual: float
    passed: bool
    probabilities: tuple[float, ...] | None = None
    total_probability: float | None = None


def validate_povm(
    members: Sequence[GeneralizedProposition],
    rho: DensityOperator | None = None,
) -> PovmReport:
    """Check that a family of generalized propositions resolves the identity.

    The residual is the max-abs entry of ``sum_B P_B - 1``; the family
    passes when it stays within 1e-8.  With a density operator supplied the
    report also carries each member's probability ``Tr(rho P_B)``, checked
    by :func:`qcore.real_probabilities`, and their total, which approaches
    1 exactly as well as the family resolves unity.
    """
    members = tuple(members)
    if not members:
        raise ValidationError("empty proposition family")
    dim = members[0].dim
    for k, member in enumerate(members):
        if member.dim != dim:
            raise DimensionMismatchError(
                f"family member {k} has dimension {member.dim}, expected {dim}"
            )
    total = sum(member.operator for member in members)
    residual = float(np.abs(total - np.eye(dim)).max())
    passed = residual <= policy.POVM_TOL

    probabilities = None
    total_probability = None
    if rho is not None:
        if rho.dim != dim:
            raise DimensionMismatchError(
                f"density operator dim {rho.dim} vs family dimension {dim}"
            )
        raw = [complex(np.trace(rho.matrix @ member.operator)) for member in members]
        probabilities = tuple(qcore.real_probabilities(raw, "member probability").tolist())
        total_probability = float(sum(probabilities))
    return PovmReport(residual, passed, probabilities, total_probability)


@dataclass(frozen=True, eq=False)
class PovmFamily:
    """Validated positive operator-valued measure over multimode events."""

    members: tuple[GeneralizedProposition, ...]

    def __post_init__(self):
        members = tuple(self.members)
        qcore.require_within(validate_povm(members).residual, policy.POVM_TOL,
                             "family breaks the resolution of unity: residual {measured:.3e} "
                             "exceeds {bound:.0e}")
        object.__setattr__(self, "members", members)

    @property
    def dim(self) -> int:
        return self.members[0].dim

    def __len__(self) -> int:
        return len(self.members)

    @classmethod
    def from_states(cls, states: Sequence[MultimodeState]) -> "PovmFamily":
        return cls(tuple(GeneralizedProposition.from_state(s) for s in states))
