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
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import policy, qcore
from .errors import NumericContractError, ValidationError


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

    The idempotence defects of the eigenvector projectors
    (:func:`projector_of`) depend on the eigenbasis alone: all ``d`` are
    found in one O(d^2) pass on the first projector built, and kept.
    """

    eigenvalues: np.ndarray
    eigenbasis: np.ndarray
    label: str = "A"
    _projector_defects: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        basis = np.array(qcore.as_complex_matrix(self.eigenbasis, "eigenbasis"))
        values = np.array(qcore._require_numbers(
            self.eigenvalues, "eigenvalue array", real=True,
            shape=lambda v: qcore._require_equal(v.size, basis.shape[0],
                                                 "{0} eigenvalues vs eigenbasis of dimension {1}"),
        )).reshape(-1)
        # the least gap between sorted neighbours, the least of all pairwise
        # gaps bit for bit (rounded subtraction is monotone); inf when d = 1
        gap = np.diff(np.sort(values), prepend=-np.inf).min()
        if not gap > policy.EIGENVALUE_GAP:
            raise ValidationError(
                f"observable {self.label!r} is degenerate: eigenvalue gap "
                f"{gap:.3e} at or below {policy.EIGENVALUE_GAP:.0e}"
            )
        qcore.require_unitary(basis, f"eigenbasis of {self.label!r}")
        qcore._set_fields(self, eigenvalues=values, eigenbasis=basis)

    def __getattr__(self, name):
        # reached only for an unset attribute: the defects before the first projector
        if name != "_projector_defects":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return qcore._set_fields(
            self, _projector_defects=_idempotence_defects(self.eigenbasis))._projector_defects

    @property
    def dim(self) -> int:
        return self.eigenbasis.shape[0]

    def vector(self, n: int) -> np.ndarray:
        """Eigenvector for outcome index ``n``."""
        qcore._require_indices((n,), (self.dim,), "outcome index {0} out of range for dim {1}")
        return self.eigenbasis[:, n]

    def operator(self) -> np.ndarray:
        """Dense Hermitian matrix ``sum_n A_n |n><n|``."""
        return (self.eigenbasis * self.eigenvalues) @ self.eigenbasis.conj().T

    @classmethod
    def standard(cls, dim: int, label: str = "N", eigenvalues=None) -> "Observable":
        """Observable diagonal in the computational basis (values 0..dim-1)."""
        qcore._require_size(dim, 0, "dim", "dim must be nonnegative, got {0}")
        qcore._require_cap(dim, "eigenbasis")
        if eigenvalues is None:
            eigenvalues = np.arange(dim, dtype=float)
        return cls(eigenvalues, np.eye(dim, dtype=complex), label)


def basis_change(obs_a: Observable, obs_b: Observable) -> np.ndarray:
    """Default transform between two observables' eigenbases, ``A^dag B``.

    Maps coordinates in the eigenbasis of ``obs_b`` to coordinates in the
    eigenbasis of ``obs_a``: entry ``[n, alpha]`` is ``<n|alpha>``.  Unitary
    whenever both bases are orthonormal.
    """
    qcore._require_instance(obs_a, Observable, "obs_a")
    qcore._require_instance(obs_b, Observable, "obs_b")
    qcore._require_equal(obs_a.dim, obs_b.dim, "observables {2!r} and {3!r} act on different "
                         "spaces", obs_a.label, obs_b.label)
    return obs_a.eigenbasis.conj().T @ obs_b.eigenbasis


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _trusted(cls, *values, **fields):
    """An instance of a validated class from values whose checks already hold.

    The one way past ``__post_init__``, for states and operators whose
    spectrum is known in closed form (:mod:`qcore` ``pure_state``,
    ``product_state``, ``rank_one``; ``channels.evolve``; eigenvector
    projectors in :func:`projector_of`) or found on the spot
    (:func:`_reduced_state`).  Values fill the dataclass fields in order or
    by name; arrays are frozen, not copied.  A state's ``spectrum`` is
    always given: a ``None`` would hide it from the first read that finds it.
    """
    return qcore._set_fields(object.__new__(cls), **dict(zip(_field_names(cls), values)), **fields)


def _reduced_state(r: np.ndarray) -> "DensityOperator":
    """``DensityOperator(r)`` for a reduction ``r`` of a validated state, spectrum found now.

    Every check runs, but positivity is read from an ``eigvalsh`` made here:
    the spectrum of a reduction is always read next (a readout's product,
    ``entanglement_production``), and at a factor's dimension one
    ``eigvalsh`` costs less than a factorization followed by it.
    """
    return _trusted(DensityOperator, *qcore.validate_state(
        r, "density operator", spectrum=np.linalg.eigvalsh(r)))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Statistical operator: Hermitian, unit trace, positive-semidefinite.

    ``spectrum`` holds the ascending eigenvalues.  A state whose positivity
    was proved without them (:func:`qcore.validate_state`) finds them by
    ``eigvalsh`` on the first read and keeps them; a state built with them
    known in closed form, or by the check itself, has them from the start.
    """

    matrix: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m, w = qcore.validate_state(self.matrix, "density operator")
        qcore._set_fields(self, matrix=m, **({} if w is None else {"spectrum": w}))

    def __getattr__(self, name):
        # reached only for an unset attribute: the spectrum before its first read
        if name != "spectrum":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return qcore._set_fields(self, spectrum=np.linalg.eigvalsh(self.matrix)).spectrum

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        """``Tr rho^2``, read as ``sum |rho_ij|^2`` of the Hermitian matrix in O(d^2)."""
        m = self.matrix
        return float(np.vdot(m, m).real)

    @classmethod
    def from_pure(cls, vector) -> "DensityOperator":
        """Pure state ``|v><v|`` of a unit vector, without a decomposition.

        The vector's norm must be 1 within ``NORM_TOL`` and its squared norm,
        the built trace, within the tolerance; every other check, and why
        hermiticity and positivity need none, is :func:`qcore.pure_state`'s.
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
        qcore._require_size(dim, 0, "dim", "dim must be nonnegative, got {0}")
        qcore._require_cap(dim, "density operator")
        return DensityOperator(np.eye(dim, dtype=complex) / dim)


@dataclass(frozen=True, eq=False)
class Projector:
    """Rank-one projector testing a single event, tagged with its origin.

    A supplied matrix is checked for hermiticity and idempotence, in
    O(d^3); :func:`projector_of` holds an eigenvector's to the tolerance
    in O(1), from a defect its observable keeps.
    """

    matrix: np.ndarray
    source: tuple[str, int] = ("", -1)

    def __post_init__(self):
        m = np.array(qcore.require_hermitian(self.matrix, "projector"))
        _require_idempotent(float(np.abs(m @ m - m).max()))
        qcore._set_fields(self, matrix=m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def projector_of(obs: Observable, n: int) -> Projector:
    """Projector ``|v><v|`` on the ``n``-th eigenvector ``v`` of ``obs``.

    Hermitian by construction (see :func:`qcore.pure_state`), finite and
    within the cap as the validated eigenbasis is.  Idempotence is checked
    exactly: ``P^2 - P = (<v|v> - 1) P``, so ``max |P^2 - P|`` is
    ``|<v|v> - 1| max_i |v_i|^2``, the diagonal of ``P`` read
    (:func:`_idempotence_defects`).  That defect is kept on ``obs`` and held
    to the current :func:`policy.tolerance` on every call, so an observable
    built under a looser :func:`policy.tolerance_scope` may break it.
    """
    if not isinstance(obs, Observable):  # inline: the sequential route calls this per entry
        raise ValidationError(f"obs must be an Observable, got {type(obs).__name__}")
    v = obs.vector(n)
    _require_idempotent(obs._projector_defects[n])
    return _trusted(Projector, v[:, None] * v.conj()[None, :], (obs.label, n))


def _idempotence_defects(basis: np.ndarray) -> np.ndarray:
    """``|<v|v> - 1| max_i |v_i|^2`` for every column ``v`` of ``basis``, in O(d^2).

    Bit for bit the per-projector value read from the diagonal of
    ``np.outer(v, v.conj())``: ``|v_i|^2`` is the real part of ``v_i conj(v_i)``,
    and each contiguous row of the transpose is summed pairwise as that
    diagonal is.
    """
    w = np.ascontiguousarray((basis * basis.conj()).real.T)
    return np.abs(w.sum(axis=1) - 1.0) * w.max(axis=1)


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
        if not isinstance(self.basis, Observable):
            raise ValidationError(
                f"multimode basis must be an Observable, got {type(self.basis).__name__}")
        b = np.array(qcore.as_complex_vector(self.coefficients, "coefficients"))
        qcore._require_equal(b.size, self.basis.dim, "{0} coefficients vs basis of dimension {1}")
        if not np.any(b != 0):
            raise ValidationError("multimode state needs at least one nonzero coefficient")
        qcore._set_fields(self, coefficients=b)
        qcore._require_real(self.gram(), "multimode state norm <B|B>",
                            "multimode state norm <B|B> = {x} is not finite")

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
        qcore._set_fields(self, operator=m)

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
        qcore._require_instance(state, MultimodeState, "state")
        m, w = qcore.rank_one(state.vector())
        qcore.as_complex_matrix(m, "generalized proposition")
        _require_weight(w)
        return _trusted(cls, m)


def _require_weight(w: np.ndarray):
    if not w[-1] > policy.tolerance():
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
    qcore._require_instance(rho, DensityOperator, "rho")
    qcore._require_instance(state, MultimodeState, "state")
    qcore._require_equal(rho.dim, state.dim, "density operator dim {0} vs multimode state dim {1}")
    e = state.basis.eigenbasis
    m = e.conj().T @ rho.matrix @ e  # <a|rho|b> in the mode basis
    direct, classical, quantum = qcore.mode_split(state.coefficients, m)
    direct, classical, quantum = complex(direct), float(classical), float(quantum)

    gram = state.gram()
    gap = direct.real - (classical + quantum)
    qcore.require_within(abs(gap), policy.PROBABILITY_TOL * max(1.0, gram),
                         "multimode decomposition broken: p - (classical + quantum) = {gap:.3e}",
                         NumericContractError, gap=gap)
    p = qcore.real_probability(direct, "multimode probability", gram)
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
    qcore._require_instance(members, Iterable, "members")
    members = tuple(members)
    if not members:
        raise ValidationError("empty proposition family")
    for k, member in enumerate(members):
        qcore._require_instance(member, GeneralizedProposition, f"family member {k}")
        qcore._require_equal(member.dim, members[0].dim,
                             "family member {2} has dimension {0}, expected {1}", k)
    dim = members[0].dim
    total = sum(member.operator for member in members)
    residual = float(np.abs(total - np.eye(dim)).max())
    passed = residual <= policy.POVM_TOL

    probabilities = None
    total_probability = None
    if rho is not None:
        qcore._require_instance(rho, DensityOperator, "rho")
        qcore._require_equal(rho.dim, dim, "density operator dim {0} vs family dimension {1}")
        raw = [complex(np.einsum("ij,ji->", rho.matrix, member.operator)) for member in members]
        probabilities = tuple(qcore.real_probabilities(raw, "member probability").tolist())
        total_probability = float(sum(probabilities))
    return PovmReport(residual, passed, probabilities, total_probability)


@dataclass(frozen=True, eq=False)
class PovmFamily:
    """Validated positive operator-valued measure over multimode events."""

    members: tuple[GeneralizedProposition, ...]

    def __post_init__(self):
        qcore._require_instance(self.members, Iterable, "members")
        members = tuple(self.members)
        qcore.require_within(validate_povm(members).residual, policy.POVM_TOL,
                             "family breaks the resolution of unity: residual {measured:.3e} "
                             "exceeds {bound:.0e}")
        qcore._set_fields(self, members=members)

    @property
    def dim(self) -> int:
        return self.members[0].dim

    def __len__(self) -> int:
        return len(self.members)

    @classmethod
    def from_states(cls, states: Sequence[MultimodeState]) -> "PovmFamily":
        qcore._require_instance(states, Iterable, "states")
        return cls(tuple(GeneralizedProposition.from_state(s) for s in states))
