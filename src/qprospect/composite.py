"""Composite events and prospect probabilities.

A composite state lives on the tensor product of two measured spaces and
is written in the product of the two measurement eigenbases, the first
factor owning the slow index.  It is an ordinary statistical operator on
that product: :class:`CompositeState` is a ``DensityOperator`` that also
knows its factor dimensions, and can be passed wherever a
``DensityOperator`` is expected.  Elementary joint events ``A_n (x) B_alpha``
have the diagonal elements as probabilities.  A *prospect* pairs a sharp
event in the first factor with a multimode event in the second; its
probability splits into a classical (diagonal) part and an interference
part contributed by distinct-mode coherences.

Because the prospect operators for a fixed multimode event resolve only
``1_A (x) P_B`` rather than the full identity, raw prospect probabilities
over a lattice do not sum to one.  The ``normalize`` flag conditions the
lattice on the multimode event: probabilities are rescaled by their sum,
the classical parts by theirs, and the interference part is the exact
difference, which makes the lattice a proper distribution whose classical
part is itself a distribution and whose interference terms sum to zero.
"""

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import policy, qcore
from .errors import (
    DimensionMismatchError,
    NumericContractError,
    ValidationError,
    ZeroProbabilityError,
)
from .events import DensityOperator, MultimodeState, _trusted, multimode_probability


@dataclass(frozen=True, eq=False)
class CompositeState(DensityOperator):
    """Density operator on a bipartite space with factor dimensions ``dims``.

    A :class:`DensityOperator` with the same checks and the same kept
    ``spectrum``, so it goes wherever one is expected.  Every check runs
    under the name "composite state", and ``dims`` must match the matrix.
    """

    dims: tuple[int, int]

    def __post_init__(self):
        da, db = int(self.dims[0]), int(self.dims[1])
        if da < 1 or db < 1:
            raise ValidationError(f"factor dimensions must be positive, got {self.dims}")
        m, w = qcore.validate_state(self.matrix, "composite state", (da, db))
        object.__setattr__(self, "matrix", qcore.freeze(m))
        object.__setattr__(self, "spectrum", qcore.freeze(w))
        object.__setattr__(self, "dims", (da, db))

    def block(self, m: int, n: int) -> np.ndarray:
        """The ``<m .| rho |n .>`` block, a ``db x db`` matrix over the second factor."""
        da, db = self.dims
        if not (0 <= m < da and 0 <= n < da):
            raise ValidationError(f"block indices ({m}, {n}) out of range for dim {da}")
        return self.matrix[m * db:(m + 1) * db, n * db:(n + 1) * db]

    def element(self, m: int, alpha: int, n: int, beta: int) -> complex:
        """Matrix element ``<m alpha| rho |n beta>``."""
        da, db = self.dims
        return complex(self.matrix[m * db + alpha, n * db + beta])

    def reduced(self, keep: int) -> DensityOperator:
        """Reduced state of one factor (0 keeps the first, 1 the second)."""
        return DensityOperator(qcore.partial_trace(self.matrix, self.dims, keep))

    @classmethod
    def from_amplitudes(cls, c) -> "CompositeState":
        """Pure composite state from an amplitude matrix ``c[n, alpha]``.

        The flattened amplitudes are the coefficients of the state in the
        ``|n alpha>`` basis, so the density matrix elements are
        ``c[m, a] * conj(c[n, b])``.

        Checked here, in this order: ``c`` is 2-d and nonempty, its entries
        are finite, its total squared amplitude is 1 within the tolerance,
        the state dimension ``c.size`` is within ``MAX_DIM`` (before the
        ``D x D`` matrix is built), and the built matrix has unit trace.
        Held by construction and not checked: hermiticity and positivity
        (see :func:`qcore.pure_state`); the spectrum is ``(0, ..., 0, Tr)``.
        """
        c = qcore.as_amplitude_matrix(c, policy.tolerance())
        return _trusted(
            cls, *qcore.pure_state(c.reshape(-1), "composite state", c.shape), dims=c.shape
        )

    @classmethod
    def product(cls, rho_a: DensityOperator, rho_b: DensityOperator) -> "CompositeState":
        """Uncorrelated composite state of two factors.

        Runs every check of the constructor except the decomposition: the
        spectrum is the sorted product of the factors' kept spectra (see
        :func:`qcore.product_state`).
        """
        dims = (rho_a.dim, rho_b.dim)
        return _trusted(
            cls,
            *qcore.product_state(rho_a.matrix, rho_a.spectrum, rho_b.matrix, rho_b.spectrum,
                                 "composite state", dims),
            dims=dims,
        )


def joint_probability(state: CompositeState, n: int, alpha: int) -> float:
    """Probability of the elementary composite event ``A_n (x) B_alpha``."""
    da, db = state.dims
    if not (0 <= n < da and 0 <= alpha < db):
        raise ValidationError(
            f"event indices ({n}, {alpha}) out of range for dims {state.dims}"
        )
    raw = state.element(n, alpha, n, alpha)
    return qcore.real_probability(raw, f"p(A_{n} x B_{alpha})")


def joint_table(state: CompositeState) -> np.ndarray:
    """All elementary joint probabilities as a ``dim_a x dim_b`` table.

    The diagonal of the state, window-checked and clamped entrywise like
    :func:`joint_probability`.
    """
    da, db = state.dims
    return qcore.real_probabilities(
        state.matrix.diagonal().reshape(da, db), "joint probability"
    )


def marginals(state: CompositeState) -> tuple[np.ndarray, np.ndarray]:
    """Marginal distributions of both factors.

    Computed by summing the joint table, then verified against the
    diagonals of the two partial traces; the routes must agree to 1e-12.
    """
    table = joint_table(state)
    pa, pb = table.sum(axis=1), table.sum(axis=0)
    ra = qcore.partial_trace(state.matrix, state.dims, 0).diagonal().real
    rb = qcore.partial_trace(state.matrix, state.dims, 1).diagonal().real
    qcore.require_within(np.maximum(np.abs(pa - ra).max(), np.abs(pb - rb).max()), 1e-12,
                         "marginal routes disagree: table sums vs partial traces by "
                         "{measured:.3e}", NumericContractError)
    return pa, pb


def bayes_conditional(state: CompositeState, n: int, alpha: int) -> float:
    """Conditional probability of ``A_n`` given the sharp event ``B_alpha``."""
    joint = joint_probability(state, n, alpha)
    pb = marginals(state)[1][alpha]
    if pb <= policy.ZERO_EVENT_TOL:
        raise ZeroProbabilityError(
            f"cannot condition on B_{alpha}: probability {pb!r} is numerically zero"
        )
    return qcore.real_probability(joint / pb, "conditional probability")


@dataclass(frozen=True, eq=False)
class Prospect:
    """A sharp event in the first factor under an uncertain second factor."""

    n: int
    b: MultimodeState

    def __post_init__(self):
        if self.n < 0:
            raise ValidationError(f"prospect index must be nonnegative, got {self.n}")


@dataclass(frozen=True, eq=False)
class ProspectOperator:
    """The rank-one positive operator ``P_n (x) |B><B|`` testing a prospect."""

    operator: np.ndarray
    dims: tuple[int, int]

    def __post_init__(self):
        da, db = self.dims
        m, _ = qcore.validate_rank_one(self.operator, "prospect operator", (da, db))
        object.__setattr__(self, "operator", qcore.freeze(m))
        object.__setattr__(self, "dims", (int(da), int(db)))


def _require_fits(n: int, b: MultimodeState, dims: tuple[int, int]):
    """A prospect ``(n, b)`` must index the first factor and span the second."""
    if n >= dims[0]:
        raise ValidationError(f"prospect index {n} out of range for dim {dims[0]}")
    if b.dim != dims[1]:
        raise DimensionMismatchError(f"multimode state dim {b.dim} vs second factor dim {dims[1]}")


def prospect_operator(prospect: Prospect, dims: tuple[int, int]) -> ProspectOperator:
    """Build the testing operator of a prospect on a space of given dims.

    ``P_n (x) |B><B|`` is ``|n B><n B|``: Hermitian, positive and of rank
    one by construction, with ``|B><B|`` from :func:`qcore.rank_one`, so it
    is not decomposed.  The product's size cap and finiteness are checked.
    """
    da, db = int(dims[0]), int(dims[1])
    _require_fits(prospect.n, prospect.b, (da, db))
    pn = np.zeros((da, da), dtype=complex)
    pn[prospect.n, prospect.n] = 1.0
    pb, _ = qcore.rank_one(prospect.b.vector())
    return _trusted(ProspectOperator, qcore.tensor_product(pn, pb), (da, db))


class ResolutionResiduals(NamedTuple):
    """How far a prospect family is from resolving identities.

    ``block`` measures the family sum against ``1_A (x) P_B`` (zero up to
    rounding by construction); ``identity`` measures it against the full
    identity and is genuinely large unless the multimode operator is
    itself the identity.  Reported for inspection, never asserted.
    """

    block: float
    identity: float


def resolution_residuals(b: MultimodeState, dim_a: int) -> ResolutionResiduals:
    total = sum(
        prospect_operator(Prospect(n, b), (dim_a, b.dim)).operator
        for n in range(dim_a)
    )
    block = qcore.tensor_product(np.eye(dim_a, dtype=complex), qcore.rank_one(b.vector())[0])
    return ResolutionResiduals(
        float(np.abs(total - block).max()),
        float(np.abs(total - np.eye(dim_a * b.dim)).max()),
    )


@dataclass(frozen=True)
class ProspectProbability:
    """Prospect probability with its classical/interference split.

    ``p = f + q`` holds by construction.  For raw (unnormalized) values the
    scale is set by the squared norm of the multimode state; normalized
    values make the lattice a proper distribution.
    """

    p: float
    f: float
    q: float
    normalized: bool = False

    def __post_init__(self):
        for name, value in (("p", self.p), ("f", self.f), ("q", self.q)):
            if not np.isfinite(value):
                raise ValidationError(f"prospect probability field {name} is not finite")
        scale = max(1.0, abs(self.p), abs(self.f), abs(self.q))
        gap = self.p - (self.f + self.q)
        qcore.require_within(abs(gap), 1e-12 * scale, "prospect split broken: p - (f + q) = "
                             "{gap:.3e}", NumericContractError, gap=gap)
        qcore.require_within(-self.f, 1e-12, "classical part is negative: f = {f!r}",
                             NumericContractError, f=self.f)
        if self.normalized:
            w = policy.PROBABILITY_TOL
            if not -w <= self.p <= 1.0 + w:
                raise NumericContractError(
                    f"normalized prospect probability {self.p!r} outside [0, 1]"
                )
            if not -1.0 - w <= self.q <= 1.0 + w:
                raise NumericContractError(
                    f"normalized interference {self.q!r} outside [-1, 1]"
                )


def _components(state: CompositeState, b: MultimodeState, ns) -> tuple[np.ndarray, ...]:
    """Raw ``p``, ``f`` and ``q`` of the prospects ``(n, b)`` for each ``n`` in ``ns``.

    Every diagonal block ``<n .| rho |n .>`` is read at once, rewritten in
    the mode basis of ``b`` and split by :func:`qcore.mode_split`.
    """
    _require_fits(max(ns), b, state.dims)
    da, db = state.dims
    e = b.basis.eigenbasis
    blocks = state.matrix.reshape(da, db, da, db)[ns, :, ns, :]
    raw, f, q = qcore.mode_split(b.coefficients, e.conj().T @ blocks @ e)
    window = policy.PROBABILITY_TOL * max(1.0, b.gram())
    broken = np.flatnonzero(~(np.abs(raw.imag) <= window))
    if broken.size:
        raise NumericContractError(
            f"prospect probability has imaginary residue {raw.imag[broken[0]]:.3e}"
        )
    return raw.real, f, q


def prospect_lattice(
    state: CompositeState, b: MultimodeState, normalize: bool = True
) -> list[ProspectProbability]:
    """Prospect probabilities for every event index of the first factor.

    With ``normalize`` set (the default for lattice-level queries) the
    probabilities are conditioned on the multimode event: ``p`` is rescaled
    by the lattice total, ``f`` by the total classical weight, and ``q`` is
    their exact difference.  A lattice whose total weight is numerically
    zero cannot be normalized and raises a degenerate-lattice error.
    """
    p, f, q = _components(state, b, np.arange(state.dims[0]))
    if not normalize:
        return [
            ProspectProbability(float(pn), float(fn), float(qn), normalized=False)
            for pn, fn, qn in zip(p, f, q)
        ]
    total_p, total_f = float(p.sum()), float(f.sum())
    if total_p <= policy.ZERO_EVENT_TOL or total_f <= policy.ZERO_EVENT_TOL:
        raise ZeroProbabilityError(
            f"degenerate lattice: total prospect weight {total_p!r} "
            f"(classical {total_f!r}) is numerically zero"
        )
    pn = p / total_p
    fn = f / total_f
    return [
        ProspectProbability(float(pv), float(fv), float(pv - fv), normalized=True)
        for pv, fv in zip(pn, fn)
    ]


def prospect_probability(
    state: CompositeState, prospect: Prospect, normalize: bool = True
) -> ProspectProbability:
    """Probability of one prospect, split into classical and interference parts.

    See :func:`prospect_lattice` for the meaning of ``normalize``; the
    normalization constants are always lattice-wide, so a normalized single
    prospect equals the corresponding entry of the normalized lattice.
    """
    if normalize:
        _require_fits(prospect.n, prospect.b, state.dims)
        return prospect_lattice(state, prospect.b, normalize=True)[prospect.n]
    p, f, q = _components(state, prospect.b, [prospect.n])
    return ProspectProbability(float(p[0]), float(f[0]), float(q[0]), normalized=False)


def conditional_under_uncertainty(state: CompositeState, prospect: Prospect) -> float:
    """Probability of ``A_n`` conditioned on an uncertain multimode event.

    The numerator is the raw prospect probability; the denominator is the
    multimode event probability evaluated on the reduced second factor,
    interference included.  For a single-mode ``b`` this reduces to the
    sharp conditional, and for product states it returns the unconditional
    probability of ``A_n`` independently of ``b``.
    """
    numerator = float(_components(state, prospect.b, [prospect.n])[0][0])
    denominator = multimode_probability(state.reduced(1), prospect.b).p
    if denominator <= policy.ZERO_EVENT_TOL:
        raise ZeroProbabilityError(
            f"cannot condition on multimode event of probability {denominator!r}"
        )
    return qcore.real_probability(numerator / denominator, "conditional probability")


@dataclass(frozen=True)
class ClassicalLimitReport:
    """Numbers behind the classical-limit property of a normalized lattice."""

    sum_f: float
    sum_q: float
    q_min: float
    q_max: float
    values: tuple[ProspectProbability, ...]
    passed: bool


def classical_limit_check(
    lattice: Sequence[Prospect], state: CompositeState
) -> ClassicalLimitReport:
    """Check that a complete prospect lattice behaves classically in the mean.

    The lattice must cover every event index of the first factor exactly
    once and share a single multimode state.  After normalization the
    classical parts must form a distribution and the interference terms
    must cancel: ``|sum q| <= 1e-10``, each ``q`` in [-1, 1], each ``f``
    in [0, 1].
    """
    prospects = list(lattice)
    da, _ = state.dims
    if sorted(p.n for p in prospects) != list(range(da)):
        raise ValidationError(
            f"incomplete lattice: indices {sorted(p.n for p in prospects)} "
            f"must cover 0..{da - 1} exactly once"
        )
    first = prospects[0].b
    for p in prospects[1:]:
        if p.b.dim != first.dim or not np.array_equal(
            p.b.coefficients, first.coefficients
        ) or not np.array_equal(p.b.basis.eigenbasis, first.basis.eigenbasis):
            raise ValidationError("lattice prospects must share one multimode state")

    ordered = tuple(prospect_lattice(state, first, normalize=True))
    sum_f = float(sum(v.f for v in ordered))
    sum_q = float(sum(v.q for v in ordered))
    q_min = min(v.q for v in ordered)
    q_max = max(v.q for v in ordered)
    w = policy.PROBABILITY_TOL
    passed = (
        abs(sum_q) <= 1e-10
        and all(-1.0 - w <= v.q <= 1.0 + w for v in ordered)
        and all(-w <= v.f <= 1.0 + w for v in ordered)
    )
    return ClassicalLimitReport(sum_f, sum_q, q_min, q_max, ordered, passed)
