"""Composite events and prospect probabilities.

A composite state lives on the tensor product of two measured spaces and
is written in the product of the two measurement eigenbases, the first
factor owning the slow index.  It is an ordinary statistical operator on
that product: :class:`CompositeState` is a ``DensityOperator`` that also
knows its factor dimensions, and can be passed wherever a
``DensityOperator`` is expected.  A pure state built from its amplitude
matrix ``C`` stays factored: the joint table, the blocks, the reductions and
the prospects are read from ``C``, and the ``D x D`` matrix is built only
when ``matrix`` is first read.  Elementary joint events ``A_n (x) B_alpha``
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

import numpy as np

from . import policy, qcore
from .errors import NumericContractError, ValidationError
from .events import DensityOperator, MultimodeState, _reduced_state, _trusted, multimode_probability


@dataclass(frozen=True, eq=False)
class CompositeState(DensityOperator):
    """Density operator on a bipartite space with factor dimensions ``dims``.

    A :class:`DensityOperator` with the same checks and the same kept
    ``spectrum``, so it goes wherever one is expected.  Every check runs
    under the name "composite state", and ``dims`` must match the matrix.
    """

    dims: tuple[int, int]

    # the checked amplitude matrix of a state built by from_amplitudes, whose
    # matrix is built on its first read; None for every other state
    _amplitudes = None

    def __post_init__(self):
        da, db = qcore._factor_dims(self.dims)
        if da < 1 or db < 1:
            raise ValidationError(f"factor dimensions must be positive, got {self.dims}")
        m, w = qcore.validate_state(self.matrix, "composite state", (da, db))
        qcore._set_fields(self, matrix=m, dims=(da, db), **({} if w is None else {"spectrum": w}))

    def __getattr__(self, name):
        # reached only for an unset attribute: a pure state's matrix before its first
        # read here, every other name (a dense state's spectrum) in the parent
        c = self._amplitudes
        if name != "matrix" or c is None:
            return super().__getattr__(name)
        v = c.reshape(-1)
        return qcore._set_fields(self, matrix=np.outer(v, v.conj())).matrix

    @property
    def dim(self) -> int:
        return self.dims[0] * self.dims[1]

    def block(self, m: int, n: int) -> np.ndarray:
        """The ``<m .| rho |n .>`` block, a ``db x db`` matrix over the second factor."""
        da, db = self.dims
        qcore._require_indices((m, n), (da, da),
                               "block indices ({0}, {1}) out of range for dim {2}")
        c = self._amplitudes
        if c is not None:
            return qcore.freeze(np.outer(c[m], c[n].conj()))
        return self.matrix[m * db:(m + 1) * db, n * db:(n + 1) * db]

    def element(self, m: int, alpha: int, n: int, beta: int) -> complex:
        """Matrix element ``<m alpha| rho |n beta>``."""
        da, db = self.dims
        qcore._require_indices((m, alpha, n, beta), (da, db, da, db), "element indices "
                               "({0}, {1}, {2}, {3}) out of range for dims ({4}, {5})")
        c = self._amplitudes
        if c is not None:
            return complex(np.multiply(c[m, alpha], c[n, beta].conj()))
        return complex(self.matrix[m * db + alpha, n * db + beta])

    def reduced(self, keep: int) -> DensityOperator:
        """Reduced state of one factor (0 keeps the first, 1 the second)."""
        return _reduced_state(self._reduction(keep))

    # a pure state's reads come from C, bit for bit the dense route's but for
    # the reductions, a few ulp off its einsum
    def _diagonal(self) -> np.ndarray:
        """The diagonal of ``matrix``."""
        c = self._amplitudes
        if c is None:
            return self.matrix.diagonal()
        v = c.reshape(-1)
        return v * v.conj()

    def _diagonal_blocks(self, ns) -> np.ndarray:
        """The blocks ``<n .| rho |n .>`` for each ``n`` in ``ns``, stacked."""
        c = self._amplitudes
        if c is None:
            da, db = self.dims
            return self.matrix.reshape(da, db, da, db)[ns, :, ns, :]
        rows = c[ns]
        return rows[:, :, None] * rows.conj()[:, None, :]

    def _reduction(self, keep: int) -> np.ndarray:
        """The matrix of :meth:`reduced`: ``C C^dag`` or ``(C^dag C)^T`` of a pure state."""
        c = self._amplitudes
        if c is None:
            return qcore._partial_trace(self.matrix, self.dims, keep)
        qcore._require_indices((keep,), (2,), "keep must be 0 or 1, got {0!r}")
        return c @ c.conj().T if keep == 0 else c.T @ c.conj()

    @classmethod
    def from_amplitudes(cls, c) -> "CompositeState":
        """Pure composite state from an amplitude matrix ``c[n, alpha]``.

        The flattened amplitudes are the coefficients of the state in the
        ``|n alpha>`` basis.  ``c`` must be 2-d, nonempty and finite, with
        ``sum |c|^2`` 1 within the tolerance; every other check is
        :func:`qcore.pure_state`'s.  The state keeps a private copy of ``c``
        and builds ``matrix`` on its first read, with no check at that read.
        """
        c = np.array(qcore.as_amplitude_matrix(c, policy.tolerance()), order="C")
        _, w = qcore._pure_spectrum(c.reshape(-1), "composite state", c.shape)
        return _trusted(cls, spectrum=w, dims=c.shape, _amplitudes=c)

    @classmethod
    def product(cls, rho_a: DensityOperator, rho_b: DensityOperator) -> "CompositeState":
        """Uncorrelated composite state of two factors.

        Runs every check of the constructor, but reads positivity from the
        sorted product of the factors' kept spectra (see
        :func:`qcore.product_state`), which the state keeps.
        """
        dims = (rho_a.dim, rho_b.dim)
        return _trusted(
            cls,
            *qcore.product_state(rho_a.matrix, rho_a.spectrum, rho_b.matrix, rho_b.spectrum,
                                 "composite state", dims),
            dims=dims,
        )


def _dims(state: CompositeState) -> tuple[int, int]:
    """The factor dimensions of ``state``, which must be a :class:`CompositeState`."""
    qcore._require_instance(state, CompositeState, "state")
    return state.dims


def joint_probability(state: CompositeState, n: int, alpha: int) -> float:
    """Probability of the elementary composite event ``A_n (x) B_alpha``."""
    da, db = _dims(state)
    qcore._require_indices((n, alpha), (da, db),
                           "event indices ({0}, {1}) out of range for dims ({2}, {3})")
    raw = state.element(n, alpha, n, alpha)
    return qcore.real_probability(raw, f"p(A_{n} x B_{alpha})")


def joint_table(state: CompositeState) -> np.ndarray:
    """All elementary joint probabilities as a ``dim_a x dim_b`` table.

    The diagonal of the state, window-checked and clamped entrywise like
    :func:`joint_probability`.
    """
    da, db = _dims(state)
    return qcore.real_probabilities(state._diagonal().reshape(da, db), "joint probability")


def marginals(state: CompositeState) -> tuple[np.ndarray, np.ndarray]:
    """Marginal distributions of both factors.

    Computed by summing the joint table, then verified against the
    diagonals of the two reductions; the routes must agree to 1e-12.  On a
    pure state the reductions are the matrix products ``C C^dag`` and
    ``(C^dag C)^T``, a different kernel from the table's entrywise
    ``|C|^2`` and its sums.
    """
    table = joint_table(state)
    pa, pb = table.sum(axis=1), table.sum(axis=0)
    ra, rb = (state._reduction(keep).diagonal().real for keep in (0, 1))
    qcore.require_within(np.maximum(np.abs(pa - ra).max(), np.abs(pb - rb).max()), 1e-12,
                         "marginal routes disagree: table sums vs partial traces by "
                         "{measured:.3e}", NumericContractError)
    return pa, pb


def bayes_conditional(state: CompositeState, n: int, alpha: int) -> float:
    """Conditional probability of ``A_n`` given the sharp event ``B_alpha``."""
    joint = joint_probability(state, n, alpha)
    pb = marginals(state)[1][alpha]
    qcore.require_event(pb, "cannot condition on B_{alpha}: probability {p!r} is numerically "
                        "zero", alpha=alpha)
    return qcore.real_probability(joint / pb, "conditional probability")


@dataclass(frozen=True, eq=False)
class Prospect:
    """A sharp event in the first factor under an uncertain second factor."""

    n: int
    b: MultimodeState

    def __post_init__(self):
        qcore._require_indices((self.n,), (np.inf,), "prospect index must be nonnegative, got {0}")
        qcore._require_instance(self.b, MultimodeState, "prospect b")


@dataclass(frozen=True, eq=False)
class ProspectOperator:
    """The rank-one positive operator ``P_n (x) |B><B|`` testing a prospect."""

    operator: np.ndarray
    dims: tuple[int, int]

    def __post_init__(self):
        dims = qcore._factor_dims(self.dims)
        m, _ = qcore.validate_rank_one(self.operator, "prospect operator", dims)
        qcore._set_fields(self, operator=m, dims=dims)


def _require_fits(n: int, b: MultimodeState, dims: tuple[int, int]):
    """A prospect ``(n, b)`` must index the first factor and span the second."""
    qcore._require_instance(b, MultimodeState, "multimode state b")
    qcore._require_indices((n,), dims[:1], "prospect index {0} out of range for dim {1}")
    qcore._require_equal(b.dim, dims[1], "multimode state dim {0} vs second factor dim {1}")


def prospect_operator(prospect: Prospect, dims: tuple[int, int]) -> ProspectOperator:
    """Build the testing operator of a prospect on a space of given dims.

    ``P_n (x) |B><B|`` is ``|n B><n B|``: Hermitian, positive and of rank
    one by construction, with ``|B><B|`` from :func:`qcore.rank_one`, so it
    is not decomposed.  The product's size cap and finiteness are checked.
    """
    da, db = qcore._factor_dims(dims)
    _require_fits(prospect.n, prospect.b, (da, db))
    pn = np.zeros((da, da), dtype=complex)
    pn[prospect.n, prospect.n] = 1.0
    pb, _ = qcore.rank_one(prospect.b.vector())
    return _trusted(ProspectOperator, qcore.tensor_product(pn, pb), (da, db))


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
        for name in ("p", "f", "q"):
            qcore._require_real(getattr(self, name), f"prospect probability field {name}",
                                "{what} is not finite")
        qcore._require_bool(self.normalized, "normalized")
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
    _require_fits(max(ns), b, _dims(state))
    e = b.basis.eigenbasis
    blocks = state._diagonal_blocks(ns)
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
    normalize = qcore._require_bool(normalize, "normalize")
    p, f, q = _components(state, b, np.arange(_dims(state)[0]))
    if not normalize:
        return [
            ProspectProbability(float(pn), float(fn), float(qn), normalized=False)
            for pn, fn, qn in zip(p, f, q)
        ]
    total_p, total_f = float(p.sum()), float(f.sum())
    qcore.require_event(np.minimum(total_p, total_f), "degenerate lattice: total prospect weight "
                        "{total_p!r} (classical {total_f!r}) is numerically zero",
                        total_p=total_p, total_f=total_f)
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
    if qcore._require_bool(normalize, "normalize"):
        _require_fits(prospect.n, prospect.b, _dims(state))
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
    qcore.require_event(denominator, "cannot condition on multimode event of probability {p!r}")
    return qcore.real_probability(numerator / denominator, "conditional probability")

