"""Two-player prisoner-dilemma game with quantum interference.

The classical prospect weights come from a declared joint-action table:
``f(pi_1)`` aggregates the first player's cooperation row, ``f(pi_2)``
the defection row.  Deciding under uncertainty about the partner adds an
interference term ``q`` to each prospect.  Without further information
``q`` is treated as a random variable on ``[-1, 1]`` with a normalized
zero-mean density; the *quarter law* evaluates the typical positive and
negative contributions as the half-line first moments, which for the
uniform non-informative density are exactly +1/4 and -1/4.  That density
is held as its own piecewise-linear tabulation, so the moments of every
density are found one way; only the cohort sampler draws it by kind.

Broken symmetry (the empirically observed case) assigns the positive
interference to one favored prospect and its negative to the other.
Cohort simulations draw a per-participant interference whose population
mean reproduces the quarter-law value, so the sampled cooperation
fraction converges on the closed-form one.  A cohort of ``n`` pairs holds
at most four arrays of ``n`` float64 values at once, about three at its
peak: the draws land in one buffer, and the probabilities are worked out
in place in that buffer and two more.
"""

from dataclasses import dataclass

import numpy as np

from . import policy, qcore
from .errors import SizeLimitError, ValidationError

FAVORED = ("cooperate", "defect")
SYMMETRIES = ("broken", "intact")
INTERFERENCE_KINDS = ("uniform", "tabulated")


@dataclass(frozen=True, eq=False)
class GameSpec:
    """Joint-action probability table, optionally with dilemma payoffs.

    ``joint[i, j]`` is the probability that player one takes action ``i``
    (0 = cooperate, 1 = defect) while player two takes action ``j``.
    Payoffs, when declared, are ``(reward, sucker, temptation, punishment)``
    and must obey the dilemma ordering temptation > reward > punishment >
    sucker; they are carried for validation and reporting only.
    """

    joint: np.ndarray
    payoffs: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        table = qcore._require_numbers(self.joint, "joint table", real=True)
        if table.shape != (2, 2):
            raise ValidationError(f"joint table must be 2x2, got shape {table.shape}")
        low, total = float(table.min()), float(table.sum())
        qcore.require_within(-low, policy.PROBABILITY_TOL,
                             "joint table has negative entry {low!r}", low=low)
        qcore.require_within(abs(total - 1.0), 1e-12, "joint table must sum to 1, got {total!r}",
                             total=total)
        qcore._set_fields(self, joint=np.clip(table, 0.0, 1.0))
        if self.payoffs is not None:
            message = "payoffs must be 4 numbers, got {payoffs!r}"
            x1, x2, x3, x4 = qcore._require_reals(self.payoffs, 4, "payoff", message,
                                                  refused=message, payoffs=self.payoffs)
            if not (x3 > x1 > x4 > x2):
                raise ValidationError(
                    "payoffs break the dilemma ordering "
                    "temptation > reward > punishment > sucker: "
                    f"{(x1, x2, x3, x4)}"
                )
            qcore._set_fields(self, payoffs=(x1, x2, x3, x4))


def classical_prospects(spec: GameSpec) -> tuple[float, float]:
    """Classical weights of the two prospects: row sums of the joint table."""
    f1 = float(spec.joint[0].sum())
    f2 = float(spec.joint[1].sum())
    return f1, f2


def _piecewise_linear_moments(grid: np.ndarray, density: np.ndarray) -> tuple[float, float]:
    """Exact zeroth and first moments of a piecewise-linear density."""
    a, b = grid[:-1], grid[1:]
    ya, yb = density[:-1], density[1:]
    slope = (yb - ya) / (b - a)
    intercept = ya - slope * a
    mass = float(np.sum((ya + yb) * (b - a) / 2.0))
    first = float(np.sum(slope * (b**3 - a**3) / 3.0 + intercept * (b**2 - a**2) / 2.0))
    return mass, first


@dataclass(frozen=True, eq=False)
class InterferenceDistribution:
    """Density of the interference term on ``[-1, 1]``.

    A piecewise-linear density given by a strictly increasing grid and
    nonnegative values, zero outside the tabulated range, that integrates
    to one with zero mean, checked exactly.  The uniform non-informative
    density is held as its own tabulation, ``grid = [-1, 0, 1]`` and
    ``density = [1/2, 1/2, 1/2]``; it takes no tabulation from the caller,
    and its kind only picks its exact sampler.
    """

    kind: str
    grid: np.ndarray | None = None
    density: np.ndarray | None = None

    def __post_init__(self):
        if qcore._require_choice(self.kind, INTERFERENCE_KINDS, "interference kind") == "uniform":
            if self.grid is not None or self.density is not None:
                raise ValidationError("uniform density takes no tabulation")
            qcore._set_fields(self, grid=np.array([-1.0, 0.0, 1.0]), density=np.full(3, 0.5))
            return
        grid, density = (np.array(qcore._require_numbers(a, name, real=True)).reshape(-1)
                         for a, name in ((self.grid, "tabulated grid"),
                                         (self.density, "tabulated density")))
        if grid.size < 2 or grid.size != density.size:
            raise ValidationError("tabulated density needs matching grid and values")
        if np.any(np.diff(grid) <= 0):
            raise ValidationError("tabulated grid must be strictly increasing")
        if not (-1.0 <= grid[0] and grid[-1] <= 1.0):
            raise ValidationError("tabulated grid must stay within [-1, 1]")
        low = float(density.min())
        qcore.require_within(-low, 0.0, "density has negative value {low!r}", low=low)
        mass, mean = _piecewise_linear_moments(grid, density)
        qcore.require_within(abs(mass - 1.0), 1e-10,
                             "density is not normalized: integral = {mass!r}", mass=mass)
        qcore.require_within(abs(mean), 1e-10, "density has nonzero mean: {mean!r}", mean=mean)
        qcore._set_fields(self, grid=grid, density=density)

    def pdf(self, q):
        """Density value(s) at ``q``; zero outside the support, ``±inf``
        included.  A NaN ``q`` is a :class:`ValidationError`."""
        q = qcore._require_numbers(q, "q", real=True, finite=False)
        out = np.interp(q, self.grid, self.density, left=0.0, right=0.0)
        return out if out.ndim else float(out)

    @classmethod
    def uniform(cls) -> "InterferenceDistribution":
        return cls("uniform")

    @classmethod
    def tabulated(cls, grid, density) -> "InterferenceDistribution":
        return cls("tabulated", grid, density)


def _half_line(dist: InterferenceDistribution, positive: bool) -> tuple[np.ndarray, np.ndarray]:
    """Grid and density of the piecewise-linear density on one half-line.

    A grid that straddles 0 gets a knot there, interpolated, so each half
    is itself piecewise linear.  Outside its grid the density is zero (it
    jumps at the grid ends), so no knot is added at 0 when the grid only
    touches or misses that half-line.
    """
    grid, density = dist.grid, dist.density
    if grid[0] < 0.0 < grid[-1] and 0.0 not in grid:
        cut = int(np.searchsorted(grid, 0.0))
        grid = np.insert(grid, cut, 0.0)
        density = np.insert(density, cut, np.interp(0.0, dist.grid, dist.density))
    keep = grid >= 0.0 if positive else grid <= 0.0
    return grid[keep], density[keep]


def quarter_law(dist: InterferenceDistribution) -> tuple[float, float]:
    """Typical positive and negative interference: half-line first moments.

    Returns ``(q_plus, q_minus)`` with ``q_plus`` the integral of
    ``q mu(q)`` over [0, 1] and ``q_minus`` over [-1, 0]; for the uniform
    density these are exactly (+1/4, -1/4).  The moments are exact for
    every piecewise-linear density, the uniform one included: the integrand
    is piecewise quadratic and is integrated in closed form.
    """
    return (
        _piecewise_linear_moments(*_half_line(dist, positive=True))[1],
        _piecewise_linear_moments(*_half_line(dist, positive=False))[1],
    )


def _positive_mass(dist: InterferenceDistribution) -> float:
    return _piecewise_linear_moments(*_half_line(dist, positive=True))[0]


@dataclass(frozen=True)
class GameResult:
    """Closed-form prospect probabilities of one participant."""

    f: tuple[float, float]
    q_applied: tuple[float, float]
    p: tuple[float, float]
    clamped: bool = False
    empirical_reference: tuple[float, float] | None = None

    def deviations(self) -> tuple[float, float] | None:
        if self.empirical_reference is None:
            return None
        return (
            abs(self.p[0] - self.empirical_reference[0]),
            abs(self.p[1] - self.empirical_reference[1]),
        )


def _clamp_and_renormalize(p1: np.ndarray, p2: np.ndarray, total: np.ndarray) -> None:
    """Clamp ``p1`` and ``p2`` to [0, 1] and divide each by their sum, in place.

    ``total`` is a buffer of the same shape that receives the clamped sum.
    """
    np.clip(p1, 0.0, 1.0, out=p1)
    np.clip(p2, 0.0, 1.0, out=p2)
    np.add(p1, p2, out=total)
    qcore.require_event(total.min(), "both prospect probabilities clamp to zero")
    np.divide(p1, total, out=p1)
    np.divide(p2, total, out=p2)


def broken_symmetry_probabilities(
    f: tuple[float, float],
    q_magnitude: float,
    favored: str = "cooperate",
    empirical_reference: tuple[float, float] | None = None,
) -> GameResult:
    """Prospect probabilities when the interference symmetry is broken.

    The favored prospect receives ``+q_magnitude`` and the other prospect
    its negative; each sum is clamped to [0, 1] and the pair renormalized,
    keeping the decomposition ``p = f + q`` meaningful for interior values.
    """
    f1, f2 = qcore._require_reals(f, 2, "classical weight",
                                  "classical weights must be two finite numbers, got {f!r}", f=f)
    if empirical_reference is not None:
        empirical_reference = qcore._require_reals(
            empirical_reference, 2, "empirical reference",
            "empirical reference must be two finite numbers, got {ref!r}", ref=empirical_reference)
    qcore.require_within(-np.minimum(f1, f2), policy.PROBABILITY_TOL,
                         "classical weights must be nonnegative, got {f}", f=f)
    qcore.require_within(abs(f1 + f2 - 1.0), 1e-10,
                         "classical weights must sum to 1, got {total!r}", total=f1 + f2)
    message = "interference magnitude must lie in [0, 1], got {x}"
    q = qcore._require_real(q_magnitude, "interference magnitude", message)
    if not 0.0 <= q <= 1.0:
        raise ValidationError(message.format(x=qcore._shown(q_magnitude)))
    if qcore._require_choice(favored, FAVORED, "favored") == "cooperate":
        q1, q2 = q, -q
    else:
        q1, q2 = -q, q
    s1, s2 = f1 + q1, f2 + q2
    clamped = s1 < 0 or s1 > 1 or s2 < 0 or s2 > 1
    p1, p2 = np.array(s1), np.array(s2)
    _clamp_and_renormalize(p1, p2, np.empty(()))
    return GameResult(
        (f1, f2), (q1, q2), (float(p1), float(p2)), clamped, empirical_reference
    )


@dataclass(frozen=True)
class CohortReport:
    """Aggregate statistics of a simulated participant cohort."""

    n_pairs: int
    symmetry: str
    favored: str | None
    mean_q: float
    q_stderr: float
    cooperation_fraction: float
    defection_fraction: float
    seed: int
    fixed_q: bool


def _inverse_cdf(dist: InterferenceDistribution, grid, kinks, n: int, rng) -> np.ndarray:
    """``n`` draws by inverting the trapezoid-rule CDF on ``grid`` and ``kinks``."""
    fine = np.unique(np.concatenate([grid, kinks]))
    values = dist.pdf(fine)
    cum = np.concatenate([[0.0], np.cumsum((values[:-1] + values[1:]) * np.diff(fine) / 2.0)])
    return np.interp(rng.random(n), cum / cum[-1], fine)


def _sample_magnitudes(dist: InterferenceDistribution, n: int, rng) -> np.ndarray:
    """Positive interference magnitudes whose population mean is ``q_plus``.

    Magnitudes are drawn from the positive-side conditional of the density
    and scaled by the positive-side mass, so the cohort mean matches the
    quarter-law value rather than the (larger) conditional mean.
    """
    mass = _positive_mass(dist)
    qcore.require_event(mass, "density has no mass on the positive half-line", ValidationError)
    if dist.kind == "uniform":
        draws = rng.random(n)
    else:
        kinks = dist.grid[(dist.grid > 0) & (dist.grid < 1)]
        draws = _inverse_cdf(dist, np.linspace(0.0, 1.0, 16385), kinks, n, rng)
    draws *= mass
    return draws


def _sample_signed(dist: InterferenceDistribution, n: int, rng) -> np.ndarray:
    """Signed draws from the full density with equiprobable sign assignment."""
    if dist.kind == "uniform":
        body = rng.random(n)
        body *= 2.0
        body -= 1.0
    else:
        body = _inverse_cdf(dist, np.linspace(-1.0, 1.0, 32769), dist.grid, n, rng)
    # integer signs 2 k - 1: copysign(body, signs) is exactly signs * |body|
    signs = rng.integers(0, 2, size=n)
    signs *= 2
    signs -= 1
    return np.copysign(body, signs, out=body)


def _require_pairs(n_pairs) -> int:
    """``n_pairs``, an integer from 1 to ``policy.MAX_PAIRS``."""
    qcore._require_size(n_pairs, 1, "n_pairs", "need at least one pair, got {0}")
    if n_pairs > policy.MAX_PAIRS:
        raise SizeLimitError(f"{qcore._shown(n_pairs)} pairs is above the cap {policy.MAX_PAIRS}")
    return n_pairs


def monte_carlo_cohort(
    spec: GameSpec,
    dist: InterferenceDistribution,
    n_pairs: int,
    symmetry: str = "broken",
    favored: str = "cooperate",
    seed: int = 0,
    fixed_q: bool = False,
) -> CohortReport:
    """Simulate a cohort of participant pairs deciding under uncertainty.

    With broken symmetry every participant attaches a positive
    interference magnitude to the favored prospect (drawn as described in
    the module docstring, or pinned exactly to the quarter-law value with
    ``fixed_q``); with intact symmetry the signed interference is drawn
    from the full density with an equiprobable sign, so its mean vanishes.
    The report aggregates the sampled interference and the cohort-mean
    prospect probabilities.  Fixed seed means reproducible output.
    """
    _require_pairs(n_pairs)
    qcore._require_size(seed, 0, "seed", "seed must be nonnegative, got {0}")
    fixed_q = qcore._require_bool(fixed_q, "fixed_q")
    if qcore._require_choice(symmetry, SYMMETRIES, "symmetry") == "intact" and fixed_q:
        raise ValidationError("fixed_q only makes sense with broken symmetry")
    f1, f2 = classical_prospects(spec)
    rng = np.random.default_rng(seed)

    if symmetry == "broken":
        qcore._require_choice(favored, FAVORED, "favored")
        if fixed_q:
            q_plus, _ = quarter_law(dist)
            draws = np.full(n_pairs, q_plus)
        else:
            draws = _sample_magnitudes(dist, n_pairs, rng)
    else:
        favored = None
        draws = _sample_signed(dist, n_pairs, rng)

    # report the draws as sampled: the buffer then holds q1, and then the total
    mean_q = float(draws.mean())
    stderr = float(draws.std(ddof=1) / np.sqrt(n_pairs)) if n_pairs > 1 else 0.0
    if favored == "defect":
        np.negative(draws, out=draws)
    p1, p2 = f1 + draws, f2 - draws
    _clamp_and_renormalize(p1, p2, total=draws)
    return CohortReport(
        n_pairs=n_pairs,
        symmetry=symmetry,
        favored=favored,
        mean_q=mean_q,
        q_stderr=stderr,
        cooperation_fraction=float(p1.mean()),
        defection_fraction=float(p2.mean()),
        seed=seed,
        fixed_q=fixed_q,
    )
