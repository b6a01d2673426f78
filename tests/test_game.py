"""Prisoner-dilemma prospects: quarter law, broken symmetry, cohort sampling."""

import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from scipy.integrate import quad

from qprospect import (
    GameSpec,
    InterferenceDistribution,
    SizeLimitError,
    ValidationError,
    ZeroProbabilityError,
    broken_symmetry_probabilities,
    classical_prospects,
    monte_carlo_cohort,
    policy,
    quarter_law,
)
from qprospect.game import CohortReport, _piecewise_linear_moments, _positive_mass

# joint-action statistics of the canonical disjunction-effect experiment:
# cooperation is rare whatever the partner does
DISJUNCTION_TABLE = np.array([[0.05, 0.05], [0.45, 0.45]])
EMPIRICAL = (0.37, 0.63)


def triangular_density(points=2001):
    grid = np.linspace(-1.0, 1.0, points)
    return InterferenceDistribution.tabulated(grid, 1.0 - np.abs(grid))


class TestGameSpec:
    def test_classical_prospects_are_row_sums(self):
        spec = GameSpec(DISJUNCTION_TABLE)
        f1, f2 = classical_prospects(spec)
        assert abs(f1 - 0.1) < 1e-14
        assert abs(f2 - 0.9) < 1e-14

    def test_payoff_ordering_enforced(self):
        GameSpec(DISJUNCTION_TABLE, payoffs=(3.0, 0.0, 5.0, 1.0))
        with pytest.raises(ValidationError):
            GameSpec(DISJUNCTION_TABLE, payoffs=(3.0, 1.0, 5.0, 0.0))

    def test_table_shape_and_mass(self):
        with pytest.raises(ValidationError):
            GameSpec(np.ones((2, 3)) / 6.0)
        with pytest.raises(ValidationError):
            GameSpec(np.full((2, 2), 0.3))
        with pytest.raises(ValidationError):
            GameSpec(np.array([[0.5, 0.6], [0.0, -0.1]]))


class TestInterferenceDistribution:
    def test_uniform_pdf(self):
        dist = InterferenceDistribution.uniform()
        assert dist.pdf(0.0) == 0.5
        assert dist.pdf(0.999) == 0.5
        assert dist.pdf(1.5) == 0.0

    def test_tabulated_pdf_interpolates(self):
        dist = triangular_density()
        assert abs(dist.pdf(0.0) - 1.0) < 1e-12
        assert abs(dist.pdf(0.5) - 0.5) < 1e-12
        assert dist.pdf(-1.2) == 0.0

    def test_unnormalized_density_rejected(self):
        grid = np.linspace(-1.0, 1.0, 101)
        with pytest.raises(ValidationError, match="normalized"):
            InterferenceDistribution.tabulated(grid, np.full(101, 0.7))

    def test_skewed_density_rejected(self):
        # normalized but mean-shifted: not an admissible interference law
        grid = np.array([-1.0, 0.0, 1.0])
        density = np.array([0.2, 1.0, 0.0])
        # mass: trapezoids give (0.6 + 0.5) = 1.1 -> rescale first
        density = density / 1.1
        with pytest.raises(ValidationError, match="mean"):
            InterferenceDistribution.tabulated(grid, density)

    def test_negative_density_rejected(self):
        grid = np.array([-1.0, 0.0, 1.0])
        with pytest.raises(ValidationError):
            InterferenceDistribution.tabulated(grid, np.array([1.0, -0.5, 1.0]))

    def test_decreasing_grid_rejected(self):
        with pytest.raises(ValidationError):
            InterferenceDistribution.tabulated(
                np.array([0.0, -0.5, 1.0]), np.ones(3)
            )


class TestQuarterLaw:
    def test_uniform_gives_quarter(self):
        uniform = InterferenceDistribution.uniform()
        assert quarter_law(uniform) == (0.25, -0.25)
        assert _positive_mass(uniform) == 0.5

    def test_triangular_gives_sixth(self):
        # int_0^1 q (1 - q) dq = 1/6
        q_plus, q_minus = quarter_law(triangular_density())
        assert abs(q_plus - 1.0 / 6.0) <= 1e-12
        assert abs(q_plus + q_minus) <= 1e-12

    def test_asymmetric_zero_mean_density(self):
        # lopsided piecewise shape whose mean still vanishes exactly;
        # zero mean forces the half-line moments to balance, and the
        # positive one has the closed form 1/6 here
        grid = np.array([-1.0, -0.5, 0.0, 1.0])
        density = np.array([0.0, 0.5, 1.0, 0.0])
        dist = InterferenceDistribution.tabulated(grid, density)
        q_plus, q_minus = quarter_law(dist)
        assert abs(q_plus - 1.0 / 6.0) <= 1e-12
        assert abs(q_plus + q_minus) <= 1e-12


def random_zero_mean_density(rng, with_zero_knot):
    """A random tabulated density with unit mass and zero mean.

    Knots are random on both sides of 0, with 0 itself a knot or not; the
    values at the grid ends are nonzero, so the density jumps there.  Zero
    mean comes from mixing a left-leaning and a right-leaning shape with
    weights that cancel their first moments; draws where the two shapes
    do not lean opposite ways are redrawn.
    """
    m_left = m_right = 0.0
    while not m_left < 0.0 < m_right:
        left = -np.sort(rng.uniform(0.02, rng.uniform(0.3, 1.0), rng.integers(1, 6)))
        right = np.sort(rng.uniform(0.02, rng.uniform(0.3, 1.0), rng.integers(1, 6)))
        grid = np.unique(np.concatenate([left, [0.0] if with_zero_knot else [], right]))
        values = rng.uniform(0.1, 1.0, grid.size)
        lean_left = values * np.where(grid < 0.0, 1.0, 0.05)
        lean_right = values * np.where(grid > 0.0, 1.0, 0.05)
        m_left = _piecewise_linear_moments(grid, lean_left)[1]
        m_right = _piecewise_linear_moments(grid, lean_right)[1]
    density = m_right * lean_left - m_left * lean_right
    density /= _piecewise_linear_moments(grid, density)[0]
    return InterferenceDistribution.tabulated(grid, density)


def quad_moment(dist, lo, hi, power):
    """Adaptive quadrature of ``q**power * mu(q)`` over ``[lo, hi]``, split at the knots."""
    knots = tuple(x for x in dist.grid if lo < x < hi) or None
    value, _ = quad(lambda q: q**power * dist.pdf(q), lo, hi,
                    points=knots, epsabs=1e-14, epsrel=1e-14, limit=200)
    return value


def unvalidated(grid, density):
    """A tabulated distribution built without the mass and mean checks."""
    dist = object.__new__(InterferenceDistribution)
    object.__setattr__(dist, "kind", "tabulated")
    object.__setattr__(dist, "grid", np.asarray(grid, dtype=float))
    object.__setattr__(dist, "density", np.asarray(density, dtype=float))
    return dist


class TestExactMomentsAgainstQuadrature:
    """The closed-form half-line moments agree with scipy's adaptive quadrature."""

    @pytest.mark.parametrize("with_zero_knot", [True, False], ids=["knot-at-0", "straddles-0"])
    def test_random_zero_mean_densities(self, with_zero_knot):
        rng = np.random.default_rng(1308 + with_zero_knot)
        for _ in range(40):
            dist = random_zero_mean_density(rng, with_zero_knot)
            assert (0.0 in dist.grid) == with_zero_knot
            q_plus, q_minus = quarter_law(dist)
            assert abs(q_plus - quad_moment(dist, 0.0, 1.0, 1)) <= 1e-12
            assert abs(q_minus - quad_moment(dist, -1.0, 0.0, 1)) <= 1e-12
            assert abs(_positive_mass(dist) - quad_moment(dist, 0.0, 1.0, 0)) <= 1e-12

    @pytest.mark.parametrize("sign,edge", [(1.0, 0.0), (-1.0, 0.0), (1.0, 0.1), (-1.0, 0.1)],
                             ids=["starts-at-0", "ends-at-0", "starts-above-0", "ends-below-0"])
    def test_one_sided_grid_adds_no_ramp(self, rng, sign, edge):
        # no zero-mean density can live on one half-line, so this grid is
        # built without validation; it checks that the split adds no mass
        # on the side the grid only touches or misses
        grid = np.sort(sign * np.concatenate([[edge], rng.uniform(edge + 0.05, 1.0, 6)]))
        dist = unvalidated(grid, rng.uniform(0.1, 1.0, grid.size))
        q_plus, q_minus = quarter_law(dist)
        assert abs(q_plus - quad_moment(dist, 0.0, 1.0, 1)) <= 1e-12
        assert abs(q_minus - quad_moment(dist, -1.0, 0.0, 1)) <= 1e-12
        assert abs(_positive_mass(dist) - quad_moment(dist, 0.0, 1.0, 0)) <= 1e-12
        assert (q_minus if sign > 0 else q_plus) == 0.0
        if sign < 0:
            assert _positive_mass(dist) == 0.0


class TestBrokenSymmetry:
    def test_reproduces_disjunction_effect(self):
        result = broken_symmetry_probabilities(
            (0.1, 0.9), 0.25, empirical_reference=EMPIRICAL
        )
        assert abs(result.p[0] - 0.35) < 1e-12
        assert abs(result.p[1] - 0.65) < 1e-12
        assert not result.clamped
        dev = result.deviations()
        assert dev is not None
        assert max(dev) <= 0.02 + 1e-12

    def test_favoring_defection_mirrors(self):
        result = broken_symmetry_probabilities((0.1, 0.9), 0.25, favored="defect")
        assert abs(result.p[0] + result.p[1] - 1.0) < 1e-12
        assert result.p[0] < 0.1
        assert result.q_applied == (-0.25, 0.25)

    def test_clamping_saturates(self):
        result = broken_symmetry_probabilities((0.1, 0.9), 0.25, favored="defect")
        # f1 + q1 = -0.15 clamps to 0; f2 + q2 = 1.15 clamps to 1
        assert result.clamped
        assert result.p == (0.0, 1.0)

    def test_no_interference_recovers_classical(self):
        result = broken_symmetry_probabilities((0.3, 0.7), 0.0)
        assert abs(result.p[0] - 0.3) < 1e-14
        assert result.deviations() is None

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            broken_symmetry_probabilities((0.2, 0.9), 0.25)
        with pytest.raises(ValidationError):
            broken_symmetry_probabilities((0.1, 0.9), 1.5)
        with pytest.raises(ValidationError):
            broken_symmetry_probabilities((0.1, 0.9), 0.25, favored="sideways")


class TestMonteCarloCohort:
    def test_broken_cohort_matches_closed_form(self):
        spec = GameSpec(DISJUNCTION_TABLE)
        report = monte_carlo_cohort(
            spec, InterferenceDistribution.uniform(), n_pairs=1_000_000, seed=7
        )
        assert abs(report.cooperation_fraction - 0.35) <= 0.002
        assert abs(report.mean_q - 0.25) <= 4 * report.q_stderr
        assert abs(report.cooperation_fraction + report.defection_fraction - 1.0) < 1e-12

    def test_fixed_q_removes_sampling_noise(self):
        spec = GameSpec(DISJUNCTION_TABLE)
        report = monte_carlo_cohort(
            spec, InterferenceDistribution.uniform(), n_pairs=100,
            fixed_q=True, seed=3,
        )
        assert abs(report.cooperation_fraction - 0.35) < 1e-12
        assert report.q_stderr == 0.0
        assert report.fixed_q

    def test_intact_symmetry_has_no_net_interference(self):
        spec = GameSpec(DISJUNCTION_TABLE)
        report = monte_carlo_cohort(
            spec, InterferenceDistribution.uniform(), n_pairs=1_000_000,
            symmetry="intact", seed=11,
        )
        assert abs(report.mean_q) <= 3 * report.q_stderr
        # uniform on [-1, 1]: sigma = 1/sqrt(3)
        assert abs(report.q_stderr - 1.0 / np.sqrt(3e6)) < 3e-5
        assert report.favored is None

    def test_triangular_cohort_tracks_its_quarter_law(self):
        spec = GameSpec(DISJUNCTION_TABLE)
        dist = triangular_density()
        report = monte_carlo_cohort(spec, dist, n_pairs=200_000, seed=5)
        q_plus, _ = quarter_law(dist)
        assert abs(report.mean_q - q_plus) <= 4 * report.q_stderr

    def test_same_seed_reproduces(self):
        spec = GameSpec(DISJUNCTION_TABLE)
        a = monte_carlo_cohort(spec, InterferenceDistribution.uniform(), 1000, seed=42)
        b = monte_carlo_cohort(spec, InterferenceDistribution.uniform(), 1000, seed=42)
        c = monte_carlo_cohort(spec, InterferenceDistribution.uniform(), 1000, seed=43)
        assert a.cooperation_fraction == b.cooperation_fraction
        assert a.cooperation_fraction != c.cooperation_fraction

    def test_rejects_bad_modes(self):
        spec = GameSpec(DISJUNCTION_TABLE)
        dist = InterferenceDistribution.uniform()
        with pytest.raises(ValidationError, match="^need at least one pair, got 0$"):
            monte_carlo_cohort(spec, dist, 0)
        with pytest.raises(SizeLimitError,
                           match=f"^{policy.MAX_PAIRS + 1} pairs is above the cap "
                                 f"{policy.MAX_PAIRS}$"):
            monte_carlo_cohort(spec, dist, policy.MAX_PAIRS + 1)
        with pytest.raises(ValidationError,
                           match="^fixed_q only makes sense with broken symmetry$"):
            monte_carlo_cohort(spec, dist, 10, symmetry="intact", fixed_q=True)
        with pytest.raises(ValidationError,
                           match="^symmetry must be 'broken' or 'intact', got 'sideways'$"):
            monte_carlo_cohort(spec, dist, 10, symmetry="sideways")
        with pytest.raises(ValidationError,
                           match="^favored must be 'cooperate' or 'defect', got 'sideways'$"):
            monte_carlo_cohort(spec, dist, 10, favored="sideways")

    def test_degenerate_inputs_keep_their_messages(self):
        # no zero-mean density lives on one half-line, so these are built
        # without validation
        spec = GameSpec(DISJUNCTION_TABLE)
        negative = unvalidated([-1.0, -0.5], [1.0, 1.0])
        with pytest.raises(ValidationError,
                           match="^density has no mass on the positive half-line$"):
            monte_carlo_cohort(spec, negative, 10)
        # with no interference, an all-zero table leaves both prospects at 0
        empty = object.__new__(GameSpec)
        object.__setattr__(empty, "joint", np.zeros((2, 2)))
        with pytest.raises(ZeroProbabilityError,
                           match="^both prospect probabilities clamp to zero$"):
            monte_carlo_cohort(empty, negative, 10, fixed_q=True)


def reference_positive_mass(dist: InterferenceDistribution) -> float:
    """Trapezoid mass on [0, 1], with a knot at 0 where the grid straddles it."""
    if dist.kind == "uniform":
        return 0.5
    grid, density = dist.grid, dist.density
    if grid[0] < 0.0 < grid[-1] and 0.0 not in grid:
        cut = int(np.searchsorted(grid, 0.0))
        grid = np.insert(grid, cut, 0.0)
        density = np.insert(density, cut, dist.pdf(0.0))
    keep = grid >= 0.0
    grid, density = grid[keep], density[keep]
    return float(np.sum((density[:-1] + density[1:]) * np.diff(grid) / 2.0))


def reference_inverse_cdf(dist, grid, kinks, n, rng):
    fine = np.unique(np.concatenate([grid, kinks]))
    values = dist.pdf(fine)
    cum = np.concatenate([[0.0], np.cumsum((values[:-1] + values[1:]) * np.diff(fine) / 2.0)])
    return np.interp(rng.random(n), cum / cum[-1], fine)


def reference_cohort(spec, dist, n, symmetry, favored, seed, fixed_q) -> CohortReport:
    """The cohort as plain whole-array expressions, one fresh array per step.

    The draws are made in the same order from the same generator, so every
    field must equal the library's bit for bit.
    """
    f1, f2 = classical_prospects(spec)
    rng = np.random.default_rng(seed)
    if symmetry == "broken":
        if fixed_q:
            magnitudes = np.full(n, quarter_law(dist)[0])
        elif dist.kind == "uniform":
            magnitudes = reference_positive_mass(dist) * rng.random(n)
        else:
            kinks = dist.grid[(dist.grid > 0) & (dist.grid < 1)]
            magnitudes = reference_positive_mass(dist) * reference_inverse_cdf(
                dist, np.linspace(0.0, 1.0, 16385), kinks, n, rng)
        q1 = magnitudes if favored == "cooperate" else -magnitudes
        reported = magnitudes
    else:
        favored = None
        if dist.kind == "uniform":
            body = 2.0 * rng.random(n) - 1.0
        else:
            body = reference_inverse_cdf(dist, np.linspace(-1.0, 1.0, 32769), dist.grid, n, rng)
        signs = rng.integers(0, 2, size=n) * 2.0 - 1.0
        q1 = reported = signs * np.abs(body)
    c1 = np.clip(f1 + q1, 0.0, 1.0)
    c2 = np.clip(f2 - q1, 0.0, 1.0)
    total = c1 + c2
    p1, p2 = c1 / total, c2 / total
    stderr = float(reported.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return CohortReport(n, symmetry, favored, float(reported.mean()), stderr,
                        float(p1.mean()), float(p2.mean()), seed, fixed_q)


COHORT_TABLES = [
    DISJUNCTION_TABLE,                        # f = (0.1, 0.9): favoring defection clamps
    np.array([[0.3, 0.2], [0.25, 0.25]]),     # f = (0.5, 0.5)
    np.array([[0.5, 0.45], [0.03, 0.02]]),    # f = (0.95, 0.05): favoring cooperation clamps
]
COHORT_MODES = [("broken", False), ("broken", True), ("intact", False)]


def cohort_densities():
    return [
        InterferenceDistribution.uniform(),
        # a knot at 0 on a lopsided shape
        InterferenceDistribution.tabulated([-1.0, -0.5, 0.0, 1.0], [0.0, 0.5, 1.0, 0.0]),
        # a grid that straddles 0 without a knot there
        random_zero_mean_density(np.random.default_rng(1301), with_zero_knot=False),
    ]


def bits(report: CohortReport) -> list[str]:
    return [repr(x) for x in astuple(report)]


class TestCohortKernel:
    """The in-place cohort kernel against the plain-array reference."""

    @pytest.mark.parametrize("favored", ["cooperate", "defect"])
    @pytest.mark.parametrize("symmetry,fixed_q", COHORT_MODES)
    def test_bit_identical_to_the_plain_formula(self, symmetry, fixed_q, favored):
        densities = cohort_densities()
        cases = [(table, dist, n, seed)
                 for table in COHORT_TABLES for dist in densities
                 for n in (1, 2, 7, 20_000) for seed in (0, 1, 2)]
        # one clamping table and two densities at the benchmark's size
        cases += [(DISJUNCTION_TABLE, dist, 1_000_000, 3) for dist in densities[:2]]
        for table, dist, n, seed in cases:
            spec = GameSpec(table)
            got = monte_carlo_cohort(spec, dist, n, symmetry, favored, seed, fixed_q)
            want = reference_cohort(spec, dist, n, symmetry, favored, seed, fixed_q)
            assert bits(got) == bits(want), (table.tolist(), dist.kind, n, seed)

    @pytest.mark.parametrize("favored", ["cooperate", "defect"])
    @pytest.mark.parametrize("symmetry,fixed_q", COHORT_MODES)
    @pytest.mark.parametrize("tabulated", [False, True], ids=["uniform", "tabulated"])
    def test_peak_is_at_most_four_arrays(self, symmetry, fixed_q, favored, tabulated):
        n = 1_000_000
        spec = GameSpec(DISJUNCTION_TABLE)
        dist = cohort_densities()[1 if tabulated else 0]
        tracemalloc.start()
        try:
            monte_carlo_cohort(spec, dist, n, symmetry, favored, seed=9, fixed_q=fixed_q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one fresh array per step held about eight at once
        assert peak <= 4 * 8 * n
