"""Prisoner-dilemma prospects: quarter law, broken symmetry, cohort sampling."""

import numpy as np
import pytest
from scipy.integrate import quad

from qprospect import (
    GameSpec,
    InterferenceDistribution,
    ValidationError,
    broken_symmetry_probabilities,
    classical_prospects,
    monte_carlo_cohort,
    quarter_law,
)
from qprospect.game import _piecewise_linear_moments, _positive_mass

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
        with pytest.raises(ValidationError):
            monte_carlo_cohort(spec, dist, 0)
        with pytest.raises(ValidationError):
            monte_carlo_cohort(spec, dist, 10, symmetry="intact", fixed_q=True)
        with pytest.raises(ValidationError):
            monte_carlo_cohort(spec, dist, 10, symmetry="sideways")
