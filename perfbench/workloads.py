"""The four benchmark workloads: seeded inputs, ops and output checks.

A workload is a list of :class:`Op`.  One cycle runs every op once; the
timed phase runs whole cycles in a seed-shuffled order.  Each op's
``call`` is what gets timed.  Its ``check`` runs after the clock stops
and raises :class:`CheckFailed` on a wrong output.  In-process calls look
library functions up on their module at call time, so a traced pass sees
the wrapped bindings.

Why these four (see also ``perfbench/README.md``):

* ``cli_scenarios`` -- one fresh ``python -m qprospect.cli`` process per
  op; import is ~3/4 of each op, kernels almost nothing.
* ``sequential_tables`` -- the O(d^5) Wigner/Kirkwood table kernels and
  their per-entry ``Projector`` validations at d = 16, 32, 64.
* ``composite_scale`` -- ``eigvalsh`` positivity checks on D = 256/1024
  composite states that are PSD by construction.
* ``pipeline_dynamics`` -- medium mixed ``DensityOperator`` rebuilds per
  pipeline stage, ``eigh`` propagators and numpy RNG cohorts.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from checkout import ROOT, child_env

DATA = os.path.join(ROOT, "tests", "data")
GOLDEN = os.path.join(ROOT, "tests", "golden")
EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")

CLI_TIMEOUT_S = 60


class CheckFailed(Exception):
    """An op returned a wrong output."""


def require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]
    tags: dict = field(default_factory=dict)


# ---------------------------------------------------------------- cli_scenarios

def compare_csv(produced: str, expected: str, tol: float = 1e-12):
    """Row-by-row CSV comparison: text cells equal, numeric cells within ``tol``."""
    got, want = produced.splitlines(), expected.splitlines()
    require(len(got) == len(want), f"{len(got)} lines, expected {len(want)}")
    for k, (a, b) in enumerate(zip(got, want)):
        ca, cb = a.split(","), b.split(",")
        require(len(ca) == len(cb), f"line {k + 1}: {a!r} vs {b!r}")
        for x, y in zip(ca, cb):
            if x == y:
                continue
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                raise CheckFailed(f"line {k + 1}: {a!r} vs {b!r}") from None
            require(abs(fx - fy) <= tol, f"line {k + 1}: {x} vs {y} beyond {tol:.0e}")


def scenario_argv(file: str) -> list[str]:
    """CLI arguments that run one ``tests/data`` scenario with CSV output."""
    with open(os.path.join(DATA, file), encoding="utf-8") as handle:
        op = json.load(handle)["run"]["op"]
    return [op, "--scenario", os.path.join("tests", "data", file), "--format", "csv"]


def scenario_ops(in_process: bool = False) -> list[Op]:
    """The 14 ``tests/data`` scenarios plus ``selftest``.

    Each op runs one CLI process, or with ``in_process`` one
    ``cli.main`` call with stdout captured (the traced route).
    """
    ops = []
    for file in sorted(f for f in os.listdir(DATA) if f.endswith(".json")):
        name = file[:-5]
        golden = os.path.join(GOLDEN, name + ".csv")
        if os.path.exists(golden):
            with open(golden, "rb") as handle:
                check = _exact_check(handle.read().decode("utf-8"))
        else:
            with open(os.path.join(EXPECTED, name + ".csv"), encoding="utf-8") as handle:
                check = _numeric_check(handle.read())
        ops.append(Op(name, cli_call(scenario_argv(file), in_process), check))
    ops.append(Op("selftest", cli_call(["selftest"], in_process), _selftest_check))
    return ops


def cli_call(argv, in_process=False):
    """A call returning ``(exit code, stdout)`` of one CLI run."""
    if in_process:
        def call():
            from qprospect import cli

            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(list(argv))
            return code, out.getvalue()
        return call

    command = [sys.executable, "-m", "qprospect.cli", *argv]

    def call():
        done = subprocess.run(command, cwd=ROOT, env=child_env(), capture_output=True,
                              timeout=CLI_TIMEOUT_S)
        return done.returncode, done.stdout.decode("utf-8")
    return call


def _exact_check(expected: str):
    def check(result):
        code, out = result
        require(code == 0, f"exit code {code}")
        require(out == expected, "CSV differs from tests/golden byte for byte")
    return check


def _numeric_check(expected: str):
    def check(result):
        code, out = result
        require(code == 0, f"exit code {code}")
        compare_csv(out, expected)
    return check


def _selftest_check(result):
    code, out = result
    require(code == 0, f"exit code {code}")
    lines = out.strip().splitlines()
    require(bool(lines) and lines[-1] == "13/13 criteria passed",
            f"selftest ended with {lines[-1:]!r}")


# ------------------------------------------------------- in-process helpers

def _random_unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_density_matrix(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m)


def _random_hermitian(dim, rng, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / (2.0 * math.sqrt(dim))


def _random_vector(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _close(a, b, tol, what):
    err = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
    require(err <= tol, f"{what}: deviation {err:.3e} exceeds {tol:.0e}")


# ------------------------------------------------------------ sequential_tables

#: chain residuals at d = 64 run for this many seeded n, not all 64, so
#: that a cycle stays near 4 s and a run holds several cycles
CHAIN_D64 = 16


def sequential_tables(rng) -> list[Op]:
    """Born, expectation, Wigner, Kirkwood and chain residuals at d = 16, 32, 64.

    The chain residuals run for every n at d = 16 and 32, and for
    ``CHAIN_D64`` seeded n at d = 64.
    """
    from qprospect import events, measure

    ops = []
    for d in (16, 32, 64):
        rho = events.DensityOperator(_random_density_matrix(d, rng))
        a = events.Observable(np.arange(d) + 0.5 * rng.random(d), _random_unitary(d, rng), "A")
        b = events.Observable(np.arange(d) + 0.5 * rng.random(d), _random_unitary(d, rng), "B")
        # independent references, computed once here
        transition = measure.transition_matrix(a, b)
        p_a = measure.born_distribution(rho, a)
        p_b = measure.born_distribution(rho, b)
        direct_b = np.diag(b.eigenbasis.conj().T @ rho.matrix @ b.eigenbasis).real
        direct_mean = float(np.trace(rho.matrix @ a.operator()).real)
        tags = {"d": d}

        def check_born(p, direct_b=direct_b):
            _close(p, direct_b, 1e-12, "born_distribution vs diag(B+ rho B)")
            _close(p.sum(), 1.0, 1e-12, "born_distribution total")

        def check_mean(value, direct_mean=direct_mean, d=d):
            _close(value, direct_mean, 1e-10 * d, "expected_value vs Tr(rho A)")

        def check_wigner(w, transition=transition, p_b=p_b):
            _close(w, transition * p_b[None, :], 1e-12, "W vs T[n,a] p_B[a]")

        def check_kirkwood(k, p_a=p_a, p_b=p_b):
            _close(k.sum(axis=1), p_a, 1e-12, "Kirkwood rows vs p_A")
            _close(k.sum(axis=0), p_b, 1e-12, "Kirkwood columns vs p_B")
            _close(k.sum(), 1.0, 1e-12, "Kirkwood total")

        def check_chain(residual):
            require(residual <= 1e-10, f"chain residual {residual:.3e} above 1e-10")

        ops += [
            Op(f"born_distribution.d{d}",
               lambda rho=rho, b=b: measure.born_distribution(rho, b), check_born, tags),
            Op(f"expected_value.d{d}",
               lambda rho=rho, a=a: measure.expected_value(rho, a), check_mean, tags),
            Op(f"wigner_table.d{d}",
               lambda rho=rho, a=a, b=b: measure.wigner_table(rho, a, b), check_wigner, tags),
            Op(f"kirkwood_table.d{d}",
               lambda rho=rho, a=a, b=b: measure.kirkwood_table(rho, a, b), check_kirkwood, tags),
        ]
        chain = range(d) if d < 64 else sorted(rng.choice(d, CHAIN_D64, replace=False))
        ops += [
            Op(f"identity_chain_residual.d{d}.n{n}",
               lambda rho=rho, a=a, b=b, n=int(n): measure.identity_chain_residual(rho, a, n, b),
               check_chain, tags)
            for n in chain
        ]
    return ops


# -------------------------------------------------------------- composite_scale

def _raw_prospects(matrix, dims, coeff):
    """``p[n] = <n B| rho |n B>`` for a standard-basis multimode vector."""
    da, db = dims
    blocks = np.einsum("nanb->nab", matrix.reshape(da, db, da, db))
    return np.einsum("a,nab,b->n", coeff.conj(), blocks, coeff).real


def composite_scale(rng) -> list[Op]:
    """Composite states at D = 256 and 1024: construction, entanglement, prospects."""
    from qprospect import composite, entangle, events

    def amplitudes(n):
        c = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return c / np.linalg.norm(c)

    c16, c32 = amplitudes(16), amplitudes(32)
    pure256 = composite.CompositeState.from_amplitudes(c16)
    pure1024 = composite.CompositeState.from_amplitudes(c32)
    mixed256 = composite.CompositeState(_random_density_matrix(256, rng), (16, 16))
    product256 = composite.CompositeState.product(
        events.DensityOperator(_random_density_matrix(16, rng)),
        events.DensityOperator(_random_density_matrix(16, rng)),
    )
    bell32 = entangle.bell_state(32)
    b16 = events.MultimodeState.in_standard_basis(_random_vector(16, rng))
    b32 = events.MultimodeState.in_standard_basis(_random_vector(32, rng))
    n16, n32 = int(rng.integers(16)), int(rng.integers(32))

    def check_state(c):
        def check(state):
            require(state.dims == c.shape, f"dims {state.dims}")
            v = c.reshape(-1)
            _close(state.matrix.diagonal(), np.abs(v) ** 2, 1e-15, "diagonal vs |c|^2")
        return check

    def check_bell(state):
        require(state.dims == (32, 32), f"dims {state.dims}")
        _close(np.sort(state.matrix.diagonal().real)[-32:], 1.0 / 32, 1e-15, "Bell diagonal")

    def check_epsilon(expected, spectral=None):
        def check(report):
            _close(report.epsilon, expected, 1e-12, "epsilon")
            if spectral is not None:
                _close(report.epsilon_spectral, spectral, 1e-12, "spectral epsilon")
        return check

    p_c16 = np.abs(c16) ** 2
    eps_pure256 = math.log(p_c16.max() / (p_c16.sum(axis=1).max() * p_c16.sum(axis=0).max()))
    four = mixed256.matrix.reshape(16, 16, 16, 16)
    rho_a, rho_b = np.einsum("ijkj->ik", four), np.einsum("ijil->jl", four)
    eps_mixed256 = math.log(mixed256.matrix.diagonal().real.max()
                            / (rho_a.diagonal().real.max() * rho_b.diagonal().real.max()))
    top = [np.linalg.eigvalsh(m)[-1] for m in (mixed256.matrix, rho_a, rho_b)]
    spectral_mixed256 = math.log(top[0] / (top[1] * top[2]))

    def check_normalized(lattice):
        _close(sum(e.q for e in lattice), 0.0, 1e-10, "normalized lattice sum q")
        _close(sum(e.p for e in lattice), 1.0, 1e-12, "normalized lattice sum p")
        _close(sum(e.f for e in lattice), 1.0, 1e-12, "normalized lattice sum f")

    def check_raw(state, b):
        raw = _raw_prospects(state.matrix, state.dims, b.coefficients)

        def check(lattice):
            _close([e.p for e in lattice], raw, 1e-12, "raw lattice vs <nB|rho|nB>")
        return check

    def check_marginals(state):
        four = state.matrix.reshape(*state.dims, *state.dims)
        ra = np.einsum("ijkj->ik", four).diagonal().real
        rb = np.einsum("ijil->jl", four).diagonal().real

        def check(result):
            pa, pb = result
            _close(pa, ra, 1e-12, "marginal A vs partial trace")
            _close(pb, rb, 1e-12, "marginal B vs partial trace")
            _close(pa.sum(), 1.0, 1e-12, "marginal total")
        return check

    def check_conditional(state, n, b):
        raw = _raw_prospects(state.matrix, state.dims, b.coefficients)
        expected = raw[n] / raw.sum()

        def check(value):
            _close(value, expected, 1e-12, "conditional vs p[n] / sum p")
        return check

    CS = composite.CompositeState
    return [
        Op("from_amplitudes.D256", lambda: CS.from_amplitudes(c16), check_state(c16)),
        Op("from_amplitudes.D1024", lambda: CS.from_amplitudes(c32), check_state(c32)),
        Op("bell_state.32", lambda: entangle.bell_state(32), check_bell),
        Op("entanglement.bell32", lambda: entangle.entanglement_production(bell32),
           check_epsilon(math.log(32))),
        Op("entanglement.product256", lambda: entangle.entanglement_production(product256),
           check_epsilon(0.0, 0.0)),
        Op("entanglement.pure256", lambda: entangle.entanglement_production(pure256),
           check_epsilon(eps_pure256)),
        Op("entanglement.mixed256", lambda: entangle.entanglement_production(mixed256),
           check_epsilon(eps_mixed256, spectral_mixed256)),
        Op("prospect_lattice.pure1024", lambda: composite.prospect_lattice(pure1024, b32),
           check_normalized),
        Op("prospect_lattice.mixed256", lambda: composite.prospect_lattice(mixed256, b16),
           check_normalized),
        Op("prospect_lattice.raw.pure1024",
           lambda: composite.prospect_lattice(pure1024, b32, normalize=False),
           check_raw(pure1024, b32)),
        Op("prospect_lattice.raw.mixed256",
           lambda: composite.prospect_lattice(mixed256, b16, normalize=False),
           check_raw(mixed256, b16)),
        Op("marginals.pure1024", lambda: composite.marginals(pure1024),
           check_marginals(pure1024)),
        Op("marginals.mixed256", lambda: composite.marginals(mixed256),
           check_marginals(mixed256)),
        Op("conditional.pure1024",
           lambda: composite.conditional_under_uncertainty(pure1024, composite.Prospect(n32, b32)),
           check_conditional(pure1024, n32, b32)),
        Op("conditional.mixed256",
           lambda: composite.conditional_under_uncertainty(mixed256, composite.Prospect(n16, b16)),
           check_conditional(mixed256, n16, b16)),
    ]


# ------------------------------------------------------------ pipeline_dynamics

def pipeline_dynamics(rng) -> list[Op]:
    """Six-stage pipelines, d = 128 multimode dynamics and 10^6-pair cohorts."""
    from qprospect import channels, dynamics, events, game

    ops = []
    for ds, dm in ((8, 8), (16, 16)):
        rho = events.DensityOperator(_random_density_matrix(ds, rng))
        meter = events.DensityOperator(_random_density_matrix(dm, rng))
        # block-diagonal in the system basis, so it commutes with P_n (x) 1
        coupling = np.zeros((ds * dm, ds * dm), dtype=complex)
        for n in range(ds):
            coupling[n * dm:(n + 1) * dm, n * dm:(n + 1) * dm] = _random_hermitian(dm, rng)
        measurer = channels.MeasurerSpec(dm, meter, coupling)
        meter_rotation = np.kron(np.eye(ds), _random_unitary(dm, rng))
        stages = [
            channels.PipelineStage("compose"),
            channels.PipelineStage("evolve", float(rng.uniform(0.5, 1.5))),
            channels.PipelineStage("readout"),
            channels.PipelineStage("evolve", float(rng.uniform(0.5, 1.5))),
            channels.PipelineStage("transform", transform=meter_rotation),
            channels.PipelineStage("readout"),
        ]
        diagonal = rho.matrix.diagonal().real.copy()

        def check_pipeline(trace, diagonal=diagonal):
            require(len(trace.records) == 6, f"{len(trace.records)} stage records")
            for record in trace.records:
                if record.system is not None:
                    _close(record.system.matrix.diagonal().real, diagonal, 1e-12,
                           f"system diagonal after {record.kind} at t={record.time}")
            _close(trace.rho_a.matrix.diagonal().real, diagonal, 1e-12, "rho_a diagonal")

        ops.append(Op(f"run_pipeline.{ds}x{dm}",
                      lambda rho=rho, m=measurer, s=stages: channels.run_pipeline(rho, m, s),
                      check_pipeline))

    d = 128
    h = dynamics.HamiltonianSpec(
        _random_hermitian(d, rng),
        tuple((0.1 * (k + 1), _random_hermitian(d, rng, 0.5)) for k in range(10)),
    )
    psi = dynamics.WaveState(_random_vector(d, rng), 0.0)
    t0, t = 0.35, 1.25
    final = dynamics.evolve_state(psi, h, t)
    amp = dynamics.amplitude_matrix(psi, h, t0, t)
    picks = [int(n) for n in rng.choice(d, 2, replace=False)]
    weights = events.MultimodeState.in_standard_basis(_random_vector(d, rng))

    def check_evolved(state):
        _close(np.linalg.norm(state.coefficients), 1.0, 1e-10, "evolved norm")
        _close(state.coefficients, amp.c.sum(axis=1), 1e-10, "psi(t) vs amplitude row sums")

    def check_amplitudes(result):
        _close(np.sum(np.abs(result.c) ** 2), 1.0, 1e-10, "total squared amplitude")
        _close(result.c.sum(axis=1), final.coefficients, 1e-10, "amplitude rows vs psi(t)")

    def check_prospect(n):
        def check(entry):
            direct = abs(np.vdot(weights.coefficients, amp.c[n])) ** 2
            _close(entry.p, direct, 1e-12, "two-time prospect vs |<b|c_n>|^2")
            _close(entry.p, entry.f + entry.q, 1e-12, "p = f + q")
        return check

    ops += [
        Op("evolve_state.d128", lambda: dynamics.evolve_state(psi, h, t), check_evolved),
        Op("amplitude_matrix.d128", lambda: dynamics.amplitude_matrix(psi, h, t0, t),
           check_amplitudes),
    ]
    ops += [
        Op(f"two_time_prospect.d128.n{n}",
           lambda n=n: dynamics.two_time_prospect(amp, n, weights), check_prospect(n))
        for n in picks
    ]

    joint = rng.dirichlet(np.ones(4)).reshape(2, 2)
    spec = game.GameSpec(joint)
    uniform = game.InterferenceDistribution.uniform()
    grid = np.linspace(-1.0, 1.0, 9)
    half = rng.uniform(0.5, 1.5, 5)
    values = np.concatenate([half, half[-2::-1]])
    values /= np.sum((values[:-1] + values[1:]) * np.diff(grid) / 2.0)
    tabulated = game.InterferenceDistribution.tabulated(grid, values)
    # exact first moment of the piecewise-linear density over [0, 1]
    g, y = grid[4:], values[4:]
    slope = np.diff(y) / np.diff(g)
    icpt = y[:-1] - slope * g[:-1]
    q_plus_tab = float(np.sum(slope * np.diff(g ** 3) / 3.0 + icpt * np.diff(g ** 2) / 2.0))
    pairs = 10 ** 6
    seeds = [int(s) for s in rng.integers(0, 2 ** 31, 3)]
    f = game.classical_prospects(spec)
    pinned = game.broken_symmetry_probabilities(f, 0.25).p

    def check_cohort(mean):
        def check(report):
            require(report.n_pairs == pairs, f"{report.n_pairs} pairs")
            require(abs(report.mean_q - mean) <= 6 * report.q_stderr,
                    f"cohort mean q {report.mean_q!r} is 6 stderr away from {mean}")
            _close(report.cooperation_fraction + report.defection_fraction, 1.0, 1e-12,
                   "cohort fractions")
        return check

    def check_fixed(report):
        _close(report.cooperation_fraction, pinned[0], 1e-12,
               "fixed-q cohort vs broken_symmetry_probabilities")
        _close(report.defection_fraction, pinned[1], 1e-12,
               "fixed-q cohort vs broken_symmetry_probabilities")

    def check_quarter(expected, tol):
        def check(result):
            _close(result, expected, tol, "quarter law")
        return check

    ops += [
        Op("cohort.broken", lambda: game.monte_carlo_cohort(
            spec, uniform, pairs, "broken", seed=seeds[0]), check_cohort(0.25)),
        Op("cohort.intact", lambda: game.monte_carlo_cohort(
            spec, uniform, pairs, "intact", seed=seeds[1]), check_cohort(0.0)),
        Op("cohort.fixed_q", lambda: game.monte_carlo_cohort(
            spec, uniform, pairs, "broken", seed=seeds[2], fixed_q=True), check_fixed),
        Op("quarter_law.uniform", lambda: game.quarter_law(uniform),
           check_quarter((0.25, -0.25), 1e-12)),
        Op("quarter_law.tabulated", lambda: game.quarter_law(tabulated),
           check_quarter((q_plus_tab, -q_plus_tab), 1e-10)),
    ]
    return ops


IN_PROCESS = {
    "sequential_tables": sequential_tables,
    "composite_scale": composite_scale,
    "pipeline_dynamics": pipeline_dynamics,
}
NAMES = ("cli_scenarios", *IN_PROCESS)


def build(name: str, seed: int, in_process: bool = False) -> list[Op]:
    """The ops of one workload; inputs depend on ``seed`` alone.

    ``cli_scenarios`` runs CLI processes unless ``in_process`` asks for
    ``cli.main`` calls.
    """
    if name == "cli_scenarios":
        return scenario_ops(in_process)
    return IN_PROCESS[name](np.random.default_rng(seed))
