"""Scenario-driven command line.

Usage::

    qprospect <subcommand> --scenario <path> [--format table|csv|json]
              [--seed N] [--out <path>]

The subcommands are the ops of ``_OPS`` below, each with the ``run``
directives it reads, plus ``selftest``.  Every op reads one scenario file
(see :mod:`qprospect.scenario` for the format); ``selftest`` runs the
acceptance criteria and prints one pass/fail line per criterion.

Exit codes: 0 success, 1 selftest failure, 2 validation error (bad
scenario, bad references, invariant violations, an unwritable ``--out``),
3 numeric-contract violation.  ``run.tolerance`` in the scenario overrides the
operator-validation tolerance for the duration of the run.

Output is deterministic for a fixed seed; seed precedence is
``--seed`` > ``run.seed`` > 0.  The only randomized operation is the
game's Monte Carlo cohort.
"""

import argparse
import sys

import numpy as np

from . import __version__, policy, qcore
from .errors import NumericContractError, ScenarioError, ValidationError
from .scenario import FORMATS, ResultTable, Scenario, _seed, _wrap_domain, parse_scenario


# ----------------------------------------------------------- subcommands

def _op_born(scenario: Scenario, table: ResultTable, seed: int):
    from .measure import born_distribution, expected_value, most_probable
    rho = scenario.need_density()
    obs = scenario.need_observable("observable")
    p = born_distribution(rho, obs)
    table.add_array([f"p[{obs.label}={n}]" for n in range(len(p))], p, "born_distribution")
    table.add("expected_value", expected_value(rho, obs), "expected_value")
    table.add("most_probable", most_probable(rho, obs), "most_probable")


def _op_lueders(scenario: Scenario, table: ResultTable, seed: int):
    from .measure import apply_measurement
    rho = scenario.need_density()
    obs = scenario.need_observable("observable")
    n = scenario.directive("index")
    outcome = apply_measurement(rho, obs, n)
    table.add("event", f"{outcome.event[0]}={outcome.event[1]}", "apply_measurement")
    table.add("probability", outcome.probability, "apply_measurement")
    post = outcome.post_state
    table.add_array([f"post.diag[{k}]" for k in range(post.dim)],
                    post.matrix.diagonal().real, "luders_reduce")
    table.add("post.purity", post.purity(), "luders_reduce")


def _op_wigner(scenario: Scenario, table: ResultTable, seed: int):
    from .measure import identity_chain_residual, wigner_table
    rho = scenario.need_density()
    first = scenario.need_observable("first")    # measured first in time
    second = scenario.need_observable("second")  # measured after it
    # w[n, alpha] = p(first gave alpha, then second gave n)
    w = wigner_table(rho, second, first)
    alphas, ns = range(first.dim), range(second.dim)
    table.add_array(
        [f"w[{first.label}={alpha};{second.label}={n}]" for alpha in alphas for n in ns],
        w.T, "wigner_distribution")
    table.add_array([f"first_step[{first.label}={alpha}]" for alpha in alphas],
                    [w[:, alpha].sum() for alpha in alphas], "wigner_distribution")
    table.add_array([f"chain_residual[{second.label}={n}]" for n in ns],
                    [identity_chain_residual(rho, second, n, first) for n in ns],
                    "identity_chain_residual")
    table.add("total", float(w.sum()), "wigner_distribution")


def _op_kirkwood(scenario: Scenario, table: ResultTable, seed: int):
    from .measure import kirkwood_table
    rho = scenario.need_density()
    obs_a = scenario.need_observable("first")
    obs_b = scenario.need_observable("second")
    k = kirkwood_table(rho, obs_a, obs_b)
    table.add_array([f"k[{obs_a.label}={n};{obs_b.label}={alpha}]"
                     for n in range(k.shape[0]) for alpha in range(k.shape[1])],
                    k, "kirkwood_form")
    table.add("total", complex(k.sum()), "kirkwood_form")
    table.add("max_imag", float(np.abs(k.imag).max()), "kirkwood_form")


def _op_joint(scenario: Scenario, table: ResultTable, seed: int):
    from .composite import joint_table, marginals
    state = scenario.need_composite()
    t = joint_table(state)
    da, db = state.dims
    table.add_array([f"p[n={n};alpha={alpha}]" for n in range(da) for alpha in range(db)], t,
                    "joint_table")
    pa, pb = marginals(state)
    table.add_array([f"marginal_a[{n}]" for n in range(da)],
                    qcore.real_probabilities(pa, "marginal_a"), "marginals")
    table.add_array([f"marginal_b[{alpha}]" for alpha in range(db)],
                    qcore.real_probabilities(pb, "marginal_b"), "marginals")
    table.add("total", float(t.sum()), "joint_table")


def _op_prospect(scenario: Scenario, table: ResultTable, seed: int):
    from .composite import prospect_lattice
    state = scenario.need_composite()
    b = scenario.need_multimode()
    normalized = scenario.run.get("normalized", True)
    lattice = prospect_lattice(state, b, normalize=normalized)
    pfq = [(e.p, e.f, e.q) for e in lattice]
    table.add_array([f"{x}[{n}]" for n in range(len(lattice)) for x in "pfq"], pfq,
                    "prospect_lattice")
    table.add_array(["sum_p", "sum_f", "sum_q"], [float(sum(c)) for c in zip(*pfq)],
                    "prospect_lattice")
    table.add("normalized", normalized, "prospect_lattice")


def _op_conditional(scenario: Scenario, table: ResultTable, seed: int):
    from .composite import Prospect, conditional_under_uncertainty
    state = scenario.need_composite()
    b = scenario.need_multimode()
    n = scenario.directive("index")
    value = conditional_under_uncertainty(state, Prospect(n, b))
    table.add(f"p[n={n} | B]", value, "conditional_under_uncertainty")


def _op_pipeline(scenario: Scenario, table: ResultTable, seed: int):
    from .channels import pointer_measurer, run_pipeline
    rho = scenario.need_density()
    measurer = scenario.measurer if scenario.measurer is not None else pointer_measurer()
    trace = run_pipeline(rho, measurer, scenario.need("stages"))

    def add_diagonal(name, state, provenance):
        table.add_array([f"{name}[{j}]" for j in range(state.dim)],
                        qcore.real_probabilities(state.matrix.diagonal().real, name), provenance)

    for k, record in enumerate(trace.records):
        table.add(f"stage[{k}].kind", record.kind, "run_pipeline")
        table.add(f"stage[{k}].time", record.time, "run_pipeline")
        if record.system is not None:
            add_diagonal(f"stage[{k}].system.diag", record.system, "readout")
    add_diagonal("rho_a.diag", trace.rho_a, "run_pipeline")
    table.add("rho_a.purity", trace.rho_a.purity(), "run_pipeline")
    add_diagonal("rho_b.diag", trace.rho_b, "run_pipeline")


def _op_entanglement(scenario: Scenario, table: ResultTable, seed: int):
    from .entangle import entanglement_production
    state = scenario.need_composite()
    log_base = scenario.run.get("log_base", "natural")
    report = entanglement_production(state, log_base)
    table.add("epsilon", report.epsilon, "entanglement_production")
    table.add_array(["norm.joint", "norm.first", "norm.second"], report.norms,
                    "measurement_basis_norm")
    table.add("epsilon_spectral", report.epsilon_spectral, "entanglement_production")
    table.add_array(["spectral_norm.joint", "spectral_norm.first", "spectral_norm.second"],
                    report.spectral_norms, "spectral_norm")
    table.add("log_base",
              "natural" if report.log_base is None else report.log_base,
              "entanglement_production")


def _resolve_q(scenario: Scenario) -> float:
    from .game import quarter_law
    options = scenario.game_options
    if "q" not in options:
        raise ScenarioError(
            "game needs 'q': a magnitude or the string \"quarter-law\"", "game.q")
    if options["q"] == "quarter-law":
        dist = scenario.need("interference")
        return quarter_law(dist)[0]
    return float(options["q"])


def _op_game(scenario: Scenario, table: ResultTable, seed: int):
    from .game import (
        broken_symmetry_probabilities, classical_prospects, monte_carlo_cohort)
    spec = scenario.need("game")
    options = scenario.game_options
    f = classical_prospects(spec)
    q_magnitude = _resolve_q(scenario)
    result = broken_symmetry_probabilities(
        f, q_magnitude, favored=options["favored"],
        empirical_reference=options.get("empirical"),
    )
    table.add_array(["f[cooperate]", "f[defect]"], result.f, "classical_prospects")
    table.add_array(["q[cooperate]", "q[defect]"], result.q_applied,
                    "broken_symmetry_probabilities")
    table.add_array(["p[cooperate]", "p[defect]"], qcore.real_probabilities(result.p, "p"),
                    "broken_symmetry_probabilities")
    table.add("clamped", result.clamped, "broken_symmetry_probabilities")
    deviations = result.deviations()
    if deviations is not None:
        table.add_array(["deviation[cooperate]", "deviation[defect]"], deviations,
                        "broken_symmetry_probabilities")
    if "cohort" in options:
        body = options["cohort"]
        dist = scenario.need("interference")
        report = monte_carlo_cohort(
            spec, dist, body["n_pairs"], symmetry=body["symmetry"],
            favored=options["favored"], seed=seed,
            fixed_q=body["fixed_q"],
        )
        table.add("cohort.n_pairs", report.n_pairs, "monte_carlo_cohort")
        table.add("cohort.symmetry", report.symmetry, "monte_carlo_cohort")
        table.add("cohort.mean_q", report.mean_q, "monte_carlo_cohort")
        table.add("cohort.q_stderr", report.q_stderr, "monte_carlo_cohort")
        fractions = [report.cooperation_fraction, report.defection_fraction]
        table.add_array(["cohort.cooperation_fraction", "cohort.defection_fraction"],
                        qcore.real_probabilities(fractions, "cohort fraction"),
                        "monte_carlo_cohort")


def _op_quarter_law(scenario: Scenario, table: ResultTable, seed: int):
    from .game import quarter_law
    table.add_array(["q_plus", "q_minus"], quarter_law(scenario.need("interference")),
                    "quarter_law")


def _op_dynamics(scenario: Scenario, table: ResultTable, seed: int):
    from .dynamics import (
        WaveState, amplitude_matrix, evolve_state, occupation_residual, two_time_prospect)
    h = scenario.need("hamiltonian")
    t0, t = scenario.need("times")
    name, start = scenario.resolve("start", "multimode")
    psi0 = _wrap_domain(f"multimode.{name}", WaveState, start.coefficients, t0)
    final = evolve_state(psi0, h, t)
    occ = qcore.real_probabilities(np.abs(final.coefficients) ** 2, "occupation")
    table.add_array([f"occupation[{k}]" for k in range(len(occ))], occ, "evolve_state")
    amp = amplitude_matrix(psi0, h, t0, t)
    table.add("occupation_residual", occupation_residual(amp, final),
              "occupation_residual")
    if "index" in scenario.run or "multimode" in scenario.run:  # both or neither
        n = scenario.directive("index")
        b = scenario.need_multimode()
        entry = two_time_prospect(amp, n, b)
        table.add_array([f"prospect.{x}[{n}]" for x in "pfq"], [entry.p, entry.f, entry.q],
                        "two_time_prospect")


# every op: its handler and the run directives it reads besides op, format,
# seed and tolerance
_OPS = {
    "born": (_op_born, ("observable",)),
    "lueders": (_op_lueders, ("observable", "index")),
    "wigner": (_op_wigner, ("first", "second")),
    "kirkwood": (_op_kirkwood, ("first", "second")),
    "joint": (_op_joint, ()),
    "prospect": (_op_prospect, ("multimode", "normalized")),
    "conditional": (_op_conditional, ("multimode", "index")),
    "pipeline": (_op_pipeline, ()),
    "entanglement": (_op_entanglement, ("log_base",)),
    "game": (_op_game, ()),
    "quarter-law": (_op_quarter_law, ()),
    "dynamics": (_op_dynamics, ("start", "index", "multimode")),
}


def run(scenario: Scenario, op: str | None = None, seed: int | None = None) -> ResultTable:
    """Dispatch a parsed scenario to its library operation.

    ``op`` overrides (and must agree with) the scenario's ``run.op`` when
    both are present.  A ``run`` directive the op does not read is refused.
    ``seed`` overrides ``run.seed``; the resolved value lands in the table
    metadata so results are reproducible from the output alone.
    """
    declared = scenario.run.get("op")
    known = (*_OPS, "selftest")
    for name in (declared, op):
        if name is not None and not (isinstance(name, str) and name in known):
            raise ScenarioError(f"unknown op {name!r} (known: {', '.join(known)})", "run.op")
    if op is None:
        op = declared
    elif declared is not None and declared != op:
        raise ScenarioError(
            f"scenario declares op {declared!r} but {op!r} was requested", "run.op")
    if op is None:
        raise ScenarioError("no operation: pass a subcommand or set run.op", "run.op")
    if op == "selftest":
        raise ScenarioError("selftest takes no scenario; run it directly", "run.op")
    handler, reads = _OPS[op]
    for key in scenario.run:
        if key not in reads and key not in ("op", "format", "seed", "tolerance"):
            raise ScenarioError(f"op {op!r} does not read this directive", f"run.{key}")

    resolved_seed = scenario.run.get("seed", 0) if seed is None else _seed(seed, "--seed")
    table = ResultTable(title=op)
    table.metadata["version"] = __version__
    table.metadata["op"] = op
    table.metadata["seed"] = resolved_seed
    with policy.tolerance_scope(scenario.run.get("tolerance", policy.tolerance())):
        table.metadata["tolerance"] = policy.tolerance()
        handler(scenario, table, resolved_seed)
    return table


def _selftest() -> tuple[str, int]:
    """The self-test report and its exit code."""
    from .acceptance import run_all

    results = run_all()
    failed = sum(1 for r in results if not r.passed)
    lines = [r.line() for r in results]
    lines.append(f"{len(results) - failed}/{len(results)} criteria passed")
    return "\n".join(lines) + "\n", 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qprospect",
        description="Quantum event probabilities from scenario files.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in (*_OPS, "selftest"):
        p = sub.add_parser(name)
        if name != "selftest":
            p.add_argument("--scenario", required=True,
                           help="path to a scenario JSON file")
            p.add_argument("--format", choices=FORMATS, default=None,
                           help="output format (default: run.format or table)")
            p.add_argument("--seed", type=int, default=None,
                           help="random seed (overrides run.seed)")
        p.add_argument("--out", default=None,
                       help="write output to this file instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.subcommand == "selftest":
        rendered, code = _selftest()
    else:
        try:
            with open(args.scenario, "rb") as handle:
                text = handle.read()
        except OSError as exc:
            print(f"error: cannot read scenario: {exc}", file=sys.stderr)
            return 2

        try:
            # every check refuses the NaN or inf an overflow leaves, so numpy's
            # warnings would only put lines ahead of the one error line
            with np.errstate(all="ignore"):
                scenario = parse_scenario(text)
                table = run(scenario, op=args.subcommand, seed=args.seed)
                fmt = args.format or scenario.run.get("format", "table")
                rendered, code = table.render(fmt), 0
        except ValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except NumericContractError as exc:
            print(f"numeric contract violated: {exc}", file=sys.stderr)
            return 3

    if args.out is None:
        sys.stdout.write(rendered)
        return code
    try:
        with open(args.out, "w", newline="\n") as out:
            out.write(rendered)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
