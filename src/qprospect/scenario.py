"""Scenario files (JSON) and result tables for the command line.

A scenario is one JSON object; which sections are required depends on the
operation.  Complex numbers are written as ``[re, im]`` pairs, matrices as
row-major nested lists.  A list entry that is itself a two-element list of
numbers is a complex scalar when a scalar is expected at that position --
vectors and matrices are parsed context-first, so ``[[1, 0], [0, 1]]`` is
a 2x2 real matrix where a matrix is expected and a pair of complex
coefficients where a vector is expected.

Sections::

    run          directives: op, format, seed, tolerance, op parameters
    state        {"pure": v} | {"density": m} |
                 {"composite": {"matrix": m, "dims": [da, db]}} |
                 {"amplitudes": m}
    observables  name -> {"eigenvalues": [...], "eigenbasis": m}
    multimode    name -> coefficient vector
    measurer     {"dim": k, "initial": {"pure": v} | {"density": m},
                  "coupling": m}          (omitted -> qubit pointer model)
    stages       [{"kind": "compose"} , {"kind": "evolve", "duration": t},
                  {"kind": "transform", "matrix": m}, {"kind": "readout"}]
    hamiltonian  {"h0": m, "pieces": [{"start": t, "matrix": m}, ...]}
    times        {"t0": a, "t": b}
    game         {"joint": m2x2, "payoffs": [...], "q": x | "quarter-law",
                  "favored": "cooperate" | "defect", "empirical": [p1, p2],
                  "cohort": {"n_pairs": n, "symmetry": ..., "fixed_q": bool}}
    interference {"kind": "uniform"} |
                 {"kind": "tabulated", "grid": [...], "density": [...]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import policy
from .errors import NumericContractError, QProspectError, ScenarioError
from .events import DensityOperator, MultimodeState, Observable

KNOWN_OPS = (
    "born", "lueders", "wigner", "kirkwood", "joint", "prospect",
    "conditional", "pipeline", "entanglement", "game", "quarter-law",
    "dynamics", "selftest",
)
FORMATS = ("table", "csv", "json")

_TOP_LEVEL = (
    "run", "state", "observables", "multimode", "measurer", "stages",
    "hamiltonian", "times", "game", "interference",
)


# ---------------------------------------------------------------- parsing

def _require(condition: bool, message: str, path: str):
    if not condition:
        raise ScenarioError(message, path)


def _known_fields(section: dict, known: tuple[str, ...], what: str, path: str):
    extra = set(section) - set(known)
    _require(not extra, f"unknown {what} fields {sorted(extra)}", path)


def _scalar(value, path: str) -> complex:
    """A JSON number, or an ``[re, im]`` pair."""
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return complex(value)
        if (
            isinstance(value, list)
            and len(value) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
        ):
            return complex(value[0], value[1])
    except OverflowError:
        raise ScenarioError("integer too large for a float", path) from None
    raise ScenarioError(f"expected a number or [re, im] pair, got {value!r}", path)


def _real(value, path: str) -> float:
    z = _scalar(value, path)
    _require(z.imag == 0.0, f"expected a real number, got {z!r}", path)
    _require(np.isfinite(z.real), "value must be finite", path)
    return z.real


def _reals(value, path: str) -> list[float]:
    _require(isinstance(value, list), "expected a list of numbers", path)
    return [_real(x, f"{path}[{k}]") for k, x in enumerate(value)]


def _int(value, path: str) -> int:
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"expected an integer, got {value!r}", path,
    )
    return value


def _seed(value, path: str) -> int:
    seed = _int(value, path)
    _require(seed >= 0, f"seed must be nonnegative, got {seed}", path)
    return seed


def _bool(value, path: str) -> bool:
    _require(isinstance(value, bool), f"expected true or false, got {value!r}", path)
    return value


def _vector(value, path: str) -> np.ndarray:
    _require(isinstance(value, list) and value, "expected a non-empty list", path)
    out = np.array([_scalar(x, f"{path}[{k}]") for k, x in enumerate(value)])
    _require(
        bool(np.all(np.isfinite(out.real)) and np.all(np.isfinite(out.imag))),
        "vector has non-finite entries", path,
    )
    return out


def _matrix(value, path: str) -> np.ndarray:
    _require(isinstance(value, list) and value, "expected a non-empty list of rows", path)
    rows = []
    width = None
    for i, row in enumerate(value):
        _require(isinstance(row, list) and row, "matrix rows must be non-empty lists",
                 f"{path}[{i}]")
        if width is None:
            width = len(row)
        _require(len(row) == width, f"ragged matrix: row {i} has {len(row)} entries, "
                 f"expected {width}", f"{path}[{i}]")
        rows.append([_scalar(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)])
    out = np.array(rows)
    _require(
        bool(np.all(np.isfinite(out.real)) and np.all(np.isfinite(out.imag))),
        "matrix has non-finite entries", path,
    )
    return out


def _wrap_domain(path: str, build, *args, **kwargs):
    """Run a domain constructor, attaching the scenario path to rejections."""
    try:
        return build(*args, **kwargs)
    except ScenarioError:
        raise
    except QProspectError as exc:
        raise ScenarioError(str(exc), path) from exc


@dataclass
class Scenario:
    """Validated scenario: run directives plus resolved domain objects."""

    run: dict
    density: DensityOperator | None = None
    pure: np.ndarray | None = None
    composite: CompositeState | None = None
    observables: dict[str, Observable] = field(default_factory=dict)
    multimode: dict[str, np.ndarray] = field(default_factory=dict)
    measurer: MeasurerSpec | None = None
    stages: list[PipelineStage] | None = None
    hamiltonian: HamiltonianSpec | None = None
    times: tuple[float, float] | None = None
    game: GameSpec | None = None
    game_options: dict = field(default_factory=dict)
    interference: InterferenceDistribution | None = None

    # -- reference resolution -------------------------------------------

    def need_density(self) -> DensityOperator:
        if self.density is None:
            raise ScenarioError(
                "this operation needs a 'state' section with a pure vector "
                "or a density matrix", "state")
        return self.density

    def need_composite(self) -> CompositeState:
        if self.composite is None:
            raise ScenarioError(
                "this operation needs a 'state' section with a composite "
                "matrix or an amplitude matrix", "state")
        return self.composite

    def need_observable(self, key: str) -> Observable:
        name = self.run.get(key)
        _require(isinstance(name, str),
                 f"run.{key} must name an observable", f"run.{key}")
        if name not in self.observables:
            raise ScenarioError(
                f"observable {name!r} is not declared (have: "
                f"{sorted(self.observables) or 'none'})", f"run.{key}")
        return self.observables[name]

    def need_multimode(self, key: str = "multimode") -> MultimodeState:
        name = self.run.get(key)
        _require(isinstance(name, str),
                 f"run.{key} must name a multimode coefficient vector", f"run.{key}")
        if name not in self.multimode:
            raise ScenarioError(
                f"multimode vector {name!r} is not declared (have: "
                f"{sorted(self.multimode) or 'none'})", f"run.{key}")
        return _wrap_domain(
            f"multimode.{name}", MultimodeState.in_standard_basis,
            self.multimode[name], name,
        )

    def need_index(self, key: str = "index") -> int:
        if key not in self.run:
            raise ScenarioError(f"run.{key} is required for this operation",
                                f"run.{key}")
        return _int(self.run[key], f"run.{key}")

    def need_hamiltonian(self) -> HamiltonianSpec:
        if self.hamiltonian is None:
            raise ScenarioError("this operation needs a 'hamiltonian' section",
                                "hamiltonian")
        return self.hamiltonian

    def need_times(self) -> tuple[float, float]:
        if self.times is None:
            raise ScenarioError("this operation needs a 'times' section", "times")
        return self.times

    def need_game(self) -> GameSpec:
        if self.game is None:
            raise ScenarioError("this operation needs a 'game' section", "game")
        return self.game

    def need_interference(self) -> InterferenceDistribution:
        if self.interference is None:
            raise ScenarioError(
                "this operation needs an 'interference' section", "interference")
        return self.interference

    def seed(self, override: int | None = None) -> int:
        if override is not None:
            return _seed(int(override), "--seed")
        return _seed(self.run.get("seed", 0), "run.seed")


def _parse_state(section, scenario: Scenario):
    _require(isinstance(section, dict), "state must be an object", "state")
    keys = set(section)
    known = {"pure", "density", "composite", "amplitudes"}
    _require(len(keys) == 1 and keys <= known,
             f"state takes exactly one of {sorted(known)}, got {sorted(keys)}",
             "state")
    if "pure" in section:
        v = _vector(section["pure"], "state.pure")
        scenario.pure = v
        scenario.density = _wrap_domain("state.pure", DensityOperator.from_pure, v)
    elif "density" in section:
        m = _matrix(section["density"], "state.density")
        scenario.density = _wrap_domain("state.density", DensityOperator, m)
    elif "amplitudes" in section:
        from .composite import CompositeState
        m = _matrix(section["amplitudes"], "state.amplitudes")
        scenario.density = scenario.composite = _wrap_domain(
            "state.amplitudes", CompositeState.from_amplitudes, m)
    else:
        from .composite import CompositeState
        body = section["composite"]
        _require(isinstance(body, dict), "state.composite must be an object",
                 "state.composite")
        _require("matrix" in body and "dims" in body,
                 "state.composite needs 'matrix' and 'dims'", "state.composite")
        m = _matrix(body["matrix"], "state.composite.matrix")
        dims = body["dims"]
        _require(isinstance(dims, list) and len(dims) == 2,
                 "dims must be [dim_a, dim_b]", "state.composite.dims")
        da = _int(dims[0], "state.composite.dims[0]")
        db = _int(dims[1], "state.composite.dims[1]")
        scenario.density = scenario.composite = _wrap_domain(
            "state.composite", CompositeState, m, (da, db))


def _parse_observables(section, scenario: Scenario):
    _require(isinstance(section, dict), "observables must be an object", "observables")
    for name, body in section.items():
        path = f"observables.{name}"
        _require(isinstance(body, dict), "observable must be an object", path)
        _require("eigenvalues" in body and "eigenbasis" in body,
                 "observable needs 'eigenvalues' and 'eigenbasis'", path)
        values = _reals(body["eigenvalues"], f"{path}.eigenvalues")
        basis = _matrix(body["eigenbasis"], f"{path}.eigenbasis")
        scenario.observables[name] = _wrap_domain(
            path, Observable, np.array(values), basis, name)


def _parse_multimode(section, scenario: Scenario):
    _require(isinstance(section, dict), "multimode must be an object", "multimode")
    for name, body in section.items():
        path = f"multimode.{name}"
        v = _vector(body, path)
        # construct once to surface validation now, store raw coefficients
        _wrap_domain(path, MultimodeState.in_standard_basis, v, name)
        scenario.multimode[name] = v


def _parse_measurer(section, scenario: Scenario):
    from .channels import MeasurerSpec
    _require(isinstance(section, dict), "measurer must be an object", "measurer")
    _require("dim" in section and "initial" in section and "coupling" in section,
             "measurer needs 'dim', 'initial', and 'coupling'", "measurer")
    _known_fields(section, ("dim", "initial", "coupling"), "measurer", "measurer")
    dim = _int(section["dim"], "measurer.dim")
    initial = section["initial"]
    _require(isinstance(initial, dict) and len(initial) == 1
             and set(initial) <= {"pure", "density"},
             "measurer.initial takes 'pure' or 'density'", "measurer.initial")
    if "pure" in initial:
        ready = _wrap_domain("measurer.initial.pure", DensityOperator.from_pure,
                             _vector(initial["pure"], "measurer.initial.pure"))
    else:
        ready = _wrap_domain("measurer.initial.density", DensityOperator,
                             _matrix(initial["density"], "measurer.initial.density"))
    coupling = _matrix(section["coupling"], "measurer.coupling")
    scenario.measurer = _wrap_domain("measurer", MeasurerSpec, dim, ready, coupling)


def _parse_stages(section, scenario: Scenario):
    from .channels import PipelineStage
    _require(isinstance(section, list) and section,
             "stages must be a non-empty list", "stages")
    out = []
    for k, body in enumerate(section):
        path = f"stages[{k}]"
        _require(isinstance(body, dict) and "kind" in body,
                 "stage must be an object with a 'kind'", path)
        kind = body["kind"]
        _known_fields(body, ("kind", "duration", "matrix"), "stage", path)
        duration = _real(body.get("duration", 0.0), f"{path}.duration")
        transform = None
        if "matrix" in body:
            transform = _matrix(body["matrix"], f"{path}.matrix")
        out.append(_wrap_domain(path, PipelineStage, kind, duration, transform))
    scenario.stages = out


def _parse_hamiltonian(section, scenario: Scenario):
    from .dynamics import HamiltonianSpec
    _require(isinstance(section, dict) and "h0" in section,
             "hamiltonian needs at least 'h0'", "hamiltonian")
    _known_fields(section, ("h0", "pieces"), "hamiltonian", "hamiltonian")
    h0 = _matrix(section["h0"], "hamiltonian.h0")
    raw = section.get("pieces", [])
    _require(isinstance(raw, list), "pieces must be a list", "hamiltonian.pieces")
    pieces = []
    for k, body in enumerate(raw):
        path = f"hamiltonian.pieces[{k}]"
        _require(isinstance(body, dict) and "start" in body and "matrix" in body,
                 "piece needs 'start' and 'matrix'", path)
        _known_fields(body, ("start", "matrix"), "piece", path)
        pieces.append((
            _real(body["start"], f"{path}.start"),
            _matrix(body["matrix"], f"{path}.matrix"),
        ))
    scenario.hamiltonian = _wrap_domain(
        "hamiltonian", HamiltonianSpec, h0, tuple(pieces))


def _parse_times(section, scenario: Scenario):
    _require(isinstance(section, dict) and "t0" in section and "t" in section,
             "times needs 't0' and 't'", "times")
    _known_fields(section, ("t0", "t"), "times", "times")
    scenario.times = (
        _real(section["t0"], "times.t0"),
        _real(section["t"], "times.t"),
    )


def _parse_game(section, scenario: Scenario):
    from .game import GameSpec
    _require(isinstance(section, dict) and "joint" in section,
             "game needs a 'joint' action table", "game")
    joint = _matrix(section["joint"], "game.joint")
    _require(bool(np.all(joint.imag == 0.0)), "joint table must be real", "game.joint")
    payoffs = None
    if "payoffs" in section:
        raw = section["payoffs"]
        _require(isinstance(raw, list) and len(raw) == 4,
                 "payoffs must be a list of four numbers", "game.payoffs")
        payoffs = tuple(_reals(raw, "game.payoffs"))
    scenario.game = _wrap_domain("game", GameSpec, joint.real, payoffs)

    options: dict = {}
    if "q" in section:
        q = section["q"]
        if q == "quarter-law":
            options["q"] = "quarter-law"
        else:
            options["q"] = _real(q, "game.q")
    options["favored"] = section.get("favored", "cooperate")
    _require(options["favored"] in ("cooperate", "defect"),
             "favored must be 'cooperate' or 'defect'", "game.favored")
    if "empirical" in section:
        raw = section["empirical"]
        _require(isinstance(raw, list) and len(raw) == 2,
                 "empirical must be [p1, p2]", "game.empirical")
        empirical = tuple(_reals(raw, "game.empirical"))
        _require(all(0.0 <= p <= 1.0 for p in empirical)
                 and abs(sum(empirical) - 1.0) <= policy.PROBABILITY_TOL,
                 f"empirical must be two probabilities summing to 1, got {list(empirical)}",
                 "game.empirical")
        options["empirical"] = empirical
    if "cohort" in section:
        body = section["cohort"]
        _require(isinstance(body, dict) and "n_pairs" in body,
                 "cohort needs 'n_pairs'", "game.cohort")
        _known_fields(body, ("n_pairs", "symmetry", "fixed_q"), "cohort", "game.cohort")
        options["cohort"] = {
            "n_pairs": _int(body["n_pairs"], "game.cohort.n_pairs"),
            "symmetry": body.get("symmetry", "broken"),
            "fixed_q": _bool(body.get("fixed_q", False), "game.cohort.fixed_q"),
        }
    scenario.game_options = options


def _parse_interference(section, scenario: Scenario):
    from .game import InterferenceDistribution
    _require(isinstance(section, dict) and "kind" in section,
             "interference needs a 'kind'", "interference")
    kind = section["kind"]
    if kind == "uniform":
        _require(set(section) == {"kind"},
                 "uniform interference takes no further fields", "interference")
        scenario.interference = InterferenceDistribution.uniform()
        return
    _require(kind == "tabulated",
             f"interference kind must be 'uniform' or 'tabulated', got {kind!r}",
             "interference.kind")
    _require("grid" in section and "density" in section,
             "tabulated interference needs 'grid' and 'density'", "interference")
    grid, density = (_reals(section[key], f"interference.{key}") for key in ("grid", "density"))
    scenario.interference = _wrap_domain(
        "interference", InterferenceDistribution.tabulated, grid, density)


def parse_scenario(text) -> Scenario:
    """Parse and validate one scenario document (str or bytes)."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ScenarioError(
                f"not UTF-8: byte {exc.object[exc.start]:#04x} at offset {exc.start}"
            ) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"not valid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from exc
    except RecursionError as exc:
        raise ScenarioError("not valid JSON: nested too deeply") from exc
    except ValueError as exc:  # an integer literal past the int-to-str digit limit
        raise ScenarioError(f"not valid JSON: {exc}") from exc
    _require(isinstance(data, dict), "scenario must be a JSON object", "")
    unknown = set(data) - set(_TOP_LEVEL)
    _require(not unknown, f"unknown sections {sorted(unknown)}", "")

    run = data.get("run", {})
    _require(isinstance(run, dict), "run must be an object", "run")
    run = dict(run)
    if "op" in run:
        _require(run["op"] in KNOWN_OPS,
                 f"unknown op {run['op']!r} (known: {', '.join(KNOWN_OPS)})",
                 "run.op")
    if "format" in run:
        _require(run["format"] in FORMATS,
                 f"format must be one of {FORMATS}, got {run['format']!r}",
                 "run.format")
    if "seed" in run:
        _seed(run["seed"], "run.seed")
    if "normalized" in run:
        _bool(run["normalized"], "run.normalized")
    if "log_base" in run and run["log_base"] not in ("natural", "e"):
        base = run["log_base"]
        _require(isinstance(base, (int, float)) and not isinstance(base, bool),
                 f"log base must be \"natural\", \"e\" or a number, got {base!r}",
                 "run.log_base")
        _require(_real(base, "run.log_base") > 1.0,
                 f"log base must exceed 1, got {base!r}", "run.log_base")
    if "tolerance" in run:
        tol = _real(run["tolerance"], "run.tolerance")
        _require(0.0 < tol < 1.0, "tolerance must lie in (0, 1)", "run.tolerance")

    scenario = Scenario(run=run)
    parsers = {
        "state": _parse_state,
        "observables": _parse_observables,
        "multimode": _parse_multimode,
        "measurer": _parse_measurer,
        "stages": _parse_stages,
        "hamiltonian": _parse_hamiltonian,
        "times": _parse_times,
        "game": _parse_game,
        "interference": _parse_interference,
    }
    # a tolerance override covers the validation of the scenario's own
    # operators, not just the later computation
    with policy.tolerance_scope(run.get("tolerance", policy.tolerance())):
        for key, parser in parsers.items():
            if key in data:
                parser(data[key], scenario)
    return scenario


# ------------------------------------------------------------ serializing

def _encode_complex(z: complex):
    re = float(np.real(z))
    im = float(np.imag(z))
    return re if im == 0.0 else [re, im]


def _encode_vector(v) -> list:
    return [_encode_complex(z) for z in np.asarray(v).reshape(-1)]


def _encode_matrix(m) -> list:
    return [[_encode_complex(z) for z in row] for row in np.asarray(m)]


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical JSON text; parsing it back is semantically idempotent."""
    data: dict = {"run": scenario.run}
    if scenario.pure is not None:
        data["state"] = {"pure": _encode_vector(scenario.pure)}
    elif scenario.composite is not None:
        data["state"] = {"composite": {
            "matrix": _encode_matrix(scenario.composite.matrix),
            "dims": list(scenario.composite.dims),
        }}
    elif scenario.density is not None:
        data["state"] = {"density": _encode_matrix(scenario.density.matrix)}
    if scenario.observables:
        data["observables"] = {
            name: {
                "eigenvalues": [float(x) for x in obs.eigenvalues],
                "eigenbasis": _encode_matrix(obs.eigenbasis),
            }
            for name, obs in scenario.observables.items()
        }
    if scenario.multimode:
        data["multimode"] = {
            name: _encode_vector(v) for name, v in scenario.multimode.items()
        }
    if scenario.measurer is not None:
        data["measurer"] = {
            "dim": scenario.measurer.dim,
            "initial": {"density": _encode_matrix(scenario.measurer.initial_state.matrix)},
            "coupling": _encode_matrix(scenario.measurer.coupling),
        }
    if scenario.stages is not None:
        stages = []
        for s in scenario.stages:
            body: dict = {"kind": s.kind}
            if s.kind == "evolve":
                body["duration"] = s.duration
            if s.transform is not None:
                body["matrix"] = _encode_matrix(s.transform)
            stages.append(body)
        data["stages"] = stages
    if scenario.hamiltonian is not None:
        data["hamiltonian"] = {
            "h0": _encode_matrix(scenario.hamiltonian.h0),
            "pieces": [
                {"start": start, "matrix": _encode_matrix(m)}
                for start, m in scenario.hamiltonian.pieces
            ],
        }
    if scenario.times is not None:
        data["times"] = {"t0": scenario.times[0], "t": scenario.times[1]}
    if scenario.game is not None:
        body = {"joint": _encode_matrix(scenario.game.joint)}
        if scenario.game.payoffs is not None:
            body["payoffs"] = list(scenario.game.payoffs)
        options = scenario.game_options
        if "q" in options:
            body["q"] = options["q"]
        body["favored"] = options.get("favored", "cooperate")
        if "empirical" in options:
            body["empirical"] = list(options["empirical"])
        if "cohort" in options:
            body["cohort"] = dict(options["cohort"])
        data["game"] = body
    if scenario.interference is not None:
        if scenario.interference.kind == "uniform":
            data["interference"] = {"kind": "uniform"}
        else:
            data["interference"] = {
                "kind": "tabulated",
                "grid": [float(x) for x in scenario.interference.grid],
                "density": [float(x) for x in scenario.interference.density],
            }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# ------------------------------------------------------------ result table

def format_value(value) -> str:
    """12 significant digits for floats; everything else verbatim."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


@dataclass
class ResultTable:
    """Rows of (label, value, provenance) plus run metadata.

    ``provenance`` names the library operation that produced the value, so
    a table is auditable without re-reading the scenario.  Complex values
    are split into ``.re``/``.im`` rows at add time; probability rows are
    window-checked against [0, 1].
    """

    title: str
    rows: list[tuple[str, object, str]] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, label: str, value, provenance: str):
        if isinstance(value, (complex, np.complexfloating)) and not isinstance(
            value, (float, int)
        ):
            self.add(f"{label}.re", float(value.real), provenance)
            self.add(f"{label}.im", float(value.imag), provenance)
            return
        if isinstance(value, (float, np.floating)):
            value = float(value)
            if not np.isfinite(value):
                raise NumericContractError(f"result row {label!r} is not finite")
        self.rows.append((label, value, provenance))

    def add_probability(self, label: str, value: float, provenance: str):
        value = float(value)
        window = policy.PROBABILITY_TOL
        if not np.isfinite(value) or value < -window or value > 1.0 + window:
            raise NumericContractError(
                f"result row {label!r} = {value!r} is not a probability"
            )
        self.rows.append((label, min(max(value, 0.0), 1.0), provenance))

    # -- renderers -------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"# {self.title}"]
        for key, value in self.metadata.items():
            lines.append(f"# {key}: {format_value(value)}")
        label_w = max((len(r[0]) for r in self.rows), default=0)
        value_w = max((len(format_value(r[1])) for r in self.rows), default=0)
        for label, value, provenance in self.rows:
            lines.append(
                f"{label:<{label_w}}  {format_value(value):>{value_w}}  [{provenance}]"
            )
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["label,value,provenance"]
        for key, value in self.metadata.items():
            lines.append(f"meta.{key},{format_value(value)},metadata")
        for label, value, provenance in self.rows:
            lines.append(f"{label},{format_value(value)},{provenance}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        body = {
            "title": self.title,
            "metadata": {k: v for k, v in self.metadata.items()},
            "rows": [
                {"label": label, "value": value, "provenance": provenance}
                for label, value, provenance in self.rows
            ],
        }
        return json.dumps(body, indent=2, sort_keys=True, default=format_value) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "table":
            return self.to_text()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ScenarioError(f"unknown output format {fmt!r}", "run.format")
