"""Scenario files (JSON) and result tables for the command line.

A scenario is one JSON object; which sections are required depends on the
operation.  Complex numbers are written as ``[re, im]`` pairs, matrices as
row-major nested lists.  A list entry that is itself a two-element list of
numbers is a complex scalar when a scalar is expected at that position --
vectors and matrices are parsed context-first, so ``[[1, 0], [0, 1]]`` is
a 2x2 real matrix where a matrix is expected and a pair of complex
coefficients where a vector is expected.

Sections::

    run          directives (below)
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
                  "cohort": {"n_pairs": 1..MAX_PAIRS,
                             "symmetry": "broken" | "intact",
                             "fixed_q": bool (broken symmetry only)}}
    interference {"kind": "uniform"} |
                 {"kind": "tabulated", "grid": [...], "density": [...]}

Run directives, each type-checked at parse time::

    op           one of KNOWN_OPS
    format       "table" | "csv" | "json"
    seed         integer >= 0
    normalized   true | false
    log_base     "natural" | "e" | number > 1
    tolerance    number in (0, 1)
    index        integer
    observable, first, second     name of a declared observable
    multimode, start              name of a declared multimode vector

Every object with fixed fields, ``run`` included, refuses a field it does
not know.  Whether a directive an operation needs is present, and whether
a name is declared, is checked when the operation runs.

A :class:`Scenario` keeps the text it was parsed from, which
:func:`serialize_scenario` writes back with sorted keys, so the parsers
alone define the format.
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


# ---------------------------------------------------------------- parsing

def _require(condition: bool, message: str, path: str):
    if not condition:
        raise ScenarioError(message, path)


def _fields(section, path: str, what: str, required=(), optional=()) -> dict:
    """``section`` as an object with every required field and no field outside
    ``required`` and ``optional``."""
    _require(isinstance(section, dict), f"{what} must be an object", path)
    missing = [key for key in required if key not in section]
    _require(not missing, f"{what} needs {' and '.join(map(repr, missing))}", path)
    extra = set(section) - set(required) - set(optional)
    _require(not extra, f"unknown {what} fields {sorted(extra)}", path)
    return section


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


def _name(value, path: str) -> str:
    _require(isinstance(value, str), f"expected a name, got {value!r}", path)
    return value


def _log_base(value, path: str):
    if value not in ("natural", "e"):
        _require(isinstance(value, (int, float)) and not isinstance(value, bool),
                 f"log base must be \"natural\", \"e\" or a number, got {value!r}", path)
        _require(_real(value, path) > 1.0, f"log base must exceed 1, got {value!r}", path)
    return value


def _member(value, options, message: str, path: str):
    _require(value in options, message, path)
    return value


def _tolerance(value, path: str) -> float:
    tol = _real(value, path)
    _require(0.0 < tol < 1.0, "tolerance must lie in (0, 1)", path)
    return tol


# every run directive and its check, in the order they are checked; each
# check returns the value it accepted, which is the value the run reads
_DIRECTIVES = {
    "op": lambda op, path: _member(
        op, KNOWN_OPS, f"unknown op {op!r} (known: {', '.join(KNOWN_OPS)})", path),
    "format": lambda fmt, path: _member(
        fmt, FORMATS, f"format must be one of {FORMATS}, got {fmt!r}", path),
    "seed": _seed,
    "normalized": _bool,
    "log_base": _log_base,
    "tolerance": _tolerance,
    "index": _int,
    **dict.fromkeys(("observable", "first", "second", "multimode", "start"), _name),
}


def _vector(value, path: str) -> np.ndarray:
    _require(isinstance(value, list) and value, "expected a non-empty list", path)
    out = np.array([_scalar(x, f"{path}[{k}]") for k, x in enumerate(value)])
    _require(bool(np.isfinite(out).all()), "vector has non-finite entries", path)
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
    _require(bool(np.isfinite(out).all()), "matrix has non-finite entries", path)
    return out


def _wrap_domain(path: str, build, *args, **kwargs):
    """Run a domain constructor, attaching the scenario path to rejections."""
    try:
        return build(*args, **kwargs)
    except ScenarioError:
        raise
    except QProspectError as exc:
        raise ScenarioError(str(exc), path) from exc


def _density(section, path: str, kinds=("pure", "density")) -> DensityOperator:
    """The state an object of exactly one of ``kinds`` gives.

    ``{"pure": v} | {"density": m}`` by default; ``state`` also takes the
    ``composite`` and ``amplitudes`` forms, which give a CompositeState.
    """
    _require(isinstance(section, dict), f"{path} must be an object", path)
    _require(len(section) == 1 and set(section) <= set(kinds),
             f"{path} takes exactly one of {sorted(kinds)}, got {sorted(section)}",
             path)
    [(kind, value)] = section.items()
    path = f"{path}.{kind}"
    if kind == "pure":
        return _wrap_domain(path, DensityOperator.from_pure, _vector(value, path))
    if kind == "density":
        return _wrap_domain(path, DensityOperator, _matrix(value, path))
    from .composite import CompositeState
    if kind == "amplitudes":
        return _wrap_domain(path, CompositeState.from_amplitudes, _matrix(value, path))
    _fields(value, path, "composite", ("matrix", "dims"))
    m = _matrix(value["matrix"], f"{path}.matrix")
    dims = value["dims"]
    _require(isinstance(dims, list) and len(dims) == 2,
             "dims must be [dim_a, dim_b]", f"{path}.dims")
    dims = tuple(_int(d, f"{path}.dims[{k}]") for k, d in enumerate(dims))
    return _wrap_domain(path, CompositeState, m, dims)


@dataclass
class Scenario:
    """Validated scenario: the text it was parsed from (str or bytes), run
    directives and resolved domain objects."""

    source: str | bytes
    run: dict
    density: DensityOperator | None = None
    composite: CompositeState | None = None
    observables: dict[str, Observable] = field(default_factory=dict)
    multimode: dict[str, MultimodeState] = field(default_factory=dict)
    measurer: MeasurerSpec | None = None
    stages: list[PipelineStage] | None = None
    hamiltonian: HamiltonianSpec | None = None
    times: tuple[float, float] | None = None
    game: GameSpec | None = None
    game_options: dict = field(default_factory=dict)
    interference: InterferenceDistribution | None = None

    # -- reference resolution -------------------------------------------

    def need(self, section: str):
        """The parsed ``section`` (an attribute name), which this operation needs."""
        value = getattr(self, section)
        if value is None:
            article = "an" if section[0] in "aeiou" else "a"
            raise ScenarioError(
                f"this operation needs {article} '{section}' section", section)
        return value

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

    def directive(self, key: str):
        """``run.<key>``, which this operation needs; parsing checked its type."""
        _require(key in self.run, f"run.{key} is required for this operation",
                 f"run.{key}")
        return self.run[key]

    def resolve(self, key: str, section: str) -> tuple[str, object]:
        """``(name, entry)``: the entry of ``section`` that ``run.<key>`` names."""
        declared = getattr(self, section)
        name = self.directive(key)
        noun = "observable" if section == "observables" else "multimode vector"
        if name not in declared:
            raise ScenarioError(
                f"{noun} {name!r} is not declared (have: "
                f"{sorted(declared) or 'none'})", f"run.{key}")
        return name, declared[name]

    def need_observable(self, key: str) -> Observable:
        return self.resolve(key, "observables")[1]

    def need_multimode(self) -> MultimodeState:
        return self.resolve("multimode", "multimode")[1]

    def seed(self, override: int | None = None) -> int:
        if override is not None:
            return _seed(int(override), "--seed")
        return self.run.get("seed", 0)


def _parse_state(section, scenario: Scenario):
    scenario.density = _density(
        section, "state", ("pure", "density", "composite", "amplitudes"))
    if "composite" in section or "amplitudes" in section:
        scenario.composite = scenario.density


def _parse_observables(section, scenario: Scenario):
    _require(isinstance(section, dict), "observables must be an object", "observables")
    for name, body in section.items():
        path = f"observables.{name}"
        _fields(body, path, "observable", ("eigenvalues", "eigenbasis"))
        values = _reals(body["eigenvalues"], f"{path}.eigenvalues")
        basis = _matrix(body["eigenbasis"], f"{path}.eigenbasis")
        scenario.observables[name] = _wrap_domain(
            path, Observable, np.array(values), basis, name)


def _parse_multimode(section, scenario: Scenario):
    _require(isinstance(section, dict), "multimode must be an object", "multimode")
    for name, body in section.items():
        path = f"multimode.{name}"
        scenario.multimode[name] = _wrap_domain(
            path, MultimodeState.in_standard_basis, _vector(body, path), name)


def _parse_measurer(section, scenario: Scenario):
    from .channels import MeasurerSpec
    _fields(section, "measurer", "measurer", ("dim", "initial", "coupling"))
    dim = _int(section["dim"], "measurer.dim")
    ready = _density(section["initial"], "measurer.initial")
    coupling = _matrix(section["coupling"], "measurer.coupling")
    scenario.measurer = _wrap_domain("measurer", MeasurerSpec, dim, ready, coupling)


def _parse_stages(section, scenario: Scenario):
    from .channels import PipelineStage
    _require(isinstance(section, list) and section,
             "stages must be a non-empty list", "stages")
    out = []
    for k, body in enumerate(section):
        path = f"stages[{k}]"
        _fields(body, path, "stage", ("kind",), ("duration", "matrix"))
        duration = _real(body.get("duration", 0.0), f"{path}.duration")
        transform = None
        if "matrix" in body:
            transform = _matrix(body["matrix"], f"{path}.matrix")
        out.append(_wrap_domain(path, PipelineStage, body["kind"], duration, transform))
    scenario.stages = out


def _parse_hamiltonian(section, scenario: Scenario):
    from .dynamics import HamiltonianSpec
    _fields(section, "hamiltonian", "hamiltonian", ("h0",), ("pieces",))
    h0 = _matrix(section["h0"], "hamiltonian.h0")
    raw = section.get("pieces", [])
    _require(isinstance(raw, list), "pieces must be a list", "hamiltonian.pieces")
    pieces = []
    for k, body in enumerate(raw):
        path = f"hamiltonian.pieces[{k}]"
        _fields(body, path, "piece", ("start", "matrix"))
        pieces.append((
            _real(body["start"], f"{path}.start"),
            _matrix(body["matrix"], f"{path}.matrix"),
        ))
    scenario.hamiltonian = _wrap_domain(
        "hamiltonian", HamiltonianSpec, h0, tuple(pieces))


def _parse_times(section, scenario: Scenario):
    _fields(section, "times", "times", ("t0", "t"))
    scenario.times = tuple(_real(section[key], f"times.{key}") for key in ("t0", "t"))


def _parse_game(section, scenario: Scenario):
    from .game import GameSpec
    _fields(section, "game", "game", ("joint",),
            ("payoffs", "q", "favored", "empirical", "cohort"))
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
        options["q"] = q if q == "quarter-law" else _real(q, "game.q")
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
        body = _fields(section["cohort"], "game.cohort", "cohort",
                       ("n_pairs",), ("symmetry", "fixed_q"))
        n_pairs = _int(body["n_pairs"], "game.cohort.n_pairs")
        _require(n_pairs >= 1, f"need at least one pair, got {n_pairs}", "game.cohort.n_pairs")
        _require(n_pairs <= policy.MAX_PAIRS,
                 f"{n_pairs} pairs is above the cap {policy.MAX_PAIRS}", "game.cohort.n_pairs")
        symmetry = body.get("symmetry", "broken")
        _require(symmetry in ("broken", "intact"),
                 f"symmetry must be 'broken' or 'intact', got {symmetry!r}",
                 "game.cohort.symmetry")
        fixed_q = _bool(body.get("fixed_q", False), "game.cohort.fixed_q")
        _require(not (fixed_q and symmetry == "intact"),
                 "fixed_q only makes sense with broken symmetry", "game.cohort.fixed_q")
        options["cohort"] = {"n_pairs": n_pairs, "symmetry": symmetry, "fixed_q": fixed_q}
    scenario.game_options = options


def _parse_interference(section, scenario: Scenario):
    from .game import InterferenceDistribution
    _fields(section, "interference", "interference", ("kind",), ("grid", "density"))
    kind = section["kind"]
    if kind == "uniform":
        _require(len(section) == 1,
                 "uniform interference takes no further fields", "interference")
        scenario.interference = InterferenceDistribution.uniform()
        return
    _require(kind == "tabulated",
             f"interference kind must be 'uniform' or 'tabulated', got {kind!r}",
             "interference.kind")
    _fields(section, "interference", "tabulated interference", ("grid", "density"), ("kind",))
    grid, density = (_reals(section[key], f"interference.{key}") for key in ("grid", "density"))
    scenario.interference = _wrap_domain(
        "interference", InterferenceDistribution.tabulated, grid, density)


_SECTIONS = {
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
_TOP_LEVEL = ("run", *_SECTIONS)


def parse_scenario(source) -> Scenario:
    """Parse and validate one scenario document (str or bytes), which the
    scenario keeps as its ``source``."""
    try:
        text = source.decode("utf-8") if isinstance(source, bytes) else source
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

    run = _fields(data.get("run", {}), "run", "run", (), _DIRECTIVES)
    run = {key: check(run[key], f"run.{key}")
           for key, check in _DIRECTIVES.items() if key in run}

    scenario = Scenario(source, run)
    # a tolerance override covers the validation of the scenario's own
    # operators, not just the later computation
    with policy.tolerance_scope(run.get("tolerance", policy.tolerance())):
        for key, parser in _SECTIONS.items():
            if key in data:
                parser(data[key], scenario)
    return scenario


def serialize_scenario(scenario: Scenario) -> str:
    """The document ``scenario`` was parsed from, in its own forms, with
    sorted keys and no defaults filled in.  Parsing it back gives the same
    objects, and serializing again gives the same text."""
    return json.dumps(json.loads(scenario.source), indent=2, sort_keys=True) + "\n"


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
        if isinstance(value, (complex, np.complexfloating)):
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
        if not -window <= value <= 1.0 + window:
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
