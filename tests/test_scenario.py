"""Scenario parsing, canonical serialization, and result tables."""

import glob
import json
import math
import os

import numpy as np
import pytest

from qprospect.errors import NumericContractError, ScenarioError
from qprospect.scenario import (
    ResultTable,
    Scenario,
    format_value,
    parse_scenario,
    serialize_scenario,
)

DATA = os.path.join(os.path.dirname(__file__), "data")
S2 = 1 / math.sqrt(2)


def minimal_born(**overrides):
    doc = {
        "run": {"op": "born", "observable": "Z"},
        "state": {"pure": [S2, S2]},
        "observables": {
            "Z": {"eigenvalues": [0, 1], "eigenbasis": [[1, 0], [0, 1]]}
        },
    }
    doc.update(overrides)
    return json.dumps(doc)


class TestParsing:
    def test_minimal_born_scenario_parses(self):
        sc = parse_scenario(minimal_born())
        assert sc.run["op"] == "born"
        assert sc.density is not None
        assert sc.density.dim == 2
        assert "Z" in sc.observables

    def test_accepts_bytes(self):
        sc = parse_scenario(minimal_born().encode("utf-8"))
        assert sc.density is not None

    def test_non_unit_trace_density_names_unit_trace(self):
        doc = minimal_born(state={"density": [[0.7, 0], [0, 0.7]]})
        with pytest.raises(ScenarioError, match="unit trace") as info:
            parse_scenario(doc)
        assert "state.density" in str(info.value)

    def test_complex_pairs_in_vectors(self):
        doc = minimal_born(state={"pure": [[0, 0.6], 0.8]})  # 0.6i|0> + 0.8|1>
        sc = parse_scenario(doc)
        v = np.array([0.6j, 0.8])
        assert np.array_equal(sc.density.matrix, np.outer(v, v.conj()))

    def test_complex_pairs_in_matrices(self):
        y = {
            "eigenvalues": [1, -1],
            "eigenbasis": [[[S2, 0], [S2, 0]], [[0, S2], [0, -S2]]],
        }
        doc = json.loads(minimal_born())
        doc["observables"]["Y"] = y
        sc = parse_scenario(json.dumps(doc))
        assert sc.observables["Y"].eigenbasis[1, 0] == pytest.approx(1j * S2)

    def test_matrix_row_of_two_reals_is_not_a_complex_scalar(self):
        # in matrix context [[1, 0], [0, 1]] must stay a 2x2 identity
        sc = parse_scenario(minimal_born())
        assert sc.observables["Z"].eigenbasis.shape == (2, 2)
        assert sc.observables["Z"].eigenbasis[0, 1] == 0

    def test_not_json(self):
        with pytest.raises(ScenarioError, match="not valid JSON"):
            parse_scenario("{nope")

    def test_top_level_must_be_object(self):
        with pytest.raises(ScenarioError, match="JSON object"):
            parse_scenario("[1, 2]")

    def test_unknown_section_rejected(self):
        with pytest.raises(ScenarioError, match="unknown sections.*extra"):
            parse_scenario(minimal_born(extra={}))

    def test_bad_format_rejected(self):
        doc = minimal_born(run={"op": "born", "format": "xml"})
        with pytest.raises(ScenarioError, match="run.format"):
            parse_scenario(doc)

    def test_bad_tolerance_rejected(self):
        doc = minimal_born(run={"op": "born", "tolerance": 2.0})
        with pytest.raises(ScenarioError, match="tolerance"):
            parse_scenario(doc)

    @pytest.mark.parametrize("text", [
        "[" * 100000 + "]" * 100000,
        "1" * 5000,
    ], ids=["nested-str", "long-integer"])
    def test_unparsable_json_rejected(self, text):
        with pytest.raises(ScenarioError, match="not valid JSON"):
            parse_scenario(text)

    def test_integer_too_large_for_a_float_rejected(self):
        doc = minimal_born(run={"op": "born", "tolerance": 10**400})
        with pytest.raises(ScenarioError, match="run.tolerance.*too large"):
            parse_scenario(doc)

    @pytest.mark.parametrize("key,value", [
        ("normalized", True), ("normalized", False),
        ("log_base", "natural"), ("log_base", "e"), ("log_base", 2), ("log_base", 10.0),
    ])
    def test_typed_directives_accepted(self, key, value):
        sc = parse_scenario(minimal_born(run={"op": "born", key: value}))
        assert sc.run[key] == value

    @pytest.mark.parametrize("key,value", [
        ("normalized", "no"), ("normalized", 0), ("normalized", None),
        ("log_base", "ten"), ("log_base", True), ("log_base", [10, 0]),
        ("log_base", 1), ("log_base", 0.5), ("log_base", 1e400),
        ("seed", -1), ("seed", 1.5), ("op", [1, 2]), ("op", 7),
    ])
    def test_mistyped_directives_rejected(self, key, value):
        doc = minimal_born(run={"op": "born", key: value})
        with pytest.raises(ScenarioError, match=f"run.{key}"):
            parse_scenario(doc)

    def test_ragged_matrix_carries_row_path(self):
        doc = minimal_born(state={"density": [[1, 0], [0]]})
        with pytest.raises(ScenarioError, match=r"state\.density\[1\]"):
            parse_scenario(doc)

    def test_nonfinite_entry_rejected(self):
        doc = minimal_born(state={"pure": [1e400, 0]})  # json inf
        with pytest.raises(ScenarioError):
            parse_scenario(doc)

    def test_bool_is_not_a_number(self):
        doc = minimal_born(state={"pure": [True, False]})
        with pytest.raises(ScenarioError, match="state.pure"):
            parse_scenario(doc)

    def test_state_requires_exactly_one_variant(self):
        doc = minimal_born(state={"pure": [1, 0], "density": [[1, 0], [0, 0]]})
        with pytest.raises(ScenarioError, match="exactly one"):
            parse_scenario(doc)

    def test_composite_dims_must_match_matrix(self):
        doc = minimal_born(state={"composite": {
            "matrix": [[1, 0], [0, 0]], "dims": [2, 2]}})
        with pytest.raises(ScenarioError, match="state.composite"):
            parse_scenario(doc)

    @pytest.mark.parametrize("dims", [[2, 2, 5], [4], [2.0, 2], [True, 2], "22", {"a": 2}])
    def test_composite_dims_are_parsed_by_the_library_rule(self, dims):
        doc = minimal_born(state={"composite": {
            "matrix": [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], "dims": dims}})
        with pytest.raises(ScenarioError) as refused:
            parse_scenario(doc)
        assert refused.value.path == "state.composite.dims"
        assert str(refused.value) == (
            f"state.composite.dims: dims must be a pair of integers, got {dims!r}")

    def test_amplitude_state_builds_composite_and_density(self):
        s3 = 1 / math.sqrt(3)
        doc = minimal_born(state={"amplitudes": [[s3, s3], [0, s3]]})
        sc = parse_scenario(doc)
        assert sc.composite is not None
        assert sc.composite.dims == (2, 2)
        assert sc.density is not None and sc.density.dim == 4

    def test_game_section(self):
        doc = json.dumps({
            "run": {"op": "game"},
            "game": {
                "joint": [[0.05, 0.05], [0.45, 0.45]],
                "q": "quarter-law",
                "favored": "defect",
                "cohort": {"n_pairs": 100},
            },
            "interference": {"kind": "uniform"},
        })
        sc = parse_scenario(doc)
        assert sc.game is not None
        assert sc.game_options["q"] == "quarter-law"
        assert sc.game_options["favored"] == "defect"
        assert sc.game_options["cohort"]["n_pairs"] == 100
        assert sc.game_options["cohort"]["symmetry"] == "broken"
        assert sc.interference is not None

    def test_game_bad_favored(self):
        doc = json.dumps({
            "run": {"op": "game"},
            "game": {"joint": [[0.25, 0.25], [0.25, 0.25]], "favored": "flee"},
        })
        with pytest.raises(ScenarioError, match="game.favored"):
            parse_scenario(doc)

    def test_game_cohort_fixed_q_must_be_boolean(self):
        doc = json.dumps({
            "run": {"op": "game"},
            "game": {"joint": [[0.25, 0.25], [0.25, 0.25]],
                     "cohort": {"n_pairs": 10, "fixed_q": "no"}},
        })
        with pytest.raises(ScenarioError, match="game.cohort.fixed_q"):
            parse_scenario(doc)

    def test_uniform_interference_rejects_tabulation(self):
        doc = json.dumps({
            "run": {"op": "quarter-law"},
            "interference": {"kind": "uniform", "grid": [0, 1]},
        })
        with pytest.raises(ScenarioError, match="no further fields"):
            parse_scenario(doc)

    def test_tabulated_interference(self):
        doc = json.dumps({
            "run": {"op": "quarter-law"},
            "interference": {
                "kind": "tabulated",
                "grid": [-1, 0, 1],
                "density": [0, 1, 0],
            },
        })
        sc = parse_scenario(doc)
        assert sc.interference is not None
        assert sc.interference.kind == "tabulated"

    def test_tabulated_interference_needs_lists(self):
        doc = json.dumps({
            "run": {"op": "quarter-law"},
            "interference": {"kind": "tabulated", "grid": 5, "density": [0, 1, 0]},
        })
        with pytest.raises(ScenarioError, match="interference.grid"):
            parse_scenario(doc)

    def test_stage_validation_path(self):
        doc = minimal_born(stages=[{"kind": "warp"}])
        with pytest.raises(ScenarioError, match=r"stages\[0\]"):
            parse_scenario(doc)

    def test_unresolved_observable_reference(self):
        sc = parse_scenario(minimal_born(run={"op": "born", "observable": "Q"}))
        with pytest.raises(ScenarioError, match="not declared"):
            sc.need_observable("observable")

    def test_hamiltonian_and_times(self):
        doc = json.dumps({
            "run": {"op": "dynamics", "start": "g"},
            "hamiltonian": {
                "h0": [[0, 0], [0, 1]],
                "pieces": [{"start": 0.5, "matrix": [[0, 1], [1, 0]]}],
            },
            "times": {"t0": 0, "t": 2},
            "multimode": {"g": [1, 0]},
        })
        sc = parse_scenario(doc)
        assert sc.hamiltonian is not None
        assert sc.hamiltonian.pieces[0][0] == 0.5
        assert sc.need("times") == (0.0, 2.0)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "path", sorted(glob.glob(os.path.join(DATA, "*.json"))),
        ids=lambda p: os.path.splitext(os.path.basename(p))[0])
    def test_serialize_parse_is_idempotent(self, path):
        with open(path, "rb") as handle:
            text = handle.read()
        once = serialize_scenario(parse_scenario(text))
        twice = serialize_scenario(parse_scenario(once))
        assert once == twice

    def test_complex_entries_round_trip_exactly(self):
        doc = minimal_born(state={"pure": [[0.6, 0.0], [0.0, 0.8]]})
        first = parse_scenario(doc)
        once = serialize_scenario(first)
        assert json.loads(once)["state"]["pure"] == [[0.6, 0.0], [0.0, 0.8]]
        assert parse_scenario(once).density.matrix.tobytes() == first.density.matrix.tobytes()

    def test_amplitude_state_stays_an_amplitude_matrix(self):
        rng = np.random.default_rng(32)
        c = rng.normal(size=(32, 32))
        doc = minimal_born(state={"amplitudes": (c / np.linalg.norm(c)).tolist()})
        once = serialize_scenario(parse_scenario(doc))
        assert len(once) < 2 * len(doc)
        assert list(json.loads(once)["state"]) == ["amplitudes"]

    def test_pure_measurer_state_stays_pure(self):
        coupling = np.kron(np.diag([1, -1]), [[0, 1], [1, 0]]).tolist()
        doc = minimal_born(measurer={"dim": 2, "initial": {"pure": [1, 0]}, "coupling": coupling})
        once = serialize_scenario(parse_scenario(doc))
        assert json.loads(once)["measurer"]["initial"] == {"pure": [1, 0]}

    @pytest.mark.parametrize(
        "path", sorted(glob.glob(os.path.join(DATA, "*.json"))),
        ids=lambda p: os.path.splitext(os.path.basename(p))[0])
    def test_read_back_is_bit_identical(self, path):
        def arrays(sc):  # serializing sorts the keys, so compare by name
            out = {} if sc.density is None else {"state": sc.density.matrix}
            for name, obs in sc.observables.items():
                out[f"{name}.eigenvalues"] = obs.eigenvalues
                out[f"{name}.eigenbasis"] = obs.eigenbasis
            out.update((name, b.coefficients) for name, b in sc.multimode.items())
            return {key: a.tobytes() for key, a in out.items()}

        with open(path, "rb") as handle:
            first = parse_scenario(handle.read())
        assert arrays(parse_scenario(serialize_scenario(first))) == arrays(first)

    def test_scenario_without_source_is_refused(self):
        with pytest.raises(TypeError, match="source"):
            serialize_scenario(Scenario(run={"op": "born"}))


class TestFormatValue:
    def test_twelve_significant_digits(self):
        assert format_value(1 / 3) == "0.333333333333"
        assert format_value(math.log(2)) == "0.69314718056"

    def test_integers_stay_integers(self):
        assert format_value(7) == "7"
        assert format_value(np.int64(7)) == "7"

    def test_bools_lowercase(self):
        assert format_value(True) == "true"
        assert format_value(False) == "false"

    def test_short_floats_stay_short(self):
        assert format_value(0.25) == "0.25"
        assert format_value(0.5) == "0.5"


class TestResultTable:
    def test_complex_rows_split(self):
        t = ResultTable("demo")
        t.add("z", 0.25 + 0.25j, "somewhere")
        assert [r[0] for r in t.rows] == ["z.re", "z.im"]
        assert [r[1] for r in t.rows] == [0.25, 0.25]

    def test_complex_array_rows_split_entry_by_entry(self):
        t = ResultTable("demo")
        k = np.array([[1 + 2j, 3 + 4j], [5 + 6j, 7 + 8j]])
        t.add_array([f"k[{n};{a}]" for n in range(2) for a in range(2)], k, "op")
        assert [r[:2] for r in t.rows] == [
            ("k[0;0].re", 1.0), ("k[0;0].im", 2.0), ("k[0;1].re", 3.0), ("k[0;1].im", 4.0),
            ("k[1;0].re", 5.0), ("k[1;0].im", 6.0), ("k[1;1].re", 7.0), ("k[1;1].im", 8.0)]
        assert all(type(r[1]) is float for r in t.rows)

    def test_nonfinite_row_rejected(self):
        t = ResultTable("demo")
        with pytest.raises(NumericContractError, match="^result row 'x' is not finite$"):
            t.add("x", float("inf"), "op")
        with pytest.raises(NumericContractError, match="^result row 'b' is not finite$"):
            t.add_array(["a", "b", "c"], np.array([0.5, np.nan, np.inf]), "op")
        with pytest.raises(NumericContractError, match=r"^result row 'z\[1\].im' is not finite$"):
            t.add_array(["z[0]", "z[1]"], np.array([1j, complex(1, np.inf)]), "op")
        assert t.rows == []

    @pytest.mark.parametrize("value", [0.5, np.float64(0.25), np.float32(0.5), 1 - 2j,
                                       np.complex128(3j), 7, 2**70, True, "natural", None])
    def test_scalar_rows_are_one_entry_arrays(self, value):
        scalar, array = ResultTable("demo"), ResultTable("demo")
        scalar.add("x", value, "op")
        array.add_array(["x"], [value], "op")
        assert scalar.rows == array.rows
        assert [type(r[1]) for r in scalar.rows] == [type(r[1]) for r in array.rows]
        if isinstance(value, (str, bool, int)) or value is None:
            assert scalar.rows == [("x", value, "op")] and type(scalar.rows[0][1]) is type(value)

    def test_labels_and_entries_must_pair_up(self):
        with pytest.raises(ValueError):
            ResultTable("demo").add_array(["a"], [0.5, 0.25], "op")

    def test_csv_has_lf_endings_and_metadata_rows(self):
        t = ResultTable("demo")
        t.metadata["seed"] = 3
        t.add("a", 0.5, "op")
        out = t.to_csv()
        assert "\r" not in out
        assert out.splitlines()[0] == "label,value,provenance"
        assert "meta.seed,3,metadata" in out
        assert out.endswith("a,0.5,op\n")

    def test_json_is_valid_and_tagged(self):
        t = ResultTable("demo")
        t.add("a", 0.5, "op")
        body = json.loads(t.to_json())
        assert body["rows"][0] == {"label": "a", "value": 0.5, "provenance": "op"}

    def test_text_contains_provenance(self):
        t = ResultTable("demo")
        t.add("a", 0.5, "born_distribution")
        assert "[born_distribution]" in t.to_text()

    def test_unknown_format_rejected(self):
        t = ResultTable("demo")
        with pytest.raises(ScenarioError, match="format"):
            t.render("yaml")


def _pairs(m):
    """A complex matrix as JSON ``[re, im]`` pairs."""
    return [[[z.real, z.imag] for z in row] for row in np.asarray(m, dtype=complex)]


class TestTransformStages:
    """A transform stage is parsed with its matrix and runs as the library's own stage."""

    U = np.array([[1.0, 1j], [1j, 1.0]]) / math.sqrt(2.0)

    def doc(self, matrix):
        return json.dumps({"run": {"op": "pipeline"}, "state": {"pure": [0.6, 0.8]},
                           "stages": [{"kind": "compose"}, {"kind": "evolve", "duration": 0.5},
                                      {"kind": "transform", "matrix": _pairs(matrix)},
                                      {"kind": "readout"}]})

    @pytest.mark.parametrize("space", ["system", "joint"])
    def test_parsed_transform_runs_as_the_library_stage(self, space):
        from qprospect import DensityOperator, PipelineStage, pointer_measurer, run_pipeline
        t = self.U if space == "system" else np.kron(self.U, np.eye(2))
        sc = parse_scenario(self.doc(t))
        assert sc.stages[2].kind == "transform"
        assert np.array_equal(sc.stages[2].transform, t)
        stages = [PipelineStage("compose"), PipelineStage("evolve", 0.5),
                  PipelineStage("transform", transform=t), PipelineStage("readout")]
        want = run_pipeline(DensityOperator.from_pure([0.6, 0.8]), pointer_measurer(), stages)
        got = run_pipeline(sc.need_density(), pointer_measurer(), sc.stages)
        assert [(r.kind, r.time) for r in got.records] == [(r.kind, r.time) for r in want.records]
        for g, w in zip(got.records, want.records):
            assert np.array_equal(g.state.matrix, w.state.matrix)
        assert np.array_equal(got.rho_a.matrix, want.rho_a.matrix)
        assert np.array_equal(got.rho_b.matrix, want.rho_b.matrix)

    def test_non_unitary_matrix_is_refused_at_its_stage(self):
        with pytest.raises(ScenarioError, match=r"^stages\[2\]: basis transform is not unitary"):
            parse_scenario(self.doc(np.diag([1.0, 2.0])))

    def test_composite_op_on_a_plain_state_is_refused(self):
        from qprospect.cli import run
        sc = parse_scenario(json.dumps({"run": {"op": "joint"}, "state": {"pure": [S2, S2]}}))
        with pytest.raises(ScenarioError, match="^state: this operation needs a 'state' "
                           "section with a composite matrix or an amplitude matrix$"):
            run(sc)
