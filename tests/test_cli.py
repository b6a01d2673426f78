"""Command-line behavior: dispatch, exit codes, golden outputs, determinism."""

import copy
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qprospect
from qprospect import ScenarioError, policy
from qprospect.cli import _HANDLERS, main, run
from qprospect.scenario import _DIRECTIVES, _TOP_LEVEL as SECTIONS, parse_scenario

HERE = os.path.dirname(__file__)
DATA = os.path.join(HERE, "data")
GOLDEN = os.path.join(HERE, "golden")


def data(name: str) -> str:
    return os.path.join(DATA, name)


SMOKE = [
    ("born", "born_plus.json"),
    ("lueders", "lueders_plus.json"),
    ("wigner", "wigner_ground.json"),
    ("kirkwood", "kirkwood_witness.json"),
    ("joint", "bell_joint.json"),
    ("prospect", "prospect_witness.json"),
    ("prospect", "bell_prospect.json"),
    ("conditional", "conditional_witness.json"),
    ("pipeline", "pipeline_pointer.json"),
    ("entanglement", "bell_entanglement.json"),
    ("game", "game_broken.json"),
    ("game", "game_cohort.json"),
    ("quarter-law", "quarter_law_uniform.json"),
    ("dynamics", "dynamics_rabi.json"),
]


class TestDispatch:
    @pytest.mark.parametrize("subcommand,name", SMOKE,
                             ids=[f"{s}-{n}" for s, n in SMOKE])
    def test_every_subcommand_runs(self, subcommand, name, capsys):
        code = main([subcommand, "--scenario", data(name)])
        out = capsys.readouterr().out
        assert code == 0
        assert f"# op: {subcommand}" in out

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_formats(self, fmt, capsys):
        code = main(["born", "--scenario", data("born_plus.json"),
                     "--format", fmt])
        out = capsys.readouterr().out
        assert code == 0
        if fmt == "json":
            body = json.loads(out)
            labels = [r["label"] for r in body["rows"]]
            assert "p[Z=0]" in labels
        elif fmt == "csv":
            assert out.splitlines()[0] == "label,value,provenance"
        else:
            assert out.startswith("# born")

    def test_out_writes_file_and_keeps_stdout_quiet(self, tmp_path, capsys):
        target = tmp_path / "result.csv"
        code = main(["born", "--scenario", data("born_plus.json"),
                     "--format", "csv", "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        text = target.read_bytes()
        assert b"\r" not in text
        assert b"p[Z=0],0.5,born_distribution" in text

    def test_bell_prospect_has_no_interference(self, capsys):
        main(["prospect", "--scenario", data("bell_prospect.json"),
              "--format", "csv"])
        out = capsys.readouterr().out
        assert "q[0],0,prospect_lattice" in out
        assert "q[1],0,prospect_lattice" in out

    def test_run_dispatch_without_subcommand_uses_run_op(self):
        with open(data("born_plus.json"), "rb") as handle:
            scenario = parse_scenario(handle.read())
        table = run(scenario)
        assert table.metadata["op"] == "born"
        assert any(label == "p[Z=0]" for label, _, _ in table.rows)


class TestExitCodes:
    def test_validation_error_is_2(self, tmp_path, capsys):
        doc = {
            "run": {"op": "born", "observable": "Z"},
            "state": {"density": [[0.7, 0], [0, 0.7]]},
            "observables": {
                "Z": {"eigenvalues": [0, 1], "eigenbasis": [[1, 0], [0, 1]]}
            },
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["born", "--scenario", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "unit trace" in err

    def test_unresolved_reference_is_2(self, tmp_path, capsys):
        doc = {
            "run": {"op": "born", "observable": "missing"},
            "state": {"pure": [1, 0]},
            "observables": {
                "Z": {"eigenvalues": [0, 1], "eigenbasis": [[1, 0], [0, 1]]}
            },
        }
        path = tmp_path / "ref.json"
        path.write_text(json.dumps(doc))
        code = main(["born", "--scenario", str(path)])
        assert code == 2
        assert "not declared" in capsys.readouterr().err

    def test_op_mismatch_is_2(self, capsys):
        code = main(["joint", "--scenario", data("born_plus.json")])
        assert code == 2
        assert "declares op" in capsys.readouterr().err

    def test_missing_file_is_2(self, capsys):
        code = main(["born", "--scenario", "/nonexistent/x.json"])
        assert code == 2
        assert "cannot read scenario" in capsys.readouterr().err

    def test_numeric_contract_violation_is_3(self, tmp_path, capsys):
        # a loose tolerance lets a non-positive "density" through validation;
        # its negative Born weight then breaks the fixed probability window
        doc = {
            "run": {"op": "born", "observable": "Z", "tolerance": 0.5},
            "state": {"density": [[1.2, 0], [0, -0.2]]},
            "observables": {
                "Z": {"eigenvalues": [0, 1], "eigenbasis": [[1, 0], [0, 1]]}
            },
        }
        path = tmp_path / "loose.json"
        path.write_text(json.dumps(doc))
        code = main(["born", "--scenario", str(path)])
        assert code == 3
        assert "numeric contract" in capsys.readouterr().err

    def test_tolerance_override_is_restored(self, tmp_path):
        before = policy.tolerance()
        doc = {
            "run": {"op": "born", "observable": "Z", "tolerance": 1e-3},
            "state": {"pure": [1, 0]},
            "observables": {
                "Z": {"eigenvalues": [0, 1], "eigenbasis": [[1, 0], [0, 1]]}
            },
        }
        path = tmp_path / "tol.json"
        path.write_text(json.dumps(doc))
        assert main(["born", "--scenario", str(path)]) == 0
        assert policy.tolerance() == before


class TestMalformedScenarios:
    """Bytes and directives that once escaped as tracebacks exit 2."""

    @pytest.mark.parametrize("raw,message", [
        (b"\xff\xfe{}", "not UTF-8"),
        (b"[" * 100000 + b"]" * 100000, "nested too deeply"),
    ], ids=["non-utf8", "deeply-nested"])
    def test_unreadable_document_is_2(self, raw, message, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        assert main(["born", "--scenario", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name,key,value", [
        ("bell_entanglement", "log_base", "ten"),
        ("bell_entanglement", "log_base", 1),
        ("prospect_witness", "normalized", "no"),
        ("prospect_witness", "normalized", 0),
    ])
    def test_mistyped_directive_is_2(self, name, key, value, tmp_path, capsys):
        with open(data(f"{name}.json")) as handle:
            doc = json.load(handle)
        doc["run"][key] = value
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert main([doc["run"]["op"], "--scenario", str(path)]) == 2
        assert f"run.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [3.5, None, True], ids=["number", "null", "bool"])
    @pytest.mark.parametrize("name", [
        "born_plus", "lueders_plus", "wigner_ground", "kirkwood_witness"])
    def test_observable_eigenvalues_must_be_a_list(self, name, value, tmp_path, capsys):
        with open(data(f"{name}.json")) as handle:
            doc = json.load(handle)
        observable = sorted(doc["observables"])[0]
        doc["observables"][observable]["eigenvalues"] = value
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert main([doc["run"]["op"], "--scenario", str(path)]) == 2
        assert (f"observables.{observable}.eigenvalues: expected a list of numbers"
                in capsys.readouterr().err)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_overflowing_eigenbasis_is_2(self, tmp_path, capsys):
        # A^dag A overflows to inf - inf, so the unitarity defect is NaN; the
        # basis once passed and the run ended in exit 3 at p(Z)
        with open(data("born_plus.json")) as handle:
            doc = json.load(handle)
        doc["observables"]["Z"]["eigenbasis"] = [
            [[1.37e154, 9.40e290], [-6.65e153, -7.43e291]],
            [[3.52e153, -9.22e291], [9.03e153, -4.58e291]],
        ]
        path = tmp_path / "born.json"
        path.write_text(json.dumps(doc))
        assert main(["born", "--scenario", str(path)]) == 2
        assert ("observables.Z: eigenbasis of 'Z' is not unitary: max deviation nan"
                in capsys.readouterr().err)
        with pytest.raises(ScenarioError) as info:
            parse_scenario(path.read_bytes())
        assert info.value.path == "observables.Z"
        assert math.isnan(info.value.__cause__.measured)
        assert info.value.__cause__.bound == policy.tolerance()

    def test_label_is_not_a_message_template(self, tmp_path, capsys):
        with open(data("born_plus.json")) as handle:
            doc = json.load(handle)
        doc["observables"] = {"{x}": {"eigenvalues": [0, 1], "eigenbasis": [[1, 0], [0, 2]]}}
        doc["run"]["observable"] = "{x}"
        path = tmp_path / "born.json"
        path.write_text(json.dumps(doc))
        assert main(["born", "--scenario", str(path)]) == 2
        assert ("observables.{x}: eigenbasis of '{x}' is not unitary: max deviation 3.000e+00"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("empirical", [
        [2, -1], [0.5, 0.6], [0.37, 0.63 + 1e-9], [-0.0001, 1.0001], [1.5, -0.5],
    ])
    def test_empirical_must_be_a_probability_pair(self, empirical, tmp_path, capsys):
        with open(data("game_broken.json")) as handle:
            doc = json.load(handle)
        doc["game"]["empirical"] = empirical
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        assert main(["game", "--scenario", str(path), "--format", "csv"]) == 2
        assert "game.empirical: empirical must be two probabilities" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["game_broken", "game_cohort"])
    def test_shipped_empirical_pairs_still_run(self, name, capsys):
        with open(data(f"{name}.json")) as handle:
            assert json.load(handle)["game"]["empirical"] == [0.37, 0.63]
        assert main(["game", "--scenario", data(f"{name}.json"), "--format", "csv"]) == 0
        assert "deviation[cooperate]" in capsys.readouterr().out

    @pytest.mark.parametrize("cohort,at,message", [
        ({"symmetry": "sideways"}, "symmetry",
         "symmetry must be 'broken' or 'intact', got 'sideways'"),
        ({"symmetry": None}, "symmetry", "symmetry must be 'broken' or 'intact', got None"),
        ({"n_pairs": 0}, "n_pairs", "need at least one pair, got 0"),
        ({"n_pairs": -5}, "n_pairs", "need at least one pair, got -5"),
        ({"n_pairs": policy.MAX_PAIRS + 1}, "n_pairs",
         f"{policy.MAX_PAIRS + 1} pairs is above the cap {policy.MAX_PAIRS}"),
        ({"symmetry": "intact", "fixed_q": True}, "fixed_q",
         "fixed_q only makes sense with broken symmetry"),
    ], ids=["symmetry", "symmetry-null", "no-pairs", "negative-pairs", "above-cap",
            "fixed-q-intact"])
    def test_cohort_is_checked_at_parse(self, cohort, at, message, tmp_path, capsys):
        with open(data("game_cohort.json")) as handle:
            doc = json.load(handle)
        doc["game"]["cohort"].update(cohort)
        path = tmp_path / "cohort.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError) as caught:
            parse_scenario(path.read_bytes())
        assert caught.value.path == f"game.cohort.{at}"
        assert main(["game", "--scenario", str(path)]) == 2
        assert f"error: game.cohort.{at}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("cohort", [
        {"n_pairs": 1}, {"n_pairs": policy.MAX_PAIRS, "fixed_q": True},
        {"symmetry": "intact", "fixed_q": False},
    ], ids=["one-pair", "at-cap", "intact"])
    def test_cohort_in_range_parses(self, cohort, tmp_path):
        with open(data("game_cohort.json")) as handle:
            doc = json.load(handle)
        doc["game"]["cohort"].update(cohort)
        options = parse_scenario(json.dumps(doc).encode()).game_options["cohort"]
        assert options == doc["game"]["cohort"]

    @pytest.mark.parametrize("pieces", [{}, {"a": 1}, "pieces", 3, None])
    def test_hamiltonian_pieces_must_be_a_list(self, pieces, tmp_path, capsys):
        with open(data("dynamics_rabi.json")) as handle:
            doc = json.load(handle)
        doc["hamiltonian"]["pieces"] = pieces
        path = tmp_path / "dynamics.json"
        path.write_text(json.dumps(doc))
        assert main(["dynamics", "--scenario", str(path)]) == 2
        assert "hamiltonian.pieces: pieces must be a list" in capsys.readouterr().err

    def test_absent_hamiltonian_pieces_mean_none(self, tmp_path, capsys):
        with open(data("dynamics_rabi.json")) as handle:
            doc = json.load(handle)
        del doc["hamiltonian"]["pieces"]
        path = tmp_path / "dynamics.json"
        path.write_text(json.dumps(doc))
        assert main(["dynamics", "--scenario", str(path)]) == 0

    @pytest.mark.parametrize("name,where,at,what,stray", [
        ("pipeline_pointer", ["measurer"], "measurer", "measurer", "couplnig"),
        ("dynamics_rabi", ["hamiltonian"], "hamiltonian", "hamiltonian", "h1"),
        ("dynamics_rabi", ["hamiltonian", "pieces", 0], "hamiltonian.pieces[0]", "piece", "strat"),
        ("dynamics_rabi", ["times"], "times", "times", "t1"),
        ("lueders_plus", ["run"], "run", "run", "indx"),
        ("game_broken", ["game"], "game", "game", "favoured"),
        ("born_plus", ["observables", "Z"], "observables.Z", "observable", "label"),
        ("bell_joint", ["state", "composite"], "state.composite", "composite", "dimz"),
        ("quarter_law_uniform", ["interference"], "interference", "interference", "bins"),
    ], ids=["measurer", "hamiltonian", "piece", "times", "run", "game", "observable",
            "composite", "tabulated-interference"])
    def test_unknown_section_fields_are_2(self, name, where, at, what, stray, tmp_path, capsys):
        with open(data(f"{name}.json")) as handle:
            doc = json.load(handle)
        if name == "pipeline_pointer":
            # the default qubit pointer model, spelled out
            doc["measurer"] = {
                "dim": 2, "initial": {"pure": [1, 0]},
                "coupling": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]],
            }
        if name == "quarter_law_uniform":
            # the uniform density, tabulated
            doc["interference"] = {"kind": "tabulated", "grid": [-1, 1], "density": [0.5, 0.5]}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert main([doc["run"]["op"], "--scenario", str(path)]) == 0
        section = doc
        for key in where:
            section = section[key]
        section[stray] = 1
        path.write_text(json.dumps(doc))
        assert main([doc["run"]["op"], "--scenario", str(path)]) == 2
        assert f"{at}: unknown {what} fields ['{stray}']" in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["index", "multimode"])
    def test_dynamics_prospect_needs_index_and_multimode(self, missing, tmp_path, capsys):
        with open(data("dynamics_rabi.json")) as handle:
            doc = json.load(handle)
        del doc["run"][missing]
        path = tmp_path / "dynamics.json"
        path.write_text(json.dumps(doc))
        assert main(["dynamics", "--scenario", str(path)]) == 2
        assert f"run.{missing}: run.{missing} is required" in capsys.readouterr().err

    def test_pure_state_inside_the_norm_window_names_the_norm(self, tmp_path, capsys):
        with open(data("born_plus.json")) as handle:
            doc = json.load(handle)
        doc["state"]["pure"] = [1.0 + 5e-9, 0.0]
        path = tmp_path / "born.json"
        path.write_text(json.dumps(doc))
        assert main(["born", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert "state.pure: state vector norm 1.000000005 deviates from 1" in err
        assert "trace" not in err

    def test_oversized_amplitudes_are_2(self, tmp_path, capsys):
        with open(data("prospect_witness.json")) as handle:
            doc = json.load(handle)
        doc["state"]["amplitudes"] = [[1.0 / 4160 ** 0.5] * 64 for _ in range(65)]
        doc["multimode"]["b"] = [1.0] * 64
        path = tmp_path / "oversized.json"
        path.write_text(json.dumps(doc))
        message = "state.amplitudes: composite state has size 4160, above the cap 4096"
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(path.read_bytes())
        assert main(["prospect", "--scenario", str(path)]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("tolerance,code,shown", [
        ([0.001, 0], 0, "meta.tolerance,0.001,metadata"),
        ([0.001, 1], 2, "run.tolerance: expected a real number"),
    ], ids=["real-pair", "complex-pair"])
    def test_tolerance_pair_runs_as_its_real_value(
            self, tolerance, code, shown, tmp_path, capsys):
        # a [re, 0] pair once passed the check and reached the run as a list
        with open(data("born_plus.json")) as handle:
            doc = json.load(handle)
        doc["run"]["tolerance"] = tolerance
        path = tmp_path / "born.json"
        path.write_text(json.dumps(doc))
        assert main(["born", "--scenario", str(path), "--format", "csv"]) == code
        out, err = capsys.readouterr()
        assert shown in (out if code == 0 else err)

    def test_negative_seed_flag_is_2(self, capsys):
        code = main(["game", "--scenario", data("game_cohort.json"), "--seed", "-1"])
        assert code == 2
        assert "--seed: seed must be nonnegative" in capsys.readouterr().err


class TestGolden:
    @pytest.mark.parametrize("subcommand,name", [
        ("joint", "bell_joint"),
        ("entanglement", "bell_entanglement"),
        ("game", "game_broken"),
        ("quarter-law", "quarter_law_uniform"),
        ("prospect", "prospect_witness"),
        ("pipeline", "pipeline_pointer"),
    ])
    def test_csv_matches_golden(self, subcommand, name, tmp_path):
        target = tmp_path / f"{name}.csv"
        code = main([subcommand, "--scenario", data(f"{name}.json"),
                     "--format", "csv", "--out", str(target)])
        assert code == 0
        produced = target.read_bytes()
        with open(os.path.join(GOLDEN, f"{name}.csv"), "rb") as handle:
            expected = handle.read()
        assert produced == expected

    def test_fixed_seed_output_is_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code = main(["game", "--scenario", data("game_cohort.json"),
                         "--format", "csv", "--seed", "99", "--out", str(p)])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_flag_beats_scenario_seed(self, capsys):
        main(["game", "--scenario", data("game_cohort.json"),
              "--format", "csv", "--seed", "99"])
        out = capsys.readouterr().out
        assert "meta.seed,99,metadata" in out


class TestSelftest:
    def test_selftest_passes_and_prints_every_criterion(self, capsys):
        code = main(["selftest"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 13
        assert all(l.startswith("PASS") for l in lines)
        assert "13/13 criteria passed" in out

    def test_selftest_out_file(self, tmp_path):
        target = tmp_path / "selftest.txt"
        code = main(["selftest", "--out", str(target)])
        assert code == 0
        assert "13/13 criteria passed" in target.read_text()


class TestConsoleEntry:
    def test_module_invocation_exit_code(self):
        result = subprocess.run(
            [sys.executable, "-m", "qprospect.cli", "quarter-law",
             "--scenario", data("quarter_law_uniform.json")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "q_plus" in result.stdout

    def test_version_flag(self):
        result = subprocess.run(
            [sys.executable, "-m", "qprospect.cli", "--version"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert result.stdout.strip()


def run_cli_python(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this qprospect."""
    src = os.path.dirname(os.path.dirname(qprospect.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env)


def refusing(*names: str) -> str:
    """Script prelude whose import finder refuses ``names`` and their submodules."""
    return f"""
import sys

class Refuse:
    names = {names!r}

    def find_spec(self, name, path=None, target=None):
        if any(name == n or name.startswith(n + ".") for n in self.names):
            raise ModuleNotFoundError(f"{{name}} is refused", name=name)
        return None

sys.meta_path.insert(0, Refuse())
"""


REFUSE_SCIPY = refusing("scipy")
RUN_MAIN = "from qprospect.cli import main\nsys.exit(main(sys.argv[1:]))\n"


class TestNumpyOnlyRuntime:
    def test_cli_import_loads_no_scipy(self):
        result = run_cli_python(
            "import sys, qprospect.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_selftest_runs_without_scipy(self):
        result = run_cli_python(REFUSE_SCIPY + RUN_MAIN, "selftest")
        assert result.returncode == 0, result.stderr
        assert "13/13 criteria passed" in result.stdout

    def test_quarter_law_runs_without_scipy(self, tmp_path):
        target = tmp_path / "quarter_law_uniform.csv"
        result = run_cli_python(
            REFUSE_SCIPY + RUN_MAIN, "quarter-law",
            "--scenario", data("quarter_law_uniform.json"),
            "--format", "csv", "--out", str(target))
        assert result.returncode == 0, result.stderr
        with open(os.path.join(GOLDEN, "quarter_law_uniform.csv"), "rb") as handle:
            assert target.read_bytes() == handle.read()

    def test_refusing_finder_does_refuse(self):
        # guards the two tests above: the finder must really block scipy
        result = run_cli_python(REFUSE_SCIPY + "import scipy.integrate\n")
        assert result.returncode != 0
        assert "scipy is refused" in result.stderr


OVERFLOWING = {
    # <B|B> = 2e310 overflows; the state once parsed and the run failed
    # later, with no path and six numpy warning lines ahead of the error
    "multimode_norm": ("prospect", "prospect_witness.json", ("multimode", "b"),
                       [1e155, 1e155],
                       "error: multimode.b: multimode state norm <B|B> = inf is not finite"),
    # A^dag A overflows to inf - inf: four numpy warning lines before
    "eigenbasis": ("born", "born_plus.json", ("observables", "Z", "eigenbasis"),
                   [[[1.37e154, 9.40e290], [-6.65e153, -7.43e291]],
                    [[3.52e153, -9.22e291], [9.03e153, -4.58e291]]],
                   "error: observables.Z: eigenbasis of 'Z' is not unitary: "
                   "max deviation nan exceeds 1.0e-10"),
}


class TestOneStderrLine:
    """A refused run writes its one error line to stderr and nothing else."""

    @pytest.mark.parametrize("case", sorted(OVERFLOWING))
    def test_overflow_is_one_line(self, case, tmp_path):
        op, name, location, value, line = OVERFLOWING[case]
        doc = copy.deepcopy(SCENARIOS[name[:-5]])
        parent = doc
        for key in location[:-1]:
            parent = parent[key]
        parent[location[-1]] = value
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        result = run_cli_python("import sys\n" + RUN_MAIN, op, "--scenario", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.splitlines() == [line]


def _load(file: str) -> dict:
    with open(data(file), encoding="utf-8") as handle:
        return json.load(handle)


SCENARIOS = {f[:-5]: _load(f) for f in sorted(os.listdir(DATA)) if f.endswith(".json")}


def _reference(name: str) -> tuple[bytes, bool]:
    """The golden CSV of a scenario, or its numeric reference; exact or not."""
    golden = os.path.join(GOLDEN, f"{name}.csv")
    if os.path.exists(golden):
        with open(golden, "rb") as handle:
            return handle.read(), True
    expected = os.path.join(os.path.dirname(HERE), "perfbench", "expected", f"{name}.csv")
    with open(expected, "rb") as handle:
        return handle.read(), False


def _same_csv(produced: str, expected: str, tol: float = 1e-12) -> bool:
    """Text cells equal and numeric cells within ``tol``, row by row."""
    got, want = produced.splitlines(), expected.splitlines()
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        ca, cb = a.split(","), b.split(",")
        if len(ca) != len(cb):
            return False
        for x, y in zip(ca, cb):
            if x != y:
                try:
                    if abs(float(x) - float(y)) > tol:
                        return False
                except ValueError:
                    return False
    return True


# each op family with the scenarios it runs and the modules it must not load
FAMILIES = {
    "measure": (("born_plus", "lueders_plus", "wigner_ground", "kirkwood_witness"),
                ("composite", "channels", "dynamics", "game", "entangle", "acceptance")),
    "composite": (("bell_joint", "prospect_witness", "bell_prospect",
                   "conditional_witness", "bell_entanglement"),
                  ("channels", "dynamics", "game", "measure", "acceptance")),
    "pipeline": (("pipeline_pointer",),
                 ("composite", "dynamics", "game", "entangle", "measure", "acceptance")),
    "game": (("game_broken", "game_cohort", "quarter_law_uniform"),
             ("composite", "channels", "dynamics", "entangle", "measure", "acceptance")),
    "dynamics": (("dynamics_rabi",),
                 ("channels", "game", "entangle", "measure", "acceptance")),
}
RUN_EACH = """
import json
from qprospect.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code:
        sys.exit(code)
"""


class TestLazyLoading:
    """One CLI process imports only the modules its op needs."""

    def test_families_cover_every_scenario(self):
        covered = sorted(name for names, _ in FAMILIES.values() for name in names)
        assert covered == sorted(SCENARIOS)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_op_runs_with_other_modules_refused(self, family, tmp_path):
        names, refused = FAMILIES[family]
        runs = [[SCENARIOS[name]["run"]["op"], "--scenario", data(f"{name}.json"),
                 "--format", "csv", "--out", str(tmp_path / f"{name}.csv")]
                for name in names]
        result = run_cli_python(
            refusing(*(f"qprospect.{m}" for m in refused)) + RUN_EACH, json.dumps(runs))
        assert result.returncode == 0, result.stderr
        for name in names:
            produced = (tmp_path / f"{name}.csv").read_bytes()
            expected, exact = _reference(name)
            if exact:
                assert produced == expected, name
            else:
                assert _same_csv(produced.decode(), expected.decode()), name

    def test_refused_qprospect_module_is_refused(self):
        # guards the test above: refusing the module an op needs breaks the op
        result = run_cli_python(refusing("qprospect.measure") + RUN_MAIN, "born",
                                "--scenario", data("born_plus.json"))
        assert result.returncode != 0
        assert "qprospect.measure is refused" in result.stderr

    def test_package_import_loads_no_numpy(self):
        result = run_cli_python(
            "import sys, qprospect\n"
            "qprospect.__version__\n"
            "print('numpy' in sys.modules, sorted(m for m in sys.modules if 'qprospect' in m))\n"
            "import qprospect.measure\n"
            "print(qprospect.born_distribution is qprospect.measure.born_distribution)\n"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["False ['qprospect']", "True"]

    def test_submodules_stay_reachable(self):
        from qprospect import events
        from qprospect.events import DensityOperator

        assert qprospect.DensityOperator is DensityOperator is events.DensityOperator


# number pairs too: a scenario writes a complex scalar as [re, im]
NUMBERS = (st.integers() | st.floats() | st.floats(min_value=1e300, max_value=1.7e308)
           | st.floats(min_value=-1.7e308, max_value=-1e300))
JSON_SCALARS = (st.none() | st.booleans() | NUMBERS | st.text(max_size=6)
                | st.lists(NUMBERS, min_size=2, max_size=2))
JSON_NESTED = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
# each of the seven JSON types about as often as the others
JSON_VALUES = (JSON_SCALARS | st.lists(JSON_NESTED, max_size=3)
               | st.dictionaries(st.text(max_size=6), JSON_NESTED, max_size=3))


def _locations(doc, path=()):
    """The path of every value in a JSON document, the document itself first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _locations(value, path + (key,))


@st.composite
def mutated_scenarios(draw):
    """An op and a ``tests/data`` scenario with fields dropped, swapped or added.

    The op is the scenario's own half of the time and any op otherwise.
    """
    doc = copy.deepcopy(SCENARIOS[draw(st.sampled_from(sorted(SCENARIOS)))])
    op = draw(st.just(doc["run"]["op"]) | st.sampled_from(sorted(_HANDLERS)))
    for _ in range(draw(st.integers(1, 3))):
        # a depth first, so sections and their fields are hit as often as
        # the many entries of a matrix
        by_depth = {}
        for where in _locations(doc):
            by_depth.setdefault(len(where), []).append(where)
        kind = draw(st.sampled_from(("drop", "swap", "add", "add to run")))
        if kind == "add to run" and isinstance(doc.get("run"), dict):
            # a directive half the time, so values reach its check
            key = draw(st.sampled_from(sorted(_DIRECTIVES)) | st.text(max_size=6))
            doc["run"][key] = draw(JSON_VALUES)
            continue
        path = draw(st.sampled_from(by_depth[draw(st.sampled_from(sorted(by_depth)))]))
        if not path:
            if kind == "add":  # a section of any name, known ones included
                doc[draw(st.sampled_from(SECTIONS) | st.text(max_size=6))] = draw(JSON_VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        target = parent[path[-1]]
        if kind == "drop":
            del parent[path[-1]]
        elif kind == "add" and isinstance(target, dict):
            target[draw(st.text(max_size=6))] = draw(JSON_VALUES)
        elif kind == "add" and isinstance(target, list):
            target.append(draw(JSON_VALUES))
        else:
            parent[path[-1]] = draw(JSON_VALUES)
    return op, doc


class TestNeverATraceback:
    """Every input ends in a result (0), a ValidationError (2) or a contract (3)."""

    @settings(derandomize=True, database=None, max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=mutated_scenarios(), fmt=st.sampled_from(("table", "csv", "json")))
    def test_mutated_scenarios_end_in_an_exit_code(self, case, fmt):
        op, doc = case
        text = json.dumps(doc)
        # main maps ValidationError to 2 and NumericContractError to 3; any
        # other exception from parse, run or render propagates and fails here
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "scenario.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            code = main([op, "--scenario", path, "--format", fmt,
                         "--out", os.path.join(tmp, "out")])
        assert code in (0, 2, 3)

    def test_oversized_cohort_is_2(self, tmp_path, capsys):
        # 10^12 pairs used to escape as a numpy MemoryError
        doc = copy.deepcopy(SCENARIOS["game_cohort"])
        doc["game"]["cohort"]["n_pairs"] = 10**12
        path = tmp_path / "cohort.json"
        path.write_text(json.dumps(doc))
        assert main(["game", "--scenario", str(path)]) == 2
        assert "above the cap 10000000" in capsys.readouterr().err
