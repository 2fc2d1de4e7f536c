"""End-to-end command-line checks: output shapes, exit codes, determinism."""

import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import braidgate.gates
from braidgate import CNOT, H, R, cli, matrix_to_json
from braidgate.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, **kwargs):
    result = runner.invoke(main, list(args), **kwargs)
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    return result


# ---------------------------------------------------------------------------
# ybe
# ---------------------------------------------------------------------------


def test_ybe_solution_passes(runner):
    result = invoke(runner, "ybe", "R")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["form"] == "braided"
    assert payload["residual"] <= 1e-12
    assert payload["ok"] is True


def test_ybe_non_solution_fails(runner):
    result = invoke(runner, "ybe", "CNOT")
    assert result.exit_code == 1
    assert json.loads(result.output)["ok"] is False


def test_ybe_algebraic_form(runner):
    assert invoke(runner, "ybe", "D", "--form", "algebraic").exit_code == 0
    assert invoke(runner, "ybe", "R", "--form", "algebraic").exit_code == 1


def test_ybe_unknown_gate_is_usage_error(runner):
    assert invoke(runner, "ybe", "nope").exit_code == 2


def test_ybe_tolerance_env_override(runner):
    result = invoke(runner, "ybe", "R", env={"BRAIDGATE_TOL": "1e-20"})
    assert result.exit_code == 1  # the 1e-16 residual no longer clears the bar
    result = invoke(runner, "ybe", "R", env={"BRAIDGATE_TOL": "not-a-number"})
    assert result.exit_code == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("source", ["env", "flag"])
def test_ybe_rejects_non_finite_or_negative_tolerance(runner, value, source):
    if source == "env":
        result = invoke(runner, "ybe", "R", env={"BRAIDGATE_TOL": value})
    else:
        result = invoke(runner, "ybe", "R", "--tol", value)
    assert result.exit_code == 2
    assert result.stdout == ""


def test_ybe_explicit_tol_beats_env(runner):
    result = invoke(
        runner, "ybe", "R", "--tol", "1e-12", env={"BRAIDGATE_TOL": "1e-20"}
    )
    assert result.exit_code == 0


def test_ybe_matrix_file(runner, tmp_path):
    path = tmp_path / "cnot.json"
    path.write_text(json.dumps(matrix_to_json(CNOT)))
    result = invoke(runner, "ybe", "--matrix-file", str(path))
    assert result.exit_code == 1
    assert json.loads(result.output)["gate"] == f"file:{path}"
    bad = tmp_path / "bad.json"
    bad.write_text("{\"dim\": 4, \"entries\": []}")
    assert invoke(runner, "ybe", "--matrix-file", str(bad)).exit_code == 2


@pytest.mark.parametrize("dim, count", [(0, 0), (2.5, 4)])
def test_every_verb_rejects_a_matrix_file_with_a_bad_dim(runner, tmp_path, dim, count):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dim": dim, "entries": [[1.0, 0.0]] * count}))
    for argv in (
        ["ybe"],
        ["gate", "--classify"],
        ["sim", "trace"],
        ["sim", "teleport", "--n", "1", "--gate", "I2"],
    ):
        result = invoke(runner, *argv, "--matrix-file", str(path))
        assert result.exit_code == 2, argv
        assert result.stdout == "", argv


def test_ybe_needs_some_gate(runner):
    assert invoke(runner, "ybe").exit_code == 2


# ---------------------------------------------------------------------------
# gate
# ---------------------------------------------------------------------------


def test_gate_classify_golden(runner):
    result = invoke(runner, "gate", "R", "--classify")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["gate"] == "R"
    assert payload["unitary"] is True
    assert payload["entangling"] is True
    assert payload["cnot_class"] == 1
    assert payload["gamma_trace"] == [0.0, 0.0]


def test_gate_classify_swap(runner):
    payload = json.loads(invoke(runner, "gate", "SWAP", "--classify").output)
    assert payload["entangling"] is False
    assert payload["cnot_class"] == "more"


def test_gate_decompose_verify(runner):
    for route in ("qdq", "r0", "mrn"):
        result = invoke(runner, "gate", "--decompose-verify", route)
        assert result.exit_code == 0, route
        payload = json.loads(result.output)
        assert payload["route"] == route
        assert payload["target"] == "CNOT"
        assert payload["ok"] is True


def test_gate_needs_exactly_one_mode(runner):
    assert invoke(runner, "gate", "R").exit_code == 2
    assert (
        invoke(runner, "gate", "R", "--classify", "--decompose-verify", "qdq").exit_code
        == 2
    )


def test_gate_classify_parametric(runner):
    payload = json.loads(
        invoke(runner, "gate", "Rprime:1,0,1,0,1,0,-1,0", "--classify").output
    )
    assert payload["cnot_class"] == 2


# ---------------------------------------------------------------------------
# braid
# ---------------------------------------------------------------------------


def test_braid_golden(runner):
    result = invoke(runner, "braid", "1 1")
    assert result.exit_code == 0
    assert json.loads(result.output) == {
        "components": 2,
        "letters": [1, 1],
        "linking": [[1, 2, 1]],
        "n": 2,
        "writhe": 2,
    }


def test_braid_lists_all_component_pairs(runner):
    payload = json.loads(invoke(runner, "braid", "n=3;").output)
    assert payload["linking"] == [[1, 2, 0], [1, 3, 0], [2, 3, 0]]


def test_braid_rejects_malformed_words(runner):
    assert invoke(runner, "braid", "1 x 2").exit_code == 2
    assert invoke(runner, "braid", "n=2; 5").exit_code == 2


@pytest.mark.parametrize("word", ["n=10000000000;", "1 99999999999"])
def test_braid_strand_guard_exit(runner, word):
    result = invoke(runner, "braid", word)
    assert result.exit_code == 3
    assert "strands exceed" in json.loads(result.stdout)["error"]


# ---------------------------------------------------------------------------
# invariant
# ---------------------------------------------------------------------------


def test_invariant_tau_golden(runner):
    result = invoke(runner, "invariant", "--link", "borromean", "--kind", "tau")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["tau"] == {"float": -8.0, "mantissa": -1, "sqrt2_exp": 6}
    assert payload["equivalence_class"] == "mantissa=-1"


def test_invariant_tau_guard_exit(runner):
    assert invoke(runner, "invariant", "n=13; 1", "--kind", "tau").exit_code == 3


def test_invariant_linking_guard_exit(runner):
    result = invoke(
        runner, "invariant", "n=22; 1", "--kind", "linking", "--a", "1,0", "--c", "0,1"
    )
    assert result.exit_code == 3
    assert "components exceed" in json.loads(result.stdout)["error"]


def test_invariant_linking(runner):
    result = invoke(
        runner,
        "invariant",
        "--link",
        "hopf",
        "--kind",
        "linking",
        "--a",
        "1,0",
        "--c",
        "0,1",
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["components"] == 2
    assert payload["z"] == [0.0, 0.0]  # a=1, c=i lands on a zero of the sum


def test_invariant_bracket_with_oracle(runner):
    result = invoke(
        runner,
        "invariant",
        "n=3; 1 1",
        "--kind",
        "bracket",
        "--theta",
        "0.3",
        "--check-oracle",
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["ok"] is True
    assert payload["oracle_residual"] <= 1e-9
    assert payload["writhe"] == 2


def test_invariant_bracket_singular_angle(runner):
    result = invoke(
        runner, "invariant", "n=3; 1", "--kind", "bracket", "--theta", str(np.pi / 4)
    )
    assert result.exit_code == 1
    assert "error" in json.loads(result.output)


def test_invariant_usage_errors(runner):
    assert invoke(runner, "invariant", "1 1").exit_code == 2  # --kind required
    assert invoke(runner, "invariant", "--kind", "tau").exit_code == 2  # no word
    assert (
        invoke(runner, "invariant", "--link", "nope", "--kind", "tau").exit_code == 2
    )
    assert (
        invoke(
            runner, "invariant", "1 1", "--kind", "linking", "--a", "1,0"
        ).exit_code
        == 2
    )  # missing --c
    assert (
        invoke(
            runner, "invariant", "1 1", "--link", "hopf", "--kind", "tau"
        ).exit_code
        == 2
    )  # word and link are exclusive


# ---------------------------------------------------------------------------
# sim
# ---------------------------------------------------------------------------


def test_sim_trace_report_shape(runner):
    result = invoke(runner, "sim", "trace", "--gate", "R", "--shots", "2000", "--seed", "7")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert sorted(payload) == ["estimate", "exact_p", "seed", "shots", "stderr"]
    assert payload["shots"] == 2000 and payload["seed"] == 7
    assert abs(payload["exact_p"] - 0.5) < 1e-12


def test_sim_trace_rejects_non_unitary(runner, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix_to_json(np.diag([1.0, 2.0]))))
    assert invoke(runner, "sim", "trace", "--matrix-file", str(path)).exit_code == 2


def test_sim_trace_guard(runner, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(matrix_to_json(np.eye(2**11))))
    assert invoke(runner, "sim", "trace", "--matrix-file", str(path)).exit_code == 3


def test_sim_teleport_golden(runner):
    result = invoke(runner, "sim", "teleport", "--n", "1", "--gate", "H", "--seed", "4")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["matches_gate_action"] is True
    assert payload["n"] == 1
    assert len(payload["bits"]) == 2
    assert set(payload["bits"]) <= {"0", "1"}


def test_sim_teleport_explicit_state(runner):
    psi = json.dumps([[1.0, 0.0], [0.0, 0.0]])
    result = invoke(
        runner, "sim", "teleport", "--n", "1", "--gate", "X", "--psi", psi, "--seed", "1"
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    received = [complex(re, im) for re, im in payload["received"]]
    assert abs(abs(received[0]) - 1.0) < 1e-9  # X maps |0> to |0> up to phase


def test_sim_teleport_guard(runner, tmp_path):
    path = tmp_path / "eye16.json"
    path.write_text(json.dumps(matrix_to_json(np.eye(16))))
    result = invoke(runner, "sim", "teleport", "--n", "4", "--matrix-file", str(path))
    assert result.exit_code == 3
    # a catalog gate of the wrong dimension is caught as a usage error instead
    assert invoke(runner, "sim", "teleport", "--n", "4", "--gate", "R").exit_code == 2


def test_sim_teleport_zero_state(runner):
    psi = json.dumps([[0.0, 0.0], [0.0, 0.0]])
    result = invoke(
        runner, "sim", "teleport", "--n", "1", "--gate", "H", "--psi", psi
    )
    assert result.exit_code == 1


def test_sim_project_branch(runner):
    result = invoke(
        runner, "sim", "project", "--state", "branch", "--qubit", "1", "--bit", "1"
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["verdict"] == "entangled"
    assert payload["prob"] == pytest.approx(0.5)


def test_sim_project_ghz_unentangled(runner):
    for bit in ("0", "1"):
        payload = json.loads(
            invoke(
                runner, "sim", "project", "--state", "ghz", "--qubit", "2", "--bit", bit
            ).output
        )
        assert payload["verdict"] == "unentangled"


def test_sim_project_two_qubit_unclassified(runner):
    psi = json.dumps([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    payload = json.loads(
        invoke(
            runner, "sim", "project", "--psi", psi, "--qubit", "1", "--bit", "0"
        ).output
    )
    assert payload["verdict"] == "unclassified"


def test_sim_project_zero_probability(runner):
    psi = json.dumps([[1.0, 0.0]] + [[0.0, 0.0]] * 7)
    result = invoke(
        runner, "sim", "project", "--psi", psi, "--qubit", "1", "--bit", "1"
    )
    assert result.exit_code == 1


def test_sim_project_usage(runner):
    assert invoke(runner, "sim", "project", "--qubit", "1", "--bit", "0").exit_code == 2


# ---------------------------------------------------------------------------
# catalog and selftest
# ---------------------------------------------------------------------------


def test_catalog_gates(runner):
    payload = json.loads(invoke(runner, "catalog", "gates").output)
    assert "R" in payload["gates"]
    assert "Rprime:..." in payload["gates"]


def test_catalog_links(runner):
    payload = json.loads(invoke(runner, "catalog", "links").output)
    assert payload["links"]["hopf"] == "n=2; 1 1"
    assert payload["links"]["borromean"] == "n=3; 1 -2 1 -2 1 -2"


def test_selftest_passes_on_a_fresh_build(runner):
    result = invoke(runner, "selftest")
    assert result.exit_code == 0
    assert "FAIL" not in result.output


def test_selftest_json_lists_every_check(runner):
    result = invoke(runner, "selftest", "--json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["ok"] is True
    rows = payload["checks"]
    names = [row["name"] for row in rows]
    assert names == [golden[0] for golden in cli._GOLDENS]
    assert len(set(names)) == len(names)
    assert all(row["pass"] for row in rows)


def test_selftest_catches_a_mutated_gate(runner, monkeypatch):
    broken = braidgate.gates.R.copy()
    broken[0, 3] = -broken[0, 3]
    monkeypatch.setattr(braidgate.gates, "R", broken)
    result = invoke(runner, "selftest")
    assert result.exit_code == 1
    assert "FAIL" in result.output
    result = invoke(runner, "selftest", "--json")
    assert result.exit_code == 1
    rows = {row["name"]: row for row in json.loads(result.output)["checks"]}
    assert len(rows) == 51
    assert rows["entangling_R"]["computed"] == "error: gate is not unitary"
    assert rows["entangling_R"]["pass"] is False


def test_output_is_deterministic(runner):
    args = ["sim", "teleport", "--n", "2", "--gate", "CNOT", "--seed", "3"]
    first = invoke(runner, *args)
    second = invoke(runner, *args)
    assert first.output == second.output
    again = invoke(runner, "invariant", "--link", "whitehead", "--kind", "tau")
    assert again.output == invoke(runner, "invariant", "--link", "whitehead", "--kind", "tau").output


# ---------------------------------------------------------------------------
# argv fuzz
# ---------------------------------------------------------------------------

# Valid values, malformed ones, and sizes past each guard.  Every size is
# either small or rejected by a guard before anything is allocated: no
# braid word has 6 to 12 strands, where a dense representation would run
# at scale.
_WORDS = [
    "1 -2 1", "n=3; 1 1", "n=2;", "n=4; 1 -3 2", "n=3; 1 -2 1 -2 1 -2", "",
    "1 x", "-1 2", "n=0;", "n=2; 5", "n=x; 1", "n=13; 1", "n=22; 1", "n=300;",
    "n=10000000000;", "1 99999999999", "n=3; " + "1 -2 " * 8 + "1",
]
_GATES = [
    "R", "CNOT", "H", "X", "I2", "SWAP", "Rprime:1,0,1,0,1,0,-1,0", "U1:0.3,0", "U2:0,0", "P:1,0",
    "nope", "",
]
_NUMBERS = ["0", "1", "-1", "2", "3", "0.3", "1e-300", "nan", "inf", "x", "1,0", "0,1", "nan,0", ""]
_STATES = [
    "[[1,0],[0,0]]", "[[0.6,0],[0,0.8]]", "[[0,0],[0,0]]", "[[1,0]]", "[]", "{",
    "[[0.5,0],[0,0],[0,0],[0.5,0],[0,0],[0.5,0],[0.5,0],[0,0]]",
]
# --matrix-file values: file names in a directory written once per module,
# two valid matrices and malformed files of every kind the loader can meet
_MATRIX_FILES = {
    "r.json": json.dumps(matrix_to_json(R)),
    "h.json": json.dumps(matrix_to_json(H)),
    "list.json": "[1]",
    "null_dim.json": '{"dim": null, "entries": []}',
    "flat_entries.json": '{"dim": 2, "entries": [1, 2, 3, 4]}',
    "int_entries.json": '{"dim": 2, "entries": 5}',
    "string_entries.json": '{"dim": 1, "entries": [["a", "b"]]}',
    "infinite_dim.json": '{"dim": 1e999, "entries": []}',
    "zero_dim.json": '{"dim": 0, "entries": []}',
    "fractional_dim.json": '{"dim": 2.5, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}',
    "deep.json": "[" * 100_000,
}
_MATRIX_OPTION = ("--matrix-file", sorted(_MATRIX_FILES))
# argv prefix -> (positional values, options always given, options drawn);
# each option is (flag, values), with values None for a flag
_VERBS = {
    ("ybe",): (
        _GATES,
        [],
        [("--form", ["braided", "algebraic", "x"]), ("--tol", _NUMBERS), _MATRIX_OPTION],
    ),
    ("gate",): (
        _GATES,
        [],
        [
            ("--classify", None),
            ("--decompose-verify", ["mrn", "qdq", "r0", "x"]),
            ("--tol", _NUMBERS),
            _MATRIX_OPTION,
        ],
    ),
    ("braid",): (_WORDS, [], []),
    ("invariant",): (
        _WORDS,
        [("--kind", ["tau", "bracket", "linking", "x"])],
        [
            ("--link", ["hopf", "borromean", "whitehead", "nope"]),
            ("--a", _NUMBERS),
            ("--c", _NUMBERS),
            ("--theta", _NUMBERS),
            ("--A", _NUMBERS),
            ("--check-oracle", None),
            ("--tol", _NUMBERS),
        ],
    ),
    ("sim",): ([], [], []),
    ("sim", "trace"): (
        [],
        [],
        [
            ("--gate", _GATES),
            ("--shots", ["0", "-1", "1", "100", "x"]),
            ("--seed", _NUMBERS),
            _MATRIX_OPTION,
        ],
    ),
    ("sim", "teleport"): (
        [],
        [("--gate", _GATES)],
        [
            ("--n", ["-1", "0", "1", "2", "3", "4", "40"]),
            ("--psi", _STATES),
            ("--seed", _NUMBERS),
            _MATRIX_OPTION,
        ],
    ),
    ("sim", "project"): (
        [],
        [("--qubit", _NUMBERS), ("--bit", _NUMBERS)],
        [("--state", ["ghz", "branch", "x"]), ("--psi", _STATES)],
    ),
    ("catalog",): (["gates", "links", "x"], [], []),
    ("selftest",): ([], [], [("--json", None)]),
}


@st.composite
def _argvs(draw):
    prefix = draw(st.sampled_from(sorted(_VERBS)))
    positional, required, optional = _VERBS[prefix]
    argv = list(prefix)
    if positional and draw(st.booleans()):
        argv.append(draw(st.sampled_from(positional)))
    drawn = draw(st.lists(st.sampled_from(optional), max_size=4)) if optional else []
    for flag, values in required + drawn:
        argv.append(flag)
        if values is not None:
            argv.append(draw(st.sampled_from(values)))
    return argv


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@pytest.fixture(scope="module")
def matrix_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("matrices")
    for name, text in _MATRIX_FILES.items():
        (root / name).write_text(text)
    return root


@given(_argvs())
@settings(max_examples=200, deadline=None)
def test_any_argv_keeps_the_cli_contract(matrix_dir, argv):
    argv = [str(matrix_dir / arg) if arg in _MATRIX_FILES else arg for arg in argv]
    result = CliRunner().invoke(main, argv)
    assert result.exit_code in (0, 1, 2, 3), (argv, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit), argv
    assert "Traceback" not in result.stderr, argv
    if argv[0] == "selftest" and "--json" not in argv:
        return  # the selftest table is the one human-first rendering
    if result.stdout:
        assert result.stdout.count("\n") == 1, argv
        assert isinstance(json.loads(result.stdout, parse_constant=_reject_constant), dict), argv
