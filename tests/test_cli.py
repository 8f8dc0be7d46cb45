"""End-to-end checks of the command-line interface.

Each test runs a command line in this process (`conftest.run_cli`) and
inspects the JSON (or CSV) it prints, the exit code, and where relevant the stderr
side channel.  Exit codes follow the contract: 0 on success, 1 when a
checked property fails, 2 on bad input.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import riskdp
from riskdp import mdp_to_json_dict
from riskdp.casebook import (
    highway_time,
    installment_recursive_value,
    payments_mdp,
    preference_boundary,
)
from riskdp.measures import LEAF_KINDS, evaluate, mean, rf_from_json_dict, rf_to_json_dict

from .conftest import assert_close
from .conftest import run_cli as run


@pytest.fixture()
def highway_file(tmp_path: Path) -> str:
    path = tmp_path / "highway.json"
    path.write_text(json.dumps(highway_time().to_json_dict()), encoding="utf-8")
    return str(path)


@pytest.fixture()
def payments_file(tmp_path: Path) -> str:
    path = tmp_path / "payments.json"
    path.write_text(json.dumps(mdp_to_json_dict(payments_mdp(1.0))), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_reports_the_tail_expectation_of_the_highway_time(highway_file):
    result = run(["eval", highway_file, "--cte", "0.5"])
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    assert data["measure"] == "cte(0.5)"
    assert_close(data["value"], 18.0)


def test_eval_csv_prints_the_value_with_full_precision(highway_file):
    result = run(["eval", highway_file, "--mean", "--format", "csv"])
    assert result.exit_code == 0
    value = mean(highway_time())
    assert result.stdout == f"measure,value\nmean,{value!r}\n"


def test_eval_accepts_a_functional_as_json(highway_file):
    result = run(["eval", highway_file, "--rf-json", '{"kind": "cte", "alpha": 0.5}'])
    assert result.exit_code == 0
    assert_close(json.loads(result.stdout)["value"], 18.0)


@pytest.mark.parametrize("kind", list(LEAF_KINDS))
def test_every_leaf_kind_round_trips_and_evaluates_through_its_flag(kind, highway_file):
    cls, param = LEAF_KINDS[kind]
    rf = cls() if param is None else cls(0.25)
    data = rf_to_json_dict(rf)
    assert data == ({"kind": kind} if param is None else {"kind": kind, param: 0.25})
    assert rf_from_json_dict(json.loads(json.dumps(data))) == rf
    flags = [f"--{kind}"] if param is None else [f"--{kind}", "0.25"]
    result = run(["eval", highway_file, *flags])
    assert result.exit_code == 0
    label = kind if param is None else f"{kind}(0.25)"
    assert json.loads(result.stdout) == {"measure": label, "value": evaluate(rf, highway_time())}


def test_eval_requires_exactly_one_objective_flag(highway_file):
    result = run(["eval", highway_file])
    assert result.exit_code == 2
    assert "pick exactly one" in result.stderr

    result = run(["eval", highway_file, "--mean", "--cte", "0.5"])
    assert result.exit_code == 2
    assert "--mean, --cte" in result.stderr


def test_eval_rejects_a_per_stage_list(highway_file):
    result = run(["eval", highway_file, "--rf-json", '[{"kind": "mean"}]'])
    assert result.exit_code == 2
    assert "single risk functional" in result.stderr


def test_eval_rejects_a_distribution_whose_weights_do_not_sum(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"components": [{"w": 0.5, "point": 1.0}]}', encoding="utf-8")
    result = run(["eval", str(path), "--mean"])
    assert result.exit_code == 2
    assert "sum" in result.stderr


def test_eval_reports_the_position_of_broken_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    result = run(["eval", str(path), "--mean"])
    assert result.exit_code == 2
    assert "invalid JSON" in result.stderr


def test_eval_rejects_a_missing_file(tmp_path):
    result = run(["eval", str(tmp_path / "absent.json"), "--mean"])
    assert result.exit_code == 2


PAYMENTS_TEXT = json.dumps(mdp_to_json_dict(payments_mdp(1.0)))
# a valid one-stage model but for the horizon, which JSON gives as true
HORIZON_TRUE_TEXT = json.dumps({
    "horizon": True, "states": [["s"], ["t"]], "actions": ["a"], "initial": "s", "lambda": 1.0,
    "transitions": [{"n": 0, "s": "s", "a": "a", "to": [{"s'": "t", "p": 1.0, "r": 1.0}]}],
})
# a valid one-stage model whose mean cost, the float limit times
# probabilities summing a little above one, leaves the floating range
MEAN_OVERFLOW_TEXT = json.dumps({
    "horizon": 1, "states": [["s"], ["t", "u"]], "actions": ["a"], "initial": "s", "lambda": 1.0,
    "transitions": [{"n": 0, "s": "s", "a": "a", "to": [
        {"s'": "t", "p": 0.5, "r": 1.7976931348623157e308},
        {"s'": "u", "p": 0.5 + 4e-13, "r": 1.7976931348623157e308},
    ]}],
})
# a segment across the whole float range, wider than the range itself
FULL_RANGE_TEXT = '{"components": [{"w": 1, "uniform": [-1.7976931348623157e308, 1.7976931348623157e308]}]}'
# deeper than the json module's recursion allows
DEEP_RF_JSON = '{"kind": "mean"}'
for _ in range(1200):
    DEEP_RF_JSON = f'{{"kind": "composite", "terms": [{{"w": 1, "rf": {DEEP_RF_JSON}}}]}}'


@pytest.mark.parametrize(
    "command, file_text, flags",
    [
        ("eval", '{"components": [{"w": 1, "point": "x"}]}', ["--mean"]),
        ("eval", '{"components": [{"w": "x", "point": 1.0}]}', ["--mean"]),
        ("eval", '{"components": [{"w": 1, "point": 1.0}]}', ["--cte", "1.5"]),
        ("eval", '{"components": [{"w": 1, "point": 1.0}]}', ["--rf-json", "{bad"]),
        ("eval", '{"components": [{"w": 1, "point": 1.0}]}',
         ["--rf-json", '{"kind": "cte", "alpha": "abc"}']),
        ("eval", '{"components": [{"w": 1, "point": 1.0}]}',
         ["--rf-json", '{"kind": "composite", "terms": [{"w": "x", "rf": {"kind": "mean"}}]}']),
        ("solve", PAYMENTS_TEXT.replace('"start"', '["start"]'), ["--mean"]),
        ("solve", PAYMENTS_TEXT.replace('"p": 1.0', '"p": "one"'), ["--mean"]),
        ("eval", '{"components": [{"w": 1, "point": 1.0}]}', ["--rf-json", DEEP_RF_JSON]),
        ("eval", "[" * 3000, ["--mean"]),
        ("solve", HORIZON_TRUE_TEXT, ["--mean"]),
        ("solve", MEAN_OVERFLOW_TEXT, ["--mean"]),
        ("eval", FULL_RANGE_TEXT, ["--cte", "0.5"]),
        ("eval", FULL_RANGE_TEXT, ["--var", "0.5"]),
    ],
    ids=[
        "point-not-a-number",
        "weight-not-a-number",
        "tail-level-out-of-range",
        "rf-json-broken",
        "rf-json-level-not-a-number",
        "composite-weight-not-a-number",
        "state-is-a-list",
        "probability-not-a-number",
        "rf-json-nested-too-deeply",
        "file-nested-too-deeply",
        "horizon-is-true",
        "mean-overflows",
        "cte-of-a-segment-wider-than-the-float-range",
        "var-of-a-segment-wider-than-the-float-range",
    ],
)
def test_malformed_input_exits_2_without_a_traceback(tmp_path, command, file_text, flags):
    path = tmp_path / "input.json"
    path.write_text(file_text, encoding="utf-8")
    result = run([command, str(path), *flags])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert "Error:" in result.stderr


# each command line with a fragment of the cause its error names
USAGE_ERRORS = [
    ([], "COMMAND"),
    (["nosuch"], "'nosuch'"),
    (["payments", "--lam", "0.9"], "--lam"),
    (["eval", "ABSENT", "--mean"], "ABSENT"),
    (["solve", "ABSENT", "--mean"], "ABSENT"),
    (["check", "--trials", "abc"], "'abc'"),
    (["payments", "--alpha", "x"], "'x'"),
    (["eval", "HIGHWAY", "--mean", "--format", "xml"], "'xml'"),
    (["eval", "HIGHWAY", "--cte"], "--cte"),
    (["paths", "surplus"], "surplus"),
    (["eval", "HIGHWAY", "surplus", "--mean"], "surplus"),
]


@pytest.mark.parametrize(
    "args, cause",
    USAGE_ERRORS,
    ids=[
        "no-command", "unknown-command", "abbreviated-option", "missing-eval-file",
        "missing-solve-file", "trials-not-an-integer", "alpha-not-a-number", "unknown-format",
        "cte-without-a-value", "extra-argument", "extra-file-argument",
    ],
)
def test_usage_errors_exit_2_with_their_cause_on_stderr(args, cause, highway_file, tmp_path):
    files = {"HIGHWAY": highway_file, "ABSENT": str(tmp_path / "absent.json")}
    result = run([files.get(a, a) for a in args])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Traceback" not in result.output
    if args:  # a bare `riskdp` may answer with its usage alone
        assert "Error:" in result.stderr
    assert files.get(cause, cause) in result.stderr


def test_out_into_a_missing_directory_exits_2_without_a_traceback(tmp_path):
    out = tmp_path / "no" / "such" / "x.json"
    result = run(["paths", "--out", str(out)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Traceback" not in result.output
    assert f"Error: cannot write {out}" in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["check", "--erm", "1.0", "--trials", "-5"],
        ["check", "--trials", "0"],
    ],
    ids=["negative-trials", "zero-trials"],
)
def test_malformed_flags_exit_2_without_a_traceback(args):
    result = run(args)
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert "trials must be an integer >= 1" in result.stderr


JUNK_VALUES = ("x", None, True, [], {}, [1], {"a": 1}, -1, 0, 1e308, "1.5", [[1]], 2**70)


def _mutate(rng: random.Random, data):
    """Replace, drop or descend into one randomly chosen entry."""
    while isinstance(data, (dict, list)) and data:
        key = rng.choice(list(data)) if isinstance(data, dict) else rng.randrange(len(data))
        u = rng.random()
        if u < 0.15:
            data.pop(key)
        elif u < 0.55:
            data[key] = rng.choice(JUNK_VALUES)
        if u < 0.55 or not isinstance(data[key], (dict, list)):
            return
        data = data[key]


def test_mutated_input_files_exit_0_or_2_without_a_traceback(tmp_path):
    rng = random.Random(11)
    bases = {
        "eval": (highway_time().to_json_dict(), ["--cte", "0.5"]),
        "solve": (mdp_to_json_dict(payments_mdp(0.95)), ["--mean"]),
    }
    path = tmp_path / "input.json"
    for _ in range(300):
        command = rng.choice(sorted(bases))
        data = json.loads(json.dumps(bases[command][0]))
        _mutate(rng, data)
        path.write_text(json.dumps(data), encoding="utf-8")
        result = run([command, str(path), *bases[command][1]])
        assert result.exit_code in (0, 2), (command, data, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit)


def test_out_writes_the_file_and_keeps_stdout_quiet(highway_file, tmp_path):
    target = tmp_path / "result.json"
    result = run(["eval", highway_file, "--mean", "--out", str(target)])
    assert result.exit_code == 0
    assert result.stdout == ""
    assert_close(json.loads(target.read_text(encoding="utf-8"))["value"], 14.0)


COMMAND_ARGS = {
    "payments": [],
    "fig1": ["--lambda-steps", "4", "--alpha-steps", "3"],
    "xy": [],
    "paths": [],
    "lemma1": ["--x", "0.5", "--scale", "1.0", "--shift", "0.0", "--gamma", "0.1"],
    "solve": ["PAYMENTS", "--cte", "0.9"],
    "eval": ["HIGHWAY", "--cte", "0.5"],
    "check": ["--trials", "10"],
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_every_command_writes_to_out_exactly_what_it_prints(
    command, fmt, highway_file, payments_file, tmp_path
):
    files = {"PAYMENTS": payments_file, "HIGHWAY": highway_file}
    args = [command, *(files.get(a, a) for a in COMMAND_ARGS[command]), "--format", fmt]
    printed = run(args)
    assert printed.exit_code == 0
    assert printed.stdout_bytes
    target = tmp_path / "result.txt"
    written = run([*args, "--out", str(target)])
    assert written.exit_code == 0
    assert written.stdout == ""
    assert target.read_bytes() == printed.stdout_bytes


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_failed_check_writes_its_out_file_and_still_exits_1(fmt, tmp_path):
    target = tmp_path / "result.txt"
    result = run(["check", "--erm", "1.0", "--format", fmt, "--out", str(target)])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert "1 of 3 property checks failed" in result.stderr
    assert target.read_bytes() == run(["check", "--erm", "1.0", "--format", fmt]).stdout_bytes


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_every_command_lists_format_and_out_last_in_its_help(command):
    result = run([command, "--help"])
    assert result.exit_code == 0
    options = [line.split()[0] for line in result.stdout.splitlines() if line.startswith("  -")]
    assert options[-3:] == ["--format", "--out", "--help"]


def test_every_command_prints_the_pinned_bytes(highway_file, payments_file):
    """Exit code and stdout of each command line recorded in
    data/cli_bits.json (see data/make_cli_bits.py), byte for byte."""
    fixture = json.loads((Path(__file__).parent / "data" / "cli_bits.json").read_text())
    files = {"PAYMENTS": payments_file, "HIGHWAY": highway_file}
    assert {case["args"][0] for case in fixture["cases"]} == set(COMMAND_ARGS)
    for case in fixture["cases"]:
        result = run([files.get(a, a) for a in case["args"]])
        assert (result.exit_code, result.stdout) == (case["exit_code"], case["stdout"]), case["args"]


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_prefers_the_upfront_plan_in_the_high_tail(payments_file):
    result = run(["solve", payments_file, "--cte", "0.9"])
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    assert data["root_value"] == 1000.0
    assert data["lambda"] == 1.0
    assert data["spec"] == ["cte(0.9)"] * 20
    assert data["trace"][0] == {"n": 0, "s": "start", "a": "upfront"}
    root_rows = [r for r in data["value_table"] if r["n"] == 0]
    assert root_rows == [{"n": 0, "s": "start", "v": 1000.0}]


def test_solve_discount_override_flips_the_plan(payments_file):
    result = run(["solve", payments_file, "--cte", "0.0", "--lambda", "1.0"])
    data = json.loads(result.stdout)
    assert data["trace"][0]["a"] == "installments"
    assert data["root_value"] == installment_recursive_value(0.0, 1.0)


def test_solve_warns_when_entropic_stages_meet_discounting(payments_file):
    result = run(["solve", payments_file, "--erm", "0.5", "--lambda", "0.9"])
    assert result.exit_code == 0
    assert "entropic stages with discounting" in result.stderr
    assert json.loads(result.stdout)["lambda"] == 0.9

    result = run(["solve", payments_file, "--erm", "0.5"])
    assert result.exit_code == 0
    assert result.stderr == ""


def test_solve_accepts_one_functional_per_stage(payments_file):
    stages = [{"kind": "cte", "alpha": 0.9}] * 10 + [{"kind": "mean"}] * 10
    result = run(["solve", payments_file, "--rf-json", json.dumps(stages)])
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    assert data["spec"][:10] == ["cte(0.9)"] * 10
    assert data["spec"][10:] == ["mean"] * 10


def test_solve_rejects_a_spec_of_the_wrong_length(payments_file):
    result = run(["solve", payments_file, "--rf-json", '[{"kind": "mean"}]'])
    assert result.exit_code == 2


def test_solve_rejects_a_truncated_model_file(tmp_path):
    path = tmp_path / "stub.json"
    path.write_text('{"horizon": 1}', encoding="utf-8")
    result = run(["solve", str(path), "--mean"])
    assert result.exit_code == 2


def test_solve_csv_lists_the_policy(payments_file):
    result = run(["solve", payments_file, "--cte", "0.9", "--format", "csv"])
    lines = result.stdout.splitlines()
    assert lines[0] == "n,s,a"
    assert lines[1] == "0,start,upfront"


# ---------------------------------------------------------------------------
# payments / fig1
# ---------------------------------------------------------------------------


def test_payments_defaults_prefer_upfront():
    result = run(["payments"])
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    assert data["preferred"] == "upfront"
    assert data["alpha_above_boundary"] is True
    assert data["upfront_value"] == 1000.0
    assert_close(data["installment_value"], data["installment_closed_form"])
    assert data["boundary_twenty_day"] == preference_boundary(0.95)
    # per-period expected disutility cannot see the all-or-nothing plan
    assert all(r["preferred"] == "installments" for r in data["deu_exponential"])


def test_payments_at_unit_discount_and_zero_tail_prefer_installments():
    result = run(["payments", "--lambda", "1.0", "--alpha", "0.0"])
    data = json.loads(result.stdout)
    assert data["preferred"] == "installments"
    assert data["alpha_above_boundary"] is False
    assert_close(data["installment_value"], 950.0)
    assert data["installment_value"] == installment_recursive_value(0.0, 1.0)
    assert_close(data["boundary_twenty_day"], 0.05)


def test_fig1_small_grid_stays_within_one_cell_and_reruns_identically():
    args = ["fig1", "--lambda-steps", "9", "--alpha-steps", "8"]
    first = run(args)
    second = run(args)
    assert first.exit_code == 0
    assert first.stdout == second.stdout
    data = json.loads(first.stdout)
    assert data["max_boundary_discrepancy_cells"] <= 1
    assert len(data["lambda_axis"]) == 9
    assert len(data["alpha_axis"]) == 8
    assert len(data["cells"]) == 8
    assert all(len(row) == 9 for row in data["cells"])
    assert len(data["boundary"]) == 9


def test_fig1_csv_encodes_cells_as_integer_flags():
    result = run(["fig1", "--lambda-steps", "5", "--alpha-steps", "4", "--format", "csv"])
    lines = result.stdout.splitlines()
    assert lines[0] == "lambda,alpha,upfront_preferred,boundary_alpha"
    assert len(lines) == 1 + 4 * 5
    assert {line.split(",")[2] for line in lines[1:]} <= {"0", "1"}


# ---------------------------------------------------------------------------
# xy / paths / lemma1
# ---------------------------------------------------------------------------


def test_xy_flips_under_the_entropic_measure_but_not_the_mean():
    result = run(["xy"])
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    assert data["lambda"] == 0.92
    entropic, plain = data["measures"]
    assert entropic["measure"] == "erm(0.001)"
    assert entropic["flip"] is True
    assert [p["chosen"] for p in entropic["points"]] == ["two_year", "one_year"]
    assert plain["measure"] == "mean"
    assert plain["flip"] is False
    assert [p["chosen"] for p in plain["points"]] == ["two_year", "two_year"]


def test_xy_csv_carries_one_row_per_measure_and_time():
    result = run(["xy", "--format", "csv"])
    lines = result.stdout.splitlines()
    assert lines[0] == "measure,t,one_year,two_year,chosen"
    assert len(lines) == 5
    assert lines[1].startswith("erm(0.001),0,")


def test_paths_reports_the_route_numbers():
    result = run(["paths"])
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    half, tail80 = data["tail_levels"]
    assert half["alpha"] == 0.5
    assert_close(half["highway"]["mean"], 14.0)
    assert_close(half["highway"]["cte"], 18.0)
    assert_close(half["highway"]["icte"], 21.0)
    assert_close(half["local_roads"]["mean"], 14.0)
    assert_close(half["local_roads"]["icte"], 22.0)
    assert_close(tail80["highway"]["cte"], 30.0)
    assert_close(tail80["local_roads"]["cte"], 34.0 + 4.0 / 9.0)
    assert data["ordering_violations"] == 0
    flat = [e for e in data["erm_curve"] if e["gamma"] == 0.0]
    assert flat and flat[0]["highway"] == 14.0 and flat[0]["local_roads"] == 14.0


def test_paths_custom_grid_csv():
    result = run(["paths", "--gamma", "0.05", "--format", "csv"])
    lines = result.stdout.splitlines()
    assert lines[0] == "gamma,highway,local_roads"
    assert len(lines) == 2
    gamma, hw, lr = (float(cell) for cell in lines[1].split(","))
    assert gamma == 0.05
    assert hw >= lr


def test_lemma1_default_grid_is_clean():
    result = run(["lemma1"])
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    assert data["points"] == 924
    assert data["violations"] == 0
    assert data["max_violation"] == 0.0
    assert len(data["gaps"]) == 924


def test_lemma1_rejects_a_nonpositive_scale():
    result = run(["lemma1", "--scale", "-1.0"])
    assert result.exit_code == 2
    assert "positive" in result.stderr


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_standard_suite_passes():
    result = run(["check", "--trials", "60"])
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    assert data["all_passed"] is True
    assert len(data["reports"]) == 10
    assert all(r["passed"] for r in data["reports"])
    assert data["reports"][-1]["measure"].startswith("composite(")


def test_check_flags_the_entropic_homogeneity_failure():
    result = run(["check", "--erm", "1.0"])
    assert result.exit_code == 1
    assert "property checks failed" in result.stderr
    data = json.loads(result.stdout)
    assert data["all_passed"] is False
    verdicts = {r["property"]: r["passed"] for r in data["reports"]}
    assert verdicts == {
        "monotonic": True,
        "translation_invariance": True,
        "positive_homogeneity": False,
    }


def test_check_rejects_a_per_stage_list():
    result = run(["check", "--rf-json", '[{"kind": "mean"}]'])
    assert result.exit_code == 2
    assert "check takes a single risk functional" in result.stderr


def test_check_csv_rows_carry_pass_flags():
    result = run(["check", "--trials", "40", "--format", "csv"])
    lines = result.stdout.splitlines()
    assert lines[0] == "property,measure,trials,passed"
    assert len(lines) == 11
    assert all(line.endswith(",1") for line in lines[1:])


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this riskdp."""
    src = str(Path(riskdp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )


def test_importing_the_cli_loads_no_scipy():
    result = _python(
        "import riskdp.cli, sys; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert result.stdout.strip() == "[]"


# runs `riskdp paths`, then writes to stderr the top-level modules it
# loaded that are neither the standard library's nor riskdp; what the
# interpreter loaded before the first line (site and its .pth files, as
# for `python -c pass`) does not count
RUN_PATHS_FOREIGN_MODULES = """
import json, sys
started = {m.partition(".")[0] for m in sys.modules}
from riskdp.cli import main
try:
    main(["paths"])
except SystemExit:
    loaded = {m.partition(".")[0] for m in sys.modules} - started
    print(json.dumps(sorted(loaded - set(sys.stdlib_module_names) - {"riskdp"})), file=sys.stderr)
"""


def test_the_cli_loads_only_the_standard_library():
    result = _python(RUN_PATHS_FOREIGN_MODULES)
    assert json.loads(result.stderr.splitlines()[-1]) == []


# runs the command in argv, then writes its exit code and the riskdp
# submodules loaded as the last line of stderr
RUN_COMMAND = """
import json, sys
from riskdp.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    loaded = sorted(m[len("riskdp."):] for m in sys.modules if m.startswith("riskdp."))
    print(json.dumps([exc.code, loaded]), file=sys.stderr)
"""
EVAL_MODULES = ["cli", "distributions", "errors", "measures"]
COMMAND_MODULES = {
    "eval": EVAL_MODULES,
    "check": EVAL_MODULES + ["properties"],
    "solve": EVAL_MODULES + ["tree", "mdp"],
    "paths": EVAL_MODULES + ["casebook", "tree"],
    "payments": EVAL_MODULES + ["casebook", "tree"],
    "fig1": EVAL_MODULES + ["casebook", "tree"],
    "lemma1": EVAL_MODULES + ["casebook", "tree"],
    "xy": EVAL_MODULES + ["casebook", "tree", "properties"],
}


@pytest.mark.parametrize("command", list(COMMAND_MODULES))
def test_each_command_loads_only_the_modules_it_runs(command, highway_file, payments_file):
    args = {
        "eval": [highway_file, "--cte", "0.5"],
        "check": ["--trials", "5"],
        "solve": [payments_file, "--cte", "0.5"],
        "fig1": ["--lambda-steps", "3", "--alpha-steps", "3"],
    }.get(command, [])
    result = _python(RUN_COMMAND, command, *args)
    code, loaded = json.loads(result.stderr.splitlines()[-1])
    assert code == 0
    assert loaded == sorted(COMMAND_MODULES[command])


def test_importing_the_package_loads_no_submodule():
    result = _python(
        "import riskdp, sys; "
        "print(sorted(m for m in sys.modules if m.startswith('riskdp.'))); "
        "print(riskdp.mdp.__name__, riskdp.tree.__name__, 'mdp' in dir(riskdp))"
    )
    assert result.stdout.splitlines() == ["[]", "riskdp.mdp riskdp.tree True"]


PACKAGE_NAMES = [
    "MixedDistribution", "PointMass", "UniformSegment", "affine_transform", "essential_inf",
    "essential_sup", "merge_atoms",
    "EnumerationLimitError", "EvaluationOverflowError", "RiskModelError", "ValidationError",
    "Composite", "Cte", "DisutilityFunction", "Erm", "Expectation", "Exponential", "Linear",
    "PiecewiseLinear", "Power", "RiskFunctional", "ValueAtRisk", "apply_disutility", "cte", "deu",
    "erm", "evaluate", "mean", "pushforward_mean", "rf_from_json_dict", "rf_label",
    "rf_to_json_dict", "value_at_risk",
    "Edge", "IrmResult", "IrmSpec", "ScenarioTree", "TreeNode", "deterministic_tree",
    "discounted_total_distribution", "eud", "irm_evaluate", "irm_root_value", "rmd",
    "tree_from_json_dict", "tree_to_json_dict",
    "CheckReport", "PreferencePoint", "check_composite_monotonic", "check_monotonic",
    "check_positive_homogeneity", "check_translation_invariance", "preference_over_time",
    "FiniteHorizonMdp", "Policy", "SolveResult", "Transition", "ValueTable", "brute_force_optimal",
    "evaluate_policy", "mdp_from_json_dict", "mdp_to_json_dict", "solution_to_json_dict",
    "solve_dp", "tail_mdp", "unroll",
]


def test_the_package_exports_its_names_on_demand():
    assert riskdp.__all__ == PACKAGE_NAMES
    namespace: dict = {}
    exec("from riskdp import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PACKAGE_NAMES)
    assert all(namespace[name] is getattr(riskdp, name) for name in PACKAGE_NAMES)
    with pytest.raises(AttributeError, match="^module 'riskdp' has no attribute 'no_such_name'$"):
        riskdp.no_such_name
