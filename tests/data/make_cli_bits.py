"""Write cli_bits.json: the exit code and the exact stdout of every
`riskdp` command, in JSON and in CSV.

    PYTHONPATH=src python3 tests/data/make_cli_bits.py > tests/data/cli_bits.json

Each case is a command line run through click's test runner, once with
--format json and once with --format csv.  The grids are small (fig1 on
7 x 9 cells, check with 20 trials), and the cases include flag sets, a
failed check (exit 1) and a broken --rf-json (exit 2, nothing on
stdout).  solve and eval read the files named PAYMENTS (the payment-plan
MDP at discount 1) and HIGHWAY (the highway travel-time law), which this
script writes from `casebook` into a temporary directory; the file
paths never reach stdout.  test_cli checks that every command still
prints these bytes.
"""
import json
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

from riskdp import casebook, cli, mdp_to_json_dict

COMPOSITE = '{"kind": "composite", "terms": [{"w": 0.5, "rf": {"kind": "mean"}}, {"w": 0.5, "rf": {"kind": "cte", "alpha": 0.9}}]}'
CASES = [
    ["payments"],
    ["payments", "--lambda", "0.8", "--alpha", "0.3"],
    ["fig1", "--lambda-steps", "7", "--alpha-steps", "9"],
    ["xy"],
    ["xy", "--gamma", "-0.002", "--lambda", "0.5"],
    ["paths"],
    ["paths", "--alpha", "0.3", "--gamma", "-1", "--gamma", "0.5", "--lambda", "0.9"],
    ["lemma1", "--x", "0.5", "--x", "3", "--scale", "1", "--scale", "20",
     "--shift", "0", "--shift", "20", "--gamma", "-0.5", "--gamma", "0.1"],
    ["solve", "PAYMENTS", "--cte", "0.9"],
    ["solve", "PAYMENTS", "--mean", "--lambda", "0.9"],
    ["eval", "HIGHWAY", "--cte", "0.5"],
    ["eval", "HIGHWAY", "--rf-json", COMPOSITE],
    ["eval", "HIGHWAY", "--rf-json", "{bad"],
    ["check", "--trials", "20"],
    ["check", "--erm", "1.0", "--trials", "20"],
]


def write_inputs(directory: Path) -> dict:
    """The input files the cases name, written into directory."""
    files = {
        "PAYMENTS": mdp_to_json_dict(casebook.payments_mdp(1.0)),
        "HIGHWAY": casebook.highway_time().to_json_dict(),
    }
    paths = {}
    for name, data in files.items():
        path = directory / f"{name.lower()}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        paths[name] = str(path)
    return paths


def main() -> None:
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        files = write_inputs(Path(tmp))
        for args in CASES:
            for fmt in ("json", "csv"):
                line = [*args, "--format", fmt]
                result = CliRunner().invoke(cli.main, [files.get(a, a) for a in line])
                if result.exception is not None and not isinstance(result.exception, SystemExit):
                    raise result.exception
                cases.append({"args": line, "exit_code": result.exit_code, "stdout": result.stdout})
    json.dump({"cases": cases}, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
