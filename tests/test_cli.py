"""End-to-end CLI behavior: output formats, determinism, exit codes."""

import json
import os
import subprocess
import sys

import jsonschema
import pytest

from cmfields.cli import main

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "schema.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unit_index_json(capsys):
    code, out, _ = run(capsys, "unit-index", "--field", "zeta:15")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"Q": 2, "kappa": 1, "rule": "cyclotomic-composite"}


def test_unit_index_override(capsys):
    code, out, _ = run(capsys, "unit-index", "--field", "quad:-23", "--override", "2")
    assert code == 0
    assert json.loads(out)["Q"] == 2


def test_hminus_json_matches_schema(capsys):
    code, out, _ = run(capsys, "hminus", "--field", "quad:-23", "--json")
    assert code == 0
    row = json.loads(out)
    jsonschema.validate(row, SCHEMA)
    assert row["h_minus"] == 3


def test_hminus_csv(capsys):
    code, out, _ = run(capsys, "hminus", "--field", "zeta:23", "--csv")
    assert code == 0
    header, data = out.strip().splitlines()
    assert header == "field,conductor,degree,w,Q,rule,h_minus"
    assert data.split(",")[0] == "zeta:23" and data.split(",")[-1] == "3"


def test_table_zeta_range_json(capsys):
    code, out, _ = run(capsys, "table", "hminus", "--zeta-range", "3..12", "--json")
    assert code == 0
    rows = json.loads(out)
    assert [r["field"] for r in rows] == [
        "zeta:3", "zeta:4", "zeta:5", "zeta:7", "zeta:8",
        "zeta:9", "zeta:11", "zeta:12",
    ]
    for row in rows:
        jsonschema.validate(row, SCHEMA)
        assert row["h_minus"] == 1


def test_table_unitindex_specs(capsys):
    code, out, _ = run(capsys, "table", "unitindex",
                       "--spec", "zeta:15", "--spec", "zeta:16", "--json")
    assert code == 0
    rows = json.loads(out)
    assert [r["Q"] for r in rows] == [2, 1]


def test_table_empty(capsys):
    code, out, _ = run(capsys, "table", "hminus", "--json")
    assert code == 0 and json.loads(out) == []


def test_table_error_rows_and_strict(capsys):
    # a non-CM field errors per row; without --strict the exit code is 0
    code, out, _ = run(capsys, "table", "hminus", "--spec", "quad:5", "--json")
    assert code == 0
    assert "error" in json.loads(out)[0]
    code, _, _ = run(capsys, "table", "hminus", "--spec", "quad:5", "--strict")
    assert code == 1


def test_table_determinism(capsys):
    args = ("table", "hminus", "--zeta-range", "3..20", "--csv")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_table_threads_option_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "hminus", "--zeta-range", "3..16", "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_verify_v4(capsys):
    code, out, _ = run(capsys, "verify", "v4", "-4", "-20")
    assert code == 0
    assert out.startswith("[pass] v4_identity")


def test_verify_v4_names_the_bad_discriminant(capsys):
    code, out, err = run(capsys, "verify", "v4", "3", "-4")
    assert (code, out) == (2, "")
    assert err == "error: 3 is not a fundamental discriminant\n"


def test_verify_counterexample(capsys):
    code, out, _ = run(capsys, "verify", "counterexample", "1", "-4", "5")
    assert code == 0 and "[pass]" in out
    code, out, _ = run(capsys, "verify", "counterexample", "2", "1")
    assert code == 0 and "[vacuous]" in out


def test_verify_masley_sweep(capsys):
    code, out, _ = run(capsys, "verify", "masley", "--sweep", "--max", "24")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l.startswith("[")]
    assert lines and all(l.startswith("[pass]") for l in lines)


def test_verify_martinet(capsys):
    code, out, _ = run(capsys, "verify", "martinet", "--max", "60")
    assert code == 0
    assert "martinet p=17" in out and "Q_K=2 Q_L=1" in out
    assert "skip (norm -1)" in out  # p = 41


def test_verify_martinet_rejects_bad_parameters(capsys):
    code, out, err = run(capsys, "verify", "martinet", "17", "7")
    assert code == 2 and out == ""
    assert "got 7" in err
    code, out, _ = run(capsys, "verify", "martinet", "17", "41")
    assert code == 0
    assert out.splitlines()[0].startswith("[pass] martinet p=17")
    assert out.splitlines()[1].startswith("[skip (norm -1)] martinet p=41")
    # p = 41 needs no field and p = 17 exceeds the degree bound: nothing prints
    code, out, err = run(capsys, "--max-degree", "4", "verify", "martinet", "41", "17")
    assert code == 2 and out == "" and "degree exceeds bound 4" in err


def test_verify_sweep_max_one(capsys):
    for check in ("masley", "v4", "metsankyla", "counterexample"):
        code, _, err = run(capsys, "verify", check, "--sweep", "--max", "1")
        assert code in (0, 1) and err == "", check
    code, out, _ = run(capsys, "verify", "martinet", "--max", "1")
    assert code == 0 and out == ""


def test_error_exit_code(capsys):
    code, _, err = run(capsys, "hminus", "--field", "quad:5")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "hminus", "--field", "zeta:9999")
    assert code == 2
    code, _, err = run(capsys, "hminus", "--field", "chars:f=5:e=1,2")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("argv", [
    "verify v4 -4",
    "verify masley 3",
    "verify masley 0 3",
    "verify metsankyla 5",
    "verify metsankyla 3 0",
    "verify counterexample",
    "verify counterexample 1 -4",
    "verify counterexample 3 1",
    "table hminus --zeta-range abc",
    "table hminus --zeta-range 3",
    "table hminus --zeta-range 10..3",
    "table hminus --zeta-range 0..4",
    "table hminus --zeta-range \u0663..\u0665",
    "table hminus --zeta-range 3_0..3_1",
    "hminus --field chars:f=0:e=",
    "unit-index --field chars:f=-5:e=1",
    "verify martinet --max 0",
    "verify masley --sweep --max 0",
    "verify v4 --sweep --max 0",
    "verify metsankyla --sweep --max -1",
    "verify counterexample --sweep --max 0",
    "verify martinet 7",
    "verify martinet 25",
    "verify martinet 17 9",
    "verify v4 -7 -8 --sweep --max 30",
    "verify masley 3 5 --sweep",
    "verify metsankyla 5 7 --sweep",
    "verify counterexample 1 -4 5 --sweep",
    "verify martinet 17 --sweep",
    "verify v4 -4 -20 --max 0",
    "verify martinet 17 --max 0",
    "verify masley 3 5 --max 7",
    "--max-degree 4 verify metsankyla 5 7",
    "--max-degree 4 verify masley 5 3",
    "--max-degree 1 hminus --field quad:-3",
    "--max-degree -1 hminus --field quad:-3",
    "--max-degree 0 verify v4 -4 -20",
    "--max-degree 2 verify v4 -3 -4",
    "--max-degree 2 verify counterexample 1 -4 5",
    "--max-degree 2 verify martinet 17",
    "--max-degree 3 verify v4 --sweep --max 50",
    "--max-degree 3 verify masley --sweep --max 10",
    "--max-degree 3 verify metsankyla --sweep --max 8",
    "--max-degree 3 verify counterexample --sweep --max 50",
    "hminus --field zeta:\u00b2",
    "hminus --field quad:-\u00b2",
    "hminus --field chars:f=5:e=\u00b2",
    "hminus --field zeta:\u0663",
    "hminus --field chars:f=\u0665:e=1",
    "hminus --field zeta:1000000000000000003",
])
def test_malformed_input_exits_2(capsys, argv):
    try:
        code = main(argv.split())
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert err.strip() and "Traceback" not in err
    assert out == ""


def test_max_degree_flag(capsys):
    code, _, err = run(capsys, "--max-degree", "4", "hminus", "--field", "zeta:11")
    assert code == 2 and "error:" in err


def test_python_m_cmfields_matches_cli_module():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["verify", "v4", "-3", "-4"]
    outs = [subprocess.run([sys.executable, "-m", module, *argv], env=env,
                           capture_output=True, timeout=120)
            for module in ("cmfields", "cmfields.cli")]
    assert [p.returncode for p in outs] == [0, 0]
    assert outs[0].stdout and outs[0].stdout == outs[1].stdout
