"""End-to-end CLI behavior: output formats, determinism, exit codes."""

import hashlib
import inspect
import json
import os
import subprocess
import sys

import jsonschema
import pytest

from cmfields import cli, theorems
from cmfields.cli import main
from cmfields.fields import DEFAULT_MAX_DEGREE

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


def test_table_unitindex_csv_carries_the_json_values(capsys):
    # the CSV form of a unit-index table has the text form's columns, with
    # kappa, and each row holds the values of the --json form
    specs = ("--spec", "zeta:15", "--spec", "zeta:16", "--spec", "quad:-4*quad:40")
    code, out, _ = run(capsys, "table", "unitindex", *specs, "--csv")
    assert code == 0
    assert out.splitlines() == [
        "field,conductor,degree,Q,kappa,rule",
        "zeta:15,15,8,2,1,cyclotomic-composite",
        "zeta:16,16,8,1,1,cyclotomic-prime-power",
        "quad:-4*quad:40,40,4,1,2,norm2-square-nonprincipal",
    ]
    _, js, _ = run(capsys, "table", "unitindex", *specs, "--json")
    header, *lines = out.splitlines()
    assert lines == [",".join(str(row[c]) for c in header.split(","))
                     for row in json.loads(js)]


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


def test_table_csv_reports_error_rows_on_stderr(capsys):
    # the CSV row of a failed spec is blank past the field name, so the
    # reason goes to stderr, one line per error row; stdout is unchanged
    code, out, err = run(capsys, "table", "hminus", "--spec", "zeta:5",
                         "--spec", "bogus", "--spec", "zeta:1", "--csv")
    assert code == 0
    assert out.splitlines() == [
        "field,conductor,degree,w,Q,rule,h_minus",
        "zeta:5,5,4,10,1,cyclotomic-prime-power,1",
        "bogus,,,,,,",
        "zeta:1,,,,,,",
    ]
    assert err.splitlines() == [
        "error: bogus: at offset 0: expected 'zeta:', 'quad:' or 'chars:' in 'bogus'",
        "error: zeta:1: AbelianField(conductor=1, degree=1) is not CM",
    ]
    code, out, err = run(capsys, "table", "hminus", "--zeta-range", "3..8", "--csv")
    assert code == 0 and err == ""


def test_table_determinism(capsys):
    args = ("table", "hminus", "--zeta-range", "3..20", "--csv")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# stdout of tables whose rows read the closed forms for Q(zeta_m), as
# printed before those closed forms: the unit index from the primes of m,
# h- as a product over the conductors f | m, the orbit list for --json only
PINNED_TABLES = [
    (("table", "hminus", "--zeta-range", "1..700", "--json"),
     "333c428f5125228bff6b889bf38af1cf495398108e5810305d51171a478647be"),
    (("--max-degree", "3000", "table", "unitindex", "--zeta-range", "1..3000", "--csv"),
     "965b93b982e208c5f8cf75227e823f6fd2e35fe73079c58a5994bc2dab3683c2"),
    # the 14 levels above 700 with phi(m) <= 256 (1020 the largest): with
    # 1..700, every Q(zeta_m) the default degree bound admits
    (("table", "hminus", "--zeta-range", "701..1020", "--json"),
     "afaf100a0d4b9034ec8459e86d9989c527756e8a849f2650220f8fac527563cc"),
]


@pytest.mark.parametrize("argv, sha256", PINNED_TABLES,
                         ids=["hminus-json", "unitindex-csv", "hminus-json-701"])
def test_cyclotomic_tables_are_byte_identical(capsys, argv, sha256):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# every caller of `AbelianField.compositum`: the sweeps' full JSON reports
PINNED_SWEEPS = [
    (("verify", "v4", "--sweep", "--max", "2000", "--json"),
     "dc2ba8fe6bbca07f1e83949e24155ac4d42ce65c75b4042a87d149bc8342c9f4"),
    (("verify", "metsankyla", "--sweep", "--max", "32", "--json"),
     "f5b3f6bd9704df1267f4c599aa036d1028cf564da73ee7c40c46286ac6e79967"),
    (("verify", "counterexample", "--sweep", "--json"),
     "b05e7702def7511a8e85564ce5961fa895eefa0123f75e36fe1170e86d85e646"),
    (("verify", "martinet", "--sweep", "--max", "1000", "--json"),
     "384447ea614f4d77574ef9b9cd0360cd3b4337ffb66e64d84a6aa5f68454efe9"),
]


@pytest.mark.parametrize("argv, sha256", PINNED_SWEEPS,
                         ids=["v4", "metsankyla", "counterexample", "martinet"])
def test_sweep_reports_are_byte_identical(capsys, argv, sha256):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# composita of coprime conductors, whose h-, unit index and --json orbit
# list are read off the two factors: stdout as printed when each product
# built its characters and walked their orbits
PRODUCT_SPECS = [
    arg for spec in ("quad:-3*quad:-4", "zeta:5*quad:-4", "zeta:7*zeta:5",
                     "chars:f=7:e=1*chars:f=9:e=1", "chars:f=7:e=2*zeta:5",
                     "zeta:16*zeta:9", "chars:f=15:e=0,1*quad:-4",
                     "quad:5*quad:-7")
    for arg in ("--spec", spec)]
PINNED_PRODUCTS = [
    (("table", "hminus", *PRODUCT_SPECS, "--json"),
     "6c9851cbb23f02424cfac0ed43c6c08e479191ac11403b8d3d0421f3814585e3"),
    (("table", "unitindex", *PRODUCT_SPECS, "--csv"),
     "126275c3a7b1a821d8d9c1b37f1ff5109bd1c23bfa3a1f24d873e6d3f72a2e38"),
]


@pytest.mark.parametrize("argv, sha256", PINNED_PRODUCTS,
                         ids=["hminus-json", "unitindex-csv"])
def test_product_tables_are_byte_identical(capsys, argv, sha256):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


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


SWEEPS = {"masley": "sweep_masley", "v4": "sweep_v4",
          "metsankyla": "sweep_metsankyla",
          "counterexample": "sweep_counterexample_family1"}


def test_verify_sweep_bound_defaults_live_in_theorems(capsys, monkeypatch):
    # without --max the CLI passes no bound, so the sweep's own default
    # applies; with --max it passes that bound, and --max 0 runs nothing
    calls = []

    def recorder(check, name):
        real = getattr(theorems, name)
        bound_param = next(iter(inspect.signature(real).parameters))

        def sweep(*args, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs).arguments
            calls.append((check, bound.get(bound_param), bound.get("max_degree")))
            return []
        return sweep

    for check, name in SWEEPS.items():
        monkeypatch.setattr(cli, name, recorder(check, name))
    for check in SWEEPS:
        calls.clear()
        assert run(capsys, "verify", check, "--sweep")[0] == 0
        assert calls == [(check, None, DEFAULT_MAX_DEGREE)]
        calls.clear()
        assert run(capsys, "--max-degree", "9", "verify", check,
                   "--sweep", "--max", "7")[0] == 0
        assert calls == [(check, 7, 9)]
        calls.clear()
        assert run(capsys, "verify", check, "--sweep", "--max", "0")[:2] == (2, "")
        assert calls == []


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
    "verify counterexample 1 5 8",
    "verify counterexample 1 13 8",
    "verify martinet 17 --sweep",
    "verify v4 -4 -20 --max 0",
    "verify martinet 17 --max 0",
    "verify masley 3 5 --max 7",
    "--max-degree 4 verify metsankyla 5 7",
    "--max-degree 23 verify metsankyla 5 7",
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


def test_metsankyla_compositum_bound_is_the_closure_bound(capsys):
    # degrees 4 and 6: the compositum of degree 24 is refused at the bound
    # and with the message of its closure
    code, out, err = run(capsys, "--max-degree", "23", "verify", "metsankyla", "5", "7")
    assert (code, out, err) == (2, "", "error: degree exceeds bound 23\n")
    code, out, _ = run(capsys, "--max-degree", "24", "verify", "metsankyla", "5", "7")
    assert code == 0 and out.startswith("[pass] metsankyla")


def test_v4_compositum_bound_is_the_closure_bound(capsys):
    code, out, err = run(capsys, "--max-degree", "3", "verify", "v4", "-3", "-4")
    assert (code, out, err) == (2, "", "error: degree exceeds bound 3\n")
    code, out, _ = run(capsys, "--max-degree", "4", "verify", "v4", "-3", "-4")
    assert code == 0 and out.startswith("[pass] v4_identity")


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
