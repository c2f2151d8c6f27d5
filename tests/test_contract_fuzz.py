"""Contract fuzzing of the field-spec grammar and the CLI argv.

Every `cli.main` call ends in exit 0, 1 or 2, or in argparse's
SystemExit(2), never in another exception.  Errors go to stderr only, and
every row printed on exit 0 has degree <= --max-degree.  Moduli and
sweep bounds stay small so each case runs in milliseconds.
"""

import contextlib
import csv
import io
import json
import re

from hypothesis import given, settings, strategies as st

from cmfields.cli import main
from cmfields.errors import CMFieldsError
from cmfields.fieldspec import parse_field_spec
from compositum_sweep import closure

FUZZ = settings(max_examples=50, deadline=None)

_small = st.integers(min_value=-1, max_value=40).map(str)
_exps = st.lists(st.integers(min_value=-2, max_value=12).map(str), max_size=4)
_discriminants = st.one_of(
    st.sampled_from([-3, -4, -7, -8, -15, -20, -23, -24, -39, 5, 8, 12]),
    st.integers(min_value=-60, max_value=60))
_atom = st.one_of(
    st.builds("zeta:{}".format, _small),
    st.builds("quad:{}".format, _discriminants),
    st.builds("chars:f={}:e={}".format, _small, _exps.map(",".join)),
)
# zeta levels may be huge: a level past 2 B^2 is rejected before it is
# factored; `chars:f=` moduli still are factored, so `_small` stays small
_zeta_levels = st.one_of(st.integers(min_value=-1, max_value=10**30),
                         st.integers(min_value=10**17, max_value=10**30))
_junk = st.text(alphabet="zetaquadchrsf=:e,+*-0123456789²٣", max_size=14)
# mostly well-formed, so that many cases get past the parser
specs = st.one_of(
    _atom,
    _atom,
    st.lists(_atom, min_size=2, max_size=3).map("*".join),
    _junk,
)
max_degrees = st.one_of(
    st.integers(min_value=1, max_value=48).map(str),
    st.integers(min_value=-1, max_value=48).map(str),
    st.sampled_from(["x", ""]))
formats = st.sampled_from([[], [], ["--json"], ["--json"], ["--csv"], ["--csv"],
                           ["--json", "--csv"]])


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects argv before any work
            assert exc.code == 2, (argv, exc.code)
            code = None
    return code, out.getvalue(), err.getvalue()


def _degrees(argv, out):
    """The degree column of every row printed by `hminus` or `table`."""
    if "unit-index" in argv or "verify" in argv:
        return []
    if "--json" in argv:
        rows = json.loads(out)
        rows = rows if isinstance(rows, list) else [rows]
        return [r["degree"] for r in rows if "degree" in r]
    if "--csv" in argv:
        return [int(r["degree"]) for r in csv.DictReader(io.StringIO(out))
                if r["degree"]]
    if "table" not in argv:
        return [int(m) for m in re.findall(r"^\s*degree: (\d+)$", out, re.M)]
    header, *rows = out.splitlines()
    col = header.split().index("degree")
    return [int(r.split()[col]) for r in rows if "ERROR:" not in r]


def _check_contract(argv):
    code, out, err = _call(argv)
    if code is None:
        assert out == "" and err.strip(), argv
        return
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert out == "" and err.startswith("error: "), (argv, err)
        return
    if "table" in argv and "--csv" in argv:
        # an error row is blank past the field name; its reason is on stderr
        failed = [r["field"] for r in csv.DictReader(io.StringIO(out))
                  if not r["degree"]]
        assert (err == "") == (not failed), (argv, err)
        assert all(f"error: {f}: " in err for f in failed), (argv, err)
    else:
        assert err == "", (argv, err)
    if code == 0:
        bound = int(argv[argv.index("--max-degree") + 1])
        assert all(d <= bound for d in _degrees(argv, out)), (argv, out)


def _with_max_degree(max_degree, argv):
    return ["--max-degree", max_degree, *argv] if max_degree else argv


@FUZZ
@given(specs, st.integers(min_value=1, max_value=48))
def test_field_specs_parse_or_raise_typed_errors(text, max_degree):
    try:
        field = parse_field_spec(text).build(max_degree=max_degree)
    except CMFieldsError:
        return
    assert field.degree <= max_degree


def _outcome(build):
    """The field's identity and invariants, or the error's type and text."""
    try:
        K = build()
    except CMFieldsError as exc:
        return type(exc), str(exc)
    return (K, hash(K), K.modulus, K.conductor, K.degree,
            [c.encode() for c in K.chars], K.roots_of_unity_order())


# two of three atom pairs fail on their own, so more examples are drawn
@settings(max_examples=200, deadline=None)
@given(_atom, _atom, st.integers(min_value=1, max_value=48))
def test_compositum_spec_matches_the_closure(left, right, max_degree):
    """`a*b` builds the closure of the two built fields' non-principal
    characters, or fails with the closure's error and message: the direct
    product of coprime conductors and its degree check change nothing."""
    try:
        K1 = parse_field_spec(left).build(max_degree=max_degree)
        K2 = parse_field_spec(right).build(max_degree=max_degree)
    except CMFieldsError:
        return
    spec = parse_field_spec(f"{left}*{right}")
    assert (_outcome(lambda: spec.build(max_degree=max_degree))
            == _outcome(lambda: closure(K1, K2, max_degree))), (left, right)


@FUZZ
@given(specs, st.integers(min_value=-1, max_value=48).map(str),
       st.sampled_from([[], [], ["--q-override", "1"], ["--q-override", "2"],
                        ["--q-override", "3"]]), formats)
def test_hminus_argv(spec, max_degree, override, fmt):
    _check_contract(["--max-degree", max_degree, "hminus", "--field", spec,
                     *override, *fmt])


@FUZZ
@given(st.lists(_zeta_levels.map("zeta:{}".format), min_size=1, max_size=3),
       st.integers(min_value=-1, max_value=48).map(str), formats)
def test_huge_zeta_levels(levels, max_degree, fmt):
    _check_contract(["--max-degree", max_degree, "hminus", "--field",
                     "*".join(levels), *fmt])
    argv = ["--max-degree", max_degree, "table", "hminus"]
    for level in levels:
        argv += ["--spec", level]
    _check_contract(argv + fmt)


@FUZZ
@given(specs, max_degrees, st.sampled_from([[], [], ["--override", "1"],
                                            ["--override", "2"], ["--override", "0"]]))
def test_unit_index_argv(spec, max_degree, override):
    argv = _with_max_degree(max_degree, ["unit-index", "--field", spec, *override])
    code, out, err = _call(argv)
    assert code in (None, 0, 2), (argv, code)
    assert (out == "") == (code != 0), argv
    assert (err == "") == (code == 0), argv


@FUZZ
@given(st.sampled_from(["hminus", "unitindex", "zeta"]),
       st.lists(specs, max_size=3),
       st.one_of(st.none(), st.builds("{}..{}".format, _small, _small), _junk),
       st.integers(min_value=-1, max_value=48).map(str),
       st.booleans(), formats)
def test_table_argv(kind, table_specs, zeta_range, max_degree, strict, fmt):
    argv = ["--max-degree", max_degree, "table", kind]
    for spec in table_specs:
        argv += ["--spec", spec]
    if zeta_range is not None:
        argv += ["--zeta-range", zeta_range]
    argv += ["--strict"] * strict + fmt
    _check_contract(argv)


@FUZZ
@given(st.sampled_from(["masley", "metsankyla", "v4", "counterexample",
                        "martinet", "other"]),
       st.lists(st.integers(min_value=-30, max_value=30).map(str), max_size=3),
       st.booleans(), st.integers(min_value=-1, max_value=12).map(str),
       max_degrees, st.booleans(), st.booleans())
def test_verify_argv(check, params, sweep, bound, max_degree, as_json, with_max):
    # --max is always given without parameters: the default sweep bounds
    # take seconds; with parameters it is an error, so it is drawn
    argv = ["verify", check, *params]
    argv += ["--max", bound] * (with_max or not params)
    argv += ["--sweep"] * sweep + ["--json"] * as_json
    code, out, err = _call(_with_max_degree(max_degree, argv))
    assert code in (None, 0, 1, 2), (argv, code)
    if code in (None, 2):
        assert out == "" and err.strip(), (argv, err)
    else:
        assert err == "", (argv, err)
