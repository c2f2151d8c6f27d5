"""Command-line front end.

Subcommands:
    unit-index --field <spec> [--override {1,2}]        JSON verdict
    hminus --field <spec> [--q-override] [--json|--csv] minus class number
    table {hminus,unitindex} ...                        batch tables
    verify {masley,metsankyla,v4,counterexample,martinet} ...

All behavior is flag-driven (no environment variables); identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .arith import is_prime
from .errors import CMFieldsError, PreconditionViolated
from .fieldspec import parse_field_spec
from .fields import DEFAULT_MAX_DEGREE, cyclotomic_field
from .hminus import minus_class_number
from .theorems import (
    check_counterexample,
    check_masley,
    check_metsankyla,
    check_v4,
    sweep_counterexample_family1,
    sweep_masley,
    sweep_metsankyla,
    sweep_v4,
)
from .unitindex import hasse_unit_index, martinet_pair

CSV_COLUMNS = ["field", "conductor", "degree", "w", "Q", "rule", "h_minus"]


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.max_degree < 1:
            raise PreconditionViolated(
                f"--max-degree must be at least 1, got {args.max_degree}")
        return args.func(args)
    except CMFieldsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmfields",
        description="Exact minus class numbers and unit indices of abelian CM-fields",
    )
    parser.add_argument(
        "--max-degree", type=int, default=DEFAULT_MAX_DEGREE,
        help="abort cleanly when a field would exceed this degree",
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("unit-index", help="Hasse unit index of a field")
    p.add_argument("--field", required=True)
    p.add_argument("--override", type=int, choices=(1, 2))
    p.set_defaults(func=cmd_unit_index)

    p = sub.add_parser("hminus", help="minus class number of a field")
    p.add_argument("--field", required=True)
    p.add_argument("--q-override", type=int, choices=(1, 2))
    _add_format_flags(p)
    p.set_defaults(func=cmd_hminus)

    p = sub.add_parser("table", help="batch tables over several fields")
    p.add_argument("kind", choices=("hminus", "unitindex"))
    p.add_argument("--spec", action="append", default=[])
    p.add_argument("--zeta-range", type=_zeta_range,
                   help="A..B, all moduli != 2 mod 4 in range")
    p.add_argument("--q-override", type=int, choices=(1, 2))
    p.add_argument("--strict", action="store_true",
                   help="nonzero exit when any row errors")
    _add_format_flags(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run a verification check or sweep")
    p.add_argument("check", choices=("masley", "metsankyla", "v4",
                                     "counterexample", "martinet"))
    p.add_argument("params", nargs="*", type=int,
                   help="check parameters, e.g. 'v4 -4 -20'")
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--max", type=int, help="sweep bound")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)
    return parser


def _add_format_flags(p):
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")


def _jsonable(x):
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _hminus_row(spec_text: str, max_degree: int, q_override=None) -> dict:
    field = parse_field_spec(spec_text).build(max_degree=max_degree)
    report = minus_class_number(field, q_override=q_override)
    return {
        "field": spec_text,
        "conductor": field.conductor,
        "degree": field.degree,
        "w": report.w,
        "Q": report.q,
        "rule": report.rule,
        "h_minus": report.h_minus,
        "factors": [
            {"rep": rep, "norm_num": norm.numerator, "norm_den": norm.denominator}
            for rep, norm in report.orbit_factors
        ],
    }


def _unitindex_row(spec_text: str, max_degree: int, override=None) -> dict:
    field = parse_field_spec(spec_text).build(max_degree=max_degree)
    verdict = hasse_unit_index(field, override=override)
    return {
        "field": spec_text,
        "conductor": field.conductor,
        "degree": field.degree,
        "Q": verdict.q,
        "kappa": verdict.kappa_order,
        "rule": verdict.rule,
    }


def cmd_unit_index(args) -> int:
    row = _unitindex_row(args.field, args.max_degree, args.override)
    print(json.dumps({"Q": row["Q"], "kappa": row["kappa"], "rule": row["rule"]}))
    return 0


def cmd_hminus(args) -> int:
    row = _hminus_row(args.field, args.max_degree, args.q_override)
    if args.json:
        print(json.dumps(_jsonable(row)))
    elif args.csv:
        _print_csv([row])
    else:
        for key in CSV_COLUMNS:
            print(f"{key:>10}: {row[key]}")
    return 0


def _print_csv(rows) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _zeta_range(text: str) -> range:
    lo, _, hi = text.partition("..")
    # ASCII digits only: int() also reads '٣' as 3 and '3_0' as 30
    if not all(s.isascii() and s.isdigit() for s in (lo, hi)):
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}")
    lo, hi = int(lo), int(hi)
    if not 1 <= lo <= hi:
        raise argparse.ArgumentTypeError(
            f"expected A..B with 1 <= A <= B, got {text!r}")
    return range(lo, hi + 1)


def _table_specs(args) -> list[str]:
    specs = list(args.spec)
    if args.zeta_range:
        specs += [f"zeta:{m}" for m in args.zeta_range if m % 4 != 2]
    return specs


def cmd_table(args) -> int:
    if args.kind == "hminus":
        worker = lambda s: _hminus_row(s, args.max_degree, args.q_override)
    else:
        worker = lambda s: _unitindex_row(s, args.max_degree, args.q_override)

    rows = []
    errors = 0
    for s in _table_specs(args):
        try:
            rows.append(worker(s))
        except CMFieldsError as exc:
            rows.append({"field": s, "error": str(exc)})
            errors += 1

    if args.json:
        print(json.dumps(_jsonable(rows)))
    elif args.csv:
        _print_csv(rows)
    else:
        columns = CSV_COLUMNS if args.kind == "hminus" else [
            "field", "conductor", "degree", "Q", "kappa", "rule"]
        widths = {c: max([len(c)] + [len(str(r.get(c, ""))) for r in rows])
                  for c in columns}
        print("  ".join(c.ljust(widths[c]) for c in columns))
        for row in rows:
            if "error" in row:
                print(f"{row['field']}  ERROR: {row['error']}")
            else:
                print("  ".join(str(row.get(c, "")).ljust(widths[c])
                                for c in columns))
    return 1 if errors and args.strict else 0


def _verify_params(check: str, params: list[int], count: int,
                   positive: bool = False) -> list[int]:
    if len(params) != count:
        raise PreconditionViolated(
            f"verify {check} takes {count} parameters, got {len(params)}")
    if positive and min(params) < 1:
        raise PreconditionViolated(f"verify {check} needs positive levels, got {params}")
    return params


def _sweep_bound(args, default: int) -> int:
    if args.max is None:
        return default
    if args.max < 1:
        raise PreconditionViolated(f"--max must be at least 1, got {args.max}")
    return args.max


def cmd_verify(args) -> int:
    check = args.check
    if args.params and (args.sweep or args.max is not None):
        flag = "--sweep" if args.sweep else "--max"
        raise PreconditionViolated(
            f"verify {check} {flag} takes no parameters, got {args.params}")
    if check == "martinet":
        if args.params:
            for p in args.params:
                if p % 8 != 1 or not is_prime(p):
                    raise PreconditionViolated(
                        f"verify martinet needs primes = 1 mod 8, got {p}")
            primes = args.params
        else:
            bound = _sweep_bound(args, 200)
            primes = [p for p in range(2, bound + 1) if p % 8 == 1 and is_prime(p)]
        # every pair is built before the first line is printed, so a field
        # error exits 2 with nothing on stdout
        out = [martinet_pair(p, args.max_degree) for p in primes]
        for rep in out:
            status = "skip (norm -1)" if rep.unit_norm == -1 else "pass"
            print(f"[{status}] martinet p={rep.p} norm={rep.unit_norm} "
                  f"Q_K={rep.q_biquadratic} Q_L={rep.q_octic}")
        if args.json:
            print(json.dumps([rep._asdict() for rep in out]))
        return 0

    if args.sweep:
        if check == "masley":
            reports = sweep_masley(_sweep_bound(args, 60), args.max_degree)
        elif check == "v4":
            reports = sweep_v4(_sweep_bound(args, 2000), args.max_degree)
        elif check == "metsankyla":
            reports = sweep_metsankyla(_sweep_bound(args, 32), args.max_degree)
        else:
            reports = sweep_counterexample_family1(
                _sweep_bound(args, 200), args.max_degree)
    elif check == "masley":
        m, n = _verify_params(check, args.params, 2, positive=True)
        reports = [check_masley(m, n, args.max_degree)]
    elif check == "v4":
        d1, d2 = _verify_params(check, args.params, 2)
        reports = [check_v4(d1, d2, args.max_degree)]
    elif check == "metsankyla":
        m1, m2 = _verify_params(check, args.params, 2, positive=True)
        fields = [cyclotomic_field(m, args.max_degree) for m in (m1, m2)]
        reports = [check_metsankyla(*fields, max_degree=args.max_degree)]
    else:
        family, *rest = args.params or [None]
        if family == 1:
            d1, d2 = _verify_params("counterexample 1", rest, 2)
            reports = [check_counterexample(1, args.max_degree, d1=d1, d2=d2)]
        elif family == 2:
            (m,) = _verify_params("counterexample 2", rest, 1)
            reports = [check_counterexample(2, args.max_degree, m=m)]
        else:
            raise PreconditionViolated("verify counterexample needs family 1 or 2")

    failed = 0
    for rep in reports:
        print(rep.summary())
        if not rep.verdict and not rep.vacuous:
            failed += 1
    if args.json:
        print(json.dumps([_jsonable({
            "name": r.name, "inputs": r.inputs, "quantities": r.quantities,
            "verdict": r.verdict, "vacuous": r.vacuous,
        }) for r in reports]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
