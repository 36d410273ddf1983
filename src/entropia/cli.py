"""Command-line surface: entropy, edivisors, compare, ideal, verify.

Default output is aligned human-readable text; --json emits a canonical
envelope {command, inputs, result, status} with sorted keys and floats
fixed to 12 significant digits, so emitted documents round-trip byte-for-
byte through parse/re-serialize.

Exit codes: 0 ok, 1 verification violation, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import TYPE_CHECKING

from . import arith, entropy
from .errors import DomainError, RangeError, UnsupportedCaseError, VerificationError

if TYPE_CHECKING:
    from . import laws
EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def _round_floats(obj):
    """Recursively pin floats to 12 significant digits (idempotent)."""
    if isinstance(obj, float):
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_round_floats(obj), sort_keys=True, separators=(",", ":"))


def _print_value(value, indent: int = 0) -> None:
    pad = " " * indent
    if isinstance(value, dict):
        width = max((len(str(k)) for k in value), default=0)
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _print_value(v, indent + 2)
            else:
                print(f"{pad}{str(k):<{width}}  {_fmt_scalar(v)}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                _print_value(v, indent + 2)
            else:
                print(f"{pad}- {_fmt_scalar(v)}")
    else:
        print(f"{pad}{_fmt_scalar(value)}")


def _fmt_scalar(v) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _inputs(args) -> dict:
    """The command's own arguments, as the JSON envelope echoes them."""
    return {k: v for k, v in vars(args).items() if k not in ("json", "command", "func")}


def _emit(args, result, status: str) -> None:
    if args.json:
        envelope = {
            "command": args.command,
            "inputs": _inputs(args),
            "result": result,
            "status": status,
        }
        print(canonical_json(envelope))
    else:
        _print_value(result)
        if status != "ok":
            print(f"status: {status}")


def _cmd_entropy(args) -> int:
    n = args.n
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    rep = entropy.entropy_report(n)
    result = {
        "n": rep.n,
        "H": rep.H,
        "Hbar": rep.Hbar,
        "bigOmega": rep.big_omega,
        "smallOmega": rep.small_omega,
        "tau": rep.tau,
        "sigma": rep.sigma,
        "tauE": rep.tau_e,
        "threshold": rep.threshold,
    }
    _emit(args, result, "ok")
    return EXIT_OK


def _cmd_edivisors(args) -> int:
    f = arith.factorize(args.n)
    values = arith.exponential_divisors(f)
    _emit(args, {"n": args.n, "count": len(values), "edivisors": values}, "ok")
    return EXIT_OK


def _gap_result(rep: laws.GapReport) -> dict:
    return {
        "m": rep.m,
        "n": rep.n,
        "Hm": rep.h_m,
        "Hn": rep.h_n,
        "Hmn": rep.h_mn,
        "gap": rep.gap,
        "relation": rep.relation.value,
    }


def _cmd_compare(args) -> int:
    from . import laws
    rep = laws.product_entropy_gap(args.m, args.n)
    _emit(args, _gap_result(rep), "ok")
    return EXIT_OK


def _cmd_ideal(args) -> int:
    from . import numfield
    fld = numfield.parse_field_spec(args.field)
    sp = numfield.split_prime(fld, args.p)
    result = {
        "field": numfield.field_label(fld),
        "degree": fld.degree,
        "p": args.p,
        "factors": [[e, f] for e, f in sp.factors],
        "g": sp.g,
        "H": numfield.ideal_entropy(sp),
        "tau": arith.divisor_count(sp.ramification_indices),
        "tauE": arith.tau_e(sp.ramification_indices),
    }
    _emit(args, result, "ok")
    return EXIT_OK


def _summary_result(summary: laws.CheckSummary) -> tuple[dict, int]:
    result = {
        "suite": summary.name,
        "checked": summary.checked,
        "violationCount": summary.violation_count,
        "violations": list(summary.violations),
    }
    result.update({k: v for k, v in summary.extra.items()})
    return result, summary.violation_count


def _scan_result(summary: laws.ScanSummary) -> tuple[dict, int]:
    result = {
        "suite": "products",
        "maxM": summary.max_m,
        "maxN": summary.max_n,
        "checked": summary.pairs,
        "violationCount": len(summary.violations),
        "counts": dict(summary.counts),
        "witnessGreater": list(summary.witness_greater)
        if summary.witness_greater
        else None,
        "witnessLess": list(summary.witness_less) if summary.witness_less else None,
        "violations": list(summary.violations),
    }
    return result, len(summary.violations)


def _run_suite(args, name: str, bound: int | None) -> int:
    """Run one suite at bound (None: its default) and emit its result."""
    from . import laws
    runner, default = laws.SUITES[name]
    if default is None and bound is not None:
        raise DomainError(f"suite {name!r} takes no bound; drop --max")
    args.suite, args.max = name, default if bound is None else bound
    summary = runner(args.max, args.seed)
    if isinstance(summary, laws.ScanSummary):
        result, violation_count = _scan_result(summary)
    else:
        result, violation_count = _summary_result(summary)
    _emit(args, result, "ok" if violation_count == 0 else "violation")
    return EXIT_OK if violation_count == 0 else EXIT_VIOLATION


def _cmd_verify(args) -> int:
    from . import laws
    if args.suite == "all":
        if args.max is not None:
            raise DomainError("verify all uses each default bound; drop --max")
        return max(_run_suite(args, name, None) for name in laws.SUITES)
    if args.suite not in laws.SUITES:
        raise DomainError(
            f"unknown suite {args.suite!r}; choose from {['all', *laws.SUITES]}"
        )
    return _run_suite(args, args.suite, args.max)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; each parse_args call
    fills a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="entropia",
        description="Entropies of integers and prime-splitting ideals.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON envelope")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", help="full entropy report for one integer")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("edivisors", help="exponential divisors of an integer")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_edivisors)

    p = sub.add_parser("compare", help="H(mn) vs H(m) + H(n) for coprime m, n")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("ideal", help="splitting pattern and ideal entropy of p O_K")
    p.add_argument("field", help="quad:<d> | cyclo:<l> | cubic:<m>")
    p.add_argument("p", type=int)
    p.set_defaults(func=_cmd_ideal)

    p = sub.add_parser("verify", help="run one verification suite, or all of them")
    p.add_argument("suite", help="a suite name, or all")
    p.add_argument("--max", type=int, default=None, help="range bound for the suite")
    p.add_argument("--seed", type=int, default=0, help="RNG seed for random suites")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (DomainError, RangeError, UnsupportedCaseError) as exc:
        return _fail(args, exc, "error", EXIT_USAGE)
    except VerificationError as exc:
        return _fail(args, exc, "violation", EXIT_VIOLATION)


def _fail(args, exc: Exception, status: str, code: int) -> int:
    if args.json:
        _emit(args, {"error": str(exc)}, status)
    else:
        print(f"{status}: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
