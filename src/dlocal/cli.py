"""Command-line surface: compute, patterns, explain, verify.

One binary with subcommands; every number printed is exact unless the
explicitly non-canonical --eval-p substitution is requested.  Exit status
0 on success, 1 when a verification suite fails, 2 on usage errors: bad
flags and any ValueError, OSError, OverflowError (a huge --n) or
MemoryError (an --n too large to allocate) raised on a subcommand's input
or --output path, each reported as one ``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .coeff_ring import _gmono_str
from .decoration import (
    _strictness_failure,
    component_structure,
    render_decorated,
    strictness_counts,
)
from .local_part import LocalPart, component_rule, local_part, pattern_contribution
from .pattern import (
    LittelmannPattern,
    critical_positions,
    enumerate_decorated,
    weight_vector,
)
from .root_data import HighestWeight, build_root_system


def _int_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _fraction(text: str) -> Fraction:
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational number, got {text!r}")


def _write(text: str, path) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:  # the reader left: let shutdown's flush go to devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


def _highest_weight(rank: int, twist) -> HighestWeight:
    if rank < 2:
        raise ValueError(f"rank must be >= 2, got {rank}")
    if len(twist) != rank:
        raise ValueError(f"twist must have {rank} entries, got {len(twist)}")
    return HighestWeight.from_twist(twist)


def _format_eval_p(part: LocalPart, p_value: Fraction) -> str:
    lines = [f"# evaluated at p = {p_value} (non-canonical output)"]
    for lam in part.support():
        pieces = []
        for gmono, value in part.coefficients[lam].eval_p(p_value).items():
            gstr = _gmono_str(gmono)
            pieces.append(f"{value}*{gstr}" if gstr else str(value))
        lines.append(f"{','.join(map(str, lam))}: {' + '.join(pieces) if pieces else '0'}")
    return "\n".join(lines)


def cmd_compute(args) -> int:
    hw = _highest_weight(args.rank, args.twist)
    if args.coeff is not None and len(args.coeff) != args.rank:
        raise ValueError(f"--coeff must have {args.rank} entries")
    if args.eval_p is not None and (args.coeff is not None or args.format == "json"):
        raise ValueError("--eval-p applies only to the full local part in text format")
    rs = build_root_system(args.rank)
    part = local_part(rs, hw, n=args.n, weight=args.coeff)

    if args.coeff is not None:
        value = part.coefficient_at(args.coeff)
        if args.format == "json":
            obj = {
                "rank": args.rank,
                "n": args.n,
                "twist": list(args.twist),
                "lambda": list(args.coeff),
                "value": value.to_json_obj(),
            }
            _write(json.dumps(obj, separators=(",", ":")), args.output)
        else:
            _write(str(value), args.output)
        return 0

    if args.format == "json":
        _write(part.to_json_str(), args.output)
    elif args.eval_p is not None:
        _write(_format_eval_p(part, args.eval_p), args.output)
    else:
        lines = [
            f"{','.join(map(str, lam))}: {part.coefficients[lam]}"
            for lam in part.support()
        ]
        _write("\n".join(lines), args.output)
    return 0


def cmd_patterns(args) -> int:
    hw = _highest_weight(args.rank, args.twist)
    if args.weight is not None and len(args.weight) != args.rank:
        raise ValueError(f"--weight must have {args.rank} entries")
    rs = build_root_system(args.rank)

    if args.count_only:
        total, nonstrict = strictness_counts(rs, hw, args.weight)
        if args.format == "json":
            obj = {"total": total, "nonstrict": nonstrict, "strict": total - nonstrict}
            _write(json.dumps(obj, separators=(",", ":")), args.output)
        else:
            _write(
                f"total {total}\nnonstrict {nonstrict}\nstrict {total - nonstrict}",
                args.output,
            )
        return 0

    records = []
    lines = []
    for T, crit in enumerate_decorated(rs, hw, args.weight):
        strict = _strictness_failure(T, crit) is None
        lam = weight_vector(T)
        if args.format == "json":
            records.append(
                {
                    "pattern": T.to_string(),
                    "rows": [list(row) for row in T.rows],
                    "weight": list(lam),
                    "strict": strict,
                    "critical": [list(pos) for pos in sorted(crit)],
                }
            )
        else:
            cpos = ",".join(f"({i},{j})" for i, j in sorted(crit)) or "-"
            lines.append(
                f"{T.to_string()}  weight={','.join(map(str, lam))}"
                f"  strict={'yes' if strict else 'no'}  critical={cpos}"
            )
    if args.format == "json":
        _write(json.dumps(records, separators=(",", ":")), args.output)
    else:
        _write("\n".join(lines), args.output)
    return 0


def cmd_explain(args) -> int:
    T = LittelmannPattern.from_string(args.pattern)
    if args.rank is not None and args.rank != T.rank:
        raise ValueError(f"pattern literal has rank {T.rank}, not {args.rank}")
    hw = _highest_weight(T.rank, args.twist)
    circled = critical_positions(T, hw)

    n = args.n
    lam = weight_vector(T)
    out = [render_decorated(T, circled), ""]
    out.append(f"weight: {','.join(map(str, lam))}   |weight| = {sum(lam)}")
    failure = _strictness_failure(T, circled)
    for comp in component_structure(T):
        value = T.entry(comp.row, comp.columns[0])
        factor, tag = component_rule(comp, value, circled, n)
        shown = str(factor) if failure is None else "skipped"
        cols = ",".join(map(str, comp.columns))
        out.append(
            f"row {comp.row} columns [{cols}] value {value}: {comp.kind}; "
            f"{tag}; factor = {shown}"
        )
    if failure is None:
        out.append("strict: yes")
        out.append(
            f"contribution: p^{sum(lam)} * product = {pattern_contribution(T, hw, n)}"
        )
    else:
        out.append(f"strict: no ({failure})")
        out.append("contribution: excluded (nonstrict patterns are discarded)")
    _write("\n".join(out), args.output)
    return 0


def cmd_verify(args) -> int:
    from .oracle import check_all, check_dimension, check_example2, check_rank2, check_tokuyama

    if args.suite == "all":
        reports = check_all()
    else:
        # Each suite's check and the grid flags it reads.  A flag that was
        # not given is not passed, so the defaults are the check's own.
        check, flags = {
            "dimension": (check_dimension, ("max_rank", "max_twist")),
            "tokuyama": (check_tokuyama, ("max_rank",)),
            "rank2": (check_rank2, ("max_twist", "max_n")),
            "example2": (check_example2, ()),
        }[args.suite]
        given = {flag: getattr(args, flag) for flag in flags}
        reports = [check(**{flag: v for flag, v in given.items() if v is not None})]
    if args.format == "json":
        payload = json.dumps([r.to_json_obj() for r in reports], separators=(",", ":"))
        _write(payload, args.output)
    else:
        _write("\n".join(r.to_text() for r in reports), args.output)
    return 0 if all(r.passed for r in reports) else 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dlocal",
        description="Exact local parts of type-D Weyl group multiple Dirichlet series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="assemble a local part or one coefficient")
    compute.add_argument("--rank", type=int, required=True)
    compute.add_argument("--n", type=int, required=True, help="cover degree")
    compute.add_argument("--twist", type=_int_vector, required=True)
    compute.add_argument("--coeff", type=_int_vector, help="print only this coefficient")
    compute.add_argument("--format", choices=("text", "json"), default="text")
    compute.add_argument("--output", help="write to this path instead of stdout")
    compute.add_argument(
        "--eval-p",
        type=_fraction,
        dest="eval_p",
        help="substitute a rational p in text output (non-canonical)",
    )
    compute.set_defaults(func=cmd_compute)

    patterns = sub.add_parser("patterns", help="list or count bounded patterns")
    patterns.add_argument("--rank", type=int, required=True)
    patterns.add_argument("--twist", type=_int_vector, required=True)
    patterns.add_argument("--weight", type=_int_vector, help="restrict to one weight")
    patterns.add_argument("--count-only", action="store_true", dest="count_only")
    patterns.add_argument("--format", choices=("text", "json"), default="text")
    patterns.add_argument("--output", help="write to this path instead of stdout")
    patterns.set_defaults(func=cmd_patterns)

    explain = sub.add_parser("explain", help="show one pattern's decorated graph and factors")
    explain.add_argument("--pattern", required=True, help='literal like "1,1,0,0;1,0"')
    explain.add_argument("--twist", type=_int_vector, required=True)
    explain.add_argument("--n", type=int, required=True)
    explain.add_argument("--rank", type=int, help="optional cross-check of the literal")
    explain.add_argument("--output", help="write to this path instead of stdout")
    explain.set_defaults(func=cmd_explain)

    verify = sub.add_parser("verify", help="run the self-verification suites")
    verify.add_argument(
        "--suite",
        choices=("dimension", "tokuyama", "rank2", "example2", "all"),
        required=True,
    )
    for flag in ("--max-rank", "--max-twist", "--max-n"):
        verify.add_argument(
            flag, type=int, help="defaults to the acceptance grid of the chosen suite"
        )
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--output", help="write to this path instead of stdout")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory (is --n too large?)", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
