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
from itertools import chain

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

_compact = json.JSONEncoder(separators=(",", ":")).encode


def _int_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _fraction(text: str) -> Fraction:
    from fractions import Fraction

    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        value = 0
    if not value:  # p = 0 would fail only once the output had begun
        raise argparse.ArgumentTypeError(f"expected a nonzero rational number, got {text!r}")
    return value


def _write(pieces, path) -> None:
    """Write the text ``pieces`` as they come, then one newline.

    The first piece is pulled before ``path`` is opened or stdout written,
    so an error raised while producing it leaves no output and no file.
    """
    pieces = iter(pieces)
    text = chain((next(pieces, ""),), pieces, ("\n",))
    if path:
        with open(path, "w") as fh:
            fh.writelines(text)
    else:
        try:
            sys.stdout.writelines(text)
            sys.stdout.flush()
        except BrokenPipeError:  # the reader left: let shutdown's flush go to devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


def _joined(sep: str, pieces):
    """``pieces`` with ``sep`` between each two."""
    for i, piece in enumerate(pieces):
        yield sep + piece if i else piece


def _highest_weight(rank: int, twist) -> HighestWeight:
    if rank < 2:
        raise ValueError(f"rank must be >= 2, got {rank}")
    if len(twist) != rank:
        raise ValueError(f"twist must have {rank} entries, got {len(twist)}")
    return HighestWeight.from_twist(twist)


def _coefficient_lines(part: LocalPart, p_value):
    """One line per coefficient, with p substituted when ``p_value`` is given."""
    if p_value is not None:
        yield f"# evaluated at p = {p_value} (non-canonical output)"
    for lam in part.support():
        value = part.coefficients[lam]
        if p_value is not None:
            terms = [(c, _gmono_str(gmono)) for gmono, c in value.eval_p(p_value).items()]
            value = " + ".join(f"{c}*{g}" if g else str(c) for c, g in terms) or "0"
        yield f"{','.join(map(str, lam))}: {value}"


def cmd_compute(args):
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
            return [_compact(obj)], 0
        return [str(value)], 0
    if args.format == "json":
        return part._json_pieces(), 0
    return _joined("\n", _coefficient_lines(part, args.eval_p)), 0


def _listing(patterns, fmt: str):
    """One record or line per pattern."""
    for T, crit in patterns:
        strict = _strictness_failure(T, crit) is None
        lam = weight_vector(T)
        if fmt == "json":
            yield _compact(
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
            yield (
                f"{T.to_string()}  weight={','.join(map(str, lam))}"
                f"  strict={'yes' if strict else 'no'}  critical={cpos}"
            )


def cmd_patterns(args):
    hw = _highest_weight(args.rank, args.twist)
    if args.weight is not None and len(args.weight) != args.rank:
        raise ValueError(f"--weight must have {args.rank} entries")
    rs = build_root_system(args.rank)

    if args.count_only:
        total, nonstrict = strictness_counts(rs, hw, args.weight)
        if args.format == "json":
            obj = {"total": total, "nonstrict": nonstrict, "strict": total - nonstrict}
            return [_compact(obj)], 0
        return [f"total {total}\nnonstrict {nonstrict}\nstrict {total - nonstrict}"], 0

    # enumerate_decorated checks its arguments here, before any piece exists.
    pieces = _listing(enumerate_decorated(rs, hw, args.weight), args.format)
    if args.format == "json":
        return chain(("[",), _joined(",", pieces), ("]",)), 0
    return _joined("\n", pieces), 0


def cmd_explain(args):
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
        out.append(f"contribution: p^{sum(lam)} * product = {pattern_contribution(T, hw, n)}")
    else:
        out.append(f"strict: no ({failure})")
        out.append("contribution: excluded (nonstrict patterns are discarded)")
    return _joined("\n", out), 0


# The grid flags oracle.check_<suite> reads; a flag not given keeps the check's default.
_SUITE_FLAGS = {
    "dimension": ("max_rank", "max_twist"),
    "tokuyama": ("max_rank",),
    "rank2": ("max_twist", "max_n"),
    "example2": (),
}


def cmd_verify(args):
    from . import oracle

    if args.suite == "all":
        reports = oracle.check_all()
    else:
        given = {flag: getattr(args, flag) for flag in _SUITE_FLAGS[args.suite]}
        check = getattr(oracle, f"check_{args.suite}")
        reports = [check(**{flag: v for flag, v in given.items() if v is not None})]
    status = 0 if all(r.passed for r in reports) else 1
    if args.format == "json":
        return [_compact([r.to_json_obj() for r in reports])], status
    return _joined("\n", (r.to_text() for r in reports)), status


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
    compute.add_argument(
        "--eval-p", type=_fraction, help="substitute a rational p in text output (non-canonical)"
    )
    compute.set_defaults(func=cmd_compute)

    patterns = sub.add_parser("patterns", help="list or count bounded patterns")
    patterns.add_argument("--rank", type=int, required=True)
    patterns.add_argument("--twist", type=_int_vector, required=True)
    patterns.add_argument("--weight", type=_int_vector, help="restrict to one weight")
    patterns.add_argument("--count-only", action="store_true", dest="count_only")
    patterns.set_defaults(func=cmd_patterns)

    explain = sub.add_parser("explain", help="show one pattern's decorated graph and factors")
    explain.add_argument("--pattern", required=True, help='literal like "1,1,0,0;1,0"')
    explain.add_argument("--twist", type=_int_vector, required=True)
    explain.add_argument("--n", type=int, required=True)
    explain.add_argument("--rank", type=int, help="optional cross-check of the literal")
    explain.set_defaults(func=cmd_explain)

    verify = sub.add_parser("verify", help="run the self-verification suites")
    verify.add_argument("--suite", choices=(*_SUITE_FLAGS, "all"), required=True)
    for flag in ("--max-rank", "--max-twist", "--max-n"):
        verify.add_argument(
            flag, type=int, help="defaults to the acceptance grid of the chosen suite"
        )
    verify.set_defaults(func=cmd_verify)

    for command in (compute, patterns, verify):
        command.add_argument("--format", choices=("text", "json"), default="text")
    for command in (compute, patterns, explain, verify):
        command.add_argument("--output", help="write to this path instead of stdout")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        pieces, status = args.func(args)
        _write(pieces, args.output)
        return status
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
