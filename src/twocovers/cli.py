"""Command-line front end.

Subcommands: construct, verify, zeta, remarks, twists, growth.  All numeric
input is exact ("n" or "n/m" strings); all output is deterministic, with
exact base-10 rationals everywhere except the growth table's reference
column (a documented 6-decimal rendering of X^(1/6)/log^2 X).

Exit codes: 0 success, 1 failed checks, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .constructions import (
    UnsupportedJError,
    build_family,
    build_thm1,
    params_from_j,
)
from .curves import CurveError, model_to_obj
from .twists import (
    CENSUS_HEADER,
    GROWTH_HEADER,
    TRIAL_DIVISION_BOUND,
    census,
    growth_table,
    record_to_tsv,
    summary_to_tsv,
)
from .algebra import is_prime
from .counting import MAX_FIELD_SIZE, BadPrimeError, CountingBudgetError
from .verify import run_suite
from .zeta import (
    CountingBugError,
    check_remarks,
    lpoly_hyperelliptic,
    lpoly_space_curve,
    # not called here, but perfbench/layers.py wraps cli.lpoly_weierstrass
    lpoly_weierstrass,  # noqa: F401
)

DEFAULT_REMARK_PRIMES = [7, 11, 13]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports any usage error, in every subcommand, as one line on stderr
    (with a pointer to --help instead of the usage text) and exits 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message} (see {self.prog} --help)\n")


def _rational(text):
    try:
        if "/" in text:
            n, m = text.split("/")
            return Fraction(int(n), int(m))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc


_RATIONAL_FLAGS = ("--j", "--A", "--B")
_NEGATIVE_FRACTION = re.compile(r"-\d+/\d+\Z")


def _join_negative_fractions(argv):
    """argparse takes a negative number only in the form -<digits> or a
    decimal, so the value "-3/4" after --A would read as a flag; such a
    value is joined to its flag as "--A=-3/4"."""
    out = []
    for arg in argv:
        if out and out[-1] in _RATIONAL_FLAGS and _NEGATIVE_FRACTION.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _int_list(text):
    """A nonempty list of distinct ints, with no empty item."""
    items = text.split(",")
    if "" in items:
        raise argparse.ArgumentTypeError(f"empty item in list: {text!r}")
    try:
        values = [int(v) for v in items]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from exc
    if len(set(values)) != len(values):
        raise argparse.ArgumentTypeError(f"repeated value: {text!r}")
    return values


def _prime_list(text):
    primes = _int_list(text)
    for p in primes:
        try:
            prime = p > 3 and is_prime(p)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        if not prime:
            raise argparse.ArgumentTypeError(f"not a prime > 3: {p}")
    return primes


def _grid_list(text):
    grid = _int_list(text)
    for X in grid:
        if X <= 1:
            raise argparse.ArgumentTypeError(f"grid values must exceed 1: {X}")
    return grid


def _positive_int(text):
    try:
        n = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {n}")
    return n


def _height(text):
    # the census relies on every prime <= height being stripped before rho
    n = _positive_int(text)
    if n > TRIAL_DIVISION_BOUND:
        raise argparse.ArgumentTypeError(f"must be at most {TRIAL_DIVISION_BOUND}: {n}")
    return n


def _resolve_parameter(args):
    """(A, j-or-None) from the mutually exclusive --j/--A flags."""
    if getattr(args, "j", None) is not None and getattr(args, "A", None) is not None:
        raise UsageError("give exactly one of --j and --A")
    if getattr(args, "j", None) is not None:
        return params_from_j(args.j), args.j
    if getattr(args, "A", None) is not None:
        return args.A, None
    raise UsageError("one of --j and --A is required")


def _check_theorem_flags(args, theorem1):
    """--j is read only by theorem 2 and --B only by theorem 1; the flag the
    chosen theorem does not read is a usage error, not silently dropped."""
    if theorem1 and args.j is not None:
        raise UsageError("theorem 1 takes --A and --B, not --j")
    if not theorem1 and args.B is not None:
        raise UsageError("--B is read only by theorem 1 (--theorem 1, or zeta --curve C)")


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _frac_str(v):
    f = Fraction(v)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


# ---------------------------------------------------------------------------
# subcommands


def cmd_construct(args):
    _check_theorem_flags(args, args.theorem == 1)
    if args.theorem == 1:
        if args.A is None or args.B is None:
            raise UsageError("--theorem 1 requires --A and --B")
        c = build_thm1(args.A, args.B)
        obj = {
            "A": _frac_str(c.A),
            "B": _frac_str(c.B),
            "conic": "x^2 + x z + z^2 = A",
            "models": {
                "E": model_to_obj(c.cubic),
                "Eprime1": model_to_obj(c.aux_cubic),
            },
        }
        _emit([_dumps(obj)], args.out)
        return 0
    A, j = _resolve_parameter(args)
    fam = build_family(A)
    obj = {
        "A": _frac_str(A),
        "models": {
            "E": model_to_obj(fam.E),
            "D": model_to_obj(fam.D),
            "H": model_to_obj(fam.H),
            "H1": model_to_obj(fam.H1),
            "H2": model_to_obj(fam.H2),
            "Eprime": model_to_obj(fam.Eprime),
        },
    }
    if j is not None:
        obj["j"] = _frac_str(j)
    _emit([_dumps(obj)], args.out)
    return 0


def cmd_verify(args):
    A, _ = _resolve_parameter(args)
    reports = run_suite(A)
    _emit([_dumps(r.serialize()) for r in reports], args.out)
    return 0 if all(r.passed for r in reports) else 1


def cmd_zeta(args):
    primes = args.primes or DEFAULT_REMARK_PRIMES
    _check_theorem_flags(args, args.theorem == 1 or args.curve == "C")
    if args.theorem == 1 or args.curve == "C":
        if args.A is None or args.B is None:
            raise UsageError("--curve C (and --theorem 1) require --A and --B")
        if args.curve not in ("C", "E", "Eprime"):
            raise UsageError(f"--theorem 1 has no curve {args.curve!r}")
        c = build_thm1(args.A, args.B)
        curves = {"E": c.cubic, "Eprime": c.aux_cubic}
    else:
        fam = build_family(_resolve_parameter(args)[0])
        curves = {name: getattr(fam, name) for name in ("E", "D", "H", "H1", "H2", "Eprime")}
    lines = []
    for p in sorted(primes):
        if args.curve == "C":
            L = lpoly_space_curve(args.A, args.B, p, args.max_field_size, args.seed)
        else:
            L = lpoly_hyperelliptic(curves[args.curve], p, args.max_field_size, args.seed)
        lines.append(_dumps({"curve": args.curve, "lpoly": L.serialize()}))
    _emit(lines, args.out)
    return 0


def cmd_remarks(args):
    A, _ = _resolve_parameter(args)
    primes = args.primes or DEFAULT_REMARK_PRIMES
    try:
        rep = check_remarks(A, primes, B=args.B, max_field_size=args.max_field_size, seed=args.seed)
    except CountingBugError as exc:
        _emit([_dumps({"status": "fail", "reason": str(exc)})], args.out)
        return 1
    lines = []
    for r in rep.results:
        obj = {
            "p": r.p,
            "L_E": list(r.L_E.coeffs),
            "L_Eprime": list(r.L_Eprime.coeffs),
            "L_H": list(r.L_H.coeffs),
            "L_H1": list(r.L_H1.coeffs),
            "L_H2": list(r.L_H2.coeffs),
            "L_F": list(r.L_F.coeffs),
            "F_irreducible": r.F_irreducible,
        }
        if r.space_curve_count is not None:
            obj["space_curve_count"] = r.space_curve_count
            obj["space_curve_predicted"] = r.space_curve_predicted
        lines.append(_dumps(obj))
    lines.append(
        _dumps(
            {
                "simplicity_witnesses": rep.simplicity_witnesses(),
                "skipped": [list(s) for s in rep.skipped],
                # always empty: check_remarks enforces L_H2 = L_E L_E' and
                # L_H1 = L_E L_F with L_F = L_H / (L_E^2 L_E'), so
                # L_H = L_H1 L_H2 holds at every prime it reports
                "structural_alarms": [],
            }
        )
    )
    _emit(lines, args.out)
    return 0 if rep.all_passed() and rep.results else 1


def cmd_twists(args):
    A, _ = _resolve_parameter(args)
    records = census(A, args.height)
    lines = [CENSUS_HEADER] + [record_to_tsv(r) for r in records]
    _emit(lines, args.out)
    return 0


def cmd_growth(args):
    A, _ = _resolve_parameter(args)
    records = census(A, args.height)
    summary = growth_table(records, args.grid or [10, 100, 1000])
    lines = [GROWTH_HEADER] + summary_to_tsv(summary)
    _emit(lines, args.out)
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    parser = _Parser(
        prog="twocovers",
        description="exact constructions of curves with two independent elliptic covers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--B": dict(type=_rational, help="second parameter (theorem-1 commands)"),
        "--seed": dict(type=int, default=0, help="field-presentation seed"),
        "--max-field-size": dict(
            type=_positive_int, default=MAX_FIELD_SIZE, help="enumeration budget per finite field"
        ),
        "--primes": dict(type=_prime_list, help="comma-separated primes > 3"),
    }
    def common(p, *names):
        """--j, --A and --out, plus the named flags: only those the
        subcommand reads, so that any other flag is a usage error."""
        p.add_argument("--j", type=_rational, help="j-invariant as n or n/m")
        p.add_argument("--A", type=_rational, help="family parameter as n or n/m")
        p.add_argument("--out", help="write output to this path instead of stdout")
        for name in names:
            p.add_argument(name, **flags[name])

    p = sub.add_parser("construct", help="emit the curve family as exact JSON")
    common(p, "--B")
    p.add_argument("--theorem", type=int, choices=(1, 2), default=2)
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("verify", help="run the symbolic verification suite")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("zeta", help="emit L-polynomials for one curve")
    common(p, "--B", "--primes", "--max-field-size", "--seed")
    p.add_argument("--curve", required=True, choices=("E", "D", "H", "H1", "H2", "Eprime", "C"))
    p.add_argument("--theorem", type=int, choices=(1, 2), default=2)
    p.set_defaults(fn=cmd_zeta)

    p = sub.add_parser("remarks", help="Jacobian decomposition checks at good primes")
    common(p, "--B", "--primes", "--max-field-size", "--seed")
    p.set_defaults(fn=cmd_remarks)

    p = sub.add_parser("twists", help="bounded-height twist census as TSV")
    common(p)
    p.add_argument("--height", type=_height, default=25)
    p.set_defaults(fn=cmd_twists)

    p = sub.add_parser("growth", help="census growth table as TSV")
    common(p)
    p.add_argument("--height", type=_height, default=25)
    p.add_argument("--grid", type=_grid_list, help="comma-separated X values > 1")
    p.set_defaults(fn=cmd_growth)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_join_negative_fractions(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except (UsageError, UnsupportedJError, CurveError, BadPrimeError, CountingBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
