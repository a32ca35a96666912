"""Command-line interface: generate families, verify identities, sample data.

Subcommands
-----------
gen      write a family (tau, polynomials, norms) as JSON or CSV
verify   run verification suites on one family; exit status reflects outcome
weight   sample the orthogonality weight 1/tau^2 on a uniform rational grid
degrees  print predicted vs. actual degrees and the missing-degree set

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 inadmissible parameters.  All computation is exact; decimals appear only
in rendered output.

Input whose cost the caps below do not bound (too many levels, too high a
degree of tau, too high an index, too many samples or digits) is refused with
exit 2 before any family is built.

``main`` parses ``sys.argv[1:]``; ``main.main(argv)`` is the same function,
the in-process entry point.  Either always ends in ``SystemExit`` with the
exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import decimal
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Iterator, NoReturn, Sequence, TextIO

from .admissibility import (
    _norm,
    admissibility_formula,
    admissibility_record,
    orthogonality_check,
)
from .operators import verify_eigen, verify_factorization, verify_intertwining
from .polyring import parse_rat, rat_str
from .xfamily import (
    FamilyKey,
    canonicalize,
    exceptional_poly,
    expected_degree,
    family,
    missing_degrees,
    recursive_family,
    tau,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_INADMISSIBLE = 3

ALL_SUITES = ("eigen", "ortho", "factor", "recur", "degree")

# Input caps.  Exact coefficients grow with the index, and the determinant
# with the number of levels and with deg tau, so each bounds the cost of one
# invocation; larger input exits 2.  Each is at least 4x the largest value
# exercised by the test suite and the benchmark.
MAX_LEVELS = 16  # entries of --m, before duplicates are merged
MAX_TAU_DEGREE = 128  # 2*sum(m) + n of --m as given, the degree of tau
MAX_GEN_INDEX = 1000  # largest index of gen --i
MAX_CHECK_INDEX = 64  # --max-i of verify and degrees
MAX_SAMPLES = 100_000  # weight --samples
MAX_PRECISION = 100  # weight --precision

_M_HELP = (f"Comma-separated levels (may be empty; at most {MAX_LEVELS}, "
           f"with deg tau = 2*sum(m) + n at most {MAX_TAU_DEGREE}).")


class UsageError(Exception):
    """Input refused with exit 2 after the command line was parsed."""


def _int_range(lo: int, hi: int):
    """argparse type: an integer in [lo, hi]."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{value} is not in the range {lo}<=x<={hi}")
        return value

    return convert


def _parse_key(m_str: str, t_str: str) -> FamilyKey:
    m_items = [s for s in (m_str or "").split(",") if s.strip() != ""]
    t_items = [s for s in (t_str or "").split(",") if s.strip() != ""]
    if len(m_items) > MAX_LEVELS:
        raise UsageError(f"invalid family key: at most {MAX_LEVELS} levels")
    try:
        m = tuple(int(s) for s in m_items)
        t = tuple(parse_rat(s) for s in t_items)
        if any(v < 0 for v in m):
            raise ValueError("levels must be non-negative")
        if 2 * sum(m) + len(m) > MAX_TAU_DEGREE:
            raise ValueError(f"deg tau = 2*sum(m) + n is at most {MAX_TAU_DEGREE}")
        if len(m) != len(t):
            raise ValueError("--m and --t must have the same number of entries")
        return FamilyKey(m, t)
    except ValueError as exc:
        raise UsageError(f"invalid family key: {exc}") from exc
    except ZeroDivisionError:
        raise UsageError("invalid family key: --t has a zero denominator") from None


def _parse_indices(spec_str: str) -> list[int]:
    """Index list grammar: 'a..b' (inclusive), comma list, or single index."""
    spec_str = spec_str.strip()
    try:
        if ".." in spec_str:
            lo_s, hi_s = spec_str.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if lo < 0 or hi < lo or hi > MAX_GEN_INDEX:
                raise ValueError
            return list(range(lo, hi + 1))
        items = [int(s) for s in spec_str.split(",") if s.strip() != ""]
        if not items or any(v < 0 or v > MAX_GEN_INDEX for v in items):
            raise ValueError
        return items
    except ValueError:
        raise UsageError(
            f"invalid index range: {spec_str!r} (indices 0..{MAX_GEN_INDEX})"
        ) from None


@contextlib.contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    """The --out file, opened for writing, or standard output.

    While it is open, CPython's limit on the digits of an integer converted
    to or from text (4,300 by default) is lifted: an exact coefficient of
    the output may have many more digits than any parameter, and the
    parameters were parsed under the limit before.
    """
    # the limit, and these functions, came with CPython 3.10.7
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if out is None:
            yield sys.stdout
        else:
            try:
                fh = open(out, "w")
            except OSError as exc:  # exit 2: a bad path is not a failed check
                raise UsageError(f"cannot write --out {out}: {exc.strerror}") from None
            with fh:
                yield fh
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _write_json(obj, fh: TextIO) -> None:
    """Write ``json.dumps(obj, indent=2)`` and a newline to ``fh``, chunk by
    chunk.  A generator may stand where a list goes: each item is rendered
    and written as it is produced."""
    _dump(fh.write, obj, "\n")
    fh.write("\n")


def _dump(write, obj, nl: str) -> None:
    # nl: a newline and the indent of the line obj starts on; obj holds
    # dicts with str keys, lists, tuples, generators, str, int, bool and None
    if isinstance(obj, str):
        write(_encode_str(obj))
    elif obj is None or isinstance(obj, bool):
        write("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        write(int.__repr__(obj))
    elif isinstance(obj, dict):
        inner, sep = nl + "  ", "{"
        for name, value in obj.items():
            write(f"{sep}{inner}{_encode_str(name)}: ")
            _dump(write, value, inner)
            sep = ","
        write(nl + "}" if obj else "{}")
    elif isinstance(obj, list) and obj and all(isinstance(v, str) for v in obj):
        inner = nl + "  "
        write(f"[{inner}{(',' + inner).join(map(_encode_str, obj))}{nl}]")
    else:  # a list, a tuple or a generator
        inner, sep = nl + "  ", "["
        for value in obj:
            write(sep + inner)
            _dump(write, value, inner)
            sep = ","
        write("[]" if sep == "[" else nl + "]")


def _csv_row(fields: list[str]) -> str:
    # the line csv.writer writes: no label, integer, "p/q" or decimal ever
    # holds a comma, a quote or a line break, so no field is quoted
    return ",".join(fields) + "\r\n"


def _decimal_str(value: Fraction, precision: int) -> str:
    ctx = decimal.Context(prec=precision)
    return str(
        ctx.divide(decimal.Decimal(value.numerator), decimal.Decimal(value.denominator))
    )


def cmd_gen(m_str: str, t_str: str, i_spec: str, fmt: str, out: str | None) -> int:
    """Generate tau, family polynomials, degrees, norms for one key."""
    original = _parse_key(m_str, t_str)
    key = canonicalize(original)
    indices = _parse_indices(i_spec)
    tau_val = tau(key)
    admissible = admissibility_formula(key)

    with _output(out) as fh:  # every number is rendered inside it
        if fmt == "json":
            payload = {
                "m": list(key.m),
                "t": [rat_str(v) for v in key.t],
                "admissible": admissible,
                "tau": tau_val.to_json(),
                "polys": (  # built, written and dropped one at a time
                    {"i": i, "degree": int(p.degree), "coeffs": p.to_json()}
                    for i in indices
                    for p in [exceptional_poly(key, i)]
                ),
                "norms": [rat_str(_norm(key, i)) for i in indices] if admissible else None,
            }
            if original != key:
                payload["original"] = original.to_json_obj()
            _write_json(payload, fh)
        else:
            # one row at a time: at a high index the text outweighs the polynomials
            fh.write(_csv_row(["label", "degree", "coeffs..."]))
            fh.write(_csv_row(["tau", str(tau_val.degree), *tau_val.to_json()]))
            for i in indices:
                p = exceptional_poly(key, i)
                fh.write(_csv_row([f"P[{i}]", str(p.degree), *p.to_json()]))
    return EXIT_OK


def _suite_eigen(key: FamilyKey, max_i: int) -> dict:
    entries = [{"i": i, "pass": verify_eigen(key, i)} for i in range(max_i + 1)]
    return {
        "kind": "eigen",
        "key": key.to_json_obj(),
        "pass": all(e["pass"] for e in entries),
        "entries": entries,
    }


def _suite_ortho(key: FamilyKey, max_i: int) -> dict:
    report = orthogonality_check(key, max_i).to_json_obj()
    report["admissibility"] = admissibility_record(key).to_json_obj()
    report["pass"] = report["pass"] and report["admissibility"]["pass"]
    return report


def _suite_factor(key: FamilyKey, max_i: int) -> dict:
    reports = []
    for pos in range(key.n):
        level = key.m[pos]
        fact = verify_factorization(key, level)
        inter = [
            {"i": i, "pass": verify_intertwining(key, level, i)}
            for i in range(min(max_i, 6) + 1)
            if i != level
        ]
        reports.append(
            {
                "step_level": level,
                "factorization": fact.to_json_obj(),
                "intertwining": inter,
                "pass": fact.passed and all(e["pass"] for e in inter),
            }
        )
    return {
        "kind": "factorization",
        "key": key.to_json_obj(),
        "pass": all(r["pass"] for r in reports),
        "steps": reports,
    }


def _suite_recur(key: FamilyKey, max_i: int) -> dict:
    rec = recursive_family(key, max_i)
    fam = family(key)
    entries = [{"object": "tau", "pass": rec.tau == fam.tau}]
    for i in range(max_i + 1):
        entries.append({"object": f"P[{i}]", "pass": rec.xpolys[i] == fam.polynomial(i)})
    boundary = all(
        rec.overlaps[(i1, i2)].evaluate(-1) == 0
        for i1 in range(min(max_i, 4) + 1)
        for i2 in range(i1, min(max_i, 4) + 1)
    )
    entries.append({"object": "overlap boundary at -1", "pass": boundary})
    return {
        "kind": "recursion",
        "key": key.to_json_obj(),
        "pass": all(e["pass"] for e in entries),
        "entries": entries,
    }


def _suite_degree(key: FamilyKey, max_i: int) -> dict:
    entries = []
    for i in range(max_i + 1):
        actual = int(exceptional_poly(key, i).degree)
        predicted = expected_degree(key, i)
        entries.append(
            {"i": i, "predicted": predicted, "actual": actual, "pass": predicted == actual}
        )
    missing = missing_degrees(key)
    codim_ok = len(missing) == (int(tau(key).degree) if key.n else 0)
    return {
        "kind": "degree",
        "key": key.to_json_obj(),
        "missing_degrees": missing,
        "codimension_matches_tau_degree": codim_ok,
        "pass": codim_ok and all(e["pass"] for e in entries),
        "entries": entries,
    }


_SUITE_RUNNERS = {
    "eigen": _suite_eigen,
    "ortho": _suite_ortho,
    "factor": _suite_factor,
    "recur": _suite_recur,
    "degree": _suite_degree,
}


def cmd_verify(m_str: str, t_str: str, max_i: int, suites: str, out: str | None) -> int:
    """Run verification suites; exit 0 only if every selected check passes."""
    original = _parse_key(m_str, t_str)
    key = canonicalize(original)
    if suites.strip() == "all":
        selected = list(ALL_SUITES)
    else:
        selected = [s.strip() for s in suites.split(",") if s.strip()]
        unknown = [s for s in selected if s not in _SUITE_RUNNERS]
        if unknown or not selected:
            raise UsageError(f"unknown suites: {', '.join(unknown) or '(none)'}")

    report: dict = {"key": key.to_json_obj(), "max_i": max_i, "suites": {}}
    if original != key:
        report["original"] = original.to_json_obj()
        report["note"] = "duplicate or zero-parameter levels were merged"

    # opened before any suite runs, so a bad --out is refused at once, and
    # every number of the report is rendered inside it
    with _output(out) as fh:
        if "ortho" in selected and not admissibility_formula(key):
            report["suites"]["ortho"] = {
                "kind": "orthogonality",
                "key": key.to_json_obj(),
                "pass": False,
                "error": "inadmissible parameters: weight has poles on [-1, 1]",
            }
            _write_json(report, fh)
            return EXIT_INADMISSIBLE

        ok = True
        for name in selected:
            suite_report = _SUITE_RUNNERS[name](key, max_i)
            report["suites"][name] = suite_report
            ok = ok and suite_report["pass"]
        report["pass"] = ok
        _write_json(report, fh)
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def cmd_weight(m_str: str, t_str: str, samples: int, out: str | None, precision: int) -> int:
    """Sample the weight 1/tau^2 on a uniform rational grid over [-1, 1]."""
    key = canonicalize(_parse_key(m_str, t_str))
    if not admissibility_formula(key):
        print("inadmissible parameters: weight has poles on [-1, 1]", file=sys.stderr)
        return EXIT_INADMISSIBLE
    tau_val = tau(key)
    step = Fraction(2, samples - 1)
    with _output(out) as fh:
        fh.write(_csv_row(["z", "W"]))
        for k in range(samples):
            z = -1 + step * k
            w = 1 / tau_val.evaluate(z) ** 2
            fh.write(_csv_row([_decimal_str(v, precision) for v in (z, w)]))
    return EXIT_OK


def cmd_degrees(m_str: str, t_str: str, max_i: int, out: str | None) -> int:
    """Tabulate predicted vs. actual degrees and the missing-degree set."""
    key = canonicalize(_parse_key(m_str, t_str))
    report = _suite_degree(key, max_i)
    lines = [f"family {key}", f"{'i':>4}  {'predicted':>9}  {'actual':>7}"]
    for e in report["entries"]:
        lines.append(f"{e['i']:>4}  {e['predicted']:>9}  {e['actual']:>7}")
    missing = report["missing_degrees"]
    lines.append(f"missing degrees ({len(missing)}): {missing}")
    lines.append(
        f"deg tau = {int(tau(key).degree)}; "
        f"codimension match: {report['codimension_matches_tau_degree']}"
    )
    with _output(out) as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK if report["pass"] else EXIT_VERIFICATION_FAILED


class _Parser(argparse.ArgumentParser):
    """A parser with --help (no -h) that refuses abbreviated option names;
    its subcommand parsers are of the same class."""

    def __init__(self, **kwargs) -> None:
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="xlegendre",
                     description="Exact constructor and verifier for exceptional "
                                 "Legendre families.")
    commands = parser.add_subparsers(title="commands", dest="command", required=True)

    def command(run, out_help: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(run.__name__.removeprefix("cmd_"), help=run.__doc__,
                                  description=run.__doc__)
        sub.add_argument("--m", dest="m_str", default="", metavar="LEVELS", help=_M_HELP)
        sub.add_argument("--t", dest="t_str", default="", metavar="PARAMS",
                         help="Comma-separated rational parameters.")
        sub.add_argument("--out", metavar="PATH", help=out_help)
        sub.set_defaults(run=run, parser=sub)
        return sub

    max_i_help = ("Largest polynomial index checked, "
                  f"0..{MAX_CHECK_INDEX} (default: %(default)s).")

    gen = command(cmd_gen, "Output path (default stdout).")
    gen.add_argument("--i", dest="i_spec", default="0..5", metavar="INDICES",
                     help=f"Indices: 'a..b', list, or single; each at most {MAX_GEN_INDEX}.")
    gen.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")

    verify = command(cmd_verify, "Report path (default stdout).")
    verify.add_argument("--max-i", type=_int_range(0, MAX_CHECK_INDEX), default=8,
                        metavar="N", help=max_i_help)
    verify.add_argument("--suites", default="all", metavar="LIST",
                        help=f"Comma list from {{{','.join(ALL_SUITES)}}} or 'all' "
                             "(default: %(default)s).")

    weight = command(cmd_weight, "CSV path (default stdout).")
    weight.add_argument("--samples", type=_int_range(2, MAX_SAMPLES), default=1001,
                        metavar="N", help="Grid points on [-1, 1], both ends included, "
                                          f"2..{MAX_SAMPLES} (default: %(default)s).")
    weight.add_argument("--precision", type=_int_range(1, MAX_PRECISION), default=17,
                        metavar="N", help="Significant digits for rendered values, "
                                          f"1..{MAX_PRECISION} (default: %(default)s).")

    degrees = command(cmd_degrees, "Output path (default stdout).")
    degrees.add_argument("--max-i", type=_int_range(0, MAX_CHECK_INDEX), default=12,
                         metavar="N", help=max_i_help)
    return parser


def _attach_values(argv: Sequence[str]) -> list[str]:
    """argv with each long option and the token after it joined as
    ``--opt=value``.  Every option but --help takes one value, the next token,
    even one that begins with '-' (``--t -1/2``, ``--t -3,1``), which argparse
    on its own reads as an option."""
    joined, args = [], iter(argv)
    for arg in args:
        if arg.startswith("--") and "=" not in arg and arg not in ("--", "--help"):
            value = next(args, None)
            if value is not None:
                arg = f"{arg}={value}"
        joined.append(arg)
    return joined


def main(argv: Sequence[str] | None = None) -> NoReturn:
    """Run ``xlegendre <argv>`` (default ``sys.argv[1:]``) and exit with its code."""
    options = vars(_parser().parse_args(_attach_values(sys.argv[1:] if argv is None else argv)))
    del options["command"]
    run, parser = options.pop("run"), options.pop("parser")
    try:
        code = run(**options)
    except UsageError as exc:
        parser.error(str(exc))
    except BrokenPipeError:
        # the reader closed stdout (`| head`): exit 1 without a traceback, and
        # point stdout at devnull so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


main.main = main  # the in-process entry point, as embedding callers spell it

if __name__ == "__main__":
    main()
