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
"""

from __future__ import annotations

import contextlib
import decimal
import json
import sys
from fractions import Fraction
from typing import Iterator, TextIO

import click

from .admissibility import (
    InadmissibleKeyError,
    admissibility_formula,
    admissibility_record,
    norm_of,
    orthogonality_check,
)
from .legendre import legendre_poly
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


def _parse_key(m_str: str, t_str: str) -> FamilyKey:
    m_items = [s for s in (m_str or "").split(",") if s.strip() != ""]
    t_items = [s for s in (t_str or "").split(",") if s.strip() != ""]
    if len(m_items) > MAX_LEVELS:
        raise click.UsageError(f"invalid family key: at most {MAX_LEVELS} levels")
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
        raise click.UsageError(f"invalid family key: {exc}") from exc


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
        raise click.UsageError(
            f"invalid index range: {spec_str!r} (indices 0..{MAX_GEN_INDEX})"
        ) from None


@contextlib.contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    """The --out file, opened for writing, or standard output."""
    if out is None:
        yield sys.stdout
    else:
        with open(out, "w") as fh:
            yield fh


def _write_output(text: str, out: str | None) -> None:
    with _output(out) as fh:
        fh.write(text)


def _decimal_str(value: Fraction, precision: int) -> str:
    ctx = decimal.Context(prec=precision)
    return str(
        ctx.divide(decimal.Decimal(value.numerator), decimal.Decimal(value.denominator))
    )


@click.group()
def main() -> None:
    """Exact constructor and verifier for exceptional Legendre families."""


@main.command("gen")
@click.option("--m", "m_str", default="", help=_M_HELP)
@click.option("--t", "t_str", default="", help="Comma-separated rational parameters.")
@click.option(
    "--i",
    "i_spec",
    default="0..5",
    help=f"Indices: 'a..b', list, or single; each at most {MAX_GEN_INDEX}.",
)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--out", default=None, help="Output path (default stdout).")
def cmd_gen(m_str: str, t_str: str, i_spec: str, fmt: str, out: str | None) -> None:
    """Generate tau, family polynomials, degrees, norms for one key."""
    original = _parse_key(m_str, t_str)
    key = canonicalize(original)
    indices = _parse_indices(i_spec)
    tau_val = tau(key)
    admissible = admissibility_formula(key)

    if fmt == "json":
        polys = [(i, exceptional_poly(key, i)) for i in indices]
        payload = {
            "m": list(key.m),
            "t": [rat_str(v) for v in key.t],
            "admissible": admissible,
            "tau": tau_val.to_json(),
            "polys": [
                {"i": i, "degree": int(p.degree), "coeffs": p.to_json()}
                for i, p in polys
            ],
            "norms": [rat_str(norm_of(key, i)) for i in indices] if admissible else None,
        }
        if original != key:
            payload["original"] = original.to_json_obj()
        _write_output(json.dumps(payload, indent=2) + "\n", out)
    else:
        import csv  # here, not at the top: every CLI start would pay for it

        # one row at a time: at a high index the text outweighs the polynomials
        with _output(out) as fh:
            writer = csv.writer(fh)
            writer.writerow(["label", "degree", "coeffs..."])
            writer.writerow(["tau", int(tau_val.degree), *tau_val.to_json()])
            for i in indices:
                p = exceptional_poly(key, i)
                writer.writerow([f"P[{i}]", int(p.degree), *p.to_json()])


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


@main.command("verify")
@click.option("--m", "m_str", default="", help=_M_HELP)
@click.option("--t", "t_str", default="", help="Comma-separated rational parameters.")
@click.option(
    "--max-i",
    "max_i",
    default=8,
    show_default=True,
    type=click.IntRange(0, MAX_CHECK_INDEX),
    help="Largest polynomial index checked.",
)
@click.option(
    "--suites",
    default="all",
    show_default=True,
    help=f"Comma list from {{{','.join(ALL_SUITES)}}} or 'all'.",
)
@click.option("--out", default=None, help="Report path (default stdout).")
def cmd_verify(m_str: str, t_str: str, max_i: int, suites: str, out: str | None) -> None:
    """Run verification suites; exit 0 only if every selected check passes."""
    original = _parse_key(m_str, t_str)
    key = canonicalize(original)
    if suites.strip() == "all":
        selected = list(ALL_SUITES)
    else:
        selected = [s.strip() for s in suites.split(",") if s.strip()]
        unknown = [s for s in selected if s not in _SUITE_RUNNERS]
        if unknown or not selected:
            raise click.UsageError(f"unknown suites: {', '.join(unknown) or '(none)'}")

    report: dict = {"key": key.to_json_obj(), "max_i": max_i, "suites": {}}
    if original != key:
        report["original"] = original.to_json_obj()
        report["note"] = "duplicate or zero-parameter levels were merged"

    if "ortho" in selected and not admissibility_formula(key):
        report["suites"]["ortho"] = {
            "kind": "orthogonality",
            "key": key.to_json_obj(),
            "pass": False,
            "error": "inadmissible parameters: weight has poles on [-1, 1]",
        }
        _write_output(json.dumps(report, indent=2) + "\n", out)
        sys.exit(EXIT_INADMISSIBLE)

    ok = True
    for name in selected:
        suite_report = _SUITE_RUNNERS[name](key, max_i)
        report["suites"][name] = suite_report
        ok = ok and suite_report["pass"]
    report["pass"] = ok
    _write_output(json.dumps(report, indent=2) + "\n", out)
    sys.exit(EXIT_OK if ok else EXIT_VERIFICATION_FAILED)


@main.command("weight")
@click.option("--m", "m_str", default="", help=_M_HELP)
@click.option("--t", "t_str", default="", help="Comma-separated rational parameters.")
@click.option(
    "--samples",
    default=1001,
    show_default=True,
    type=click.IntRange(2, MAX_SAMPLES),
    help="Grid points on [-1, 1], both ends included.",
)
@click.option("--out", default=None, help="CSV path (default stdout).")
@click.option("--precision", default=17, show_default=True,
              type=click.IntRange(1, MAX_PRECISION),
              help="Significant digits for rendered values.")
def cmd_weight(m_str: str, t_str: str, samples: int, out: str | None, precision: int) -> None:
    """Sample the weight 1/tau^2 on a uniform rational grid over [-1, 1]."""
    key = canonicalize(_parse_key(m_str, t_str))
    if not admissibility_formula(key):
        click.echo("inadmissible parameters: weight has poles on [-1, 1]", err=True)
        sys.exit(EXIT_INADMISSIBLE)
    import csv

    tau_val = tau(key)
    step = Fraction(2, samples - 1)
    with _output(out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["z", "W"])
        for k in range(samples):
            z = -1 + step * k
            w = 1 / tau_val.evaluate(z) ** 2
            writer.writerow([_decimal_str(v, precision) for v in (z, w)])


@main.command("degrees")
@click.option("--m", "m_str", default="", help=_M_HELP)
@click.option("--t", "t_str", default="", help="Comma-separated rational parameters.")
@click.option(
    "--max-i",
    "max_i",
    default=12,
    show_default=True,
    type=click.IntRange(0, MAX_CHECK_INDEX),
    help="Largest polynomial index checked.",
)
@click.option("--out", default=None, help="Output path (default stdout).")
def cmd_degrees(m_str: str, t_str: str, max_i: int, out: str | None) -> None:
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
    _write_output("\n".join(lines) + "\n", out)
    sys.exit(EXIT_OK if report["pass"] else EXIT_VERIFICATION_FAILED)


if __name__ == "__main__":
    main()
