"""Smoke test of the benchmark itself, on a small prefix of every workload.

    python3 perfbench/smoke.py [--seed N]

Checks that
* every metric named in BENCHMARK.json is emitted, with its unit, by a
  plain run (end-to-end) and a traced run (per-layer);
* every run's checks pass, golden digests included;
* two traced runs of one seed give identical counts (``*.calls``,
  ``polyring.mul.coeff_products``, ``*_frac``);
* ``polyring.gcd.calls == 0`` on lattice-build;
* every wrapped layer records calls on the workloads its row of NOTES.md
  names, so a binding the tracer missed shows up as a zero.
Exit status 0 when all hold, 1 otherwise.  Takes a few minutes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import run  # noqa: E402

PREFIX_KEYS = 21  # the fewest keys that give a tail above the median

# span name -> workloads on which it must record calls
EXPECTED_CALLS = {
    "polyring.mul": ("lattice-build", "gen-high-index", "verify-cli"),
    "polyring.div": ("lattice-build", "lattice-ortho"),
    "polyring.gcd": ("lattice-ortho", "verify-cli"),
    "ratfun.of": ("lattice-ortho", "verify-cli"),
    "ratfun.arith": ("verify-cli",),
    "legendre.poly": ("gen-high-index",),
    "legendre.overlap": ("lattice-build", "gen-high-index"),
    "xfamily.family": ("lattice-build", "verify-cli", "gen-high-index"),
    "xfamily.det": ("lattice-build", "verify-cli"),
    "xfamily.adjugate": ("lattice-build", "verify-cli"),
    "xfamily.polynomial": ("lattice-build", "gen-high-index"),
    "xfamily.recursive": ("lattice-build", "lattice-ortho"),
    "xfamily.overlap": ("lattice-ortho", "verify-cli"),
    "operators.eigen": ("lattice-build", "verify-cli"),
    "operators.factor": ("verify-cli",),
    "operators.intertwining": ("verify-cli",),
    "admissibility.record": ("verify-cli",),
    "admissibility.ortho": ("verify-cli",),
    "cli.render": ("verify-cli", "gen-high-index"),
    "cli.invoke": ("verify-cli", "gen-high-index"),
}


def _quiet_run(workload: str, seed: int, trace: bool) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return run.run_one(workload, seed, seconds=0.1, trace=trace, limit=PREFIX_KEYS)


def _span_calls(workload: str, seed: int) -> dict[str, int]:
    record = json.loads((run.OUT / f"{workload}-seed{seed}-trace1.json").read_text())
    traced = next(r for r in record["rounds"] if r["traced"])
    return {name: rec["calls"] for name, rec in traced["trace"]["spans"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    expect([w["name"] for w in bench["workloads"]] == list(gen.WORKLOADS),
           "BENCHMARK.json lists the workloads of gen.py")
    calls_seen: dict[str, dict[str, int]] = {}
    for workload in gen.WORKLOADS:
        plain = _quiet_run(workload, seed, trace=False)
        got = {k: v["unit"] for k, v in plain["metrics"].items()}
        expect(got == want_e2e, f"{workload}: end-to-end metrics and units")
        expect(plain["correct"] and plain["failed"] == 0, f"{workload}: plain run correct")

        first = _quiet_run(workload, seed, trace=True)
        calls_seen[workload] = _span_calls(workload, seed)
        second = _quiet_run(workload, seed, trace=True)
        got = {k: v["unit"] for k, v in first["metrics"].items()}
        expect(got == want_layer, f"{workload}: per-layer metrics and units")
        expect(first["correct"] and second["correct"], f"{workload}: traced runs correct")
        counted = [k for k, u in want_layer.items() if u == "count" or k in run._FRACS]
        same = all(first["metrics"][k]["value"] == second["metrics"][k]["value"]
                   for k in counted)
        expect(same, f"{workload}: counts repeat exactly across two traced runs")
        if workload == "lattice-build":
            expect(first["metrics"]["polyring.gcd.calls"]["value"] == 0,
                   "lattice-build: no gcd calls")

    for span, workloads in EXPECTED_CALLS.items():
        for workload in workloads:
            n = calls_seen[workload].get(span, 0)
            expect(n > 0, f"{span} records calls on {workload} ({n})")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
