"""Benchmark of xlegendre: one workload per invocation, one caller, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of gen.WORKLOADS, or ``all`` to run every workload in turn.  Run
from the root of a source checkout; the package is imported from its
``src/`` directory (no install step).  The seed fixes the workload's input
(see gen.py); the package receives only the generated keys and command
lines.  Work runs sequentially in fresh interpreters started by this process
(see worker.py): a lattice workload runs its whole key list per round in one
interpreter, a CLI workload starts one interpreter per invocation.  Rounds of
the same input repeat until ``--seconds`` are used, and at least twice (once
with ``--trace 1``); every metric is a median over them.

Times are reported two ways.  Raw seconds (``wall_s``, ``key_p50_s``,
``key_tail_s``) are what a user waits.  On a shared 2-vCPU host they were
seen to swing by a factor of two within seconds, so the bounded metrics divide each
key's time by the time of a fixed calibration slice (worker.calibrate)
measured in the same process right around that key (``wall_cal``, the sum over keys, and
``key_p50_cal``, ``key_tail_cal``).  Each interpreter the run starts is a
set-up sample, calibrated the same way and scaled back to seconds
(``setup_s``).

Every run also checks the three golden ``verify --suites all`` reports
against digests taken from the seed code (golden.json); the reports are
computed once per source digest and cached under .bench_out/.  A failed check (a
false identity, a mismatch with the norm formula, an exception, a nonzero
exit, a golden mismatch) counts in ``failed``; ``failed / attempted`` is the
failure fraction, ``fail_frac``.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of traced rounds, alternated
with untraced rounds that give the tracer's overhead.  The last line of
standard output is the result as one JSON object.  A record with the
environment, the input and every round is written to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import gen  # noqa: E402  (benchmark-local modules next to this script)
from worker import calibrate  # noqa: E402

# A calibration slice's time on an idle reference host (2-vCPU Intel Xeon,
# Python 3.11.7; the 5th percentile of 5000 slices); setup_s is rescaled to
# it, so it stays in seconds.
CALIB_REF_S = 0.0026
MIN_CYCLES = 2  # every key's latency is a median of at least two rounds ...
MIN_CYCLES_TRACED = 1  # ... except in trace mode, which reports no latency
CALIB_ENV_SLICES = 20
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10  # key tail: the highest percentile with this many keys beyond it

END_TO_END = {
    "wall_cal": "calib",
    "key_p50_cal": "calib",
    "key_tail_cal": "calib",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
RAW = {"wall_s": "s", "key_p50_s": "s", "key_tail_s": "s", "calib_s": "s",
       "setup_raw_s": "s"}

# per-layer metric -> span names whose self times it sums, as a share of the
# traced round's wall time (the seconds themselves are printed on raw lines)
_SELF = {
    "polyring.mul.self_frac": ("polyring.mul",),
    "polyring.div.self_frac": ("polyring.div",),
    "polyring.gcd.self_frac": ("polyring.gcd",),
    "ratfun.self_frac": ("ratfun.of", "ratfun.arith"),
    "xfamily.det.self_frac": ("xfamily.det",),
    "xfamily.adjugate.self_frac": ("xfamily.adjugate",),
    "xfamily.polynomial.self_frac": ("xfamily.polynomial",),
    "xfamily.recursive.self_frac": ("xfamily.recursive",),
    "xfamily.overlap.self_frac": ("xfamily.overlap",),
    "legendre.self_frac": ("legendre.poly", "legendre.overlap"),
    "operators.eigen.self_frac": ("operators.eigen",),
    "operators.factor.self_frac": ("operators.factor",),
    "operators.intertwining.self_frac": ("operators.intertwining",),
    "admissibility.record.self_frac": ("admissibility.record",),
    "admissibility.ortho.self_frac": ("admissibility.ortho",),
    "cli.render.self_frac": ("cli.render",),
    "cli.invoke.self_frac": ("cli.invoke",),
}
# per-layer metric -> span name whose calls it counts
_CALLS = {
    "polyring.mul.calls": "polyring.mul",
    "polyring.div.calls": "polyring.div",
    "polyring.gcd.calls": "polyring.gcd",
    "ratfun.of.calls": "ratfun.of",
    "xfamily.family.calls": "xfamily.family",
    "xfamily.det.calls": "xfamily.det",
    "xfamily.overlap.calls": "xfamily.overlap",
    "legendre.overlap.calls": "legendre.overlap",
    "operators.factor.calls": "operators.factor",
}
# per-layer ratio -> (boundary count, span whose calls are the base)
_FRACS = {
    "polyring.mul.large_frac": ("mul.large", "polyring.mul"),
    "polyring.div.inexact_frac": ("div.inexact", "polyring.div"),
    "polyring.gcd.nontrivial_frac": ("gcd.nontrivial", "polyring.gcd"),
    "xfamily.family.miss_frac": ("family.miss", "xfamily.family"),
    "legendre.overlap.miss_frac": ("overlap.miss", "legendre.overlap"),
}
PER_LAYER = {
    **{name: "count" for name in _CALLS},
    "polyring.mul.coeff_products": "count",
    **{name: "ratio" for name in _FRACS},
    **{name: "ratio" for name in _SELF},
    "cli.import_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed check of the program)."""


# -- helpers -----------------------------------------------------------------


def run_worker(mode: str, args: dict) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, json.dumps(args)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "xlegendre").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def key_quantiles(per_key: list[float]) -> tuple[float, float]:
    """Median, and the value with TAIL_BEYOND keys beyond it."""
    ordered = sorted(per_key)
    if len(ordered) <= 2 * TAIL_BEYOND:
        raise BenchError(f"{len(ordered)} keys give no tail above the median")
    return statistics.median(ordered), ordered[-TAIL_BEYOND - 1]


def tail_percentile(keys: int) -> float:
    return 100.0 * (keys - TAIL_BEYOND) / keys


def local_calib(gaps: list[float], pos: int) -> float:
    """Calibration around the key run at position ``pos`` of a round.

    ``gaps[p]`` is the calibration taken right before the key at position p
    (the last entry comes after the last key).  The key is bracketed by
    gaps[pos] and gaps[pos + 1]; one more gap on each side smooths it, and
    the median keeps one slow slice from moving it.
    """
    return statistics.median(gaps[max(0, pos - 1):pos + 3])


def merge_summaries(summaries: list[dict]) -> dict:
    spans: dict[str, dict] = {}
    counts: dict[str, int] = {}
    for s in summaries:
        for name, rec in s["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += rec["calls"]
            acc["self_s"] += rec["self_s"]
        for name, value in s["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return {"spans": spans, "counts": counts}


def layer_counts(summary: dict) -> dict:
    """The per-layer metrics that are exact counts or ratios of counts."""
    spans, counts = summary["spans"], summary["counts"]

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    out = {metric: calls(span) for metric, span in _CALLS.items()}
    out["polyring.mul.coeff_products"] = counts.get("mul.coeff_products", 0)
    for metric, (count, span) in _FRACS.items():
        base = calls(span)
        out[metric] = counts.get(count, 0) / base if base else 0.0
    return out


def layer_self_times(summary: dict) -> dict:
    """Self seconds per _SELF metric."""
    spans = summary["spans"]
    return {metric: sum(spans.get(n, {}).get("self_s", 0.0) for n in names)
            for metric, names in _SELF.items()}


# -- one run -----------------------------------------------------------------


class Run:
    """One workload and seed: its rounds, set-up samples, and what they measured."""

    def __init__(self, workload: str, seed: int, trace: bool, limit: int | None) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.limit = limit
        self.items = gen.workload_input(workload, seed)[:limit]
        self.setups: list[dict] = []
        self.rounds: list[dict] = []
        self.spans_dir = OUT / f"{workload}-seed{seed}-spans"

    def spawn(self, mode: str, args: dict) -> tuple[dict, float]:
        """Run one worker; return its result and its spawn time.

        Every worker is one set-up sample: from its spawn to its ``ready``
        (interpreter start, ``import xlegendre.cli``, and in a lattice round
        the input's generation), calibrated by the slices the worker times
        right after it.
        """
        start = time.monotonic()
        res = run_worker(mode, args)
        self.setups.append({"setup_s": res["ready"] - start, "calib_s": res["ready_calib"],
                            "import_s": res["import_s"]})
        return res, start

    def lattice_round(self, traced: bool, spans_dir: Path | None) -> dict:
        """One worker runs every key; a calibration slice precedes each key."""
        res, _ = self.spawn("lattice", {
            "workload": self.workload, "seed": self.seed, "limit": self.limit, "trace": traced,
            "spans": str(spans_dir / "spans.tsv") if spans_dir else None})
        res["local_calib"] = [local_calib(res["calib"], i) for i in range(len(res["key_s"]))]
        return res

    def cli_round(self, traced: bool, spans_dir: Path | None) -> dict:
        """Invocations one after another, one worker each.

        A key's latency runs from the spawn to ``main`` returning, less the
        worker's calibration slices and tracer set-up; its calibration is
        the worker's own slices.  Every other round runs the keys in reverse
        order, so that a key's samples fall at different times of the run.
        """
        n = len(self.items)
        out = {"key_s": [0.0] * n, "local_calib": [0.0] * n, "rss_mb": 0.0,
               "attempted": 0, "failed": 0, "failures": []}
        summaries = []
        order = list(range(n))
        if sum(r["traced"] == traced for r in self.rounds) % 2:
            order.reverse()
        for idx in order:
            spans = str(spans_dir / f"spans-{idx:03d}.tsv") if spans_dir else None
            res, spawned = self.spawn(
                "cli", {"item": self.items[idx], "trace": traced, "spans": spans})
            out["key_s"][idx] = res["ready"] - spawned + res["done"] - res["start"]
            out["local_calib"][idx] = res["calib"]
            out["rss_mb"] = max(out["rss_mb"], res["rss_mb"])
            out["attempted"] += res["attempted"]
            out["failed"] += res["failed"]
            out["failures"] += res["failures"]
            if traced:
                summaries.append(res["trace"])
        out["calib"] = out["local_calib"]
        if traced:
            out["trace"] = merge_summaries(summaries)
        return out

    def measure(self, seconds: float) -> None:
        """Rounds of the fixed input until ``seconds`` are used (at least MIN_CYCLES).

        In trace mode each cycle is one untraced and one traced round, and
        one cycle may do.  Spans of the first traced round are written under
        .bench_out/.
        """
        modes = (False, True) if self.trace else (False,)
        min_cycles = MIN_CYCLES_TRACED if self.trace else MIN_CYCLES
        run_round = self.lattice_round if self.workload.startswith("lattice") else self.cli_round
        start = time.monotonic()
        cycles = 0
        while True:
            for traced in modes:
                first_traced = traced and not any(r["traced"] for r in self.rounds)
                if first_traced:
                    self.spans_dir.mkdir(parents=True, exist_ok=True)
                res = run_round(traced, self.spans_dir if first_traced else None)
                res["traced"] = traced
                res["wall_s"] = sum(res["key_s"])
                res["calib_s"] = statistics.fmean(res["calib"])
                res["key_cal"] = [k / c for k, c in zip(res["key_s"], res["local_calib"])]
                self.rounds.append(res)
                print(f"round {len(self.rounds)} traced={int(traced)} "
                      f"wall_s={res['wall_s']:.4f} calib_s={res['calib_s']:.6f} "
                      f"checks={res['attempted']} failed={res['failed']}", flush=True)
            cycles += 1
            now = time.monotonic()
            if cycles >= min_cycles and now + (now - start) / cycles > start + seconds:
                return

    def end_to_end(self) -> tuple[dict, dict]:
        """Bounded metrics, and the raw seconds behind them."""
        plain = [r for r in self.rounds if not r["traced"]]
        keys = range(len(self.items))
        per_key_s = [statistics.median(r["key_s"][i] for r in plain) for i in keys]
        per_key_cal = [statistics.median(r["key_cal"][i] for r in plain) for i in keys]
        p50_s, tail_s = key_quantiles(per_key_s)
        p50_cal, tail_cal = key_quantiles(per_key_cal)
        metrics = {
            "wall_cal": statistics.median(sum(r["key_cal"]) for r in plain),
            "key_p50_cal": p50_cal,
            "key_tail_cal": tail_cal,
            "setup_s": CALIB_REF_S * statistics.median(
                s["setup_s"] / s["calib_s"] for s in self.setups),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        }
        raw = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "key_p50_s": p50_s,
            "key_tail_s": tail_s,
            "calib_s": statistics.median(r["calib_s"] for r in plain),
            "setup_raw_s": statistics.median(s["setup_s"] for s in self.setups),
        }
        return metrics, raw

    def per_layer(self) -> tuple[dict, dict, list[str]]:
        """Per-layer metrics, self seconds, and problems.

        Counts must repeat exactly between traced rounds.  A self time is
        reported as its share of the traced round's wall time: the host's
        speed cancels, and a layer the workload never calls reads 0 as a
        count does, not as a time.
        """
        plain = [r for r in self.rounds if not r["traced"]]
        traced = [r for r in self.rounds if r["traced"]]
        counts = [layer_counts(r["trace"]) for r in traced]
        problems = []
        if any(c != counts[0] for c in counts):
            problems.append("per-layer counts differ between traced rounds")
        selfs = [layer_self_times(r["trace"]) for r in traced]
        metrics = dict(counts[0])
        metrics.update({k: statistics.median(s[k] / r["wall_s"] for s, r in zip(selfs, traced))
                        for k in _SELF})
        metrics["cli.import_s"] = statistics.median(s["import_s"] for s in self.setups)
        metrics["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in plain) - 1.0)
        self_s = {k.replace("self_frac", "self_s"): statistics.median(s[k] for s in selfs)
                  for k in _SELF}
        return metrics, self_s, problems


def check_golden(env: dict) -> tuple[dict, list[str]]:
    """Digests of the three golden reports against golden.json.

    The reports are computed once per source, interpreter and click version
    and kept under .bench_out/: the program is deterministic, so a later run
    on the same source would recompute the same bytes.  Any change under
    src/xlegendre changes the cache key and recomputes them.
    """
    expected = json.loads((HERE / "golden.json").read_text())
    ident = json.dumps([env["src_sha256"], sys.version, env["platform"],
                        importlib.metadata.version("click")])
    cache = OUT / f"golden-{hashlib.sha256(ident.encode()).hexdigest()[:16]}.json"
    if cache.is_file():
        golden = json.loads(cache.read_text())
        how = "cached for this source"
    else:
        golden = run_worker("golden", {})
        OUT.mkdir(exist_ok=True)
        cache.write_text(json.dumps(golden))
        how = "computed"
    failures = []
    for key, digest in expected.items():
        got, code = golden["digests"].get(key), golden["exit_codes"].get(key)
        ok = got == digest and code == 0
        print(f"golden {key} {'ok' if ok else 'MISMATCH'} ({how})")
        if not ok:
            failures.append(f"golden {key}: digest {got}, exit {code}")
    return golden, failures


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            limit: int | None = None) -> dict:
    """Run one workload and print its block; return the result object.

    ``limit`` keeps only the first keys of the input, for the smoke test
    (smoke.py).
    """
    env = environment(seed)
    run = Run(workload, seed, trace, limit)
    print(f"workload {workload} seed {seed} seconds {seconds:g} trace {int(trace)}")
    print("env " + json.dumps(env))
    print(f"input {len(run.items)} keys: " + "; ".join(
        gen.key_str(it["key"]) + (f" N={it['top']}" if "top" in it else "")
        for it in run.items))

    golden, failures = check_golden(env)
    attempted, failed = len(golden["digests"]), len(failures)
    calib_before = [calibrate() for _ in range(CALIB_ENV_SLICES)]
    run.measure(seconds)
    calib_after = [calibrate() for _ in range(CALIB_ENV_SLICES)]
    env.update(calib_before_s=statistics.median(calib_before),
               calib_after_s=statistics.median(calib_after))
    print(f"host calib_s before {env['calib_before_s']:.6f} after {env['calib_after_s']:.6f}")

    for r in run.rounds:
        attempted += r["attempted"]
        failed += r["failed"]
        failures += r["failures"]
    keys = len(run.items)
    print(f"keys {keys}; key tail is p{tail_percentile(keys):.1f}; "
          f"{len(run.setups)} set-up samples")
    metrics, raw = run.end_to_end()
    for name, unit in RAW.items():
        print(f"raw {name} = {raw[name]:.6g} {unit}")
    if trace:
        metrics, self_s, problems = run.per_layer()
        raw.update(self_s)
        for name, value in self_s.items():
            print(f"raw {name} = {value:.6g} s")
        attempted += len(problems)
        failed += len(problems)
        failures += problems
    units = PER_LAYER if trace else END_TO_END
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]:.6g} {unit}")
    print(f"fail_frac = {failed / attempted:.6g} ({failed} of {attempted} checks)")
    for line in failures[:10]:
        print(f"FAILED {line}")

    OUT.mkdir(exist_ok=True)
    record = {"env": env, "workload": workload, "seconds": seconds, "trace": trace,
              "input": run.items, "setups": run.setups, "rounds": run.rounds,
              "golden": golden, "metrics": metrics, "raw": raw,
              "key_tail_percentile": tail_percentile(keys), "key_samples": keys,
              "attempted": attempted, "failed": failed, "failures": failures}
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*gen.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "xlegendre" / "__init__.py").is_file():
        print(f"error: no xlegendre source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_one(w, args.seed, args.seconds, bool(args.trace)) for w in workloads}
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
