"""One fresh interpreter's share of a benchmark run.

``run.py`` starts this script once per unit of work and reads one JSON line
from its standard output:

    worker.py lattice ARGS   one round of a lattice workload, key by key
    worker.py cli     ARGS   one CLI invocation (one key) of a CLI workload
    worker.py golden  ARGS   the three golden ``verify --suites all`` reports

ARGS is a JSON object.  Every process starts with cold package caches, as a
user's process does.  Times that span the process start are taken on
``time.monotonic``, which on Linux is one system-wide clock, so the parent's
spawn time and the worker's ``ready`` and ``done`` times can be subtracted.
``ready`` is the end of set-up: ``xlegendre.cli`` imported and, in a lattice
round, the input generated and its keys built.

Calibration slices are timed in the worker, next to the work they calibrate:
on a host with two shared vCPUs the harness process and a worker may run on
vCPUs of different speed.  Slices are left out of every reported latency.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import gen  # noqa: E402  (benchmark-local module next to this script)
import spans as span_trace  # noqa: E402

GOLDEN_KEYS = ("4:26/5", "1,2,4:1,-1/4,7/2", "1,2,3,5:1,1,1,1")
READY_SLICES = 4  # calibration slices right after set-up (and after a CLI invocation)
CAL_SOURCE_CLASSES = 12  # size of the module text a slice compiles

_CAL_A = [(i * 2654435761) % (1 << 61) - (1 << 60) for i in range(24)]
_CAL_B = [(i * 40503 + 17) % (1 << 59) - (1 << 58) for i in range(24)]
_CAL_BIG = [3 ** (400 + i) for i in range(8)]
# A fixed module text, compiled once in every slice.
_CAL_SOURCE = "".join(
    f"class C{i}:\n"
    f"    def __init__(self, a, b=({i}, 'k{i}')):\n"
    f"        self.a, self.b = a, [x * {i} for x in range(a) if x % 3]\n"
    f"    def run(self, n):\n"
    f"        out = {{}}\n"
    f"        for k in range(n):\n"
    f"            out[k] = (self.a + k) * {i} if k & 1 else str(k) + repr(self.b[0:2])\n"
    f"        return sorted(out.items(), key=lambda kv: (len(str(kv[1])), kv[0]))\n"
    for i in range(CAL_SOURCE_CLASSES))


def calibrate() -> float:
    """One calibration slice: fixed work, independent of xlegendre.

    A pure-Python arithmetic loop mixes what the package's exact arithmetic
    does (a schoolbook convolution of integer lists, Fraction sums,
    big-integer products).  Compiling a fixed module text then stands for
    the allocation-heavy object work of interpreter start-up, import and
    JSON rendering, which the loop alone tracks poorly when a shared host
    slows down.  Slices are timed in the process that does the work, right
    next to it.  The collector is off during a slice, so that a slice's
    time does not grow with the heap of the process it runs in.
    """
    gc.disable()
    start = time.perf_counter()
    for _ in range(3):
        out = [0] * (len(_CAL_A) + len(_CAL_B) - 1)
        for i, a in enumerate(_CAL_A):
            for j, b in enumerate(_CAL_B):
                out[i + j] += a * b
        acc = Fraction(0)
        for k in range(1, 60):
            acc += Fraction(k, k * k + 1)
        table = {}
        for k in range(300):
            table[k] = _CAL_BIG[k & 7] * (k + 1)
    compile(_CAL_SOURCE, "<calibration>", "exec")
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def _import_package() -> float:
    start = time.perf_counter()
    mod = __import__("xlegendre.cli", fromlist=["_"])
    elapsed = time.perf_counter() - start
    if not Path(mod.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"xlegendre imported from {mod.__file__}, not from {SRC}")
    return elapsed


def _ready() -> tuple[float, float]:
    """The end of set-up, and the mean of the calibration slices right after it."""
    ready = time.monotonic()
    return ready, statistics.fmean(calibrate() for _ in range(READY_SLICES))


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _norm(key: dict, i: int) -> Fraction:
    """Squared norm of P_i by the paper's formula (independent of the package)."""
    shift = 2 * Fraction(key["t"][key["m"].index(i)]) if i in key["m"] else 0
    return Fraction(2) / (1 + 2 * i + shift)


def _degree(key: dict, i: int) -> int:
    """deg P_i = 2*sum(m) + n + i - (2i+1)*[i in m]."""
    base = 2 * sum(key["m"]) + len(key["m"]) + i
    return base - (2 * i + 1) if i in key["m"] else base


class Checks:
    """Attempted and failed checks, with the first few failures named."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)

    def error(self, what: str, exc: BaseException) -> None:
        self.attempted += 1
        self.fail(f"{what}: {type(exc).__name__}: {exc}")


# -- modes -------------------------------------------------------------------


def _lattice_build(key, checks: Checks, label: str) -> None:
    from xlegendre import family, verify_eigen

    fam = family(key)
    rec = fam.recursive(gen.LATTICE_MAX_I)
    checks.check(rec.tau == fam.tau, f"{label} tau")
    for i in range(gen.LATTICE_MAX_I + 1):
        checks.check(rec.xpolys[i] == fam.polynomial(i), f"{label} P[{i}]")
    for i in range(gen.LATTICE_MAX_I + 1):
        checks.check(verify_eigen(key, i), f"{label} eigen {i}")


def _lattice_ortho(key, checks: Checks, label: str) -> None:
    from xlegendre import family, norm_of

    overlaps = family(key).recursive(gen.LATTICE_MAX_I).overlaps
    for i1 in range(gen.LATTICE_MAX_I + 1):
        for i2 in range(i1, gen.LATTICE_MAX_I + 1):
            value = overlaps[(i1, i2)].evaluate(1)
            expected = norm_of(key, i1) if i1 == i2 else 0
            checks.check(value == expected, f"{label} overlap ({i1},{i2})")


def mode_lattice(args: dict) -> dict:
    import_s = _import_package()
    from xlegendre import FamilyKey

    items = gen.workload_input(args["workload"], args["seed"])[:args.get("limit")]
    keys = [FamilyKey(tuple(it["key"]["m"]), tuple(map(Fraction, it["key"]["t"])))
            for it in items]
    ready, ready_calib = _ready()
    body = _lattice_build if args["workload"] == "lattice-build" else _lattice_ortho
    tracer = None
    if args.get("trace"):
        tracer = span_trace.Tracer()
        span_trace.install(tracer)
    checks = Checks()
    key_s, calib = [], []
    clock = time.perf_counter
    for idx, (item, key) in enumerate(zip(items, keys)):
        calib.append(calibrate())
        label = gen.key_str(item["key"])
        t0 = clock()
        try:
            if tracer is None:
                body(key, checks, label)
            else:
                with tracer.root("key", idx):
                    body(key, checks, label)
        except Exception as exc:  # a raising check counts as a failed check
            checks.error(label, exc)
        key_s.append(clock() - t0)
    calib.append(calibrate())
    out = {"ready": ready, "ready_calib": ready_calib, "import_s": import_s,
           "key_s": key_s, "calib": calib, "rss_mb": _rss_mb(), "attempted": checks.attempted, "failed": checks.failed,
           "failures": checks.failures}
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.summary()
        if args.get("spans"):
            tracer.write_spans(args["spans"])
    return out


def _invoke(cli_args: list[str], tracer=None) -> tuple[int, str]:
    """Run ``xlegendre <cli_args>`` in this process; return (exit code, stdout)."""
    from xlegendre.cli import main

    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            if tracer is None:
                main.main(cli_args)
            else:
                with tracer.root("cli.invoke", 0):
                    main.main(cli_args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return code, buf.getvalue()


def _check_verify(key: dict, report: dict, checks: Checks) -> None:
    label = gen.key_str(key)
    checks.check(report.get("pass") is True, f"{label} pass flag")
    checks.check(report["key"]["m"] == key["m"]
                 and [Fraction(t) for t in report["key"]["t"]]
                 == [Fraction(t) for t in key["t"]], f"{label} key echo")
    suites = report["suites"]
    checks.check(sorted(suites) == sorted(("eigen", "ortho", "factor", "recur", "degree")),
                 f"{label} suites")
    for e in suites["eigen"]["entries"]:
        checks.check(e["pass"] is True, f"{label} eigen {e['i']}")
    ortho = suites["ortho"]
    checks.check(ortho["admissibility"]["pass"] is True, f"{label} admissibility")
    for e in ortho["entries"]:
        expected = _norm(key, e["i1"]) if e["i1"] == e["i2"] else Fraction(0)
        checks.check(Fraction(e["expected"]) == expected
                     and Fraction(e["actual"]) == expected,
                     f"{label} overlap ({e['i1']},{e['i2']})")
    for step in suites["factor"]["steps"]:
        for c in step["factorization"]["checks"]:
            checks.check(c["pass"] is True, f"{label} {c['identity']} @{step['step_level']}")
        for e in step["intertwining"]:
            checks.check(e["pass"] is True,
                         f"{label} intertwining {e['i']} @{step['step_level']}")
    for e in suites["recur"]["entries"]:
        checks.check(e["pass"] is True, f"{label} recursion {e['object']}")
    degree = suites["degree"]
    checks.check(degree["codimension_matches_tau_degree"] is True, f"{label} codimension")
    for e in degree["entries"]:
        checks.check(e["actual"] == _degree(key, e["i"]), f"{label} degree {e['i']}")


def _check_gen(item: dict, payload: dict, checks: Checks) -> None:
    from xlegendre import FamilyKey, Poly, expected_degree
    from xlegendre.operators import eigenvalue, t_hat_numerator

    key = item["key"]
    label = f"{gen.key_str(key)} N={item['top']}"
    fkey = FamilyKey(tuple(key["m"]), tuple(map(Fraction, key["t"])))
    checks.check(payload["m"] == key["m"], f"{label} levels")
    checks.check(payload["admissible"] is True, f"{label} admissible")
    tau = Poly.from_json(payload["tau"])
    checks.check(tau.degree == 2 * sum(key["m"]) + len(key["m"]), f"{label} deg tau")
    polys = {}
    for entry in payload["polys"]:
        i = entry["i"]
        polys[i] = entry["coeffs"]
        checks.check(entry["degree"] == expected_degree(fkey, i) == _degree(key, i)
                     and len(entry["coeffs"]) == entry["degree"] + 1,
                     f"{label} degree {i}")
    checks.check(sorted(polys) == list(range(item["top"] + 1)), f"{label} indices")
    for i, norm in enumerate(payload["norms"]):
        checks.check(Fraction(norm) == _norm(key, i), f"{label} norm {i}")
    for i in item["eigen_probes"]:
        p = Poly.from_json(polys[i])
        checks.check(t_hat_numerator(tau, p) == (p * tau).scale(eigenvalue(i)),
                     f"{label} eigen {i}")


def mode_cli(args: dict) -> dict:
    """One invocation.  Its latency is set-up (spawn to ``ready``) plus
    ``start`` to ``done``; the slices and the tracer's installation between
    ``ready`` and ``start`` are left out.  ``calib`` is the mean slice
    before and after the invocation."""
    item = args["item"]
    import_s = _import_package()
    ready, ready_calib = _ready()
    tracer = None
    if args.get("trace"):
        tracer = span_trace.Tracer()
        span_trace.install(tracer)
    checks = Checks()
    label = " ".join(item["args"])
    start = time.monotonic()
    try:
        code, text = _invoke(item["args"], tracer)
    except Exception as exc:  # an escaping exception is a failed invocation
        code, text = None, ""
        checks.error(label, exc)
    done = time.monotonic()
    after_calib = statistics.fmean(calibrate() for _ in range(READY_SLICES))
    out = {"ready": ready, "ready_calib": ready_calib, "start": start, "done": done,
           "calib": (ready_calib + after_calib) / 2, "import_s": import_s,
           "rss_mb": _rss_mb(), "exit_code": code}
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.summary()
        if args.get("spans"):
            tracer.write_spans(args["spans"])
    if code is not None:
        checks.check(code == 0, f"{label} exit code {code}")
        try:
            payload = json.loads(text)
            if item["args"][0] == "verify":
                _check_verify(item["key"], payload, checks)
            else:
                _check_gen(item, payload, checks)
        except Exception as exc:  # malformed or incomplete output
            checks.error(label, exc)
    out.update(attempted=checks.attempted, failed=checks.failed, failures=checks.failures)
    return out


def mode_golden(args: dict) -> dict:
    _import_package()
    digests = {}
    codes = {}
    for key in GOLDEN_KEYS:
        levels, params = key.split(":")
        code, text = _invoke(["verify", "--m", levels, "--t", params, "--suites", "all"])
        digests[key] = hashlib.sha256(text.encode()).hexdigest()
        codes[key] = code
    return {"digests": digests, "exit_codes": codes}


MODES = {"lattice": mode_lattice, "cli": mode_cli, "golden": mode_golden}


if __name__ == "__main__":
    result = MODES[sys.argv[1]](json.loads(sys.argv[2]))
    sys.stdout.write(json.dumps(result) + "\n")
