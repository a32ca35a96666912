"""Span tracer that wraps xlegendre's public callables from outside.

Nothing in the package changes: ``install`` replaces every binding of each
wrapped callable (the defining module or class, every module that copied it
with ``from .x import y``, and aliases such as ``__radd__ = __add__``) with a
wrapper that records a span, and ``uninstall`` puts the originals back.

A span is (name, start, end, parent index, trace id); spans stay in memory
and are aggregated, or written out, when the traced work ends.  A span's self
time is its duration minus the time covered by its direct child spans.  The
wrapper also records counts at the same boundary (coefficient products of a
multiply, inexact divisions, nontrivial gcds, first-seen cache keys), so that
ratios are measured where the work happens.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import Counter

# Operand-length product above which the seed's Poly multiply switches from
# schoolbook to Kronecker substitution; fixed here so the ratio keeps one
# meaning however the package's cutoff moves.
LARGE_PRODUCT = 900


class Tracer:
    """In-memory spans and boundary counts for one traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.trace_id = -1
        self._stack: list[int] = []
        self._seen: dict[str, set] = {}
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------------

    def wrap(self, name, fn, note=None, accept=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``accept(*args)`` may decline a call (it then runs untraced); ``note``
        sees (args, result, raised) after the span closes.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if accept is not None and not accept(*args):
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            raised = True
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.trace_id)
                if note is not None:
                    note(args, result, raised)

        return traced

    @contextlib.contextmanager
    def root(self, name: str, trace_id: int):
        """Span the harness opens around one key; its id tags every child."""
        self.trace_id = trace_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, -1, trace_id)

    def first_seen(self, table: str, item) -> bool:
        seen = self._seen.setdefault(table, set())
        if item in seen:
            return False
        seen.add(item)
        return True

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self time per span name, plus the boundary counts."""
        spans = self.spans
        cover = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                cover[parent] += end - start
        per_name: dict[str, list] = {}
        for idx, (name, start, end, _, _) in enumerate(spans):
            rec = per_name.setdefault(name, [0, 0.0])
            rec[0] += 1
            rec[1] += (end - start) - cover[idx]
        return {
            "spans": {k: {"calls": c, "self_s": s} for k, (c, s) in per_name.items()},
            "counts": dict(self.counts),
        }

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span: name, start, end, parent, trace id."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\ttrace_id\n")
            for name, start, end, parent, tid in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{tid}\n")

    # -- installation ------------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)


def _package_namespaces():
    """Every module of the package and every class defined in one."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "xlegendre" or mod_name.startswith("xlegendre.")):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == mod_name:
                yield value


def _bindings(target):
    """(namespace, attribute) pairs whose value is ``target`` or wraps it."""
    func = target.__func__ if isinstance(target, classmethod) else target
    found = []
    for ns in _package_namespaces():
        for attr, value in list(vars(ns).items()):
            inner = value.__func__ if isinstance(value, classmethod) else value
            if inner is func:
                found.append((ns, attr))
    return found


def _targets():
    """(span name, owner, attribute, note, accept) for every wrapped callable."""
    from xlegendre import admissibility, legendre, operators, polyring, ratfun, xfamily

    Poly = polyring.Poly

    def is_poly_product(a, b=None):
        return isinstance(b, Poly)

    return [
        ("polyring.mul", Poly, "__mul__", "mul", is_poly_product),
        ("polyring.div", Poly, "exact_div_or_none", "div", None),
        ("polyring.div", Poly, "__divmod__", "div", None),
        ("polyring.gcd", polyring, "poly_gcd", "gcd", None),
        ("ratfun.of", ratfun.RatFun, "of", None, None),
        ("ratfun.arith", ratfun.RatFun, "__add__", None, None),
        ("ratfun.arith", ratfun.RatFun, "__mul__", None, None),
        ("legendre.poly", legendre, "legendre_poly", None, None),
        ("legendre.overlap", legendre, "overlap_R", "overlap", None),
        ("xfamily.family", xfamily, "family", "family", None),
        ("xfamily.det", xfamily.PolyMatrix, "det", None, None),
        ("xfamily.adjugate", xfamily.PolyMatrix, "adjugate", None, None),
        ("xfamily.polynomial", xfamily.XFamily, "polynomial", None, None),
        ("xfamily.recursive", xfamily.XFamily, "recursive", None, None),
        ("xfamily.recursive", xfamily, "recursive_family", None, None),
        ("xfamily.overlap", xfamily.OverlapMap, "__getitem__", None, None),
        ("operators.eigen", operators, "verify_eigen", None, None),
        ("operators.factor", operators, "verify_factorization", None, None),
        ("operators.intertwining", operators, "verify_intertwining", None, None),
        ("admissibility.record", admissibility, "admissibility_record", None, None),
        ("admissibility.ortho", admissibility, "orthogonality_check", None, None),
        ("cli.render", Poly, "to_json", None, None),
    ]


def install(tracer: Tracer) -> None:
    """Wrap every binding of every traced callable; raise if one is missed."""
    from xlegendre import canonicalize

    targets = _targets()
    counts = tracer.counts

    def note_mul(args, result, raised):
        a, b = args
        if a.is_zero or b.is_zero:
            return
        product = (a.degree + 1) * (b.degree + 1)
        counts["mul.coeff_products"] += product
        if product > LARGE_PRODUCT:
            counts["mul.large"] += 1

    def note_div(args, result, raised):
        if raised or result is None:
            counts["div.inexact"] += 1

    def note_gcd(args, result, raised):
        if not raised and result.degree > 0:
            counts["gcd.nontrivial"] += 1

    def note_family(args, result, raised):
        if tracer.first_seen("family", canonicalize(args[0])):
            counts["family.miss"] += 1

    def note_overlap(args, result, raised):
        i1, i2 = args
        if tracer.first_seen("overlap", (min(i1, i2), max(i1, i2))):
            counts["overlap.miss"] += 1

    notes = {"mul": note_mul, "div": note_div, "gcd": note_gcd,
             "family": note_family, "overlap": note_overlap}
    originals = []
    for name, owner, attr, note, accept in targets:
        original = owner.__dict__[attr]
        func = original.__func__ if isinstance(original, classmethod) else original
        wrapped = tracer.wrap(name, func, notes.get(note), accept)
        if isinstance(original, classmethod):
            wrapped = classmethod(wrapped)
        for ns, bound_attr in _bindings(original):
            tracer._patch(ns, bound_attr, wrapped)
        originals.append((name, original))
    # rendering of CLI reports goes through json.dumps in the cli module
    tracer._patch(json, "dumps", tracer.wrap("cli.render", json.dumps))
    missed = [(name, ns.__name__, attr) for name, original in originals
              for ns, attr in _bindings(original)]
    if missed:
        tracer.uninstall()
        raise RuntimeError(f"untraced bindings left after install: {missed}")
