"""Seeded inputs for the xlegendre benchmark.

Pure Python: nothing here imports xlegendre, so the package under test only
ever sees the generated keys and command lines.  The same seed gives the same
inputs.  Every key is canonical (distinct ascending levels, nonzero
parameters) and admissible (t > -m - 1/2 at every level), so no operation on
it is expected to fail.

Cost depends on four properties of a key.  Each workload fixes which level
sets a round holds and how many keys of each, and the height of each key's
parameters; the seed picks the parameters themselves and the order.  Two
seeds therefore give inputs of nearly the same total cost, while every round
still spans:

* level count n: cofactor determinants for n <= 3, Bareiss for n >= 4;
* level sum: deg tau = 2*sum(m) + n, which sets every polynomial's length;
* parameter height: numerators and denominators between H/2 and H for
  H = 4, 64 or 1024, which sets the coefficients' bit size;
* max index: 12 on the lattice workloads (the acceptance criteria), 8 on
  ``verify-cli`` (the CLI default), N = 50..130 on ``gen-high-index``.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

LEVEL_MAX = 5
LATTICE_MAX_I = 12
VERIFY_MAX_I = 8
HEIGHTS = (4, 64, 1024)

WORKLOADS = ("lattice-build", "lattice-ortho", "verify-cli", "gen-high-index")

# Every level set of the acceptance lattice: n <= 3 distinct levels <= 5.
LATTICE_SETS = tuple(
    m for n in (1, 2, 3) for m in itertools.combinations(range(LEVEL_MAX + 1), n)
)
# A CLI round has few invocations, so its median and its tail (the key with
# 10 beyond it) are single order statistics.  The inputs come in blocks of
# like invocations, each block well apart in cost from the next, so that
# each quantile falls in the middle of one block and noise cannot swap in a
# key of another kind.  Both CLI workloads have 37 invocations: keys 1-14
# cheap, 15-23 the median block (the median is the 19th), 24-30 the tail
# block (the tail is the 27th), 31-37 dear.
# verify-cli entries are (levels, parameter height, keys drawn).  Cost grows
# steeply with the level sum; the 4-level key is the only route into
# Bareiss.  It is the dearest key, not the tail: a 4-level tail needs eleven
# 4-level keys at about 3 s each, more than a run's time allows.
_VERIFY_PLAN = (
    ((0, 1), 4, 7), ((0, 2), 1024, 7),
    ((0, 3), 64, 9),
    ((0, 4), 64, 7),
    ((0, 1, 2), 1024, 6), ((0, 1, 2, 3), 4, 1),
)
# gen-high-index entries are (levels, parameter height, top index N,
# invocations); every invocation draws its own key, so a block's cost does
# not hang on one draw of parameters.  The tail and dear blocks are 4-level
# keys (Bareiss).
_GEN_PLAN = (
    ((1, 2, 3), 4, 50, 14),
    ((1, 2, 3), 4, 80, 9),
    ((0, 1, 2, 3), 64, 100, 7),
    ((0, 1, 2, 4), 1024, 130, 7),
)


def _parameter(rng: random.Random, height: int, level: int) -> Fraction:
    """Admissible t = p/q with |p| and q in [height/2, height] before reduction."""
    bound = -Fraction(2 * level + 1, 2)
    while True:
        p = rng.randint(height // 2, height) * rng.choice((-1, 1))
        t = Fraction(p, rng.randint(height // 2, height))
        if t > bound:
            return t


def _draw(rng: random.Random, levels: tuple[int, ...], height: int, seen: set) -> dict:
    while True:
        key = {"m": list(levels), "t": [str(_parameter(rng, height, m)) for m in levels]}
        ident = key_str(key)
        if ident not in seen:
            seen.add(ident)
            return key


def key_str(key: dict) -> str:
    """Compact key notation: levels:parameters, e.g. ``1,2,4:1,-1/4,7/2``."""
    return ",".join(map(str, key["m"])) + ":" + ",".join(key["t"])


def _keys(seed: int, plan) -> list[dict]:
    """Draw ``count`` keys per (levels, height, count) entry, then shuffle."""
    rng = random.Random(seed)
    seen: set = set()
    keys = [_draw(rng, levels, height, seen)
            for levels, height, count in plan for _ in range(count)]
    rng.shuffle(keys)
    return keys


def _lattice_plan(per_set: int):
    """Every lattice level set, ``per_set`` keys each, heights cycling."""
    return [(m, HEIGHTS[(pos + k) % len(HEIGHTS)], 1)
            for pos, m in enumerate(LATTICE_SETS) for k in range(per_set)]


def _cli_item(key: dict, command: str, *options: str) -> dict:
    return {"key": key, "args": [command, "--m", ",".join(map(str, key["m"])),
                                 "--t", ",".join(key["t"]), *options]}


def verify_commands(seed: int) -> list[dict]:
    return [_cli_item(k, "verify", "--suites", "all", "--max-i", str(VERIFY_MAX_I))
            for k in _keys(seed, _VERIFY_PLAN)]


def gen_commands(seed: int) -> list[dict]:
    rng = random.Random(seed)
    seen: set = set()
    items = []
    for levels, height, top, count in _GEN_PLAN:
        for _ in range(count):
            item = _cli_item(_draw(rng, levels, height, seen), "gen", "--i", f"0..{top}")
            item.update(top=top, eigen_probes=sorted(rng.sample(range(top + 1), 3)))
            items.append(item)
    rng.shuffle(items)
    return items


def workload_input(workload: str, seed: int) -> list[dict]:
    """The fixed input of one workload: a list of items, one per key."""
    if workload == "lattice-build":
        return [{"key": k} for k in _keys(seed, _lattice_plan(3))]
    if workload == "lattice-ortho":
        return [{"key": k} for k in _keys(seed, _lattice_plan(2))]
    if workload == "verify-cli":
        return verify_commands(seed)
    if workload == "gen-high-index":
        return gen_commands(seed)
    raise ValueError(f"unknown workload {workload!r}")
