"""The three workloads, generated from a seed without the package.

An op is one (suite, parameter) call or one command-line request.  The op
list depends only on the workload name, the seed and the budget of one pass
(the run length over the number of passes), so two runs with the same
arguments do the same work.  Each workload is a ladder of op groups with
reference costs (seconds on a 2-core Intel Xeon, Python 3.11); a pass takes
the longest prefix of the ladder that fits its budget, and always the first
group.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

WORKLOADS = ("grid-sweep", "tile-large", "explore")

GRID_SUITES = ("coherence", "two-points", "hier", "first", "empty-rect",
               "particle-geometry")

# Seconds for all GRID_SUITES over every even rational with exactly this
# omega.
GRID_COST = {3: 0.004, 5: 0.03, 7: 0.11, 9: 0.22, 11: 0.62, 13: 0.89,
             15: 0.99, 17: 3.85, 19: 6.5, 21: 4.3, 23: 11.2, 25: 12.1,
             27: 17.0, 29: 29.0, 31: 31.0}

# (suite, omega, number of seeded parameters, seconds for the group).
TILE_LADDER = (
    ("isomorphism", 51, 3, 1.4),
    ("bijection", 51, 3, 1.5),
    ("symmetry", 35, 3, 1.4),
    ("pet-equivalence", 27, 3, 1.6),
    ("mesh", 21, 3, 1.5),
    ("isomorphism", 101, 1, 4.0),
    ("bijection", 101, 1, 5.0),
    ("symmetry", 41, 3, 3.0),
    ("pet-equivalence", 31, 3, 3.0),
    ("mesh", 25, 3, 3.5),
    ("isomorphism", 151, 1, 14.0),
    ("bijection", 151, 1, 17.0),
)

ALL_LAYERS = "grid-lines,light-points,connectors,polygons,orientation-arrows"
# Fixed explore parameters, omega 7 to 101; the seed never changes them.
EXPLORE_OMEGAS = (7, 11, 17, 21, 31, 41, 51, 61, 71, 81, 91, 101)
IRRATIONAL_P = ("34/89", "55/144", "89/233", "8/21", "13/34", "21/55")
IRRATIONAL_WINDOW = 16
RENDER_WINDOW = 12
LARGE_OMEGA = 101
# Seconds for one explore round (see explore_ops).
EXPLORE_ROUND_COST = 0.9


@dataclass(frozen=True)
class Op:
    """kind is "sweep" (run_suite over one parameter), "suite" (one SUITES
    call) or "cli" (one plaid.cli.main request; argv has no --out)."""

    kind: str
    suite: str = ""
    pq: Tuple[int, int] = (0, 0)
    argv: Tuple[str, ...] = ()

    @property
    def label(self) -> str:
        if self.kind == "cli":
            return " ".join(self.argv)
        return f"{self.suite} {self.pq[0]}/{self.pq[1]}"


def even_rationals(max_omega: int) -> List[Tuple[int, int]]:
    """(p, q) with p < q coprime, pq even, p+q <= max_omega; by (omega, p)."""
    return [(p, w - p) for w in range(3, max_omega + 1, 2)
            for p in range(1, (w + 1) // 2) if math.gcd(p, w) == 1]


def grid_bound(seconds: float) -> int:
    total, bound = 0.0, 7
    for w in sorted(GRID_COST):
        total += GRID_COST[w]
        if total > seconds:
            break
        bound = max(bound, w)
    return bound


def grid_sweep_ops(seed: int, seconds: float) -> List[Op]:
    """Every grid-side suite over every even rational up to a bound sized to
    the pass budget.  A full sweep: the seed does not change it."""
    del seed
    params = even_rationals(grid_bound(seconds))
    return [Op("sweep", suite, pq) for suite in GRID_SUITES for pq in params]


def valid_ps(omega: int) -> List[int]:
    """The p < omega/2 coprime to omega: the even rationals at odd omega."""
    return [p for p in range(1, (omega + 1) // 2) if math.gcd(p, omega) == 1]


def seeded_ps(rng: random.Random, omega: int, count: int) -> List[int]:
    """One p per stratum of the valid p values at omega, so that the cost
    of a group hardly depends on the seed."""
    valid = valid_ps(omega)
    cuts = [len(valid) * i // count for i in range(count + 1)]
    return [valid[rng.randrange(cuts[i], cuts[i + 1])] for i in range(count)]


def spread_evenly(values: List[int], count: int) -> List[int]:
    """The middle value of each of count equal strata of values."""
    return [values[(2 * i + 1) * len(values) // (2 * count)]
            for i in range(count)]


def distinct_params(omegas: List[int], taken=()) -> List[Tuple[int, int]]:
    """One even rational per request, no two alike and none in taken.  At
    each requested omega, p is spread evenly over the free p, in request
    order; requests beyond the free p move on to omega + 2."""
    want: Dict[int, List[int]] = {}
    for i, w in enumerate(omegas):
        want.setdefault(w, []).append(i)
    used = set(taken)
    out: List[Tuple[int, int]] = [(0, 0)] * len(omegas)
    while want:
        w = min(want)
        idx = want.pop(w)
        free = [p for p in valid_ps(w) if (p, w - p) not in used]
        if len(free) < len(idx):
            want.setdefault(w + 2, []).extend(idx[len(free):])
            idx = idx[:len(free)]
        for i, p in zip(idx, spread_evenly(free, len(idx)) if idx else []):
            out[i] = (p, w - p)
            used.add(out[i])
    return out


def tile_large_ops(seed: int, seconds: float) -> List[Op]:
    """Tile-side suites on a few single parameters at large omega; the seed
    picks p at each fixed omega."""
    rng = random.Random(seed)
    picks = {}
    ops: List[Op] = []
    total = 0.0
    for i, (suite, omega, count, cost) in enumerate(TILE_LADDER):
        total += cost
        if i and total > seconds:
            break
        if (omega, count) not in picks:
            picks[(omega, count)] = seeded_ps(rng, omega, count)
        ops += [Op("suite", suite, (p, omega - p))
                for p in picks[(omega, count)]]
    return ops


def _pq_args(pq) -> List[str]:
    return ["--p", str(pq[0]), "--q", str(pq[1])]


def _render(rng: random.Random, pq: Tuple[int, int]) -> Op:
    omega = sum(pq)
    side = min(RENDER_WINDOW, omega)
    bi = rng.randrange(omega)
    x = bi * omega + rng.randrange(omega - side + 1)
    y = rng.randrange(omega - side + 1)
    return Op("cli", argv=("render", *_pq_args(pq), "--window",
                           f"{x},{y},{x + side},{y + side}",
                           "--layers", ALL_LAYERS))


def _orbit(rng: random.Random, pq: Tuple[int, int]) -> Op:
    omega = sum(pq)
    a, b = rng.randrange(omega * omega), rng.randrange(omega)
    return Op("cli", argv=("orbit", *_pq_args(pq), "--c",
                           f"{2 * a + 1}/2,{2 * b + 1}/2", "--oriented"))


def _stats(rng: random.Random, pq: Tuple[int, int]) -> Op:
    return Op("cli", argv=("stats", *_pq_args(pq), "--document",
                           "--blocks", str(rng.randrange(sum(pq)))))


def _irrational(rng: random.Random, P: str) -> Op:
    ks = rng.sample(range(1, 4096), 3)
    offset = ",".join(f"1/{2 ** 20 + k}" for k in ks)
    w = IRRATIONAL_WINDOW
    return Op("cli", argv=("irrational", "--P", P, "--offset", offset,
                           "--window", f"0,0,{w},{w}"))


# The golden corpus holds the documents of these two requests.
GOLDEN_OPS = (
    Op("cli", argv=("stats", "--p", "1", "--q", "2", "--document",
                    "--blocks", "0,1,2")),
    Op("cli", argv=("stats", "--p", "2", "--q", "5", "--document")),
)
GOLDEN_PARAMS = ((1, 2), (2, 5))

MAKERS = {"orbit": _orbit, "stats": _stats, "render": _render}


def explore_ops(seed: int, seconds: float) -> List[Op]:
    """A closed loop of requests.  Each round holds three orbits, two
    document dumps, four irrational windows, two renders on the omega
    ladder and two renders at omega 101.  The irrational windows, whose
    cost hardly depends on the seed, straddle the median, and the omega-101
    renders straddle the 90th percentile.  Every request has a parameter of
    its own, so no request reuses work another one left behind.  The seed
    picks centers, blocks, window positions and offsets, never a parameter:
    render cost at omega 101 varies by 1.6x with p, and a seeded p doubled
    the spread of the 90th percentile across seeds."""
    rng = random.Random(seed)
    rounds = max(1, int(seconds / EXPLORE_ROUND_COST))
    ladder = EXPLORE_OMEGAS
    small = [w for w in ladder if w != LARGE_OMEGA]
    slots: List[Tuple[str, object]] = []
    for r in range(rounds):
        slots += [("orbit", ladder[(3 * r + i) % len(ladder)])
                  for i in range(3)]
        slots += [("stats", ladder[(2 * r + i + 1) % len(ladder)])
                  for i in range(2)]
        slots += [("irrational", IRRATIONAL_P[(4 * r + i) % len(IRRATIONAL_P)])
                  for i in range(4)]
        slots += [("render", small[(2 * r + i) % len(small)])
                  for i in range(2)]
        slots += [("render", LARGE_OMEGA) for _ in range(2)]
    with_param = [i for i, (kind, _) in enumerate(slots)
                  if kind != "irrational"]
    pqs = dict(zip(with_param, distinct_params(
        [slots[i][1] for i in with_param], GOLDEN_PARAMS)))
    ops: List[Op] = list(GOLDEN_OPS)
    for i, (kind, arg) in enumerate(slots):
        ops.append(_irrational(rng, arg) if kind == "irrational"
                   else MAKERS[kind](rng, pqs[i]))
    return ops


def build(workload: str, seed: int, seconds: float) -> List[Op]:
    if workload == "grid-sweep":
        return grid_sweep_ops(seed, seconds)
    if workload == "tile-large":
        return tile_large_ops(seed, seconds)
    if workload == "explore":
        return explore_ops(seed, seconds)
    raise ValueError(f"unknown workload {workload!r}")
