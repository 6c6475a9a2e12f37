"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of (workload, seed, stream): the same
arguments give the same inputs on any machine, because ``random.Random``
seeds from a string through SHA-512.  The ``main`` stream feeds the timed
loop.  The warm-up stream that set-up runs is the same for every seed, so
that ``setup_s`` compares the program, not the draw.

Draws are stratified: each block of requests takes one value from each of
n equal slices of a parameter's range, in shuffled order, and the request
mix of a block is exact.  Inputs stay uniform and new on every request, but
a run's total cost no longer swings with the luck of the draw, which made
runs of 20 s differ by more than 10% between seeds.

A warm request is a tuple ``(kind, z, zeta, tol)`` with kind "s" or "c".
A CLI request is the argument list after ``python -m besstruve.cli``.
"""

from __future__ import annotations

import random
from itertools import islice

WORKLOADS = ("points-warm", "grid-sweep", "cold-cli")

POINTS_TOL = 1e-10
GRID_TOL = 1e-12
CLI_TOL = 1e-10  # the CLI's default --tol; the generated argv never sets it

# points-warm: blocks of 20 requests, half S and half C, two of them with
# z below the Taylor-branch threshold 0.5.
POINTS_BLOCK = 20
POINTS_SMALL_Z = 2

# grid-sweep: z values per sweep, and zeta grids (step 0.1) that run to the
# edge where the series still converges at GRID_TOL (S to 5.5, C to 3.0).
# A sweep takes about 3 s, so a run is mostly whole sweeps.
GRID_Z_PER_SWEEP = 6
GRID_S_ZETAS = tuple(j / 10 for j in range(1, 56))
GRID_C_ZETAS = tuple(j / 10 for j in range(0, 31))

# cold-cli: one deck of 21 invocations per block, in shuffled order.
CLI_DECK = {
    "eval s": 4,
    "eval c": 4,
    "eval dj1z": 3,
    "eval dh1z": 3,
    "table s": 2,
    "table c": 2,
    "poly sigma": 3,
}

# Set-up pass: 40 points reach the top zeta slice, hence (nearly) the
# highest derivative order; one single-z sweep reaches the top of both
# zeta grids; one deck runs every CLI command family.
WARMUP = {
    "points-warm": 2 * POINTS_BLOCK,
    "grid-sweep": len(GRID_S_ZETAS) + len(GRID_C_ZETAS),
    "cold-cli": sum(CLI_DECK.values()),
}


def _rng(workload: str, seed, stream: str) -> random.Random:
    return random.Random(f"besstruve-bench/{workload}/{seed}/{stream}")


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list:
    """n uniform draws in [lo, hi), one from each of n equal slices, shuffled."""
    order = list(range(n))
    rng.shuffle(order)
    return [lo + (hi - lo) * (i + rng.random()) / n for i in order]


def _shuffled(rng: random.Random, items: list) -> list:
    rng.shuffle(items)
    return items


def _points(rng: random.Random):
    n = POINTS_BLOCK
    while True:
        kinds = _shuffled(rng, ["s", "c"] * (n // 2))
        small = _shuffled(rng, [True] * POINTS_SMALL_Z + [False] * (n - POINTS_SMALL_Z))
        small_z = iter(_strata(rng, POINTS_SMALL_Z, 0.0, 0.5))
        large_z = iter(_strata(rng, n - POINTS_SMALL_Z, 0.5, 20.0))
        zetas = _strata(rng, n, 0.0, 4.0)
        for kind, is_small, zeta in zip(kinds, small, zetas):
            yield kind, next(small_z) if is_small else next(large_z), zeta, POINTS_TOL


def _sweeps(rng: random.Random, z_per_sweep: int):
    """The shape of ``besstruve table``: z outer, zeta inner, S then C."""
    while True:
        zs = _strata(rng, z_per_sweep, 0.5, 30.0)
        for kind, zetas in (("s", GRID_S_ZETAS), ("c", GRID_C_ZETAS)):
            for z in zs:
                for zeta in zetas:
                    yield kind, z, zeta, GRID_TOL


def _cli_argvs(rng: random.Random):
    def fmt(values) -> list:
        return [f"{v:.4f}" for v in values]

    def orders(n: int, k_max: int) -> list:
        return [str(int(u)) for u in _strata(rng, n, 0, k_max + 1)]

    while True:
        deck = []
        for family, n in CLI_DECK.items():
            if family in ("eval s", "eval c"):
                z, zeta = fmt(_strata(rng, n, 0.5, 20.0)), fmt(_strata(rng, n, 0.0, 4.0))
                deck += [family.split() + ["--z", a, "--zeta", b] for a, b in zip(z, zeta)]
            elif family in ("eval dj1z", "eval dh1z"):
                ks = orders(n, 60 if family == "eval dj1z" else 41)
                z = fmt(_strata(rng, n, 0.5, 20.0))
                deck += [family.split() + ["--k", k, "--z", a] for k, a in zip(ks, z)]
            elif family in ("table s", "table c"):
                z = fmt(_strata(rng, 2 * n, 0.5, 20.0))
                zeta = fmt(_strata(rng, 3 * n, 0.0, 3.0))
                deck += [
                    family.split()
                    + ["--z-grid", ",".join(z[2 * i : 2 * i + 2])]
                    + ["--zeta-grid", ",".join(zeta[3 * i : 3 * i + 3])]
                    for i in range(n)
                ]
            else:
                deck += [["poly", "sigma", "--k", k] for k in orders(n, 41)]
        yield from _shuffled(rng, deck)


def _generator(workload: str, rng: random.Random, z_per_sweep: int = GRID_Z_PER_SWEEP):
    if workload == "points-warm":
        return _points(rng)
    if workload == "grid-sweep":
        return _sweeps(rng, z_per_sweep)
    if workload == "cold-cli":
        return _cli_argvs(rng)
    raise ValueError(f"unknown workload {workload!r}")


def requests(workload: str, seed: int):
    """Endless request stream of ``workload`` for ``seed``."""
    return _generator(workload, _rng(workload, seed, "main"))


def first(workload: str, seed: int, n: int) -> list:
    return list(islice(requests(workload, seed), n))


def warmup_requests(workload: str) -> list:
    """The set-up pass: the start of the workload's own generator on a
    separate, seed-independent stream (grid-sweep: one sweep at one z)."""
    stream = _generator(workload, _rng(workload, "any", "warmup"), z_per_sweep=1)
    return list(islice(stream, WARMUP[workload]))
