"""Seeded structure tables that fail both Lie axioms, and the failing
golden specs.

On such a table the normal form of a word can depend on the order of its
rewrites, so the engine's results there are pinned to its one strategy;
the tests use these tables to check that every shortcut the engine takes
is still that strategy's result.
"""

import random
from fractions import Fraction
from pathlib import Path

from envnorm.cli import parse_spec
from envnorm.liealg import LieAlgebra, SplitDecomposition, validate_algebra
from envnorm.ring import make_ring

GOLDEN = Path(__file__).parent / "golden"
FAILING_RINGS = ("Z", "Zmod 3", "Zmod 4", "Q")


def random_failing_table(rng, ring, dim, parts):
    """A seeded dim x dim table that is neither alternating nor Jacobi.
    Every cell, the diagonal too, is drawn on its own; a cell of two letters
    of one part holds letters of that part only, so the parts stay closed
    and every state over them has a canonical form."""
    while True:
        part_of = {k: p for p, part in enumerate(parts) for k in part}
        table = [[() for _ in range(dim)] for _ in range(dim)]
        for i in range(dim):
            for j in range(dim):
                if rng.random() < 0.4:
                    continue
                pool = parts[part_of[i]] if part_of[i] == part_of[j] else range(dim)
                cell = [(rng.choice(pool), rng.choice((-3, -2, -1, 1, 2, 3)))
                        for _ in range(rng.randint(1, 2))]
                if ring.kind == "Q":
                    cell = [(k, Fraction(c, rng.randint(1, 2))) for k, c in cell]
                table[i][j] = cell
        alg = LieAlgebra(ring, [f"b{i}" for i in range(dim)], table)
        if {v.kind for v in validate_algebra(alg).violations} == {"alternating", "jacobi"}:
            return alg


def failing_tables():
    """(name, algebra, split): the three sl2_bad_*.alg goldens, and seeded
    random 3-5-dimensional tables that fail both axioms, over each ring."""
    rng = random.Random(30)
    for ring in FAILING_RINGS:
        for bad in ("alternating", "jacobi", "split"):
            text = (GOLDEN / f"sl2_bad_{bad}.alg").read_text()
            yield (f"sl2_bad_{bad} {ring}",) + parse_spec(text.replace("ring Z", f"ring {ring}")).build()
        for dim in (3, 4, 4, 5):
            cut = rng.randint(1, dim - 1)
            letters = list(range(dim))
            rng.shuffle(letters)
            parts = (tuple(sorted(letters[:cut])), tuple(sorted(letters[cut:])))
            alg = random_failing_table(rng, make_ring(ring), dim, parts)
            yield f"random dim {dim} {ring}", alg, SplitDecomposition(alg, *parts)
