"""The calculator on every coordinate split of small algebras.

A coordinate split cuts the basis into two nonempty parts, each closed
under the bracket.  The closure check here reads the structure table
directly, so the splits are enumerated without liealg's validation; the
ActionContext still validates each one.  Every split of sl(2), sl(3) over Z
and Z/4, the Heisenberg algebra and the abelian algebra is run, 16 seeded
splits of sl(4)'s 444 over Z and over Z/4, and a few splits each of a
fixed-seed sample of preorder algebras: for a preorder on 3 or 4 points,
the matrices E_ij with i before-or-equal j span an associative algebra
(E_ij E_jk = E_ik), hence a Lie algebra with integer constants under the
commutator, read by checks._matrix_algebra.  On each split,
normal_order(check=True) runs on seeded words and check_lie_action on
every ordered basis pair for one seeded state.
"""

import random
from fractions import Fraction

import pytest

from envnorm.checks import (
    _matrix_algebra,
    abelian_algebra,
    heisenberg_algebra,
    sl2_algebra,
    sl_algebra,
)
from envnorm.envelope import EnvElement, StateElement
from envnorm.liealg import SplitDecomposition
from envnorm.normalform import ActionContext, check_lie_action, normal_order
from envnorm.ring import make_ring

Z, Z4 = make_ring("Z"), make_ring("Zmod 4")
NAMED = {  # name -> (algebra, number of coordinate splits)
    "sl2_Z": (sl2_algebra(Z), 4),
    "sl3_Z": (sl_algebra(3, Z), 44),
    "sl3_Z4": (sl_algebra(3, Z4), 44),
    "heisenberg_Z": (heisenberg_algebra(Z), 4),
    "abelian_Z": (abelian_algebra(Z), 6),
}
PREORDER_RINGS = ("Z", "Zmod 2", "Zmod 4", "Q")
PREORDERS = 12  # each over every ring in PREORDER_RINGS
SPLITS_PER_PREORDER_ALGEBRA = 4
SL4_SPLITS = 444
SL4_SAMPLED_SPLITS = 16  # over each of Z and Z/4


def _closed(algebra, part: frozenset) -> bool:
    table = algebra.table
    return all(k in part for a in part for b in part for k, _c in table[a][b])


def coordinate_splits(algebra) -> list:
    """Every (part 1, part 2) pair of nonempty bracket-closed parts."""
    n = algebra.dim
    closed = [
        _closed(algebra, frozenset(i for i in range(n) if mask >> i & 1))
        for mask in range(1 << n)
    ]
    full = (1 << n) - 1
    return [
        (tuple(i for i in range(n) if mask >> i & 1),
         tuple(i for i in range(n) if not mask >> i & 1))
        for mask in range(1, full)
        if closed[mask] and closed[full ^ mask]
    ]


def preorder_points(rng) -> list:
    """The (i, j) with i before-or-equal j of a random preorder on 3 or 4
    points: a random relation closed reflexively and transitively."""
    m = rng.choice((3, 4))
    rel = [[i == j or rng.random() < 0.3 for j in range(m)] for i in range(m)]
    for k in range(m):
        for i in range(m):
            for j in range(m):
                rel[i][j] = rel[i][j] or (rel[i][k] and rel[k][j])
    return [(i, j) for i in range(m) for j in range(m) if rel[i][j]]


def preorder_algebra(points, ring):
    names = [f"E{i + 1}{j + 1}" for i, j in points]
    return _matrix_algebra(ring, names, [{p: 1} for p in points])


def _coeff(rng, ring):
    if ring.kind == "Q" and rng.random() < 0.5:
        return Fraction(rng.choice((-3, -1, 1, 5)), rng.choice((2, 3)))
    return rng.choice((-3, -1, 1, 2, 5))


def _word(rng, letters, longest):
    return tuple(rng.choices(letters, k=rng.randint(0, longest)))


def run_split(algebra, part1, part2, rng):
    """normal_order(check=True) on seeded words, and check_lie_action on
    every ordered basis pair for one seeded state, under part1 | part2."""
    ctx = ActionContext(algebra, SplitDecomposition(algebra, part1, part2))
    basis = range(algebra.dim)
    for _ in range(3):
        u = EnvElement(algebra, {
            _word(rng, basis, 4): _coeff(rng, algebra.ring) for _ in range(2)
        })
        normal_order(ctx, u, check=True)
    s = StateElement(ctx.split, {
        (_word(rng, part1, 2), _word(rng, part2, 2)): _coeff(rng, algebra.ring)
        for _ in range(3)
    })
    vectors = [algebra.basis_vector(i) for i in basis]
    for g in vectors:
        for h in vectors:
            assert check_lie_action(ctx, g, h, s), (part1, part2, g, h, s)


@pytest.mark.parametrize("name", list(NAMED))
def test_every_coordinate_split(name):
    algebra, count = NAMED[name]
    splits = coordinate_splits(algebra)
    assert len(splits) == count
    rng = random.Random(f"generated-{name}")
    for part1, part2 in splits:
        run_split(algebra, part1, part2, rng)


@pytest.mark.parametrize("ring", [Z, Z4], ids=["Z", "Z4"])
def test_sl4_sampled_splits(ring):
    algebra = sl_algebra(4, ring)
    splits = coordinate_splits(algebra)
    assert len(splits) == SL4_SPLITS
    rng = random.Random(f"generated-sl4-{ring.descriptor()}")
    for part1, part2 in rng.sample(splits, SL4_SAMPLED_SPLITS):
        run_split(algebra, part1, part2, rng)


def test_preorder_algebras():
    rng = random.Random("generated-preorders")
    for _ in range(PREORDERS):
        points = preorder_points(rng)
        for descriptor in PREORDER_RINGS:
            algebra = preorder_algebra(points, make_ring(descriptor))
            splits = coordinate_splits(algebra)
            for part1, part2 in rng.sample(splits, min(len(splits), SPLITS_PER_PREORDER_ALGEBRA)):
                run_split(algebra, part1, part2, rng)

