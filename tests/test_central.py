"""Central elements as exact oracles.

For z central in U(g) and any u, z u - u z is zero in U(g).  So section_s,
oracle_normal_order and straighten must each turn it into exactly zero, the
calculator under every coordinate split that validates.  The identity comes
from mathematics, not from another engine, so a fault in one engine shows
without the others.  The elements are plain data (``central``, no envnorm
import): twice the sl(2) Casimir over Z and Q, the p-center of sl(2) over
Z/2, Z/3 and Z/5, and heisenberg c.
"""

import itertools
import random
from fractions import Fraction

import pytest

from central import heisenberg_center, sl2_casimir, sl2_p_center
from envnorm.checks import heisenberg_algebra, sl2_algebra
from envnorm.envelope import EnvElement, oracle_normal_order, straighten
from envnorm.liealg import SplitDecomposition, validate
from envnorm.normalform import ActionContext, section_s
from envnorm.ring import make_ring

CASES = (
    [("sl2 casimir", sl2_algebra, ring, sl2_casimir()) for ring in ("Z", "Q")]
    + [(f"sl2 p-center {k}", sl2_algebra, f"Zmod {p}", z)
       for p in (2, 3, 5) for k, z in enumerate(sl2_p_center(p))]
    + [("heisenberg c", heisenberg_algebra, "Z", heisenberg_center())]
)


def _valid_splits(alg):
    """Every split into two nonempty coordinate parts that validates."""
    for k in range(1, alg.dim):
        for part1 in itertools.combinations(range(alg.dim), k):
            part2 = tuple(i for i in range(alg.dim) if i not in part1)
            split = SplitDecomposition(alg, part1, part2)
            if validate(alg, split).ok:
                yield split


def _random_elt(rng, alg, max_deg):
    """1-3 words of degree <= max_deg; over Q their coefficients are a/b."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        word = tuple(rng.choices(range(alg.dim), k=rng.randint(0, max_deg)))
        coeff = rng.choice((-3, -2, -1, 1, 2, 5))
        if alg.ring.kind == "Q":
            coeff = Fraction(coeff, rng.randint(1, 4))
        terms[word] = coeff
    return EnvElement(alg, terms)


@pytest.mark.parametrize("name, make, ring, z", CASES, ids=[f"{c[0]} {c[2]}" for c in CASES])
def test_commutator_with_a_central_element_is_zero(name, make, ring, z):
    alg = make(make_ring(ring))
    z = EnvElement(alg, z)
    contexts = [ActionContext(alg, split) for split in _valid_splits(alg)]
    assert len(contexts) >= 4
    rng = random.Random(f"central {name} {ring}")
    nonzero = 0  # commutators that are not zero as words, before straightening
    for _ in range(20):
        u = _random_elt(rng, alg, 3)
        comm = z * u - u * z
        nonzero += not comm.is_zero()
        assert straighten(comm).is_zero(), u
        for ctx in contexts:
            assert section_s(ctx, comm).is_zero(), (ctx.split, u)
            assert oracle_normal_order(comm, ctx.split).is_zero(), (ctx.split, u)
    assert nonzero >= 10
