"""The section is a map of coalgebras: a witness that shares no code with it.

Every element x of g is primitive in U(g), Delta(x) = x (x) 1 + 1 (x) x, and
Delta is an algebra map, so a word w = x_1 ... x_n has
Delta(w) = sum over subsets S of its positions of w_S (x) w_(S^c), w_S the
letters at S in their order.  The factor multiplication
mu: U(g1) (x) U(g2) -> U(g) is then an isomorphism of coalgebras (PBW, as
Milnor and Moore state it), the source carrying
Delta(a (x) b) = sum (a' (x) b') (x) (a'' (x) b''), so its inverse, the
section s, satisfies

    (s (x) s)(Delta u) = Delta(s(u)).

The left side sections subwords of u; the right side reads Delta of the
canonical state s(u) off its sorted factor words, and a subsequence of a
sorted word is sorted, so neither side straightens anything here.  The
identity holds over every ring and every split, needs no oracle and no
envelope product, and Delta is written in tests/reference.py.
"""

import functools
import itertools
from pathlib import Path

import pytest

from envnorm.checks import RegistryEntry, SuiteConfig, builtin_examples, generate
from envnorm.cli import parse_spec
from envnorm.envelope import EnvElement
from envnorm.normalform import ActionContext, section_s
from reference import add_all, delta_of_state, plain, splits

REG = builtin_examples()
GOLDEN = Path(__file__).parent / "golden"
# every valid golden spec: besides the builtin rings, Z/2 on sl2 and Q with
# a structure constant 1/3, and other splits
_SPECS = ("heisenberg.alg", "sl2.alg", "sl2_borel.alg", "sl2_mod2.alg", "sl2_q_third.alg",
          "sl3.alg", "sl4.alg")


def _delta_of_section(ctx, u):
    """(s (x) s)(Delta u) as {((a1, a2), (b1, b2)): raw}."""
    q = ctx.algebra.ring.modulus
    section = functools.cache(lambda word: plain(section_s(ctx, EnvElement.word(ctx.algebra, word))))
    out = {}
    for w, c in plain(u).items():
        for left, right in splits(w):
            for a, ca in section(left).items():
                add_all(out, {(a, b): cb for b, cb in section(right).items()}, c * ca, q)
    return out


def _entries():
    for name in REG:
        yield REG[name]
    for spec in _SPECS:
        algebra, split = parse_spec((GOLDEN / spec).read_text(encoding="utf-8")).build()
        yield RegistryEntry(spec, algebra, split)


@pytest.mark.parametrize("entry", list(_entries()), ids=lambda e: e.name)
def test_section_is_a_coalgebra_map(entry):
    ctx = ActionContext(entry.algebra, entry.split)
    q = entry.algebra.ring.modulus
    cfg = SuiteConfig(seed=23, max_degree=5)
    degrees = set()
    for k in range(30):
        u = generate("element", cfg, entry, k)
        degrees.update(map(len, u.terms))
        assert _delta_of_section(ctx, u) == delta_of_state(plain(section_s(ctx, u)), q), u
    assert max(degrees) == 5


@pytest.mark.parametrize("name", ["sl2_Z", "sl3_Z4", "heisenberg_Z"])
def test_worst_order_words_are_coalgebra_maps_too(name):
    # every part-2 letter before every part-1 letter: each part-1 letter
    # acts across the whole part-2 prefix
    entry = REG[name]
    ctx = ActionContext(entry.algebra, entry.split)
    q, one = entry.algebra.ring.modulus, entry.algebra.ring.one
    part1, part2 = entry.split.part1, entry.split.part2
    for k in range(1, 5):
        for right, left in itertools.product(part2, part1):
            u = EnvElement.word(entry.algebra, (right,) * k + (left,) * (5 - k), one)
            assert _delta_of_section(ctx, u) == delta_of_state(plain(section_s(ctx, u)), q), u
