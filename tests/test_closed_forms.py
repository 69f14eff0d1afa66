"""The calculator and the oracle against closed normal forms.

Heisenberg y^n x^m, sl(2) e f^n, sl(2) e^a f^b and sl(2) h^n e have normal
forms in closed form (``closed_forms``, plain integers, no envnorm import).  Both section_s and
normal_order(check=True), which also runs the straightening oracle, must
give them exactly, over Z and over Z/2, Z/3 and Z/4.  The straightener nests
about two calls per letter of the word, so under the default recursion limit
of 1 000 a word stays under about 500 letters: normal_order of y^n x, e f^n
and h^n e raises RecursionError from n = 498 in a plain script, and the
400-letter cases here need a limit near 810.
"""

import random

import pytest

from closed_forms import heisenberg_ynxm, sl2_eafb, sl2_efn, sl2_hne
from envnorm.checks import builtin_examples, heisenberg_algebra, sl2_algebra
from envnorm.envelope import EnvElement, _straightener, straighten
from envnorm.liealg import LieAlgebra, SplitDecomposition
from envnorm.normalform import ActionContext, normal_order, section_s
from envnorm.ring import make_ring
from reference import plain

RINGS = {"Z": None, "Zmod 2": 2, "Zmod 3": 3, "Zmod 4": 4}
HEISENBERG = [(1, 1), (3, 2), (6, 5), (9, 9), (50, 1), (300, 1), (400, 1)]
SL2 = [1, 5, 45, 80, 400]
SL2_EAFB = [(1, 1), (2, 3), (5, 4), (8, 8), (12, 10), (16, 16), (24, 20)]
SL2_HNE = [1, 5, 30, 60, 300, 400]


def _agree(alg, part1, part2, word, expected):
    ctx = ActionContext(alg, SplitDecomposition(alg, part1, part2))
    u = EnvElement.word(alg, word)
    assert plain(section_s(ctx, u)) == expected
    assert plain(normal_order(ctx, u, check=True)) == expected


@pytest.mark.parametrize("ring", list(RINGS))
@pytest.mark.parametrize("n, m", HEISENBERG)
def test_heisenberg_ynxm(n, m, ring):
    alg = heisenberg_algebra(make_ring(ring))  # x, y, c; split x | y c
    _agree(alg, (0,), (1, 2), (1,) * n + (0,) * m, heisenberg_ynxm(n, m, RINGS[ring]))


@pytest.mark.parametrize("ring", list(RINGS))
@pytest.mark.parametrize("n", SL2)
def test_sl2_efn(n, ring):
    alg = sl2_algebra(make_ring(ring))  # e, f, h; split f | e h
    _agree(alg, (1,), (0, 2), (0,) + (1,) * n, sl2_efn(n, RINGS[ring]))


def test_sl2_efn_section_straightens_no_word():
    # the section's left words f^k and its right words are built sorted, so
    # section_s of e f^n gives the closed form with no word passed to form
    entry = builtin_examples()["sl2_Z"]  # new, so its memos start empty; split f | e h
    ctx = ActionContext(entry.algebra, entry.split)
    for n in SL2:
        u = EnvElement.word(entry.algebra, (0,) + (1,) * n)
        assert plain(section_s(ctx, u)) == sl2_efn(n)
        assert not _straightener(entry.algebra).memo, n


@pytest.mark.parametrize("ring", list(RINGS))
@pytest.mark.parametrize("a, b", SL2_EAFB)
def test_sl2_eafb(a, b, ring):
    alg = sl2_algebra(make_ring(ring))  # e, f, h; split f | e h
    _agree(alg, (1,), (0, 2), (0,) * a + (1,) * b, sl2_eafb(a, b, RINGS[ring]))


@pytest.mark.parametrize("ring", list(RINGS))
@pytest.mark.parametrize("n", SL2_HNE)
def test_sl2_hne(n, ring):
    alg = sl2_algebra(make_ring(ring))  # e, f, h; split f | h e
    _agree(alg, (1,), (2, 0), (2,) * n + (0,), sl2_hne(n, RINGS[ring]))


def _wide_heisenberg(ring, pairs=150):
    """Heisenberg on x0 y0 x1 y1 ... c: [x_i, y_i] = c, dimension 2 pairs + 1."""
    names = [name for i in range(pairs) for name in (f"x{i}", f"y{i}")] + ["c"]
    brackets = {(f"x{i}", f"y{i}"): {"c": 1} for i in range(pairs)}
    return LieAlgebra.from_brackets(ring, names, brackets)


WIDE_PAIR = 140  # x140, y140 and c are the letters 280, 281 and 300


@pytest.mark.parametrize("ring", ["Z", "Zmod 4"])
@pytest.mark.parametrize("n, m", [(1, 1), (6, 5), (40, 1)])
def test_heisenberg_ynxm_with_letters_past_255(n, m, ring):
    # a word's letters are its basis indices at any dimension, past 255 too
    alg = _wide_heisenberg(make_ring(ring))
    assert alg.dim == 301
    x, y, c = 2 * WIDE_PAIR, 2 * WIDE_PAIR + 1, alg.dim - 1
    split = SplitDecomposition(alg, tuple(range(0, alg.dim - 1, 2)),
                               tuple(range(1, alg.dim - 1, 2)) + (c,))
    # valid by construction: validating all C(301, 3) triples takes seconds
    ctx = ActionContext(alg, split, validate=False)
    relabel = {0: x, 1: y, 2: c}
    expected = {(tuple(relabel[k] for k in w1), tuple(relabel[k] for k in w2)): coeff
                for (w1, w2), coeff in heisenberg_ynxm(n, m, RINGS[ring]).items()}
    got = normal_order(ctx, EnvElement.word(alg, (y,) * n + (x,) * m), check=True)
    assert plain(got) == expected


def test_straighten_with_letters_past_255_matches_heisenberg():
    rng = random.Random("wide-heisenberg")
    alg, small = _wide_heisenberg(make_ring("Z")), heisenberg_algebra(make_ring("Z"))
    letters = (2 * WIDE_PAIR, 2 * WIDE_PAIR + 1, alg.dim - 1)  # x, y, c
    for _ in range(5):
        order = list(range(alg.dim))
        rng.shuffle(order)
        small_order = sorted(range(3), key=lambda k: order.index(letters[k]))
        words = [tuple(rng.choices(range(3), k=rng.randint(1, 9))) for _ in range(4)]
        u = EnvElement(small, {w: rng.randint(-3, 3) or 1 for w in words})
        wide = EnvElement(alg, {tuple(letters[k] for k in w): c for w, c in u.terms.items()})
        want = {tuple(letters[k] for k in w): c for w, c in plain(straighten(u, small_order)).items()}
        assert plain(straighten(wide, order)) == want


def test_sl2_eafb_sees_a_flipped_h_e_bracket():
    # [h, e] = -2e (and [e, h] = 2e) breaks Jacobi, so the context skips
    # validation; the calculator then leaves the closed form
    alg = sl2_algebra(make_ring("Z"))
    e, f, h = 0, 1, 2
    table = [list(row) for row in alg.table]
    for x, y in ((h, e), (e, h)):
        table[x][y] = [(k, -c) for k, c in table[x][y]]
    bad = LieAlgebra(alg.ring, alg.basis, table)
    ctx = ActionContext(bad, SplitDecomposition(bad, (f,), (e, h)), validate=False)
    u = EnvElement.word(bad, (e,) * 2 + (f,) * 3)
    assert plain(section_s(ctx, u)) != sl2_eafb(2, 3)
