import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from envnorm.checks import (
    builtin_examples,
    heisenberg_algebra,
    sl2_algebra,
    sl_algebra,
    sl_triangular_split,
)
from envnorm.cli import parse_spec
from envnorm.envelope import (
    EnvElement,
    StateElement,
    _straightener,
    env_eq,
    env_mul,
    mu_state,
    oracle_normal_order,
    state_canon,
    state_eq,
    straighten,
)
from envnorm.liealg import GVector, LieAlgebra, SplitDecomposition
from envnorm.normalform import ActionContext, act, normal_order, section_s
from envnorm.ring import RingMismatchError, make_ring
from failing_tables import failing_tables
import reference
from reference import plain

Z = make_ring("Z")
REG = builtin_examples()
GOLDEN = Path(__file__).parent / "golden"

# index shorthands for sl2 basis e f h
E, F, H = 0, 1, 2


@pytest.fixture
def sl2():
    return sl2_algebra(Z)


def w(alg, letters, coeff=1):
    return EnvElement.word(alg, letters, coeff)


# ---------------------------------------------------------------- linear ops

def test_linear_ops(sl2):
    a = w(sl2, (E, F), 2)
    assert (a + w(sl2, (E, F), -2)).is_zero()
    assert a.scale(0).is_zero()
    two_terms = w(sl2, (E,)) + w(sl2, (F,))
    assert len(two_terms.terms) == 2
    assert (-a) + a == EnvElement.zero(sl2)


def test_env_mul(sl2):
    assert w(sl2, (E,)) * w(sl2, (F,)) == w(sl2, (E, F))
    v = w(sl2, (F, H), 3)
    assert EnvElement.unit(sl2) * v == v
    lhs = (w(sl2, (E,)) + w(sl2, (F,))) * w(sl2, (H,))
    assert lhs == w(sl2, (E, H)) + w(sl2, (F, H))
    # associativity on random triples
    rng = random.Random(5)
    for _ in range(50):
        xs = [
            EnvElement(sl2, {tuple(rng.choices(range(3), k=rng.randint(0, 3))): Z.scalar(rng.randint(-4, 4))})
            for _ in range(3)
        ]
        assert env_mul(env_mul(xs[0], xs[1]), xs[2]) == env_mul(xs[0], env_mul(xs[1], xs[2]))


def test_mu_state(sl2):
    split = SplitDecomposition(sl2, (F,), (E, H))
    s = StateElement.term(split, (F,), (E,))
    assert mu_state(s) == w(sl2, (F, E))
    s2 = s + StateElement.term(split, (), (H,))
    assert mu_state(s2) == w(sl2, (F, E)) + w(sl2, (H,))
    assert mu_state(StateElement.unit(split)) == EnvElement.unit(sl2)


# ------------------------------------------------------------- straightening

def test_straighten_sl2_fe(sl2):
    # [f,e] = -h (matrix commutator E21*E12 - E12*E21 = E22 - E11), so
    # f e  ->  e f - h
    got = straighten(w(sl2, (F, E)))
    assert got == w(sl2, (E, F)) + w(sl2, (H,), -1)


def test_straighten_sorted_word_is_fixed(sl2):
    v = w(sl2, (E, E, F, H), 5)
    assert straighten(v) == v


def test_straighten_mod2(sl2):
    alg2 = sl2.change_ring(make_ring("Zmod 2"))
    # [h,e] = 2e vanishes mod 2: h e -> e h exactly
    got = straighten(EnvElement.word(alg2, (H, E)))
    assert got == EnvElement.word(alg2, (E, H))


def test_straighten_is_idempotent(sl2):
    rng = random.Random(11)
    for _ in range(100):
        u = _random_elt(rng, sl2, 4)
        once = straighten(u)
        assert straighten(once) == once


def test_straighten_respects_product_mod_canonicalization(sl2):
    rng = random.Random(12)
    for _ in range(60):
        u = _random_elt(rng, sl2, 4)
        v = _random_elt(rng, sl2, 4)
        direct = straighten(env_mul(u, v))
        canon_first = straighten(env_mul(straighten(u), straighten(v)))
        assert direct == canon_first


def _worklist(u, order=None) -> tuple:
    """u's worklist form under ``order`` and its rewrite count (see reference)."""
    return reference.worklist(u.algebra.table, u.algebra.ring.modulus, plain(u), order)


def test_straighten_termination_counts():
    branching = None
    rng = random.Random(13)
    for _ in range(40):
        alg = sl_algebra(3, Z)  # fresh, so its straightening memo starts empty
        if branching is None:
            branching = 1 + max(
                len(alg.table[i][j])
                for i in range(alg.dim)
                for j in range(alg.dim)
            )
        d = rng.randint(0, 6)
        u = EnvElement.word(alg, tuple(rng.choices(range(alg.dim), k=d)))
        stats = {}
        straighten(u, stats=stats)
        # generous a-priori ceiling on the total rewrite count; the memo never
        # rewrites more than the uncached worklist (which asserts the measure)
        assert stats["steps"] <= max(1, d * d) * branching**d
        assert stats["steps"] <= _worklist(u)[1]


def test_straighten_with_and_without_stats_matches_worklist():
    for name in ("sl2_Z", "sl3_Z", "sl3_Z4", "sl2_Q", "sl3_Z2", "sl3_Z3"):
        alg = REG[name].algebra
        rng = random.Random(14)
        for _ in range(50):
            u = _random_elt(rng, alg, 5)
            expected = _worklist(u)[0]
            assert plain(straighten(u)) == expected, name
            assert plain(straighten(u, stats={})) == expected, name


def test_straighten_matches_worklist_under_shuffled_orders():
    for name in ("sl2_Z", "sl3_Z", "sl3_Z4", "sl2_Q", "sl3_Z2", "sl3_Z3"):
        alg = REG[name].algebra
        rng = random.Random(21)
        for _ in range(3):
            order = list(range(alg.dim))
            rng.shuffle(order)
            for _ in range(20):
                u = _random_elt(rng, alg, 5)
                assert plain(straighten(u, order)) == _worklist(u, order)[0], (name, order)


def test_state_canon_matches_factorwise_worklist():
    rng = random.Random(22)
    for entry in REG.entries():
        split, table, q = entry.split, entry.algebra.table, entry.ring.modulus
        for _ in range(30):
            s = _random_state(rng, split, 4)
            assert plain(state_canon(s)) == reference.worklist_canon(table, q, plain(s)), entry.name


def test_oracle_matches_worklist_cut_at_the_boundary():
    rng = random.Random(23)
    for entry in REG.entries():
        split, table, q = entry.split, entry.algebra.table, entry.ring.modulus
        for _ in range(30):
            u = _random_elt(rng, entry.algebra, 5)
            expected = reference.worklist_cut(table, q, plain(u), split.part1)
            assert plain(oracle_normal_order(u, split)) == expected, entry.name


def test_straighten_and_state_canon_match_worklist_on_failing_tables():
    # On a table that fails validation the normal form depends on the
    # rewriting strategy; the memoized straightener must still give the
    # leftmost-inversion result, word for word, under every order.
    rng = random.Random(31)
    for name, alg, split in failing_tables():
        orders = [None]
        for _ in range(2):
            orders.append(list(range(alg.dim)))
            rng.shuffle(orders[-1])
        for order in orders:
            for _ in range(15):
                u = _random_elt(rng, alg, 5)
                assert plain(straighten(u, order)) == _worklist(u, order)[0], (name, order)
        for _ in range(15):
            s = _random_state(rng, split, 4)
            try:
                want = StateElement(split, reference.worklist_canon(alg.table, alg.ring.modulus, plain(s)))
            except ValueError:  # a factor straightens out of its part
                with pytest.raises(ValueError, match="not in part"):
                    state_canon(s)
            else:
                assert state_canon(s) == want, name


def test_section_is_canonical_on_failing_tables():
    # section_s straightens as it goes and canonicalizes nothing at the end,
    # so whatever it returns must already be canonical, on tables that fail
    # validation too; a factor word that straightens out of its part is a
    # ValueError from the part check.
    rng = random.Random(32)
    returned = 0
    for name, alg, split in failing_tables():
        ctx = ActionContext(alg, split, validate=False)
        for _ in range(15):
            u = _random_elt(rng, alg, 4)
            try:
                calc = section_s(ctx, u)
            except ValueError as err:
                assert "not in part" in str(err), name
                continue
            returned += 1
            assert calc == state_canon(calc), (name, u)
    assert returned > 300


def test_straighten_and_state_canon_match_worklist_in_closed_tails():
    # A closed tail of an order is the set of letters ranked t or more when
    # every bracket among them has only such letters: n- and b- under sl(n)'s
    # split order, b- under its declaration order.  A word that is a sorted
    # run below such a tail and then tail letters straightens with that run
    # untouched, and must still give the leftmost-inversion form.
    rng = random.Random(33)
    for n in (3, 4):
        alg = sl_algebra(n, Z)
        split = sl_triangular_split(alg, n)
        ctx = ActionContext(alg, split)
        for order in (None, split.split_order()):
            ranked = list(range(alg.dim)) if order is None else list(order)
            # the last two letters commute, so they are a closed tail, and
            # the first letter waits outside it: the memo keys on the tail
            fresh = sl_algebra(n, Z)
            straighten(EnvElement.word(fresh, ranked[:1] + ranked[:-3:-1]), order)
            assert _memo_holds(fresh, ranked[:-3:-1]), (n, order)
            # every word of three letters: a letter before an inverted pair
            # is outside the tail of the pair's lower letter, or inside it
            for word in itertools.product(range(alg.dim), repeat=3):
                u = EnvElement.word(alg, word)
                assert plain(straighten(u, order)) == _worklist(u, order)[0], (n, order, word)
            for _ in range(30):
                cut = rng.randint(1, alg.dim - 1)
                head = sorted(rng.choices(ranked[:cut], k=rng.randint(1, 3)), key=ranked.index)
                u = EnvElement.word(alg, head + rng.choices(ranked[cut:], k=rng.randint(2, 4)))
                assert plain(straighten(u, order)) == _worklist(u, order)[0], (n, order, u)
        for _ in range(20):
            s = _random_state(rng, split, 4)
            assert plain(state_canon(s)) == reference.worklist_canon(alg.table, None, plain(s)), (n, s)
        # worst-order words, part 2 before part 1: each left word times its
        # right word is uppers, then the diagonal, then lowers
        for d in range(2, 9):
            word = rng.choices(split.part2, k=d // 2) + rng.choices(split.part1, k=d - d // 2)
            flat = mu_state(section_s(ctx, EnvElement.word(alg, word)))
            for order in (None, split.split_order()):
                assert plain(straighten(flat, order)) == _worklist(flat, order)[0], (n, word)


def _memo_holds(alg, letters) -> bool:
    """Whether a straightening memo of alg holds the word on its own."""
    word = "".join(map(chr, letters))  # the memo keys engine (str) words
    return any(word in form.memo for form in alg._forms.values())


def _tail_table(order, read_stays):
    """A non-alternating table on b0 b1 b2 whose nonzero cells are [r, q],
    the one a rewrite under ``order`` = (p, q, r) reads, and its mirror
    [q, r].  One gives q, which stays in the tail {q, r}; the other gives p,
    which leaves it: the cell read stays when ``read_stays``."""
    p, q, r = order
    stay, leave = ((q, 1),), ((p, 1),)
    table = [[()] * 3 for _ in range(3)]
    table[r][q], table[q][r] = (stay, leave) if read_stays else (leave, stay)
    return LieAlgebra(Z, ["b0", "b1", "b2"], table)


def test_straighten_reads_the_rewritten_cell_to_close_a_tail():
    # The tail {q, r} is closed exactly when the cell the rewrite reads
    # stays in it; its mirror, which no rewrite under this order reads,
    # must not decide it.
    rng = random.Random(34)
    for order in itertools.permutations(range(3)):
        p, q, r = order
        for read_stays in (True, False):
            alg = _tail_table(order, read_stays)
            # p r q keys the memo on r q exactly when the tail is closed
            straighten(EnvElement.word(alg, (p, r, q)), order)
            assert _memo_holds(alg, (r, q)) == read_stays, (order, read_stays)
            for _ in range(25):
                word = [p] * rng.randint(1, 2) + rng.choices((q, r), k=rng.randint(2, 5))
                u = EnvElement.word(alg, word)
                assert plain(straighten(u, order)) == _worklist(u, order)[0], (order, read_stays, word)


def test_straighten_counts_only_new_rewrites():
    alg = sl_algebra(3, Z)
    u = EnvElement.word(alg, tuple(reversed(range(alg.dim))))
    stats = {}
    first = straighten(u, stats=stats)
    assert stats["steps"] > 0 and stats["spawned"] >= stats["steps"]
    counted = dict(stats)
    assert straighten(u, stats=stats) == first
    assert stats == counted  # every word is in the algebra's memo now


def test_straighten_stats_count_each_order_on_its_own():
    # Straightening under another order between two declaration-order calls
    # leaves their counts as on an algebra that made those two calls alone,
    # and a dict that already holds counts is added to.
    fresh, alg = sl_algebra(3, Z), sl_algebra(3, Z)
    n = alg.dim
    first = tuple(reversed(range(n)))
    second = (7, 5, 3, 1, 6, 4, 2, 0)
    other = tuple(reversed(sl_triangular_split(alg, 3).split_order()))
    expected = []
    for word in (first, second):
        stats = {}
        straighten(EnvElement.word(fresh, word), stats=stats)
        expected.append(stats)
    assert all(stats["steps"] > 0 for stats in expected)
    other_fresh = {}
    straighten(EnvElement.word(sl_algebra(3, Z), first), other, stats=other_fresh)
    assert other_fresh["steps"] > 0

    u, v = EnvElement.word(alg, first), EnvElement.word(alg, second)
    straighten(u, other)
    stats = {}
    straighten(u, stats=stats)
    assert stats == expected[0]
    straighten(v, other)
    straighten(v, range(n)[::-1])
    stats = {"steps": 5, "spawned": 7}
    straighten(v, stats=stats)
    assert stats == {"steps": 5 + expected[1]["steps"], "spawned": 7 + expected[1]["spawned"]}
    # the other order has counted nothing for u since its first call
    stats = {"steps": 1}
    straighten(u, other, stats=stats)
    assert stats == {"steps": 1, "spawned": 0}
    # and on a word new to it, as many as on a fresh algebra
    stats = {}
    other_alg = sl_algebra(3, Z)
    straighten(EnvElement.word(other_alg, second), stats={})
    straighten(EnvElement.word(other_alg, first), other, stats=stats)
    assert stats == other_fresh


def test_straighten_stats_keep_the_counts_of_a_call_that_raises():
    # heisenberg y^700 x recurses past the default limit; the rewrites done
    # before the RecursionError are still added.  The exact count depends
    # on the caller's own depth, so only its growth is pinned.
    alg = heisenberg_algebra(Z)
    x, y = alg.index["x"], alg.index["y"]
    stats = {"steps": 5}
    with pytest.raises(RecursionError):
        straighten(EnvElement.word(alg, (y,) * 700 + (x,)), stats=stats)
    assert set(stats) == {"steps", "spawned"}
    assert stats["steps"] > 5 and stats["spawned"] > 0


@pytest.mark.parametrize("n, names, counts", [
    (3, "E32 E21 E31 E21 E12 E13 E23 H1", [(77, 146), (139, 265)]),
    (4, "E41 E32 E43 E21 E13 E24 E34 H2", [(88, 148), (157, 272)]),
], ids=["sl3", "sl4"])
def test_straighten_stats_of_worst_order_words(n, names, counts):
    # Part-2 letters, then part-1 letters: the prefix rule meets words m z
    # that are sorted and words m z whose m has a head below z's closed
    # tail, under both orders, and decides them without a call of their
    # own.  The counts, (steps, spawned) on a fresh algebra under the
    # declaration order and then the split order, are pinned.
    got = []
    for by_split in (False, True):
        alg = sl_algebra(n, Z)
        order = sl_triangular_split(alg, n).split_order() if by_split else None
        u = EnvElement.word(alg, [alg.index[name] for name in names.split()])
        stats = {}
        assert plain(straighten(u, order, stats=stats)) == _worklist(u, order)[0]
        got.append((stats["steps"], stats["spawned"]))
    assert got == counts


def test_memos_hold_no_word_the_prefix_rule_decides_in_place():
    # The prefix rule appends z to each sorted word m of its prefix's form;
    # when m z is sorted, or m has a head below z's closed tail, it takes
    # that form in place, so m z gets no memo entry.  After normal_order
    # with its checks of an sl4 worst-order word, the declaration order's
    # memo holds 4 779 words and the split order's 2 906; each would exceed
    # its bound if every such m z were stored as well.
    alg = sl_algebra(4, Z)
    split = sl_triangular_split(alg, 4)
    names = "E42 E31 E32 E21 E41 E43 E12 E14 E23 H1 H2 H3"
    u = EnvElement.word(alg, [alg.index[name] for name in names.split()])
    normal_order(ActionContext(alg, split), u, check=True)
    assert len(_straightener(alg).memo) <= 5000
    assert len(_straightener(alg, split.split_order()).memo) <= 3000


def _fresh_tables():
    """(name, algebra, split), each algebra new, so its memos start empty:
    every builtin entry and the three sl2_bad_*.alg goldens."""
    for entry in builtin_examples().entries():
        yield entry.name, entry.algebra, entry.split
    for bad in ("alternating", "jacobi", "split"):
        yield (f"sl2_bad_{bad}",) + parse_spec((GOLDEN / f"sl2_bad_{bad}.alg").read_text()).build()


def test_memos_hold_only_words_that_need_a_rewrite():
    # A word built sorted is never passed to form: the prefix rule's m z
    # and the rewrite step's swapped and bracket words each join the form
    # where they are built.  So once only unsorted words have been
    # straightened, no key of the order's memo is sorted under it.
    rng = random.Random(35)
    for name, alg, split in _fresh_tables():
        orders = [None, split.split_order()] + [rng.sample(range(alg.dim), alg.dim) for _ in range(2)]
        for order in orders:
            rank = {chr(letter): r for r, letter in enumerate(order or range(alg.dim))}

            def is_sorted(w):
                return all(rank[a] <= rank[b] for a, b in zip(w, w[1:]))

            for _ in range(30):
                word = rng.choices(range(alg.dim), k=rng.randint(2, 6))
                if is_sorted("".join(map(chr, word))):
                    continue
                u = EnvElement.word(alg, word)
                assert plain(straighten(u, order)) == _worklist(u, order)[0], (name, order, word)
            memo = _straightener(alg, order).memo
            assert memo and not [w for w in memo if is_sorted(w)], (name, order)


def test_declaration_order_straightener_is_built_once_per_algebra():
    alg = sl_algebra(3, Z)
    form = _straightener(alg)
    assert _straightener(alg) is form
    assert _straightener(sl_algebra(3, Z)) is not form
    # one function per order: an explicit order gets its order's cached
    # function, and a stats call straightens through it
    explicit = _straightener(alg, order=range(alg.dim))
    assert explicit is form
    split_order = sl_triangular_split(alg, 3).split_order()
    by_split = _straightener(alg, split_order)
    assert _straightener(alg, split_order) is by_split is not form
    u = EnvElement.word(alg, tuple(reversed(range(alg.dim))))
    stats = {}
    straighten(u, stats=stats)
    straighten(u, split_order, stats=stats)
    assert _straightener(alg) is form and _straightener(alg, split_order) is by_split
    assert {id(f) for f in alg._forms.values()} == {id(form), id(by_split)}
    assert stats == {"steps": form.counts[0] + by_split.counts[0],
                     "spawned": form.counts[1] + by_split.counts[1]}
    word = "".join(map(chr, reversed(range(alg.dim))))  # form reads engine (str) words
    assert explicit(word) is form(word) is form.memo[word]


def test_constructors_coerce_raw_coefficients():
    sl2 = sl2_algebra(Z)
    split = SplitDecomposition(sl2, (F,), (E, H))
    ctx = ActionContext(sl2, split)
    u = EnvElement(sl2, {(E, F): 3})
    assert normal_order(ctx, u) == normal_order(ctx, EnvElement.word(sl2, (E, F), 3))
    s = StateElement(split, {((F,), (E,)): 2})
    assert normal_order(ctx, mu_state(s)) == StateElement.term(split, (F,), (E,), 2)
    g = GVector(sl2, (1, 0, 0))
    assert act(ctx, g, ctx.unit_state()) == act(ctx, sl2.basis_vector(E), ctx.unit_state())
    assert sl2.bracket(g, sl2.basis_vector(F)) == sl2.basis_vector(H)

    z4 = make_ring("Zmod 4")
    sl2_4 = sl2.change_ring(z4)
    split4 = SplitDecomposition(sl2_4, (F,), (E, H))
    assert EnvElement(sl2_4, {(E, F): 4}).is_zero()
    assert StateElement(split4, {((F,), (E,)): 4}).is_zero()
    assert GVector(sl2_4, (4, 0, 0)).is_zero()
    with pytest.raises(RingMismatchError):
        EnvElement(sl2_4, {(E,): Z.one})
    with pytest.raises(RingMismatchError):
        StateElement(split4, {((F,), ()): Z.one})
    with pytest.raises(RingMismatchError):
        GVector(sl2_4, (Z.one, z4.zero, z4.zero))


def test_straighten_agrees_with_representation_evaluation(sl2):
    # independent oracle: straightening must not change the image of an
    # element in any module; the irreps V_1..V_6 jointly separate the
    # words that appear at degree <= 6
    rng = random.Random(20260808)
    words = [(H, H, F, F, E, E)] + [
        tuple(rng.choices((E, F, H), k=rng.randint(0, 6))) for _ in range(40)
    ]
    for word in words:
        u = w(sl2, word)
        s = straighten(u)
        for n in range(1, 7):
            rep = reference.sl2_irrep(n)
            assert reference.evaluate(plain(u), rep) == reference.evaluate(plain(s), rep)


@pytest.mark.parametrize("n", [3, 4])
def test_engines_agree_in_the_defining_module(n):
    # independent witness: u, its straightened forms under shuffled orders,
    # and the merged section and oracle states act on the defining module of
    # sl(n) over Z by one matrix
    alg = sl_algebra(n, Z)
    split = sl_triangular_split(alg, n)
    ctx = ActionContext(alg, split)
    rep = [reference.sl_matrix(n, name) for name in alg.basis]
    rng = random.Random(f"defining-module-{n}")
    for _ in range(100):
        u = _random_elt(rng, alg, 6)
        order = list(range(alg.dim))
        rng.shuffle(order)
        want = reference.evaluate(plain(u), rep)
        for image in (straighten(u, order), mu_state(section_s(ctx, u)),
                      mu_state(oracle_normal_order(u, split))):
            assert reference.evaluate(plain(image), rep) == want, (u, order)


# ------------------------------------------------------------------ equality

def test_env_eq_examples(sl2):
    assert env_eq(w(sl2, (E, F)), w(sl2, (F, E)) + w(sl2, (H,)))  # ef = fe + h
    v = w(sl2, (H, F, E), 3)
    assert env_eq(v, v)
    assert not env_eq(w(sl2, (E,)), w(sl2, (F,)))


def test_env_eq_is_order_independent(sl2):
    rng = random.Random(15)
    orders = [(0, 1, 2), (2, 1, 0), (1, 2, 0)]
    agree = disagree = 0
    for _ in range(200):
        u = _random_elt(rng, sl2, 4)
        if rng.random() < 0.5:
            v = _relator_tweak(rng, sl2, u)
        else:
            v = _random_elt(rng, sl2, 4)
        verdicts = {straighten(u - v, order).is_zero() for order in orders}
        assert len(verdicts) == 1
        agree += verdicts == {True}
        disagree += verdicts == {False}
    assert agree > 10 and disagree > 10  # both verdict classes exercised


def test_env_eq_is_equivalence(sl2):
    rng = random.Random(16)
    for _ in range(50):
        u = _random_elt(rng, sl2, 3)
        v = _relator_tweak(rng, sl2, u)
        t = _relator_tweak(rng, sl2, v)
        assert env_eq(u, u)
        assert env_eq(u, v) and env_eq(v, u)
        assert env_eq(u, t)


# --------------------------------------------------------------- state forms

def test_state_canon_left_factor(sl2):
    split = SplitDecomposition(sl2, (E, H), (F,))
    s = StateElement.term(split, (H, E), ())
    # inside part 1: h e = e h + [h,e] = e h + 2e
    got = state_canon(s)
    expected = StateElement.term(split, (E, H), ()) + StateElement.term(split, (E,), (), 2)
    assert got == expected
    assert state_canon(StateElement.unit(split)) == StateElement.unit(split)


def test_state_eq_term_order_irrelevant(sl2):
    split = SplitDecomposition(sl2, (F,), (E, H))
    a = StateElement.term(split, (F,), (E,)) + StateElement.term(split, (), (H,))
    b = StateElement.term(split, (), (H,)) + StateElement.term(split, (F,), (E,))
    assert state_eq(a, b)


def test_letters_must_be_in_basis(sl2):
    with pytest.raises(ValueError):
        EnvElement.word(sl2, (0, 7))


def test_order_must_be_permutation(sl2):
    with pytest.raises(ValueError):
        straighten(w(sl2, (F, E)), order=(0, 1))
    with pytest.raises(ValueError):
        straighten(w(sl2, (F, E)), order=(0, 1, 1))


@pytest.mark.parametrize("order, bad", [((0, "a", 2), "'a'"), ((True, 0, 2), "True"),
                                        ((0, 1, 2.0), "2.0"), ((0, -1, 2), "-1")])
def test_order_follows_the_one_index_rule(sl2, order, bad):
    # judged letter by letter before the permutation test, as every basis index is
    with pytest.raises(ValueError) as exc:
        straighten(w(sl2, (F, E)), order=order)
    assert str(exc.value) == f"index {bad} outside basis"


def test_state_membership_enforced(sl2):
    split = SplitDecomposition(sl2, (F,), (E, H))
    with pytest.raises(ValueError):
        StateElement.term(split, (E,), ())
    with pytest.raises(ValueError):
        StateElement.term(split, (), (F,))


def test_state_letters_equal_to_an_index_are_not_indices(sl2):
    # False and 1.0 hash like 0 and 1, so the parts' sets alone accept them
    split = SplitDecomposition(sl2, (E,), (F, H))
    with pytest.raises(ValueError, match=r"^letter False outside basis$"):
        StateElement.term(split, (False,), (1.0,))
    with pytest.raises(ValueError, match=r"^letter 1\.0 outside basis$"):
        StateElement.term(split, (), (1.0,))
    with pytest.raises(ValueError, match=r"^letter True outside basis$"):
        StateElement(split, {((E,), (H,)): 1, ((), (True,)): 2})


def test_append_right_checks_the_appended_word(sl2):
    split = SplitDecomposition(sl2, (F,), (E, H))
    s = StateElement.term(split, (F,), (E,), 2) + StateElement.term(split, (), (H,))
    assert s.append_right((H, E)) == (StateElement.term(split, (F,), (E, H, E), 2)
                                      + StateElement.term(split, (), (H, H, E)))
    for word, message in (((9,), "letter 9 outside basis"), ((H, -1), "letter -1 outside basis"),
                          ((1.0,), "letter 1.0 outside basis"), ((E, F), "letter f not in part 2")):
        with pytest.raises(ValueError) as exc:
            s.append_right(word)
        assert str(exc.value) == message


def test_from_vector_is_the_sum_of_one_letter_words(sl2):
    v = sl2.vector({"e": 3, "h": -1})
    assert EnvElement.from_vector(v) == EnvElement(sl2, {(E,): 3, (H,): -1})
    assert EnvElement.from_vector(GVector.zero(sl2)).is_zero()


# -------------------------------------------------------------------- oracle

def test_oracle_sl2(sl2):
    split = SplitDecomposition(sl2, (F,), (E, H))
    got = oracle_normal_order(w(sl2, (E, F)), split)
    assert got == StateElement.term(split, (F,), (E,)) + StateElement.term(split, (), (H,))
    assert oracle_normal_order(w(sl2, (F, E)), split) == StateElement.term(split, (F,), (E,))


def test_oracle_heisenberg():
    alg = heisenberg_algebra(Z)
    split = SplitDecomposition(alg, (0,), (1, 2))  # {x} | {y, c}
    got = oracle_normal_order(EnvElement.word(alg, (1, 0)), split)  # y x
    expected = StateElement.term(split, (0,), (1,)) + StateElement.term(split, (), (2,), -1)
    assert got == expected  # x (x) y - 1 (x) c


def test_oracle_inverts_mu_state():
    rng = random.Random(17)
    for entry in REG.entries():
        for _ in range(40):
            u = _random_elt(rng, entry.algebra, 5)
            s = oracle_normal_order(u, entry.split)
            assert env_eq(mu_state(s), u)


def test_split_order_canonical_words_factor():
    rng = random.Random(18)
    for entry in REG.entries():
        split = entry.split
        boundary = set(split.part1)
        for _ in range(30):
            u = _random_elt(rng, entry.algebra, 5)
            flat = straighten(u, split.split_order())
            for word in flat.terms:
                seen_right = False
                for letter in word:
                    if letter in boundary:
                        assert not seen_right  # part-1 letter after a part-2 letter
                    else:
                        seen_right = True


# ------------------------------------------------------------------- helpers

def _random_elt(rng, alg, max_deg):
    """1-3 random words; over Q their coefficients are a/b, b in 1..4."""
    out = EnvElement.zero(alg)
    for _ in range(rng.randint(1, 3)):
        word = tuple(rng.choices(range(alg.dim), k=rng.randint(0, max_deg)))
        coeff = rng.randint(-9, 9)
        if alg.ring.kind == "Q":
            coeff = Fraction(coeff, rng.randint(1, 4))
        out = out + EnvElement.word(alg, word, coeff)
    return out


def _random_state(rng, split, max_deg):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        w1 = tuple(rng.choices(split.part1, k=rng.randint(0, max_deg)))
        w2 = tuple(rng.choices(split.part2, k=rng.randint(0, max_deg)))
        terms[(w1, w2)] = rng.randint(-9, 9)
    return StateElement(split, terms)


def _relator_tweak(rng, alg, u):
    """An element equal to u in the envelope: splice x y - y x - [x,y]."""
    host = tuple(rng.choices(range(alg.dim), k=rng.randint(0, 3)))
    pos = rng.randint(0, len(host))
    x, y = rng.randrange(alg.dim), rng.randrange(alg.dim)
    table, q = alg.table, alg.ring.modulus
    return EnvElement(alg, reference.splice_relator(table, q, plain(u), host, pos, x, y, rng.randint(1, 5)))
