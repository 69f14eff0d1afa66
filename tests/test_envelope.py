import random
from fractions import Fraction

import pytest

from envnorm.checks import builtin_examples, heisenberg_algebra, sl2_algebra, sl_algebra
from envnorm.envelope import (
    EnvElement,
    StateElement,
    env_eq,
    env_mul,
    mu_state,
    oracle_normal_order,
    state_canon,
    state_eq,
    straighten,
)
from envnorm.liealg import GVector, SplitDecomposition
from envnorm.normalform import ActionContext, act, normal_order
from envnorm.ring import RingMismatchError, make_ring

Z = make_ring("Z")
REG = builtin_examples()

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


def _inversions(rank, w) -> int:
    return sum(
        1 for i in range(len(w)) for j in range(i + 1, len(w)) if rank[w[i]] > rank[w[j]]
    )


def _worklist_straighten(u, order=None):
    """Uncached leftmost-inversion rewriting under ``order`` (default: the
    declaration order), independent of the memoized routine.  Asserts that
    every rewrite strictly decreases (degree, inversion count)
    lexicographically for the word it touches; returns (canonical form,
    rewrite count)."""
    alg = u.algebra
    rank = [0] * alg.dim
    for pos, idx in enumerate(range(alg.dim) if order is None else order):
        rank[idx] = pos
    out: dict = {}
    pending = list(u.terms.items())
    steps = 0
    while pending:
        w, c = pending.pop()
        pos = next((i for i in range(len(w) - 1) if rank[w[i]] > rank[w[i + 1]]), None)
        if pos is None:
            out[w] = out[w] + c if w in out else c
            continue
        steps += 1
        parent = (len(w), _inversions(rank, w))
        x, y = w[pos], w[pos + 1]
        head, tail = w[:pos], w[pos + 2:]
        children = [(head + (y, x) + tail, c)]
        for k, gamma in alg.table[x][y]:
            children.append((head + (k,) + tail, c * gamma))
        for w2, c2 in children:
            assert (len(w2), _inversions(rank, w2)) < parent
            pending.append((w2, c2))
    return EnvElement(alg, out), steps


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
        assert stats["steps"] <= _worklist_straighten(u)[1]


def test_counting_path_agrees_with_cached_path():
    for name in ("sl2_Z", "sl3_Z", "sl3_Z4", "sl2_Q", "sl3_Z2", "sl3_Z3"):
        alg = REG[name].algebra
        rng = random.Random(14)
        for _ in range(50):
            u = _random_elt(rng, alg, 5)
            expected, _steps = _worklist_straighten(u)
            assert straighten(u) == expected, name
            assert straighten(u, stats={}) == expected, name


def test_straighten_matches_worklist_under_shuffled_orders():
    for name in ("sl2_Z", "sl3_Z", "sl3_Z4", "sl2_Q", "sl3_Z2", "sl3_Z3"):
        alg = REG[name].algebra
        rng = random.Random(21)
        for _ in range(3):
            order = list(range(alg.dim))
            rng.shuffle(order)
            for _ in range(20):
                u = _random_elt(rng, alg, 5)
                assert straighten(u, order) == _worklist_straighten(u, order)[0], (name, order)


def test_state_canon_matches_factorwise_worklist():
    rng = random.Random(22)
    for entry in REG.entries():
        split = entry.split
        for _ in range(30):
            s = _random_state(rng, split, 4)
            expected: dict = {}
            for (w1, w2), c in s.terms.items():
                left = _worklist_straighten(EnvElement.word(split.algebra, w1))[0]
                right = _worklist_straighten(EnvElement.word(split.algebra, w2))[0]
                for x1, c1 in left.terms.items():
                    for x2, c2 in right.terms.items():
                        key = (x1, x2)
                        expected[key] = expected[key] + c * c1 * c2 if key in expected else c * c1 * c2
            assert state_canon(s) == StateElement(split, expected), entry.name


def test_oracle_matches_worklist_cut_at_the_boundary():
    rng = random.Random(23)
    for entry in REG.entries():
        split = entry.split
        for _ in range(30):
            u = _random_elt(rng, entry.algebra, 5)
            flat = _worklist_straighten(u, split.split_order())[0]
            expected = {}
            for word, c in flat.terms.items():
                cut = sum(1 for letter in word if letter in split.part1)
                expected[(word[:cut], word[cut:])] = c
            assert oracle_normal_order(u, split) == StateElement(split, expected), entry.name


def test_straighten_counts_only_new_rewrites():
    alg = sl_algebra(3, Z)
    u = EnvElement.word(alg, tuple(reversed(range(alg.dim))))
    stats = {}
    first = straighten(u, stats=stats)
    assert stats["steps"] > 0 and stats["spawned"] >= stats["steps"]
    counted = dict(stats)
    assert straighten(u, stats=stats) == first
    assert stats == counted  # every word is in the algebra's memo now


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


def _sl2_irrep(n):
    """Matrices of e, f, h on the (n+1)-dimensional irreducible module:
    e v_i = (n-i+1) v_(i-1), f v_i = (i+1) v_(i+1), h v_i = (n-2i) v_i."""
    dim = n + 1
    e = [[0] * dim for _ in range(dim)]
    f = [[0] * dim for _ in range(dim)]
    h = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        h[i][i] = n - 2 * i
        if i > 0:
            e[i - 1][i] = n - i + 1
        if i < n:
            f[i + 1][i] = i + 1
    return {E: e, F: f, H: h}


def _evaluate_in_rep(elt, rep, dim):
    total = [[0] * dim for _ in range(dim)]
    for word, coeff in elt.terms.items():
        m = [[int(r == c) for c in range(dim)] for r in range(dim)]
        for letter in word:
            m = [
                [sum(m[r][k] * rep[letter][k][c] for k in range(dim)) for c in range(dim)]
                for r in range(dim)
            ]
        for r in range(dim):
            for c in range(dim):
                total[r][c] += coeff.value * m[r][c]
    return total


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
            rep = _sl2_irrep(n)
            assert _evaluate_in_rep(u, rep, n + 1) == _evaluate_in_rep(s, rep, n + 1)


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
    c = Z.scalar(rng.randint(1, 5))
    head, tail = host[:pos], host[pos:]
    extra = EnvElement.word(alg, head + (x, y) + tail, c) - EnvElement.word(
        alg, head + (y, x) + tail, c
    )
    for k, gamma in alg.table[x][y]:
        extra = extra - EnvElement(alg, {head + (k,) + tail: c * gamma})
    return u + extra
