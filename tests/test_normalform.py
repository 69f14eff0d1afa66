import gc
import itertools
import random
import weakref
from pathlib import Path

import pytest

import envnorm.normalform as normalform
from envnorm.checks import (
    SuiteConfig,
    builtin_examples,
    generate,
    relator_variant,
    sl2_algebra,
    sl_algebra,
    sl_triangular_split,
)
from envnorm.cli import parse_spec
from envnorm.envelope import (
    EnvElement,
    StateElement,
    _acc,
    _canon_terms,
    _straightener,
    env_eq,
    mu_state,
    oracle_normal_order,
    state_canon,
    state_eq,
)
from envnorm.liealg import CarrierMismatchError, SplitDecomposition
from envnorm.normalform import (
    ActionContext,
    OracleMismatchError,
    act,
    act_word,
    check_filtration,
    check_inverse,
    check_lie_action,
    check_mu_compat,
    check_right_linearity,
    normal_order,
    section_s,
)
from envnorm.ring import make_ring

Z = make_ring("Z")
REG = builtin_examples()
GOLDEN = Path(__file__).parent / "golden"

E, F, H = 0, 1, 2


@pytest.fixture
def ctx():
    entry = REG["sl2_Z"]  # split {f} | {h, e}
    return ActionContext(entry.algebra, entry.split)


def term(ctx_, w1, w2, coeff=1):
    return StateElement.term(ctx_.split, w1, w2, coeff)


def test_context_rejects_invalid():
    bad = sl2_algebra(Z)
    with pytest.raises(ValueError):
        # {e,f} | {h} is not bracket-closed
        ActionContext(bad, SplitDecomposition(bad, (E, F), (H,)))


def test_act_base_cases(ctx):
    alg = ctx.algebra
    # h lies in part 2: lands on the right factor
    assert act(ctx, alg.basis_vector(H), ctx.unit_state()) == term(ctx, (), (H,))
    # f lies in part 1: lands on the left factor
    assert act(ctx, alg.basis_vector(F), term(ctx, (), (E,))) == term(ctx, (F,), (E,))


def test_act_recursion_step(ctx):
    alg = ctx.algebra
    # e acting on f (x) 1: bracket branch gives [e,f] = h on 1 (x) 1,
    # prepend branch gives f (x) e
    got = act(ctx, alg.basis_vector(E), term(ctx, (F,), ()))
    assert got == term(ctx, (), (H,)) + term(ctx, (F,), (E,))


def test_act_is_linear(ctx):
    alg = ctx.algebra
    rng = random.Random(21)
    for _ in range(60):
        g = alg.vector([rng.randint(-5, 5) for _ in range(3)])
        h = alg.vector([rng.randint(-5, 5) for _ in range(3)])
        s = _rand_state(rng, ctx, 3)
        t = _rand_state(rng, ctx, 3)
        a = Z.scalar(rng.randint(-4, 4))
        assert act(ctx, g + h, s) == act(ctx, g, s) + act(ctx, h, s)
        assert act(ctx, g.scale(a), s) == act(ctx, g, s).scale(a)
        assert act(ctx, g, s + t) == act(ctx, g, s) + act(ctx, g, t)
        assert act(ctx, g, s.scale(a)) == act(ctx, g, s).scale(a)


def _reference_pair(c, g, w1, w2):
    """The unmemoized recursion, bracket by bracket, as a {state key: scalar} map."""
    if not w1:
        out = {}
        for i, coeff in g.support():
            if c.split.side_of(i) == 1:
                out[((i,), w2)] = coeff
            else:
                out[((), (i,) + w2)] = coeff
        return out
    x, rest = w1[0], w1[1:]
    out = {}
    gb = c.algebra.bracket(g, c.algebra.basis_vector(x))
    if not gb.is_zero():
        for key, coeff in _reference_pair(c, gb, rest, w2).items():
            _acc(out, key, coeff)
    for (u1, u2), coeff in _reference_pair(c, g, rest, w2).items():
        _acc(out, ((x,) + u1, u2), coeff)
    return out


@pytest.mark.parametrize("name", [e.name for e in REG.entries()])
def test_act_matches_unmemoized_recursion(name):
    entry = REG[name]
    c = ActionContext(entry.algebra, entry.split, validate=False)
    rng = random.Random(f"kernel-{name}")
    for _ in range(200):
        g = _rand_vector(rng, c)
        while len(tuple(g.support())) < 2:
            g = _rand_vector(rng, c)
        s = _rand_state(rng, c, 4)
        expected: dict = {}
        for (w1, w2), coeff in s.terms.items():
            for key, c2 in _reference_pair(c, g, w1, w2).items():
                _acc(expected, key, coeff * c2)
        assert act(c, g, s).terms == expected


def test_memos_are_freed_with_the_context():
    alg = sl_algebra(3, Z)
    c = ActionContext(alg, sl_triangular_split(alg, 3))
    result = normal_order(c, EnvElement.word(alg, tuple(reversed(range(alg.dim)))))
    assert c._kernel and alg._straighten_memo
    refs = (weakref.ref(c), weakref.ref(alg))
    del alg, c, result
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_act_word(ctx):
    s = _rand_state(random.Random(1), ctx, 3)
    assert act_word(ctx, (), s) == s
    assert act_word(ctx, (E, F), ctx.unit_state()) == term(ctx, (), (H,)) + term(ctx, (F,), (E,))
    assert act_word(ctx, (F,), ctx.unit_state()) == term(ctx, (F,), ())
    other = SplitDecomposition(ctx.algebra, ctx.split.part1, ctx.split.part2)
    with pytest.raises(CarrierMismatchError):
        act_word(ctx, (), StateElement.unit(other))  # checked even for the empty word


def test_act_word_rejects_letters_outside_the_basis(ctx):
    # -1 would otherwise index the last basis element, and 3 run off the table
    for word, bad in (((-1,), -1), ((E, 3), 3), ((9, -2), 9)):
        with pytest.raises(ValueError, match=rf"^letter {bad} outside basis$"):
            act_word(ctx, word, ctx.unit_state())


def _act_word_by_letters(c, word, s):
    """act_word's definition: public act with one basis vector per letter,
    rightmost letter first."""
    for letter in reversed(word):
        s = act(c, c.algebra.basis_vector(letter), s)
    return s


@pytest.mark.parametrize("name", [e.name for e in REG.entries()])
def test_act_word_matches_letter_by_letter_act(name):
    entry = REG[name]
    c = ActionContext(entry.algebra, entry.split, validate=False)
    rng = random.Random(f"word-{name}")
    for _ in range(50):
        word = tuple(rng.choices(range(c.algebra.dim), k=rng.randint(0, 5)))
        s = _rand_state(rng, c, 3)
        got = act_word(c, word, s)
        assert type(got) is StateElement and got.split is c.split
        assert got.terms == _act_word_by_letters(c, word, s).terms, word


def test_act_word_matches_letter_by_letter_act_on_a_long_word():
    entry = REG["heisenberg_Z"]  # x | y c
    c = ActionContext(entry.algebra, entry.split)
    word = (1,) * 60 + (0,)  # y^60 x
    for s in (c.unit_state(), _rand_state(random.Random(60), c, 3)):
        assert act_word(c, word, s).terms == _act_word_by_letters(c, word, s).terms


def test_section_examples(ctx):
    alg = ctx.algebra
    assert section_s(ctx, EnvElement.word(alg, (E, F))) == term(ctx, (F,), (E,)) + term(ctx, (), (H,))
    assert section_s(ctx, EnvElement.unit(alg)) == ctx.unit_state()
    assert section_s(ctx, EnvElement.word(alg, (F, E))) == term(ctx, (F,), (E,))


def test_normal_order_heisenberg():
    entry = REG["heisenberg_Z"]
    c = ActionContext(entry.algebra, entry.split)
    got = normal_order(c, EnvElement.word(entry.algebra, (1, 0)))  # y x
    expected = StateElement.term(entry.split, (0,), (1,)) + StateElement.term(
        entry.split, (), (2,), -1
    )
    assert got == expected


def test_normal_order_borel():
    entry = REG["sl2_Q"]  # split {e, h} | {f}
    c = ActionContext(entry.algebra, entry.split)
    got = normal_order(c, EnvElement.word(entry.algebra, (F, E)))  # f e = ef - h
    expected = StateElement.term(entry.split, (E,), (F,)) + StateElement.term(
        entry.split, (H,), (), -1
    )
    assert got == expected


def test_normal_order_round_trips_merged_states():
    rng = random.Random(22)
    for entry in REG.entries():
        c = ActionContext(entry.algebra, entry.split, validate=False)
        for _ in range(25):
            s = state_canon(_rand_state(rng, c, 3))
            assert normal_order(c, mu_state(s)) == s


def test_normal_order_oracle_mismatch_raises(ctx, monkeypatch):
    monkeypatch.setattr(
        normalform, "oracle_normal_order", lambda u, split: StateElement.unit(split)
    )
    with pytest.raises(OracleMismatchError):
        normal_order(ctx, EnvElement.word(ctx.algebra, (E, F)))


def test_normal_order_inverse_mismatch_raises(ctx, monkeypatch):
    # the oracle agrees, so only the second check, mu(section) == u, can fail
    monkeypatch.setattr(normalform, "env_eq", lambda u, v: False)
    message = "factor multiplication does not invert the section"
    with pytest.raises(OracleMismatchError, match=message):
        normal_order(ctx, EnvElement.word(ctx.algebra, (E, F)))


def test_filtration(ctx):
    alg = ctx.algebra
    assert check_filtration(ctx, alg.basis_vector(E), term(ctx, (F,), ()))
    assert check_filtration(ctx, alg.basis_vector(H), term(ctx, (), (E, E)))
    rng = random.Random(23)
    for entry in REG.entries():
        c = ActionContext(entry.algebra, entry.split, validate=False)
        for _ in range(50):
            g = _rand_vector(rng, c)
            s = _rand_state(rng, c, 4)
            assert check_filtration(c, g, s)


def test_right_linearity(ctx):
    alg = ctx.algebra
    assert check_right_linearity(ctx, alg.basis_vector(E), (F,), ())
    assert check_right_linearity(ctx, alg.basis_vector(E), (F,), (H,))
    rng = random.Random(24)
    for entry in REG.entries():
        c = ActionContext(entry.algebra, entry.split, validate=False)
        for _ in range(50):
            g = _rand_vector(rng, c)
            w1 = tuple(rng.choices(c.split.part1, k=rng.randint(0, 4))) if c.split.part1 else ()
            m = tuple(rng.choices(c.split.part2, k=rng.randint(0, 4))) if c.split.part2 else ()
            assert check_right_linearity(c, g, w1, m)


def test_mu_compat(ctx):
    alg = ctx.algebra
    assert check_mu_compat(ctx, alg.basis_vector(E), ctx.unit_state())
    assert check_mu_compat(ctx, alg.basis_vector(E), term(ctx, (F,), ()))
    rng = random.Random(25)
    for entry in REG.entries():
        c = ActionContext(entry.algebra, entry.split, validate=False)
        for _ in range(50):
            assert check_mu_compat(c, _rand_vector(rng, c), _rand_state(rng, c, 4))


def test_lie_action(ctx):
    alg = ctx.algebra
    g = alg.basis_vector(E)
    assert check_lie_action(ctx, g, g, term(ctx, (F,), ()))
    assert check_lie_action(ctx, alg.basis_vector(E), alg.basis_vector(H), term(ctx, (F,), ()))
    rng = random.Random(26)
    for entry in REG.entries():
        c = ActionContext(entry.algebra, entry.split, validate=False)
        n = entry.algebra.dim
        for _ in range(10):
            s = _rand_state(rng, c, 3)
            for i in range(n):
                for j in range(n):
                    assert check_lie_action(
                        c, entry.algebra.basis_vector(i), entry.algebra.basis_vector(j), s
                    )


_BAD_SPECS = ("sl2_bad_jacobi.alg", "sl2_bad_alternating.alg", "sl2_bad_split.alg")


def _algebra_and_split(name):
    """A builtin entry's algebra and split, or a bad golden spec's, built unvalidated."""
    if name in _BAD_SPECS:
        return parse_spec((GOLDEN / name).read_text(encoding="utf-8")).build()
    return REG[name].algebra, REG[name].split


def _outcome(fn, *args):
    """fn's verdict, or the type and message of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _lie_action_by_composition(c, g, h, s):
    lhs = act(c, g, act(c, h, s)) - act(c, h, act(c, g, s))
    return state_eq(lhs, act(c, c.algebra.bracket(g, h), s))


def _canon_of_difference_is_zero(s, t):
    return state_canon(s - t).is_zero()


@pytest.mark.parametrize("name", [e.name for e in REG.entries()] + list(_BAD_SPECS))
def test_check_lie_action_matches_public_composition(name):
    algebra, split = _algebra_and_split(name)
    c = ActionContext(algebra, split, validate=False)
    rng = random.Random(f"lie-{name}")
    basis = [algebra.basis_vector(i) for i in range(algebra.dim)]
    outcomes = []
    for _ in range(3):
        s = _rand_state(rng, c, 3)
        pairs = [(g, h) for g in basis for h in basis]
        pairs += [(_rand_vector(rng, c), _rand_vector(rng, c)) for _ in range(3)]
        for g, h in pairs:
            got = _outcome(check_lie_action, c, g, h, s)
            assert got == _outcome(_lie_action_by_composition, c, g, h, s), (g, h, s)
            outcomes.append(got)
        t = _rand_state(rng, c, 3)
        for a, b in ((s, t), (s, s), (t, s + t - s)):
            assert _outcome(state_eq, a, b) == _outcome(_canon_of_difference_is_zero, a, b)
    if name in _BAD_SPECS:  # some instances fail: by verdict, or by raising on sl2_bad_split
        assert set(outcomes) - {True}
    else:
        assert set(outcomes) == {True}

    g, s = basis[0], _rand_state(rng, c, 3)
    foreign_g = sl2_algebra(Z).basis_vector(0)
    foreign_s = StateElement.unit(SplitDecomposition(algebra, split.part1, split.part2))
    own, alien = (g, g, s), (foreign_g, foreign_g, foreign_s)
    for picks in list(itertools.product((0, 1), repeat=3))[1:]:  # each nonempty foreign subset
        args = [(o, a)[p] for o, a, p in zip(own, alien, picks)]
        got = _outcome(check_lie_action, c, *args)
        assert got[0] is CarrierMismatchError
        assert got == _outcome(_lie_action_by_composition, c, *args)


@pytest.mark.parametrize("name", [e.name for e in REG.entries()] + list(_BAD_SPECS))
def test_lie_action_table_is_one_state_deep_and_fill_order_free(name):
    algebra, split = _algebra_and_split(name)
    c = ActionContext(algebra, split, validate=False)
    ref = ActionContext(algebra, split, validate=False)  # never holds a table
    rng = random.Random(f"lie-table-{name}")
    s, t = _rand_state(rng, c, 3), _rand_state(rng, c, 3)
    s_apart = StateElement(split, dict(s.terms))
    assert s_apart == s and s_apart is not s
    basis = [algebra.basis_vector(i) for i in range(algebra.dim)]
    pairs = [(g, h) for g in basis for h in basis]
    pairs += [(_rand_vector(rng, c), _rand_vector(rng, c)) for _ in range(3)]
    instances = [(g, h, state) for state in (s, t, s_apart) for g, h in pairs]
    rng.shuffle(instances)
    for g, h, state in instances:
        got = _outcome(check_lie_action, c, g, h, state)
        assert got == _outcome(_lie_action_by_composition, ref, g, h, state), (g, h, state)

    last = instances[-1][2]
    for g in basis:  # fill the rest of last's table: every D(i, j) is read
        for h in basis:
            _outcome(check_lie_action, c, g, h, last)
    table = c._lie_table
    assert table[0] is last
    assert sorted(table[2]) == [(i, j) for i in range(algebra.dim)
                                for j in range(i + 1, algebra.dim)]
    for k, (raw, canon) in table[1].items():
        assert raw == act(c, basis[k], last).terms
        assert canon == _canon_terms(_straightener(algebra), raw)
    for (i, j), d in table[2].items():
        raw = act(c, basis[i], act(c, basis[j], last)) - act(c, basis[j], act(c, basis[i], last))
        assert d == _canon_terms(_straightener(algebra), raw.terms)

    held = weakref.ref(c)
    del c, table
    gc.collect()
    assert held() is None


def test_check_inverse(ctx):
    alg = ctx.algebra
    # the worked identity: s applied to sigma-words reproduces them
    s = term(ctx, (F,), (H, E))
    first, _second = check_inverse(ctx, EnvElement.unit(alg), s)
    assert first
    _first, second = check_inverse(ctx, EnvElement.unit(alg), ctx.unit_state())
    assert second
    rng = random.Random(27)
    for entry in REG.entries():
        c = ActionContext(entry.algebra, entry.split, validate=False)
        for _ in range(40):
            u = _rand_elt(rng, c, 4)
            s = _rand_state(rng, c, 4)
            assert check_inverse(c, u, s) == (True, True)


def test_section_well_defined_on_classes(ctx):
    rng = random.Random(28)
    alg = ctx.algebra
    for _ in range(100):
        u = _rand_elt(rng, ctx, 4)
        host = tuple(rng.choices(range(alg.dim), k=rng.randint(0, 3)))
        u2 = relator_variant(
            alg, u, host, rng.randint(0, len(host)),
            rng.choice(ctx.split.part1), rng.choice(ctx.split.part1),
            Z.scalar(rng.randint(-5, 5)),
        )
        assert env_eq(u, u2)
        assert state_eq(section_s(ctx, u), section_s(ctx, u2))


@pytest.mark.parametrize("name", list(REG))
def test_section_and_oracle_are_canonical_and_agree_structurally(name):
    # the verdicts that compare these two with == rely on both being canonical
    entry = REG[name]
    c = ActionContext(entry.algebra, entry.split, validate=False)
    cfg = SuiteConfig(max_degree=5)
    for k in range(40):
        u = generate("element", cfg, entry, k)
        calc, oracle = section_s(c, u), oracle_normal_order(u, entry.split)
        assert calc == state_canon(calc)
        assert oracle == state_canon(oracle)
        assert calc == oracle


@pytest.mark.parametrize("empty_side", [1, 2])
def test_degenerate_splits(empty_side):
    alg = sl2_algebra(Z)
    if empty_side == 2:
        split = SplitDecomposition(alg, (0, 1, 2), ())
    else:
        split = SplitDecomposition(alg, (), (0, 1, 2))
    c = ActionContext(alg, split)
    rng = random.Random(29)
    for _ in range(40):
        u = _rand_elt(rng, c, 4)
        s = section_s(c, u)
        for (w1, w2) in s.terms:
            if empty_side == 2:
                assert w2 == ()  # right factor stays 1
            else:
                assert w1 == ()  # left factor stays 1
        assert env_eq(mu_state(s), u)


# ------------------------------------------------------------------- helpers

def _rand_vector(rng, c):
    return c.algebra.vector([rng.randint(-5, 5) for _ in range(c.algebra.dim)])


def _rand_state(rng, c, max_deg):
    out = StateElement.zero(c.split)
    for _ in range(rng.randint(1, 3)):
        w1 = tuple(rng.choices(c.split.part1, k=rng.randint(0, max_deg))) if c.split.part1 else ()
        w2 = tuple(rng.choices(c.split.part2, k=rng.randint(0, max_deg))) if c.split.part2 else ()
        out = out + StateElement.term(c.split, w1, w2, rng.randint(-9, 9))
    return out


def _rand_elt(rng, c, max_deg):
    alg = c.algebra
    out = EnvElement.zero(alg)
    for _ in range(rng.randint(1, 3)):
        word = tuple(rng.choices(range(alg.dim), k=rng.randint(0, max_deg)))
        out = out + EnvElement.word(alg, word, rng.randint(-9, 9))
    return out
