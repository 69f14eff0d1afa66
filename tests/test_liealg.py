import itertools
import random
from pathlib import Path

import pytest

from envnorm.checks import builtin_examples, sl2_algebra, sl_algebra, sl_triangular_split
from envnorm.cli import parse_spec
from envnorm.liealg import (
    Violation,
    CarrierMismatchError,
    GVector,
    LieAlgebra,
    SplitDecomposition,
    ValidationReport,
    _acc,
    validate,
    validate_algebra,
    validate_split,
)
from envnorm.normalform import ActionContext
from envnorm.ring import make_ring

Z = make_ring("Z")


# -- independent oracle: brackets of sl(n) via explicit matrix commutators --

def _mat(n, entries):
    m = [[0] * n for _ in range(n)]
    for (i, j), v in entries.items():
        m[i][j] = v
    return m


SL2_MATS = {
    "e": _mat(2, {(0, 1): 1}),
    "f": _mat(2, {(1, 0): 1}),
    "h": _mat(2, {(0, 0): 1, (1, 1): -1}),
}


def _commutator(a, b):
    n = len(a)
    ab = [[sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n)] for r in range(n)]
    ba = [[sum(b[r][k] * a[k][c] for k in range(n)) for c in range(n)] for r in range(n)]
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(ab, ba)]


def _sl2_decompose(m):
    # m = c_e*E12 + c_f*E21 + c_h*diag(1,-1)
    assert m[0][0] == -m[1][1]
    return {"e": m[0][1], "f": m[1][0], "h": m[0][0]}


@pytest.fixture
def sl2():
    return sl2_algebra(Z)


def test_sl2_table_matches_matrix_commutators(sl2):
    for a, b in itertools.product("efh", repeat=2):
        expected = _sl2_decompose(_commutator(SL2_MATS[a], SL2_MATS[b]))
        got = sl2.bracket(sl2.basis_vector(sl2.index[a]), sl2.basis_vector(sl2.index[b]))
        for name, coeff in expected.items():
            assert got.terms.get(sl2.index[name], Z.zero) == Z.scalar(coeff), (a, b)


def test_sl2_validates(sl2):
    assert validate_algebra(sl2).ok


def test_sl3_validates_and_matches_matrices():
    alg = sl_algebra(3, Z)
    assert alg.basis == ("E12", "E13", "E23", "E21", "E31", "E32", "H1", "H2")
    assert validate_algebra(alg).ok
    # spot check a cross-part commutator: [E12, E21] = H1
    got = alg.bracket(alg.basis_vector(0), alg.basis_vector(3))
    assert str(got) == "1*H1"
    # [E13, E31] = E11 - E33 = H1 + H2
    got = alg.bracket(alg.basis_vector(1), alg.basis_vector(4))
    assert str(got) == "1*H1 + 1*H2"


def test_corrupted_jacobi_reported(sl2):
    bad = LieAlgebra.from_brackets(
        Z, ("e", "f", "h"),
        {("e", "f"): {"e": 1}, ("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}},
    )
    report = validate_algebra(bad)
    assert not report.ok
    jac = [v for v in report.violations if v.kind == "jacobi"]
    assert ("e", "f", "h") in [v.where for v in jac]
    # independent: cyclic sum [[e,f],h]+[[f,h],e]+[[h,e],f] = -2e-2e+2e = -2e
    v = next(v for v in jac if v.where == ("e", "f", "h"))
    assert "-2*e" in v.detail


def test_corrupted_alternating_reported():
    bad = LieAlgebra.from_brackets(
        Z, ("e", "f", "h"),
        {("e", "f"): {"h": 1}, ("h", "e"): {"e": 2}, ("h", "f"): {"f": -2},
         ("e", "e"): {"h": 1}},
    )
    report = validate_algebra(bad)
    alts = [v.where for v in report.violations if v.kind == "alternating"]
    assert ("e", "e") in alts


def test_abelian_any_size_validates():
    for n in (1, 3, 5):
        alg = LieAlgebra.from_brackets(Z, tuple(f"a{i}" for i in range(n)), {})
        assert validate_algebra(alg).ok


def test_bracket_alternating_and_bilinear(sl2):
    rng = random.Random(99)
    for _ in range(100):
        v = sl2.vector([rng.randint(-5, 5) for _ in range(3)])
        w = sl2.vector([rng.randint(-5, 5) for _ in range(3)])
        assert sl2.bracket(v, v).is_zero()
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        lhs = sl2.bracket(v.scale(a) + w.scale(b), w)
        rhs = sl2.bracket(v, w).scale(a) + sl2.bracket(w, w).scale(b)
        assert lhs == rhs


def test_jacobi_exhaustive_on_examples():
    for alg in (sl2_algebra(Z), sl_algebra(3, Z)):
        bv = alg.basis_vector
        for i, j, k in itertools.product(range(alg.dim), repeat=3):
            total = (
                alg.bracket(alg.bracket(bv(i), bv(j)), bv(k))
                + alg.bracket(alg.bracket(bv(j), bv(k)), bv(i))
                + alg.bracket(alg.bracket(bv(k), bv(i)), bv(j))
            )
            assert total.is_zero()


def test_mod2_bracket_drops_even_constants(sl2):
    alg2 = sl2.change_ring(make_ring("Zmod 2"))
    h, e = alg2.basis_vector(2), alg2.basis_vector(0)
    assert alg2.bracket(h, e).is_zero()  # 2e = 0 mod 2


def test_acc_reduces_mod_q_and_stores_no_zero():
    d = {"a": 2}
    _acc(d, "a", 2, 4)  # 2 + 2 = 0 mod 4: the key goes
    assert d == {}
    _acc(d, "a", 3 * 4, 4)  # a product that is 0 mod 4 is never stored
    _acc(d, "b", 0, 4)
    assert d == {}
    _acc(d, "a", -1, 4)  # reduced into [0, q)
    _acc(d, "a", 7, 4)
    assert d == {"a": 2}
    plain = {"a": 2}
    _acc(plain, "a", 2)  # without a modulus nothing is reduced
    _acc(plain, "b", -3)
    _acc(plain, "c", 0)
    assert plain == {"a": 4, "b": -3}
    _acc(plain, "b", 3)
    assert plain == {"a": 4}
    ring = make_ring("Zmod 4")  # scalars accumulate as before
    scalars = {"a": ring.scalar(2)}
    _acc(scalars, "a", ring.scalar(2))
    assert scalars == {}


@pytest.mark.parametrize("q", [2, 3, 4])
def test_mod_q_reduction_commutes_with_bracket(q):
    alg = sl_algebra(3, Z)
    ring_q = make_ring(f"Zmod {q}")
    alg_q = alg.change_ring(ring_q)
    rng = random.Random(q * 1000 + 17)
    for _ in range(50):
        raw_v = [rng.randint(-9, 9) for _ in range(alg.dim)]
        raw_w = [rng.randint(-9, 9) for _ in range(alg.dim)]
        over_z = alg.bracket(alg.vector(raw_v), alg.vector(raw_w))
        reduced_then = alg_q.bracket(alg_q.vector(raw_v), alg_q.vector(raw_w))
        assert alg_q.vector({i: c.value for i, c in over_z.terms.items()}) == reduced_then


def test_validate_split_examples(sl2):
    assert validate_split(sl2, (1,), (0, 2)).ok          # {f} | {h,e}
    report = validate_split(sl2, (0, 1), (2,))           # {e,f} | {h}
    assert not report.ok
    v = report.violations[0]
    assert v.kind == "closure" and v.where == ("e", "f") and "h" in v.detail
    assert validate_split(sl2, (0, 1, 2), ()).ok         # g = g + 0
    assert not validate_split(sl2, (0,), (2,)).ok        # f unassigned
    assert not validate_split(sl2, (0, 1), (1, 2)).ok    # f in both


def test_validate_reports_algebra_then_split():
    # [e,f] = e + h breaks Jacobi, and {e,f} | {h} is not closed under it
    bad = LieAlgebra.from_brackets(
        Z, ("e", "f", "h"),
        {("e", "f"): {"e": 1, "h": 1}, ("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}},
    )
    split = SplitDecomposition(bad, (0, 1), (2,))
    of_algebra = validate_algebra(bad).violations
    of_split = validate_split(bad, (0, 1), (2,)).violations
    assert of_algebra and of_split
    assert validate(bad, split).violations == of_algebra + of_split
    assert {v.kind for v in of_algebra} == {"jacobi"}
    assert {v.kind for v in of_split} == {"closure"}
    with pytest.raises(ValueError) as exc:
        ActionContext(bad, split)
    assert "jacobi violation" in str(exc.value)
    assert "closure violation" in str(exc.value)


def test_split_projectors(sl2):
    split = SplitDecomposition(sl2, (1,), (0, 2))
    h = sl2.basis_vector(2)
    assert split.project(1, h).is_zero()
    v = sl2.vector({"e": 3, "f": 1})
    assert split.project(2, v) == sl2.vector({"e": 3})
    rng = random.Random(3)
    for _ in range(100):
        v = sl2.vector([rng.randint(-9, 9) for _ in range(3)])
        p1, p2 = split.project(1, v), split.project(2, v)
        assert p1 + p2 == v                              # the two masks sum to the identity
        assert split.project(1, p1) == p1                # idempotent
        assert split.project(1, p2).is_zero()            # orthogonal


def test_split_requires_partition(sl2):
    with pytest.raises(ValueError):
        SplitDecomposition(sl2, (0,), (2,))
    with pytest.raises(ValueError):
        SplitDecomposition(sl2, (0, 1), (1, 2))


def test_carrier_mismatch(sl2):
    other = sl2_algebra(Z)
    with pytest.raises(CarrierMismatchError):
        sl2.bracket(sl2.basis_vector(0), other.basis_vector(0))


def test_from_brackets_rejects_inconsistent_orientations():
    with pytest.raises(ValueError):
        LieAlgebra.from_brackets(
            Z, ("e", "f", "h"),
            {("e", "f"): {"h": 1}, ("f", "e"): {"h": 1}},
        )
    # exact negations are fine (and this table is the one with h central)
    alg = LieAlgebra.from_brackets(
        Z, ("e", "f", "h"),
        {("e", "f"): {"h": 1}, ("f", "e"): {"h": -1}},
    )
    assert validate_algebra(alg).ok


def test_unknown_basis_names_raise_value_error(sl2):
    for brackets in ({("a", "zz"): {}}, {("a", "b"): {"zz": 1}}):
        with pytest.raises(ValueError, match="unknown basis name 'zz'"):
            LieAlgebra.from_brackets(Z, ("a", "b"), brackets)
    with pytest.raises(ValueError, match="unknown basis name 'zz'"):
        sl2.vector({"zz": 1})


def test_table_shape_checked():
    with pytest.raises(ValueError):
        LieAlgebra(Z, ("a", "b"), [[[], []]])  # missing row
    with pytest.raises(ValueError):
        LieAlgebra(Z, ("a", "b"), [[[], []], [[]]])  # short row


def test_table_cells_are_checked_and_normalised():
    for k in (2, -1):
        with pytest.raises(ValueError, match="outside basis"):
            LieAlgebra(Z, ("a", "b"), [[[], [(k, 1)]], [[], []]])
    # zeros dropped, repeated k summed (cancelling ones dropped), pairs sorted by k
    alg = LieAlgebra(Z, ("a", "b", "c"), [
        [[(1, 0)], [(2, 1), (0, 3), (2, 4)], [(1, 5), (1, -5)]],
        [[(2, -5), (0, -3)], [], []],
        [[], [], []],
    ])
    assert alg.table[0] == ((), ((0, Z.scalar(3)), (2, Z.scalar(5))), ())
    assert alg.table[1][0] == ((0, Z.scalar(-3)), (2, Z.scalar(-5)))
    assert alg.table == alg.change_ring(Z).table
    z2 = alg.change_ring(make_ring("Zmod 2"))
    assert [cell for row in z2.table for cell in row if cell] == [
        ((0, z2.ring.one), (2, z2.ring.one)), ((0, z2.ring.one), (2, z2.ring.one))
    ]


def test_vector_constructor_checks_its_input(sl2):
    assert GVector(sl2, (0, 3, 0)) == GVector(sl2, {1: 3}) == sl2.vector({"f": 3})
    with pytest.raises(ValueError):
        GVector(sl2, (1, 2))  # wrong length
    with pytest.raises(ValueError):
        GVector(sl2, {3: 1})  # index outside the basis


def test_sl2_built_three_ways_agrees():
    from_brackets = sl2_algebra(Z)
    golden = Path(__file__).parent / "golden" / "sl2.alg"
    parsed, _split = parse_spec(golden.read_text(encoding="utf-8")).build()
    pairs = LieAlgebra(Z, ("e", "f", "h"), [
        [[], [(2, 1)], [(0, -2)]],
        [[(2, -1)], [], [(1, 2)]],
        [[(0, 2)], [(1, -2)], []],
    ])
    algs = (from_brackets, parsed, pairs)
    for alg in algs[1:]:
        assert alg.basis == from_brackets.basis
        assert alg.table == from_brackets.table
    for i, j in itertools.product(range(3), repeat=2):
        got = [tuple(a.bracket(a.basis_vector(i), a.basis_vector(j)).support()) for a in algs]
        assert got[0] == got[1] == got[2], (i, j)
    # every stored cell holds only nonzero terms, by increasing k, including
    # the Zmod reductions where entries vanish
    for entry in builtin_examples().entries():
        for row in entry.algebra.table:
            for cell in row:
                assert all(c for _k, c in cell), entry.name
                assert [k for k, _c in cell] == sorted({k for k, _c in cell}), entry.name


def _sl_matrix(n, name):
    """The dense matrix of an sl(n) basis name: Eij is the unit at
    (i-1, j-1), Hk is E_kk - E_(k+1)(k+1)."""
    if name[0] == "E":
        return _mat(n, {(int(name[1]) - 1, int(name[2]) - 1): 1})
    k = int(name[1]) - 1
    return _mat(n, {(k, k): 1, (k + 1, k + 1): -1})


@pytest.mark.parametrize("ring", ["Z", "Q", "Zmod 4"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_sl_table_is_the_matrix_commutator(n, ring):
    # coordinates in a basis are unique, so this fixes every cell
    R = make_ring(ring)
    alg = sl_algebra(n, R)
    mats = [_sl_matrix(n, name) for name in alg.basis]
    for a, b in itertools.product(range(alg.dim), repeat=2):
        expected = _commutator(mats[a], mats[b])
        got = [[R.zero] * n for _ in range(n)]
        for k, c in alg.table[a][b]:
            for r, c_col in itertools.product(range(n), repeat=2):
                got[r][c_col] = got[r][c_col] + c * R.scalar(mats[k][r][c_col])
        assert got == [[R.scalar(x) for x in row] for row in expected], (n, a, b)


def test_sl_triangular_split_parts():
    assert [
        (split.part1, split.part2)
        for split in (sl_triangular_split(sl_algebra(n, Z), n) for n in (2, 3, 4))
    ] == [
        ((0, 2), (1,)),
        ((0, 1, 2, 6, 7), (3, 4, 5)),
        ((0, 1, 2, 3, 4, 5, 12, 13, 14), (6, 7, 8, 9, 10, 11)),
    ]


@pytest.mark.parametrize("ring", ["Z", "Q", "Zmod 2", "Zmod 3", "Zmod 4"])
def test_sl2_table_matches_its_brackets(ring):
    R = make_ring(ring)
    from_brackets = LieAlgebra.from_brackets(R, ("e", "f", "h"), {
        ("e", "f"): {"h": 1}, ("h", "e"): {"e": 2}, ("h", "f"): {"f": -2},
    })
    assert sl2_algebra(R).basis == from_brackets.basis
    assert sl2_algebra(R).table == from_brackets.table


# -- reference: validate_algebra written on brackets of basis vectors --

def _reference_validate_algebra(alg):
    """The alternating and Jacobi checks through the public bracket, one
    GVector per cell and per bracket, violations in the library's order."""
    names = alg.basis
    n = alg.dim
    found = []

    def cell(i, j):
        return GVector(alg, dict(alg.table[i][j]))

    for i in range(n):
        if alg.table[i][i]:
            found.append(
                Violation("alternating", (names[i], names[i]),
                          f"[{names[i]},{names[i]}] = {cell(i, i)}, expected 0")
            )
    for i in range(n):
        for j in range(i + 1, n):
            if not (cell(i, j) + cell(j, i)).is_zero():
                found.append(
                    Violation("alternating", (names[i], names[j]),
                              f"[{names[i]},{names[j]}] != -[{names[j]},{names[i]}]")
                )
    bv = alg.basis_vector
    for i, j, k in itertools.product(range(n), repeat=3):
        total = (
            alg.bracket(alg.bracket(bv(i), bv(j)), bv(k))
            + alg.bracket(alg.bracket(bv(j), bv(k)), bv(i))
            + alg.bracket(alg.bracket(bv(k), bv(i)), bv(j))
        )
        if not total.is_zero():
            found.append(
                Violation("jacobi", (names[i], names[j], names[k]),
                          f"cyclic bracket sum = {total}, expected 0")
            )
    return ValidationReport(tuple(found))


def _corrupted_algebras():
    """The corrupted sl2 tables of these tests, plus seeded corruptions of
    sl2 over Q and sl3 over Z and Z/4, some of them breaking only the
    off-diagonal alternation (a cell overwritten without its mirror)."""
    sl2_data = {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}}
    out = [
        LieAlgebra.from_brackets(Z, ("e", "f", "h"), {("e", "f"): {"e": 1}, **sl2_data}),
        LieAlgebra.from_brackets(Z, ("e", "f", "h"), {("e", "f"): {"e": 1, "h": 1}, **sl2_data}),
        LieAlgebra.from_brackets(Z, ("e", "f", "h"),
                                 {("e", "f"): {"h": 1}, ("e", "e"): {"h": 1}, **sl2_data}),
    ]
    rng = random.Random(2024)
    fresh = (lambda: sl2_algebra(make_ring("Q")),
             lambda: sl_algebra(3, Z),
             lambda: sl_algebra(3, Z).change_ring(make_ring("Zmod 4")))
    for build in fresh:
        for _ in range(4):
            bad = build()
            table = [list(row) for row in bad.table]
            for _ in range(rng.randint(1, 3)):
                i, j = rng.randrange(bad.dim), rng.randrange(bad.dim)
                ks = sorted(rng.sample(range(bad.dim), rng.randint(0, 2)))
                table[i][j] = tuple((k, bad.ring.scalar(rng.randint(1, 3))) for k in ks)
            bad.table = tuple(tuple(row) for row in table)
            out.append(bad)
    # corruptions that keep the table alternating: a cell (i, j), i != j,
    # overwritten together with its mirror (j, i), so validate_algebra
    # takes the route that expands each unordered triple into six signed ones;
    # some draws leave a Lie algebra (sl2 has one unordered triple), and
    # this seed draws none of those
    rng = random.Random(2028)
    fresh = (lambda: sl2_algebra(make_ring("Q")),
             lambda: sl_algebra(3, Z),
             lambda: sl_algebra(3, Z).change_ring(make_ring("Zmod 2")),
             lambda: sl_algebra(3, Z).change_ring(make_ring("Zmod 4")))
    for build in fresh:
        for _ in range(4):
            good = build()
            table = [list(row) for row in good.table]
            for _ in range(rng.randint(1, 3)):
                i, j = rng.sample(range(good.dim), 2)
                ks = sorted(rng.sample(range(good.dim), rng.randint(1, 2)))
                table[i][j] = [(k, rng.randint(1, 3)) for k in ks]
                table[j][i] = [(k, -c) for k, c in table[i][j]]
            out.append(LieAlgebra(good.ring, good.basis, table))
    return out


def test_validate_algebra_matches_bracket_reference():
    algs = [entry.algebra for entry in builtin_examples().entries()]
    for path in sorted((Path(__file__).parent / "golden").glob("*.alg")):
        algs.append(parse_spec(path.read_text(encoding="utf-8")).build()[0])
    corrupted = _corrupted_algebras()
    for alg in algs + corrupted:
        assert validate_algebra(alg).lines() == _reference_validate_algebra(alg).lines(), alg
    # a random overwrite may leave a valid table, but nearly all are caught
    assert sum(not validate_algebra(alg).ok for alg in corrupted) >= len(corrupted) - 1


def test_out_of_basis_messages_are_pinned():
    # every entry point that takes a basis index or a word over the basis
    # names the offending value, in index or letter wording
    from envnorm.envelope import EnvElement
    from envnorm.normalform import act_word

    alg = sl2_algebra(Z)
    ctx = ActionContext(alg, SplitDecomposition(alg, (0,), (1, 2)))
    cases = [
        (lambda: EnvElement(alg, {(9,): 1}), "letter 9 outside basis"),
        (lambda: EnvElement(alg, {(-1,): 1}), "letter -1 outside basis"),
        (lambda: GVector(alg, {9: 1}), "index 9 outside basis"),
        (lambda: GVector(alg, {-1: 1}), "index -1 outside basis"),
        (lambda: LieAlgebra(Z, ("a", "b"), [[[], [(9, 1)]], [[], []]]),
         "index 9 outside basis"),
        (lambda: act_word(ctx, (9,), ctx.unit_state()), "letter 9 outside basis"),
        (lambda: act_word(ctx, (-1,), ctx.unit_state()), "letter -1 outside basis"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


def test_out_of_basis_rule_covers_every_entry_point():
    # basis_vector, side_of and the state letter check judge indices by the
    # same rule, ahead of Python's negative indexing and the part check
    from envnorm.envelope import EnvElement, StateElement

    alg = sl2_algebra(Z)
    split = SplitDecomposition(alg, (0,), (1, 2))
    cases = [
        (lambda: alg.basis_vector(-1), "index -1 outside basis"),
        (lambda: alg.basis_vector(9), "index 9 outside basis"),
        (lambda: split.side_of(9), "index 9 outside basis"),
        (lambda: split.side_of(-1), "index -1 outside basis"),
        (lambda: StateElement.term(split, (9,), ()), "letter 9 outside basis"),
        (lambda: StateElement.term(split, (-1,), ()), "letter -1 outside basis"),
        (lambda: StateElement.term(split, (), (-2,)), "letter -2 outside basis"),
        (lambda: StateElement.term(split, (0, 9), (1,)), "letter 9 outside basis"),
        # a value that is not an int (a bool is not one) is outside too
        (lambda: split.side_of(0.5), "index 0.5 outside basis"),
        (lambda: alg.basis_vector(True), "index True outside basis"),
        (lambda: GVector(alg, {1.0: 3}), "index 1.0 outside basis"),
        (lambda: EnvElement.word(alg, (1.0,)), "letter 1.0 outside basis"),
        (lambda: EnvElement.word(alg, (0, "a")), "letter 'a' outside basis"),
        (lambda: SplitDecomposition(alg, ("a", 0), (1, 2)), "index 'a' outside basis"),
        (lambda: SplitDecomposition(alg, (0.5, 0, 1), (2,)), "index 0.5 outside basis"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message
    # letters inside the basis but in the wrong part keep their own message
    with pytest.raises(ValueError, match="^letter f not in part 1$"):
        StateElement.term(split, (1,), (2,))
    assert [split.side_of(i) for i in range(3)] == [1, 2, 2]
    assert alg.basis_vector(2) == alg.vector({"h": 1})


@pytest.mark.parametrize("part1,bad", [
    ((0, 5), 5), ((0, -1), -1), ((-1, 5), -1),
    # judged as given, before the parts are sorted, so a non-int is named too
    ((5, -1), 5), ((0.5, 0), 0.5), (("a", 0), "a"), ((0, True), True), ((0, None), None),
])
def test_split_names_an_index_outside_the_basis(sl2, part1, bad):
    with pytest.raises(ValueError) as exc:
        SplitDecomposition(sl2, part1, (1, 2))
    assert str(exc.value) == f"index {bad!r} outside basis"
    assert str(validate_split(sl2, part1, (1, 2))) == (
        f"partition violation at ({bad!r}): index {bad!r} outside basis")
    # indices inside the basis that fail to partition it keep their own message
    with pytest.raises(ValueError, match="^parts must partition the basis index set$"):
        SplitDecomposition(sl2, (0, 1), (1, 2))


def test_project_takes_part_1_or_2(sl2):
    split = SplitDecomposition(sl2, (1,), (0, 2))
    e = sl2.basis_vector(0)
    for which in (0, 3, "1", None):
        with pytest.raises(ValueError, match="split part must be 1 or 2"):
            split.project(which, e)
    assert split.project(2, e) == e and split.project(1, e).is_zero()


@pytest.mark.parametrize("coords", [{"e": 1, 0: 2}, {0: 2, "e": 1}],
                         ids=["name_first", "index_first"])
def test_vector_rejects_a_basis_element_given_twice(sl2, coords):
    with pytest.raises(ValueError) as exc:
        sl2.vector(coords)
    assert str(exc.value) == "basis element e given twice"
    assert sl2.vector({"e": 1, 1: 2}) == GVector(sl2, (1, 2, 0))


def test_internal_vectors_skip_the_out_of_basis_rule(monkeypatch):
    # brackets, projections, the linear arithmetic and the suite's lie_action
    # row build vectors whose indices are valid by construction; only the
    # public constructors run the rule
    import envnorm.liealg as liealg
    from envnorm.checks import SuiteConfig, run_property

    entry = builtin_examples()["sl3_Z"]
    alg, split = entry.algebra, entry.split
    v, w = alg.vector({0: 2, 3: -1}), alg.vector({1: 1, 5: 3})
    calls = []
    rule = liealg._check_indices
    monkeypatch.setattr(liealg, "_check_indices", lambda *args: calls.append(args) or rule(*args))
    alg.bracket(v, w), split.project(1, v), split.project(2, w)
    v + w, v - w, v.scale(3), -v
    assert run_property("lie_action", SuiteConfig(cases=2), entry).failed == 0
    assert calls == []
    for build in (lambda: GVector(alg, {9: 1}), lambda: alg.vector({-1: 1}),
                  lambda: alg.basis_vector(9)):
        with pytest.raises(ValueError, match="outside basis"):
            build()
    assert len(calls) == 3
