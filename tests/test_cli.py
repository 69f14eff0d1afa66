import itertools
import os
import random
import string
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from closed_forms import sl2_eafb, sl2_efn, sl2_hne
from envnorm import cli
from envnorm.checks import (
    RegistryEntry, SuiteConfig, builtin_examples, run_property, shrink, sl2_algebra,
    sl_algebra, sl_triangular_split,
)
from envnorm.cli import (
    AlgebraSpec,
    ParseError,
    format_spec,
    main,
    parse_expr,
    parse_spec,
    state_lines,
)
from envnorm.envelope import EnvElement, env_eq
from envnorm.liealg import LieAlgebra
from envnorm.normalform import ActionContext, OracleMismatchError, check_lie_action
from envnorm.ring import make_ring
from golden_runs import ERROR_RUNS, GOLDEN, GOLDEN_RUNS, row_id

Z = make_ring("Z")


def golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ spec files

def test_parse_spec_sl2():
    spec = parse_spec(golden("sl2.alg"))
    assert spec.ring.descriptor() == "Z"
    assert spec.basis == ("e", "f", "h")
    assert spec.part1 == (1,) and spec.part2 == (2, 0)
    algebra, split = spec.build()
    assert algebra.bracket(algebra.basis_vector(0), algebra.basis_vector(1)) == algebra.vector({"h": 1})
    # auto-filled negation
    assert algebra.bracket(algebra.basis_vector(1), algebra.basis_vector(0)) == algebra.vector({"h": -1})


def _table_spec_text(algebra) -> str:
    """.alg text for an algebra: one bracket line per nonzero cell i <= j."""
    names = algebra.basis
    lines = [f"ring {algebra.ring.descriptor()}", "basis " + " ".join(names)]
    for i, j in itertools.combinations_with_replacement(range(algebra.dim), 2):
        if algebra.table[i][j]:
            combo = " + ".join(f"{c}*{names[k]}" for k, c in algebra.table[i][j])
            lines.append(f"bracket {names[i]} {names[j]} = {combo}")
    lines.append(f"split {names[0]} | {' '.join(names[1:])}")
    return "\n".join(lines) + "\n"


_TABLE_ALGEBRAS = {"sl3_Z": sl_algebra(3, Z), "sl4_Z": sl_algebra(4, Z),
                   "sl2_Q": sl2_algebra(make_ring("Q"))}
_BUILD_SPECS = {
    **{path.name: golden(path.name) for path in sorted(GOLDEN.glob("*.alg"))},
    **{name: _table_spec_text(algebra) for name, algebra in _TABLE_ALGEBRAS.items()},
}


def test_parse_spec_round_trip():
    # every golden .alg file and the written-out tables of sl3, sl4 and sl2/Q
    for name, text in _BUILD_SPECS.items():
        spec = parse_spec(text)
        assert parse_spec(format_spec(spec)) == spec, name


@pytest.mark.parametrize("name", _BUILD_SPECS)
def test_build_table_matches_from_brackets(name):
    spec = parse_spec(_BUILD_SPECS[name])
    names = spec.basis
    reference = LieAlgebra.from_brackets(spec.ring, names, {
        (names[i], names[j]): {names[k]: c for k, c in pairs}
        for (i, j), pairs in spec.brackets
    })
    algebra, _split = spec.build()
    assert algebra.basis == reference.basis and algebra.table == reference.table
    if name in _TABLE_ALGEBRAS:
        assert algebra.table == _TABLE_ALGEBRAS[name].table


def test_parse_spec_crlf_and_comments():
    # U+2028 and U+2029 end a line for str.splitlines, not for a file
    text = "ring Z\r\nbasis a b # \u2028 note\r\n# comment\u2029 more\r\n\r\nsplit a | b\r\n"
    spec = parse_spec(text)
    assert spec.basis == ("a", "b") and spec.brackets == ()


_CONFLICT = "ring Z\nbasis e f h\nbracket f e = -1*h\nbracket e f = 2*h\n"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("basis a b\nsplit a | b", "missing ring"),
        ("ring Z", "missing basis"),
        ("ring Z\nsplit a | b", "unknown name"),
        ("ring Z\nbasis a b", "missing split"),
        ("ring Zmod 1\nbasis a\nsplit a |", "modulus"),
        ("ring Z\nbasis a a\nsplit a | a", "duplicate basis name"),
        ("ring Z\nbasis a b\nbracket a c = b\nsplit a | b", "unknown name"),
        ("ring Z\nbasis a b\nsplit a | b\nsplit a | b", "duplicate split"),
        ("ring Z\nbasis e f h\nsplit e | h", "unassigned"),
        ("ring Z\nbasis e f h\nsplit e f | f h", "both split parts"),
        ("ring Z\nbasis a b\nsplit a a | b", "'a' listed twice in split part 1"),
        ("ring Z\nbasis e f\nbracket e f = 1/2*f\nsplit e | f", "outside Q"),
        ("ring Z\nbasis e f\nbracket e f = 5\nsplit e | f", "basis name"),
        ("ring Z\nbasis e f\nbracket e f = f\nbracket f e = f\nsplit e | f", "opposite orientation"),
        ("ring Z\nbasis e f\nbracket e f = f\nbracket e f = f\nsplit e | f", "declared twice"),
        ("wibble Z\n", "unknown directive"),
        ("ring Z\nbasis a b\nsplit a | b\nbasis c", "duplicate basis line"),
        # each line is judged as it is read: a fault is reported where it is
        (_CONFLICT + "split e | f h", "line 4: bracket (e,f) conflicts with the opposite"),
        (_CONFLICT + "wibble\nsplit e | f h", "line 4: bracket (e,f) conflicts"),
        ("ring Z\nbasis e f\nsplit e f | e zz", "line 3: 'e' assigned to both split parts"),
        # a form feed stays part of its line, so later line numbers hold
        ("ring Z\r\n\f\r\nbasis a b\r\nbracket a b = zz\r\nsplit a | b\r\n",
         "line 4, col 15: unknown name 'zz'"),
    ],
)
def test_parse_spec_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_spec(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text,message",
    [
        ("ring Z\nring Q\nbasis a\nsplit a |", "line 2: duplicate ring line"),
        ("ring Z\nbasis a\nring Zmod x", "line 3: duplicate ring line"),
        ("ring Z\nbasis a b\n\nbasis", "line 4: duplicate basis line"),
        ("ring Z\nbasis\n", "line 2: basis line needs at least one name"),
        ("ring Z\nbasis a b\nsplit a | b\nsplit b | a", "line 4: duplicate split line"),
        ("ring Z\nbasis a b\nsplit a | b\nsplit", "line 4: duplicate split line"),
        ("", "missing ring line"),
        ("basis a b\nsplit a | b", "missing ring line"),
        ("ring Q\n# no basis", "missing basis line"),
        ("ring Z\nbasis a b", "missing split line"),
    ],
)
def test_once_only_directive_messages(text, message):
    # ring, basis and split each appear exactly once; the duplicate is
    # reported on its own line, a missing line after the whole file is read
    with pytest.raises(ParseError) as err:
        parse_spec(text)
    assert str(err.value) == message


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_spec("ring Z\nbasis a b\nbracket a zz = b\nsplit a | b")
    assert err.value.line == 3


def _sl2_pair_spec(value: str) -> str:
    return f"ring Z\nbasis e f\nbracket e f = {value}\nsplit e | f\n"


def test_bracket_value_uses_the_expression_grammar():
    algebra, _split = parse_spec(_sl2_pair_spec("2*(e - f)")).build()
    e, f = algebra.basis_vector(0), algebra.basis_vector(1)
    assert algebra.bracket(e, f) == algebra.vector({"e": 2, "f": -2})
    assert algebra.bracket(f, e) == algebra.vector({"e": -2, "f": 2})


@pytest.mark.parametrize("value", ["e*f", "1", "2*1", "(e*f)"])
def test_bracket_value_must_be_linear(value):
    with pytest.raises(ParseError) as err:
        parse_spec(_sl2_pair_spec(value))
    assert "linear" in err.value.message
    assert (err.value.line, err.value.col) == (3, 15)  # where the value starts


def test_bracket_value_cancelling_to_zero_is_zero():
    spec = parse_spec(_sl2_pair_spec("e*f - e*f"))
    assert spec.brackets == () and spec == parse_spec(_sl2_pair_spec("0"))


@pytest.mark.parametrize("ring,line,pairs", [
    # an integral sum or product of fractions is stored as its int
    ("Q", "bracket e f = 1/2*h + 1/2*h", ((2, 1),)),
    ("Q", "bracket e f = 2/3*(3/2*h)", ((2, 1),)),
    # the reversed orientation is stored negated, reduced mod q over Z/q
    ("Q", "bracket f e = 1/2*h", ((2, Fraction(-1, 2)),)),
    ("Zmod 4", "bracket f e = h + 3*e", ((0, 1), (2, 3))),
])
def test_bracket_values_are_stored_as_raw_ring_values(ring, line, pairs):
    spec = parse_spec(f"ring {ring}\nbasis e f h\n{line}\nsplit e | f h\n")
    assert spec.brackets == (((0, 1), pairs),)
    assert [type(c) for _k, c in spec.brackets[0][1]] == [type(c) for _k, c in pairs]


@pytest.mark.parametrize("line,message", [
    ("bracket a b = 2*zz", "line 3, col 17: unknown name 'zz'"),
    ("  bracket a b =  1*a + ²*b   # x", "line 3, col 24: unexpected character '²'"),
])
def test_bracket_error_columns_count_from_line_start(capsys, tmp_path, line, message):
    path = tmp_path / "column.alg"
    path.write_text(f"ring Z\nbasis a b\n{line}\nsplit a | b\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _outcome(text: str):
    """parse_spec's spec with its coefficients' types, or its error text."""
    try:
        spec = parse_spec(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.col
    return spec, [type(c) for _key, pairs in spec.brackets for _k, c in pairs]


def _builtin_spec_texts() -> list[str]:
    texts = []
    for entry in builtin_examples().entries():
        alg, split = entry.algebra, entry.split
        brackets = tuple(((i, j), tuple(alg.table[i][j]))
                         for i, j in itertools.combinations_with_replacement(range(alg.dim), 2)
                         if alg.table[i][j])
        texts.append(format_spec(AlgebraSpec(alg.ring, alg.basis, brackets,
                                             split.part1, split.part2)))
    return texts


_PLAIN_RINGS = ("Z", "Q", "Zmod 2", "Zmod 4")
_PLAIN_BASIS = ("a", "b", "x", "y1", "Z_2")


def _plain_value(rng, modulus: int) -> str:
    """A seeded plain linear value: repeated names, zero and leading-zero
    coefficients, multiples of the modulus, 4400-digit coefficients and
    '+ -n*x' terms, spaced by spaces and tabs."""
    out = []
    for t in range(rng.randint(1, 6)):
        roll = rng.random()
        if roll < 0.3:
            coeff = ""
        elif roll < 0.5:
            coeff = str(rng.randint(0, 9))
        elif roll < 0.65:
            coeff = "0" * rng.randint(1, 3) + str(rng.randint(0, 99))
        elif roll < 0.85:
            coeff = str(modulus * rng.randint(1, 3))
        else:
            coeff = rng.choice("123456789") + "".join(rng.choices(string.digits, k=4399))
        term = f"{coeff}*{rng.choice(_PLAIN_BASIS[:3])}" if coeff else rng.choice(_PLAIN_BASIS)
        op = "+" if t == 0 else rng.choice("+-")
        sign = "-" if op == "+" and rng.random() < 0.3 else ""
        blank = [rng.choice((" ", "  ", "\t", " \t ")) for _ in range(2)]
        out.append(sign + term if t == 0 else f"{blank[0]}{op}{blank[1]}{sign}{term}")
    return "".join(out)


def _plain_spec_texts() -> list[str]:
    """12 specs a ring, each with four plain bracket values (the first
    spec's fixed), on cells of both orientations."""
    rng = random.Random(11)
    cells = list(itertools.combinations_with_replacement(_PLAIN_BASIS, 2))
    texts = []
    for ring in _PLAIN_RINGS:
        modulus = int(ring.split()[-1]) if ring.startswith("Zmod") else 3
        fixed = [f"{modulus}*a", "a - a", "2*a + -2*b - b + 2*b", "b + 1*b"]
        for k in range(12):
            values = fixed if k == 0 else [_plain_value(rng, modulus) for _ in range(4)]
            lines = [f"ring {ring}", "basis " + " ".join(_PLAIN_BASIS)]
            for (a, b), value in zip(rng.sample(cells, len(values)), values):
                a, b = (a, b) if rng.random() < 0.5 else (b, a)
                lines.append(f"bracket {a} {b} = {value}")
            texts.append("\n".join(lines + ["split a b | x y1 Z_2"]) + "\n")
    return texts


# values at and past the edge of the plain shape, all but '0*h' left to the
# grammar; the first five hold blanks other than space and tab
_GRAMMAR_VALUES = (
    "h\x0c+ e", "h\xa0+ e", "h +\u2028e", "h\x0b+ e", "h\u3000+\u3000e", "²*h", "٣*h",
    "h - -e", "h +", "+h", "0*h", "h + 1", "2 * h", "e*f - e*f", "2*(e - f)", "1/3*h",
    "h + g", "2h", "h e", "-", "h + +e", "h ++ e", "h+e", "*h", "2*", "3*h*e",
)


def _grammar_spec_texts() -> list[str]:
    return [f"ring {ring}\nbasis e f h\nbracket e f = {value}\nsplit e | f h\n"
            for ring in ("Z", "Q") for value in _GRAMMAR_VALUES]


def _golden_spec_texts() -> list[str]:
    return [path.read_text(encoding="utf-8") for path in sorted(GOLDEN.rglob("*.alg"))]


def _counting_tokenize(monkeypatch) -> list:
    """Patch cli._tokenize to record each call; returns the call list."""
    calls, tokenize = [], cli._tokenize
    monkeypatch.setattr(cli, "_tokenize", lambda *args: calls.append(args) or tokenize(*args))
    return calls


def test_plain_bracket_values_read_as_the_grammar_reads_them(monkeypatch, int_digits):
    int_digits(4300)  # the long coefficients pass CPython's default limit
    plain = _plain_spec_texts()
    calls = _counting_tokenize(monkeypatch)
    direct = [_outcome(text) for text in plain]
    assert calls == []  # every seeded value is read without the grammar
    corpus = plain + _golden_spec_texts() + _builtin_spec_texts() + _grammar_spec_texts()
    direct += [_outcome(text) for text in corpus[len(plain):]]
    monkeypatch.setattr(cli, "_plain_linear", lambda *_args: None)
    for text, got in zip(corpus, direct):
        assert got == _outcome(text), text[:200]


def test_plain_bracket_values_keep_the_bound_on_a_sum(monkeypatch):
    # both readings look _MAX_TERMS up when called, so a small one shows its edge
    monkeypatch.setattr(cli, "_MAX_TERMS", 3)
    texts = [f"ring Z\nbasis {' '.join(_PLAIN_BASIS)}\nbracket a b = {value}\n"
             "split a b | x y1 Z_2\n"
             for value in ("a + b + x", "a + b + x - x", "a + b + x + y1 - y1", "a + b + x + y1")]
    direct = [_outcome(text) for text in texts]
    assert isinstance(direct[1][0], AlgebraSpec) and "more than 3 terms" in direct[2][0]
    monkeypatch.setattr(cli, "_plain_linear", lambda *_args: None)
    assert direct == [_outcome(text) for text in texts]


def test_plain_bracket_values_skip_the_tokenizer(monkeypatch):
    calls = _counting_tokenize(monkeypatch)
    for name in ("sl2.alg", "sl3.alg", "sl4.alg", "heisenberg.alg"):
        parse_spec(golden(name))
    for text in _builtin_spec_texts():
        parse_spec(text)
    assert calls == []
    parse_spec(golden("sl2_q_third.alg"))
    assert [(line, code[start:]) for code, line, start in calls] == [(5, " 1/3*h")]


def test_wrong_table_parses_then_fails_validation():
    # [h,f] = -2*e instead of -2*f: the file is grammatical, the algebra is not
    text = "ring Z\nbasis e f h\nbracket e f = h\nbracket h e = 2*e\nbracket h f = -2*e\nsplit f | h e\n"
    spec = parse_spec(text)
    algebra, _split = spec.build()
    from envnorm.liealg import validate_algebra

    report = validate_algebra(algebra)
    assert not report.ok
    assert any(v.kind == "jacobi" for v in report.violations)


def _raises(exc):
    def boom(*_args, **_kwargs):
        raise exc
    return boom


_SL2 = str(GOLDEN / "sl2.alg")


@pytest.mark.parametrize("argv,patch,code,err_start", [
    pytest.param(("normal-order", str(GOLDEN / "sl2_bad_jacobi.alg"), "--expr", "e*f"), None, 1,
                 "jacobi violation at (e, f, h)", id="normal-order-invalid"),
    pytest.param(("straighten", _SL2, "--expr", "e*f"), ("straighten", ValueError("forced")),
                 2, "error: forced\n", id="value-error"),
    pytest.param(("normal-order", _SL2, "--expr", "e*f"),
                 ("normal_order", OracleMismatchError("forced")), 3,
                 "oracle mismatch: forced\n", id="oracle-mismatch"),
    pytest.param(("normal-order", _SL2, "--expr", "e*f"), ("normal_order", RecursionError()), 4,
                 "error: input too large to process (recursion limit reached)\n",
                 id="recursion-limit"),
])
def test_exit_code_table(monkeypatch, capsys, argv, patch, code, err_start):
    """Each failure class through main: its exit code, the start of stderr,
    no traceback, and nothing on stdout. A patched row forces a class no
    input can reach."""
    if patch is not None:
        monkeypatch.setattr(cli, patch[0], _raises(patch[1]))
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith(err_start) and "Traceback" not in err


def test_diagonal_bracket_parses_then_fails_validation():
    # validate_sl2_bad_alternating.txt holds the CLI's report
    spec = parse_spec(golden("sl2_bad_alternating.alg"))
    assert any(i == j for (i, j), _ in spec.brackets)


# ---------------------------------------------------------------- expressions

@pytest.fixture
def sl2():
    return sl2_algebra(Z)


def test_parse_expr_examples(sl2):
    u = parse_expr("e*f + 2*h", sl2)
    assert u == EnvElement.word(sl2, (0, 1)) + EnvElement.word(sl2, (2,), 2)
    v = parse_expr("(e+f)*h", sl2)
    assert v == EnvElement.word(sl2, (0, 2)) + EnvElement.word(sl2, (1, 2))
    assert parse_expr("1", sl2) == EnvElement.unit(sl2)
    assert parse_expr("3*1", sl2) == EnvElement.unit(sl2).scale(3)
    assert parse_expr("e - f", sl2) == EnvElement.word(sl2, (0,)) + EnvElement.word(sl2, (1,), -1)
    assert parse_expr("-2*e*h", sl2) == EnvElement.word(sl2, (0, 2), -2)


def _random_sum(rng, names, coeff):
    """A parenthesized sum of 1..3 terms and its {word: coefficient} expansion."""
    text, terms = [], {}
    for _ in range(rng.randint(1, 3)):
        word = tuple(rng.randrange(len(names)) for _ in range(rng.randint(0, 2)))
        c = coeff()
        text.append(f"{c}*{'*'.join(names[l] for l in word) or '1'}")
        terms[word] = terms.get(word, 0) + c
    return "(" + " + ".join(text) + ")", terms


def _random_factor(rng, names, coeff):
    """A parenthesized sum, a bare name, '1' or a parenthesized one-term
    factor such as '(3*e)', and its expansion."""
    kind = rng.randrange(4)
    if kind == 0:
        return _random_sum(rng, names, coeff)
    if kind == 1:
        letter = rng.randrange(len(names))
        return names[letter], {(letter,): 1}
    if kind == 2:
        return "1", {(): 1}
    letter, c = rng.randrange(len(names)), coeff()
    return f"({c}*{names[letter]})", {(letter,): c}


def _expand(factors, scale=1):
    """The product of the factors' expansions by a local double loop."""
    expected = {(): scale}
    for _text, terms in factors:
        product = {}
        for w1, c1 in expected.items():
            for w2, c2 in terms.items():
                product[w1 + w2] = product.get(w1 + w2, 0) + c1 * c2
        expected = product
    return expected


def test_parse_expr_expands_products_of_sums():
    # the parser's word product against a local double loop, on every builtin algebra
    rng = random.Random(43)
    for entry in builtin_examples().entries():
        alg = entry.algebra
        if alg.ring.kind == "Q":
            coeff = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        else:
            coeff = lambda: rng.randint(-9, 9)
        for _ in range(30):
            factors = [_random_sum(rng, alg.basis, coeff) for _ in range(rng.randint(1, 3))]
            text = " * ".join(text for text, _terms in factors)
            assert parse_expr(text, alg) == EnvElement(alg, _expand(factors)), (entry.name, text)
        # sums of 1..3 terms '-c*f1*f2*...', each factor a sum, a name, '1'
        # or a one-term factor; a later term's '-' is the binary minus
        for _ in range(30):
            parts, expected = [], {}
            for _ in range(rng.randint(1, 3)):
                c = abs(coeff())
                factors = [_random_factor(rng, alg.basis, coeff)
                           for _ in range(rng.randint(1, 4))]
                parts.append(f"-{c}*" + "*".join(text for text, _terms in factors))
                for w, d in _expand(factors, -c).items():
                    expected[w] = expected.get(w, 0) + d
            text = " ".join(parts)
            assert parse_expr(text, alg) == EnvElement(alg, expected), (entry.name, text)


def test_parse_expr_fraction_needs_q(sl2):
    with pytest.raises(ParseError) as err:
        parse_expr("1/2*e", sl2)
    assert "outside Q" in str(err.value)
    alg_q = sl2_algebra(make_ring("Q"))
    from fractions import Fraction
    assert parse_expr("1/2*e", alg_q) == EnvElement.word(alg_q, (0,), Fraction(1, 2))


@pytest.mark.parametrize(
    "bad", ["", "e +", "(", "(e", "2", "e ** f", "zz*e", "e $ f", "2*3", "1/0*e", "²*e"]
)
def test_parse_expr_rejects(bad, sl2):
    with pytest.raises(ParseError):
        parse_expr(bad, sl2)


def _nested(depth: int) -> str:
    return "(" * depth + "e" + ")" * depth


def test_parse_expr_nesting_bound(sl2):
    assert parse_expr(_nested(200), sl2) == EnvElement.word(sl2, (0,))
    with pytest.raises(ParseError) as err:
        parse_expr(_nested(201), sl2)
    assert "nested too deeply" in str(err.value)


def _factors(n: int, factor: str = "(e+f)") -> str:
    return "*".join([factor] * n)


def test_parse_expr_expansion_bound(sl2):
    assert len(parse_expr(_factors(16), sl2).terms) == 2 ** 16
    with pytest.raises(ParseError) as err:
        parse_expr(_factors(17), sl2)
    assert err.value.message == "expression expands to more than 100000 terms"
    assert err.value.col == 16 * len("(e+f)*")  # at the 16th '*'
    # a sum of products each under the bound is bounded too
    with pytest.raises(ParseError) as err:
        parse_expr(_factors(16) + " + " + _factors(16, "(e+h)"), sl2)
    assert err.value.message == "expression expands to more than 100000 terms"


def test_parse_expr_budget_sees_coefficients_where_they_join():
    # A term's sign and coefficient join its product last, and a run of
    # one-term factors joins its coefficient when the run ends, so the
    # bound judges the sizes the product has at each '*'.
    sl2_z4 = sl2_algebra(make_ring("Zmod 4"))
    assert parse_expr("(2*e)*(2*f)*" + _factors(17), sl2_z4).is_zero()
    with pytest.raises(ParseError) as err:
        parse_expr("0*" + _factors(17), sl2_z4)
    assert err.value.message == "expression expands to more than 100000 terms"
    assert err.value.col == 98  # at the 16th '*' after the '0*'
    assert parse_expr("-(2*e)*(e+f)*(2*h)", sl2_z4).is_zero()


def test_parse_expr_long_product_is_one_word():
    # a run of one-word factors is joined once, so 20 000 letters parse in
    # linear time
    heis = parse_spec(golden("heisenberg.alg")).build()[0]
    word = tuple(heis.index[name] for name in ["y"] * 19_999 + ["x"])
    text = "*".join(heis.basis[i] for i in word)
    assert parse_expr(text, heis) == EnvElement.word(heis, word)
    assert parse_expr(f"-3*{text}", heis) == EnvElement.word(heis, word, -3)


def test_expanding_bracket_value_exits_2(capsys, tmp_path):
    # 17 factors are enough to cross the bound; code without it expands
    # them in about a second, where 30 would take 2^30 words of memory
    path = tmp_path / "expanding.alg"
    path.write_text(_sl2_pair_spec(_factors(17)), encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == "error: line 3, col 110: expression expands to more than 100000 terms\n"


def test_parse_expr_never_crashes(sl2):
    rng = random.Random(41)
    alphabet = string.ascii_letters + string.digits + "+-*/() eh"
    for _ in range(500):
        text = "".join(rng.choices(alphabet, k=rng.randint(0, 12)))
        try:
            parse_expr(text, sl2)
        except ParseError as exc:
            assert exc.line is not None and exc.col is not None


def test_parse_expr_reads_other_decimal_digits(sl2):
    # any Unicode decimal digit is a digit to int(); superscripts are not
    assert parse_expr("٣*e", sl2) == EnvElement.word(sl2, (0,), 3)


def test_print_parse_round_trip(sl2):
    rng = random.Random(42)
    for _ in range(100):
        u = EnvElement.zero(sl2)
        for _ in range(rng.randint(1, 3)):
            word = tuple(rng.choices(range(3), k=rng.randint(0, 4)))
            u = u + EnvElement.word(sl2, word, rng.randint(-9, 9))
        reparsed = parse_expr(str(u), sl2)
        assert env_eq(reparsed, u)
        assert reparsed == u  # printing preserves the representative exactly


# ------------------------------------------------------------------- commands

@pytest.mark.parametrize("name,code,argv", [
    pytest.param(*row, id=row_id(row)) for row in GOLDEN_RUNS
])
def test_golden_run(capsys, name, code, argv):
    assert run_cli(capsys, *argv) == (code, golden(name), "")


@pytest.mark.parametrize("code,argv,err", [
    pytest.param(*row, id=row_id(row)) for row in ERROR_RUNS
])
def test_error_run(capsys, code, argv, err):
    assert run_cli(capsys, *argv) == (code, "", err)


def test_normal_order_invalid_algebra_exits_1(capsys):
    code, out, err = run_cli(
        capsys, "normal-order", str(GOLDEN / "sl2_bad_jacobi.alg"), "--expr", "e*f"
    )
    assert code == 1 and out == "" and "jacobi" in err


def test_every_golden_has_one_run():
    # a golden with no run fails, and so does a row naming a missing file;
    # no two rows share an id
    assert {name for name, _, _ in GOLDEN_RUNS} == {p.name for p in GOLDEN.glob("*.txt")}
    ids = [row_id(row) for row in GOLDEN_RUNS + ERROR_RUNS]
    assert len(set(ids)) == len(ids)


def test_normal_order_golden_sl2_h30e():
    # h^30 e is the closed form sl2_hne(30): one coefficient per power of h
    names = "efh"
    assert golden("normal_order_sl2_h30e.txt").splitlines() == [
        f"{c} * 1 (x) {' '.join(names[x] for x in right)}"
        for (_, right), c in sorted(sl2_hne(30).items(), key=lambda kv: -len(kv[0][1]))
    ]


def _sl2_lines(terms: dict) -> list:
    """A closed sl2 normal form's lines as ``normal-order`` prints them."""
    spell = lambda word: " ".join("efh"[x] for x in word) or "1"
    terms = sorted(terms.items(),
                   key=lambda kv: (len(kv[0][0]), kv[0][0], len(kv[0][1]), kv[0][1]), reverse=True)
    return [f"{c} * {spell(left)} (x) {spell(right)}" for (left, right), c in terms]


def test_normal_order_golden_sl2_e16f16():
    # e^16 f^16 is Kostant's closed form sl2_eafb(16, 16): 137 terms
    assert golden("normal_order_sl2_e16f16.txt").splitlines() == _sl2_lines(sl2_eafb(16, 16))


def test_normal_order_golden_sl2_ef2000():
    # e f^2000 is the closed form sl2_efn(2000); its GOLDEN_RUNS row runs
    # normal-order --no-oracle on it at the default recursion limit
    assert sys.getrecursionlimit() == 1000
    assert golden("normal_order_sl2_ef2000.txt").splitlines() == _sl2_lines(sl2_efn(2000))


def test_sl4_golden_is_the_formatted_triangular_split():
    text = golden("sl4.alg")
    spec = parse_spec(text)
    assert format_spec(spec) == text
    algebra, split = spec.build()
    reference = sl_algebra(4, Z)
    triangular = sl_triangular_split(reference, 4)
    assert algebra.basis == reference.basis and algebra.table == reference.table
    assert (split.part1, split.part2) == (triangular.part1, triangular.part2)


def test_parse_error_exit_codes(capsys):
    # argparse words this error differently from one Python to the next
    code, _out, _err = run_cli(capsys, "frobnicate")
    assert code == 2


@pytest.mark.parametrize("command", [
    ("validate",),
    ("normal-order", "--expr", "e"),
    ("straighten", "--expr", "e"),
    ("check",),
])
def test_non_utf8_spec_exits_2(capsys, tmp_path, command):
    path = tmp_path / "latin1.alg"
    path.write_bytes(golden("sl2.alg").encode("utf-8") + b"# caf\xe9 \xff\n")
    code, _out, err = run_cli(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_spec_with_byte_order_mark_validates(capsys, tmp_path):
    path = tmp_path / "bom.alg"
    path.write_bytes(b"\xef\xbb\xbf" + golden("sl2.alg").encode("utf-8"))
    assert run_cli(capsys, "validate", str(path)) == run_cli(
        capsys, "validate", str(GOLDEN / "sl2.alg")) == (0, "ok\n", "")


def test_non_decimal_digit_in_spec_exits_2(capsys, tmp_path):
    path = tmp_path / "superscript.alg"
    path.write_text("ring Z\nbasis a b\nbracket a b = ²*a\nsplit a | b\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err
    assert "unexpected character '²'" in err


def test_modulus_with_underscore_exits_2(capsys, tmp_path):
    path = tmp_path / "underscore.alg"
    path.write_text("ring Zmod 1_0\nbasis a b\nsplit a | b\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == "error: line 1: malformed ring descriptor 'Zmod 1_0'\n"


def test_second_basis_line_exits_2(capsys, tmp_path):
    path = tmp_path / "two_bases.alg"
    path.write_text("ring Z\nbasis a b\nsplit a | b\nbasis c\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == "error: line 4: duplicate basis line\n"


def test_check_output_is_identical_across_hash_seeds():
    # the report must not depend on set or dict orders that vary per process
    root = Path(__file__).parent.parent
    argv = [sys.executable, "-m", "envnorm.cli", "check", "--builtin", "--seed", "42", "--cases", "5"]
    outs = []
    for hash_seed in ("0", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(root / "src")}
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1] and "\nTOTAL entries=8 " in outs[0]


def test_import_loads_no_code_generating_modules():
    # every run of the console script pays for what `import envnorm` loads,
    # and these modules, which generate code, cost several times the rest
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import envnorm, envnorm.cli; "
            "print(*[m for m in ('dataclasses', 'inspect', 'ast', 'dis') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(src)],
                          capture_output=True, text=True, check=True)
    assert (proc.stdout, proc.stderr) == ("\n", "")


def test_import_loads_no_module_only_some_commands_use():
    # argparse loads in build_parser, hashlib and random with the suite's
    # draws, fractions (and decimal with it) where a Fraction is built or
    # met, and a spec file is read with open(), not pathlib
    src = Path(__file__).resolve().parent.parent / "src"
    modules = ("argparse", "decimal", "fractions", "hashlib", "pathlib", "random")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import envnorm, envnorm.cli; "
            f"print(*[m for m in {modules!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(src)],
                          capture_output=True, text=True, check=True)
    assert (proc.stdout, proc.stderr) == ("\n", "")


def test_closed_stdout_exits_141_quietly():
    # the reader of the pipe is gone before the report is written
    root = Path(__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONWARNINGS": "error"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "envnorm.cli", "check", "--builtin", "--cases", "1"],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (141, b"")


def test_raising_lie_action_failures_are_shrunk():
    # the same cases as `check sl2_bad_split.alg --props lie_action --cases 5`
    algebra, split = parse_spec(golden("sl2_bad_split.alg")).build()
    entry = RegistryEntry("sl2_bad_split", algebra, split)
    result = run_property("lie_action", SuiteConfig(seed=42, cases=5, max_degree=3), entry)
    ctx = ActionContext(algebra, split, validate=False)

    def check(inst):
        g, h = algebra.basis_vector(inst["g"]), algebra.basis_vector(inst["h"])
        return check_lie_action(ctx, g, h, inst["s"])

    def fails(inst):
        try:
            return not check(inst)
        except Exception:
            return True

    raising = [f for f in result.failures if f.description[-1].startswith("raised ")]
    assert raising
    for failure in raising:
        inst = failure.instance
        assert {"g", "h"} <= set(inst)
        assert failure.description[:2] == (
            f"g = {algebra.basis[inst['g']]}", f"h = {algebra.basis[inst['h']]}",
        )
        with pytest.raises(ValueError):
            check(inst)
        assert shrink(inst, fails) == inst  # no single move keeps the failure


# Integers longer than CPython's int <-> str digit limit (4300 by default, 640
# at the least) are read and printed in full, at either limit.
_LONG = ("9876543210" * 500)[:5000]


@pytest.mark.parametrize("limit", [4300, 640])
def test_long_coefficient_over_z(capsys, int_digits, limit):
    int_digits(limit)
    code, out, err = run_cli(capsys, "normal-order", _SL2, "--expr", f"{_LONG}*e")
    assert (code, out, err) == (0, f"{_LONG} * 1 (x) e\n", "")


@pytest.mark.parametrize("limit", [4300, 640])
def test_long_fraction_over_q(capsys, int_digits, limit):
    den = "5" * 4999
    int_digits(0)
    expected = f"{Fraction(int(_LONG), int(den))} * e (x) 1\n"
    int_digits(limit)
    code, out, err = run_cli(
        capsys, "normal-order", str(GOLDEN / "sl2_borel.alg"), "--expr", f"{_LONG}/{den}*e"
    )
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("limit", [4300, 640])
def test_long_modulus(capsys, tmp_path, int_digits, limit):
    coeff = _LONG[:4999]
    int_digits(0)
    expected = f"{-int(coeff) % int(_LONG)} * 1 (x) e\n"
    int_digits(limit)
    path = tmp_path / "sl2_long_modulus.alg"
    path.write_text(golden("sl2.alg").replace("ring Z\n", f"ring Zmod {_LONG}\n"),
                    encoding="utf-8")
    assert run_cli(capsys, "validate", str(path)) == (0, "ok\n", "")
    code, out, err = run_cli(capsys, "normal-order", str(path), f"--expr=-{coeff}*e")
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("limit", [4300, 640])
def test_long_product_prints_in_full(capsys, sl2, int_digits, limit):
    a = "9" * 3000
    expr = f"{a}*e*({a}*f)"
    int_digits(0)
    expected = f"{int(a) ** 2} * e * f\n"
    int_digits(limit)
    code, out, err = run_cli(capsys, "straighten", _SL2, "--expr", expr)
    assert (code, out, err) == (0, expected, "")
    assert parse_expr(out.strip(), sl2) == parse_expr(expr, sl2)


@pytest.mark.parametrize("limit", [4300, 640])
def test_long_table_coefficient_prints_in_full(capsys, tmp_path, int_digits, limit):
    int_digits(limit)
    path = tmp_path / "long_bracket.alg"
    path.write_text(f"ring Z\nbasis a b c\nbracket a b = {_LONG}*c\nsplit a b | c\n",
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, err) == (1, "")
    assert out == (
        f"closure violation at (a, b): [a,b] has component {_LONG}*c outside part 1\n"
        f"closure violation at (b, a): [b,a] has component -{_LONG}*c outside part 1\n"
    )
    for ring, value in (("Z", f"-{_LONG}*c"), ("Q", f"{_LONG}/7*c")):
        spec = parse_spec(f"ring {ring}\nbasis a b c\nbracket a b = {value}\nsplit a b | c\n")
        assert parse_spec(format_spec(spec)) == spec


def test_state_lines_zero(sl2):
    from envnorm.liealg import SplitDecomposition
    from envnorm.envelope import StateElement
    split = SplitDecomposition(sl2, (1,), (0, 2))
    assert state_lines(StateElement.zero(split)) == ["0"]


# ------------------------------------------------------------------- fuzzing

_FUZZ_PIECES = (
    tuple("efhxyc0123456789*+-/()|=#\n ")
    + ("ring", "basis", "bracket", "split", "²", "①", "٣", "é")
)
_FUZZ_EXPRS = ("e*f + 2*h", "(e+f)*h", "-1/2*e*e", "f*e - 3/4*h", "1")


def _mutants(rng: random.Random, seeds, count: int):
    """``count`` texts, each a seed with 1-4 single-piece insertions,
    deletions or replacements, as tuples of pieces (a piece is one character
    or one directive keyword)."""
    for _ in range(count):
        pieces = list(rng.choice(seeds))
        for _ in range(rng.randint(1, 4)):
            op = rng.choice(("insert", "delete", "replace")) if pieces else "insert"
            if op == "insert":
                pieces.insert(rng.randint(0, len(pieces)), rng.choice(_FUZZ_PIECES))
            elif op == "delete":
                del pieces[rng.randrange(len(pieces))]
            else:
                pieces[rng.randrange(len(pieces))] = rng.choice(_FUZZ_PIECES)
        yield tuple(pieces)


def _assert_clean_exits(mutants, argv_for, allowed):
    """main() on every mutant ends in an allowed exit code; a raising or
    disallowed mutant is shrunk and reported."""

    def fails(inst):
        try:
            return main(argv_for("".join(inst["text"]))) not in allowed
        except Exception:
            return True

    for pieces in mutants:
        if fails({"text": pieces}):
            small = "".join(shrink({"text": pieces}, fails)["text"])
            pytest.fail(f"input {small!r} did not end in exit {sorted(allowed)}")


def test_fuzz_spec_parser(tmp_path):
    seeds = [tuple(golden(p.name)) for p in sorted(GOLDEN.glob("*.alg"))]
    path = tmp_path / "mutant.alg"

    def argv_for(text):
        path.write_text(text, encoding="utf-8")
        return ["validate", str(path)]

    _assert_clean_exits(_mutants(random.Random(1), seeds, 500), argv_for, {0, 1, 2})


def test_fuzz_expr_parser():
    seeds = [tuple(text) for text in _FUZZ_EXPRS]
    spec = str(GOLDEN / "sl2_borel.alg")

    def argv_for(text):
        return ["normal-order", spec, f"--expr={text}"]

    _assert_clean_exits(_mutants(random.Random(1), seeds, 500), argv_for, {0, 2})
