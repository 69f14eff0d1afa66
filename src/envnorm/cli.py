"""Algebra-file and expression parsing, command dispatch, deterministic output.

File format (UTF-8, a leading byte-order mark allowed; line oriented: a
line ends at a newline, LF, CR LF or CR, and a form feed or U+2028 stays
part of its line; '#' starts a comment, blank lines are ignored):

    ring Z | ring Q | ring Zmod <q>    # <q> in decimal digits, q >= 2
    basis <name>+
    bracket <a> <b> = <expr>           # <expr> must be linear (below);
                                       # unlisted pairs default to zero;
                                       # [b,a] is auto-filled as the negation
    split <name>+ | <name>+

The ring, basis and split lines each appear exactly once: one basis line
declares every name. Each line is judged as it is read, so a fault is
reported at the line and name that cause it; a bracket given in both
orientations must negate exactly, and a conflict is reported on its second
declaration.

Expressions:  expr := term (('+'|'-') term)*
              term := ['-'] [coeff '*'] factor ('*' factor)*  |  ['-'] '0'
              factor := name | '1' | '(' expr ')'
              coeff := integer | integer '/' integer   (fractions in Q only)

An expression parses to a {word: coefficient} dict; terms that cancel are
dropped. A bracket value is an expression that is linear after that
cancellation: every word left has one letter. So '2*(e - f)' and
'e*f - e*f' (zero) are bracket values, and 'e*f' and '1' are not. Error
columns count from the start of the line, on bracket lines too. A plain
linear value, such as '-2*e + h - 3*f', is read directly, without the
grammar; every other value goes through the grammar, with the same result
and the same errors.

Expressions nest at most 200 parentheses deep, and no product or sum in
one may expand to more than 100000 terms. Integers (coefficients and the
modulus) are read and printed at any length.

Exit codes, all set by ``main``: 0 success / all properties pass;
1 validation failure (``normal-order`` and ``straighten`` print the report
on stderr); 2 parse error or other rejected input, any ValueError
(too-deep nesting and too-large expansion included); 3 property or oracle
counterexample (a property that raises ValueError is a failing case);
4 input too large to process (recursion limit reached), under ``check``
too, where a recursion overflow inside a property ends the run, as it does
for ``normal-order`` and ``straighten``; 141 stdout closed by its reader
(128 + SIGPIPE).
"""

from __future__ import annotations

# argparse and fractions are imported in the functions that use them, and a
# spec file is read with open(), so `import envnorm.cli` loads none of them
# and no pathlib (tests/test_cli.py holds that).
import os
import sys

from .checks import (
    PROPERTY_NAMES,
    ExampleRegistry,
    RegistryEntry,
    SuiteConfig,
    builtin_examples,
    run_suite,
)
from .envelope import EnvElement, StateElement, _word_product, straighten
from .liealg import LieAlgebra, SplitDecomposition, _acc, _negated, _Record, validate
from .normalform import ActionContext, OracleMismatchError, normal_order
from .ring import Ring, make_ring, read_int

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_NAME_CONT = _NAME_START | set("0123456789_")
_OPS = set("*+-/()")
_MAX_NESTING = 200  # parenthesis levels; each costs three parser frames
_MAX_TERMS = 100_000  # words a product or a sum may expand to


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.message = message
        self.line = line
        self.col = col
        if line is None:
            where = ""
        elif col is None:
            where = f"line {line}: "
        else:
            where = f"line {line}, col {col}: "
        super().__init__(where + message)


# ---------------------------------------------------------------------------
# tokenizing and expression parsing
# ---------------------------------------------------------------------------

def _tokenize(text: str, line: int, start: int = 0) -> list[tuple[str, str, int]]:
    """(kind, text, 1-based column) triples for ``text[start:]``, columns
    counted from the start of ``text``; kinds: name, int, end, and for an
    operator the operator character itself."""
    tokens = []
    pos, n = start, len(text)
    while pos < n:
        ch = text[pos]
        if ch in " \t":
            pos += 1
            continue
        col = pos + 1
        if ch in _NAME_START:
            end = pos + 1
            while end < n and text[end] in _NAME_CONT:
                end += 1
            tokens.append(("name", text[pos:end], col))
            pos = end
        elif ch.isdecimal():
            end = pos + 1
            while end < n and text[end].isdecimal():
                end += 1
            tokens.append(("int", text[pos:end], col))
            pos = end
        elif ch in _OPS:
            tokens.append((ch, ch, col))
            pos += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("end", "", n + 1))
    return tokens


class _Tokens:
    """One line's tokens and what its expression grammar reads besides them.

    The grammar functions take the index of their first token and return
    their value with the index after their last one."""

    __slots__ = ("toks", "line", "ring", "index")

    def __init__(self, toks, line: int, ring: Ring, index: dict):
        self.toks = toks
        self.line = line
        self.ring = ring
        self.index = index

    def error(self, message: str, i: int):
        raise ParseError(message, self.line, self.toks[i][2])


def _parse_coeff(ts: _Tokens, i: int, sign: int):
    """The signed coefficient at token i (an int) as a raw ring value (a
    ``Scalar.value``), and the index after it."""
    toks, ring = ts.toks, ts.ring
    num = sign * read_int(toks[i][1])
    if toks[i + 1][0] != "/":
        return ring.coerce(num), i + 1
    if toks[i + 2][0] != "int":
        ts.error("expected an integer denominator", i + 2)
    if ring.kind != "Q":
        ts.error("fractional coefficient outside Q", i)
    den = read_int(toks[i + 2][1])
    if den == 0:
        ts.error("zero denominator", i + 2)
    import fractions

    return ring.coerce(fractions.Fraction(num, den)), i + 3


# The parser works on plain {word: raw} dicts (words are tuples of basis
# indices, coefficients raw ring values, a Scalar's value; 1 is the unit of
# every ring) holding no zero coefficient; each dict it returns is fresh, so
# a caller may fold into it.  Inside a term, a sum or product of Fractions
# may be an integral Fraction; _parse_terms gives it to Ring.coerce.

def _expr_factor(ts: _Tokens, i: int, depth: int):
    kind, text, _col = ts.toks[i]
    if kind == "name":
        idx = ts.index.get(text)
        if idx is None:
            ts.error(f"unknown name {text!r}", i)
        return {(idx,): 1}, i + 1
    if kind == "int" and text == "1":
        return {(): 1}, i + 1
    if kind == "(":
        if depth == _MAX_NESTING:
            ts.error("expression nested too deeply", i)
        inner, i = _expr_sum(ts, i + 1, depth + 1)
        if ts.toks[i][0] != ")":
            ts.error("expected ')'", i)
        return inner, i + 1
    ts.error("expected a basis name, '1' or '('", i)


def _expr_term(ts: _Tokens, i: int, depth: int):
    toks, q = ts.toks, ts.ring.modulus
    coeff = 1  # the term's sign and coefficient, joined last
    if toks[i][0] == "-":
        coeff = -1
        i += 1
    kind, text, _col = toks[i]
    if kind == "int":
        if toks[i + 1][0] in ("/", "*"):
            coeff, i = _parse_coeff(ts, i, coeff)
            if toks[i][0] != "*":
                ts.error("expected '*' after coefficient", i)
            i += 1
        elif text == "0":
            return {}, i + 1
        elif text != "1":
            ts.error("a bare integer is not a term; write coeff*<basis name> or '1'", i)
    # One pass over the factors. A run of one-term factors is kept as its
    # letters and the product c of their coefficients, and joins the product
    # when a factor of other than one term comes, so a long product costs
    # linear time. coeff joins with the last run, at the end, so it never
    # shrinks a product before the _MAX_TERMS check.
    value = {(): 1}  # the product up to the run
    run, c = [], 1  # the run of one-term factors since
    star = 0  # column of the last '*'
    while True:
        factor, i = _expr_factor(ts, i, depth)
        if len(factor) == 1:
            ((w, fc),) = factor.items()
            run += w
            c = c * fc if q is None else c * fc % q
        else:
            if run or c != 1:
                value = _word_product(value, {tuple(run): c}, q)
                run, c = [], 1
            if len(value) * len(factor) > _MAX_TERMS:
                raise ParseError(f"expression expands to more than {_MAX_TERMS} terms",
                                 ts.line, star)
            value = _word_product(value, factor, q)
        if toks[i][0] != "*":
            break
        star = toks[i][2]
        i += 1
    return _word_product(value, {tuple(run): coeff * c}, q), i


def _expr_sum(ts: _Tokens, i: int, depth: int):
    toks, q = ts.toks, ts.ring.modulus
    value, i = _expr_term(ts, i, depth)
    while True:
        kind = toks[i][0]
        if kind == "+":
            i += 1
        elif kind != "-":  # a binary '-' is left in place: the term reads it as its sign
            return value, i
        terms, i = _expr_term(ts, i, depth)
        for w, c in terms.items():
            _acc(value, w, c, q)
        if len(value) > _MAX_TERMS:
            ts.error(f"expression expands to more than {_MAX_TERMS} terms", i)


def _parse_terms(ts: _Tokens) -> dict:
    """The whole token stream as one expression."""
    value, i = _expr_sum(ts, 0, 0)
    kind, text, _col = ts.toks[i]
    if kind != "end":
        ts.error(f"unexpected trailing input {text!r}", i)
    if ts.ring.kind == "Q":
        coerce = ts.ring.coerce
        for w, c in value.items():
            if type(c) is not int:
                value[w] = coerce(c)
    return value


def parse_expr(text: str, algebra: LieAlgebra) -> EnvElement:
    """Parse a user expression (one line of text) into an envelope element."""
    ts = _Tokens(_tokenize(text, 1), 1, algebra.ring, algebra.index)
    return EnvElement(algebra, _parse_terms(ts))


# ---------------------------------------------------------------------------
# algebra files
# ---------------------------------------------------------------------------

class AlgebraSpec(_Record):
    """Parsed, canonicalized algebra description.

    Brackets are stored as ((i, j), pairs) with i <= j, ``pairs`` the
    (k, c) terms with c != 0 in increasing k, each c a raw ring value (the
    form of ``LieAlgebra.table``), zero combinations dropped and the
    reversed orientation implied; this makes parse -> print -> parse the
    identity."""

    __slots__ = __match_args__ = ("ring", "basis", "brackets", "part1", "part2")

    def __init__(self, ring: Ring, basis: tuple[str, ...],
                 brackets: tuple[tuple[tuple[int, int], tuple[tuple[int, object], ...]], ...],
                 part1: tuple[int, ...], part2: tuple[int, ...]):
        super().__init__(ring, basis, brackets, part1, part2)

    def build(self) -> tuple[LieAlgebra, SplitDecomposition]:
        n = len(self.basis)
        table = [[()] * n for _ in range(n)]
        for (i, j), pairs in self.brackets:
            table[i][j] = pairs
            if i != j:
                table[j][i] = [(k, -c) for k, c in pairs]
        algebra = LieAlgebra(self.ring, self.basis, table)
        return algebra, SplitDecomposition(algebra, self.part1, self.part2)


def _plain_linear(text: str, ring: Ring, index: dict) -> list | None:
    """The sorted (k, c) pairs of a plain linear bracket value, or None.

    A plain value is terms ``[-][n*]name`` joined by '+' or '-', with
    blanks (spaces or tabs) between terms and operators and none inside a
    term; n is ASCII digits and name a declared basis name, and no term
    after a binary '-' has a sign. Its pairs are those the grammar gives:
    each coefficient coerced as ``_parse_coeff`` does, the terms summed by
    ``_acc`` in order, zeros dropped. Any other text gives None, for the
    grammar to read or reject."""
    words = text.replace("\t", " ").split(" ")
    if len(words) > 2 * _MAX_TERMS:  # the grammar's bound on a sum might apply
        return None
    q = ring.modulus
    acc: dict = {}
    op = "+"  # the operator before the next term; None after a term
    for word in words:
        if not word:
            continue
        if op is None:
            if word != "+" and word != "-":
                return None
            op = word
            continue
        sign = 1 if op == "+" else -1
        if word[0] == "-":
            if sign < 0:
                return None
            sign, word = -1, word[1:]
        n, star, name = word.rpartition("*")
        k = index.get(name)
        if k is None:
            return None
        if star:
            if not (n.isascii() and n.isdigit()):
                return None
            c = ring.coerce(sign * read_int(n))
        else:
            c = sign
        _acc(acc, k, c, q)
        op = None
    if op is not None:  # no term, or a trailing operator
        return None
    return sorted(acc.items())


_VALID_NAME = lambda s: bool(s) and s[0] in _NAME_START and all(c in _NAME_CONT for c in s)
_ONCE = ("ring", "basis", "split")  # the directives each file holds exactly once


def parse_spec(text: str) -> AlgebraSpec:
    """Parse an algebra description file into its canonical form."""
    ring: Ring | None = None
    basis: list[str] = []
    index: dict[str, int] = {}
    written: set[tuple[int, int]] = set()  # bracket pairs as written
    stored: dict[tuple[int, int], tuple] = {}  # (min, max) pair -> its pairs
    split: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    seen: set[str] = set()  # the _ONCE directives read so far

    # a line ends at \n, \r\n or \r only, as open() in text mode reads one
    for lineno, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        code = raw.split("#", 1)[0].rstrip()
        line = code.lstrip()
        if not line:
            continue
        words = line.split()
        head = words[0]
        if head in _ONCE:
            if head in seen:
                raise ParseError(f"duplicate {head} line", lineno)
            seen.add(head)
        if head == "ring":
            try:
                ring = make_ring(" ".join(words[1:]))
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
        elif head == "basis":
            if len(words) < 2:
                raise ParseError("basis line needs at least one name", lineno)
            for name in words[1:]:
                if not _VALID_NAME(name):
                    raise ParseError(f"invalid basis name {name!r}", lineno)
                if name in index:
                    raise ParseError(f"duplicate basis name {name!r}", lineno)
                index[name] = len(basis)
                basis.append(name)
        elif head == "bracket":
            if ring is None:
                raise ParseError("bracket before ring line", lineno)
            eq = code.find("=")
            if eq < 0:
                raise ParseError("bracket line needs '='", lineno)
            parts = code[:eq].split()
            if len(parts) != 3:
                raise ParseError("expected 'bracket <a> <b> = <expr>'", lineno)
            _kw, a, b = parts
            for name in (a, b):
                if name not in index:
                    raise ParseError(f"unknown name {name!r}", lineno)
            i, j = index[a], index[b]
            if (i, j) in written:
                raise ParseError(f"bracket ({a},{b}) declared twice", lineno)
            written.add((i, j))
            pairs = _plain_linear(code[eq + 1:], ring, index)
            if pairs is None:
                # tokenize the value in place so that columns count along the line
                ts = _Tokens(_tokenize(code, lineno, eq + 1), lineno, ring, index)
                terms = _parse_terms(ts)
                pairs = [(w[0], c) for w, c in terms.items() if len(w) == 1]
                if len(pairs) != len(terms):
                    ts.error("bracket value must be a linear combination of basis names", 0)
                pairs.sort()
            if i > j:
                pairs = _negated(pairs, ring.modulus)
            pairs = tuple(pairs)
            if stored.setdefault((i, j) if i <= j else (j, i), pairs) != pairs:
                raise ParseError(
                    f"bracket ({a},{b}) conflicts with the opposite orientation", lineno)
        elif head == "split":
            rest = line[len("split"):].strip()
            if rest.count("|") != 1:
                raise ParseError("split line needs exactly one '|'", lineno)
            part_of: dict[str, int] = {}  # name -> split part, in the order listed
            for part, side_text in enumerate(rest.split("|"), 1):
                names = side_text.split()
                if not names:
                    raise ParseError("each split side needs at least one name", lineno)
                for name in names:
                    if name not in index:
                        raise ParseError(f"unknown name {name!r}", lineno)
                    if name in part_of:
                        raise ParseError(
                            f"{name!r} listed twice in split part {part}"
                            if part_of[name] == part else
                            f"{name!r} assigned to both split parts", lineno)
                    part_of[name] = part
            unassigned = [name for name in basis if name not in part_of]
            if unassigned:
                raise ParseError(f"{unassigned[0]!r} unassigned in split", lineno)
            split = tuple(tuple(index[name] for name, p in part_of.items() if p == part)
                          for part in (1, 2))
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)

    for head in _ONCE:
        if head not in seen:
            raise ParseError(f"missing {head} line")

    brackets = tuple((key, pairs) for key, pairs in sorted(stored.items()) if pairs)
    return AlgebraSpec(ring, tuple(basis), brackets, split[0], split[1])


def format_spec(spec: AlgebraSpec) -> str:
    """Canonical text for an AlgebraSpec; parse(format_spec(s)) == s."""
    lines = [f"ring {spec.ring.descriptor()}"]
    lines.append("basis " + " ".join(spec.basis))
    for (i, j), pairs in spec.brackets:
        combo = " + ".join(f"{spec.ring.scalar(c)}*{spec.basis[k]}" for k, c in pairs)
        lines.append(f"bracket {spec.basis[i]} {spec.basis[j]} = {combo}")
    left = " ".join(spec.basis[i] for i in spec.part1)
    right = " ".join(spec.basis[i] for i in spec.part2)
    lines.append(f"split {left} | {right}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def state_lines(s: StateElement) -> list[str]:
    """One term per line: '<coeff> * <w1> (x) <w2>', sorted descending by
    (left degree, left word, right degree, right word); '0' when empty."""
    return s.term_strings() or ["0"]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _read_spec(path: str) -> AlgebraSpec:
    try:
        with open(path, encoding="utf-8-sig") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None
    return parse_spec(text)


def _cmd_validate(args) -> int:
    algebra, split = _read_spec(args.file).build()
    report = validate(algebra, split)
    print(report)
    return 0 if report.ok else 1


class _InvalidAlgebra(Exception):
    """An algebra file that failed validation; ``str`` is its report."""


def _load_expr(args):
    """The validated algebra and split of ``args.file`` and ``args.expr``
    parsed over them."""
    algebra, split = _read_spec(args.file).build()
    report = validate(algebra, split)
    if not report.ok:
        raise _InvalidAlgebra(report)
    return algebra, split, parse_expr(args.expr, algebra)


def _cmd_normal_order(args) -> int:
    algebra, split, u = _load_expr(args)
    ctx = ActionContext(algebra, split, validate=False)
    result = normal_order(ctx, u, check=not args.no_oracle)
    for line in state_lines(result):
        print(line)
    return 0


def _cmd_straighten(args) -> int:
    algebra, _split, u = _load_expr(args)
    order = None
    if args.order:
        if sorted(args.order) != sorted(algebra.basis):
            raise ParseError("--order must list every basis name exactly once")
        order = [algebra.index[name] for name in args.order]
    print(straighten(u, order))
    return 0


def _cmd_check(args) -> int:
    if bool(args.file) == bool(args.builtin):
        raise ParseError("check needs exactly one of <file> or --builtin")
    if args.builtin:
        registry = builtin_examples()
    else:
        spec = _read_spec(args.file)
        algebra, split = spec.build()
        name = os.path.splitext(os.path.basename(args.file))[0]
        registry = ExampleRegistry([RegistryEntry(name, algebra, split)])
    properties = tuple(args.props.split(",")) if args.props is not None else None
    cfg = SuiteConfig(
        seed=args.seed,
        cases=args.cases,
        max_degree=args.max_deg,
        properties=properties,
    )
    report = run_suite(cfg, registry)
    print(report.render())
    if report.validation_failed:
        return 1
    if not report.all_pass:
        return 3
    return 0


_EXPR_HELP = "the expression; write one that starts with '-' as --expr=-1/2*e*e"


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="envnorm",
        description="Normal ordering in enveloping algebras of split Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the Lie axioms and the split closure")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("normal-order", help="rewrite an expression into ordered tensor form")
    p.add_argument("file")
    p.add_argument("--expr", required=True, help=_EXPR_HELP)
    p.add_argument("--no-oracle", action="store_true",
                   help="skip the independent straightening cross-check")
    p.set_defaults(func=_cmd_normal_order)

    p = sub.add_parser("straighten", help="PBW canonical form under a total order")
    p.add_argument("file")
    p.add_argument("--expr", required=True, help=_EXPR_HELP)
    p.add_argument("--order", nargs="+", metavar="NAME",
                   help="basis names in the desired order (default: declaration order)")
    p.set_defaults(func=_cmd_straighten)

    p = sub.add_parser("check", help="run the property suite")
    p.add_argument("file", nargs="?")
    p.add_argument("--builtin", action="store_true", help="use the builtin registry")
    defaults = SuiteConfig()  # the command's defaults are the suite's
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--cases", type=int, default=defaults.cases)
    p.add_argument("--max-deg", type=int, default=defaults.max_degree)
    p.add_argument("--props", help="comma-separated property subset "
                                   f"(of: {', '.join(PROPERTY_NAMES)})")
    p.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except _InvalidAlgebra as exc:
        print(exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OracleMismatchError as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print("error: input too large to process (recursion limit reached)", file=sys.stderr)
        return 4
    except BrokenPipeError:
        # the reader went away; point stdout at nothing so the final flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports it


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
