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
columns count from the start of the line, on bracket lines too.

Expressions nest at most 200 parentheses deep, and no product or sum in
one may expand to more than 100000 terms. Integers (coefficients and the
modulus) are read and printed at any length.

Exit codes, all set by ``main``: 0 success / all properties pass;
1 validation failure (``normal-order`` and ``straighten`` print the report
on stderr); 2 parse error or other rejected input, any ValueError
(too-deep nesting and too-large expansion included); 3 property or oracle
counterexample; 4 input too large to process (recursion limit reached);
141 stdout closed by its reader (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .checks import (
    PROPERTY_NAMES,
    ExampleRegistry,
    RegistryEntry,
    SuiteConfig,
    builtin_examples,
    run_suite,
)
from .envelope import EnvElement, StateElement, _word_product, straighten
from .liealg import LieAlgebra, SplitDecomposition, _acc, validate
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
    counted from the start of ``text``; kinds: name, int, op, end."""
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
            tokens.append(("op", ch, col))
            pos = end = pos + 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("end", "", n + 1))
    return tokens


class _Tokens:
    def __init__(self, tokens, line):
        self.toks = tokens
        self.i = 0
        self.line = line
        self.depth = 0  # open parentheses around the current position

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        if t[0] != "end":
            self.i += 1
        return t

    def eat_op(self, op: str) -> bool:
        kind, text, _col = self.peek()
        if kind == "op" and text == op:
            self.next()
            return True
        return False

    def error(self, message: str):
        raise ParseError(message, self.line, self.peek()[2])


def _parse_coeff_tokens(ts: _Tokens, ring: Ring, sign: int):
    """The signed coefficient at ts as a raw ring value (a ``Scalar.value``)."""
    kind, text, col = ts.next()
    assert kind == "int"
    num = sign * read_int(text)
    if ts.eat_op("/"):
        kind2, text2, col2 = ts.peek()
        if kind2 != "int":
            ts.error("expected an integer denominator")
        ts.next()
        if ring.kind != "Q":
            raise ParseError("fractional coefficient outside Q", ts.line, col)
        den = read_int(text2)
        if den == 0:
            raise ParseError("zero denominator", ts.line, col2)
        return ring.coerce(Fraction(num, den))
    return ring.coerce(num)


# The parser works on plain {word: raw} dicts (words are tuples of basis
# indices, coefficients raw ring values, a Scalar's value; 1 is the unit of
# every ring) holding no zero coefficient; each dict it returns is fresh, so
# a caller may fold into it.

def _expr_factor(ts: _Tokens, ring: Ring, index: dict) -> dict:
    kind, text, col = ts.peek()
    if kind == "name":
        ts.next()
        idx = index.get(text)
        if idx is None:
            raise ParseError(f"unknown name {text!r}", ts.line, col)
        return {(idx,): 1}
    if kind == "int" and text == "1":
        ts.next()
        return {(): 1}
    if ts.eat_op("("):
        if ts.depth == _MAX_NESTING:
            raise ParseError("expression nested too deeply", ts.line, col)
        ts.depth += 1
        inner = _expr_sum(ts, ring, index)
        if not ts.eat_op(")"):
            ts.error("expected ')'")
        ts.depth -= 1
        return inner
    ts.error("expected a basis name, '1' or '('")


def _expr_term(ts: _Tokens, ring: Ring, index: dict) -> dict:
    negate = ts.eat_op("-")
    coeff = None
    kind, text, _col = ts.peek()
    if kind == "int":
        after = ts.toks[ts.i + 1]
        if after[0] == "op" and after[1] in "/*":
            coeff = _parse_coeff_tokens(ts, ring, -1 if negate else 1)
            if not ts.eat_op("*"):
                ts.error("expected '*' after coefficient")
        elif text == "0":
            ts.next()
            return {}
        elif text != "1":
            ts.error("a bare integer is not a term; write coeff*<basis name> or '1'")
    value = _expr_factor(ts, ring, index)
    while ts.peek()[:2] == ("op", "*"):
        star = ts.next()[2]
        right = _expr_factor(ts, ring, index)
        if len(value) * len(right) > _MAX_TERMS:
            raise ParseError(f"expression expands to more than {_MAX_TERMS} terms",
                             ts.line, star)
        value = _word_product(value, right, ring.modulus)
    if coeff is None:
        if not negate:
            return value
        coeff = -1
    q = ring.modulus
    if q is None:
        return {w: p for w, c in value.items() if (p := coeff * c)}
    return {w: p for w, c in value.items() if (p := coeff * c % q)}


def _expr_sum(ts: _Tokens, ring: Ring, index: dict) -> dict:
    value = _expr_term(ts, ring, index)
    # a binary '-' is left in place: the term parser reads it as its sign
    while ts.eat_op("+") or ts.peek()[:2] == ("op", "-"):
        for w, c in _expr_term(ts, ring, index).items():
            _acc(value, w, c, ring.modulus)
        if len(value) > _MAX_TERMS:
            ts.error(f"expression expands to more than {_MAX_TERMS} terms")
    return value


def _parse_terms(ts: _Tokens, ring: Ring, index: dict) -> dict:
    """The whole token stream as one expression."""
    value = _expr_sum(ts, ring, index)
    if ts.peek()[0] != "end":
        ts.error(f"unexpected trailing input {ts.peek()[1]!r}")
    return value


def parse_expr(text: str, algebra: LieAlgebra) -> EnvElement:
    """Parse a user expression (one line of text) into an envelope element."""
    ts = _Tokens(_tokenize(text, 1), 1)
    return EnvElement(algebra, _parse_terms(ts, algebra.ring, algebra.index))


# ---------------------------------------------------------------------------
# algebra files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgebraSpec:
    """Parsed, canonicalized algebra description.

    Brackets are stored as ((i, j), pairs) with i <= j, ``pairs`` the
    (k, c) terms with c != 0 in increasing k, each c a raw ring value (the
    form of ``LieAlgebra.table``), zero combinations dropped and the
    reversed orientation implied; this makes parse -> print -> parse the
    identity."""

    ring: Ring
    basis: tuple[str, ...]
    brackets: tuple[tuple[tuple[int, int], tuple[tuple[int, object], ...]], ...]
    part1: tuple[int, ...]
    part2: tuple[int, ...]

    def build(self) -> tuple[LieAlgebra, SplitDecomposition]:
        n = len(self.basis)
        table = [[()] * n for _ in range(n)]
        for (i, j), pairs in self.brackets:
            table[i][j] = pairs
            if i != j:
                table[j][i] = [(k, -c) for k, c in pairs]
        algebra = LieAlgebra(self.ring, self.basis, table)
        return algebra, SplitDecomposition(algebra, self.part1, self.part2)


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

    # a line ends at \n, \r\n or \r only, as Path.read_text reads one
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
            if "=" not in line:
                raise ParseError("bracket line needs '='", lineno)
            parts = line.split("=", 1)[0].split()
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
            # tokenize the value in place so that columns count along the line
            ts = _Tokens(_tokenize(code, lineno, code.index("=") + 1), lineno)
            terms = _parse_terms(ts, ring, index)
            if any(len(w) != 1 for w in terms):
                raise ParseError("bracket value must be a linear combination of basis names",
                                 lineno, ts.toks[0][2])
            coerce = ring.coerce  # raw again, negated mod q the other way round
            pairs = tuple(sorted((k, coerce(c if i <= j else -c)) for (k,), c in terms.items()))
            if stored.setdefault((min(i, j), max(i, j)), pairs) != pairs:
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
        text = Path(path).read_text(encoding="utf-8-sig")
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
        name = Path(args.file).stem
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
    p.add_argument("--seed", type=int, default=SuiteConfig.seed)
    p.add_argument("--cases", type=int, default=SuiteConfig.cases)
    p.add_argument("--max-deg", type=int, default=SuiteConfig.max_degree)
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
