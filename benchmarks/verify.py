"""Output checks that share no code with envnorm.

Every check here works on plain data: words are tuples of basis indices,
coefficients are ``int`` or ``Fraction`` (residues for Z/q), and an algebra is
the benchmark's own :class:`Algebra` description -- the same data the
benchmark writes into the ``.alg`` text it hands to the program.  Nothing here
imports envnorm, so a fault in the program's straightening, action or
arithmetic cannot hide itself from these checks.

Each ``check_*`` function returns a list of problem strings; an empty list
means the output passed.
"""

from __future__ import annotations

import re
from fractions import Fraction


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def plain(value):
    """A program coefficient (a Scalar or a raw int/Fraction) as a Python number."""
    value = getattr(value, "value", value)
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value


def parse_coeff(text: str):
    value = Fraction(text)
    return value.numerator if value.denominator == 1 else value


class Ring:
    """Z, Q or Z/q as plain-number normalisation."""

    def __init__(self, kind: str, modulus: int | None = None):
        self.kind = kind
        self.modulus = modulus

    def norm(self, value):
        value = Fraction(value)
        if self.kind == "Q":
            return value.numerator if value.denominator == 1 else value
        if value.denominator != 1:
            raise ValueError(f"{value} is not in {self.text()}")
        return value.numerator % self.modulus if self.kind == "Zmod" else value.numerator

    def text(self) -> str:
        return f"Zmod {self.modulus}" if self.kind == "Zmod" else self.kind


def combine(ring: Ring, pairs) -> dict:
    """Sum (key, coefficient) pairs in ``ring``, dropping zeros."""
    out: dict = {}
    for key, c in pairs:
        out[key] = out.get(key, 0) + c
    return {k: ring.norm(v) for k, v in out.items() if ring.norm(v) != 0}


# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------

class Algebra:
    """A Lie algebra with a split, described by its own structure table.

    ``table[(i, j)]`` is ``{k: c}`` for ``[e_i, e_j] = sum c e_k``, both
    orientations present.  ``reps`` holds representations used as witnesses:
    each is ``(name, {letter: sparse matrix}, fixed vectors)`` where a sparse
    matrix is a tuple of ``(row, col, value)``.
    """

    def __init__(self, name, ring: Ring, basis, brackets, part1, part2, matrices=None):
        self.name = name
        self.ring = ring
        self.basis = tuple(basis)
        self.index = {b: i for i, b in enumerate(self.basis)}
        self.dim = len(self.basis)
        self.table: dict = {}
        for (a, b), combo in brackets.items():
            i, j = self.index[a], self.index[b]
            coords = {self.index[k]: c for k, c in combo.items() if c}
            self.table[(i, j)] = coords
            self.table[(j, i)] = {k: -c for k, c in coords.items()}
        self.part1 = tuple(self.index[b] for b in part1)
        self.part2 = tuple(self.index[b] for b in part2)
        self.reps = [("adjoint", self._adjoint(), _fixed_vectors(self.dim))]
        if matrices is not None:
            n = len(next(iter(matrices.values())))
            sparse = {
                self.index[b]: tuple(
                    (r, c, m[r][c]) for r in range(n) for c in range(n) if m[r][c]
                )
                for b, m in matrices.items()
            }
            unit = [tuple(1 if r == c else 0 for r in range(n)) for c in range(n)]
            self.reps.append(("defining", sparse, unit))

    def _adjoint(self):
        # ad(e_i) e_j = [e_i, e_j] = sum_k c_ij^k e_k: entry (k, j) = c_ij^k
        return {
            i: tuple(
                (k, j, c)
                for j in range(self.dim)
                for k, c in sorted(self.table.get((i, j), {}).items())
            )
            for i in range(self.dim)
        }

    def spec_text(self) -> str:
        """The algebra as an envnorm ``.alg`` file."""
        lines = [f"ring {self.ring.text()}", "basis " + " ".join(self.basis)]
        for (i, j), coords in sorted(self.table.items()):
            if i < j and coords:
                combo = " + ".join(f"{c}*{self.basis[k]}" for k, c in sorted(coords.items()))
                lines.append(f"bracket {self.basis[i]} {self.basis[j]} = {combo}")
        left = " ".join(self.basis[i] for i in self.part1)
        right = " ".join(self.basis[i] for i in self.part2)
        lines.append(f"split {left} | {right}")
        return "\n".join(lines) + "\n"

    def letters(self, text: str) -> tuple:
        """Space-separated basis names, or '1' for the empty word."""
        return () if text == "1" else tuple(self.index[b] for b in text.split())


def _fixed_vectors(dim: int):
    return [tuple([1] * dim), tuple(range(1, dim + 1))]


def _unit(n, i, j):
    return [[1 if (r, c) == (i, j) else 0 for c in range(n)] for r in range(n)]


def sl_algebra(n: int, ring: Ring, name: str | None = None) -> Algebra:
    """sl(n) from matrix units: strict uppers, strict lowers (row-major), then
    H_k = E_kk - E_(k+1)(k+1); split (uppers + diagonal) | lowers."""
    names, mats = [], []
    for i in range(n):
        for j in range(i + 1, n):
            names.append(f"E{i + 1}{j + 1}")
            mats.append(_unit(n, i, j))
    for i in range(n):
        for j in range(i):
            names.append(f"E{i + 1}{j + 1}")
            mats.append(_unit(n, i, j))
    for k in range(n - 1):
        h = _unit(n, k, k)
        h[k + 1][k + 1] = -1
        names.append(f"H{k + 1}")
        mats.append(h)

    def coords(m):
        # off-diagonal entries are the E coordinates; the diagonal
        # d = sum_k h_k (E_kk - E_(k+1)(k+1)) gives h_k = d_1 + ... + d_k
        out = {}
        for b in names:
            if b[0] == "E":
                i, j = int(b[1]) - 1, int(b[2]) - 1
                if m[i][j]:
                    out[b] = m[i][j]
        running = 0
        for k in range(n - 1):
            running += m[k][k]
            if running:
                out[f"H{k + 1}"] = running
        return out

    def mul(a, b):
        return [[sum(a[r][t] * b[t][c] for t in range(n)) for c in range(n)] for r in range(n)]

    brackets = {}
    for a, ma in zip(names, mats):
        for b, mb in zip(names, mats):
            comm = [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(mul(ma, mb), mul(mb, ma))]
            brackets[(a, b)] = coords(comm)
    uppers = n * (n - 1) // 2
    part1 = names[:uppers] + names[2 * uppers:]
    part2 = names[uppers:2 * uppers]
    label = name or f"sl{n}_{ring.text().replace('Zmod ', 'Z')}"
    return Algebra(label, ring, names, brackets, part1, part2, dict(zip(names, mats)))


def sl2_algebra(ring: Ring, part1, part2, name: str) -> Algebra:
    """sl(2) on e, f, h with [e,f]=h, [h,e]=2e, [h,f]=-2f."""
    brackets = {("e", "f"): {"h": 1}, ("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}}
    matrices = {"e": [[0, 1], [0, 0]], "f": [[0, 0], [1, 0]], "h": [[1, 0], [0, -1]]}
    return Algebra(name, ring, ("e", "f", "h"), brackets, part1, part2, matrices)


def heisenberg_algebra(ring: Ring) -> Algebra:
    """Heisenberg algebra on x, y, c with [x,y]=c, split x | y c; witnessed
    by the 3x3 strictly upper triangular matrices as well as the adjoint."""
    matrices = {
        "x": [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
        "y": [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
        "c": [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    }
    return Algebra("heisenberg_Z", ring, ("x", "y", "c"), {("x", "y"): {"c": 1}},
                   ("x",), ("y", "c"), matrices)


# ---------------------------------------------------------------------------
# reading program output
# ---------------------------------------------------------------------------

_STATE_LINE = re.compile(r"^(\S+) \* (.+) \(x\) (.+)$")


def parse_state_lines(alg: Algebra, lines) -> dict:
    """Rendered ``normal-order`` lines -> {(w1, w2): coeff}; ['0'] is empty."""
    if list(lines) == ["0"]:
        return {}
    out = {}
    for line in lines:
        m = _STATE_LINE.match(line)
        if m is None:
            raise ValueError(f"unreadable output line {line!r}")
        key = (alg.letters(m.group(2)), alg.letters(m.group(3)))
        if key in out:
            raise ValueError(f"term {line!r} printed twice")
        out[key] = parse_coeff(m.group(1))
    return out


def parse_word_sum(alg: Algebra, text: str) -> dict:
    """Rendered ``straighten`` expression -> {word: coeff}; '0' is empty."""
    if text == "0":
        return {}
    out = {}
    for bit in text.split(" + "):
        coeff, _sep, word = bit.partition(" * ")
        key = alg.letters(" ".join(word.split(" * ")))
        if key in out:
            raise ValueError(f"word {word!r} printed twice")
        out[key] = parse_coeff(coeff)
    return out


def state_terms(state) -> dict:
    """A program StateElement as {(w1, w2): plain coefficient}."""
    return {(tuple(w1), tuple(w2)): plain(c) for (w1, w2), c in state.terms.items()}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _nondecreasing(word, rank) -> bool:
    return all(rank[a] <= rank[b] for a, b in zip(word, word[1:]))


def check_state_shape(alg: Algebra, out: dict) -> list:
    """Left factors use part-1 letters, right factors part-2 letters, each
    nondecreasing in declaration order."""
    rank = list(range(alg.dim))
    p1, p2 = set(alg.part1), set(alg.part2)
    bad = []
    for w1, w2 in out:
        if not (set(w1) <= p1 and set(w2) <= p2):
            bad.append(f"term {w1}(x){w2} has a letter on the wrong side")
        elif not (_nondecreasing(w1, rank) and _nondecreasing(w2, rank)):
            bad.append(f"term {w1}(x){w2} is not sorted")
    return bad


def check_word_shape(out: dict, rank) -> list:
    """Every straightened word is nondecreasing under the requested order."""
    return [f"word {w} is not sorted" for w in out if not _nondecreasing(w, rank)]


def _degree(terms: dict) -> int:
    return max((len(w) for w in terms), default=-1)


def check_degree(inp: dict, out_words: dict) -> list:
    """No output term is longer than the input."""
    top = _degree(inp)
    return [f"output word {w} is longer than the input degree {top}"
            for w in out_words if len(w) > top]


def check_symbol(alg: Algebra, inp: dict, out_words: dict) -> list:
    """The top-degree part of the output is the commutative image of the
    input's top-degree part (gr U(g) = S(g))."""
    top = _degree(inp)
    want = combine(alg.ring, ((tuple(sorted(w)), c) for w, c in inp.items() if len(w) == top))
    got = combine(alg.ring, ((tuple(sorted(w)), c) for w, c in out_words.items() if len(w) == top))
    if want != got:
        return [f"degree-{top} symbol differs: expected {want}, got {got}"]
    return []


def _apply(rep, word, memo):
    """rep(word) applied to each fixed vector, memoised over word suffixes
    (``memo`` starts as ``{(): vectors}``); iterative, so long words are fine."""
    pending = []
    while word not in memo:
        pending.append(word)
        word = word[1:]
    value = memo[word]
    for suffix in reversed(pending):
        mat = rep[suffix[0]]
        nxt = []
        for vec in value:
            res = [0] * len(vec)
            for r, c, a in mat:
                if vec[c]:
                    res[r] += a * vec[c]
            nxt.append(tuple(res))
        value = memo[suffix] = tuple(nxt)
    return value


def _evaluate(alg: Algebra, rep, terms: dict, memo):
    total = None
    for word, coeff in terms.items():
        value = _apply(rep, word, memo)
        if total is None:
            total = [[0] * len(v) for v in value]
        for acc, vec in zip(total, value):
            for i, x in enumerate(vec):
                if x:
                    acc[i] += coeff * x
    if total is None:
        total = [[0] * len(v) for v in memo[()]]
    return [[alg.ring.norm(x) for x in vec] for vec in total]


def check_witness(alg: Algebra, inp: dict, out_words: dict) -> list:
    """Both sides agree in every representation, applied to fixed vectors,
    computed exactly and reduced in the algebra's ring."""
    bad = []
    for name, rep, vectors in alg.reps:
        memo = {(): tuple(vectors)}
        if _evaluate(alg, rep, inp, memo) != _evaluate(alg, rep, out_words, memo):
            bad.append(f"{name} representation tells input and output apart")
    return bad


def merged(state: dict) -> dict:
    """{(w1, w2): c} -> {w1 w2: c}: the products the tensor terms stand for."""
    return {w1 + w2: c for (w1, w2), c in state.items()}


def check_normal_order(alg: Algebra, inp: dict, out: dict) -> list:
    """All independent checks of a normal-order output against its input."""
    words = merged(out)
    if len(words) != len(out):
        return ["two tensor terms merge to the same word"]
    return (check_state_shape(alg, out) + check_degree(inp, words)
            + check_symbol(alg, inp, words) + check_witness(alg, inp, words))


def check_straighten(alg: Algebra, inp: dict, out: dict, order) -> list:
    """All independent checks of a straighten output under ``order``."""
    rank = [0] * alg.dim
    for pos, letter in enumerate(order):
        rank[letter] = pos
    return (check_word_shape(out, rank) + check_degree(inp, out)
            + check_symbol(alg, inp, out) + check_witness(alg, inp, out))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def heisenberg_yx(alg: Algebra, n: int) -> dict:
    """y^n x = x (x) y^n - n * 1 (x) y^(n-1) c."""
    x, y, c = alg.index["x"], alg.index["y"], alg.index["c"]
    return combine(alg.ring, [(((x,), (y,) * n), 1), (((), (y,) * (n - 1) + (c,)), -n)])


def sl2_efn(alg: Algebra, n: int) -> dict:
    """e f^n = f^n (x) e + n f^(n-1) (x) h - n(n-1) f^(n-1) (x) 1 (split f | e h)."""
    e, f, h = alg.index["e"], alg.index["f"], alg.index["h"]
    return combine(alg.ring, [
        (((f,) * n, (e,)), 1),
        (((f,) * (n - 1), (h,)), n),
        (((f,) * (n - 1), ()), -n * (n - 1)),
    ])


def check_closed_form(expected: dict, out: dict) -> list:
    if expected != out:
        missing = {k: v for k, v in expected.items() if out.get(k) != v}
        extra = {k: v for k, v in out.items() if expected.get(k) != v}
        return [f"closed form differs: missing {missing}, unexpected {extra}"]
    return []


# ---------------------------------------------------------------------------
# suite report
# ---------------------------------------------------------------------------

_PROP_LINE = re.compile(r"^  (\w+)\s+pass=(\d+) fail=(\d+)$")


def check_suite_report(text: str, entries, properties, cases: int, seed: int):
    """Read a rendered suite report: every entry lists every property, in
    order, with exactly the configured number of cases (one for
    ``validate``), and the SUITE and TOTAL lines add up.

    Returns ``(problems, failed cases)``.  A failing case is the program's
    own verdict, reported under ``failed``; a report of the wrong shape is a
    problem.
    """
    lines = text.splitlines()
    pos = total_pass = total_fail = 0

    def line():
        return lines[pos] if pos < len(lines) else None

    for entry in entries:
        if line() != f"== {entry} ==":
            return [f"entry {entry} missing or out of order"], total_fail
        pos += 1
        entry_pass = entry_fail = 0
        for prop in properties:
            m = _PROP_LINE.match(line() or "")
            if m is None or m.group(1) != prop:
                return [f"{entry}: property {prop} missing or out of order"], total_fail
            passed, failed = int(m.group(2)), int(m.group(3))
            pos += 1
            want = 1 if prop == "validate" else cases
            if passed + failed != want:
                return [f"{entry}: {prop} ran {passed + failed} cases, expected {want}"], total_fail
            while (line() or "").startswith(("  FAIL ", "    ")):
                pos += 1  # a failing case's shrunk counterexample
            entry_pass += passed
            entry_fail += failed
        if line() != f"SUITE {entry} pass={entry_pass} fail={entry_fail} seed={seed}":
            return [f"{entry}: SUITE line missing or wrong"], total_fail
        pos += 1
        total_pass += entry_pass
        total_fail += entry_fail
    want = f"TOTAL entries={len(entries)} pass={total_pass} fail={total_fail} seed={seed}"
    if lines[pos:] != [want]:
        return [f"TOTAL line missing or wrong: expected {want!r}"], total_fail
    return [], total_fail
