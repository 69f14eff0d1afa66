"""A reference engine for the tests, in plain Python data that shares no
code with the engine.  An algebra is its structure table as the engine
stores it (``table[i][j]`` the raw (k, c) pairs of [e_i, e_j]) and a
modulus ``q``, None over Z and Q.  Vectors {i: c}, elements {word: c} and
states {(w1, w2): c} have tuple words and raw coefficients, reduced mod q
and never zero.  No Lie axiom is assumed of the table.
"""

import functools
import itertools


def plain(x) -> dict:
    """The terms of an engine vector, element or state as a plain dict of
    raw values: the one place the tests unbox the engine's coefficients."""
    return {key: c.value for key, c in x.terms.items()}


def add(out: dict, key, c, q=None) -> None:
    """Add c to out[key], reduced mod q, dropping the key when it cancels."""
    c = out.get(key, 0) + c
    if q is not None:
        c %= q
    if c:
        out[key] = c
    else:
        out.pop(key, None)


def add_all(out: dict, terms: dict, c, q=None) -> None:
    """Add c times each term of ``terms`` to out."""
    for key, v in terms.items():
        add(out, key, c * v, q)


def bracket(table, q, u: dict, v: dict) -> dict:
    """[u, v] of two vectors, each cell read from the table as written."""
    out: dict = {}
    for i, a in u.items():
        for j, b in v.items():
            for k, c in table[i][j]:
                add(out, k, a * b * c, q)
    return out


def _inversions(rank, w) -> int:
    return sum(rank[a] > rank[b] for a, b in itertools.combinations(w, 2))


def worklist(table, q, terms: dict, order=None) -> tuple:
    """The element ``terms`` rewritten at its leftmost inversion under
    ``order`` (default: the declaration order) until every word is sorted,
    with no cache: returns (its canonical form, the number of rewrites).
    Asserts that every rewrite strictly decreases (degree, inversion count)
    lexicographically for the word it touches, the termination measure of
    Bergman's diamond lemma (Adv. Math. 29, 1978)."""
    rank = {i: pos for pos, i in enumerate(range(len(table)) if order is None else order)}
    out: dict = {}
    pending = list(terms.items())
    steps = 0
    while pending:
        w, c = pending.pop()
        pos = next((i for i in range(len(w) - 1) if rank[w[i]] > rank[w[i + 1]]), None)
        if pos is None:
            add(out, w, c, q)
            continue
        steps += 1
        parent = (len(w), _inversions(rank, w))
        x, y = w[pos], w[pos + 1]
        head, tail = w[:pos], w[pos + 2:]
        children = [(head + (y, x) + tail, c)]
        children += [(head + (k,) + tail, c * b) for k, b in table[x][y]]
        for child, _c in children:
            assert (len(child), _inversions(rank, child)) < parent
        pending += children
    return out, steps


def worklist_canon(table, q, terms: dict) -> dict:
    """The state ``terms`` with both factor words of each term straightened
    by the worklist under the declaration order."""
    out: dict = {}
    for (w1, w2), c in terms.items():
        right = worklist(table, q, {w2: 1})[0]
        for v1, c1 in worklist(table, q, {w1: 1})[0].items():
            add_all(out, {(v1, v2): c2 for v2, c2 in right.items()}, c * c1, q)
    return out


def worklist_cut(table, q, terms: dict, part1) -> dict:
    """The oracle's state of the element ``terms``: its worklist form under
    the split order (part 1, then part 2), each word cut after part 1."""
    order = sorted(part1) + sorted(set(range(len(table))) - set(part1))
    out = {}
    for w, c in worklist(table, q, terms, order)[0].items():
        cut = sum(1 for letter in w if letter in part1)
        out[w[:cut], w[cut:]] = c
    return out


def splice_relator(table, q, terms: dict, host, pos, x, y, c) -> dict:
    """``terms`` plus c times ``host`` with x y - y x - [x, y] spliced in at
    ``pos`` (past its end: at its end), word by word: equal in the envelope."""
    head, tail = host[:pos], host[pos:]
    out = dict(terms)
    add(out, head + (x, y) + tail, c, q)
    add(out, head + (y, x) + tail, -c, q)
    add_all(out, {head + (k,) + tail: b for k, b in table[x][y]}, -c, q)
    return out


def act_pair(table, q, part1, g: dict, w1, w2) -> dict:
    """g acting on the state term (w1, w2) by the calculator's recursion
    with no memo: on an empty w1, g's part-1 letters are left words and its
    part-2 letters go in front of w2; on w1 = x t, it is [g, e_x] acting on
    (t, w2) plus x in front of the left words of g acting on (t, w2)."""
    if not w1:
        return {((i,), w2) if i in part1 else ((), (i,) + w2): c for i, c in g.items()}
    x, t = w1[0], w1[1:]
    gx = bracket(table, q, g, {x: 1})
    out = act_pair(table, q, part1, gx, t, w2) if gx else {}
    for (u1, u2), c in act_pair(table, q, part1, g, t, w2).items():
        add(out, ((x,) + u1, u2), c, q)
    return out


def act(table, q, part1, g: dict, terms: dict) -> dict:
    """The vector g acting on the state ``terms``, never canonicalized."""
    out: dict = {}
    for (w1, w2), c in terms.items():
        for key, c2 in act_pair(table, q, part1, g, w1, w2).items():
            add(out, key, c * c2, q)
    return out


def act_word(table, q, part1, word, terms: dict) -> dict:
    """The letters of ``word`` acting on the state ``terms`` one at a time,
    rightmost first."""
    for x in reversed(word):
        terms = act(table, q, part1, {x: 1}, terms)
    return terms


def jacobi(table, q, i, j, x) -> dict:
    """The Jacobiator J(i, j, x) = [e_i, [e_j, e_x]] + [[e_i, e_x], e_j]
    - [[e_i, e_j], e_x], each bracket read from the table as written."""
    e_i, e_j, e_x = {i: 1}, {j: 1}, {x: 1}
    jac = bracket(table, q, e_i, bracket(table, q, e_j, e_x))
    add_all(jac, bracket(table, q, bracket(table, q, e_i, e_x), e_j), 1, q)
    add_all(jac, bracket(table, q, bracket(table, q, e_i, e_j), e_x), -1, q)
    return jac


def suffix_defect(table, q, part1, w, memo: dict) -> dict:
    """R(w), the defect of the Lie action on the one-term state (w, ()) with
    both factor words raw, as {(i, j): {(u1, u2): c}}, by the suffix rule;
    ``memo`` holds R of each word already built.  Write A_i for e_i acting
    (:func:`act`), c^k_ij for the e_k coefficient of table[i][j] and
    R(w)[i, j] = (A_i A_j - A_j A_i - sum_k c^k_ij A_k)(w, ()).  The
    recursion's step A_i(x.s) = sum_k c^k_ix A_k(s) + x.A_i(s), with x.
    putting x in front of every left word, taken through both actions and
    the bracket side, gives on every table

      R(x t)[i, j] = x.R(t)[i, j] + sum_k c^k_jx R(t)[i, k]
                     + sum_k c^k_ix R(t)[k, j] + sum_l J(i, j, x)_l A_l(t, ()),

    with J the table's :func:`jacobi`.  It acts only for R(()) and for
    the A_l(t, ()) of the last sum, which is empty on a table that passes
    both axioms.  ``memo`` also keeps J(i, j, x) under the key
    (None, i, j, x)."""
    if w in memo:
        return memo[w]
    n = len(table)
    out = {(i, j): {} for i in range(n) for j in range(n)}
    if not w:
        acted = [act_pair(table, q, part1, {k: 1}, (), ()) for k in range(n)]
        for (i, j), defect in out.items():
            add_all(defect, act(table, q, part1, {i: 1}, acted[j]), 1, q)
            add_all(defect, act(table, q, part1, {j: 1}, acted[i]), -1, q)
            for k, b in table[i][j]:
                add_all(defect, acted[k], -b, q)
    else:
        x, t = w[0], w[1:]
        inner = suffix_defect(table, q, part1, t, memo)
        acted = {}  # l -> A_l(t, ()), for the Jacobiator sum
        for (i, j), defect in out.items():
            add_all(defect, {((x,) + u1, u2): v for (u1, u2), v in inner[i, j].items()}, 1, q)
            for k, b in table[j][x]:
                add_all(defect, inner[i, k], b, q)
            for k, b in table[i][x]:
                add_all(defect, inner[k, j], b, q)
            if (None, i, j, x) not in memo:
                memo[None, i, j, x] = jacobi(table, q, i, j, x)
            for l, b in memo[None, i, j, x].items():
                if l not in acted:
                    acted[l] = act_pair(table, q, part1, {l: 1}, t, ())
                add_all(defect, acted[l], b, q)
    memo[w] = out
    return out


def suffix_lie_row(table, q, part1, w1, memo: dict) -> dict:
    """w1's defect row from the suffix rule (:func:`suffix_defect`), as a
    {((i, j), v1, v2): c} map: both words of every term of R(w1)
    straightened by the worklist under the declaration order.  ``memo``
    keeps the worklist form of each word under the key None."""
    out: dict = {}
    forms = memo.setdefault(None, {})
    for pair, defect in suffix_defect(table, q, part1, w1, memo).items():
        for (u1, u2), v in defect.items():
            for u in (u1, u2):
                if u not in forms:
                    forms[u] = worklist(table, q, {u: 1})[0]
            for v1, c1 in forms[u1].items():
                for v2, c2 in forms[u2].items():
                    add(out, (pair, v1, v2), v * c1 * c2, q)
    return out


def _matmul(a, b) -> list:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def commutator(a, b) -> list:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(_matmul(a, b), _matmul(b, a))]


def sl_matrix(n: int, name: str) -> list:
    """The n x n matrix of an sl(n) basis name: Eij is the unit at
    (i-1, j-1), Hk is E_kk - E_(k+1)(k+1)."""
    k = int(name[1]) - 1
    entries = {(k, int(name[2]) - 1): 1} if name[0] == "E" else {(k, k): 1, (k + 1, k + 1): -1}
    return [[entries.get((r, c), 0) for c in range(n)] for r in range(n)]


def sl2_irrep(m: int) -> list:
    """The matrices of e, f, h (letters 0, 1, 2) on sl(2)'s irreducible
    module V(m) of dimension m + 1: e v_i = (m-i+1) v_(i-1),
    f v_i = (i+1) v_(i+1), h v_i = (m-2i) v_i."""
    span = range(m + 1)
    return [[[(m - c + 1) * (r == c - 1) for c in span] for r in span],
            [[(c + 1) * (r == c + 1) for c in span] for r in span],
            [[(m - 2 * c) * (r == c) for c in span] for r in span]]


def evaluate(terms: dict, rep) -> list:
    """The matrix of the element ``terms`` (over Z or Q) in the module where
    letter x acts by the matrix ``rep[x]``."""
    dim = len(rep[0])
    one = [[int(r == col) for col in range(dim)] for r in range(dim)]
    total = [[0] * dim for _ in range(dim)]
    for word, c in terms.items():
        m = functools.reduce(_matmul, (rep[letter] for letter in word), one)
        total = [[t + c * x for t, x in zip(rt, rm)] for rt, rm in zip(total, m)]
    return total


def splits(word):
    """Delta of a word, as its (w_S, w_(S^c)) pairs over every subset S of
    its positions, with repeats."""
    n = len(word)
    for mask in range(1 << n):
        yield (tuple(word[i] for i in range(n) if mask >> i & 1),
               tuple(word[i] for i in range(n) if not mask >> i & 1))


def delta_of_state(terms: dict, q) -> dict:
    """Delta of a canonical state, {((a1, a2), (b1, b2)): c}: the sum over the
    splits (a1, b1) of w1 and (a2, b2) of w2 of each term w1 (x) w2."""
    out: dict = {}
    for (w1, w2), c in terms.items():
        for a1, b1 in splits(w1):
            for a2, b2 in splits(w2):
                add(out, ((a1, a2), (b1, b2)), c, q)
    return out
