"""The normal-form calculator.

Everything here is driven by one recursion on states: an algebra element g
acts on a tensor-level state term (w1, w2) by

  * empty w1:  (part-1 component of g) (x) w2
               + 1 (x) (each part-2 letter of g prepended to w2),
  * w1 = x.t:  [g, e_x] acting on (t, w2),  plus  x prepended to
               (g acting on (t, w2)).

The action is linear in g and in the state.  Iterating it letter by letter
(rightmost letter first) gives the module action of words, and sending a
word w to (w acting on 1 (x) 1) -- extended linearly and canonicalized --
is the normal-ordering section: it inverts the factor multiplication that
merges a state back into the envelope.

The recursion reads w2 only to append it in the base case, so g.(w1, w2)
is g.(w1, ()) with w2 appended (right-linearity, one of the checked
identities), and by linearity in g the whole action is fixed by the basis
kernel e_i.(w1, ()).  Each :class:`ActionContext` memoizes that kernel per
(basis index, left word) as immutable tuples, computed straight from the
structure table.  Its values are exact, so every result equals the plain
recursion's, and the memo is freed with the context.

The kernel, the action on term dicts and the Lie action table carry raw
ring values (``Ring.raw``: ints, reduced into [0, q) over Z/q, and ints or
Fractions over Q), never ``Scalar``s; over Z and Z/q the kernel memo then
holds nothing the cyclic garbage collector has to walk.  The public
functions take and return ``GVector``s and ``StateElement``s of scalars,
converting at their constructors.

act and act_word return the raw action on tensor-level representatives,
never canonicalized.  section_s walks each word letter by letter, rightmost
first, on a state grouped by left word, {w1: {w2: raw}}: it asks the kernel
once per left word and straightens each kernel term's left word under the
declaration order (envelope._straightener) before regrouping, so the kernel
only ever sees sorted left words and does not fill for every ordering of
them.  This is exact because the action is well defined on U(g1) (x) U(g2)
(the well_defined property): acting on any representative of a state gives
the same canonical result.  The right words stay raw until the final
state_canon: straightened after every letter they would put each
intermediate word of a run crossing, such as heisenberg's c y^k -> y^k c,
into the word-keyed straightening memo.

The check_* functions verify, at exact equality, the identities the
construction is supposed to satisfy: degree filtration, right-factor
linearity, compatibility with the envelope product, the Lie action law,
and mutual inverseness against the straightening oracle.
The Lie action check reads both sides of each verdict from an action
table for one state s, kept on the context and replaced when another state
arrives: e_k.s as acted and canonical per basis index k, and the canonical
e_i.(e_j.s) - e_j.(e_i.s) per i < j.  Judging all dim**2 ordered basis
pairs on s then costs dim**2 actions and dim + dim*(dim-1)/2
canonicalizations, not 5*dim**2 and dim**2.  Two canonical states (the
section's, the oracle's) compare with ==.
"""

from __future__ import annotations

from .envelope import (
    EnvElement,
    StateElement,
    _canon_terms,
    _straightener,
    env_eq,
    env_mul,
    mu_state,
    oracle_normal_order,
    state_canon,
    state_eq,
)
from .liealg import (
    CarrierMismatchError,
    GVector,
    LieAlgebra,
    SplitDecomposition,
    _acc,
    _check_indices,
    validate as _validate,  # ActionContext's keyword shadows the plain name
)


class OracleMismatchError(RuntimeError):
    """The recursive calculator and the straightening oracle disagree.

    Agreement is guaranteed for validated inputs, so this signals an
    implementation bug, never a data problem."""


class ActionContext:
    """A validated (algebra, split) pair that all operations here run in.

    It owns the memoized basis kernel: reuse one context across calls to
    share that work, and drop it to free the memory.  It also holds the
    action table of the last state check_lie_action judged, replaced when
    a different state object arrives (states are never changed in place,
    so identity fixes the table): e_k.s, as acted and canonical, for each basis
    index k, and the canonical e_i.(e_j.s) - e_j.(e_i.s) for each i < j,
    each filled when a verdict first needs it.  All dim**2 ordered basis
    pairs on one state cost at most dim**2 actions and dim + dim*(dim-1)/2
    canonicalizations."""

    __slots__ = ("algebra", "split", "_kernel", "_lie_table", "__weakref__")

    def __init__(self, algebra: LieAlgebra, split: SplitDecomposition, validate: bool = True):
        if split.algebra is not algebra:
            raise CarrierMismatchError("split belongs to a different algebra")
        if validate:
            report = _validate(algebra, split)
            if not report.ok:
                raise ValueError(f"invalid algebra or split:\n{report}")
        self.algebra = algebra
        self.split = split
        self._kernel: dict = {}  # (basis index, left word) -> e_i acting on (w1, ())
        self._lie_table = None  # (s, s's raw terms, {k: (e_k.s, canonical)}, {(i, j): canonical D})

    def unit_state(self) -> StateElement:
        return StateElement.unit(self.split)

    def __repr__(self):
        return f"ActionContext({self.algebra!r}, {self.split})"


def _basis_action(ctx: ActionContext, i: int, w1: tuple) -> tuple:
    """e_i acting on (w1, ()) as ((u1, u2), raw) pairs, memoized on ctx;
    the recursion step is e_i.(x.t) = [e_i, e_x].(t) + x.(e_i.(t))."""
    key = (i, w1)
    hit = ctx._kernel.get(key)
    if hit is not None:
        return hit
    if not w1:
        pair = ((i,), ()) if i in ctx.split.part1_set else ((), (i,))
        result = ((pair, 1),)
    else:
        x, rest = w1[0], w1[1:]
        ring = ctx.algebra.ring
        q = ring.modulus
        out: dict = {}
        for k, b in ctx.algebra.table[i][x]:
            b = ring.raw(b)
            for pair, c in _basis_action(ctx, k, rest):
                _acc(out, pair, b * c, q)
        for (u1, u2), c in _basis_action(ctx, i, rest):
            _acc(out, ((x,) + u1, u2), c, q)
        result = tuple(out.items())
    ctx._kernel[key] = result
    return result


def _act_terms(ctx: ActionContext, support, terms: dict) -> dict:
    """g, given by its (index, raw) support pairs, acting on the raw
    {(w1, w2): c} terms of a state; the result is a raw dict of that shape."""
    q = ctx.algebra.ring.modulus
    out: dict = {}
    for (w1, w2), c in terms.items():
        for i, gi in support:
            cg = c * gi
            for (u1, u2), c2 in _basis_action(ctx, i, w1):
                _acc(out, (u1, u2 + w2), cg * c2, q)
    return out


def _word_terms(ctx: ActionContext, word: tuple, terms: dict) -> dict:
    """A word of basis indices acting on raw state terms, letters right to left."""
    for letter in reversed(word):
        terms = _act_terms(ctx, ((letter, 1),), terms)
    return terms


def _support(ctx: ActionContext, g: GVector) -> tuple:
    """g's (index, raw) pairs, once g is checked to lie in ctx's algebra."""
    if g.algebra is not ctx.algebra:
        raise CarrierMismatchError("vector from a different algebra")
    raw = ctx.algebra.ring.raw
    return tuple((i, raw(c)) for i, c in g.support())


def _terms(ctx: ActionContext, s: StateElement) -> dict:
    """s's terms as a raw dict, once s is checked to lie over ctx's split."""
    if s.split is not ctx.split:
        raise CarrierMismatchError("state from a different split")
    raw = ctx.algebra.ring.raw
    return {key: raw(c) for key, c in s.terms.items()}


def act(ctx: ActionContext, g: GVector, s: StateElement) -> StateElement:
    """Left action of g on a state representative (see module docstring).
    Linear in both arguments; the result is not canonicalized."""
    return StateElement._trusted(ctx.split, _act_terms(ctx, _support(ctx, g), _terms(ctx, s)))


def act_word(ctx: ActionContext, word, s: StateElement) -> StateElement:
    """Iterated action of a word over the full basis: letters act right to
    left (innermost first); the empty word acts as the identity.  A letter
    outside the basis raises ValueError."""
    terms = _terms(ctx, s)
    word = tuple(word)
    _check_indices(word, ctx.algebra.dim, "letter")
    return StateElement._trusted(ctx.split, _word_terms(ctx, word, terms))


def section_s(ctx: ActionContext, u: EnvElement) -> StateElement:
    """The normal-ordering section: linear extension of
    w -> (w acting on 1 (x) 1), returned in canonical form.  Left words are
    canonical after every letter, right words only at the end (see the
    module docstring)."""
    if u.algebra is not ctx.algebra:
        raise CarrierMismatchError("element over a different algebra")
    raw, q = ctx.algebra.ring.raw, ctx.algebra.ring.modulus
    form = _straightener(ctx.algebra)
    out: dict = {}
    for w, c in u.terms.items():
        groups = {(): {(): raw(c)}}  # canonical left word -> {raw right word: raw}
        for letter in reversed(w):
            acted: dict = {}
            for w1, rights in groups.items():
                if not rights:  # cancelled out
                    continue
                for (u1, u2), c1 in _basis_action(ctx, letter, w1):
                    for v1, c2 in form(u1):
                        group = acted.get(v1)
                        if group is None:
                            group = acted[v1] = {}
                        c12 = c1 * c2
                        for w2, c3 in rights.items():
                            _acc(group, u2 + w2, c12 * c3, q)
            groups = acted
        for w1, rights in groups.items():
            for w2, c3 in rights.items():
                _acc(out, (w1, w2), c3, q)
    return state_canon(StateElement._trusted(ctx.split, out))


def normal_order(ctx: ActionContext, u: EnvElement, check: bool = True) -> StateElement:
    """section_s with the guaranteed-agreement cross-checks switched on.

    With ``check``, asserts the result agrees with the independent
    straightening oracle and that merging the factors back reproduces u;
    disagreement raises :class:`OracleMismatchError`."""
    result = section_s(ctx, u)
    if check:
        oracle = oracle_normal_order(u, ctx.split)
        if result != oracle:
            raise OracleMismatchError(
                f"section disagrees with straightening oracle on {u}: "
                f"{result} vs {oracle}"
            )
        if not env_eq(mu_state(result), u):
            raise OracleMismatchError(
                f"factor multiplication does not invert the section on {u}"
            )
    return result


def check_filtration(ctx: ActionContext, g: GVector, s: StateElement) -> bool:
    """The action raises the left-word degree by at most one."""
    return act(ctx, g, s).left_degree() <= s.left_degree() + 1


def check_right_linearity(ctx: ActionContext, g: GVector, w1, m) -> bool:
    """Acting then right-multiplying by m equals acting on (w1, m) directly."""
    lhs = act(ctx, g, StateElement.term(ctx.split, w1, m))
    rhs = act(ctx, g, StateElement.term(ctx.split, w1, ())).append_right(m)
    return state_eq(lhs, rhs)


def check_mu_compat(ctx: ActionContext, g: GVector, s: StateElement) -> bool:
    """Merging the acted state equals left-multiplying the merged state by g."""
    lhs = mu_state(act(ctx, g, s))
    rhs = env_mul(EnvElement.from_vector(g), mu_state(s))
    return env_eq(lhs, rhs)


def _on_state(ctx: ActionContext, table: tuple, k: int) -> tuple:
    """(e_k.s, its canonical form) for the table's state s, filled once."""
    hit = table[2].get(k)
    if hit is None:
        acted = _act_terms(ctx, ((k, 1),), table[1])
        hit = table[2][k] = (acted, _canon_terms(ctx.algebra, acted))
    return hit


def _commutator_on_state(ctx: ActionContext, table: tuple, i: int, j: int) -> dict:
    """The canonical D(i, j) = e_i.(e_j.s) - e_j.(e_i.s), for i < j, filled once."""
    hit = table[3].get((i, j))
    if hit is None:
        q = ctx.algebra.ring.modulus
        diff = _act_terms(ctx, ((i, 1),), _on_state(ctx, table, j)[0])
        for key, c in _act_terms(ctx, ((j, 1),), _on_state(ctx, table, i)[0]).items():
            _acc(diff, key, -c, q)
        hit = table[3][(i, j)] = _canon_terms(ctx.algebra, diff)
    return hit


def check_lie_action(ctx: ActionContext, g: GVector, h: GVector, s: StateElement) -> bool:
    """g.(h.s) - h.(g.s) = [g,h].s, up to canonicalization.

    Both sides come canonical from s's action table on ctx (see
    :class:`ActionContext`): the left is sum g_i h_j D(i, j), with D(i, i) = 0
    and D(j, i) = -D(i, j), exact since canonicalization is linear; the
    right is sum [g,h]_k canon(e_k.s).  Equal sides hold with no state
    built; otherwise their difference becomes one StateElement, whose
    part check rejects a factor word that straightens out of its part."""
    hs = _support(ctx, h)  # checked in act(g, act(h, s))'s order: h, s, g
    table = ctx._lie_table
    if table is None or table[0] is not s:
        table = (s, _terms(ctx, s), {}, {})
    gs = _support(ctx, g)
    ctx._lie_table = table
    ring = ctx.algebra.ring
    q = ring.modulus
    lhs: dict = {}
    for i, gi in gs:
        for j, hj in hs:
            if i < j:
                c, dij = gi * hj, _commutator_on_state(ctx, table, i, j)
            elif i > j:
                c, dij = -(gi * hj), _commutator_on_state(ctx, table, j, i)
            else:
                continue
            for key, d in dij.items():
                _acc(lhs, key, c * d, q)
    rhs: dict = {}
    for k, b in ctx.algebra.bracket(g, h).support():
        b = ring.raw(b)
        for key, d in _on_state(ctx, table, k)[1].items():
            _acc(rhs, key, b * d, q)
    if lhs == rhs:
        return True
    for key, c in rhs.items():
        _acc(lhs, key, -c, q)
    StateElement._trusted(ctx.split, lhs)  # its part check raises on a split that is not bracket-closed
    return False


def check_inverse(ctx: ActionContext, u: EnvElement, s: StateElement) -> tuple[bool, bool]:
    """(section after merge is the identity on states,
        merge after section is the identity on the envelope)."""
    first = section_s(ctx, mu_state(s)) == state_canon(s)
    second = env_eq(mu_state(section_s(ctx, u)), u)
    return first, second
