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

Intermediate states are deliberately *not* canonicalized between recursion
steps (the recursion is defined on tensor-level representatives; only the
final result is reduced).  The check_* functions verify, at exact equality,
the identities the construction is supposed to satisfy: degree filtration,
right-factor linearity, compatibility with the envelope product, the Lie
action law, and mutual inverseness against the straightening oracle.
The Lie action check acts and subtracts on plain term dicts and builds one
state per verdict, the canonical form of the difference.
"""

from __future__ import annotations

from .envelope import (
    EnvElement,
    StateElement,
    _state_terms_eq,
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
    share that work, and drop it to free the memory."""

    __slots__ = ("algebra", "split", "_kernel", "__weakref__")

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

    def unit_state(self) -> StateElement:
        return StateElement.unit(self.split)

    def __repr__(self):
        return f"ActionContext({self.algebra!r}, {self.split})"


def _basis_action(ctx: ActionContext, i: int, w1: tuple) -> tuple:
    """e_i acting on (w1, ()) as ((u1, u2), c) pairs, memoized on ctx;
    the recursion step is e_i.(x.t) = [e_i, e_x].(t) + x.(e_i.(t))."""
    key = (i, w1)
    hit = ctx._kernel.get(key)
    if hit is not None:
        return hit
    if not w1:
        pair = ((i,), ()) if ctx.split.side_of(i) == 1 else ((), (i,))
        result = ((pair, ctx.algebra.ring.one),)
    else:
        x, rest = w1[0], w1[1:]
        out: dict = {}
        for k, b in ctx.algebra.table[i][x]:
            for pair, c in _basis_action(ctx, k, rest):
                _acc(out, pair, b * c)
        for (u1, u2), c in _basis_action(ctx, i, rest):
            _acc(out, ((x,) + u1, u2), c)
        result = tuple(out.items())
    ctx._kernel[key] = result
    return result


def _act_terms(ctx: ActionContext, support, terms: dict) -> dict:
    """g, given by its (index, scalar) support pairs, acting on the
    {(w1, w2): c} terms of a state; the result is a plain dict of that shape."""
    out: dict = {}
    for (w1, w2), c in terms.items():
        for i, gi in support:
            cg = c * gi
            for (u1, u2), c2 in _basis_action(ctx, i, w1):
                _acc(out, (u1, u2 + w2), cg * c2)
    return out


def _support(ctx: ActionContext, g: GVector) -> tuple:
    """g's (index, scalar) pairs, once g is checked to lie in ctx's algebra."""
    if g.algebra is not ctx.algebra:
        raise CarrierMismatchError("vector from a different algebra")
    return tuple(g.support())


def _terms(ctx: ActionContext, s: StateElement) -> dict:
    """s's terms, once s is checked to lie over ctx's split."""
    if s.split is not ctx.split:
        raise CarrierMismatchError("state from a different split")
    return s.terms


def act(ctx: ActionContext, g: GVector, s: StateElement) -> StateElement:
    """Left action of g on a state representative (see module docstring).
    Linear in both arguments; the result is not canonicalized."""
    return StateElement(ctx.split, _act_terms(ctx, _support(ctx, g), _terms(ctx, s)))


def act_word(ctx: ActionContext, word, s: StateElement) -> StateElement:
    """Iterated action of a word over the full basis: letters act right to
    left (innermost first); the empty word acts as the identity.  A letter
    outside the basis raises ValueError."""
    terms = _terms(ctx, s)
    word = tuple(word)
    _check_indices(word, ctx.algebra.dim, "letter")
    one = ctx.algebra.ring.one
    for letter in reversed(word):
        terms = _act_terms(ctx, ((letter, one),), terms)
    return StateElement(ctx.split, terms)


def section_s(ctx: ActionContext, u: EnvElement) -> StateElement:
    """The normal-ordering section: linear extension of
    w -> (w acting on 1 (x) 1), returned in canonical form."""
    if u.algebra is not ctx.algebra:
        raise CarrierMismatchError("element over a different algebra")
    unit = ctx.unit_state()
    out: dict = {}
    for w, c in u.terms.items():
        for key, c2 in act_word(ctx, w, unit).terms.items():
            _acc(out, key, c * c2)
    return state_canon(StateElement(ctx.split, out))


def normal_order(ctx: ActionContext, u: EnvElement, check: bool = True) -> StateElement:
    """section_s with the guaranteed-agreement cross-checks switched on.

    With ``check``, asserts the result agrees with the independent
    straightening oracle and that merging the factors back reproduces u;
    disagreement raises :class:`OracleMismatchError`."""
    result = section_s(ctx, u)
    if check:
        oracle = oracle_normal_order(u, ctx.split)
        if not state_eq(result, oracle):
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


def check_lie_action(ctx: ActionContext, g: GVector, h: GVector, s: StateElement) -> bool:
    """g.(h.s) - h.(g.s) = [g,h].s, up to canonicalization.  The three
    actions and the difference stay plain term dicts; only the canonical
    difference becomes a state."""
    hs = _support(ctx, h)  # checked in act(g, act(h, s))'s order: h, s, g
    terms = _terms(ctx, s)
    gs = _support(ctx, g)
    lhs = _act_terms(ctx, gs, _act_terms(ctx, hs, terms))
    for key, c in _act_terms(ctx, hs, _act_terms(ctx, gs, terms)).items():
        _acc(lhs, key, -c)
    rhs = _act_terms(ctx, tuple(ctx.algebra.bracket(g, h).support()), terms)
    return _state_terms_eq(ctx.split, lhs, rhs)


def check_inverse(ctx: ActionContext, u: EnvElement, s: StateElement) -> tuple[bool, bool]:
    """(section after merge is the identity on states,
        merge after section is the identity on the envelope)."""
    first = state_eq(section_s(ctx, mu_state(s)), state_canon(s))
    second = env_eq(mu_state(section_s(ctx, u)), u)
    return first, second
