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
is g.(w1, ()) with w2 appended (right-linearity), and by linearity in g the
whole action is fixed by the basis kernel e_i.(w1, ()).  It is memoized
per (basis index, left word) as a {(u1, u2): raw} dict, computed straight
from the structure table; the left word in its key and every word in its
terms are engine words (``str``, letter i is ``chr(i)``; see envelope).
The memo lives on the algebra, keyed by the split's parts, beside the
straighteners' memos: every :class:`ActionContext` over that algebra and
those parts shares it, and it is freed with the algebra.  Its values are
exact, so every result equals the plain recursion's.

On a reduction (``LieAlgebra.change_ring``) a miss in the kernel or the
Lie rows first reads the source's entry for the same parts
(``liealg._read_source``; ``change_ring`` states the rule).

The kernel's recursion nests one frame per letter of the left word, so a
left word longer than 128 letters first has the kernel filled at its
suffixes 128 letters apart, shortest first: it nests at most 128 deep at
any length.  An entry, like a straightener's
form, is the memo's own dict, shared by every caller: callers read it and
never change it.

Right-linearity holds by construction, so check_right_linearity cannot
fail on any table, failing ones too: its two sides read the same kernel
entries and _act_terms appends the right word itself, so their difference
is empty before it is canonicalized.  It fails only through its argument
rules.

The leftmost-inversion form straightens a prefix before anything after
it, so on every table, failing ones too, the form of a word X w is the
sum over the terms c_m m of the form of X of c_m times the form of m w
(envelope's prefix-reuse paragraph).  By linearity the same holds for a
combination of words X with one word w after them: straightening the
combination first and appending w only to what survives gives the same
form.  Two verdicts cancel their differences that way before the right
words come in.  check_mu_compat compares mu(g.s) with g mu(s), whose
terms are, for each term c (w1, w2) of s, w2 appended to
c mu(g.(w1, "")) and to c g w1.  It groups s's terms by right word w2,
straightens each group's difference, of words with at most |w1| + 1
letters, and appends w2 to what survives: the result straightens to the
form of the whole difference.  On a validated table the action is
compatible with the product, so nothing survives and no longer word is
straightened.  The Lie-action rows below straighten their right words
the same way.

The kernel, the action on term dicts and the Lie action table carry raw
ring values (a ``Scalar``'s ``value``: ints, reduced into [0, q) over Z/q,
and ints or Fractions over Q), never ``Scalar``s, and read the structure
table, which holds raw values too, as it is.  Over Z and Z/q a form
holds only strs and ints, so the cyclic garbage collector never tracks
it; a kernel entry's and a Lie row's keys are tuples, so the collector
tracks each as built and untracks it, with its keys, at its first full
collection.  The public functions take and return ``GVector``s and
``StateElement``s of scalars and tuple words, converting at their
constructors: a state's words are encoded as it enters and decoded where
an element is built.

act and act_word return the raw action on tensor-level representatives,
never canonicalized.  section_s is that action with canonicalization
after every letter: it walks each word rightmost letter first, acts with
the letter on the state's {(w1, w2): raw} terms through _act_terms, as
act_word does, and straightens both factor words of every merged term
under the declaration order (the context's ``_form``, see
envelope._straightener).  So the kernel only
ever sees sorted left words and does not fill for every ordering of them,
equal terms merge before they are straightened, and the state left after
the last letter is canonical as it stands, with no state_canon after it.
This is exact because the action is well defined on U(g1) (x) U(g2) (the
well_defined property): acting on any representative of a state gives the
same canonical result.  The kernel's recursion keeps or drops each letter
of a left word and its base case appends at most one part-1 letter, so a
kernel term's left word is a subsequence of the acted left word, which
was canonical, with at most one letter after it: an acted left word w1 is
sorted up to its last letter.  A kernel term prepends at most one letter
to a right word, which was canonical too, so an acted right word w2 is
sorted from its second letter on.  Each is thus sorted exactly when its
one junction is in order (envelope's junction rule): unless
w1[-2] > w1[-1] the left word is taken as {w1: 1}, and unless
w2[0] > w2[1] the right word as {w2: 1}, with no form call, no scan and
no memo entry; a left word that is not sorted has form scan its last
pair alone.  So the section of sl2 e f^n, whose left words are the f^k,
passes no word to form under the split f | e h.  A right word c y^k
that a letter makes costs the memo a few words, since the straightener
moves c across y^k through the prefix c y^(k-1) (see envelope).  On a table
that fails validation the canonical form of a word can depend on the order
of its rewrites, so there section_s may return a different state from one
that straightens its right words only at the end.  It cannot when part 2
is bracket-closed with two letters or fewer: no right word then has three
strictly decreasing letters to rewrite in two ways.  Every failing golden
is such a case.

The check_* functions verify, at exact equality, the identities the
construction is supposed to satisfy: degree filtration, right-factor
linearity, compatibility with the envelope product, the Lie action law,
and mutual inverseness against the straightening oracle.

A verdict reads raw terms and builds no element.  Each public function
here and in envelope is one raw core on {engine word: raw} dicts between
an encoding and a boxing: section_s is _section_terms, straighten
_straighten_terms and oracle_normal_order _oracle_terms; mu_state's core
_mu_terms only concatenates, so it takes tuple words with no encoding.
The verdicts (the check_* functions here, and the suite's oracle,
lie_action and well_defined rows in checks) compose those cores with
_act_terms and _canon_terms, so no Scalar, tuple word or element stands
between two steps.  Where the composition of public functions built a
state from straightened words (a section, a canonical form, a Lie-action
defect), the verdict runs the part check on those raw terms instead
(_checked, through envelope._check_parts, the rule StateElement._fill
runs on every state).  So a split that is not bracket-closed raises the
same ValueError, naming the same letter, at the same step.  The action
and the oracle put every letter in its own part by construction, so
their states never fail it.  Two canonical states (the section's, the
oracle's) compare with == on their raw terms.  normal_order does the
same: it encodes u once for both cores and boxes the section once, as
its result, where the part check runs as in section_s; the oracle's
state is built only for a mismatch message.  Only its second check,
env_eq of mu_state of the result, stays boxed: it is the only Scalar
arithmetic of the benchmark's degree_sweep and request_stream, whose
smoke tests assert that arithmetic is there.

Over Q a verdict runs on ints: right after encoding it clears each drawn
argument's denominators once (liealg._cleared), multiplying every
coefficient by their least common denominator.  This is exact because
each verdict is linear in each drawn argument: scaling one by a nonzero
integer scales both sides of its identity alike, keeps every support, so
the part check names the same letter, and keeps a sum zero exactly when
it was zero.  A table's Fraction constants stay in the forms and the
kernel as they are.  well_defined clears u and its relator variant
together, so both sides share one denominator.  Over Z and Z/q, and when
no coefficient is a Fraction, the arguments pass uncopied.  The Lie
action table stays exact: tests pin its entries to the canonical defect,
and on a valid table its rows are empty, so clearing would save nothing.

The Lie action check judges each verdict from a defect table for one
state s: the canonical E(i, j) = e_i.(e_j.s) - e_j.(e_i.s) - [e_i, e_j].s
for every ordered basis pair, i == j and i > j included, since a table
under test need not be alternating.  The action, the bracket and
canonicalization are all linear, so the canonical difference of the two
sides for g and h is sum g_i h_j E(i, j), and the law holds when that is
empty.  The table is built when s arrives, kept on the context and
replaced when another state does; states are never changed in place, so
identity fixes the table.  It holds only the pairs some term of s's rows
reaches, and a pair it lacks has an empty defect: on a validated table
every row is empty, so the table is too, with no dict per pair.

The table is summed from a defect row per left word, memoized on the
algebra beside the kernel, keyed by the split's parts: the canonical
E(i, j) of the one-term state (w1, ""), both words of each term
straightened, as one raw term dict {((i, j), v1, v2): c}, the shape of
every other memo entry.  A term c (w1, w2) of s adds c times w1's row,
each right word v2 replaced by the form of v2 w2.  A row is read off the kernel
itself, its words straightened through the declaration order's memo.
From the dim entries e_k.(w1, "") it takes, for each pair i < j, the
commutator e_i.(e_j.(w1, "")) - e_j.(e_i.(w1, "")) as one dict,
left-straightened once and negated for (j, i) (for i == j it is empty);
from the same entries, each left-straightened once, it subtracts the
bracket side read from the structure table as it is.  Straightening left
words term by term is linear, so straightening the two sides apart is
exact on every table, failing ones too, where E(j, i) need not be
-E(i, j).  Each pair's sum that is not empty then has its right words
(two letters at most) straightened, equal terms merging; its left words
are forms already, each a word of a left-straightened dict, and a form's
word is its own form, so this is the canonical sum term for term and in
the same order.  So the row judges the very action the calculator uses.
A left word costs, once per algebra and parts, dim kernel entries, the
actions on them, dim (dim + 1) / 2 left straightenings and at most dim^2
right ones; a state costs one straightening of v2 w2 per row term, and a
verdict no bracket.  On a validated table the law holds, so every row is
empty and so is every state's table; the suite's lie_action row
(checks._holds_lie_action) then passes each pair on its empty E(i, j)
with no sum to judge, the verdict _lie_holds gives on an empty sum.

This is exact on every table, failing ones too: the action reads w2 only
to append it, every step is linear, and the form of one word is a fixed
function, so the sum is term for term the canonical table of s.  Two
shortcuts that look natural are not exact where the table fails
validation, since the action is then not well defined on classes and a
word's form depends on how it was reached: keying a row on the form of w1
rather than on w1, and straightening w2 before the row's right word is
put in front of it.  Straightening the row's right word first is exact by
the prefix identity above, and it is what empties the rows on a validated
table: with its right words left raw, a row there holds the raw defect,
whose terms cancel only once each right word is straightened, and every
state term that reads the row straightens one word per raw term.  In the
builtin suite at seed 42, 143 of the 172 raw rows held 4 316 terms.
"""

from __future__ import annotations

from .envelope import (
    EnvElement,
    StateElement,
    _canon_terms,
    _check_parts,
    _decoded,
    _encoded,
    _encoded_words,
    _left_degree,
    _mu_terms,
    _oracle_terms,
    _straighten_terms,
    _straightener,
    _word_product,
    env_eq,
    mu_state,
)
from .liealg import (
    GVector,
    LieAlgebra,
    SplitDecomposition,
    _acc,
    _check_carrier,
    _check_indices,
    _cleared,
    _negated,
    _read_source,
    validate as _validate,  # ActionContext's keyword shadows the plain name
)


class OracleMismatchError(RuntimeError):
    """The recursive calculator and the straightening oracle disagree.

    Agreement is guaranteed for validated inputs, so this signals an
    implementation bug, never a data problem."""


class ActionContext:
    """A validated (algebra, split) pair that all operations here run in.

    It reads two memos that live on its algebra, keyed by the split's
    parts: the basis kernel (:func:`_basis_action`, a {(u1, u2): raw} dict
    per basis index and left word, read-only to every caller) and the
    Lie-action defect row of each left word (:func:`_lie_row`, a raw term
    dict, canonical, so empty on a validated table).  ``_kernel`` and
    ``_lie_rows`` are the algebra's dicts, shared by every context over
    that algebra and those parts and freed with the algebra, and ``_form``
    is its declaration-order straightener (envelope._straightener), looked
    up once here: every core straightens through it.  Its own state is
    the defect table of the last state a Lie-action verdict judged
    (:func:`_lie_table`), replaced when a different state arrives.
    Contexts are cheap: the work they share stays with the
    algebra, so drop the algebra to free the memory.  The module docstring
    sets out the Lie-action table's design."""

    __slots__ = (
        "algebra", "split", "_parts", "_form", "_kernel", "_lie_rows", "_lie_table",
        "__weakref__",
    )

    def __init__(self, algebra: LieAlgebra, split: SplitDecomposition, validate: bool = True):
        _check_carrier(split.algebra, algebra, "split")
        if validate:
            report = _validate(algebra, split)
            if not report.ok:
                raise ValueError(f"invalid algebra or split:\n{report}")
        self.algebra = algebra
        self.split = split
        # the parts' engine letters, for the part check on engine words
        self._parts = frozenset(map(chr, split.part1)), frozenset(map(chr, split.part2))
        self._form = _straightener(algebra)  # the declaration order's
        # the algebra's memos for these parts, shared by every context over
        # the algebra and its parts
        self._kernel = algebra._kernels.setdefault(self._parts, {})
        self._lie_rows = algebra._lie_rows.setdefault(self._parts, {})
        self._lie_table = None  # (s, {(i, j): canonical E(i, j)}), see _lie_table

    def unit_state(self) -> StateElement:
        return StateElement.unit(self.split)

    def __repr__(self):
        return f"ActionContext({self.algebra!r}, {self.split})"


def _basis_action(ctx: ActionContext, i: int, w1: str) -> dict:
    """e_i acting on (w1, "") as a {(u1, u2): raw} dict of engine words,
    memoized in ctx's kernel (its algebra's, for its parts; on a
    reduction a miss first reads the source, see
    ``LieAlgebra.change_ring``) and returned as the memo's own dict, which
    callers never change; the recursion step is
    e_i.(x.t) = [e_i, e_x].(t) + x.(e_i.(t)).  Each u2 is one letter or
    empty."""
    key = (i, w1)
    hit = ctx._kernel.get(key)
    if hit is not None:
        return hit
    if ctx.algebra._source is not None:
        hit = _read_source(ctx._kernel, ctx.algebra._source._kernels.get(ctx._parts, {}), key,
                           ctx.algebra.ring.modulus)
        if hit is not None:
            return hit
    if not w1:
        pair = (chr(i), "") if i in ctx.split.part1_set else ("", chr(i))
        result = {pair: 1}
    else:
        if len(w1) > 128:  # the recursion below nests one frame a letter
            _fill_checkpoints(ctx, w1)
        x, rest = w1[0], w1[1:]
        q = ctx.algebra.ring.modulus
        out: dict = {}
        for k, b in ctx.algebra.table[i][ord(x)]:
            for pair, c in _basis_action(ctx, k, rest).items():
                _acc(out, pair, b * c, q)
        for (u1, u2), c in _basis_action(ctx, i, rest).items():
            _acc(out, (x + u1, u2), c, q)
        result = out
    ctx._kernel[key] = result
    return result


def _fill_checkpoints(ctx: ActionContext, w1: str) -> None:
    """Fill every index at the proper suffixes of w1 whose lengths are
    multiples of 128, shortest first, unless every index is filled at the
    longest of them already, so that :func:`_basis_action` on w1 nests at
    most 128 deep.  The values are the ones its recursion would compute.
    A function of its own, since a generator in ``_basis_action`` would
    make its locals cells on every call."""
    top, dim = (len(w1) - 1) // 128 * 128, ctx.algebra.dim
    if any((k, w1[-top:]) not in ctx._kernel for k in range(dim)):
        for length in range(128, top + 1, 128):
            suffix = w1[-length:]
            for k in range(dim):
                _basis_action(ctx, k, suffix)


def _act_terms(ctx: ActionContext, support, terms: dict, out: dict | None = None) -> dict:
    """g, given by its (index, raw) support pairs, acting on the raw
    {(w1, w2): c} terms of a state in engine words; the result is a raw dict
    of that shape, accumulated into ``out`` when it is given."""
    q = ctx.algebra.ring.modulus
    if out is None:
        out = {}
    for (w1, w2), c in terms.items():
        for i, gi in support:
            cg = c * gi
            for (u1, u2), c2 in _basis_action(ctx, i, w1).items():
                _acc(out, (u1, u2 + w2), cg * c2, q)
    return out


def _support(ctx: ActionContext, g: GVector) -> list:
    """g's (index, raw) pairs, once g is checked to lie in ctx's algebra."""
    _check_carrier(g.algebra, ctx.algebra, "vector")
    return [(i, c.value) for i, c in g.terms.items()]


def act(ctx: ActionContext, g: GVector, s: StateElement) -> StateElement:
    """Left action of g on a state representative (see module docstring).
    Linear in both arguments; the result is not canonicalized."""
    terms = _act_terms(ctx, _support(ctx, g), _encoded(s, ctx.split))
    return StateElement._trusted(ctx.split, _decoded(terms))


def act_word(ctx: ActionContext, word, s: StateElement) -> StateElement:
    """Iterated action of a word over the full basis: letters act right to
    left (innermost first); the empty word acts as the identity.  A letter
    outside the basis raises ValueError."""
    terms = _encoded(s, ctx.split)
    word = tuple(word)
    _check_indices(word, ctx.algebra.dim, "letter")
    for letter in reversed(word):
        terms = _act_terms(ctx, ((letter, 1),), terms)
    return StateElement._trusted(ctx.split, _decoded(terms))


def _section_terms(ctx: ActionContext, terms: dict) -> dict:
    """The section of raw {engine word: c} element terms, as canonical raw
    {(w1, w2): c} state terms: :func:`section_s`'s core."""
    q, form = ctx.algebra.ring.modulus, ctx._form
    out: dict = {}
    for w, c in terms.items():
        state = {("", ""): c}
        for letter in reversed(w):
            acted = _act_terms(ctx, ((ord(letter), 1),), state)
            state = {}
            for (w1, w2), c1 in acted.items():
                # w1[:-1] and w2[1:] are sorted, so each word is its own
                # form unless its one junction is out of order
                left = form(w1, len(w1) - 1) if len(w1) > 1 and w1[-2] > w1[-1] else {w1: 1}
                right = (form(w2) if len(w2) > 1 and w2[0] > w2[1] else {w2: 1}).items()
                for v1, c2 in left.items():
                    c12 = c1 * c2
                    for v2, c3 in right:
                        _acc(state, (v1, v2), c12 * c3, q)
        for key, c3 in state.items():
            _acc(out, key, c3, q)
    return out


def section_s(ctx: ActionContext, u: EnvElement) -> StateElement:
    """The normal-ordering section: linear extension of
    w -> (w acting on 1 (x) 1), returned in canonical form.  Each letter
    acts through _act_terms, and both factor words are straightened after
    every letter (see the module docstring)."""
    terms = _section_terms(ctx, _encoded_words(u, ctx.algebra))
    return StateElement._trusted(ctx.split, _decoded(terms))


def normal_order(ctx: ActionContext, u: EnvElement, check: bool = True) -> StateElement:
    """section_s with the guaranteed-agreement cross-checks switched on.

    With ``check``, asserts the result agrees with the independent
    straightening oracle and that merging the factors back reproduces u;
    disagreement raises :class:`OracleMismatchError`."""
    words = _encoded_words(u, ctx.algebra)
    terms = _section_terms(ctx, words)
    result = StateElement._trusted(ctx.split, _decoded(terms))
    if check:
        oracle = _oracle_terms(ctx.split, words)
        if terms != oracle:
            raise OracleMismatchError(
                f"section disagrees with straightening oracle on {u}: "
                f"{result} vs {StateElement._trusted(ctx.split, _decoded(oracle))}")
        if not env_eq(mu_state(result), u):
            raise OracleMismatchError(f"factor multiplication does not invert the section on {u}")
    return result


def _checked(ctx: ActionContext, terms: dict) -> dict:
    """Raw {(w1, w2): c} state terms of engine words, returned once the
    part check passes on them: the letter that would stop them becoming a
    state stops them here, with the same message (see the module
    docstring)."""
    _check_parts(ctx.split, terms, ctx._parts)
    return terms


def _section_raw(ctx: ActionContext, terms: dict) -> dict:
    """section_s's terms, raw, for an element given by its raw
    {engine word: c} terms, with the same part check and no state built."""
    return _checked(ctx, _section_terms(ctx, terms))


def _difference_form(ctx: ActionContext, a: dict, b: dict) -> dict:
    """The form of a - b under the declaration order, for raw
    {engine word: c} terms a and b: empty exactly when they give one
    element of the envelope."""
    q = ctx.algebra.ring.modulus
    diff = dict(a)
    for w, c in b.items():
        _acc(diff, w, -c, q)
    return _straighten_terms(diff, ctx._form, q)


def check_filtration(ctx: ActionContext, g: GVector, s: StateElement) -> bool:
    """The action raises the left-word degree by at most one."""
    support, terms = _cleared(ctx.algebra.ring, _support(ctx, g), _encoded(s, ctx.split))
    return _left_degree(_act_terms(ctx, support, terms)) <= _left_degree(terms) + 1


def check_right_linearity(ctx: ActionContext, g: GVector, w1, m) -> bool:
    """Acting then right-multiplying by m equals acting on (w1, m) directly."""
    w1, m = tuple(w1), tuple(m)
    _check_indices(w1 + m, ctx.algebra.dim, "letter")  # StateElement.term's checks
    _check_parts(ctx.split, ((w1, m),))
    (support,) = _cleared(ctx.algebra.ring, _support(ctx, g))
    q = ctx.algebra.ring.modulus
    v1, v2 = "".join(map(chr, w1)), "".join(map(chr, m))
    diff = _act_terms(ctx, support, {(v1, v2): 1})
    for (u1, u2), c in _act_terms(ctx, support, {(v1, ""): 1}).items():
        _acc(diff, (u1, u2 + v2), -c, q)
    return not _checked(ctx, _canon_terms(diff, ctx._form, q))


def check_mu_compat(ctx: ActionContext, g: GVector, s: StateElement) -> bool:
    """Merging the acted state equals left-multiplying the merged state by
    g.  The difference is judged per right word w2: the part over s's terms
    (w1, w2) is straightened before w2 is appended to what survives (see
    the module docstring)."""
    support, terms = _cleared(ctx.algebra.ring, _support(ctx, g), _encoded(s, ctx.split))
    q = ctx.algebra.ring.modulus
    lefts: dict = {}  # right word -> {w1: c} of s's terms with that right word
    for (w1, w2), c in terms.items():
        lefts.setdefault(w2, {})[w1] = c
    left_g = {chr(i): c for i, c in support}
    rest: dict = {}
    for w2, group in lefts.items():
        acted = _mu_terms(_act_terms(ctx, support, {(w1, ""): c for w1, c in group.items()}), q)
        for m, c in _difference_form(ctx, acted, _word_product(left_g, group, q)).items():
            _acc(rest, m + w2, c, q)
    return not _difference_form(ctx, rest, {})


def _left_straightened(terms: dict, form, q) -> dict:
    """Raw {(u1, u2): c} terms with each left word u1 replaced by its form."""
    out: dict = {}
    for (u1, u2), c in terms.items():
        for v1, c1 in form(u1).items():
            _acc(out, (v1, u2), c * c1, q)
    return out


def _right_straightened(terms: dict, form, q) -> dict:
    """Raw {(u1, u2): c} terms with each right word u2 replaced by its form:
    _canon_terms' result, term for term and in order, when every left word
    u1 is a form already."""
    out: dict = {}
    for (u1, u2), c in terms.items():
        for v2, c2 in form(u2).items():
            _acc(out, (u1, v2), c * c2, q)
    return out


def _lie_row(ctx: ActionContext, w1: str) -> dict:
    """The defect row of the left word w1, memoized in ctx's rows (its
    algebra's, for its parts; on a reduction a miss first reads the
    source, see ``LieAlgebra.change_ring``), stored only once complete:
    the raw term dict {((i, j), v1, v2): c} of the canonical E(i, j) on
    the one-term state (w1, ""), for every ordered pair, both words
    straightened.  The commutator of each pair i < j is one dict, the
    second action accumulated into the first's with its support negated,
    left-straightened once and negated for (j, i); the bracket side is
    summed from the dim kernel entries, each left-straightened once.  A
    pair whose sum is empty adds no term; the others have only their
    right words straightened last (:func:`_right_straightened`), since
    every left word is a form already.  It is keyed by w1 as it stands;
    the module docstring says why that is exact."""
    row = ctx._lie_rows.get(w1)
    if row is not None:
        return row
    algebra, q = ctx.algebra, ctx.algebra.ring.modulus
    if algebra._source is not None:
        row = _read_source(ctx._lie_rows, algebra._source._lie_rows.get(ctx._parts, {}), w1, q)
        if row is not None:
            return row
    n, form = algebra.dim, ctx._form
    acted = [_basis_action(ctx, k, w1) for k in range(n)]
    straight = [_left_straightened(entry, form, q) for entry in acted]
    defects = {(i, i): {} for i in range(n)}
    for j in range(n):
        for i in range(j):
            diff = _act_terms(ctx, ((i, 1),), acted[j])
            _act_terms(ctx, ((j, -1),), acted[i], diff)
            defects[i, j] = _left_straightened(diff, form, q)
            defects[j, i] = dict(_negated(defects[i, j].items(), q))
    row = {}
    for pair, defect in defects.items():
        i, j = pair
        for k, b in algebra.table[i][j]:
            for key, c in straight[k].items():
                _acc(defect, key, -b * c, q)
        if defect:
            for (v1, v2), c in _right_straightened(defect, form, q).items():
                row[pair, v1, v2] = c
    ctx._lie_rows[w1] = row
    return row


def _lie_table(ctx: ActionContext, s: StateElement) -> dict:
    """s's defect table, {(i, j): E(i, j)} of raw term dicts of engine
    words, summed from the rows of s's left words (see the module
    docstring): ctx's own if s was the last state judged, else built, s
    checked and encoded once, and kept.  It holds only the pairs some row
    term reaches; a pair it lacks has an empty E(i, j), so readers take
    pairs with ``.get``."""
    if ctx._lie_table is not None and ctx._lie_table[0] is s:
        return ctx._lie_table[1]
    q, form = ctx.algebra.ring.modulus, ctx._form
    defects: dict = {}
    for (w1, w2), c in _encoded(s, ctx.split).items():
        for (pair, v1, v2), d in _lie_row(ctx, w1).items():
            defect, cd = defects.setdefault(pair, {}), c * d
            for x2, c2 in form(v2 + w2).items():
                _acc(defect, (v1, x2), cd * c2, q)
    ctx._lie_table = s, defects
    return defects


def _lie_holds(ctx: ActionContext, gs, hs, defects: dict) -> bool:
    """check_lie_action's core, on g's and h's (index, raw) support pairs
    and the state's defect table (:func:`_lie_table`), where a missing pair
    adds nothing; the part check runs on a nonempty sum, as on a state of
    it."""
    q = ctx.algebra.ring.modulus
    diff: dict = {}
    for i, gi in gs:
        for j, hj in hs:
            defect = defects.get((i, j))
            if defect:
                c = gi * hj
                for key, d in defect.items():
                    _acc(diff, key, c * d, q)
    return not _checked(ctx, diff)


def check_lie_action(ctx: ActionContext, g: GVector, h: GVector, s: StateElement) -> bool:
    """g.(h.s) - h.(g.s) = [g,h].s, up to canonicalization, judged by
    :func:`_lie_holds` from s's defect table on ctx (see the module
    docstring)."""
    hs = _support(ctx, h)  # checked in act(g, act(h, s))'s order: h, s, g
    defects = _lie_table(ctx, s)
    return _lie_holds(ctx, _support(ctx, g), hs, defects)


def check_inverse(ctx: ActionContext, u: EnvElement, s: StateElement) -> tuple[bool, bool]:
    """(section after merge is the identity on states,
        merge after section is the identity on the envelope).

    A state over another split is refused before any work."""
    ring = ctx.algebra.ring
    (terms,) = _cleared(ring, _encoded(s, ctx.split))
    q = ring.modulus
    first = (_section_raw(ctx, _mu_terms(terms, q))
             == _checked(ctx, _canon_terms(terms, ctx._form, q)))
    (words,) = _cleared(ring, _encoded_words(u, ctx.algebra))
    second = not _difference_form(ctx, _mu_terms(_section_raw(ctx, words), q), words)
    return first, second
