"""Sparse word combinations representing tensor/enveloping-algebra elements,
the concatenation product, the tensor-pair-to-envelope multiplication, and
PBW straightening.

Public words are plain tuples of basis indices; the empty tuple is the
unit.  Inside the engine (straightening here, the basis kernel and the
section in ``normalform``) a word is a ``str`` whose letter i is ``chr(i)``:
a memo lookup reads its cached hash, and a slice or a join copies its
letters with no reference counting.  ``chr`` covers every index a basis
can have.  A word is encoded where a call enters the engine and decoded
only where an element is built, each time afresh: ``"".join(map(chr, w))``
one way and ``tuple(map(ord, w))`` the other, with no table kept between
calls.

An envelope element is a sparse {word: scalar} map and always denotes an
element of the enveloping algebra *by representative*: structural equality
compares representatives, while :func:`env_eq` decides equality in the
quotient by straightening the difference to the canonical nondecreasing-word
form.

Straightening exhaustively rewrites any adjacent out-of-order pair
``x y -> y x + [x, y]`` (the bracket expanded over the basis).  Each rewrite
strictly decreases (word degree, inversion count) lexicographically, so it
terminates; the diamond property of this rewriting system makes the result
independent of strategy, and the leftmost-inversion strategy is fixed purely
for determinism.  Under the split-compatible order (all part-1 letters before
all part-2 letters) straightening doubles as an independent normal-ordering
oracle.

The memoized straightener reuses prefixes: when the leftmost inversion of w
lies before its last letter z, the form of w is the form of w[:-1] with z
appended to each of its words, each of those then straightened.  This is
the leftmost-inversion result itself, on every table, one that fails the
Lie axioms too: while w[:-1] is unsorted its leftmost inversion is w's, and
no rewrite there touches z.  Only an inversion in the last pair is
rewritten.  A word m z built from a sorted m needs its last pair checked
alone, so the inversion scan starts at the end of the prefix known to be
sorted, and moving a letter across a sorted run stores a few words per
prefix, not every intermediate word of the crossing.

Straightening inside a closed tail of the order never leaves it, so the
letters below such a tail wait outside.  The tail from t is the set of
letters ranked t or more; it is closed when every bracket cell a rewrite
inside it reads, [a, b] with a ranked above b, holds only letters ranked t
or more: n- and b- under sl(n)'s split order, b- under its declaration
order.  If the letters after w's leftmost inversion all lie in the closed
tail from t, the letters of w ranked below t are a sorted head h, and the
form of w = h v is h prepended to each word of the form of v.  This too is
the leftmost-inversion result on every table: every letter of v ranks t or
more and a rewrite inside the tail makes only such letters, so the junction
of h and any word reached from v is never inverted, and the leftmost
inversion of h v is always v's.  The memo then keys on v, whose form every
head shares.  Only the cell a rewrite reads decides closure; on a table
that is not alternating its mirror may differ.

A word made of two sorted pieces has one junction to check: it is sorted
exactly when either piece is empty or the last letter of the first ranks
at most the first letter of the second, and then it is its own form.  A
word built sorted is never passed to form: it joins the form where it is
built, with no call, no scan and no memo entry.  Three places build such
words.  The prefix rule appends z to each word m of the prefix's form.
The rewrite step of w = h x y, its inversion in the last pair and its
head h sorted, builds the swapped word h y x and a bracket word h k for
each letter k of [x, y]; x ranks above y, so h y x is sorted when h y is.
And section_s straightens the words a kernel term builds from sorted
ones: a left word sorted but for its last letter, and a right word sorted
but for its first (see normalform).

The prefix rule decides one more kind of word m z in place: when m
starts with letters ranked below the closed tail that holds z, the form
of m z is that head prepended to each word of the rest's form, and only
the rest is straightened by a call.  Each decision gives the form a call
would, term for term and in the same order, with the same counts: a
sorted word's form is itself, and it costs no rewrite.  So the memo
holds only the words some call straightens: the words a caller passes
in, those a rewrite spawns that need a rewrite themselves, the prefixes
and closed tails they reduce to, and the words m z that neither rule
decides.  A sorted word is stored only when a caller passes it in.
"""

from __future__ import annotations

from .liealg import (
    GVector,
    LieAlgebra,
    SplitDecomposition,
    _acc,
    _check_carrier,
    _check_indices,
    _Combination,
    _reduced,
)


class EnvElement(_Combination):
    """Finite scalar combination of words over the full basis."""

    __slots__ = ()
    _what = "element"

    def __init__(self, algebra: LieAlgebra, terms=None):
        if terms:
            terms = {tuple(w): c for w, c in terms.items()}
            for w in terms:
                _check_indices(w, algebra.dim, "letter")
        self._fill(algebra, terms)

    @classmethod
    def unit(cls, algebra: LieAlgebra) -> "EnvElement":
        return cls(algebra, {(): algebra.ring.one})

    @classmethod
    def word(cls, algebra: LieAlgebra, letters, coeff=1) -> "EnvElement":
        return cls(algebra, {tuple(letters): coeff})

    @classmethod
    def from_vector(cls, v: GVector) -> "EnvElement":
        """The vector as a sum of one-letter words."""
        return cls._trusted(v.algebra, {(i,): c for i, c in v.support()})

    def __mul__(self, other):
        if isinstance(other, EnvElement):
            return env_mul(self, other)
        return self.scale(other)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def __str__(self):
        # Expression form, parseable back: "<coeff> * a * b + ..." ("1" = unit word).
        if not self.terms:
            return "0"
        names = self.algebra.basis
        bits = []
        for w, c in self.sorted_terms():
            word = " * ".join(names[l] for l in w) if w else "1"
            bits.append(f"{c} * {word}")
        return " + ".join(bits)


class StateElement(_Combination):
    """Combination of pairs (word over part 1) (x) (word over part 2)."""

    __slots__ = ("split",)
    _what = "state"

    def __init__(self, split: SplitDecomposition, terms=None):
        if terms:
            terms = {(tuple(w1), tuple(w2)): c for (w1, w2), c in terms.items()}
            for w1, w2 in terms:
                _check_indices(w1 + w2, split.algebra.dim, "letter")
        self._fill(split, terms)

    def _fill(self, split: SplitDecomposition, terms) -> None:
        # The part check runs on every construction, trusted ones too: it is
        # what stops a split that was never validated from producing states
        # with letters on the wrong side.
        if terms:
            _check_parts(split, terms)
        self.split = split
        _Combination._fill(self, split.algebra, terms)

    def _carrier(self):
        return self.split

    @classmethod
    def unit(cls, split: SplitDecomposition) -> "StateElement":
        return cls(split, {((), ()): split.algebra.ring.one})

    @classmethod
    def term(cls, split: SplitDecomposition, w1, w2, coeff=1) -> "StateElement":
        return cls(split, {(tuple(w1), tuple(w2)): coeff})

    def left_degree(self) -> int:
        """Maximal left-word length; -1 for the zero state."""
        return _left_degree(self.terms)

    def append_right(self, word) -> "StateElement":
        """Right-multiply by a part-2 word (appended to every right factor)."""
        word = tuple(word)
        _check_indices(word, self.split.algebra.dim, "letter")
        out = {}
        for (w1, w2), c in self.terms.items():
            _acc(out, (w1, w2 + word), c)
        return StateElement._trusted(self.split, out)

    def sorted_terms(self):
        return sorted(
            self.terms.items(),
            key=lambda kv: (len(kv[0][0]), kv[0][0], len(kv[0][1]), kv[0][1]),
        )

    def term_strings(self) -> list[str]:
        """One rendered term per entry, sorted descending by
        (left degree, left word, right degree, right word)."""
        names = self.algebra.basis
        out = []
        for (w1, w2), c in reversed(self.sorted_terms()):
            left = " ".join(names[l] for l in w1) if w1 else "1"
            right = " ".join(names[l] for l in w2) if w2 else "1"
            out.append(f"{c} * {left} (x) {right}")
        return out

    def __str__(self):
        strs = self.term_strings()
        return " + ".join(strs) if strs else "0"


def _check_parts(split: SplitDecomposition, pairs, parts=None) -> None:
    """The part check, the one statement of its rule: ValueError naming the
    first letter, in the order of ``pairs`` and left word first, that lies
    outside its factor's part (a left word's letters lie in part 1, a right
    word's in part 2).  ``pairs`` are (w1, w2) word pairs: tuple words, with
    ``parts`` left out, as every state construction passes them, or engine
    words, with ``parts`` the two parts' sets of engine letters, as the
    verdicts in ``normalform`` pass them."""
    part1, part2 = parts or (split.part1_set, split.part2_set)
    for w1, w2 in pairs:
        if not (part1.issuperset(w1) and part2.issuperset(w2)):
            which, letter = next((which, letter) for which, word, part
                                 in ((1, w1, part1), (2, w2, part2))
                                 for letter in word if letter not in part)
            index = ord(letter) if isinstance(letter, str) else letter
            raise ValueError(f"letter {split.algebra.basis[index]} not in part {which}")


def _left_degree(pairs) -> int:
    """The greatest length of a left word of the (w1, w2) ``pairs``, tuple
    or engine words; -1 for none."""
    return max((len(w1) for w1, _w2 in pairs), default=-1)


def _word_product(a: dict, b: dict, q=None) -> dict:
    """Word concatenation extended bilinearly to {word: coefficient} dicts:
    the product of T(g), as a fresh dict with no zero coefficient.  The
    coefficients are scalars, or raw values reduced mod q (see :func:`_acc`)."""
    out: dict = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            _acc(out, w1 + w2, c1 * c2, q)
    return out


def _relator_terms(algebra: LieAlgebra, u: EnvElement, host, pos, x, y, coeff) -> tuple:
    """The raw {engine word: c} terms of u and of its relator variant
    (``checks.relator_variant``), once its checks pass, in its order: x and
    y, host, pos, coeff, then u's algebra.  The relator's two words cancel
    when x == y."""
    _check_indices((x, y, *host), algebra.dim, "letter")
    if isinstance(pos, bool) or not isinstance(pos, int) or pos < 0:
        raise ValueError(f"pos {pos!r} is not a nonnegative int")
    coeff = algebra.ring.coerce(coeff)
    terms = _encoded_words(u, algebra)
    q, pos = algebra.ring.modulus, min(pos, len(host))
    head, tail = "".join(map(chr, host[:pos])), "".join(map(chr, host[pos:]))
    relator = [(chr(x) + chr(y), 1), (chr(y) + chr(x), -1)] if x != y else []
    out = dict(terms)
    for w, c in relator + [(chr(k), -gamma) for k, gamma in algebra.table[x][y]]:
        _acc(out, head + w + tail, coeff * c, q)
    return terms, out


def env_mul(u: EnvElement, v: EnvElement) -> EnvElement:
    """Bilinear extension of word concatenation (the associative product)."""
    u._check(v)
    return EnvElement._trusted(u.algebra, _word_product(u.terms, v.terms))


def _mu_terms(terms: dict, q) -> dict:
    """Raw {(w1, w2): c} state terms, of engine or tuple words, merged into
    raw {w1 w2: c} element terms, reduced mod q: :func:`mu_state`'s core."""
    out: dict = {}
    for (w1, w2), c in terms.items():
        _acc(out, w1 + w2, c, q)
    return out


def mu_state(s: StateElement) -> EnvElement:
    """Multiply the two tensor factors inside the full envelope: each pair
    (w1, w2) becomes the concatenated word w1 w2 (letters pass through
    unchanged because the embeddings are coordinate inclusions).  Its core
    concatenates the tuple words as they are, with no encoding."""
    terms = _mu_terms({key: c.value for key, c in s.terms.items()}, s.algebra.ring.modulus)
    return EnvElement._trusted(s.algebra, terms)


def _straightener(algebra: LieAlgebra, order=None):
    """The normal form of one word under ``order`` (default: declaration
    order), as a function ``form(w)`` returning a {word: raw} dict.

    The words are engine words (``str``, see the module docstring): ``form``
    compares letters through the order's rank, reads the structure table at
    ``ord`` of each letter and spells a bracket word with ``chr``.

    ``form(w, start)`` takes ``w[:start]`` as known to be sorted and scans
    for the leftmost inversion from the last pair of that prefix.  If the
    letters after the inversion lie in a closed tail of the order and w
    starts with letters ranked below it, the form is that head prepended to
    each word of the rest's form (see the module docstring); ``floor_of``,
    built once per straightener from the cells a rewrite reads, maps a
    letter to the highest closed tail at or below its rank, and a word whose
    first letter is not below ``floor_of`` of the letter after the inversion
    skips the rest of the check.  Otherwise, if the
    inversion lies before the last letter, the form is the form of
    ``w[:-1]`` with the last letter z appended to each word and straightened
    (see the module docstring for why this is exact on every table): a
    word ``m + z`` that is sorted joins the form as it stands, one whose m
    has a head below z's closed tail takes the rest's form with the head
    prepended, and only the others are straightened by a call of their
    own; ``head_length`` states the head rule once for both places.
    Otherwise it rewrites the last pair: of the swapped word and the
    bracket-expansion words, each sorted one joins the form as it stands
    and ``form`` recurses on the others.  A word is sorted there when the
    one junction after the sorted head is in order (the module
    docstring's junction rule), so no word built sorted is ever passed to
    ``form``.  ``form.memo`` is the order's memo
    (word -> form) of the words ``form`` is called on, shared by every call
    with that order and freed with the algebra; ``form.counts`` is
    ``[steps, spawned]``, the running totals of the rewrites ``form``
    performed and the words they spawned (a word already in the memo, or
    formed from its prefix or its closed tail, adds nothing there).

    The memo holds raw ring values (a ``Scalar``'s ``value``), never
    ``Scalar``s: a sorted word maps to ``{w: 1}``.  A form is the memo's
    own dict, shared by every caller and by other memo keys, so callers
    read it and never change it.  Over Z and Z/q it holds only strs and
    ints, so the cyclic garbage collector never tracks it, not even before
    a collection.  Scalars are built only where an element is, by
    ``Ring.scalar``.

    ``form`` is built once per order and kept on the algebra, in
    ``algebra._forms`` under the order's rank tuple, so later calls with
    that order return that same function and its closed-tail table is
    built once.  The declaration order's is also kept under ``None``, so
    ``_straightener(algebra)``, the call every canonicalization makes, is
    one dict lookup.

    On a reduction (``LieAlgebra.change_ring``) a word a caller passes in
    that the memo lacks is first looked up in the source's straightener
    for the same order, if the source has built one; a word found there
    is stored reduced into [0, q), zeros dropped (over Z or Q, as it
    stands), and costs no rewrite, so ``form.counts`` adds nothing for it.
    A word the source lacks is straightened in the reduction's own ring,
    exactly as on an algebra with no source, and the words its
    straightening reaches are not looked up.  That lookup is a function of
    its own around the rewriting step, ``step``, which recurses through
    itself: so an algebra with no source runs ``step`` with no check (one
    inside it cost long words 2-6 %), and a reduction nests no deeper than
    an algebra with no source (a lookup on every recursion would nest two
    frames a letter).  ``LieAlgebra.change_ring`` says why the lookup is
    exact.
    """
    forms = algebra._forms
    if order is None:
        form = forms.get(None)
        if form is not None:
            return form
    n = algebra.dim
    if order is None:
        rank = tuple(range(n))
    else:
        order = tuple(order)
        _check_indices(order, n, "index")
        if sorted(order) != list(range(n)):
            raise ValueError("order must be a permutation of the basis indices")
        rank = tuple(sorted(range(n), key=order.__getitem__))  # rank[i]: position of i
    form = forms.get(rank)
    if form is not None:
        return form
    memo: dict = {}
    counts = [0, 0]  # rewrites performed, words they spawned
    rank_of = {chr(i): r for i, r in enumerate(rank)}  # engine letter -> position in the order
    table, q = algebra.table, algebra.ring.modulus
    # The tail from t is closed when every cell a rewrite inside it reads,
    # [a, b] with a ranked above b, holds only letters ranked t or more;
    # floor_of[x] is the highest t <= rank of x whose tail is closed.
    by_rank = order or range(n)
    closed, low = [False] * n, n
    for t in range(n - 1, -1, -1):
        b = by_rank[t]
        for a in by_rank[t + 1:]:
            for k, _c in table[a][b]:
                low = min(low, rank[k])
        closed[t] = low >= t
    floor_of, t = {}, 0
    for r, i in enumerate(by_rank):
        if closed[r]:
            t = r
        floor_of[chr(i)] = t

    def head_length(w, t):
        # the head rule: w's leading letters ranked below t, the floor of a
        # closed tail that holds a later letter of w, are sorted and are
        # never rewritten; their count
        i = 0
        while rank_of[w[i]] < t:
            i += 1
        return i

    def step(w, start=0):
        # w[:start] is known to be sorted, so the scan starts at its last pair
        hit = memo.get(w)
        if hit is not None:
            return hit
        last = len(w) - 1
        for pos in range(start - 1 if start else 0, last):
            if rank_of[w[pos]] > rank_of[w[pos + 1]]:
                break
        else:
            result = memo[w] = {w: 1}
            return result
        if pos and rank_of[w[0]] < floor_of[w[pos + 1]]:
            i = head_length(w, min(map(floor_of.__getitem__, w[pos + 1:])))
            if i:
                head = w[:i]
                result = memo[w] = {head + v: c for v, c in step(w[i:], pos + 1 - i).items()}
                return result
        if pos < last - 1:  # straighten the prefix, then append the last letter
            z = w[last]
            rank_z, floor_z = rank_of[z], floor_of[z]
            out: dict = {}
            for m, c in step(w[:last], pos + 1).items():
                # m is sorted: m z is decided here, with no memo entry,
                # when it is sorted or m has a head below z's closed tail
                if not m or rank_of[m[-1]] <= rank_z:
                    _acc(out, m + z, c, q)
                    continue
                if rank_of[m[0]] < floor_z:
                    i = head_length(m, floor_z)
                    head = m[:i]
                    for v, c2 in step(m[i:] + z, len(m) - i).items():
                        _acc(out, head + v, c * c2, q)
                else:
                    for w2, c2 in step(m + z, len(m)).items():
                        _acc(out, w2, c * c2, q)
            result = out
        else:  # rewrite the last pair
            x, y = w[pos], w[last]
            head = w[:pos]
            row = table[ord(x)][ord(y)]
            counts[0] += 1
            counts[1] += 1 + len(row)
            # head is sorted: head + y + x and head + chr(k) are decided
            # here, with no memo entry, when the junction is in order
            rank_h = rank_of[head[-1]] if head else -1
            swapped = head + y + x
            result = {swapped: 1} if rank_h <= rank_of[y] else step(swapped, pos)
            if row:  # commuting letters share the swapped word's form
                out = dict(result)
                for k, c in row:
                    bracket = head + chr(k)
                    if rank_h <= rank[k]:
                        _acc(out, bracket, c, q)
                        continue
                    for w2, c2 in step(bracket, pos).items():
                        _acc(out, w2, c * c2, q)
                result = out
        memo[w] = result
        return result

    # on an algebra with no source, form is the step itself; a reduction's
    # form first reads its source's form of each word a caller passes in
    sources = None if algebra._source is None else algebra._source._forms
    if sources is None:
        form = step
    else:
        def form(w, start=0):
            hit = memo.get(w)
            if hit is not None:
                return hit
            source = sources.get(rank)
            if source is not None:
                hit = source.memo.get(w)
                if hit is not None:
                    result = memo[w] = _reduced(hit, q)
                    return result
            return step(w, start)

    form.memo, form.counts = memo, counts
    forms[rank] = form
    if rank == tuple(range(n)):
        forms[None] = form
    return form


def _straighten_terms(terms: dict, form, q) -> dict:
    """Raw {engine word: c} terms with every word replaced by ``form`` of
    it (a straightener's, see :func:`_straightener`), as a fresh raw dict
    with no zero coefficient: :func:`straighten`'s core."""
    out: dict = {}
    for w, c in terms.items():
        for w2, c2 in form(w).items():
            _acc(out, w2, c * c2, q)
    return out


def straighten(u: EnvElement, order=None, *, stats=None) -> EnvElement:
    """PBW canonical form: every word nondecreasing w.r.t. ``order``
    (default: declaration order), obtained by exhaustive rewriting of
    adjacent inversions.  With ``stats`` a dict, adds to its "steps" the
    rewrites this call performs and to its "spawned" the words they spawn,
    read off the order's ``form.counts``, also when the call raises; words
    straightened before under the same order count zero."""
    form = _straightener(u.algebra, order)
    before = form.counts[:]
    try:
        terms = _straighten_terms(_encoded_words(u, u.algebra), form, u.algebra.ring.modulus)
    finally:
        if stats is not None:
            for key, now, was in zip(("steps", "spawned"), form.counts, before):
                stats[key] = stats.get(key, 0) + now - was
    return EnvElement._trusted(u.algebra, _decoded_words(terms))


def env_eq(u: EnvElement, v: EnvElement) -> bool:
    """Equality in the enveloping algebra: straighten(u - v) == 0 under the
    declaration order (any order gives the same verdict)."""
    u._check(v)
    return straighten(u - v).is_zero()


def _canon_terms(algebra: LieAlgebra, terms: dict) -> dict:
    """{(w1, w2): raw} terms of engine words with both factor words
    straightened under the declaration order, as a fresh raw dict with no
    zero coefficient."""
    form, q = _straightener(algebra), algebra.ring.modulus
    out: dict = {}
    for (w1, w2), c in terms.items():
        left, right = form(w1).items(), form(w2).items()
        for x1, c1 in left:
            cc = c * c1
            for x2, c2 in right:
                _acc(out, (x1, x2), cc * c2, q)
    return out


def state_canon(s: StateElement) -> StateElement:
    """Canonical state: both factor words straightened to nondecreasing form
    within their own subalgebra (declaration order restricted to each part)."""
    return StateElement._trusted(s.split, _decoded(_canon_terms(s.algebra, _encoded(s, s.split))))


def _encoded(s: StateElement, split: SplitDecomposition) -> dict:
    """s's terms as {(w1, w2): raw} terms of engine words, once s is
    checked to lie over split by the carrier rule."""
    _check_carrier(s.split, split, "state")
    return {("".join(map(chr, w1)), "".join(map(chr, w2))): c.value
            for (w1, w2), c in s.terms.items()}


def _decoded(terms: dict) -> dict:
    """{(w1, w2): raw} terms of engine words, with public (tuple) words."""
    return {(tuple(map(ord, w1)), tuple(map(ord, w2))): c for (w1, w2), c in terms.items()}


def _encoded_words(u: EnvElement, algebra: LieAlgebra) -> dict:
    """u's terms as {engine word: raw} terms, once u is checked to lie in
    algebra by the carrier rule."""
    _check_carrier(u.algebra, algebra, "element")
    return {"".join(map(chr, w)): c.value for w, c in u.terms.items()}


def _decoded_words(terms: dict) -> dict:
    """{engine word: raw} terms, with public (tuple) words."""
    return {tuple(map(ord, w)): c for w, c in terms.items()}


def state_eq(s: StateElement, t: StateElement) -> bool:
    """Equality in U(g1) (x) U(g2): the canonical form of s - t is zero.
    Its part check rejects a factor word that straightens out of its part."""
    return state_canon(s - t).is_zero()


def _oracle_terms(split: SplitDecomposition, terms: dict) -> dict:
    """Raw {engine word: c} element terms straightened under the split
    order, each word then cut at the part boundary into raw {(w1, w2): c}
    state terms: :func:`oracle_normal_order`'s core.  Every letter of a
    cut word lands in its own part."""
    algebra, part1 = split.algebra, split.part1_set
    form = _straightener(algebra, split.split_order())
    out: dict = {}
    for w, c in _straighten_terms(terms, form, algebra.ring.modulus).items():
        cut = 0
        while cut < len(w) and ord(w[cut]) in part1:
            cut += 1
        out[(w[:cut], w[cut:])] = c
    return out


def oracle_normal_order(u: EnvElement, split: SplitDecomposition) -> StateElement:
    """Independent normal-ordering oracle: straighten under the
    split-compatible order, then cut every (now nondecreasing) word at the
    part boundary into (part-1 prefix) (x) (part-2 suffix)."""
    terms = _oracle_terms(split, _encoded_words(u, split.algebra))
    return StateElement._trusted(split, _decoded(terms))
