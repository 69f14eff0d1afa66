"""Sparse word combinations representing tensor/enveloping-algebra elements,
the concatenation product, the tensor-pair-to-envelope multiplication, and
PBW straightening.

Words are plain tuples of basis indices; the empty tuple is the unit.  An
envelope element is a sparse {word: scalar} map and always denotes an element
of the enveloping algebra *by representative*: structural equality compares
representatives, while :func:`env_eq` decides equality in the quotient by
straightening the difference to the canonical nondecreasing-word form.

Straightening exhaustively rewrites any adjacent out-of-order pair
``x y -> y x + [x, y]`` (the bracket expanded over the basis).  Each rewrite
strictly decreases (word degree, inversion count) lexicographically, so it
terminates; the diamond property of this rewriting system makes the result
independent of strategy, and the leftmost-inversion strategy is fixed purely
for determinism.  Under the split-compatible order (all part-1 letters before
all part-2 letters) straightening doubles as an independent normal-ordering
oracle.
"""

from __future__ import annotations

from .liealg import (
    CarrierMismatchError,
    GVector,
    LieAlgebra,
    SplitDecomposition,
    _acc,
    _check_indices,
    _Combination,
)


class EnvElement(_Combination):
    """Finite scalar combination of words over the full basis."""

    __slots__ = ("algebra",)
    _mismatch = "elements over different algebras"

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
    _mismatch = "states over different splits"

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
        clean = {}
        if terms:
            part1, part2 = split.part1_set, split.part2_set
            scalar = split.algebra.ring.scalar
            for (w1, w2), c in terms.items():
                if not (part1.issuperset(w1) and part2.issuperset(w2)):
                    which, letter = next((which, letter) for which, word, part
                                         in ((1, w1, part1), (2, w2, part2))
                                         for letter in word if letter not in part)
                    raise ValueError(f"letter {split.algebra.basis[letter]} not in part {which}")
                c = scalar(c)
                if c:
                    clean[(w1, w2)] = c
        self.split = split
        self.terms = clean

    def _carrier(self):
        return self.split

    @property
    def algebra(self) -> LieAlgebra:
        return self.split.algebra

    @classmethod
    def unit(cls, split: SplitDecomposition) -> "StateElement":
        return cls(split, {((), ()): split.algebra.ring.one})

    @classmethod
    def term(cls, split: SplitDecomposition, w1, w2, coeff=1) -> "StateElement":
        return cls(split, {(tuple(w1), tuple(w2)): coeff})

    def left_degree(self) -> int:
        """Maximal left-word length; -1 for the zero state."""
        return max((len(w1) for (w1, _w2) in self.terms), default=-1)

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


def _word_product(a: dict, b: dict) -> dict:
    """Word concatenation extended bilinearly to {word: scalar} dicts: the
    product of T(g), as a fresh dict with no zero coefficient."""
    out: dict = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            _acc(out, w1 + w2, c1 * c2)
    return out


def env_mul(u: EnvElement, v: EnvElement) -> EnvElement:
    """Bilinear extension of word concatenation (the associative product)."""
    u._check(v)
    return EnvElement._trusted(u.algebra, _word_product(u.terms, v.terms))


def mu_state(s: StateElement) -> EnvElement:
    """Multiply the two tensor factors inside the full envelope: each pair
    (w1, w2) becomes the concatenated word w1 w2 (letters pass through
    unchanged because the embeddings are coordinate inclusions)."""
    out: dict = {}
    for (w1, w2), c in s.terms.items():
        _acc(out, w1 + w2, c)
    return EnvElement._trusted(s.algebra, out)


def _straightener(algebra: LieAlgebra, order=None, stats=None):
    """The normal form of one word under ``order`` (default: declaration
    order), as a function ``form(w)`` returning immutable (word, raw) pairs.

    ``form`` rewrites the leftmost inversion, then recurses on the swapped
    word and on each bracket-expansion word.  Its memo (word -> form) is the
    order's own, kept on the algebra under the order's rank tuple, so it is
    shared by every call with that order and freed with the algebra.  With
    ``stats`` a dict, each rewrite performed adds 1 to "steps" and the words
    it spawns to "spawned"; a word already in the memo costs nothing.

    The memo holds raw ring values (:meth:`Ring.raw`), never ``Scalar``s: a
    sorted word maps to ``((w, 1),)``, and over Z and Z/q a form is a tuple
    of ints and int tuples, which the cyclic garbage collector untracks.
    Scalars are built only where an element is, by ``Ring.scalar``.
    """
    n = algebra.dim
    if order is None:
        rank = tuple(range(n))
    else:
        order = tuple(order)
        if sorted(order) != list(range(n)):
            raise ValueError("order must be a permutation of the basis indices")
        rank = tuple(sorted(range(n), key=order.__getitem__))  # rank[i]: position of i
    memo = algebra._straighten_memo.setdefault(rank, {})
    table, raw, q = algebra.table, algebra.ring.raw, algebra.ring.modulus

    def form(w):
        hit = memo.get(w)
        if hit is not None:
            return hit
        for pos in range(len(w) - 1):
            if rank[w[pos]] > rank[w[pos + 1]]:
                break
        else:
            result = memo[w] = ((w, 1),)
            return result
        x, y = w[pos], w[pos + 1]
        head, tail = w[:pos], w[pos + 2:]
        row = table[x][y]
        if stats is not None:
            stats["steps"] += 1
            stats["spawned"] += 1 + len(row)
        result = form(head + (y, x) + tail)
        if row:  # commuting letters share the swapped word's form
            out = dict(result)
            for k, c in row:
                c = raw(c)
                for w2, c2 in form(head + (k,) + tail):
                    _acc(out, w2, c * c2, q)
            result = tuple(out.items())
        memo[w] = result
        return result

    return form


def straighten(u: EnvElement, order=None, *, stats=None) -> EnvElement:
    """PBW canonical form: every word nondecreasing w.r.t. ``order``
    (default: declaration order), obtained by exhaustive rewriting of
    adjacent inversions.  With ``stats`` a dict, adds to its "steps" the
    rewrites this call performs and to its "spawned" the words they spawn;
    words straightened before under the same order (the memo lives on the
    algebra) count zero."""
    form = _straightener(u.algebra, order, stats)
    if stats is not None:
        stats.setdefault("steps", 0)
        stats.setdefault("spawned", 0)
    raw, q = u.algebra.ring.raw, u.algebra.ring.modulus
    out: dict = {}
    for w, c in u.terms.items():
        c = raw(c)
        for w2, c2 in form(w):
            _acc(out, w2, c * c2, q)
    return EnvElement._trusted(u.algebra, out)


def env_eq(u: EnvElement, v: EnvElement) -> bool:
    """Equality in the enveloping algebra: straighten(u - v) == 0 under the
    declaration order (any order gives the same verdict)."""
    u._check(v)
    return straighten(u - v).is_zero()


def _canon_terms(algebra: LieAlgebra, terms: dict) -> dict:
    """{(w1, w2): raw} terms with both factor words straightened under the
    declaration order, as a fresh raw dict with no zero coefficient."""
    form, q = _straightener(algebra), algebra.ring.modulus
    out: dict = {}
    for (w1, w2), c in terms.items():
        left, right = form(w1), form(w2)
        for x1, c1 in left:
            cc = c * c1
            for x2, c2 in right:
                _acc(out, (x1, x2), cc * c2, q)
    return out


def state_canon(s: StateElement) -> StateElement:
    """Canonical state: both factor words straightened to nondecreasing form
    within their own subalgebra (declaration order restricted to each part)."""
    raw = s.algebra.ring.raw
    terms = {key: raw(c) for key, c in s.terms.items()}
    return StateElement._trusted(s.split, _canon_terms(s.algebra, terms))


def state_eq(s: StateElement, t: StateElement) -> bool:
    """Equality in U(g1) (x) U(g2): canonical forms coincide structurally.
    The canonical form of s - t is built as one StateElement, whose part
    check still rejects a factor word that straightens out of its part."""
    s._check(t)
    raw, q = s.algebra.ring.raw, s.algebra.ring.modulus
    diff = {key: raw(c) for key, c in s.terms.items()}
    for key, c in t.terms.items():
        _acc(diff, key, -raw(c), q)
    return StateElement._trusted(s.split, _canon_terms(s.algebra, diff)).is_zero()


def oracle_normal_order(u: EnvElement, split: SplitDecomposition) -> StateElement:
    """Independent normal-ordering oracle: straighten under the
    split-compatible order, then cut every (now nondecreasing) word at the
    part boundary into (part-1 prefix) (x) (part-2 suffix)."""
    if u.algebra is not split.algebra:
        raise CarrierMismatchError("element over a different algebra")
    flat = straighten(u, split.split_order())
    part1 = split.part1_set
    out: dict = {}
    for w, c in flat.terms.items():
        cut = 0
        while cut < len(w) and w[cut] in part1:
            cut += 1
        out[(w[:cut], w[cut:])] = c
    return StateElement._trusted(split, out)
