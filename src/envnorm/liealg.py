"""Lie algebras presented by a finite basis and a structure-constant table,
with exhaustive validation (alternating + Jacobi), bracket computation, and
two-block split decompositions whose projectors are coordinate masks.

Splits are partitions of the basis index set, so embed(project(v, 1)) +
embed(project(v, 2)) = v holds by construction; what actually needs checking
is that each part is closed under the bracket.
"""

from __future__ import annotations

import itertools
from math import lcm

from .ring import Ring


class CarrierMismatchError(ValueError):
    """Operands live over different algebras or splits."""


class _Record:
    """An immutable value with named fields.

    A subclass lists its fields in ``__match_args__``, in constructor order,
    and its slots in ``__slots__``: the fields, then any private state that
    is no field; its own ``__init__`` keeps its signature, defaults and
    checks and ends with one call to this one, which sets the fields in
    that order.
    Records of one class compare and hash by ``_key()``, every field unless
    the subclass leaves some out; they read back as ``Name(field=value, ...)``,
    copy and pickle through their constructor, and refuse assignment and
    deletion with ``AttributeError``.  Written out by hand, with no code
    generated at import: the standard library's generated records load
    ``inspect`` and ``ast`` and cost a fresh process several times the rest
    of ``import envnorm``."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__match_args__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    _key = _values

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class Violation(_Record):
    """One failed condition: its kind ("alternating", "jacobi", "partition"
    or "closure"), the basis names where it fails and a description."""

    __slots__ = __match_args__ = ("kind", "where", "detail")

    def __init__(self, kind: str, where: tuple[str, ...], detail: str):
        super().__init__(kind, where, detail)

    def __str__(self):
        return f"{self.kind} violation at ({', '.join(self.where)}): {self.detail}"


class ValidationReport(_Record):
    """The violations a validation found, in its fixed order; none: ok."""

    __slots__ = __match_args__ = ("violations",)

    def __init__(self, violations: tuple[Violation, ...]):
        super().__init__(violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        return [str(v) for v in self.violations]

    def __str__(self):
        return "ok" if self.ok else "\n".join(self.lines())


def _acc(d: dict, key, c, q=None) -> None:
    """Accumulate coefficient c onto d[key], dropping the key when it cancels.

    c is a scalar, or a raw ring value (a ``Scalar``'s ``value``); with a
    modulus q the raw sum is reduced into [0, q) first.  A zero sum is
    never stored."""
    prev = d.get(key)
    s = c if prev is None else prev + c
    if q is not None:
        s %= q
    if s:
        d[key] = s
    elif prev is not None:
        del d[key]


def _read_source(memo: dict, source: dict, key, q) -> dict | None:
    """The source's entry under key, a raw {k: c} dict, stored in memo
    under key and returned: the entry itself, shared, where reduction mod q
    changes nothing (no modulus, no term, or every c in [1, q)), since every
    memo entry is read-only to its callers; else a fresh dict of each c
    reduced into [0, q), zeros dropped.  None, and nothing stored, if the
    source lacks key.  The read rule is ``LieAlgebra.change_ring``'s."""
    entry = source.get(key)
    if entry is None:
        return None
    if q is not None:
        reduced = {}
        for k, c in entry.items():
            c %= q
            if c:
                reduced[k] = c
        if reduced != entry:
            entry = reduced
    memo[key] = entry
    return entry


def _cleared(ring: Ring, *parts) -> tuple:
    """parts, each a raw {key: c} dict or a list of raw (key, c) pairs,
    with every c multiplied by the least common denominator of all of
    them, so that each is an int: a verdict linear in each argument holds
    on the scaled arguments exactly when it holds on the given ones.  Over
    Z and Z/q, and whenever no c is a Fraction, parts as given, uncopied."""
    if ring.kind != "Q":
        return parts
    den = 1
    for part in parts:
        for c in part.values() if type(part) is dict else [c for _k, c in part]:
            if type(c) is not int:
                den = lcm(den, c.denominator)
    if den == 1:
        return parts

    def scaled(c):
        return c * den if type(c) is int else c.numerator * (den // c.denominator)

    return tuple({k: scaled(c) for k, c in part.items()} if type(part) is dict
                 else [(k, scaled(c)) for k, c in part] for part in parts)


def _negated(pairs, q=None) -> tuple:
    """The (k, -c) pairs of raw (k, c) pairs, reduced into [0, q) with a
    modulus q, as a tuple."""
    if q is None:
        return tuple([(k, -c) for k, c in pairs])
    return tuple([(k, -c % q) for k, c in pairs])


def _check_indices(indices, n: int, what: str) -> None:
    """The one out-of-basis rule: ValueError at the first value that is not
    an int in 0..n-1 (a bool is not an int here)."""
    for i in indices:
        if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < n:
            raise ValueError(f"{what} {i!r} outside basis")


def _check_carrier(got, carrier, what: str) -> None:
    """The one carrier rule: CarrierMismatchError("<what> over a different
    <kind>") unless got is carrier, kind being "split" when carrier is a
    SplitDecomposition and "algebra" otherwise; what names the operand."""
    if got is not carrier:
        kind = "split" if isinstance(carrier, SplitDecomposition) else "algebra"
        raise CarrierMismatchError(f"{what} over a different {kind}")


def _listed_twice(part) -> list:
    """The indices ``part`` lists more than once, in sorted order."""
    return sorted({i for i in part if part.count(i) > 1})


def _index_of(index: dict, name: str) -> int:
    try:
        return index[name]
    except KeyError:
        raise ValueError(f"unknown basis name {name!r}") from None


class _Combination:
    """Finite {key: nonzero scalar} combination over a fixed carrier: the
    constructors and the linear arithmetic shared by :class:`GVector` and the
    envelope's element types.

    A public constructor checks every key with the out-of-basis rule, then
    hands its terms to ``_fill``, which coerces each coefficient into the
    ring, drops the zeros and stores the algebra.  Results whose keys are
    valid by construction -- arithmetic results (``_like``), brackets,
    projections, the words of checked elements, the straightener's and the
    kernel's -- are built by ``_trusted``, which runs ``_fill`` alone.
    :class:`StateElement`'s ``_fill`` runs its part check, on trusted states
    too, stores its split and then boxes through this one."""

    __slots__ = ("algebra", "terms")
    _what = ""  # the noun of a carrier mismatch, see _check_carrier

    @classmethod
    def _trusted(cls, carrier, terms=None):
        new = cls.__new__(cls)
        new._fill(carrier, terms)
        return new

    def _fill(self, algebra: LieAlgebra, terms) -> None:
        scalar = algebra.ring.scalar
        clean = {}
        if terms:
            for key, c in terms.items():
                c = scalar(c)
                if c:
                    clean[key] = c
        self.algebra = algebra
        self.terms = clean

    def _carrier(self):
        return self.algebra

    @classmethod
    def zero(cls, carrier):
        return cls(carrier)

    def _like(self, terms=None):
        """A combination over the same carrier, from keys valid by construction."""
        return self._trusted(self._carrier(), terms)

    def _check(self, other) -> None:
        _check_carrier(other._carrier(), self._carrier(), self._what)

    def _combine(self, other, negate: bool):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            _acc(out, key, -c if negate else c)
        return self._like(out)

    def __add__(self, other):
        return self._combine(other, False)

    def __sub__(self, other):
        return self._combine(other, True)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scale(self, coeff):
        c = self.algebra.ring.scalar(coeff)
        if not c:
            return self._like()
        return self._like({k: c * v for k, v in self.terms.items()})

    def __rmul__(self, coeff):
        return self.scale(coeff)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        return f"{type(self).__name__}<{self}>"


class LieAlgebra:
    """Finite free basis plus the structure constants of [e_i, e_j].

    ``table[i][j]`` lists the (k, c) pairs of [e_i, e_j] = sum c e_k, each
    c a raw ring value (a ``Scalar``'s ``value``), never a ``Scalar``.  The
    constructor takes any iterable of pairs per cell, turns each c into that
    value (:meth:`Ring.coerce`) and sums repeated k; it stores the pairs
    with c != 0, in increasing k.  Every k of the table is judged by the
    out-of-basis rule before any c is read.  Nothing is assumed about the
    table until :func:`validate_algebra` says the Lie axioms hold.

    The constructor, :meth:`from_brackets` and :meth:`change_ring` take
    that path.  Only ``cli.AlgebraSpec.build``, on a spec ``parse_spec``
    made, trusts its table: it hands ``_trusted`` a tuple table already in
    the stored form, which is kept as it is.  Both end in ``_fill``, the one
    place the fields and memos are set.
    """

    __slots__ = ("ring", "basis", "index", "table", "dim", "_forms", "_kernels", "_lie_rows",
                 "_source", "__weakref__")

    def __init__(self, ring: Ring, basis_names, table):
        basis = tuple(basis_names)
        n = len(basis)
        if n < 1:
            raise ValueError("basis must contain at least one element")
        if len(set(basis)) != n:
            raise ValueError("duplicate basis name")
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError("structure table must be n x n")
        cells = [[tuple(cell) for cell in row] for row in table]
        _check_indices([k for row in cells for cell in row for k, _c in cell], n, "index")
        coerce = ring.coerce
        rows = []
        for row in cells:
            out = []
            for cell in row:  # a cell of 0 or 1 pair needs no dict and no sort
                if not cell:
                    out.append(())
                elif len(cell) == 1:
                    ((k, c),) = cell
                    c = coerce(c)
                    out.append(((k, c),) if c else ())
                else:
                    acc: dict = {}
                    for k, c in cell:
                        c = coerce(c)
                        if k in acc:  # a repeated k: the sum, raw again
                            c = coerce(acc.pop(k) + c)
                        if c:
                            acc[k] = c
                    out.append(tuple(sorted(acc.items())))
            rows.append(tuple(out))
        self._fill(ring, basis, tuple(rows))

    @classmethod
    def _trusted(cls, ring: Ring, basis: tuple, table: tuple) -> "LieAlgebra":
        """The algebra over a table already in the constructor's stored
        form: a tuple of n row tuples of cell tuples, every (k, c) pair's k
        in the basis, c a nonzero raw value of ``ring``, k increasing; the
        basis a tuple of n >= 1 distinct names.  Nothing is checked."""
        new = cls.__new__(cls)
        new._fill(ring, basis, table)
        return new

    def _fill(self, ring: Ring, basis: tuple, table: tuple) -> None:
        self.ring = ring
        self.basis = basis
        self.dim = len(basis)
        self.index = {name: i for i, name in enumerate(basis)}
        self.table = table
        # the private state, every memo freed with the algebra: one
        # straightener per order, which owns its memo and its rewrite counts
        # (envelope._straightener), and the action kernel and the Lie-action
        # rows of each split's parts, which every context over the algebra
        # and those parts shares (normalform.ActionContext)
        self._forms: dict = {}  # rank -> form
        self._kernels: dict = {}  # parts -> {(basis index, left word): entry}
        self._lie_rows: dict = {}  # parts -> {left word: defect row}
        self._source = None  # the integral algebra a change_ring copy reads, see there

    @classmethod
    def from_brackets(cls, ring: Ring, basis_names, brackets) -> "LieAlgebra":
        """Build from sparse bracket data keyed by name pairs.

        ``brackets`` maps (a, b) to a {name: coefficient} combination.  The
        reversed orientation is filled in as the negation when absent; if
        both orientations are given they must negate exactly.
        """
        basis = tuple(basis_names)
        index = {name: i for i, name in enumerate(basis)}
        n = len(basis)
        coerce, q = ring.coerce, ring.modulus
        table = [[{} for _ in range(n)] for _ in range(n)]
        given = set()
        for (a, b), combo in brackets.items():
            i, j = _index_of(index, a), _index_of(index, b)
            cell: dict = {}
            for name, coeff in combo.items():
                _acc(cell, _index_of(index, name), coerce(coeff), q)
            if (j, i) in given and i != j:
                if cell != dict(_negated(table[j][i].items(), q)):
                    raise ValueError(f"brackets for ({a},{b}) and ({b},{a}) do not negate")
            given.add((i, j))
            table[i][j] = cell
            if i != j and (j, i) not in given:
                table[j][i] = dict(_negated(cell.items(), q))
        return cls(ring, basis, [[cell.items() for cell in row] for row in table])

    def basis_vector(self, i: int) -> "GVector":
        _check_indices((i,), self.dim, "index")
        return GVector._trusted(self, {i: self.ring.one})

    def vector(self, coords) -> "GVector":
        """GVector from a full coordinate sequence or a sparse {index|name: coeff}
        map, which may not give one basis element both by name and by index."""
        if not isinstance(coords, dict):
            return GVector(self, coords)
        keys = [_index_of(self.index, k) if isinstance(k, str) else k for k in coords]
        _check_indices(keys, self.dim, "index")
        if len(set(keys)) < len(keys):
            twice = next(i for i in keys if keys.count(i) > 1)
            raise ValueError(f"basis element {self.basis[twice]} given twice")
        return GVector._trusted(self, dict(zip(keys, coords.values())))

    def bracket(self, v: "GVector", w: "GVector") -> "GVector":
        """Bilinear extension of the structure table."""
        _check_carrier(v.algebra, self, "vector")
        _check_carrier(w.algebra, self, "vector")
        q = self.ring.modulus
        out: dict = {}
        for i, a in v.terms.items():
            a = a.value
            row = self.table[i]
            for j, b in w.terms.items():
                ab = a * b.value
                for k, c in row[j]:
                    _acc(out, k, ab * c, q)
        return GVector._trusted(self, out)

    def change_ring(self, ring: Ring) -> "LieAlgebra":
        """Same basis and table with coefficients reinterpreted in ``ring``.

        Only defined from Z (integral tables), e.g. reduction mod q.

        The copy records the integral algebra it reduces, its source: this
        one, or this one's own source if it is a copy itself.  On every
        miss, the copy's kernel, Lie rows and straighteners first read the
        source's entry for the same key (the same order, the same split
        parts), reduced into [0, q) with zeros dropped, through
        :func:`_read_source`; a straightener reads the memo of the source's
        straightener for its order, built with it if the source has none
        yet.  An entry the source lacks is computed in the copy's own
        ring.  This is exact on every table, failing ones too:
        each entry is a Z-linear function of the table, computed along a
        word path that no coefficient changes, and reduction mod q is a
        ring homomorphism, under which a cell that reduces to zero only
        drops terms whose reduced coefficient is 0 anyway.  The copy keeps
        its source alive.
        """
        if self.ring.kind != "Z":
            raise ValueError("change_ring expects an integral table")
        copy = LieAlgebra(ring, self.basis, self.table)
        copy._source = self if self._source is None else self._source
        return copy

    def __repr__(self):
        return f"LieAlgebra({self.ring.descriptor()}, basis={'/'.join(self.basis)})"


class GVector(_Combination):
    """Element of the algebra as a sparse {basis index: nonzero scalar} map.

    Built from a full coordinate sequence or an {index: coefficient} map;
    the linear arithmetic is the shared combination base's."""

    __slots__ = ()
    _what = "vector"

    def __init__(self, algebra: LieAlgebra, coords=None):
        if isinstance(coords, dict):
            _check_indices(coords, algebra.dim, "index")
        elif coords is not None:
            if len(coords) != algebra.dim:
                raise ValueError("coordinate vector has the wrong length")
            coords = dict(enumerate(coords))
        self._fill(algebra, coords)

    def sorted_terms(self):
        """Pairs (index, coefficient) of the nonzero coordinates, in index order."""
        return sorted(self.terms.items())

    support = sorted_terms

    def __str__(self):
        names = self.algebra.basis
        bits = [f"{c}*{names[i]}" for i, c in self.support()]
        return " + ".join(bits) if bits else "0"


class SplitDecomposition:
    """Two-block partition of the basis; projectors are coordinate masks."""

    __slots__ = ("algebra", "part1", "part2", "part1_set", "part2_set")

    def __init__(self, algebra: LieAlgebra, part1, part2):
        part1, part2 = tuple(part1), tuple(part2)
        n = algebra.dim
        _check_indices(part1 + part2, n, "index")
        for which, part in ((1, part1), (2, part2)):
            twice = _listed_twice(part)
            if twice:
                raise ValueError(f"index {twice[0]} listed twice in part {which}")
        p1 = tuple(sorted(set(part1)))
        p2 = tuple(sorted(set(part2)))
        if sorted(p1 + p2) != list(range(n)):
            raise ValueError("parts must partition the basis index set")
        self.algebra = algebra
        self.part1 = p1
        self.part2 = p2
        self.part1_set = frozenset(p1)
        self.part2_set = frozenset(p2)

    def side_of(self, i: int) -> int:
        """1 or 2, the part holding basis index i."""
        _check_indices((i,), self.algebra.dim, "index")
        return 1 if i in self.part1_set else 2

    def split_order(self) -> tuple[int, ...]:
        """Total order putting every part-1 index before every part-2 index,
        declaration order inside each part."""
        return self.part1 + self.part2

    def project(self, which: int, v: GVector) -> GVector:
        """Zero all coordinates outside part ``which`` (1 or 2)."""
        if isinstance(which, bool) or not isinstance(which, int) or which not in (1, 2):
            raise ValueError(f"split part must be 1 or 2, not {which!r}")
        _check_carrier(v.algebra, self.algebra, "vector")
        part = self.part1_set if which == 1 else self.part2_set
        return GVector._trusted(self.algebra, {i: c for i, c in v.terms.items() if i in part})

    def __str__(self):
        names = self.algebra.basis
        left = " ".join(names[i] for i in self.part1)
        right = " ".join(names[i] for i in self.part2)
        return f"{left} | {right}"

    def __repr__(self):
        return f"SplitDecomposition({self})"


def validate(algebra: LieAlgebra, split: SplitDecomposition) -> ValidationReport:
    """The one validation entry point: the algebra's violations (alternating,
    Jacobi), then the split's closure violations, in one report."""
    _check_carrier(split.algebra, algebra, "split")
    return ValidationReport(
        validate_algebra(algebra).violations
        + validate_split(algebra, split.part1, split.part2).violations
    )


def validate_algebra(alg: LieAlgebra) -> ValidationReport:
    """Exhaustive alternating + Jacobi check; empty report means usable.

    The violations come in a fixed order: the diagonal cells, the pairs
    i < j whose cells do not negate, then every ordered triple (i, j, k),
    in lexicographic order, whose cyclic sum J(i, j, k) is not zero.

    When the table is alternating ([e_i,e_i] = 0 and [e_j,e_i] = -[e_i,e_j]
    cell by cell), J is totally antisymmetric, exactly, over every ring:
    it is invariant under the cyclic shift by definition, and the bracket
    read off the table is bilinear, so [[e_j,e_i],e_k] = -[[e_i,e_j],e_k]
    and [[e_i,e_k],e_j] = -[[e_k,e_i],e_j] give J(j, i, k) = -J(i, j, k).
    A repeated index gives J(i, i, k) = [[e_i,e_k],e_i] + [[e_k,e_i],e_i]
    = 0.  So J is evaluated once per i < j < k, and a nonzero sum stands
    for its six orderings, the odd permutations with the negated sum.  A
    table that is not alternating has no such symmetry, and every ordered
    triple is judged on its own.
    """
    names = alg.basis
    n = alg.dim
    table = alg.table
    q = alg.ring.modulus
    found: list[Violation] = []
    for i in range(n):
        if table[i][i]:
            found.append(
                Violation("alternating", (names[i], names[i]),
                          f"[{names[i]},{names[i]}] = {GVector(alg, dict(table[i][i]))}, "
                          "expected 0")
            )
    for i in range(n):
        for j in range(i + 1, n):
            if table[i][j] != _negated(table[j][i], q):
                found.append(
                    Violation("alternating", (names[i], names[j]),
                              f"[{names[i]},{names[j]}] != -[{names[j]},{names[i]}]")
                )
    # every ordered triple for a table that is not alternating, else i < j < k
    triples = (itertools.product(range(n), repeat=3) if found
               else itertools.combinations(range(n), 3))
    sums: dict = {}  # ordered triple -> its nonzero cyclic sum
    for i, j, k in triples:
        total: dict = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, x in table[a][b]:
                for p, y in table[m][c]:
                    _acc(total, p, x * y, q)
        if not total:
            continue
        sums[i, j, k] = total
        if not found:
            neg = dict(_negated(total.items(), q))
            sums.update({(j, k, i): total, (k, i, j): total,
                         (j, i, k): neg, (i, k, j): neg, (k, j, i): neg})
    for i, j, k in sorted(sums):
        found.append(
            Violation("jacobi", (names[i], names[j], names[k]),
                      f"cyclic bracket sum = {GVector(alg, sums[i, j, k])}, expected 0")
        )
    return ValidationReport(tuple(found))


def validate_split(alg: LieAlgebra, part1, part2) -> ValidationReport:
    """Partition + bracket-closure check for a candidate two-block split."""
    names = alg.basis
    n = alg.dim
    part1, part2 = tuple(part1), tuple(part2)
    for i in part1 + part2:
        try:
            _check_indices((i,), n, "index")
        except ValueError as exc:
            return ValidationReport((Violation("partition", (repr(i),), str(exc)),))
    found = [Violation("partition", (names[i],), f"listed twice in part {which}")
             for which, part in ((1, part1), (2, part2)) for i in _listed_twice(part)]
    p1 = tuple(sorted(set(part1)))
    p2 = tuple(sorted(set(part2)))
    both = set(p1) & set(p2)
    for i in sorted(both):
        found.append(Violation("partition", (names[i],), "assigned to both parts"))
    missing = set(range(n)) - set(p1) - set(p2)
    for i in sorted(missing):
        found.append(Violation("partition", (names[i],), "assigned to neither part"))
    if found:
        return ValidationReport(tuple(found))
    for which, part in ((1, p1), (2, p2)):
        members = set(part)
        for i in part:
            for j in part:
                for k, c in alg.table[i][j]:
                    if k not in members:
                        found.append(
                            Violation(
                                "closure", (names[i], names[j]),
                                f"[{names[i]},{names[j]}] has component "
                                f"{alg.ring.scalar(c)}*{names[k]} "
                                f"outside part {which}",
                            )
                        )
    return ValidationReport(tuple(found))
