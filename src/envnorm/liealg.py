"""Lie algebras presented by a finite basis and a structure-constant table,
with exhaustive validation (alternating + Jacobi), bracket computation, and
two-block split decompositions whose projectors are coordinate masks.

Splits are partitions of the basis index set, so embed(project(v, 1)) +
embed(project(v, 2)) = v holds by construction; what actually needs checking
is that each part is closed under the bracket.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ring import Ring


class CarrierMismatchError(ValueError):
    """Operands live over different algebras or splits."""


@dataclass(frozen=True)
class Violation:
    kind: str  # "alternating" | "jacobi" | "partition" | "closure"
    where: tuple[str, ...]
    detail: str

    def __str__(self):
        return f"{self.kind} violation at ({', '.join(self.where)}): {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        return [str(v) for v in self.violations]

    def __str__(self):
        return "ok" if self.ok else "\n".join(self.lines())


class LieAlgebra:
    """Finite free basis plus the table c[i][j] = coordinates of [e_i, e_j].

    The table is stored fully (n x n x n scalars); nothing is assumed about
    it until :func:`validate_algebra` says the Lie axioms hold.
    """

    __slots__ = ("ring", "basis", "index", "table", "dim", "_basis_vectors",
                 "_straighten_memo", "__weakref__")

    def __init__(self, ring: Ring, basis_names, table):
        basis = tuple(basis_names)
        n = len(basis)
        if n < 1:
            raise ValueError("basis must contain at least one element")
        if len(set(basis)) != n:
            raise ValueError("duplicate basis name")
        self.ring = ring
        self.basis = basis
        self.dim = n
        self.index = {name: i for i, name in enumerate(basis)}
        if len(table) != n:
            raise ValueError("structure table must be n x n x n")
        rows = []
        for row in table:
            if len(row) != n:
                raise ValueError("structure table must be n x n x n")
            cells = []
            for cell in row:
                if len(cell) != n:
                    raise ValueError("structure table must be n x n x n")
                cells.append(tuple(ring.scalar(c) for c in cell))
            rows.append(tuple(cells))
        self.table = tuple(rows)
        unit = [ring.zero] * n
        vecs = []
        for i in range(n):
            coords = list(unit)
            coords[i] = ring.one
            vecs.append(GVector(self, coords))
        self._basis_vectors = tuple(vecs)
        self._straighten_memo: dict = {}  # envelope._straighten_word: (rank, word) -> form

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
        zero = ring.zero
        table = [[[zero] * n for _ in range(n)] for _ in range(n)]
        seen = {}
        for (a, b), combo in brackets.items():
            i, j = index[a], index[b]
            coords = [zero] * n
            for name, coeff in combo.items():
                coords[index[name]] = ring.scalar(coeff)
            if (j, i) in seen and i != j:
                expected = [-c for c in seen[(j, i)]]
                if coords != expected:
                    raise ValueError(f"brackets for ({a},{b}) and ({b},{a}) do not negate")
            seen[(i, j)] = coords
            table[i][j] = coords
            if i != j and (j, i) not in seen:
                table[j][i] = [-c for c in coords]
        return cls(ring, basis, table)

    def basis_vector(self, i: int) -> "GVector":
        return self._basis_vectors[i]

    def vector(self, coords) -> "GVector":
        """GVector from a full coordinate sequence or a sparse {index|name: coeff} map."""
        if isinstance(coords, dict):
            full = [self.ring.zero] * self.dim
            for key, val in coords.items():
                full[self.index[key] if isinstance(key, str) else key] = val
            coords = full
        return GVector(self, coords)

    def bracket(self, v: "GVector", w: "GVector") -> "GVector":
        """Bilinear extension of the structure table."""
        if v.algebra is not self or w.algebra is not self:
            raise CarrierMismatchError("bracket operands from a different algebra")
        out = [self.ring.zero] * self.dim
        for i, a in enumerate(v.coords):
            if not a:
                continue
            row = self.table[i]
            for j, b in enumerate(w.coords):
                if not b:
                    continue
                ab = a * b
                if not ab:
                    continue
                for k, c in enumerate(row[j]):
                    if c:
                        out[k] = out[k] + ab * c
        return GVector(self, out)

    def change_ring(self, ring: Ring) -> "LieAlgebra":
        """Same basis and table with coefficients reinterpreted in ``ring``.

        Only defined from Z (integral tables), e.g. reduction mod q.
        """
        if self.ring.kind != "Z":
            raise ValueError("change_ring expects an integral table")
        table = [
            [[cell.value for cell in row_cell] for row_cell in row]
            for row in self.table
        ]
        return LieAlgebra(ring, self.basis, table)

    def __repr__(self):
        return f"LieAlgebra({self.ring.descriptor()}, basis={'/'.join(self.basis)})"


class GVector:
    """Element of the algebra as a coordinate vector over the basis."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: LieAlgebra, coords):
        if len(coords) != algebra.dim:
            raise ValueError("coordinate vector has the wrong length")
        self.algebra = algebra
        self.coords = tuple(map(algebra.ring.scalar, coords))

    def _check(self, other: "GVector") -> None:
        if self.algebra is not other.algebra:
            raise CarrierMismatchError("vectors from different algebras")

    def __add__(self, other):
        self._check(other)
        return GVector(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return GVector(self.algebra, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return GVector(self.algebra, tuple(-a for a in self.coords))

    def scale(self, coeff) -> "GVector":
        c = self.algebra.ring.scalar(coeff)
        return GVector(self.algebra, tuple(c * a for a in self.coords))

    def bracket(self, other: "GVector") -> "GVector":
        return self.algebra.bracket(self, other)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def support(self):
        """Pairs (index, coefficient) of the nonzero coordinates."""
        for i, c in enumerate(self.coords):
            if c:
                yield i, c

    def __eq__(self, other):
        if not isinstance(other, GVector):
            return NotImplemented
        self._check(other)
        return self.coords == other.coords

    def __str__(self):
        names = self.algebra.basis
        bits = [f"{c}*{names[i]}" for i, c in self.support()]
        return " + ".join(bits) if bits else "0"

    def __repr__(self):
        return f"GVector({self})"


class SplitDecomposition:
    """Two-block partition of the basis; projectors are coordinate masks."""

    __slots__ = ("algebra", "part1", "part2", "_side")

    def __init__(self, algebra: LieAlgebra, part1, part2):
        p1 = tuple(sorted(set(part1)))
        p2 = tuple(sorted(set(part2)))
        n = algebra.dim
        if sorted(p1 + p2) != list(range(n)):
            raise ValueError("parts must partition the basis index set")
        self.algebra = algebra
        self.part1 = p1
        self.part2 = p2
        side = [0] * n
        for i in p1:
            side[i] = 1
        for i in p2:
            side[i] = 2
        self._side = tuple(side)

    def side_of(self, i: int) -> int:
        return self._side[i]

    def split_order(self) -> tuple[int, ...]:
        """Total order putting every part-1 index before every part-2 index,
        declaration order inside each part."""
        return self.part1 + self.part2

    def project(self, which: int, v: GVector) -> GVector:
        """Zero all coordinates outside part ``which``."""
        if v.algebra is not self.algebra:
            raise CarrierMismatchError("vector from a different algebra")
        zero = self.algebra.ring.zero
        coords = tuple(
            c if self._side[i] == which else zero for i, c in enumerate(v.coords)
        )
        return GVector(self.algebra, coords)

    def __str__(self):
        names = self.algebra.basis
        left = " ".join(names[i] for i in self.part1)
        right = " ".join(names[i] for i in self.part2)
        return f"{left} | {right}"

    def __repr__(self):
        return f"SplitDecomposition({self})"


def validate(algebra: LieAlgebra, split: SplitDecomposition) -> ValidationReport:
    """The one validation entry point: the algebra's violations (alternating,
    Jacobi), then the split's (partition, closure), in one report."""
    if split.algebra is not algebra:
        raise CarrierMismatchError("split belongs to a different algebra")
    return ValidationReport(
        validate_algebra(algebra).violations
        + validate_split(algebra, split.part1, split.part2).violations
    )


def validate_algebra(alg: LieAlgebra) -> ValidationReport:
    """Exhaustive alternating + Jacobi check; empty report means usable."""
    names = alg.basis
    n = alg.dim
    found: list[Violation] = []
    for i in range(n):
        if any(alg.table[i][i]):
            vec = GVector(alg, alg.table[i][i])
            found.append(
                Violation("alternating", (names[i], names[i]),
                          f"[{names[i]},{names[i]}] = {vec}, expected 0")
            )
    for i in range(n):
        for j in range(i + 1, n):
            s = tuple(a + b for a, b in zip(alg.table[i][j], alg.table[j][i]))
            if any(s):
                found.append(
                    Violation("alternating", (names[i], names[j]),
                              f"[{names[i]},{names[j]}] != -[{names[j]},{names[i]}]")
                )
    bv = alg.basis_vector
    for i in range(n):
        for j in range(n):
            for k in range(n):
                total = (
                    alg.bracket(alg.bracket(bv(i), bv(j)), bv(k))
                    + alg.bracket(alg.bracket(bv(j), bv(k)), bv(i))
                    + alg.bracket(alg.bracket(bv(k), bv(i)), bv(j))
                )
                if not total.is_zero():
                    found.append(
                        Violation("jacobi", (names[i], names[j], names[k]),
                                  f"cyclic bracket sum = {total}, expected 0")
                    )
    return ValidationReport(tuple(found))


def validate_split(alg: LieAlgebra, part1, part2) -> ValidationReport:
    """Partition + bracket-closure check for a candidate two-block split."""
    names = alg.basis
    n = alg.dim
    found: list[Violation] = []
    p1 = tuple(sorted(set(part1)))
    p2 = tuple(sorted(set(part2)))
    for i in p1 + p2:
        if not (0 <= i < n):
            found.append(Violation("partition", (str(i),), "index out of range"))
            return ValidationReport(tuple(found))
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
                for k, c in enumerate(alg.table[i][j]):
                    if c and k not in members:
                        found.append(
                            Violation(
                                "closure", (names[i], names[j]),
                                f"[{names[i]},{names[j]}] has component {c}*{names[k]} "
                                f"outside part {which}",
                            )
                        )
    return ValidationReport(tuple(found))
