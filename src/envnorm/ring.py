"""Exact commutative coefficient rings: Z, Z/qZ (any q >= 2) and Q.

Every scalar carries a canonical representative -- arbitrary-precision
integers, residues in [0, q), reduced fractions with positive denominator --
so equality is plain structural equality and stays decidable everywhere
downstream.  Composite moduli are supported on purpose: zero divisors are
part of the intended test surface.
"""

from __future__ import annotations

from fractions import Fraction

_KINDS = ("Z", "Q", "Zmod")


class RingMismatchError(ValueError):
    """Two scalars from different rings were combined."""


class Scalar:
    """A canonical element of a :class:`Ring`.  Immutable value object."""

    __slots__ = ("ring", "value")

    def __init__(self, ring: "Ring", value):
        # ``value`` must already be canonical; go through Ring.scalar() for raw input.
        self.ring = ring
        self.value = value

    def _check(self, other: "Scalar") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError(
                f"cannot combine scalars from {self.ring} and {other.ring}"
            )

    def __add__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        self._check(other)
        v = self.value + other.value
        if self.ring.kind == "Zmod":
            v %= self.ring.modulus
        return Scalar(self.ring, v)

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        self._check(other)
        v = self.value - other.value
        if self.ring.kind == "Zmod":
            v %= self.ring.modulus
        return Scalar(self.ring, v)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        self._check(other)
        v = self.value * other.value
        if self.ring.kind == "Zmod":
            v %= self.ring.modulus
        return Scalar(self.ring, v)

    def __neg__(self):
        v = -self.value
        if self.ring.kind == "Zmod":
            v %= self.ring.modulus
        return Scalar(self.ring, v)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        self._check(other)
        return self.value == other.value

    def __hash__(self):
        return hash((self.ring.kind, self.ring.modulus, self.value))

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        # Z: signed decimal; Zmod: least nonnegative residue; Q: "a/b" or "a".
        return str(self.value)

    def __repr__(self):
        return f"Scalar({self}, {self.ring.descriptor()})"


class Ring:
    """One of Z, Q or Z/qZ with q >= 2 (composite moduli allowed)."""

    __slots__ = ("kind", "modulus", "zero", "one")

    def __init__(self, kind: str, modulus: int | None = None):
        if kind not in _KINDS:
            raise ValueError(f"unknown ring kind {kind!r}")
        if kind == "Zmod":
            if not isinstance(modulus, int) or isinstance(modulus, bool) or modulus < 2:
                raise ValueError("modulus must be an integer >= 2")
        elif modulus is not None:
            raise ValueError(f"ring {kind} takes no modulus")
        self.kind = kind
        self.modulus = modulus
        self.zero = Scalar(self, self.normalize(0))
        self.one = Scalar(self, self.normalize(1))

    def normalize(self, raw):
        """Canonical internal value for ``raw`` (int or Fraction)."""
        if isinstance(raw, Fraction):
            if self.kind == "Q":
                return raw
            if raw.denominator != 1:
                raise ValueError(f"{raw} is not an element of {self.descriptor()}")
            raw = raw.numerator
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise ValueError(f"cannot interpret {raw!r} in {self.descriptor()}")
        if self.kind == "Z":
            return raw
        if self.kind == "Zmod":
            return raw % self.modulus
        return Fraction(raw)

    def scalar(self, raw) -> Scalar:
        """Canonical scalar from a raw int/Fraction (or a scalar of this ring)."""
        if isinstance(raw, Scalar):
            if raw.ring is not self and raw.ring != self:
                raise RingMismatchError(f"scalar from {raw.ring} used in {self}")
            return raw
        return Scalar(self, self.normalize(raw))

    def descriptor(self) -> str:
        if self.kind == "Zmod":
            return f"Zmod {self.modulus}"
        return self.kind

    def __eq__(self, other):
        if not isinstance(other, Ring):
            return NotImplemented
        return self.kind == other.kind and self.modulus == other.modulus

    def __hash__(self):
        return hash((self.kind, self.modulus))

    def __str__(self):
        return self.descriptor()

    def __repr__(self):
        return f"Ring({self.descriptor()!r})"


def make_ring(descriptor: str) -> Ring:
    """Parse a ring descriptor: ``"Z"``, ``"Q"`` or ``"Zmod q"`` with q >= 2."""
    parts = descriptor.split()
    if parts == ["Z"]:
        return Ring("Z")
    if parts == ["Q"]:
        return Ring("Q")
    if len(parts) == 2 and parts[0] == "Zmod":
        try:
            q = int(parts[1])
        except ValueError:
            raise ValueError(f"malformed ring descriptor {descriptor!r}") from None
        return Ring("Zmod", q)
    raise ValueError(f"malformed ring descriptor {descriptor!r}")
