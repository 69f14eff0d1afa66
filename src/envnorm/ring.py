"""Exact commutative coefficient rings: Z, Z/qZ (any q >= 2) and Q.

Every scalar carries a canonical representative -- arbitrary-precision
integers, residues in [0, q), reduced fractions with positive denominator --
so equality is plain structural equality and stays decidable everywhere
downstream.  Composite moduli are supported on purpose: zero divisors are
part of the intended test surface.

``Scalar`` is the element-level type: the coefficients of vectors, envelope
elements, states and structure tables.  The straightening and action layers
compute on raw values instead (:meth:`Ring.raw`): an ``int`` for Z, an
``int`` in [0, q) for Z/q, and for Q an ``int`` when integral, else a
``Fraction`` (an integral ``Fraction`` that arithmetic leaves behind compares
and hashes as its ``int``).  Over Z and Z/q their memos then hold no
GC-tracked coefficient, and ``Ring.scalar`` turns a raw value back into a
scalar where an element is built.
"""

from __future__ import annotations

from fractions import Fraction

_KINDS = ("Z", "Q", "Zmod")
# Decimal digits per int <-> str step.  CPython refuses conversions of more
# than sys.get_int_max_str_digits() digits (4300 by default, never below 640),
# so steps of this size always convert and no process-wide limit is touched.
_CHUNK = 500
_BASE = 10**_CHUNK


def read_int(digits: str) -> int:
    """The int written by a nonempty string of decimal digits, at any length."""
    head = len(digits) % _CHUNK or _CHUNK
    value = int(digits[:head])
    for start in range(head, len(digits), _CHUNK):
        value = value * _BASE + int(digits[start:start + _CHUNK])
    return value


def render_int(v: int) -> str:
    """``str(v)`` for an int of any size."""
    if -_BASE < v < _BASE:
        return str(v)
    sign, v = ("-", -v) if v < 0 else ("", v)
    chunks = []  # base-10**_CHUNK digits, least significant first
    while v >= _BASE:
        v, low = divmod(v, _BASE)
        chunks.append(str(low).zfill(_CHUNK))
    chunks.append(str(v))
    return sign + "".join(reversed(chunks))


class RingMismatchError(ValueError):
    """Two scalars from different rings were combined."""


class Scalar:
    """A canonical element of a :class:`Ring`.  Immutable value object."""

    __slots__ = ("ring", "value")

    def __init__(self, ring: "Ring", value):
        # Built from a canonical value by Ring.scalar (raw input) or Ring._make (arithmetic).
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
        ring = self.ring
        if other.ring is not ring:
            self._check(other)
        return ring._make(self.value + other.value)

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        ring = self.ring
        if other.ring is not ring:
            self._check(other)
        return ring._make(self.value - other.value)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        ring = self.ring
        if other.ring is not ring:
            self._check(other)
        return ring._make(self.value * other.value)

    def __neg__(self):
        return self.ring._make(-self.value)

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
        v = self.value
        if type(v) is int:
            return render_int(v)
        text = render_int(v.numerator)
        return text if v.denominator == 1 else f"{text}/{render_int(v.denominator)}"

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
        self.zero = self.scalar(0)
        self.one = self.scalar(1)

    def _make(self, v) -> Scalar:
        """The scalar of an arithmetic result ``v``, canonical but for the
        reduction mod q done here."""
        if self.modulus is not None:
            v %= self.modulus
        return Scalar(self, v)

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

    def raw(self, s: Scalar):
        """The raw value of this ring's scalar ``s``: an int, in [0, q) over
        Z/q; over Q an int when ``s`` is integral, else a reduced Fraction.
        :meth:`scalar` turns it back into ``s``."""
        v = s.value
        if type(v) is int or v.denominator != 1:
            return v
        return v.numerator

    def descriptor(self) -> str:
        if self.kind == "Zmod":
            return f"Zmod {render_int(self.modulus)}"
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
    """Parse a ring descriptor: ``"Z"``, ``"Q"`` or ``"Zmod q"``, q >= 2 in decimal digits."""
    parts = descriptor.split()
    if parts == ["Z"]:
        return Ring("Z")
    if parts == ["Q"]:
        return Ring("Q")
    if len(parts) == 2 and parts[0] == "Zmod" and parts[1].isdecimal():
        return Ring("Zmod", read_int(parts[1]))
    raise ValueError(f"malformed ring descriptor {descriptor!r}")
