"""Exact commutative coefficient rings: Z, Z/qZ (any q >= 2) and Q.

Every scalar carries a canonical representative -- arbitrary-precision
integers, residues in [0, q), reduced fractions with positive denominator --
so equality is plain structural equality and stays decidable everywhere
downstream.  Composite moduli are supported on purpose: zero divisors are
part of the intended test surface.

Each Z and Z/q ring shares one scalar object per value v with
|v| <= _SHARED (64), built on first use, so the small coefficients that
dominate the arithmetic are neither rebuilt nor kept alive one per term.
Sharing is only an economy: equality and hashing stay by value, and two
equal rings built apart share nothing.  Q values are never shared, because
hashing or comparing a ``Fraction`` costs more than building a scalar.
"""

from __future__ import annotations

from fractions import Fraction

_KINDS = ("Z", "Q", "Zmod")
_SHARED = 64  # Z and Z/q values with |v| <= _SHARED are shared per ring
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
        # Built by Ring._make from a canonical value; raw input goes through Ring.scalar().
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
        # the ring check comes first: ``one`` of another ring must still raise
        if other.ring is not ring:
            self._check(other)
        elif self is ring.one:
            return other
        if other is ring.one:
            return self
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

    __slots__ = ("kind", "modulus", "zero", "one", "_shared")

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
        self._shared: dict[int, Scalar] = {}  # value -> this ring's shared scalar
        self.zero = self._make(self.normalize(0))
        self.one = self._make(self.normalize(1))

    def _make(self, v) -> Scalar:
        """The scalar of ``v``, canonical but for the reduction mod q done here.

        Every scalar is built here; an ``int`` value with |v| <= _SHARED
        returns this ring's shared instance."""
        if self.modulus is not None:
            v %= self.modulus
        if type(v) is int and -_SHARED <= v <= _SHARED:
            s = self._shared.get(v)
            if s is None:
                s = self._shared[v] = Scalar(self, v)
            return s
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
        return self._make(self.normalize(raw))

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
