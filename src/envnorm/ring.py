"""Exact commutative coefficient rings: Z, Z/qZ (any q >= 2) and Q.

Every scalar carries a canonical representative -- arbitrary-precision
integers, residues in [0, q), reduced fractions with positive denominator --
so equality is plain structural equality and stays decidable everywhere
downstream.  Composite moduli are supported on purpose: zero divisors are
part of the intended test surface.

``Scalar`` is the element-level type: the coefficients of vectors, envelope
elements and states.  Its ``value`` is the ring's one coefficient form: an
``int`` for Z, an ``int`` in [0, q) for Z/q, and for Q an ``int`` when
integral, else a reduced ``Fraction``.  Structure tables, parsed
expressions and the straightening and action layers hold these values
bare, so over Z and Z/q their memos hold no GC-tracked coefficient.
:meth:`Ring.coerce` turns input into a value, and ``Ring.scalar`` boxes a
value where an element is built.
"""

from __future__ import annotations

# fractions is imported where a value that is no int arrives, so
# `import envnorm` does not load it (tests/test_cli.py holds that).

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
        # Built from a canonical value by Ring.scalar, for input and arithmetic alike.
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
        return ring.scalar(self.value + other.value)

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        ring = self.ring
        if other.ring is not ring:
            self._check(other)
        return ring.scalar(self.value - other.value)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        ring = self.ring
        if other.ring is not ring:
            self._check(other)
        return ring.scalar(self.value * other.value)

    def __neg__(self):
        return self.ring.scalar(-self.value)

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
        return f"{render_int(v.numerator)}/{render_int(v.denominator)}"

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

    def coerce(self, x):
        """The canonical value (see :class:`Scalar`) of an int, a Fraction
        or a scalar of this ring."""
        if type(x) is not int:  # a plain int, the common input, goes straight through
            if isinstance(x, Scalar):
                if x.ring is not self and x.ring != self:
                    raise RingMismatchError(f"scalar from {x.ring} used in {self}")
                return x.value
            import fractions

            if isinstance(x, fractions.Fraction):
                if x.denominator != 1:
                    if self.kind == "Q":
                        return x
                    raise ValueError(f"{x} is not an element of {self.descriptor()}")
                x = x.numerator
            elif isinstance(x, bool) or not isinstance(x, int):
                raise ValueError(f"cannot interpret {x!r} in {self.descriptor()}")
            else:
                x = int(x)  # a subclass of int
        q = self.modulus
        return x if q is None else x % q

    def scalar(self, x) -> Scalar:
        """The scalar of an int, a Fraction or a scalar of this ring (see
        :meth:`coerce`)."""
        if isinstance(x, Scalar) and (x.ring is self or x.ring == self):
            return x
        return Scalar(self, self.coerce(x))

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
