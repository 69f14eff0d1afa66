import itertools
import operator
import random
from fractions import Fraction

import pytest

from envnorm.ring import RingMismatchError, make_ring, read_int, render_int


def test_make_ring_descriptors():
    assert make_ring("Z").kind == "Z"
    assert make_ring("Q").kind == "Q"
    r = make_ring("Zmod 4")
    assert r.kind == "Zmod" and r.modulus == 4


@pytest.mark.parametrize("bad", ["", "Zmod", "Zmod x", "Zmod 1", "Zmod 0", "Zmod -3", "R", "Z 4"])
def test_make_ring_rejects(bad):
    with pytest.raises(ValueError):
        make_ring(bad)


@pytest.mark.parametrize("bad", ["Zmod +7", "Zmod 1_0", "Zmod -3", "Zmod 7.0", "Zmod  0x7"])
def test_modulus_is_written_in_decimal_digits(bad):
    # int() would read '+7' and '1_0'; the modulus follows the tokenizer's
    # integer rule instead, so a sign or an underscore is malformed
    with pytest.raises(ValueError) as exc:
        make_ring(bad)
    assert str(exc.value) == f"malformed ring descriptor {bad!r}"


def test_modulus_below_2_is_rejected_by_the_ring():
    for q in ("0", "1", "00"):
        with pytest.raises(ValueError) as exc:
            make_ring(f"Zmod {q}")
        assert str(exc.value) == "modulus must be an integer >= 2"
    assert make_ring("Zmod 007").modulus == 7


def test_mod4_arithmetic():
    r = make_ring("Zmod 4")
    assert r.scalar(2) + r.scalar(3) == r.scalar(1)  # 5 mod 4
    assert r.scalar(2) * r.scalar(2) == r.scalar(0)  # zero divisor
    assert r.scalar(4) == r.scalar(0)
    assert str(-r.scalar(1)) == "3"  # least nonnegative residue


def test_rational_arithmetic():
    q = make_ring("Q")
    assert q.scalar(Fraction(1, 2)) + q.scalar(Fraction(1, 3)) == q.scalar(Fraction(5, 6))
    assert q.scalar(Fraction(2, 4)) == q.scalar(Fraction(1, 2))
    assert str(q.scalar(Fraction(5, 6))) == "5/6"
    assert str(q.scalar(3)) == "3"
    assert str(q.scalar(Fraction(-1, 2))) == "-1/2"


def test_integer_arithmetic_is_exact():
    z = make_ring("Z")
    big = z.scalar(10**40)
    assert (big * big).value == 10**80
    assert z.scalar(1) != z.scalar(2)


def test_ring_mismatch_raises():
    z, q = make_ring("Z"), make_ring("Q")
    with pytest.raises(RingMismatchError):
        z.scalar(1) + q.scalar(1)
    with pytest.raises(RingMismatchError):
        z.scalar(1) == q.scalar(1)
    # equal rings from separate constructions do interoperate
    assert make_ring("Zmod 4").scalar(3) + make_ring("Zmod 4").scalar(2) == make_ring("Zmod 4").scalar(1)


def test_non_elements_rejected():
    z = make_ring("Z")
    with pytest.raises(ValueError):
        z.scalar(Fraction(1, 2))
    m = make_ring("Zmod 5")
    with pytest.raises(ValueError):
        m.scalar(Fraction(1, 2))
    # integral fractions are fine
    assert z.scalar(Fraction(4, 2)).value == 2


def _axiom_triple(r, a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == r.zero
    assert a * r.one == a


@pytest.mark.parametrize("q", range(2, 9))
def test_ring_axioms_exhaustive_mod_q(q):
    r = make_ring(f"Zmod {q}")
    elems = [r.scalar(i) for i in range(q)]
    for a, b, c in itertools.product(elems, repeat=3):
        _axiom_triple(r, a, b, c)


@pytest.mark.parametrize("descriptor", ["Z", "Q"])
def test_ring_axioms_random(descriptor):
    r = make_ring(descriptor)
    rng = random.Random(20260808)

    def draw():
        if descriptor == "Q":
            return r.scalar(Fraction(rng.randint(-50, 50), rng.randint(1, 50)))
        return r.scalar(rng.randint(-10**6, 10**6))

    for _ in range(1000):
        _axiom_triple(r, draw(), draw(), draw())


def test_canonicalization_idempotent():
    rng = random.Random(7)
    for r in (make_ring("Z"), make_ring("Q"), make_ring("Zmod 6")):
        for _ in range(200):
            raw = rng.randint(-100, 100)
            once = r.normalize(raw)
            assert r.normalize(once) == once
    q = make_ring("Q")
    v = q.normalize(Fraction(6, -4))
    assert v == Fraction(-3, 2) and v.denominator > 0


def test_scalar_printing_round_trip_values():
    assert str(make_ring("Z").scalar(-17)) == "-17"
    assert str(make_ring("Zmod 7").scalar(-1)) == "6"
    assert str(make_ring("Q").scalar(Fraction(10, 4))) == "5/2"


@pytest.mark.parametrize("n", [1, 499, 500, 501, 1000, 1001, 5000])
def test_integers_of_any_length_read_and_render(int_digits, n):
    digits = ("9876543210" * 501)[:n]
    int_digits(0)
    value = int(digits)
    texts = {v: str(v) for v in (value, -value, value + 1, 10 ** n, -(10 ** n))}
    int_digits(640)  # the lowest limit CPython allows
    assert read_int(digits) == value and read_int("0" * n + digits) == value
    for v, text in texts.items():
        assert render_int(v) == text


def test_large_scalars_and_moduli_print_in_full(int_digits):
    q = "7" * 5000
    int_digits(0)
    big = int("9" * 3000)
    ratio = Fraction(big, 10 ** 4000 + 1)
    texts = [str(big * big), f"{ratio.numerator}/{ratio.denominator}", str(-big % int(q))]
    int_digits(640)
    assert str(make_ring("Z").scalar(big * big)) == texts[0]
    assert str(make_ring("Q").scalar(ratio)) == texts[1]
    zq = make_ring("Zmod " + q)
    assert str(zq.scalar(-big)) == texts[2]
    assert zq.descriptor() == "Zmod " + q and zq.modulus == read_int(q)


# Small Z and Z/q values, read in and after arithmetic, are canonical per ring.
INT_RINGS = ["Z", "Zmod 4", "Zmod 7", "Zmod 131"]


def _canonical(r, v):
    return v % r.modulus if r.modulus else v


@pytest.mark.parametrize("descriptor", INT_RINGS)
def test_small_values_are_shared(descriptor):
    r = make_ring(descriptor)
    assert r.scalar(0) == r.zero and r.scalar(1) == r.one
    for v in range(-64, 65):
        c = _canonical(r, v)
        assert r.scalar(v) == r.scalar(c) and r.scalar(v).value == c


@pytest.mark.parametrize("descriptor", INT_RINGS)
def test_small_sums_and_products_are_shared(descriptor):
    r = make_ring(descriptor)
    rng = random.Random(13)
    for _ in range(500):
        a, b = rng.randint(-8, 8), rng.randint(-8, 8)
        x, y = r.scalar(a), r.scalar(b)
        for got, want in ((x + y, a + b), (x - y, a - b), (x * y, a * b), (-x, -a)):
            assert got.value == _canonical(r, want)
        assert x * r.one == x and r.one * x == x


def test_large_and_rational_values_are_unchanged():
    z, q, m = make_ring("Z"), make_ring("Q"), make_ring("Zmod 1000003")
    rng = random.Random(17)
    for _ in range(300):
        a, b = rng.randint(-10**40, 10**40), rng.randint(-10**40, 10**40)
        for r in (z, m):
            x, y = r.scalar(a), r.scalar(b)
            assert (x + y).value == _canonical(r, a + b)
            assert (x - y).value == _canonical(r, a - b)
            assert (x * y).value == _canonical(r, a * b)
            assert (-x).value == _canonical(r, -a)
        fa = Fraction(rng.randint(-10**20, 10**20), rng.randint(2, 10**20))
        fb = Fraction(rng.randint(-50, 50), rng.randint(2, 50))
        x, y = q.scalar(fa), q.scalar(fb)
        assert (x + y).value == fa + fb and (x - y).value == fa - fb
        assert (x * y).value == fa * fb and (-x).value == -fa
        assert str(x * y) == str(fa * fb)
        assert x * q.one == x and q.one * x == x
    assert (q.scalar(3) * q.scalar(Fraction(1, 3))).value == 1
    big = z.scalar(10**40)
    assert (big - big) == z.zero and big * z.one == big


def test_one_and_zero_of_another_ring_still_mismatch():
    # the ring check runs before any arithmetic, on ``one`` and ``zero`` too
    z, q, m = make_ring("Z"), make_ring("Q"), make_ring("Zmod 7")
    pairs = [(z.one, q.scalar(3)), (q.scalar(3), z.one), (z.zero, q.one), (q.one, z.zero),
             (z.one, q.one), (q.one, z.one), (m.one, z.one), (z.scalar(5), m.one)]
    for a, b in pairs:
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(RingMismatchError):
                op(a, b)
    # equal rings built apart still combine
    z2 = make_ring("Z")
    assert z.one * z2.scalar(5) == z2.scalar(5) * z.one == z.scalar(5)
    assert (z.zero + z2.one).value == 1
