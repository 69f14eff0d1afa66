"""Closed normal forms of four word families, in plain Python integers.

Nothing here imports envnorm, so the tests that compare the calculator and
the oracle with these formulas do not share a line of code with either.  A
normal form is a dict {(left word, right word): coefficient} over the
letters' declaration indices, with the coefficients reduced mod ``modulus``
when one is given and the zero ones dropped.
"""

from math import comb, factorial


def _reduced(pairs, modulus=None) -> dict:
    out = {}
    for key, c in pairs:
        if modulus is not None:
            c %= modulus
        if c:
            out[key] = c
    return out


def heisenberg_ynxm(n: int, m: int, modulus=None) -> dict:
    """Heisenberg on x, y, c (indices 0, 1, 2), [x, y] = c, split x | y c:

        y^n x^m = sum_k (-1)^k k! C(n, k) C(m, k) x^(m-k) (x) y^(n-k) c^k.
    """
    x, y, c = 0, 1, 2
    return _reduced(
        [
            (((x,) * (m - k), (y,) * (n - k) + (c,) * k),
             (-1) ** k * factorial(k) * comb(n, k) * comb(m, k))
            for k in range(min(n, m) + 1)
        ],
        modulus,
    )


def sl2_efn(n: int, modulus=None) -> dict:
    """sl(2) on e, f, h (indices 0, 1, 2), [e, f] = h, [h, e] = 2e,
    [h, f] = -2f, split f | e h:

        e f^n = f^n (x) e + n f^(n-1) (x) h - n(n-1) f^(n-1) (x) 1.
    """
    e, f, h = 0, 1, 2
    return _reduced(
        [
            (((f,) * n, (e,)), 1),
            (((f,) * (n - 1), (h,)), n),
            (((f,) * (n - 1), ()), -n * (n - 1)),
        ],
        modulus,
    )


def _falling_in_h(c: int, k: int) -> list:
    """The coefficients, constant term first, of the polynomial
    (h + c)(h + c - 1)...(h + c - k + 1) in h."""
    poly = [1]
    for i in range(k):
        # multiply by (h + c - i)
        shifted = [0] + poly
        poly = [s + (c - i) * p for s, p in zip(shifted, poly + [0])]
    return poly


def sl2_eafb(a: int, b: int, modulus=None) -> dict:
    """sl(2) on e, f, h (indices 0, 1, 2), [e, f] = h, [h, e] = 2e,
    [h, f] = -2f, split f | e h, from Kostant's divided-power formula:

        e^a f^b = sum_k a! b! / ((a-k)! (b-k)!) f^(b-k) (x) e^(a-k) binom(h + a - b, k),

    with a! b! / ((a-k)! (b-k)!) binom(h + c, k) written as the integer
    k! C(a, k) C(b, k) times the falling factorial (h + c)...(h + c - k + 1),
    expanded into powers of h.
    """
    e, f, h = 0, 1, 2
    return _reduced(
        [
            (((f,) * (b - k), (e,) * (a - k) + (h,) * j),
             factorial(k) * comb(a, k) * comb(b, k) * p)
            for k in range(min(a, b) + 1)
            for j, p in enumerate(_falling_in_h(a - b, k))
        ],
        modulus,
    )


def sl2_hne(n: int, modulus=None) -> dict:
    """sl(2) on e, f, h (indices 0, 1, 2), [h, e] = 2e, split f | h e
    (a part's words are sorted in declaration order, so e comes before h).
    From h e = e (h + 2):

        h^n e = sum_k C(n, k) 2^(n-k) 1 (x) e h^k.
    """
    e, h = 0, 2
    return _reduced(
        [(((), (e,) + (h,) * k), comb(n, k) * 2 ** (n - k)) for k in range(n + 1)],
        modulus,
    )
