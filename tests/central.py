"""Central elements of two enveloping algebras, in plain Python integers.

Nothing here imports envnorm, so the tests that check the calculator, the
oracle and the straightener against these elements share no line of code
with them.  An element is a dict {word: coefficient} over the letters'
declaration indices.  For z central in U(g) and any u, z u - u z is zero in
U(g), so each engine must bring it to exactly zero on its own.
"""

E, F, H = 0, 1, 2  # sl(2): [e, f] = h, [h, e] = 2e, [h, f] = -2f
X, Y, C = 0, 1, 2  # heisenberg: [x, y] = c, c central


def sl2_casimir() -> dict:
    """2ef + 2fe + h^2, twice the Casimir element of sl(2) (Humphreys,
    GTM 9, section 22), with integer coefficients: central over every ring."""
    return {(E, F): 2, (F, E): 2, (H, H): 1}


def sl2_p_center(p: int) -> list:
    """The p-center of U(sl(2)) over Z/p, p prime (Zassenhaus, 1954):
    e^p, f^p and h^p - h.  In characteristic p, ad(x^p) = ad(x)^p.  ad(e)^p
    and ad(f)^p vanish: ad(e)^3 = 0 over Z, and ad(e)^2 sends f to -2e,
    zero mod 2, and likewise for f.  ad(h)^p - ad(h) multiplies e and f by
    (+-2)^p - (+-2), zero mod p by Fermat."""
    return [{(E,) * p: 1}, {(F,) * p: 1}, {(H,) * p: 1, (H,): -1}]


def heisenberg_center() -> dict:
    """c, central in the Lie algebra and so in its envelope."""
    return {(C,): 1}
