"""
Normal ordering via the recursive action
========================================

The centerpiece: for a split algebra, every envelope element has a unique
image in (part-1 factors) (x) (part-2 factors).  It is computed by a
recursion that walks a letter through the left word, peeling off brackets --
no linear solving, no basis enumeration -- and it is cross-checked against
an independent straightening oracle on every call.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from envnorm import (
    ActionContext,
    EnvElement,
    StateElement,
    act,
    builtin_examples,
    env_eq,
    mu_state,
    normal_order,
    section_s,
)

reg = builtin_examples()

# sl2 over Z, split {f} | {h, e}
entry = reg["sl2_Z"]
ctx = ActionContext(entry.algebra, entry.split)
E, F, H = 0, 1, 2

# one recursion step in the open: e acting on f (x) 1 peels off [e,f] = h
step = act(ctx, entry.algebra.basis_vector(E), StateElement.term(entry.split, (F,), ()))
print("e * (f (x) 1)      =", step)

# the full normal order of e f: the classical  ef = fe + h
u = EnvElement.word(entry.algebra, (E, F))
print("normal order of ef =", normal_order(ctx, u))

# Heisenberg: yx = xy - c
heis = reg["heisenberg_Z"]
ctx_h = ActionContext(heis.algebra, heis.split)
yx = EnvElement.word(heis.algebra, (1, 0))
print("Heisenberg yx      =", normal_order(ctx_h, yx))

# the section and the factor multiplication are mutually inverse
sl3 = reg["sl3_Z"]
ctx3 = ActionContext(sl3.algebra, sl3.split)
word = EnvElement.word(sl3.algebra, (4, 0, 3, 6))  # E31 E12 E21 H1
ordered = section_s(ctx3, word)
print("\nan sl3 word, normal ordered:")
for line in ordered.term_strings():
    print("   ", line)
print("merging back reproduces it:", env_eq(mu_state(ordered), word))

# composite modulus: the same machinery over Z/4
sl3_m = reg["sl3_Z4"]
ctx4 = ActionContext(sl3_m.algebra, sl3_m.split)
word4 = EnvElement.word(sl3_m.algebra, (4, 0, 3, 6))
print("\nthe same word over Z/4:")
for line in section_s(ctx4, word4).term_strings():
    print("   ", line)
