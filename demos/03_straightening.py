"""
PBW straightening
=================

Enveloping-algebra elements are stored as sparse combinations of words.
Straightening rewrites any adjacent out-of-order pair  x y -> y x + [x,y]
until every word is nondecreasing under a chosen total order; the result is
the canonical form, and comparing canonical forms of a difference decides
equality in the enveloping algebra.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from envnorm import EnvElement, env_eq, make_ring, sl2_algebra, straighten

sl2 = sl2_algebra(make_ring("Z"))
E, F, H = 0, 1, 2

# f e has one inversion under the declaration order e < f < h:
#   f e  ->  e f + [f,e]  =  e f - h
fe = EnvElement.word(sl2, (F, E))
print("f e straightens to:", straighten(fe))

# a different order gives a different canonical form of the same element
print("same under h < f < e:", straighten(fe, order=(H, F, E)))

# equality in the envelope does not depend on the order used to decide it
ef = EnvElement.word(sl2, (E, F))
candidate = fe + EnvElement.word(sl2, (H,))
print("\nef == fe + h ?", env_eq(ef, candidate))
print("  (same verdict under the reversed order:",
      straighten(ef - candidate, (H, F, E)).is_zero(), ")")

# the rewrite system terminates: each step drops (degree, inversions).  The
# counts cover only rewrites actually performed: straightened words are
# memoized on the algebra and cost nothing the next time, so count on a
# fresh algebra before anything else straightens there.
fresh = sl2_algebra(make_ring("Z"))
messy = EnvElement.word(fresh, (H, H, F, F, E, E), 1)
stats = {}
flat = straighten(messy, stats=stats)
print("\nrewrite steps:", stats["steps"], " words spawned:", stats["spawned"])
straighten(messy, stats=stats)
print("again, memoized:", stats["steps"], "steps in total")

# coefficients stay exact while terms proliferate
print("\nh h f f e e straightens to", len(flat.terms), "ordered terms:")
for word, coeff in flat.sorted_terms():
    print(f"   {str(coeff):>4} * {' '.join(fresh.basis[l] for l in word) or '1'}")
