"""Seeded sampling, exact cylinder laws and diagonal quotients.

Run:  python3 demos/exact_cylinder_laws.py
"""

from fractions import Fraction

from orbitlab import ball, cyclic, free_group, klein_four
from orbitlab.actions import quotient_normalize
from orbitlab.spaces import (GroupIndex, Space, enumerate_window,
                             exact_distribution, sample)
from orbitlab.verify import WindowFunction

F2 = free_group("a", "b")
K = klein_four()
space = Space(GroupIndex(F2), K)

# Sampled points are keyed pseudo-random functions of the coordinate name:
# the same seed always shows the same values, in any access order.
x = sample(space, seed=7)
print("sampled values on the unit ball:",
      {g.tokens(): K.names[x.value(g)] for g in ball(F2, 1)})
assert all(sample(space, 7).value(g) == x.value(g) for g in ball(F2, 2))

# Exact joint laws are enumerations with rational arithmetic over the
# coordinates that the variables declare they read.
e, a = F2.identity(), F2.generator("a")
diff = WindowFunction("x_e^-1 x_a", (e, a), K.size,
                      lambda c: K.mul(K.inv(c.value(e)), c.value(a)))
dist = exact_distribution(space, [diff], [e, a])
print("law of x_e^-1 x_a over", dist.state_count, "window states:",
      {K.names[v[0]]: str(p) for v, p in sorted(dist.outcomes.items())})
assert all(p == Fraction(1, 4) for p in dist.outcomes.values())

# Quotient by the diagonal translation: normalize the base value to the
# identity; the normal form is constant on orbits and counts them.
window = ball(F2, 1)[:3]
reps = {tuple(quotient_normalize(cfg, window[0]).value(c) for c in window)
        for cfg in enumerate_window(space, window)}
print("diagonal orbits on K^3:", len(reps), "=", K.size, "^ 2")

# Budgets keep every enumeration explicit: a two-coordinate window over
# Z/3 has exactly 9 states, each of mass 1/9.
z3 = cyclic(3)
small = Space(GroupIndex(F2), z3)
states = list(enumerate_window(small, [e, a]))
print("window states:", len(states), "each of mass", Fraction(1, len(states)))
