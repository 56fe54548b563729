"""Words, balls, transversals and the transfer cocycle.

Run:  python3 demos/words_and_transfer.py
"""

from orbitlab import (ball, coset, cosets_ball, cyclic, free_group, free_product,
                      omega_transfer, r_map, transversal_words)

# The rank-2 free group, with each generator its own free factor.
F2 = free_group("a", "b")
a, b = F2.generator("a"), F2.generator("b")

w = a * b * b.inverse() * a
print("reduction:", (a * b).tokens(), "*", b.inverse().tokens(), "* a =", w.tokens())

print("word-length balls in F2:",
      [len(ball(F2, r)) for r in range(4)], "(1, 5, 17, 53)")

# The b-letter length counts multiplicities: b^2 a b has three b-letters.
v = b ** 2 * a * b
print(f"b-letter length of {v.tokens()}:", v.length(parts="b"))

# Canonical coset representatives for <b>\F2 strip the leading b-letters.
c = coset(F2, "b", b ** 2 * a * b)
print("coset of b^2 a b:", c.rep.tokens())

# The retraction r kills the complementary factor in homomorphism mode.
print("r(b a b) onto <b>:", r_map(b * a * b, "b", "homomorphism").tokens())

# Transfer cocycle for the right translation action on the coset space:
# it records the subgroup part spilled when a coset representative moves.
print("transfer at the base coset, moved by b^2:",
      omega_transfer(coset(F2, "b", F2.identity()), b ** 2).tokens())
g, h = a * b, b * a
lhs = omega_transfer(c, g * h)
rhs = omega_transfer(c, g) * omega_transfer(c.translate(g), h)
print("transfer cocycle identity:", lhs.tokens(), "==", rhs.tokens())

# In a free product of finite groups the transversal is graded by how many
# letters of the first factor a representative carries.
G = free_product(cyclic(2, "g"), cyclic(2, "h"))
print("graded transversal of the h-factor in Z2*Z2, grade <= 2:",
      [t.tokens() for t in transversal_words(G, "h2", 2, parts="g2",
                                             mode="syllables")])
print("cosets of grade <= 1:",
      [c.tokens() for c in cosets_ball(G, "h2", 1, parts="g2", mode="syllables")])
