"""The increment map: group-valued shifts modulo diagonal translation.

For a K-valued configuration on a free group, the increments
x_g^-1 x_{a_i g} along the left Cayley edges forget exactly the diagonal
translation, and integrating them back from the base vertex recovers the
orbit representative.  Their joint law is exactly the uniform product.

Run:  python3 demos/increment_isomorphism.py
"""

import time

from orbitlab import ball, cyclic, free_group, s3
from orbitlab.actions import BernoulliShift, diagonal_translate
from orbitlab.constructions import (edge_increments, increment_family,
                                    increment_grouped_reports,
                                    increment_roundtrip_report,
                                    integrate_increments)
from orbitlab.spaces import exact_distribution, sample

F2 = free_group("a", "b")
K = cyclic(2)
shift = BernoulliShift(F2, K)

# Diagonal invariance: translating every value leaves the increments alone.
x = sample(shift.space, 11)
v = edge_increments(x)
vk = edge_increments(diagonal_translate(x, 1))
print("increments ignore the diagonal translation:",
      all(v.value(g) == vk.value(g) for g in ball(F2, 2)))

# Integration pins the base vertex to the identity and walks the tree.
rebuilt = integrate_increments(v, 3, K)
print("integrated value at the base vertex:",
      K.names[rebuilt.value(F2.identity())])
print("roundtrip report:",
      increment_roundtrip_report(F2, K, 3, 25, seed=12).verdict)

# The full joint law of the ten radius-1 increment variables over the
# 2^17-state window is exactly uniform: 1024 outcomes, 128 states each.
# The increments read 11 of the 17 coordinates, so the other 6 are summed
# out and 2^11 states are enumerated.
family = increment_family(F2, K, 1)
started = time.perf_counter()
dist = exact_distribution(shift.space, family, ball(F2, 2))
print(f"joint law over {dist.state_count} states in "
      f"{time.perf_counter() - started:.1f}s:",
      f"{len(dist.outcomes)} outcomes,",
      "all equal" if len(set(dist.outcomes.values())) == 1 else "NOT uniform")

# For a six-element alphabet the same content is checked on minimal
# windows (every enumeration at most 6^5 states).
reports = increment_grouped_reports(F2, s3(), 1, budget=6 ** 5)
print(f"S3 grouped checks: {len(reports)} windows,",
      "all pass" if all(r.passed() for r in reports) else "FAILURES")
