"""Compressing the twisted shift onto its base cylinder.

The twisted coset shift of the rank-2 free group restricts, on the
cylinder where the base coordinate reads 0, to an action of a free group
of rank 1+kappa: powers of `a` act through the first-return transformation
of the a-axis, and each b_i conjugates the twisted b-shift by a balanced
parenthesis matching between the 0- and i-symbol cylinders.  Both
directions are carried by explicit cocycles with finite scan radii;
unresolved scans are counted, never silently dropped.

Run:  python3 demos/cylinder_compression.py
"""

import itertools

from orbitlab.cocycles import verify_identity, verify_inverse_pair
from orbitlab.constructions import (CylinderAction, cylinder_measure_report,
                                    match_determinacy_report, parenthesis_match)
from orbitlab.spaces import SeededConfiguration, derive_seed
from orbitlab.words import ball

system = CylinderAction(kappa=2, scan_radius=64)

print("inducing cylinder measure:",
      cylinder_measure_report(system).statistics["measure"])

# The matching pairs symbol occurrences like parentheses: nested pairs
# resolve inside out.
z = SeededConfiguration(system.oracle.space, 0, {0: 0, 1: 0, 2: 1, 3: 1})
print("outer 0 of the pattern 0 0 1 1 matches the 1 at offset:",
      parenthesis_match(z, 1, 16))

# Forward cocycle: where g sends a cylinder point inside its orbit.  A
# scan past the radius is an explicit outcome, not a crash.
from orbitlab.verify import UndeterminedError

x = system.sample_in_cylinder(derive_seed(5, "demo"))
om = system.omega()
for tokens in ("a^1", "b0^1", "b1^1 a^-1"):
    g = system.spec_up.word(tokens)
    try:
        print(f"omega({tokens}) at the sample:", om.evaluate(g, x).tokens())
    except UndeterminedError as err:
        print(f"omega({tokens}) at the sample: undetermined ({err})")

# Identity and inversion, exact on every resolved evaluation.
words = ball(system.spec_up, 2)
pairs = [(g, h) for g, h in itertools.product(words, words)
         if g.length() + h.length() <= 2]
points = [system.sample_in_cylinder(derive_seed(5, str(i))) for i in range(20)]
idrep = verify_identity(om, pairs, points)
print("cocycle identity:", idrep.verdict, idrep.statistics)
invrep = verify_inverse_pair(om, system.omega_prime(), words, points,
                             lengths=(system.b_length_up, system.b_length_down))
print("inverse pair + lengths:", invrep.verdict, invrep.statistics)

# The price of finite scans: the match of a fair sequence escapes radius 64
# about 10% of the time (the tail decays like 1/sqrt(radius)).
det = match_determinacy_report(2, 64, 2000, seed=6)
print("unresolved-match frequency at radius 64:",
      float(det.statistics["unresolved_frequency"]),
      "| at radius 256:", float(det.statistics["context_frequency"]))
