"""The three defining properties of a co-induced action, decided exactly.

A candidate action with a factor map passes iff (1) the factor map is
subgroup-equivariant, (2) its translates along a graded transversal
determine the window, (3) they are exactly independent and uniform.

Run:  python3 demos/coinduction_characterization.py
"""

from orbitlab.actions import (CoinducedAction, SubgroupAlphabetAction,
                              TwistedCosetShift, check_coinduced_characterization)
from orbitlab.groups import cyclic
from orbitlab.verify import WindowFunction
from orbitlab.words import coset, free_group, free_product


def show(report, label):
    print(f"{label}: {report.verdict}")
    for sub in report.subreports:
        print(f"    {sub.name}: {sub.verdict} {sub.statistics}")


# A genuinely co-induced action over the free product of two 2-element
# groups, with the canonical base-coset factor map: all three pass.
G = free_product(cyclic(2, "g"), cyclic(2, "h"))
inner = SubgroupAlphabetAction(G, "h2", cyclic(2), elem_perms=[(0, 1), (1, 0)])
action = CoinducedAction(G, "h2", inner)
base = coset(G, "h2", G.identity())
rho = WindowFunction("rho", (base,), 2, lambda y: y.value(base))
report = check_coinduced_characterization(
    action, rho, lambda lam, v: inner.act(lam, v), "h2", radius=2,
    transversal_kwargs={"parts": "g2", "mode": "syllables"},
    reconstructor=lambda values: {coset(G, "h2", G.word(t)): v
                                  for t, v in values.items()},
    samples=25, seed=1)
show(report, "canonical co-induction")

# The twisted coset shift (values gain the b-exponent sum mod kappa) is the
# co-induction of the rotation action of the b-factor, and passes too.
kappa = 2
F2 = free_group("a", "b")
twisted = TwistedCosetShift(F2, "b", kappa)
tbase = coset(F2, "b", F2.identity())
trho = WindowFunction("rho", (tbase,), kappa, lambda x: x.value(tbase))


def reconstruct(values):
    out = {}
    for tokens, v in values.items():
        t = F2.word(tokens)
        out[coset(F2, "b", t)] = (v - twisted.twist(t)) % kappa
    return out


report = check_coinduced_characterization(
    twisted, trho, lambda lam, v: (v + twisted.twist(lam)) % kappa, "b", radius=2,
    transversal_kwargs={}, reconstructor=reconstruct, samples=25, seed=2)
show(report, "twisted coset shift")

# A factor map reading two coordinates breaks independence: its translates
# repeat information, and the checker pinpoints that.
c1 = coset(G, "h2", G.element("g1"))
bad_rho = WindowFunction("bad", (base, c1), 2,
                         lambda y: (y.value(base) + y.value(c1)) % 2)
report = check_coinduced_characterization(
    action, bad_rho, lambda lam, v: v, "h2", radius=1,
    transversal_kwargs={"parts": "g2", "mode": "syllables"}, samples=25, seed=3)
show(report, "correlated factor map (expected fail)")
