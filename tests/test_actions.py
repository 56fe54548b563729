import itertools
import math

import pytest

from orbitlab.actions import (BernoulliShift, CoinducedAction,
                              FiniteGroupAlphabetAction, FirstReturnOracle,
                              QuotientByDiagonal, SubgroupAlphabetAction,
                              TwistedCosetShift, check_coinduced_characterization,
                              left_translation_action, rotation_action)
from orbitlab.groups import Alphabet, cyclic
from orbitlab.spaces import (Configuration, agree_on, derive_seed, exact_distribution,
                             sample, sample_stream)
from orbitlab.verify import UndeterminedError, WindowFunction, coordinate_variable
from orbitlab.words import ball, coset, cosets_ball, free_group, free_product

F2 = free_group("a", "b")
Z2 = cyclic(2)
G22 = free_product(cyclic(2, "g"), cyclic(2, "h"))


def test_bernoulli_identity_and_shift():
    act = BernoulliShift(F2, Z2)
    x = sample(act.space, 3)
    assert act.apply(F2.identity(), x) is x


def test_bernoulli_action_axiom_sampled():
    act = BernoulliShift(F2, Z2)
    words = ball(F2, 2)
    for x in sample_stream(act.space, 17, 5):
        for g in words:
            for h in words:
                lhs = act.apply(g, act.apply(h, x))
                rhs = act.apply(g * h, x)
                assert agree_on(lhs, rhs, ball(F2, 2))


def test_bernoulli_window_relocation():
    act = BernoulliShift(F2, Z2)
    e = F2.identity()
    a = F2.generator("a")
    from orbitlab.spaces import ExplicitConfiguration
    x = ExplicitConfiguration(act.space, {e: 1, a: 0})
    y = act.apply(a, x)
    assert y.value(e * a.inverse()) == x.value(e)
    assert y.value(a * a.inverse()) == x.value(a)


def test_bernoulli_preserves_cylinder_distributions():
    act = BernoulliShift(F2, Z2)
    g = F2.word("a^1 b^1")
    coords = ball(F2, 1)
    vars_before = [coordinate_variable(act.space, h) for h in coords]
    relocated = [h * g for h in coords]
    vars_after = [coordinate_variable(act.space, h) for h in relocated]
    d1 = exact_distribution(act.space, vars_before, coords)
    d2 = exact_distribution(act.space, vars_after, relocated)
    assert d1.outcomes == d2.outcomes


def inner_translation():
    # the finite factor h2 of G22 acting on Z/2 by translation
    return SubgroupAlphabetAction(G22, "h2", Z2, elem_perms=[(0, 1), (1, 0)])


def test_non_homomorphic_element_perms_rejected():
    bad = [(1, 0), (0, 1)]        # the identity acts by the swap
    with pytest.raises(ValueError, match="not a homomorphism"):
        FiniteGroupAlphabetAction(Z2, Z2, bad)
    with pytest.raises(ValueError, match="not a homomorphism"):
        SubgroupAlphabetAction(G22, "h2", Z2, elem_perms=bad)


def test_coinduced_base_coset_restriction():
    act = CoinducedAction(G22, "h2", inner_translation())
    base = coset(G22, "h2", G22.identity())
    lam = G22.element("h1")
    for y in sample_stream(act.space, 5, 10):
        assert act.apply(lam, y).value(base) == (y.value(base) + 1) % 2
        assert act.apply(G22.identity(), y) is y


@pytest.mark.parametrize("r_mode", ["transversal", "homomorphism"])
def test_coinduced_action_axiom(r_mode):
    act = CoinducedAction(G22, "h2", inner_translation(), r_mode)
    words = ball(G22, 2, parts="g2", mode="syllables")
    window = cosets_ball(G22, "h2", 3, parts="g2", mode="syllables")
    for y in sample_stream(act.space, 6, 3):
        for g in words:
            for h in words:
                lhs = act.apply(g, act.apply(h, y))
                rhs = act.apply(g * h, y)
                assert agree_on(lhs, rhs, window)


def test_coinduction_of_bernoulli_is_bernoulli():
    # the shift on X0^G matches the co-induction of the inner shift on
    # X0^(subgroup), under the coordinate pairing (coset, subgroup element)
    X0 = Z2
    # values over the 2-element subgroup (identity, h1): the pair (u, v) is 2u + v
    X = Alphabet(["0|0", "0|1", "1|0", "1|1"], label="Z2^2")

    def pair(u, v):
        return 2 * u + v

    # inner shift: (lam.v)_mu = v_{mu lam}; for lam = h1 this swaps slots
    swap = tuple(pair(v, u) for u in range(2) for v in range(2))
    inner = SubgroupAlphabetAction(G22, "h2", X, elem_perms=[tuple(range(4)), swap])
    coind = CoinducedAction(G22, "h2", inner)
    bern = BernoulliShift(G22, X0)
    h1 = G22.element("h1")

    def pack(x, c):
        return pair(*(x.value(mu * c.rep) for mu in (G22.identity(), h1)))

    # pack commutes with the actions: pack(g.x) = g . pack(x)
    window = cosets_ball(G22, "h2", 2, parts="g2", mode="syllables")
    small = cosets_ball(G22, "h2", 1, parts="g2", mode="syllables")
    from orbitlab.spaces import ExplicitConfiguration
    for x in sample_stream(bern.space, 8, 5):
        y0 = ExplicitConfiguration(coind.space, {c: pack(x, c) for c in window})
        for g in ball(G22, 1, parts="g2", mode="syllables"):
            gy = coind.apply(g, y0)
            gx = bern.apply(g, x)
            for c in small:
                assert gy.value(c) == pack(gx, c)


def twisted_action(kappa=2):
    return TwistedCosetShift(F2, "b", kappa)


@pytest.mark.parametrize("kappa", [2, 3])
@pytest.mark.parametrize("subgroup", ["b", "a"])
def test_twist_is_the_subgroup_exponent_sum(subgroup, kappa):
    act = TwistedCosetShift(F2, subgroup, kappa)
    gen = F2.generator(subgroup)
    for g in ball(F2, 3):
        exponent = sum(1 if letter is gen else -1 if letter is gen.inverse() else 0
                       for letter in g.letters())
        assert act.twist(g) == exponent % kappa, g


def test_twisted_generator_behaviour():
    act = twisted_action(3)
    a, b = F2.generator("a"), F2.generator("b")
    base = coset(F2, "b", F2.identity())
    for x in sample_stream(act.space, 11, 5):
        # a permutes cosets without twisting values
        assert act.apply(a, x).value(base) == x.value(base.translate(a))
        # b twists the base value by +1
        assert act.apply(b, x).value(base) == (x.value(base.translate(b)) + 1) % 3
    assert act.twist(a) == 0 and act.twist(b) == 1


def test_twisted_action_axiom():
    act = twisted_action(2)
    words = ball(F2, 3)
    window = cosets_ball(F2, "b", 3, parts="b", exponent_bound=3)
    for x in sample_stream(act.space, 12, 3):
        for g, h in itertools.product(words[:25], words[:25]):
            lhs = act.apply(g, act.apply(h, x))
            rhs = act.apply(g * h, x)
            assert agree_on(lhs, rhs, window[:20])


def test_twisted_equals_coinduced_with_retraction():
    kappa = 3
    twisted = twisted_action(kappa)
    coind = CoinducedAction(F2, "b", rotation_action(F2, "b", kappa),
                            r_mode="homomorphism")
    window = cosets_ball(F2, "b", 2, parts="b", exponent_bound=2)
    for x in sample_stream(twisted.space, 13, 5):
        for g in ball(F2, 2):
            assert agree_on(twisted.apply(g, x), coind.apply(g, x), window)


class ShiftedZ(Configuration):
    """value(n) = z.value(n + shift): the reference shift of a Z-point that
    the oracle's offset reads must agree with."""

    def __init__(self, z, shift):
        self.space, self.z, self.shift = z.space, z, shift

    def value(self, coord):
        return self.z.value(coord + self.shift)

    @property
    def point_key(self):
        return ("shifted-z", self.shift, self.z.point_key)


def test_first_return_immediate():
    oracle = FirstReturnOracle(Z2, 64)
    from orbitlab.spaces import SeededConfiguration
    z = SeededConfiguration(oracle.space, 3, {0: 0, 1: 0})
    eta = oracle.eta(1, z)
    assert eta == 1
    assert oracle.first_return(z, 1) == 1
    assert z.value(eta) == 0


def test_first_return_invertible():
    oracle = FirstReturnOracle(Z2, 64)
    for i, z in enumerate(sample_stream(oracle.space, 14, 20)):
        from orbitlab.spaces import SeededConfiguration
        z = SeededConfiguration(oracle.space, derive_seed(14, str(i)), {0: 0})
        eta = oracle.eta(1, z)
        forward = ShiftedZ(z, eta)
        eta_back = oracle.eta(-1, forward)
        assert oracle.first_return(z, -1, eta) == eta_back
        assert eta_back == -eta
        assert agree_on(ShiftedZ(forward, eta_back), z, range(-8, 8))


def test_first_return_cocycle_additive():
    oracle = FirstReturnOracle(Z2, 256)
    from orbitlab.spaces import SeededConfiguration
    for i in range(20):
        z = SeededConfiguration(oracle.space, derive_seed(15, str(i)), {0: 0})
        for n in range(-3, 4):
            for m in range(-3, 4):
                eta_n = oracle.eta(n, z)
                eta_m_at = oracle.eta(m, ShiftedZ(z, eta_n))
                assert oracle.eta(m + n, z) == eta_m_at + eta_n


def test_kac_mean_return_time():
    kappa = 2
    oracle = FirstReturnOracle(cyclic(kappa), 512)
    from orbitlab.spaces import SeededConfiguration
    n = 10 ** 4
    total = 0
    for i in range(n):
        z = SeededConfiguration(oracle.space, derive_seed(16, str(i)), {0: 0})
        total += oracle.eta(1, z)
    mean = total / n
    sigma = math.sqrt(2.0 / n)   # var of geometric(1/2) is 2
    assert abs(mean - kappa) <= 3 * sigma


def test_undetermined_scan_reported():
    oracle = FirstReturnOracle(Z2, 4)
    from orbitlab.spaces import ExplicitConfiguration
    z = ExplicitConfiguration(oracle.space, {i: 0 if i == 0 else 1 for i in range(-8, 9)})
    with pytest.raises(UndeterminedError):
        oracle.eta(1, z)
    with pytest.raises(UndeterminedError):
        oracle.first_return(z, -1, 0)


def test_quotient_action_well_defined():
    K = cyclic(3)
    act = BernoulliShift(F2, K)
    q = QuotientByDiagonal(act, left_translation_action(K), F2.identity())
    window = ball(F2, 2)
    for x in sample_stream(act.space, 18, 5):
        for g in ball(F2, 2)[:9]:
            direct = q.apply(g, x)
            via_normal = q.apply(g, q.normalize(x))
            assert agree_on(direct, via_normal, window)


def test_characterization_canonical_coinduced_passes():
    act = CoinducedAction(G22, "h2", inner_translation())
    base = coset(G22, "h2", G22.identity())
    rho = WindowFunction("rho", (base,), 2, lambda y: y.value(base))
    inner = inner_translation()

    def reconstructor(values):
        return {coset(G22, "h2", G22.word(t) if t != "e" else G22.identity()): v
                for t, v in values.items()}

    report = check_coinduced_characterization(
        act, rho, lambda lam, v: inner.act(lam, v), "h2", 2,
        transversal_kwargs={"parts": "g2", "mode": "syllables"},
        reconstructor=reconstructor, samples=10, seed=1)
    assert report.verdict == "pass"
    assert len(report.subreports) == 3


def test_characterization_correlated_rho_fails_independence():
    act = CoinducedAction(G22, "h2", inner_translation())
    c0 = coset(G22, "h2", G22.identity())
    c1 = coset(G22, "h2", G22.element("g1"))
    rho = WindowFunction("rho2", (c0, c1), 2,
                         lambda y: (y.value(c0) + y.value(c1)) % 2)
    inner = inner_translation()
    report = check_coinduced_characterization(
        act, rho, lambda lam, v: inner.act(lam, v), "h2", 1,
        transversal_kwargs={"parts": "g2", "mode": "syllables"},
        samples=10, seed=2)
    indep = [r for r in report.subreports if r.name == "transversal-independence"][0]
    assert indep.verdict == "fail"
    assert report.verdict == "fail"


def test_characterization_twisted_instance_passes():
    kappa = 2
    act = twisted_action(kappa)
    base = coset(F2, "b", F2.identity())
    rho = WindowFunction("rho", (base,), kappa, lambda x: x.value(base))

    def inner_act(lam, v):
        return (v + act.twist(lam)) % kappa

    def reconstructor(values):
        out = {}
        for tokens, v in values.items():
            t = F2.word(tokens)
            out[coset(F2, "b", t)] = (v - act.twist(t)) % kappa
        return out

    report = check_coinduced_characterization(
        act, rho, inner_act, "b", 2,
        transversal_kwargs={},   # word-length grading
        reconstructor=reconstructor, samples=10, seed=3)
    assert report.verdict == "pass"
