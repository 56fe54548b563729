import itertools

from orbitlab.actions import BernoulliShift
from orbitlab.cocycles import (Cocycle, CocycleTarget, identity_cocycle,
                               verify_identity, verify_inverse_pair)
from orbitlab.groups import cyclic
from orbitlab.spaces import sample, sample_stream
from orbitlab.words import ball, coset, free_group, free_product, omega_transfer

F2 = free_group("a", "b")
Z2 = cyclic(2)


def bernoulli():
    return BernoulliShift(F2, Z2)


def sample_points(act, seed, n=5):
    return list(sample_stream(act.space, seed, n))


def test_identity_cocycle_values():
    # the finite factors of Z/2 * Z/3 cover the ("f", part, element) entries
    for spec in (F2, free_product(cyclic(2, "g"), cyclic(3, "h"))):
        act = BernoulliShift(spec, Z2)
        c = identity_cocycle(act)
        x = sample(act.space, 1)
        words = ball(spec, 2)
        assert all(c.evaluate(w, x) is w for w in words)
        pairs = list(itertools.product(words, words))
        assert verify_identity(c, pairs, sample_points(act, 3)).verdict == "pass"
    c = identity_cocycle(bernoulli())
    w = F2.word("a^2 b^-1")
    assert c.evaluate(w, sample(c.source.space, 1)) == w


def test_homomorphism_cocycle_multiplicative():
    act = bernoulli()
    target = CocycleTarget(F2, cyclic(4))
    # a -> (a, 1), b -> (b, 2) in F2 x Z/4
    A, B = F2.generator("a"), F2.generator("b")
    c = Cocycle(act, target, {("g", F2.part_index("a")): lambda x: (A, 1),
                              ("g", F2.part_index("b")): lambda x: (B, 2)})
    x = sample(act.space, 2)
    assert c.evaluate(F2.word("a^1 b^1"), x) == (F2.word("a^1 b^1"), 3)
    assert c.evaluate(F2.word("a^-1"), x) == (F2.word("a^-1"), 3)
    g, h = F2.word("a^1 b^1"), F2.word("b^-1 a^1")
    assert c.evaluate(g * h, x) == (g * h, (c.evaluate(g, x)[1] + c.evaluate(h, x)[1]) % 4)


def test_omega_transfer_cross_module_equality():
    # independent recursion for the transfer cocycle of the right action,
    # peeled letter by letter, against the closed form
    for k in ball(F2, 2):
        c = coset(F2, "b", k)
        for g in ball(F2, 2):
            expected = omega_transfer(c, g)
            acc = F2.identity()
            current = c
            for letter in g.letters():
                acc = acc * omega_transfer(current, letter)
                current = current.translate(letter)
            assert acc == expected


def test_cocycle_inverse_consequence():
    # w(g^-1, g.x) = w(g, x)^-1 follows from the identity
    act = bernoulli()
    c = identity_cocycle(act)
    for x in sample_points(act, 4):
        for g in ball(F2, 2):
            assert c.evaluate(g.inverse(), act.apply(g, x)) == c.evaluate(g, x).inverse()


def test_verify_identity_homomorphism_passes():
    act = bernoulli()
    A, B = F2.generator("a"), F2.generator("b")
    c = Cocycle(act, CocycleTarget(F2, cyclic(3)),
                {("g", F2.part_index("a")): lambda x: (A, 1),
                 ("g", F2.part_index("b")): lambda x: (B, 2)})
    words = ball(F2, 2)
    pairs = list(itertools.product(words, words))
    report = verify_identity(c, pairs, sample_points(act, 5))
    assert report.verdict == "pass"


def test_verify_identity_corrupted_entry_fails_with_triple():
    # a free-generator table can never violate the identity (no relations),
    # so the negative control needs a finite factor: the corrupted entry on
    # an involution breaks w(lambda^2) = e
    G22 = free_product(cyclic(2, "g"), cyclic(2, "h"))
    act = BernoulliShift(G22, Z2)
    e = G22.identity()
    g2, h2 = G22.part_index("g2"), G22.part_index("h2")
    g, h = G22.finite_element(g2, 1), G22.finite_element(h2, 1)
    entries = {
        ("f", g2, 1): lambda x: (g, 0),
        ("f", h2, 1): lambda x: (h, x.value(e)),
    }
    c = Cocycle(act, CocycleTarget(G22, cyclic(2)), entries, "corrupted")
    words = ball(G22, 2, parts="g2", mode="syllables")
    pairs = list(itertools.product(words, words))
    report = verify_identity(c, pairs, sample_points(act, 6, 10))
    assert report.verdict == "fail"
    assert report.counterexample is not None
    assert {"g", "h", "point", "lhs", "rhs"} <= set(report.counterexample)


def test_verify_inverse_pair_identity_homomorphisms():
    act = bernoulli()
    c = identity_cocycle(act)
    report = verify_inverse_pair(c, c, ball(F2, 2), sample_points(act, 15),
                                 lengths=(lambda w: w.length(), lambda w: w.length()))
    assert report.verdict == "pass"


def test_cocycle_identity_for_coinduced_transfer():
    # transfer cocycle values feed an inner rotation; identity must hold
    kappa = 3
    from orbitlab.actions import TwistedCosetShift
    act = TwistedCosetShift(F2, "b", kappa)
    target = CocycleTarget(F2, cyclic(kappa))
    A, B = F2.generator("a"), F2.generator("b")
    entries = {
        ("g", F2.part_index("a")): lambda x: (A, 0),
        ("g", F2.part_index("b")): lambda x: (B, 1),
    }
    c = Cocycle(act, target, entries, "retraction")
    words = ball(F2, 2)
    pairs = list(itertools.product(words, words))
    report = verify_identity(c, pairs, sample_points(act, 16))
    assert report.verdict == "pass"
