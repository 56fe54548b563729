import itertools

import pytest

from orbitlab.groups import cyclic
from orbitlab.words import (BallNotFiniteError, Coset, FinitePart, FreePart, GroupSpec,
                            SpecMismatchError, Word, _reduce_concat, ball, coset,
                            cosets_ball, extension_sphere, free_group, free_product,
                            omega_transfer, r_map, sphere, transversal_words)


F2 = free_group("a", "b")
A = F2.generator("a")
B = F2.generator("b")
E = F2.identity()

Z2Z2 = free_product(cyclic(2, "g"), cyclic(2, "h"))
G = Z2Z2.element("g1")
H = Z2Z2.element("h1")


def test_free_cancellation():
    assert (A * B) * B.inverse() == A
    assert Z2Z2.identity() * G == G
    assert E * A == A
    assert A * B * B.inverse() * A == A ** 2


def test_mixed_finite_reduction():
    assert G * G == Z2Z2.identity()
    assert (G * H * H) == G
    assert (G * H).inverse() == H * G


def test_spec_mismatch():
    with pytest.raises(SpecMismatchError):
        A * G


def _interning_specs():
    """Fresh specs, so that every product memo starts empty."""
    return [free_group("a", "b"), GroupSpec([FreePart("a"), FinitePart(cyclic(3, "c"))])]


def test_words_are_interned_per_spec():
    for spec in _interning_specs():
        for w in ball(spec, 2):
            assert Word(spec, w.syllables) is w
            assert Word(spec, tuple(list(w.syllables))) is w   # an equal, new tuple
            assert spec.word(w.tokens()) is w
    twin = free_group("a", "b")
    for w in ball(F2, 2):
        other = Word(twin, w.syllables)
        assert other != w and not other == w
        assert len({w, other}) == 2
        assert hash(Word(F2, w.syllables)) == hash(w)
    assert len({A, twin.generator("a")}) == 2


def test_cosets_are_part_rep_pairs():
    twin = free_group("a", "b")
    for w in ball(F2, 2):
        c = coset(F2, "b", w)
        assert c.part == 1 and c.spec is F2 and c.rep.first_part() != 1
        assert c == Coset(1, c.rep) == (1, c.rep) and hash(c) == hash(Coset(1, c.rep))
        assert c == coset(F2, "b", B * w) and c.rep is coset(F2, "b", B * w).rep
        assert c != coset(F2, "a", w)   # another part
        other = coset(twin, "b", Word(twin, w.syllables))
        assert other != c and len({c, other}) == 2   # twin specs
    assert coset(F2, "b", A) != coset(F2, "b", A * A)


@pytest.mark.parametrize("spec", _interning_specs(), ids=["F2", "a*Z3"])
def test_first_letter_split_is_memoized(spec):
    for w in ball(spec, 3):
        if w.is_identity:
            with pytest.raises(ValueError):
                w.split_first_letter()
            with pytest.raises(ValueError):   # nothing was cached on that path
                w.split_first_letter()
            continue
        letter, rest = pair = w.split_first_letter()
        assert letter * rest is w and letter.length() == 1
        assert rest.length() == w.length() - 1
        assert w.split_first_letter() is pair


@pytest.mark.parametrize("spec", _interning_specs(), ids=["F2", "a*Z3"])
def test_default_length_is_memoized(spec):
    for w in ball(spec, 3):
        letters = [(p, 1 if kind == "f" else abs(v)) for kind, p, v in w.syllables]
        # a count over some parts is not kept
        assert w.length(spec.part_name(0)) == sum(n for p, n in letters if p == 0)
        assert w._length is None
        assert w.length() == w._length == sum(n for _, n in letters)
        # nor is another mode served from the slot
        assert w.length(mode="syllables") == len(w.syllables)
        assert w.length() == w._length


@pytest.mark.parametrize("spec", _interning_specs(), ids=["F2", "a*Z3"])
def test_memoized_products_match_unmemoized_reduction(spec):
    words = ball(spec, 2)
    for _ in range(2):  # the second round is served by the memo
        for u, v in itertools.product(words, words):
            expected = _reduce_concat(spec, u.syllables, v.syllables)
            product = u * v
            assert product.syllables == expected
            assert product is Word(spec, expected)


def test_spec_mismatch_raises_with_a_warm_memo():
    twin = free_group("a", "b")
    twin_b = Word(twin, B.syllables)
    for _ in range(2):
        assert A * B is Word(F2, (("g", 0, 1), ("g", 1, 1)))
        with pytest.raises(SpecMismatchError):
            A * twin_b
        with pytest.raises(SpecMismatchError):
            A * G


def test_serialization_roundtrip():
    words = [E, A, A ** -2, A * B ** 3 * A.inverse(), G * H * G]
    for w in words:
        assert w.spec.word(w.tokens()) == w
    assert E.tokens() == "e"
    assert (A * B ** -1).tokens() == "a^1 b^-1"
    assert (G * H).tokens() == "g1 h1"


def test_parse_bare_generators():
    assert F2.word("a b^-1") == A * B ** -1


def test_power_and_inverse():
    w = A * B
    assert w ** 0 == E
    assert w ** 2 == A * B * A * B
    assert w ** -1 == w.inverse()
    assert (w * w.inverse()).is_identity


def test_power_of_one_syllable_equals_repeated_products():
    for w in (A, B ** -1, A ** 3, G, A * B):
        for n in range(-4, 5):
            expected = E if w.spec is F2 else Z2Z2.identity()
            for _ in range(abs(n)):
                expected = expected * (w if n > 0 else w.inverse())
            assert w ** n == expected
    assert (A ** 0).is_identity and F2.identity() is E


def test_b_letter_length():
    assert (B * A * B).length(parts="b") == 2
    assert E.length(parts="b") == 0
    assert (A * B * A.inverse()).length(parts="b") == 1
    # multiplicities count: b^2 a b has three b-letters
    assert (B ** 2 * A * B).length(parts="b") == 3
    assert (B * A * B).inverse().length(parts="b") == 2


def test_length_parts_forms_agree_and_errors_repeat():
    w = B ** 2 * A * B
    for _ in range(2):   # the second round reads the per-spec memo
        assert w.length() == w.length(None) == 4
        assert w.length("b") == w.length(1) == w.length(["b"]) == w.length(("b",)) == 3
        assert w.length(frozenset({0, 1})) == w.length(["a", 1]) == 4
        for bad, message in (("c", "unknown part 'c'"), (2, "unknown factor index 2"),
                             (("a", "c"), "unknown part 'c'")):
            with pytest.raises(KeyError, match=message):
                w.length(bad)
    with pytest.raises(KeyError, match="unknown part 'z'"):
        F2.part_index("z")


def test_syllable_length_free_product():
    # number of letters from the g-factor in the alternating normal form
    w = G * H * G
    assert w.length(parts="g2", mode="syllables") == 2
    assert Z2Z2.element("h1").length(parts="g2", mode="syllables") == 0


def test_word_length_balls():
    assert len(ball(F2, 1)) == 5
    assert len(ball(F2, 2)) == 17
    assert len(ball(F2, 3)) == 53
    assert len(set(ball(F2, 3))) == 53


def test_ball_b_length_radius_zero_needs_bound():
    with pytest.raises(BallNotFiniteError):
        ball(F2, 0, parts="b")
    # two uncounted factors alternate at weight 0: infinite whatever the bound
    with pytest.raises(BallNotFiniteError):
        ball(free_group("a", "b", "c"), 1, parts="c", exponent_bound=1)
    words = ball(F2, 0, parts="b", exponent_bound=2)
    assert sorted(w.tokens() for w in words) == ["a^-1", "a^-2", "a^1", "a^2", "e"]


def test_ball_b_length_filtered_leading_letter():
    # b-length 1 words starting with a b-letter, small a-exponents
    words = transversal_words(F2, "a", 1, parts="b", exponent_bound=1, exact=True)
    assert words
    for w in words:
        assert w.first_part() == F2.part_index("b")
        assert w.length(parts="b") == 1
    assert F2.word("b^1") in words
    assert F2.word("b^-1 a^1") in words


def test_associativity_exhaustive_radius3():
    words = ball(F2, 3)
    assert len(words) == 53
    for u, v, w in itertools.product(words, words, words):
        assert (u * v) * w == u * (v * w)


def test_associativity_finite_product():
    words = ball(Z2Z2, 4, parts=None, mode="syllables")
    for u, v, w in itertools.product(words, words, words):
        assert (u * v) * w == u * (v * w)


def test_r_map_homomorphism():
    assert r_map(B * A * B, "b", "homomorphism") == B ** 2
    assert r_map(E, "b", "homomorphism") == E
    lam = B ** 3
    assert r_map(lam, "b", "homomorphism") == lam


def test_r_map_transversal():
    for t in transversal_words(F2, "b", 2, exponent_bound=2):
        assert r_map(t, "b", "transversal") == E
    assert r_map(B ** 2 * A, "b") == B ** 2
    # equivariance r(lambda g) = lambda r(g)
    for g in ball(F2, 2):
        for k in (-2, -1, 1, 2):
            lam = B ** k
            assert r_map(lam * g, "b") == lam * r_map(g, "b")


def test_coset_canonical_representative():
    c = coset(F2, "b", B ** 2 * A * B)
    assert c.rep == A * B
    assert coset(F2, "b", A * B) == c


def test_omega_transfer_basics():
    c_e = coset(F2, "b", E)
    lam = B ** 2
    assert omega_transfer(c_e, lam) == lam
    for g in ball(F2, 2):
        assert omega_transfer(coset(F2, "b", g), E) == E


@pytest.mark.parametrize("mode", ["transversal", "homomorphism"])
def test_omega_cocycle_identity_exhaustive(mode):
    words = ball(F2, 2)
    ks = ball(F2, 2)
    for k in ks:
        c = coset(F2, "b", k)
        for g in words:
            for h in words:
                lhs = omega_transfer(c, g * h, mode)
                rhs = omega_transfer(c, g, mode) * omega_transfer(c.translate(g), h, mode)
                assert lhs == rhs


def test_transversal_property():
    for g in ball(Z2Z2, 3, mode="syllables"):
        c = coset(Z2Z2, "h2", g)
        # same coset: g and rep differ by a leading subgroup element
        diff = c.rep * g.inverse()
        assert diff.is_identity or diff.first_part() == Z2Z2.part_index("h2")
        assert r_map(c.rep, "h2") == Z2Z2.identity()


def test_in_partition_unique_factorization():
    # every g with n gamma-letters factors uniquely as lambda * t, t in I_n
    spec = Z2Z2
    gpart = "g2"
    for n in range(4):
        i_n = [w for w in sphere(spec, n, parts=gpart, mode="syllables")
               if w.first_part() != spec.part_index("h2")] if n > 0 else [spec.identity()]
        seen = set()
        for g in ball(spec, 3, parts=gpart, mode="syllables"):
            if g.length(gpart, "syllables") != n:
                continue
            lam = r_map(g, "h2")
            t = lam.inverse() * g
            assert lam * t == g
            assert t in i_n
            assert (lam.tokens(), t.tokens()) not in seen
            seen.add((lam.tokens(), t.tokens()))


def test_extension_sphere_first_letter_rule():
    f3 = free_group("a", "b0", "b1")
    bparts = ["b0", "b1"]
    b0 = f3.generator("b0")
    for g in extension_sphere(f3, b0, 1, parts=bparts, exponent_bound=1):
        assert g.length(bparts) == 1
        assert (b0 * g).length(bparts) == 2
    # a word starting with b0^-1 is not extendable by b0
    w = f3.word("b0^-1 a^1")
    assert w not in extension_sphere(f3, b0, 1, parts=bparts, exponent_bound=1)


def test_cosets_ball_counts():
    cs = cosets_ball(F2, "b", 1, parts="b", exponent_bound=1)
    reps = {c.rep.tokens() for c in cs}
    # radius-1 coset reps with a-exponent bound 1: e, a^{+-1}, and
    # words starting with an uncancelled b-letter are excluded
    assert "e" in reps and "a^1" in reps and "a^-1" in reps
    for c in cs:
        assert c.rep.first_part() != F2.part_index("b")
        assert c.rep.length("b") <= 1
