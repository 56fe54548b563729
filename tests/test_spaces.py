import io
import itertools
import math
from fractions import Fraction
from hashlib import blake2b
from pathlib import Path

import pytest

from orbitlab import verify
from orbitlab.actions import diagonal_translate, quotient_normalize
from orbitlab.cli import run_suite
from orbitlab.constructions import increment_family
from orbitlab.groups import cyclic, klein_four, s3
from orbitlab.spaces import (BudgetExceededError, CosetIndex, CylinderDistribution,
                             ExplicitConfiguration,
                             GroupIndex, IntIndex, MissingCoordinateError,
                             RecordingConfiguration, SeededConfiguration, Space,
                             derive_seed, enumerate_window,
                             exact_distribution,
                             keyed_state, prf_value, sample, sample_stream,
                             sample_window_values, window_slots)
from orbitlab.verify import WindowFunction, coordinate_variable
from orbitlab.words import Word, ball, coset, free_group

F2 = free_group("a", "b")
Z2 = cyclic(2)
Z3 = cyclic(3)
SUITES = Path(__file__).resolve().parents[1] / "src" / "orbitlab" / "suites"


def zspace(alphabet=Z2):
    return Space(IntIndex(), alphabet)


def f2space(alphabet=Z2):
    return Space(GroupIndex(F2), alphabet)


def test_sampling_deterministic():
    sp = f2space()
    x = sample(sp, 7)
    y = sample(sp, 7)
    for g in ball(F2, 3):
        assert x.value(g) == y.value(g)
    # access order never changes values
    z = sample(sp, 7)
    order = list(reversed(ball(F2, 3)))
    assert [z.value(g) for g in order] == [x.value(g) for g in order]


def test_sampling_distinct_seeds_differ():
    sp = f2space()
    x, y = sample(sp, 1), sample(sp, 2)
    assert any(x.value(g) != y.value(g) for g in ball(F2, 4))


def test_sampling_frequency_within_3_sigma():
    sp = zspace()
    x = sample(sp, 20240601)
    n = 10 ** 4
    zeros = sum(1 for i in range(n) if x.value(i) == 0)
    sigma = math.sqrt(n * 0.25)
    assert abs(zeros - n / 2) <= 3 * sigma


def test_sampling_pair_correlation_within_3_sigma():
    sp = zspace()
    n = 10 ** 4
    agree = 0
    for x in sample_stream(sp, 99, n):
        agree += 1 if x.value(0) == x.value(1) else 0
    sigma = math.sqrt(n * 0.25)
    assert abs(agree - n / 2) <= 3 * sigma


def test_explicit_configuration_raises_outside_window():
    sp = f2space()
    x = ExplicitConfiguration(sp, {F2.identity(): 1})
    assert x.value(F2.identity()) == 1
    with pytest.raises(MissingCoordinateError):
        x.value(F2.generator("a"))


def test_exact_distribution_single_coordinate_uniform():
    sp = f2space(klein_four())
    e = F2.identity()
    dist = exact_distribution(sp, [coordinate_variable(sp, e)], [e])
    assert dist.is_uniform([4])
    assert all(p == Fraction(1, 4) for p in dist.outcomes.values())


def test_exact_distribution_difference_uniform():
    sp = f2space(Z2)
    g, h = F2.identity(), F2.generator("a")

    def diff(c):
        return (Z2.inv(c.value(g)) + c.value(h)) % 2

    dist = exact_distribution(sp, [WindowFunction("diff", (g, h), 2, diff)], [g, h])
    assert dist.is_uniform([2])
    assert dist.state_count == 4


def test_exact_distribution_constant_point_mass():
    sp = f2space(Z2)
    e = F2.identity()
    dist = exact_distribution(sp, [WindowFunction("one", (), 2, lambda c: 1)], [e])
    assert dist.outcomes == {(1,): Fraction(1)}
    assert dist.state_count == 2


def test_exact_distribution_projections_product():
    sp = f2space(Z2)
    coords = [F2.identity(), F2.generator("a"), F2.generator("b")]
    vars_ = [coordinate_variable(sp, g) for g in coords]
    dist = exact_distribution(sp, vars_, coords)
    assert dist.is_uniform([2, 2, 2])
    assert dist.worst_product_deviation()[0] == 0


def test_exact_distribution_denominators():
    sp = f2space(Z2)
    coords = ball(F2, 1)
    dist = exact_distribution(sp, [coordinate_variable(sp, coords[0])], coords)
    for p in dist.outcomes.values():
        assert (2 ** len(coords)) % p.denominator == 0


def test_exact_distribution_budget():
    sp = f2space(Z2)
    with pytest.raises(BudgetExceededError):
        exact_distribution(sp, [WindowFunction("zero", (), 2, lambda c: 0)], ball(F2, 3),
                           budget=2 ** 10)


def test_variable_escaping_window_detected():
    sp = f2space(Z2)
    a = F2.generator("a")
    with pytest.raises(MissingCoordinateError):
        exact_distribution(sp, [coordinate_variable(sp, a)], [F2.identity()])


def test_quotient_normalize_basics():
    sp = f2space(klein_four())
    e = F2.identity()
    x = sample(sp, 5)
    nx = quotient_normalize(x, e)
    assert nx.value(e) == klein_four().identity
    # idempotent
    nnx = quotient_normalize(nx, e)
    assert all(nnx.value(g) == nx.value(g) for g in ball(F2, 2))
    # orbit invariant: k.x normalizes to the same representative
    for k in range(4):
        kx = diagonal_translate(x, k)
        nkx = quotient_normalize(kx, e)
        assert all(nkx.value(g) == nx.value(g) for g in ball(F2, 2))


def test_quotient_orbit_count():
    # number of diagonal orbits on K^B is |K|^(|B|-1)
    K = cyclic(3)
    sp = f2space(K)
    window = ball(F2, 1)[:3]
    reps = set()
    for config in enumerate_window(sp, window):
        nx = quotient_normalize(config, window[0])
        reps.add(tuple(nx.value(c) for c in window))
    assert len(reps) == K.size ** (len(window) - 1)


def test_coset_index_canonicalizes_words():
    sp = Space(CosetIndex(F2, "b"), Z2)
    x = sample(sp, 3)
    b2a = F2.word("b^2 a^1")
    a = F2.word("a^1")
    assert x.value(b2a) == x.value(a)


def test_equal_point_keys_read_equal_values_at_an_override():
    """A Word override on a coset space overrides its coset, as the Coset
    override with the same point key does."""
    sp = Space(CosetIndex(F2, "b"), Z2)
    w = F2.word("b^1 a^1")
    c = coset(F2, "b", F2.word("a^1"))
    for seed in range(10):
        x = SeededConfiguration(sp, seed, {w: 1})
        y = SeededConfiguration(sp, seed, {c: 1})
        assert x.point_key == y.point_key
        assert [x.value(w), x.value(c)] == [y.value(w), y.value(c)] == [1, 1]


def window_stream_cases():
    Z3 = cyclic(3)
    group_window = ball(F2, 2) + [F2.word("a^1")]          # a listed twice
    coset_space = Space(CosetIndex(F2, "b"), Z3)
    coset_window = [F2.word("b^1 a^1"), coset(F2, "b", F2.word("a^1")),  # one coset
                    F2.word("e"), F2.word("a^-1 b^1"),
                    coset(F2, "b", F2.word("a^2 b^-1 a^1"))]
    return [(f2space(Z3), group_window), (coset_space, coset_window)]


@pytest.mark.parametrize("space, window", window_stream_cases(), ids=["group", "coset"])
def test_window_stream_matches_sample_stream(space, window):
    n = 60
    slots = window_slots(space, window)
    windowed = [ExplicitConfiguration.on_slots(space, slots, values)
                for values in sample_window_values(space, slots, 31, n)]
    seeded = list(sample_stream(space, 31, n))
    assert len(windowed) == len(seeded) == n
    assert [y.seed for y in seeded] == [derive_seed(31, f"sample/{i}") for i in range(n)]
    for x, y in zip(windowed, seeded):
        assert [x.value(c) for c in window] == [y.value(c) for c in window]
        assert [x.value(c) for c in slots] == [y.value(c) for c in slots]
    assert len({tuple(x.value(c) for c in slots) for x in windowed}) > 1
    with pytest.raises(MissingCoordinateError):
        windowed[0].value(F2.word("b^-1 a^3"))


SEEDS = [0, 1, 2 ** 63, 2 ** 64 - 1]
PRF_KEYS = [b"", b"e", b"a^1 b^-1", "sample/7".encode(), b"x" * 200]


@pytest.mark.parametrize("seed", SEEDS)
def test_prf_is_keyed_blake2b_of_the_seed(seed):
    keyed = keyed_state(seed)
    for key in PRF_KEYS:
        digest = blake2b(key, key=seed.to_bytes(8, "little"), digest_size=8).digest()
        expected = int.from_bytes(digest, "little")
        assert prf_value(keyed, key, 2 ** 64) == expected
        for size in (2, 6, 7):
            assert prf_value(keyed, key, size) == expected % size
    assert derive_seed(seed, "sample/7") == prf_value(keyed, b"sample/7", 2 ** 64)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 7, -(2 ** 64)])
def test_seeds_outside_64_bits_are_refused(seed):
    space = zspace()
    for make in (lambda: keyed_state(seed), lambda: derive_seed(seed, "t"),
                 lambda: sample(space, seed), lambda: next(sample_stream(space, seed, 1))):
        with pytest.raises(ValueError, match="outside range"):
            make()


# -- slot-indexed enumeration against a per-state reference --------------------


def reference_distribution(space, variables, window):
    """One Mapping-built configuration and one Fraction add per state."""
    keys = list(window_slots(space, window))
    weight = Fraction(1, space.alphabet.size ** len(keys))
    fns = [v.fn for v in variables]
    outcomes, count = {}, 0
    for values in itertools.product(range(space.alphabet.size), repeat=len(keys)):
        x = ExplicitConfiguration(space, dict(zip(keys, values)))
        key = tuple(fn(x) for fn in fns)
        outcomes[key] = outcomes.get(key, Fraction(0)) + weight
        count += 1
    return outcomes, count


def assert_matches_reference(space, variables, window):
    outcomes, count = reference_distribution(space, variables, window)
    dist = exact_distribution(space, variables, window)
    assert dist.outcomes == outcomes
    assert list(dist.outcomes) == list(outcomes)
    assert dist.state_count == count
    windows = {}
    keys = list(window_slots(space, window))
    for state in enumerate_window(space, window):
        values = {c: state.value(c) for c in keys}
        assert state.point_key == ExplicitConfiguration(space, values).point_key
        assert windows.setdefault(state.point_key, values) == values
    assert len(windows) == count


def test_group_window_enumeration_matches_reference():
    Z3 = cyclic(3)
    sp = f2space(Z3)
    window = ball(F2, 1)          # five slots; the variables leave b^-1 unread
    e, a_inv, a, _, b = window
    fresh = [Word(F2, g.syllables) for g in (e, a, b)]   # interned: identical
    assert all(f is g for f, g in zip(fresh, (e, a, b)))

    def pair_max(x, g=fresh[0], h=fresh[1]):
        return max(x.value(g), x.value(h))

    variables = [
        WindowFunction("max", (fresh[0], fresh[1]), 3, pair_max),
        WindowFunction("b", (fresh[2],), 3, lambda x, g=fresh[2]: x.value(g)),
        WindowFunction("prod", (a_inv, e), 3, lambda x: (x.value(a_inv) * x.value(e)) % 3),
        WindowFunction("eq", (a, b), 2, lambda x: int(x.value(a) == x.value(b))),
    ]
    assert_matches_reference(sp, variables, window)


def test_coset_window_enumeration_matches_reference():
    sp = Space(CosetIndex(F2, "b"), Z2)
    words = [F2.word(t) for t in ("e", "a^1", "a^-1", "a^1 b^1 a^1", "a^2")]
    window = list(words)
    # Word reads whose cosets are window slots: (b)b^3 a = (b)a, and so on
    ba = F2.word("b^3 a^1")
    ba_inv = F2.word("b^-1 a^-1")
    b2 = F2.word("b^2")                                  # the coset (b)e
    variables = [
        WindowFunction("sum", (ba, words[0]), 3, lambda x: x.value(ba) + x.value(words[0])),
        WindowFunction("prod", (ba_inv, words[3]), 2,
                       lambda x: x.value(ba_inv) * x.value(words[3])),
        coordinate_variable(sp, b2),
    ]
    assert_matches_reference(sp, variables, window)
    with pytest.raises(MissingCoordinateError):
        exact_distribution(sp, [coordinate_variable(sp, F2.word("a^3"))], window)


# -- summing out the window coordinates no variable declares --------------------


def counted(v: WindowFunction, calls: list) -> WindowFunction:
    """The variable v, appending to `calls` once per evaluation."""
    def fn(x):
        calls.append(None)
        return v.fn(x)
    return WindowFunction(v.name, v.coords, v.support, fn)


def declared_family_cases():
    e, a_inv, a, _, b = ball(F2, 1)
    z2 = (f2space(Z2), increment_family(F2, Z2, 1), ball(F2, 2), 11)
    # radius-0 increments and a max read e, a and b; a^-1 and b^-1 are unread
    z3_family = increment_family(F2, Z3, 0) + [
        WindowFunction("max", (e, a), 3, lambda x: max(x.value(e), x.value(a)))]
    z3 = (f2space(Z3), z3_family, [e, a_inv, a, b, F2.word("b^-1")], 3)
    # declared Words name the cosets (b)a, (b)e and (b)aba; (b)a^-1 and
    # (b)a^2 are unread
    ba, e_word, baba = F2.word("b^3 a^1"), F2.word("b^1"), F2.word("b^-1 a^1 b^1 a^1")
    coset_family = [
        WindowFunction("ba+e", (ba, e_word), 2, lambda x: (x.value(ba) + x.value(e_word)) % 2),
        WindowFunction("baba", (baba,), 2, lambda x: x.value(baba)),
        WindowFunction("baba*ba", (baba, ba), 2, lambda x: x.value(baba) * x.value(ba)),
    ]
    coset_window = [F2.word(t) for t in ("e", "a^1", "a^-1", "a^1 b^1 a^1", "a^2")]
    cosets = (Space(CosetIndex(F2, "b"), Z2), coset_family, coset_window, 3)
    return [z2, z3, cosets]


@pytest.mark.parametrize("space, family, window, read", declared_family_cases(),
                         ids=["z2-increments-ball-2", "z3-unread-slots", "coset-words"])
def test_declared_family_sums_out_unread_window_coordinates(space, family, window, read):
    """Only the `read` declared window slots are enumerated, and the law,
    its insertion order and `state_count` are those of the whole window."""
    calls: list = []
    dist = exact_distribution(space, [counted(family[0], calls)] + family[1:], window)
    outcomes, count = reference_distribution(space, family, window)
    size = space.alphabet.size
    assert len(calls) == size ** read
    assert dist.outcomes == outcomes
    assert list(dist.outcomes) == list(outcomes)
    assert dist.state_count == count == size ** len(window_slots(space, window))


def test_declared_family_reading_an_undeclared_window_coordinate_raises():
    sp = f2space(Z2)
    e, a = F2.identity(), F2.generator("a")
    sneaky = WindowFunction("sneaky", (e,), 2, lambda x: x.value(a))
    with pytest.raises(MissingCoordinateError):
        exact_distribution(sp, [sneaky], [e, a])


def test_budget_bounds_the_whole_window_of_a_declared_family():
    with pytest.raises(BudgetExceededError) as err:
        exact_distribution(f2space(Z2), increment_family(F2, Z2, 1), ball(F2, 2),
                           budget=2 ** 16)
    assert str(err.value) == "131072 window states exceed budget 65536"


def assert_reads_only_declared(space, family, seeds=(3, 7, 11)):
    for v in family:
        declared = {space.coord_key(c) for c in v.coords}
        for seed in seeds:
            log: set = set()
            v.fn(RecordingConfiguration(sample(space, seed), log))
            assert log and log <= declared, (v.name, log, declared)


@pytest.mark.parametrize("K", [Z2, Z3, s3()], ids=["z2", "z3", "s3"])
def test_increment_family_reads_only_declared_coordinates(K):
    assert_reads_only_declared(f2space(K), increment_family(F2, K, 1))


def test_coordinate_variable_reads_only_declared_coordinates():
    sp = Space(CosetIndex(F2, "b"), Z3)
    family = [coordinate_variable(sp, F2.word(t)) for t in ("b^2 a^1", "e", "a^-1 b^1")]
    assert_reads_only_declared(sp, family)
    assert_reads_only_declared(f2space(Z3), [coordinate_variable(f2space(Z3), g)
                                             for g in ball(F2, 1)])


@pytest.mark.parametrize("check, families", [
    ("lemma-factor", 2),                     # the restriction and transversal families
    ("coinduction-characterization", 2),     # the transversal family of each instance
])
def test_shipped_exact_families_read_only_declared_coordinates(
        monkeypatch, tmp_path, check, families):
    """Every family the shipped check hands to `exact_distribution` reads
    only its declared coordinates, so summing out the rest is sound."""
    seen = []
    real = verify.exact_distribution

    def spy(space, variables, window, budget):
        seen.append((space, list(variables)))
        return real(space, variables, window, budget)

    monkeypatch.setattr(verify, "exact_distribution", spy)
    assert run_suite(SUITES / "standard.cfg", tmp_path, only=check,
                     stream=io.StringIO()) == 0
    assert len(seen) == families
    for space, family in seen:
        assert_reads_only_declared(space, family)


def reference_worst_product_deviation(dist):
    """The Fraction loop: marginals, their product law, the first strict
    maximum of |product - joint| over set(product) | set(joint)."""
    margs = []
    for i in range(len(dist.names)):
        m: dict = {}
        for o, p in dist.outcomes.items():
            m[o[i]] = m.get(o[i], Fraction(0)) + p
        margs.append(m)
    prod = {}
    for combo in itertools.product(*[sorted(m.items()) for m in margs]):
        p = Fraction(1)
        for _, q in combo:
            p *= q
        prod[tuple(v for v, _ in combo)] = p
    worst, witness = Fraction(0), None
    for k in set(prod) | set(dist.outcomes):
        d = abs(prod.get(k, Fraction(0)) - dist.outcomes.get(k, Fraction(0)))
        if d > worst:
            worst, witness = d, k
    return worst, witness


def reads(name, tokens, fn):
    """The variable fn(x_w for w in the words named by tokens), declaring them."""
    words = tuple(F2.word(t) for t in tokens)
    return WindowFunction(name, words, 3, lambda x: fn(*[x.value(w) for w in words]))


@pytest.mark.parametrize("variables", [
    [reads("e", ["e"], int)] * 2,
    [reads("e", ["e"], int), reads("a*e", ["a^1", "e"], lambda a, e: a * e),
     reads("max", ["b^1", "a^1"], max)],
    [reads("e+a", ["e", "a^1"], lambda e, a: (e + a) % 3), reads("b^-1", ["b^-1"], int)],
], ids=["duplicate", "dependent-triple", "product"])
def test_worst_product_deviation_matches_the_fraction_loop(variables):
    dist = exact_distribution(f2space(Z3), variables, ball(F2, 1))
    assert dist.worst_product_deviation() == reference_worst_product_deviation(dist)
    empty = CylinderDistribution((), {(): Fraction(1)}, 1)
    assert empty.worst_product_deviation() == (Fraction(0), None)
