import contextlib
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from orbitlab.actions import BernoulliShift
from orbitlab.cocycles import Cocycle, CocycleTarget, verify_identity, verify_inverse_pair
from orbitlab.constructions import (AxisView, CylinderAction, FactorSetting,
                                    StarAction, build_cylinder_oe,
                                    component_twist_system, coset_freshness_report,
                                    cylinder_measure_report, degenerate_stable_oe,
                                    dependency_radius_report, edge_increments,
                                    extension_action_report,
                                    extension_distinctness_report,
                                    extension_independence_report,
                                    factor_quotient_reconstructor, factor_restriction,
                                    free_action_on_cosets, increment_equivariance_report,
                                    increment_alphabet, increment_grouped_reports,
                                    increment_roundtrip_report, integrate_increments,
                                    match_determinacy_report, match_measure_report,
                                    orbit_section, parenthesis_match, quotient_rho,
                                    radix_decode, radix_encode,
                                    restriction_consequence_report,
                                    restriction_equivariance_report, restriction_family,
                                    section_report, star_conjugation_report,
                                    star_injectivity_report, star_orbit_report,
                                    star_relation_report, _grade_and_offset, _letters)
from orbitlab.groups import cyclic, s3
from orbitlab.spaces import (Configuration, ExplicitConfiguration, IntIndex,
                             RecordingConfiguration, SeededConfiguration, Space,
                             SummarizedConfiguration, _Summarized, agree_on,
                             derive_seed, read_summaries, sample, sample_stream,
                             seed_stream)
from orbitlab.verify import (UndeterminedError, coordinate_variable, homogeneity_mc,
                             independence_exact)
from orbitlab.actions import check_coinduced_characterization
from orbitlab.words import Word, ball, coset, cosets_ball, extension_sphere, free_group

Z2 = cyclic(2)
F2 = free_group("a", "b")


# -- increments -----------------------------------------------------------------


def test_increments_constant_configuration():
    shift = BernoulliShift(F2, Z2)
    x = ExplicitConfiguration(shift.space, {g: 1 for g in ball(F2, 2)})
    v = edge_increments(x)
    for g in ball(F2, 1):
        assert v.value(g) == 0
        assert v.space.alphabet.names[v.value(g)] == "0|0"


def test_increments_diagonal_invariance():
    from orbitlab.actions import diagonal_translate
    shift = BernoulliShift(F2, s3())
    x = sample(shift.space, 4)
    v = edge_increments(x)
    for k in range(6):
        vk = edge_increments(diagonal_translate(x, k))
        assert agree_on(vk, v, ball(F2, 2))


def test_increment_equivariance_report():
    assert increment_equivariance_report(F2, Z2, 2, 10, seed=5).verdict == "pass"


def test_increment_roundtrip_reports():
    assert increment_roundtrip_report(F2, Z2, 3, 10, seed=6).verdict == "pass"
    assert increment_roundtrip_report(F2, s3(), 2, 5, seed=7).verdict == "pass"


def test_integrate_trivial_increments():
    codes = increment_alphabet(Z2, 2)
    vspace = Space(BernoulliShift(F2, Z2).space.index, codes)
    v = ExplicitConfiguration(vspace, {g: codes.names.index("0|0") for g in ball(F2, 2)})
    x = integrate_increments(v, 2, Z2)
    assert all(x.value(g) == Z2.identity for g in ball(F2, 2))


@pytest.mark.parametrize("n", [2, 3])
def test_increment_codes_are_mixed_radix(n):
    # the code of (k_1, ..., k_n) is sum k_i 6^(n-i), which is the position
    # of the tuple when the last component varies fastest; the sampled
    # increment configurations of the roundtrip rely on that order
    K = s3()
    tuples = [()]
    for _ in range(n):
        tuples = [t + (k,) for t in tuples for k in range(K.size)]
    codes = increment_alphabet(K, n)
    assert codes.label == f"S3^{n}" and codes.size == 6 ** n
    for position, t in enumerate(tuples):
        assert radix_encode(t, K.size) == sum(k * 6 ** (n - 1 - i) for i, k in enumerate(t))
        assert radix_encode(t, K.size) == position
        assert radix_decode(position, K.size, n) == t
        assert codes.names[position] == "|".join(K.names[k] for k in t)
    # an increment view's value is the code of its component tuple
    spec = free_group(*"abc"[:n])
    x = sample(BernoulliShift(spec, K).space, 3)
    v = edge_increments(x)
    for g in ball(spec, 1):
        comps = tuple(K.mul(K.inv(x.value(g)), x.value(spec.generator(p.name) * g))
                      for p in spec.parts)
        assert v.value(g) == radix_encode(comps, K.size)


def test_increment_grouped_exact_checks_s3():
    reports = increment_grouped_reports(F2, s3(), 1, budget=6 ** 5)
    assert reports
    assert all(r.verdict == "pass" for r in reports)
    # every enumeration stayed within the allowed per-check window
    assert all(r.statistics["states"] <= 6 ** 5 for r in reports)


# -- free-factor restriction ------------------------------------------------------


def setting22():
    return FactorSetting(cyclic(2, "g"), cyclic(2, "h"), Z2)


def test_factor_restriction_constant():
    st = setting22()
    x = ExplicitConfiguration(
        st.shift.space,
        {coset(st.spec, st.gamma, w): 1 for w in
         ball(st.spec, 2, parts="g2", mode="syllables")})
    values, increments = factor_restriction(x, st.gamma, st.lam_group, st.lam)
    assert all(v == 1 for v in values.values())
    assert all(i == Z2.identity for i in increments.values())


def test_restriction_consequence_and_equivariance():
    st = setting22()
    assert restriction_consequence_report(st, 2, 20, seed=8).verdict == "pass"
    assert restriction_equivariance_report(st, 20, seed=9).verdict == "pass"


def test_restriction_family_independent_radius1():
    from orbitlab.verify import independence_exact
    st = setting22()
    family = restriction_family(st, 1)
    report = independence_exact(st.shift.space, family, require_uniform=True)
    assert report.verdict == "pass"


def test_factor_quotient_characterization():
    st = setting22()
    rho = quotient_rho(st)
    _, _, act, _ = __import__("orbitlab.constructions", fromlist=["quotient_code"]) \
        .quotient_code(st)
    reconstructor = factor_quotient_reconstructor(st, 2)
    report = check_coinduced_characterization(
        st.quotient, rho, act, st.lam, 2,
        transversal_kwargs={"parts": "g2", "mode": "syllables"},
        reconstructor=reconstructor,
        canonicalize=st.quotient.normalize, samples=10, seed=10)
    assert report.verdict == "pass"


# -- star actions ----------------------------------------------------------------


def z2_system(twist_nontrivial=True):
    lam, K = cyclic(2, "p"), cyclic(2, "k")
    ident_aut = (0, 1)
    trivial = [0, 0]
    twisted = [0, 1] if twist_nontrivial else trivial
    return component_twist_system(lam, K, [(ident_aut, trivial), (ident_aut, twisted)])


def test_component_twist_system_valid():
    sys_ = z2_system()
    eta, eta_prime = sys_.solve_transport()
    assert len(eta) == len(eta_prime) == 2 * sys_.alphabet.size
    # the two directions invert each other on every point
    for (l0, v), (l1, k) in eta.items():
        l0_back, k_back = eta_prime[(l1, v)]
        assert l0_back == l0
        assert sys_.actk.act(k_back, sys_.act0.act(l0, v)) == sys_.act1.act(l1, v)


def test_star_cocycles_keep_their_names_and_entry_keys():
    star = StarAction(cyclic(2, "c"), z2_system())
    om, omp = star.omega(), star.omega_prime()
    assert (om.name, omp.name) == ("star-transport", "star-transport-inverse")
    assert list(om.entries) == [("f", star.gamma0, 1), ("f", star.lam0, 1)]
    assert list(omp.entries) == [("f", star.gamma1, 1), ("f", star.lam1, 1)]
    assert om.source is star and omp.source is star.dot
    assert (om.target.spec, omp.target.spec) == (star.spec1, star.spec0)


def test_star_reports_z2():
    star = StarAction(cyclic(2, "c"), z2_system())
    assert star_relation_report(star, 4, 5, seed=11).verdict == "pass"
    assert star_orbit_report(star, 2, 5, seed=12).verdict == "pass"
    assert star_injectivity_report(star, 2, 5, seed=13).verdict == "pass"
    assert star_conjugation_report(star).verdict == "pass"


def test_star_conjugation_nonabelian():
    K = s3()
    lam = cyclic(2, "p")
    transposition = K.names.index("102")
    assert K.element_order(transposition) == 2
    sys_ = component_twist_system(lam, K, [((0, 1), [K.identity, K.identity]),
                                           ((0, 1), [K.identity, transposition])])
    star = StarAction(cyclic(2, "c"), sys_)
    assert star_conjugation_report(star).verdict == "pass"
    assert star_relation_report(star, 2, 3, seed=14).verdict == "pass"


def test_star_conjugate_case_word_part_is_relabeling():
    star = StarAction(cyclic(2, "c"), z2_system())
    om = star.omega()
    for y in sample_stream(star.space, 15, 5):
        for g in ball(star.spec0, 2, mode="syllables"):
            w, _ = om.evaluate(g, y)
            assert w == star.spec1.word(g.tokens())


def test_star_point_dependent_word_part():
    # mixed per-component automorphisms of Z/3 make the word part of the
    # transport genuinely point-dependent
    lam, K = cyclic(3, "p"), cyclic(2, "k")
    ident_aut = (0, 1, 2)
    inversion = (0, 2, 1)
    trivial = [0, 0, 0]
    sys_ = component_twist_system(lam, K, [(ident_aut, trivial), (inversion, trivial)])
    star = StarAction(cyclic(2, "c"), sys_)
    lam_letter = star.spec0.finite_element(star.lam0, 1)
    om = star.omega()
    seen = set()
    for y in sample_stream(star.space, 16, 10):
        seen.add(om.evaluate(lam_letter, y)[0])
    assert len(seen) == 2
    assert star_relation_report(star, 2, 4, seed=17).verdict == "pass"
    assert star_orbit_report(star, 2, 4, seed=18).verdict == "pass"
    assert star_injectivity_report(star, 2, 4, seed=19).verdict == "pass"


# -- parenthesis matching and the cylinder system ---------------------------------


class ShiftedZ(Configuration):
    """value(n) = z.value(n + shift): the reference shift of a Z-point."""

    def __init__(self, z, shift):
        self.space, self.z, self.shift = z.space, z, shift

    def value(self, coord):
        return self.z.value(coord + self.shift)

    @property
    def point_key(self):
        return ("shifted-z", self.shift, self.z.point_key)


def zconfig(values: dict, seed=0):
    return SeededConfiguration(Space(IntIndex(), Z2), seed, values)


def test_parenthesis_match_adjacent():
    z = zconfig({0: 0, 1: 1})
    assert parenthesis_match(z, 1, 8) == 1


def test_parenthesis_match_nested():
    z = zconfig({0: 0, 1: 0, 2: 1, 3: 1})
    assert parenthesis_match(z, 1, 8) == 3
    inner = ShiftedZ(z, 1)
    assert parenthesis_match(inner, 1, 8) == 1


@pytest.mark.parametrize("values, symbol, inverse", [
    ({0: 0, 1: 0}, 0, False),
    ({0: 0, -1: 0}, 0, True),
    ({0: 1, 1: 1}, 1, False),
    ({0: 0, -1: 0}, 1, True),
], ids=["target-0-forward", "target-0-inverse", "forward-off-0", "inverse-off-target"])
def test_parenthesis_match_rejects_a_bad_origin_or_target(values, symbol, inverse):
    with pytest.raises(ValueError):
        parenthesis_match(zconfig(values), symbol, 8, inverse)


def test_parenthesis_match_involution():
    space = Space(IntIndex(), Z2)
    for i in range(50):
        z = SeededConfiguration(space, derive_seed(20, str(i)), {0: 0})
        try:
            m = parenthesis_match(z, 1, 128)
        except UndeterminedError:
            continue
        back = parenthesis_match(ShiftedZ(z, m), 1, 128, inverse=True)
        assert back == -m


def test_parenthesis_escape_arithmetic():
    # A forward match escapes radius n exactly when the nesting depth of the
    # n fair symbols after the origin never drops below zero, which happens
    # for C(n, n/2) of the 2^n sequences: C(64,32)/2^64 = 9.93% at radius 64.
    space = Space(IntIndex(), Z2)
    escapes = 0
    for bits in itertools.product((0, 1), repeat=14):
        z = ExplicitConfiguration(space, dict(enumerate((0,) + bits)))
        try:
            parenthesis_match(z, 1, 14)
        except UndeterminedError:
            escapes += 1
    assert escapes == math.comb(14, 7) == 3432
    depths = {0: Fraction(1)}
    for _ in range(64):
        step: dict = {}
        for d, p in depths.items():
            step[d + 1] = step.get(d + 1, 0) + p / 2
            if d:
                step[d - 1] = step.get(d - 1, 0) + p / 2
        depths = step
    escape = sum(depths.values())
    assert escape == Fraction(math.comb(64, 32), 2 ** 64)
    assert round(float(escape), 4) == 0.0993


def test_criterion_5e_measurement_matches_escape_probability():
    # The README's 5e figure is the exact escape probability C(64,32)/2^64
    # measured on 10^4 samples: it must sit within 3 binomial standard errors.
    samples = 10 ** 4
    report = match_determinacy_report(2, 64, samples, derive_seed(20240601, "c5/det"),
                                      context_radius=64)
    measured = report.statistics["unresolved_frequency"]
    exact = Fraction(math.comb(64, 32), 2 ** 64)
    stderr = math.sqrt(exact * (1 - exact) / samples)
    assert abs(float(measured - exact)) <= 3 * stderr


def test_cylinder_measure():
    system = CylinderAction(2, 32)
    report = cylinder_measure_report(system)
    assert report.verdict == "pass"
    assert report.statistics["measure"] == Fraction(1, 2)


def test_cylinder_orbit_membership():
    system = CylinderAction(2, 64)
    om = system.omega()
    words = ball(system.spec_up, 1, parts=system.b_parts, exponent_bound=1)
    window = [_axis_coset(system, n) for n in range(-3, 4)]
    checked = 0
    for i in range(8):
        x = system.sample_in_cylinder(derive_seed(21, str(i)))
        for g in words:
            try:
                left = system.apply(g, x)
                right = system.twisted.apply(om.evaluate(g, x), x)
            except UndeterminedError:
                continue
            assert agree_on(left, right, window)
            assert left.value(system.base) == 0  # stays in the cylinder
            checked += 1
    assert checked > 20


def test_cylinder_inverse_pair_small():
    system = CylinderAction(2, 64)
    words = ball(system.spec_up, 2, parts=system.b_parts, exponent_bound=1)
    points = [system.sample_in_cylinder(derive_seed(22, str(i))) for i in range(10)]
    report = verify_inverse_pair(
        system.omega(), system.omega_prime(), words, points,
        lengths=(system.b_length_up, system.b_length_down))
    assert report.verdict in ("pass", "undetermined")
    assert report.statistics["checked"] > 0
    assert report.counterexample is None


def test_cylinder_identity_small():
    system = CylinderAction(2, 64)
    words = ball(system.spec_up, 1, parts=system.b_parts, exponent_bound=1)
    pairs = list(itertools.product(words, words))
    points = [system.sample_in_cylinder(derive_seed(23, str(i))) for i in range(5)]
    report = verify_identity(system.omega(), pairs, points)
    assert report.verdict in ("pass", "undetermined")
    assert report.counterexample is None


def test_cylinder_corrupted_matching_fails():
    system = CylinderAction(2, 64)
    good = system.omega()
    entries = dict(good.entries)
    # drop the closing-side matching word: the composite inverse breaks at
    # words of combined grade 2
    entries[("g", system.spec_up.part_index("b0"))] = \
        lambda x: system.b0 * system.phi_word(0, x)
    bad = Cocycle(system, CocycleTarget(spec=system.f2), entries, "corrupted")
    b0 = system.spec_up.generator("b0")
    words = [b0, b0 * b0]
    points = [system.sample_in_cylinder(derive_seed(24, str(i))) for i in range(10)]
    report = verify_inverse_pair(bad, system.omega_prime(), words, points)
    assert report.verdict == "fail"


def test_eta_prime_inverts_returns():
    system = CylinderAction(2, 64)
    for i in range(20):
        z = system.rho(system.sample_in_cylinder(derive_seed(25, str(i))))
        assert z.value(0) == 0
        try:
            for n in (-2, -1, 1, 2):
                eta = system.oracle.eta(n, z)
                assert system.eta_prime(eta, z) == n
        except UndeterminedError:
            continue


def _axis_coset(system, k, u0=()):
    """The coset (b)a^k u0, built from the word a^k u0: the reference the
    tapes' coordinate keys are compared with."""
    return coset(system.f2, "b", system.a0 ** k * Word(system.f2, u0))


class DirectAxis(Configuration):
    """value(n) = (twist + x at the coset of a^(n + shift)) mod kappa, read one
    coordinate at a time through x: the reference the tapes must agree with."""

    def __init__(self, system, x, shift=0, twist=0):
        self.space = system.oracle.space
        self.system = system
        self.x = x
        self.shift = shift
        self.twist = twist

    def value(self, coord):
        return (self.twist + self.x.value(_axis_coset(self.system, coord + self.shift))) \
            % self.system.kappa

    @property
    def point_key(self):
        return ("direct-axis", self.shift, self.twist, self.x.point_key)


def _outcome(scan):
    try:
        return scan()
    except UndeterminedError:
        return "undetermined"


def _scans(kappa, origin):
    """(symbol, inverse) pairs a point with this origin symbol can match."""
    if origin == 0:
        return [(symbol, False) for symbol in range(1, kappa)]
    return [(origin, True)]


def _axis_words(system):
    """Words a^m u0 for several u0 without a leading a, and several m."""
    a, b = system.a0, system.b0
    prefixes = [system.f2.identity(), b, b ** -1, b * a * b, b ** 2 * a ** -1]
    return [a ** m * u0 for u0 in prefixes for m in (-5, -1, 0, 2, 7)]


@pytest.mark.parametrize("kappa", [2, 3])
def test_tape_matches_equal_direct_scans(kappa):
    for radius in range(1, 65):
        system = CylinderAction(kappa, radius)
        x = system.sample_in_cylinder(derive_seed(40, f"{kappa}/{radius}"))
        points = [system.twisted.apply(w, x) for w in _axis_words(system)]
        lines = []
        for y in points:
            # every shift and twist of the same tape, not only those rho makes
            axis = system.rho(y)
            lines += [(AxisView(axis.space, axis.tape, axis.m + j, (axis.t + t) % kappa),
                       DirectAxis(system, y, j, t))
                      for j in (0, 3) for t in range(kappa)]
        for _ in range(2):  # the second pass is answered from the tapes' matches
            for axis, direct in lines:
                for symbol, inverse in _scans(kappa, direct.value(0)):
                    assert _outcome(lambda: system.match(axis, symbol, inverse)) == \
                        _outcome(lambda: parenthesis_match(direct, symbol, radius, inverse))


def test_tape_reads_the_cosets_a_direct_scan_reads():
    system = CylinderAction(3, 16)
    base = system.sample_in_cylinder(derive_seed(42, "reads"))
    tape_log, direct_log = set(), set()
    tape_base = RecordingConfiguration(base, tape_log)
    direct_base = RecordingConfiguration(base, direct_log)
    words = _axis_words(system)
    for w in words + words:
        axis = system.rho(system.twisted.apply(w, tape_base))
        direct = DirectAxis(system, system.twisted.apply(w, direct_base))
        for symbol, inverse in _scans(3, direct.value(0)):
            _outcome(lambda: system.match(axis, symbol, inverse))
            _outcome(lambda: parenthesis_match(direct, symbol, 16, inverse))
        for step in (1, -1):
            _outcome(lambda: system.oracle.first_return(axis, step))
            _outcome(lambda: system.oracle.first_return(direct, step))
    assert len(direct_log) > 100
    assert tape_log == direct_log


class KeySpy(SeededConfiguration):
    """A seeded point that logs each coordinate key read through `read_key`."""

    def __init__(self, space, seed, overrides):
        super().__init__(space, seed, overrides)
        self.keys = []

    def read_key(self, key):
        self.keys.append(key)
        return super().read_key(key)


def _tape_prefixes(system):
    """u0 = e, a u0 that is one b syllable, and b a^-2 b^-1."""
    a, b = system.a0, system.b0
    return [(), b.syllables, (b * a ** -2 * b ** -1).syllables]


def _tape(system, x, u0):
    return system.rho(system.twisted.apply(Word(system.f2, u0), x)).tape


@pytest.mark.parametrize("recording", [False, True], ids=["seeded", "recording"])
def test_tape_reads_every_cell_once_by_its_coordinate_key(recording):
    # dependency_radius_report reads the log of a recording point, so a tape
    # over one must log the keys it reads through it
    system = CylinderAction(2, 64)
    prefixes = _tape_prefixes(system)
    seed = derive_seed(44, "keys")
    plain = SeededConfiguration(system.space, seed)
    # the base coordinate (a k = 0 cell of two tapes) and two k != 0 cells
    flipped = [system.base, _axis_coset(system, 3, prefixes[2]), _axis_coset(system, -4)]
    x = KeySpy(system.space, seed, {c: 1 - plain.value(c) for c in flipped})
    log = set()
    point = RecordingConfiguration(x, log) if recording else x
    cells, keys = {}, set()
    for u0 in prefixes:
        tape = _tape(system, point, u0)
        assert tape.base is point and tape.u0 == u0
        for again in (False, True):  # a cell already read is not read again
            for k in range(-70, 71):
                c = _axis_coset(system, k, u0)
                key = system.space.coord_key(c)
                x.keys.clear()
                cells[c] = tape.value(k)
                assert x.keys == ([] if again else [key])
                keys.add(key)
        for k in (-1000, 1000):  # a far read holds its own cell, not a gap
            c = _axis_coset(system, k, u0)
            cells[c] = tape.value(k)
            keys.add(system.space.coord_key(c))
        assert set(tape.cells) == {*range(-70, 71), -1000, 1000}
    assert not x._cache   # no cell went through the point's cache
    assert log == (keys if recording else set())
    assert len(cells) == len(keys) == 3 * 143 - 1  # the k = 0 cells of e and b are both (b)
    for c, v in cells.items():
        assert v == x.value(c)
    for c in flipped:
        assert cells[c] == 1 - plain.value(c)


def test_a_tape_cell_folds_the_grade_and_offset_of_its_key():
    # a tape folds each cell from u0's letter counts, not from the key it
    # reads, and folds a kept cell again; cell 0 drops u0's first syllable
    system = CylinderAction(2, 64)
    x = system.sample_in_cylinder(derive_seed(44, "fold"))
    for u0 in _tape_prefixes(system):
        tape = _tape(system, x, u0)
        for _ in range(2):
            for k in range(-3, 4):
                key = system.space.coord_key(_axis_coset(system, k, u0))
                _, summary = read_summaries.measure(tape.value, k)
                assert summary == list(_grade_and_offset(system.f2, key))


# -- point-scoped memos ------------------------------------------------------------


def _roots(key) -> set:
    """The point keys a memo or tape key is built on: its nested
    ("seeded", ...), ("recording", n) and ("summarized", ...) tuples."""
    if not isinstance(key, tuple):
        return set()
    if key and key[0] in ("seeded", "recording", "summarized"):
        return {key}
    return set().union(*map(_roots, key))


def _assert_scoped_to(last, system, om):
    keys = [*system._memo, *system._tapes, *om._memo]
    assert system._memo and system._tapes and om._memo
    for key in keys:
        assert _roots(key) == {last}, key


def test_point_loops_keep_only_the_last_points_entries():
    system = CylinderAction(2, 32)
    om = system.omega()
    words = ball(system.spec_up, 1)
    points = [system.sample_in_cylinder(s) for s in seed_stream(61, "scope", 3)]
    verify_identity(om, list(itertools.product(words, words)), points)
    _assert_scoped_to(points[-1].point_key, system, om)

    system = CylinderAction(2, 32)
    made = []
    omega = system.omega
    system.omega = lambda: made.append(omega()) or made[-1]
    seed = derive_seed(61, "dep")
    dependency_radius_report(system, 2, 3, seed)
    # tape cells are read by key, so the reads intern no a^k u0 word
    assert len(system.f2._words) < 2_000
    # all words of a point read one summarized point, keyed on the point's own key
    *_, s = seed_stream(seed, "dep", 3)
    last = ("summarized", system.sample_in_cylinder(s).point_key)
    _assert_scoped_to(last, system, made[0])


def test_forget_drops_the_entries_of_the_source_action():
    shift = BernoulliShift(F2, Z2)
    state = dict(vars(shift))
    shift.forget()
    assert vars(shift) == state
    system = CylinderAction(2, 64)
    om = system.omega()
    x = system.sample_in_cylinder(derive_seed(61, "forget"))
    for g in ball(system.spec_up, 2):
        with contextlib.suppress(UndeterminedError):
            om.evaluate(g, x)
    assert om._memo and system._memo and system._tapes
    om.forget()
    assert not om._memo and not system._memo and not system._tapes


def _reference_return(z, direction, radius):
    """Offset of the first 0 after the origin of z, scanned one cell at a time."""
    for j in range(1, radius + 1):
        if z.value(direction * j) == 0:
            return direction * j
    raise UndeterminedError("no return")


def _reference_eta(z, n, radius):
    """eta(n, z) found from the origin of z shifted by each return so far."""
    if z.value(0) != 0:
        raise ValueError("point outside the inducing cylinder")
    eta, step = 0, 1 if n >= 0 else -1
    for _ in range(abs(n)):
        eta += _reference_return(ShiftedZ(z, eta), step, radius)
    return eta


def _reference_steps_to(z, total, radius):
    direction = 1 if total > 0 else -1
    eta = m = 0
    while abs(eta) < abs(total):
        eta += _reference_return(ShiftedZ(z, eta), direction, radius)
        m += direction
    if eta != total:
        raise ValueError("target shift is not a return of the induced map")
    return m


def _outcome_or_error(scan):
    try:
        return scan()
    except (UndeterminedError, ValueError) as err:
        return type(err).__name__


@pytest.mark.parametrize("kappa", [2, 3])
def test_return_offsets_equal_scans_of_shifted_views(kappa):
    # the oracle reads a point at offsets from its origin; the reference
    # scans the origin of a view shifted by each return.  Both must give the
    # same offsets and outcomes and read the same coordinates, on seeded
    # Z-points and on tape views of the a-axis.
    radius = 6
    system = CylinderAction(kappa, radius)
    oracle = system.oracle

    def points(log):
        seeded = [RecordingConfiguration(
            SeededConfiguration(oracle.space, derive_seed(43, f"{kappa}/{i}"), {0: 0}), log)
            for i in range(10)]
        base = RecordingConfiguration(system.sample_in_cylinder(derive_seed(43, "axis")), log)
        return seeded + [system.rho(system.twisted.apply(w, base))
                         for w in _axis_words(system)]

    oracle_log, reference_log = set(), set()
    for z, ref in zip(points(oracle_log), points(reference_log)):
        for n in range(-3, 4):
            eta = _outcome_or_error(lambda: oracle.eta(n, z))
            assert eta == _outcome_or_error(lambda: _reference_eta(ref, n, radius))
            for total in (n, eta) if isinstance(eta, int) else (n,):
                assert _outcome_or_error(lambda: oracle.steps_to(z, total)) == \
                    _outcome_or_error(lambda: _reference_steps_to(ref, total, radius))
            for step in (1, -1):
                assert _outcome_or_error(lambda: oracle.first_return(z, step, n)) == \
                    _outcome_or_error(lambda: _reference_return(ShiftedZ(ref, n), step,
                                                                radius))
    assert len(reference_log) > 100
    assert oracle_log == reference_log


def test_dependency_radius_small():
    system = CylinderAction(2, 32)
    report = dependency_radius_report(system, 2, 10, seed=26)
    assert report.verdict in ("pass", "undetermined")
    assert report.counterexample is None


DEPENDENCY_FAILURE = """
import json
from orbitlab.constructions import CylinderAction, dependency_radius_report
system = CylinderAction(2, 64)
system.b_length_up = lambda w: 0   # every b-read now exceeds the allowed grade
report = dependency_radius_report(system, 2, 2, 5)
print(report.verdict, json.dumps(report.to_payload()["counterexample"], sort_keys=True))
"""


def test_dependency_radius_counterexample_ignores_the_hash_seed():
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    outputs = []
    for seed in ("0", "1"):
        done = subprocess.run([sys.executable, "-c", DEPENDENCY_FAILURE], cwd=root,
                              env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr[-2000:]
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    verdict, body = outputs[0].split(" ", 1)
    assert verdict == "fail"
    # the least failing coset in coord_key order
    assert json.loads(body) == {"a_offset": 2, "allowed_grade": 0, "allowed_offset": 256,
                                "b_grade": 1, "coset": "a^-1 b^-1 a^1", "g": "a^-1 b0^-1"}


def test_dependency_radius_counts_letters_from_coordinate_keys():
    # the report reads each coset's b-grade and a-offset from its key
    system = CylinderAction(2, 64)
    for c in cosets_ball(system.f2, "b", 4):
        letters = _letters(system.f2, system.space.coord_key(c))
        assert (letters["a"], letters["b"]) == (c.rep.length("a"), c.rep.length("b"))


def _dependency_words(system):
    """The words dependency_radius_report checks at b-grade at most 2."""
    return [w for w in ball(system.spec_up, 2, parts=system.b_parts, exponent_bound=1)
            if not w.is_identity]


def _cold_maxima(system, om, g, base):
    """The largest b-grade and a-offset in the log of omega(g, .) evaluated
    cold on a recording point."""
    log = set()
    om.forget()
    om.evaluate(g, RecordingConfiguration(base, log))
    letters = [_letters(system.f2, key) for key in log]
    return [max((n["b"] for n in letters), default=0),
            max((n["a"] for n in letters), default=0)]


@pytest.mark.parametrize("kappa, radius", [(2, 8), (2, 16), (3, 8)])
def test_read_summaries_equal_the_maxima_of_cold_reads(kappa, radius):
    # dependency_radius_report decides each (point, word) by the maxima of
    # a frame that memo entries and tapes of the point's earlier words fed;
    # they must be those of the word's own cold reads, and a word must be
    # undetermined both ways or neither
    system = CylinderAction(kappa, radius)
    om = system.omega()
    words = _dependency_words(system)
    outcomes = []
    for seed in (1, 2, 3):
        for s in seed_stream(seed, "dep", 4):
            base = system.sample_in_cylinder(s)
            point = SummarizedConfiguration(base, lambda key: _grade_and_offset(system.f2, key))
            om.forget()
            warm = [_outcome(lambda: read_summaries.measure(om.evaluate, g, point)[1])
                    for g in words]
            cold = [_outcome(lambda: _cold_maxima(system, om, g, base)) for g in words]
            assert warm == cold
            outcomes += warm
    assert read_summaries.frame is None
    assert "undetermined" in outcomes
    assert len({tuple(m) for m in outcomes if m != "undetermined"}) > 3


def test_a_passing_dependency_radius_report_evaluates_each_point_warm(monkeypatch):
    # the report forgets the memos once per point, not once per word, and
    # re-runs nothing cold when nothing fails
    forgets, recorders = [], []
    forget, record = Cocycle.forget, RecordingConfiguration.__init__
    monkeypatch.setattr(Cocycle, "forget", lambda self: forgets.append(self) or forget(self))
    monkeypatch.setattr(RecordingConfiguration, "__init__",
                        lambda self, *args: recorders.append(args) or record(self, *args))
    report = dependency_radius_report(CylinderAction(2, 32), 2, 3, derive_seed(61, "dep"))
    assert report.verdict != "fail" and report.statistics["checked"] > 0
    assert len(forgets) == 3
    assert recorders == []


def _plain_memo_entries(system, om):
    return [*system._memo.values(), *om._memo.values(),
            *(v for tape in system._tapes.values() for v in tape.matches.values())]


def test_the_read_summary_frame_closes_on_every_exit(monkeypatch):
    dependency_radius_report(CylinderAction(2, 16), 2, 2, 7)
    assert read_summaries.frame is None

    def broken(self, letter, x):
        raise ValueError("broken letter")

    with monkeypatch.context() as patch:
        patch.setattr(CylinderAction, "_letter_apply", broken)
        with pytest.raises(ValueError, match="broken letter"):
            dependency_radius_report(CylinderAction(2, 16), 2, 2, 7)
    assert read_summaries.frame is None
    # a check run afterwards stores plain values, with no summaries
    system = CylinderAction(2, 16)
    om = system.omega()
    words = ball(system.spec_up, 1)
    points = [system.sample_in_cylinder(s) for s in seed_stream(7, "after", 2)]
    verify_identity(om, list(itertools.product(words, words)), points)
    entries = _plain_memo_entries(system, om)
    assert entries and not any(isinstance(v, _Summarized) for v in entries)


def test_a_memo_entry_without_a_summary_raises_inside_a_frame():
    system = CylinderAction(2, 64)
    om = system.omega()
    x = system.sample_in_cylinder(derive_seed(61, "plain"))
    g = system.spec_up.word("b0^1 a^1")
    om.evaluate(g, x)
    assert _plain_memo_entries(system, om)
    with pytest.raises(RuntimeError, match="no read summary"):
        read_summaries.measure(om.evaluate, g, x)
    assert read_summaries.frame is None


def test_coset_freshness_small():
    system = CylinderAction(2, 48)
    report = coset_freshness_report(system, 1, 5, seed=27)
    assert report.verdict in ("pass", "undetermined")
    assert report.counterexample is None


def test_fresh_coset_is_placed_by_offset_and_witness():
    # coset_freshness_report keys each coset by (m, wit): a witness that
    # passes its two checks leads with a b-syllable, so a^m * wit is already
    # the canonical representative, one a-syllable followed by wit's
    system = CylinderAction(2, 64)
    om = system.omega()
    witnesses = 0
    for s in seed_stream(27, "fresh", 2):
        x = system.sample_in_cylinder(s)
        om.forget()
        for n in range(3):
            for i, eps in itertools.product(range(2), (1, -1)):
                letter = system.spec_up.generator(f"b{i}", eps)
                for g in extension_sphere(system.spec_up, letter, n,
                                          parts=system.b_parts, exponent_bound=1):
                    try:
                        wit = system.extension_word(i, eps, g, x, om)
                    except UndeterminedError:
                        continue
                    first = wit.syllables[0]
                    if (system.b_length_down(wit) != n + 1 or first[1] != system.b_part
                            or (1 if first[2] > 0 else -1) != eps):
                        continue
                    witnesses += 1
                    for m in (-2, -1, 1, 2):
                        c = coset(system.f2, "b", system.a0 ** m * wit)
                        assert c.rep.syllables == (("g", system.a_part, m),) + wit.syllables
    assert witnesses > 0


def test_match_determinacy_reflects_recurrence_tail():
    # the nesting match of a fair sequence resolves within radius 64 with
    # probability ~0.9007, so the 5% gate reads fail; the measurement must
    # land near the true frequency
    report = match_determinacy_report(2, 64, 2000, seed=28)
    freq = report.statistics["unresolved_frequency"]
    assert 0.075 <= float(freq) <= 0.125
    assert report.verdict == "fail"
    assert float(report.statistics["context_frequency"]) < float(freq)


@pytest.mark.parametrize("context_radius", [16, 32, 64])
def test_match_determinacy_counts_equal_two_scans(context_radius):
    # one scan at the larger radius decides both counts: compare with a scan
    # at each radius
    kappa, scan_radius, samples, seed = 3, 32, 300, 36
    report = match_determinacy_report(kappa, scan_radius, samples, seed,
                                      context_radius=context_radius)
    space = Space(IntIndex(), cyclic(kappa))
    unresolved = {scan_radius: 0, context_radius: 0}
    for i in range(samples):
        z = SeededConfiguration(space, derive_seed(seed, f"det/{i}"), {0: 0})
        for symbol in range(1, kappa):
            for radius in {scan_radius, context_radius}:
                try:
                    parenthesis_match(z, symbol, radius)
                except UndeterminedError:
                    unresolved[radius] += 1
    total = samples * (kappa - 1)
    small, large = min(scan_radius, context_radius), max(scan_radius, context_radius)
    assert unresolved[small] >= unresolved[large] > 0
    assert report.statistics == {
        "unresolved_frequency": Fraction(unresolved[scan_radius], total),
        "unresolved": unresolved[scan_radius],
        "context_radius": context_radius,
        "context_frequency": Fraction(unresolved[context_radius], total)}


def test_match_measure_preservation_gate():
    report = match_measure_report(2, 64, 2000, seed=29)
    assert report.verdict == "pass"


def test_match_measure_with_no_resolved_scan_is_undetermined():
    # at scan radius 1 no scan resolves, so neither sample has a point
    report = match_measure_report(2, 1, 1, 1)
    assert report.verdict == "undetermined"
    stats = report.subreports[0].statistics
    assert (stats["unresolved_forward"], stats["unresolved_backward"]) == (1, 1)


# -- diagonal extension ------------------------------------------------------------


def test_extension_degenerate_whole_space():
    shift = BernoulliShift(F2, Z2)
    soe = degenerate_stable_oe(shift)
    assert soe.system is shift
    for s in seed_stream(30, "ext", 3):
        assert soe.sample(s).point_key == sample(shift.space, s).point_key
    lams = ball(F2, 1)
    report = extension_distinctness_report(soe, lams, 10, seed=30)
    assert report.verdict == "pass"
    pairs = [(1, F2.identity()), (1, F2.generator("a"))]
    report = extension_independence_report(soe, pairs, Z2, 10, seed=31)
    assert report.verdict == "pass"


def test_extension_over_cylinder_oe():
    soe = build_cylinder_oe(2, 64)
    lams = ball(soe.system.spec_up, 1, parts=soe.system.b_parts, exponent_bound=1)
    report = extension_distinctness_report(soe, lams, 10, seed=32)
    assert report.verdict in ("pass", "undetermined")
    assert report.counterexample is None
    pairs = [(1, soe.system.spec_up.identity()),
             (2, soe.system.spec_up.generator("b0"))]
    report = extension_independence_report(soe, pairs, cyclic(3), 10, seed=33)
    assert report.verdict in ("pass", "undetermined")
    assert report.counterexample is None


def _axis_window(system):
    """The five cosets (b)a^n, n in -2..2, that lemma-3 compares x on."""
    return [coset(system.f2, "b", system.a0 ** n) for n in range(-2, 3)]


def test_extension_action_axiom():
    soe = build_cylinder_oe(2, 64)
    words = ball(soe.system.spec_up, 1)
    report = extension_action_report(soe, cyclic(2), words, _axis_window(soe.system), 5,
                                     seed=34)
    assert report.verdict in ("pass", "undetermined")
    assert report.counterexample is None
    assert report.statistics["checked"] > 50


def test_extension_action_on_the_degenerate_record():
    # the whole-space record has no a-axis: its caller compares x on a ball
    soe = degenerate_stable_oe(BernoulliShift(F2, cyclic(2)))
    report = extension_action_report(soe, cyclic(2), ball(F2, 1), ball(F2, 2), 5,
                                     seed=35)
    assert report.verdict == "pass"
    assert report.statistics == {"checked": 125, "undetermined": 0}



# -- unresolved scans: one rule, pinned counts ---------------------------------------
#
# At scan radius 4 many scans run out, so each sampled leaf counts both
# verified cases and unresolved ones.  The triples were recorded before the
# leaves shared `Check.unresolved`; a block that covers too much or too
# little moves them.


def _small_identity():
    system = CylinderAction(2, 4)
    sized = [(w, w.length()) for w in ball(system.spec_up, 2)]
    pairs = [(g, h) for g, g_len in sized for h, h_len in sized if g_len + h_len <= 2]
    points = [system.sample_in_cylinder(s) for s in seed_stream(51, "id", 6)]
    return verify_identity(system.omega(), pairs, points)


def _small_inverse_pair():
    system = CylinderAction(2, 4)
    points = [system.sample_in_cylinder(s) for s in seed_stream(52, "inv", 6)]
    return verify_inverse_pair(system.omega(), system.omega_prime(),
                               ball(system.spec_up, 2), points,
                               lengths=(system.b_length_up, system.b_length_down))


def _small_distinctness():
    soe = build_cylinder_oe(2, 4)
    lams = ball(soe.system.spec_up, 1, parts=soe.system.b_parts, exponent_bound=1)
    return extension_distinctness_report(soe, lams, 8, 55)


def _small_independence():
    soe = build_cylinder_oe(2, 4)
    pairs = [(1, soe.system.spec_up.identity()), (2, soe.system.spec_up.generator("b0"))]
    return extension_independence_report(soe, pairs, Z2, 8, 57)


def _small_action():
    soe = build_cylinder_oe(2, 4)
    return extension_action_report(soe, Z2, ball(soe.system.spec_up, 1),
                                   _axis_window(soe.system), 3, 56)


@pytest.mark.parametrize("run, outcome", [
    (_small_identity, ("undetermined", 372, 282)),
    (_small_inverse_pair, ("undetermined", 102, 120)),
    (lambda: dependency_radius_report(CylinderAction(2, 4), 2, 4, 53),
     ("undetermined", 714, 878)),
    (lambda: coset_freshness_report(CylinderAction(2, 4), 1, 4, 54),
     ("undetermined", 1424, 220)),
    # one case per point: every point runs out, after 23 addresses in all
    (_small_distinctness, ("undetermined", 23, 8)),
    (_small_action, ("undetermined", 99, 48)),
    (_small_independence, ("undetermined", 6, 2)),
], ids=["identity", "inverse-pair", "dependency-radius", "fresh-cosets",
        "extension-distinctness", "extension-action", "extension-independence"])
def test_unresolved_scans_are_counted_per_case(run, outcome):
    report = run()
    stats = report.statistics
    checked = stats.get("checked", stats.get("points_checked"))
    undetermined = stats.get("undetermined", stats.get("undetermined_points"))
    assert (report.verdict, checked, undetermined) == outcome


@pytest.mark.parametrize("tag", ["sample", "dep", "mm/1"])
def test_seed_stream_derives_one_seed_per_point(tag):
    assert list(seed_stream(61, tag, 12)) == [derive_seed(61, f"{tag}/{i}")
                                              for i in range(12)]

def _memo_case(kind):
    """An action whose apply memoizes, a maker of one sampled point, and
    words the action resolves at that point."""
    if kind == "cylinder":
        action = CylinderAction(2, 64)
        up = action.spec_up
        words = [up.generator("b0"), up.generator("a") * up.generator("b1", -1),
                 up.generator("b1") * up.generator("b0")]
        return action, lambda: action.sample_in_cylinder(derive_seed(37, "memo")), words
    action = StarAction(cyclic(2, "c"), z2_system())
    words = [g for g in ball(action.spec0, 2, mode="syllables") if not g.is_identity]
    return action, lambda: sample(action.space, 38), words


@pytest.mark.parametrize("kind", ["cylinder", "star"])
def test_apply_memo_returns_the_identical_image(kind):
    action, point, words = _memo_case(kind)
    x = point()
    images = [action.apply(g, x) for g in words]
    assert len({id(image) for image in images}) == len(words)
    for g, image in zip(words, images):
        assert action.apply(g, x) is image
        # the memo keys points structurally, so an equal point hits too
        assert action.apply(g, point()) is image


def test_star_trivial_pairing_reproduces_the_action():
    # identity pairing with a trivial K: the transported action is the
    # original one and the cocycle word is the relabeled group element
    lam, K = cyclic(2, "p"), cyclic(1, "k")
    system = component_twist_system(lam, K, [((0, 1), [0, 0])])
    star = StarAction(cyclic(2, "c"), system)
    om = star.omega()
    window = [star.base,
              star.base.translate(star.spec1.finite_element(star.gamma1, 1))]
    for y in sample_stream(star.space, 35, 5):
        for g in ball(star.spec0, 2, mode="syllables"):
            w, k = om.evaluate(g, y)
            assert k == K.identity
            assert w == star.spec1.word(g.tokens())
            assert agree_on(star.apply(g, y), star.dot.apply(w, y), window)


# -- sections ----------------------------------------------------------------------


def test_orbit_section_z2_on_six_points():
    K = Z2
    action = free_action_on_cosets(K, 3)
    reps, theta = orbit_section(K, action)
    assert len(reps) == 3
    assert sorted(theta.values()) == list(range(6))
    assert section_report(K, action).verdict == "pass"


def test_orbit_section_z3_on_six_points():
    K = cyclic(3)
    action = free_action_on_cosets(K, 2)
    reps, _ = orbit_section(K, action)
    assert len(reps) == 2
    assert section_report(K, action).verdict == "pass"


def test_orbit_section_rejects_non_free():
    from orbitlab.actions import FiniteGroupAlphabetAction
    from orbitlab.groups import Alphabet
    K = Z2
    # the nonidentity element fixes the last point
    alphabet = Alphabet(["p0", "p1", "p2"], label="3pts")
    perms = [(0, 1, 2), (1, 0, 2)]
    action = FiniteGroupAlphabetAction(K, alphabet, perms)
    with pytest.raises(ValueError, match="fixes"):
        orbit_section(K, action)
    report = section_report(K, action)
    assert report.verdict == "fail"
    assert "p2" in report.counterexample["reason"]


def test_section_equivariance_exhaustive():
    K = cyclic(3)
    action = free_action_on_cosets(K, 2)
    reps, theta = orbit_section(K, action)
    for g in range(3):
        for h in range(3):
            for y in reps:
                assert theta[(K.mul(g, h), y)] == action.act(g, theta[(h, y)])


# -- the check clock ----------------------------------------------------------------


def _independence_of_copies(copies):
    # one coordinate passes; two copies of it are dependent (the negative control)
    space = BernoulliShift(F2, Z2).space
    v = coordinate_variable(space, F2.identity())
    return independence_exact(space, [v] * copies)


@pytest.mark.parametrize("run, verdict", [
    (lambda: section_report(Z2, free_action_on_cosets(Z2, 3)), "pass"),
    (lambda: star_conjugation_report(StarAction(cyclic(2, "c"), z2_system())), "pass"),
    (lambda: cylinder_measure_report(CylinderAction(2, 32)), "pass"),
    (lambda: homogeneity_mc([0, 1] * 50, [1, 0] * 50, seed=None), "pass"),
    (lambda: _independence_of_copies(1), "pass"),
    (lambda: _independence_of_copies(2), "fail"),
], ids=["section", "conjugation", "cylinder-measure", "homogeneity",
        "independence-pass", "independence-fail"])
def test_reports_carry_runtime(run, verdict):
    report = run()
    assert report.verdict == verdict
    assert isinstance(report.runtime_s, float) and report.runtime_s >= 0
