import json
from fractions import Fraction

import numpy as np
import pytest

from orbitlab import verify
from orbitlab.constructions import increment_family
from orbitlab.groups import cyclic, s3
from orbitlab.spaces import (ExplicitConfiguration, GroupIndex, MissingCoordinateError,
                             Space, sample_stream, window_slots)
from orbitlab.verify import (Check, Selector, VerificationReport, WindowFunction,
                             _chi_square_independence, chi_square_threshold,
                             coordinate_variable, family_window,
                             generation_check, homogeneity_mc,
                             independence_exact, independence_mc,
                             selector_independence_exact,
                             selector_independence_on_samples, worst_verdict)
from orbitlab.words import coset, free_group

F2 = free_group("a", "b")
Z2 = cyclic(2)
SPACE = Space(GroupIndex(F2), Z2)

E = F2.identity()
A = F2.generator("a")
B = F2.generator("b")


def proj(g, name=None):
    return coordinate_variable(SPACE, g, name)


def test_independence_exact_projections_pass():
    report = independence_exact(SPACE, [proj(E), proj(A), proj(B)])
    assert report.verdict == "pass"
    assert report.statistics["worst_product_deviation"] == 0


def test_independence_exact_xor_pair_passes():
    v1 = proj(E, "x0")
    v2 = WindowFunction("x0+x1", (E, A), 2,
                        lambda c: (c.value(E) + c.value(A)) % 2)
    report = independence_exact(SPACE, [v1, v2])
    assert report.verdict == "pass"


def test_independence_exact_duplicate_fails():
    report = independence_exact(SPACE, [proj(E, "p"), proj(E, "q")])
    assert report.verdict == "fail"
    assert report.counterexample is not None


def test_independence_mc_agrees_with_exact():
    v1, v2 = proj(E, "p"), proj(A, "q")
    exact = independence_exact(SPACE, [v1, v2])
    mc = independence_mc(SPACE, [v1, v2], 10 ** 4, seed=5)
    assert exact.verdict == mc.verdict == "pass"
    bad_exact = independence_exact(SPACE, [v1, v1])
    bad_mc = independence_mc(SPACE, [v1, v1], 10 ** 4, seed=5)
    assert bad_exact.verdict == bad_mc.verdict == "fail"


def xor_family(dependent):
    """Z2 variables on the window {e, a, b}: 2^3 states, so they repeat."""
    xor = WindowFunction("x0+xb", (E, B), 2, lambda c: (c.value(E) + c.value(B)) % 2)
    family = [proj(E, "p"), proj(A, "q"), xor]
    if dependent:
        family.append(WindowFunction("q*xb", (A, B), 2,
                                     lambda c: c.value(A) * c.value(B)))
    return SPACE, family


def s3_increments():
    """Four S3 increment variables on a 6^5-state window."""
    return Space(GroupIndex(F2), s3()), increment_family(F2, s3(), 1)[:4]


def per_sample_counts(space, family, seed, n):
    """One evaluation of the family per point of sample_stream."""
    counts: dict = {}
    for x in sample_stream(space, seed, n):
        key = tuple(v.fn(x) for v in family)
        counts[key] = counts.get(key, 0) + 1
    return counts


def recorded_tables(monkeypatch):
    """The outcome tables independence_mc hands to the statistic, in order."""
    tables = []
    statistic = verify._chi_square_independence

    def record(counts, total):
        tables.append(list(counts.items()))
        return statistic(counts, total)

    monkeypatch.setattr(verify, "_chi_square_independence", record)
    return tables


# the Z2 family without or with its dependent variable, or the S3 family
REFERENCE_CASES = {False: (lambda: xor_family(False), 3000, "pass"),
                   True: (lambda: xor_family(True), 3000, "fail"),
                   "s3": (s3_increments, 2000, "pass")}


@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_independence_mc_matches_a_sample_stream_reference(monkeypatch, case):
    """The tallied gate gives the outcome table (in insertion order), the
    statistic, dof and verdict of a plain loop over the seeded points of
    sample_stream."""
    make, n, verdict = REFERENCE_CASES[case]
    space, family = make()
    seed = 13
    tables = recorded_tables(monkeypatch)
    report = independence_mc(space, family, n, seed)
    counts = per_sample_counts(space, family, seed, n)
    assert tables == [list(counts.items())]
    stat, dof = _chi_square_independence(counts, n)
    threshold = chi_square_threshold(0.999, dof)
    assert report.statistics == {"chi_square": stat, "dof": dof, "threshold": threshold}
    assert report.verdict == verdict
    assert report.verdict == ("pass" if stat <= threshold else "fail")


@pytest.mark.parametrize("case, n", [(lambda: xor_family(True), 500),
                                     (s3_increments, 20000)], ids=["z2", "s3"])
def test_independence_mc_evaluates_each_sampled_window_state_once(case, n):
    space, family = case()
    seed = 17
    slots = window_slots(space, family_window(family))
    states = {tuple(x.value(c) for c in slots) for x in sample_stream(space, seed, n)}
    assert len(states) < n
    calls = [0] * len(family)

    def counted(i, fn):
        def wrapper(x):
            calls[i] += 1
            return fn(x)
        return wrapper

    counted_family = [WindowFunction(v.name, v.coords, v.support, counted(i, v.fn))
                      for i, v in enumerate(family)]
    report = independence_mc(space, counted_family, n, seed)
    assert calls == [len(states)] * len(family)
    assert report.statistics == independence_mc(space, family, n, seed).statistics


def test_independence_mc_raises_at_the_first_undeclared_read_of_the_sample_order():
    """A variable that leaves its declared window on some states only still
    raises, at the read the per-sample loop reaches first."""
    def sneaky(c):
        if c.value(E) == 1:
            return c.value(A if c.value(B) == 0 else F2.word("a^2"))
        return 0

    family = [proj(B), WindowFunction("sneaky", (E, B), 2, sneaky)]
    slots = window_slots(SPACE, family_window(family))
    first = None
    for x in sample_stream(SPACE, 1, 50):
        values = tuple(x.value(c) for c in slots)
        try:
            sneaky(ExplicitConfiguration.on_slots(SPACE, slots, values))
        except MissingCoordinateError as err:
            first = err.coordinate
            break
    assert first is not None
    with pytest.raises(MissingCoordinateError) as raised:
        independence_mc(SPACE, family, 50, seed=1)
    assert raised.value.coordinate == first


def test_independence_mc_rejects_an_undeclared_read():
    sneaky = WindowFunction("sneaky", (E,), 2, lambda c: c.value(A))
    with pytest.raises(MissingCoordinateError):
        independence_mc(SPACE, [proj(B), sneaky], 10, seed=1)


@pytest.mark.parametrize("run", [
    lambda: homogeneity_mc([], [], 0),
    lambda: homogeneity_mc([1, 1, 1], [], 0),
    lambda: independence_mc(SPACE, [proj(A), proj(B)], 0, seed=1),
], ids=["both-empty", "one-empty", "independence-empty"])
def test_chi_square_gate_on_an_empty_sample_is_undetermined(run):
    report = run()
    assert report.verdict == "undetermined"
    assert report.notes == ("empty sample: no evidence",)


def test_chi_square_threshold_is_bit_identical_to_scipy_stats():
    from scipy.stats import chi2
    dofs = np.array(list(range(1, 2001)) + [10 ** 4, 10 ** 5])
    for q in (0.5, 0.9, 0.95, 0.99, 0.999, 0.9999):
        expected = chi2.ppf(q, dofs)
        mismatches = [int(d) for d, e in zip(dofs, expected)
                      if chi_square_threshold(q, int(d)) != float(e)]
        assert mismatches == [], (q, mismatches[:10])


def test_selector_engine_small_instance_passes():
    flip = (1, 0)
    ident = (0, 1)

    def act(h, v):
        return h[v] if h is not None else v

    fam = [
        Selector("twisted-by-x", lambda x: (flip if x("x") else ident, x("x"))),
        Selector("fixed-slot", lambda x: (ident, 2)),
    ]
    report = selector_independence_exact([("x", 2)], [0, 1, 2], 2, act, fam)
    assert report.verdict == "pass"
    assert report.statistics["states"] == 16


def test_selector_engine_duplicate_index_fails_precondition():
    ident = (0, 1)

    def act(h, v):
        return h[v] if h is not None else v

    fam = [
        Selector("first", lambda x: (ident, x("x"))),
        Selector("clash", lambda x: (ident, x("x"))),
    ]
    report = selector_independence_exact([("x", 2)], [0, 1, 2], 2, act, fam)
    assert report.verdict == "fail"
    assert any("precondition" in n for n in report.notes)


def test_selector_engine_single_coordinate():
    fam = [Selector("y0", lambda x: (None, 0))]
    report = selector_independence_exact([("x", 1)], [0], 3,
                                         lambda h, v: v, fam)
    assert report.verdict == "pass"


def halve(h, v):
    # not a bijection of {0, 1, 2}: 0 and 1 go to 0, and nothing goes to 2
    return v // 2


def test_selector_engine_non_bijective_act_fails_the_law():
    fam = [Selector("moving", lambda x: (None, x("x"))),
           Selector("fixed", lambda x: (None, 2))]
    report = selector_independence_exact([("x", 2)], [0, 1, 2], 3, halve, fam)
    assert report.verdict == "fail"
    assert report.statistics["states"] == 2 * 3 ** 3
    # (0, 0) is hit by 4 of the 9 lookups at x = 0 and has law 4/(2 * 3^2)
    assert report.counterexample == {"cylinder": {"x": {"x": 0}, "values": (0, 0)},
                                     "probability": Fraction(2, 9),
                                     "expected": Fraction(1, 18)}


def test_sampled_selector_engine_non_bijective_act_fails_the_law():
    def selector_of_point(x):
        return [(None, x), (None, x + 1)]

    report = selector_independence_on_samples([0, 1], selector_of_point, 3, halve,
                                              ["first", "second"])
    assert report.verdict == "fail"
    assert report.counterexample == {"point": "0", "values": (0, 0)}
    bijective = selector_independence_on_samples(
        [0, 1], selector_of_point, 3, lambda h, v: (v + 1) % 3, ["first", "second"])
    assert bijective.verdict == "pass"
    assert bijective.statistics["points_checked"] == 2


def test_generation_check_projections_with_reconstructor():
    window = [E, A, B]
    family = [proj(g, g.tokens()) for g in window]

    def reconstructor(values):
        return {g: values[g.tokens()] for g in window}

    report = generation_check(SPACE, family, window, reconstructor=reconstructor)
    assert report.verdict == "pass"
    assert any("surrogate" in n for n in report.notes)


def test_generation_check_missing_coordinate_witness_pair():
    window = [E, A]
    family = [proj(E, "only-e")]
    report = generation_check(SPACE, family, window)
    assert report.verdict == "fail"
    assert "first" in report.counterexample and "second" in report.counterexample


def test_worst_verdict_and_combine():
    r1 = VerificationReport("a", "exact", "pass")
    r2 = VerificationReport("b", "exact", "undetermined")
    r3 = VerificationReport("c", "exact", "fail")
    assert worst_verdict([r1.verdict, r2.verdict]) == "undetermined"
    combined = Check("all").combine([r1, r2, r3])
    assert combined.verdict == "fail"
    assert len(combined.subreports) == 3


def test_check_counted_undetermined_downgrades_pass_only():
    check = Check("scan")
    assert check.report("pass").verdict == "pass"
    check.undetermined = 1
    assert check.report("pass").verdict == "undetermined"
    assert check.report("fail").verdict == "fail"
    assert check.fail().verdict == "fail"


def test_report_payload_serializes_exact_fractions():
    report = VerificationReport(
        "demo", "exact", "pass",
        statistics={"measure": Fraction(1, 3), "witness": A * B})
    payload = report.to_payload()
    assert payload["statistics"]["measure"] == "1/3"
    assert payload["statistics"]["witness"] == "a^1 b^1"
    json.dumps(payload)  # JSON-able end to end


def test_report_payload_serializes_words_and_cosets_as_tokens():
    # a coset is a (part, rep) tuple; it must serialize as a coset, not a list
    c = coset(F2, "b", B * A * B)
    report = Check("demo").fail(counterexample={
        "coset": c, "word": A * B, "pair": (c, A),
        "by_coset": {c: 1, (c, A): 2}, "by_word": {A * B: 3}})
    assert report.to_payload()["counterexample"] == {
        "coset": "a^1 b^1", "word": "a^1 b^1", "pair": ["a^1 b^1", "a^1"],
        "by_coset": {"a^1 b^1": 1, "(a^1 b^1, a^1)": 2}, "by_word": {"a^1 b^1": 3}}
