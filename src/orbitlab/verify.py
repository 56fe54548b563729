"""Independence and generation checking, and the verification report model.

Exact mode is a decision procedure: joint laws are enumerated with rational
arithmetic and compared for equality, so a pass is a proof about the finite
window and a fail carries the violating cylinder.  Monte-Carlo mode is a
chi-square gate at the 0.999 quantile (`GATE_QUANTILE`): a screening device
for windows beyond the enumeration budget, never a proof.  A gate with an
empty sample has no evidence and reports UNDETERMINED.

The chi-square quantile is `2 * gammaincinv(dof / 2, q)` from
`scipy.special`, the formula `scipy.stats.chi2.ppf` evaluates, so thresholds
are bit-identical to it without loading `scipy.stats`.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from scipy.special import gammaincinv

from .spaces import (BudgetExceededError, Configuration, DEFAULT_BUDGET,
                     ExplicitConfiguration, enumerate_window, exact_distribution,
                     sample_window_values, window_slots)
from .words import Coset, Word

PASS = "pass"
FAIL = "fail"
UNDETERMINED = "undetermined"

_SEVERITY = {PASS: 0, UNDETERMINED: 1, FAIL: 2}

GATE_QUANTILE = 0.999


def worst_verdict(verdicts: Iterable[str]) -> str:
    out = PASS
    for v in verdicts:
        if _SEVERITY[v] > _SEVERITY[out]:
            out = v
    return out


def jsonable(obj):
    """Lossless-enough JSON image: exact rationals as 'p/q', words as tokens."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (Word, Coset)):
        return obj.tokens()
    if isinstance(obj, dict):
        return {_key_str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def _key_str(k) -> str:
    if isinstance(k, (Word, Coset)):
        return k.tokens()
    if isinstance(k, tuple):
        return "(" + ", ".join(_key_str(v) for v in k) + ")"
    return str(k)


@dataclass
class VerificationReport:
    """Structured outcome of one check."""

    name: str
    mode: str                      # "exact" | "monte-carlo" | "composite"
    verdict: str                   # "pass" | "fail" | "undetermined"
    parameters: dict = field(default_factory=dict)
    statistics: dict = field(default_factory=dict)
    seed: int | None = None
    notes: tuple = ()
    counterexample: dict | None = None
    subreports: tuple = ()
    runtime_s: float | None = None

    def passed(self) -> bool:
        return self.verdict == PASS

    def to_payload(self) -> dict:
        out = {
            "name": self.name,
            "mode": self.mode,
            "verdict": self.verdict,
            "parameters": jsonable(self.parameters),
            "statistics": jsonable(self.statistics),
            "seed": self.seed,
            "notes": list(self.notes),
        }
        if self.counterexample is not None:
            out["counterexample"] = jsonable(self.counterexample)
        if self.subreports:
            out["subreports"] = [r.to_payload() for r in self.subreports]
        return out


class _Unresolved:
    """The `with check.unresolved:` block of a `Check`."""

    def __init__(self, check: "Check"):
        self.check = check

    def __enter__(self):
        pass

    def __exit__(self, kind, err, tb) -> bool:
        if kind is not None and issubclass(kind, UndeterminedError):
            self.check.undetermined += 1
            return True
        return False


class Check:
    """One running check: its name, mode and seed, stated once, its clock
    and its tally.

    The clock starts when the check is built; every report the check
    returns carries the seconds since then in `runtime_s`.  A check that
    counted an unresolved scan or an empty sample in `undetermined` reports
    UNDETERMINED in place of PASS; `checked` counts what was verified.
    Each sampled case runs in a `with check.unresolved:` block, so an
    UndeterminedError in it adds one to `undetermined` and ends that case
    only; any other exception propagates.
    """

    def __init__(self, name: str, mode: str = "exact", seed: int | None = None):
        self.name = name
        self.mode = mode
        self.seed = seed
        self.checked = 0
        self.undetermined = 0
        self.unresolved = _Unresolved(self)
        self.started = time.perf_counter()

    def report(self, verdict: str, **fields) -> VerificationReport:
        if verdict == PASS and self.undetermined:
            verdict = UNDETERMINED
        return self._stamp(self.mode, verdict, **fields)

    def fail(self, **fields) -> VerificationReport:
        return self.report(FAIL, **fields)

    def combine(self, subreports: Sequence[VerificationReport],
                parameters: dict | None = None) -> VerificationReport:
        """The composite report over the subreports, under this check's name."""
        return self._stamp("composite", worst_verdict(r.verdict for r in subreports),
                           parameters=parameters or {},
                           statistics={"subchecks": len(subreports)},
                           subreports=tuple(subreports))

    def _stamp(self, mode: str, verdict: str, **fields) -> VerificationReport:
        return VerificationReport(self.name, mode, verdict, seed=self.seed,
                                  runtime_s=time.perf_counter() - self.started,
                                  **fields)


# -- variable families --------------------------------------------------------


@dataclass
class WindowFunction:
    """Named map from configurations to a finite value set, with its
    declared dependency coordinates."""

    name: str
    coords: tuple
    support: int
    fn: Callable[[Configuration], int]


def coordinate_variable(space, coord, name: str | None = None) -> WindowFunction:
    canon = space.index.canonicalize(coord)
    label = name or space.coord_key(canon)
    return WindowFunction(label, (canon,), space.alphabet.size,
                          lambda x, c=canon: x.value(c))


def family_window(family: Sequence[WindowFunction]) -> list:
    out = []
    for v in family:
        for c in v.coords:
            if c not in out:
                out.append(c)
    return out


# -- exact independence -------------------------------------------------------


def independence_exact(space, family: Sequence[WindowFunction], window=None,
                       budget: int = DEFAULT_BUDGET, name: str = "independence-exact",
                       require_uniform: bool = False) -> VerificationReport:
    """Pass iff the exact joint law equals the product of its marginals.

    With require_uniform, additionally demand that the joint law is the
    uniform distribution on the full product of the declared supports.
    """
    check = Check(name)
    window = list(window) if window is not None else family_window(family)
    dist = exact_distribution(space, family, window, budget)
    stats: dict = {"window": len(window), "states": dist.state_count,
                   "outcomes": len(dist.outcomes)}
    deviation, witness = dist.worst_product_deviation()
    stats["worst_product_deviation"] = deviation
    verdict = PASS if deviation == 0 else FAIL
    counter = None if verdict == PASS else {"cylinder": witness,
                                            "deviation": deviation}
    if verdict == PASS and require_uniform:
        if not dist.is_uniform([v.support for v in family]):
            verdict = FAIL
            counter = {"reason": "joint law is not the uniform product"}
    return check.report(
        verdict, parameters={"variables": [v.name for v in family], "budget": budget},
        statistics=stats, counterexample=counter)


# -- Monte-Carlo independence -------------------------------------------------


def chi_square_threshold(quantile: float, dof: int) -> float:
    """The `quantile` point of the chi-square law with `dof` degrees of freedom."""
    return float(2 * gammaincinv(dof / 2, quantile))


def _chi_square_independence(counts: Mapping[tuple, int], total: int):
    """Chi-square statistic of a joint table against the product of its
    empirical marginals; returns (statistic, dof) over observed supports."""
    if not counts:
        return 0.0, 1
    k = len(next(iter(counts)))
    marginals: list[dict] = [dict() for _ in range(k)]
    for outcome, c in counts.items():
        for i, v in enumerate(outcome):
            marginals[i][v] = marginals[i].get(v, 0) + c
    supports = [sorted(m) for m in marginals]
    stat = 0.0
    for combo in itertools.product(*supports):
        expected = total
        for i, v in enumerate(combo):
            expected *= marginals[i][v] / total
        observed = counts.get(combo, 0)
        if expected > 0:
            stat += (observed - expected) ** 2 / expected
        elif observed:
            return float("inf"), 0
    cells = 1
    params = 0
    for s in supports:
        cells *= len(s)
        params += len(s) - 1
    dof = max(cells - 1 - params, 1)
    return stat, dof


def _chi_square_gate(check: Check, stat: float, dof: int, samples,
                     **parameters) -> VerificationReport:
    """Pass iff the statistic is at most the `GATE_QUANTILE` point of the
    chi-square law with dof degrees of freedom.

    `samples` is the sample size, or the list of sizes of a two-sample
    gate; an empty sample is no evidence, so the gate reports UNDETERMINED.
    """
    threshold = chi_square_threshold(GATE_QUANTILE, dof)
    notes = ()
    if 0 in (samples if isinstance(samples, list) else [samples]):
        check.undetermined += 1
        notes = ("empty sample: no evidence",)
    return check.report(
        PASS if stat <= threshold else FAIL,
        parameters={"samples": samples, "quantile": GATE_QUANTILE, **parameters},
        statistics={"chi_square": stat, "dof": dof, "threshold": threshold},
        notes=notes)


def independence_mc(space, family: Sequence[WindowFunction], samples: int,
                    seed: int, name: str = "independence-mc") -> VerificationReport:
    """Chi-square gate for joint-equals-product-of-marginals on sampled points.

    Each sample is a point of `sample_stream(space, seed, samples)` read on
    the family's declared window only (`sample_window_values`).  The
    samples are tallied by window state first, and the family is evaluated
    once per distinct state, in the order the states first occur, so the
    outcome table, its order and the first read that raises are those of
    one evaluation per sample.  The contract is the one
    `exact_distribution`, and so `independence_exact`, keeps: a variable
    is read only at the coordinates the family declares, and a read of any
    other coordinate raises MissingCoordinateError.
    """
    check = Check(name, "monte-carlo", seed)
    slots = window_slots(space, family_window(family))
    states = Counter(sample_window_values(space, slots, seed, samples))
    fns = [v.fn for v in family]
    counts: dict = {}
    for values, n in states.items():
        x = ExplicitConfiguration.on_slots(space, slots, values)
        key = tuple([fn(x) for fn in fns])
        counts[key] = counts.get(key, 0) + n
    stat, dof = _chi_square_independence(counts, samples)
    return _chi_square_gate(check, stat, dof, samples,
                            variables=[v.name for v in family])


def homogeneity_mc(values_a: Iterable[int], values_b: Iterable[int],
                   seed: int | None, name: str = "homogeneity-mc") -> VerificationReport:
    """Two-sample chi-square gate: both samples drawn from one law."""
    check = Check(name, "monte-carlo", seed)
    counts = [dict(), dict()]
    totals = [0, 0]
    for s, values in enumerate((values_a, values_b)):
        for v in values:
            counts[s][v] = counts[s].get(v, 0) + 1
            totals[s] += 1
    support = sorted(set(counts[0]) | set(counts[1]))
    grand = totals[0] + totals[1]
    stat = 0.0
    for v in support:
        pooled = (counts[0].get(v, 0) + counts[1].get(v, 0)) / grand
        for s in range(2):
            expected = totals[s] * pooled
            if expected > 0:
                stat += (counts[s].get(v, 0) - expected) ** 2 / expected
    return _chi_square_gate(check, stat, max(len(support) - 1, 1), totals)


# -- the twisted-selector independence engine -----------------------------------


@dataclass
class Selector:
    """Named map z -> (group element, index), reading only the first factor.

    The selector receives a lookup for the x-part only, which enforces the
    "depends only on x" precondition structurally; the injectivity
    precondition is checked pointwise by the engine.
    """

    name: str
    fn: Callable[[Callable], tuple]   # x_lookup -> (h, index)


def _selection_law_defect(sel: Sequence[tuple], value_size: int,
                          act: Callable[[object, int], int]):
    """None if lookups (h_j, i_j) at distinct indices are jointly uniform,
    that is if y -> (act(h_j, y_j))_j hits each outcome in V^n once; else
    the lexicographically first outcome not hit once, with its hit count."""
    hits = Counter(tuple(act(h, y) for (h, _), y in zip(sel, ys))
                   for ys in itertools.product(range(value_size), repeat=len(sel)))
    outcomes = itertools.product(range(value_size), repeat=len(sel))
    return next(((vs, hits[vs]) for vs in outcomes if hits[vs] != 1), None)


def selector_independence_exact(x_slots: Sequence[tuple], index_set: Sequence,
                                value_size: int, act: Callable[[object, int], int],
                                family: Sequence[Selector],
                                name: str = "selector-independence",
                                budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Exact decision for families of twisted coordinate lookups.

    The underlying space is X x V^I where X is given by finite slots
    (key, size), I is a finite index set and V a finite value set acted on
    by a measure preserving group action `act`.  Each family member selects
    an index and a group element from x alone; the check verifies that the
    variables z -> act(h(x), y[i(x)]) are jointly uniform on V^family and
    independent of x, provided the selected indices are pairwise distinct
    at every x (reported as a precondition failure otherwise).
    """
    check = Check(name)
    x_keys = [k for k, _ in x_slots]
    x_sizes = [s for _, s in x_slots]
    index_set = list(index_set)
    total_x = math.prod(x_sizes)
    states = total_x * value_size ** len(index_set)
    if states > budget:
        raise BudgetExceededError(f"{states} states exceed budget {budget}")

    selections = []
    for xs in itertools.product(*[range(s) for s in x_sizes]):
        lookup = dict(zip(x_keys, xs)).__getitem__
        sel = [f.fn(lookup) for f in family]
        picked = [i for _, i in sel]
        if len(set(picked)) != len(picked):
            return check.fail(
                notes=("precondition violation: selected indices collide",),
                counterexample={"x": dict(zip(x_keys, xs)),
                                "selected": [(f.name, s) for f, s in zip(family, sel)]},
                statistics={"x_states": total_x})
        for _, i in sel:
            if i not in index_set:
                return check.fail(
                    notes=("precondition violation: selected index outside I",),
                    counterexample={"x": dict(zip(x_keys, xs)), "index": i})
        selections.append((xs, sel))

    cylinders = total_x * value_size ** len(family)
    for xs, sel in selections:
        defect = _selection_law_defect(sel, value_size, act)
        if defect is not None:
            vs, hits = defect
            return check.fail(
                statistics={"states": states},
                counterexample={"cylinder": {"x": dict(zip(x_keys, xs)), "values": vs},
                                "probability": Fraction(hits, cylinders),
                                "expected": Fraction(1, cylinders)})
    return check.report(
        PASS,
        parameters={"family": [f.name for f in family], "index_set_size": len(index_set),
                    "value_size": value_size},
        statistics={"states": states,
                    "per_cylinder_probability": Fraction(1, cylinders)})


def selector_independence_on_samples(points: Iterable, selector_of_point: Callable,
                                     value_size: int,
                                     act: Callable[[object, int], int],
                                     family_names: Sequence[str],
                                     name: str = "selector-independence-sampled",
                                     seed: int | None = None) -> VerificationReport:
    """Conditional variant for infinite x-parts: for each supplied point the
    selected indices must be pairwise distinct, and the y-window joint law,
    enumerated exactly, must be the uniform product."""
    check = Check(name, seed=seed)
    for x in points:
        with check.unresolved:
            sel = selector_of_point(x)
            picked = [i for _, i in sel]
            if len(set(picked)) != len(picked):
                return check.fail(
                    notes=("precondition violation: selected indices collide",),
                    counterexample={"point": str(getattr(x, "point_key", x)),
                                    "selected": [str(s) for s in sel]})
            defect = _selection_law_defect(sel, value_size, act)
            if defect is not None:
                return check.fail(counterexample={"point": str(getattr(x, "point_key", x)),
                                                  "values": defect[0]})
            check.checked += 1
    return check.report(
        PASS, parameters={"family": list(family_names)},
        statistics={"points_checked": check.checked,
                    "undetermined_points": check.undetermined})


class UndeterminedError(RuntimeError):
    """A scan-bounded oracle could not resolve within its radius."""


# -- generation ---------------------------------------------------------------


def generation_check(space, family: Sequence[WindowFunction], window,
                     reconstructor: Callable | None = None,
                     canonicalize: Callable | None = None,
                     budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Finite-window surrogate for sigma-algebra generation.

    With a reconstructor (a map from the dict of variable values to a dict
    of window values): the variables' values must determine the window
    exactly (reconstruct then compare, after `canonicalize` when given).
    Without one: the assignment -> values map must be injective on the
    enumerated window; a collision yields a witness pair of configurations.

    The result is a surrogate: invertibility on a finite window is strictly
    stronger than generation up to null sets, and is what gets checked.
    """
    check = Check("generation")
    note = ("finite-window invertibility surrogate for generation",)
    window = list(window)

    def compare_target(x: Configuration):
        y = canonicalize(x) if canonicalize is not None else x
        return tuple(y.value(c) for c in window)

    if reconstructor is not None:
        for x in enumerate_window(space, window, budget):
            rebuilt = reconstructor({v.name: v.fn(x) for v in family})
            expected = compare_target(x)
            got = tuple(rebuilt[c] for c in window)
            if got != expected:
                return check.fail(
                    notes=note,
                    counterexample={"window": {space.coord_key(c): v for c, v in
                                               zip(window, expected)},
                                    "reconstructed": {space.coord_key(c): v for c, v in
                                                      zip(window, got)}})
            check.checked += 1
        return check.report(
            PASS, notes=note,
            parameters={"variables": [v.name for v in family], "window": len(window)},
            statistics={"points": check.checked})

    seen: dict = {}
    for cfg in enumerate_window(space, window, budget):
        values = tuple(v.fn(cfg) for v in family)
        target = compare_target(cfg)
        if values in seen and seen[values] != target:
            return check.fail(
                notes=note,
                counterexample={
                    "values": values,
                    "first": {space.coord_key(c): v for c, v in zip(window, seen[values])},
                    "second": {space.coord_key(c): v for c, v in zip(window, target)}})
        seen[values] = target
    return check.report(
        PASS, notes=note,
        parameters={"variables": [v.name for v in family], "window": len(window)},
        statistics={"states": len(seen)})
