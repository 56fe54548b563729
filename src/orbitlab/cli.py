"""Batch harness: declare instances in a JSON config document, run check
suites, write one structured report per check plus a summary.

Exit codes: 0 all checks pass, 1 any check fails, 2 undetermined outcomes
(and no failures), 3 malformed config or a window over the enumeration
budget, with one message naming the field (`checks[i].params.<key>` for
an unknown check parameter, one of the wrong type or below its least
value, an unknown mode, group, twist or instance, a `twist` that gives no
homomorphism from `lam`, or a `lam` group clashing with `gamma`;
`checks[i].<key>` for a check entry key other than `name` and `params`;
`schema_version` other than the integer 1, a `suite` that is not a
string, a `seed` that is not an integer in [0, 2**64), `samples`, `budget`
or `scan_radius` that is not a positive integer, `<key>` for any other
top-level key, `--seed-override` for an override that is not an integer
in [0, 2**64), `--budget` for an override that is not a positive integer;
`groups.<name>.order` for a cyclic order that is not a positive integer,
`groups.<name>.prefix` for a cyclic prefix that is not a string;
`groups.<name>.kind` for an unknown kind, `groups.<name>.<key>` for a
key its kind does not read;
`groups.<name>` for an invalid table, or a table name or element name
that is not a string: group text is refused, not coerced).  Report files
are `NN-<check>.json`, NN being the check's index in the config's
`checks` (also under --only).  Reports are deterministic functions of
(config, seeds); wall-clock data, with the check's own clock as
`runtime_s`, lives in a separate `timing` section so payloads compare
byte-identically across runs.  `run_suite` pauses the cyclic garbage
collector while each check runs and collects the young generation after
each check that returns (`gc_collected` and `gc_collect_s` in `timing`);
library calls leave the collector alone.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .actions import (BernoulliShift, CoinducedAction, FiniteGroupAlphabetAction,
                      SubgroupAlphabetAction, TwistedCosetShift,
                      check_coinduced_characterization)
from .cocycles import verify_identity, verify_inverse_pair
from .constructions import (CylinderAction, FactorSetting, StarAction,
                            build_cylinder_oe, component_twist_system,
                            coset_freshness_report, cylinder_measure_report,
                            degenerate_stable_oe, dependency_radius_report,
                            extension_action_report,
                            extension_distinctness_report,
                            extension_independence_report,
                            factor_quotient_reconstructor, free_action_on_cosets,
                            increment_equivariance_report, increment_family,
                            increment_grouped_reports, increment_roundtrip_report,
                            match_determinacy_report,
                            match_measure_report, quotient_code, quotient_rho,
                            restriction_consequence_report,
                            restriction_equivariance_report, restriction_family,
                            section_report, star_conjugation_report,
                            star_injectivity_report, star_orbit_report,
                            star_relation_report)
from .groups import (Alphabet, FiniteGroup, GroupTableError, cyclic, klein_four,
                     load_group_table, s3)
from .spaces import BudgetExceededError, DEFAULT_BUDGET, SEED_LIMIT, derive_seed, seed_stream
from .verify import (FAIL, PASS, UNDETERMINED, Check, Selector, VerificationReport,
                     WindowFunction, coordinate_variable, family_window,
                     independence_exact, independence_mc,
                     selector_independence_exact, worst_verdict)
from .words import ball, coset, free_group, free_product

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str):
        super().__init__(f"config error at {field_name}: {message}")
        self.field = field_name
        self.message = message


@dataclass
class SuiteContext:
    seed: int
    samples: int = 100
    budget: int = DEFAULT_BUDGET
    scan_radius: int = 64
    groups: dict = field(default_factory=dict)

    def group(self, params: dict, key: str) -> FiniteGroup:
        name = params[key]
        if name not in self.groups:
            raise ConfigError(key, f"group {name!r} is not declared")
        return self.groups[name]


def _free_factors(ctx: SuiteContext, params: dict) -> tuple[FiniteGroup, FiniteGroup]:
    """The groups `gamma` and `lam` of a free product.  Words name its parts
    by label and its elements by name, so the two may share neither."""
    gamma, lam = ctx.group(params, "gamma"), ctx.group(params, "lam")
    other = params["gamma"]
    gamma_tokens = set(gamma.names) - {gamma.names[gamma.identity]}
    for i, name in enumerate(lam.names):
        if i != lam.identity and name in gamma_tokens:
            raise ConfigError("lam", f"element name {name!r} is also in group {other!r}")
    if gamma.label == lam.label:
        raise ConfigError("lam", f"group {other!r} has the same label {lam.label!r}")
    return gamma, lam


GROUP_KEYS = {"cyclic": ("kind", "order", "prefix"), "klein": ("kind",), "s3": ("kind",),
              "table": ("kind", "name", "elements", "table")}


def _build_group(name: str, doc: dict) -> FiniteGroup:
    if not isinstance(doc, dict):
        raise ConfigError(f"groups.{name}", "a group must be an object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in GROUP_KEYS:
        raise ConfigError(f"groups.{name}.kind", f"unknown kind {kind!r}")
    for key in doc:
        if key not in GROUP_KEYS[kind]:
            raise ConfigError(f"groups.{name}.{key}", f"unknown key for a {kind} group")
    if kind == "cyclic":
        order = doc.get("order")
        if type(order) is not int or order < 1:
            raise ConfigError(f"groups.{name}.order",
                              "cyclic groups need a positive integer order")
        prefix = doc.get("prefix", "")
        if not isinstance(prefix, str):
            raise ConfigError(f"groups.{name}.prefix",
                              f"a cyclic prefix must be a string, got {prefix!r}")
        return cyclic(order, prefix)
    if kind == "klein":
        return klein_four()
    if kind == "s3":
        return s3()
    try:
        return load_group_table(doc)
    except GroupTableError as err:
        raise ConfigError(f"groups.{name}", str(err)) from None


# -- check registry -------------------------------------------------------------


@dataclass
class CheckSpec:
    name: str
    description: str
    params: dict                      # parameter name -> default
    runner: Callable
    minimums: dict                    # integer parameter name -> least value

    def catalog_entry(self) -> dict:
        return {"name": self.name, "description": self.description,
                "params": dict(self.params)}


REGISTRY: dict[str, CheckSpec] = {}


def register(name, description, params, minimums=None):
    def deco(fn):
        REGISTRY[name] = CheckSpec(name, description, params, fn, minimums or {})
        return fn
    return deco


def expect_failure(name: str, run: Callable[[], VerificationReport]) -> VerificationReport:
    """Negative control: passes iff `run()` fails, keeping its counterexample;
    the wrapper's clock covers the inner check, and it reports in its mode."""
    check = Check(name)
    inner = run()
    check.mode = inner.mode
    return check.report(PASS if inner.verdict == FAIL else FAIL,
                        notes=("negative control: inner check must fail",),
                        counterexample=inner.counterexample, subreports=(inner,))


@register("theorem-b",
          "increment isomorphism of the diagonal quotient of a group-valued shift",
          {"alphabet": "K", "rank": 2, "family_radius": 1, "roundtrip_radius": 3,
           "equivariance_radius": 2, "mode": "auto", "mc_samples": 10 ** 5,
           "window_radius": None},
          {"rank": 1, "family_radius": 0, "roundtrip_radius": 1,
           "equivariance_radius": 0, "mc_samples": 1, "window_radius": 0})
def _run_theorem_b(ctx: SuiteContext, params: dict) -> VerificationReport:
    check = Check("theorem-b")
    K = ctx.group(params, "alphabet")
    mode = params["mode"]
    if mode not in ("auto", "full", "grouped"):
        raise ConfigError("mode", f"unknown mode {mode!r}, expected auto, full or grouped")
    rank = params["rank"]
    spec = free_group(*[chr(ord("a") + i) for i in range(rank)])
    family = increment_family(spec, K, params["family_radius"])
    if params["window_radius"] is not None:
        window = ball(spec, params["window_radius"])
        if not set(family_window(family)) <= set(window):
            raise ConfigError("window_radius",
                              "the window must hold every coordinate the family reads")
    else:
        window = family_window(family)
    states = K.size ** len(window)
    if mode == "auto":
        mode = "full" if states <= ctx.budget else "grouped"
    shift = BernoulliShift(spec, K)
    subs = []
    if mode == "full":
        joint = independence_exact(shift.space, family, window=window,
                                   budget=ctx.budget,
                                   name="increment-joint-uniformity",
                                   require_uniform=True)
        joint.parameters["window_states"] = states
        subs.append(joint)
    else:
        grouped_check = Check("increment-grouped-exact")
        grouped = increment_grouped_reports(spec, K, params["family_radius"],
                                            budget=ctx.budget)
        subs.append(grouped_check.combine(grouped, parameters={"checks": len(grouped)}))
        subs.append(independence_mc(shift.space, family[:4], params["mc_samples"],
                                    derive_seed(ctx.seed, "tb/mc"),
                                    name="increment-subfamily-mc"))
    subs.append(increment_equivariance_report(
        spec, K, params["equivariance_radius"], ctx.samples,
        derive_seed(ctx.seed, "tb/equiv")))
    subs.append(increment_roundtrip_report(
        spec, K, params["roundtrip_radius"], ctx.samples,
        derive_seed(ctx.seed, "tb/round")))
    return check.combine(subs, parameters={"alphabet": K.label, "rank": rank,
                                           "mode": mode})


@register("lemma-factor",
          "free-factor restriction of a coset shift and its quotient characterization",
          {"gamma": "G", "lam": "L", "K": "K"})
def _run_lemma_factor(ctx: SuiteContext, params: dict) -> VerificationReport:
    check = Check("lemma-factor")
    setting = FactorSetting(*_free_factors(ctx, params), ctx.group(params, "K"))
    radius = 2
    subs = [restriction_consequence_report(setting, radius, ctx.samples,
                                           derive_seed(ctx.seed, "lf/conseq")),
            restriction_equivariance_report(setting, ctx.samples,
                                            derive_seed(ctx.seed, "lf/equi")),
            independence_exact(setting.shift.space, restriction_family(setting, 1),
                               budget=ctx.budget, require_uniform=True,
                               name="restriction-independence-radius1")]
    _, _, act, _ = quotient_code(setting)
    subs.append(check_coinduced_characterization(
        setting.quotient, quotient_rho(setting), act, setting.lam, radius,
        transversal_kwargs={"parts": setting.gamma_group.label, "mode": "syllables"},
        reconstructor=factor_quotient_reconstructor(setting, radius),
        canonicalize=setting.quotient.normalize,
        samples=ctx.samples, seed=derive_seed(ctx.seed, "lf/char"), budget=ctx.budget))
    return check.combine(subs, parameters={"gamma": setting.gamma_group.label,
                                           "lam": setting.lam_group.label,
                                           "K": setting.K.label, "radius": radius})


@register("star-action",
          "transported free-product action over a co-induction, with both cocycles",
          {"gamma": "G", "lam": "L", "K": "K", "twist": 1})
def _run_star_action(ctx: SuiteContext, params: dict) -> VerificationReport:
    check = Check("star-action")
    gamma, lam = _free_factors(ctx, params)
    K = ctx.group(params, "K")
    twist = params["twist"]
    if not 0 <= twist < K.size:
        raise ConfigError("twist", "twist must index a K element")
    ident_aut = tuple(range(lam.size))
    trivial = [K.identity] * lam.size
    twisted = [K.identity if i == lam.identity else twist for i in range(lam.size)]
    if any(twisted[lam.mul(a, b)] != K.mul(twisted[a], twisted[b])
           for a in range(lam.size) for b in range(lam.size)):
        raise ConfigError("twist", f"sending every non-identity element of group "
                          f"{params['lam']!r} to {K.names[twist]!r} is not a "
                          f"homomorphism into group {params['K']!r}")
    system = component_twist_system(lam, K, [(ident_aut, trivial),
                                             (ident_aut, twisted)])
    star = StarAction(gamma, system)
    subs = [star_relation_report(star, 3, ctx.samples, derive_seed(ctx.seed, "st/rel")),
            star_orbit_report(star, 2, ctx.samples, derive_seed(ctx.seed, "st/orb")),
            star_injectivity_report(star, 2, ctx.samples, derive_seed(ctx.seed, "st/inj")),
            star_conjugation_report(star)]
    return check.combine(subs, parameters={"gamma": gamma.label, "lam": lam.label,
                                           "K": K.label, "twist": K.names[twist]})


@register("lemma-2",
          "cylinder compression of the twisted shift onto a higher-rank action",
          {"kappa": 2, "identity_length": 4, "inverse_length": 3, "determinacy": True,
           "measure_samples": 4000},
          {"kappa": 2, "identity_length": 0, "inverse_length": 0, "measure_samples": 1})
def _run_lemma_2(ctx: SuiteContext, params: dict) -> VerificationReport:
    check = Check("lemma-2")
    kappa = params["kappa"]
    scan_radius, samples = ctx.scan_radius, ctx.samples
    system = CylinderAction(kappa, scan_radius)
    om, omp = system.omega(), system.omega_prime()
    subs = [cylinder_measure_report(system)]
    max_length = params["identity_length"]
    sized = [(w, w.length()) for w in ball(system.spec_up, max_length)]
    pairs = [(g, h) for g, g_len in sized for h, h_len in sized
             if g_len + h_len <= max_length]
    points = [system.sample_in_cylinder(s) for s in seed_stream(ctx.seed, "l2/id", samples)]
    subs.append(verify_identity(om, pairs, points, name="forward-cocycle-identity"))
    words_inv = ball(system.spec_up, params["inverse_length"])
    points_inv = [system.sample_in_cylinder(s)
                  for s in seed_stream(ctx.seed, "l2/inv", samples)]
    subs.append(verify_inverse_pair(om, omp, words_inv, points_inv,
                                    lengths=(system.b_length_up, system.b_length_down),
                                    name="inverse-pair-and-length"))
    subs.append(coset_freshness_report(system, 2, min(samples, 20),
                                       derive_seed(ctx.seed, "l2/fresh")))
    subs.append(dependency_radius_report(system, 2, min(samples, 10),
                                         derive_seed(ctx.seed, "l2/dep")))
    if params["determinacy"]:
        subs.append(match_determinacy_report(kappa, scan_radius, 10 ** 4,
                                             derive_seed(ctx.seed, "l2/det")))
    subs.append(match_measure_report(kappa, scan_radius, params["measure_samples"],
                                     derive_seed(ctx.seed, "l2/mm")))
    return check.combine(subs, parameters={"kappa": kappa, "scan_radius": scan_radius,
                                           "samples": samples})


@register("lemma-3",
          "diagonal Bernoulli extension of a stable orbit equivalence",
          {"kappa": 2}, {"kappa": 2})
def _run_lemma_3(ctx: SuiteContext, params: dict) -> VerificationReport:
    check = Check("lemma-3")
    kappa = params["kappa"]
    samples = min(ctx.samples, 25)
    soe = build_cylinder_oe(kappa, ctx.scan_radius)
    system = soe.system
    lams = ball(system.spec_up, 1, parts=system.b_parts, exponent_bound=1)
    y_alphabet = cyclic(2)
    subs = [extension_distinctness_report(soe, lams, samples,
                                          derive_seed(ctx.seed, "l3/dist"))]
    pairs = [(1, system.spec_up.identity()), (2, system.spec_up.generator("b0"))]
    subs.append(extension_independence_report(soe, pairs, y_alphabet, samples,
                                              derive_seed(ctx.seed, "l3/ind")))
    x_window = [coset(system.f2, "b", system.a0 ** n) for n in range(-2, 3)]
    subs.append(extension_action_report(soe, y_alphabet,
                                        ball(system.spec_up, 1), x_window,
                                        min(samples, 10),
                                        derive_seed(ctx.seed, "l3/act")))
    # degenerate whole-space instance: the extension is the plain diagonal
    f2 = free_group("a", "b")
    degenerate = degenerate_stable_oe(BernoulliShift(f2, cyclic(2)))
    subs.append(extension_distinctness_report(degenerate, ball(f2, 1), samples,
                                              derive_seed(ctx.seed, "l3/deg")))
    subs.append(extension_independence_report(
        degenerate, [(1, f2.identity()), (1, f2.generator("a"))],
        y_alphabet, samples, derive_seed(ctx.seed, "l3/degi")))
    return check.combine(subs, parameters={"kappa": kappa, "samples": samples})


@register("appendix-section",
          "sections of free finite group actions on finite sets", {})
def _run_appendix_section(ctx: SuiteContext, params: dict) -> VerificationReport:
    check = Check("appendix-section")
    subs = []
    for order, copies in ((2, 3), (3, 2)):
        K = cyclic(order)
        subs.append(section_report(K, free_action_on_cosets(K, copies)))
    # negative control: a fixed point must be rejected with a witness
    K = cyclic(2)
    alphabet = Alphabet(["p0", "p1", "p2"], label="3pts")
    nonfree = FiniteGroupAlphabetAction(K, alphabet, [(0, 1, 2), (1, 0, 2)])
    subs.append(expect_failure("non-free-rejected", lambda: section_report(K, nonfree)))
    return check.combine(subs)


@register("lemma-indep",
          "twisted-selector independence decision procedure", {})
def _run_lemma_indep(ctx: SuiteContext, params: dict) -> VerificationReport:
    check = Check("lemma-indep")
    x_size, value_size, index_size = 2, 2, 3
    flip = tuple((v + 1) % value_size for v in range(value_size))
    ident = tuple(range(value_size))

    def act(h, v):
        return h[v] if h is not None else v

    def decide(slot_size, slots, family, name):
        return selector_independence_exact([("x", slot_size)], list(range(slots)),
                                           value_size, act, family, name=name,
                                           budget=ctx.budget)

    positive = [
        Selector("twisted-by-x", lambda x: (flip if x("x") % 2 else ident,
                                            x("x") % index_size)),
        Selector("fixed-slot", lambda x: (ident, index_size - 1)),
    ]
    subs = [decide(x_size, index_size, positive, "selector-independence-positive")]
    duplicated = [
        Selector("first", lambda x: (ident, x("x") % index_size)),
        Selector("clash", lambda x: (ident, x("x") % index_size)),
    ]
    subs.append(expect_failure("duplicated-index-rejected", lambda: decide(
        x_size, index_size, duplicated, "selector-independence-duplicated")))
    single = [Selector("y0", lambda x: (ident, 0))]
    subs.append(decide(1, 1, single, "selector-single-marginal"))
    return check.combine(subs, parameters={"x_size": x_size, "value_size": value_size,
                                           "index_size": index_size})


@register("coinduction-characterization",
          "the three defining properties of a co-induced action",
          {"instance": "finite-factor", "kappa": 2, "radius": 2},
          {"kappa": 1, "radius": 0})
def _run_characterization(ctx: SuiteContext, params: dict) -> VerificationReport:
    radius = params["radius"]
    instance = params["instance"]
    if instance == "finite-factor":
        G = free_product(cyclic(2, "g"), cyclic(2, "h"))
        inner = SubgroupAlphabetAction(G, "h2", cyclic(2),
                                       elem_perms=[(0, 1), (1, 0)])
        action = CoinducedAction(G, "h2", inner)
        base = coset(G, "h2", G.identity())
        rho = WindowFunction("rho", (base,), 2, lambda y: y.value(base))

        def reconstructor(values):
            return {coset(G, "h2", G.word(t)): v for t, v in values.items()}

        report = check_coinduced_characterization(
            action, rho, lambda lam, v: inner.act(lam, v), "h2", radius,
            transversal_kwargs={"parts": "g2", "mode": "syllables"},
            reconstructor=reconstructor, samples=ctx.samples,
            seed=derive_seed(ctx.seed, "cc/fin"), budget=ctx.budget)
    elif instance == "twisted-shift":
        kappa = params["kappa"]
        f2 = free_group("a", "b")
        action = TwistedCosetShift(f2, "b", kappa)
        base = coset(f2, "b", f2.identity())
        rho = WindowFunction("rho", (base,), kappa, lambda x: x.value(base))

        def reconstructor(values):
            out = {}
            for tokens, v in values.items():
                t = f2.word(tokens)
                out[coset(f2, "b", t)] = (v - action.twist(t)) % kappa
            return out

        report = check_coinduced_characterization(
            action, rho, lambda lam, v: (v + action.twist(lam)) % kappa, "b", radius,
            transversal_kwargs={}, reconstructor=reconstructor, samples=ctx.samples,
            seed=derive_seed(ctx.seed, "cc/tw"), budget=ctx.budget)
    else:
        raise ConfigError("instance", f"unknown instance {instance!r}")
    report.parameters["instance"] = instance
    return report


@register("negative-control",
          "a deliberately failing independence check (exit-code plumbing)",
          {})
def _run_negative_control(ctx: SuiteContext, params: dict) -> VerificationReport:
    f2 = free_group("a", "b")
    shift = BernoulliShift(f2, cyclic(2))
    v = coordinate_variable(shift.space, f2.identity(), "duplicated")
    return independence_exact(shift.space, [v, v], name="negative-control")


# -- config parsing and the suite runner ------------------------------------------


SETTINGS = ("samples", "budget", "scan_radius")  # optional; SuiteContext has the defaults
TOP_LEVEL = {"schema_version", "suite", "seed", *SETTINGS, "groups", "checks"}


def _positive_int(field_name: str, value) -> int:
    if type(value) is not int or value < 1:
        raise ConfigError(field_name, f"expected a positive integer, got {value!r}")
    return value


def _seed_in_range(field_name: str, seed: int) -> int:
    if not 0 <= seed < SEED_LIMIT:
        raise ConfigError(field_name, f"expected a seed in [0, 2**64), got {seed}")
    return seed


def _fits(default, value) -> bool:
    """An int default takes a JSON integer (not a bool), a null default an
    integer or null, and a bool or str default that type."""
    if default is None:
        return value is None or type(value) is int
    return type(value) is type(default)


def parse_config(document: dict) -> tuple[SuiteContext, list]:
    if not isinstance(document, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    version = document.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigError("schema_version",
                          f"expected schema_version {SCHEMA_VERSION}")
    for key in document:
        if key not in TOP_LEVEL:
            raise ConfigError(key, "unknown suite setting")
    if not isinstance(document.get("suite", ""), str):
        raise ConfigError("suite", f"expected a string, got {document['suite']!r}")
    if type(document.get("seed")) is not int:
        raise ConfigError("seed", "an integer seed is mandatory")
    ctx = SuiteContext(seed=_seed_in_range("seed", document["seed"]), **{
        key: _positive_int(key, document[key]) for key in SETTINGS if key in document})
    groups = document.get("groups", {})
    if not isinstance(groups, dict):
        raise ConfigError("groups", "groups must be an object")
    for name, doc in groups.items():
        ctx.groups[name] = _build_group(name, doc)
    checks = document.get("checks")
    if not isinstance(checks, list) or not checks:
        raise ConfigError("checks", "a nonempty list of checks is required")
    resolved = []
    for i, entry in enumerate(checks):
        if not isinstance(entry, dict):
            raise ConfigError(f"checks[{i}]", "a check must be an object")
        for key in entry:
            if key not in ("name", "params"):
                raise ConfigError(f"checks[{i}].{key}", "unknown key for a check")
        name = entry.get("name")
        if not isinstance(name, str) or name not in REGISTRY:
            raise ConfigError(f"checks[{i}].name", f"unknown check {name!r}")
        spec = REGISTRY[name]
        params = dict(spec.params)
        overrides = entry.get("params", {})
        if not isinstance(overrides, dict):
            raise ConfigError(f"checks[{i}].params", "params must be an object")
        for key, value in overrides.items():
            if key not in spec.params:
                raise ConfigError(f"checks[{i}].params.{key}",
                                  f"unknown parameter for check {name!r}")
            default = spec.params[key]
            if not _fits(default, value):
                kind = "int or null" if default is None else type(default).__name__
                raise ConfigError(f"checks[{i}].params.{key}",
                                  f"expected {kind}, got {value!r}")
            least = spec.minimums.get(key)
            if least is not None and value is not None and value < least:
                raise ConfigError(f"checks[{i}].params.{key}",
                                  f"expected an integer >= {least}, got {value!r}")
            params[key] = value
        resolved.append((spec, params))
    return ctx, resolved


def list_checks() -> list[dict]:
    """Self-describing catalog of the registered checks."""
    return [REGISTRY[name].catalog_entry() for name in sorted(REGISTRY)]


def _exit_code(verdicts: list[str]) -> int:
    if FAIL in verdicts:
        return 1
    if UNDETERMINED in verdicts:
        return 2
    return 0


def run_suite(config_path, out_dir, only: str | None = None,
              seed_override: int | None = None, budget_override: int | None = None,
              fmt: str = "text", stream=None) -> int:
    """Run every check of the config document and write report files.

    Returns the exit status (0 pass / 1 fail / 2 undetermined / 3 config
    error or a window over the enumeration budget); the summary and one
    report per check land in out_dir.
    """
    stream = stream or sys.stdout
    try:
        document = json.loads(Path(config_path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        print(f"config error at <file>: {err}", file=stream)
        return 3
    try:
        ctx, checks = parse_config(document)
        if seed_override is not None:
            if type(seed_override) is not int:
                raise ConfigError("--seed-override",
                                  f"expected an integer, got {seed_override!r}")
            ctx.seed = _seed_in_range("--seed-override", seed_override)
        if budget_override is not None:
            ctx.budget = _positive_int("--budget", budget_override)
        # i is the check's index in the config, also under --only
        selected = [(i, spec, params) for i, (spec, params) in enumerate(checks)
                    if only is None or spec.name == only]
        if not selected:
            raise ConfigError("checks", f"--only {only!r} matches no check")
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        summary_checks = []
        verdicts = []
        for i, spec, params in selected:
            # a check's word tables and per-check memos live as long as it
            # does (its point loops forget only the per-point memos), so full
            # collections during it walk them and free little; everything the
            # check allocated is still young once it returns.  A raising
            # check is not collected: the exception in flight still holds
            # its frames, so a collection would only promote its garbage
            enabled = gc.isenabled()
            gc.disable()
            try:
                report = spec.runner(ctx, params)
            except BudgetExceededError as err:
                raise ConfigError(f"checks[{i}] ({spec.name})", str(err)) from None
            except ConfigError as err:
                raise ConfigError(f"checks[{i}].params.{err.field}", err.message) from None
            finally:
                if enabled:
                    gc.enable()
            started = time.perf_counter()
            collected = gc.collect(0)
            collect_s = time.perf_counter() - started
            filename = f"{i:02d}-{spec.name}.json"
            payload = {
                "schema_version": SCHEMA_VERSION,
                "check": spec.name,
                "report": report.to_payload(),
            }
            body = dict(payload)
            body["timing"] = {
                "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                "runtime_s": report.runtime_s,
                "gc_collected": collected,
                "gc_collect_s": collect_s,
            }
            (out / filename).write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
            summary_checks.append({"name": spec.name, "verdict": report.verdict,
                                   "file": filename})
            verdicts.append(report.verdict)
            if fmt == "text":
                print(f"[{report.verdict.upper():>12}] {spec.name}", file=stream)
        summary = {
            "schema_version": SCHEMA_VERSION,
            "suite": document.get("suite", Path(config_path).stem),
            "seed": ctx.seed,
            "checks": summary_checks,
            "verdict": worst_verdict(verdicts),
        }
        summary_body = dict(summary)
        summary_body["timing"] = {
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat()}
        (out / "summary.json").write_text(
            json.dumps(summary_body, indent=2, sort_keys=True) + "\n")
        if fmt == "structured":
            print(json.dumps(summary, indent=2, sort_keys=True), file=stream)
        else:
            print(f"suite verdict: {summary['verdict']}", file=stream)
        return _exit_code(verdicts)
    except ConfigError as err:
        print(str(err), file=stream)
        return 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="orbitlab",
        description="run exact/Monte-Carlo verification suites over shift actions")
    parser.add_argument("--config", help="path to the suite config document")
    parser.add_argument("--out", help="directory for report files")
    parser.add_argument("--only", help="run only the named check")
    parser.add_argument("--seed-override", type=int, default=None)
    parser.add_argument("--budget", type=int, default=None,
                        help="override the enumeration budget")
    parser.add_argument("--format", choices=["text", "structured"], default="text")
    parser.add_argument("--list-checks", action="store_true",
                        help="print the check catalog and exit")
    args = parser.parse_args(argv)
    if args.list_checks:
        print(json.dumps(list_checks(), indent=2, sort_keys=True))
        return 0
    if not args.config or not args.out:
        parser.error("--config and --out are required unless --list-checks")
    return run_suite(args.config, args.out, only=args.only,
                     seed_override=args.seed_override, budget_override=args.budget,
                     fmt=args.format)


if __name__ == "__main__":
    sys.exit(main())
