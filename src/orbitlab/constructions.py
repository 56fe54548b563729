"""The explicit builders: the increment isomorphism for diagonal quotients
of group-valued shifts, the free-factor restriction map, transported
(star) actions over co-inductions, the cylinder compression of the twisted
shift onto a higher-rank action, its diagonal Bernoulli extension, and
sections of free finite group actions.

Everything here is assembled from the word/space/action/cocycle layers and
verified by the engines in `verify`; oracle-backed maps (first-return
times, parenthesis matching) carry scan radii and report unresolved scans
as explicit outcomes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .actions import (Action, BernoulliShift, CoinducedAction,
                      FiniteGroupAlphabetAction, FirstReturnOracle, LetterAction,
                      QuotientByDiagonal, SubgroupAlphabetAction, TwistedCosetShift,
                      diagonal_translate, left_translation_action,
                      quotient_normalize, value_twist)
from .cocycles import Cocycle, CocycleTarget, identity_cocycle
from .groups import Alphabet, FiniteGroup, cyclic
from .spaces import (Configuration, DEFAULT_BUDGET, ExplicitConfiguration,
                     GroupIndex, IntIndex, RecordingConfiguration,
                     SeededConfiguration, Space, agree_on, derive_seed,
                     exact_distribution, sample, sample_stream, seed_stream)
from .verify import (FAIL, PASS, Check, UndeterminedError, VerificationReport,
                     WindowFunction, coordinate_variable, homogeneity_mc,
                     independence_exact, selector_independence_on_samples)
from .words import (GroupSpec, Word, ball, coset, cosets_ball,
                    extension_sphere, free_group, free_product, syllable_token,
                    transversal_words)


# ===========================================================================
# Increment isomorphism: group-valued shifts modulo diagonal translation
# ===========================================================================
#
# For a free group with generators a_1..a_n and a K-valued configuration x,
# the increment of x along the edge g -> a_i g is x_g^-1 x_{a_i g}.  The
# increment map is invariant under diagonal left translation, equivariant
# for the shift, and invertible on windows after normalization: integrating
# the increments along the left Cayley tree from the base vertex recovers
# the orbit representative.  Increment tuples in K^n are mixed-radix codes.


def radix_encode(digits, base: int) -> int:
    """The code sum d_i base^(n-i) of digits d_1..d_n, first most significant."""
    code = 0
    for d in digits:
        code = code * base + d
    return code


def radix_decode(code: int, base: int, n: int) -> tuple[int, ...]:
    """The n digits of a mixed-radix code, first digit most significant."""
    return tuple(code // base ** (n - 1 - i) % base for i in range(n))


def increment_alphabet(K: FiniteGroup, n: int) -> Alphabet:
    """Labels of the increment codes: the code of (k_1, ..., k_n) is k_1|...|k_n."""
    return Alphabet(["|".join(t) for t in itertools.product(K.names, repeat=n)],
                    label=f"{K.label}^{n}")


class IncrementView(Configuration):
    """K^n-valued view (increment codes) of a K-valued free-group configuration."""

    def __init__(self, base: Configuration, codes: Alphabet,
                 generators: Sequence[Word]):
        self.space = Space(base.space.index, codes)
        self.base = base
        self.generators = tuple(generators)
        k_group = base.space.alphabet
        self._table, self._inverse = k_group.table, k_group.inverse_table

    def value(self, coord) -> int:
        g = self.space.index.canonicalize(coord)
        row = self._table[self._inverse[self.base.value(g)]]
        code = 0
        for a in self.generators:
            code = code * len(row) + row[self.base.value(a * g)]
        return code

    @property
    def point_key(self):
        return ("increments", self.base.point_key)


def edge_increments(x: Configuration, codes: Alphabet | None = None
                    ) -> IncrementView:
    """The increment configuration of a group-valued free-group configuration."""
    spec = x.space.index.spec
    generators = [spec.generator(p.name) for p in spec.parts]
    if codes is None:
        codes = increment_alphabet(x.space.alphabet, len(generators))
    return IncrementView(x, codes, generators)


def integrate_increments(v: Configuration, radius: int, K: FiniteGroup
                         ) -> Configuration:
    """Inverse of the increment map on a ball: the base vertex is pinned to
    the identity and values propagate along the left Cayley tree."""
    spec = v.space.index.spec
    window: dict = {}
    for w in ball(spec, radius):
        if w.is_identity:
            window[w] = K.identity
            continue
        letter, rest = w.split_first_letter()
        _, i, exp = letter.syllables[0]
        # w = a_i . rest: x_w = x_rest * increment(rest)_i;
        # w = a_i^-1 . rest: x_rest = x_w * increment(w)_i
        inc = radix_decode(v.value(rest if exp == 1 else w), K.size, len(spec.parts))[i]
        window[w] = K.mul(window[rest], inc if exp == 1 else K.inv(inc))
    return ExplicitConfiguration(Space(GroupIndex(spec), K), window)


def increment_family(spec: GroupSpec, K: FiniteGroup, radius: int
                     ) -> list[WindowFunction]:
    """The variables x -> x_g^-1 x_{a_i g} for g in the radius ball."""
    out = []
    generators = [spec.generator(p.name) for p in spec.parts]
    words = ball(spec, radius)
    table, inverse = K.table, K.inverse_table
    for g in words:
        for a in generators:
            ag = a * g
            out.append(WindowFunction(
                f"{a.tokens()}|{g.tokens()}", (g, ag), K.size,
                (lambda x, g=g, ag=ag: table[inverse[x.value(g)]][x.value(ag)])))
    return out


def increment_equivariance_report(spec: GroupSpec, K: FiniteGroup, radius: int,
                                  samples: int, seed: int) -> VerificationReport:
    """theta(h.x)_g = theta(x)_{gh}, exactly, over the output window."""
    check = Check("increment-equivariance", seed=seed)
    shift = BernoulliShift(spec, K)
    codes = increment_alphabet(K, len(spec.parts))
    window = ball(spec, radius)
    words = ball(spec, 3)
    shifted = [(h, [(g, g * h) for g in window]) for h in words]
    for x in sample_stream(shift.space, seed, samples):
        v = edge_increments(x, codes)
        for h, pairs in shifted:
            vh = edge_increments(shift.apply(h, x), codes)
            for g, gh in pairs:
                if vh.value(g) != v.value(gh):
                    return check.fail(counterexample={"h": h, "g": g})
                check.checked += 1
    return check.report(
        PASS, parameters={"radius": radius, "samples": samples, "shifts": len(words)},
        statistics={"comparisons": check.checked})


def increment_roundtrip_report(spec: GroupSpec, K: FiniteGroup, radius: int,
                               samples: int, seed: int) -> VerificationReport:
    """integrate(increments(x)) equals the diagonal-orbit representative of
    x on the radius ball, and increments(integrate(v)) returns v."""
    check = Check("increment-roundtrip", seed=seed)
    shift = BernoulliShift(spec, K)
    codes = increment_alphabet(K, len(spec.parts))
    window = ball(spec, radius)
    inner_window = ball(spec, radius - 1)
    e = spec.identity()
    for x in sample_stream(shift.space, seed, samples):
        rebuilt = integrate_increments(edge_increments(x, codes), radius, K)
        normalized = quotient_normalize(x, e)
        if not agree_on(rebuilt, normalized, window):
            return check.fail(notes=("integrate(increments(x)) != normalized x",))
    vspace = Space(shift.space.index, codes)
    for v in sample_stream(vspace, derive_seed(seed, "v"), samples):
        x = integrate_increments(v, radius, K)
        v2 = edge_increments(x, codes)
        if not agree_on(v2, v, inner_window):
            return check.fail(notes=("increments(integrate(v)) != v",))
    return check.report(PASS, parameters={"radius": radius, "samples": samples})


def increment_grouped_reports(spec: GroupSpec, K: FiniteGroup, radius: int,
                              budget: int = DEFAULT_BUDGET) -> list[VerificationReport]:
    """Exact checks on minimal windows: the per-vertex increment tuple is
    uniform, and every pair of variables is exactly independent."""
    shift = BernoulliShift(spec, K)
    family = increment_family(spec, K, radius)
    per_vertex: dict = {}
    for v in family:
        per_vertex.setdefault(v.coords[0], []).append(v)
    out = []
    for g, vars_ in sorted(per_vertex.items(), key=lambda kv: kv[0].sort_key()):
        out.append(independence_exact(shift.space, vars_, budget=budget,
                                      name=f"increments-at-{g.tokens()}",
                                      require_uniform=True))
    for v1, v2 in itertools.combinations(family, 2):
        out.append(independence_exact(shift.space, [v1, v2], budget=budget,
                                      name=f"pair-{v1.name}-{v2.name}",
                                      require_uniform=True))
    return out


# ===========================================================================
# Free-factor restriction of a coset-indexed shift
# ===========================================================================
#
# For G = Gamma * Lambda acting on K^(Gamma\G) by index translation, with K
# translating values diagonally, restricting a configuration to the
# Lambda-indexed cosets is an equivariant factor map; its normalized
# increments theta_lambda(x) = x_{Gamma e}^-1 x_{Gamma lambda} generate the
# diagonal quotient.


def factor_restriction(x: Configuration, gamma, lam_group: FiniteGroup,
                       lam_part) -> tuple[dict, dict]:
    """Restriction of x to the subgroup-indexed cosets and its normalized
    increments; returns ({lambda: value}, {lambda != e: increment})."""
    spec = x.space.index.spec
    K: FiniteGroup = x.space.alphabet
    values = {}
    for i in range(lam_group.size):
        lam_word = spec.finite_element(lam_part, i)
        values[i] = x.value(coset(spec, gamma, lam_word))
    base_inv = K.inv(values[lam_group.identity])
    increments = {i: K.mul(base_inv, v) for i, v in values.items()
                  if i != lam_group.identity}
    return values, increments


@dataclass
class FactorSetting:
    """G = Gamma * Lambda acting on K^(Gamma\\G), with the diagonal K."""

    gamma_group: FiniteGroup
    lam_group: FiniteGroup
    K: FiniteGroup

    def __post_init__(self):
        self.spec = free_product(self.gamma_group, self.lam_group)
        self.gamma = self.spec.part_index(self.gamma_group.label)
        self.lam = self.spec.part_index(self.lam_group.label)
        self.shift = BernoulliShift(self.spec, self.K, subgroup=self.gamma)
        self.base = coset(self.spec, self.gamma, self.spec.identity())
        self.quotient = QuotientByDiagonal(self.shift, left_translation_action(self.K),
                                           self.base)

    def lam_words(self, include_identity=False) -> list[Word]:
        out = []
        for i in range(self.lam_group.size):
            if i == self.lam_group.identity and not include_identity:
                continue
            out.append(self.spec.finite_element(self.lam, i))
        return out

    def transversal(self, radius: int) -> list[Word]:
        return transversal_words(self.spec, self.lam, radius,
                                 parts=self.gamma_group.label, mode="syllables")


def restriction_consequence_report(setting: FactorSetting, radius: int,
                                   samples: int, seed: int) -> VerificationReport:
    """The restricted increments of a shifted configuration read off the
    original coordinates: theta_lambda of (g.x) equals x_{Gamma g}^-1
    x_{Gamma lambda g}, exactly."""
    check = Check("restriction-consequence", seed=seed)
    sp, K = setting.spec, setting.K
    words = ball(sp, radius, parts=setting.gamma_group.label, mode="syllables")
    for x in sample_stream(setting.shift.space, seed, samples):
        for g in words:
            gx = setting.shift.apply(g, x)
            _, increments = factor_restriction(gx, setting.gamma,
                                               setting.lam_group, setting.lam)
            for i, got in increments.items():
                lam_word = sp.finite_element(setting.lam, i)
                expected = K.mul(K.inv(x.value(coset(sp, setting.gamma, g))),
                                 x.value(coset(sp, setting.gamma, lam_word * g)))
                if got != expected:
                    return check.fail(counterexample={"g": g, "lambda": lam_word})
                check.checked += 1
    return check.report(PASS, parameters={"radius": radius, "samples": samples},
                        statistics={"identities": check.checked})


def restriction_equivariance_report(setting: FactorSetting, samples: int,
                                    seed: int) -> VerificationReport:
    """The restriction intertwines the subgroup translation and the diagonal
    K-translation with their actions on the restricted configuration."""
    check = Check("restriction-equivariance", seed=seed)
    sp, K = setting.spec, setting.K
    lam_all = list(range(setting.lam_group.size))
    for x in sample_stream(setting.shift.space, seed, samples):
        values, _ = factor_restriction(x, setting.gamma, setting.lam_group, setting.lam)
        for lw in setting.lam_words():
            shifted, _ = factor_restriction(setting.shift.apply(lw, x),
                                            setting.gamma, setting.lam_group,
                                            setting.lam)
            iw = lw.syllables[0][2]
            for mu in lam_all:
                if shifted[mu] != values[setting.lam_group.mul(mu, iw)]:
                    return check.fail(counterexample={"lambda": lw,
                                                      "mu": setting.lam_group.names[mu]})
        for k in range(K.size):
            kx = diagonal_translate(x, k)
            kvalues, _ = factor_restriction(kx, setting.gamma, setting.lam_group,
                                            setting.lam)
            if any(kvalues[mu] != K.mul(k, values[mu]) for mu in lam_all):
                return check.fail(counterexample={"k": K.names[k]})
    return check.report(PASS, parameters={"samples": samples})


def restriction_family(setting: FactorSetting, radius: int) -> list[WindowFunction]:
    """The variables x -> x_{Gamma g}^-1 x_{Gamma lambda g} for g in the
    graded transversal and lambda != e."""
    sp, K = setting.spec, setting.K
    out = []
    for g in setting.transversal(radius):
        cg = coset(sp, setting.gamma, g)
        for lw in setting.lam_words():
            clg = coset(sp, setting.gamma, lw * g)
            out.append(WindowFunction(
                f"{lw.tokens()}|{g.tokens()}", (cg, clg), K.size,
                (lambda x, cg=cg, clg=clg: K.mul(K.inv(x.value(cg)), x.value(clg)))))
    return out


def quotient_code(setting: FactorSetting):
    """Encoding of the diagonal quotient of K^Lambda as the mixed-radix codes
    of normalized increment tuples, plus the induced subgroup action on codes."""
    K, lam_group = setting.K, setting.lam_group
    nontrivial = [i for i in range(lam_group.size) if i != lam_group.identity]
    size = K.size ** len(nontrivial)

    def encode(values: dict) -> int:
        base_inv = K.inv(values[lam_group.identity])
        return radix_encode((K.mul(base_inv, values[i]) for i in nontrivial), K.size)

    def decode(code: int) -> dict:
        digits = radix_decode(code, K.size, len(nontrivial))
        return {lam_group.identity: K.identity, **dict(zip(nontrivial, digits))}

    def act(lam_word: Word, code: int) -> int:
        values = decode(code)
        j = lam_group.identity if lam_word.is_identity else lam_word.syllables[0][2]
        shifted = {mu: values[lam_group.mul(mu, j)] for mu in values}
        return encode(shifted)

    return encode, decode, act, size


def quotient_rho(setting: FactorSetting) -> WindowFunction:
    encode, _, _, size = quotient_code(setting)
    words = setting.lam_words(include_identity=True)
    keys = [setting.lam_group.identity if w.is_identity else w.syllables[0][2]
            for w in words]
    coords = tuple(coset(setting.spec, setting.gamma, w) for w in words)

    def fn(x: Configuration) -> int:
        return encode({key: x.value(c) for key, c in zip(keys, coords)})

    return WindowFunction("rho-bar", coords, size, fn)


def factor_quotient_reconstructor(setting: FactorSetting, radius: int) -> Callable:
    """Rebuild the normalized window from the transversal increment values.

    Values are keyed by the transversal word tokens (the characterization
    variables); the reconstruction integrates increments grade by grade.
    """
    sp = setting.spec
    lam_group, K = setting.lam_group, setting.K
    _, decode, _, _ = quotient_code(setting)
    transversal = setting.transversal(radius)

    def reconstruct(values: dict) -> dict:
        w: dict = {setting.base: K.identity}
        by_grade = sorted(transversal,
                          key=lambda t: (t.length(setting.gamma, "syllables"),
                                         t.tokens()))
        for t in by_grade:
            increments = decode(values[t.tokens()])
            ct = coset(sp, setting.gamma, t)
            if ct not in w:
                raise KeyError(f"missing base coset for transversal {t.tokens()}")
            for i, inc in increments.items():
                if i == lam_group.identity:
                    continue
                lam_word = sp.finite_element(setting.lam, i)
                w[coset(sp, setting.gamma, lam_word * t)] = K.mul(w[ct], inc)
        return w

    return reconstruct


# ===========================================================================
# Transported (star) actions over a co-induction
# ===========================================================================


class CommutingSystem:
    """A finite set carrying three commuting-by-construction actions: a
    "dot" action of lam1 x K and a "star" action of lam0 x K with the same
    orbits, all essentially free.  This is the inner data from which the
    star action on the co-induced space is transported."""

    def __init__(self, lam0: FiniteGroup, lam1: FiniteGroup, K: FiniteGroup,
                 alphabet: Alphabet, act0: FiniteGroupAlphabetAction,
                 act1: FiniteGroupAlphabetAction, actk: FiniteGroupAlphabetAction):
        self.lam0, self.lam1, self.K = lam0, lam1, K
        self.alphabet = alphabet
        self.act0, self.act1, self.actk = act0, act1, actk
        for name, act in (("lam0", act0), ("lam1", act1)):
            for l in range(act.group.size):
                for k in range(K.size):
                    for v in range(alphabet.size):
                        if actk.act(k, act.act(l, v)) != act.act(l, actk.act(k, v)):
                            raise ValueError(f"K does not commute with the {name} action")
        for label, (ga, gb) in (("dot", (act1, actk)), ("star", (act0, actk))):
            for la in range(ga.group.size):
                for kb in range(gb.group.size):
                    if la == ga.group.identity and kb == gb.group.identity:
                        continue
                    for v in range(alphabet.size):
                        if ga.act(la, gb.act(kb, v)) == v:
                            raise ValueError(f"the {label} product action is not free")
        for v in range(alphabet.size):
            dot_orbit = {actk.act(k, act1.act(l, v))
                         for l in range(lam1.size) for k in range(K.size)}
            star_orbit = {actk.act(k, act0.act(l, v))
                          for l in range(lam0.size) for k in range(K.size)}
            if dot_orbit != star_orbit:
                raise ValueError(f"orbit mismatch at point {alphabet.names[v]}")

    def solve_transport(self) -> tuple[dict, dict]:
        """eta[(l0, v)] = the unique (l1, k) with (l1, k).v = l0 * v, and the
        inverse direction eta'[(l1, v)] with (l0, k) * v = l1 . v."""

        def solve(act_from, act_to, unsolvable: Callable) -> dict:
            table: dict = {}
            for v in range(self.alphabet.size):
                for l in range(act_from.group.size):
                    target = act_from.act(l, v)
                    hits = [(m, k) for m in range(act_to.group.size)
                            for k in range(self.K.size)
                            if self.actk.act(k, act_to.act(m, v)) == target]
                    if len(hits) != 1:
                        raise ValueError(unsolvable(l, v))
                    table[(l, v)] = hits[0]
            return table

        return (solve(self.act0, self.act1,
                      lambda l0, v: f"transport not uniquely solvable at "
                                    f"({self.lam0.names[l0]}, {self.alphabet.names[v]})"),
                solve(self.act1, self.act0,
                      lambda l1, v: "inverse transport not uniquely solvable"))


def component_twist_system(lam: FiniteGroup, K: FiniteGroup,
                           components: Sequence[tuple]) -> CommutingSystem:
    """Points (l, k, j): lam1 = lam left-translates l, K left-translates k,
    and the star copy of lam acts through a per-component automorphism and
    a per-component twist into K:

        l0 * (l, k, j) = (aut_j(l0) . l, k . twist_j(l0), j)

    Each component is (aut, twist): aut a permutation of lam's elements
    (an automorphism) and twist a list giving a homomorphism lam -> K.
    """
    names = [f"({lam.names[l]},{K.names[k]},{j})"
             for j in range(len(components))
             for l in range(lam.size) for k in range(K.size)]
    alphabet = Alphabet(names, label="twist-system")

    def idx(l, k, j):
        return (j * lam.size + l) * K.size + k

    def action_of(group: FiniteGroup, point_map) -> FiniteGroupAlphabetAction:
        perms = []
        for g in range(group.size):
            perm = [0] * alphabet.size
            for j in range(len(components)):
                for l in range(lam.size):
                    for k in range(K.size):
                        perm[idx(l, k, j)] = point_map(g, l, k, j)
            perms.append(tuple(perm))
        return FiniteGroupAlphabetAction(group, alphabet, perms)

    act1 = action_of(lam, lambda g, l, k, j: idx(lam.mul(g, l), k, j))
    actk = action_of(K, lambda g, l, k, j: idx(l, K.mul(g, k), j))
    act0 = action_of(lam, lambda g, l, k, j: idx(lam.mul(components[j][0][g], l),
                                                 K.mul(k, components[j][1][g]), j))
    return CommutingSystem(lam, lam, K, alphabet, act0, act1, actk)


class StarAction(LetterAction):
    """The transported action of G0 = Gamma * Lam0 on the co-induced space
    of the inner system along Lam1 < G1 = Gamma * Lam1: Gamma acts as in the
    co-induction and Lam0 acts through the transport cocycle evaluated at
    the base coset."""

    def __init__(self, gamma: FiniteGroup, system: CommutingSystem):
        super().__init__()
        self.system = system
        self.gamma_group = gamma
        self.spec0 = free_product(gamma, system.lam0)
        self.spec1 = free_product(gamma, system.lam1)
        self.gamma0 = self.spec0.part_index(gamma.label)
        self.gamma1 = self.spec1.part_index(gamma.label)
        self.lam0 = self.spec0.part_index(system.lam0.label)
        self.lam1 = self.spec1.part_index(system.lam1.label)
        self.inner = SubgroupAlphabetAction(self.spec1, self.lam1, system.alphabet,
                                            elem_perms=system.act1.perms)
        self.dot = CoinducedAction(self.spec1, self.lam1, self.inner)
        self.space = self.dot.space
        self.group_spec = self.spec0
        self.base = coset(self.spec1, self.lam1, self.spec1.identity())
        self.eta, self.eta_prime = system.solve_transport()
        self.quotient = QuotientByDiagonal(self.dot, system.actk, self.base)

    def rho(self, y: Configuration) -> int:
        return y.value(self.base)

    def apply_pair(self, pair: tuple, y: Configuration) -> Configuration:
        """The dot action of (word in G1, element of K)."""
        w, k = pair
        return value_twist(self.dot.apply(w, y), self.system.actk.perms[k])

    def _letter_apply(self, letter: Word, y: Configuration) -> Configuration:
        kind, part, v = letter.syllables[0]
        if part == self.gamma0:
            return self.dot.apply(self.spec1.finite_element(self.gamma1, v), y)
        l1, k = self.eta[(v, self.rho(y))]
        return self.apply_pair((self.spec1.finite_element(self.lam1, l1), k), y)

    def _transport_cocycle(self, inverse: bool) -> Cocycle:
        """The star side into the dot side, or with inverse the reverse: Gamma
        letters map to themselves, Lam letters through the transport table."""
        star = (self, self.spec0, self.gamma0, self.lam0, self.system.lam0, self.eta)
        dot = (self.dot, self.spec1, self.gamma1, self.lam1, self.system.lam1,
               self.eta_prime)
        source, _, gamma_in, lam_in, lam_group, table = dot if inverse else star
        _, spec, gamma_out, lam_out, _, _ = star if inverse else dot
        K = self.system.K
        entries = {}
        for i in range(self.gamma_group.size):
            if i == self.gamma_group.identity:
                continue
            image = (spec.finite_element(gamma_out, i), K.identity)
            entries[("f", gamma_in, i)] = (lambda y, image=image: image)
        for l in range(lam_group.size):
            if l == lam_group.identity:
                continue

            def entry(y, l=l):
                l_out, k = table[(l, self.rho(y))]
                return (spec.finite_element(lam_out, l_out), k)

            entries[("f", lam_in, l)] = entry
        name = "star-transport-inverse" if inverse else "star-transport"
        return Cocycle(source, CocycleTarget(spec=spec, k_group=K), entries, name)

    def omega(self) -> Cocycle:
        """The glued cocycle with g * y = omega(g, y) . y, valued in G1 x K."""
        return self._transport_cocycle(False)

    def omega_prime(self) -> Cocycle:
        """The inverse-direction cocycle with g . y = omega'(g, y) * y."""
        return self._transport_cocycle(True)


def star_relation_report(star: StarAction, radius: int, samples: int,
                         seed: int) -> VerificationReport:
    """g * y = omega(g, y) . y on sampled points, compared on a coset window."""
    check = Check("star-relation", seed=seed)
    om = star.omega()
    words = ball(star.spec0, radius, mode="syllables")
    window = cosets_ball(star.spec1, star.lam1, radius + 1,
                         parts=star.gamma_group.label, mode="syllables")
    for y in sample_stream(star.space, seed, samples):
        for g in words:
            left = star.apply(g, y)
            right = star.apply_pair(om.evaluate(g, y), y)
            if not agree_on(left, right, window):
                return check.fail(counterexample={"g": g})
    return check.report(PASS, parameters={"radius": radius, "samples": samples,
                                          "words": len(words), "window": len(window)})


def star_orbit_report(star: StarAction, radius: int, samples: int,
                      seed: int) -> VerificationReport:
    """Both orbit inclusions on the K-quotient, witnessed by the explicit
    cocycles: the star orbit of the class of y lies in the dot orbit and
    conversely."""
    check = Check("star-orbit-inclusions", seed=seed)
    om, omp = star.omega(), star.omega_prime()
    words0 = ball(star.spec0, radius, mode="syllables")
    words1 = ball(star.spec1, radius, mode="syllables")
    window = cosets_ball(star.spec1, star.lam1, radius + 1,
                         parts=star.gamma_group.label, mode="syllables")
    normalize = star.quotient.normalize
    # (direction, word label, cocycle, its words, the action it lands in)
    directions = (("star into dot", "g", om, words0, star.dot),
                  ("dot into star", "h", omp, words1, star))
    for y in sample_stream(star.space, seed, samples):
        for direction, label, cocycle, words, other in directions:
            for g in words:
                w, _ = cocycle.evaluate(g, y)
                if not agree_on(normalize(cocycle.source.apply(g, y)),
                                normalize(other.apply(w, y)), window):
                    return check.fail(counterexample={"direction": direction, label: g})
    return check.report(PASS, parameters={"radius": radius, "samples": samples})


def star_injectivity_report(star: StarAction, max_grade: int, samples: int,
                            seed: int) -> VerificationReport:
    """For each sample, the word part of the cocycle maps the graded
    transversal slices injectively into the corresponding slices of the
    target group (gamma-letter grade and leading-letter side preserved)."""
    check = Check("star-transversal-injectivity", seed=seed)
    om = star.omega()
    gname = star.gamma_group.label
    slices = [transversal_words(star.spec0, star.lam0, n, parts=gname,
                                mode="syllables", exact=True)
              for n in range(1, max_grade + 1)]
    for y in sample_stream(star.space, seed, samples):
        for n, slice_n in enumerate(slices, 1):
            images = []
            for g in slice_n:
                w, _ = om.evaluate(g, y)
                if w.length(gname, "syllables") != n or w.first_part() != star.gamma1:
                    return check.fail(counterexample={"g": g, "image": w, "grade": n})
                images.append(w)
            if len(set(images)) != len(images):
                return check.fail(counterexample={"grade": n,
                                                  "images": [w.tokens() for w in images]})
    return check.report(PASS, parameters={"max_grade": max_grade, "samples": samples})


def star_conjugation_report(star: StarAction) -> VerificationReport:
    """The transport cocycle conjugates under the commuting translation:
    eta(l0, k.v) = k eta(l0, v) k^-1, exhaustively over the inner set."""
    check = Check("transport-conjugation")
    sys_ = star.system
    for l0 in range(sys_.lam0.size):
        for v in range(sys_.alphabet.size):
            l1, kv = star.eta[(l0, v)]
            for k in range(sys_.K.size):
                l1_t, kv_t = star.eta[(l0, sys_.actk.act(k, v))]
                expected = sys_.K.mul(k, sys_.K.mul(kv, sys_.K.inv(k)))
                if (l1_t, kv_t) != (l1, expected):
                    return check.fail(counterexample={"l0": sys_.lam0.names[l0],
                                                      "point": sys_.alphabet.names[v],
                                                      "k": sys_.K.names[k]})
    return check.report(
        PASS, statistics={"triples": sys_.lam0.size * sys_.alphabet.size * sys_.K.size})


# ===========================================================================
# Parenthesis matching and the cylinder compression
# ===========================================================================


def parenthesis_match(z: Configuration, target_symbol: int, max_radius: int,
                      inverse: bool = False) -> int:
    """Signed offset of the balanced match between the origin symbol and the
    target symbol.

    Forward mode (origin holds symbol 0): scan right, nesting 0s as openers
    and target symbols as closers; returns m > 0 with z_m = target.  Inverse
    mode (origin holds the target): scan left with the roles swapped, for
    the matched 0.  The matching is an involution on any orbit segment
    where it resolves.  The target symbol must not be 0.
    """
    if target_symbol == 0:
        raise ValueError("the target symbol must differ from the opening symbol 0")
    opener, closer, step = (target_symbol, 0, -1) if inverse else (0, target_symbol, 1)
    if z.value(0) != opener:
        raise ValueError(f"{'inverse' if inverse else 'forward'} matching needs "
                         f"the origin on symbol {opener}")
    depth = 0
    for p in range(step, step * (max_radius + 1), step):
        v = z.value(p)
        if v == closer:
            if depth == 0:
                return p
            depth -= 1
        elif v == opener:
            depth += 1
    raise UndeterminedError(f"no match within radius {max_radius}")


class AxisTape:
    """The values of one point along its a-axis, read one coordinate at a
    time and kept.

    Position k holds the base's value at the coset (b)a^k u0, read once by
    its coordinate key through base.read_key, which builds no word or coset
    and leaves no entry in a seeded base's cache.  The key is the token of
    a^k, then those of u0, for k != 0, and u0's tokens without the first
    one, or "e", for k = 0.  That is the canonical key of (b)u0 because rho
    never hands a tape a u0 that leads with a, so any first syllable of u0
    is a b syllable; the base coset's override is found by its key "e".
    Every twisted translate of the base by a^m u0 reads this tape shifted
    by m, so the translates share its reads, and the parenthesis matches
    found on it, keyed by small ints.
    cells maps each position read so far to its value.  The action keeps
    the tape, its cells and its matches until a point loop forgets the
    point (CylinderAction.forget).
    """

    __slots__ = ("base", "u0", "spec", "a_part", "read_key", "tail", "key0",
                 "cells", "matches")

    def __init__(self, base: Configuration, u0: tuple, spec: GroupSpec, a_part: int):
        self.base = base
        self.u0 = u0
        self.spec = spec
        self.a_part = a_part
        self.read_key = base.read_key
        tokens = [syllable_token(spec, s) for s in u0]
        self.tail = "".join([" " + t for t in tokens])
        self.key0 = " ".join(tokens[1:]) or "e"
        self.cells: dict = {}
        self.matches: dict = {}

    @property
    def key(self):
        return (self.base.point_key, self.u0)

    def value(self, k: int) -> int:
        v = self.cells.get(k)
        if v is None:
            v = self.cells[k] = self.read_key(
                syllable_token(self.spec, ("g", self.a_part, k)) + self.tail if k else self.key0)
        return v


class AxisView(Configuration):
    """Z-indexed view of a tape: value(n) = (t + tape[n + m]) mod kappa."""

    def __init__(self, space: Space, tape: AxisTape, m: int, t: int):
        self.space = space
        self.tape = tape
        self.m = m
        self.t = t
        self.kappa = space.alphabet.size

    def value(self, coord) -> int:
        return (self.t + self.tape.value(coord + self.m)) % self.kappa

    def shifted(self, n: int) -> "AxisView":
        return AxisView(self.space, self.tape, self.m + n, self.t)

    @property
    def point_key(self):
        return ("axis", self.tape.key, self.m, self.t)


class CylinderAction(LetterAction):
    """The transported free-product action on the symbol-0 cylinder of the
    twisted coset shift, with its forward and backward cocycles.

    The acting group has generators a, b0..b_{kappa-1}; a acts through the
    induced (first-return) transformation of the a-axis restriction, each
    b_i through conjugating the twisted b-shift by the orbit matchings
    between the symbol cylinders.

    The action memoizes its images (LetterAction) and keeps one a-axis tape
    per (base point key, u0); forget drops both when a point loop moves on
    to the next point.
    """

    def __init__(self, kappa: int, scan_radius: int = 64):
        if kappa < 2:
            raise ValueError("kappa must be >= 2")
        super().__init__()
        self.kappa = kappa
        self.scan_radius = scan_radius
        self.f2 = free_group("a", "b")
        self.twisted = TwistedCosetShift(self.f2, "b", kappa)
        self.space = self.twisted.space
        self.spec_up = free_group("a", *[f"b{i}" for i in range(kappa)])
        self.group_spec = self.spec_up
        self.a0 = self.f2.generator("a")
        self.b0 = self.f2.generator("b")
        self.a_part, self.b_part = self.f2.part_index("a"), self.f2.part_index("b")
        self.base = coset(self.f2, "b", self.f2.identity())
        self.oracle = FirstReturnOracle(cyclic(kappa), scan_radius)
        self._tapes: dict = {}
        self.b_parts = tuple(f"b{i}" for i in range(kappa))

    # -- plumbing ---------------------------------------------------------

    def forget(self) -> None:
        super().forget()
        self._tapes.clear()

    def _tape(self, base: Configuration, u0: tuple) -> AxisTape:
        key = (base.point_key, u0)
        tape = self._tapes.get(key)
        if tape is None:
            tape = AxisTape(base, u0, self.f2, self.a_part)
            self._tapes[key] = tape
        return tape

    def rho(self, x: Configuration) -> AxisView:
        """The a-axis of x: for x = (a^m u0).base twisted by t, the tape of
        (base, u0) read from m on, plus t."""
        base, u, t = self.twisted.decompose(x)
        u0, m = u.syllables, 0
        if u0 and u0[0][0] == "g" and u0[0][1] == self.a_part:
            u0, m = u0[1:], u0[0][2]
        return AxisView(self.oracle.space, self._tape(base, u0), m, t)

    def match(self, z: AxisView, symbol: int, inverse: bool = False) -> int:
        """parenthesis_match(z, symbol, scan_radius, inverse) for an a-axis
        view, scanned once per tape: the outcome depends only on which tape
        symbols open and close and on where the scan starts."""
        kappa = self.kappa
        key = (-z.t % kappa, (symbol - z.t) % kappa, z.m, inverse)
        matches = z.tape.matches
        if key not in matches:
            try:
                matches[key] = parenthesis_match(z, symbol, self.scan_radius, inverse)
            except UndeterminedError:
                matches[key] = None
        offset = matches[key]
        if offset is None:
            raise UndeterminedError(f"no match within radius {self.scan_radius}")
        return offset

    def symbol_index(self, x: Configuration) -> int:
        return x.value(self.base)

    def sample_in_cylinder(self, seed: int) -> Configuration:
        return SeededConfiguration(self.space, seed, {self.base: 0})

    # -- the matched isomorphisms between symbol cylinders -----------------

    def phi_word(self, i: int, x: Configuration, inverse: bool = False) -> Word:
        """Word moving x from the 0-cylinder onto the i-cylinder, or with
        inverse from the i-cylinder back onto the 0-cylinder."""
        if i % self.kappa == 0:
            return self.f2.identity()
        return self.a0 ** self.match(self.rho(x), i % self.kappa, inverse)

    def theta(self, i: int, x: Configuration, inverse: bool = False) -> Configuration:
        return self.twisted.apply(self.phi_word(i, x, inverse), x)

    def _back_offset(self, z: AxisView) -> int:
        """Offset of the 0 matched to z's origin symbol (0 on the 0-cylinder)."""
        i = z.value(0)
        return 0 if i == 0 else self.match(z, i, True)

    def eta_prime(self, n: int, z: AxisView) -> int:
        """Inverse-direction return cocycle: q0(n.z) = eta'(n, z) * q0(z),
        where q0 moves a point back onto the 0 matched to its origin."""
        p_z = self._back_offset(z)
        p_nz = self._back_offset(z.shifted(n))
        return self.oracle.steps_to(z.shifted(p_z), n + p_nz - p_z)

    # -- the transported action ---------------------------------------------

    def _letter_apply(self, letter: Word, x: Configuration) -> Configuration:
        kind, part, v = letter.syllables[0]
        name = self.spec_up.part_name(part)
        if name == "a":
            n = self.oracle.eta(v, self.rho(x))
            return self.twisted.apply(self.a0 ** n, x)
        # b_i^v carries the (i or i+1)-cylinder across b to the other one
        i = self.b_parts.index(name)
        src, dst = (i, i + 1) if v == 1 else (i + 1, i)
        return self.theta(dst, self.twisted.apply(self.b0 ** v, self.theta(src, x)),
                          inverse=True)

    # -- the two cocycles ----------------------------------------------------

    def omega(self) -> Cocycle:
        """Forward cocycle into the rank-2 group: g * x = omega(g, x) . x."""
        target = CocycleTarget(spec=self.f2)
        entries = {("g", self.spec_up.part_index("a")):
                   (lambda x: self.a0 ** self.oracle.eta(1, self.rho(x)))}
        for i in range(self.kappa):
            def entry(x, i=i):
                phi = self.phi_word(i, x)
                moved = self.twisted.apply(self.b0 * phi, x)
                return self.phi_word(i + 1, moved, inverse=True) * self.b0 * phi

            entries[("g", self.spec_up.part_index(f"b{i}"))] = entry
        return Cocycle(self, target, entries, "cylinder-forward")

    def omega_prime(self) -> Cocycle:
        """Backward cocycle on the whole twisted space: g . x = omega'(g,x) * x."""
        target = CocycleTarget(spec=self.spec_up)
        entries = {
            ("g", self.a_part):
                (lambda x: self.spec_up.generator("a", self.eta_prime(1, self.rho(x)))),
            ("g", self.b_part):
                (lambda x: self.spec_up.generator(f"b{self.symbol_index(x)}")),
        }
        return Cocycle(self.twisted, target, entries, "cylinder-backward")

    def b_length_up(self, w: Word) -> int:
        return w.length(self.b_parts)

    def b_length_down(self, w: Word) -> int:
        return w.length("b")

    def extension_word(self, i: int, eps: int, g: Word, x: Configuration,
                       om: Cocycle) -> Word:
        """The first-letter witness b^eps phi(g * x) omega(g, x) whose coset
        translates carry the fresh coordinates of grade |g| + 1."""
        gx = self.apply(g, x)
        w = om.evaluate(g, x)
        return self.b0 ** eps * self.phi_word(i if eps == 1 else i + 1, gx) * w


@dataclass
class StableOE:
    """Record of a stable orbit equivalence: the action `system` on a
    positive-measure subset, `sample(seed)` a seeded point of it, the cocycle
    `forward` into another group's action on it, and the words
    `partition_word(i, x)` of its `partition_count` cells (1-based:
    `partition_word(1, x)` is the identity)."""

    system: object
    sample: Callable
    forward: Cocycle
    partition_count: int
    partition_word: Callable

    def address(self, i: int, lam: Word, x: Configuration) -> Word:
        """phi_i(lam * x) omega(lam, x): the fresh-coordinate address of the
        extension at (i, lam)."""
        lx = self.system.apply(lam, x)
        w = self.forward.target.word_part(self.forward.evaluate(lam, x))
        return self.partition_word(i, lx) * w


def degenerate_stable_oe(action: Action) -> StableOE:
    """The whole-space degenerate record (compression 1, identity cocycle,
    one partition cell): turns any free action into extension input."""
    e = action.group_spec.identity()
    return StableOE(system=action, sample=lambda seed: sample(action.space, seed),
                    forward=identity_cocycle(action), partition_count=1,
                    partition_word=lambda i, x: e)


def build_cylinder_oe(kappa: int, scan_radius: int = 64) -> StableOE:
    """The compression of the twisted coset shift onto its base cylinder,
    carrying the higher-rank action and both cocycles."""
    system = CylinderAction(kappa, scan_radius)

    def partition_word(i: int, x: Configuration) -> Word:
        return system.phi_word(i - 1, x)

    return StableOE(system=system, sample=system.sample_in_cylinder,
                    forward=system.omega(), partition_count=kappa,
                    partition_word=partition_word)


def cylinder_measure_report(system: CylinderAction) -> VerificationReport:
    """The inducing cylinder has exact measure 1/kappa."""
    check = Check("cylinder-measure")
    dist = exact_distribution(system.space,
                              [coordinate_variable(system.space, system.base)],
                              [system.base])
    p = dist.probability((0,))
    expected = Fraction(1, system.kappa)
    return check.report(PASS if p == expected else FAIL,
                        statistics={"measure": p, "expected": expected})


DETERMINACY_THRESHOLD = Fraction(5, 100)


def match_determinacy_report(kappa: int, scan_radius: int, samples: int,
                             seed: int, context_radius: int = 256) -> VerificationReport:
    """Frequency of unresolved forward matches at the configured radius over
    sampled cylinder points, gated below `DETERMINACY_THRESHOLD`.  The same
    frequency at a larger context radius is reported alongside."""
    check = Check("match-determinacy", "monte-carlo", seed)
    space = Space(IntIndex(), cyclic(kappa))
    # a scan resolves at radius r exactly when its match offset is at most r,
    # so one scan at the larger radius decides both counts
    radius = max(scan_radius, context_radius)
    unresolved = unresolved_context = 0
    for s in seed_stream(seed, "det", samples):
        z = SeededConfiguration(space, s, {0: 0})
        for symbol in range(1, kappa):
            try:
                offset = parenthesis_match(z, symbol, radius)
            except UndeterminedError:
                offset = radius + 1
            unresolved += offset > scan_radius
            unresolved_context += offset > context_radius
    total = samples * (kappa - 1)
    freq = Fraction(unresolved, total)
    return check.report(
        PASS if freq < DETERMINACY_THRESHOLD else FAIL,
        parameters={"scan_radius": scan_radius, "samples": samples,
                    "threshold": DETERMINACY_THRESHOLD},
        statistics={"unresolved_frequency": freq,
                    "unresolved": unresolved,
                    "context_radius": context_radius,
                    "context_frequency": Fraction(unresolved_context, total)})


def match_measure_report(kappa: int, scan_radius: int, samples: int,
                         seed: int) -> VerificationReport:
    """Monte-Carlo gate for measure preservation of the matching.

    At a finite scan radius the matching is a piecewise-shift bijection
    between the forward-resolved part of the 0-cylinder and the
    backward-resolved part of the target cylinder, so the honest reference
    for the image cylinder frequencies is a uniform sample of the target
    cylinder conditioned on backward resolution; the two samples are
    compared by a two-sample chi-square gate.
    """
    check = Check("match-measure-preservation")
    space = Space(IntIndex(), cyclic(kappa))
    coords = [-2, -1, 1, 2]

    def draw(tag: str, symbol: int, inverse: bool) -> tuple[list, int]:
        """Codes of the coords around each resolved sampled point: the
        forward image of a 0-cylinder point, or a target-cylinder point
        itself; and the count of unresolved scans."""
        codes, skipped = [], 0
        for s in seed_stream(seed, f"{tag}/{symbol}", samples):
            z = SeededConfiguration(space, s, {0: symbol if inverse else 0})
            try:
                m = parenthesis_match(z, symbol, scan_radius, inverse)
            except UndeterminedError:
                skipped += 1
                continue
            origin = 0 if inverse else m
            code = 0
            for c in coords:
                code = code * kappa + z.value(origin + c)
            codes.append(code)
        return codes, skipped

    reports = []
    for symbol in range(1, kappa):
        images, skipped = draw("mm", symbol, False)
        reference, skipped_ref = draw("mr", symbol, True)
        rep = homogeneity_mc(images, reference, seed, name=f"match-measure-{symbol}")
        rep.statistics["unresolved_forward"] = skipped
        rep.statistics["unresolved_backward"] = skipped_ref
        reports.append(rep)
    return check.combine(reports, parameters={"coords": coords, "samples": samples})


def _letters(spec: GroupSpec, key: str) -> dict[str, int]:
    """|exponent| summed per generator name over the tokens of a free-group
    coordinate key: Word.length of each part of the word it serializes."""
    letters = {part.name: 0 for part in spec.parts}
    for name, exp in spec.parse_tokens(key):
        letters[name] += abs(exp)
    return letters


def dependency_radius_report(system: CylinderAction, max_grade: int, samples: int,
                             seed: int) -> VerificationReport:
    """Reads of the forward cocycle stay inside the declared window: the
    cosets actually read while evaluating omega(g, .) have b-grade at most
    the b-grade of g, and a-offsets bounded by 2 * letters(g) * scan radius
    (each b-letter chains two matching scans, each a-letter one return scan)."""
    check = Check("cocycle-dependency-radius", seed=seed)
    om = system.omega()
    words = [w for w in ball(system.spec_up, max_grade, parts=system.b_parts,
                             exponent_bound=1)
             if not w.is_identity]
    worst = 0
    for s in seed_stream(seed, "dep", samples):
        base = system.sample_in_cylinder(s)
        for g in words:
            log: set = set()
            recorder = RecordingConfiguration(base, log)
            om.forget()  # each recorder is a new point
            with check.unresolved:
                om.evaluate(g, recorder)
                grade = system.b_length_up(g)
                budget = 2 * g.length() * system.scan_radius
                # in coordinate-key order, so a failure reports the least
                # failing coset whatever the set's (hash-seeded) order
                for key in sorted(log):
                    letters = _letters(system.f2, key)
                    b_read, a_read = letters["b"], letters["a"]
                    worst = max(worst, a_read)
                    if b_read > grade or a_read > budget:
                        return check.fail(counterexample={
                            "g": g, "coset": key, "b_grade": b_read, "a_offset": a_read,
                            "allowed_grade": grade, "allowed_offset": budget})
                check.checked += 1
    return check.report(
        PASS, parameters={"max_grade": max_grade, "samples": samples,
                          "scan_radius": system.scan_radius},
        statistics={"checked": check.checked, "undetermined": check.undetermined,
                    "max_a_offset_seen": worst})


def coset_freshness_report(system: CylinderAction, max_grade: int, samples: int,
                           seed: int) -> VerificationReport:
    """The fresh-coordinate cosets (b) a^m (b^eps phi omega) of grade n+1,
    for m in {-2, -1, 1, 2}, are pairwise distinct across (i, eps, g, m)
    and sit strictly above grade n.

    Each coset is placed by the pair (m, wit), and a^m * wit is built only
    for a collision's counterexample.  That is exact once wit passes its
    two checks: wit has b-grade n+1 and leads with b^eps, so a^m * wit does
    not cancel and is a reduced word that leads with an a-syllable, its own
    canonical coset representative, of the same b-grade as wit.  Reduced
    words are a normal form and interned words compare by identity, so two
    pairs are equal exactly when their cosets are."""
    check = Check("fresh-coset-grades", seed=seed)
    om = system.omega()
    offsets = (-2, -1, 1, 2)
    # the (i, eps, g) of each grade n, in the order they are checked
    grades = [[(i, eps, g) for i in range(system.kappa) for eps in (1, -1)
               for g in extension_sphere(system.spec_up,
                                         system.spec_up.generator(f"b{i}", eps), n,
                                         parts=system.b_parts, exponent_bound=1)]
              for n in range(0, max_grade + 1)]
    for s in seed_stream(seed, "fresh", samples):
        x = system.sample_in_cylinder(s)
        om.forget()
        for n, grade in enumerate(grades):
            seen: dict = {}
            for i, eps, g in grade:
                with check.unresolved:
                    wit = system.extension_word(i, eps, g, x, om)
                    if system.b_length_down(wit) != n + 1:
                        return check.fail(counterexample={"witness": wit, "grade": n})
                    first = wit.syllables[0]
                    if first[1] != system.b_part or (1 if first[2] > 0 else -1) != eps:
                        return check.fail(notes=("leading letter of the witness is wrong",),
                                          counterexample={"witness": wit, "eps": eps})
                    for m in offsets:
                        if (m, wit) in seen:
                            fi, feps, fg = seen[m, wit]
                            return check.fail(
                                notes=("coset collision",),
                                counterexample={"coset": system.a0 ** m * wit,
                                                "first": (fi, feps, fg.tokens(), m),
                                                "second": (i, eps, g.tokens(), m)})
                        seen[m, wit] = (i, eps, g)
                        check.checked += 1
    return check.report(
        PASS, parameters={"max_grade": max_grade, "samples": samples,
                          "offsets": list(offsets)},
        statistics={"checked": check.checked, "undetermined": check.undetermined})


# ===========================================================================
# Diagonal Bernoulli extension of a stable orbit equivalence
# ===========================================================================


def extension_distinctness_report(soe: StableOE, lam_words: Sequence[Word],
                                  samples: int, seed: int) -> VerificationReport:
    """The enumeration family phi_i(lam * x) omega(lam, x) has no repetitions
    across (i, lambda) at sampled points (finite truncation of the
    exhaustive-enumeration property)."""
    check = Check("extension-address-distinctness", seed=seed)
    for s in seed_stream(seed, "ext", samples):
        x = soe.sample(s)
        seen: dict = {}
        with check.unresolved:
            for i in range(1, soe.partition_count + 1):
                for lam in lam_words:
                    address = soe.address(i, lam, x)
                    if address in seen:
                        return check.fail(counterexample={"address": address,
                                                          "first": seen[address],
                                                          "second": (i, lam.tokens())})
                    seen[address] = (i, lam.tokens())
                    check.checked += 1
    return check.report(
        PASS, parameters={"lambdas": len(lam_words), "samples": samples},
        statistics={"checked": check.checked, "undetermined_points": check.undetermined})


def extension_action_report(soe: StableOE, y_alphabet: FiniteGroup,
                            words: Sequence[Word], samples: int,
                            seed: int) -> VerificationReport:
    """The cocycle-twisted product extension lam * (x, y) = (lam * x,
    omega(lam, x) . y) is an action: the composition law holds exactly on
    sampled points (equivalently, the extension cocycle satisfies the
    cocycle identity)."""
    check = Check("extension-action", seed=seed)
    system = soe.system
    down_spec = soe.forward.target.spec
    bern = BernoulliShift(down_spec, y_alphabet)
    window = ball(down_spec, 2)
    x_window = [coset(system.f2, "b", system.a0 ** n) for n in range(-2, 3)]

    def ext_apply(lam, x, y):
        w = soe.forward.target.word_part(soe.forward.evaluate(lam, x))
        return system.apply(lam, x), bern.apply(w, y)

    for sx, sy in zip(seed_stream(seed, "ea", samples), seed_stream(seed, "ea/y", samples)):
        x = soe.sample(sx)
        y = sample(bern.space, sy)
        for l1 in words:
            for l2 in words:
                with check.unresolved:
                    x1, y1 = ext_apply(l1, x, y)
                    x2, y2 = ext_apply(l2, x1, y1)
                    x12, y12 = ext_apply(l2 * l1, x, y)
                    if not agree_on(x2, x12, x_window) or not agree_on(y2, y12, window):
                        return check.fail(counterexample={"first": l1, "second": l2})
                    check.checked += 1
    return check.report(PASS, parameters={"words": len(words), "samples": samples},
                        statistics={"checked": check.checked,
                                    "undetermined": check.undetermined})


def extension_independence_report(soe: StableOE, pairs: Sequence[tuple],
                                  y_alphabet: FiniteGroup, samples: int,
                                  seed: int) -> VerificationReport:
    """Fresh-coordinate lookups of the extension are exactly jointly uniform
    conditioned on each sampled base point (engine run per sample with the
    y-window enumerated exactly).  At a point x the family selects
    phi_i(lam * x) omega(lam, x) for each (index, lambda) pair: words of the
    downstairs group, the fresh-coordinate addresses of the extension."""
    names = [f"y@{i}|{lam.tokens()}" for i, lam in pairs]
    points = [soe.sample(s) for s in seed_stream(seed, "ei", samples)]
    return selector_independence_on_samples(
        points, lambda x: [(None, soe.address(i, lam, x)) for i, lam in pairs],
        y_alphabet.size, lambda h, v: v, names, name="extension-independence",
        seed=seed)


# ===========================================================================
# Sections of free actions of finite groups on finite sets
# ===========================================================================


def orbit_section(K: FiniteGroup, action: FiniteGroupAlphabetAction
                  ) -> tuple[list[int], dict]:
    """Orbit representatives and the equivariant product parametrization
    theta(k, y) = k.y of a free action; raises on a fixed point."""
    witness = action.free_point_witness()
    if witness is not None:
        raise ValueError(f"action is not free: {witness[0]} fixes {witness[1]}")
    size = action.alphabet.size
    reps: list[int] = []
    seen: set = set()
    for v in range(size):
        if v in seen:
            continue
        reps.append(v)
        for k in range(K.size):
            seen.add(action.act(k, v))
    theta = {(k, y): action.act(k, y) for k in range(K.size) for y in reps}
    return reps, theta


def section_report(K: FiniteGroup, action: FiniteGroupAlphabetAction
                   ) -> VerificationReport:
    """Bijectivity, equivariance and exact measure transport of the section."""
    check = Check("orbit-section")
    try:
        reps, theta = orbit_section(K, action)
    except ValueError as err:
        return check.fail(counterexample={"reason": str(err)})
    size = action.alphabet.size
    bijection = Check("section-bijective")
    bijective = sorted(theta.values()) == list(range(size)) and len(theta) == size
    subs = [bijection.report(PASS if bijective else FAIL,
                             statistics={"orbits": len(reps), "points": size})]
    equivariance = Check("section-equivariance")
    equivariant = all(
        theta[(K.mul(g, h), y)] == action.act(g, theta[(h, y)])
        for g in range(K.size) for h in range(K.size) for y in reps)
    subs.append(equivariance.report(PASS if equivariant else FAIL,
                                    statistics={"triples": K.size * K.size * len(reps)}))
    pushforward = Check("section-pushforward")
    push = {}
    cell = Fraction(1, K.size) * Fraction(1, len(reps))
    for v in theta.values():
        push[v] = push.get(v, Fraction(0)) + cell
    uniform = all(p == Fraction(1, size) for p in push.values()) and len(push) == size
    subs.append(pushforward.report(PASS if uniform else FAIL,
                                   statistics={"cell_mass": cell}))
    return check.combine(subs, parameters={"group": K.label, "points": size})


def free_action_on_cosets(K: FiniteGroup, copies: int) -> FiniteGroupAlphabetAction:
    """Left translation on `copies` disjoint copies of K: the standard free
    action of K on a set of size copies * |K|."""
    size = K.size * copies
    names = [f"{K.names[v]}#{j}" for j in range(copies) for v in range(K.size)]
    alphabet = Alphabet(names, label=f"{K.label}x{copies}")
    perms = []
    for k in range(K.size):
        perm = [0] * size
        for j in range(copies):
            for v in range(K.size):
                perm[j * K.size + v] = j * K.size + K.mul(k, v)
        perms.append(tuple(perm))
    return FiniteGroupAlphabetAction(K, alphabet, perms)
