"""The action engine: shifts, co-induced and twisted actions, quotients by
a commuting translation action, and first-return induced transformations.

The Bernoulli shift, the twisted coset shift and the co-induced action are
all co-inductions: each reads the argument at c . g and acts on the value
by its own rule.  They share one apply, which returns one kind of view, a
shift view of the argument; views of the same action flatten (a chain of
shifts is one shift), so a coordinate read stays O(1) in the number of
applied elements, and a point's identity is summarized by a structural key
(the action's tag, the shift and the base's key) for caching.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .groups import Alphabet, FiniteGroup, cyclic
from .spaces import (Configuration, CosetIndex, DEFAULT_BUDGET, GroupIndex,
                     IntIndex, Space, derive_seed, read_summaries, sample_stream)
from .verify import (FAIL, PASS, Check, UndeterminedError, VerificationReport,
                     WindowFunction, family_window, generation_check,
                     independence_exact)
from .words import FinitePart, GroupSpec, Word, omega_transfer, transversal_words


# -- permutation helpers -------------------------------------------------------


def identity_perm(n: int) -> tuple:
    return tuple(range(n))


def compose_perms(p: Sequence[int], q: Sequence[int]) -> tuple:
    """(p compose q)(i) = p[q[i]]."""
    return tuple(p[q[i]] for i in range(len(q)))


def invert_perm(p: Sequence[int]) -> tuple:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_power(p: Sequence[int], k: int) -> tuple:
    if k < 0:
        return perm_power(invert_perm(p), -k)
    out = identity_perm(len(p))
    base = tuple(p)
    while k:
        if k & 1:
            out = compose_perms(out, base)
        base = compose_perms(base, base)
        k >>= 1
    return out


# -- alphabet actions ----------------------------------------------------------


class SubgroupAlphabetAction:
    """Action of one free-product part on a finite alphabet.

    For a rank-1 free part the action is generated by one permutation; for
    a finite part a permutation per element is supplied and checked to be a
    homomorphism against the multiplication table.

    perm_of memoizes the permutation of each interned word.  The memo lives
    as long as the action; every check builds its own."""

    def __init__(self, spec: GroupSpec, subgroup, alphabet: Alphabet,
                 gen_perm: Sequence[int] | None = None,
                 elem_perms: Sequence[Sequence[int]] | None = None):
        self.spec = spec
        self.part = spec.part_index(subgroup) if isinstance(subgroup, str) else subgroup
        self.alphabet = alphabet
        part = spec.parts[self.part]
        if gen_perm is not None:
            self.gen_perm = tuple(gen_perm)
            self.elem_perms = None
        else:
            self.gen_perm = None
            self.elem_perms = FiniteGroupAlphabetAction(part.group, alphabet, elem_perms).perms
        self._perm_cache: dict = {}

    def perm_of(self, w: Word) -> tuple:
        cached = self._perm_cache.get(w)
        if cached is not None:
            return cached
        out = identity_perm(self.alphabet.size)
        for kind, p, v in w.syllables:
            if p != self.part:
                raise ValueError(f"word {w!r} leaves the acting subgroup")
            step = perm_power(self.gen_perm, v) if kind == "g" else self.elem_perms[v]
            # right-to-left composition matches left action on values
            out = compose_perms(step, out)
        self._perm_cache[w] = out
        return out

    def act(self, w: Word, v: int) -> int:
        return self.perm_of(w)[v]

    def commutes_with(self, perm: Sequence[int]) -> bool:
        gens = [self.gen_perm] if self.gen_perm is not None else \
            [p for p in self.elem_perms]
        return all(compose_perms(perm, g) == compose_perms(g, perm) for g in gens)


def rotation_action(spec: GroupSpec, subgroup, kappa: int) -> SubgroupAlphabetAction:
    """The generator of a rank-1 part acting on Z/kappa by +1."""
    perm = tuple((i + 1) % kappa for i in range(kappa))
    return SubgroupAlphabetAction(spec, subgroup, cyclic(kappa), gen_perm=perm)


class FiniteGroupAlphabetAction:
    """A finite group acting on a finite alphabet by permutations."""

    def __init__(self, group: FiniteGroup, alphabet: Alphabet,
                 perms: Sequence[Sequence[int]]):
        self.group = group
        self.alphabet = alphabet
        self.perms = tuple(tuple(p) for p in perms)
        for a in range(group.size):
            for b in range(group.size):
                if compose_perms(self.perms[a], self.perms[b]) != self.perms[group.mul(a, b)]:
                    raise ValueError(
                        f"permutations are not a homomorphism at ({group.names[a]}, "
                        f"{group.names[b]})")

    def act(self, k: int, v: int) -> int:
        return self.perms[k][v]

    def free_point_witness(self):
        """None if the action is free; otherwise (element, fixed point)."""
        for k in range(self.group.size):
            if k == self.group.identity:
                continue
            for v in range(self.alphabet.size):
                if self.perms[k][v] == v:
                    return (self.group.names[k], self.alphabet.names[v])
        return None


def left_translation_action(group: FiniteGroup) -> FiniteGroupAlphabetAction:
    perms = [[group.mul(k, v) for v in range(group.size)] for k in range(group.size)]
    return FiniteGroupAlphabetAction(group, group, perms)


# -- flattened views -----------------------------------------------------------


class _ShiftView(Configuration):
    """value(c) = the base read at c . u, transformed by the shift action's
    own rule (ShiftAction._read); t is the action's twist of u."""

    def __init__(self, action: "ShiftAction", base: Configuration, u: Word):
        self.action = action
        self.space = action.space
        self.base = base
        self.u = u
        self.t = action.twist(u)

    def value(self, coord) -> int:
        index = self.space.index
        c = index.canonicalize(coord)
        return self.action._read(self, c, self.base.value(index.translate(c, self.u)))

    @property
    def point_key(self):
        return (self.action.tag, self.u.syllables, self.base.point_key)


class _ValueTwistView(Configuration):
    """value(c) = perm[base(c)] (a coordinatewise alphabet permutation)."""

    def __init__(self, base: Configuration, perm: tuple):
        self.space = base.space
        self.base = base
        self.perm = perm

    def value(self, coord) -> int:
        return self.perm[self.base.value(coord)]

    @property
    def point_key(self):
        return ("vtwist", self.perm, self.base.point_key)


def value_twist(x: Configuration, perm: Sequence[int]) -> Configuration:
    perm = tuple(perm)
    if perm == identity_perm(len(perm)):
        return x
    if isinstance(x, _ValueTwistView):
        return value_twist(x.base, compose_perms(perm, x.perm))
    return _ValueTwistView(x, perm)


def diagonal_translate(x: Configuration, k: int) -> Configuration:
    """Left-multiply every coordinate value by the group element k."""
    group = x.space.alphabet
    if not isinstance(group, FiniteGroup):
        raise TypeError("diagonal translation needs a group-valued alphabet")
    return value_twist(x, [group.mul(k, v) for v in range(group.size)])


def quotient_normalize(x: Configuration, base_coord) -> Configuration:
    """Canonical representative of the diagonal-translation orbit of x.

    Left-multiplies every value by the inverse of the value at base_coord,
    so the result has the identity there.  Idempotent and constant on
    orbits of the diagonal left translation action.
    """
    group = x.space.alphabet
    if not isinstance(group, FiniteGroup):
        raise TypeError("quotient normalization needs a group-valued alphabet")
    return diagonal_translate(x, group.inv(x.value(base_coord)))


# -- actions -------------------------------------------------------------------


class Action:
    """p.m.p. action interface: apply(g, x) with g a Word of group_spec."""

    group_spec: GroupSpec
    space: object

    def apply(self, g: Word, x: Configuration) -> Configuration:
        raise NotImplementedError

    def forget(self) -> None:
        """Drop every entry kept for the points seen so far.  A point loop
        calls it when it moves on to a new point: each entry is keyed on its
        point's key, so a later point never reads it."""


class LetterAction(Action):
    """An action given letter by letter: a subclass supplies
    _letter_apply(letter, x), and apply peels the first letter of g, applies
    the rest first and memoizes every image on (g, point key).  While a
    read-summary frame is open, each image is stored with the maxima of
    what computing it read (spaces.ReadSummaries).

    Every check builds its own action.  Only the point loops of
    verify_identity, verify_inverse_pair, coset_freshness_report and
    dependency_radius_report forget a point's entries, once per point, when
    they move on to the next point."""

    def __init__(self):
        self._memo: dict = {}

    def forget(self) -> None:
        self._memo.clear()

    def apply(self, g: Word, x: Configuration) -> Configuration:
        if g.is_identity:
            return x
        key = (g, x.point_key)
        if read_summaries.frame is not None:
            return read_summaries.entry(self._memo, key, self._apply, g, x)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        out = self._memo[key] = self._apply(g, x)
        return out

    def _apply(self, g: Word, x: Configuration) -> Configuration:
        letter, rest = g.split_first_letter()
        return self._letter_apply(letter, x if rest.is_identity else self.apply(rest, x))


class ShiftAction(Action):
    """A co-induced shift: (g . x)_c is the value x_{c g} acted on by the
    action's own rule, so g . x is a view of x at g.

    Applying g to a view of the same action gives the view at g u (a chain
    of shifts is one shift), and the base itself at the identity.  A value
    twist the action commutes with is passed through to the outside.  tag
    identifies the action's rule structurally in every view's point key.
    """

    tag: tuple

    def twist(self, g: Word) -> int:
        """The constant the rule adds to every value of g . x (mod the
        alphabet size): 0 unless the action twists values."""
        return 0

    def _read(self, view: _ShiftView, c, v: int) -> int:
        return v

    def _commutes_with(self, perm: tuple) -> bool:
        return True

    def apply(self, g: Word, x: Configuration) -> Configuration:
        if g.is_identity:
            return x
        if isinstance(x, _ShiftView) and x.action is self:
            u = g * x.u
            return x.base if u.is_identity else _ShiftView(self, x.base, u)
        if isinstance(x, _ValueTwistView) and self._commutes_with(x.perm):
            return value_twist(self.apply(g, x.base), x.perm)
        return _ShiftView(self, x, g)


class BernoulliShift(ShiftAction):
    """(g . x)_h = x_{hg} on alphabet^index for a group or coset index set."""

    tag = ("reloc",)

    def __init__(self, spec: GroupSpec, alphabet: Alphabet, subgroup=None):
        self.group_spec = spec
        index = GroupIndex(spec) if subgroup is None else CosetIndex(spec, subgroup)
        self.space = Space(index, alphabet)


class TwistedCosetShift(ShiftAction):
    """(g . x)_c = twist(g) + x_{c g} on (Z/kappa)^(subgroup\\G).

    twist is the exponent sum of the subgroup's own free generator mod
    kappa (every other syllable contributes 0), so the shift is the
    co-induction of the rotation of the subgroup on Z/kappa.
    """

    def __init__(self, spec: GroupSpec, subgroup, kappa: int):
        self.group_spec = spec
        self.kappa = kappa
        self.space = Space(CosetIndex(spec, subgroup), cyclic(kappa))
        self.part = self.space.index.part
        self.tag = ("twisted", kappa, self.part)

    def twist(self, g: Word) -> int:
        part = self.part
        total = 0
        for kind, p, v in g.syllables:
            if p == part and kind == "g":
                total += v
        return total % self.kappa

    def _read(self, view: _ShiftView, c, v: int) -> int:
        return (view.t + v) % self.kappa

    def _commutes_with(self, perm: tuple) -> bool:
        return False

    def decompose(self, x: Configuration) -> tuple[Configuration, Word, int]:
        """(base, u, t) with x_c = (t + base_{c u}) mod kappa, base not a view
        of this action."""
        if isinstance(x, _ShiftView) and x.action is self:
            return x.base, x.u, x.t
        return x, self.group_spec.identity(), 0


class CoinducedAction(ShiftAction):
    """(g . y)_c = transfer(c, g) . y_{c g} for an inner subgroup action.

    The transfer cocycle is computed from the canonical transversal or, in
    homomorphism mode, from the retraction onto the subgroup.
    """

    def __init__(self, spec: GroupSpec, subgroup, inner: SubgroupAlphabetAction,
                 r_mode: str = "transversal"):
        self.group_spec = spec
        self.part = spec.part_index(subgroup) if isinstance(subgroup, str) else subgroup
        self.inner = inner
        self.r_mode = r_mode
        self.space = Space(CosetIndex(spec, self.part), inner.alphabet)
        self.tag = ("coind", r_mode, inner.gen_perm, inner.elem_perms)

    def _read(self, view: _ShiftView, c, v: int) -> int:
        return self.inner.act(omega_transfer(c, view.u, self.r_mode), v)

    def _commutes_with(self, perm: tuple) -> bool:
        return self.inner.commutes_with(perm)


class QuotientByDiagonal(Action):
    """The base action on orbit representatives of a commuting free
    translation action: points are normalized so the value at base_coord is
    the minimal element of its orbit."""

    def __init__(self, action: Action, alpha: FiniteGroupAlphabetAction, base_coord):
        witness = alpha.free_point_witness()
        if witness is not None:
            raise ValueError(f"translation action is not free: {witness[0]} fixes {witness[1]}")
        self.group_spec = action.group_spec
        self.base_action = action
        self.alpha = alpha
        self.space = action.space
        self.base_coord = self.space.index.canonicalize(base_coord)
        # orbit representative (minimal index) and the normalizing element
        size = alpha.alphabet.size
        self._normalizer = [None] * size
        for v in range(size):
            best, best_k = v, alpha.group.identity
            for k in range(alpha.group.size):
                img = alpha.perms[k][v]
                if img < best:
                    best, best_k = img, k
            self._normalizer[v] = best_k

    def normalize(self, x: Configuration) -> Configuration:
        k = self._normalizer[x.value(self.base_coord)]
        return value_twist(x, self.alpha.perms[k])

    def apply(self, g, x: Configuration) -> Configuration:
        return self.normalize(self.base_action.apply(g, x))


# -- induced (first-return) transformations ------------------------------------


class FirstReturnOracle:
    """Induced transformation on the symbol-0 cylinder {z : z_0 = 0} of
    alphabet^Z.

    Scans read z at offsets from its origin: the n-th return of z lies at
    offset eta(n, z), and no shifted copy of z is built to find it.  All
    scans are bounded by scan_radius and an unresolved scan raises
    UndeterminedError: a reported outcome, not a silent failure.
    """

    def __init__(self, alphabet: Alphabet, scan_radius: int):
        self.scan_radius = scan_radius
        self.space = Space(IntIndex(), alphabet)

    def first_return(self, z: Configuration, direction: int, start: int = 0) -> int:
        """Offset from start to the first return of z after start."""
        for j in range(1, self.scan_radius + 1):
            if z.value(start + direction * j) == 0:
                return direction * j
        raise UndeterminedError(
            f"no return to the cylinder within scan radius {self.scan_radius}")

    def eta(self, n: int, z: Configuration) -> int:
        """Return-time cocycle: the n-th power of the induced map shifts z by
        eta(n, z)."""
        if z.value(0) != 0:
            raise ValueError("point outside the inducing cylinder")
        eta = 0
        step = 1 if n >= 0 else -1
        for _ in range(abs(n)):
            eta += self.first_return(z, step, eta)
        return eta

    def steps_to(self, z: Configuration, total_shift: int) -> int:
        """The m with eta(m, z) = total_shift; the target must be a return."""
        if total_shift == 0:
            return 0
        direction = 1 if total_shift > 0 else -1
        eta, m = 0, 0
        while True:
            eta += self.first_return(z, direction, eta)
            m += direction
            if eta == total_shift:
                return m
            if abs(eta) > abs(total_shift):
                raise ValueError("target shift is not a return of the induced map")


# -- co-induction characterization ---------------------------------------------


def subgroup_test_words(spec: GroupSpec, subgroup) -> list[Word]:
    """Small generating sample of the subgroup part for equivariance checks."""
    part = spec.part_index(subgroup) if isinstance(subgroup, str) else subgroup
    p = spec.parts[part]
    if isinstance(p, FinitePart):
        return [spec.finite_element(part, i) for i in range(p.group.size)
                if i != p.group.identity]
    gen = spec.parts[part].name
    return [spec.generator(gen, k) for k in (-2, -1, 1, 2)]


def check_coinduced_characterization(
        action: Action, rho: WindowFunction, inner_act: Callable[[Word, int], int],
        subgroup, radius: int, *, samples: int = 25, seed: int = 0,
        budget: int = DEFAULT_BUDGET, transversal_kwargs: dict | None = None,
        reconstructor: Callable | None = None, canonicalize: Callable | None = None
        ) -> VerificationReport:
    """Decide the three defining properties of a co-induced action.

    1. subgroup equivariance of the factor map rho (exact on samples);
    2. generation: the factor maps along the radius-bounded transversal
       determine the window (reconstruction, or injectivity enumeration);
    3. independence: the transversal family has exactly the uniform product
       law.
    """
    check = Check("coinduced-characterization")
    spec = action.group_spec
    part = spec.part_index(subgroup) if isinstance(subgroup, str) else subgroup
    tkw = dict(transversal_kwargs or {})
    transversal = transversal_words(spec, part, radius, **tkw)

    # 1. equivariance on sampled points
    equivariance = Check("subgroup-equivariance", seed=seed)
    witness = None
    lams = subgroup_test_words(spec, part)
    for i, y in enumerate(sample_stream(action.space, derive_seed(seed, "equiv"), samples)):
        for lam in lams:
            left = rho.fn(action.apply(lam, y))
            right = inner_act(lam, rho.fn(y))
            if left != right:
                witness = {"lambda": lam, "sample": i, "lhs": left, "rhs": right}
                break
        if witness is not None:
            break
    sub1 = equivariance.report(
        PASS if witness is None else FAIL,
        parameters={"samples": samples, "subgroup_elements": [w.tokens() for w in lams]},
        counterexample=witness)

    # the transversal variable family
    def coords_of(t: Word) -> tuple:
        index = action.space.index
        return tuple(index.translate(index.canonicalize(c), t) for c in rho.coords)

    family = [WindowFunction(t.tokens(), coords_of(t), rho.support,
                             (lambda y, t=t: rho.fn(action.apply(t, y))))
              for t in transversal]
    window = family_window(family)

    # 2. generation on the radius window
    sub2 = generation_check(action.space, family, window, reconstructor=reconstructor,
                            canonicalize=canonicalize, budget=budget)

    # 3. independence of the transversal family
    sub3 = independence_exact(action.space, family, window=None, budget=budget,
                              name="transversal-independence", require_uniform=True)

    return check.combine([sub1, sub2, sub3],
                         parameters={"radius": radius,
                                     "transversal_size": len(transversal)})
