"""Measurable 1-cocycles with finite dependency windows.

A cocycle is stored only on generator letters; the value on an arbitrary
word is defined by peeling the leftmost letter through the cocycle
identity
    w(g h, x) = w(g, h . x) w(h, x),
with inverse letters handled by w(l^-1, x) = w(l, l^-1 . x)^-1.  Because
evaluation routes through the identity, verify_identity is the single
trust anchor for well-definedness of a generator table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .groups import FiniteGroup
from .verify import PASS, Check, UndeterminedError, VerificationReport
from .words import GroupSpec, Word


class CocycleSolveError(RuntimeError):
    """The defining relation of a transported cocycle has no unique solution."""


@dataclass
class CocycleTarget:
    """Target group: a word group, optionally paired with a finite group.

    Elements are Words, or (Word, int) pairs for the direct product with a
    finite group.
    """

    spec: GroupSpec | None = None
    k_group: FiniteGroup | None = None

    @property
    def paired(self) -> bool:
        return self.spec is not None and self.k_group is not None

    def identity(self):
        if self.paired:
            return (self.spec.identity(), self.k_group.identity)
        if self.spec is not None:
            return self.spec.identity()
        return self.k_group.identity

    def mul(self, a, b):
        if self.paired:
            return (a[0] * b[0], self.k_group.mul(a[1], b[1]))
        if self.spec is not None:
            return a * b
        return self.k_group.mul(a, b)

    def inv(self, a):
        if self.paired:
            return (a[0].inverse(), self.k_group.inv(a[1]))
        if self.spec is not None:
            return a.inverse()
        return self.k_group.inv(a)

    def word_part(self, a) -> Word:
        return a[0] if self.paired else a

    def describe(self, a):
        if self.paired:
            return (a[0].tokens(), self.k_group.names[a[1]])
        if self.spec is not None:
            return a.tokens()
        return self.k_group.names[a]


class Cocycle:
    """Cocycle for a left action, defined by a generator-letter table.

    entries maps ("g", part) to the value function of the +1 generator
    letter and ("f", part, elem) to that of a finite-part element; every
    value function takes a point of the source space.
    """

    def __init__(self, source, target: CocycleTarget, entries: dict,
                 name: str = "cocycle"):
        self.source = source
        self.target = target
        self.entries = dict(entries)
        self.name = name

    def _letter_value(self, letter: Word, x):
        kind, p, v = letter.syllables[0]
        if kind == "f":
            fn = self.entries.get(("f", p, v))
            if fn is None:
                raise KeyError(f"no table entry for letter {letter.tokens()}")
            return fn(x)
        fn = self.entries.get(("g", p))
        if fn is None:
            raise KeyError(f"no table entry for generator of part {p}")
        if v == 1:
            return fn(x)
        # w(l^-1, x) = w(l, l^-1 . x)^-1
        return self.target.inv(fn(self.source.apply(letter, x)))

    def evaluate(self, g: Word, x, cache: dict | None = None):
        if g.is_identity:
            return self.target.identity()
        key = None
        if cache is not None:
            key = (g, x.point_key)
            hit = cache.get(key)
            if hit is not None:
                return hit
        letter, rest = g.split_first_letter()
        if rest.is_identity:
            out = self._letter_value(letter, x)
        else:
            tail = self.evaluate(rest, x, cache)
            out = self.target.mul(self._letter_value(letter, self.source.apply(rest, x)),
                                  tail)
        if cache is not None:
            cache[key] = out
        return out

    def __call__(self, g: Word, x):
        return self.evaluate(g, x)


def homomorphism_cocycle(source, target: CocycleTarget,
                         images: dict, name: str = "homomorphism") -> Cocycle:
    """Constant cocycle w(g, x) = phi(g) for a homomorphism given on letters.

    images maps generator names (value of the +1 letter) and finite element
    names to target elements.
    """
    spec = source.group_spec
    entries = {}
    for token, value in images.items():
        if token in spec._gen_part:
            entries[("g", spec._gen_part[token])] = (lambda x, v=value: v)
        else:
            p, i = spec._elem_token[token]
            entries[("f", p, i)] = (lambda x, v=value: v)
    return Cocycle(source, target, entries, name)


def identity_cocycle(source) -> Cocycle:
    """w(g, x) = g (the identity homomorphism into the acting group)."""
    spec = source.group_spec
    target = CocycleTarget(spec=spec)
    images = {}
    for w in spec.atomic_letters():
        kind, p, v = w.syllables[0]
        if kind == "g" and v == 1:
            images[spec.parts[p].name] = w
        elif kind == "f":
            images[spec.parts[p].group.names[v]] = w
    return homomorphism_cocycle(source, target, images, "identity")


def glue_free_product(c1: Cocycle, c2: Cocycle) -> Cocycle:
    """The unique cocycle restricting to each input on its own free factors."""
    if c1.source is not c2.source:
        raise ValueError("cocycles to glue must share their source action")
    if (c1.target.spec is not c2.target.spec
            or c1.target.k_group is not c2.target.k_group):
        raise ValueError("cocycles to glue must share their target")
    overlap = set(c1.entries) & set(c2.entries)
    if overlap:
        raise ValueError(f"generator tables overlap on {sorted(overlap)}")
    entries = dict(c1.entries)
    entries.update(c2.entries)
    return Cocycle(c1.source, c1.target, entries, "glued")


def cohomology_transform(c: Cocycle, phi: Callable) -> Cocycle:
    """w'(g, x) = phi(g . x) w(g, x) phi(x)^-1 for a point map phi."""
    target = c.target
    entries = {}
    spec = c.source.group_spec
    for key, fn in c.entries.items():
        if key[0] == "g":
            letter = Word(spec, (("g", key[1], 1),))
        else:
            letter = Word(spec, (("f", key[1], key[2]),))

        def transformed(x, fn=fn, letter=letter):
            return target.mul(phi(c.source.apply(letter, x)),
                              target.mul(fn(x), target.inv(phi(x))))

        entries[key] = transformed
    return Cocycle(c.source, target, entries, f"{c.name}-transformed")


def zimmer_from_oe(delta: Callable, source, target_action,
                   candidates: Sequence[Word], compare_coords: Sequence,
                   p: Callable | None = None) -> Cocycle:
    """Cocycle transported through an orbit map delta.

    Solves delta(p(g . x)) = h . delta(p(x)) for h among the candidate
    words, comparing on compare_coords; a missing or ambiguous solution
    raises CocycleSolveError (freeness of the target action is what makes
    the solution unique).  p defaults to the identity (plain orbit
    equivalence); supplying a projection onto the domain subset gives the
    stable variant.
    """
    target = CocycleTarget(spec=target_action.group_spec)

    def solve(g: Word, x):
        x0 = p(x) if p is not None else x
        x1 = source.apply(g, x)
        x1 = p(x1) if p is not None else x1
        y0, y1 = delta(x0), delta(x1)
        hits = []
        for h in candidates:
            hy = target_action.apply(h, y0)
            if all(hy.value(c) == y1.value(c) for c in compare_coords):
                hits.append(h)
        if len(hits) != 1:
            raise CocycleSolveError(
                f"{len(hits)} candidate solutions at {g.tokens()} "
                "(expected exactly one)")
        return hits[0]

    spec = source.group_spec
    entries = {}
    for w in spec.atomic_letters():
        kind, part, v = w.syllables[0]
        if kind == "g" and v == 1:
            entries[("g", part)] = (lambda x, w=w: solve(w, x))
        elif kind == "f":
            entries[("f", part, v)] = (lambda x, w=w: solve(w, x))
    cocycle = Cocycle(source, target, entries, "zimmer")
    cocycle.solve = solve
    return cocycle


# -- verification --------------------------------------------------------------


def verify_identity(c: Cocycle, pairs: Iterable[tuple[Word, Word]],
                    points: Iterable, name: str | None = None) -> VerificationReport:
    """Check w(gh, x) = w(g, h.x) w(h, x) on every pair and point supplied.

    Undetermined oracle scans are counted and downgrade the verdict instead
    of failing it; the first genuine mismatch is reported verbatim.
    """
    check = Check(name or f"{c.name}-identity")
    pairs = list(pairs)
    for x in points:
        cache: dict = {}
        for g, h in pairs:
            try:
                lhs = c.evaluate(g * h, x, cache)
                rhs = c.target.mul(c.evaluate(g, c.source.apply(h, x), cache),
                                   c.evaluate(h, x, cache))
            except UndeterminedError:
                check.undetermined += 1
                continue
            if lhs != rhs:
                return check.fail(
                    statistics={"checked": check.checked},
                    counterexample={"g": g, "h": h,
                                    "point": str(getattr(x, "point_key", x)),
                                    "lhs": c.target.describe(lhs),
                                    "rhs": c.target.describe(rhs)})
            check.checked += 1
    return check.report(PASS, parameters={"pairs": len(pairs)},
                        statistics={"checked": check.checked,
                                    "undetermined": check.undetermined})


def verify_inverse_pair(forward: Cocycle, backward: Cocycle, words: Iterable[Word],
                        points: Iterable, lengths: tuple | None = None,
                        name: str = "inverse-pair") -> VerificationReport:
    """Check backward(forward(g, x), x) = g, and length preservation when a
    pair of length functions (source_length, target_length) is supplied."""
    check = Check(name)
    words = list(words)
    for x in points:
        fcache: dict = {}
        bcache: dict = {}
        for g in words:
            try:
                w = forward.target.word_part(forward.evaluate(g, x, fcache))
                back = backward.target.word_part(backward.evaluate(w, x, bcache))
            except UndeterminedError:
                check.undetermined += 1
                continue
            if back != g:
                return check.fail(
                    statistics={"checked": check.checked},
                    counterexample={"g": g, "forward": w, "back": back,
                                    "point": str(getattr(x, "point_key", x))})
            if lengths is not None:
                src_len, tgt_len = lengths
                if tgt_len(w) != src_len(g):
                    return check.fail(
                        statistics={"checked": check.checked},
                        notes=("length preservation violated",),
                        counterexample={"g": g, "forward": w,
                                        "source_length": src_len(g),
                                        "target_length": tgt_len(w)})
            check.checked += 1
    return check.report(
        PASS, parameters={"words": len(words), "length_check": lengths is not None},
        statistics={"checked": check.checked, "undetermined": check.undetermined})
