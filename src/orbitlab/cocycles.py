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
from typing import Iterable

from .groups import FiniteGroup
from .verify import PASS, Check, VerificationReport
from .words import GroupSpec, Word


@dataclass
class CocycleTarget:
    """Target group: a word group, or its direct product with a finite group.

    Elements are Words, or (Word, int) pairs when k_group is given.
    """

    spec: GroupSpec
    k_group: FiniteGroup | None = None

    def identity(self):
        if self.k_group is not None:
            return (self.spec.identity(), self.k_group.identity)
        return self.spec.identity()

    def mul(self, a, b):
        if self.k_group is not None:
            return (a[0] * b[0], self.k_group.mul(a[1], b[1]))
        return a * b

    def inv(self, a):
        if self.k_group is not None:
            return (a[0].inverse(), self.k_group.inv(a[1]))
        return a.inverse()

    def word_part(self, a) -> Word:
        return a[0] if self.k_group is not None else a

    def describe(self, a):
        if self.k_group is not None:
            return (a[0].tokens(), self.k_group.names[a[1]])
        return a.tokens()


class Cocycle:
    """Cocycle for a left action, defined by a generator-letter table.

    entries maps ("g", part) to the value function of the +1 generator
    letter and ("f", part, elem) to that of a finite-part element; every
    value function takes a point of the source space.

    evaluate memoizes every value on (word, point key).  Every check builds
    its own cocycle.  Only the point loops of verify_identity, verify_inverse_pair,
    coset_freshness_report and dependency_radius_report forget a point's
    entries at the next point.
    """

    def __init__(self, source, target: CocycleTarget, entries: dict,
                 name: str = "cocycle"):
        self.source = source
        self.target = target
        self.entries = dict(entries)
        self.name = name
        self._memo: dict = {}

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

    def evaluate(self, g: Word, x):
        if g.is_identity:
            return self.target.identity()
        key = (g, x.point_key)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        letter, rest = g.split_first_letter()
        if rest.is_identity:
            out = self._letter_value(letter, x)
        else:
            tail = self.evaluate(rest, x)
            out = self.target.mul(self._letter_value(letter, self.source.apply(rest, x)),
                                  tail)
        self._memo[key] = out
        return out

    def forget(self) -> None:
        """Drop the memo entries of the points seen so far, and the source
        action's (see Action.forget)."""
        self._memo.clear()
        self.source.forget()


def identity_cocycle(source) -> Cocycle:
    """w(g, x) = g (the identity homomorphism into the acting group)."""
    spec = source.group_spec
    entries = {}
    for w in spec.atomic_letters():
        kind, p, v = w.syllables[0]
        if kind == "f":
            entries[("f", p, v)] = (lambda x, w=w: w)
        elif v == 1:
            entries[("g", p)] = (lambda x, w=w: w)
    return Cocycle(source, CocycleTarget(spec=spec), entries, "identity")


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
        c.forget()
        for g, h in pairs:
            with check.unresolved:
                lhs = c.evaluate(g * h, x)
                rhs = c.target.mul(c.evaluate(g, c.source.apply(h, x)), c.evaluate(h, x))
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
        forward.forget()
        backward.forget()
        for g in words:
            with check.unresolved:
                w = forward.target.word_part(forward.evaluate(g, x))
                back = backward.target.word_part(backward.evaluate(w, x))
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
