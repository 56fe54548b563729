"""Exact word arithmetic in free products of rank-1 free and finite factors.

A group is declared as a free product of atomic parts: a rank-1 free part
(one named generator, infinite cyclic) or a finite part (a FiniteGroup by
table).  A reduced word is an alternating tuple of syllables, each syllable
living in one part, with no identity syllables and no adjacent syllables
from the same part.  This normal form is unique, so words serialize
bit-exactly and can be interned: each spec keeps one `Word` object per
reduced word, so equality is identity, and each word memoizes its products
and its rendered tokens.  The table lives exactly as long as its spec;
every check builds its own specs, so the tables are scoped to a check.

Syllable encoding (plain tuples, hashable):
    ("g", part_index, exponent)       nonzero exponent of a free generator
    ("f", part_index, element_index)  non-identity element of a finite part
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .groups import FiniteGroup


class SpecMismatchError(ValueError):
    """Operands belong to different group specs."""


class BallNotFiniteError(ValueError):
    """Requested enumeration is infinite without an exponent bound."""


@dataclass(frozen=True)
class FreePart:
    name: str


class FinitePart:
    def __init__(self, group: FiniteGroup):
        self.group = group

    @property
    def name(self) -> str:
        return self.group.label

    def __repr__(self):
        return f"FinitePart({self.name})"


class GroupSpec:
    """Free product of atomic parts; single-part specs are plain groups.

    Generator names and non-identity finite element names share one token
    namespace and must be distinct, so that the serialized form of a word
    is unambiguous.
    """

    def __init__(self, parts: Sequence):
        if not parts:
            raise ValueError("a group spec needs at least one part")
        self.parts = tuple(parts)
        self._words: dict[tuple, Word] = {}  # syllables -> the one interned Word
        self._identity = Word(self, ())
        self._gen_part: dict[str, int] = {}
        self._elem_token: dict[str, tuple[int, int]] = {}
        for p, part in enumerate(self.parts):
            if isinstance(part, FreePart):
                self._claim_token(part.name, ("g", p))
            elif isinstance(part, FinitePart):
                g = part.group
                for i, nm in enumerate(g.names):
                    if i == g.identity:
                        continue
                    self._claim_token(nm, ("f", p, i))
            else:
                raise TypeError(f"not a part: {part!r}")
        self._resolved_parts = {None: frozenset(range(len(self.parts)))}
        self._part_index: dict[str, int] = {}  # the first part of each name
        for p, part in enumerate(self.parts):
            self._part_index.setdefault(part.name, p)

    def _claim_token(self, token: str, target):
        if token == "e":
            raise ValueError("the token 'e' is reserved for the identity")
        if token in self._gen_part or token in self._elem_token:
            raise ValueError(f"duplicate token {token!r} across parts")
        if target[0] == "g":
            self._gen_part[token] = target[1]
        else:
            self._elem_token[token] = (target[1], target[2])

    # -- element constructors -------------------------------------------------

    def identity(self) -> "Word":
        return self._identity

    def generator(self, name: str, exp: int = 1) -> "Word":
        if name not in self._gen_part:
            raise KeyError(f"unknown generator {name!r}")
        if exp == 0:
            return self.identity()
        return Word(self, (("g", self._gen_part[name], exp),))

    def element(self, name: str) -> "Word":
        if name not in self._elem_token:
            raise KeyError(f"unknown finite element {name!r}")
        p, i = self._elem_token[name]
        return Word(self, (("f", p, i),))

    def finite_element(self, part_index: int, elem_index: int) -> "Word":
        part = self.parts[part_index]
        if not isinstance(part, FinitePart):
            raise KeyError(f"part {part_index} is not finite")
        if elem_index == part.group.identity:
            return self.identity()
        return Word(self, (("f", part_index, elem_index),))

    def word(self, text: str) -> "Word":
        """Parse the serialized token form (inverse of Word.tokens())."""
        out = self.identity()
        for name, exp in self.parse_tokens(text):
            out = out * (self.element(name) if exp is None else self.generator(name, exp))
        return out

    def parse_tokens(self, text: str) -> list[tuple]:
        """(name, exponent) per token of the serialized form, 'e' skipped;
        a finite element's exponent is None.  Builds no word."""
        out = []
        for token in text.split():
            name, caret, exp = token.partition("^")
            if caret or name in self._gen_part:
                out.append((name, int(exp) if caret else 1))
            elif token != "e":
                out.append((token, None))
        return out

    def part_index(self, name: str) -> int:
        try:
            return self._part_index[name]
        except KeyError:
            raise KeyError(f"unknown part {name!r}") from None

    def part_name(self, index: int) -> str:
        return self.parts[index].name

    def atomic_letters(self) -> list["Word"]:
        """All one-letter words: gen^{+-1} and non-identity finite elements."""
        out = []
        for p, part in enumerate(self.parts):
            if isinstance(part, FreePart):
                out.append(Word(self, (("g", p, 1),)))
                out.append(Word(self, (("g", p, -1),)))
            else:
                for i in range(part.group.size):
                    if i != part.group.identity:
                        out.append(Word(self, (("f", p, i),)))
        return out

    def __repr__(self):
        return "GroupSpec(%s)" % " * ".join(part.name for part in self.parts)


def free_group(*names: str) -> GroupSpec:
    """Free group with the given generators (one rank-1 part per generator)."""
    return GroupSpec([FreePart(n) for n in names])


def free_product(*factors: FiniteGroup) -> GroupSpec:
    """Free product of finite groups (one finite part per factor)."""
    for f in factors:
        if not isinstance(f, FiniteGroup):
            raise TypeError(f"cannot use {f!r} as a free factor")
    return GroupSpec([FinitePart(f) for f in factors])


def _merge(spec: GroupSpec, left, right):
    """Combine adjacent syllables from the same part; None if unrelated.

    Returns ("drop",) when they cancel, otherwise ("syl", merged).
    """
    if left[0] != right[0] or left[1] != right[1]:
        return None
    if left[0] == "g":
        e = left[2] + right[2]
        return ("drop",) if e == 0 else ("syl", ("g", left[1], e))
    group = spec.parts[left[1]].group
    prod = group.mul(left[2], right[2])
    return ("drop",) if prod == group.identity else ("syl", ("f", left[1], prod))


def _reduce_concat(spec: GroupSpec, left: Sequence, right: Sequence) -> tuple:
    out = list(left)
    for syl in right:
        cur = syl
        while out and cur is not None:
            m = _merge(spec, out[-1], cur)
            if m is None:
                break
            out.pop()
            cur = None if m[0] == "drop" else m[1]
        if cur is not None:
            out.append(cur)
    return tuple(out)


def syllable_token(spec: GroupSpec, syllable: tuple) -> str:
    """One syllable's token in `Word.tokens`, and so in coordinate keys:
    `name^exponent` for a free generator, the element's name otherwise."""
    kind, p, v = syllable
    part = spec.parts[p]
    return f"{part.name}^{v}" if kind == "g" else part.group.names[v]


class Word:
    """Reduced word; immutable, hashable, totally comparable via sort_key.

    Words are interned per spec: `Word(spec, syllables)` returns the one
    object of `spec` with those syllables, so equality and hash are the
    default identity ones, computed in C, and words of two specs never
    compare equal.  Sets of words iterate in an allocation order.

    Products are memoized in a dict on the left operand, keyed by the right
    one; it, the rendered tokens, the first-letter split and the default
    `length()` sit in fixed slots, filled on first use.
    """

    __slots__ = ("spec", "syllables", "_tokens", "_products", "_split", "_length")

    def __new__(cls, spec: GroupSpec, syllables: tuple):
        table = spec._words
        word = table.get(syllables)
        if word is None:
            word = table[syllables] = object.__new__(cls)
            word.spec = spec
            word.syllables = syllables
            word._tokens = None
            word._products = None
            word._split = None
            word._length = None
        return word

    # -- basic structure ------------------------------------------------------

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    def __mul__(self, other: "Word") -> "Word":
        if self.spec is not other.spec:
            raise SpecMismatchError("words over different group specs")
        products = self._products
        if products is None:
            products = self._products = {}
        else:
            product = products.get(other)
            if product is not None:
                return product
        product = products[other] = Word(
            self.spec, _reduce_concat(self.spec, self.syllables, other.syllables))
        return product

    def inverse(self) -> "Word":
        out = []
        for kind, p, v in reversed(self.syllables):
            if kind == "g":
                out.append(("g", p, -v))
            else:
                out.append(("f", p, self.spec.parts[p].group.inv(v)))
        return Word(self.spec, tuple(out))

    def __pow__(self, n: int) -> "Word":
        if len(self.syllables) == 1 and self.syllables[0][0] == "g":
            _, p, v = self.syllables[0]
            return Word(self.spec, (("g", p, v * n),)) if n else self.spec.identity()
        if n < 0:
            return self.inverse() ** (-n)
        out = self.spec.identity()
        for _ in range(n):
            out = out * self
        return out

    def first_part(self) -> int | None:
        return self.syllables[0][1] if self.syllables else None

    def split_first_letter(self) -> tuple["Word", "Word"]:
        """Peel one letter off the left: returns (letter, rest) with self = letter*rest."""
        if self._split is not None:
            return self._split
        if self.is_identity:
            raise ValueError("identity has no first letter")
        kind, p, v = self.syllables[0]
        if kind == "f":
            letter = Word(self.spec, (self.syllables[0],))
            rest = Word(self.spec, self.syllables[1:])
        else:
            step = 1 if v > 0 else -1
            letter = Word(self.spec, (("g", p, step),))
            if v == step:
                rest = Word(self.spec, self.syllables[1:])
            else:
                rest = Word(self.spec, (("g", p, v - step),) + self.syllables[1:])
        self._split = (letter, rest)
        return self._split

    def letters(self) -> list["Word"]:
        """Left-to-right single-letter decomposition (self = product of letters)."""
        out, rest = [], self
        while not rest.is_identity:
            letter, rest = rest.split_first_letter()
            out.append(letter)
        return out

    # -- lengths --------------------------------------------------------------

    def length(self, parts=None, mode: str = "letters") -> int:
        """Length of the word counting only syllables from `parts`.

        mode "letters" counts exponent multiplicities (|exp| per free
        syllable, 1 per finite letter); mode "syllables" counts each maximal
        syllable once regardless of exponent.  The default length (every
        part, letters) is kept in a fixed slot; other lengths are recounted.
        """
        default = parts is None and mode == "letters"
        if default and self._length is not None:
            return self._length
        idx = _resolve_parts(self.spec, parts)
        total = 0
        for kind, p, v in self.syllables:
            if p not in idx:
                continue
            if mode == "syllables" or kind == "f":
                total += 1
            else:
                total += abs(v)
        if default:
            self._length = total
        return total

    # -- serialization --------------------------------------------------------

    def tokens(self) -> str:
        if self._tokens is None:
            toks = [syllable_token(self.spec, s) for s in self.syllables]
            self._tokens = " ".join(toks) if toks else "e"
        return self._tokens

    def sort_key(self):
        return (self.length(), self.tokens())

    def __repr__(self):
        return f"<{self.tokens()}>"


def _resolve_parts(spec: GroupSpec, parts) -> frozenset[int]:
    """Part indices named by `parts` (None, a name or index, or a collection
    of them), memoized per spec for hashable `parts`."""
    try:
        return spec._resolved_parts[parts]
    except KeyError:
        hashable = True
    except TypeError:  # an unhashable collection, such as a list of names
        hashable = False
    names = [parts] if isinstance(parts, (str, int)) else parts
    out = frozenset(p if isinstance(p, int) else spec.part_index(p) for p in names)
    for p in out:
        if not 0 <= p < len(spec.parts):
            raise KeyError(f"unknown factor index {p}")
    if hashable:
        spec._resolved_parts[parts] = out
    return out


# -- ball enumeration ---------------------------------------------------------


def _syllable_options(spec, p, counted, mode, remaining, exponent_bound):
    part = spec.parts[p]
    if isinstance(part, FinitePart):
        weight = 1 if counted else 0
        if counted and remaining < 1:
            return
        for i in range(part.group.size):
            if i != part.group.identity:
                yield ("f", p, i), weight
        return
    if counted and mode == "letters":
        top = remaining if exponent_bound is None else min(remaining, exponent_bound)
        for k in range(1, top + 1):
            yield ("g", p, k), k
            yield ("g", p, -k), k
        return
    # syllable-counted or uncounted free part: exponent unbounded by the metric
    if exponent_bound is None:
        raise BallNotFiniteError(
            f"free part {part.name!r} needs an exponent_bound under this length function")
    weight = 1 if counted else 0
    if counted and remaining < 1:
        return
    for k in range(1, exponent_bound + 1):
        yield ("g", p, k), weight
        yield ("g", p, -k), weight


def ball(spec: GroupSpec, radius: int, parts=None, mode: str = "letters",
         exponent_bound: int | None = None) -> list[Word]:
    """All reduced words of length <= radius, without repetition, sorted.

    The length function is (parts, mode) as in Word.length.  Free letters
    the metric does not count must be capped by exponent_bound, and at most
    one factor may go uncounted (two alternate at weight 0); otherwise the
    ball is infinite and BallNotFiniteError is raised.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    counted = _resolve_parts(spec, parts)
    if len(spec.parts) - len(counted) >= 2:
        raise BallNotFiniteError("two uncounted factors make the ball infinite")

    out: list[Word] = []

    def extend(syls: list, last_part: int | None, used: int):
        out.append(Word(spec, tuple(syls)))
        for p in range(len(spec.parts)):
            if p == last_part:
                continue
            for syl, weight in _syllable_options(spec, p, p in counted, mode,
                                                 radius - used, exponent_bound):
                if used + weight <= radius:
                    syls.append(syl)
                    extend(syls, p, used + weight)
                    syls.pop()

    extend([], None, 0)
    out.sort(key=lambda w: (w.length(counted, mode), w.tokens()))
    return out


def sphere(spec: GroupSpec, radius: int, parts=None, mode: str = "letters",
           exponent_bound: int | None = None) -> list[Word]:
    """Words of length exactly `radius`."""
    return [w for w in ball(spec, radius, parts, mode, exponent_bound)
            if w.length(parts, mode) == radius]


def transversal_words(spec: GroupSpec, subgroup, radius: int, parts=None,
                      mode: str = "letters", exponent_bound: int | None = None,
                      exact: bool = False) -> list[Word]:
    """Canonical coset representatives: words with no leading subgroup letter.

    With `exact`, only words of length exactly `radius` whose leading letter
    is outside the subgroup part (one slice of the graded transversal).
    """
    sub = spec.part_index(subgroup) if isinstance(subgroup, str) else subgroup
    words = ball(spec, radius, parts, mode, exponent_bound)
    out = [w for w in words if w.first_part() != sub]
    if exact:
        out = [w for w in out if w.length(parts, mode) == radius and not w.is_identity] \
            if radius > 0 else [spec.identity()]
    return out


def extension_sphere(spec: GroupSpec, letter: Word, radius: int, parts=None,
                     exponent_bound: int | None = None) -> list[Word]:
    """Words g with |g| = radius and |letter * g| = radius + 1 (letter length)."""
    return [w for w in sphere(spec, radius, parts, "letters", exponent_bound)
            if (letter * w).length(parts) == radius + 1]


# -- transversal map r, cosets and the transfer cocycle -----------------------


def split_subgroup_prefix(g: Word, subgroup: int) -> tuple[Word, Word]:
    """Write g = prefix * rest with prefix in the subgroup part and rest a
    canonical representative (no leading subgroup letter)."""
    if g.first_part() == subgroup:
        head = Word(g.spec, (g.syllables[0],))
        return head, Word(g.spec, g.syllables[1:])
    return g.spec.identity(), g


def r_map(g: Word, subgroup, mode: str = "transversal") -> Word:
    """Subgroup-equivariant retraction r with r(lambda g) = lambda r(g), r(e) = e.

    transversal mode: r(g) is the leading subgroup letter of g (e for
    canonical representatives).  homomorphism mode: r is the retraction
    killing every other factor (valid for any free factor).
    """
    spec = g.spec
    sub = spec.part_index(subgroup) if isinstance(subgroup, str) else subgroup
    if not 0 <= sub < len(spec.parts):
        raise KeyError(f"unknown factor {subgroup!r}")
    if mode == "transversal":
        return split_subgroup_prefix(g, sub)[0]
    if mode == "homomorphism":
        out = spec.identity()
        for syl in g.syllables:
            if syl[1] == sub:
                out = out * Word(spec, (syl,))
        return out
    raise ValueError(f"unknown r-map mode {mode!r}")


class Coset(tuple):
    """Right coset (subgroup)g as the pair (part, rep) of the subgroup's part
    index and the canonical representative.  As a tuple it hashes and
    compares in C, by the part and the rep's identity; it also equals the
    plain pair (part, rep), and no dict mixes the two."""

    __slots__ = ()

    def __new__(cls, part: int, rep: Word):
        return tuple.__new__(cls, (part, rep))

    part = property(itemgetter(0))
    rep = property(itemgetter(1))

    @property
    def spec(self) -> GroupSpec:
        return self[1].spec

    def translate(self, g: Word) -> "Coset":
        part, rep = self
        return coset(rep.spec, part, rep * g)

    def tokens(self) -> str:
        return self.rep.tokens()

    def __repr__(self):
        return f"Coset[{self.spec.part_name(self.part)}]<{self.rep.tokens()}>"


def coset(spec: GroupSpec, subgroup, g: Word) -> Coset:
    sub = spec.part_index(subgroup) if isinstance(subgroup, str) else subgroup
    return Coset(sub, split_subgroup_prefix(g, sub)[1])


def cosets_ball(spec: GroupSpec, subgroup, radius: int, parts=None,
                mode: str = "letters", exponent_bound: int | None = None) -> list[Coset]:
    """All cosets whose canonical representative has length <= radius."""
    sub = spec.part_index(subgroup) if isinstance(subgroup, str) else subgroup
    return [Coset(sub, w)
            for w in transversal_words(spec, sub, radius, parts, mode, exponent_bound)]


def omega_transfer(c: Coset, g: Word, mode: str = "transversal") -> Word:
    """Transfer cocycle of the right translation action on the coset space.

    Satisfies omega(c, g h) = omega(c, g) * omega(c g, h) and takes values
    in the subgroup part.  In homomorphism mode the value is the retraction
    of g and does not depend on the coset.
    """
    if g.spec is not c.spec:
        raise SpecMismatchError("coset and word over different group specs")
    if mode == "homomorphism":
        return r_map(g, c.part, "homomorphism")
    return split_subgroup_prefix(c.rep * g, c.part)[0]
