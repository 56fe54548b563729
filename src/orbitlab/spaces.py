"""Configuration spaces: finite-alphabet functions on group-like index sets.

A configuration is read one coordinate at a time.  A seeded one answers a
read outside its overrides by a keyed pseudo-random function of the
coordinate's canonical serialization; an explicit one holds a finite
window and rejects reads outside it.  The PRF keying makes every "a.e.
point" reproducible: two reads of the same (seed, coordinate) agree no
matter in which order coordinates are queried, and distinct seeds behave
as independent samples.  A seed is an integer in range(2**64)
(`SEED_LIMIT`); any other raises ValueError, so no two seeds share a key.
Every per-point seed comes from `seed_stream(seed, tag, count)`: point i
of the stream `tag` has the seed `derive_seed(seed, f"{tag}/{i}")`.
`prf_value` is the one keyed PRF: it reads through a copy of the seed's
keyed BLAKE2b state (`keyed_state`), built once per seed, and a seeded
read, a derived seed and a sampled window state all evaluate it.  A seeded
point is read by coordinate (`value`, which caches what it reads) or by
coordinate key (`read_key`, which leaves no cache entry); both return its
override first.  A recording point passes both reads to the point it wraps
and logs the coordinate key of each.  A summarized point passes them on
too, and folds what each read by coordinate measures into the open frame
of `read_summaries`, which keeps only maxima, not a log.

A finite window is one slot map (canonical coordinate -> index into a
values tuple), shared by all of its states.  Exact cylinder distributions
count states with integers and report Fraction masses; there is no
floating point anywhere in the exact path.  Every variable of an exact
law declares the coordinates it reads, and the window coordinates that
none declares are summed out exactly (each contributes the same factor to
every count), so only the declared ones are enumerated; `state_count`
still counts the states of the whole window.  `sample_window_values`
draws the values of the seeded points of `sample_stream` on a window's
slot map.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from hashlib import blake2b
from typing import Iterator, Mapping, Sequence

from .groups import Alphabet
from .words import Coset, GroupSpec, Word, coset

DEFAULT_BUDGET = 2 ** 24

SEED_LIMIT = 1 << 64


class MissingCoordinateError(KeyError):
    """Read outside the stored window of a configuration with no seed."""

    def __init__(self, coordinate):
        super().__init__(str(coordinate))
        self.coordinate = coordinate

    def __str__(self):
        return f"coordinate {self.coordinate!r} outside the stored window (no extension seed)"


class BudgetExceededError(ValueError):
    """Exact enumeration would exceed the configured state budget."""


def _seed_key(seed: int) -> bytes:
    """The 8-byte BLAKE2b key of a seed in range(2**64)."""
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed {seed} is outside range(2**64)")
    return seed.to_bytes(8, "little")


def keyed_state(seed: int):
    """The seed's keyed BLAKE2b state, which `prf_value` copies per read."""
    return blake2b(key=_seed_key(seed), digest_size=8)


def prf_value(keyed, key: bytes, size: int) -> int:
    """The PRF value in range(size) of the encoded key under a seed's
    `keyed_state`: `blake2b(key, key=_seed_key(seed), digest_size=8)`."""
    h = keyed.copy()
    h.update(key)
    return int.from_bytes(h.digest(), "little") % size


def derive_seed(seed: int, tag: str) -> int:
    return prf_value(keyed_state(seed), tag.encode("utf-8"), SEED_LIMIT)


# -- index sets ---------------------------------------------------------------


class GroupIndex:
    """Coordinates are the elements (reduced words) of a group."""

    def __init__(self, spec: GroupSpec):
        self.spec = spec

    def canonicalize(self, coord):
        if not isinstance(coord, Word):
            raise TypeError(f"group coordinate expected, got {coord!r}")
        return coord

    def key(self, coord: Word) -> str:
        return coord.tokens()

    def translate(self, coord: Word, g: Word) -> Word:
        return coord * g

    def __repr__(self):
        return f"GroupIndex({self.spec!r})"


class CosetIndex:
    """Coordinates are right cosets (subgroup)g with canonical representatives."""

    def __init__(self, spec: GroupSpec, subgroup):
        self.spec = spec
        self.part = spec.part_index(subgroup) if isinstance(subgroup, str) else subgroup

    def canonicalize(self, coord):
        if isinstance(coord, Word):
            return coset(self.spec, self.part, coord)
        if isinstance(coord, Coset) and coord.part == self.part:
            return coord
        raise TypeError(f"coset coordinate expected, got {coord!r}")

    def key(self, coord: Coset) -> str:
        return coord.rep.tokens()

    def translate(self, coord: Coset, g: Word) -> Coset:
        return coord.translate(g)

    def __repr__(self):
        return f"CosetIndex({self.spec!r}, {self.spec.part_name(self.part)})"


class IntIndex:
    """Coordinates are integers (the index set Z)."""

    def canonicalize(self, coord):
        if not isinstance(coord, int):
            raise TypeError(f"integer coordinate expected, got {coord!r}")
        return coord

    def key(self, coord: int) -> str:
        return str(coord)

    def __repr__(self):
        return "IntIndex()"


@dataclass
class Space:
    index: object
    alphabet: Alphabet

    def coord_key(self, coord) -> str:
        return self.index.key(self.index.canonicalize(coord))


# -- configurations -----------------------------------------------------------


class Configuration:
    """Immutable map coordinate -> alphabet index on an index set, read one
    coordinate at a time through `value` and identified by `point_key`."""

    space: Space

    def value(self, coord) -> int:
        raise NotImplementedError

    @property
    def point_key(self):
        """Hashable identity used for per-run caching.

        Every concrete configuration builds its key from its structure (its
        seed and overrides, its stored window, or the key of the point it
        views plus the view's parameters), so equal keys imply equal
        configurations (never the converse).  RecordingConfiguration, whose
        reads must never be answered from a cache, draws a fresh key per
        instance instead.
        """
        raise NotImplementedError


class SeededConfiguration(Configuration):
    """Total configuration: PRF of the coordinate key outside the overrides."""

    def __init__(self, space: Space, seed: int, overrides: Mapping | None = None):
        self.space = space
        self.seed = seed
        self._index = index = space.index
        self._size = space.alphabet.size
        self._keyed = keyed_state(seed)
        self._overrides = {index.key(index.canonicalize(k)): v
                           for k, v in (overrides or {}).items()}
        self._cache: dict = {}  # the values read by coordinate
        self._key = ("seeded", seed, tuple(sorted(self._overrides.items())))

    @property
    def point_key(self):
        return self._key

    def read_key(self, key: str) -> int:
        """The value at the coordinate whose index key is `key`: its override,
        or else its PRF value.  Writes no cache entry."""
        v = self._overrides.get(key)
        if v is None:
            v = prf_value(self._keyed, key.encode(), self._size)
        return v

    def value(self, coord) -> int:
        v = self._cache.get(coord)
        if v is None:
            c = self._index.canonicalize(coord)
            v = self._cache[c] = self.read_key(self._index.key(c))
        return v


class ExplicitConfiguration(Configuration):
    """Partial configuration: reads outside the stored window are errors.

    The window is a slot map (coordinate -> index into a values tuple), so
    the states of one enumerated window share a single slot map and each
    holds only its own values.
    """

    def __init__(self, space: Space, window: Mapping):
        self.space = space
        self._slots = {c: i for i, c in enumerate(window)}
        self._values = tuple(window.values())

    @classmethod
    def on_slots(cls, space: Space, slots: dict, values: tuple) -> "ExplicitConfiguration":
        """The configuration with `values[slots[c]]` at each coordinate c;
        `slots` is shared, not copied, and its insertion order must be its
        index order."""
        x = cls.__new__(cls)
        x.space, x._slots, x._values = space, slots, values
        return x

    def value(self, coord) -> int:
        try:
            return self._values[self._slots[coord]]
        except KeyError:
            c = self.space.index.canonicalize(coord)
        try:
            return self._values[self._slots[c]]
        except KeyError:
            raise MissingCoordinateError(c) from None

    @property
    def point_key(self):
        return ("explicit", tuple(sorted(
            (self.space.coord_key(k), v) for k, v in zip(self._slots, self._values))))


class RecordingConfiguration(Configuration):
    """Pass-through wrapper that logs the coordinate key of every read, by
    coordinate or by key; `read_key` needs a base that reads by key."""

    _counter = itertools.count()

    def __init__(self, base: Configuration, log: set):
        self.space = base.space
        self.base = base
        self.log = log
        self._key = ("recording", next(self._counter))

    def value(self, coord) -> int:
        self.log.add(self.space.coord_key(coord))
        return self.base.value(coord)

    def read_key(self, key: str) -> int:
        self.log.add(key)
        return self.base.read_key(key)

    @property
    def point_key(self):
        return self._key


# -- read summaries -----------------------------------------------------------


class _Summarized:
    """A memo entry stored while a read-summary frame is open: the value
    and the maxima (b, a) of what computing it read."""

    __slots__ = ("value", "b", "a")

    def __init__(self, value, b: int, a: int):
        self.value, self.b, self.a = value, b, a


class ReadSummaries:
    """Dynamic dependency tracking cut down to two maxima per evaluation.

    `frame` is None, or the list [b, a] of the evaluation in progress: the
    largest two measures (in lemma 2, the b-grade and the a-offset of a
    coordinate key) over what it has read so far.  A reader folds each read
    into the open frame.  While a frame is open, each memo entry keeps the
    maxima of what computing it read, and a hit folds them, so a memoized
    value counts the reads it was computed from however it is reached
    (Acar, *Self-Adjusting Computation*, 2005; Hammer et al., "Adapton",
    PLDI 2014).  With no frame open, memos keep plain values and a memo
    pays one `frame is None` test.  The process is single-threaded and
    `measure` closes every frame it opens, on every exit.
    """

    def __init__(self):
        self.frame = None

    def fold(self, b: int, a: int) -> None:
        frame = self.frame
        if b > frame[0]:
            frame[0] = b
        if a > frame[1]:
            frame[1] = a

    def measure(self, fn, *args):
        """(fn(*args), [b, a]): the value and the maxima of what computing it
        read, in a new frame; an enclosing frame folds them too."""
        outer = self.frame
        self.frame = frame = [0, 0]
        try:
            value = fn(*args)
        finally:
            self.frame = outer
        if outer is not None:
            self.fold(*frame)
        return value, frame

    def entry(self, memo: dict, key, fn, *args):
        """memo[key] inside an open frame: a hit folds the entry's maxima; a
        miss computes fn(*args) and stores its maxima with the value.  An
        entry stored with no frame open has no maxima, and a hit on it
        raises rather than fold nothing."""
        hit = memo.get(key)
        if hit is None:
            value, (b, a) = self.measure(fn, *args)
            memo[key] = _Summarized(value, b, a)
            return value
        if type(hit) is not _Summarized:
            raise RuntimeError(f"memo entry {key!r} holds no read summary")
        self.fold(hit.b, hit.a)
        return hit.value


read_summaries = ReadSummaries()


class SummarizedConfiguration(Configuration):
    """Pass-through wrapper whose reads by coordinate fold
    `summarize(coordinate key)` into the open read-summary frame.  Reads by
    key pass straight through: their reader (an a-axis tape) folds them."""

    def __init__(self, base: Configuration, summarize):
        self.space = base.space
        self.base = base
        self.summarize = summarize
        self.read_key = base.read_key
        self._key = ("summarized", base.point_key)

    def value(self, coord) -> int:
        read_summaries.fold(*self.summarize(self.space.coord_key(coord)))
        return self.base.value(coord)

    @property
    def point_key(self):
        return self._key


def sample(space: Space, seed: int) -> Configuration:
    """Deterministic pseudo-random point of the space for the given seed."""
    return SeededConfiguration(space, seed)


def seed_stream(seed: int, tag: str, count: int) -> Iterator[int]:
    """The per-point seeds `derive_seed(seed, f"{tag}/{i}")` for i in
    range(count), all read through one keyed state of `seed`."""
    base = keyed_state(seed)
    for i in range(count):
        yield prf_value(base, f"{tag}/{i}".encode(), SEED_LIMIT)


def sample_stream(space, seed: int, count: int) -> Iterator[Configuration]:
    for s in seed_stream(seed, "sample", count):
        yield sample(space, s)


def sample_window_values(space: Space, slots: dict, seed: int, count: int
                         ) -> Iterator[tuple]:
    """The values on the slot map `slots` (from `window_slots`) of the points
    of `sample_stream(space, seed, count)`, one tuple per point in slot
    order, each to be read through `ExplicitConfiguration.on_slots`."""
    keys = [space.index.key(c).encode() for c in slots]
    size = space.alphabet.size
    prf = prf_value
    for s in seed_stream(seed, "sample", count):
        keyed = keyed_state(s)
        yield tuple([prf(keyed, k, size) for k in keys])


def agree_on(x: Configuration, y: Configuration, coords) -> bool:
    return all(x.value(c) == y.value(c) for c in coords)


# -- exact distributions ------------------------------------------------------


@dataclass
class CylinderDistribution:
    """Exact joint law of finitely many finite-valued variables."""

    names: tuple[str, ...]
    outcomes: dict          # tuple of values -> Fraction, summing to 1
    state_count: int        # states of the whole window, enumerated or summed out

    def probability(self, outcome: tuple) -> Fraction:
        return self.outcomes.get(tuple(outcome), Fraction(0))

    def worst_product_deviation(self) -> tuple[Fraction, tuple | None]:
        """The largest |P(o) - prod_i P_i(o_i)| over outcomes o, and the
        first outcome that attains it (None for a product law).

        Decided on integer counts over the law's common denominator n: the
        product of marginal counts against count(o) * n^(k-1)."""
        n = math.lcm(*[p.denominator for p in self.outcomes.values()])
        counts = {o: p.numerator * (n // p.denominator) for o, p in self.outcomes.items()}
        margs: list[dict] = [{} for _ in self.names]
        for o, c in counts.items():
            for m, v in zip(margs, o):
                m[v] = m.get(v, 0) + c
        prod: dict = {}
        for combo in itertools.product(*[sorted(m.items()) for m in margs]):
            q = 1
            for _, c in combo:
                q *= c
            prod[tuple([v for v, _ in combo])] = q
        k = len(self.names)
        scale = n ** k // n   # n^(k-1); 1 for an empty family, whose n is 1
        worst, witness = 0, None
        for key in set(prod) | set(self.outcomes):
            d = abs(prod.get(key, 0) - counts.get(key, 0) * scale)
            if d > worst:
                worst, witness = d, key
        return Fraction(worst, n ** k), witness

    def is_uniform(self, support_sizes: Sequence[int]) -> bool:
        total = 1
        for s in support_sizes:
            total *= s
        if len(self.outcomes) != total:
            return False
        p = Fraction(1, total)
        return all(q == p for q in self.outcomes.values())


def window_slots(space: Space, coords) -> dict:
    """The slot map of a window: canonical coordinate -> slot index, one
    slot per distinct coordinate, in coordinate-key order.  Each slot is
    keyed by the first object of `coords` (after canonicalization) that
    names it."""
    seen: dict = {}
    for c in map(space.index.canonicalize, coords):
        seen.setdefault(c, c)
    return {c: i for i, c in enumerate(sorted(seen, key=space.coord_key))}


def _window_states(space: Space, slots, budget: int) -> int:
    """The number of states of a window with these slots, within the budget."""
    total = space.alphabet.size ** len(slots)
    if total > budget:
        raise BudgetExceededError(f"{total} window states exceed budget {budget}")
    return total


def enumerate_window(space: Space, coords, budget: int = DEFAULT_BUDGET
                     ) -> Iterator[Configuration]:
    """All configurations of the window, each of the same mass under the
    uniform product measure.

    Every state shares one slot map (`window_slots`), so a read with one of
    the objects of `coords` hits by identity.
    """
    slots = window_slots(space, coords)
    _window_states(space, slots, budget)
    on_slots = ExplicitConfiguration.on_slots
    for values in itertools.product(range(space.alphabet.size), repeat=len(slots)):
        yield on_slots(space, slots, values)


def exact_distribution(space, variables, window, budget: int = DEFAULT_BUDGET
                       ) -> CylinderDistribution:
    """Exact joint law of the variables over the uniform law on the window.

    Each variable names itself and declares the coordinates it reads
    (`name`, `fn`, `coords`, as a `WindowFunction` does).  Only the window
    coordinates that some variable declares are enumerated, each as the
    first declaring variable's own object, so its reads hit by identity;
    the others are summed out exactly, and each outcome's mass is its
    count over the enumerated states, the same rational as over the whole
    window.  A read outside the enumerated coordinates raises
    MissingCoordinateError.  The budget bounds, and `state_count` counts,
    the states of the whole window.
    """
    slots = window_slots(space, window)
    total = _window_states(space, slots, budget)
    declared = window_slots(space, [c for v in variables for c in v.coords])
    read = [c for c in declared if c in slots]
    fns = [v.fn for v in variables]
    counts: dict = {}
    for config in enumerate_window(space, read, budget):
        key = tuple([fn(config) for fn in fns])
        counts[key] = counts.get(key, 0) + 1
    enumerated = space.alphabet.size ** len(read)
    outcomes = {key: Fraction(n, enumerated) for key, n in counts.items()}
    return CylinderDistribution(tuple(v.name for v in variables), outcomes, total)
