"""Finite alphabets and finite groups given by explicit multiplication tables.

Every alphabet carries the uniform probability measure (weight 1/size per
symbol), which is what makes all downstream distribution checks exactly
computable with rational arithmetic.  A value set that nothing multiplies
in, such as the increment codes of K^n, is a plain alphabet.
"""

from __future__ import annotations

from typing import Mapping, Sequence


class GroupTableError(ValueError):
    """A group table document is malformed or fails one of the group axioms."""


def _is_array(value) -> bool:
    return isinstance(value, (list, tuple))


class Alphabet:
    """Finite uniform value set; values are handled as indices 0..size-1."""

    def __init__(self, names: Sequence[str], label: str = ""):
        names = tuple(str(n) for n in names)
        if len(names) == 0:
            raise ValueError("alphabet must be nonempty")
        if len(set(names)) != len(names):
            raise ValueError("alphabet symbol names must be distinct")
        self.names = names
        self.label = label or "alphabet%d" % len(names)

    @property
    def size(self) -> int:
        return len(self.names)

    def __repr__(self):
        return f"Alphabet({self.label}, size={self.size})"


class FiniteGroup(Alphabet):
    """Finite group by multiplication table on element indices.

    The table is validated at construction: identity, inverses and full
    associativity.  Violations raise GroupTableError naming the witness.
    """

    def __init__(self, names: Sequence[str], table: Sequence[Sequence[int]], label: str = ""):
        super().__init__(names, label or "G%d" % len(names))
        m = self.size
        if not _is_array(table) or len(table) != m \
                or not all(_is_array(row) and len(row) == m for row in table):
            raise GroupTableError(f"table must be an array of {m} arrays of {m} entries")
        bad = [v for row in table for v in row if type(v) is not int or not 0 <= v < m]
        if bad:  # bools and floats are refused, not truncated
            raise GroupTableError(f"table entry {bad[0]!r} is not an integer "
                                  f"in 0..{m - 1}")
        self.table = tuple(tuple(row) for row in table)
        self.identity = self._find_identity()
        self.inverse_table = self._find_inverses()
        self._check_associativity()

    def _find_identity(self) -> int:
        for e in range(self.size):
            if all(self.table[e][j] == j and self.table[j][e] == j for j in range(self.size)):
                return e
        raise GroupTableError("table has no identity element")

    def _find_inverses(self) -> tuple[int, ...]:
        inv = []
        for a in range(self.size):
            partners = [b for b in range(self.size)
                        if self.table[a][b] == self.identity and self.table[b][a] == self.identity]
            if not partners:
                raise GroupTableError(f"element {self.names[a]!r} has no inverse")
            inv.append(partners[0])
        return tuple(inv)

    def _check_associativity(self):
        t = self.table
        for a in range(self.size):
            for b in range(self.size):
                ab = t[a][b]
                for c in range(self.size):
                    if t[ab][c] != t[a][t[b][c]]:
                        raise GroupTableError(
                            "non-associative triple (%s, %s, %s)"
                            % (self.names[a], self.names[b], self.names[c]))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse_table[a]

    def element_order(self, a: int) -> int:
        n, x = 1, a
        while x != self.identity:
            x = self.table[x][a]
            n += 1
        return n

    def __repr__(self):
        return f"FiniteGroup({self.label}, order={self.size})"


def cyclic(m: int, prefix: str = "") -> FiniteGroup:
    """Additive group of integers mod m; element i is named f"{prefix}{i}"."""
    if m < 1:
        raise ValueError("order must be >= 1")
    names = [f"{prefix}{i}" for i in range(m)]
    table = [[(i + j) % m for j in range(m)] for i in range(m)]
    return FiniteGroup(names, table, label=f"{prefix or 'Z'}{m}" if prefix else f"Z{m}")


def klein_four() -> FiniteGroup:
    names = ["e", "a", "b", "c"]
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    return FiniteGroup(names, table, label="V4")


def s3() -> FiniteGroup:
    """Symmetric group on 3 points, elements named by their one-line images."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    names = ["".join(str(i) for i in p) for p in perms]

    def compose(p, q):  # (p*q)(i) = p(q(i))
        return tuple(p[q[i]] for i in range(3))

    table = [[perms.index(compose(p, q)) for q in perms] for p in perms]
    return FiniteGroup(names, table, label="S3")


def load_group_table(document) -> FiniteGroup:
    """Build a validated group from a table document.

    The document is a mapping with fields `name` (a string, optional),
    `elements` (array of distinct strings, where only the identity may be
    named `e`) and `table` (array of arrays of element indices).  Any other
    document, and a name that is not a string, is refused, not coerced.
    """
    if not isinstance(document, Mapping):
        raise GroupTableError(f"a group table document must be a mapping, got {document!r}")
    for field in ("elements", "table"):
        if field not in document:
            raise GroupTableError(f"group table document is missing field {field!r}")
    names = document["elements"]
    if not _is_array(names) or not names:
        raise GroupTableError("elements must be a nonempty array of names")
    for i, name in enumerate(names):
        if not isinstance(name, str):
            raise GroupTableError(f"element name {name!r} is not a string")
        if name in names[:i]:
            raise GroupTableError(f"element name {name!r} is repeated")
    label = document.get("name", "")
    if not isinstance(label, str):
        raise GroupTableError(f"group name {label!r} is not a string")
    group = FiniteGroup(names, document["table"], label=label)
    if "e" in names and names.index("e") != group.identity:
        raise GroupTableError("element name 'e' is reserved for the identity")
    return group
