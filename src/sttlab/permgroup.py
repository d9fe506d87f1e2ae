"""Finite permutation groups with full element enumeration.

Groups are carried as explicit element lists produced by a breadth-first
closure from the identity, with a generator word recorded per element.
Everything downstream (cosets, class sums, group algebra arithmetic)
relies on this deterministic element order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "Perm",
    "Group",
    "Transversal",
    "group_close",
    "transversal",
    "class_sums",
    "p_regular_class_count",
    "parse_cycles",
]

DEFAULT_ELEMENT_CAP = 10000


class Perm:
    """Permutation of {0, ..., n-1} stored as a tuple of point images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(i) for i in images)
        n = len(images)
        if sorted(images) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {images}")
        self.images = images

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> "Perm":
        images = list(range(degree))
        for cyc in cycles:
            for i, pt in enumerate(cyc):
                if not 0 <= pt < degree:
                    raise ValueError(f"point {pt} out of range for degree {degree}")
                images[pt] = cyc[(i + 1) % len(cyc)]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Perm") -> "Perm":
        """(self * other)(x) = self(other(x))."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        o = other.images
        s = self.images
        return Perm(tuple(s[o[i]] for i in range(len(s))))

    def inverse(self) -> "Perm":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm(inv)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            pt = self.images[start]
            while pt != start:
                cyc.append(pt)
                seen[pt] = True
                pt = self.images[pt]
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycs)

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Perm{self.cycle_string()}"


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse cycle notation like "(0 1 2)(3 4)"; "()" is the identity."""
    text = text.strip()
    if text in ("()", ""):
        return Perm.identity(degree)
    if text.count("(") != text.count(")"):
        raise ValueError(f"unbalanced parentheses in {text!r}")
    cycles = []
    for chunk in text.replace(")", ")|").split("|"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise ValueError(f"bad cycle chunk {chunk!r}")
        inner = chunk[1:-1].replace(",", " ").split()
        if not inner:
            continue
        pts = [int(tok) for tok in inner]
        if len(set(pts)) != len(pts):
            raise ValueError(f"repeated point in cycle {chunk!r}")
        cycles.append(tuple(pts))
    return Perm.from_cycles(degree, cycles)


class Group:
    """Finite permutation group with BFS element enumeration and words.

    elements[0] is the identity; words[i] is a list of generator indices
    with elements[i] = gens[w[0]] * gens[w[1]] * ... * gens[w[-1]].
    """

    def __init__(self, degree: int, generators: list[Perm], elements: list[Perm],
                 words: list[list[int]]):
        self.degree = degree
        self.generators = generators
        self.elements = elements
        self.words = words
        self.index = {g: i for i, g in enumerate(elements)}
        self._mult_table: Optional[np.ndarray] = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, g: Perm) -> bool:
        return g in self.index

    def idx(self, g: Perm) -> int:
        try:
            return self.index[g]
        except KeyError:
            raise ValueError(f"{g} is not an element of this group") from None

    def mult_table(self) -> np.ndarray:
        """mult_table[i, j] = index of elements[i] * elements[j]."""
        if self._mult_table is None:
            n = self.order
            t = np.zeros((n, n), dtype=np.int32)
            for i, g in enumerate(self.elements):
                for j, h in enumerate(self.elements):
                    t[i, j] = self.index[g * h]
            self._mult_table = t
        return self._mult_table

    def is_subgroup_of(self, big: "Group") -> bool:
        if self.degree != big.degree:
            return False
        return all(g in big.index for g in self.generators)

    def __repr__(self):
        return f"Group(degree={self.degree}, order={self.order})"


def group_close(degree: int, generators, cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    """Breadth-first closure of the generators, identity first.

    New elements are produced as gen * frontier, so the recorded word of a
    new element is [gen index] + word(frontier element).
    """
    gens = []
    for g in generators:
        if not isinstance(g, Perm):
            g = Perm(g)
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} does not match {degree}")
        gens.append(g)
    ident = Perm.identity(degree)
    elements = [ident]
    words: list[list[int]] = [[]]
    index = {ident: 0}
    frontier = [0]
    while frontier:
        next_frontier = []
        for h_idx in frontier:
            h = elements[h_idx]
            for gi, a in enumerate(gens):
                g = a * h
                if g not in index:
                    index[g] = len(elements)
                    elements.append(g)
                    words.append([gi] + words[h_idx])
                    next_frontier.append(index[g])
                    if len(elements) > cap:
                        raise ValueError(
                            f"group closure exceeded the element cap {cap}"
                        )
        frontier = next_frontier
    return Group(degree, gens, elements, words)


@dataclass
class Transversal:
    """Left-coset representatives of small in big, identity first."""

    big: Group
    small: Group
    reps: list[Perm]
    normal: bool
    coset_index: dict = field(repr=False, default_factory=dict)

    def __len__(self) -> int:
        return len(self.reps)

    def coset_of(self, g: Perm) -> int:
        try:
            return self.coset_index[g]
        except KeyError:
            raise ValueError(f"{g} is not an element of the big group") from None


def transversal(big: Group, small: Group) -> Transversal:
    """Left cosets t*small enumerated in big's element order."""
    if not small.is_subgroup_of(big):
        raise ValueError("small is not a subgroup of big")
    if big.order % small.order != 0:
        raise ValueError("subgroup order does not divide group order")
    reps: list[Perm] = []
    coset_index: dict[Perm, int] = {}
    for g in big.elements:
        if g in coset_index:
            continue
        k = len(reps)
        reps.append(g)
        for s in small.elements:
            coset_index[g * s] = k
    if len(coset_index) != big.order:
        raise ValueError("coset enumeration failed; small is not a subgroup")
    normal = True
    for a in big.generators:
        a_inv = a.inverse()
        for s in small.generators:
            if a * s * a_inv not in small.index:
                normal = False
                break
        if not normal:
            break
    return Transversal(big=big, small=small, reps=reps, normal=normal,
                       coset_index=coset_index)


def class_sums(G: Group) -> list[list[int]]:
    """Conjugacy classes as sorted index lists, ordered by (size, least index)."""
    n = G.order
    seen = [False] * n
    classes = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = {start}
        frontier = [start]
        seen[start] = True
        while frontier:
            i = frontier.pop()
            g = G.elements[i]
            for a in G.generators:
                c = a * g * a.inverse()
                ci = G.index[c]
                if ci not in orbit:
                    orbit.add(ci)
                    seen[ci] = True
                    frontier.append(ci)
        classes.append(sorted(orbit))
    classes.sort(key=lambda cls: (len(cls), cls[0]))
    return classes


def p_regular_class_count(G: Group, p: int) -> int:
    """Brauer's l(G), the number of classes of p-regular elements (no cycle
    length divisible by p), which no field of characteristic p exceeds."""
    return sum(1 for cls in class_sums(G)
               if all(len(c) % p for c in G.elements[cls[0]].cycles()))
