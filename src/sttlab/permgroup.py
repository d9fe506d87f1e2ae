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
    "p_prime_subgroup",
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
        """The permutation of disjoint cycles.  A point given twice is an
        error: overlapping cycles would have to be read as a product."""
        images = list(range(degree))
        seen = set()
        for cyc in cycles:
            for i, pt in enumerate(cyc):
                if not 0 <= pt < degree:
                    raise ValueError(f"point {pt} out of range for degree {degree}")
                if pt in seen:
                    raise ValueError(f"point {pt} appears twice in the cycles")
                seen.add(pt)
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
        # a product of permutations is one: skip __init__'s check
        out = object.__new__(Perm)
        out.images = tuple(map(self.images.__getitem__, other.images))
        return out

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
        cycles.append(tuple(int(tok) for tok in inner))
    return Perm.from_cycles(degree, cycles)


class Group:
    """Finite permutation group with BFS element enumeration and words.

    elements[0] is the identity; words[i] is a list of generator indices
    with elements[i] = gens[w[0]] * gens[w[1]] * ... * gens[w[-1]].  The
    closure's own products are kept: left[gi, h] is the index of
    gens[gi] * elements[h], and elements[i] = gens[words[i][0]] *
    elements[parents[i]] with parents[i] < i (parents[0] = 0).
    """

    def __init__(self, degree: int, generators: list[Perm], elements: list[Perm],
                 words: list[list[int]], left: np.ndarray, parents: np.ndarray):
        self.degree = degree
        self.generators = generators
        self.elements = elements
        self.words = words
        self.left = left
        self.parents = parents
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
        """mult_table[i, j] = index of elements[i] * elements[j]; row i is
        row parents[i] moved by the first generator of words[i]."""
        if self._mult_table is None:
            n = self.order
            t = np.empty((n, n), dtype=np.int32)
            t[0] = np.arange(n)
            for i in range(1, n):
                t[i] = self.left[self.words[i][0], t[self.parents[i]]]
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

    New elements are produced as gen * h for an earlier element h, so the
    recorded word of a new element is [gen index] + word(h), and h is its
    parent.
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
    parents = [0]
    left: list[list[int]] = [[] for _ in gens]
    index = {ident: 0}
    # elements is the queue: each one is expanded once, in index order
    for h_idx, h in enumerate(elements):
        for gi, a in enumerate(gens):
            g = a * h
            if g not in index:
                index[g] = len(elements)
                elements.append(g)
                words.append([gi] + words[h_idx])
                parents.append(h_idx)
                if len(elements) > cap:
                    raise ValueError(
                        f"group closure exceeded the element cap {cap}"
                    )
            left[gi].append(index[g])
    n = len(elements)
    return Group(degree, gens, elements, words,
                 np.array(left, dtype=np.int32).reshape(len(gens), n),
                 np.array(parents, dtype=np.int32))


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
    """Conjugacy classes as sorted index lists, ordered by (size, least index).

    Each generator a conjugates every element at once on the array of point
    images, as (a g a^-1)(x) = a(g(a^-1(x))), and one lookup per image tuple
    gives the index of a g a^-1: no Perm products and no Cayley table."""
    n = G.order
    images = np.array([g.images for g in G.elements], dtype=np.intp).reshape(n, G.degree)
    lookup = {g.images: i for i, g in enumerate(G.elements)}
    conj = []
    for a in G.generators:
        moved = np.asarray(a.images)[images[:, np.argsort(a.images)]]
        conj.append([lookup[t] for t in map(tuple, moved.tolist())])
    seen = [False] * n
    classes = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for i in orbit:  # the orbit grows while it is walked
            for row in conj:
                j = row[i]
                if not seen[j]:
                    seen[j] = True
                    orbit.append(j)
        classes.append(sorted(orbit))
    classes.sort(key=lambda cls: (len(cls), cls[0]))
    return classes


def _p_regular(g: Perm, p: int) -> bool:
    """Whether the order of g, the lcm of its cycle lengths, is prime to p."""
    return all(len(c) % p for c in g.cycles())


def p_regular_class_count(G: Group, p: int) -> int:
    """Brauer's l(G), the number of classes of p-regular elements (no cycle
    length divisible by p), which no field of characteristic p exceeds."""
    return sum(1 for cls in class_sums(G) if _p_regular(G.elements[cls[0]], p))


def _p_prime_closure(elements: set, gens: list[Perm], p: int) -> Optional[set]:
    """The elements of the group generated by the group `elements` and
    gens, or None at the first one whose order p divides."""
    seen = set(elements)
    queue = list(elements)  # each element is expanded once, in order
    for h in queue:
        for a in gens:
            g = a * h
            if g not in seen:
                if not _p_regular(g, p):
                    return None
                seen.add(g)
                queue.append(g)
    return seen


def _greedy_p_prime(G: Group, p: int, start: Perm) -> tuple[list[Perm], int]:
    """Generators and order of a p'-subgroup that no p'-element outside it
    extends, grown from <start> greedily over G's elements in order.

    g joins H when <H, g> is still a p'-group.  The closure deciding that
    stops at its first element of order divisible by p, and a group whose
    order p divides has one (Cauchy).  A g turned down by a smaller H is
    turned down by every larger one, so one pass leaves H maximal.
    """
    gens: list[Perm] = []
    elements = {G.elements[0]}
    for g in [start, *G.elements]:
        if g in elements or not _p_regular(g, p):
            continue
        grown = _p_prime_closure(elements, gens + [g], p)
        if grown is not None:
            gens.append(g)
            elements = grown
    return gens, len(elements)


def p_prime_subgroup(G: Group, p: int) -> Group:
    """A subgroup H of order prime to p that no p'-element outside it
    extends: the largest _greedy_p_prime result over one start per class
    of p-regular elements.  The search stops at the p'-part of |G|, which
    no p'-subgroup exceeds.  Only Perm products are taken, no
    multiplication table is built.
    """
    bound = G.order
    while bound % p == 0:
        bound //= p
    best: tuple[list[Perm], int] = ([], 0)
    # the identity's class comes first: p-groups and p'-groups need one pass
    for cls in class_sums(G):
        start = G.elements[cls[0]]
        if _p_regular(start, p):
            found = _greedy_p_prime(G, p, start)
            if found[1] > best[1]:
                best = found
            if best[1] == bound:
                break
    return group_close(G.degree, best[0])
