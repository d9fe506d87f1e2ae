"""Executable statements of the two induced-module criteria, the Mackey
step, the worked A4-in-S4 scenario and the four-set separation flags.

All corpus-scale work runs through PairLab, which keeps one canonical
representative per discovered indecomposable class and reduces every
verdict (rigidity, support counts, induction, restriction, conjugation)
to cached bookkeeping over those classes; a class's support is read from
dim Hom(P(S), -) over the PIMs.  That keeps hundreds of corpus modules
cheap while the underlying kernels stay exact.  omega_class, tau_classes
(tau = Omega^2) and conj_classes map class ids to classes registered
undecomposed: kG is symmetric, so Omega of an indecomposable under its
certified minimal cover is zero or indecomposable, and so is a twist.

Three certificates answer hom questions of a sweep without a hom space:
- Hom(X, tau Y) != 0 when a simple lies in top(X) and soc(tau Y), and
  = 0 when top(X) meets no composition factor of tau Y or soc(tau Y) none
  of X; homdim decides the rest (stt_counts, _hom_nonzero).
- soc(Omega W) = top(W) for an indecomposable non-projective W: kG is
  symmetric, so the minimal cover of W is the injective hull of Omega W
  (Auslander, Reiten and Smalo, Representation Theory of Artin Algebras,
  ch. IV).  Tops come from the covers omega_class computes anyway.
- Ind M is indecomposable when [big : small] is a power of p and End(M)
  is local with residue field k (J. A. Green, Math. Z. 70, 1959), so
  ind_classes registers it without a decomposition.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import partial, wraps
from typing import Optional

from .blockdec import Block, block_of_module, blocks, covering_blocks, \
    inertial_group, module_in_block
from .exactfield import Field
from .grouprep import Rep, conjugate_rep, direct_sum, hom_space, induce, iso_class, \
    restrict
from .meataxe import split_local, summand_stream
from .permgroup import Group, Transversal, transversal
from .taucalc import Tables, ext1, ext_module

__all__ = [
    "PairLab",
    "TheoremVerdict",
    "RemarkFlags",
    "CorpusEntry",
    "orbit_module",
    "is_invariant",
    "mackey_check",
    "check_theorem1",
    "check_theorem1_classes",
    "check_theorem2",
    "check_theorem2_classes",
    "remark_classify",
    "build_corpus",
]


@dataclass
class SttCounts:
    m: int
    z: int
    n: int
    rigid: bool
    stt: bool

    def as_dict(self) -> dict:
        return {"m": self.m, "z": self.z, "n": self.n,
                "rigid": self.rigid, "stt": self.stt}


@dataclass
class TheoremVerdict:
    lhs: bool
    rhs: bool
    certificates: dict

    @property
    def agree(self) -> bool:
        return self.lhs == self.rhs


@dataclass
class RemarkFlags:
    in_rig_group: bool
    in_sta_group: bool
    in_rig_block: bool
    in_sta_block: bool

    def as_dict(self) -> dict:
        return {
            "rig_group": self.in_rig_group,
            "sta_group": self.in_sta_group,
            "rig_block": self.in_rig_block,
            "sta_block": self.in_sta_block,
        }


def _push(classes: Counter, image) -> Counter:
    """The class multiset sum of mult * image(cid) over classes, where
    image maps a class id to a Counter.  Keys come in order of first
    appearance, class id outermost: stt_counts and new registrations
    depend on that order."""
    out: Counter = Counter()
    for cid, mult in classes.items():
        for cj, mj in image(cid).items():
            out[cj] += mult * mj
    return out


def _memo(method, key=lambda *args: args):
    """Memoize a PairLab method per instance on key(*args)."""
    @wraps(method)
    def memoized(self, *args):
        store, k = self._memo[method.__name__], key(*args)
        if k not in store:
            store[k] = method(self, *args)
        return store[k]
    return memoized


class PairLab:
    """Shared context for one pair G normal in Gtilde over one field."""

    def __init__(self, small: Group, big: Group, field: Field, seed: int = 0):
        self.small = small
        self.big = big
        self.field = field
        self.seed = seed
        self.trans = transversal(big, small)
        if not self.trans.normal:
            raise ValueError("the small group must be normal in the big group")
        self.tables = {"small": Tables(small, field, seed=seed),
                       "big": Tables(big, field, seed=seed)}
        self._classes: dict[str, list[Rep]] = {"small": [], "big": []}
        self._memo: defaultdict[str, dict] = defaultdict(dict)
        # simple labels of the top of each class and of the socle of each
        # class met as an Omega image, filled in by omega_class
        self._tops: dict[str, dict[int, frozenset]] = {"small": {}, "big": {}}
        self._socles: dict[str, dict[int, frozenset]] = {"small": {}, "big": {}}
        index = len(self.trans.reps)
        while index % field.p == 0:
            index //= field.p
        self._p_power_index = index == 1

    # -- class registry ---------------------------------------------------
    def group_of(self, side: str) -> Group:
        return self.small if side == "small" else self.big

    def register(self, rep: Rep, side: str) -> int:
        """Class id of an indecomposable module, adding it when new."""
        hit = iso_class(rep, self._classes[side])
        if hit is not None:
            return hit[0]
        self._classes[side].append(rep)
        return len(self._classes[side]) - 1

    def class_rep(self, side: str, cid: int) -> Rep:
        return self._classes[side][cid]

    def class_of(self, M: Rep, side: str) -> Counter:
        """classes_of of a module that is zero or indecomposable by construction."""
        return Counter({self.register(M, side): 1}) if M.dim else Counter()

    def classes_of(self, M: Rep, side: str) -> Counter:
        """Krull-Schmidt class multiset of a materialized module."""
        # the whole stream first: a module that stalls registers nothing
        leaves = [leaf for _, leaf in summand_stream(M, self.seed)]
        return Counter(self.register(leaf, side) for leaf in leaves)

    def materialize(self, counter: Counter, side: str) -> Rep:
        parts = []
        for cid in sorted(counter):
            parts.extend([self.class_rep(side, cid)] * counter[cid])
        return direct_sum(parts, group=self.group_of(side), field=self.field)

    # -- per-class data -----------------------------------------------------
    @_memo
    def omega_class(self, side: str, cid: int) -> Counter:
        """The class of Omega W for W = class cid.  Also notes top(W), read
        off the minimal cover, as the top of W and the socle of Omega W."""
        tables = self.tables[side]
        cover = tables.cover(self.class_rep(side, cid))
        top = frozenset(lab for lab, d in zip(tables.simples.labels, cover.top_dims) if d)
        self._tops[side][cid] = top
        out = self.class_of(cover.omega, side)
        for z in out:
            self._socles[side][z] = top
        return out

    @_memo
    def tau_classes(self, side: str, cid: int) -> Counter:
        return _push(self.omega_class(side, cid), partial(self.omega_class, side))

    @_memo
    def chop_class(self, side: str, cid: int) -> Counter:
        return self.tables[side].multiplicities(self.class_rep(side, cid))

    @_memo
    def homdim(self, side: str, ci: int, cj: int) -> int:
        return hom_space(self.class_rep(side, ci), self.class_rep(side, cj)).dim

    @_memo
    def _hom_nonzero(self, side: str, ci: int, ct: int) -> bool:
        """Whether Hom(X, Z) != 0 for classes X = ci and Z = ct, where both
        tau_classes of X and omega_class of the W with Omega W = Z have run.
        A simple in top(X) and soc(Z) gives X -> S -> Z; the image of a
        nonzero map has a top in top(X) and a socle in soc(Z), both among
        the composition factors of X and Z.  homdim decides the rest."""
        top, socle = self._tops[side][ci], self._socles[side][ct]
        if not top.isdisjoint(socle):
            return True
        if socle.isdisjoint(self.chop_class(side, ci)) or \
                top.isdisjoint(self.chop_class(side, ct)):
            return False
        return self.homdim(side, ci, ct) > 0

    @_memo
    def ind_classes(self, cid: int) -> Counter:
        M = self.class_rep("small", cid)
        ind = induce(M, self.big, self.trans)
        # Green's indecomposability theorem: Ind M is indecomposable when
        # [big : small] is a power of p and M is absolutely indecomposable
        if self._p_power_index and split_local(hom_space(M, M)):
            return self.class_of(ind, "big")
        return self.classes_of(ind, "big")

    @_memo
    def res_ind_classes(self, cid: int) -> Counter:
        ind = induce(self.class_rep("small", cid), self.big, self.trans)
        return self.classes_of(restrict(ind, self.small), "small")

    @_memo
    def conj_classes(self, cid: int, rep_index: int) -> Counter:
        """Class of the conjugate module by the rep_index-th coset rep."""
        t = self.trans.reps[rep_index]
        if t in self.small.index:  # an inner twist: M itself
            return Counter({cid: 1})
        return self.class_of(conjugate_rep(self.class_rep("small", cid), t), "small")

    def orbit_classes(self, counter: Counter,
                      rep_indices: Optional[list[int]] = None) -> Counter:
        """Classes of the direct sum of conjugates over coset representatives."""
        if rep_indices is None:
            rep_indices = range(len(self.trans.reps))
        return _push(counter, partial(self._orbit_class, tuple(rep_indices)))

    @_memo
    def _orbit_class(self, rep_indices: tuple[int, ...], cid: int) -> Counter:
        return sum((self.conj_classes(cid, ri) for ri in rep_indices), Counter())

    # -- blocks -------------------------------------------------------------
    @_memo
    def side_blocks(self, side: str) -> list[Block]:
        return blocks(self.group_of(side), self.field,
                      simples=self.tables[side].simples, seed=self.seed)

    @_memo
    def class_block(self, side: str, cid: int) -> int:
        return block_of_module(self.class_rep(side, cid), self.side_blocks(side)).index

    @partial(_memo, key=lambda B: B.index)  # a Block is unhashable
    def inertial(self, B: Block) -> Group:
        """Inertial group of a small-side block."""
        return inertial_group(B, self.big)

    def inertial_rep_indices(self, B: Block) -> list[int]:
        """Positions in the big transversal of the coset reps lying in I(B).

        I(B) contains G, so it is a union of G-cosets and exactly [I(B):G]
        of the big transversal's reps land in it; conjugation only depends
        on the coset mod G, so the conjugation cache can be reused.
        """
        I = self.inertial(B)
        out = [ri for ri, t in enumerate(self.trans.reps) if t in I.index]
        if len(out) != I.order // self.small.order:
            raise AssertionError("inertial group is not a union of cosets")
        return out

    # -- support tau-tilting over class multisets ---------------------------
    def stt_counts(self, counter: Counter, side: str,
                   scope: Optional[tuple[str, ...]] = None) -> SttCounts:
        tables = self.tables[side]
        if scope is None:
            scope = tuple(tables.simples.labels)
        m = len(counter)
        # _hom_nonzero(ci, ct) needs tau_classes(ci): that of the first class
        # runs before any _hom_nonzero, and that of every class before the
        # second class's turn, so classes register in the order they always did
        rigid = not any(self._hom_nonzero(side, ci, ct) for ci in counter
                        for cj in counter for ct in self.tau_classes(side, cj))
        support = set()
        for cid in counter:
            support.update(self.chop_class(side, cid).keys())
        z = sum(1 for lab in scope if lab not in support)
        n = len(scope)
        return SttCounts(m=m, z=z, n=n, rigid=rigid, stt=rigid and (m + z == n))


# ---------------------------------------------------------------------------
# spec-level operations

def orbit_module(M: Rep, big: Group, T: Optional[Transversal] = None) -> Rep:
    """Direct sum of the conjugate modules over a transversal of big / G."""
    if T is None:
        T = transversal(big, M.group)
    if not T.normal:
        raise ValueError("orbit modules require a normal subgroup")
    return direct_sum([conjugate_rep(M, t) for t in T.reps],
                      group=M.group, field=M.field)


def is_invariant(M: Rep, lab: PairLab) -> bool:
    """True when every conjugate by a coset representative is isomorphic to M."""
    classes = lab.classes_of(M, "small")
    return all(lab.orbit_classes(classes, [ri]) == classes
               for ri in range(1, len(lab.trans.reps)))


def mackey_check(M: Rep, lab: PairLab) -> bool:
    """Res Ind M isomorphic to the orbit sum of M (always expected true)."""
    classes = lab.classes_of(M, "small")
    return _push(classes, lab.res_ind_classes) == lab.orbit_classes(classes)


def _rhs_counts(classes: Counter, lab: PairLab,
                B: Optional[Block] = None) -> tuple[SttCounts, SttCounts]:
    """Counts of classes and of their orbit sum, over all simples and coset
    reps, or over B's simples and the reps in I(B).  The right-hand side of
    theorems 1 and 2 is: the first rigid and the second support tau-tilting."""
    scope = None if B is None else B.simple_labels
    counts = lab.stt_counts(classes, "small", scope)
    rep_indices = None if B is None else lab.inertial_rep_indices(B)
    orbit = lab.orbit_classes(classes, rep_indices)
    return counts, lab.stt_counts(orbit, "small", scope)


def check_theorem1_classes(classes: Counter, lab: PairLab) -> TheoremVerdict:
    """check_theorem1 on a Krull-Schmidt class multiset."""
    lhs_counts = lab.stt_counts(_push(classes, lab.ind_classes), "big")
    counts, orbit = _rhs_counts(classes, lab)
    return TheoremVerdict(
        lhs=lhs_counts.stt,
        rhs=counts.rigid and orbit.stt,
        certificates={
            "induced": lhs_counts.as_dict(),
            "module_rigid": counts.rigid,
            "orbit": orbit.as_dict(),
        },
    )


def check_theorem1(M: Rep, lab: PairLab) -> TheoremVerdict:
    """Ind M support tau-tilting over the big algebra iff M is tau-rigid
    with a support tau-tilting orbit sum over the small algebra."""
    return check_theorem1_classes(lab.classes_of(M, "small"), lab)


def check_theorem2_classes(classes: Counter, B: Block, Btilde: Block,
                           lab: PairLab) -> TheoremVerdict:
    """check_theorem2 on a Krull-Schmidt class multiset inside block B."""
    cover = covering_blocks(B, lab.big, lab.side_blocks("big"))
    if Btilde.index not in [b.index for b in cover]:
        raise ValueError("the big block does not cover the small block")
    for cid in classes:
        if lab.class_block("small", cid) != B.index:
            raise ValueError("module does not lie in the given block")
    ind = _push(classes, lab.ind_classes)
    cut = Counter({cj: mj for cj, mj in ind.items()
                   if lab.class_block("big", cj) == Btilde.index})
    lhs_counts = lab.stt_counts(cut, "big", scope=Btilde.simple_labels)
    counts, orbit = _rhs_counts(classes, lab, B)
    return TheoremVerdict(
        lhs=lhs_counts.stt,
        rhs=counts.rigid and orbit.stt,
        certificates={
            "block_cut_induced": lhs_counts.as_dict(),
            "module_rigid": counts.rigid,
            "inertial_orbit": orbit.as_dict(),
        },
    )


def check_theorem2(M: Rep, B: Block, Btilde: Block, lab: PairLab) -> TheoremVerdict:
    """Block version: the Btilde-cut of Ind M against rigidity plus the
    support tau-tilting orbit over the inertial transversal, in scope B."""
    if M.dim and not module_in_block(M, B):
        raise ValueError("module does not lie in the given block")
    return check_theorem2_classes(lab.classes_of(M, "small"), B, Btilde, lab)


def remark_classify(M: Rep, lab: PairLab) -> RemarkFlags:
    """Membership flags for the four separation sets (rigid/stt at group
    level, and at the level of the block of M); containment of the stt
    sets in the rigid sets is enforced as a hard error."""
    classes = lab.classes_of(M, "small")
    counts, orbit = _rhs_counts(classes, lab)
    if M.dim == 0:
        B = lab.side_blocks("small")[0]
    else:
        B = block_of_module(M, lab.side_blocks("small"))
    counts_b, orbit_b = _rhs_counts(classes, lab, B)
    flags = RemarkFlags(
        in_rig_group=counts.rigid and orbit.stt,
        in_sta_group=counts.stt and orbit.stt,
        in_rig_block=counts_b.rigid and orbit_b.stt,
        in_sta_block=counts_b.stt and orbit_b.stt,
    )
    if flags.in_sta_group and not flags.in_rig_group:
        raise AssertionError("stt set escaped the rigid set (group level)")
    if flags.in_sta_block and not flags.in_rig_block:
        raise AssertionError("stt set escaped the rigid set (block level)")
    return flags


# ---------------------------------------------------------------------------
# deterministic corpus

@dataclass
class CorpusEntry:
    name: str
    classes: Counter


def build_corpus(lab: PairLab) -> list[CorpusEntry]:
    """Deterministic module corpus: every indecomposable class discovered
    from simples, projectives, double syzygies, stacked extensions and
    their orbit sums, then all direct sums of up to three distinct
    classes (the zero module is the empty sum)."""
    tables = lab.tables["small"]
    pool: list[int] = []

    def note(counter: Counter):
        for cid in counter:
            if cid not in pool:
                pool.append(cid)

    simples = tables.simples
    simple_ids = [lab.register(S, "small") for S in simples.simples]
    note(simple_ids)
    for P in tables.pimtable.pims:
        note(lab.class_of(P, "small"))
    for cid in simple_ids:
        note(lab.omega_class("small", cid) + lab.tau_classes("small", cid))
    for S in simples.simples:
        for T in simples.simples:
            res = ext1(S, T, tables)
            if res.dimension >= 1:  # a non-split extension of simples
                note(lab.class_of(ext_module(S, T, res.cocycles[0]), "small"))
    for cid in list(pool):
        note(lab.orbit_classes(Counter({cid: 1})))
    pool.sort()
    out = [CorpusEntry(name="0", classes=Counter())]
    for r in range(1, 4):
        for combo in itertools.combinations(pool, r):
            name = "+".join(f"C{c}" for c in combo)
            out.append(CorpusEntry(name=name, classes=Counter(combo)))
    return out
