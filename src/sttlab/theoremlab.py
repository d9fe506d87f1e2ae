"""Executable statements of the two induced-module criteria, the Mackey
step, the worked A4-in-S4 scenario and the four-set separation flags.

All corpus-scale work runs through PairLab, which keeps one canonical
representative per discovered indecomposable class and reduces every
verdict (rigidity, support counts, induction, restriction, conjugation)
to cached bookkeeping over those classes.  That keeps hundreds of corpus
modules cheap while the underlying kernels stay exact.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .blockdec import Block, block_of_module, blocks, covering_blocks, \
    inertial_group, module_in_block
from .exactfield import Field
from .grouprep import Rep, conjugate_rep, direct_sum, ext_module, hom_space, induce, \
    iso_class, restrict
from .meataxe import decompose
from .permgroup import Group, Transversal, transversal
from .taucalc import Tables, ext1, syzygy, tau

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
        self._tau: dict[tuple[str, int], Counter] = {}
        self._chop: dict[tuple[str, int], Counter] = {}
        self._homdim: dict[tuple[str, int, int], int] = {}
        self._ind: dict[int, Counter] = {}
        self._res_ind: dict[int, Counter] = {}
        self._conj: dict[tuple[int, int], Counter] = {}
        self._blocks: dict[str, list[Block]] = {}
        self._class_block: dict[tuple[str, int], int] = {}
        self._inertial: dict[int, Group] = {}
        self._inertial_trans: dict[int, Transversal] = {}

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

    def classes_of(self, M: Rep, side: str) -> Counter:
        """Krull-Schmidt class multiset of a materialized module."""
        out: Counter = Counter()
        if M.dim == 0:
            return out
        dec = decompose(M, seed=self.seed)
        for rep, mult in dec.summands:
            out[self.register(rep, side)] += mult
        return out

    def materialize(self, counter: Counter, side: str) -> Rep:
        parts = []
        for cid in sorted(counter):
            parts.extend([self.class_rep(side, cid)] * counter[cid])
        return direct_sum(parts, group=self.group_of(side), field=self.field)

    # -- per-class data -----------------------------------------------------
    def tau_classes(self, side: str, cid: int) -> Counter:
        key = (side, cid)
        if key not in self._tau:
            t = tau(self.class_rep(side, cid), self.tables[side])
            self._tau[key] = self.classes_of(t, side)
        return self._tau[key]

    def chop_class(self, side: str, cid: int) -> Counter:
        key = (side, cid)
        if key not in self._chop:
            self._chop[key] = self.tables[side].chop(self.class_rep(side, cid))
        return self._chop[key]

    def homdim(self, side: str, ci: int, cj: int) -> int:
        key = (side, ci, cj)
        if key not in self._homdim:
            self._homdim[key] = hom_space(
                self.class_rep(side, ci), self.class_rep(side, cj)
            ).dim
        return self._homdim[key]

    def ind_classes(self, cid: int) -> Counter:
        if cid not in self._ind:
            ind = induce(self.class_rep("small", cid), self.big, self.trans)
            self._ind[cid] = self.classes_of(ind, "big")
        return self._ind[cid]

    def res_ind_classes(self, cid: int) -> Counter:
        if cid not in self._res_ind:
            ind = induce(self.class_rep("small", cid), self.big, self.trans)
            self._res_ind[cid] = self.classes_of(restrict(ind, self.small), "small")
        return self._res_ind[cid]

    def conj_classes(self, cid: int, rep_index: int) -> Counter:
        """Classes of the conjugate module by the rep_index-th coset rep."""
        key = (cid, rep_index)
        if key not in self._conj:
            t = self.trans.reps[rep_index]
            conj = conjugate_rep(self.class_rep("small", cid), t)
            self._conj[key] = self.classes_of(conj, "small")
        return self._conj[key]

    def orbit_classes(self, counter: Counter,
                      rep_indices: Optional[list[int]] = None) -> Counter:
        """Classes of the direct sum of conjugates over coset representatives."""
        if rep_indices is None:
            rep_indices = range(len(self.trans.reps))
        return _push(counter, lambda cid: sum(
            (self.conj_classes(cid, ri) for ri in rep_indices), Counter()))

    # -- blocks -------------------------------------------------------------
    def side_blocks(self, side: str) -> list[Block]:
        if side not in self._blocks:
            self._blocks[side] = blocks(
                self.group_of(side), self.field,
                simples=self.tables[side].simples, seed=self.seed,
            )
        return self._blocks[side]

    def class_block(self, side: str, cid: int) -> int:
        key = (side, cid)
        if key not in self._class_block:
            b = block_of_module(self.class_rep(side, cid), self.side_blocks(side))
            self._class_block[key] = b.index
        return self._class_block[key]

    def inertial(self, B: Block) -> tuple[Group, Transversal]:
        """Inertial group of a small-side block, with a transversal of G in it."""
        key = B.index
        if key not in self._inertial:
            I = inertial_group(B, self.big)
            self._inertial[key] = I
            self._inertial_trans[key] = transversal(I, self.small)
        return self._inertial[key], self._inertial_trans[key]

    def inertial_rep_indices(self, B: Block) -> list[int]:
        """Positions in the big transversal of the coset reps lying in I(B).

        I(B) contains G, so it is a union of G-cosets and exactly [I(B):G]
        of the big transversal's reps land in it; conjugation only depends
        on the coset mod G, so the conjugation cache can be reused.
        """
        I, iT = self.inertial(B)
        out = [ri for ri, t in enumerate(self.trans.reps) if t in I.index]
        if len(out) != len(iT.reps):
            raise AssertionError("inertial group is not a union of cosets")
        return out

    # -- support tau-tilting over class multisets ---------------------------
    def stt_counts(self, counter: Counter, side: str,
                   scope: Optional[tuple[str, ...]] = None) -> SttCounts:
        tables = self.tables[side]
        if scope is None:
            scope = tuple(tables.simples.labels)
        m = len(counter)
        rigid = not any(self.homdim(side, ci, ct) for ci in counter
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


def check_theorem1_classes(classes: Counter, lab: PairLab) -> TheoremVerdict:
    """check_theorem1 on a Krull-Schmidt class multiset."""
    lhs_counts = lab.stt_counts(_push(classes, lab.ind_classes), "big")
    rigid_counts = lab.stt_counts(classes, "small")
    orbit_counts = lab.stt_counts(lab.orbit_classes(classes), "small")
    rhs = rigid_counts.rigid and orbit_counts.stt
    return TheoremVerdict(
        lhs=lhs_counts.stt,
        rhs=rhs,
        certificates={
            "induced": lhs_counts.as_dict(),
            "module_rigid": rigid_counts.rigid,
            "orbit": orbit_counts.as_dict(),
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
    rigid_counts = lab.stt_counts(classes, "small", scope=B.simple_labels)
    rep_indices = lab.inertial_rep_indices(B)
    orbit = lab.orbit_classes(classes, rep_indices)
    orbit_counts = lab.stt_counts(orbit, "small", scope=B.simple_labels)
    rhs = rigid_counts.rigid and orbit_counts.stt
    return TheoremVerdict(
        lhs=lhs_counts.stt,
        rhs=rhs,
        certificates={
            "block_cut_induced": lhs_counts.as_dict(),
            "module_rigid": rigid_counts.rigid,
            "inertial_orbit": orbit_counts.as_dict(),
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
    counts = lab.stt_counts(classes, "small")
    rigid, stt_self = counts.rigid, counts.stt
    orbit_ok = lab.stt_counts(lab.orbit_classes(classes), "small").stt
    in_rig_group = rigid and orbit_ok
    in_sta_group = stt_self and orbit_ok
    if M.dim == 0:
        B = lab.side_blocks("small")[0]
    else:
        B = block_of_module(M, lab.side_blocks("small"))
    rep_indices = lab.inertial_rep_indices(B)
    orbit_b = lab.orbit_classes(classes, rep_indices)
    scope_b = B.simple_labels
    counts_b = lab.stt_counts(classes, "small", scope=scope_b)
    rigid_b, stt_b = counts_b.rigid, counts_b.stt
    orbit_b_ok = lab.stt_counts(orbit_b, "small", scope=scope_b).stt
    flags = RemarkFlags(
        in_rig_group=in_rig_group,
        in_sta_group=in_sta_group,
        in_rig_block=rigid_b and orbit_b_ok,
        in_sta_block=stt_b and orbit_b_ok,
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
    for S in simples.simples:
        note(lab.classes_of(S, "small"))
    for P in tables.pimtable.pims:
        note(lab.classes_of(P, "small"))
    for S in simples.simples:
        o1 = syzygy(S, tables)
        if o1.dim:
            note(lab.classes_of(o1, "small"))
            o2 = syzygy(o1, tables)
            if o2.dim:
                note(lab.classes_of(o2, "small"))
    for S in simples.simples:
        for T in simples.simples:
            res = ext1(S, T, tables)
            if res.dimension >= 1:
                E = ext_module(S, T, res.cocycles[0])
                note(lab.classes_of(E, "small"))
    for cid in list(pool):
        note(lab.orbit_classes(Counter({cid: 1})))
    pool.sort()
    out = [CorpusEntry(name="0", classes=Counter())]
    for r in range(1, 4):
        for combo in itertools.combinations(pool, r):
            name = "+".join(f"C{c}" for c in combo)
            out.append(CorpusEntry(name=name, classes=Counter(combo)))
    return out
