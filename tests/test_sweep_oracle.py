"""The theorem sweep of PairLab against a reference sweep, and the
orientation of the isomorphism tests in PairLab.register.

The reference below is the per-pair sweep the class bitmasks replaced:
class multisets pushed as Counters, a memo per (ci, cj) rigidity question
and supports as sets of labels, all read through PairLab's public lookups.
Run on a lab of its own, it must give the same verdicts and certificates
on every corpus entry, cold and warm, and register the same classes in
the same order.
"""

import hashlib
from collections import Counter

import pytest

from sttlab.blockdec import covering_blocks
from sttlab.exactfield import Matrix, field_make
from sttlab.grouprep import Rep, hom_space, iso_class
from sttlab.permgroup import group_close, parse_cycles
from sttlab.theoremlab import PairLab, build_corpus, check_theorem1_classes, \
    check_theorem2_classes

V4 = (4, ["(0 1)(2 3)", "(0 2)(1 3)"])
A4 = (4, ["(0 1 2)", "(0 1)(2 3)"])
S4 = (4, ["(0 1)", "(0 1 2 3)"])
C3 = (3, ["(0 1 2)"])
S3 = (3, ["(0 1)", "(0 1 2)"])

PAIRS = {
    "a4s4-gf4": (A4, S4, 2, 2),
    "c3s3-gf4": (C3, S3, 2, 2),
    "v4a4-gf3": (V4, A4, 3, 1),
    "a4s4-gf3": (A4, S4, 3, 1),
}


def group(spec):
    degree, cycles = spec
    return group_close(degree, [parse_cycles(c, degree) for c in cycles])


def make_lab(pair: str) -> PairLab:
    small, big, p, m = PAIRS[pair]
    return PairLab(group(small), group(big), field_make(p, m))


# ---------------------------------------------------------------------------
# reference sweep

def ref_push(classes: Counter, image) -> Counter:
    out: Counter = Counter()
    for cid, mult in classes.items():
        for cj, mj in image(cid).items():
            out[cj] += mult * mj
    return out


class RefSweep:
    """Theorems 1 and 2 over class multisets, one memo entry per pair."""

    def __init__(self, lab: PairLab):
        self.lab = lab
        self.clashes: dict = {}

    def clash(self, side, ci, cj) -> bool:
        key = (side, ci, cj)
        if key not in self.clashes:
            self.clashes[key] = self._clash(side, ci, cj)
        return self.clashes[key]

    def _clash(self, side, ci, cj) -> bool:
        lab = self.lab
        tau_y = lab.tau_classes(side, cj)
        if not tau_y:
            return False
        (ct,), (cw,) = tau_y, lab.omega_class(side, cj)
        top, socle = lab.top(side, ci), lab.top(side, cw)
        if not top.isdisjoint(socle):
            return True
        if socle.isdisjoint(lab.chop_class(side, ci)) or \
                top.isdisjoint(lab.chop_class(side, ct)):
            return False
        return hom_space(lab.class_rep(side, ci), lab.class_rep(side, ct)).dim > 0

    def counts(self, counter, side, scope=None) -> dict:
        if scope is None:
            scope = tuple(self.lab.tables[side].simples.labels)
        m = len(counter)
        rigid = not any(self.clash(side, ci, cj) for ci in counter for cj in counter)
        support = set().union(*(self.lab.chop_class(side, cid) for cid in counter))
        z = sum(1 for lab in scope if lab not in support)
        n = len(scope)
        return {"m": m, "z": z, "n": n, "rigid": rigid, "stt": rigid and m + z == n}

    def rhs(self, classes, B=None):
        lab = self.lab
        scope = None if B is None else B.simple_labels
        counts = self.counts(classes, "small", scope)
        rep_indices = None if B is None else lab.inertial_rep_indices(B)
        orbit = lab.orbit_classes(classes, rep_indices)
        return counts, self.counts(orbit, "small", scope)

    def theorem1(self, classes) -> tuple:
        lhs = self.counts(ref_push(classes, self.lab.ind_classes), "big")
        counts, orbit = self.rhs(classes)
        return lhs["stt"], counts["rigid"] and orbit["stt"], \
            {"induced": lhs, "module_rigid": counts["rigid"], "orbit": orbit}

    def theorem2(self, classes, B, Bt) -> tuple:
        lab = self.lab
        ind = ref_push(classes, lab.ind_classes)
        cut = Counter({cj: mj for cj, mj in ind.items()
                       if lab.class_block("big", cj) == Bt.index})
        lhs = self.counts(cut, "big", Bt.simple_labels)
        counts, orbit = self.rhs(classes, B)
        return lhs["stt"], counts["rigid"] and orbit["stt"], \
            {"block_cut_induced": lhs, "module_rigid": counts["rigid"],
             "inertial_orbit": orbit}


def sweep(lab: PairLab, corpus, theorem1, theorem2, with_blocks: bool) -> list:
    """Theorem 1 on every entry, then, with_blocks, theorem 2 on every
    covering block pair and every entry whose classes lie in the small
    block, in the order of the blocks-p3 benchmark workload."""
    out = [("thm1", e.name, theorem1(e.classes)) for e in corpus]
    if with_blocks:
        for B in lab.side_blocks("small"):
            for Bt in covering_blocks(B, lab.big, lab.side_blocks("big")):
                for e in corpus:
                    if all(lab.class_block("small", cid) == B.index for cid in e.classes):
                        out.append((f"thm2/B{B.index}-B{Bt.index}", e.name,
                                    theorem2(e.classes, B, Bt)))
    return out


def class_digest(lab: PairLab) -> tuple:
    out = []
    for side in ("small", "big"):
        h = hashlib.sha256()
        for R in lab.class_reps(side):
            h.update(R.dim.to_bytes(4, "little"))
            for X in R.gen_mats:
                h.update(X.a.tobytes())
        out.append((len(lab.class_reps(side)), h.hexdigest()))
    return tuple(out)


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_sweep_matches_the_reference_sweep(pair):
    """The bitmask sweep and the reference sweep, each on a lab of its own,
    give equal verdicts and certificates on every entry, on the cold sweep
    and on a warm second one, and register the same classes in the same
    order: theorem 1 on all four pairs, theorem 2 on the GF(3) pairs."""
    with_blocks = pair.endswith("gf3")
    lab, ref_lab = make_lab(pair), make_lab(pair)
    corpus, ref_corpus = build_corpus(lab), build_corpus(ref_lab)
    assert [e.name for e in corpus] == [e.name for e in ref_corpus]
    ref = RefSweep(ref_lab)

    def theorem1(classes):
        v = check_theorem1_classes(classes, lab)
        return v.lhs, v.rhs, v.certificates

    def theorem2(classes, B, Bt):
        v = check_theorem2_classes(classes, B, Bt, lab)
        return v.lhs, v.rhs, v.certificates

    runs = []
    for _ in ("cold", "warm"):
        runs.append(sweep(lab, corpus, theorem1, theorem2, with_blocks))
        runs.append(sweep(ref_lab, ref_corpus, ref.theorem1, ref.theorem2, with_blocks))
        assert class_digest(lab) == class_digest(ref_lab)
    assert runs[0] == runs[1] == runs[2] == runs[3]
    assert any(k.startswith("thm2") for k, _, _ in runs[0]) == with_blocks
    # kG is semisimple for C3 over GF(4) and V4 over GF(3): there every
    # module is support tau-tilting
    both = {True, False} if pair.startswith("a4s4") else {True}
    assert {v[0] for _, _, v in runs[0]} == both
    assert {v[2]["module_rigid"] for _, _, v in runs[0]} == both


# ---------------------------------------------------------------------------
# register asks Hom(R, M) of the class reps R

def test_register_leaves_a_module_it_files_unspun():
    """A fresh module isomorphic to a registered class gets that class's id
    without being spun: the tests ask Hom(R, M), and R keeps its spin."""
    lab = make_lab("a4s4-gf4")
    corpus_reps = [lab.class_rep("small", cid) for cid in
                   {cid for e in build_corpus(lab) for cid in e.classes}]
    R = max(corpus_reps, key=lambda R: R.dim)
    assert R.dim >= 4  # the spin regime of hom_space
    f = lab.field
    # a change of basis, X M X^-1, so the test needs a nontrivial witness
    X = Matrix.identity(f, R.dim)
    X.a[0, 1:] = 1
    M = Rep(R.group, f, [X @ A @ X.inverse() for A in R.gen_mats])
    assert M._spin_source is None
    cid = lab.register(M, "small")
    assert lab.class_rep("small", cid) is R
    assert M._spin_source is None
    assert R._spin_source is not None


def test_register_finds_the_class_iso_class_finds(monkeypatch):
    """On every module registered while the corpus of A4 in S4 over GF(4)
    is built and swept by theorem 1, register's id is iso_class's index
    among the class reps of that side."""
    lab = make_lab("a4s4-gf4")
    filed = []
    real = lab.register
    monkeypatch.setattr(lab, "register",
                        lambda M, side: filed.append((M, side, real(M, side))) or filed[-1][2])
    for entry in build_corpus(lab):
        check_theorem1_classes(entry.classes, lab)
    assert len({id(M) for M, _, _ in filed}) >= 70
    assert {side for _, side, _ in filed} == {"small", "big"}
    for M, side, cid in filed:
        assert iso_class(M, list(lab.class_reps(side)))[0] == cid
