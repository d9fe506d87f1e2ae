import gc
import hashlib
import weakref
from collections import Counter

import pytest

from sttlab import blockdec, taucalc
from sttlab.blockdec import block_cut_induce, covering_blocks
from sttlab.exactfield import Matrix, field_make
from sttlab.grouprep import (
    conjugate_rep,
    direct_sum,
    hom_space,
    induce,
    regular_rep,
    rep_apply_algebra,
    rep_make,
    restrict,
    trivial_rep,
    zero_rep,
)
from sttlab.meataxe import add_compare, chop, decompose, is_isomorphic, summand_stream
from sttlab.permgroup import group_close, parse_cycles
from sttlab.taucalc import Tables, is_stt, syzygy, tau
from sttlab.theoremlab import (
    PairLab,
    build_corpus,
    check_theorem1_classes,
    check_theorem2_classes,
    is_invariant,
    mackey_check,
    orbit_module,
    remark_classify,
)


@pytest.fixture(scope="module")
def corpus_a4(a4s4):
    return build_corpus(a4s4)


@pytest.fixture(scope="module")
def corpus_c3(c3s3):
    return build_corpus(c3s3)


def test_orbit_module_basics(a4, s4, f4, cast, a4s4):
    orb = orbit_module(cast.k, s4, a4s4.trans)
    assert orb.dim == 2
    # big = G degenerates to the module itself
    from sttlab.permgroup import transversal

    T_self = transversal(a4, a4)
    self_orb = orbit_module(cast.kS, a4, T_self)
    assert self_orb.dim == cast.kS.dim and is_isomorphic(self_orb, cast.kS)


def test_orbit_of_invariant_module(cast, s4, a4s4):
    orb = orbit_module(cast.M, s4, a4s4.trans)
    assert is_isomorphic(orb, direct_sum([cast.M, cast.M]))


def test_is_invariant(cast, a4s4, a4, f4):
    assert is_invariant(a4s4.classes_of(cast.M, "small"), a4s4)
    assert not is_invariant(a4s4.classes_of(cast.N1, "small"), a4s4)
    assert not is_invariant(a4s4.classes_of(cast.N2, "small"), a4s4)
    assert is_invariant(a4s4.classes_of(trivial_rep(a4, f4), "small"), a4s4)
    assert is_invariant(a4s4.classes_of(zero_rep(a4, f4), "small"), a4s4)


def test_mackey_named_modules(cast, a4s4, a4, f4):
    for M in (cast.k, cast.S, cast.kS, cast.M, regular_rep(a4, f4)):
        assert mackey_check(a4s4.classes_of(M, "small"), a4s4)


def test_mackey_res_ind_matches_materialized(cast, a4, s4, f4, a4s4):
    """Classwise Mackey agrees with the direct isomorphism check."""
    for M in (cast.k, cast.S, cast.kS):
        ind = induce(M, s4, a4s4.trans)
        res = restrict(ind, a4)
        orb = orbit_module(M, s4, a4s4.trans)
        assert is_isomorphic(res, orb)
        assert mackey_check(a4s4.classes_of(M, "small"), a4s4)


def test_mackey_res_ind_of_simple_is_both_simples(cast, a4, s4, a4s4):
    ind = induce(cast.S, s4, a4s4.trans)
    res = restrict(ind, a4)
    assert is_isomorphic(res, direct_sum([cast.S, cast.T]))


def test_check_theorem1_named(cast, a4s4, a4, f4):
    for M, lhs in ((cast.N1, True), (cast.N2, True), (cast.ST, True),
                   (cast.M, True), (regular_rep(a4, f4), True)):
        v = check_theorem1_classes(a4s4.classes_of(M, "small"), a4s4)
        assert v.agree
        assert v.lhs == lhs
    v0 = check_theorem1_classes(a4s4.classes_of(zero_rep(a4, f4), "small"), a4s4)
    assert v0.agree and v0.lhs


def test_check_theorem1_negative_instance(cast, a4s4, a4_tables):
    """A module failing rigidity fails on both sides coherently."""
    from sttlab.taucalc import syzygy

    bad = direct_sum([cast.k, syzygy(cast.k, a4_tables)])
    v = check_theorem1_classes(a4s4.classes_of(bad, "small"), a4s4)
    assert v.agree
    assert not v.lhs and not v.rhs


def test_corpus_size_and_determinism(corpus_a4, corpus_c3, a4, s4, f4):
    assert len(corpus_a4) + len(corpus_c3) >= 40
    # two fresh labs discover the same classes in the same order
    lab1 = PairLab(a4, s4, f4)
    lab2 = PairLab(a4, s4, f4)
    corpus1 = build_corpus(lab1)
    corpus2 = build_corpus(lab2)
    assert [e.name for e in corpus1] == [e.name for e in corpus2]
    assert [sorted(e.classes.items()) for e in corpus1] == \
        [sorted(e.classes.items()) for e in corpus2]
    dims1 = [r.dim for r in lab1.class_reps("small")]
    dims2 = [r.dim for r in lab2.class_reps("small")]
    assert dims1 == dims2


def test_theorem1_universal_a4s4(a4s4, corpus_a4):
    disagreements = []
    for entry in corpus_a4:
        v = check_theorem1_classes(entry.classes, a4s4)
        if not v.agree:
            disagreements.append(entry.name)
    assert disagreements == []


def test_theorem1_universal_c3s3(c3s3, corpus_c3):
    for entry in corpus_c3:
        assert check_theorem1_classes(entry.classes, c3s3).agree


V4 = (4, ["(0 1)(2 3)", "(0 2)(1 3)"])
A4 = (4, ["(0 1 2)", "(0 1)(2 3)"])
S4 = (4, ["(0 1)", "(0 1 2 3)"])
C3 = (3, ["(0 1 2)"])
S3 = (3, ["(0 1)", "(0 1 2)"])
A5 = (5, ["(0 1 2)", "(0 1 2 3 4)"])
S5 = (5, ["(0 1)", "(0 1 2 3 4)"])


def group(spec):
    degree, cycles = spec
    return group_close(degree, [parse_cycles(c, degree) for c in cycles])


@pytest.mark.parametrize("small, big, p, m, size", [
    (V4, A4, 2, 2, 64),
    (V4, A4, 3, 1, 15),
    (C3, S3, 3, 1, 8),
    (A4, S4, 3, 1, 15),
    (V4, S4, 2, 2, 64),
    (V4, S4, 3, 1, 15),
    (A5, S5, 2, 2, 834),
], ids=["v4a4-gf4", "v4a4-gf3", "c3s3-gf3", "a4s4-gf3", "v4s4-gf4", "v4s4-gf3",
        "a5s5-gf4"])
def test_theorem1_universal_other_pairs(small, big, p, m, size):
    """Theorem 1 beyond A4 in S4 and C3 in S3 at p = 2; over GF(4) the
    projectives of V4 are local of dimension 4, divisible by p."""
    lab = PairLab(group(small), group(big), field_make(p, m))
    corpus = build_corpus(lab)
    assert len(corpus) == size
    assert [e.name for e in corpus
            if not check_theorem1_classes(e.classes, lab).agree] == []


# A4 in S4 and C3 in S3 over GF(4), and the four blocks-p3 pairs over GF(3)
TWO_ROUTE_PAIRS = {
    "a4s4-gf4": (A4, S4, 2, 2),
    "c3s3-gf4": (C3, S3, 2, 2),
    "v4a4-gf3": (V4, A4, 3, 1),
    "c3s3-gf3": (C3, S3, 3, 1),
    "a4s4-gf3": (A4, S4, 3, 1),
    "v4s4-gf3": (V4, S4, 3, 1),
}


@pytest.mark.parametrize("pair", sorted(TWO_ROUTE_PAIRS))
def test_multiplicities_match_meataxe_chop(pair):
    """Hom(P(S), -) multiplicities against the MeatAxe chop, on every class
    the corpus registers and every class induced from one."""
    small, big, p, m = TWO_ROUTE_PAIRS[pair]
    lab = PairLab(group(small), group(big), field_make(p, m))
    build_corpus(lab)
    for cid in range(len(lab.class_reps("small"))):
        lab.ind_classes(cid)
    for side in ("small", "big"):
        tables = lab.tables[side]
        assert lab.class_reps(side)
        for cid, R in enumerate(lab.class_reps(side)):
            want = chop(R, tables.simples, seed=lab.seed)
            assert sorted(tables.multiplicities(R).items()) == sorted(want.items())
            assert sorted(lab.chop_class(side, cid).items()) == sorted(want.items())


@pytest.mark.parametrize("pair", sorted(TWO_ROUTE_PAIRS))
def test_class_maps_match_the_decomposing_route(pair):
    """omega_class, tau_classes and conj_classes register their images
    without a decomposition.  On every class the corpus and induction
    register, they equal classes_of of syzygy, tau and conjugate_rep, and
    every nonzero image is a single summand."""
    small, big, p, m = TWO_ROUTE_PAIRS[pair]
    lab = PairLab(group(small), group(big), field_make(p, m))
    build_corpus(lab)
    for cid in range(len(lab.class_reps("small"))):
        lab.ind_classes(cid)
    for side in ("small", "big"):
        tables = lab.tables[side]
        for cid in range(len(lab.class_reps(side))):
            R = lab.class_rep(side, cid)
            images = [(lab.omega_class(side, cid), syzygy(R, tables)),
                      (lab.tau_classes(side, cid), tau(R, tables))]
            if side == "small":
                images += [(lab.conj_classes(cid, ri), conjugate_rep(R, t))
                           for ri, t in enumerate(lab.trans.reps)]
            for got, image in images:
                assert len(list(summand_stream(image, lab.seed))) == min(image.dim, 1)
                assert got == lab.classes_of(image, side)


# the pairs whose theorem-1 sweeps check the certificates that skip hom spaces
CERTIFICATE_PAIRS = ["a4s4-gf4", "c3s3-gf4", "a4s4-gf3", "v4a4-gf3"]


def _classes_with_taus(pair):
    """A PairLab with the corpus, the induced classes and the simples of both
    sides registered and one round of tau_classes over every class, but no
    rigidity question asked yet; with the class ids of that round per side.
    Every class of the round, and every Omega image, then has a cover."""
    small, big, p, m = TWO_ROUTE_PAIRS[pair]
    lab = PairLab(group(small), group(big), field_make(p, m))
    build_corpus(lab)
    for cid in range(len(lab.class_reps("small"))):
        lab.ind_classes(cid)
    ids = {}
    for side in ("small", "big"):
        for S in lab.tables[side].simples.simples:
            lab.register(S, side)
        ids[side] = range(len(lab.class_reps(side)))
        for cid in ids[side]:
            lab.tau_classes(side, cid)
    return lab, ids


@pytest.mark.parametrize("pair", CERTIFICATE_PAIRS)
def test_rigidity_decisions_match_hom_space(pair, monkeypatch):
    """stt_counts decides Hom(X, tau Y) != 0 once per class pair: yes when
    top(X) meets top(Omega Y) = soc(tau Y), no when top(X) meets no
    composition factor of tau Y or soc(tau Y) none of X, else by a hom
    space.  On every multiset of one or two classes, in both orders, its
    rigidity equals the hom spaces' answer, and it asks a hom space exactly
    for the pairs it reaches that neither certificate settles, each once."""
    import sttlab.theoremlab as tl

    lab, ids = _classes_with_taus(pair)
    asked = []
    monkeypatch.setattr(tl, "hom_space",
                        lambda X, Z: asked.append((X, Z)) or hom_space(X, Z))
    rules = Counter()
    for side in ("small", "big"):
        cid_of = {id(R): cid for cid, R in enumerate(lab.class_reps(side))}
        taus = {cj: next(iter(lab.tau_classes(side, cj)), None) for cj in ids[side]}
        nonzero, rule = {}, {}  # per pair (ci, cj) with tau Y != 0
        for ci in ids[side]:
            for cj, ct in taus.items():
                if ct is None:
                    continue
                X, Z = lab.class_rep(side, ci), lab.class_rep(side, ct)
                nonzero[ci, cj] = hom_space(X, Z).dim > 0
                (cw,) = lab.omega_class(side, cj)
                top, socle = lab.top(side, ci), lab.top(side, cw)
                if not top.isdisjoint(socle):
                    rule[ci, cj] = "top"
                elif socle.isdisjoint(lab.chop_class(side, ci)) or \
                        top.isdisjoint(lab.chop_class(side, ct)):
                    rule[ci, cj] = "factors"
                else:
                    rule[ci, cj] = "hom space"
        reached = set()
        asked.clear()
        for ci in ids[side]:
            for cj in ids[side]:
                counter = Counter([ci, cj])
                pairs = [(a, b) for a in counter for b in counter if (a, b) in rule]
                hits = [k for k, pk in enumerate(pairs) if nonzero[pk]]
                reached.update(pairs[:hits[0] + 1] if hits else pairs)
                assert lab.stt_counts(counter, side).rigid == (not hits), (side, ci, cj)
        tau_of = {ct: cj for cj, ct in taus.items() if ct is not None}
        got = [(cid_of[id(X)], tau_of[cid_of[id(Z)]]) for X, Z in asked]
        assert sorted(got) == sorted(k for k in reached if rule[k] == "hom space")
        rules.update(rule[k] for k in reached)
    # on C3 in S3 over GF(4) and V4 in A4 over GF(3) the certificates settle
    # every question; on A4 in S4 over GF(4) and GF(3) some need a hom space
    assert set(rules) == {"top", "factors"} | \
        ({"hom space"} if pair.startswith("a4s4") else set())


@pytest.mark.parametrize("pair", CERTIFICATE_PAIRS)
def test_tops_and_socles_match_hom_dimensions(pair):
    """top(X), read off the minimal cover, holds the simples S with
    Hom(X, S) != 0.  For every tau image, soc(tau Y), the S with
    Hom(S, tau Y) != 0, equals top(Omega Y)."""
    lab, ids = _classes_with_taus(pair)
    taus = 0
    for side in ("small", "big"):
        simples = lab.tables[side].simples
        pairs = list(zip(simples.labels, simples.simples))
        for cid in ids[side]:
            R = lab.class_rep(side, cid)
            assert lab.top(side, cid) == {lb for lb, S in pairs if hom_space(R, S).dim}
            for ct in lab.tau_classes(side, cid):
                (cw,) = lab.omega_class(side, cid)
                Z = lab.class_rep(side, ct)
                assert lab.top(side, cw) == {lb for lb, S in pairs if hom_space(S, Z).dim}
                taus += 1
    assert taus


def test_a4s4_sweep_registers_pinned_classes():
    """The theorem-1 sweep of A4 in S4 over GF(4) at seed 0 registers 24
    small and 15 big classes, and their representatives hash to pinned
    digests: a change to which classes register, in what order, or to a
    representative's matrices shows here."""
    lab = PairLab(group(A4), group(S4), field_make(2, 2), seed=0)
    for entry in build_corpus(lab):
        check_theorem1_classes(entry.classes, lab)
    digests = {}
    for side in ("small", "big"):
        h = hashlib.sha256()
        for R in lab.class_reps(side):
            h.update(R.dim.to_bytes(4, "little"))
            for X in R.gen_mats:
                h.update(X.a.tobytes())
        digests[side] = (len(lab.class_reps(side)), h.hexdigest())
    assert digests == {
        "small": (24, "9d0d5401e0847ef7000aff1a7c3ea42bdb5170b7cb55d5049e39fd30f7936730"),
        "big": (15, "bddd80459bbf037571d01a6c9b8bb1e2e80d026b4b598621fee7ce1d02882ccc"),
    }


@pytest.mark.parametrize("pair, green", [
    ("a4s4-gf4", True), ("c3s3-gf4", True), ("v4a4-gf3", True), ("a4s4-gf3", False),
])
def test_green_path_matches_classes_of(pair, green, monkeypatch):
    """With [big : small] a power of p, ind_classes registers Ind M as one
    class and never decomposes it; on A4 in S4 over GF(3) the index 2 is
    not a power of 3, and every induced module is decomposed.  Either way
    the classes equal classes_of of the induced module."""
    small, big, p, m = TWO_ROUTE_PAIRS[pair]
    lab = PairLab(group(small), group(big), field_make(p, m))
    build_corpus(lab)
    streamed = []
    real = lab.classes_of
    monkeypatch.setattr(lab, "classes_of",
                        lambda M, side: streamed.append(M) or real(M, side))
    count = len(lab.class_reps("small"))
    got = [lab.ind_classes(cid) for cid in range(count)]
    assert len(streamed) == (0 if green else count)
    for cid, classes in enumerate(got):
        ind = induce(lab.class_rep("small", cid), lab.big, lab.trans)
        assert real(ind, "big") == classes


def test_green_path_needs_an_absolutely_indecomposable_module():
    """The 2-dimensional simple kC3-module over GF(2) has End = GF(4), so it
    is indecomposable but not absolutely: its induced module to S3 is twice
    the 2-dimensional simple kS3-module, although [S3 : C3] = 2 = p."""
    f2 = field_make(2, 1)
    lab = PairLab(group(C3), group(S3), f2)
    twist = rep_make(lab.small, f2, [Matrix.from_rows(f2, [[0, 1], [1, 1]])])
    assert lab.ind_classes(lab.register(twist, "small")) == Counter({0: 2})
    assert lab.class_rep("big", 0).dim == 2


def test_mackey_universal(a4s4, corpus_a4):
    for entry in corpus_a4:
        lhs = Counter()
        for cid, mult in entry.classes.items():
            for cj, mj in a4s4.res_ind_classes(cid).items():
                lhs[cj] += mult * mj
        assert lhs == a4s4.orbit_classes(entry.classes)


def test_theorem1_classwise_matches_materialized(a4s4, corpus_a4):
    """The cached classwise verdicts agree with the direct taucalc path on a
    deterministic sample of materialized corpus modules."""
    sample = corpus_a4[:: max(1, len(corpus_a4) // 12)]
    for entry in sample:
        M = a4s4.materialize(entry.classes, "small")
        direct = check_theorem1_classes(a4s4.classes_of(M, "small"), a4s4)
        fast = check_theorem1_classes(entry.classes, a4s4)
        assert direct.lhs == fast.lhs and direct.rhs == fast.rhs


def test_stt_counts_match_taucalc(a4s4, a4_tables, corpus_a4):
    sample = [e for e in corpus_a4 if len(e.classes) <= 2][:10]
    for entry in sample:
        M = a4s4.materialize(entry.classes, "small")
        cert = is_stt(M, a4_tables)
        counts = a4s4.stt_counts(entry.classes, "small")
        assert cert.stt == counts.stt
        assert cert.rigid == counts.rigid
        assert cert.summand_classes == counts.m
        assert cert.z == counts.z


def test_theorem2_degenerates_to_theorem1_single_block(a4s4, corpus_a4):
    B = a4s4.side_blocks("small")[0]
    Bt = a4s4.side_blocks("big")[0]
    for entry in corpus_a4[:: max(1, len(corpus_a4) // 50)]:
        v1 = check_theorem1_classes(entry.classes, a4s4)
        v2 = check_theorem2_classes(entry.classes, B, Bt, a4s4)
        assert v2.agree
        assert v1.lhs == v2.lhs and v1.rhs == v2.rhs


def test_theorem2_c3s3_all_blocks(c3s3, corpus_c3):
    small_blocks = c3s3.side_blocks("small")
    big_blocks = c3s3.side_blocks("big")
    checked = 0
    for B in small_blocks:
        covers = covering_blocks(B, c3s3.big, big_blocks=big_blocks)
        for Bt in covers:
            for entry in corpus_c3:
                if all(c3s3.class_block("small", cid) == B.index
                       for cid in entry.classes):
                    v = check_theorem2_classes(entry.classes, B, Bt, c3s3)
                    assert v.agree
                    checked += 1
    assert checked > 0


def test_theorem2_c3_acceptance_case(c3, s3, f4, c3s3):
    table = c3s3.tables["small"].simples
    B = next(b for b in c3s3.side_blocks("small")
             if table.trivial_label() not in b.simple_labels)
    big_table = c3s3.tables["big"].simples
    Bt = next(b for b in c3s3.side_blocks("big")
              if big_table.trivial_label() not in b.simple_labels)
    Bsimple = table.simples[table.labels.index(B.simple_labels[0])]
    v = check_theorem2_classes(c3s3.classes_of(Bsimple, "small"), B, Bt, c3s3)
    assert v.lhs and v.rhs and v.agree


def test_theorem2_rejects_foreign_module(c3s3, c3, f4):
    table = c3s3.tables["small"].simples
    B = next(b for b in c3s3.side_blocks("small")
             if table.trivial_label() not in b.simple_labels)
    Bt = c3s3.side_blocks("big")[0]
    k = trivial_rep(c3, f4)
    with pytest.raises(ValueError):
        check_theorem2_classes(c3s3.classes_of(k, "small"), B, Bt, c3s3)


def test_theorem2_rejects_a_big_block_that_does_not_cover(c3s3):
    table = c3s3.tables["small"].simples
    B = next(b for b in c3s3.side_blocks("small")
             if table.trivial_label() not in b.simple_labels)
    big_table = c3s3.tables["big"].simples
    Bt = next(b for b in c3s3.side_blocks("big")
              if big_table.trivial_label() in b.simple_labels)
    for _ in range(2):  # the second check reads the memoized covering blocks
        with pytest.raises(ValueError, match="does not cover"):
            check_theorem2_classes(Counter(), B, Bt, c3s3)


def test_remark_flags(cast, a4s4):
    fl = remark_classify(a4s4.classes_of(cast.ST, "small"), a4s4)
    assert fl.in_rig_group and not fl.in_sta_group
    assert fl.in_rig_block and not fl.in_sta_block
    fl2 = remark_classify(a4s4.classes_of(cast.N1, "small"), a4s4)
    assert fl2.in_rig_group and fl2.in_sta_group
    z = remark_classify(a4s4.classes_of(zero_rep(cast.k.group, cast.k.field), "small"), a4s4)
    assert z.in_rig_group and z.in_sta_group


def test_orbit_addeq_example(cast, s4, a4s4):
    orb1 = orbit_module(cast.N1, s4, a4s4.trans)
    cmp1 = add_compare(orb1, cast.M)
    assert cmp1.add_equal
    orb2 = orbit_module(cast.N2, s4, a4s4.trans)
    assert add_compare(orb2, cast.M).add_equal


def test_ind_addeq_ind_orbit_for_rigid_stt_orbit(a4s4, corpus_a4):
    """Ind M and Ind(orbit M) generate the same additive closure whenever M
    is rigid with an stt orbit (the proof's add-equivalence step)."""
    hits = 0
    for entry in corpus_a4[:: max(1, len(corpus_a4) // 40)]:
        rigid = a4s4.stt_counts(entry.classes, "small").rigid
        orbit = a4s4.orbit_classes(entry.classes)
        if not (rigid and a4s4.stt_counts(orbit, "small").stt):
            continue
        hits += 1
        ind_m = Counter()
        for cid, mult in entry.classes.items():
            for cj, mj in a4s4.ind_classes(cid).items():
                ind_m[cj] += mult * mj
        ind_orbit = Counter()
        for cid, mult in orbit.items():
            for cj, mj in a4s4.ind_classes(cid).items():
                ind_orbit[cj] += mult * mj
        assert set(ind_m) == set(ind_orbit)
    assert hits > 0


def test_pair_lab_requires_normal(a4, f4):
    from sttlab.permgroup import group_close, parse_cycles

    s4 = group_close(4, [parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)", 4)])
    c2 = group_close(4, [parse_cycles("(0 1)", 4)])
    with pytest.raises(ValueError):
        PairLab(c2, s4, f4)


def test_remark_classify_with_several_covering_blocks():
    """C2 = <(0 1)> is normal in C6 = <(0 1), (2 3 4)>; over GF(4) kC2 has
    one block and all three blocks of kC6 cover it.  The trivial module is
    its own tau (Omega k = k over kC2), so it is not tau-rigid and every
    flag is False."""
    f4 = field_make(2, 2)
    c2 = group_close(5, [parse_cycles("(0 1)", 5)])
    c6 = group_close(5, [parse_cycles("(0 1)", 5), parse_cycles("(2 3 4)", 5)])
    lab = PairLab(c2, c6, f4)
    (B,) = lab.side_blocks("small")
    assert len(covering_blocks(B, c6, lab.side_blocks("big"))) == 3
    flags = remark_classify(lab.classes_of(trivial_rep(c2, f4), "small"), lab)
    assert flags.as_dict() == {"rig_group": False, "sta_group": False,
                               "rig_block": False, "sta_block": False}


# each memoized PairLab lookup, a key for it on C3 in S3 over GF(4), and the
# call it computes through
MEMO_LOOKUPS = [
    ("omega_class", ("big", 1), "cover"),
    ("tau_classes", ("small", 1), "cover"),
    ("chop_class", ("big", 1), "multiplicities"),
    ("ind_classes", (1,), "induce"),
    ("res_ind_classes", (2,), "induce"),
    ("conj_classes", (1, 1), "conjugate_rep"),
    ("class_block", ("small", 2), "multiplicities"),
]


def test_pair_lab_lookups_are_memoized(c3, s3, f4, c3s3, monkeypatch):
    """A second lookup with the same key returns the same object and calls
    nothing underneath; so does the inertial group behind
    inertial_rep_indices.  The blocks are the lab's shared Tables.blocks,
    which the session's C3 in S3 lab may have computed already."""
    import sttlab.theoremlab as tl

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("induce", "conjugate_rep", "hom_space", "inertial_group"):
        monkeypatch.setattr(tl, name, counted(name, getattr(tl, name)))
    lab = PairLab(c3, s3, f4)
    for side in ("small", "big"):
        tables = lab.tables[side]
        for name in ("multiplicities", "cover"):
            monkeypatch.setattr(tables, name, counted(name, getattr(tables, name)))
        lab.classes_of(direct_sum(tables.simples.simples), side)
        assert lab.side_blocks(side) is tables.blocks is c3s3.side_blocks(side)
    for method, key, computes_through in MEMO_LOOKUPS:
        first = getattr(lab, method)(*key)
        assert calls[computes_through] > 0
        before = calls.copy()
        assert getattr(lab, method)(*key) is first
        assert calls == before, method
    B = lab.side_blocks("small")[0]
    first = lab.inertial_rep_indices(B)
    before = calls.copy()
    assert lab.inertial_rep_indices(B) == first
    assert calls == before and calls["inertial_group"] == 1


def test_classes_of_matches_decompose(cast, a4, s4, f4):
    """classes_of equals registering decompose's summands, keys in the same
    order, on the named modules and on materialized corpus entries."""
    lab = PairLab(a4, s4, f4)
    corpus = build_corpus(lab)
    modules = [cast.k, cast.S, cast.kS, cast.ST, cast.M, cast.N1,
               regular_rep(a4, f4), zero_rep(a4, f4)]
    modules += [lab.materialize(e.classes, "small") for e in corpus[::50]]
    for M in modules:
        want = Counter()
        for rep, mult in decompose(M, seed=lab.seed).summands:
            want[lab.register(rep, "small")] += mult
        assert list(lab.classes_of(M, "small").items()) == list(want.items())


# ---------------------------------------------------------------------------
# tables shared across the pairs that use a group

def _spy_tables(monkeypatch) -> Counter:
    """Count simples_of, pims and blockdec.blocks calls by group order."""
    calls = Counter()
    for mod, name in ((taucalc, "simples_of"), (taucalc, "pims"), (blockdec, "blocks")):
        def spy(G, *args, _real=getattr(mod, name), _name=name, **kwargs):
            calls[_name, G.order] += 1
            return _real(G, *args, **kwargs)
        monkeypatch.setattr(mod, name, spy)
    return calls


def test_pairs_on_equal_groups_share_one_tables(monkeypatch):
    """Two labs on separately closed copies of C3 in S3 hold one Tables per
    side and keep their own group objects; each side's simples, PIMs and
    blocks are computed once, for both labs.  Seed 11 is used nowhere else,
    so no other live lab holds these tables."""
    calls = _spy_tables(monkeypatch)
    f3 = field_make(3, 1)
    labs = [PairLab(group(C3), group(S3), f3, seed=11) for _ in range(2)]
    assert labs[0].small is not labs[1].small and labs[0].big is not labs[1].big
    for side in ("small", "big"):
        assert labs[0].tables[side] is labs[1].tables[side]
    for lab in labs:
        for side in ("small", "big"):
            lab.tables[side].pimtable
            lab.side_blocks(side)
        build_corpus(lab)
    # at p = 3, the PIMs of C3 come from H = 1 and those of S3 from H = C2
    assert calls == {("simples_of", order): 1 for order in (3, 6, 1, 2)} | {
        (name, order): 1 for name in ("pims", "blocks") for order in (3, 6)}


def test_tables_are_shared_per_group_field_and_seed():
    """Another seed, another field or another generator list gets its own
    Tables; a group closed again from the same generators does not."""
    f3, f4 = field_make(3, 1), field_make(2, 2)
    G = group(S3)
    tables = Tables.shared(G, f3, seed=11)
    assert Tables.shared(group(S3), f3, seed=11) is tables
    others = [Tables.shared(G, f3, seed=12), Tables.shared(G, f4, seed=11),
              Tables.shared(group((3, ["(0 1 2)", "(0 1)"])), f3, seed=11)]
    assert all(t is not tables for t in others)
    assert len({id(t) for t in others}) == 3


def test_shared_tables_go_with_the_last_lab():
    """The registry holds its tables weakly: they outlive the first of two
    labs that hold them, not the last, and a later lab starts afresh."""
    f3 = field_make(3, 1)
    first, second = (PairLab(group(C3), group(S3), f3, seed=13) for _ in range(2))
    first.tables["big"].simples
    ref = weakref.ref(first.tables["big"])
    del first
    gc.collect()
    assert ref() is second.tables["big"]
    del second
    gc.collect()
    assert ref() is None
    assert "simples" not in vars(PairLab(group(C3), group(S3), f3, seed=13).tables["big"])


# the blocks-p3 pairs, all over GF(3)
P3_PAIRS = [(V4, A4), (C3, S3), (A4, S4), (V4, S4)]


def _sweep_into(h, lab: PairLab) -> None:
    """Feed h the corpus names, theorem-1 and theorem-2 verdicts with their
    certificates, class representatives and block idempotents of one lab."""
    corpus = build_corpus(lab)
    for e in corpus:
        v = check_theorem1_classes(e.classes, lab)
        h.update(repr((e.name, v.lhs, v.rhs, v.certificates)).encode())
    big = lab.side_blocks("big")
    for B in lab.side_blocks("small"):
        for Bt in covering_blocks(B, lab.big, big):
            for e in corpus:
                if all(lab.class_block("small", c) == B.index for c in e.classes):
                    v = check_theorem2_classes(e.classes, B, Bt, lab)
                    h.update(repr((B.index, Bt.index, e.name, v.lhs, v.rhs,
                                   v.certificates)).encode())
    for side in ("small", "big"):
        for R in lab.class_reps(side):
            h.update(R.dim.to_bytes(4, "little"))
            for X in R.gen_mats:
                h.update(X.a.tobytes())
        for B in lab.side_blocks(side):
            h.update(B.coeffs.tobytes())


@pytest.mark.parametrize("seed, digest", [
    (0, "1b2bdc059b3a134d378f188fc4d60e03d7e90f5d75e2116247b38e1b88a94538"),
    (3, "f2447c9ffd3796ee1b4323b223a7ef8eecd768972bd90d9d30885b1fbbf6c2a2"),
], ids=["seed0", "seed3"])
def test_blocks_p3_sweep_is_the_same_with_shared_tables(seed, digest):
    """The four GF(3) pairs give one pinned digest whether their labs are
    alive together, sharing the tables of A4, S4 and V4, or built one at a
    time, each on tables of its own."""
    f3 = field_make(3, 1)
    together = hashlib.sha256()
    labs = [PairLab(group(small), group(big), f3, seed=seed) for small, big in P3_PAIRS]
    assert labs[2].tables["big"] is labs[3].tables["big"]
    for lab in labs:
        _sweep_into(together, lab)
    del labs, lab
    alone = hashlib.sha256()
    for small, big in P3_PAIRS:
        gc.collect()
        lab = PairLab(group(small), group(big), f3, seed=seed)
        assert "simples" not in vars(lab.tables["small"])
        _sweep_into(alone, lab)
        del lab
    assert together.hexdigest() == alone.hexdigest() == digest


C3A4 = (7, ["(0 1 2)", "(0 1)(2 3)", "(4 5 6)"])
S3A4 = (7, ["(0 1 2)", "(0 1)(2 3)", "(4 5 6)", "(4 5)"])


def test_theorem2_where_the_big_group_moves_a_non_semisimple_block():
    """C3 x A4 in S3 x A4 over GF(4): kG has three blocks of three simples,
    none semisimple (defect group V4), and S3 x A4 swaps two of them.
    Theorem 2 holds on every corpus entry in a block, for each block
    covering it; on a sample, the classwise cut of Ind M by the covering
    block equals blockdec.block_cut_induce on the materialized module."""
    lab = PairLab(group(C3A4), group(S3A4), field_make(2, 2))
    corpus = build_corpus(lab)
    assert len(corpus) == 26290
    small, big = lab.side_blocks("small"), lab.side_blocks("big")
    assert [len(B.simple_labels) for B in small] == [3, 3, 3] and len(big) == 2
    assert [lab.inertial(B).order // lab.small.order for B in small] == [1, 2, 1]
    verdicts = []
    for B in small:
        members = [e for e in corpus
                   if all(lab.class_block("small", c) == B.index for c in e.classes)]
        for Bt in covering_blocks(B, lab.big, big):
            verdicts += [(e, Bt, check_theorem2_classes(e.classes, B, Bt, lab))
                         for e in members]
    assert len(verdicts) == 2964
    assert all(v.agree for _, _, v in verdicts)
    assert sum(v.lhs for _, _, v in verdicts) == 60
    # the oracle registers big classes of its own, so it runs after the verdicts
    sample = verdicts[::150]
    assert len(sample) == 20
    for e, Bt, _ in sample:
        ind = sum((Counter({cj: mult * mj for cj, mj in lab.ind_classes(cid).items()})
                   for cid, mult in e.classes.items()), Counter())
        cut = Counter({cj: mj for cj, mj in ind.items()
                       if lab.class_block("big", cj) == Bt.index})
        M = lab.materialize(e.classes, "small")
        assert lab.classes_of(block_cut_induce(M, Bt, lab.trans), "big") == cut, e.name


def _block_by_idempotents(R, blocks) -> int:
    """The one block whose idempotent acts on R as the identity; all the
    others must act as 0."""
    actions = rep_apply_algebra(R, [b.coeffs for b in blocks])
    ones = [b.index for b, m in zip(blocks, actions) if m == Matrix.identity(R.field, R.dim)]
    assert len(ones) == 1
    assert all(m.is_zero() for b, m in zip(blocks, actions) if b.index != ones[0])
    return ones[0]


@pytest.mark.parametrize("small, big, p, m", [
    *[(small, big, 3, 1) for small, big in P3_PAIRS], (C3A4, S3A4, 2, 2),
], ids=["v4a4", "c3s3", "a4s4", "v4s4", "c3a4"])
def test_class_block_matches_the_idempotent_acting_as_identity(small, big, p, m):
    """class_block, read off composition factors, names the block whose
    idempotent acts as 1, on every class the corpus and the inductions of
    its classes register on either side."""
    lab = PairLab(group(small), group(big), field_make(p, m))
    build_corpus(lab)
    for cid in range(len(lab.class_reps("small"))):
        lab.ind_classes(cid)
    for side in ("small", "big"):
        reps, blocks = lab.class_reps(side), lab.side_blocks(side)
        assert reps
        for cid, R in enumerate(reps):
            assert lab.class_block(side, cid) == _block_by_idempotents(R, blocks)


def test_a_module_spread_over_blocks_is_rejected(c3, f4, c3s3):
    """The regular module of C3 over GF(4) has a summand in each of the
    three blocks of kC3."""
    reg = regular_rep(c3, f4)
    B = c3s3.side_blocks("small")[0]
    Bt = covering_blocks(B, c3s3.big, c3s3.side_blocks("big"))[0]
    with pytest.raises(ValueError, match="does not lie in"):
        remark_classify(c3s3.classes_of(reg, "small"), c3s3)
    with pytest.raises(ValueError, match="does not lie in the given block"):
        check_theorem2_classes(c3s3.classes_of(reg, "small"), B, Bt, c3s3)
    with pytest.raises(ValueError, match="does not lie in"):
        is_stt(reg, c3s3.tables["small"], block=B)


def test_the_zero_module_is_classified_in_block_0(c3, f4, c3s3, monkeypatch):
    import sttlab.theoremlab as tl

    scopes = []
    rhs = tl._rhs_counts
    monkeypatch.setattr(tl, "_rhs_counts",
                        lambda classes, lab, B=None: scopes.append(B) or rhs(classes, lab, B))
    remark_classify(c3s3.classes_of(zero_rep(c3, f4), "small"), c3s3)
    assert scopes == [None, c3s3.side_blocks("small")[0]]


def test_theorem2_sweep_builds_element_tables_only_for_simples_in_blocks(monkeypatch):
    """A theorem-2 sweep of A4 in S4 over GF(3) builds an element table only
    inside blocks(), where each idempotent acts on a simple module; class
    blocks come from composition factors."""
    from sttlab import grouprep

    gc.collect()
    lab = PairLab(group(A4), group(S4), field_make(3, 1))
    assert not any("blocks" in vars(t) for t in lab.tables.values())
    inside, built = [False], []
    blocks, build = blockdec.blocks, grouprep._element_table

    def spied_blocks(*args, **kwargs):
        inside[0] = True
        try:
            return blocks(*args, **kwargs)
        finally:
            inside[0] = False

    def spied_table(M):
        built.append((inside[0], M))
        return build(M)

    monkeypatch.setattr(blockdec, "blocks", spied_blocks)
    monkeypatch.setattr(grouprep, "_element_table", spied_table)
    corpus = build_corpus(lab)
    verdicts = []
    for B in lab.side_blocks("small"):
        for Bt in covering_blocks(B, lab.big, lab.side_blocks("big")):
            verdicts += [check_theorem2_classes(e.classes, B, Bt, lab) for e in corpus
                         if all(lab.class_block("small", c) == B.index for c in e.classes)]
    assert verdicts and all(v.agree for v in verdicts)
    simples = [S for t in lab.tables.values() for S in t.simples.simples]
    assert len(built) == len(simples)
    assert all(flag and any(M is S for S in simples) for flag, M in built)
