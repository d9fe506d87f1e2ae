from collections import Counter

import pytest

from sttlab.blockdec import covering_blocks
from sttlab.exactfield import field_make
from sttlab.grouprep import (
    direct_sum,
    induce,
    is_isomorphic,
    regular_rep,
    restrict,
    trivial_rep,
    zero_rep,
)
from sttlab.meataxe import add_compare
from sttlab.permgroup import group_close, parse_cycles
from sttlab.taucalc import is_stt
from sttlab.theoremlab import (
    PairLab,
    build_corpus,
    check_theorem1,
    check_theorem1_classes,
    check_theorem2,
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
    assert is_invariant(cast.M, a4s4)
    assert not is_invariant(cast.N1, a4s4)
    assert not is_invariant(cast.N2, a4s4)
    assert is_invariant(trivial_rep(a4, f4), a4s4)
    assert is_invariant(zero_rep(a4, f4), a4s4)


def test_mackey_named_modules(cast, a4s4, a4, f4):
    for M in (cast.k, cast.S, cast.kS, cast.M, regular_rep(a4, f4)):
        assert mackey_check(M, a4s4)


def test_mackey_res_ind_matches_materialized(cast, a4, s4, f4, a4s4):
    """Classwise Mackey agrees with the direct isomorphism check."""
    for M in (cast.k, cast.S, cast.kS):
        ind = induce(M, s4, a4s4.trans)
        res = restrict(ind, a4)
        orb = orbit_module(M, s4, a4s4.trans)
        assert is_isomorphic(res, orb)
        assert mackey_check(M, a4s4)


def test_mackey_res_ind_of_simple_is_both_simples(cast, a4, s4, a4s4):
    ind = induce(cast.S, s4, a4s4.trans)
    res = restrict(ind, a4)
    assert is_isomorphic(res, direct_sum([cast.S, cast.T]))


def test_check_theorem1_named(cast, a4s4, a4, f4):
    for M, lhs in ((cast.N1, True), (cast.N2, True), (cast.ST, True),
                   (cast.M, True), (regular_rep(a4, f4), True)):
        v = check_theorem1(M, a4s4)
        assert v.agree
        assert v.lhs == lhs
    v0 = check_theorem1(zero_rep(a4, f4), a4s4)
    assert v0.agree and v0.lhs


def test_check_theorem1_negative_instance(cast, a4s4, a4_tables):
    """A module failing rigidity fails on both sides coherently."""
    from sttlab.taucalc import syzygy

    bad = direct_sum([cast.k, syzygy(cast.k, a4_tables)])
    v = check_theorem1(bad, a4s4)
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
    dims1 = [r.dim for r in lab1._classes["small"]]
    dims2 = [r.dim for r in lab2._classes["small"]]
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
C3 = (3, ["(0 1 2)"])
S3 = (3, ["(0 1)", "(0 1 2)"])


@pytest.mark.parametrize("small, big, p, m, size", [
    (V4, A4, 2, 2, 64),
    (V4, A4, 3, 1, 15),
    (C3, S3, 3, 1, 8),
], ids=["v4a4-gf4", "v4a4-gf3", "c3s3-gf3"])
def test_theorem1_universal_other_pairs(small, big, p, m, size):
    """Theorem 1 beyond A4 in S4 and C3 in S3 at p = 2; over GF(4) the
    projectives of V4 are local of dimension 4, divisible by p."""

    def group(spec):
        degree, cycles = spec
        return group_close(degree, [parse_cycles(c, degree) for c in cycles])

    lab = PairLab(group(small), group(big), field_make(p, m))
    corpus = build_corpus(lab)
    assert len(corpus) == size
    assert [e.name for e in corpus
            if not check_theorem1_classes(e.classes, lab).agree] == []


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
        direct = check_theorem1(M, a4s4)
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
    v = check_theorem2(Bsimple, B, Bt, c3s3)
    assert v.lhs and v.rhs and v.agree


def test_theorem2_rejects_foreign_module(c3s3, c3, f4):
    table = c3s3.tables["small"].simples
    B = next(b for b in c3s3.side_blocks("small")
             if table.trivial_label() not in b.simple_labels)
    Bt = c3s3.side_blocks("big")[0]
    k = trivial_rep(c3, f4)
    with pytest.raises(ValueError):
        check_theorem2(k, B, Bt, c3s3)


def test_remark_flags(cast, a4s4):
    fl = remark_classify(cast.ST, a4s4)
    assert fl.in_rig_group and not fl.in_sta_group
    assert fl.in_rig_block and not fl.in_sta_block
    fl2 = remark_classify(cast.N1, a4s4)
    assert fl2.in_rig_group and fl2.in_sta_group
    z = remark_classify(zero_rep(cast.k.group, cast.k.field), a4s4)
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
    flags = remark_classify(trivial_rep(c2, f4), lab)
    assert flags.as_dict() == {"rig_group": False, "sta_group": False,
                               "rig_block": False, "sta_block": False}
