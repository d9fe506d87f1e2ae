from collections import Counter

import pytest

from sttlab.blockdec import covering_blocks
from sttlab.exactfield import Matrix, field_make
from sttlab.grouprep import (
    conjugate_rep,
    direct_sum,
    hom_space,
    induce,
    regular_rep,
    rep_make,
    restrict,
    trivial_rep,
    zero_rep,
)
from sttlab.meataxe import add_compare, chop, decompose, is_isomorphic, summand_stream
from sttlab.permgroup import group_close, parse_cycles
from sttlab.taucalc import is_stt, syzygy, tau
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
    for cid in range(len(lab._classes["small"])):
        lab.ind_classes(cid)
    for side in ("small", "big"):
        tables = lab.tables[side]
        assert lab._classes[side]
        for cid, R in enumerate(lab._classes[side]):
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
    for cid in range(len(lab._classes["small"])):
        lab.ind_classes(cid)
    for side in ("small", "big"):
        tables = lab.tables[side]
        for cid in range(len(lab._classes[side])):
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


def _swept(pair):
    """A PairLab after a theorem-1 sweep, with the simples of both sides
    registered and one round of tau_classes over every class: each class
    then has a top, and each tau image a socle."""
    small, big, p, m = TWO_ROUTE_PAIRS[pair]
    lab = PairLab(group(small), group(big), field_make(p, m))
    for entry in build_corpus(lab):
        check_theorem1_classes(entry.classes, lab)
    for side in ("small", "big"):
        for S in lab.tables[side].simples.simples:
            lab.register(S, side)
        for cid in range(len(lab._classes[side])):
            lab.tau_classes(side, cid)
    return lab


@pytest.mark.parametrize("pair", CERTIFICATE_PAIRS)
def test_rigidity_decisions_match_hom_space(pair):
    """Every Hom(X, tau Y) != 0 decision, of the sweep and of every class X
    against every tau image, whether read from tops, socles and composition
    factors or from homdim, equals the hom space's own answer."""
    lab = _swept(pair)
    for side in ("small", "big"):
        for ci in lab._tops[side]:
            for ct in lab._socles[side]:
                lab._hom_nonzero(side, ci, ct)
    decided = lab._memo["_hom_nonzero"]
    # tops and socles settle some nonzero questions, factors some zero ones
    assert {nonzero for key, nonzero in decided.items()
            if key not in lab._memo["homdim"]} == {True, False}
    for (side, ci, ct), nonzero in decided.items():
        X, Z = lab.class_rep(side, ci), lab.class_rep(side, ct)
        assert nonzero == (hom_space(X, Z).dim > 0)


@pytest.mark.parametrize("pair", CERTIFICATE_PAIRS)
def test_tops_and_socles_match_hom_dimensions(pair):
    """top(X), read off the minimal cover, holds the simples S with
    Hom(X, S) != 0; soc(Omega W), read as top(W), holds the S with
    Hom(S, Omega W) != 0."""
    lab = _swept(pair)
    assert lab._socles["small"] or lab._socles["big"]
    for side in ("small", "big"):
        simples = lab.tables[side].simples
        pairs = list(zip(simples.labels, simples.simples))
        for cid, top in lab._tops[side].items():
            R = lab.class_rep(side, cid)
            assert top == {lb for lb, S in pairs if hom_space(R, S).dim}
        for cid, socle in lab._socles[side].items():
            R = lab.class_rep(side, cid)
            assert socle == {lb for lb, S in pairs if hom_space(S, R).dim}


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
    count = len(lab._classes["small"])
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


# each memoized PairLab lookup, a key for it on C3 in S3 over GF(4), and the
# call it computes through
MEMO_LOOKUPS = [
    ("omega_class", ("big", 1), "cover"),
    ("tau_classes", ("small", 1), "cover"),
    ("chop_class", ("big", 1), "multiplicities"),
    ("homdim", ("small", 0, 1), "hom_space"),
    ("ind_classes", (1,), "induce"),
    ("res_ind_classes", (2,), "induce"),
    ("conj_classes", (1, 1), "conjugate_rep"),
    ("side_blocks", ("big",), "blocks"),
    ("class_block", ("small", 2), "block_of_module"),
]


def test_pair_lab_lookups_are_memoized(c3, s3, f4, monkeypatch):
    """A second lookup with the same key returns the same object and calls
    nothing underneath; so does the inertial group behind
    inertial_rep_indices."""
    import sttlab.theoremlab as tl

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("induce", "conjugate_rep", "hom_space", "blocks",
                 "block_of_module", "inertial_group"):
        monkeypatch.setattr(tl, name, counted(name, getattr(tl, name)))
    lab = PairLab(c3, s3, f4)
    for side in ("small", "big"):
        tables = lab.tables[side]
        for name in ("multiplicities", "cover"):
            monkeypatch.setattr(tables, name, counted(name, getattr(tables, name)))
        lab.classes_of(direct_sum(tables.simples.simples), side)
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
