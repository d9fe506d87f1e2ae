import hashlib
import os
import subprocess
import sys

import pytest

import sttlab
from sttlab import grouprep, meataxe, taucalc
from sttlab.exactfield import field_make, rank
from sttlab.grouprep import (
    HomBasis,
    InconclusiveError,
    direct_sum,
    hom_space,
    iso_class,
    induce,
    iso_indecomposable,
    quotient_projection,
    regular_rep,
    trivial_rep,
    verify_witness,
    zero_rep,
)
from sttlab.meataxe import (
    SimpleTable,
    chop,
    composition_factors,
    decompose,
    is_isomorphic,
    radical_top,
    simples_of,
)
from sttlab.permgroup import group_close, p_prime_subgroup, parse_cycles, transversal
from sttlab.taucalc import (
    Tables,
    ext1,
    is_stt,
    pims,
    projective_cover,
    syzygy,
    tau,
    tau_routes,
)
from sttlab.theoremlab import PairLab, build_corpus


def test_pims_a4(a4_tables):
    pt = a4_tables.pimtable
    assert [P.dim for P in pt.pims] == [4, 4, 4]
    total = sum(S.dim * P.dim for S, P in zip(pt.simples.simples, pt.pims))
    assert total == 12


def test_pims_s4(s4_tables):
    pt = s4_tables.pimtable
    dims = sorted(P.dim for P in pt.pims)
    assert dims == [8, 8]
    total = sum(S.dim * P.dim for S, P in zip(pt.simples.simples, pt.pims))
    assert total == 24


def test_pims_semisimple_case(f4):
    triv = group_close(3, [])
    pt = pims(triv, f4)
    assert [P.dim for P in pt.pims] == [1]


def test_cover_maps_are_surjections(a4_tables):
    pt = a4_tables.pimtable
    from sttlab.exactfield import rank

    for P, S, cmap in zip(pt.pims, pt.simples.simples, pt.cover_maps):
        assert cmap.shape == (S.dim, P.dim)
        assert rank(cmap) == S.dim
        # the map intertwines the actions
        for Pg, Sg in zip(P.gen_mats, S.gen_mats):
            assert (cmap @ Pg) == (Sg @ cmap)


def test_projective_cover_of_pim_is_itself(a4_tables):
    pt = a4_tables.pimtable
    P = pt.pims[0]
    cover, surj = projective_cover(P, a4_tables)
    assert cover.dim == P.dim
    assert is_isomorphic(cover, P)


def test_projective_cover_of_trivial(a4_tables, cast):
    cover, surj = projective_cover(cast.k, a4_tables)
    assert cover.dim == 4
    assert surj.shape == (1, 4)


def test_projective_cover_of_stacked(a4_tables, cast):
    cover, _ = projective_cover(cast.ST, a4_tables)
    # top of [S over T] is S, so the cover is P_S of dimension 4
    assert cover.dim == 4
    idx = a4_tables.simples.labels.index(cast.S_label)
    assert is_isomorphic(cover, a4_tables.pimtable.pims[idx])


def test_projective_cover_rejects_zero(a4_tables, a4, f4):
    with pytest.raises(ValueError):
        projective_cover(zero_rep(a4, f4), a4_tables)


def test_syzygy_dims(a4_tables, cast):
    om = syzygy(cast.k, a4_tables)
    assert om.dim == 3  # dim P_k - dim k = 4 - 1
    assert syzygy(a4_tables.pimtable.pims[0], a4_tables).dim == 0
    cover, _ = projective_cover(cast.kS, a4_tables)
    assert syzygy(cast.kS, a4_tables).dim == cover.dim - cast.kS.dim


def test_cover_reads_tops_without_building_radical_or_top(a4_tables, a4, f4, cast,
                                                          monkeypatch):
    """The cover's top_dims are dim Hom(M, S) over the simples, and the
    cover never builds the radical or top module of M."""
    simples = a4_tables.simples.simples
    modules = [cast.k, cast.kS, cast.ST, cast.M, a4_tables.pimtable.pims[0],
               zero_rep(a4, f4)]
    for name in ("sub_rep", "quotient_rep"):
        monkeypatch.setattr(meataxe, name, lambda *args: pytest.fail("built"))
    covers = [a4_tables.cover(M) for M in modules]
    monkeypatch.undo()
    for M, cover in zip(modules, covers):
        assert cover.top_dims == [hom_space(M, S).dim for S in simples]
        assert cover.omega.dim == cover.cover.dim - M.dim
    rt = radical_top(cast.kS, a4_tables.simples)
    assert "top" not in vars(rt) and rt.top.dim == 1 and rt.top is rt.top


def test_tau_routes_share_one_presentation(a4_tables, cast, monkeypatch):
    """tau_routes gives Omega^2 M and D Tr M from the two covers of one
    minimal presentation; the first equals what tau gives."""
    covered = []
    real = taucalc._cover_data
    monkeypatch.setattr(taucalc, "_cover_data",
                        lambda M, tables: covered.append(M) or real(M, tables))
    for M in (cast.k, cast.kS, a4_tables.pimtable.pims[0]):
        covered.clear()
        omega2, dtr = tau_routes(M, a4_tables)
        assert len(covered) == (2 if omega2.dim else 1)
        want = tau(M, a4_tables)
        assert [X.a.tobytes() for X in omega2.gen_mats] == \
            [X.a.tobytes() for X in want.gen_mats] and omega2.dim == want.dim
        assert dtr.dim == want.dim


def test_tau_zero_cases(a4_tables, a4, f4):
    reg = regular_rep(a4, f4)
    assert tau(reg, a4_tables).dim == 0
    assert tau(zero_rep(a4, f4), a4_tables).dim == 0
    assert tau_routes(zero_rep(a4, f4), a4_tables)[1].dim == 0
    assert tau_routes(reg, a4_tables)[1].dim == 0


def test_tau_cross_method_named_modules(a4_tables, cast):
    for M in (cast.k, cast.S, cast.kS, cast.ST, cast.N1, cast.M):
        t1, t2 = tau_routes(M, a4_tables)
        assert t1.dim == t2.dim
        if t1.dim:
            assert is_isomorphic(t1, t2)


def test_tau_cross_method_s4(s4_tables, s4, f4):
    k = trivial_rep(s4, f4)
    t1, t2 = tau_routes(k, s4_tables)
    assert is_isomorphic(t1, t2)


# Odd characteristic, where -1 != 1: over GF(4) a sign or transpose slip
# in the dual-of-transpose route could not show.
ODD_PAIRS = {
    "C3<S3 over GF(3)": (3, ["(0 1 2)"], ["(0 1)", "(0 1 2)"], (3, 1)),
    "A4<S4 over GF(3)": (4, ["(0 1 2)", "(0 1)(2 3)"], ["(0 1)", "(0 1 2 3)"], (3, 1)),
    "A5<S5 over GF(9)": (5, ["(0 1 2 3 4)", "(0 1 2)"], ["(0 1)", "(0 1 2 3 4)"], (3, 2)),
}


@pytest.mark.parametrize("name", list(ODD_PAIRS))
def test_tau_cross_method_odd_characteristic(name):
    """Both routes of tau agree on every registered class of both sides
    (the big side's from inducing the small side's) and on a sample of
    materialized small-side corpus entries."""
    degree, small, big, (p, m) = ODD_PAIRS[name]
    lab = PairLab(*(group_close(degree, [parse_cycles(c, degree) for c in gens])
                    for gens in (small, big)), field_make(p, m))
    corpus = build_corpus(lab)
    for cid in range(len(lab.class_reps("small"))):
        lab.ind_classes(cid)
    modules = [(side, lab.class_rep(side, cid)) for side in ("small", "big")
               for cid in range(len(lab.class_reps(side)))]
    assert len(modules) > len(lab.class_reps("small"))
    modules += [("small", lab.materialize(entry.classes, "small"))
                for entry in corpus[::max(1, len(corpus) // 8)]]
    for side, M in modules:
        t1, t2 = tau_routes(M, lab.tables[side])
        assert t1.dim == t2.dim, (side, M.dim)
        if t1.dim:
            assert is_isomorphic(t1, t2), (side, M.dim)


def test_tau_additive(a4_tables, cast):
    t_sum = tau(direct_sum([cast.kS, cast.ST]), a4_tables)
    t_parts = direct_sum([tau(cast.kS, a4_tables), tau(cast.ST, a4_tables)])
    assert is_isomorphic(t_sum, t_parts)


def test_ext1_dimensions(a4_tables, cast):
    assert ext1(cast.k, cast.S, a4_tables).dimension == 1
    assert ext1(cast.k, cast.T, a4_tables).dimension == 1
    assert ext1(cast.S, cast.T, a4_tables).dimension == 1
    assert ext1(cast.k, cast.k, a4_tables).dimension == 0


def test_ext1_semisimple_vanishes(c3, f4):
    tables = Tables(c3, f4)
    for S in tables.simples.simples:
        for T in tables.simples.simples:
            assert ext1(S, T, tables).dimension == 0


def test_rigid_examples(a4_tables, cast, a4, f4):
    assert is_stt(regular_rep(a4, f4), a4_tables).rigid
    assert is_stt(cast.ST, a4_tables).rigid
    assert is_stt(zero_rep(a4, f4), a4_tables).rigid
    # M + M rigid iff M rigid
    assert is_stt(direct_sum([cast.kS, cast.kS]), a4_tables).rigid == \
        is_stt(cast.kS, a4_tables).rigid


def test_not_rigid_witness(a4_tables, cast):
    """Omega(k) has a nonzero hom to tau of itself paired against k."""
    bad = direct_sum([cast.k, syzygy(cast.k, a4_tables)])
    cert = is_stt(bad, a4_tables)
    # k + Omega(k): Hom(k, tau Omega k) or Hom(Omega k, tau k) is nonzero;
    # either way the pair is not rigid (frozen from a first computation)
    assert not cert.rigid


def test_stt_zero_and_regular(a4_tables, a4, f4):
    z = is_stt(zero_rep(a4, f4), a4_tables)
    assert z.stt and z.summand_classes == 0 and z.z == 3
    r = is_stt(regular_rep(a4, f4), a4_tables)
    assert r.stt and r.summand_classes == 3 and r.z == 0


def test_stt_example_family(a4_tables, cast):
    assert is_stt(cast.M, a4_tables).stt
    assert is_stt(cast.N1, a4_tables).stt
    assert is_stt(cast.N2, a4_tables).stt
    c = is_stt(cast.ST, a4_tables)
    assert c.rigid and not c.stt
    assert c.summand_classes == 1 and c.z == 1 and c.n == 3


def test_stt_add_invariant(a4_tables, cast):
    """Multiplicities do not change the verdict: stt is an add-invariant."""
    doubled = direct_sum([cast.M, cast.M])
    c1 = is_stt(cast.M, a4_tables)
    c2 = is_stt(doubled, a4_tables)
    assert c1.stt == c2.stt and c1.summand_classes == c2.summand_classes


def test_hom_pim_counts_composition_multiplicity(a4_tables, cast, a4, f4):
    pt = a4_tables.pimtable
    for M in (cast.k, cast.kS, cast.ST, cast.M, regular_rep(a4, f4)):
        counts = chop(M, a4_tables.simples)
        for label, P in zip(pt.simples.labels, pt.pims):
            assert hom_space(P, M).dim == counts.get(label, 0)


def test_cosupport_matches_hom_vanishing(a4_tables, cast):
    cert = is_stt(cast.N1, a4_tables)
    pt = a4_tables.pimtable
    for label, P in zip(pt.simples.labels, pt.pims):
        vanishes = hom_space(P, cast.N1).dim == 0
        assert (label in cert.cosupport) == vanishes


def test_air_bound_m_plus_z_at_most_n(a4_tables, cast):
    """For tau-rigid modules the class count plus cosupport never exceeds
    the number of simples."""
    for M in (cast.k, cast.kS, cast.ST, cast.N1, cast.M):
        cert = is_stt(M, a4_tables)
        if cert.rigid:
            assert cert.summand_classes + cert.z <= cert.n


def test_stt_block_scope_requires_membership(a4s4, a4_tables, cast):
    block = a4s4.side_blocks("small")[0]
    cert = is_stt(cast.M, a4_tables, block=block)
    assert cert.stt and cert.n == 3  # the principal block is everything here


def test_tau_of_simples_against_omega2(a4_tables, cast):
    """tau(S) = Omega^2(S) for the nontrivial simples as well."""
    for S in (cast.S, cast.T):
        t = tau(S, a4_tables)
        o2 = syzygy(syzygy(S, a4_tables), a4_tables)
        assert t.dim == o2.dim and is_isomorphic(t, o2)


# ---------------------------------------------------------------------------
# the PIM table stops once every simple has its PIM and still agrees with
# the full decomposition of the regular module

REFERENCE_GROUPS = {
    "A4": (4, ["(0 1 2)", "(0 1)(2 3)"]),
    "S4": (4, ["(0 1)", "(0 1 2 3)"]),
    "S4xC2": (6, ["(0 1)", "(0 1 2 3)", "(4 5)"]),
    "V4": (4, ["(0 1)(2 3)", "(0 2)(1 3)"]),
    "S3": (3, ["(0 1)", "(0 1 2)"]),
    "C3": (3, ["(0 1 2)"]),
}


def full_chop_simples(group, field, seed) -> SimpleTable:
    """simples_of before it stopped early."""
    found = []
    for F in composition_factors(regular_rep(group, field), seed=seed):
        if iso_class(F, found) is None:
            found.append(F)
    return SimpleTable(group, field, found, [f"S{i + 1}" for i in range(len(found))])


def full_decompose_pims(group, field, seed, simples):
    """pims before it stopped early and before it drew from modules induced
    from a p'-subgroup: the whole regular module is decomposed and each
    PIM's multiplicity must equal the dimension of its top."""
    dec = decompose(regular_rep(group, field), seed=seed)
    pim_by_label, cover_by_label = {}, {}
    for P, mult in dec.summands:
        rt = radical_top(P, simples)
        i, X = iso_class(rt.top, simples.simples)
        label = simples.labels[i]
        assert label not in pim_by_label and mult == simples.simples[i].dim
        pim_by_label[label] = P
        cover_by_label[label] = X @ quotient_projection(P, rt.radical_rows)
    assert set(pim_by_label) == set(simples.labels)
    return ([pim_by_label[lab] for lab in simples.labels],
            [cover_by_label[lab] for lab in simples.labels])


def same_rep(M, N):
    return M.dim == N.dim and len(M.gen_mats) == len(N.gen_mats) and all(
        a == b for a, b in zip(M.gen_mats, N.gen_mats))


def is_cover_map(X, P, S):
    """X: P -> S is a surjective intertwiner."""
    return X.shape == (S.dim, P.dim) and rank(X) == S.dim and all(
        X @ A == B @ X for A, B in zip(P.gen_mats, S.gen_mats))


@pytest.mark.parametrize("fq", [(2, 1), (3, 1), (2, 2)], ids=["GF2", "GF3", "GF4"])
@pytest.mark.parametrize("name", list(REFERENCE_GROUPS))
def test_pims_equal_full_decompose(name, fq):
    """The simples are the full chop's.  The PIMs are the full
    decomposition's where the p'-subgroup H is 1, since Ind_1^G(k) is the
    regular module itself; elsewhere they are drawn from other projectives,
    so each is isomorphic to the reference PIM of its label."""
    degree, cycles = REFERENCE_GROUPS[name]
    G = group_close(degree, [parse_cycles(c, degree) for c in cycles])
    f = field_make(*fq)
    regular = p_prime_subgroup(G, f.p).order == 1
    for seed in range(6):
        ref_simples = full_chop_simples(G, f, seed)
        try:
            ref_pims, ref_covers = full_decompose_pims(G, f, seed, ref_simples)
        except InconclusiveError as e:
            # a field that does not split G (C3 and A4 over GF(2))
            with pytest.raises(InconclusiveError) as err:
                pims(G, f, seed=seed)
            assert str(err.value) == str(e)
            continue
        pt = pims(G, f, seed=seed)
        assert pt.simples.labels == ref_simples.labels
        assert all(map(same_rep, pt.simples.simples, ref_simples.simples))
        assert len(pt.pims) == len(ref_pims)
        if regular:
            assert all(map(same_rep, pt.pims, ref_pims))
            assert all(a == b for a, b in zip(pt.cover_maps, ref_covers))
            continue
        for P, ref, X, S in zip(pt.pims, ref_pims, pt.cover_maps, pt.simples.simples):
            iso = iso_indecomposable(P, ref)
            assert iso
            verify_witness(P, ref, iso.witness)
            assert is_cover_map(X, P, S)


@pytest.mark.parametrize("name", list(REFERENCE_GROUPS))
def test_induce_from_the_trivial_group_is_the_regular_module(name):
    degree, cycles = REFERENCE_GROUPS[name]
    G = group_close(degree, [parse_cycles(c, degree) for c in cycles])
    f = field_make(2, 2)
    one = group_close(degree, [])
    induced = induce(trivial_rep(one, f), G, transversal(G, one))
    assert same_rep(induced, regular_rep(G, f))


@pytest.mark.parametrize("name, fq", [("A4", (2, 2)), ("S4", (2, 2)), ("A4", (3, 1)),
                                      ("S4", (3, 1)), ("S4xC2", (2, 1))],
                         ids=["A4-GF4", "S4-GF4", "A4-GF3", "S4-GF3", "S4xC2-GF2"])
def test_induced_projectives_start_from_the_trivial_module(name, fq):
    """P(k) is a summand of Ind_H^G(T) only for T = k, so pims induces k
    first, wherever simples_of(H) lists it."""
    degree, cycles = REFERENCE_GROUPS[name]
    G = group_close(degree, [parse_cycles(c, degree) for c in cycles])
    f = field_make(*fq)
    H = p_prime_subgroup(G, f.p)
    assert 1 < H.order < G.order
    first, _homs, _end = next(taucalc._induced_projectives(G, f, simples_of(G, f), 0))
    assert same_rep(first, induce(trivial_rep(H, f), G, transversal(G, H)))


def test_pims_stop_once_every_simple_has_a_pim(monkeypatch):
    """With H = V4 in A4 at p = 3, pims draws from the modules induced from
    V4 and never builds the regular module of A4."""
    degree, cycles = REFERENCE_GROUPS["A4"]
    G = group_close(degree, [parse_cycles(c, degree) for c in cycles])
    f3 = field_make(3, 1)
    assert p_prime_subgroup(G, 3).order == 4
    table = simples_of(G, f3)
    drawn = []

    def counted(M, homs, end, simples, seed, stream=taucalc._pim_leaves):
        drawn.append(M.dim)
        yield from stream(M, homs, end, simples, seed)

    def no_decompose(*args, **kwargs):
        raise AssertionError("pims must not decompose the whole regular module")

    def no_regular(group, field, real=regular_rep):
        if group.order == G.order:
            raise AssertionError("pims must not build the regular module of G")
        return real(group, field)

    monkeypatch.setattr(taucalc, "_pim_leaves", counted)
    monkeypatch.setattr(taucalc, "decompose", no_decompose, raising=False)
    for mod in (grouprep, meataxe):
        monkeypatch.setattr(mod, "regular_rep", no_regular)
    assert len(pims(G, f3, simples=table).pims) == 2
    assert drawn and all(d == 3 for d in drawn)


def simples_in_place_of_pims(M, homs, end, simples, seed):
    """A broken PIM stream: each simple S in place of P(S), with its homs
    onto the simples.  Every top still matches, so only the dimension count
    can tell."""
    return ((S, [hom_space(S, R) for R in simples.simples]) for S in simples.simples)


def test_pim_count_certificate_catches_simples_for_pims(s3, monkeypatch):
    f2 = field_make(2, 1)
    table = simples_of(s3, f2)
    monkeypatch.setattr(taucalc, "_pim_leaves", simples_in_place_of_pims)
    with pytest.raises(AssertionError, match="do not fill kG"):
        pims(s3, f2, simples=table)


def reference_group(name):
    degree, cycles = REFERENCE_GROUPS[name]
    return group_close(degree, [parse_cycles(c, degree) for c in cycles])


def same_basis(A, B):
    """Two hom bases with the same matrices, byte for byte, in one order."""
    return A.dim == B.dim and [(X.shape, X.a.tobytes()) for X in A.basis] == \
        [(X.shape, X.a.tobytes()) for X in B.basis]


FIELDS = pytest.mark.parametrize("fq", [(2, 1), (3, 1), (2, 2)], ids=["GF2", "GF3", "GF4"])


@FIELDS
@pytest.mark.parametrize("name", list(REFERENCE_GROUPS))
def test_reciprocity_bases_equal_hom_space(name, fq):
    """Hom(Ind T, S) and End(Ind T), read off kH by Frobenius reciprocity,
    are hom_space's bases matrix for matrix, for every module pims draws
    from; where H = G those are the table's simples, with Schur's homs."""
    G, f = reference_group(name), field_make(*fq)
    simples = simples_of(G, f)
    roots = list(taucalc._induced_projectives(G, f, simples, 0))
    assert roots
    for M, homs, end in roots:
        assert len(homs) == simples.count
        for H, S in zip(homs, simples.simples):
            assert H.source is M and H.target is S
            assert same_basis(H, hom_space(M, S))
        assert same_basis(end(), hom_space(M, M))


@FIELDS
@pytest.mark.parametrize("name", list(REFERENCE_GROUPS))
def test_top_test_decides_split_locality(name, fq, monkeypatch):
    """On every node the PIM stream visits, sum_S dim Hom(M, S) = 1 exactly
    when split_local(hom_space(M, M)), and the homs the node carries (a
    part's restricted from its parent's) are hom_space's bases.  A field
    that does not split G stalls, and the nodes before the stall count."""
    G, f = reference_group(name), field_make(*fq)
    nodes, roots = [], []
    real_leaves, real_roots = taucalc._pim_leaves, taucalc._induced_projectives

    def leaves(M, homs, end, simples, seed):
        nodes.append((M, homs, simples))
        yield from real_leaves(M, homs, end, simples, seed)

    def induced(*args):
        for root in real_roots(*args):
            roots.append(root[0])
            yield root

    monkeypatch.setattr(taucalc, "_pim_leaves", leaves)
    monkeypatch.setattr(taucalc, "_induced_projectives", induced)
    for seed in range(3):
        try:
            pims(G, f, seed=seed)
        except InconclusiveError:
            pass
    monkeypatch.undo()
    for M, homs, simples in nodes:
        assert (sum(H.dim for H in homs) == 1) == meataxe.split_local(hom_space(M, M))
        for H, S in zip(homs, simples.simples):
            assert same_basis(H, hom_space(M, S))
    parts = [M for M, _, _ in nodes if not any(M is R for R in roots)]
    # Ind_C3(T) splits for the 2-dimensional T over GF(2)
    assert bool(parts) == (fq == (2, 1) and name in ("S3", "S4", "S4xC2"))


def pim_digest(pt) -> str:
    """sha256 over a PIM table: each PIM's dimension, generator matrices
    and surjection onto its simple, in label order, then the dims of End(S)."""
    h = hashlib.sha256()
    for P, X in zip(pt.pims, pt.cover_maps):
        h.update(repr((P.dim, X.shape)).encode())
        for A in P.gen_mats:
            h.update(A.a.tobytes())
        h.update(X.a.tobytes())
    h.update(repr(pt.end_dims).encode())
    return h.hexdigest()


# pim_digest at seeds 0, 1 and 2, taken when pims still split each
# Ind_H^G(T) with summand_stream and told its PIMs apart by isomorphism
PINNED_PIMS = {
    ("S4xC2", (2, 1)): ["cd7ebc5ba552b153cf5cb55ca9fbfc79464c5606ffef9e30d0fcb1e65e8e491e",
                        "321ba42e6966ba23761e3d56c7150cb94ca66d6e8617a24063196963dbca1f46",
                        "7075b6ccc7da6c3ae135f9689e6e975b3dc77a517109d3c6e51e0975429a025a"],
    ("S4", (3, 1)): ["765e7687d61ff9cdd080995bce671e1d233b46193b1b36407756340c9c0731ff",
                     "5125136c8b57299b53e3293617850b7638e6a8fd2a4d7df006fc356b152179ec",
                     "ca52b7b46771b84b182ffb6016be3ffa77ea9a8bd8221f6c0b6d4944f2bb8cbd"],
    ("A4", (2, 2)): ["8b950a20750364a5fd74a67ed0b8d99584fc0bbb7d31dfac0aa7657fd723c031",
                     "8b950a20750364a5fd74a67ed0b8d99584fc0bbb7d31dfac0aa7657fd723c031",
                     "c67279ad795d8627986ce554bf867c952572f2d29cccf6f28da3e02946b680c2"],
}


@pytest.mark.parametrize("name, fq", list(PINNED_PIMS), ids=["S4xC2-GF2", "S4-GF3", "A4-GF4"])
def test_pims_match_pinned_digests(name, fq):
    G, f = reference_group(name), field_make(*fq)
    assert [pim_digest(pims(G, f, seed=seed)) for seed in range(3)] == PINNED_PIMS[name, fq]


def run_optimized(code):
    """Run code in a python -O child, where assert is a no-op; it exits 0
    when its certificate held."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sttlab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_pim_count_certificate_survives_optimize():
    """The same broken stream in a python -O child, where assert is a no-op."""
    code = """
import sys
from sttlab import taucalc
from sttlab.exactfield import field_make
from sttlab.meataxe import simples_of
from sttlab.permgroup import group_close, parse_cycles

s3 = group_close(3, [parse_cycles("(0 1)", 3), parse_cycles("(0 1 2)", 3)])
f2 = field_make(2, 1)
table = simples_of(s3, f2)
taucalc._pim_leaves = lambda M, homs, end, simples, seed: (
    (S, [taucalc.hom_space(S, R) for R in simples.simples]) for S in simples.simples)
if not sys.flags.optimize:
    sys.exit("not running under -O")
try:
    taucalc.pims(s3, f2, simples=table)
except AssertionError as e:
    sys.exit(0 if "do not fill kG" in str(e) else str(e))
sys.exit("the broken PIM table was accepted")
"""
    run_optimized(code)


def doubled_hom_space(M, N, real=taucalc.hom_space):
    """A wrong hom dimension: every basis listed twice."""
    return HomBasis(M, N, real(M, N).basis * 2)


def test_multiplicities_certificate_catches_a_wrong_hom_dimension(s3, monkeypatch):
    tables = Tables(s3, field_make(2, 1))
    pt = tables.pimtable
    S = tables.simples.simples[1]
    assert tables.multiplicities(S) == {tables.simples.labels[1]: 1}
    monkeypatch.setattr(taucalc, "hom_space", doubled_hom_space)
    with pytest.raises(AssertionError, match="do not fill dim M"):
        tables.multiplicities(S)
    monkeypatch.undo()
    # dim End(S) = 2 would make dim Hom(P(S), S) = 1 indivisible
    monkeypatch.setattr(pt, "end_dims", [1, 2])
    with pytest.raises(AssertionError, match="not a multiple of dim End"):
        tables.multiplicities(S)


def test_multiplicities_certificate_survives_optimize():
    """The same wrong hom dimensions in a python -O child."""
    code = """
import sys
from sttlab import taucalc
from sttlab.exactfield import field_make
from sttlab.grouprep import HomBasis
from sttlab.permgroup import group_close, parse_cycles

s3 = group_close(3, [parse_cycles("(0 1)", 3), parse_cycles("(0 1 2)", 3)])
tables = taucalc.Tables(s3, field_make(2, 1))
pt = tables.pimtable
S = tables.simples.simples[1]
real = taucalc.hom_space
if not sys.flags.optimize:
    sys.exit("not running under -O")
for patch, message in [("hom", "do not fill dim M"), ("end", "not a multiple of dim End")]:
    if patch == "hom":
        taucalc.hom_space = lambda M, N: HomBasis(M, N, real(M, N).basis * 2)
    else:
        taucalc.hom_space, pt.end_dims = real, [1, 2]
    try:
        tables.multiplicities(S)
    except AssertionError as e:
        if message not in str(e):
            sys.exit(str(e))
    else:
        sys.exit("a wrong hom dimension was accepted (" + patch + ")")
"""
    run_optimized(code)
