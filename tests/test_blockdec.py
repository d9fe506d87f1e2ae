import numpy as np
import pytest

from sttlab.blockdec import (
    block_cut_induce,
    block_of_factors,
    blocks,
    covering_blocks,
    embed_subgroup_vector,
    fong_reynolds_block,
    ga_conjugate,
    ga_identity,
    ga_mul,
    inertial_group,
)
from sttlab.grouprep import direct_sum, regular_rep, trivial_rep
from sttlab.meataxe import is_irreducible, is_isomorphic, simples_of
from sttlab.permgroup import transversal
from sttlab.taucalc import Tables, syzygy


@pytest.fixture(scope="module")
def c3_blocks(c3, f4):
    return blocks(c3, f4)


@pytest.fixture(scope="module")
def s3_blocks(s3, f4):
    return blocks(s3, f4)


def test_block_counts(a4, s4, c3, s3, f4, c3_blocks, s3_blocks):
    assert len(blocks(a4, f4)) == 1
    assert len(blocks(s4, f4)) == 1
    assert len(c3_blocks) == 3
    assert len(s3_blocks) == 2


def test_block_idempotent_identities(c3, f4, c3_blocks):
    total = np.zeros(c3.order, dtype=f4.dtype)
    for b in c3_blocks:
        v = b.coeffs
        assert np.array_equal(ga_mul(c3, f4, v, v), v)
        for c in c3_blocks:
            if c is not b:
                assert not ga_mul(c3, f4, v, c.coeffs).any()
        # centrality: conjugation by every generator fixes the idempotent
        for g in c3.generators:
            assert np.array_equal(ga_conjugate(c3, f4, v, g), v)
        total = f4.arr_add(total, v)
    assert np.array_equal(total, ga_identity(c3, f4))


def test_s3_block_idempotent_identities(s3, f4, s3_blocks):
    total = np.zeros(s3.order, dtype=f4.dtype)
    for b in s3_blocks:
        v = b.coeffs
        assert np.array_equal(ga_mul(s3, f4, v, v), v)
        for g in s3.generators:
            assert np.array_equal(ga_conjugate(s3, f4, v, g), v)
        total = f4.arr_add(total, v)
    assert np.array_equal(total, ga_identity(s3, f4))


def test_each_block_has_simples(c3_blocks):
    for b in c3_blocks:
        assert len(b.simple_labels) == 1


def test_block_of_module(c3, f4, c3_blocks):
    """A module's block, read off the labels of its composition factors."""
    tables = Tables(c3, f4)
    b = block_of_factors(tables.multiplicities(trivial_rep(c3, f4)), c3_blocks)
    assert b.is_principal(tables.simples)
    reg = tables.multiplicities(regular_rep(c3, f4))
    with pytest.raises(ValueError):
        block_of_factors(reg, c3_blocks)  # mixed across blocks
    with pytest.raises(ValueError):
        block_of_factors([], c3_blocks)  # the zero module


def test_module_in_block(c3, f4, c3_blocks):
    """The trivial module lies in exactly one block."""
    k = Tables(c3, f4).multiplicities(trivial_rep(c3, f4))
    principal = []
    for b in c3_blocks:
        try:
            principal.append(block_of_factors(k, [b]))
        except ValueError:
            pass
    assert len(principal) == 1


def test_covering_defect0_covers_both_nontrivial(c3, s3, f4, c3_blocks, s3_blocks):
    table_c3 = simples_of(c3, f4)
    table_s3 = simples_of(s3, f4)
    nontrivial = [b for b in c3_blocks if not b.is_principal(table_c3)]
    assert len(nontrivial) == 2
    defect0 = [b for b in s3_blocks if not b.is_principal(table_s3)][0]
    for B in nontrivial:
        assert defect0 in covering_blocks(B, s3, big_blocks=s3_blocks)
    # principal covers principal
    prin_c3 = [b for b in c3_blocks if b.is_principal(table_c3)][0]
    prin_s3 = [b for b in s3_blocks if b.is_principal(table_s3)][0]
    covers = covering_blocks(prin_c3, s3, big_blocks=s3_blocks)
    assert prin_s3 in covers


def test_single_block_covers(a4, s4, f4):
    ba = blocks(a4, f4)
    bs = blocks(s4, f4)
    assert covering_blocks(ba[0], s4, big_blocks=bs) == bs


def test_inertial_group(c3, s3, f4, c3_blocks):
    table_c3 = simples_of(c3, f4)
    prin = [b for b in c3_blocks if b.is_principal(table_c3)][0]
    assert inertial_group(prin, s3).order == 6  # principal is stable
    nontrivial = [b for b in c3_blocks if not b.is_principal(table_c3)][0]
    I = inertial_group(nontrivial, s3)
    assert I.order == 3  # the transposition swaps the two nontrivial blocks


def test_inertial_group_single_block(a4, s4, f4):
    B = blocks(a4, f4)[0]
    assert inertial_group(B, s4).order == 24


def test_fong_reynolds_c3_s3(c3, s3, f4, c3_blocks, s3_blocks):
    table_c3 = simples_of(c3, f4)
    table_s3 = simples_of(s3, f4)
    B = [b for b in c3_blocks if not b.is_principal(table_c3)][0]
    defect0 = [b for b in s3_blocks if not b.is_principal(table_s3)][0]
    beta = fong_reynolds_block(B, defect0)
    assert beta.group.order == 3
    assert np.array_equal(beta.coeffs, B.coeffs)  # beta is B itself
    # the identity 1_Btilde = 1_beta + sigma 1_beta sigma^-1 holds exactly
    sigma = next(g for g in s3.elements if g not in c3.index)
    e = embed_subgroup_vector(beta.group, s3, f4, beta.coeffs)
    lhs = f4.arr_add(e, ga_conjugate(s3, f4, e, sigma))
    assert np.array_equal(lhs, defect0.coeffs)


def test_fong_reynolds_trivial_inertia(a4, s4, f4):
    """Full inertia makes the correspondent the covering block itself."""
    B = blocks(a4, f4)[0]
    Bt = blocks(s4, f4)[0]
    beta = fong_reynolds_block(B, Bt)
    assert beta.group.order == 24
    assert np.array_equal(beta.coeffs, Bt.coeffs)


def test_fong_reynolds_simple_count_matches(c3, s3, f4, c3_blocks, s3_blocks):
    """Morita equivalence: beta and Btilde have the same number of simples."""
    table_c3 = simples_of(c3, f4)
    table_s3 = simples_of(s3, f4)
    B = [b for b in c3_blocks if not b.is_principal(table_c3)][0]
    defect0 = [b for b in s3_blocks if not b.is_principal(table_s3)][0]
    beta = fong_reynolds_block(B, defect0)
    assert len(beta.simple_labels) == len(defect0.simple_labels)


def test_block_cut_induce_unique_block(a4, s4, f4, cast):
    Bt = blocks(s4, f4)[0]
    cut = block_cut_induce(cast.kS, Bt)
    T = transversal(s4, a4)
    from sttlab.grouprep import induce

    assert cut.dim == induce(cast.kS, s4, T).dim  # 1_Btilde = 1 here
    assert is_isomorphic(cut, induce(cast.kS, s4, T))


def test_block_cut_induce_c3(c3, s3, f4, c3_blocks, s3_blocks):
    table_c3 = simples_of(c3, f4)
    table_s3 = simples_of(s3, f4)
    B = [b for b in c3_blocks if not b.is_principal(table_c3)][0]
    defect0 = [b for b in s3_blocks if not b.is_principal(table_s3)][0]
    Bsimple = table_c3.simples[table_c3.labels.index(B.simple_labels[0])]
    cut = block_cut_induce(Bsimple, defect0)
    assert cut.dim == 2
    assert is_irreducible(cut)
    assert syzygy(cut, Tables(s3, f4)).dim == 0  # projective
    # the principal cut of the same induction is zero
    prin_s3 = [b for b in s3_blocks if b.is_principal(table_s3)][0]
    assert block_cut_induce(Bsimple, prin_s3).dim == 0


def test_ind_decomposes_over_blocks(c3, s3, f4, c3_blocks, s3_blocks):
    """Ind M is the direct sum of its block cuts."""
    from sttlab.grouprep import induce

    table_c3 = simples_of(c3, f4)
    B = [b for b in c3_blocks if not b.is_principal(table_c3)][0]
    Bsimple = table_c3.simples[table_c3.labels.index(B.simple_labels[0])]
    T = transversal(s3, c3)
    full = induce(Bsimple, s3, T)
    cuts = [block_cut_induce(Bsimple, bt, T) for bt in s3_blocks]
    total = direct_sum([c for c in cuts if c.dim], group=s3, field=f4)
    assert total.dim == full.dim
    assert is_isomorphic(total, full)


def test_conjugation_permutes_blocks(c3, s3, f4, c3_blocks):
    sigma = next(g for g in s3.elements if g not in c3.index)
    coeff_set = {b.coeffs.tobytes() for b in c3_blocks}
    for b in c3_blocks:
        e = embed_subgroup_vector(c3, s3, f4, b.coeffs)
        conj = ga_conjugate(s3, f4, e, sigma)
        back = np.zeros(c3.order, dtype=f4.dtype)
        for i in np.nonzero(conj)[0]:
            back[c3.idx(s3.elements[i])] = conj[i]
        assert back.tobytes() in coeff_set


# Primitive central idempotents and simple labels of blocks(), as recorded
# when blocks were split off the radical of the centre; primitive central
# idempotents are unique, so reading them off the Frobenius-fixed space of
# the centre must give the same codes.  Each idempotent is written as its
# coefficient codes over the element list.
# C3 and C7 over GF(2) and A5 over GF(2) do not split: their centres have
# blocks whose eZ/eJ is a proper extension field of k.  The centres of A4
# and S4 over GF(3) have a nonzero radical.
PINNED_BLOCKS = {
    ("C3", 2): [("111", ("S1",)), ("011", ("S2",))],
    ("C7", 2): [("1111111", ("S1",)), ("1001011", ("S2",)), ("1110100", ("S3",))],
    ("A5", 2): [
        ("011111110010111111111111111110111011011111111111100000000110", ("S1",)),
        ("111111110010111111111111111110111011011111111111100000000110", ("S2", "S3")),
    ],
    ("A4", 3): [("002000000022", ("S1",)), ("101000000011", ("S2",))],
    ("S4", 3): [
        ("012001222220100011111001", ("S1",)),
        ("021001111110100022222001", ("S2",)),
        ("100001000000100000000001", ("S3", "S4")),
    ],
}
PINNED_GROUPS = {
    "C3": (3, ["(0 1 2)"]),
    "C7": (7, ["(0 1 2 3 4 5 6)"]),
    "A5": (5, ["(0 1 2 3 4)", "(0 1 2)"]),
    "A4": (4, ["(0 1 2)", "(0 1)(2 3)"]),
    "S4": (4, ["(0 1)", "(0 1 2 3)"]),
    "S5": (5, ["(0 1)", "(0 1 2 3 4)"]),
    "D10": (5, ["(0 1 2 3 4)", "(1 4)(2 3)"]),
    "S4xC2": (6, ["(0 1)", "(0 1 2 3)", "(4 5)"]),
    "C3xA4": (7, ["(0 1 2)", "(0 1)(2 3)", "(4 5 6)"]),
    "S3xA4": (7, ["(0 1 2)", "(0 1)(2 3)", "(4 5 6)", "(4 5)"]),
    "PSL(2,7)": (8, ["(0 1 2 3 4 5 6)", "(0 7)(1 6)(2 3)(4 5)"]),
    "PGL(2,7)": (8, ["(0 1 2 3 4 5 6)", "(1 3 2 6 4 5)", "(0 7)(1 6)(2 3)(4 5)"]),
}


def _pinned_group(name):
    from sttlab.permgroup import group_close, parse_cycles

    degree, gens = PINNED_GROUPS[name]
    return group_close(degree, [parse_cycles(c, degree) for c in gens])


@pytest.mark.parametrize("name,p", sorted(PINNED_BLOCKS))
def test_blocks_match_pinned_idempotents(name, p):
    from sttlab.exactfield import field_make

    got = [("".join(str(int(c)) for c in b.coeffs), b.simple_labels)
           for b in blocks(_pinned_group(name), field_make(p, 1))]
    assert got == PINNED_BLOCKS[(name, p)]


# sha256 over every block of (coefficient bytes, simple_labels, index), as
# recorded before the idempotents were read off the Frobenius-fixed space of
# the centre.  The pairs have 2 to 7 blocks.  Only the centre of PSL(2,7)
# over GF(3) does not split: dim Z/J(Z) is 4 for its 3 blocks.  The centres
# of C3xA4, S3xA4, S4xC2, PSL(2,7) and S5 have a nonzero radical.
PINNED_BLOCK_DIGESTS = {
    ("C3xA4", (2, 2)):
        "b892e1e30754220cc5a3abaa5208f7513d682b583489eefd994deeff80adb46a",
    ("S3xA4", (2, 2)):
        "1c75ebbd4892951de2cf27e1805f1580edefd48c10b573d33da90dd9f5be460f",
    ("S4xC2", (3, 1)):
        "7453eadf230f429293d6577ba6c5b83cc9a14a9c98b2887dfe872e103e94709b",
    ("PSL(2,7)", (3, 1)):
        "a89a2e2581f8d08396225960b3bc7bd1a15e5fa359984e3db6988e7e53e57c95",
    ("C7", (2, 3)):
        "5ace18bcb9ed2c166a0d78ec678466629b495d6b1d1e5fb02095f2b00ec2ca90",
    ("S5", (3, 1)):
        "4ea60adf40911893fd71c33a1d4db6bf4a2497c13606f00baa5ed96bcc6df07c",
    ("D10", (3, 2)):
        "97d6656fcf0d76882d95d5aca3a78d8b1b147ae6aa640bf8e5474e0d4c7b068f",
}


def _field_id(value):
    return f"GF({value[0] ** value[1]})" if isinstance(value, tuple) else None


def _blocks_digest(block_list):
    import hashlib

    h = hashlib.sha256()
    for b in block_list:
        h.update(b.coeffs.tobytes())
        h.update(repr((b.simple_labels, b.index)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name,pm", sorted(PINNED_BLOCK_DIGESTS), ids=_field_id)
def test_blocks_match_pinned_digests(name, pm):
    from sttlab.exactfield import field_make

    got = _blocks_digest(blocks(_pinned_group(name), field_make(*pm)))
    assert got == PINNED_BLOCK_DIGESTS[(name, pm)]


@pytest.mark.parametrize("name,pm", [
    ("S4", (3, 1)), ("A5", (2, 2)), ("PGL(2,7)", (2, 2)), ("S5", (3, 1)),
], ids=_field_id)
def test_center_structure_constants_are_the_class_sum_products(name, pm):
    """The counted R[i][:, j] is c_i c_j, the kG product of two class sums,
    read at the first element of every class and expanded back to kG."""
    from sttlab.blockdec import _Center
    from sttlab.exactfield import field_make
    from sttlab.permgroup import class_sums

    G, f = _pinned_group(name), field_make(*pm)
    center = _Center(G, f)
    firsts = [cls[0] for cls in class_sums(G)]
    assert center.R.dtype == f.dtype
    for i, ci in enumerate(center.basis):
        for j, cj in enumerate(center.basis):
            prod = ga_mul(G, f, ci, cj)
            assert np.array_equal(center.R[i, :, j], prod[firsts])
            assert np.array_equal(center.expand(center.R[i, :, j]), prod)


@pytest.mark.parametrize("name,pm", [
    ("A4", (3, 1)), ("S4", (3, 1)), ("C3xA4", (2, 2)), ("S4xC2", (3, 1)),
    ("PSL(2,7)", (2, 1)), ("A5", (2, 2)), ("S5", (3, 1)),
], ids=_field_id)
def test_blocks_are_the_cartan_components(name, pm):
    """An oracle that never sees the centre: S and T lie in one block
    exactly when they are joined by a chain of simples each occurring in
    the PIM of the one before, [P(S) : T] > 0."""
    from sttlab.exactfield import field_make

    tables = Tables(_pinned_group(name), field_make(*pm))
    pt = tables.pimtable
    parent = {lab: lab for lab in pt.simples.labels}

    def root(lab):
        while parent[lab] != lab:
            lab = parent[lab]
        return lab

    for lab, P in zip(pt.simples.labels, pt.pims):
        for other in tables.multiplicities(P):
            parent[root(other)] = root(lab)
    components = {}
    for lab in pt.simples.labels:
        components.setdefault(root(lab), set()).add(lab)
    assert sorted(map(sorted, components.values())) == \
        sorted(sorted(b.simple_labels) for b in tables.blocks)
