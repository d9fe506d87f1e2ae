import gc
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sttlab import grouprep, meataxe
from sttlab.exactfield import Matrix, _nullspace, field_make, rank
from sttlab.grouprep import (
    Rep,
    _hom_kron,
    _spin_hom,
    conjugate_rep,
    direct_sum,
    dual_rep,
    hom_space,
    induce,
    iso_class,
    regular_rep,
    rep_make,
    restrict,
    sub_rep,
    quotient_rep,
    spin,
    trivial_rep,
    zero_rep,
)
from sttlab.permgroup import Perm, group_close, parse_cycles, transversal
from sttlab.meataxe import add_compare, is_isomorphic
from sttlab.taucalc import ext1, ext_module


def test_rep_make_validates(a4, f4):
    k = rep_make(a4, f4, [Matrix.identity(f4, 1)] * 2)
    assert k.dim == 1
    with pytest.raises(ValueError):
        rep_make(a4, f4, [Matrix.zeros(f4, 2, 2), Matrix.identity(f4, 2)])
    # matrices that are invertible but break the group relations
    bad = Matrix.from_rows(f4, [[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        rep_make(a4, f4, [bad, Matrix.identity(f4, 2)])
    # singular generators: an idempotent, and a zero on the trivial group
    c2 = group_close(2, [parse_cycles("(0 1)", 2)])
    with pytest.raises(ValueError):
        rep_make(c2, f4, [Matrix.from_rows(f4, [[1, 1], [0, 0]])])
    with pytest.raises(ValueError):
        rep_make(group_close(2, [Perm.identity(2)]), f4, [Matrix.zeros(f4, 1, 1)])


def test_rep_make_rejects_matrices_that_contradict_the_group():
    f3 = field_make(3, 1)
    swap = parse_cycles("(0 1)", 2)
    one = Matrix.identity(f3, 1)
    minus = Matrix.from_rows(f3, [[2]])
    # a repeated generator must get the same matrix both times
    twice = group_close(2, [swap, swap])
    with pytest.raises(ValueError):
        rep_make(twice, f3, [minus, one])
    assert rep_make(twice, f3, [minus, minus]).dim == 1
    # the identity must act as the identity
    ident = group_close(2, [Perm.identity(2)])
    with pytest.raises(ValueError):
        rep_make(ident, f3, [minus])
    assert rep_make(ident, f3, [one]).dim == 1
    with pytest.raises(ValueError):
        rep_make(group_close(2, [swap, Perm.identity(2)]), f3, [minus, minus])


def test_rep_homomorphism_all_pairs(a4, f4):
    reg = regular_rep(a4, f4)
    table = a4.mult_table()
    for i in (0, 1, 5, 11):
        for j in (0, 2, 7):
            assert (reg.act(i) @ reg.act(j)) == reg.act(int(table[i, j]))


def test_act_identities(a4, f4):
    reg = regular_rep(a4, f4)
    assert reg.act(0) == Matrix.identity(f4, 12)
    g = a4.elements[3]
    assert (reg.act(g) @ reg.act(g.inverse())) == Matrix.identity(f4, 12)
    # left translation permutation structure
    arr = reg.act(g).a
    assert (arr.sum(axis=0) == 1).all() and (arr.sum(axis=1) == 1).all()


def test_hom_dims_trivial_cases(a4, f4, a4_tables, cast):
    k = cast.k
    assert hom_space(k, k).dim == 1
    assert hom_space(cast.S, cast.T).dim == 0  # Schur for distinct simples
    reg = regular_rep(a4, f4)
    assert hom_space(reg, reg).dim == 12


def test_zero_module(a4, f4):
    z = zero_rep(a4, f4)
    assert z.dim == 0
    assert hom_space(z, z).dim == 0
    assert direct_sum([], group=a4, field=f4).dim == 0


def test_direct_sum_dims(cast):
    s = direct_sum([cast.k, cast.k])
    assert s.dim == 2
    assert all(m == Matrix.identity(s.field, 2) for m in s.gen_mats)
    both = direct_sum([cast.kS, cast.T])
    assert both.dim == cast.kS.dim + cast.T.dim


def test_direct_sum_accepts_content_equal_groups(a4, s4, f4):
    """Parts over two separately closed copies of one group sum, over the
    first part's group; parts over different groups still raise."""
    twin = group_close(4, list(a4.generators))
    assert twin is not a4
    s = direct_sum([trivial_rep(a4, f4), trivial_rep(twin, f4)])
    assert s.group is a4 and s.dim == 2
    with pytest.raises(ValueError):
        direct_sum([trivial_rep(a4, f4), trivial_rep(s4, f4)])


def test_is_isomorphic_basics(cast, f4):
    r = is_isomorphic(cast.k, cast.k)
    assert r and r.witness == Matrix.identity(f4, 1)
    assert not is_isomorphic(cast.k, cast.kS)
    assert not is_isomorphic(cast.S, cast.T)
    # symmetric with witnesses both ways
    fwd = is_isomorphic(cast.kS, cast.kS)
    assert fwd and fwd.witness is not None


def test_is_isomorphic_respects_reordering(cast):
    a = direct_sum([cast.k, cast.kS])
    b = direct_sum([cast.kS, cast.k])
    r = is_isomorphic(a, b)
    assert r
    W = r.witness
    for Am, Bm in zip(a.gen_mats, b.gen_mats):
        assert (W @ Am) == (Bm @ W)


def test_is_isomorphic_falls_back_on_decompositions(cast, f4, monkeypatch):
    """kS + kT against a base change of kT + kS: every basis element of the
    hom space maps one summand only, so with no random trials the witness
    must come from the two decompositions."""
    M = direct_sum([cast.kS, cast.kT])
    upper = Matrix.from_rows(f4, [[1 if i <= j else 0 for j in range(4)]
                                  for i in range(4)])
    N = _conjugated(direct_sum([cast.kT, cast.kS]), upper)
    assert all(rank(X) < X.rows for X in hom_space(M, N).basis)
    calls = []
    real = meataxe.summand_stream

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(meataxe, "summand_stream", counted)
    r = is_isomorphic(M, N, trials=0)
    assert r and len(calls) == 2
    W = r.witness
    assert rank(W) == W.rows == M.dim
    for Am, An in zip(M.gen_mats, N.gen_mats):
        assert (W @ Am) == (An @ W)
    # the same fallback certifies a negative answer without a witness
    assert not is_isomorphic(M, _conjugated(direct_sum([cast.kT, cast.ST]), upper),
                             trials=0)
    assert len(calls) == 4


def test_is_isomorphic_fallback_with_a_repeated_class(cast, f4):
    """k + kS + k against a base change of kS + k + k: the fallback pairs a
    class that occurs twice, with its second piece moved into the first
    piece's coordinates, and tells kS from kT beside the same two k."""
    M = direct_sum([cast.k, cast.kS, cast.k])
    upper = Matrix.from_rows(f4, [[1 if i <= j else 0 for j in range(4)]
                                  for i in range(4)])
    N = _conjugated(direct_sum([cast.kS, cast.k, cast.k]), upper)
    assert all(rank(X) < X.rows for X in hom_space(M, N).basis)
    r = is_isomorphic(M, N, trials=0)
    assert r
    W = r.witness
    assert rank(W) == W.rows == M.dim
    for Am, An in zip(M.gen_mats, N.gen_mats):
        assert (W @ Am) == (An @ W)
    other = _conjugated(direct_sum([cast.k, cast.kT, cast.k]), upper)
    assert not is_isomorphic(M, other, trials=0)
    assert add_compare(direct_sum([cast.k, cast.k, cast.kS]),
                       direct_sum([cast.kS, cast.k])).add_equal


def test_restrict(a4, s4, f4, s4_tables):
    two = s4_tables.simples.simples[
        [S.dim for S in s4_tables.simples.simples].index(2)
    ]
    res = restrict(two, a4)
    assert res.dim == 2
    assert res.group is a4
    k_s4 = trivial_rep(s4, f4)
    assert is_isomorphic(restrict(k_s4, a4), trivial_rep(a4, f4))


def test_induce_dims_and_regular(a4, s4, f4):
    T = transversal(s4, a4)
    k = trivial_rep(a4, f4)
    assert induce(k, s4, T).dim == 2
    reg_a4 = regular_rep(a4, f4)
    ind = induce(reg_a4, s4, T)
    assert ind.dim == 24
    assert is_isomorphic(ind, regular_rep(s4, f4))


def test_induce_self_is_identity(a4, f4):
    T = transversal(a4, a4)
    k = trivial_rep(a4, f4)
    ind = induce(k, a4, T)
    assert ind.dim == 1 and is_isomorphic(ind, k)


def test_conjugate_rep(a4, s4, f4, cast):
    odd = next(g for g in s4.elements if g not in a4.index)
    assert is_isomorphic(conjugate_rep(cast.S, odd), cast.T)
    assert is_isomorphic(conjugate_rep(cast.T, odd), cast.S)
    # inner conjugation is trivial up to isomorphism
    inner = a4.elements[5]
    assert is_isomorphic(conjugate_rep(cast.kS, inner), cast.kS)
    # conjugating by a coset-mate gives the same class
    odd2 = odd * a4.elements[3]
    assert is_isomorphic(conjugate_rep(cast.kS, odd2), conjugate_rep(cast.kS, odd))
    with pytest.raises(ValueError):
        c2 = group_close(4, [parse_cycles("(0 1)", 4)])
        conjugate_rep(trivial_rep(c2, f4), parse_cycles("(1 2)", 4))


def test_conjugation_swaps_stacked_modules(a4, s4, cast):
    odd = next(g for g in s4.elements if g not in a4.index)
    assert is_isomorphic(conjugate_rep(cast.kS, odd), cast.kT)


def test_dual_rep(cast, a4, f4):
    assert is_isomorphic(dual_rep(cast.k), cast.k)
    dd = dual_rep(dual_rep(cast.kS))
    assert is_isomorphic(dd, cast.kS)
    assert dual_rep(cast.kS).dim == cast.kS.dim
    # hom symmetry under duality
    assert hom_space(cast.kS, cast.kT).dim == hom_space(dual_rep(cast.kT), dual_rep(cast.kS)).dim


def test_transversal_independence(a4, s4, f4, cast):
    T1 = transversal(s4, a4)
    odd = T1.reps[1]
    # another transversal: identity replaced last, odd rep shifted by A4
    from sttlab.permgroup import Transversal

    alt_reps = [T1.reps[0], odd * a4.elements[7]]
    coset_index = dict(T1.coset_index)
    T2 = Transversal(big=s4, small=a4, reps=alt_reps, normal=T1.normal,
                     coset_index=coset_index)
    i1 = induce(cast.kS, s4, T1)
    i2 = induce(cast.kS, s4, T2)
    assert is_isomorphic(i1, i2)


def test_spin_and_subquotient(a4, f4):
    reg = regular_rep(a4, f4)
    ones = np.ones((1, 12), dtype=f4.dtype)
    W = spin([m.a for m in reg.gen_mats], ones, f4)
    assert W.shape[0] == 1  # the all-ones line is invariant
    sub = sub_rep(reg, Matrix(f4, W))
    assert sub.dim == 1 and is_isomorphic(sub, trivial_rep(a4, f4))
    quo = quotient_rep(reg, Matrix(f4, W))
    assert quo.dim == 11
    with pytest.raises(ValueError):
        bad = np.zeros((1, 12), dtype=f4.dtype)
        bad[0, 0] = 1
        sub_rep(reg, Matrix(f4, bad))  # a coordinate line is not invariant


def test_ext_module_contract(a4_tables, cast, f4):
    kS = cast.kS
    assert kS.dim == 2
    from sttlab.meataxe import radical_top

    rt = radical_top(kS, a4_tables.simples)
    assert rt.top.dim == 1 and rt.radical.dim == 1
    assert is_isomorphic(rt.top, cast.k)
    assert is_isomorphic(rt.radical, cast.S)


def test_ext_module_rejects_zero_class(a4_tables, cast):
    res = ext1(cast.k, cast.S, a4_tables)
    c = res.cocycles[0]
    from sttlab.taucalc import Cocycle

    zero = Matrix.zeros(c.matrix.field, c.matrix.rows, c.matrix.cols)
    bad = Cocycle(source=c.source, target=c.target, cover=c.cover,
                  omega_rows=c.omega_rows, matrix=zero,
                  restriction_rows=c.restriction_rows)
    with pytest.raises(ValueError):
        ext_module(cast.k, cast.S, bad)


def test_ext_module_uniqueness_for_one_dimensional_ext(a4_tables, cast):
    """Any two nonzero cocycles in a 1-dimensional Ext give isomorphic
    extensions."""
    res = ext1(cast.S, cast.T, a4_tables)
    assert res.dimension == 1
    c = res.cocycles[0]
    from sttlab.taucalc import Cocycle

    w = c.matrix.field.scalar((0, 1))
    scaled = Cocycle(source=c.source, target=c.target, cover=c.cover,
                     omega_rows=c.omega_rows, matrix=c.matrix.scale(w),
                     restriction_rows=c.restriction_rows)
    E1 = ext_module(cast.S, cast.T, c)
    E2 = ext_module(cast.S, cast.T, scaled)
    assert is_isomorphic(E1, E2)


def test_ind_of_conjugate_isomorphic(a4, s4, cast):
    T = transversal(s4, a4)
    odd = T.reps[1]
    ind1 = induce(cast.kS, s4, T)
    ind2 = induce(conjugate_rep(cast.kS, odd), s4, T)
    assert is_isomorphic(ind1, ind2)


def test_hom_space_intertwines(cast):
    H = hom_space(cast.kS, cast.kT)
    for X in H.basis:
        for Am, Bm in zip(cast.kS.gen_mats, cast.kT.gen_mats):
            assert (X @ Am) == (Bm @ X)


# ---------------------------------------------------------------------------
# hom_space: both regimes against a Kronecker oracle

def kron_oracle(M, N):
    """The hom basis as the nullspace of rho_N X - X rho_M = 0, one row per
    entry (i, j) of each generator's equation, unknown X[a, b] at a*dm + b."""
    f = M.field
    dm, dn = M.dim, N.dim
    if dm == 0 or dn == 0:
        return []
    rows = []
    for Am, An in zip(M.gen_mats, N.gen_mats):
        for i in range(dn):
            for j in range(dm):
                row = np.zeros(dn * dm, dtype=f.dtype)
                row[np.arange(dn) * dm + j] = An.a[i, :]  # (rho_N X)[i, j]
                at = i * dm + np.arange(dm)
                row[at] = f.arr_sub(row[at], Am.a[:, j])  # (X rho_M)[i, j]
                rows.append(row)
    system = np.array(rows, dtype=f.dtype).reshape(-1, dn * dm)
    null = _nullspace(f, system)
    return [Matrix(f, null[:, j].reshape(dn, dm).copy()) for j in range(null.shape[1])]


def assert_regimes_match_oracle(M, N):
    want = kron_oracle(M, N)
    assert hom_space(M, N).basis == want
    if M.dim and N.dim:
        assert _hom_kron(M, N) == want
        assert _spin_hom(M, N).basis == want
    for X in want:
        for Am, An in zip(M.gen_mats, N.gen_mats):
            assert (X @ Am) == (An @ X)


ORACLE_FIELDS = [(2, 1), (2, 2), (3, 1)]
C3 = group_close(3, [parse_cycles("(0 1 2)", 3)])
S3 = group_close(3, [parse_cycles("(0 1)", 3), parse_cycles("(0 1 2)", 3)])
A4 = group_close(4, [parse_cycles("(0 1 2)", 4), parse_cycles("(0 1)(2 3)", 4)])
# group, a subgroup to induce from, and an element normalizing the group
ORACLE_GROUPS = {
    "C3": (C3, group_close(3, []), parse_cycles("(0 1)", 3)),
    "S3": (S3, C3, parse_cycles("(1 2)", 3)),
    "A4": (A4, group_close(4, [parse_cycles("(0 1 2)", 4)]), parse_cycles("(0 1)", 4)),
}


def _random_module(G, H, g, f, rng, depth):
    """A module of G from trivial and regular ones by submodules,
    quotients, induction from H, conjugation by g and direct sums."""
    kinds = ["trivial", "regular", "sub", "quotient", "induced", "conjugated"]
    if depth:
        kinds += ["sum"] * 3
    kind = rng.choice(kinds)
    if kind == "trivial":
        return trivial_rep(G, f)
    if kind == "regular":
        return regular_rep(G, f)
    if kind in ("sub", "quotient"):
        # kG (1 - h) for some h != 1: nonzero and proper
        reg = regular_rep(G, f)
        seed = np.zeros((1, G.order), dtype=f.dtype)
        seed[0, 0], seed[0, rng.randrange(1, G.order)] = 1, f.neg(1)
        W = Matrix(f, spin([m.a for m in reg.gen_mats], seed, f))
        return sub_rep(reg, W) if kind == "sub" else quotient_rep(reg, W)
    if kind == "induced":
        small = regular_rep(H, f) if rng.random() < 0.5 else trivial_rep(H, f)
        return induce(small, G, transversal(G, H))
    if kind == "conjugated":
        return conjugate_rep(_random_module(G, H, g, f, rng, 0), g)
    return direct_sum([_random_module(G, H, g, f, rng, depth - 1) for _ in range(2)])


@settings(max_examples=40)
@given(st.sampled_from(ORACLE_FIELDS), st.sampled_from(sorted(ORACLE_GROUPS)),
       st.integers(0, 2**32 - 1))
def test_hom_space_regimes_match_kronecker_oracle(pm, group, seed):
    f = field_make(*pm)
    G, H, g = ORACLE_GROUPS[group]
    rng = random.Random(seed)
    M = _random_module(G, H, g, f, rng, 1)
    N = _random_module(G, H, g, f, rng, 1)
    assert_regimes_match_oracle(M, N)
    assert_regimes_match_oracle(N, M)


@pytest.mark.parametrize("pm", ORACLE_FIELDS)
def test_hom_space_degenerate_groups_match_oracle(pm):
    f = field_make(*pm)
    # no generators: every matrix is a hom, on both sides of the crossover
    none = group_close(3, [])
    for dm, dn in [(2, 3), (9, 8)]:
        assert_regimes_match_oracle(Rep(none, f, [], dim=dm), Rep(none, f, [], dim=dn))
    # an identity generator
    ident = group_close(3, [Perm.identity(3)])
    eye = [Matrix.identity(f, d) for d in (2, 3, 8, 9)]
    for i, j in [(0, 1), (3, 2)]:
        assert_regimes_match_oracle(Rep(ident, f, [eye[i]]), Rep(ident, f, [eye[j]]))
    # a repeated generator
    c = parse_cycles("(0 1 2)", 3)
    twice = group_close(3, [c, c])
    reg, k = regular_rep(twice, f), trivial_rep(twice, f)
    for M in (reg, k, direct_sum([reg, reg, k])):
        for N in (reg, direct_sum([reg, reg, reg, k])):
            assert_regimes_match_oracle(M, N)


@pytest.mark.parametrize("pm", ORACLE_FIELDS)
def test_hom_space_zero_and_seedful_modules_match_oracle(pm, a4):
    f = field_make(*pm)
    z, k, reg = zero_rep(a4, f), trivial_rep(a4, f), regular_rep(a4, f)
    for M, N in [(z, reg), (reg, z), (z, z)]:
        assert hom_space(M, N).basis == kron_oracle(M, N) == []
    # a sum of trivial modules needs one spin seed per dimension
    kk = direct_sum([k] * 9)
    for M, N in [(kk, reg), (kk, kk), (reg, kk), (direct_sum([kk, reg]), kk)]:
        assert_regimes_match_oracle(M, N)


def test_hom_space_end_of_regular_s4xc2_matches_oracle():
    f = field_make(2, 1)
    G = group_close(6, [parse_cycles("(0 1)", 6), parse_cycles("(0 1 2 3)", 6),
                        parse_cycles("(4 5)", 6)])
    reg = regular_rep(G, f)
    want = kron_oracle(reg, reg)
    assert len(want) == 48
    assert hom_space(reg, reg).basis == want
    assert _spin_hom(reg, reg).basis == want


def _s3_module(f, dim, rng):
    """A module of S3 of the given dimension: a sum of regular, induced
    (from C3, dimension 2) and trivial modules, in random order."""
    reg, k = regular_rep(S3, f), trivial_rep(S3, f)
    ind = induce(trivial_rep(C3, f), S3, transversal(S3, C3))
    parts = []
    while dim:
        part = rng.choice([R for R in (reg, ind, k) if R.dim <= dim])
        parts.append(part)
        dim -= part.dim
    rng.shuffle(parts)
    return direct_sum(parts)


@pytest.mark.parametrize("pm", ORACLE_FIELDS)
def test_hom_space_regimes_match_oracle_at_the_threshold(pm):
    f = field_make(*pm)
    rng = random.Random(pm[0] * 10 + pm[1])
    T = grouprep._SPIN_MIN_UNKNOWNS
    for unknowns in (T - 1, T):
        for dm in range(1, unknowns + 1):
            if unknowns % dm == 0:
                M, N = _s3_module(f, dm, rng), _s3_module(f, unknowns // dm, rng)
                stored = _memo_size(S3)
                assert_regimes_match_oracle(M, N)
                # only the Kronecker regime, below T, stores its answer
                assert (_memo_size(S3) > stored) <= (unknowns < T)


@pytest.mark.parametrize("pm", ORACLE_FIELDS)
def test_hom_space_non_cyclic_source_matches_oracle(pm):
    f = field_make(*pm)
    reg, k = regular_rep(S3, f), trivial_rep(S3, f)
    M = direct_sum([reg, k, reg])
    assert grouprep._spin_source(M)[0] >= 2  # spin seeds
    for N in (direct_sum([reg, k]), direct_sum([k, k, k]), reg):
        assert N.dim != M.dim
        assert_regimes_match_oracle(M, N)
        assert_regimes_match_oracle(N, M)


def test_spin_source_is_built_once_per_source(monkeypatch):
    f = field_make(2, 2)
    reg, k = regular_rep(A4, f), trivial_rep(A4, f)
    M = direct_sum([reg, k])
    N1, N2 = direct_sum([k, reg, k]), direct_sum([k] * 3)
    spins = []
    spin_tree = grouprep._spin_tree
    monkeypatch.setattr(grouprep, "_spin_tree",
                        lambda *args: spins.append(args) or spin_tree(*args))
    first = hom_space(M, N1).basis
    built = len(spins)
    assert built >= 1
    assert hom_space(M, N2).basis == kron_oracle(M, N2)
    assert hom_space(M, N1).basis == first == kron_oracle(M, N1)
    assert len(spins) == built
    # a content-equal module is another source: it spins for itself
    assert hom_space(_fresh(M), N1).basis == first
    assert len(spins) == 2 * built


# ---------------------------------------------------------------------------
# the Kronecker-regime memo


def _fresh(M):
    """A distinct Rep with equal content: new matrices, no shared arrays."""
    return Rep(M.group, M.field, [Matrix(M.field, A.a.copy()) for A in M.gen_mats],
               dim=M.dim)


def _memo_size(G):
    return sum(map(len, grouprep._HOM_MEMO.get(G, {}).values()))


def test_memo_bases_match_kronecker_on_fresh_modules(cast, a4_tables):
    modules = [cast.k, cast.S, cast.kS, cast.ST, cast.N1, cast.M,
               *a4_tables.simples.simples]
    for M in modules:
        for N in modules:
            if M.dim * N.dim >= grouprep._SPIN_MIN_UNKNOWNS:
                continue
            want = _hom_kron(_fresh(M), _fresh(N))
            for _ in range(2):  # the first call may store, the second reads
                got = hom_space(_fresh(M), _fresh(N)).basis
                assert got == want
                assert all(X.a.dtype == Y.a.dtype and X.a.tobytes() == Y.a.tobytes()
                           for X, Y in zip(got, want))


def test_memo_serves_content_equal_modules_from_one_entry(cast, monkeypatch):
    M, N = _fresh(cast.kS), _fresh(cast.ST)
    first = hom_space(M, N).basis
    calls = []
    monkeypatch.setattr(grouprep, "_hom_kron",
                        lambda *args: calls.append(args) or _hom_kron(*args))
    size = _memo_size(M.group)
    second = hom_space(_fresh(cast.kS), _fresh(cast.ST)).basis
    assert calls == [] and _memo_size(M.group) == size
    assert second == first
    assert all(np.shares_memory(X.a, Y.a) for X, Y in zip(first, second))


def test_memo_bases_are_read_only(cast):
    H = hom_space(_fresh(cast.kS), _fresh(cast.kS))
    assert H.dim >= 1
    with pytest.raises(ValueError):
        H.basis[0].a[0, 0] = 1
    # a copy is an ordinary writable matrix
    X = H.basis[0].copy()
    X.a[0, 0] = 1


def test_memo_entries_go_with_their_group():
    f = field_make(2, 2)
    G = group_close(3, [parse_cycles("(0 1)", 3), parse_cycles("(0 1 2)", 3)])
    k = trivial_rep(G, f)
    assert hom_space(k, direct_sum([k, k])).dim == 2
    assert _memo_size(G) == 1
    before = len(grouprep._HOM_MEMO)
    ref = weakref.ref(G)
    del G, k
    gc.collect()
    assert ref() is None
    assert len(grouprep._HOM_MEMO) == before - 1


def test_memo_never_stores_spin_regime_calls():
    f = field_make(3, 1)
    G = group_close(4, [parse_cycles("(0 1 2)", 4), parse_cycles("(0 1)(2 3)", 4)])
    reg, k = regular_rep(G, f), trivial_rep(G, f)
    kk = direct_sum([k] * 6)
    for M, N in [(reg, reg), (reg, kk), (kk, reg), (direct_sum([kk, kk]), kk)]:
        assert M.dim * N.dim >= grouprep._SPIN_MIN_UNKNOWNS
        hom_space(M, N)
        assert _memo_size(G) == 0
    k3 = direct_sum([k] * 3)
    hom_space(k3, k3)  # 9 unknowns: stored
    assert _memo_size(G) == 1


@pytest.mark.parametrize("pm", ORACLE_FIELDS)
def test_hom_basis_is_built_on_first_read(pm):
    """hom_space gives dim before any basis exists, in the Kronecker regime
    (a memo miss, then a hit on content-equal modules) and in the spin
    regime; the basis built on the first read of .basis is bit-identical to
    the oracle's and _hom_kron's, and is kept."""
    f = field_make(*pm)
    G = group_close(3, [parse_cycles("(0 1)", 3), parse_cycles("(0 1 2)", 3)])
    c3 = group_close(3, [parse_cycles("(0 1 2)", 3)])
    reg, k = regular_rep(G, f), trivial_rep(G, f)
    ind = induce(trivial_rep(c3, f), G, transversal(G, c3))
    pairs = [(k, direct_sum([k, k])), (reg, ind), (reg, reg),
             (direct_sum([reg, k]), direct_sum([ind, k, reg]))]
    for M, N in pairs:
        want = kron_oracle(M, N)
        regimes = [hom_space(M, N)]
        if M.dim * N.dim < grouprep._SPIN_MIN_UNKNOWNS:
            stored = _memo_size(G)
            regimes.append(hom_space(_fresh(M), _fresh(N)))
            assert _memo_size(G) == stored  # the second call read the memo
        for H in regimes:
            assert H.dim == len(want)
            assert callable(H._basis)  # dim alone built no basis
            got = H.basis
            assert H.basis is got
            assert got == want == _hom_kron(M, N)
            assert all(X.a.dtype == Y.a.dtype and X.a.tobytes() == Y.a.tobytes()
                       for X, Y in zip(got, want))
    # a basis given as a list is one too
    H = grouprep.HomBasis(reg, reg, want)
    assert H.dim == len(want) and H.basis is want


# ---------------------------------------------------------------------------
# the class lookup


def _conjugated(M, P):
    """The module isomorphic to M by the change of basis P."""
    mats = [P @ A @ P.inverse() for A in M.gen_mats]
    return Rep(M.group, M.field, mats, dim=M.dim)


def test_iso_class_returns_index_and_intertwiner(cast, a4_tables, f4):
    M = _conjugated(cast.kS, Matrix.from_rows(f4, [[1, 1], [0, 1]]))
    reps = a4_tables.simples.simples + [cast.kS]
    i, X = iso_class(M, reps)
    assert i == len(reps) - 1
    assert rank(X) == X.rows == M.dim
    for Am, Ar in zip(M.gen_mats, reps[i].gen_mats):
        assert (X @ Am) == (Ar @ X)
    assert iso_class(cast.k, reps)[0] == a4_tables.simples.labels.index(cast.k_label)


def test_iso_class_returns_first_match(cast, f4):
    twin = _conjugated(cast.kS, Matrix.from_rows(f4, [[0, 1], [1, 0]]))
    reps = [cast.S, cast.T, cast.kS, twin]
    assert iso_class(cast.kS, reps)[0] == 2
    assert iso_class(twin, reps)[0] == 2


def test_iso_class_none_without_match(cast, a4_tables):
    assert iso_class(cast.kT, a4_tables.simples.simples + [cast.kS]) is None
    assert iso_class(cast.k, []) is None


def test_iso_class_skips_other_dimensions(cast, monkeypatch):
    calls = []
    real = grouprep.iso_indecomposable

    def counted(M, N):
        calls.append((M.dim, N.dim))
        return real(M, N)

    monkeypatch.setattr(grouprep, "iso_indecomposable", counted)
    assert iso_class(cast.kS, [cast.k, cast.S, cast.T]) is None
    assert calls == []
    assert iso_class(cast.S, [cast.kS, cast.k, cast.kT, cast.T]) is None
    assert calls == [(1, 1), (1, 1)]
