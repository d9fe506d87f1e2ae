from collections import Counter

import numpy as np
import pytest

from sttlab import meataxe
from sttlab.exactfield import Matrix, RowSpace, field_make, _nullspace, _rref
from sttlab.grouprep import (
    Rep,
    direct_sum,
    hom_space,
    iso_class,
    regular_rep,
    zero_rep,
)
from sttlab.meataxe import (
    add_compare,
    algebra_radical,
    chop,
    composition_factors,
    decompose,
    is_irreducible,
    radical_top,
    simples_of,
    _is_split_local,
)
from sttlab.permgroup import group_close, p_regular_class_count, parse_cycles
from sttlab.theoremlab import PairLab, build_corpus, check_theorem1_classes


def test_is_irreducible_dim1(cast):
    assert is_irreducible(cast.k)
    assert is_irreducible(cast.S)


def test_is_irreducible_regular_reducible(a4, f4):
    reg = regular_rep(a4, f4)
    res = is_irreducible(reg)
    assert not res.irreducible
    W = res.submodule
    assert 0 < W.rows < 12
    from sttlab.grouprep import is_invariant_subspace

    assert is_invariant_subspace(reg, W)


def test_two_dimensional_s4_simple_irreducible(s4_tables):
    two = s4_tables.simples.simples[
        [S.dim for S in s4_tables.simples.simples].index(2)
    ]
    assert is_irreducible(two)


def test_simples_of_groups(a4, s4, f4, a4_tables, s4_tables):
    assert sorted(S.dim for S in a4_tables.simples.simples) == [1, 1, 1]
    assert sorted(S.dim for S in s4_tables.simples.simples) == [1, 2]
    triv = group_close(4, [])
    table = simples_of(triv, f4)
    assert table.count == 1 and table.simples[0].dim == 1


def test_simples_pairwise_distinct(a4_tables):
    from sttlab.grouprep import iso_indecomposable

    simples = a4_tables.simples.simples
    for i, S in enumerate(simples):
        for T in simples[:i]:
            assert not (S.dim == T.dim and iso_indecomposable(S, T))


def test_chop_counts(a4, f4, a4_tables, cast):
    assert chop(cast.k, a4_tables.simples) == Counter({cast.k_label: 1})
    reg = regular_rep(a4, f4)
    assert chop(reg, a4_tables.simples) == Counter(
        {cast.k_label: 4, cast.S_label: 4, cast.T_label: 4}
    )
    assert chop(cast.ST, a4_tables.simples) == Counter(
        {cast.S_label: 1, cast.T_label: 1}
    )


def test_chop_additive(a4_tables, cast):
    both = direct_sum([cast.kS, cast.ST])
    assert chop(both, a4_tables.simples) == (
        chop(cast.kS, a4_tables.simples) + chop(cast.ST, a4_tables.simples)
    )


def test_radical_top(a4_tables, cast, a4, f4):
    from sttlab.meataxe import is_isomorphic

    rt = radical_top(cast.S, a4_tables.simples)
    assert rt.radical.dim == 0 and rt.top.dim == 1
    rt2 = radical_top(cast.kS, a4_tables.simples)
    assert is_isomorphic(rt2.top, cast.k) and is_isomorphic(rt2.radical, cast.S)
    # top of the regular module is the sum of all simples with multiplicity
    # equal to their dimensions (split semisimple quotient)
    reg = regular_rep(a4, f4)
    rt3 = radical_top(reg, a4_tables.simples)
    assert rt3.top.dim == 3
    assert chop(rt3.top, a4_tables.simples) == Counter(
        {cast.k_label: 1, cast.S_label: 1, cast.T_label: 1}
    )


def test_decompose_multiplicity(cast, a4, f4):
    dec = decompose(direct_sum([cast.k, cast.k]))
    assert len(dec.summands) == 1
    assert dec.summands[0][1] == 2
    assert dec.summands[0][0].dim == 1


def test_decompose_regular_a4(a4, f4):
    reg = regular_rep(a4, f4)
    dec = decompose(reg)
    assert sorted((r.dim, m) for r, m in dec.summands) == [(4, 1), (4, 1), (4, 1)]


def test_decompose_witness_blockdiagonalizes(a4, f4):
    reg = regular_rep(a4, f4)
    dec = decompose(reg)
    C = dec.witness
    Ci = C.inverse()
    for gi in range(len(a4.generators)):
        got = C @ reg.gen_mats[gi] @ Ci
        expected = np.zeros((12, 12), dtype=f4.dtype)
        off = 0
        for rows, ci in dec.pieces:
            blk = dec.summands[ci][0].gen_mats[gi].a
            expected[off:off + blk.shape[0], off:off + blk.shape[0]] = blk
            off += blk.shape[0]
        assert np.array_equal(got.a, expected)


def test_decompose_zero(a4, f4):
    dec = decompose(zero_rep(a4, f4))
    assert dec.summands == []


def test_decompose_mixed_sum(cast):
    dec = decompose(direct_sum([cast.k, cast.kS, cast.kS, cast.ST]))
    by_dim = sorted((r.dim, m) for r, m in dec.summands)
    assert by_dim == [(1, 1), (2, 1), (2, 2)]


def test_summands_have_local_endomorphism_algebras(cast):
    dec = decompose(direct_sum([cast.kS, cast.ST]))
    for rep, _ in dec.summands:
        end = hom_space(rep, rep)
        J = algebra_radical(end.basis)
        assert end.dim - len(J) == 1


# ---------------------------------------------------------------------------
# algebra radical: independent annihilator-of-flag oracle

def _radical_oracle(basis):
    """rad(A) = elements mapping each composition-flag layer of the natural
    module into the previous layer; independent of the trace-form route."""
    from sttlab.exactfield import _matmul
    from sttlab.meataxe import _is_irreducible_raw

    f = basis[0].field
    n = basis[0].rows
    mats = [b.a for b in basis]

    def flag(mats_, dim):
        if dim == 0:
            return []
        ok, rows = _is_irreducible_raw(f, mats_, dim, 0, 64, 12)
        if ok:
            return [np.eye(dim, dtype=f.dtype)]
        R, piv = _rref(f, rows)
        W = R[: len(piv)]
        piv_set = set(piv)
        comp = [c for c in range(dim) if c not in piv_set]
        sub_mats, quo_mats = [], []
        for A in mats_:
            img = _matmul(f, W, A.T.copy())
            sub_mats.append(img[:, piv].T.copy())
            B = A[:, comp]
            red = B[comp, :]
            if piv:
                corr = _matmul(f, W[:, comp].T.copy(), B[piv, :])
                red = f.arr_sub(red, corr)
            quo_mats.append(red.copy())
        out = []
        for Fl in flag(sub_mats, W.shape[0]):
            out.append(_rref(f, _matmul(f, Fl, W))[0][: Fl.shape[0]])
        for Fl in flag(quo_mats, dim - W.shape[0]):
            lift = np.zeros((Fl.shape[0], dim), dtype=f.dtype)
            lift[:, comp] = Fl
            stacked = np.concatenate([W, lift], axis=0)
            R2, piv2 = _rref(f, stacked)
            out.append(R2[: len(piv2)])
        return out

    flags = flag(mats, n)
    conds = []
    prev = np.zeros((0, n), dtype=f.dtype)
    for Fl in flags:
        space = RowSpace(f, n)
        for i in range(prev.shape[0]):
            space.add(prev[i])
        block = []
        for b in basis:
            img = _matmul(f, Fl, b.a.T.copy())
            res = np.stack([space.reduce(img[i]) for i in range(img.shape[0])])
            block.append(res.reshape(-1))
        conds.append(np.stack(block, axis=1))
        prev = Fl
    system = np.concatenate(conds, axis=0)
    null = _nullspace(f, system)
    out = []
    for k in range(null.shape[1]):
        mat = np.zeros((n, n), dtype=f.dtype)
        for s in range(len(basis)):
            c = int(null[s, k])
            if c:
                mat = f.arr_add(mat, f.MUL[c, basis[s].a])
        out.append(mat)
    return out


def _same_span(f, mats1, mats2, width):
    s1 = RowSpace(f, width)
    for m in mats1:
        s1.add(np.asarray(m.a if isinstance(m, Matrix) else m).reshape(-1))
    s2 = RowSpace(f, width)
    for m in mats2:
        s2.add(np.asarray(m.a if isinstance(m, Matrix) else m).reshape(-1))
    if s1.dim != s2.dim:
        return False
    return all(s1.contains(r) for r in s2.rows)


def test_algebra_radical_semisimple(f4):
    basis = []
    for i in range(2):
        for j in range(2):
            m = np.zeros((2, 2), dtype=f4.dtype)
            m[i, j] = 1
            basis.append(Matrix(f4, m))
    assert algebra_radical(basis) == []


def test_algebra_radical_upper_triangular(f4):
    E11 = Matrix.from_rows(f4, [[1, 0], [0, 0]])
    E22 = Matrix.from_rows(f4, [[0, 0], [0, 1]])
    E12 = Matrix.from_rows(f4, [[0, 1], [0, 0]])
    J = algebra_radical([E11, E22, E12])
    assert len(J) == 1
    assert J[0].a[0, 0] == 0 and J[0].a[1, 1] == 0 and J[0].a[0, 1] != 0


def test_algebra_radical_rejects_bad_basis(f4):
    E12 = Matrix.from_rows(f4, [[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        algebra_radical([E12])  # not unital
    # A = E12 + E23 has A^2 = E13 outside span{I, A}
    A = Matrix.from_rows(f4, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    with pytest.raises(ValueError):
        algebra_radical([Matrix.identity(f4, 3), A])


def test_algebra_radical_matches_flag_oracle(a4, f4, cast):
    reg = regular_rep(a4, f4)
    for M in (reg, direct_sum([cast.kS, cast.ST]), cast.M):
        basis = hom_space(M, M).basis
        J1 = algebra_radical(basis)
        J2 = _radical_oracle(basis)
        assert _same_span(f4, J1, J2, M.dim * M.dim)


def test_algebra_radical_is_nilpotent_ideal(a4, f4):
    from sttlab.exactfield import _matmul

    reg = regular_rep(a4, f4)
    basis = hom_space(reg, reg).basis
    J = algebra_radical(basis)
    span = RowSpace(f4, 144)
    for m in J:
        span.add(m.a.reshape(-1))
    # two-sided ideal inside the algebra
    for b in basis:
        for j in J:
            assert span.contains(_matmul(f4, b.a, j.a).reshape(-1))
            assert span.contains(_matmul(f4, j.a, b.a).reshape(-1))
    # nilpotency: multiply everything together dim-many times
    power = [j.a for j in J]
    for _ in range(len(basis)):
        power = [_matmul(f4, p, j.a) for p in power[:4] for j in J[:4]]
    assert all(not p.any() for p in power)


def test_add_compare(cast):
    from sttlab.meataxe import add_compare

    M, N = cast.kS, cast.kT
    both = direct_sum([M, N])
    r = add_compare(M, both)
    assert r.leq and not r.geq
    r2 = add_compare(direct_sum([M, M]), M)
    assert r2.leq and r2.geq and r2.add_equal
    r3 = add_compare(cast.k, cast.S)
    assert not r3.leq and not r3.geq


def test_composition_factors_recursion_depth(a4, f4):
    reg = regular_rep(a4, f4)
    factors = composition_factors(reg)
    assert len(factors) == 12
    assert all(F.dim == 1 for F in factors)


# ---------------------------------------------------------------------------
# deterministic rescue split off the semisimple quotient of End

def _rescue_split(M, lead=None):
    import random

    from sttlab.meataxe import _semisimple_quotient_split

    basis = hom_space(M, M).basis
    radical = algebra_radical(basis)
    # a basis that starts with J[0], or with basis[0] + J[0], spans End, but
    # only its normal forms mod J tell which elements are new in End/J
    if lead == "radical":
        basis = [radical[0]] + basis
    elif lead == "shifted":
        basis = [basis[0] + radical[0]] + basis
    return _semisimple_quotient_split(M, basis, radical, random.Random(0))


def test_semisimple_quotient_split_separates_k_plus_s(cast):
    from sttlab.grouprep import is_invariant_subspace, sub_rep
    from sttlab.meataxe import is_isomorphic

    M = direct_sum([cast.k, cast.S])
    parts = _rescue_split(M)
    assert sorted(part.rows for part in parts) == [1, 1]
    assert all(is_invariant_subspace(M, part) for part in parts)
    pieces = [sub_rep(M, part) for part in parts]
    assert sum(bool(is_isomorphic(P, cast.k)) for P in pieces) == 1
    assert sum(bool(is_isomorphic(P, cast.S)) for P in pieces) == 1


@pytest.mark.parametrize("lead", [None, "radical", "shifted"])
def test_semisimple_quotient_split_works_modulo_the_radical(cast, lead):
    from sttlab.grouprep import is_invariant_subspace, sub_rep
    from sttlab.meataxe import is_isomorphic

    # End(kS + k) has the map kS -> k -> k as its radical, and End/J = k x k
    M = direct_sum([cast.kS, cast.k])
    assert len(algebra_radical(hom_space(M, M).basis)) == 1
    parts = _rescue_split(M, lead)
    assert sorted(part.rows for part in parts) == [1, 2]
    assert all(is_invariant_subspace(M, part) for part in parts)
    small, big = sorted(parts, key=lambda part: part.rows)
    assert is_isomorphic(sub_rep(M, small), cast.k)
    assert is_isomorphic(sub_rep(M, big), cast.kS)


def test_semisimple_quotient_split_declines_local_endomorphisms(cast):
    # kS is uniserial: End/J = k
    assert _rescue_split(cast.kS) is None


def test_semisimple_quotient_split_declines_matrix_quotient(cast):
    # End(k + k) = M_2(k) is not commutative
    assert _rescue_split(direct_sum([cast.k, cast.k])) is None


def test_semisimple_quotient_split_declines_field_quotient(c3):
    from sttlab.exactfield import field_make

    # the 2-dimensional simple of C3 over GF(2) has End = GF(4)
    f2 = field_make(2, 1)
    two = [S for S in simples_of(c3, f2).simples if S.dim == 2]
    assert len(two) == 1
    assert hom_space(two[0], two[0]).dim == 2
    assert _rescue_split(two[0]) is None


def _unit(f, n, *cells):
    """The n x n matrix with a 1 at each (row, col) in cells."""
    out = np.zeros((n, n), dtype=f.dtype)
    for i, j in cells:
        out[i, j] = 1
    return out


def test_frobenius_fixed_element_declines_a_field():
    from sttlab.meataxe import frobenius_fixed_element

    # GF(4) = GF(2)[c] inside M_2(GF(2)), with c the companion matrix of t^2 + t + 1
    f2 = field_make(2, 1)
    c = _unit(f2, 2, (0, 1), (1, 0), (1, 1))
    assert frobenius_fixed_element(f2, [np.eye(2, dtype=f2.dtype), c], []) is None


def test_frobenius_fixed_element_declines_a_matrix_algebra():
    from sttlab.meataxe import frobenius_fixed_element

    f3 = field_make(3, 1)
    basis = [_unit(f3, 2, cell) for cell in ((0, 0), (0, 1), (1, 0), (1, 1))]
    assert frobenius_fixed_element(f3, basis, []) is None


def test_frobenius_fixed_element_rejects_a_basis_inside_its_radical(f4):
    from sttlab.meataxe import frobenius_fixed_element

    nilpotent = _unit(f4, 2, (0, 1))
    with pytest.raises(AssertionError, match="inside its radical"):
        frobenius_fixed_element(f4, [nilpotent], [nilpotent])


# ---------------------------------------------------------------------------
# split-local certificate: End = k.1 + N with N a nilpotent ideal

def _shift_algebra(f, n, lam):
    """k[X]/X^n on k^n, X the shift, with basis I and lam*I + X^j."""
    eye = np.eye(n, dtype=f.dtype)
    return [Matrix(f, eye)] + [
        Matrix(f, f.arr_add(f.MUL[lam, eye], np.eye(n, k=j, dtype=f.dtype)))
        for j in range(1, n)
    ]


def _units(f, n, pairs):
    out = []
    for i, j in pairs:
        m = np.zeros((n, n), dtype=f.dtype)
        m[i, j] = 1
        out.append(Matrix(f, m))
    return out


def _powers(f, X, d):
    """I, X, ..., X^(d-1): a basis of k[X] when X has a minimal polynomial of degree d."""
    out = [Matrix.identity(f, X.shape[0])]
    for _ in range(1, d):
        out.append(out[-1] @ Matrix(f, X))
    return out


# (p, m, basis builder, expected); over GF(4) the code 2 is a primitive
# cube root of unity w and 3 is w^2
SPLIT_LOCAL_CASES = {
    "k[x]/x^3": (2, 2, lambda f: _shift_algebra(f, 3, 0), True),
    "scalars": (2, 2, lambda f: [Matrix.identity(f, 3)], True),
    "eigenvalue w^2, n = 3 over GF(4)": (2, 2, lambda f: _shift_algebra(f, 3, 3), True),
    "eigenvalue w, n = 2 over GF(4)": (2, 2, lambda f: _shift_algebra(f, 2, 2), True),
    "n = 4 over GF(2)": (2, 1, lambda f: _shift_algebra(f, 4, 1), True),
    "n = 3 over GF(3)": (3, 1, lambda f: _shift_algebra(f, 3, 2), True),
    "n = 6 over GF(3)": (3, 1, lambda f: _shift_algebra(f, 6, 2), True),
    "eigenvalue w, n = 5 over GF(4)": (2, 2, lambda f: _shift_algebra(f, 5, 2), True),
    "n = 2 over GF(5)": (5, 1, lambda f: _shift_algebra(f, 2, 3), True),
    "n = 7 over GF(3)": (3, 1, lambda f: _shift_algebra(f, 7, 1), True),
    # k[X] for X = diag(J_2(1), J_3(2)): two eigenvalues, so X^9 is no scalar
    "two eigenvalues, n = 5 over GF(3)": (3, 1, lambda f: _powers(f, np.array(
        [[1, 1, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 2, 1, 0], [0, 0, 0, 2, 1],
         [0, 0, 0, 0, 2]], dtype=f.dtype), 5), False),
    "GF(9) inside M_2(GF(3))": (
        3, 1, lambda f: [Matrix.identity(f, 2), Matrix.from_rows(f, [[0, 2], [1, 0]])],
        False),
    "upper triangular 2x2": (
        2, 2, lambda f: _units(f, 2, [(0, 0), (1, 1), (0, 1)]), False),
    "M_2(k)": (
        2, 2, lambda f: _units(f, 2, [(0, 0), (0, 1), (1, 0), (1, 1)]), False),
    "GF(4) inside M_2(GF(2))": (
        2, 1, lambda f: [Matrix.identity(f, 2), Matrix.from_rows(f, [[0, 1], [1, 1]])],
        False),
    # N = span(E11) is closed under products but not nilpotent
    "k x k": (2, 2, lambda f: [Matrix.identity(f, 2)] + _units(f, 2, [(0, 0)]), False),
}


@pytest.mark.parametrize("name", list(SPLIT_LOCAL_CASES))
def test_is_split_local_hand_built(name):
    p, m, build, expected = SPLIT_LOCAL_CASES[name]
    basis = build(field_make(p, m))
    assert _is_split_local(basis) is expected
    assert (len(basis) - len(algebra_radical(basis)) == 1) is expected


def test_is_split_local_agrees_with_the_radical(a4, f4, cast):
    named = (cast.k, cast.S, cast.T, cast.kS, cast.kT, cast.ST, cast.M,
             cast.N1, cast.N2, direct_sum([cast.kS, cast.k]), regular_rep(a4, f4))
    for M in named:
        end = hom_space(M, M)
        local = end.dim - len(algebra_radical(end.basis)) == 1
        assert _is_split_local(end.basis) is local


def _sweep_labs():
    """The A4 < S4 pair over GF(4) and the four GF(3) pairs of the block
    benchmark, each after its theorem-1 sweep."""
    def group(degree, *cycles):
        return group_close(degree, [parse_cycles(c, degree) for c in cycles])

    a4, s4 = group(4, "(0 1 2)", "(0 1)(2 3)"), group(4, "(0 1)", "(0 1 2 3)")
    v4 = group(4, "(0 1)(2 3)", "(0 2)(1 3)")
    c3, s3 = group(3, "(0 1 2)"), group(3, "(0 1)", "(0 1 2)")
    f3 = field_make(3, 1)
    labs = [PairLab(a4, s4, field_make(2, 2)), PairLab(v4, a4, f3), PairLab(c3, s3, f3),
            PairLab(a4, s4, f3), PairLab(v4, s4, f3)]
    for lab in labs:
        for entry in build_corpus(lab):
            check_theorem1_classes(entry.classes, lab)
    return labs


def test_is_split_local_agrees_with_the_radical_on_sweep_classes():
    checked = nonscalar = 0
    for lab in _sweep_labs():
        for side in ("small", "big"):
            for X in lab.class_reps(side):
                end = hom_space(X, X)
                local = end.dim - len(algebra_radical(end.basis)) == 1
                assert local  # class representatives are indecomposable over a splitting field
                assert _is_split_local(end.basis) is local
                checked += 1
                nonscalar += end.dim > 1
    assert (checked, nonscalar) == (74, 35)


def test_decompose_rescues_when_quick_splits_fail(cast, monkeypatch):
    kS_k = direct_sum([cast.kS, cast.k])
    # without its block structure decompose has to split End itself
    M = Rep(kS_k.group, kS_k.field, kS_k.gen_mats, dim=kS_k.dim)
    calls = Counter()
    fitting_split = meataxe._fitting_split
    algebra_radical_ = meataxe.algebra_radical
    rescue = meataxe._semisimple_quotient_split

    def failing_quick_attempts(rep, theta, rng):
        calls["fitting"] += 1
        if rep.dim == 3 and calls["fitting"] <= 8:
            return None
        return fitting_split(rep, theta, rng)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(meataxe, "_fitting_split", failing_quick_attempts)
    monkeypatch.setattr(meataxe, "algebra_radical", counted("radical", algebra_radical_))
    monkeypatch.setattr(meataxe, "_semisimple_quotient_split", counted("rescue", rescue))
    dec = decompose(M)
    assert calls["radical"] == 1 and calls["rescue"] == 1
    assert sorted(rows.rows for rows, _ in dec.pieces) == [1, 2]


# ---------------------------------------------------------------------------
# the simple table stops at l(G) simples and still equals the full chop

REFERENCE_GROUPS = {
    "A4": (4, ["(0 1 2)", "(0 1)(2 3)"]),
    "S4": (4, ["(0 1)", "(0 1 2 3)"]),
    "S4xC2": (6, ["(0 1)", "(0 1 2 3)", "(4 5)"]),
    "V4": (4, ["(0 1)(2 3)", "(0 2)(1 3)"]),
    "S3": (3, ["(0 1)", "(0 1 2)"]),
    "C3": (3, ["(0 1 2)"]),
}


def full_chop_simples(group, field, seed):
    """simples_of before it stopped early: every composition factor of the
    regular module is read."""
    found = []
    for F in composition_factors(regular_rep(group, field), seed=seed):
        if iso_class(F, found) is None:
            found.append(F)
    return found


def brauer_chop_simples(group, field, seed):
    """simples_of without its trivial-module stop: the chop reads factors
    until l(G) simples are found, or to its end."""
    bound = p_regular_class_count(group, field.p)
    found = []
    for F in meataxe._composition_stream(regular_rep(group, field), seed):
        if iso_class(F, found) is None:
            found.append(F)
            if len(found) == bound:
                break
    return found


def _assert_same_table(table, ref):
    assert table.labels == [f"S{i + 1}" for i in range(len(ref))]
    assert len(table.simples) == len(ref)
    for S, R in zip(table.simples, ref):
        assert S.dim == R.dim and S.field == R.field and S.block_dims == R.block_dims
        assert len(S.gen_mats) == len(R.gen_mats)
        for a, b in zip(S.gen_mats, R.gen_mats):
            assert a.a.dtype == b.a.dtype and a.a.tobytes() == b.a.tobytes()


@pytest.mark.parametrize("fq", [(2, 1), (3, 1), (2, 2)], ids=["GF2", "GF3", "GF4"])
@pytest.mark.parametrize("name", list(REFERENCE_GROUPS))
def test_simples_of_equals_full_chop(name, fq):
    degree, cycles = REFERENCE_GROUPS[name]
    G = group_close(degree, [parse_cycles(c, degree) for c in cycles])
    f = field_make(*fq)
    for seed in range(6):
        _assert_same_table(simples_of(G, f, seed=seed), full_chop_simples(G, f, seed))


# (generators, oracle, seeds).  A5 is chopped in full.  PGL(2,7) takes
# about 1.2 s a seed over GF(2) and 10 s over GF(3) and GF(4), so it runs
# over GF(2) at the seeds whose chop finds the trivial module last, where
# simples_of stops early.
LARGER_GROUPS = {
    "A5": ((5, ["(0 1 2 3 4)", "(0 1 2)"]), full_chop_simples, range(6)),
    "PGL27": ((8, ["(0 1 2 3 4 5 6)", "(1 3 2 6 4 5)", "(0 7)(1 6)(2 3)(4 5)"]),
              brauer_chop_simples, (2, 3, 4)),
}


@pytest.mark.parametrize("name,fq", [("A5", (2, 1)), ("A5", (3, 1)), ("A5", (2, 2)),
                                     ("PGL27", (2, 1))])
def test_simples_of_equals_the_chop_on_larger_groups(name, fq):
    (degree, cycles), oracle, seeds = LARGER_GROUPS[name]
    G = group_close(degree, [parse_cycles(c, degree) for c in cycles])
    f = field_make(*fq)
    for seed in seeds:
        table = simples_of(G, f, seed=seed)
        _assert_same_table(table, oracle(G, f, seed))
        if name == "PGL27":
            assert table.trivial_label() == table.labels[-1]


def test_simples_of_stops_at_brauer_count(monkeypatch):
    degree, cycles = REFERENCE_GROUPS["S4xC2"]
    G = group_close(degree, [parse_cycles(c, degree) for c in cycles])
    f2 = field_make(2, 1)
    calls = Counter()
    irreducible = meataxe.is_irreducible

    def counted(M, seed=0):
        calls[mode] += 1
        return irreducible(M, seed=seed)

    monkeypatch.setattr(meataxe, "is_irreducible", counted)
    mode = "full"
    assert len(composition_factors(regular_rep(G, f2))) == 32
    mode = "table"
    assert simples_of(G, f2).count == 2  # l(S4 x C2) at p = 2
    assert calls["table"] < calls["full"]
    mode = "brauer"
    assert [S.dim for S in brauer_chop_simples(G, f2, 0)] == [2, 1]
    # the 2-dimensional simple comes first, so the trivial module is the
    # only one left: the table stops with it instead of chopping on to it
    assert (calls["table"], calls["brauer"]) == (3, 16)
