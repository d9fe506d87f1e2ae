"""The homomorphism-law certificate and where it runs.

rep_make is the one place the law is certified.  These tests run the same
routine on the output of every derived constructor, show that checking the
generator rows rejects exactly the tuples an all-pairs oracle rejects, and
check that a table of all element matrices is built only where every
element is read, and kept by no Rep.
"""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sttlab import grouprep
from sttlab.exactfield import Matrix, field_make, rank
from sttlab.grouprep import (
    Rep,
    _check_homomorphism,
    conjugate_rep,
    direct_sum,
    dual_rep,
    hom_space,
    induce,
    quotient_rep,
    regular_rep,
    rep_make,
    restrict,
    sub_rep,
    trivial_rep,
)
from sttlab.meataxe import _coordinate_slice, decompose, radical_top
from sttlab.permgroup import Perm, group_close, parse_cycles, transversal
from sttlab.taucalc import Tables, ext1, ext_module


def _derived_modules(H, G, f, tables_h, tables_g):
    """Every derived constructor applied to modules of H (normal in G), as
    (name, module) pairs; those that need no simples come first."""
    reg_h, reg_g = regular_rep(H, f), regular_rep(G, f)
    T = transversal(G, H)
    odd = next(g for g in G.elements if g not in H.index)
    ones = Matrix(f, np.ones((1, H.order), dtype=f.dtype))

    def applied(name, M):
        yield name, M
        if M.group is H:
            yield f"induced {name}", induce(M, G, T)
            yield f"conjugate {name}", conjugate_rep(M, odd)
        yield f"dual {name}", dual_rep(M)

    yield from applied("regular H", reg_h)
    yield from applied("regular G", reg_g)
    yield "restricted regular G", restrict(reg_g, H)
    yield "sub of regular H", sub_rep(reg_h, ones)
    yield "quotient of regular H", quotient_rep(reg_h, ones)
    simples = tables_h.simples.simples
    exts = [ext_module(S, T_, cocycle) for S in simples for T_ in simples
            for cocycle in ext1(S, T_, tables_h).cocycles[:1]]
    assert exts
    for i, E in enumerate(exts):
        yield from applied(f"ext {i}", E)
        rt = radical_top(E, tables_h.simples)  # sub_rep and quotient_rep
        yield f"radical of ext {i}", rt.radical
        yield f"top of ext {i}", rt.top
    E = exts[0]
    total = direct_sum([E, reg_h, trivial_rep(H, f)])
    yield "direct sum", total
    induced = induce(E, G, T)
    yield "restricted induced ext", restrict(induced, H)
    off = 0
    for d in total.block_dims:
        yield f"slice {off}:{off + d}", _coordinate_slice(total, off, off + d)
        off += d
    for i, (piece, _) in enumerate(decompose(induced).summands):
        yield f"summand {i}", piece
    for tables in (tables_h, tables_g):
        for i, P in enumerate(tables.pimtable.pims):
            yield f"pim {i} of order {P.group.order}", P


def test_derived_modules_satisfy_the_law_a4_s4(a4, s4, f4, a4_tables, s4_tables):
    for name, M in _derived_modules(a4, s4, f4, a4_tables, s4_tables):
        assert M.dim > 0, name
        _check_homomorphism(M)


def test_derived_modules_satisfy_the_law_c3_s3(c3):
    # On the usual two generators of S3 (or S4), g -> rho(g^-1) without the
    # transpose happens to be a module as well; the redundant generator
    # (0 2) rules that out, so a dual_rep that drops the transpose fails here.
    s3 = _group(["(0 1)", "(0 1 2)", "(0 2)"], 3)
    f3 = field_make(3, 1)
    for name, M in _derived_modules(c3, s3, f3, Tables(c3, f3), Tables(s3, f3)):
        assert M.dim > 0, name
        _check_homomorphism(M)


# ---------------------------------------------------------------------------
# the generator rows against an all-pairs oracle

def _oracle_is_hom(G, f, mats) -> bool:
    """All-pairs check: spread rho over G from rho(1) = I by generator
    products, reject any element reached with two matrices, then require
    rho(x) rho(y) == rho(xy) for every pair."""
    d = mats[0].rows
    rho = {Perm.identity(G.degree): Matrix.identity(f, d)}
    frontier = list(rho)
    while frontier:
        nxt = []
        for x in frontier:
            for a, A in zip(G.generators, mats):
                y, Y = a * x, A @ rho[x]
                if y not in rho:
                    rho[y] = Y
                    nxt.append(y)
                elif rho[y] != Y:
                    return False
        frontier = nxt
    return all(rho[x] @ rho[y] == rho[x * y] for x in rho for y in rho)


def _perm_matrix(f, g, degree):
    arr = np.zeros((degree, degree), dtype=f.dtype)
    for i in range(degree):
        arr[g(i), i] = 1
    return Matrix(f, arr)


def _group(cycles, degree):
    return group_close(degree, [parse_cycles(c, degree) if c else Perm.identity(degree)
                                for c in cycles])


# generator lists with identity and repeated generators among them
ORACLE_GROUPS = [
    (["(0 1)"], 2),
    (["(0 1)", "(0 1)"], 2),
    (["", "(0 1)"], 2),
    (["(0 1 2)"], 3),
    (["(0 1 2)", "(0 2 1)"], 3),
    (["", "(0 1 2)", "(0 1 2)"], 3),
    (["(0 1)", "(0 1 2)"], 3),
    (["(0 1)", "(1 2)"], 3),
    (["(0 1)", "", "(0 1)", "(0 1 2)"], 3),
]


@st.composite
def generator_tuples(draw):
    cycles, degree = draw(st.sampled_from(ORACLE_GROUPS))
    G = _group(cycles, degree)
    f = field_make(draw(st.sampled_from([2, 3])), 1)
    kind = draw(st.sampled_from(["random", "permutation", "twisted", "perturbed"]))
    if kind == "random":
        d = draw(st.integers(1, 3))
        mats = [Matrix(f, np.array(draw(st.lists(st.integers(0, f.q - 1),
                                                 min_size=d * d, max_size=d * d)),
                                   dtype=f.dtype).reshape(d, d))
                for _ in G.generators]
        return G, f, mats
    # the permutation module, conjugated by an invertible matrix
    mats = [_perm_matrix(f, a, degree) for a in G.generators]
    while True:
        entries = draw(st.lists(st.integers(0, f.q - 1),
                                min_size=degree ** 2, max_size=degree ** 2))
        X = Matrix(f, np.array(entries, dtype=f.dtype).reshape(degree, degree))
        if kind == "permutation" or rank(X) == degree:
            break
    if kind != "permutation":
        Xinv = X.inverse()
        mats = [X @ A @ Xinv for A in mats]
    if kind == "perturbed":
        gi = draw(st.integers(0, len(mats) - 1))
        r, c = draw(st.integers(0, degree - 1)), draw(st.integers(0, degree - 1))
        arr = mats[gi].a.copy()
        arr[r, c] = (int(arr[r, c]) + draw(st.integers(1, f.q - 1))) % f.q
        mats[gi] = Matrix(f, arr)
    return G, f, mats


@settings(max_examples=300)
@given(generator_tuples())
def test_generator_rows_certificate_matches_all_pairs_oracle(case):
    G, f, mats = case
    try:
        rep_make(G, f, mats)
        certified = True
    except ValueError:
        certified = False
    assert certified == _oracle_is_hom(G, f, mats)


def test_oracle_and_certificate_on_a_repeated_generator():
    f2 = field_make(2, 1)
    s3 = _group(["(0 1)", "", "(0 1)", "(0 1 2)"], 3)
    good = [_perm_matrix(f2, a, 3) for a in s3.generators]
    assert _oracle_is_hom(s3, f2, good)
    rep_make(s3, f2, good)
    bad = list(good)
    bad[2] = Matrix.identity(f2, 3)  # the repeated generator disagrees
    assert not _oracle_is_hom(s3, f2, bad)
    with pytest.raises(ValueError):
        rep_make(s3, f2, bad)


# ---------------------------------------------------------------------------
# element tables: one per rep_make, kept by no Rep

def test_rep_make_builds_one_table_and_no_rep_keeps_it(a4, s4, f4, cast, monkeypatch):
    builds = []
    build = grouprep._element_table

    def counted(M):
        table = build(M)
        builds.append((M, weakref.ref(table)))
        return table

    monkeypatch.setattr(grouprep, "_element_table", counted)
    reg = regular_rep(a4, f4)
    ones = Matrix(f4, np.ones((1, 12), dtype=f4.dtype))
    derived = [quotient_rep(reg, ones), direct_sum([cast.kS, cast.kT]),
               Rep(a4, f4, direct_sum([cast.kS, cast.k]).gen_mats)]
    duals = []
    for M in derived:
        hom_space(M, M)
        decompose(M)
        duals.append(dual_rep(M))
    # the dual reads rho(a^-1) off the inverse of each generator matrix
    for M, D in zip(derived, duals):
        want = [M.act(a.inverse()).T for a in M.group.generators]
        assert all(X.a.dtype == Y.a.dtype and X.a.tobytes() == Y.a.tobytes()
                   for X, Y in zip(D.gen_mats, want))
    derived.append(induce(cast.kS, s4, transversal(s4, a4)))
    derived.append(restrict(derived[-1], a4))
    assert builds == []
    # rep_make builds one table, of the Rep it returns, and drops it; the
    # table agrees with act on every element
    assert "_element_mats" not in Rep.__slots__
    for M in [derived[3], dual_rep(cast.ST), derived[0]]:
        builds.clear()
        certified = rep_make(M.group, M.field, M.gen_mats, dim=M.dim)
        assert [(R, ref()) for R, ref in builds] == [(certified, None)]
        E = build(certified)
        assert all(np.array_equal(E[i], M.act(i).a) for i in range(M.group.order))
