"""Property tests of the raw field kernels against two independent references.

The reference implementations below are the per-column product, the
unpacked column-by-column elimination and the vector-by-vector Krylov
polynomials that the vectorised kernels replaced; the kernels must agree
with them bit for bit, dtype included.  Over prime fields they are also
checked against sympy's DomainMatrix over GF(p).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from sttlab import exactfield
from sttlab.exactfield import (
    Matrix,
    Poly,
    RowSpace,
    _matmul,
    _nullspace,
    _rref,
    charpoly,
    field_make,
    linsolve,
    minpoly,
)

# GF(2), GF(4), GF(3), GF(9), GF(16) and GF(2^9), whose codes need uint16.
FIELDS = [(2, 1), (2, 2), (3, 1), (3, 2), (2, 4), (2, 9)]


# ---------------------------------------------------------------------------
# reference kernels

def ref_matmul(f, A, B):
    n, r = A.shape
    r2, m = B.shape
    if r != r2:
        raise ValueError("matmul dimension mismatch")
    out = np.zeros((n, m), dtype=f.dtype)
    if n == 0 or m == 0 or r == 0:
        return out
    MUL = f.MUL
    if f.p == 2:
        for k in range(r):
            col = A[:, k]
            nz = np.nonzero(col)[0]
            if nz.size:
                out[nz] ^= MUL[col[nz, None], B[k][None, :]]
    else:
        ADD = f.ADD
        for k in range(r):
            col = A[:, k]
            nz = np.nonzero(col)[0]
            if nz.size:
                out[nz] = ADD[out[nz], MUL[col[nz, None], B[k][None, :]]]
    return out


def ref_rref(f, A):
    R = A.copy()
    nrows, ncols = R.shape
    MUL, INV, NEG = f.MUL, f.INV, f.NEG
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        col = R[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            R[[r, piv]] = R[[piv, r]]
        pv = int(R[r, c])
        if pv != 1:
            R[r, c:] = MUL[INV[pv], R[r, c:]]
        colv = R[:, c].copy()
        colv[r] = 0
        rows = np.nonzero(colv)[0]
        if rows.size:
            upd = MUL[colv[rows, None], R[r, c:][None, :]]
            if f.p == 2:
                R[np.ix_(rows, np.arange(c, ncols))] ^= upd
            else:
                R[np.ix_(rows, np.arange(c, ncols))] = f.ADD[
                    R[np.ix_(rows, np.arange(c, ncols))], NEG[upd]
                ]
        pivots.append(c)
        r += 1
    return R, pivots


def ref_nullspace(f, A):
    ncols = A.shape[1]
    R, pivots = ref_rref(f, A)
    free = [c for c in range(ncols) if c not in pivots]
    N = np.zeros((ncols, len(free)), dtype=f.dtype)
    for j, fc in enumerate(free):
        N[fc, j] = 1
        for i, pc in enumerate(pivots):
            N[pc, j] = f.NEG[R[i, fc]]
    return N


class RefRowSpace:
    """Row-by-row span: every add and reduce subtracts one stored row at a
    time, in insertion order."""

    def __init__(self, f, width):
        self.f = f
        self.width = width
        self.rows = []
        self.pivots = []

    def reduce(self, v):
        f = self.f
        r = v.astype(f.dtype).copy()
        for row, p in zip(self.rows, self.pivots):
            c = int(r[p])
            if c:
                r = f.arr_sub(r, f.MUL[c, row])
        return r

    def add(self, v):
        f = self.f
        r = self.reduce(v)
        nz = np.nonzero(r)[0]
        if nz.size == 0:
            return False
        p = int(nz[0])
        if r[p] != 1:
            r = f.MUL[f.inv(int(r[p])), r]
        for i, row in enumerate(self.rows):
            c = int(row[p])
            if c:
                self.rows[i] = f.arr_sub(row, f.MUL[c, r])
        self.rows.append(r)
        self.pivots.append(p)
        return True

    def contains(self, v):
        return not self.reduce(v).any()

    def matrix(self):
        if not self.rows:
            return np.zeros((0, self.width), dtype=self.f.dtype)
        order = np.argsort(self.pivots)
        return np.array([self.rows[i] for i in order], dtype=self.f.dtype)


class RefEchelonTracker:
    """Echelonised row collection that reports dependencies with coefficients.

    add(v) returns None when v enlarges the span, else the coefficient vector
    expressing v in terms of the previously added (original) rows.
    """

    def __init__(self, f):
        self.f = f
        self.rows = []
        self.combos = []
        self.pivots = []
        self.count = 0

    def add(self, v):
        f = self.f
        r = v.astype(f.dtype).copy()
        combo = np.zeros(self.count + 1, dtype=f.dtype)
        combo[self.count] = 1
        for row, crow, p in zip(self.rows, self.combos, self.pivots):
            c = int(r[p])
            if c:
                r = f.arr_sub(r, f.MUL[c, row])
                combo[: len(crow)] = f.arr_sub(combo[: len(crow)], f.MUL[c, crow])
        self.count += 1
        nz = np.nonzero(r)[0]
        if nz.size == 0:
            return combo
        p = int(nz[0])
        pc = int(r[p])
        if pc != 1:
            inv = f.inv(pc)
            r = f.MUL[inv, r]
            combo = f.MUL[inv, combo]
        self.rows.append(r)
        self.combos.append(combo)
        self.pivots.append(p)
        return None


def ref_charpoly(f, A):
    """Product of the relative minimal polynomials along a cyclic Krylov
    chain decomposition, one vector at a time."""
    n = A.shape[0]
    tracker = RefEchelonTracker(f)
    total = Poly.one(f)
    for start in range(n):
        v = np.zeros(n, dtype=f.dtype)
        v[start] = 1
        chain_base = tracker.count
        chain_len = 0
        while True:
            dep = tracker.add(v)
            if dep is not None:
                if chain_len:
                    rel = [int(dep[chain_base + j]) for j in range(chain_len)] + [1]
                    total = total * Poly(f, rel)
                break
            chain_len += 1
            v = ref_matmul(f, A, v[:, None])[:, 0]
        if total.degree == n:
            break
    return total


def ref_minpoly(f, A):
    """Least common multiple of the minimal polynomials of the unit vectors
    that the Krylov chains so far do not cover, one vector at a time."""
    n = A.shape[0]
    total = Poly.one(f)
    covered = RefEchelonTracker(f)
    for start in range(n):
        e = np.zeros(n, dtype=f.dtype)
        e[start] = 1
        if covered.add(e) is not None:
            continue
        tracker = RefEchelonTracker(f)
        v = e
        while True:
            dep = tracker.add(v)
            if dep is not None:
                local = Poly(f, list(dep))
                break
            v = ref_matmul(f, A, v[:, None])[:, 0]
            covered.add(v)
        total = ((total * local) // total.gcd(local)).monic()
        if total.degree == n:
            break
    return total


def ref_eval_matrix(f, poly, A):
    """poly(A) by Horner's rule on whole matrices."""
    n = A.shape[0]
    acc = np.zeros((n, n), dtype=f.dtype)
    eye = np.eye(n, dtype=f.dtype)
    for coef in reversed(poly.c):
        acc = f.ADD[ref_matmul(f, acc, A), f.MUL[coef, eye]]
    return acc


def sympy_matrix(f, A):
    K = GF(f.p, symmetric=False)
    return DomainMatrix([[K(int(x)) for x in row] for row in A], A.shape, K)


def sympy_array(f, D):
    return np.array([[int(x) for x in row] for row in D.to_list()],
                    dtype=f.dtype).reshape(D.shape)


# ---------------------------------------------------------------------------
# strategies

fields = st.sampled_from(FIELDS).map(lambda pm: field_make(*pm))
seeds = st.integers(0, 2**32 - 1)
# Sides from empty through single rows and columns to past 120.
sides = st.one_of(st.sampled_from([0, 1, 2, 63, 64, 65, 120, 129]),
                  st.integers(0, 140))


def random_matrix(f, rng, rows, cols, rank=None):
    """Uniform codes, or a product of random factors when rank is given, so
    that elimination meets dependent rows and columns without pivots."""
    if rank is None:
        return rng.integers(0, f.q, (rows, cols)).astype(f.dtype)
    return ref_matmul(f, random_matrix(f, rng, rows, rank),
                      random_matrix(f, rng, rank, cols))


@st.composite
def products(draw):
    f = draw(fields)
    n, r, m = draw(sides), draw(sides), draw(sides)
    rng = np.random.default_rng(draw(seeds))
    return f, random_matrix(f, rng, n, r), random_matrix(f, rng, r, m)


@st.composite
def matrices(draw):
    f = draw(fields)
    rows, cols = draw(sides), draw(sides)
    rank = draw(st.none() | st.integers(0, min(rows, cols)))
    rng = np.random.default_rng(draw(seeds))
    return f, random_matrix(f, rng, rows, cols, rank)


# ---------------------------------------------------------------------------
# _matmul

def check_matmul(f, A, B):
    A0, B0 = A.copy(), B.copy()
    out = _matmul(f, A, B)
    assert out.dtype == f.dtype
    assert not np.shares_memory(out, A) and not np.shares_memory(out, B)
    assert np.array_equal(A, A0) and np.array_equal(B, B0)
    assert np.array_equal(out, ref_matmul(f, A, B))
    return out


@settings(max_examples=80)
@given(products())
def test_matmul_matches_reference(case):
    check_matmul(*case)


@pytest.mark.parametrize("p,m", FIELDS)
@pytest.mark.parametrize("n,r,k", [
    (32, 32, 32),    # exactly at the gather limit 2^15
    (32, 32, 33),    # one scalar product past it
    (1, 200, 1),     # inner products only
    (200, 1, 200),   # outer product
    (0, 5, 3), (4, 0, 3), (4, 5, 0),
])
def test_matmul_shapes_around_the_gather_limit(p, m, n, r, k):
    f = field_make(p, m)
    rng = np.random.default_rng(n * 1000 + r * 10 + k)
    check_matmul(f, random_matrix(f, rng, n, r), random_matrix(f, rng, r, k))


def test_matmul_accepts_strided_views():
    f = field_make(3, 2)
    rng = np.random.default_rng(5)
    A = random_matrix(f, rng, 35, 70)
    B = random_matrix(f, rng, 90, 50)
    out = check_matmul(f, A.T, B[::2, ::-1][:35])
    assert out.shape == (70, 50)


def test_matmul_rejects_inexact_inner_dimension():
    # Stride-0 views: the shape passes the dimension check but the guard
    # must refuse before any arithmetic, since float64 sums would round.
    f = field_make(3, 1)
    A = np.broadcast_to(np.ones(1, dtype=f.dtype), (1, 2**51))
    B = np.broadcast_to(np.ones(1, dtype=f.dtype), (2**51, 1))
    with pytest.raises(ValueError, match="exact"):
        _matmul(f, A, B)


def int_mul(f, a, b):
    """a * b in GF(p^m) on Python ints: the base-p digits multiplied as
    polynomials and reduced by the field's modulus, no tables."""
    p, m = f.p, f.m
    x = [a // p**i % p for i in range(m)]
    y = [b // p**i % p for i in range(m)]
    prod = [0] * (2 * m - 1)
    for i, u in enumerate(x):
        for j, v in enumerate(y):
            prod[i + j] += u * v
    for d in range(2 * m - 2, m - 1, -1):  # x^m = -(c_0 + ... + c_(m-1) x^(m-1))
        t, prod[d] = prod[d], 0
        for i, c in enumerate(f.modulus[:m]):
            prod[d - m + i] -= t * c
    return sum(c % p * p**i for i, c in enumerate(prod[:m]))


def int_matmul(f, A, B):
    p, m = f.p, f.m
    out = np.zeros((A.shape[0], B.shape[1]), dtype=f.dtype)
    for i, row in enumerate(A.tolist()):
        for j, col in enumerate(B.T.tolist()):
            digits = [0] * m
            for a, b in zip(row, col):
                c = int_mul(f, a, b)
                for d in range(m):
                    digits[d] += c // p**d % p
            out[i, j] = sum(c % p * p**d for d, c in enumerate(digits))
    return out


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_matmul_matches_python_int_arithmetic(p, m):
    f = field_make(p, m)
    rng = np.random.default_rng(p * 10 + m)
    for n, r, k in [(1, 1, 1), (3, 5, 2), (7, 33, 6), (2, 120, 3), (12, 12, 12), (40, 9, 40)]:
        A, B = random_matrix(f, rng, n, r), random_matrix(f, rng, r, k)
        assert np.array_equal(_matmul(f, A, B), int_matmul(f, A, B))


def test_matmul_float32_exactness_boundary():
    # GF(4093), built outside the field cache so its tables go with the test:
    # 4092^2 < 2^24 <= 2 * 4092^2, so one product of 4092s may run in
    # float32 and a sum of two must not.
    f = exactfield.Field(4093, 1)
    assert exactfield._blas_dtype(f, 1) is np.float32
    assert exactfield._blas_dtype(f, 2) is np.float64
    for r in (1, 2):
        A = np.full((1, r), 4092, dtype=f.dtype)
        B = np.full((r, 1), 4092, dtype=f.dtype)
        assert int(_matmul(f, A, B)[0, 0]) == r * 4092**2 % 4093
        assert np.array_equal(_matmul(f, A, B), int_matmul(f, A, B))


def test_matmul_rejects_mismatched_shapes():
    f = field_make(2, 2)
    with pytest.raises(ValueError, match="mismatch"):
        _matmul(f, np.zeros((2, 3), dtype=f.dtype), np.zeros((2, 3), dtype=f.dtype))


@settings(max_examples=25)
@given(st.sampled_from([2, 3]), st.integers(0, 40), st.integers(0, 40),
       st.integers(0, 40), seeds)
def test_matmul_matches_sympy_over_prime_fields(p, n, r, k, seed):
    f = field_make(p, 1)
    rng = np.random.default_rng(seed)
    A, B = random_matrix(f, rng, n, r), random_matrix(f, rng, r, k)
    expected = sympy_array(f, sympy_matrix(f, A).matmul(sympy_matrix(f, B)))
    assert np.array_equal(_matmul(f, A, B), expected)


# ---------------------------------------------------------------------------
# _rref and _nullspace

@settings(max_examples=80)
@given(matrices())
def test_rref_matches_reference(case):
    f, A = case
    A0 = A.copy()
    R, pivots = _rref(f, A)
    R0, pivots0 = ref_rref(f, A)
    assert pivots == pivots0
    assert R.dtype == A.dtype
    assert not np.shares_memory(R, A)
    assert np.array_equal(A, A0)
    assert np.array_equal(R, R0)


@pytest.mark.parametrize("cols", [1, 63, 64, 65, 127, 130, 200])
def test_rref_gf2_word_boundaries(cols):
    f = field_make(2, 1)
    rng = np.random.default_rng(cols)
    for rank in (None, cols // 2):
        A = random_matrix(f, rng, 150, cols, rank)
        R, pivots = _rref(f, A)
        R0, pivots0 = ref_rref(f, A)
        assert pivots == pivots0 and R.dtype == A.dtype
        assert np.array_equal(R, R0)


def _rref_cases(f, rng, bound):
    """Shapes on both sides of the list-path cell bound, empty ones, and
    rank-deficient and repeated-row inputs."""
    for rows, cols in [(0, 0), (0, 7), (7, 0), (1, 1), (1, bound), (1, bound + 1),
                       (bound, 1), (16, 16), (16, 17), (9, 30), (12, 40), (30, 30)]:
        yield random_matrix(f, rng, rows, cols)
        if rows and cols:
            yield random_matrix(f, rng, rows, cols, min(rows, cols) // 2)
            A = random_matrix(f, rng, rows, cols)
            A[rows // 2:] = A[0]
            yield A


@pytest.mark.parametrize("p,m", [pm for pm in FIELDS if pm[0] ** pm[1] <= 256])
@pytest.mark.parametrize("path", ["lists", "numpy"])
def test_rref_both_paths_match_reference(p, m, path, monkeypatch):
    f = field_make(p, m)
    rng = np.random.default_rng(p * 100 + m)
    cases = list(_rref_cases(f, rng, exactfield._LIST_CELLS))
    if path == "numpy":
        monkeypatch.setattr(exactfield, "_LIST_CELLS", -1)
    for A in cases:
        A0 = A.copy()
        R, pivots = _rref(f, A)
        R0, pivots0 = ref_rref(f, A)
        assert pivots == pivots0 and R.dtype == A.dtype
        assert np.array_equal(R, R0) and R.shape == A.shape
        assert not np.shares_memory(R, A)
        assert np.array_equal(A, A0)


def test_rref_path_follows_cells_and_field(monkeypatch):
    taken = []
    for name in ("_rref_lists", "_rref_bits"):
        real = getattr(exactfield, name)
        monkeypatch.setattr(exactfield, name,
                            lambda *args, name=name, real=real: taken.append(name) or real(*args))
    bound, rows = exactfield._LIST_CELLS, exactfield._BIT_ROWS
    for p, m in FIELDS:
        f = field_make(p, m)
        for shape in [(1, bound), (bound, 1), (16, 16), (1, bound + 1), (16, 17),
                      (rows, 3), (rows + 1, 3)]:
            taken.clear()
            A = np.ones(shape, dtype=f.dtype)
            assert _rref(f, A)[1] == [0]
            if f.q == 2 and shape[0] <= rows:
                assert taken == ["_rref_bits"]
            elif f.q <= 256 and A.size <= bound:
                assert taken == ["_rref_lists"]
            else:
                assert taken == []


def _gf2_cases(f, rng):
    """1 to 200 rows and 1 to 300 columns, widths off the byte and word
    boundaries, uniform, rank-deficient, zero and repeated rows."""
    for rows, cols in [(1, 1), (1, 300), (3, 7), (8, 8), (9, 63), (17, 65), (64, 64),
                       (100, 129), (128, 300), (129, 5), (200, 1), (200, 300), (50, 255)]:
        yield random_matrix(f, rng, rows, cols)
        yield random_matrix(f, rng, rows, cols, min(rows, cols) // 2)
        A = random_matrix(f, rng, rows, cols)
        A[::3] = 0
        A[1::3] = A[-1]
        yield A


def test_rref_bits_matches_packed_words_and_sympy():
    f = field_make(2, 1)
    rng = np.random.default_rng(24)
    for A in _gf2_cases(f, rng):
        A0 = A.copy()
        R, pivots = exactfield._rref_bits(A)
        R0, pivots0 = exactfield._rref_gf2(A)
        assert pivots == pivots0 and R.dtype == A.dtype and R.shape == A.shape
        assert np.array_equal(R, R0) and np.array_equal(A, A0)
        if A.size <= 10000:  # sympy's own elimination is slow beyond this
            D, dpivots = sympy_matrix(f, A).rref()
            assert pivots == list(dpivots)
            assert np.array_equal(R[: D.shape[0]], sympy_array(f, D))
            assert not R[D.shape[0]:].any()


@settings(max_examples=40)
@given(st.integers(1, 200), st.integers(1, 300), st.none() | st.integers(0, 200), seeds)
def test_rref_bits_matches_packed_words(rows, cols, rank, seed):
    f = field_make(2, 1)
    rng = np.random.default_rng(seed)
    A = random_matrix(f, rng, rows, cols, None if rank is None else min(rank, rows, cols))
    R, pivots = exactfield._rref_bits(A)
    R0, pivots0 = exactfield._rref_gf2(A)
    assert pivots == pivots0 and np.array_equal(R, R0)


def test_rref_bits_empty_shapes():
    f = field_make(2, 1)
    for shape in [(0, 0), (0, 9), (9, 0)]:
        R, pivots = exactfield._rref_bits(np.zeros(shape, dtype=f.dtype))
        assert pivots == [] and R.shape == shape and R.dtype == f.dtype


@settings(max_examples=60)
@given(matrices())
def test_nullspace_matches_reference(case):
    f, A = case
    N = _nullspace(f, A)
    assert N.dtype == f.dtype
    assert np.array_equal(N, ref_nullspace(f, A))
    assert not ref_matmul(f, A, N).any()


@settings(max_examples=25)
@given(st.sampled_from([2, 3]), st.integers(0, 30), st.integers(0, 30),
       st.none() | st.integers(0, 30), seeds)
def test_rref_and_nullspace_match_sympy_over_prime_fields(p, rows, cols, rank, seed):
    f = field_make(p, 1)
    rng = np.random.default_rng(seed)
    rank = None if rank is None else min(rank, rows, cols)
    A = random_matrix(f, rng, rows, cols, rank)
    R, pivots = _rref(f, A)
    D, dpivots = sympy_matrix(f, A).rref()
    expected = np.zeros_like(A)
    expected[: D.shape[0]] = sympy_array(f, D)
    assert pivots == list(dpivots)
    assert np.array_equal(R, expected)
    # sympy may scale its kernel basis differently, so compare the spans.
    N = _nullspace(f, A)
    K = sympy_matrix(f, A).nullspace()
    assert N.shape == K.shape[::-1]
    assert np.array_equal(ref_rref(f, N.T.copy())[0], ref_rref(f, sympy_array(f, K))[0])


# ---------------------------------------------------------------------------
# linsolve

@settings(max_examples=50)
@given(matrices(), st.integers(0, 4), seeds, st.booleans())
def test_linsolve_matches_reference(case, bcols, seed, consistent):
    f, A = case
    rng = np.random.default_rng(seed)
    if consistent:
        B = ref_matmul(f, A, random_matrix(f, rng, A.shape[1], bcols))
    else:
        B = random_matrix(f, rng, A.shape[0], bcols)
    res = linsolve(Matrix(f, A), Matrix(f, B))

    R, pivots = ref_rref(f, np.concatenate([A, B], axis=1))
    a_pivots = [c for c in pivots if c < A.shape[1]]
    assert res.rank == len(a_pivots)
    assert np.array_equal(res.nullspace_basis.a, ref_nullspace(f, A))
    if len(pivots) > len(a_pivots):
        assert res.particular is None
    else:
        X = res.particular.a
        assert X.dtype == f.dtype
        assert np.array_equal(ref_matmul(f, A, X), B)
        for i, pc in enumerate(a_pivots):
            assert np.array_equal(X[pc], R[i, A.shape[1]:])


# ---------------------------------------------------------------------------
# RowSpace

# GF(2), GF(4) and GF(3): the packed, the gather and the BLAS product paths.
SPAN_FIELDS = [(2, 1), (2, 2), (3, 1)]
span_fields = st.sampled_from(SPAN_FIELDS).map(lambda pm: field_make(*pm))
span_sides = st.one_of(st.sampled_from([0, 1, 2, 64, 65]), st.integers(0, 24))


@st.composite
def spans(draw):
    """Rows of a span with dependent and zero rows mixed in, plus a stack of
    probe vectors, half of them drawn from the span."""
    f = draw(span_fields)
    rows, width = draw(span_sides), draw(span_sides)
    rank = draw(st.none() | st.integers(0, min(rows, width)))
    rng = np.random.default_rng(draw(seeds))
    A = random_matrix(f, rng, rows, width, rank)
    if rows:
        A[rng.integers(0, rows)] = 0
    probes = draw(st.integers(0, 6))
    X = random_matrix(f, rng, probes, width)
    X[: probes // 2] = ref_matmul(f, random_matrix(f, rng, probes // 2, rows),
                                  A)
    return f, A, X


@settings(max_examples=80)
@given(spans())
def test_rowspace_one_shot_equals_incremental_add(case):
    f, A, _ = case
    width = A.shape[1]
    ref, inc = RefRowSpace(f, width), RowSpace(f, width)
    flags = [inc.add(A[i]) for i in range(A.shape[0])]
    assert flags == [ref.add(A[i]) for i in range(A.shape[0])]
    assert inc.pivots == ref.pivots
    assert inc.rows.shape == (len(ref.rows), width)
    assert all(np.array_equal(a, b) for a, b in zip(inc.rows, ref.rows))

    one = RowSpace(f, width, A)
    R, pivots = ref_rref(f, A)
    assert one.pivots == pivots == sorted(inc.pivots)
    assert one.dim == inc.dim == len(pivots)
    for space in (one, inc):
        M = space.matrix()
        assert M.dtype == f.dtype
        assert np.array_equal(M, ref.matrix())
        assert np.array_equal(M, R[: len(pivots)])


@settings(max_examples=80)
@given(spans())
def test_rowspace_stacked_reduce_equals_row_by_row(case):
    f, A, X = case
    width = A.shape[1]
    ref = RefRowSpace(f, width)
    for i in range(A.shape[0]):
        ref.add(A[i])
    X0 = X.copy()
    for space in (RowSpace(f, width, A), RowSpace(f, width, list(A))):
        out = space.reduce(X)
        assert out.dtype == f.dtype and out.shape == X.shape
        assert not np.shares_memory(out, X)
        for i in range(X.shape[0]):
            expect = ref.reduce(X[i])
            assert np.array_equal(out[i], expect)
            assert np.array_equal(space.reduce(X[i]), expect)
            assert space.contains(X[i]) == ref.contains(X[i])
        assert space.contains(X) == all(ref.contains(x) for x in X)
        assert space.contains(X[: X.shape[0] // 2])
    assert np.array_equal(X, X0)


@pytest.mark.parametrize("p,m", SPAN_FIELDS)
def test_rowspace_edge_cases(p, m):
    f = field_make(p, m)
    # no rows, from None or from an empty stack or list
    for space in (RowSpace(f, 3), RowSpace(f, 3, np.zeros((0, 3), dtype=f.dtype)),
                  RowSpace(f, 3, [])):
        assert space.dim == 0 and space.pivots == []
        assert space.matrix().shape == (0, 3)
        v = np.array([1, 0, 2 % f.q], dtype=f.dtype)
        assert np.array_equal(space.reduce(v), v)
        assert not space.contains(v)
        assert space.contains(np.zeros(3, dtype=f.dtype))
        assert space.contains(np.zeros((0, 3), dtype=f.dtype))
    # width zero
    for space in (RowSpace(f, 0), RowSpace(f, 0, np.zeros((4, 0), dtype=f.dtype))):
        assert space.dim == 0 and space.matrix().shape == (0, 0)
        assert not space.add(np.zeros(0, dtype=f.dtype))
        assert space.contains(np.zeros((2, 0), dtype=f.dtype))
    # zero and dependent rows add nothing
    rows = np.array([[0, 0, 0], [0, 1, 1], [0, 0, 0], [0, 1, 1]], dtype=f.dtype)
    one = RowSpace(f, 3, rows)
    assert one.dim == 1 and one.pivots == [1]
    inc = RowSpace(f, 3)
    assert [inc.add(r) for r in rows] == [False, True, False, False]
    assert np.array_equal(inc.matrix(), one.matrix())
    # a later pivot to the left is cleared from the earlier rows
    assert inc.add(np.array([1, 1, 0], dtype=f.dtype))
    assert inc.pivots == [1, 0]
    assert np.array_equal(inc.matrix(), RowSpace(f, 3, [[1, 1, 0], [0, 1, 1]]).matrix())
    assert inc.matrix()[0, 1] == 0


# ---------------------------------------------------------------------------
# minpoly and charpoly

# GF(2), GF(4), GF(3) and GF(9): both characteristics, prime and not.
POLY_FIELDS = [(2, 1), (2, 2), (3, 1), (3, 2)]
KINDS = ["dense", "scalar", "jordan", "repeated", "conjugated"]


def square_matrix(f, rng, n, kind):
    """An n x n matrix of one of KINDS: uniform codes; lambda I; Jordan blocks
    of random sizes whose eigenvalues repeat; one small random block repeated
    down the diagonal; or P (lambda I + N) P^-1 with N strictly upper
    triangular, so that the minimal polynomial is a power of t - lambda."""
    lam = int(rng.integers(0, f.q))
    eye = np.eye(n, dtype=f.dtype)
    if kind == "dense":
        return random_matrix(f, rng, n, n)
    if kind == "scalar":
        return f.MUL[lam, eye]
    A = np.zeros((n, n), dtype=f.dtype)
    if kind == "jordan":
        eigen = rng.integers(0, f.q, 2)
        i = 0
        while i < n:
            size = int(rng.integers(1, n - i + 1))
            block = slice(i, i + size)
            A[block, block] = f.MUL[int(rng.choice(eigen)), np.eye(size, dtype=f.dtype)]
            A[np.arange(i, i + size - 1), np.arange(i + 1, i + size)] = 1
            i += size
        return A
    if kind == "repeated":
        b = int(rng.integers(1, 4))
        B = random_matrix(f, rng, b, b)
        for i in range(0, n - n % b, b):
            A[i:i + b, i:i + b] = B
        A[n - n % b:, n - n % b:] = f.MUL[lam, np.eye(n % b, dtype=f.dtype)]
        return A
    base = f.ADD[f.MUL[lam, eye], np.triu(random_matrix(f, rng, n, n), 1)]
    while True:
        P = random_matrix(f, rng, n, n)
        if len(ref_rref(f, P)[1]) == n:
            break
    Pinv = linsolve(Matrix(f, P), Matrix(f, eye)).particular.a
    return ref_matmul(f, ref_matmul(f, P, base), Pinv)


@st.composite
def square_matrices(draw):
    f = field_make(*draw(st.sampled_from(POLY_FIELDS)))
    n = draw(st.integers(0, 24))
    kind = draw(st.sampled_from(KINDS))
    return f, square_matrix(f, np.random.default_rng(draw(seeds)), n, kind)


@settings(max_examples=120)
@given(square_matrices())
def test_minpoly_and_charpoly_match_reference(case):
    f, A = case
    A0 = A.copy()
    M = Matrix(f, A)
    cp, mp = charpoly(M), minpoly(M)
    assert np.array_equal(A, A0)
    assert cp == ref_charpoly(f, A)
    assert mp == ref_minpoly(f, A)
    assert cp.degree == A.shape[0] and (cp % mp).is_zero()


@pytest.mark.parametrize("p,m", POLY_FIELDS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 24])
def test_minpoly_and_charpoly_every_kind_and_size(p, m, kind, n):
    f = field_make(p, m)
    A = square_matrix(f, np.random.default_rng(100 * n + KINDS.index(kind)), n, kind)
    assert charpoly(Matrix(f, A)) == ref_charpoly(f, A)
    assert minpoly(Matrix(f, A)) == ref_minpoly(f, A)


@settings(max_examples=25)
@given(st.sampled_from([2, 3]), st.integers(0, 24), st.sampled_from(KINDS), seeds)
def test_charpoly_matches_sympy_over_prime_fields(p, n, kind, seed):
    f = field_make(p, 1)
    A = square_matrix(f, np.random.default_rng(seed), n, kind)
    expected = [int(c) for c in sympy_matrix(f, A).charpoly()]
    assert charpoly(Matrix(f, A)).c == tuple(reversed(expected))


@settings(max_examples=60)
@given(square_matrices(), st.lists(st.integers(0, 8), max_size=6))
def test_eval_matrix_matches_reference(case, codes):
    f, A = case
    poly = Poly(f, [c % f.q for c in codes])
    out = poly.eval_matrix(Matrix(f, A)).a
    assert out.dtype == f.dtype
    assert np.array_equal(out, ref_eval_matrix(f, poly, A))


# ---------------------------------------------------------------------------
# the kernel seam

def test_kernels_are_bound_only_in_exactfield():
    """Every other module calls the kernels as attributes of exactfield, so
    rebinding exactfield's names swaps the kernel for the whole library
    (test_pipeline_oracle.py).  meataxe keeps one unused _rref binding,
    which the benchmark tracer's tests read."""
    import sys

    import sttlab.cli  # noqa: F401  (imports every module)

    kernels = [getattr(exactfield, name)
               for name in ("_matmul", "_rref", "_nullspace", "_kernel_from_rref")]
    held = sorted((modname, attr) for modname, mod in list(sys.modules.items())
                  if modname.split(".")[0] == "sttlab" and modname != "sttlab.exactfield"
                  for attr, value in vars(mod).items()
                  if any(value is kernel for kernel in kernels))
    assert held == [("sttlab.meataxe", "_rref")]
