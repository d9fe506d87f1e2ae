import random

import numpy as np
import pytest
from sympy import Poly as SymPoly, symbols

from sttlab.exactfield import (
    Matrix,
    Poly,
    charpoly,
    factor,
    field_make,
    linsolve,
    minpoly,
    nullspace,
    rank,
)


# ---------------------------------------------------------------------------
# an independent oracle: naive Gaussian elimination on scalar objects,
# written before the vectorized kernel and kept deliberately dumb

def oracle_rank(field, rows):
    rows = [[field.scalar(x) for x in r] for r in rows]
    rk = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rk < len(rows) and col < ncols:
        piv = None
        for i in range(rk, len(rows)):
            if rows[i][col].code != 0:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        inv = rows[rk][col].inverse()
        rows[rk] = [inv * x for x in rows[rk]]
        for i in range(len(rows)):
            if i != rk and rows[i][col].code != 0:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[rk])]
        rk += 1
        col += 1
    return rk


def test_field_make_gf2():
    f = field_make(2, 1)
    assert f.modulus == (0, 1)  # the degree-one convention: modulus x
    assert f.q == 2


def test_field_make_gf4_modulus_and_arithmetic():
    f = field_make(2, 2)
    assert f.modulus == (1, 1, 1)  # x^2 + x + 1, the unique choice
    w = f.scalar((0, 1))
    assert (w * w).coeffs == (1, 1)  # w^2 = w + 1
    assert w.inverse().coeffs == (1, 1)
    assert (w * w.inverse()).code == 1


def test_field_rejects_bad_parameters():
    with pytest.raises(ValueError):
        field_make(4, 1)
    with pytest.raises(ValueError):
        field_make(2, 0)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 6)])
def test_field_axioms_exhaustive(p, m):
    """Associativity, distributivity and inverses checked over every
    element triple (vectorized; fields up to 64 elements)."""
    f = field_make(p, m)
    q = f.q
    codes = np.arange(q, dtype=f.dtype)
    a = codes[:, None, None]
    b = codes[None, :, None]
    c = codes[None, None, :]
    assert np.array_equal(f.ADD[f.ADD[a, b], c], f.ADD[a, f.ADD[b, c]])
    assert np.array_equal(f.MUL[f.MUL[a, b], c], f.MUL[a, f.MUL[b, c]])
    assert np.array_equal(f.MUL[a, f.ADD[b, c]], f.ADD[f.MUL[a, b], f.MUL[a, c]])
    assert np.array_equal(f.ADD[codes, f.NEG[codes]], np.zeros(q, dtype=f.dtype))
    nz = codes[1:]
    assert np.array_equal(f.MUL[nz, f.INV[nz]], np.ones(q - 1, dtype=f.dtype))
    # commutativity and the multiplicative group order
    assert np.array_equal(f.MUL[a[:, :, 0], b[:, :, 0]], f.MUL[b[:, :, 0], a[:, :, 0]])
    for g in range(1, q):
        order = 1
        x = g
        while x != 1:
            x = f.mul(x, g)
            order += 1
        assert (q - 1) % order == 0


def test_linsolve_identity(f4):
    I3 = Matrix.identity(f4, 3)
    res = linsolve(I3, I3)
    assert res.rank == 3
    assert res.particular == I3
    assert res.nullspace_basis.cols == 0


def test_linsolve_equal_rows_gf2():
    f2 = field_make(2, 1)
    A = Matrix.from_rows(f2, [[1, 1], [1, 1]])
    res = linsolve(A, Matrix.zeros(f2, 2, 0))
    assert res.rank == 1
    assert res.nullspace_basis.cols == 1
    assert res.nullspace_basis.a[:, 0].tolist() == [1, 1]


def test_linsolve_rank_against_oracle(f4):
    rng = random.Random(0)
    for _ in range(20):
        rows = [[rng.randrange(4) for _ in range(5)] for _ in range(5)]
        A = Matrix.from_rows(f4, rows)
        res = linsolve(A, Matrix.zeros(f4, 5, 0))
        assert res.rank == oracle_rank(f4, rows)
        assert res.rank + res.nullspace_basis.cols == 5
        if res.nullspace_basis.cols:
            prod = A @ res.nullspace_basis
            assert prod.is_zero()


def test_linsolve_particular_solves(f4):
    rng = random.Random(1)
    for _ in range(10):
        A = Matrix.from_rows(f4, [[rng.randrange(4) for _ in range(4)] for _ in range(6)])
        X = Matrix.from_rows(f4, [[rng.randrange(4) for _ in range(2)] for _ in range(4)])
        B = A @ X
        res = linsolve(A, B)
        assert res.particular is not None
        assert (A @ res.particular) == B


def test_linsolve_inconsistent(f4):
    A = Matrix.from_rows(f4, [[1, 0], [1, 0]])
    B = Matrix.from_rows(f4, [[1], [2]])
    res = linsolve(A, B)
    assert res.particular is None
    assert res.rank == 1


def test_linsolve_dimension_mismatch(f4):
    with pytest.raises(ValueError):
        linsolve(Matrix.identity(f4, 2), Matrix.identity(f4, 3))


def test_minpoly_standard_forms(f4):
    assert minpoly(Matrix.zeros(f4, 3, 3)).c == (0, 1)          # x
    assert minpoly(Matrix.identity(f4, 3)).c == (1, 1)          # x - 1 = x + 1
    J = Matrix.from_rows(f4, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert minpoly(J).c == (0, 0, 0, 1)                         # x^3
    with pytest.raises(ValueError):
        minpoly(Matrix.zeros(f4, 2, 3))


def test_minpoly_annihilates_and_is_minimal():
    f9 = field_make(3, 2)
    rng = random.Random(3)
    for _ in range(8):
        A = Matrix.from_rows(
            f9, [[rng.randrange(9) for _ in range(4)] for _ in range(4)]
        )
        mp = minpoly(A)
        assert mp.eval_matrix(A).is_zero()
        # minimality: no proper monic divisor annihilates
        facs = factor(mp, random.Random(0))
        for g, mult in facs:
            quotient = mp // g
            assert not quotient.eval_matrix(A).is_zero() or quotient.is_one()


def test_charpoly_cayley_hamilton_and_divisibility():
    f5 = field_make(5, 1)
    rng = random.Random(9)
    for n in (1, 2, 3, 5):
        A = Matrix.from_rows(
            f5, [[rng.randrange(5) for _ in range(n)] for _ in range(n)]
        )
        cp = charpoly(A)
        assert cp.degree == n
        assert cp.eval_matrix(A).is_zero()
        assert (cp % minpoly(A)).is_zero()  # minpoly divides charpoly


def test_poly_factor_roundtrip():
    f4 = field_make(2, 2)
    rng = random.Random(5)
    for _ in range(10):
        coeffs = [rng.randrange(4) for _ in range(rng.randrange(2, 7))] + [1]
        p = Poly(f4, coeffs)
        facs = factor(p, rng)
        prod = Poly.one(f4)
        for g, mult in facs:
            for _ in range(mult):
                prod = prod * g
        assert prod == p.monic()
        for g, _ in facs:
            # each factor is irreducible: no root-free proper divisor check
            # needed beyond degree 1..deg/2 trial division
            for d in range(1, g.degree // 2 + 1):
                for tail in range(f4.q ** d):
                    cand, rest = [], tail
                    for _ in range(d):
                        cand.append(rest % f4.q)
                        rest //= f4.q
                    cand.append(1)
                    assert not (g % Poly(f4, cand)).is_zero()


def test_scalar_serialization_order(f4):
    s = f4.scalar((1, 0))
    assert s.code == 1
    t = f4.scalar((0, 1))
    assert t.code == 2
    assert repr(t) == "0:1"


def test_nullspace_zero_rows(f4):
    A = Matrix.zeros(f4, 0, 3)
    N = nullspace(A)
    assert N.shape == (3, 3)
    assert rank(Matrix(f4, N.a.T.copy())) == 3


# ---------------------------------------------------------------------------
# field construction against a reference builder: trial division for the
# modulus and schoolbook arithmetic on coefficient vectors for every pair

def _ref_trim(c):
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def _ref_divmod(a, b, p):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv_lb = pow(lb, p - 2, p)
    q = [0] * max(0, len(a) - db)
    while len(_ref_trim(a)) - 1 >= db:
        a = _ref_trim(a)
        shift = len(a) - 1 - db
        coef = (a[-1] * inv_lb) % p
        q[shift] = coef
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * bc) % p
    return q, _ref_trim(a)


def _ref_irreducible(c, p):
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(c) - 1
    for e in range(1, deg // 2 + 1):
        for tail in range(p**e):
            d, rest = [], tail
            for _ in range(e):
                d.append(rest % p)
                rest //= p
            d.append(1)
            _, r = _ref_divmod(c, d, p)
            if not r:
                return False
    return True


def _ref_least_irreducible(p, m):
    for code in range(p**m):
        coeffs, rest = [], code
        for _ in range(m):
            coeffs.append(rest % p)
            rest //= p
        coeffs.append(1)
        if _ref_irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError("no irreducible polynomial found")


def ref_field_tables(p, m):
    """(modulus, ADD, MUL, NEG, INV, dtype) of GF(p^m), one pair of codes at
    a time."""
    q = p**m
    modulus = _ref_least_irreducible(p, m)
    dtype = np.uint8 if q <= 256 else np.uint16
    mod_low = modulus[:m]

    def decode(code):
        c, rest = [0] * m, code
        for i in range(m):
            c[i] = rest % p
            rest //= p
        return c

    def encode(c):
        code = 0
        for i in reversed(range(m)):
            code = code * p + c[i]
        return code

    add = np.zeros((q, q), dtype=dtype)
    mul = np.zeros((q, q), dtype=dtype)
    for a in range(q):
        ca = decode(a)
        for b in range(a, q):
            cb = decode(b)
            s = encode([(x + y) % p for x, y in zip(ca, cb)])
            add[a, b] = s
            add[b, a] = s
        for b in range(a, q):
            cb = decode(b)
            prod = [0] * (2 * m - 1)
            for i, x in enumerate(ca):
                if x:
                    for j, y in enumerate(cb):
                        prod[i + j] = (prod[i + j] + x * y) % p
            for k in range(2 * m - 2, m - 1, -1):  # reduce x^k via modulus
                coef = prod[k]
                if coef:
                    prod[k] = 0
                    for i, mc in enumerate(mod_low):
                        prod[k - m + i] = (prod[k - m + i] - coef * mc) % p
            v = encode(prod[:m])
            mul[a, b] = v
            mul[b, a] = v
    neg = np.zeros(q, dtype=dtype)
    for a in range(q):
        neg[a] = encode([(-x) % p for x in decode(a)])
    inv = np.zeros(q, dtype=dtype)
    for a in range(1, q):
        inv[a] = int(np.nonzero(mul[a] == 1)[0][0])
    return modulus, add, mul, neg, inv, dtype


_SMALL_PRIME_POWERS = [(p, m) for p in (2, 3, 5, 7, 11, 13) for m in range(2, 9)
                       if p**m <= 256]
_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


@pytest.mark.parametrize("p,m", _SMALL_PRIME_POWERS + [(p, 1) for p in _SMALL_PRIMES])
def test_field_tables_match_reference_builder(p, m):
    f = field_make(p, m)
    modulus, add, mul, neg, inv, dtype = ref_field_tables(p, m)
    assert f.modulus == modulus
    assert f.dtype is dtype
    for got, want in ((f.ADD, add), (f.MUL, mul), (f.NEG, neg), (f.INV, inv)):
        assert got.dtype == dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("p,m", [(2, 10), (2, 12), (3, 7), (5, 5), (7, 4)])
def test_large_field_modulus_and_axioms(p, m):
    t = symbols("t")
    f = field_make(p, m)
    q = f.q
    assert f.dtype is np.uint16 and f.ADD.shape == f.MUL.shape == (q, q)

    def sym(coeffs):  # low degree first
        return SymPoly(list(reversed(coeffs)), t, modulus=p)

    assert len(f.modulus) == m + 1 and f.modulus[m] == 1
    assert sym(f.modulus).is_irreducible
    least = sum(c * p**i for i, c in enumerate(f.modulus[:m]))
    for code in range(least):  # the modulus is the least irreducible code
        low = [code // p**i % p for i in range(m)]
        assert not sym(low + [1]).is_irreducible
    codes = np.arange(q)
    assert not f.ADD[codes, f.NEG].any()
    assert np.all(f.MUL[codes[1:], f.INV[1:]] == 1)
    rng = np.random.default_rng(0)
    a, b, c = rng.integers(0, q, size=(3, 20000))
    assert np.array_equal(f.MUL[a, f.ADD[b, c]], f.ADD[f.MUL[a, b], f.MUL[a, c]])
    assert np.array_equal(f.MUL[f.MUL[a, b], c], f.MUL[a, f.MUL[b, c]])
