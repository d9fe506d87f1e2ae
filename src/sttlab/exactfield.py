"""Exact arithmetic in GF(p^m) and dense linear algebra over it.

A field element with coefficient vector (c0, ..., c_{m-1}) over GF(p) is
stored as the integer code sum(c_i * p^i).  All arithmetic goes through
precomputed q x q tables, so whole-array operations are single numpy
fancy-index gathers.  For p = 2 the codes are bit masks and addition is
a plain XOR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "Field",
    "Scalar",
    "Matrix",
    "Poly",
    "field_make",
    "linsolve",
    "LinSolveResult",
    "minpoly",
    "charpoly",
    "rank",
    "nullspace",
    "rref",
    "RowSpace",
]

_MAX_Q = 4096
_FIELD_CACHE: dict[tuple[int, int], "Field"] = {}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# polynomials over GF(p) with plain int coefficients, used only to find the
# field modulus (everything else runs on codes through Poly below)

def _gfp_trim(c):
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def _gfp_divmod(a, b, p):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv_lb = pow(lb, p - 2, p)
    q = [0] * max(0, len(a) - db)
    while len(_gfp_trim(a)) - 1 >= db:
        a = _gfp_trim(a)
        shift = len(a) - 1 - db
        coef = (a[-1] * inv_lb) % p
        q[shift] = coef
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * bc) % p
    return q, _gfp_trim(a)


def _gfp_irreducible(c, p):
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(c) - 1
    for e in range(1, deg // 2 + 1):
        for tail in range(p**e):
            d, rest = [], tail
            for _ in range(e):
                d.append(rest % p)
                rest //= p
            d.append(1)
            _, r = _gfp_divmod(c, d, p)
            if not r:
                return False
    return True


def _least_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Monic irreducible of degree m over GF(p) with the least low-coefficient
    code sum(c_i p^i); degree 1 yields the polynomial x."""
    for code in range(p**m):
        coeffs, rest = [], code
        for _ in range(m):
            coeffs.append(rest % p)
            rest //= p
        coeffs.append(1)
        if _gfp_irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError("no irreducible polynomial found")  # pragma: no cover


class Field:
    """GF(p^m) with table-driven arithmetic on integer element codes."""

    __slots__ = ("p", "m", "q", "modulus", "dtype", "ADD", "MUL", "NEG", "INV",
                 "_digits")

    def __init__(self, p: int, m: int):
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        q = p**m
        if q > _MAX_Q:
            raise ValueError(f"field size {q} exceeds supported bound {_MAX_Q}")
        self.p = p
        self.m = m
        self.q = q
        self.modulus = _least_irreducible(p, m)
        self.dtype = np.uint8 if q <= 256 else np.uint16

        mod_low = self.modulus[:m]  # x^m = -mod_low as coefficient vectors
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

        add = np.zeros((q, q), dtype=self.dtype)
        mul = np.zeros((q, q), dtype=self.dtype)
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
        self.ADD = add
        self.MUL = mul
        neg = np.zeros(q, dtype=self.dtype)
        for a in range(q):
            ca = decode(a)
            neg[a] = encode([(-x) % p for x in ca])
        self.NEG = neg
        inv = np.zeros(q, dtype=self.dtype)
        for a in range(1, q):
            b = int(np.nonzero(mul[a] == 1)[0][0])
            inv[a] = b
        self.INV = inv
        self._digits = None

    # -- scalar helpers on raw codes -------------------------------------
    def add(self, a: int, b: int) -> int:
        return int(self.ADD[a, b])

    def sub(self, a: int, b: int) -> int:
        return int(self.ADD[a, self.NEG[b]])

    def mul(self, a: int, b: int) -> int:
        return int(self.MUL[a, b])

    def neg(self, a: int) -> int:
        return int(self.NEG[a])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return int(self.INV[a])

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        r, b = 1, a
        while e:
            if e & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            e >>= 1
        return r

    def frob(self, a: int, i: int = 1) -> int:
        """i-fold Frobenius a -> a^(p^i); negative i inverts it."""
        i %= self.m
        return self.pow(a, self.p**i)

    def scalar(self, value) -> "Scalar":
        if isinstance(value, Scalar):
            if value.field is not self:
                raise ValueError("scalar from a different field")
            return value
        if isinstance(value, (tuple, list)):
            if len(value) != self.m:
                raise ValueError("coefficient vector has wrong length")
            code = 0
            for c in reversed(value):
                code = code * self.p + (int(c) % self.p)
            return Scalar(self, code)
        code = int(value)
        if not 0 <= code < self.q:
            raise ValueError(f"element code {code} out of range for GF({self.q})")
        return Scalar(self, code)

    @property
    def zero(self) -> "Scalar":
        return Scalar(self, 0)

    @property
    def one(self) -> "Scalar":
        return Scalar(self, 1)

    def elements(self):
        return [Scalar(self, c) for c in range(self.q)]

    # -- vectorised helpers on ndarray of codes --------------------------
    def arr_add(self, x, y):
        if self.p == 2:
            return np.bitwise_xor(x, y)
        return self.ADD[x, y]

    def arr_sub(self, x, y):
        if self.p == 2:
            return np.bitwise_xor(x, y)
        return self.ADD[x, self.NEG[y]]

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"


def field_make(p: int, m: int) -> Field:
    """GF(p^m) with the deterministic least irreducible modulus (cached)."""
    key = (p, m)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = Field(p, m)
    return _FIELD_CACHE[key]


class Scalar:
    """Element of a Field, identified by its integer code."""

    __slots__ = ("field", "code")

    def __init__(self, field: Field, code: int):
        self.field = field
        self.code = int(code)

    @property
    def coeffs(self) -> tuple[int, ...]:
        c, rest = [], self.code
        for _ in range(self.field.m):
            c.append(rest % self.field.p)
            rest //= self.field.p
        return tuple(c)

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise ValueError("field mismatch")
            return other
        return self.field.scalar(other)

    def __add__(self, other):
        o = self._coerce(other)
        return Scalar(self.field, self.field.add(self.code, o.code))

    def __sub__(self, other):
        o = self._coerce(other)
        return Scalar(self.field, self.field.sub(self.code, o.code))

    def __mul__(self, other):
        o = self._coerce(other)
        return Scalar(self.field, self.field.mul(self.code, o.code))

    def __neg__(self):
        return Scalar(self.field, self.field.neg(self.code))

    def __truediv__(self, other):
        o = self._coerce(other)
        return Scalar(self.field, self.field.mul(self.code, self.field.inv(o.code)))

    def inverse(self) -> "Scalar":
        return Scalar(self.field, self.field.inv(self.code))

    def __pow__(self, e: int):
        return Scalar(self.field, self.field.pow(self.code, e))

    def __bool__(self):
        return self.code != 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.code == other
        return (
            isinstance(other, Scalar)
            and self.field == other.field
            and self.code == other.code
        )

    def __hash__(self):
        return hash((self.field.p, self.field.m, self.code))

    def __repr__(self):
        return ":".join(str(c) for c in self.coeffs)


class Matrix:
    """Dense matrix over a Field; entries live in a numpy code array."""

    __slots__ = ("field", "a")

    def __init__(self, field: Field, a: np.ndarray):
        if a.ndim != 2:
            raise ValueError("matrix array must be 2-dimensional")
        self.field = field
        self.a = np.ascontiguousarray(a, dtype=field.dtype)

    # -- constructors ------------------------------------------------------
    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, np.zeros((rows, cols), dtype=field.dtype))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, np.eye(n, dtype=field.dtype))

    @classmethod
    def from_rows(cls, field: Field, rows) -> "Matrix":
        """Rows of entries given as codes, coefficient tuples or Scalars."""
        data = [[field.scalar(x).code for x in row] for row in rows]
        ncols = {len(r) for r in data}
        if len(ncols) > 1:
            raise ValueError("ragged rows")
        arr = np.array(data, dtype=field.dtype)
        if arr.size == 0:
            arr = arr.reshape(len(data), ncols.pop() if ncols else 0)
        return cls(field, arr)

    # -- shape -------------------------------------------------------------
    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic ----------------------------------------------------------
    def _check(self, other: "Matrix"):
        if self.field != other.field:
            raise ValueError("field mismatch")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        return Matrix(self.field, self.field.arr_add(self.a, other.a))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        return Matrix(self.field, self.field.arr_sub(self.a, other.a))

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, self.field.NEG[self.a])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        return Matrix(self.field, _matmul(self.field, self.a, other.a))

    def scale(self, s) -> "Matrix":
        c = self.field.scalar(s).code
        return Matrix(self.field, self.field.MUL[c, self.a])

    @property
    def T(self) -> "Matrix":
        return Matrix(self.field, self.a.T)

    def entry(self, i: int, j: int) -> Scalar:
        return Scalar(self.field, int(self.a[i, j]))

    def is_zero(self) -> bool:
        return not self.a.any()

    def copy(self) -> "Matrix":
        return Matrix(self.field, self.a.copy())

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        res = linsolve(self, Matrix.identity(self.field, self.rows))
        if res.particular is None or res.rank < self.rows:
            raise ValueError("matrix is singular")
        return res.particular

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.shape == other.shape
            and np.array_equal(self.a, other.a)
        )

    def __hash__(self):  # pragma: no cover - used only for dict keys in caches
        return hash((self.field.p, self.field.m, self.shape, self.a.tobytes()))

    def __repr__(self):
        body = "; ".join(
            ",".join(str(Scalar(self.field, int(v))) for v in row) for row in self.a
        )
        return f"Matrix({self.field}, {self.rows}x{self.cols}: {body})"


# ---------------------------------------------------------------------------
# raw ndarray kernels
#
# Products take one of two exact regimes, chosen by field and shape alone.
# Over characteristic 2 a product of at most _GATHER_LIMIT scalar products
# is one table gather followed by an XOR reduction (adding codes is XOR).
# Everything else runs on base-p coefficient planes in float64 BLAS, which
# is exact while every accumulated sum stays below 2^53.

_GATHER_LIMIT = 1 << 15
_EXACT_FLOAT = 1 << 53


def _digits(f: Field) -> np.ndarray:
    """digits[code] holds the m base-p coefficients of a code, as float64;
    built on first use."""
    if f._digits is None:
        place = f.p ** np.arange(f.m)
        f._digits = ((np.arange(f.q)[:, None] // place) % f.p).astype(np.float64)
    return f._digits


def _matmul(f: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    n, r = A.shape
    r2, k = B.shape
    if r != r2:
        raise ValueError("matmul dimension mismatch")
    if n == 0 or k == 0 or r == 0:
        return np.zeros((n, k), dtype=f.dtype)
    if f.p == 2 and n * r * k <= _GATHER_LIMIT:
        return np.bitwise_xor.reduce(f.MUL[A[:, :, None], B[None, :, :]], axis=1)
    p, m = f.p, f.m
    if r * m * (p - 1) ** 2 >= _EXACT_FLOAT:
        raise ValueError(f"inner dimension {r} too large for an exact product over {f}")
    if m == 1:
        prod = (A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64)
        prod %= p  # an integer % costs less than np.fmod on float64
        return prod.astype(f.dtype)
    digits = _digits(f)
    place = p ** np.arange(m)  # p^a is both the code of x^a and a place value
    # A B = sum_a A_a (x^a B), where A_a is coefficient plane a of A: one
    # BLAS product of the planes of A, side by side, with the planes of
    # x^a B, stacked, gives every coefficient plane of the result.
    Ap = np.moveaxis(digits[A], 2, 1).reshape(n, m * r)
    Bp = digits[f.MUL[place[:, None, None], B]].reshape(m * r, k * m)
    planes = Ap @ Bp
    # in place: an integer copy of the planes would raise the peak memory
    np.fmod(planes, p, out=planes)
    return (planes.reshape(n, k, m) @ place).astype(f.dtype)


def _rref(f: Field, A: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (R, pivot column list)."""
    if f.q == 2:
        return _rref_gf2(A)
    R = A.copy()
    nrows, ncols = R.shape
    MUL, INV, NEG, ADD = f.MUL, f.INV, f.NEG, f.ADD
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(R[r:, c])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            R[[r, piv]] = R[[piv, r]]
        pv = int(R[r, c])
        if pv != 1:
            R[r, c:] = MUL[INV[pv], R[r, c:]]
        rows = np.flatnonzero(R[:, c])
        rows = rows[rows != r]
        if rows.size:
            if f.p == 2:
                R[rows, c:] ^= MUL[R[rows, c][:, None], R[r, c:]]
            else:
                R[rows, c:] = ADD[R[rows, c:], MUL[R[rows, c][:, None], NEG[R[r, c:]]]]
        pivots.append(c)
        r += 1
    return R, pivots


def _rref_gf2(A: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """_rref over GF(2) on rows packed 64 columns to a word: column c is bit
    c % 64 of word c // 64, so clearing a column is one XOR of word slices."""
    nrows, ncols = A.shape
    W = np.zeros((nrows, -(-ncols // 64) * 8), dtype=np.uint8)
    W[:, : -(-ncols // 8)] = np.packbits(A, axis=1, bitorder="little")
    W = W.view("<u8")
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        w, bit = divmod(c, 64)
        col = (W[:, w] >> np.uint64(bit)) & np.uint64(1)
        nz = np.flatnonzero(col[r:])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            W[[r, piv]] = W[[piv, r]]
            col[[r, piv]] = col[[piv, r]]
        col[r] = 0
        rows = np.flatnonzero(col)
        if rows.size:
            W[rows, w:] ^= W[r, w:]
        pivots.append(c)
        r += 1
    R = np.unpackbits(W.view(np.uint8), axis=1, count=ncols, bitorder="little")
    return R.astype(A.dtype, copy=False), pivots


def _nullspace(f: Field, A: np.ndarray) -> np.ndarray:
    """Columns form a basis of ker(A) in F^cols."""
    R, pivots = _rref(f, A)
    return _kernel_from_rref(f, R, pivots)


def _kernel_from_rref(f: Field, R: np.ndarray, pivots: list[int]) -> np.ndarray:
    """Columns form a basis of ker(R) for R in reduced row echelon form."""
    ncols = R.shape[1]
    piv = np.asarray(pivots, dtype=np.intp)
    is_free = np.ones(ncols, dtype=bool)
    is_free[piv] = False
    free = np.flatnonzero(is_free)
    N = np.zeros((ncols, free.size), dtype=f.dtype)
    N[free, np.arange(free.size)] = 1
    N[piv] = f.NEG[R[: piv.size][:, free]]
    return N


def rref(M: Matrix) -> tuple[Matrix, list[int]]:
    R, piv = _rref(M.field, M.a)
    return Matrix(M.field, R), piv


def rank(M: Matrix) -> int:
    return len(_rref(M.field, M.a)[1])


def nullspace(M: Matrix) -> Matrix:
    return Matrix(M.field, _nullspace(M.field, M.a))


@dataclass
class LinSolveResult:
    rank: int
    particular: Optional[Matrix]
    nullspace_basis: Matrix


def linsolve(A: Matrix, B: Matrix) -> LinSolveResult:
    """Solve A X = B; nullspace_basis spans ker A (B may have 0 columns)."""
    if A.field != B.field:
        raise ValueError("field mismatch")
    if A.rows != B.rows:
        raise ValueError(f"row mismatch: A has {A.rows}, B has {B.rows}")
    f = A.field
    aug = np.concatenate([A.a, B.a], axis=1)
    R, pivots = _rref(f, aug)
    a_pivots = [c for c in pivots if c < A.cols]
    rk = len(a_pivots)
    consistent = len(pivots) == rk  # no pivot falls into the B block
    particular = None
    if consistent:
        X = np.zeros((A.cols, B.cols), dtype=f.dtype)
        for i, pc in enumerate(a_pivots):
            X[pc, :] = R[i, A.cols:]
        particular = Matrix(f, X)
    # The left block of the RREF of [A | B] is the RREF of A.
    null = _kernel_from_rref(f, R[:, : A.cols], a_pivots)
    return LinSolveResult(rank=rk, particular=particular, nullspace_basis=Matrix(f, null))


class RowSpace:
    """Subspace of F^width held as fully reduced rows, one pivot each.

    Every row has a 1 at its own pivot and a 0 at every other row's pivot,
    so matrix(), the rows sorted by pivot, is the reduced row echelon form
    of the space.  A space built from rows is echelonised by one _rref and
    holds its rows in pivot order; add() keeps the invariant and appends in
    insertion order.
    """

    def __init__(self, field: Field, width: int, rows=None):
        self.f = field
        self.width = width
        self.rows = np.zeros((0, width), dtype=field.dtype)
        self.pivots: list[int] = []
        if rows is not None:
            rows = np.asarray(rows, dtype=field.dtype).reshape(len(rows), width)
            R, self.pivots = _rref(field, rows)
            self.rows = R[: len(self.pivots)]

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce(self, X) -> np.ndarray:
        """Normal form of one vector, or of each row of a stack: X minus
        X[:, pivots] times the rows, zero exactly where X lies in the space."""
        f = self.f
        X = np.asarray(X).astype(f.dtype)
        if not self.pivots:
            return X
        X2 = np.atleast_2d(X)
        return f.arr_sub(X2, _matmul(f, X2[:, self.pivots], self.rows)).reshape(X.shape)

    def contains(self, X) -> bool:
        """Whether the vector, or every row of the stack, lies in the space."""
        return not self.reduce(X).any()

    def add(self, v) -> bool:
        """Extend the space by v; False when v already lies in it."""
        f = self.f
        r = self.reduce(v)
        nz = np.flatnonzero(r)
        if nz.size == 0:
            return False
        p = int(nz[0])
        if r[p] != 1:
            r = f.MUL[f.inv(int(r[p])), r]
        # back-substitute to keep the collection fully reduced
        col = self.rows[:, p]
        if col.any():
            self.rows = f.arr_sub(self.rows, f.MUL[col[:, None], r])
        self.rows = np.concatenate([self.rows, r[None, :]])
        self.pivots.append(p)
        return True

    def matrix(self) -> np.ndarray:
        """The rows sorted by pivot: the reduced row echelon form."""
        return self.rows[np.argsort(self.pivots)]


class _EchelonTracker:
    """Echelonised row collection that reports dependencies with coefficients.

    add(v) returns None when v enlarges the span, else the coefficient vector
    expressing v in terms of the previously added (original) rows.
    """

    def __init__(self, field: Field):
        self.f = field
        self.rows: list[np.ndarray] = []
        self.combos: list[np.ndarray] = []
        self.pivots: list[int] = []
        self.count = 0

    def add(self, v: np.ndarray):
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


# ---------------------------------------------------------------------------
# univariate polynomials over the field (codes, little-endian)

class Poly:
    """Univariate polynomial with Field-code coefficients, low degree first."""

    __slots__ = ("field", "c")

    def __init__(self, field: Field, coeffs):
        c = [field.scalar(x).code if not isinstance(x, (int, np.integer)) else int(x)
             for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.field = field
        self.c = tuple(c)

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, [])

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, [1])

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls(field, [0, 1])

    @property
    def degree(self) -> int:
        return len(self.c) - 1

    def is_zero(self) -> bool:
        return not self.c

    def is_one(self) -> bool:
        return self.c == (1,)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.c == other.c
        )

    def __hash__(self):
        return hash((self.field.p, self.field.m, self.c))

    def __add__(self, other: "Poly") -> "Poly":
        f = self.field
        n = max(len(self.c), len(other.c))
        a = list(self.c) + [0] * (n - len(self.c))
        b = list(other.c) + [0] * (n - len(other.c))
        return Poly(f, [f.add(x, y) for x, y in zip(a, b)])

    def __sub__(self, other: "Poly") -> "Poly":
        f = self.field
        n = max(len(self.c), len(other.c))
        a = list(self.c) + [0] * (n - len(self.c))
        b = list(other.c) + [0] * (n - len(other.c))
        return Poly(f, [f.sub(x, y) for x, y in zip(a, b)])

    def __mul__(self, other: "Poly") -> "Poly":
        f = self.field
        if self.is_zero() or other.is_zero():
            return Poly.zero(f)
        out = [0] * (len(self.c) + len(other.c) - 1)
        for i, x in enumerate(self.c):
            if x:
                for j, y in enumerate(other.c):
                    if y:
                        out[i + j] = f.add(out[i + j], f.mul(x, y))
        return Poly(f, out)

    def scale(self, s) -> "Poly":
        f = self.field
        code = f.scalar(s).code
        return Poly(f, [f.mul(code, x) for x in self.c])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.c[-1]
        if lead == 1:
            return self
        return self.scale(self.field.inv(lead))

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        f = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        a = list(self.c)
        db = other.degree
        inv_lead = f.inv(other.c[-1])
        if len(a) - 1 < db:
            return Poly.zero(f), self
        q = [0] * (len(a) - db)
        for k in range(len(a) - 1, db - 1, -1):
            coef = f.mul(a[k], inv_lead)
            if coef:
                q[k - db] = coef
                for i, bc in enumerate(other.c):
                    a[k - db + i] = f.sub(a[k - db + i], f.mul(coef, bc))
        return Poly(f, q), Poly(f, a[:db])

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def lcm(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        return ((self * other) // self.gcd(other)).monic()

    def pow_mod(self, e: int, mod: "Poly") -> "Poly":
        result = Poly.one(self.field)
        base = self % mod
        while e:
            if e & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            e >>= 1
        return result

    def derivative(self) -> "Poly":
        f = self.field
        out = []
        for i in range(1, len(self.c)):
            coef = 0
            for _ in range(i % f.p):
                coef = f.add(coef, self.c[i])
            out.append(coef)
        return Poly(f, out)

    def pth_root(self) -> "Poly":
        """Inverse of the Frobenius on a polynomial of the form g(x^p)."""
        f = self.field
        out = []
        for i in range(0, len(self.c), f.p):
            out.append(f.frob(self.c[i], -1))
        return Poly(f, out)

    def eval_matrix(self, A: Matrix) -> Matrix:
        f = self.field
        n = A.rows
        acc = Matrix.zeros(f, n, n)
        eye = Matrix.identity(f, n)
        for coef in reversed(self.c):
            acc = (acc @ A) + eye.scale(coef)
        return acc

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.c):
            if c:
                terms.append(f"{Scalar(self.field, c)}*x^{i}")
        return "Poly(" + " + ".join(terms) + ")"


# ---------------------------------------------------------------------------
# factorisation over GF(q): squarefree + distinct-degree + equal-degree

def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    field = f.field
    f = f.monic()
    out: list[tuple[Poly, int]] = []
    if f.degree < 1:
        return out
    c = f.gcd(f.derivative())
    w = f // c
    i = 1
    while not w.is_one():
        y = w.gcd(c)
        z = w // y
        if not z.is_one():
            out.append((z, i))
        w = y
        c = c // y
        i += 1
    if not c.is_one():
        for g, j in squarefree_decomposition(c.pth_root()):
            out.append((g, j * field.p))
    return out


def _distinct_degree(f: Poly) -> list[tuple[Poly, int]]:
    """f squarefree monic; returns (product of irreducible factors, degree)."""
    field = f.field
    out = []
    h = Poly.x(field)
    rest = f
    d = 0
    while rest.degree > 0 and 2 * (d + 1) <= rest.degree:
        d += 1
        h = h.pow_mod(field.q, rest)
        g = rest.gcd(h - Poly.x(field))
        if g.degree > 0:
            out.append((g, d))
            rest = rest // g
            h = h % rest
    if rest.degree > 0:
        out.append((rest, rest.degree))
    return out


def _equal_degree(f: Poly, d: int, rng) -> list[Poly]:
    """Cantor-Zassenhaus split of a product of degree-d irreducibles."""
    field = f.field
    if f.degree == d:
        return [f]
    while True:
        r = Poly(field, [rng.randrange(field.q) for _ in range(f.degree)])
        if r.degree < 1:
            continue
        g = f.gcd(r)
        if 0 < g.degree < f.degree:
            pass  # lucky split straight from the gcd
        elif field.p == 2:
            t = Poly.zero(field)
            acc = r % f
            for _ in range(field.m * d):
                t = t + acc
                acc = (acc * acc) % f
            g = f.gcd(t)
        else:
            e = (field.q**d - 1) // 2
            s = r.pow_mod(e, f)
            g = f.gcd(s - Poly.one(field))
        if 0 < g.degree < f.degree:
            left = _equal_degree(g.monic(), d, rng)
            right = _equal_degree((f // g).monic(), d, rng)
            return left + right


def factor(f: Poly, rng) -> list[tuple[Poly, int]]:
    """Monic irreducible factors with multiplicities, deterministically sorted."""
    out: list[tuple[Poly, int]] = []
    for g, mult in squarefree_decomposition(f):
        for h, d in _distinct_degree(g):
            for irr in _equal_degree(h.monic(), d, rng):
                out.append((irr.monic(), mult))
    out.sort(key=lambda t: (t[0].degree, t[0].c))
    return out


# ---------------------------------------------------------------------------

def charpoly(A: Matrix) -> Poly:
    """Monic characteristic polynomial, as the product of the relative
    minimal polynomials along a cyclic Krylov chain decomposition."""
    if not A.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    f = A.field
    n = A.rows
    if n == 0:
        return Poly.one(f)
    tracker = _EchelonTracker(f)
    total = Poly.one(f)
    for start in range(n):
        e = np.zeros(n, dtype=f.dtype)
        e[start] = 1
        chain_base = tracker.count
        v = e
        chain_len = 0
        while True:
            dep = tracker.add(v.copy())
            if dep is not None:
                if chain_len == 0:
                    break  # start vector already covered
                rel = [int(dep[chain_base + j]) for j in range(chain_len)] + [1]
                total = total * Poly(f, rel)
                break
            chain_len += 1
            v = _matmul(f, A.a, v[:, None])[:, 0]
        if total.degree == n:
            break
    if total.degree != n:
        raise AssertionError("characteristic polynomial has the wrong degree")
    return total


def minpoly(A: Matrix) -> Poly:
    """Monic minimal polynomial of a square matrix."""
    if not A.is_square():
        raise ValueError("minimal polynomial of a non-square matrix")
    f = A.field
    n = A.rows
    if n == 0:
        return Poly.one(f)
    total = Poly.one(f)
    covered = _EchelonTracker(f)
    for start in range(n):
        e = np.zeros(n, dtype=f.dtype)
        e[start] = 1
        if covered.add(e.copy()) is not None:
            continue
        tracker = _EchelonTracker(f)
        v = e
        local = None
        while True:
            dep = tracker.add(v.copy())
            if dep is not None:
                # The tracker invariant is 0 = sum_j dep[j] A^j e with
                # dep[k] = 1, so the local minimal polynomial is x^k +
                # sum_{j<k} dep[j] x^j.
                local = Poly(f, list(dep))
                break
            v = _matmul(f, A.a, v[:, None])[:, 0]
            covered.add(v.copy())
        total = total.lcm(local)
        if total.degree == n:
            break
    if not total.eval_matrix(A).is_zero():
        raise AssertionError("minimal polynomial failed to annihilate")
    return total
