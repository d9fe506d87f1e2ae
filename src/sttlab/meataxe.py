"""MeatAxe-style structure theory for modules over group algebras.

Irreducibility uses the Norton criterion (spin a nullspace vector of an
irreducible factor of a random algebra element's minimal polynomial, then
the dual criterion on the transposed module).  Direct-sum decompositions
come from Fitting splits along random endomorphisms.  Before any attempt,
a piece is certified indecomposable if its endomorphism algebra is k.1 + N
with N a nilpotent ideal; only when that and the Fitting attempts fail is
the Jacobson radical computed, for the deterministic split off End/J.
Both walks are lazy streams, so the simple and PIM tables stop at their
certificates: l(G) simples (Brauer's count of p-regular classes), one PIM each.
Everything randomized takes a seed, runs on the fixed budget BUDGET (not a
parameter) and raises InconclusiveError instead of ever guessing.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .exactfield import (
    Field,
    Matrix,
    Poly,
    RowSpace,
    charpoly,
    factor,
    linsolve,
    minpoly,
    rank,
    _matmul,
    _nullspace,
    # not called here: perfbench/tests checks that tracing rebinds this name
    _rref,  # noqa: F401
)
from .grouprep import (
    HomBasis,
    InconclusiveError,
    IsoResult,
    Rep,
    check_common,
    hom_space,
    iso_class,
    quotient_rep,
    regular_rep,
    spin,
    sub_rep,
    verify_witness,
)
from .permgroup import Group, p_regular_class_count

__all__ = [
    "SimpleTable",
    "Decomposition",
    "IrredResult",
    "RadicalTop",
    "AddCompare",
    "is_irreducible",
    "composition_factors",
    "chop",
    "simples_of",
    "radical_top",
    "decompose",
    "is_isomorphic",
    "algebra_radical",
    "fitting_kernels",
    "frobenius_fixed_element",
    "add_compare",
]

BUDGET = 64  # random attempts per irreducibility test or decomposition
WORD_LEN = 12  # longest generator word in a random algebra element


# ---------------------------------------------------------------------------
# irreducibility

@dataclass
class IrredResult:
    irreducible: bool
    submodule: Optional[Matrix] = None  # proper invariant row space when reducible

    def __bool__(self) -> bool:
        return self.irreducible


def _random_algebra_element(f: Field, mats, dim: int, rng,
                            max_word: int) -> np.ndarray:
    """Random element of the enveloping algebra: a short sum of random
    generator words with random nonzero coefficients."""
    out = np.zeros((dim, dim), dtype=f.dtype)
    terms = rng.randrange(2, 4)
    for _ in range(terms):
        word_len = rng.randrange(1, max_word + 1)
        w = np.eye(dim, dtype=f.dtype)
        for _ in range(word_len):
            w = _matmul(f, w, mats[rng.randrange(len(mats))])
        c = rng.randrange(1, f.q)
        out = f.arr_add(out, f.MUL[c, w])
    return out


def _is_irreducible_raw(f: Field, mats, dim: int, seed: int, budget: int,
                        max_word: int):
    if dim == 0:
        raise ValueError("irreducibility of the zero module is undefined")
    if dim == 1:
        return True, None
    if not mats:
        # trivial group / algebra spanned by the identity: any coordinate
        # line is invariant
        w = np.zeros((1, dim), dtype=f.dtype)
        w[0, 0] = 1
        return False, w
    matsT = [np.ascontiguousarray(m.T) for m in mats]
    rng = random.Random(seed)
    for _ in range(budget):
        theta = Matrix(f, _random_algebra_element(f, mats, dim, rng, max_word))
        mp = minpoly(theta)
        if mp.degree < 1:
            continue
        facs = []
        for poly, _mult in factor(mp, rng):
            img = poly.eval_matrix(theta)
            null = _nullspace(f, img.a)
            facs.append((poly, img, null))
        # factors whose nullity equals their degree admit the one-vector test
        facs.sort(key=lambda t: (t[2].shape[1] != t[0].degree, t[0].degree))
        for poly, img, null in facs:
            nullity = null.shape[1]
            if nullity == 0:
                continue
            W = spin(mats, null[:, 0][None, :].copy(), f)
            if W.shape[0] < dim:
                return False, W
            if nullity == poly.degree:
                nullT = _nullspace(f, img.a.T.copy())
                Wd = spin(matsT, nullT[:, 0][None, :].copy(), f)
                if Wd.shape[0] < dim:
                    # the annihilator {x : Wd @ x = 0} is a proper submodule
                    return False, RowSpace(f, dim, _nullspace(f, Wd).T).matrix()
                return True, None
            for j in range(1, nullity):
                W = spin(mats, null[:, j][None, :].copy(), f)
                if W.shape[0] < dim:
                    return False, W
            # every kernel vector spins to the whole space but the nullity
            # is too big for Norton's converse; try another element
    raise InconclusiveError("irreducibility test exhausted its randomization budget")


def is_irreducible(M: Rep, seed: int = 0) -> IrredResult:
    mats = [g.a for g in M.gen_mats]
    ok, rows = _is_irreducible_raw(M.field, mats, M.dim, seed, BUDGET, WORD_LEN)
    return IrredResult(ok, None if rows is None else Matrix(M.field, rows))


# ---------------------------------------------------------------------------
# composition series

def _composition_stream(M: Rep, seed: int):
    """composition_factors(M, seed) as a lazy stream, in the same order."""
    if M.dim == 0:
        return
    res = is_irreducible(M, seed=seed)
    if res.irreducible:
        yield M
        return
    W = res.submodule
    yield from _composition_stream(sub_rep(M, W), seed)
    yield from _composition_stream(quotient_rep(M, W), seed)


def composition_factors(M: Rep, seed: int = 0) -> list[Rep]:
    """Irreducible subquotients of M, socle side first within each split."""
    return list(_composition_stream(M, seed))


# ---------------------------------------------------------------------------
# simple modules

@dataclass
class SimpleTable:
    group: Group
    field: Field
    simples: list[Rep]
    labels: list[str]

    @property
    def count(self) -> int:
        return len(self.simples)

    def label_of(self, S: Rep) -> str:
        hit = iso_class(S, self.simples)
        if hit is None:
            raise ValueError("module does not match any simple in the table")
        return self.labels[hit[0]]

    def trivial_label(self) -> str:
        for S, lab in zip(self.simples, self.labels):
            if S.dim == 1 and all(m.a[0, 0] == 1 for m in S.gen_mats):
                return lab
        raise ValueError("no trivial module in the table")  # pragma: no cover


def simples_of(group: Group, field: Field, seed: int = 0) -> SimpleTable:
    """All simple modules, found as composition factors of the regular
    module and labelled in discovery order.  The chop stops once l(G)
    simples are found, as no field of characteristic p has more; over a
    field that does not split G there are fewer, so it runs to the end."""
    bound = p_regular_class_count(group, field.p)
    found: list[Rep] = []
    for F in _composition_stream(regular_rep(group, field), seed):
        if iso_class(F, found) is None:
            found.append(F)
            if len(found) == bound:
                break
    return SimpleTable(group=group, field=field, simples=found,
                       labels=[f"S{i + 1}" for i in range(len(found))])


def chop(M: Rep, table: SimpleTable, seed: int = 0) -> Counter:
    """Composition factor multiset of M as a Counter over simple labels."""
    return Counter(table.label_of(F) for F in _composition_stream(M, seed))


# ---------------------------------------------------------------------------
# radical and top

@dataclass
class RadicalTop:
    module: Rep
    radical_rows: Matrix  # row basis of rad M inside M
    homs: list[HomBasis]  # hom_space(M, S) for each simple S, in table order

    @cached_property
    def radical(self) -> Rep:
        return sub_rep(self.module, self.radical_rows)

    @cached_property
    def top(self) -> Rep:
        return quotient_rep(self.module, self.radical_rows)


def radical_top(M: Rep, table: SimpleTable) -> RadicalTop:
    """rad M as the joint kernel of all homs onto simples; top = M / rad M,
    and the radical and top modules are built on first read."""
    f = M.field
    homs = [hom_space(M, S) for S in table.simples]
    rows = [phi.a for H in homs for phi in H.basis]
    if rows:
        stacked = np.concatenate(rows, axis=0)
    else:  # no homs onto simples can only happen for the zero module
        stacked = np.zeros((0, M.dim), dtype=f.dtype)
    K = _nullspace(f, stacked)
    return RadicalTop(M, Matrix(f, RowSpace(f, M.dim, K.T).matrix()), homs)


# ---------------------------------------------------------------------------
# Krull-Schmidt decomposition

@dataclass
class Decomposition:
    module: Rep
    summands: list[tuple[Rep, int]]          # distinct class rep, multiplicity
    pieces: list[tuple[Matrix, int]]          # (row basis in M coords, class idx)
    witness: Matrix                           # conjugates M into the block form


def _coordinate_slice(M: Rep, lo: int, hi: int) -> Rep:
    f = M.field
    mats = [Matrix(f, g.a[lo:hi, lo:hi].copy()) for g in M.gen_mats]
    return Rep(M.group, f, mats, dim=hi - lo)


def fitting_kernels(theta: Matrix, rng) -> Optional[list[np.ndarray]]:
    """Column bases of the kernels of f_i^{e_i}(theta), one for each
    primary factor f_i^{e_i} of theta's minimal polynomial; None when that
    polynomial is primary.  The kernels are theta's Fitting components, so
    their direct sum is the whole space."""
    f = theta.field
    facs = factor(minpoly(theta), rng)
    if len(facs) < 2:
        return None
    kernels = []
    for poly, mult in facs:
        power = Poly.one(f)
        for _ in range(mult):
            power = power * poly
        kernels.append(_nullspace(f, power.eval_matrix(theta).a))
    return kernels


def _random_combo(f: Field, basis: list[Matrix], rng) -> Matrix:
    coeffs = np.array([[rng.randrange(f.q) for _ in basis]], dtype=f.dtype)
    stack = np.stack([B.a.reshape(-1) for B in basis])
    return Matrix(f, _matmul(f, coeffs, stack).reshape(basis[0].shape))


def _fitting_split(rep: Rep, theta: Matrix, rng):
    """Split along theta's Fitting kernels; None when its minpoly is primary."""
    f = rep.field
    kernels = fitting_kernels(theta, rng)
    if kernels is None:
        return None
    parts = [Matrix(f, RowSpace(f, rep.dim, null.T).matrix()) for null in kernels]
    if sum(rows.rows for rows in parts) != rep.dim:
        raise AssertionError("Fitting split does not fill the module")
    return parts


def _decompose_rec(rep: Rep, rows: Matrix, seed: int):
    """Yields (rows in the original module, indecomposable Rep) pairs."""
    f = rep.field
    if rep.dim == 0:
        return
    if rep.block_dims and len(rep.block_dims) > 1:
        off = 0
        for d in rep.block_dims:
            yield from _decompose_rec(_coordinate_slice(rep, off, off + d),
                                      Matrix(f, rows.a[off:off + d].copy()), seed)
            off += d
        return
    end = hom_space(rep, rep)
    # A split local End has only primary minimal polynomials, so no Fitting
    # split can succeed: certify locality before any random attempt.
    if split_local(end):
        yield rows, rep
        return
    for part in _proper_split(rep, end, seed):
        yield from _decompose_rec(sub_rep(rep, part), Matrix(f, (part @ rows).a), seed)


def _proper_split(rep: Rep, end: HomBasis, seed: int) -> list[Matrix]:
    """Row bases of a proper direct-sum splitting of rep; End is not split local."""
    f = rep.field
    rng = random.Random(seed)
    for _ in range(8):
        parts = _fitting_split(rep, _random_combo(f, end.basis, rng), rng)
        if parts is not None:
            return parts
    # Quick random splits failed: split deterministically off the
    # semisimple quotient End/J.
    J = algebra_radical(end.basis)
    if end.dim - len(J) == 1:
        raise AssertionError("End/J is k but the split-local certificate failed")
    split = _semisimple_quotient_split(rep, end.basis, J, rng)
    if split is not None:
        return split
    for _ in range(BUDGET):
        parts = _fitting_split(rep, _random_combo(f, end.basis, rng), rng)
        if parts is not None:
            return parts
    raise InconclusiveError(
        "decomposition stalled: endomorphism algebra is not local but no "
        "splitting element was found; extend the field"
    )


def _products(f: Field, X: np.ndarray, Y: np.ndarray, n: int) -> np.ndarray:
    """Every product x @ y of a row x of X and a row y of Y, where each row
    is an n x n matrix flattened, as rows in x-major order; one _matmul."""
    left = X.reshape(-1, n)  # the x stacked
    right = Y.reshape(-1, n, n).transpose(1, 0, 2).reshape(n, -1)  # the y side by side
    prod = _matmul(f, left, right).reshape(X.shape[0], n, Y.shape[0], n)
    return prod.transpose(0, 2, 1, 3).reshape(-1, n * n)


def _is_nilpotent(f: Field, z: np.ndarray) -> bool:
    """Whether z^(2^k) = 0 for 2^k >= n, after ceil(log2 n) squarings."""
    n = z.shape[0]
    while n > 1 and z.any():
        z = _matmul(f, z, z)
        n = (n + 1) // 2
    return not z.any()


def _is_split_local(basis: list[Matrix]) -> bool:
    """Whether the unital algebra with this linearly independent basis is
    local with residue field k, certified without its radical.

    Each b gets the eigenvalue lambda_b it has if its characteristic
    polynomial is (t - lambda)^n: with n = p^a m and p not dividing m, the
    coefficient of t^(n - p^a) is -m lambda^(p^a).  With N the span of the
    b - lambda_b, the algebra is k.1 + N with N a nilpotent ideal exactly
    when dim N = d - 1, N.N lies in N and the powers of N reach 0 (then
    every element of N is nilpotent, so 1 is not in N); N is then the
    radical, of codimension 1.  Conversely, in a local algebra with residue
    field k every b - lambda_b lies in the radical, so this decides what
    dim - len(algebra_radical(basis)) == 1 decides.  The answer is False as
    soon as one b - lambda_b is not nilpotent, before N is built.
    """
    f = basis[0].field
    n = basis[0].rows
    a, pa = 0, 1
    while n % (pa * f.p) == 0:
        a, pa = a + 1, pa * f.p
    neg_inv_m = f.neg(f.inv(n // pa % f.p))
    eye = np.eye(n, dtype=f.dtype)
    shifted = []
    for b in basis:
        lam = f.frob(f.mul(neg_inv_m, charpoly(b).c[n - pa]), -a)
        z = f.arr_sub(b.a, f.MUL[lam, eye])
        if not _is_nilpotent(f, z):
            return False
        shifted.append(z.reshape(-1))
    nil = RowSpace(f, n * n, shifted)
    if nil.dim != len(basis) - 1:
        return False
    power = RowSpace(f, n * n, _products(f, nil.rows, nil.rows, n))
    if not nil.contains(power.rows):
        return False
    # N^(i+1) lies in N^i, so the chain reaches 0 unless a step stalls
    while power.dim:
        lower = RowSpace(f, n * n, _products(f, power.rows, nil.rows, n))
        if lower.dim == power.dim:
            return False
        power = lower
    return True


def split_local(end: HomBasis) -> bool:
    """Whether End(M), given as hom_space(M, M), is local with residue
    field k, that is, M is absolutely indecomposable.  Kept out of __all__,
    the names perfbench/tracing.py wraps, like summand_stream."""
    return end.dim == 1 or _is_split_local(end.basis)


def frobenius_fixed_element(f: Field, basis, radical,
                            one: np.ndarray) -> Optional[np.ndarray]:
    """An element z of the algebra A spanned by the n x n matrices in basis,
    fixed by x -> x^q modulo J and outside k.one + J; None when A/J is
    noncommutative or a field (k included).

    radical spans J = rad A, and one is the identity of A, which need not
    be I.  A commutative A/J is a product of fields, and its Frobenius-fixed
    elements are the k-combinations of its primitive idempotents (Ronyai,
    "Computing the structure of finite algebras", J. Symb. Comput. 1990).
    So the fixed space is k.one exactly when A/J is a field, and otherwise
    the minimal polynomial of z has at least two distinct roots, all in k.
    """
    n = one.shape[0]
    jspace = RowSpace(f, n * n, [J.reshape(-1) for J in radical])
    # coset representatives of A/J picked from the basis: b is new exactly
    # when its normal form mod J is new
    reduced = jspace.reduce([b.reshape(-1) for b in basis])
    quotient = RowSpace(f, n * n)
    picked = [i for i in range(len(basis)) if quotient.add(reduced[i])]
    comp = [basis[i] for i in picked]
    q_dim = len(comp)
    if q_dim == 0:
        raise AssertionError("algebra lies inside its radical")
    if q_dim == 1:
        return None
    for i, a in enumerate(comp):
        for b in comp[:i]:
            commutator = f.arr_sub(_matmul(f, a, b), _matmul(f, b, a))
            if not jspace.contains(commutator.reshape(-1)):
                return None  # noncommutative quotient: nothing deterministic here

    # the q-th powers of comp, then one, in the comp coordinates mod J
    targets = []
    for c in comp:
        w = c.copy()
        for _ in range(f.m):
            acc = w
            for _ in range(f.p - 1):
                acc = _matmul(f, acc, w)
            w = acc
        targets.append(w.reshape(-1))
    targets.append(one.reshape(-1))
    sol = linsolve(Matrix(f, reduced[picked].T.copy()),
                   Matrix(f, jspace.reduce(np.stack(targets)).T.copy()))
    if sol.particular is None:
        raise AssertionError("element outside the algebra")
    # Frobenius x -> x^q on A/J in the comp coordinates (q-linear)
    F = sol.particular.a[:, :q_dim]
    fixed = _nullspace(f, f.arr_sub(F, np.eye(q_dim, dtype=f.dtype)))
    if fixed.shape[1] <= 1:
        return None  # A/J is a field
    probe = RowSpace(f, q_dim)
    probe.add(sol.particular.a[:, q_dim])
    z = None
    for j in range(fixed.shape[1]):
        if probe.add(fixed[:, j]):
            z = fixed[:, j]
            break
    if z is None:
        raise AssertionError("fixed space cannot lie inside the identity line")
    return _matmul(f, z[None, :], np.stack(comp).reshape(q_dim, n * n)).reshape(n, n)


def _semisimple_quotient_split(rep: Rep, end_basis: list[Matrix],
                               radical: list[Matrix], rng):
    """Deterministic rescue split along a Frobenius-fixed element of End/J.

    Such an element off k.1 + J has a minpoly with at least two distinct
    factors, so it splits the module through Fitting.  Returns None when
    there is none (End/J noncommutative, where the random search already
    failed, or a field, where the module is indecomposable but End is not
    split over k).
    """
    f = rep.field
    z = frobenius_fixed_element(f, [b.a for b in end_basis], [J.a for J in radical],
                                np.eye(rep.dim, dtype=f.dtype))
    if z is None:
        return None
    return _fitting_split(rep, Matrix(f, z), rng)


def summand_stream(M: Rep, seed: int = 0):
    """Indecomposable summands of M as (row basis in M, Rep) pairs, yielded
    lazily in decompose's order.  Kept out of __all__, the names
    perfbench/tracing.py wraps, whose spans would close before any work."""
    return _decompose_rec(M, Matrix.identity(M.field, M.dim), seed)


def _class_pieces(M: Rep, seed: int, reps: list[Rep]) -> list[tuple[Matrix, int]]:
    """The summand_stream leaves of M as (rows, class index) pairs, class
    by class: a leaf is filed under its iso_class in reps, or appended to
    reps as a new class, and its rows are put in the coordinates of its
    class representative."""
    grouped: list[list[Matrix]] = [[] for _ in reps]
    for rows, leaf in summand_stream(M, seed):
        hit = iso_class(leaf, reps)
        if hit is None:
            reps.append(leaf)
            grouped.append([rows])
        else:
            ci, X = hit
            grouped[ci].append(X.inverse().T @ rows)
    return [(rows, ci) for ci, group in enumerate(grouped) for rows in group]


def _stacked_rows(M: Rep, pieces) -> Matrix:
    return Matrix(M.field, np.concatenate([rows.a for rows, _ in pieces]))


def decompose(M: Rep, seed: int = 0) -> Decomposition:
    """Full Krull-Schmidt decomposition with a verified change of basis."""
    class_reps: list[Rep] = []
    pieces = _class_pieces(M, seed, class_reps)
    if not pieces:
        return Decomposition(M, [], [], Matrix.zeros(M.field, 0, 0))
    mults = Counter(ci for _, ci in pieces)
    summands = [(rep0, mults[ci]) for ci, rep0 in enumerate(class_reps)]
    witness = _stacked_rows(M, pieces).inverse().T
    return Decomposition(module=M, summands=summands, pieces=pieces, witness=witness)


def is_isomorphic(M: Rep, N: Rep, seed: int = 0, trials: int = 64) -> IsoResult:
    """Isomorphism test with an exactly verified witness on success.

    The basis of Hom(M, N) and then `trials` random elements of it are
    tried first.  If none is invertible, M and then N are decomposed over
    one shared list of class representatives, so a negative answer is
    certified rather than guessed: the modules are isomorphic exactly when
    their pieces fall into the same classes with the same multiplicities.
    Each piece is then in its class representative's coordinates, so with
    S the stack of piece rows, A S^T = S^T D for both modules with one
    block-diagonal D, and S_N^T (S_M^T)^-1 is the witness.
    """
    check_common(M, N)
    if M.dim != N.dim:
        return IsoResult(False)
    if M.dim == 0:
        return IsoResult(True, Matrix.zeros(M.field, 0, 0))
    H = hom_space(M, N)
    if H.dim == 0:
        return IsoResult(False)
    rng = random.Random(seed)
    combos = (_random_combo(M.field, H.basis, rng) for _ in range(trials))
    for X in itertools.chain(H.basis, combos):
        if rank(X) == X.rows:
            verify_witness(M, N, X)
            return IsoResult(True, X)
    reps: list[Rep] = []
    pm = _class_pieces(M, seed, reps)
    pn = _class_pieces(N, seed, reps)
    if [ci for _, ci in pm] != [ci for _, ci in pn]:
        return IsoResult(False)
    W = _stacked_rows(N, pn).T @ _stacked_rows(M, pm).T.inverse()
    verify_witness(M, N, W)
    return IsoResult(True, W)


# ---------------------------------------------------------------------------
# algebra radical (characteristic-p trace forms)

def algebra_radical(basis: list[Matrix]) -> list[Matrix]:
    """Basis of the Jacobson radical of the spanned matrix algebra.

    Characteristic-p layered criterion on trace-form-style invariants: with
    sigma_k the degree-k characteristic polynomial coefficient, the chain

        I_0 = A,   I_{i+1} = {x in I_i : sigma_{p^i}(x y) = 0 for all y in I_i}

    reaches the radical after the layer with p^l <= n.  On each layer the
    map x -> Frob^{-i}(sigma_{p^i}(x y)) is linear over the field, so every
    step is one semilinear nullspace computation.
    """
    if not basis:
        return []
    f = basis[0].field
    n = basis[0].rows
    d = len(basis)
    space = RowSpace(f, n * n, [b.a.reshape(-1) for b in basis])
    eye = np.eye(n, dtype=f.dtype).reshape(-1)
    if not space.contains(eye):
        raise ValueError("basis does not span a unital algebra")
    for i in range(d):
        prods = [_matmul(f, basis[i].a, basis[j].a).reshape(-1) for j in range(d)]
        if not space.contains(prods):
            raise ValueError("basis is not multiplicatively closed")

    def sigma(z: np.ndarray, k: int) -> int:
        """Degree-k elementary symmetric function of the eigenvalues."""
        cp = charpoly(Matrix(f, z))
        coeff = cp.c[n - k] if n - k < len(cp.c) else 0
        return f.mul(f.pow(f.neg(1), k), int(coeff))

    layer = np.stack([b.a for b in basis])
    i = 0
    while f.p**i <= n:
        dd = len(layer)
        if dd == 0:
            break
        pk = f.p**i
        flat = layer.reshape(dd, n * n)
        if i == 0:
            # sigma_1(x y) is the trace of x y, the sum of the entries of x * y^T
            cond = _matmul(f, layer.transpose(0, 2, 1).reshape(dd, n * n), flat.T)
        else:
            cond = np.zeros((dd, dd), dtype=f.dtype)
            for s in range(dd):
                for j in range(dd):
                    val = sigma(_matmul(f, layer[s], layer[j]), pk)
                    cond[j, s] = f.frob(val, -i)
        null = _nullspace(f, cond)
        layer = _matmul(f, null.T, flat).reshape(null.shape[1], n, n)
        i += 1
    return [Matrix(f, m) for m in layer]


# ---------------------------------------------------------------------------
# additive closure comparison

@dataclass
class AddCompare:
    leq: bool
    geq: bool

    @property
    def add_equal(self) -> bool:
        return self.leq and self.geq


def add_compare(M: Rep, N: Rep, seed: int = 0) -> AddCompare:
    """leq means every indecomposable summand class of M occurs in N."""
    reps: list[Rep] = []
    in_m = {ci for _, ci in _class_pieces(M, seed, reps)}
    in_n = {ci for _, ci in _class_pieces(N, seed, reps)}
    return AddCompare(leq=in_m <= in_n, geq=in_n <= in_m)
