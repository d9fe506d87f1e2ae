"""Block decomposition of group algebras in characteristic p.

The center Z is carried on the class-sum basis, with one multiplication
matrix per class sum.  Primitive central idempotents are found by a fully
deterministic recursion: for the current block idempotent e, the algebra
eZ and its radical e.rad(Z) go to meataxe.frobenius_fixed_element as
multiplication matrices.  A Frobenius-fixed element z off k.e + e.rad(Z)
has at least two eigenvalues, and e is the sum of the identities of z's
Fitting kernels on eZ, found with one linsolve.  When there is no such
z, eZ/e.rad(Z) is a field and e is primitive.  No character theory and
no randomness anywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exactfield import Field, Matrix, RowSpace, linsolve, _matmul
from .grouprep import Rep, induce, rep_apply_algebra, sub_rep, zero_rep
from .meataxe import SimpleTable, algebra_radical, fitting_kernels, \
    frobenius_fixed_element, simples_of
from .permgroup import Group, Perm, Transversal, class_sums, group_close, transversal

__all__ = [
    "Block",
    "blocks",
    "block_of_module",
    "module_in_block",
    "covering_blocks",
    "inertial_group",
    "fong_reynolds_block",
    "block_cut_induce",
    "ga_mul",
    "ga_conjugate",
]


# ---------------------------------------------------------------------------
# group algebra arithmetic on coefficient vectors over the element list

def ga_mul(group: Group, field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Convolution product in kG; vectors are indexed by group elements."""
    table = group.mult_table()
    out = np.zeros(group.order, dtype=field.dtype)
    for i in np.nonzero(a)[0]:
        out[table[i]] = field.arr_add(out[table[i]], field.MUL[a[i], b])
    return out


def ga_conjugate(group: Group, field: Field, a: np.ndarray, t: Perm) -> np.ndarray:
    """Coefficient vector of t * a * t^-1."""
    t_inv = t.inverse()
    out = np.zeros(group.order, dtype=field.dtype)
    for i in np.nonzero(a)[0]:
        g = group.elements[i]
        out[group.idx(t * g * t_inv)] = a[i]
    return out


def ga_identity(group: Group, field: Field) -> np.ndarray:
    out = np.zeros(group.order, dtype=field.dtype)
    out[0] = 1
    return out


def embed_subgroup_vector(small: Group, big: Group, field: Field,
                          a: np.ndarray) -> np.ndarray:
    out = np.zeros(big.order, dtype=field.dtype)
    for i in np.nonzero(a)[0]:
        out[big.idx(small.elements[i])] = a[i]
    return out


# ---------------------------------------------------------------------------

@dataclass
class Block:
    """Central primitive idempotent of kG with its simple-module members."""

    group: Group
    field: Field
    coeffs: np.ndarray            # idempotent over the element list
    simple_labels: tuple[str, ...]
    index: int

    def is_principal(self, simples: SimpleTable) -> bool:
        return simples.trivial_label() in self.simple_labels

    def __repr__(self):
        return (f"Block(#{self.index} of kG, |G|={self.group.order}, "
                f"simples={list(self.simple_labels)})")


class _Center:
    """The center Z of kG on the class-sum basis c_0 = 1, c_1, ..., with
    exact arithmetic.  R[i] is the matrix of multiplication by c_i:
    R[i][k, j] is the coefficient of c_k in c_i c_j."""

    def __init__(self, group: Group, field: Field):
        self.field = field
        classes = class_sums(group)
        s = len(classes)
        self.s = s
        basis = np.zeros((s, group.order), dtype=field.dtype)
        for i, cls in enumerate(classes):
            basis[i, cls] = 1
        self.basis = basis  # rows: class indicator vectors
        # class functions are constant on classes: read each product off at
        # the first element of every class
        firsts = [cls[0] for cls in classes]
        self.R = np.zeros((s, s, s), dtype=field.dtype)
        for i in range(s):
            for j in range(s):
                self.R[i, :, j] = ga_mul(group, field, basis[i], basis[j])[firsts]

    def mul(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The product u v: the coefficients u_i v_j against the R[i][:, j]."""
        f, s = self.field, self.s
        uv = f.MUL[u[:, None], v[None, :]].reshape(1, s * s)
        return _matmul(f, uv, self.R.transpose(0, 2, 1).reshape(s * s, s))[0]

    def operators(self, V: np.ndarray) -> np.ndarray:
        """The multiplication matrices of the rows of V, stacked."""
        s = self.s
        return _matmul(self.field, V, self.R.reshape(s, s * s)).reshape(-1, s, s)

    def identity_vec(self) -> np.ndarray:
        out = np.zeros(self.s, dtype=self.field.dtype)
        out[0] = 1  # the identity element is a singleton class, listed first
        return out

    def expand(self, v: np.ndarray) -> np.ndarray:
        """Class coordinates to a kG coefficient vector."""
        return _matmul(self.field, v[None, :], self.basis)[0]

    def radical_rows(self) -> np.ndarray:
        """Rows spanning rad(Z), in class coordinates."""
        f, s = self.field, self.s
        rad_mats = algebra_radical([Matrix(f, R) for R in self.R])
        if not rad_mats:
            return np.zeros((0, s), dtype=f.dtype)
        sol = linsolve(Matrix(f, self.R.reshape(s, s * s).T.copy()),
                       Matrix(f, np.stack([J.a.reshape(-1) for J in rad_mats], axis=1)))
        if sol.particular is None:
            raise AssertionError("radical element outside the center")
        return sol.particular.a.T


def _split_primitive(center: _Center, e: np.ndarray, jrows: np.ndarray):
    """Recursively split the central idempotent e into primitive ones."""
    f = center.field
    Le = center.operators(e[None, :])[0]
    ez = RowSpace(f, center.s, Le.T)  # eZ is spanned by the e c_j
    # eZ and its radical e rad(Z), as multiplication matrices
    ops = center.operators(np.concatenate([ez.rows, _matmul(f, jrows, Le.T)]))
    Lz = frobenius_fixed_element(f, ops[:ez.dim], ops[ez.dim:], Le)
    if Lz is None:
        return [e]  # eZ/e.rad(Z) is a field: e is primitive
    # multiplication by z on eZ, in the coordinates of the rows of ez
    restr = Matrix(f, _matmul(f, ez.rows, Lz.T)[:, ez.pivots].T.copy())
    kernels = fitting_kernels(restr, random.Random(0))
    if kernels is None:
        raise AssertionError("Frobenius-fixed element failed to split the block")
    # eZ is the direct sum of the Fitting kernels of z, which are ideals, so
    # e is the sum of their identities
    parts = [_matmul(f, null.T, ez.rows) for null in kernels]
    K = np.concatenate(parts)
    sol = linsolve(Matrix(f, K.T.copy()), Matrix(f, e[:, None].copy()))
    if len(K) != ez.dim or sol.rank != ez.dim or sol.particular is None:
        raise AssertionError("Fitting kernels do not split the block")
    coords = np.split(sol.particular.a[:, 0], np.cumsum([len(P) for P in parts])[:-1])
    out = [_matmul(f, c[None, :], P)[0] for c, P in zip(coords, parts)]
    total = np.zeros(center.s, dtype=f.dtype)
    for e_i in out:
        if not np.array_equal(center.mul(e_i, e_i), e_i):
            raise AssertionError("Fitting split not idempotent")
        total = f.arr_add(total, e_i)
    if not np.array_equal(total, e):
        raise AssertionError("Fitting split does not sum to the block")
    result = []
    for e_i in out:
        result.extend(_split_primitive(center, e_i, jrows))
    return result


def blocks(group: Group, field: Field, simples: Optional[SimpleTable] = None,
           seed: int = 0) -> list[Block]:
    """Primitive central idempotents with their simple-module membership."""
    if simples is None:
        simples = simples_of(group, field, seed=seed)
    center = _Center(group, field)
    jrows = center.radical_rows()
    idems = _split_primitive(center, center.identity_vec(), jrows)
    expanded = [center.expand(e) for e in idems]
    # verify the central orthogonal decomposition of 1 exactly
    total = np.zeros(group.order, dtype=field.dtype)
    for v in expanded:
        if not np.array_equal(ga_mul(group, field, v, v), v):
            raise AssertionError("block idempotent is not idempotent")
        total = field.arr_add(total, v)
    if not np.array_equal(total, ga_identity(group, field)):
        raise AssertionError("block idempotents do not sum to 1")
    for i, u in enumerate(expanded):
        for v in expanded[:i]:
            if ga_mul(group, field, u, v).any():
                raise AssertionError("block idempotents are not orthogonal")
    # assign simples by letting each idempotent act
    members: list[list[str]] = [[] for _ in expanded]
    for S, label in zip(simples.simples, simples.labels):
        owners = []
        for bi, v in enumerate(expanded):
            m = rep_apply_algebra(S, v)
            if m == Matrix.identity(field, S.dim):
                owners.append(bi)
            elif not m.is_zero():
                raise AssertionError("block idempotent acts neither as 0 nor 1 "
                                     "on a simple module")
        if len(owners) != 1:
            raise AssertionError("simple module does not belong to a unique block")
        members[owners[0]].append(label)
    for bi, labs in enumerate(members):
        if not labs:
            raise AssertionError("block without simple modules")
    order = sorted(range(len(expanded)),
                   key=lambda bi: simples.labels.index(members[bi][0]))
    out = []
    for pos, bi in enumerate(order):
        out.append(Block(group=group, field=field, coeffs=expanded[bi],
                         simple_labels=tuple(members[bi]), index=pos))
    return out


def module_in_block(M: Rep, block: Block) -> bool:
    """1_B acts as the identity on M."""
    if M.dim == 0:
        return True
    action = rep_apply_algebra(M, block.coeffs)
    return action == Matrix.identity(M.field, M.dim)


def block_of_module(M: Rep, block_list: list[Block]) -> Block:
    """The unique block acting as the identity on M."""
    if M.dim == 0:
        raise ValueError("the zero module lies in every block")
    owner = None
    for b in block_list:
        action = rep_apply_algebra(M, b.coeffs)
        if action == Matrix.identity(M.field, M.dim):
            if owner is not None:
                raise AssertionError("two blocks act as identity")
            owner = b
        elif not action.is_zero():
            raise ValueError("module is spread over several blocks")
    if owner is None:
        raise ValueError("no block acts as the identity on the module")
    return owner


def covering_blocks(B: Block, big: Group, big_blocks: list[Block]) -> list[Block]:
    """Blocks among big_blocks, the blocks of k(big), whose idempotent does
    not kill 1_B."""
    T = transversal(big, B.group)
    if not T.normal:
        raise ValueError("covering requires a normal subgroup")
    f = B.field
    eB = embed_subgroup_vector(B.group, big, f, B.coeffs)
    out = []
    for Bt in big_blocks:
        if ga_mul(big, f, Bt.coeffs, eB).any():
            out.append(Bt)
    return out


def inertial_group(B: Block, big: Group) -> Group:
    """Stabilizer of 1_B under conjugation by the big group."""
    T = transversal(big, B.group)
    if not T.normal:
        raise ValueError("inertial groups require a normal subgroup")
    f = B.field
    eB = embed_subgroup_vector(B.group, big, f, B.coeffs)
    gens = list(B.group.generators)
    for t in T.reps:
        if t.is_identity():
            continue
        if np.array_equal(ga_conjugate(big, f, eB, t), eB):
            gens.append(t)
    return group_close(big.degree, gens)


def fong_reynolds_block(B: Block, Btilde: Block) -> Block:
    """The block beta of k I(B) with 1_{Btilde} = sum_x x 1_beta x^-1 over
    a transversal of the inertial group, verified exactly."""
    big = Btilde.group
    f = B.field
    inertial = inertial_group(B, big)
    Tbig = transversal(big, inertial)
    candidates = covering_blocks(B, inertial, blocks(inertial, f))
    matches = []
    for beta in candidates:
        e_beta = embed_subgroup_vector(inertial, big, f, beta.coeffs)
        total = np.zeros(big.order, dtype=f.dtype)
        for x in Tbig.reps:
            total = f.arr_add(total, ga_conjugate(big, f, e_beta, x))
        if np.array_equal(total, Btilde.coeffs):
            matches.append(beta)
    if len(matches) != 1:
        raise ValueError(
            f"Fong-Reynolds identity selected {len(matches)} blocks instead of one"
        )
    return matches[0]


def block_cut_induce(M: Rep, Btilde: Block,
                     T: Optional[Transversal] = None) -> Rep:
    """Image of 1_{Btilde} on the induced module, with the induced action."""
    big = Btilde.group
    if T is None:
        T = transversal(big, M.group)
    ind = induce(M, big, T)
    pi = rep_apply_algebra(ind, Btilde.coeffs)
    rows = Matrix(M.field, RowSpace(M.field, ind.dim, pi.a.T).matrix())
    if rows.rows == 0:
        return zero_rep(big, M.field)
    return sub_rep(ind, rows)
