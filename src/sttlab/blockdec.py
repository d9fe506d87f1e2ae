"""Block decomposition of group algebras in characteristic p.

The center Z is carried on the class-sum basis, with one multiplication
matrix per class sum.  Z is commutative, so Frobenius z -> z^q is
k-linear on it, and its fixed space is the k-span of the primitive
central idempotents.  Fitting kernels of multiplication by the basis of
that space cut it into lines, one per block, and each line is scaled to
its idempotent.  blocks() certifies the result exactly: the idempotents
are orthogonal, sum to 1, and act as 1 or 0 on every simple module.  No
radical and no character theory; the factoring behind the Fitting kernels
is seeded, and the idempotents, being unique, do not depend on it.  Any
other module's block is read off the labels of its composition factors
(block_of_factors), with no idempotent applied again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import exactfield as ef
from .exactfield import Field, Matrix, RowSpace
from .grouprep import Rep, induce, rep_apply_algebra, sub_rep, zero_rep
from .meataxe import SimpleTable, fitting_kernels, simples_of
from .permgroup import Group, Perm, Transversal, class_sums, group_close, transversal

__all__ = [
    "Block",
    "blocks",
    "block_of_factors",
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
    """Coefficient vector of t * a * t^-1, for t in the group."""
    table = group.mult_table()
    nz = np.nonzero(a)[0]
    out = np.zeros(group.order, dtype=field.dtype)
    out[table[table[group.idx(t), nz], group.idx(t.inverse())]] = a[nz]
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
        self.s = s = len(classes)
        lookup = {group.elements[x].images: i for i, cls in enumerate(classes) for x in cls}
        class_of = np.array([lookup[g.images] for g in group.elements])
        self.basis = (class_of == np.arange(s)[:, None]).astype(field.dtype)  # class indicators
        # R[i][k, j] = #{x in C_i : x^-1 z_k in C_j} mod p, z_k the first
        # element of C_k: x^-1 z_k for all x and k at once on point images,
        # x^-1 being the argsort of x's images.  A count below p is its code.
        images = np.array([g.images for g in group.elements], dtype=np.intp)
        moved = np.argsort(images, axis=1)[:, images[[cls[0] for cls in classes]]]
        j = [lookup[t] for t in map(tuple, moved.reshape(-1, group.degree).tolist())]
        ijk = (class_of[:, None] * s + np.arange(s)) * s + np.reshape(j, (-1, s))
        counts = np.bincount(ijk.ravel(), minlength=s ** 3).reshape(s, s, s)
        self.R = (counts % field.p).astype(field.dtype)

    def mul(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The product u v: the coefficients u_i v_j against the R[i][:, j]."""
        f, s = self.field, self.s
        uv = f.MUL[u[:, None], v[None, :]].reshape(1, s * s)
        return ef._matmul(f, uv, self.R.transpose(0, 2, 1).reshape(s * s, s))[0]

    def operators(self, V: np.ndarray) -> np.ndarray:
        """The multiplication matrices of the rows of V, stacked."""
        s = self.s
        return ef._matmul(self.field, V, self.R.reshape(s, s * s)).reshape(-1, s, s)

    def expand(self, v: np.ndarray) -> np.ndarray:
        """Class coordinates to a kG coefficient vector."""
        return ef._matmul(self.field, v[None, :], self.basis)[0]


def _primitive_idempotents(center: _Center) -> list[np.ndarray]:
    """The primitive idempotents of Z, in class coordinates.

    Z is commutative, so z -> z^q is k-linear on it; F, whose row j is
    c_j^q, is its matrix.  Its fixed space E is the k-span of the
    primitive idempotents: for z in eZ with z^q = z, the minimal
    polynomial divides x^q - x, and it is a power of one irreducible, as
    eZ is local, so z is a multiple of e (Ronyai, "Computing the structure
    of finite algebras", J. Symb. Comput. 1990).  So E is k x ... x k, and
    a basis of E separates the idempotents: the Fitting kernels of
    multiplication by each basis row cut E into the lines k.e.
    """
    f, s = center.field, center.s
    eye = np.eye(s, dtype=f.dtype)
    F = np.empty((s, s), dtype=f.dtype)
    for j in range(s):
        w = eye[j]
        for bit in bin(f.q)[3:]:  # left-to-right square and multiply
            w = center.mul(w, w)
            if bit == "1":
                w = center.mul(w, eye[j])
        F[j] = w
    fixed = RowSpace(f, s, ef._nullspace(f, f.arr_sub(F, eye).T).T)
    rng = random.Random(0)
    pieces = [fixed]
    for u in center.operators(fixed.rows):
        cut = []
        for P in pieces:
            # multiplication by u on the ideal P of E, in the coordinates
            # of the rows of P; a line is not cut further
            kernels = P.dim > 1 and fitting_kernels(
                Matrix(f, ef._matmul(f, P.rows, u.T)[:, P.pivots].T.copy()), rng)
            if kernels:
                cut.extend(RowSpace(f, s, ef._matmul(f, null.T, P.rows)) for null in kernels)
            else:
                cut.append(P)
        pieces = cut
    if any(P.dim != 1 for P in pieces):
        raise AssertionError("the Frobenius-fixed space of the centre is not cut into lines")
    # v = c.e has v.v = c.v, and c = (v.v)[pivot] as v[pivot] = 1
    return [f.MUL[f.inv(int(center.mul(P.rows[0], P.rows[0])[P.pivots[0]])), P.rows[0]]
            for P in pieces]


def blocks(group: Group, field: Field, simples: Optional[SimpleTable] = None,
           seed: int = 0) -> list[Block]:
    """Primitive central idempotents with their simple-module membership."""
    if simples is None:
        simples = simples_of(group, field, seed=seed)
    center = _Center(group, field)
    expanded = [center.expand(e) for e in _primitive_idempotents(center)]
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
        for bi, m in enumerate(rep_apply_algebra(S, expanded)):
            if m == Matrix.identity(field, S.dim):
                owners.append(bi)
            elif not m.is_zero():
                raise AssertionError("block idempotent acts neither as 0 nor 1 "
                                     "on a simple module")
        if len(owners) != 1:
            raise AssertionError("simple module does not belong to a unique block")
        members[owners[0]].append(label)
    if not all(members):
        raise AssertionError("block without simple modules")
    order = sorted(range(len(expanded)),
                   key=lambda bi: simples.labels.index(members[bi][0]))
    out = []
    for pos, bi in enumerate(order):
        out.append(Block(group=group, field=field, coeffs=expanded[bi],
                         simple_labels=tuple(members[bi]), index=pos))
    return out


def block_of_factors(labels, block_list: list[Block]) -> Block:
    """The block in block_list of a module whose composition factors carry
    these simple labels.  M is the sum of the e_B M, and e_B acts as 1 on
    the simples of B and as 0 on the others, so M lies in B exactly when
    every factor does (Alperin, "Local Representation Theory", CUP 1986).
    ValueError when no block holds every label, or there are none."""
    labels = set(labels)
    owner = next((b for b in block_list if labels <= set(b.simple_labels)), None)
    if owner is None or not labels:
        raise ValueError("module is zero or does not lie in one of the given blocks")
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
    pi, = rep_apply_algebra(ind, [Btilde.coeffs])
    rows = Matrix(M.field, RowSpace(M.field, ind.dim, pi.a.T).matrix())
    if rows.rows == 0:
        return zero_rep(big, M.field)
    return sub_rep(ind, rows)
