"""Block decomposition of group algebras in characteristic p.

The center is carried on the class-sum basis.  Primitive central
idempotents are found by a fully deterministic Fitting recursion: on each
current block the Frobenius-fixed subspace of the semisimple quotient is
computed; a fixed element independent of the block identity has a minimal
polynomial with at least two distinct roots and CRT then splits the
identity exactly.  No character theory and no randomness anywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exactfield import Field, Matrix, Poly, RowSpace, factor, linsolve, minpoly, \
    _nullspace
from .grouprep import Rep, induce, rep_apply_algebra, sub_rep, zero_rep
from .meataxe import SimpleTable, algebra_radical, simples_of
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

    @property
    def idempotent(self) -> Matrix:
        return Matrix(self.field, self.coeffs[None, :].copy())

    def is_principal(self, simples: SimpleTable) -> bool:
        return simples.trivial_label() in self.simple_labels

    def __repr__(self):
        return (f"Block(#{self.index} of kG, |G|={self.group.order}, "
                f"simples={list(self.simple_labels)})")


class _Center:
    """The center of kG on the class-sum basis, with exact arithmetic."""

    def __init__(self, group: Group, field: Field):
        self.group = group
        self.field = field
        self.classes = class_sums(group)
        s = len(self.classes)
        self.s = s
        f = field
        basis = np.zeros((s, group.order), dtype=f.dtype)
        for i, cls in enumerate(self.classes):
            basis[i, cls] = 1
        self.basis = basis  # rows: class indicator vectors
        self.class_of = np.zeros(group.order, dtype=np.int64)
        for i, cls in enumerate(self.classes):
            self.class_of[cls] = i
        # structure constants: c_i c_j = sum_k st[i][j][k] c_k
        self.st = np.zeros((s, s, s), dtype=f.dtype)
        for i in range(s):
            for j in range(s):
                prod = ga_mul(group, f, basis[i], basis[j])
                # class functions are constant on classes: read off at the
                # first element of every class
                for k, cls in enumerate(self.classes):
                    self.st[i, j, k] = prod[cls[0]]

    def mul(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        f = self.field
        out = np.zeros(self.s, dtype=f.dtype)
        for i in np.nonzero(u)[0]:
            for j in np.nonzero(v)[0]:
                c = f.mul(int(u[i]), int(v[j]))
                if c:
                    out = f.arr_add(out, f.MUL[c, self.st[i, j]])
        return out

    def pow_q(self, v: np.ndarray) -> np.ndarray:
        """q-power map, additive and q-linear on the commutative center."""
        f = self.field
        out = v
        for _ in range(f.m):
            acc = out
            for _ in range(f.p - 1):
                acc = self.mul(acc, out)
            out = acc
        return out

    def identity_vec(self) -> np.ndarray:
        out = np.zeros(self.s, dtype=self.field.dtype)
        out[0] = 1  # the identity element is a singleton class, listed first
        return out

    def mult_operator(self, v: np.ndarray) -> Matrix:
        f = self.field
        cols = [self.mul(v, np.eye(self.s, dtype=f.dtype)[j]) for j in range(self.s)]
        return Matrix(f, np.stack(cols, axis=1))

    def expand(self, v: np.ndarray) -> np.ndarray:
        """Class coordinates to a kG coefficient vector."""
        f = self.field
        out = np.zeros(self.group.order, dtype=f.dtype)
        for i in np.nonzero(v)[0]:
            out = f.arr_add(out, f.MUL[int(v[i]), self.basis[i]])
        return out

    def radical_rows(self) -> np.ndarray:
        """Row basis of rad(Z) in class coordinates."""
        f = self.field
        regs = [self.mult_operator(np.eye(self.s, dtype=f.dtype)[j])
                for j in range(self.s)]
        rad_mats = algebra_radical(regs)
        if not rad_mats:
            return np.zeros((0, self.s), dtype=f.dtype)
        flat = np.stack([R.a.reshape(-1) for R in regs])
        A = Matrix(f, flat.T.copy())
        rows = []
        for R in rad_mats:
            sol = linsolve(A, Matrix(f, R.a.reshape(-1)[:, None].copy()))
            if sol.particular is None:
                raise AssertionError("radical element outside the center")
            rows.append(sol.particular.a[:, 0])
        return RowSpace(f, self.s, rows).matrix()


def _split_primitive(center: _Center, e: np.ndarray, jrows: np.ndarray):
    """Recursively split the central idempotent e into primitive ones."""
    f = center.field
    s = center.s
    # basis of eZ
    Me = center.mult_operator(e)
    ez = RowSpace(f, s, Me.a.T)
    ez_rows = ez.matrix()
    # radical of eZ is e * rad(Z)
    ej_space = RowSpace(f, s, [center.mul(e, jrows[i]) for i in range(jrows.shape[0])])
    # complement representatives of eZ / eJ: a row is new exactly when its
    # normal form mod eJ is new
    reduced = ej_space.reduce(ez_rows)
    quotient = RowSpace(f, s)
    picked = [i for i in range(ez.dim) if quotient.add(reduced[i])]
    comp = [ez_rows[i] for i in picked]
    qdim = len(comp)
    if qdim == 0:
        raise AssertionError("idempotent block collapsed into the radical")
    if qdim == 1:
        return [e]
    A = Matrix(f, reduced[picked].T.copy())

    def comp_coords(v: np.ndarray) -> np.ndarray:
        b = Matrix(f, ej_space.reduce(v)[:, None].copy())
        sol = linsolve(A, b)
        if sol.particular is None:
            raise AssertionError("element outside the block algebra")
        return sol.particular.a[:, 0]

    F = np.zeros((qdim, qdim), dtype=f.dtype)
    for i, c in enumerate(comp):
        F[:, i] = comp_coords(center.pow_q(c))
    fixed = _nullspace(f, f.arr_sub(F, np.eye(qdim, dtype=f.dtype)))
    if fixed.shape[1] <= 1:
        return [e]  # semisimple quotient is a field: e is primitive
    probe = RowSpace(f, qdim)
    probe.add(comp_coords(e))
    z_coords = None
    for j in range(fixed.shape[1]):
        if probe.add(fixed[:, j]):
            z_coords = fixed[:, j]
            break
    if z_coords is None:
        raise AssertionError("fixed space cannot lie inside the identity line")
    z = np.zeros(s, dtype=f.dtype)
    for i, c in enumerate(comp):
        if z_coords[i]:
            z = f.arr_add(z, f.MUL[z_coords[i], c])
    z = center.mul(e, z)
    # minimal polynomial of z inside unital algebra (eZ, identity e)
    Mz = center.mult_operator(z)
    ez_basis = Matrix(f, ez_rows)
    # restrict mult-by-z to eZ in the ez_rows coordinates
    img = (ez_basis @ Mz.T).a
    restr = Matrix(f, img[:, ez.pivots].T.copy())
    mp = minpoly(restr)
    facs = factor(mp, random.Random(0))
    if len(facs) < 2:
        raise AssertionError("Frobenius-fixed element failed to split the block")
    out = []
    total = np.zeros(s, dtype=f.dtype)
    for poly, mult in facs:
        power = poly
        for _ in range(mult - 1):
            power = power * poly
        rest = mp // power
        # u * rest == 1 mod power gives the CRT idempotent (u * rest)(z)
        g, u, _v = _poly_xgcd(rest, power)
        if g.degree != 0:
            raise AssertionError("CRT factors are not coprime")
        u = u.scale(f.inv(g.c[0]))
        idem_poly = (u * rest) % mp
        e_i = _eval_poly_in_unital(center, idem_poly, z, e)
        if not np.array_equal(center.mul(e_i, e_i), e_i):
            raise AssertionError("CRT split not idempotent")
        out.append(e_i)
        total = f.arr_add(total, e_i)
    if not np.array_equal(total, e):
        raise AssertionError("CRT split does not sum to the block")
    result = []
    for e_i in out:
        result.extend(_split_primitive(center, e_i, jrows))
    return result


def _poly_xgcd(a, b):
    f = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(f), Poly.zero(f)
    t0, t1 = Poly.zero(f), Poly.one(f)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return r0, s0, t0


def _eval_poly_in_unital(center: _Center, poly, z: np.ndarray,
                         e: np.ndarray) -> np.ndarray:
    """Evaluate poly at z inside the unital algebra (eZ, identity e)."""
    f = center.field
    acc = np.zeros(center.s, dtype=f.dtype)
    for coef in reversed(poly.c):
        acc = center.mul(acc, z)
        if coef:
            acc = f.arr_add(acc, f.MUL[int(coef), e])
    return acc


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


def block_of_module(M: Rep, block_list: list[Block], strict: bool = True):
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
            if strict:
                raise ValueError("module is spread over several blocks")
            return None
    if owner is None and strict:
        raise ValueError("no block acts as the identity on the module")
    return owner


def covering_blocks(B: Block, big: Group,
                    big_blocks: Optional[list[Block]] = None,
                    simples_big: Optional[SimpleTable] = None) -> list[Block]:
    """Blocks of k(big) whose idempotent does not kill 1_B."""
    T = transversal(big, B.group)
    if not T.normal:
        raise ValueError("covering requires a normal subgroup")
    f = B.field
    if big_blocks is None:
        big_blocks = blocks(big, f, simples=simples_big)
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


def fong_reynolds_block(B: Block, Btilde: Block,
                        inertial: Optional[Group] = None,
                        inertial_blocks: Optional[list[Block]] = None) -> Block:
    """The block beta of k I(B) with 1_{Btilde} = sum_x x 1_beta x^-1 over
    a transversal of the inertial group, verified exactly."""
    big = Btilde.group
    f = B.field
    if inertial is None:
        inertial = inertial_group(B, big)
    Tbig = transversal(big, inertial)
    if inertial_blocks is None:
        inertial_blocks = blocks(inertial, f)
    candidates = covering_blocks(B, inertial, big_blocks=inertial_blocks)
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
