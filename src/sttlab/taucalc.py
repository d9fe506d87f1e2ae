"""Projective covers, syzygies, the Auslander-Reiten translate, Ext^1 with
its pushout extensions, and support tau-tilting certificates.

Group algebras are symmetric, so tau is computed as the double syzygy of
minimal projective covers; the dual-of-transpose construction, on the dual
modules of a minimal presentation, is kept as an independent second route
and the two must agree up to isomorphism on every module they are both
asked about.  A cover solves Hom(P(S), M) once for each simple S and reads
off it the composition multiplicities (the support of M, with no chop),
rad M as the sum of the phi(rad P(S)), and the lifts of top M.

The PIMs P(S) are summands of the modules induced from the simples of a
maximal p'-subgroup H, not of the regular module, which is Ind_1^G(k):
the PIMs of a p-group are still drawn from kG itself.  Hom(Ind T, S) and
End(Ind T) are read off kH by Frobenius reciprocity, as Hom_H(T, Res S)
and Hom_H(T, Res Ind T).  A projective is split local exactly when its
top is one simple S with End(S) = k, so the split stops there, and End is
computed only for a module that must split.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Optional
import weakref

import numpy as np

from . import blockdec, exactfield as ef
from .exactfield import Field, Matrix, RowSpace
from .grouprep import (
    HomBasis,
    Rep,
    _canonical_basis,
    direct_sum,
    dual_rep,
    hom_space,
    induce,
    is_invariant_subspace,
    iso_class,
    quotient_projection,
    quotient_rep,
    restrict,
    sub_rep,
    zero_rep,
)
from .meataxe import (
    SimpleTable,
    _proper_split,
    chop,
    is_isomorphic,
    simples_of,
    summand_stream,
)
from .permgroup import Group, Transversal, p_prime_subgroup, transversal

__all__ = [
    "Tables",
    "PimTable",
    "SttCertificate",
    "pims",
    "projective_cover",
    "syzygy",
    "tau",
    "tau_routes",
    "ext1",
    "Ext1Result",
    "Cocycle",
    "ext_module",
    "is_stt",
]


@dataclass
class PimTable:
    group: Group
    field: Field
    simples: SimpleTable
    pims: list[Rep]            # aligned with simples.labels
    cover_maps: list[Matrix]   # surjection P_i -> S_i
    end_dims: list[int]        # dim End(S_i)


class Tables:
    """Simple modules, PIMs and blocks of one (group, field, seed), each
    computed on first read.

    While one is alive, Tables.shared returns it for every group with the
    same degree, generators and element list, so the pairs of a sweep that
    share a group compute its tables once.  The registry holds them weakly:
    they go with their last holder."""

    _registry: "weakref.WeakValueDictionary[tuple, Tables]" = weakref.WeakValueDictionary()

    def __init__(self, group: Group, field: Field, seed: int = 0):
        self.group = group
        self.field = field
        self.seed = seed

    @classmethod
    def shared(cls, group: Group, field: Field, seed: int = 0) -> "Tables":
        key = (group.degree, tuple(group.generators), tuple(group.elements), field, seed)
        tables = cls._registry.get(key)
        if tables is None:
            tables = cls._registry[key] = cls(group, field, seed=seed)
        return tables

    @cached_property
    def simples(self) -> SimpleTable:
        return simples_of(self.group, self.field, seed=self.seed)

    @cached_property
    def pimtable(self) -> PimTable:
        return pims(self.group, self.field, seed=self.seed, simples=self.simples)

    @cached_property
    def blocks(self) -> list[blockdec.Block]:
        return blockdec.blocks(self.group, self.field, simples=self.simples, seed=self.seed)

    def chop(self, M: Rep):
        return chop(M, self.simples, seed=self.seed)

    def cover(self, M: Rep) -> CoverData:
        """The minimal projective cover of M, with its kernel, its top and
        the composition multiplicities of M."""
        return _cover_data(M, self)

    def multiplicities(self, M: Rep) -> Counter:
        """The composition multiplicities [M : S] > 0 by label, read off the
        cover: chop's Counter without a chop."""
        return self.cover(M).multiplicities


class _Reciprocity:
    """Hom_G(Ind T, S) and End_G(Ind T) for the modules M = Ind_H^G(T) over
    one transversal t_1 = 1, ..., t_k of H, read off kH by Frobenius
    reciprocity and brought to the basis hom_space returns
    (grouprep._canonical_basis), so the random splits of End(M) draw the
    same elements.  Ind T has the basis t_i (x) T, as in induce."""

    def __init__(self, cosets: Transversal):
        self.cosets = cosets

    @cached_property
    def coset_products(self) -> tuple[np.ndarray, np.ndarray]:
        """m and h with t_i t_j = t_m[i, j] h[i, j], h an index into
        H.elements, found on point-image arrays: no Perm products."""
        R = np.array([t.images for t in self.cosets.reps])
        Hs = np.array([h.images for h in self.cosets.small.elements])
        where = {g: (m, h) for m, row in enumerate(R[:, Hs].tolist())
                 for h, g in enumerate(map(tuple, row))}
        k = len(R)
        mh = np.array([where[g] for g in map(tuple, R[:, R].reshape(k * k, -1).tolist())])
        return mh[:, 0].reshape(k, k), mh[:, 1].reshape(k, k)

    def hom(self, M: Rep, T: Rep, S: Rep) -> HomBasis:
        """psi in Hom_H(T, Res S) gives the map t_i (x) v -> rho_S(t_i) psi v,
        so column block i is rho_S(t_i) psi; the basis is built on first read."""
        f, H = M.field, self.cosets.small
        psi = hom_space(T, restrict(S, H))

        def build() -> list[Matrix]:
            if not psi.dim:
                return []
            r, k = psi.dim, len(self.cosets.reps)
            acts = np.concatenate([S.act(t).a for t in self.cosets.reps])  # k d_S x d_S
            side = np.concatenate([X.a for X in psi.basis], axis=1)  # the psi side by side
            phi = ef._matmul(f, acts, side).reshape(k, S.dim, r, T.dim)
            return _canonical_basis(f, phi.transpose(2, 1, 0, 3).reshape(r, -1), S.dim, M.dim)

        return HomBasis(M, S, build, dim=psi.dim)

    def end(self, M: Rep, T: Rep) -> HomBasis:
        """psi in Hom_H(T, Res M), with row blocks psi_j, gives the map
        t_i (x) v -> t_i psi(v); as t_i t_j = t_m h, its block (m, i) is
        rho_T(h) psi_j."""
        f, H, d = M.field, self.cosets.small, T.dim
        m, h = self.coset_products
        k = len(m)
        psi = hom_space(T, restrict(M, H))
        r = psi.dim
        acts = np.concatenate([T.act(g).a for g in H.elements])  # |H| d x d
        blocks = np.array([X.a for X in psi.basis]).reshape(r, k, d, d)
        prod = ef._matmul(f, acts, blocks.transpose(2, 0, 1, 3).reshape(d, -1))
        prod = prod.reshape(len(H.elements), d, r, k, d).transpose(0, 3, 2, 1, 4)
        cols = np.broadcast_to(np.arange(k), (k, k))  # cols[i, j] = j
        phi = np.empty((k, k, r, d, d), dtype=f.dtype)  # block (m, i) of each map
        phi[m, cols.T] = prod[h, cols]
        flat = phi.transpose(2, 0, 3, 1, 4).reshape(r, -1)
        return HomBasis(M, M, _canonical_basis(f, flat, M.dim, M.dim))


def _induced_projectives(group: Group, field: Field, simples: SimpleTable,
                         seed: int):
    """The projective modules M = Ind_H^G(T), T a simple kH-module, for a
    maximal p'-subgroup H, each as (M, [Hom(M, S) for the simples S], a
    function giving End(M)), both from kH (_Reciprocity); T = k first, as
    P(k) lies in no other, then by dimension.  H = 1 induces the regular
    module itself; H = G needs no induction: the table's simples are the
    modules, and Schur's lemma their homs."""
    H = p_prime_subgroup(group, field.p)
    if H.order == group.order:
        for S in simples.simples:
            yield (S, [hom_space(S, S) if R is S else HomBasis(S, R, []) for R in simples.simples],
                   partial(hom_space, S, S))
        return
    recip = _Reciprocity(transversal(group, H))
    table = simples_of(H, field, seed=seed)
    trivial = table.simples[table.labels.index(table.trivial_label())]
    for T in sorted(table.simples, key=lambda T: (T is not trivial, T.dim)):
        M = induce(T, group, recip.cosets)
        yield M, [recip.hom(M, T, S) for S in simples.simples], partial(recip.end, M, T)


def _pim_leaves(M: Rep, homs: list[HomBasis], end, simples: SimpleTable, seed: int):
    """The leaves of summand_stream(M, seed) for a projective M, in its
    order, each as (P, [Hom(P, S) for the simples S]), given M's homs and
    a function giving End(M).

    A projective is split local exactly when its top is one simple S with
    End(S) = k, that is, when sum_S dim Hom(M, S) = 1; so End is built only
    at a node that must split, as _proper_split needs it.  A part is a
    summand, so its homs are the restrictions phi W^T of M's, W its rows."""
    if sum(H.dim for H in homs) == 1:
        yield M, homs
        return
    f = M.field
    for rows in _proper_split(M, end(), seed):
        P = sub_rep(M, rows)
        part_homs = []
        for H, S in zip(homs, simples.simples):
            if H.dim == 0:
                part_homs.append(HomBasis(P, S, []))
                continue
            flat = ef._matmul(f, np.concatenate([X.a for X in H.basis]), rows.a.T)
            part_homs.append(HomBasis(P, S, _canonical_basis(
                f, flat.reshape(H.dim, -1), S.dim, P.dim)))
        yield from _pim_leaves(P, part_homs, partial(hom_space, P, P), simples, seed)


def pims(group: Group, field: Field, seed: int = 0,
         simples: Optional[SimpleTable] = None) -> PimTable:
    """Indecomposable projectives, each labelled by its simple top, drawn
    from the Ind_H^G(T) of _induced_projectives by _pim_leaves until every
    simple has one; certified complete by
    sum_S (dim S / dim End S) * dim P(S) = |G|.

    kH is semisimple for a p'-subgroup H, so every Ind_H^G(T) is
    projective, and kG = Ind_H^G(kH), so every PIM is a summand of one
    (Alperin, "Local Representation Theory", 1986).  P(S) and P(S') are
    isomorphic exactly when S and S' are, so a leaf is new exactly when its
    top is.  Its surjection onto S is the one basis map of Hom(P, S),
    normalized, as every hom_space basis is, to end in a 1 at the last
    nonzero entry of its last row."""
    if simples is None:
        simples = simples_of(group, field, seed=seed)
    found: dict[str, tuple[Rep, Matrix]] = {}  # label -> (P, surjection P -> S)
    leaves = (leaf for root in _induced_projectives(group, field, simples, seed)
              for leaf in _pim_leaves(*root, simples, seed))
    for P, homs in leaves:
        i = [H.dim for H in homs].index(1)
        if simples.labels[i] not in found:
            found[simples.labels[i]] = (P, homs[i].basis[0])
            if len(found) == simples.count:
                break
    if len(found) != simples.count:
        raise AssertionError("projective classes do not match the simples")
    end_dims = [hom_space(S, S).dim for S in simples.simples]
    if group.order != sum(S.dim // e * found[lab][0].dim for lab, S, e
                          in zip(simples.labels, simples.simples, end_dims)):
        raise AssertionError("the PIMs, dim S / dim End S times each, do not fill kG")
    return PimTable(
        group=group,
        field=field,
        simples=simples,
        pims=[found[lab][0] for lab in simples.labels],
        cover_maps=[found[lab][1] for lab in simples.labels],
        end_dims=end_dims,
    )


@dataclass
class CoverData:
    cover: Rep            # P(M)
    surjection: Matrix    # dim M x dim P(M)
    kernel_rows: Matrix   # rows of Omega(M) inside P(M)
    omega: Rep
    top_dims: list[int]   # [top M : S], the lifts from P(S), for each simple S in table order
    multiplicities: Counter  # [M : S] by label, for the labels with [M : S] > 0


def _cover_data(M: Rep, tables: Tables) -> CoverData:
    """The minimal cover of M, read off one Hom(P(S), M) for each simple S:
    [M : S] = dim Hom(P(S), M) / dim End(S), and rad M = J M is the sum of
    the phi(rad P(S)), rad P(S) the kernel of the cover map P(S) -> S.  The
    e_j of the first column off rad P(S) generates P(S), so phi lifts a new
    summand of top M exactly when phi(e_j) is new modulo rad M and the
    lifts before it."""
    f = M.field
    pt = tables.pimtable
    homs = [hom_space(P, M) for P in pt.pims]
    mults: Counter = Counter()
    for lab, H, e in zip(pt.simples.labels, homs, pt.end_dims):
        mults[lab], rest = divmod(H.dim, e)
        if rest:
            raise AssertionError("dim Hom(P(S), M) is not a multiple of dim End(S)")
    if sum(c * S.dim for c, S in zip(mults.values(), pt.simples.simples)) != M.dim:
        raise AssertionError("composition multiplicities do not fill dim M")
    if M.dim == 0:
        z, empty = zero_rep(M.group, f), Matrix.zeros(f, 0, 0)
        return CoverData(z, empty, empty, z, [0] * len(homs), Counter())
    rad = []  # the phi(rad P(S)), as the rows of (phi_1; ...; phi_r) K for each S
    for H, to_simple in zip(homs, pt.cover_maps):
        if H.dim:
            K = ef._nullspace(f, to_simple.a)
            images = ef._matmul(f, np.concatenate([phi.a for phi in H.basis]), K)
            rad.append(images.reshape(H.dim, M.dim, -1).transpose(0, 2, 1).reshape(-1, M.dim))
    space = RowSpace(f, M.dim, np.concatenate(rad))  # rad M, then the lifts
    top_dim = M.dim - space.dim
    lifts = []  # for each S, the phi new modulo rad M and the lifts before them
    for H, to_simple in zip(homs, pt.cover_maps):
        j = np.flatnonzero(to_simple.a.any(axis=0))[0]  # e_j generates P(S)
        lifts.append([phi.a for phi in H.basis if space.add(phi.a[:, j])])
    if not any(lifts):
        raise AssertionError("nonzero module with empty top")
    P_total = direct_sum([P for P, chosen in zip(pt.pims, lifts) for _ in chosen])
    surj = Matrix(f, np.concatenate([phi for chosen in lifts for phi in chosen], axis=1))
    top_dims = [len(chosen) for chosen in lifts]
    # minimality and surjectivity certificates; the rank is read off the
    # kernel, from the one echelon form
    null = ef._nullspace(f, surj.a)
    if surj.cols - null.shape[1] != M.dim:
        raise AssertionError("projective cover map is not surjective")
    if sum(S.dim * d for S, d in zip(pt.simples.simples, top_dims)) != top_dim:
        raise AssertionError("projective cover is not minimal")
    kernel_rows = Matrix(f, RowSpace(f, P_total.dim, null.T).matrix())
    omega = sub_rep(P_total, kernel_rows) if kernel_rows.rows else zero_rep(M.group, f)
    return CoverData(P_total, surj, kernel_rows, omega, top_dims, +mults)


def projective_cover(M: Rep, tables: Tables) -> tuple[Rep, Matrix]:
    if M.dim == 0:
        raise ValueError("projective cover of the zero module is not defined")
    data = _cover_data(M, tables)
    return data.cover, data.surjection


def syzygy(M: Rep, tables: Tables) -> Rep:
    """Kernel of the minimal projective cover; zero for projectives."""
    if M.dim == 0:
        return zero_rep(M.group, M.field)
    return _cover_data(M, tables).omega


def tau(M: Rep, tables: Tables) -> Rep:
    """Auslander-Reiten translate, as the double syzygy Omega^2 M of minimal
    covers (valid because group algebras are symmetric)."""
    return syzygy(syzygy(M, tables), tables)


def tau_routes(M: Rep, tables: Tables) -> tuple[Rep, Rep]:
    """tau(M) as Omega^2 M and as D Tr M (see _tau_dtr), both read off the
    two covers of one minimal presentation.  They agree up to isomorphism."""
    if M.dim:
        c0 = _cover_data(M, tables)
        if c0.omega.dim:  # else M is projective and tau vanishes
            c1 = _cover_data(c0.omega, tables)
            return c1.omega, _tau_dtr(c0, c1)
    return zero_rep(M.group, M.field), zero_rep(M.group, M.field)


def _tau_dtr(c0: CoverData, c1: CoverData) -> Rep:
    """D Tr M from the minimal presentation P1 -d-> P0 -> M, given by the
    covers c0 of M and c1 of Omega M.

    kG is symmetric, so phi -> (the coefficient of 1 in phi) is an
    isomorphism Hom_kG(P, kG) = P*, natural in P.  Tr M is then the
    cokernel of the transpose P0* -> P1*, whose image is the row space R
    of d, and D Tr M is the dual of P1* / R."""
    f = c1.cover.field
    # presentation map d: P1 -> P0 through the inclusion of Omega(M)
    d = Matrix(f, c0.kernel_rows.a.T) @ c1.surjection
    P1_dual = dual_rep(c1.cover)
    if not is_invariant_subspace(P1_dual, d):  # R, the row space of d
        raise AssertionError("the transpose image is not a submodule of P1*")
    coker = quotient_rep(P1_dual, d)
    return dual_rep(coker) if coker.dim else zero_rep(c1.cover.group, f)


@dataclass
class Cocycle:
    """A hom from the syzygy of `source` to `target`, with enough context to
    build the pushout extension and to detect split classes."""

    source: Rep              # S: the module on top
    target: Rep              # T: the module at the bottom
    cover: Rep               # P(S)
    omega_rows: Matrix       # RREF rows of Omega(S) inside P(S)
    matrix: Matrix           # dim T x dim Omega(S)
    restriction_rows: Matrix  # span of Hom(P(S), T) restricted, flattened rows


@dataclass
class Ext1Result:
    dimension: int
    cocycles: list[Cocycle]


def ext1(S: Rep, T: Rep, tables: Tables) -> Ext1Result:
    """Ext^1(S, T) = Hom(Omega S, T) modulo restrictions from the cover."""
    f = S.field
    data = _cover_data(S, tables)
    if data.omega.dim == 0:
        return Ext1Result(0, [])
    H = hom_space(data.omega, T)
    restr = RowSpace(f, T.dim * data.omega.dim)
    restriction_rows = []
    emb = Matrix(f, data.kernel_rows.a.T)  # Omega coords -> P coords
    for psi in hom_space(data.cover, T).basis:
        restricted = psi @ emb
        if restr.add(restricted.a.reshape(-1)):
            restriction_rows.append(restricted.a.reshape(-1))
    if restriction_rows:
        restriction = Matrix(f, np.stack(restriction_rows))
    else:
        restriction = Matrix.zeros(f, 0, T.dim * data.omega.dim)
    # a cocycle is a new class exactly when it is new modulo the
    # restrictions and the cocycles picked before it
    cocycles = []
    for phi in H.basis:
        if restr.add(phi.a.reshape(-1)):
            cocycles.append(Cocycle(
                source=S,
                target=T,
                cover=data.cover,
                omega_rows=data.kernel_rows,
                matrix=phi,
                restriction_rows=restriction,
            ))
    dim = H.dim - len(restriction_rows)
    if dim != len(cocycles):
        raise AssertionError("Ext^1 dimension does not match its cocycle basis")
    return Ext1Result(dim, cocycles)


def ext_module(S: Rep, T: Rep, cocycle: Cocycle) -> Rep:
    """Indecomposable extension with top S and radical T, built as the
    pushout (P(S) + T) / {(w, -f(w))}."""
    f = S.field
    if cocycle.source is not S or cocycle.target is not T:
        if cocycle.source.dim != S.dim or cocycle.target.dim != T.dim:
            raise ValueError("cocycle does not match the given modules")
    flat = cocycle.matrix.a.reshape(1, -1)
    R = cocycle.restriction_rows.a
    if RowSpace(f, R.shape[1], R).contains(flat[0]):
        raise ValueError("cocycle represents the zero class (split extension)")
    P = cocycle.cover
    K = cocycle.omega_rows.a
    k = K.shape[0]
    amb = direct_sum([P, T])
    graph = np.zeros((k, P.dim + T.dim), dtype=f.dtype)
    graph[:, :P.dim] = K
    graph[:, P.dim:] = f.NEG[cocycle.matrix.a.T]
    if not is_invariant_subspace(amb, graph):
        raise ValueError("cocycle is not a module homomorphism")
    E = quotient_rep(amb, graph)
    if E.dim != S.dim + T.dim:
        raise AssertionError("extension has the wrong dimension")
    # certify the two-step structure: T embeds, the quotient is S
    proj = quotient_projection(amb, graph)
    t_rows = RowSpace(f, E.dim, proj.a[:, P.dim:].T).matrix()
    if t_rows.shape[0] != T.dim or not is_invariant_subspace(E, t_rows):
        raise AssertionError("bottom module does not embed into the extension")
    bottom = sub_rep(E, t_rows)
    top = quotient_rep(E, t_rows)
    if not is_isomorphic(bottom, T):
        raise AssertionError("extension radical is not the expected module")
    if not is_isomorphic(top, S):
        raise AssertionError("extension top is not the expected module")
    return E


@dataclass
class SttCertificate:
    tau_dim: int                  # dim tau M
    summand_classes: int          # m: pairwise non-isomorphic summand classes
    cosupport: tuple[str, ...]    # scope simples with Hom(P_i, M) = 0
    scope: tuple[str, ...]        # simple labels in scope
    rigid: bool
    stt: bool

    @property
    def z(self) -> int:
        return len(self.cosupport)

    @property
    def n(self) -> int:
        return len(self.scope)


def is_stt(M: Rep, tables: Tables, block=None, seed: int = 0) -> SttCertificate:
    """Support tau-tilting certificate via the counting criterion
    m + z = n over the scope (all simples, or one block's simples);
    ValueError when M does not lie in the block."""
    classes: list[Rep] = []  # the first leaf of each class
    mults: Counter = Counter()
    for _, leaf in summand_stream(M, seed):
        hit = iso_class(leaf, classes)
        if hit is None:
            classes.append(leaf)
        mults[len(classes) - 1 if hit is None else hit[0]] += 1
    covers = [tables.cover(rep) for rep in classes]  # for the support and Omega
    support = set().union(*(c.multiplicities for c in covers))
    if block is not None and support:  # ValueError outside the block
        blockdec.block_of_factors(support, [block])
    scope = tuple(tables.simples.labels if block is None else block.simple_labels)
    class_taus = [syzygy(c.omega, tables) for c in covers]
    rigid = not any(t_j.dim and hom_space(rep_i, t_j).dim
                    for rep_i in classes for t_j in class_taus)
    cosupport = tuple(lab for lab in scope if lab not in support)
    m = len(classes)
    stt = rigid and (m + len(cosupport) == len(scope))
    return SttCertificate(
        tau_dim=sum(mults[i] * t_j.dim for i, t_j in enumerate(class_taus)),
        summand_classes=m,
        cosupport=cosupport,
        scope=scope,
        rigid=rigid,
        stt=stt,
    )
