"""Projective covers, syzygies, the Auslander-Reiten translate, Ext^1 with
its pushout extensions, and support tau-tilting certificates.

Group algebras are symmetric, so tau is computed as the double syzygy of
minimal projective covers; the dual-of-transpose construction, on the dual
modules of a minimal presentation, is kept as an independent second route
and the two must agree up to isomorphism on every module they are both
asked about.  The support of M, for the counting criterion, is read from
dim Hom(P(S), M), not a chop.

The PIMs P(S) are summands of the modules induced from the simples of a
maximal p'-subgroup H, not of the regular module, which is Ind_1^G(k):
the PIMs of a p-group are still drawn from kG itself.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import blockdec
from .exactfield import Field, Matrix, RowSpace, _nullspace
from .grouprep import (
    Rep,
    direct_sum,
    dual_rep,
    hom_space,
    induce,
    is_invariant_subspace,
    iso_class,
    quotient_projection,
    quotient_rep,
    sub_rep,
    zero_rep,
)
from .meataxe import (
    SimpleTable,
    chop,
    is_isomorphic,
    radical_top,
    simples_of,
    summand_stream,
)
from .permgroup import Group, p_prime_subgroup, transversal

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
    """Shared simple-module and projective data for one (group, field)."""

    def __init__(self, group: Group, field: Field, seed: int = 0):
        self.group = group
        self.field = field
        self.seed = seed

    @cached_property
    def simples(self) -> SimpleTable:
        return simples_of(self.group, self.field, seed=self.seed)

    @cached_property
    def pimtable(self) -> PimTable:
        return pims(self.group, self.field, seed=self.seed, simples=self.simples)

    def chop(self, M: Rep):
        return chop(M, self.simples, seed=self.seed)

    def cover(self, M: Rep) -> CoverData:
        """The minimal projective cover of M, with its kernel and top."""
        return _cover_data(M, self)

    def multiplicities(self, M: Rep) -> Counter:
        """chop's Counter read off hom dimensions, [M : S] = dim Hom(P(S), M)
        / dim End(S), and certified by sum_S [M : S] dim S = dim M."""
        pt = self.pimtable
        out: Counter = Counter()
        for lab, P, e in zip(pt.simples.labels, pt.pims, pt.end_dims):
            out[lab], rest = divmod(hom_space(P, M).dim, e)
            if rest:
                raise AssertionError("dim Hom(P(S), M) is not a multiple of dim End(S)")
        if sum(c * S.dim for c, S in zip(out.values(), pt.simples.simples)) != M.dim:
            raise AssertionError("composition multiplicities do not fill dim M")
        return +out  # the labels with [M : S] > 0


def _induced_projectives(group: Group, field: Field, simples: SimpleTable,
                         seed: int):
    """The projective modules Ind_H^G(T), T a simple kH-module, for a
    maximal p'-subgroup H; T = k first, as P(k) lies in no other, then by
    dimension.  H = 1 induces the regular module itself; H = G needs no
    induction, and its simples are the table's."""
    H = p_prime_subgroup(group, field.p)
    if H.order == group.order:
        yield from simples.simples
        return
    T = transversal(group, H)
    table = simples_of(H, field, seed=seed)
    trivial = table.simples[table.labels.index(table.trivial_label())]
    for S in sorted(table.simples, key=lambda S: (S is not trivial, S.dim)):
        yield induce(S, group, T)


def pims(group: Group, field: Field, seed: int = 0,
         simples: Optional[SimpleTable] = None) -> PimTable:
    """Indecomposable projectives, each labelled by its simple top, drawn
    from the summands of the Ind_H^G(T) of _induced_projectives until every
    simple has one; certified complete by
    sum_S (dim S / dim End S) * dim P(S) = |G|.

    kH is semisimple for a p'-subgroup H, so every Ind_H^G(T) is
    projective, and kG = Ind_H^G(kH), so every PIM is a summand of one
    (Alperin, "Local Representation Theory", 1986)."""
    if simples is None:
        simples = simples_of(group, field, seed=seed)
    found: dict[str, tuple[Rep, Matrix]] = {}  # label -> (P, surjection P -> S)
    leaves = (P for M in _induced_projectives(group, field, simples, seed)
              for _rows, P in summand_stream(M, seed))
    for P in leaves:
        if iso_class(P, [Q for Q, _ in found.values()]) is not None:
            continue
        rt = radical_top(P, simples)
        hit = iso_class(rt.top, simples.simples)
        if hit is None:
            raise AssertionError("top of a projective matches no simple")
        label = simples.labels[hit[0]]
        if label in found:
            raise AssertionError("two projective classes share a top")
        # the surjection: top projection followed by the matching iso
        found[label] = (P, hit[1] @ quotient_projection(P, rt.radical_rows))
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
    top_dims: list[int]   # dim Hom(M, S) for each simple S, in table order


def _cover_data(M: Rep, tables: Tables) -> CoverData:
    f = M.field
    pt = tables.pimtable
    simples = tables.simples
    if M.dim == 0:
        empty = Matrix.zeros(f, 0, 0)
        z = zero_rep(M.group, f)
        return CoverData(z, empty, Matrix.zeros(f, 0, 0), z, [0] * simples.count)
    rt = radical_top(M, simples)
    top_dim = M.dim - rt.radical_rows.rows
    top_proj = quotient_projection(M, rt.radical_rows)  # dim top x dim M
    parts: list[Rep] = []
    columns: list[np.ndarray] = []
    for P, to_simple in zip(pt.pims, rt.homs):
        c_i = to_simple.dim  # multiplicity of the simple S_i in top(M)
        if c_i == 0:
            continue
        H = hom_space(P, M)
        # pick c_i maps whose composites with the top projection are
        # linearly independent; projectivity guarantees they exist
        chosen: list[Matrix] = []
        probe = RowSpace(f, top_dim * P.dim)
        for phi in H.basis:
            composite = top_proj @ phi
            if probe.add(composite.a.reshape(-1)):
                chosen.append(phi)
                if len(chosen) == c_i:
                    break
        if len(chosen) != c_i:
            raise AssertionError(
                "projective cover lifting system is inconsistent"
            )
        for phi in chosen:
            parts.append(P)
            columns.append(phi.a)
    if parts:
        P_total = direct_sum(parts)
        surj = Matrix(f, np.concatenate(columns, axis=1))
    else:  # M is zero-dimensional (handled above) or has no top: impossible
        raise AssertionError("nonzero module with empty top")
    # minimality and surjectivity certificates; the rank is read off the
    # kernel, from the one echelon form
    null = _nullspace(f, surj.a)
    if surj.cols - null.shape[1] != M.dim:
        raise AssertionError("projective cover map is not surjective")
    top_dims = [H.dim for H in rt.homs]
    if sum(S.dim * d for S, d in zip(simples.simples, top_dims)) != top_dim:
        raise AssertionError("projective cover is not minimal")
    kernel_rows = Matrix(f, RowSpace(f, P_total.dim, null.T).matrix())
    omega = sub_rep(P_total, kernel_rows) if kernel_rows.rows else zero_rep(M.group, f)
    return CoverData(P_total, surj, kernel_rows, omega, top_dims)


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


def tau(M: Rep, tables: Tables, method: str = "omega2") -> Rep:
    """Auslander-Reiten translate.

    omega2: double syzygy of minimal covers (valid because group algebras
    are symmetric).  dtr: dual of the transpose of a minimal projective
    presentation, with Hom(P, kG) read as the dual module P* (see
    _tau_dtr).  Both methods agree up to isomorphism.
    """
    return tau_routes(M, tables, (method,))[0]


def tau_routes(M: Rep, tables: Tables, methods=("omega2", "dtr")) -> tuple[Rep, ...]:
    """tau(M) by each of methods, all read off the two covers of one minimal
    presentation."""
    for method in methods:
        if method not in ("omega2", "dtr"):
            raise ValueError(f"unknown tau method {method!r}")
    if M.dim:
        c0 = _cover_data(M, tables)
        if c0.omega.dim:  # else M is projective and tau vanishes
            c1 = _cover_data(c0.omega, tables)
            return tuple(c1.omega if method == "omega2" else _tau_dtr(c0, c1)
                         for method in methods)
    return tuple(zero_rep(M.group, M.field) for _ in methods)


def _tau_dtr(c0: CoverData, c1: CoverData) -> Rep:
    """D Tr M from the minimal presentation P1 -d-> P0 -> M, given by the
    covers c0 of M and c1 of Omega M.

    kG is symmetric, so phi -> (the coefficient of 1 in phi) is an
    isomorphism Hom_kG(P, kG) = P*, natural in P.  Tr M is then the
    cokernel of the transpose P0* -> P1*, whose image is the row space R
    of d, and D Tr M is the dual of P1* / R."""
    f = c1.cover.field
    # presentation map d: P1 -> P0 through the inclusion of Omega(M)
    d = Matrix(f, c0.kernel_rows.a.T.copy()) @ c1.surjection
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
    emb = Matrix(f, data.kernel_rows.a.T.copy())  # Omega coords -> P coords
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
    module: Rep
    tau: Rep
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
    m + z = n over the scope (all simples, or one block's simples)."""
    if block is not None:
        scope = tuple(block.simple_labels)
        if not blockdec.module_in_block(M, block):
            raise ValueError("module does not lie in the given block")
    else:
        scope = tuple(tables.simples.labels)
    classes: list[Rep] = []  # the first leaf of each class
    mults: Counter = Counter()
    for _, leaf in summand_stream(M, seed):
        hit = iso_class(leaf, classes)
        if hit is None:
            classes.append(leaf)
        mults[len(classes) - 1 if hit is None else hit[0]] += 1
    class_taus = [tau(rep, tables) for rep in classes]
    rigid = not any(t_j.dim and hom_space(rep_i, t_j).dim
                    for rep_i in classes for t_j in class_taus)
    tau_parts = []
    for i, t_j in enumerate(class_taus):
        if t_j.dim:
            tau_parts.extend([t_j] * mults[i])
    tau_M = direct_sum(tau_parts, group=M.group, field=M.field)
    support = set()
    for rep_j in classes:
        support.update(tables.multiplicities(rep_j).keys())
    cosupport = tuple(lab for lab in scope if lab not in support)
    m = len(classes)
    stt = rigid and (m + len(cosupport) == len(scope))
    return SttCertificate(
        module=M,
        tau=tau_M,
        summand_classes=m,
        cosupport=cosupport,
        scope=scope,
        rigid=rigid,
        stt=stt,
    )
