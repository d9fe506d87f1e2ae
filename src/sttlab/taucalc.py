"""Projective covers, syzygies, the Auslander-Reiten translate and support
tau-tilting certificates.

Group algebras are symmetric, so tau is computed as the double syzygy of
minimal projective covers; the classical dual-of-transpose construction is
kept as an independent second route and the two must agree up to
isomorphism on every module they are both asked about.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import blockdec
from .exactfield import Field, Matrix, RowSpace, linsolve, rank, _nullspace
from .grouprep import (
    Cocycle,
    Rep,
    direct_sum,
    dual_rep,
    hom_space,
    iso_class,
    quotient_projection,
    quotient_rep,
    regular_rep,
    right_mult_matrix,
    sub_rep,
    zero_rep,
)
from .meataxe import (
    SimpleTable,
    chop,
    decompose,
    radical_top,
    simples_of,
    summand_stream,
)
from .permgroup import Group

__all__ = [
    "Tables",
    "PimTable",
    "SttCertificate",
    "pims",
    "projective_cover",
    "syzygy",
    "tau",
    "ext1",
    "Ext1Result",
    "is_tau_rigid",
    "is_stt",
]


@dataclass
class PimTable:
    group: Group
    field: Field
    simples: SimpleTable
    pims: list[Rep]            # aligned with simples.labels
    cover_maps: list[Matrix]   # surjection P_i -> S_i


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


def pims(group: Group, field: Field, seed: int = 0,
         simples: Optional[SimpleTable] = None) -> PimTable:
    """Indecomposable projectives as summands of the regular module, each
    labelled by its simple top, drawn until every simple has one; certified
    complete by sum_S (dim S / dim End S) * dim P(S) = |G|."""
    if simples is None:
        simples = simples_of(group, field, seed=seed)
    found: dict[str, tuple[Rep, Matrix]] = {}  # label -> (P, surjection P -> S)
    for _rows, P in summand_stream(regular_rep(group, field), seed):
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
    if group.order != sum(S.dim // hom_space(S, S).dim * found[lab][0].dim
                          for lab, S in zip(simples.labels, simples.simples)):
        raise AssertionError("the PIMs, dim S / dim End S times each, do not fill kG")
    return PimTable(
        group=group,
        field=field,
        simples=simples,
        pims=[found[lab][0] for lab in simples.labels],
        cover_maps=[found[lab][1] for lab in simples.labels],
    )


@dataclass
class CoverData:
    cover: Rep            # P(M)
    surjection: Matrix    # dim M x dim P(M)
    kernel_rows: Matrix   # rows of Omega(M) inside P(M)
    omega: Rep


def _cover_data(M: Rep, tables: Tables) -> CoverData:
    f = M.field
    pt = tables.pimtable
    simples = tables.simples
    if M.dim == 0:
        empty = Matrix.zeros(f, 0, 0)
        z = zero_rep(M.group, f)
        return CoverData(z, empty, Matrix.zeros(f, 0, 0), z)
    rt = radical_top(M, simples)
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
        probe = RowSpace(f, rt.top.dim * P.dim)
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
    # minimality and surjectivity certificates
    if rank(surj) != M.dim:
        raise AssertionError("projective cover map is not surjective")
    if sum(S.dim * H.dim for S, H in zip(simples.simples, rt.homs)) != rt.top.dim:
        raise AssertionError("projective cover is not minimal")
    null = _nullspace(f, surj.a)
    kernel_rows = Matrix(f, RowSpace(f, P_total.dim, null.T).matrix())
    omega = sub_rep(P_total, kernel_rows) if kernel_rows.rows else zero_rep(M.group, f)
    return CoverData(P_total, surj, kernel_rows, omega)


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
    presentation, with right modules carried through the inversion
    antiautomorphism.  Both methods agree up to isomorphism.
    """
    if method == "omega2":
        if M.dim == 0:
            return zero_rep(M.group, M.field)
        o1 = syzygy(M, tables)
        if o1.dim == 0:
            return zero_rep(M.group, M.field)
        return syzygy(o1, tables)
    if method == "dtr":
        return _tau_dtr(M, tables)
    raise ValueError(f"unknown tau method {method!r}")


def _twisted_hom_to_regular(P: Rep, tables: Tables) -> tuple[Rep, list[Matrix]]:
    """Hom(P, kG) as a left module through g . phi = R_{g^-1} phi.

    Returns the module together with the hom basis (|G| x dim P matrices).
    """
    G, f = P.group, P.field
    reg = regular_rep(G, f)
    basis = hom_space(P, reg).basis
    h = len(basis)
    if h == 0:
        return zero_rep(G, f), []
    flat = np.stack([b.a.reshape(-1) for b in basis])
    A = Matrix(f, flat.T.copy())
    gen_mats = []
    for a in G.generators:
        Rinv = right_mult_matrix(G, f, a.inverse())
        cols = []
        for b in basis:
            img = (Rinv @ b).a.reshape(-1)
            sol = linsolve(A, Matrix(f, img[:, None].copy()))
            if sol.particular is None:
                raise AssertionError("twisted action left the hom space")
            cols.append(sol.particular.a[:, 0])
        gen_mats.append(Matrix(f, np.stack(cols, axis=1)))
    return Rep(G, f, gen_mats, dim=h), basis


def _tau_dtr(M: Rep, tables: Tables) -> Rep:
    f = M.field
    G = M.group
    if M.dim == 0:
        return zero_rep(G, f)
    c0 = _cover_data(M, tables)
    if c0.omega.dim == 0:  # projective module: tau vanishes
        return zero_rep(G, f)
    c1 = _cover_data(c0.omega, tables)
    # presentation map d: P1 -> P0 through the inclusion of Omega(M)
    d = Matrix(f, (Matrix(f, c0.kernel_rows.a.T.copy()) @ c1.surjection).a)
    hom0, basis0 = _twisted_hom_to_regular(c0.cover, tables)
    hom1, basis1 = _twisted_hom_to_regular(c1.cover, tables)
    if hom1.dim == 0:
        return zero_rep(G, f)
    flat1 = np.stack([b.a.reshape(-1) for b in basis1])
    A1 = Matrix(f, flat1.T.copy())
    image_rows = []
    for psi in basis0:
        img = (psi @ d).a.reshape(-1)
        sol = linsolve(A1, Matrix(f, img[:, None].copy()))
        if sol.particular is None:
            raise AssertionError("transpose image left the hom space")
        image_rows.append(sol.particular.a[:, 0])
    rows = Matrix(f, RowSpace(f, hom1.dim, image_rows).matrix())
    coker = quotient_rep(hom1, rows) if rows.rows < hom1.dim else zero_rep(G, f)
    if coker.dim == 0:
        return zero_rep(G, f)
    return dual_rep(coker)


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


def is_tau_rigid(M: Rep, tables: Tables, seed: int = 0) -> SttCertificate:
    """The support tau-tilting certificate over all simples, read for its
    rigidity verdict."""
    return is_stt(M, tables, seed=seed)


def is_stt(M: Rep, tables: Tables, block=None, seed: int = 0) -> SttCertificate:
    """Support tau-tilting certificate via the counting criterion
    m + z = n over the scope (all simples, or one block's simples)."""
    if block is not None:
        scope = tuple(block.simple_labels)
        if not blockdec.module_in_block(M, block):
            raise ValueError("module does not lie in the given block")
    else:
        scope = tuple(tables.simples.labels)
    dec = decompose(M, seed=seed)
    class_taus = [tau(rep, tables) for rep, _ in dec.summands]
    rigid = not any(t_j.dim and rep_i.dim and hom_space(rep_i, t_j).dim
                    for rep_i, _ in dec.summands for t_j in class_taus)
    tau_parts = []
    for (rep_j, mult), t_j in zip(dec.summands, class_taus):
        if t_j.dim:
            tau_parts.extend([t_j] * mult)
    tau_M = direct_sum(tau_parts, group=M.group, field=M.field)
    support = set()
    for rep_j, _ in dec.summands:
        support.update(tables.chop(rep_j).keys())
    cosupport = tuple(lab for lab in scope if lab not in support)
    m = len(dec.summands)
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
