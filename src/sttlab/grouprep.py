"""Modules over group algebras as matrix representations.

A Rep assigns one matrix per group generator; the matrix of every element
is derived along its recorded generator word, on first use.  Column-vector
convention: g sends v to act(g) @ v.  Subspaces are handled as row bases in
reduced echelon form.

The homomorphism law is certified once, in rep_make, where matrices enter
from outside (cli.parse_rep_file goes through it).  Rep(...) itself checks
only shapes and fields: every other constructor here, and the coordinate
slices of meataxe, builds a module by theorem from modules that already
are one, so it calls Rep directly.  Generator matrices must not be mutated
once a Rep holds them.

hom_space takes one of two exact regimes, chosen by the number of unknowns
dim M * dim N alone.  Below _SPIN_MIN_UNKNOWNS it solves the Kronecker
system on all entries of X.  From there up it spins M from standard basis
vectors (Lux and Szoke, Exp. Math. 2003) and solves only for the images of
the s spin seeds, s * dim N unknowns (s = 1 for a cyclic module such as
kG).  The spin of M and its echelon forms depend on M alone, so they are
paid once per Rep (_spin_source); on the hom spaces of the benchmark
workloads that won from 8 unknowns up, and a first call from 36 up.
Both regimes return the same basis: the _kernel_from_rref basis of a
kernel is its reduced row echelon form under reversed column order (each
vector ends in a 1 at its free column, where every other basis vector is
0), which depends on the kernel alone, so the spin regime brings its basis
to that form.  Either regime gives dim as the corank of its system and
builds the basis on the first read of HomBasis.basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional
import weakref

import numpy as np

from .exactfield import Field, Matrix, RowSpace, _kernel_from_rref, _matmul, _nullspace, \
    _rref, rank
from .permgroup import Group, Perm, Transversal

__all__ = [
    "Rep",
    "HomBasis",
    "IsoResult",
    "rep_make",
    "act",
    "hom_space",
    "hom_dim",
    "iso_indecomposable",
    "InconclusiveError",
    "direct_sum",
    "restrict",
    "induce",
    "conjugate_rep",
    "dual_rep",
    "regular_rep",
    "trivial_rep",
    "zero_rep",
    "sub_rep",
    "quotient_rep",
    "spin",
    "rep_apply_algebra",
]

# hom_space spins from dim M * dim N of this many unknowns up (module
# docstring; measurements in README.md, "Hom spaces").
_SPIN_MIN_UNKNOWNS = 16

# Kronecker-regime answers of hom_space per group, freed with the group: one
# read-only array of flattened basis matrices per (field, dim M, dim N) and
# generator bytes of both modules (README.md, "Hom spaces").
_HOM_MEMO: "weakref.WeakKeyDictionary[Group, dict]" = weakref.WeakKeyDictionary()


class InconclusiveError(RuntimeError):
    """A randomized routine ran out of budget without reaching a verdict."""


class Rep:
    """Matrix representation of a finite group over an exact field.

    Unchecked: the caller vouches that gen_mats obey the group's relations
    (rep_make certifies them) and does not mutate them afterwards.
    """

    __slots__ = ("group", "field", "dim", "gen_mats", "block_dims", "_element_mats",
                 "_spin_source")

    def __init__(self, group: Group, field: Field, gen_mats: list[Matrix],
                 dim: Optional[int] = None, block_dims=None):
        if dim is None:
            if not gen_mats:
                raise ValueError("dimension required when there are no generators")
            dim = gen_mats[0].rows
        if len(gen_mats) != len(group.generators):
            raise ValueError("one matrix per group generator required")
        for M in gen_mats:
            if M.field != field:
                raise ValueError("matrix field mismatch")
            if M.shape != (dim, dim):
                raise ValueError(f"generator matrix shape {M.shape} != ({dim},{dim})")
        self.group = group
        self.field = field
        self.dim = dim
        self.gen_mats = list(gen_mats)
        self.block_dims = tuple(block_dims) if block_dims else None
        self._element_mats = None
        self._spin_source = None

    @property
    def element_mats(self) -> np.ndarray:
        """All |G| element matrices, indexed like group.elements; built on
        first read."""
        if self._element_mats is None:
            self._element_mats = self._build_element_mats()
        return self._element_mats

    def _build_element_mats(self) -> np.ndarray:
        G, f, d = self.group, self.field, self.dim
        E = np.zeros((G.order, d, d), dtype=f.dtype)
        E[0] = np.eye(d, dtype=f.dtype)
        for i in range(1, G.order):
            E[i] = _matmul(f, self.gen_mats[G.words[i][0]].a, E[G.parents[i]])
        return E

    def act_idx(self, idx: int) -> Matrix:
        return Matrix(self.field, self.element_mats[idx].copy())

    def act(self, g) -> Matrix:
        if isinstance(g, Perm):
            g = self.group.idx(g)
        return self.act_idx(int(g))

    def __repr__(self):
        return (f"Rep(group order {self.group.order}, dim {self.dim}, "
                f"field {self.field})")


def _check_homomorphism(M: Rep) -> None:
    """Certify rho(g) rho(h) == rho(gh) for all g, h; ValueError if not.

    element_mats reads each element off one word, so first each generator's
    matrix must equal the one its word gives (which catches an identity,
    repeated or redundant generator with a wrong matrix).  Then rho(g) rho(h)
    == rho(gh) for every generator g and element h; with rho(1) = I this
    gives the full law by induction on word length, and invertibility from
    rho(g) rho(g^-1) = rho(1), so no rank is taken.
    """
    G, f, d = M.group, M.field, M.dim
    n = G.order
    E = M.element_mats
    for gi, a in enumerate(G.generators):
        if not np.array_equal(M.gen_mats[gi].a, E[G.index[a]]):
            raise ValueError(f"generator matrix {gi} violates the group relations")
    if d == 0 or n == 1:
        return
    table = G.mult_table()
    H = np.ascontiguousarray(E.transpose(1, 0, 2)).reshape(d, n * d)
    for i in sorted({G.index[a] for a in G.generators}):
        expect = np.ascontiguousarray(E[table[i]].transpose(1, 0, 2)).reshape(d, n * d)
        if not np.array_equal(_matmul(f, E[i], H), expect):
            raise ValueError(
                f"generator matrices violate the group relations (element {i})"
            )


def rep_make(group: Group, field: Field, gen_matrices: list[Matrix],
             dim: Optional[int] = None) -> Rep:
    """Representation from matrices given from outside, with the
    homomorphism law certified (ValueError when it fails)."""
    M = Rep(group, field, gen_matrices, dim=dim)
    _check_homomorphism(M)
    return M


def act(M: Rep, g) -> Matrix:
    return M.act(g)


def zero_rep(group: Group, field: Field) -> Rep:
    zero = Matrix.zeros(field, 0, 0)
    return Rep(group, field, [zero] * len(group.generators), dim=0)


def trivial_rep(group: Group, field: Field) -> Rep:
    one = Matrix.identity(field, 1)
    return Rep(group, field, [one] * len(group.generators), dim=1)


def regular_rep(group: Group, field: Field) -> Rep:
    """Left translation on the group algebra basis."""
    n = group.order
    mats = []
    for row in group.left:
        arr = np.zeros((n, n), dtype=field.dtype)
        arr[row, np.arange(n)] = 1
        mats.append(Matrix(field, arr))
    return Rep(group, field, mats, dim=n)


def rep_apply_algebra(M: Rep, coeffs) -> Matrix:
    """Action of the group algebra element sum(coeffs[i] * elements[i])."""
    f = M.field
    coeffs = np.asarray(coeffs, dtype=f.dtype)
    if coeffs.shape != (M.group.order,):
        raise ValueError("coefficient vector length must equal the group order")
    E = M.element_mats.reshape(M.group.order, M.dim * M.dim)
    return Matrix(f, _matmul(f, coeffs[None, :], E).reshape(M.dim, M.dim))


# ---------------------------------------------------------------------------
# subspaces

def spin(mats, seed_rows: np.ndarray, field: Field) -> np.ndarray:
    """Smallest row space containing seed_rows and closed under every
    action matrix (rows transform as r -> r @ A.T)."""
    space = RowSpace(field, seed_rows.shape[1])
    _spin_tree(field, mats, seed_rows, space, [])
    return space.matrix()


def _spin_tree(f: Field, mats, seed_rows: np.ndarray, space: RowSpace,
               tree: list) -> None:
    """Close space under every action matrix, from seed_rows, breadth first.

    Each row that enlarges the space is appended to tree as (row, generator
    index, parent position in tree), and a seed as (row, None, None), so
    every other row is exactly its parent row acted on by one generator.
    """
    frontier = []
    for r in seed_rows:
        if space.add(r):
            frontier.append(len(tree))
            tree.append((r, None, None))
    mats_t = [np.ascontiguousarray(A.T) for A in mats]
    while frontier and space.dim < space.width:
        rows = np.array([tree[k][0] for k in frontier])
        new_frontier = []
        for gi, At in enumerate(mats_t):
            for k, img in zip(frontier, _matmul(f, rows, At)):
                if space.add(img):
                    new_frontier.append(len(tree))
                    tree.append((img, gi, k))
                    if space.dim == space.width:
                        return
        frontier = new_frontier


def _row_space(M: Rep, rows) -> RowSpace:
    return RowSpace(M.field, M.dim, rows.a if isinstance(rows, Matrix) else rows)


def sub_rep(M: Rep, rows) -> Rep:
    """Restriction of the action to an invariant row space."""
    f = M.field
    space = _row_space(M, rows)
    W, piv = space.matrix(), space.pivots
    mats = []
    for A in M.gen_mats:
        img = _matmul(f, W, A.a.T)  # rows are images of the basis rows
        if not space.contains(img):
            raise ValueError("row space is not invariant under the action")
        C = img[:, piv]  # coefficients in the RREF basis
        mats.append(Matrix(f, C.T.copy()))
    return Rep(M.group, f, mats, dim=space.dim)


def _projection(M: Rep, rows) -> tuple[np.ndarray, list[int]]:
    """The projection P of M onto its quotient by an invariant row space W,
    with the non-pivot columns of W, whose standard basis vectors map to
    the quotient basis."""
    f = M.field
    space = _row_space(M, rows)
    W, piv = space.matrix(), space.pivots
    piv_set = set(piv)
    comp = [c for c in range(M.dim) if c not in piv_set]
    P = np.zeros((len(comp), M.dim), dtype=f.dtype)
    P[np.arange(len(comp)), comp] = 1
    # mod W, e_p is minus the non-pivot part of the row of W with pivot p
    P[:, piv] = f.NEG[W[:, comp].T]
    return P, comp


def quotient_rep(M: Rep, rows) -> Rep:
    """Action induced on the quotient by an invariant row space."""
    f = M.field
    P, comp = _projection(M, rows)
    mats = [Matrix(f, _matmul(f, P, A.a[:, comp])) for A in M.gen_mats]
    return Rep(M.group, f, mats, dim=len(comp))


def quotient_projection(M: Rep, rows) -> Matrix:
    """Matrix of the projection onto the quotient coordinates of quotient_rep."""
    return Matrix(M.field, _projection(M, rows)[0])


def is_invariant_subspace(M: Rep, rows) -> bool:
    space = _row_space(M, rows)
    W = space.matrix()
    return all(space.contains(_matmul(M.field, W, A.a.T)) for A in M.gen_mats)


# ---------------------------------------------------------------------------
# hom spaces and isomorphism testing

class HomBasis:
    """A basis of Hom(source, target), given as a list of matrices, or as a
    function that builds it together with its dimension.  hom_space takes
    the second form: dim is read off the rank of the hom system, and the
    basis is built on the first read of .basis."""

    __slots__ = ("source", "target", "dim", "_basis")

    def __init__(self, source: Rep, target: Rep, basis, dim: Optional[int] = None):
        self.source = source
        self.target = target
        self.dim = len(basis) if dim is None else dim
        self._basis = basis

    @property
    def basis(self) -> list[Matrix]:
        if callable(self._basis):
            self._basis = self._basis()
        return self._basis


def _kron(f: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    out = f.MUL[A[:, None, :, None], B[None, :, None, :]]
    return out.reshape(A.shape[0] * B.shape[0], A.shape[1] * B.shape[1])


def _hom_kron(M: Rep, N: Rep) -> list[Matrix]:
    """Small regime: the nullspace of rho_N(g) X - X rho_M(g) = 0 over all
    dim M * dim N entries of X."""
    f = M.field
    dm, dn = M.dim, N.dim
    eye_m = np.eye(dm, dtype=f.dtype)
    eye_n = np.eye(dn, dtype=f.dtype)
    rows = []
    for Am, An in zip(M.gen_mats, N.gen_mats):
        # vec is row-major on X (dn x dm): rho_N X - X rho_M = 0
        block = f.arr_sub(_kron(f, An.a, eye_m), _kron(f, eye_n, Am.a.T.copy()))
        rows.append(block)
    if rows:
        system = np.concatenate(rows, axis=0)
    else:
        system = np.zeros((0, dn * dm), dtype=f.dtype)
    null = _nullspace(f, system)
    return [Matrix(f, null[:, j].reshape(dn, dm).copy()) for j in range(null.shape[1])]


def _spin_source(M: Rep) -> tuple:
    """The half of _hom_spin that depends on M alone, built on first use and
    kept on M: the seed count s, the seed each spun basis vector b_k grew
    from, the tree edges grouped by (depth, generator) as (generator, nodes,
    parents), and the non-tree edges (g, k) with the coordinates of g b_k
    in the b_l stacked above Q = B^-1 (row k of B is b_k)."""
    if M._spin_source is not None:
        return M._spin_source
    f = M.field
    dm, gens = M.dim, len(M.gen_mats)
    Am = np.array([A.a for A in M.gen_mats], dtype=f.dtype).reshape(gens, dm, dm)
    space, tree = RowSpace(f, dm), []
    eye = np.eye(dm, dtype=f.dtype)
    for j in range(dm):
        if space.dim == dm:
            break
        _spin_tree(f, Am, eye[j:j + 1], space, tree)
    seed_of = np.empty(dm, dtype=np.intp)
    depth, levels, s = [0] * dm, {}, 0
    for k, (_, gi, parent) in enumerate(tree):
        if gi is None:
            seed_of[k], s = s, s + 1
        else:
            seed_of[k], depth[k] = seed_of[parent], depth[parent] + 1
            levels.setdefault((depth[k], gi), []).append((k, parent))
    levels = [(gi, *np.array(edges).T) for (_, gi), edges in sorted(levels.items())]
    B = np.array([row for row, _, _ in tree])  # row k is b_k
    Q = Matrix(f, B).inverse().a  # v = (v @ Q) @ B
    # the law holds on the tree edges by construction; impose it on the rest
    tree_edges = {(gi, parent) for _, gi, parent in tree if gi is not None}
    edges = [(gi, k) for gi in range(gens) for k in range(dm)
             if (gi, k) not in tree_edges]
    gs = [gi for gi, _ in edges]
    ks = [k for _, k in edges]
    imgs = _matmul(f, B, Am.transpose(2, 0, 1).reshape(dm, -1)).reshape(dm, gens, dm)
    coords = _matmul(f, imgs[ks, gs], Q)  # g b_k = sum_l coords[e, l] b_l
    M._spin_source = (s, seed_of, levels, gs, ks, np.concatenate([coords, Q]))
    return M._spin_source


def _hom_spin(M: Rep, N: Rep) -> list[Matrix]:
    """The basis of the spin regime; see _spin_hom."""
    return _spin_hom(M, N).basis


def _spin_hom(M: Rep, N: Rep) -> HomBasis:
    """Large regime: solve for the images of the spin seeds of M only.

    M is spun from standard basis vectors into a basis b_k, each one a seed
    or g b_parent.  For seed images y, X b_k = L_k y with L_k = rho_N(g)
    L_parent, so the law X g b_k = rho_N(g) X b_k, with g b_k expanded in
    the b_l, is one system in the s * dim N seed coordinates, and dim Hom
    is its corank.  Only a read of the basis maps the kernel back to
    matrices X and brings them to the basis _hom_kron returns.  The spin of
    M and its echelon forms are _spin_source, paid once per M.
    """
    f = M.field
    dm, dn = M.dim, N.dim
    s, seed_of, levels, gs, ks, coords_q = _spin_source(M)
    gens = len(M.gen_mats)
    An = np.array([A.a for A in N.gen_mats], dtype=f.dtype).reshape(gens, dn, dn)
    # L_k is W_k in the block of the seed that b_k grew from, zero elsewhere;
    # one product per (depth, generator) gives W_k = rho_N(g) W_parent
    W = np.empty((dm, dn, dn), dtype=f.dtype)
    W[:] = np.eye(dn, dtype=f.dtype)
    for gi, nodes, parents in levels:
        acted = _matmul(f, An[gi], W[parents].transpose(1, 0, 2).reshape(dn, -1))
        W[nodes] = acted.reshape(dn, len(nodes), dn).transpose(1, 0, 2)
    L = np.zeros((dm, dn, s, dn), dtype=f.dtype)
    L[np.arange(dm), :, seed_of, :] = W
    L = L.reshape(dm, dn, s * dn)
    # one product gives sum_l c_l L_l for every edge and, from Q, the map
    # Psi with Psi_c y = X e_c, since X b_k = L_k y; a product per part, with
    # Psi's left to the basis read, raised the peak RSS of the PIMs of S6
    # over GF(2) from 248 to 271 MB
    both = _matmul(f, coords_q, L.reshape(dm, -1))
    moved, psi = both[:len(gs)], both[len(gs):]
    acted = _matmul(f, An.reshape(-1, dn), L.transpose(1, 0, 2).reshape(dn, -1))
    acted = acted.reshape(gens, dn, dm, s * dn)[gs, :, ks]
    system = f.arr_sub(moved.reshape(-1, dn, s * dn), acted).reshape(-1, s * dn)
    R, pivots = _rref(f, system[system.any(axis=1)])
    r = s * dn - len(pivots)

    def build() -> list[Matrix]:
        if r == 0:
            return []
        U = _kernel_from_rref(f, R, pivots)
        X = _matmul(f, psi.reshape(dm * dn, s * dn), U)  # rows (c, a), columns j
        X = np.ascontiguousarray(X.reshape(dm, dn, r).transpose(2, 1, 0)).reshape(r, -1)
        # the _kernel_from_rref basis is the RREF under reversed column order
        X = RowSpace(f, dn * dm, X[:, ::-1]).matrix()[::-1, ::-1]
        return [Matrix(f, x.reshape(dn, dm).copy()) for x in X]

    return HomBasis(M, N, build, dim=r)


def check_common(M: Rep, N: Rep) -> None:
    """ValueError unless M and N are modules over one group and one field."""
    if M.group is not N.group and (
        M.group.elements != N.group.elements
        or M.group.generators != N.group.generators
    ):
        raise ValueError("modules over different groups")
    if M.field != N.field:
        raise ValueError("modules over different fields")


def hom_space(M: Rep, N: Rep) -> HomBasis:
    """Basis of the intertwiners X with X @ rho_M(g) == rho_N(g) @ X."""
    check_common(M, N)
    if M.dim == 0 or N.dim == 0:
        return HomBasis(M, N, [])
    if M.dim * N.dim >= _SPIN_MIN_UNKNOWNS:
        return _spin_hom(M, N)
    memo = _HOM_MEMO.setdefault(M.group, {}).setdefault((M.field, M.dim, N.dim), {})
    key = b"".join([A.a.tobytes() for A in M.gen_mats + N.gen_mats])
    basis = memo.get(key)
    if basis is None:
        basis = np.array([X.a.reshape(-1) for X in _hom_kron(M, N)], dtype=M.field.dtype)
        basis.flags.writeable = False
        memo[key] = basis
    return HomBasis(M, N, lambda: [Matrix(M.field, x.reshape(N.dim, M.dim)) for x in basis],
                    dim=len(basis))


def hom_dim(M: Rep, N: Rep) -> int:
    return hom_space(M, N).dim


@dataclass
class IsoResult:
    isomorphic: bool
    witness: Optional[Matrix] = None

    def __bool__(self) -> bool:
        return self.isomorphic


def verify_witness(M: Rep, N: Rep, X: Matrix) -> Matrix:
    """Exact certification of an isomorphism candidate; returns the inverse.
    Kept out of __all__, like check_common and iso_class (see there)."""
    Xinv = X.inverse()
    eye = Matrix.identity(X.field, X.rows)
    if (X @ Xinv) != eye or (Xinv @ X) != eye:
        raise AssertionError("witness inverse does not invert it")
    for Am, An in zip(M.gen_mats, N.gen_mats):
        if (X @ Am) != (An @ X):
            raise AssertionError("witness is not an intertwiner")
    return Xinv


def iso_indecomposable(M: Rep, N: Rep) -> IsoResult:
    """Decisive isomorphism test for modules known to be indecomposable.

    Non-isomorphisms between indecomposables form a subspace of the hom
    space, so some basis element must be invertible whenever M and N are
    isomorphic.
    """
    if M.dim != N.dim:
        return IsoResult(False)
    if M.dim == 0:
        return IsoResult(True, Matrix.zeros(M.field, 0, 0))
    for X in hom_space(M, N).basis:
        if rank(X) == X.rows:
            verify_witness(M, N, X)
            return IsoResult(True, X)
    return IsoResult(False)


def iso_class(M: Rep, reps: list[Rep]) -> Optional[tuple[int, Matrix]]:
    """The first i with reps[i] isomorphic to M, with the witness X of
    iso_indecomposable(M, reps[i]), or None; M and the reps must be
    indecomposable.  Modules of another dimension are skipped before any
    isomorphism test.  Kept out of __all__, the names perfbench/tracing.py
    wraps, so its isomorphism tests are traced under its caller's span."""
    for i, R in enumerate(reps):
        if R.dim == M.dim:
            iso = iso_indecomposable(M, R)
            if iso:
                return i, iso.witness
    return None


# ---------------------------------------------------------------------------
# functors

def direct_sum(Ms: list[Rep], *, group: Group = None, field: Field = None) -> Rep:
    """Block-diagonal sum; the block layout is remembered for later splits."""
    if not Ms:
        if group is None or field is None:
            raise ValueError("empty direct sum needs an explicit group and field")
        return zero_rep(group, field)
    group = Ms[0].group
    field = Ms[0].field
    for M in Ms[1:]:
        if M.group is not group or M.field != field:
            raise ValueError("direct sum requires a common group and field")
    dim = sum(M.dim for M in Ms)
    mats = []
    for gi in range(len(group.generators)):
        arr = np.zeros((dim, dim), dtype=field.dtype)
        off = 0
        for M in Ms:
            arr[off:off + M.dim, off:off + M.dim] = M.gen_mats[gi].a
            off += M.dim
        mats.append(Matrix(field, arr))
    blocks: list[int] = []
    for M in Ms:
        if M.block_dims:
            blocks.extend(M.block_dims)
        elif M.dim:
            blocks.append(M.dim)
    return Rep(group, field, mats, dim=dim, block_dims=blocks)


def restrict(M: Rep, G: Group) -> Rep:
    """Same space, action recomputed for the subgroup's generators."""
    if not G.is_subgroup_of(M.group):
        raise ValueError("restriction target is not a subgroup")
    mats = [M.act(a) for a in G.generators]
    return Rep(G, M.field, mats, dim=M.dim, block_dims=M.block_dims)


def induce(M: Rep, big: Group, T: Transversal) -> Rep:
    """kBig tensor_{kG} M with basis (coset rep, module basis vector)."""
    if T.small.elements != M.group.elements:
        raise ValueError("transversal does not match the module's group")
    if T.big is not big and T.big.elements != big.elements:
        raise ValueError("transversal does not match the big group")
    f = M.field
    k, d = len(T.reps), M.dim
    D = k * d
    mats = []
    for a in big.generators:
        arr = np.zeros((D, D), dtype=f.dtype)
        for i, t in enumerate(T.reps):
            u = a * t
            j = T.coset_of(u)
            h = T.reps[j].inverse() * u
            if h not in M.group.index:
                raise ValueError("transversal inconsistent with the subgroup")
            arr[j * d:(j + 1) * d, i * d:(i + 1) * d] = M.act(h).a
        mats.append(Matrix(f, arr))
    return Rep(big, f, mats, dim=D)


def conjugate_rep(M: Rep, gtilde: Perm) -> Rep:
    """Twist the action through conjugation: g acts by rho(gtilde^-1 g gtilde)."""
    G = M.group
    ginv = gtilde.inverse()
    for a in G.generators:
        if ginv * a * gtilde not in G.index:
            raise ValueError("element does not normalize the group")
    mats = [M.act(ginv * a * gtilde) for a in G.generators]
    return Rep(G, M.field, mats, dim=M.dim, block_dims=M.block_dims)


def dual_rep(M: Rep) -> Rep:
    """Contragredient module: g acts by act(g^-1) transposed."""
    mats = [A.inverse().T for A in M.gen_mats]  # rho(a^-1) = rho(a)^-1
    return Rep(M.group, M.field, mats, dim=M.dim, block_dims=M.block_dims)
