"""Exact modular representation theory toolkit: certifies when induced
modules over group algebras are support tau-tilting, block version
included."""

__version__ = "0.1.0"

from .exactfield import Field, Matrix, Poly, Scalar, field_make, linsolve, minpoly
from .permgroup import Group, Perm, Transversal, class_sums, group_close, transversal
from .grouprep import (
    HomBasis,
    InconclusiveError,
    Rep,
    conjugate_rep,
    direct_sum,
    dual_rep,
    hom_space,
    induce,
    rep_make,
    restrict,
)
from .meataxe import (
    Decomposition,
    SimpleTable,
    add_compare,
    algebra_radical,
    chop,
    decompose,
    is_irreducible,
    is_isomorphic,
    radical_top,
    simples_of,
)
from .taucalc import PimTable, SttCertificate, Tables, ext1, ext_module, is_stt, \
    pims, projective_cover, syzygy, tau
from .blockdec import Block, block_cut_induce, block_of_factors, blocks, \
    covering_blocks, fong_reynolds_block, inertial_group
from .theoremlab import (
    PairLab,
    TheoremVerdict,
    build_corpus,
    check_theorem1_classes,
    check_theorem2_classes,
    is_invariant,
    mackey_check,
    orbit_module,
    remark_classify,
)
