"""The whole pipeline re-run on the reference kernels.

Every verdict rests on exactfield's kernels _matmul, _rref and _nullspace.
The other modules call them as attributes of exactfield, so rebinding those
three names there swaps the kernel for the whole library.  The work below
runs once on the library kernels and once on the row-at-a-time reference
kernels of test_kernel.py, and both runs must leave the same digest.

The work is theorem 1 on three pairs, the blocks and the theorem-2 verdicts
of every covering block pair of A4 in S4 over GF(3), and the PIMs of S4xC2
over GF(2).  The digest covers corpus names, verdicts with their
certificates, the generator bytes of every class representative, block
idempotents and labels, and PIM generator bytes.
"""

import hashlib
import json
import weakref
from contextlib import contextmanager
from unittest import mock

from sttlab import exactfield
from sttlab.blockdec import covering_blocks
from sttlab.exactfield import field_make
from sttlab.permgroup import group_close, parse_cycles
from sttlab.taucalc import Tables
from sttlab.theoremlab import PairLab, build_corpus, check_theorem1_classes, \
    check_theorem2_classes
from test_kernel import ref_matmul, ref_nullspace, ref_rref

C3 = (3, ["(0 1 2)"])
S3 = (3, ["(0 1)", "(0 1 2)"])
A4 = (4, ["(0 1 2)", "(0 1)(2 3)"])
S4 = (4, ["(0 1)", "(0 1 2 3)"])
S4XC2 = (6, ["(0 1)", "(0 1 2 3)", "(4 5)"])


def group(spec):
    degree, cycles = spec
    return group_close(degree, [parse_cycles(c, degree) for c in cycles])


@contextmanager
def reference_kernels():
    with mock.patch.multiple(exactfield, _matmul=ref_matmul, _rref=ref_rref,
                             _nullspace=ref_nullspace):
        yield


def digest(work, *args) -> str:
    """sha256 of what work(h, *args) feeds h.  The work builds its own
    groups, and Tables.shared gets an empty registry for it, so nothing
    computed before, on either kernel, is reused."""
    h = hashlib.sha256()
    with mock.patch.object(Tables, "_registry", weakref.WeakValueDictionary()):
        work(h, *args)
    return h.hexdigest()


def _record(h, *values):
    h.update(json.dumps(values, sort_keys=True).encode())


def _class_reps(h, lab):
    for side in ("small", "big"):
        for R in lab.class_reps(side):
            _record(h, side, R.dim)
            for A in R.gen_mats:
                h.update(A.a.tobytes())


def theorem1(h, small, big, pm):
    lab = PairLab(group(small), group(big), field_make(*pm))
    corpus = build_corpus(lab)
    for entry in corpus:
        v = check_theorem1_classes(entry.classes, lab)
        _record(h, entry.name, v.lhs, v.rhs, v.certificates)
    _class_reps(h, lab)
    return lab, corpus


def theorem2(h, lab, corpus):
    big_blocks = lab.side_blocks("big")
    for B in lab.side_blocks("small") + big_blocks:
        h.update(B.coeffs.tobytes())
        _record(h, B.simple_labels)
    for B in lab.side_blocks("small"):
        for Bt in covering_blocks(B, lab.big, big_blocks=big_blocks):
            for entry in corpus:
                if all(lab.class_block("small", cid) == B.index for cid in entry.classes):
                    v = check_theorem2_classes(entry.classes, B, Bt, lab)
                    _record(h, B.index, Bt.index, entry.name, v.lhs, v.rhs, v.certificates)


def pims(h, spec, pm):
    pt = Tables(group(spec), field_make(*pm)).pimtable
    for label, P in zip(pt.simples.labels, pt.pims):
        _record(h, label, P.dim)
        for A in P.gen_mats:
            h.update(A.a.tobytes())


def pipeline(h):
    theorem1(h, C3, S3, (2, 2))
    theorem1(h, A4, S4, (2, 2))
    theorem2(h, *theorem1(h, A4, S4, (3, 1)))
    pims(h, S4XC2, (2, 1))


def test_pipeline_is_the_same_on_the_reference_kernels():
    library = digest(pipeline)
    with reference_kernels():
        reference = digest(pipeline)
    assert reference == library

