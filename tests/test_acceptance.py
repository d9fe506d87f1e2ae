"""Acceptance suite: each criterion runs at its stated (exact) tolerance and
prints one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import io
import json
import time
from collections import Counter
from contextlib import redirect_stdout

import numpy as np
import pytest

from sttlab.blockdec import (
    blocks,
    covering_blocks,
    embed_subgroup_vector,
    fong_reynolds_block,
    ga_conjugate,
    ga_identity,
    ga_mul,
    inertial_group,
)
from sttlab.cli import main as cli_main
from sttlab.exactfield import Matrix
from sttlab.grouprep import hom_space
from sttlab.meataxe import is_isomorphic, simples_of
from sttlab.taucalc import tau_routes
from sttlab.theoremlab import (
    build_corpus,
    check_theorem1_classes,
    check_theorem2_classes,
    remark_classify,
)


def _report(criterion: str, ok: bool):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {criterion} failed"


@pytest.fixture(scope="module")
def corpus_a4(a4s4):
    return build_corpus(a4s4)


@pytest.fixture(scope="module")
def corpus_c3(c3s3):
    return build_corpus(c3s3)


def _run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = cli_main(args)
    return status, buf.getvalue()


def test_criterion_1_example_reproduction():
    """A4-in-S4 worked scenario over GF(4): simples, conjugation,
    invariance, stt verdicts, inductions; exact boolean matches and under
    60 seconds."""
    t0 = time.time()
    status, out = _run_cli(["example-a4s4", "--format", "json"])
    elapsed = time.time() - t0
    data = json.loads(out) if status == 0 else {}
    verdicts = data.get("verdicts", {})
    wanted = [
        "a_kA4_simple_count_3", "a_kA4_dims_111",
        "a_kS4_simple_count_2", "a_kS4_dims_12",
        "b_sigmaS_iso_T", "b_sigmaT_iso_S",
        "c_M_invariant", "c_M_stt",
        "d_IndM_stt",
        "e_N1_stt", "e_N2_stt", "e_N1_not_invariant", "e_N2_not_invariant",
        "f_orbit_N1_addeq_M", "f_orbit_N2_addeq_M",
        "f_IndN1_stt", "f_IndN2_stt",
    ]
    ok = (status == 0 and elapsed < 60.0
          and all(verdicts.get(k) is True for k in wanted))
    _report("1 (example-a4s4 reproduction)", ok)


def test_criterion_2_remark_reproduction(cast, a4s4, a4_tables, s4_tables, s4):
    """The length-two module [S over T]: tau-rigid, not stt, orbit stt,
    induction stt; lands in the rigid set but not the stt set."""
    from sttlab.grouprep import induce
    from sttlab.taucalc import is_stt

    cert = is_stt(cast.ST, a4_tables)
    orb_cert = a4s4.stt_counts(
        a4s4.orbit_classes(a4s4.classes_of(cast.ST, "small")), "small"
    )
    ind_cert = is_stt(induce(cast.ST, s4, a4s4.trans), s4_tables)
    flags = remark_classify(a4s4.classes_of(cast.ST, "small"), a4s4)
    ok = (cert.rigid and not cert.stt
          and orb_cert.stt
          and ind_cert.stt
          and flags.in_rig_group and not flags.in_sta_group
          and flags.in_rig_block and not flags.in_sta_block)
    _report("2 (remark reproduction)", ok)


def test_criterion_3_theorem1_universality(a4s4, c3s3, corpus_a4, corpus_c3):
    """check_theorem1 agrees on 100% of the corpus for both group pairs."""
    total = 0
    disagreements = []
    for lab, corpus in ((a4s4, corpus_a4), (c3s3, corpus_c3)):
        for entry in corpus:
            total += 1
            if not check_theorem1_classes(entry.classes, lab).agree:
                disagreements.append(entry.name)
    ok = total >= 40 and not disagreements
    print(f"  corpus size {total}, disagreements {len(disagreements)}")
    _report("3 (theorem 1 universality)", ok)


def test_criterion_4_theorem2_nontrivial_inertia(c3, s3, f4, c3s3, corpus_c3):
    """C3 in S3 at p=2: block counts, covering, inertia, the Fong-Reynolds
    identity and theorem 2 agreement on all corpus block modules."""
    table_c3 = simples_of(c3, f4)
    table_s3 = simples_of(s3, f4)
    c3_blocks = blocks(c3, f4, simples=table_c3)
    s3_blocks = blocks(s3, f4, simples=table_s3)
    ok = len(c3_blocks) == 3 and len(s3_blocks) == 2
    nontrivial = [b for b in c3_blocks if not b.is_principal(table_c3)]
    defect0 = [b for b in s3_blocks if not b.is_principal(table_s3)][0]
    for B in nontrivial:
        ok = ok and defect0 in covering_blocks(B, s3, big_blocks=s3_blocks)
        ok = ok and inertial_group(B, s3).order == 3
        beta = fong_reynolds_block(B, defect0)
        e = embed_subgroup_vector(beta.group, s3, f4, beta.coeffs)
        total = np.zeros(s3.order, dtype=f4.dtype)
        sigma = next(g for g in s3.elements if g not in c3.index)
        total = f4.arr_add(e, ga_conjugate(s3, f4, e, sigma))
        ok = ok and np.array_equal(total, defect0.coeffs)
    small_blocks = c3s3.side_blocks("small")
    big_blocks = c3s3.side_blocks("big")
    checked = 0
    for B in small_blocks:
        for Bt in covering_blocks(B, s3, big_blocks=big_blocks):
            for entry in corpus_c3:
                if all(c3s3.class_block("small", cid) == B.index
                       for cid in entry.classes):
                    v = check_theorem2_classes(entry.classes, B, Bt, c3s3)
                    ok = ok and v.agree
                    checked += 1
    ok = ok and checked > 0
    print(f"  theorem 2 corpus checks: {checked}")
    _report("4 (theorem 2 with nontrivial inertia)", ok)


def test_criterion_5_homological_cross_checks(a4s4, a4, s4, f4, a4_tables,
                                              s4_tables, corpus_a4):
    """tau double-route agreement, Mackey, projective hom counts, Cartan
    size bookkeeping and block idempotent identities, all exact."""
    ok = True
    # tau via omega^2 vs D Tr: every discovered class, plus sampled sums
    for cid in range(len(a4s4.class_reps("small"))):
        M = a4s4.class_rep("small", cid)
        t1, t2 = tau_routes(M, a4_tables)
        ok = ok and t1.dim == t2.dim and (t1.dim == 0 or bool(is_isomorphic(t1, t2)))
    for entry in corpus_a4[:: max(1, len(corpus_a4) // 8)]:
        M = a4s4.materialize(entry.classes, "small")
        t1, t2 = tau_routes(M, a4_tables)
        ok = ok and t1.dim == t2.dim and (t1.dim == 0 or bool(is_isomorphic(t1, t2)))
    # Mackey on the full corpus, classwise
    for entry in corpus_a4:
        lhs = Counter()
        for cid, mult in entry.classes.items():
            for cj, mj in a4s4.res_ind_classes(cid).items():
                lhs[cj] += mult * mj
        ok = ok and lhs == a4s4.orbit_classes(entry.classes)
    # dim Hom(P_i, M) equals the composition multiplicity of S_i
    pt = a4_tables.pimtable
    for cid in range(len(a4s4.class_reps("small"))):
        M = a4s4.class_rep("small", cid)
        counts = a4_tables.chop(M)
        for label, P in zip(pt.simples.labels, pt.pims):
            ok = ok and hom_space(P, M).dim == counts.get(label, 0)
    # Cartan size bookkeeping: sum dim S_i * dim P_i = |G|
    s_a4 = sum(S.dim * P.dim for S, P in zip(pt.simples.simples, pt.pims))
    pt_s4 = s4_tables.pimtable
    s_s4 = sum(S.dim * P.dim for S, P in zip(pt_s4.simples.simples, pt_s4.pims))
    ok = ok and s_a4 == 12 and s_s4 == 24
    # block idempotents: central, orthogonal, idempotent, summing to one
    for G in (a4, s4):
        blist = blocks(G, f4)
        total = np.zeros(G.order, dtype=f4.dtype)
        for b in blist:
            ok = ok and np.array_equal(ga_mul(G, f4, b.coeffs, b.coeffs), b.coeffs)
            for c in blist:
                if c is not b:
                    ok = ok and not ga_mul(G, f4, b.coeffs, c.coeffs).any()
            for g in G.generators:
                ok = ok and np.array_equal(
                    ga_conjugate(G, f4, b.coeffs, g), b.coeffs
                )
            total = f4.arr_add(total, b.coeffs)
        ok = ok and np.array_equal(total, ga_identity(G, f4))
    _report("5 (homological cross-checks)", ok)


def test_criterion_6_randomization_soundness(cast, tmp_path):
    """Positive isomorphism verdicts carry exactly verified witnesses;
    inconclusive runs exit with status 3; reports are byte-identical for a
    fixed seed."""
    ok = True
    # verified witnesses on positive verdicts
    from sttlab.grouprep import direct_sum

    pairs = [
        (cast.kS, cast.kS),
        (direct_sum([cast.k, cast.kS]), direct_sum([cast.kS, cast.k])),
    ]
    for A, B in pairs:
        r = is_isomorphic(A, B)
        ok = ok and bool(r) and r.witness is not None
        W = r.witness
        Winv = W.inverse()
        ok = ok and (W @ Winv) == Matrix.identity(W.field, W.rows)
        for Am, Bm in zip(A.gen_mats, B.gen_mats):
            ok = ok and (W @ Am) == (Bm @ W)
    # inconclusive outcomes exit with status 3 and carry no verdict
    c3g = tmp_path / "c3.grp"
    c3g.write_text("degree 3\n(0 1 2)\n")
    twist = tmp_path / "twist.rep"
    twist.write_text("field 2 1\ngroup c3.grp\ndim 2\n0,1\n1,1\n")
    status, out = _run_cli(["check-stt", "--module", str(twist)])
    ok = ok and status == 3 and "stt" not in out
    # byte-identical reports for a fixed seed
    _, r1 = _run_cli(["example-a4s4", "--format", "json", "--seed", "0"])
    _, r2 = _run_cli(["example-a4s4", "--format", "json", "--seed", "0"])
    ok = ok and r1 == r2
    _report("6 (randomization soundness)", ok)
