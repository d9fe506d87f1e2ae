"""Batch command-line front end.

Subcommands parse group (.grp) and module (.rep) files, run one named check
and emit a deterministic report (text or JSON).  Exit status: 0 completed
with expected verdicts, 1 verdict mismatch, 2 input error, 3 inconclusive
randomized routine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .blockdec import blocks
from .exactfield import Field, Matrix, Scalar, field_make
from .grouprep import InconclusiveError, Rep, conjugate_rep, direct_sum, induce, \
    rep_make, trivial_rep
from .meataxe import add_compare, is_isomorphic, simples_of
from .permgroup import Group, group_close, parse_cycles, transversal
from .taucalc import Tables, ext1, ext_module, is_stt, pims, tau, tau_routes
from .theoremlab import PairLab, check_theorem1, check_theorem2, \
    is_invariant, mackey_check, orbit_module, remark_classify


class InputError(ValueError):
    """Malformed input file; carries a position message."""


# ---------------------------------------------------------------------------
# file formats

def parse_group_file(path: str) -> Group:
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise InputError(f"{path}: {e.strerror}") from None
    degree = None
    gens = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if degree is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "degree" or not parts[1].isdigit():
                raise InputError(f"{path}:{lineno}: expected 'degree N'")
            degree = int(parts[1])
            continue
        try:
            gens.append(parse_cycles(line, degree))
        except ValueError as e:
            raise InputError(f"{path}:{lineno}: {e}") from None
    if degree is None:
        raise InputError(f"{path}: missing 'degree N' header")
    try:
        return group_close(degree, gens)
    except ValueError as e:
        raise InputError(f"{path}: {e}") from None


def write_group_file(G: Group, path: str):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"degree {G.degree}\n")
        for g in G.generators:
            fh.write(g.cycle_string() + "\n")


def _parse_scalar(tok: str, field: Field, where: str) -> int:
    parts = tok.split(":")
    if len(parts) != field.m:
        raise InputError(f"{where}: scalar {tok!r} needs {field.m} coefficients")
    coeffs = []
    for p in parts:
        if not p.isdigit():
            raise InputError(f"{where}: bad coefficient {p!r}")
        v = int(p)
        if v >= field.p:
            raise InputError(f"{where}: coefficient {v} out of range for GF({field.p})")
        coeffs.append(v)
    return field.scalar(tuple(coeffs)).code


def parse_rep_file(path: str) -> tuple[Rep, Group, str]:
    """Returns (rep, group, group_path); the group path is resolved
    relative to the rep file's directory."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise InputError(f"{path}: {e.strerror}") from None
    content = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            content.append((lineno, line))
    if len(content) < 3:
        raise InputError(f"{path}: expected 'field', 'group' and 'dim' headers")
    (l1, field_line), (l2, group_line), (l3, dim_line) = content[:3]
    parts = field_line.split()
    if len(parts) != 3 or parts[0] != "field":
        raise InputError(f"{path}:{l1}: expected 'field p m'")
    try:
        field = field_make(int(parts[1]), int(parts[2]))
    except ValueError as e:
        raise InputError(f"{path}:{l1}: {e}") from None
    if not group_line.startswith("group "):
        raise InputError(f"{path}:{l2}: expected 'group <path>'")
    group_path = group_line[len("group "):].strip()
    resolved = os.path.join(os.path.dirname(os.path.abspath(path)), group_path)
    group = parse_group_file(resolved)
    parts = dim_line.split()
    if len(parts) != 2 or parts[0] != "dim" or not parts[1].isdigit():
        raise InputError(f"{path}:{l3}: expected 'dim d'")
    dim = int(parts[1])
    rows_needed = dim * len(group.generators)
    body = content[3:]
    if len(body) != rows_needed:
        raise InputError(
            f"{path}: expected {rows_needed} matrix rows, found {len(body)}"
        )
    mats = []
    at = 0
    for gi in range(len(group.generators)):
        arr = np.zeros((dim, dim), dtype=field.dtype)
        for r in range(dim):
            lineno, line = body[at]
            at += 1
            toks = line.split(",")
            if any(t.strip() == "" for t in toks):
                raise InputError(f"{path}:{lineno}: empty entry in {line!r}")
            if len(toks) != dim:
                raise InputError(
                    f"{path}:{lineno}: expected {dim} entries, found {len(toks)}"
                )
            for c, tok in enumerate(toks):
                arr[r, c] = _parse_scalar(tok.strip(), field, f"{path}:{lineno}")
        mats.append(Matrix(field, arr))
    try:
        rep = rep_make(group, field, mats, dim=dim)
    except ValueError as e:
        raise InputError(f"{path}: {e}") from None
    return rep, group, group_path


def write_rep_file(M: Rep, path: str, group_path: str):
    f = M.field
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"field {f.p} {f.m}\n")
        fh.write(f"group {group_path}\n")
        fh.write(f"dim {M.dim}\n")
        for mat in M.gen_mats:
            for r in range(M.dim):
                fh.write(",".join(str(Scalar(f, v)) for v in mat.a[r]) + "\n")


# ---------------------------------------------------------------------------
# reports

def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Report:
    def __init__(self, command: str, args):
        self.data = {
            "command": command,
            "inputs": {},
            "seed": args.seed,
            "trials": args.trials,
            "verdicts": {},
            "witnesses": {},
            "version": __version__,
        }

    def add_input(self, path: str):
        self.data["inputs"][path] = _digest(path)

    def verdict(self, key: str, value):
        self.data["verdicts"][key] = value

    def witness(self, key: str, value):
        self.data["witnesses"][key] = value

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.data, sort_keys=True, indent=2)
        lines = [f"command: {self.data['command']}",
                 f"version: {self.data['version']}",
                 f"seed: {self.data['seed']}  trials: {self.data['trials']}"]
        for path in sorted(self.data["inputs"]):
            lines.append(f"input: {path} sha256={self.data['inputs'][path]}")
        for key in self.data["verdicts"]:
            lines.append(f"{key} = {self.data['verdicts'][key]}")
        for key in self.data["witnesses"]:
            lines.append(f"witness {key}: {self.data['witnesses'][key]}")
        return "\n".join(lines)


def _auto_field(groups: list[Group], p: int = 2) -> Field:
    """Minimal splitting field GF(p^m): p^m = 1 mod the p'-part of the
    exponent of the groups in play, the lcm of all their cycle lengths."""
    eprime = math.lcm(*(len(c) for G in groups for g in G.elements for c in g.cycles()))
    while eprime % p == 0:
        eprime //= p
    m = 1
    while pow(p, m, eprime) != 1 % eprime:
        m += 1
    return field_make(p, m)


def _field_from_flag(args, groups: list[Group]) -> Field:
    if args.field:
        try:
            ps, ms = args.field.split(",")
            return field_make(int(ps), int(ms))
        except ValueError as e:
            raise InputError(f"--field: {e}") from None
    return _auto_field(groups)


# ---------------------------------------------------------------------------
# subcommands

def cmd_simples(args, report: Report) -> int:
    G = parse_group_file(args.group)
    report.add_input(args.group)
    field = _field_from_flag(args, [G])
    table = simples_of(G, field, seed=args.seed)
    report.verdict("field", f"GF({field.p}^{field.m})")
    report.verdict("simple_count", table.count)
    for lab, S in zip(table.labels, table.simples):
        report.verdict(f"dim_{lab}", S.dim)
    return 0


def cmd_pims(args, report: Report) -> int:
    G = parse_group_file(args.group)
    report.add_input(args.group)
    field = _field_from_flag(args, [G])
    pt = pims(G, field, seed=args.seed)
    report.verdict("field", f"GF({field.p}^{field.m})")
    total = 0
    for lab, S, P in zip(pt.simples.labels, pt.simples.simples, pt.pims):
        report.verdict(f"dim_P_{lab}", P.dim)
        total += S.dim * P.dim
    report.verdict("sum_dimS_dimP", total)
    report.verdict("group_order", G.order)
    return 0 if total == G.order else 1


def cmd_tau(args, report: Report) -> int:
    M, G, _ = parse_rep_file(args.module)
    report.add_input(args.module)
    tables = Tables(G, M.field, seed=args.seed)
    if args.method != "omega2":
        report.verdict("tau_dim", tau(M, tables, method=args.method).dim)
        return 0
    t1, t2 = tau_routes(M, tables)  # omega2 is cross-checked against dtr
    report.verdict("tau_dim", t1.dim)
    agree = bool(is_isomorphic(t1, t2, seed=args.seed, trials=args.trials))
    report.verdict("methods_agree", agree)
    return 0 if agree else 1


def cmd_check_rigid(args, report: Report) -> int:
    M, G, _ = parse_rep_file(args.module)
    report.add_input(args.module)
    tables = Tables(G, M.field, seed=args.seed)
    cert = is_stt(M, tables, seed=args.seed)
    report.verdict("tau_rigid", cert.rigid)
    report.witness("tau_dim", cert.tau.dim)
    return 0


def cmd_check_stt(args, report: Report) -> int:
    M, G, _ = parse_rep_file(args.module)
    report.add_input(args.module)
    tables = Tables(G, M.field, seed=args.seed)
    block = None
    if args.block is not None:
        blist = blocks(G, M.field, simples=tables.simples, seed=args.seed)
        if not 0 <= args.block < len(blist):
            raise InputError(f"--block: index {args.block} out of range")
        block = blist[args.block]
    cert = is_stt(M, tables, block=block, seed=args.seed)
    report.verdict("tau_rigid", cert.rigid)
    report.verdict("stt", cert.stt)
    report.verdict("summand_classes_m", cert.summand_classes)
    report.verdict("cosupport_z", cert.z)
    report.verdict("simples_in_scope_n", cert.n)
    report.witness("cosupport", ",".join(cert.cosupport) or "-")
    return 0


def cmd_induce(args, report: Report) -> int:
    M, G, _ = parse_rep_file(args.module)
    big = parse_group_file(args.big)
    report.add_input(args.module)
    report.add_input(args.big)
    T = transversal(big, G)
    ind = induce(M, big, T)
    report.verdict("index", len(T.reps))
    report.verdict("normal", T.normal)
    report.verdict("induced_dim", ind.dim)
    if args.out:
        write_rep_file(ind, args.out, args.big)
        report.witness("written", args.out)
    return 0


def _load_pair(args, report: Report) -> tuple[Rep, PairLab]:
    """The module of --module and the PairLab of its group in --big."""
    M, G, _ = parse_rep_file(args.module)
    big = parse_group_file(args.big)
    report.add_input(args.module)
    report.add_input(args.big)
    return M, PairLab(G, big, M.field, seed=args.seed)


def cmd_mackey(args, report: Report) -> int:
    M, lab = _load_pair(args, report)
    ok = mackey_check(M, lab)
    report.verdict("mackey_res_ind_is_orbit", ok)
    return 0 if ok else 1


def cmd_blocks(args, report: Report) -> int:
    G = parse_group_file(args.group)
    report.add_input(args.group)
    field = _field_from_flag(args, [G])
    table = simples_of(G, field, seed=args.seed)
    blist = blocks(G, field, simples=table, seed=args.seed)
    report.verdict("field", f"GF({field.p}^{field.m})")
    report.verdict("block_count", len(blist))
    for b in blist:
        report.verdict(f"block{b.index}_simples", ",".join(b.simple_labels))
    return 0


def cmd_thm1(args, report: Report) -> int:
    M, lab = _load_pair(args, report)
    v = check_theorem1(M, lab)
    report.verdict("lhs_ind_stt", v.lhs)
    report.verdict("rhs_rigid_and_orbit_stt", v.rhs)
    report.verdict("agree", v.agree)
    for key, val in v.certificates.items():
        report.witness(key, val)
    return 0 if v.agree else 1


def cmd_thm2(args, report: Report) -> int:
    M, lab = _load_pair(args, report)
    small_blocks = lab.side_blocks("small")
    big_blocks = lab.side_blocks("big")
    if not 0 <= args.block < len(small_blocks):
        raise InputError(f"--block: index {args.block} out of range")
    if not 0 <= args.cover < len(big_blocks):
        raise InputError(f"--cover: index {args.cover} out of range")
    v = check_theorem2(M, small_blocks[args.block], big_blocks[args.cover], lab)
    report.verdict("lhs_blockcut_ind_stt", v.lhs)
    report.verdict("rhs_rigid_and_inertial_orbit_stt", v.rhs)
    report.verdict("agree", v.agree)
    for key, val in v.certificates.items():
        report.witness(key, val)
    return 0 if v.agree else 1


def cmd_remark(args, report: Report) -> int:
    M, lab = _load_pair(args, report)
    flags = remark_classify(M, lab)
    for key, val in flags.as_dict().items():
        report.verdict(f"in_{key}", val)
    return 0


def cmd_example_a4s4(args, report: Report) -> int:
    """Built-in reproduction of the worked A4-in-S4 example at p = 2."""
    field = field_make(2, 2)
    a4 = group_close(4, [parse_cycles("(0 1 2)", 4), parse_cycles("(0 1)(2 3)", 4)])
    s4 = group_close(4, [parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)", 4)])
    lab = PairLab(a4, s4, field, seed=args.seed)
    ta, ts = lab.tables["small"], lab.tables["big"]
    expected: list[tuple[str, bool, bool]] = []

    def check(name: str, got: bool, want: bool = True):
        expected.append((name, got, want))
        report.verdict(name, got)

    # (a) simple module inventories
    check("a_kA4_simple_count_3", ta.simples.count == 3)
    check("a_kA4_dims_111", sorted(S.dim for S in ta.simples.simples) == [1, 1, 1])
    check("a_kS4_simple_count_2", ts.simples.count == 2)
    check("a_kS4_dims_12", sorted(S.dim for S in ts.simples.simples) == [1, 2])

    klabel = ta.simples.trivial_label()
    others = [l for l in ta.simples.labels if l != klabel]
    k = trivial_rep(a4, field)
    S = ta.simples.simples[ta.simples.labels.index(others[0])]
    T = ta.simples.simples[ta.simples.labels.index(others[1])]

    # (b) odd conjugation swaps the nontrivial simples
    sigma = next(g for g in s4.elements if g not in a4.index)
    check("b_sigmaS_iso_T", bool(is_isomorphic(conjugate_rep(S, sigma), T,
                                               seed=args.seed, trials=args.trials)))
    check("b_sigmaT_iso_S", bool(is_isomorphic(conjugate_rep(T, sigma), S,
                                               seed=args.seed, trials=args.trials)))

    kS = ext_module(k, S, ext1(k, S, ta).cocycles[0])
    kT = ext_module(k, T, ext1(k, T, ta).cocycles[0])
    M = direct_sum([k, kS, kT])
    N1 = direct_sum([k, kS])
    N2 = direct_sum([k, kT])

    # (c) M is invariant support tau-tilting
    certM = is_stt(M, ta, seed=args.seed)
    check("c_M_invariant", is_invariant(M, lab))
    check("c_M_stt", certM.stt)

    # (d) Ind M is support tau-tilting over kS4
    ind_M = induce(M, s4, lab.trans)
    check("d_IndM_stt", is_stt(ind_M, ts, seed=args.seed).stt)

    # (e) N1, N2 support tau-tilting but not invariant
    check("e_N1_stt", is_stt(N1, ta, seed=args.seed).stt)
    check("e_N2_stt", is_stt(N2, ta, seed=args.seed).stt)
    check("e_N1_not_invariant", not is_invariant(N1, lab))
    check("e_N2_not_invariant", not is_invariant(N2, lab))

    # (f) orbit sums are add-equivalent to M; Ind N_i support tau-tilting
    orb1 = orbit_module(N1, s4, lab.trans)
    orb2 = orbit_module(N2, s4, lab.trans)
    cmp1 = add_compare(orb1, M, seed=args.seed)
    cmp2 = add_compare(orb2, M, seed=args.seed)
    check("f_orbit_N1_addeq_M", cmp1.add_equal)
    check("f_orbit_N2_addeq_M", cmp2.add_equal)
    check("f_IndN1_stt", is_stt(induce(N1, s4, lab.trans), ts, seed=args.seed).stt)
    check("f_IndN2_stt", is_stt(induce(N2, s4, lab.trans), ts, seed=args.seed).stt)

    # remark: [S/T] separates the rigid set from the stt set
    ST = ext_module(S, T, ext1(S, T, ta).cocycles[0])
    certST = is_stt(ST, ta, seed=args.seed)
    check("r_ST_rigid", certST.rigid)
    check("r_ST_not_stt", not certST.stt)
    orbST = orbit_module(ST, s4, lab.trans)
    check("r_orbit_ST_stt", is_stt(orbST, ta, seed=args.seed).stt)
    check("r_IndST_stt", is_stt(induce(ST, s4, lab.trans), ts, seed=args.seed).stt)
    flags = remark_classify(ST, lab)
    check("r_ST_in_rig_group", flags.in_rig_group)
    check("r_ST_not_in_sta_group", not flags.in_sta_group)

    ok = all(got == want for _, got, want in expected)
    report.verdict("all_expected", ok)
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--trials", type=int, default=64)
    common.add_argument("--field", default=None, metavar="p,m",
                        help="field spec; default: minimal splitting field")
    common.add_argument("--format", choices=["text", "json"], default="text")
    ap = argparse.ArgumentParser(
        prog="sttlab",
        description="exact support tau-tilting checks for induced modules",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, help):
        sp = sub.add_parser(name, parents=[common], help=help)
        sp.set_defaults(handler=handler)
        return sp

    sp = add("simples", cmd_simples, "simple modules of a group algebra")
    sp.add_argument("--group", required=True)
    sp = add("pims", cmd_pims, "indecomposable projectives")
    sp.add_argument("--group", required=True)
    sp = add("tau", cmd_tau, "Auslander-Reiten translate of a module")
    sp.add_argument("--module", required=True)
    sp.add_argument("--method", choices=["omega2", "dtr"], default="omega2")
    sp = add("check-rigid", cmd_check_rigid, "tau-rigidity certificate")
    sp.add_argument("--module", required=True)
    sp = add("check-stt", cmd_check_stt, "support tau-tilting certificate")
    sp.add_argument("--module", required=True)
    sp.add_argument("--block", type=int, default=None)
    sp = add("induce", cmd_induce, "induce a module to a bigger group")
    sp.add_argument("--module", required=True)
    sp.add_argument("--big", required=True)
    sp.add_argument("--out", default=None)
    sp = add("mackey", cmd_mackey, "Res Ind against the orbit sum")
    sp.add_argument("--module", required=True)
    sp.add_argument("--big", required=True)
    sp = add("blocks", cmd_blocks, "block decomposition of a group algebra")
    sp.add_argument("--group", required=True)
    sp = add("thm1", cmd_thm1, "induced support tau-tilting criterion")
    sp.add_argument("--module", required=True)
    sp.add_argument("--big", required=True)
    sp = add("thm2", cmd_thm2, "block version of the criterion")
    sp.add_argument("--module", required=True)
    sp.add_argument("--big", required=True)
    sp.add_argument("--block", type=int, required=True)
    sp.add_argument("--cover", type=int, required=True)
    sp = add("remark", cmd_remark, "four-set membership flags")
    sp.add_argument("--module", required=True)
    sp.add_argument("--big", required=True)
    add("example-a4s4", cmd_example_a4s4, "built-in worked example at p = 2")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report = Report(args.subcommand, args)
    try:
        status = args.handler(args, report)
    except InconclusiveError as e:
        print(f"inconclusive: {e}", file=sys.stderr)
        return 3
    except (InputError, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    print(report.render(args.format))
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
