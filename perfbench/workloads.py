"""The four benchmark workloads.

Each workload has a set-up step, which imports the library and builds the
objects a command-line user builds on every command (fields, groups,
transversals, ``PairLab``/``Tables``), and a pass step, which computes every
verdict of the workload.  The tables inside ``PairLab``/``Tables`` are lazy,
so filling them is part of the pass.  The seed given to both steps is
passed to every library ``seed``/``--seed``.

A pass stores its verdicts in the flat ``{name: json value}`` dict
``verdicts`` and returns the report it printed, if any.  A verdict whose
computation raises is recorded in ``errors`` instead, so one failing verdict
does not hide the others.
"""

from __future__ import annotations

import contextlib
import io
import json

# Generators in cycle notation: A4 and S4 as in tests/conftest.py and the CLI.
A4 = (4, ["(0 1 2)", "(0 1)(2 3)"])
S4 = (4, ["(0 1)", "(0 1 2 3)"])
V4 = (4, ["(0 1)(2 3)", "(0 2)(1 3)"])
C3 = (3, ["(0 1 2)"])
S3 = (3, ["(0 1)", "(0 1 2)"])
S4XC2 = (6, ["(0 1)", "(0 1 2 3)", "(4 5)"])

# blocks-p3: (name, small group, big group), all over GF(3).
P3_PAIRS = [("v4a4", V4, A4), ("c3s3", C3, S3), ("a4s4", A4, S4), ("v4s4", V4, S4)]


def _group(spec):
    from sttlab.permgroup import group_close, parse_cycles

    degree, cycles = spec
    return group_close(degree, [parse_cycles(c, degree) for c in cycles])


def _record(verdicts: dict, errors: dict, name: str, compute):
    try:
        verdicts[name] = compute()
    except Exception as e:  # every failure is a failed verdict, never dropped
        errors[name] = f"{type(e).__name__}: {e}"


# ---------------------------------------------------------------------------
# example-a4s4: the CLI worked scenario, in-process

def setup_example(seed: int):
    import sttlab  # noqa: F401
    from sttlab import cli

    return cli


def pass_example(cli, seed: int, verdicts: dict, errors: dict) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(["example-a4s4", "--format", "json", "--seed", str(seed)])
    text = buf.getvalue()
    verdicts["exit_status"] = status
    report = json.loads(text)
    for key, value in report["verdicts"].items():
        verdicts[key] = value
    return text


# ---------------------------------------------------------------------------
# thm1-a4s4: theorem 1 on the whole A4-in-S4 corpus over GF(4)

def setup_thm1(seed: int):
    from sttlab.exactfield import field_make
    from sttlab.theoremlab import PairLab

    return PairLab(_group(A4), _group(S4), field_make(2, 2), seed=seed)


def pass_thm1(lab, seed: int, verdicts: dict, errors: dict):
    from sttlab.theoremlab import build_corpus, check_theorem1_classes

    corpus = build_corpus(lab)
    verdicts["corpus_size"] = len(corpus)
    for entry in corpus:
        _record(verdicts, errors, f"thm1/{entry.name}",
                lambda: check_theorem1_classes(entry.classes, lab).agree)
    return None


# ---------------------------------------------------------------------------
# pims-s4xc2: simples and PIMs of S4 x C2 over GF(2)

def setup_pims(seed: int):
    from sttlab.exactfield import field_make
    from sttlab.taucalc import Tables

    return Tables(_group(S4XC2), field_make(2, 1), seed=seed)


def pass_pims(tables, seed: int, verdicts: dict, errors: dict):
    pt = tables.pimtable
    verdicts["simple_dims"] = sorted(S.dim for S in pt.simples.simples)
    verdicts["pim_dims"] = sorted(P.dim for P in pt.pims)
    verdicts["cartan_sum"] = sum(S.dim * P.dim
                                 for S, P in zip(pt.simples.simples, pt.pims))
    return None


# ---------------------------------------------------------------------------
# blocks-p3: theorems 1 and 2 on four pairs over GF(3)

def setup_blocks(seed: int):
    from sttlab.exactfield import field_make
    from sttlab.theoremlab import PairLab

    f = field_make(3, 1)
    return [(name, PairLab(_group(small), _group(big), f, seed=seed))
            for name, small, big in P3_PAIRS]


def pass_blocks(labs, seed: int, verdicts: dict, errors: dict):
    from sttlab.blockdec import covering_blocks
    from sttlab.theoremlab import build_corpus, check_theorem1_classes, \
        check_theorem2_classes

    for name, lab in labs:
        corpus = build_corpus(lab)
        for entry in corpus:
            _record(verdicts, errors, f"{name}/thm1/{entry.name}",
                    lambda: check_theorem1_classes(entry.classes, lab).agree)
        big_blocks = lab.side_blocks("big")
        for B in lab.side_blocks("small"):
            for Bt in covering_blocks(B, lab.big, big_blocks=big_blocks):
                for entry in corpus:
                    if all(lab.class_block("small", cid) == B.index
                           for cid in entry.classes):
                        _record(verdicts, errors,
                                f"{name}/thm2/B{B.index}-B{Bt.index}/{entry.name}",
                                lambda: check_theorem2_classes(
                                    entry.classes, B, Bt, lab).agree)
    return None


WORKLOADS = {
    "example-a4s4": (setup_example, pass_example),
    "thm1-a4s4": (setup_thm1, pass_thm1),
    "pims-s4xc2": (setup_pims, pass_pims),
    "blocks-p3": (setup_blocks, pass_blocks),
}
