"""The worked A4-in-S4 example against the module route it replaced.

`sttlab example-a4s4` reads its stability, induction and orbit verdicts off
PairLab's class maps.  The reference below decides the same twelve checks
on the modules themselves, as the command once did: is_stt on M, N1, N2, ST,
on the orbit sum of ST and on the literally induced modules, and
add_compare on the orbit sums of N1 and N2.  Both routes must give the same
booleans, and the command must call none of the module-route functions and
split no module (PairLab.classes_of): its modules are indecomposable by
construction.
"""

import io
import json
from contextlib import redirect_stdout

import pytest

from conftest import A4Cast
from sttlab import cli, meataxe, taucalc, theoremlab
from sttlab.exactfield import field_make
from sttlab.grouprep import induce
from sttlab.meataxe import add_compare
from sttlab.permgroup import group_close, parse_cycles, transversal
from sttlab.taucalc import Tables, is_stt
from sttlab.theoremlab import orbit_module


def run_example(seed: int) -> tuple[int, dict]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = cli.main(["example-a4s4", "--format", "json", "--seed", str(seed)])
    return status, json.loads(buf.getvalue())["verdicts"]


def module_route(seed: int) -> dict:
    """The twelve moved verdicts, decided on materialized modules."""
    f4 = field_make(2, 2)
    a4 = group_close(4, [parse_cycles("(0 1 2)", 4), parse_cycles("(0 1)(2 3)", 4)])
    s4 = group_close(4, [parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)", 4)])
    ta, ts = Tables(a4, f4, seed=seed), Tables(s4, f4, seed=seed)
    trans = transversal(s4, a4)
    cast = A4Cast(ta, f4)

    def stt(X, tables):
        return is_stt(X, tables, seed=seed).stt

    def ind_stt(X):
        return stt(induce(X, s4, trans), ts)

    def addeq_M(X):
        return add_compare(orbit_module(X, s4, trans), cast.M, seed=seed).add_equal

    certST = is_stt(cast.ST, ta, seed=seed)
    return {
        "c_M_stt": stt(cast.M, ta),
        "d_IndM_stt": ind_stt(cast.M),
        "e_N1_stt": stt(cast.N1, ta),
        "e_N2_stt": stt(cast.N2, ta),
        "f_orbit_N1_addeq_M": addeq_M(cast.N1),
        "f_orbit_N2_addeq_M": addeq_M(cast.N2),
        "f_IndN1_stt": ind_stt(cast.N1),
        "f_IndN2_stt": ind_stt(cast.N2),
        "r_ST_rigid": certST.rigid,
        "r_ST_not_stt": not certST.stt,
        "r_orbit_ST_stt": stt(orbit_module(cast.ST, s4, trans), ta),
        "r_IndST_stt": ind_stt(cast.ST),
    }


@pytest.mark.parametrize("seed", [0, 7])
def test_example_verdicts_match_the_module_route(seed):
    status, verdicts = run_example(seed)
    reference = module_route(seed)
    assert status == 0 and verdicts["all_expected"] is True
    assert {key: verdicts[key] for key in reference} == reference


def test_example_builds_no_module_route(monkeypatch):
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in [(taucalc, "is_stt"), (meataxe, "add_compare"),
                         (theoremlab, "orbit_module"),
                         (theoremlab.PairLab, "classes_of")]:
        spy(module, name)
        if hasattr(cli, name):  # a name cli imported is bound there too
            spy(cli, name)
    status, verdicts = run_example(0)
    assert status == 0 and verdicts["all_expected"] is True
    assert calls == []
