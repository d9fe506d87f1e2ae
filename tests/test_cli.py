import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import sttlab
from sttlab.cli import (
    InputError,
    main,
    parse_group_file,
    parse_rep_file,
    write_group_file,
    write_rep_file,
)
from sttlab.grouprep import induce, regular_rep, trivial_rep
from sttlab.permgroup import transversal


@pytest.fixture()
def workdir(tmp_path):
    a4 = tmp_path / "a4.grp"
    a4.write_text("degree 4\n(0 1 2)\n(0 1)(2 3)\n")
    s4 = tmp_path / "s4.grp"
    s4.write_text("degree 4\n(0 1)\n(0 1 2 3)\n")
    c3 = tmp_path / "c3.grp"
    c3.write_text("degree 3\n(0 1 2)\n")
    triv = tmp_path / "k_a4.rep"
    triv.write_text("field 2 2\ngroup a4.grp\ndim 1\n1:0\n1:0\n")
    zero = tmp_path / "zero.rep"
    zero.write_text("field 2 2\ngroup a4.grp\ndim 0\n")
    # 2-dimensional simple kC3-module over GF(2): not absolutely simple
    twist = tmp_path / "twist_c3.rep"
    twist.write_text("field 2 1\ngroup c3.grp\ndim 2\n0,1\n1,1\n")
    return tmp_path


def run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = main(args)
    return status, buf.getvalue()


def test_parse_group_file(workdir):
    G = parse_group_file(str(workdir / "a4.grp"))
    assert G.order == 12


def test_parse_group_file_errors(tmp_path):
    bad = tmp_path / "bad.grp"
    bad.write_text("degree x\n")
    with pytest.raises(InputError):
        parse_group_file(str(bad))
    bad2 = tmp_path / "bad2.grp"
    bad2.write_text("degree 3\n(0 5)\n")
    with pytest.raises(InputError) as e:
        parse_group_file(str(bad2))
    assert "bad2.grp:2" in str(e.value)


def test_parse_rep_file(workdir):
    rep, group, gpath = parse_rep_file(str(workdir / "k_a4.rep"))
    assert rep.dim == 1 and group.order == 12 and gpath == "a4.grp"


def test_parse_rep_zero_dim(workdir):
    rep, _, _ = parse_rep_file(str(workdir / "zero.rep"))
    assert rep.dim == 0


def test_parse_rep_errors(workdir, tmp_path):
    bad = tmp_path / "bad.rep"
    bad.write_text("field 2 2\ngroup %s\ndim 1\n2:0\n1:0\n" % (workdir / "a4.grp"))
    with pytest.raises(InputError) as e:
        parse_rep_file(str(bad))
    assert "out of range" in str(e.value)
    singular = tmp_path / "sing.rep"
    singular.write_text(
        "field 2 2\ngroup %s\ndim 1\n0:0\n1:0\n" % (workdir / "a4.grp")
    )
    with pytest.raises(InputError):
        parse_rep_file(str(singular))


def test_parse_rep_rejects_matrices_that_contradict_the_group(tmp_path, capsys):
    (tmp_path / "twice.grp").write_text("degree 2\n(0 1)\n(0 1)\n")
    (tmp_path / "ident.grp").write_text("degree 2\n()\n")
    cases = {
        "twice.rep": "field 3 1\ngroup twice.grp\ndim 1\n2\n1\n",
        "ident.rep": "field 3 1\ngroup ident.grp\ndim 1\n2\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(InputError) as e:
            parse_rep_file(str(path))
        assert "violates the group relations" in str(e.value)
        assert main(["check-stt", "--module", str(path)]) == 2


def test_rep_roundtrip(workdir, a4, s4, f4):
    T = transversal(s4, a4)
    k = trivial_rep(a4, f4)
    ind = induce(k, s4, T)
    out = workdir / "ind.rep"
    write_rep_file(ind, str(out), "s4.grp")
    back, group, _ = parse_rep_file(str(out))
    assert back.dim == ind.dim
    for m1, m2 in zip(back.gen_mats, ind.gen_mats):
        assert m1 == m2


def test_group_roundtrip(workdir, a4):
    out = workdir / "a4copy.grp"
    write_group_file(a4, str(out))
    back = parse_group_file(str(out))
    assert back.order == 12 and back.elements == a4.elements


def test_cmd_simples(workdir):
    status, out = run_cli(["simples", "--group", str(workdir / "a4.grp")])
    assert status == 0
    assert "simple_count = 3" in out
    assert "field = GF(2^2)" in out  # auto splitting field


def test_cmd_pims(workdir):
    status, out = run_cli(["pims", "--group", str(workdir / "s4.grp")])
    assert status == 0
    assert "sum_dimS_dimP = 24" in out


def test_cmd_blocks(workdir):
    status, out = run_cli(["blocks", "--group", str(workdir / "c3.grp"),
                           "--field", "2,2"])
    assert status == 0
    assert "block_count = 3" in out


def test_cmd_check_stt_zero_module(workdir):
    status, out = run_cli(["check-stt", "--module", str(workdir / "zero.rep")])
    assert status == 0
    assert "stt = True" in out


def test_cmd_check_stt_trivial(workdir):
    status, out = run_cli(["check-stt", "--module", str(workdir / "k_a4.rep")])
    assert status == 0
    assert "tau_rigid = True" in out
    # k alone is support tau-tilting: one class plus two cosupport simples
    assert "stt = True" in out
    assert "summand_classes_m = 1" in out
    assert "cosupport_z = 2" in out


def test_cmd_check_rigid(workdir, capsys):
    status, out = run_cli(["check-rigid", "--module", str(workdir / "k_a4.rep")])
    assert status == 0
    assert "tau_rigid = True" in out
    assert "witness tau_dim: 5" in out
    # the decomposition of a module over a non-splitting field is inconclusive
    assert main(["check-rigid", "--module", str(workdir / "twist_c3.rep")]) == 3
    assert "inconclusive" in capsys.readouterr().err


def test_cmd_tau_cross_checks(workdir):
    status, out = run_cli(["tau", "--module", str(workdir / "k_a4.rep")])
    assert status == 0
    assert "methods_agree = True" in out
    assert "tau_dim = 5" in out


def test_cmd_tau_builds_each_cover_once(workdir, monkeypatch):
    """Both answers of sttlab tau come from one minimal presentation: one
    cover of M and one of Omega M."""
    from sttlab import taucalc

    covered = []
    real = taucalc._cover_data
    monkeypatch.setattr(taucalc, "_cover_data",
                        lambda M, tables: covered.append(M.dim) or real(M, tables))
    status, out = run_cli(["tau", "--module", str(workdir / "k_a4.rep")])
    assert status == 0 and "methods_agree = True" in out
    assert covered == [1, 3]


def test_cmd_mackey_and_thm1(workdir):
    status, out = run_cli(["mackey", "--module", str(workdir / "k_a4.rep"),
                           "--big", str(workdir / "s4.grp")])
    assert status == 0 and "mackey_res_ind_is_orbit = True" in out
    status, out = run_cli(["thm1", "--module", str(workdir / "k_a4.rep"),
                           "--big", str(workdir / "s4.grp")])
    assert status == 0 and "agree = True" in out


def test_cmd_thm2(workdir, c3, s3, f4):
    s3_path = workdir / "s3.grp"
    s3_path.write_text("degree 3\n(0 1)\n(0 1 2)\n")
    # the chi-simple as a rep file over GF(4): generator acts by w
    rep_path = workdir / "chi.rep"
    rep_path.write_text("field 2 2\ngroup c3.grp\ndim 1\n0:1\n")
    # find the deterministic indices of chi's block and a covering block
    from sttlab.blockdec import blocks, covering_blocks
    from sttlab.cli import parse_rep_file
    from sttlab.taucalc import Tables

    chi, _, _ = parse_rep_file(str(rep_path))
    small_blocks = blocks(c3, f4)
    labels = set(Tables(c3, f4).multiplicities(chi))
    B = next(b for b in small_blocks if labels <= set(b.simple_labels))
    big_blocks = blocks(s3, f4)
    Bt = covering_blocks(B, s3, big_blocks=big_blocks)[0]
    status, out = run_cli(["thm2", "--module", str(rep_path),
                           "--big", str(s3_path),
                           "--block", str(B.index), "--cover", str(Bt.index)])
    assert status == 0
    assert "agree = True" in out


def test_module_spread_over_blocks_exits_2(workdir, c3, s3, f4, capsys):
    """The regular module of C3 over GF(4) lies in no single block."""
    from sttlab.blockdec import blocks, covering_blocks

    (workdir / "s3.grp").write_text("degree 3\n(0 1)\n(0 1 2)\n")
    rep_path = workdir / "reg_c3.rep"
    write_rep_file(regular_rep(c3, f4), str(rep_path), "c3.grp")
    cover = covering_blocks(blocks(c3, f4)[0], s3, blocks(s3, f4))[0].index
    capsys.readouterr()
    for args in (["check-stt", "--block", "0"],
                 ["thm2", "--big", str(workdir / "s3.grp"), "--block", "0",
                  "--cover", str(cover)]):
        status, out = run_cli([*args, "--module", str(rep_path)])
        assert status == 2 and out == ""
        assert "does not lie in" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["thm2", "--big", "s4.grp", "--block", "1", "--cover", "0"],
    ["thm2", "--big", "s4.grp", "--block", "0", "--cover", "1"],
    ["check-stt", "--block", "5"],
], ids=["thm2-block", "thm2-cover", "check-stt-block"])
def test_block_flags_out_of_range_exit_2_before_any_split(workdir, capsys, monkeypatch, args):
    """A4 and S4 have one block each over GF(4): an index past it is an input
    error, raised before the module is split into classes."""
    from sttlab.theoremlab import PairLab

    split = []
    real = PairLab.classes_of
    monkeypatch.setattr(PairLab, "classes_of",
                        lambda self, M, side: split.append(M) or real(self, M, side))
    args = [str(workdir / a) if a.endswith(".grp") else a for a in args]
    capsys.readouterr()
    status, out = run_cli([*args, "--module", str(workdir / "k_a4.rep")])
    assert status == 2 and out == ""
    assert "out of range" in capsys.readouterr().err
    assert split == []


def test_cmd_induce_writes_file(workdir):
    out_path = workdir / "ind.rep"
    status, out = run_cli(["induce", "--module", str(workdir / "k_a4.rep"),
                           "--big", str(workdir / "s4.grp"),
                           "--out", str(out_path)])
    assert status == 0
    assert "induced_dim = 2" in out
    back, _, _ = parse_rep_file(str(out_path))
    assert back.dim == 2


def test_cmd_remark(workdir):
    status, out = run_cli(["remark", "--module", str(workdir / "k_a4.rep"),
                           "--big", str(workdir / "s4.grp")])
    assert status == 0
    assert "in_rig_group = True" in out


def test_exit_code_2_on_bad_input(workdir, capsys):
    status = main(["simples", "--group", str(workdir / "missing.grp")])
    assert status == 2


def test_exit_code_3_on_inconclusive(workdir, capsys):
    """A non-splitting field makes the decomposition certifiably
    inconclusive; the CLI must report status 3, not a verdict."""
    status = main(["check-stt", "--module", str(workdir / "twist_c3.rep")])
    assert status == 3
    err = capsys.readouterr().err
    assert "inconclusive" in err


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_reports_byte_identical_across_runs(workdir):
    s1, out1 = run_cli(["thm1", "--module", str(workdir / "k_a4.rep"),
                        "--big", str(workdir / "s4.grp"), "--format", "json"])
    s2, out2 = run_cli(["thm1", "--module", str(workdir / "k_a4.rep"),
                        "--big", str(workdir / "s4.grp"), "--format", "json"])
    assert s1 == s2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["command"] == "thm1"
    assert data["seed"] == 0
    assert set(data) == {"command", "inputs", "seed", "trials", "verdicts",
                         "witnesses", "version"}


def test_example_a4s4_runs_clean():
    status, out = run_cli(["example-a4s4"])
    assert status == 0
    assert "all_expected = True" in out


def test_example_a4s4_deterministic():
    _, out1 = run_cli(["example-a4s4", "--format", "json"])
    _, out2 = run_cli(["example-a4s4", "--format", "json"])
    assert out1 == out2


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_pipe_is_not_a_traceback(unbuffered):
    """A reader that leaves early (`| head`) gets no traceback and no exit 1:
    the pipe's read end is closed before the child writes a byte."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=os.path.dirname(os.path.dirname(sttlab.__file__)))
    try:
        child = subprocess.run(
            [sys.executable, "-m", "sttlab.cli", "example-a4s4", "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert "Traceback" not in child.stderr.decode()
    assert child.returncode == 0


def test_cmd_remark_with_several_covering_blocks(tmp_path):
    """kC2 has one block, covered by all three blocks of kC6 over GF(4)."""
    (tmp_path / "c2.grp").write_text("degree 5\n(0 1)\n")
    (tmp_path / "c6.grp").write_text("degree 5\n(0 1)\n(2 3 4)\n")
    rep = tmp_path / "k_c2.rep"
    rep.write_text("field 2 2\ngroup c2.grp\ndim 1\n1:0\n")
    status, out = run_cli(["remark", "--module", str(rep),
                           "--big", str(tmp_path / "c6.grp")])
    assert status == 0
    assert "in_rig_group = False" in out and "in_sta_block = False" in out


@pytest.mark.parametrize("rows,bad_line", [("0,,1\n1,1\n", 4), ("0,1\n1,1,,\n", 5),
                                            ("0,1\n,1,1\n", 5)],
                         ids=["inner", "trailing", "leading"])
def test_rep_rows_with_empty_entries_are_rejected(workdir, capsys, rows, bad_line):
    """An empty entry is an input error naming its line, not a dropped token:
    "0,,1" is not the row "0,1"."""
    rep = workdir / "gaps_c3.rep"
    rep.write_text("field 2 1\ngroup c3.grp\ndim 2\n" + rows)
    with pytest.raises(InputError) as e:
        parse_rep_file(str(rep))
    assert f"gaps_c3.rep:{bad_line}:" in str(e.value)
    assert "empty entry" in str(e.value)
    status = main(["check-stt", "--module", str(rep)])
    assert status == 2
    assert f"gaps_c3.rep:{bad_line}:" in capsys.readouterr().err
