"""Tests of the benchmark's own arithmetic, wrapping and correctness gate.

    python -m pytest perfbench/tests -q
"""

import json
import os
import sys
from functools import cached_property

import pytest

import run
import tracing
from stats import tail_percentile

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def synthetic_trace():
    """pass [0, 10] > check_theorem1_classes [1, 9] > decompose [2, 7] >
    decompose [3, 5] ; charpoly [7.5, 8.5] under check_theorem1_classes."""
    t = tracing.Tracer(clock=fake_clock([0, 1, 2, 3, 5, 7, 7.5, 8.5, 9, 10]))
    inner = t.wrap("meataxe.decompose", lambda: None)
    outer = t.wrap("meataxe.decompose", lambda: inner())
    charpoly = t.wrap("exactfield.charpoly", lambda: None)

    def check():
        outer()
        charpoly()

    verdict = t.wrap("theoremlab.check_theorem1_classes", check)
    with t.span("pass"):
        verdict()
    return t


def test_self_time_arithmetic_on_nested_trace():
    t = synthetic_trace()
    assert t.names == ["pass", "theoremlab.check_theorem1_classes",
                       "meataxe.decompose", "meataxe.decompose",
                       "exactfield.charpoly"]
    assert t.parents == [-1, 0, 1, 2, 1]
    assert tracing.self_times(t) == [2, 2, 3, 2, 1]
    acc = tracing.accounting(t)
    assert acc["root_s"] == 10
    assert acc["unattributed_s"] == 2
    assert acc["layers"]["theoremlab"] == 2
    assert acc["layers"]["meataxe"] == 5
    assert acc["layers"]["exactfield"] == 1
    assert sum(acc["layers"].values()) + acc["unattributed_s"] == acc["root_s"]
    # the nested decompose is not counted twice in the inclusive time
    assert tracing.outermost(t) == [True, True, True, False, True]
    m = tracing.summarize(t)
    assert m["meataxe.decompose_calls"] == 2
    assert m["meataxe.decompose_s"] == 5
    assert m["exactfield.charpoly_s"] == 1
    assert m["theoremlab.verdicts"] == 1
    assert m["theoremlab.verdict_p50_ms"] == 8000
    assert m["exactfield.share"] == 0.1
    assert m["trace.pass_s"] == 10
    assert set(m) == set(tracing.PASS_METRICS)


def test_exception_is_recorded_and_span_closed():
    t = tracing.Tracer(clock=fake_clock([0, 1, 2, 3]))

    def boom():
        raise RuntimeError("x")

    wrapped = t.wrap("meataxe.decompose", boom)
    with pytest.raises(RuntimeError):
        with t.span("pass"):
            wrapped()
    assert t.errors == [None, "RuntimeError"]
    assert t.ends == [3, 2]


@pytest.mark.parametrize("n, expected", [
    (5, None),
    (19, None),
    (20, (50.0, 10, 20)),
    (100, (90.0, 90, 100)),
    (988, (95.0, 939, 988)),
    (1000, (99.0, 990, 1000)),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    values = list(range(n, 0, -1))  # 1..n, unsorted on purpose
    got = tail_percentile(values)
    assert got == expected
    if got:
        assert sum(1 for v in values if v > got[1]) >= 10


def snapshot_bindings():
    """Every attribute of every sttlab module, every wrapped class attribute
    and every cached_property function, as objects."""
    snap = {}
    for modname, mod in sys.modules.items():
        if modname == "sttlab" or modname.startswith("sttlab."):
            for attr, value in vars(mod).items():
                snap[(modname, attr)] = value
    for layer, classes in tracing.METHODS.items():
        mod = sys.modules[f"sttlab.{layer}"]
        for cls_name in classes:
            for attr, value in vars(getattr(mod, cls_name)).items():
                snap[(cls_name, attr)] = value
                if isinstance(value, cached_property):
                    snap[(cls_name, attr, "func")] = value.func
    return snap


def current(key):
    if len(key) == 3:
        cls_name, attr, _ = key
        layer = next(l for l, c in tracing.METHODS.items() if cls_name in c)
        cls = getattr(sys.modules[f"sttlab.{layer}"], cls_name)
        return vars(cls)[attr].func
    owner, attr = key
    if owner in sys.modules:
        return vars(sys.modules[owner])[attr]
    layer = next(l for l, c in tracing.METHODS.items() if owner in c)
    return vars(getattr(sys.modules[f"sttlab.{layer}"], owner))[attr]


def test_wrappers_are_restored_by_identity():
    import sttlab  # noqa: F401
    import sttlab.cli  # noqa: F401

    before = snapshot_bindings()
    restore = tracing.install(tracing.Tracer())
    try:
        from sttlab import exactfield, meataxe, taucalc, theoremlab
        # the defining module and every from-import namespace are rebound
        assert exactfield._rref is not before[("sttlab.exactfield", "_rref")]
        assert meataxe._rref is exactfield._rref
        assert taucalc.hom_space is sys.modules["sttlab.grouprep"].hom_space
        assert theoremlab.PairLab.register is not before[("PairLab", "register")]
        changed = [k for k in before if current(k) is not before[k]]
        assert len(changed) == len(restore)
    finally:
        tracing.uninstall(restore)
    after = snapshot_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_pass_adds_up_and_keeps_results():
    from sttlab import exactfield, permgroup, taucalc

    def dims():  # module attributes, so the wrapped names are called
        g = permgroup.group_close(3, [permgroup.parse_cycles("(0 1)", 3),
                                      permgroup.parse_cycles("(0 1 2)", 3)])
        pt = taucalc.Tables(g, exactfield.field_make(2, 1)).pimtable
        return sorted(P.dim for P in pt.pims)

    plain = dims()
    t = tracing.Tracer()
    restore = tracing.install(t)
    try:
        with t.span("pass"):
            traced = dims()
    finally:
        tracing.uninstall(restore)
    assert traced == plain == [2, 2]
    acc = tracing.accounting(t)
    total = sum(acc["layers"].values()) + acc["unattributed_s"]
    assert total == pytest.approx(acc["root_s"], rel=1e-9)
    m = tracing.summarize(t)
    assert m["exactfield.rref_calls"] > 0
    assert m["taucalc.tables_s"] > 0
    assert m["permgroup.close_s"] > 0


def test_library_seeds_pair_the_first_passes_and_never_overlap():
    seeds = [run.library_seed(3, i, traced_run=False) for i in range(6)]
    assert seeds[0] == seeds[1] == 3 * run.SEED_STRIDE
    assert len(set(seeds)) == 5
    assert run.library_seed(0, 0, traced_run=False) == 0
    other = {run.library_seed(4, i, traced_run=False) for i in range(run.SEED_STRIDE)}
    assert not other & set(seeds)
    assert {run.library_seed(3, i, traced_run=True) for i in range(6)} == {seeds[0]}


def fake_run_passes(monkeypatch, durations, modes=("pass",), seconds=30):
    """Lengths of the passes ``run_passes`` makes when they take ``durations``
    seconds one after the other, on a fake clock."""
    now = [0.0]
    todo = iter(durations)

    def child(workload, seed, mode, spans=None):
        d = next(todo)
        now[0] += d
        return {"process_s": d}

    monkeypatch.setattr(run.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(run, "run_child", child)
    return [r["process_s"] for r in run.run_passes("w", 0, seconds, list(modes))]


@pytest.mark.parametrize("durations, modes, expected", [
    ([1.2] * 40, ["pass"], [1.2] * 25),   # the last one ends exactly at 30 s
    ([8.0] * 9, ["pass"], [8.0] * 4),     # ends at 32 s, less than 4 s late
    ([11.0] * 9, ["pass"], [11.0] * 3),   # at least three passes
    ([7.0, 7.0, 56.0, 7.0], ["pass"], [7.0, 7.0, 56.0]),
    ([56.0] * 3, ["pass"], [56.0]),       # a second 56 s pass would end at 112 s
    ([56.0, 60.0, 56.0], ["pass", "traced"], [56.0, 60.0]),  # each mode once
])
def test_run_passes_ends_near_the_deadline_and_caps_slow_seeds(
        monkeypatch, durations, modes, expected):
    assert fake_run_passes(monkeypatch, durations, modes) == expected


def make_result(verdicts, errors=None, fatal=None):
    return {"verdicts": verdicts, "errors": errors or {}, "fatal": fatal}


REF = {"exact": {"count": 2}, "all_true": {"g": 3}}


def test_check_pass_accepts_the_reference():
    r = make_result({"count": 2, "g/a": True, "g/b": True, "g/c": True})
    assert run.check_pass(r, REF) == (4, 0, [])


@pytest.mark.parametrize("verdicts, errors, fatal, failed", [
    ({"count": 3, "g/a": True, "g/b": True, "g/c": True}, {}, None, 1),
    ({"count": 2, "g/a": False, "g/b": True, "g/c": True}, {}, None, 1),
    ({"count": 2, "g/a": True, "g/b": True}, {"g/c": "InconclusiveError: x"}, None, 1),
    ({"count": 2, "g/a": True, "g/b": True}, {}, None, 1),
    ({"count": 2, "g/a": True, "g/b": True, "g/c": True, "h": 1}, {}, None, 1),
    ({}, {}, "ValueError: y", 4),
])
def test_check_pass_counts_every_failure(verdicts, errors, fatal, failed):
    attempted, got, problems = run.check_pass(make_result(verdicts, errors, fatal), REF)
    assert attempted == 4
    assert got == failed
    assert problems


def test_references_match_the_stated_verdicts():
    ref = {w: run.load_reference(w) for w in run.WORKLOADS}
    assert ref["thm1-a4s4"]["all_true"] == {"thm1": 988}
    assert ref["pims-s4xc2"]["exact"]["pim_dims"] == [16, 16]
    assert ref["pims-s4xc2"]["exact"]["cartan_sum"] == 48
    p3 = ref["blocks-p3"]["all_true"]
    assert [p3[f"{p}/thm1"] for p in ("v4a4", "c3s3", "a4s4", "v4s4")] == [15, 8, 15, 15]
    assert [p3[f"{p}/thm2"] for p in ("v4a4", "c3s3", "a4s4", "v4s4")] == [8, 8, 12, 14]
    ex = ref["example-a4s4"]["exact"]
    assert ex["exit_status"] == 0 and ex["all_expected"] is True


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
