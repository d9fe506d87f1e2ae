import pytest
from hypothesis import settings

from sttlab.exactfield import field_make
from sttlab.grouprep import direct_sum, trivial_rep
from sttlab.permgroup import group_close, parse_cycles
from sttlab.taucalc import Tables, ext1, ext_module
from sttlab.theoremlab import PairLab

# Property tests replay the same examples on every run, with no time limit
# per example, so a slow or busy host cannot make the suite flaky.
settings.register_profile("sttlab", derandomize=True, deadline=None)
settings.load_profile("sttlab")


@pytest.fixture(scope="session")
def f4():
    return field_make(2, 2)


@pytest.fixture(scope="session")
def a4():
    return group_close(4, [parse_cycles("(0 1 2)", 4), parse_cycles("(0 1)(2 3)", 4)])


@pytest.fixture(scope="session")
def s4():
    return group_close(4, [parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)", 4)])


@pytest.fixture(scope="session")
def c3():
    return group_close(3, [parse_cycles("(0 1 2)", 3)])


@pytest.fixture(scope="session")
def s3():
    return group_close(3, [parse_cycles("(0 1)", 3), parse_cycles("(0 1 2)", 3)])


@pytest.fixture(scope="session")
def a4_tables(a4, f4):
    return Tables(a4, f4)


@pytest.fixture(scope="session")
def s4_tables(s4, f4):
    return Tables(s4, f4)


@pytest.fixture(scope="session")
def a4s4(a4, s4, f4):
    return PairLab(a4, s4, f4)


@pytest.fixture(scope="session")
def c3s3(c3, s3, f4):
    return PairLab(c3, s3, f4)


class A4Cast:
    """The named modules of the worked example: k, S, T and the stacked
    length-two modules, plus M, N1, N2."""

    def __init__(self, tables, f4):
        simples = tables.simples
        self.k_label = simples.trivial_label()
        others = [l for l in simples.labels if l != self.k_label]
        self.S_label, self.T_label = others
        self.k = trivial_rep(tables.group, f4)
        self.S = simples.simples[simples.labels.index(self.S_label)]
        self.T = simples.simples[simples.labels.index(self.T_label)]
        self.kS = ext_module(self.k, self.S, ext1(self.k, self.S, tables).cocycles[0])
        self.kT = ext_module(self.k, self.T, ext1(self.k, self.T, tables).cocycles[0])
        self.ST = ext_module(self.S, self.T, ext1(self.S, self.T, tables).cocycles[0])
        self.M = direct_sum([self.k, self.kS, self.kT])
        self.N1 = direct_sum([self.k, self.kS])
        self.N2 = direct_sum([self.k, self.kT])


@pytest.fixture(scope="session")
def cast(a4_tables, f4):
    return A4Cast(a4_tables, f4)
