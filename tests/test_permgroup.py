import pytest

from sttlab.permgroup import (
    Perm,
    class_sums,
    group_close,
    p_regular_class_count,
    parse_cycles,
    transversal,
)


def test_perm_basics():
    p = parse_cycles("(0 1 2)", 4)
    assert p.images == (1, 2, 0, 3)
    assert (p * p * p).is_identity()
    assert p.inverse().images == (2, 0, 1, 3)
    assert parse_cycles("()", 3).is_identity()
    assert parse_cycles("(0 1)(2 3)", 4).cycle_string() == "(0 1)(2 3)"


def test_parse_cycles_errors():
    with pytest.raises(ValueError):
        parse_cycles("(0 1", 3)
    with pytest.raises(ValueError):
        parse_cycles("(0 0 1)", 3)
    with pytest.raises(ValueError):
        parse_cycles("(0 5)", 3)


def test_group_orders(a4, s4):
    assert a4.order == 12
    assert s4.order == 24
    assert group_close(4, []).order == 1


def test_group_words_evaluate(s4):
    for i, g in enumerate(s4.elements):
        acc = Perm.identity(4)
        for wi in s4.words[i]:
            acc = acc * s4.generators[wi]
        assert acc == g
    assert s4.elements[0].is_identity()


def test_group_closure_cap():
    with pytest.raises(ValueError):
        group_close(6, [parse_cycles("(0 1 2 3 4 5)", 6),
                        parse_cycles("(0 1)", 6)], cap=100)


def test_transversal_s4_a4(a4, s4):
    T = transversal(s4, a4)
    assert len(T.reps) == 2
    assert T.reps[0].is_identity()
    assert T.normal
    # Lagrange bookkeeping
    assert a4.order * len(T.reps) == s4.order
    # the second representative is the first odd permutation in BFS order
    assert T.reps[1] == next(g for g in s4.elements if g not in a4.index)


def test_transversal_self(a4):
    T = transversal(a4, a4)
    assert len(T.reps) == 1 and T.reps[0].is_identity() and T.normal


def test_transversal_non_normal(s4):
    c2 = group_close(4, [parse_cycles("(0 1)", 4)])
    T = transversal(s4, c2)
    assert len(T.reps) == 12
    assert not T.normal


def test_transversal_rejects_non_subgroup(a4):
    c2 = group_close(4, [parse_cycles("(0 1)", 4)])
    with pytest.raises(ValueError):
        transversal(a4, c2)  # (0 1) is odd, not in A4


def test_class_sums(a4, s4):
    triv = group_close(4, [])
    assert class_sums(triv) == [[0]]
    sizes_s4 = [len(c) for c in class_sums(s4)]
    assert sizes_s4 == [1, 3, 6, 6, 8]
    sizes_a4 = [len(c) for c in class_sums(a4)]
    assert sizes_a4 == [1, 3, 4, 4]
    # classes partition the group and start with the identity class
    flat = sorted(i for c in class_sums(s4) for i in c)
    assert flat == list(range(24))
    assert class_sums(s4)[0] == [0]


def test_class_sums_conjugation_stable(s4):
    for cls in class_sums(s4):
        members = {s4.elements[i] for i in cls}
        for a in s4.generators:
            assert {a * g * a.inverse() for g in members} == members


def test_coset_index_consistency(a4, s4):
    T = transversal(s4, a4)
    for g in s4.elements:
        i = T.coset_of(g)
        # g lies in reps[i] * A4
        assert (T.reps[i].inverse() * g) in a4.index


# Brauer's l(G) for p-regular classes.  PSL(2,7) and PGL(2,7) act on the
# projective line over GF(7), with infinity as point 7: x -> x + 1, x -> 2x
# (PSL) or 3x (PGL), and x -> -1/x.
BRAUER_GROUPS = {
    "A4": (4, ["(0 1 2)", "(0 1)(2 3)"]),
    "S4": (4, ["(0 1)", "(0 1 2 3)"]),
    "S4xC2": (6, ["(0 1)", "(0 1 2 3)", "(4 5)"]),
    "A5": (5, ["(0 1 2 3 4)", "(0 1 2)"]),
    "PSL27": (8, ["(0 1 2 3 4 5 6)", "(1 2 4)(3 6 5)", "(0 7)(1 6)(2 3)(4 5)"]),
    "PGL27": (8, ["(0 1 2 3 4 5 6)", "(1 3 2 6 4 5)", "(0 7)(1 6)(2 3)(4 5)"]),
    "A6": (6, ["(0 1 2)", "(1 2 3 4 5)"]),
}
BRAUER_NUMBERS = [
    ("A4", 2, 3), ("S4", 2, 2), ("S4xC2", 2, 2), ("A5", 2, 4), ("PSL27", 2, 4),
    ("PGL27", 2, 3), ("A6", 2, 5), ("A5", 5, 3), ("S4", 3, 4), ("PSL27", 7, 4),
]


@pytest.mark.parametrize("name,p,count", BRAUER_NUMBERS)
def test_p_regular_class_count(name, p, count):
    degree, cycles = BRAUER_GROUPS[name]
    G = group_close(degree, [parse_cycles(c, degree) for c in cycles])
    assert G.order == {"A4": 12, "S4": 24, "S4xC2": 48, "A5": 60, "PSL27": 168,
                       "PGL27": 336, "A6": 360}[name]

    def element_order(g):
        order, x = 1, g
        while not x.is_identity():
            x = x * g
            order += 1
        return order

    brute = sum(1 for cls in class_sums(G)
                if element_order(G.elements[cls[0]]) % p)
    assert p_regular_class_count(G, p) == brute == count
