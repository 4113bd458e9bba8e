import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndrank import poset
from ndrank.errors import CycleError, ParseError, TooLarge, UnknownLabel

from helpers import random_dag, random_forest, random_poset, reference_connected_upsets


def test_from_relation_already_reduced():
    P = poset.from_relation(["a", "b", "c"], [("a", "c"), ("b", "c")])
    assert set(P.covers) == {(0, 2), (1, 2)}


def test_equal_posets_hash_alike_and_survive_pickling():
    P = poset.from_relation(["a", "b", "c"], [("a", "c"), ("b", "c")])
    Q = poset.Poset(P.labels, P.covers[::-1])  # covers in another order
    assert P == Q and hash(P) == hash(Q) and np.array_equal(P.leq, Q.leq)
    R = pickle.loads(pickle.dumps(P))
    assert R == P and hash(R) == hash(P)
    assert np.array_equal(R.leq, P.leq) and not R.leq.flags.writeable
    with pytest.raises(ValueError):
        R.leq[0, 1] = True


def test_from_relation_reduces_transitive_edge():
    P = poset.from_relation([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    assert set(P.covers) == {(0, 1), (1, 2)}


def test_from_relation_cycle():
    with pytest.raises(CycleError):
        poset.from_relation(["a", "b"], [("a", "b"), ("b", "a")])


def test_from_relation_self_loop_is_a_cycle():
    # x < x is a cycle of length one; the closure's diagonal hides it
    with pytest.raises(CycleError):
        poset.from_relation(["a", "b"], [("a", "a"), ("a", "b")])
    with pytest.raises(ParseError):
        poset.parse_poset_text("elements: a,b\na < a\na < b\n")


def _brute_force_closure(p, edges):
    """Reachability by one depth-first search per element."""
    succ = [[] for _ in range(p)]
    for a, b in edges:
        succ[a].append(b)
    leq = np.zeros((p, p), dtype=bool)
    for x in range(p):
        stack = [x]
        while stack:
            y = stack.pop()
            if not leq[x, y]:
                leq[x, y] = True
                stack.extend(succ[y])
    return leq


def test_from_relation_matches_brute_force_closure():
    rng = np.random.default_rng(60)
    # p = 0 and p = 1, then small posets, then some whose bit rows pass 64 bits
    sizes = [0, 1] + rng.integers(2, 16, size=150).tolist() + rng.integers(60, 71, size=6).tolist()
    for p in sizes:
        order = rng.permutation(p)  # declaration order is not the order
        edges = [(int(order[i]), int(order[j])) for i in range(p) for j in range(i + 1, p)
                 if rng.random() < rng.uniform(0.05, 0.6)]
        P = poset.from_relation(list(range(p)), edges)
        leq = _brute_force_closure(p, edges)
        assert P.leq.dtype == bool and np.array_equal(P.leq, leq)
        # a cover is a strict relation with no element strictly between
        strict = leq & ~np.eye(p, dtype=bool)
        covers = {(a, b) for a in range(p) for b in range(p) if strict[a, b]
                  and not any(strict[a, c] and strict[c, b] for c in range(p))}
        assert P.covers == tuple(sorted(covers))


def test_from_relation_cycle_messages():
    cases = [
        (["a", "b"], [("a", "a")], "relation contains a cycle: 'a' < 'a'"),
        (["a", "b"], [("a", "b"), ("b", "a")], "relation contains a cycle through 'a' and 'b'"),
        (["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "b")],
         "relation contains a cycle through 'b' and 'c'"),
        (["x", "y", "z"], [("z", "x"), ("x", "y"), ("y", "z")],
         "relation contains a cycle through 'x' and 'y'"),
    ]
    for labels, edges, message in cases:
        with pytest.raises(CycleError) as info:
            poset.from_relation(labels, edges)
        assert str(info.value) == message


def test_from_relation_unknown_label():
    with pytest.raises(UnknownLabel):
        poset.from_relation(["a", "b"], [("a", "z")])


def test_chain_and_trivial():
    assert set(poset.chain(4).covers) == {(0, 1), (1, 2), (2, 3)}
    assert poset.trivial(3).covers == ()
    assert poset.chain(1).p == 1 and poset.chain(1).covers == ()


def test_product_shapes():
    P = poset.product([poset.chain(2), poset.chain(3)])
    assert P.p == 6
    assert len(P.covers) == 7
    Q = poset.product([poset.trivial(2), poset.trivial(2)])
    assert Q.p == 4 and Q.covers == ()


def test_product_selenium_shape():
    rows = poset.from_relation(["I", "II", "III"], [("I", "III"), ("II", "III")])
    P = poset.product([rows, poset.chain(4)])
    assert P.p == 12
    assert len(P.covers) == 17


def test_product_leq_is_coordinatewise():
    rng = np.random.default_rng(0)
    for _ in range(20):
        A = random_poset(int(rng.integers(1, 4)), rng)
        B = random_poset(int(rng.integers(1, 4)), rng)
        P = poset.product([A, B])
        for xi, xl in enumerate(P.labels):
            for yi, yl in enumerate(P.labels):
                expect = (A.leq[A.index(xl[0]), A.index(yl[0])]
                          and B.leq[B.index(xl[1]), B.index(yl[1])])
                assert P.leq[xi, yi] == expect


def test_connected_upsets_chain():
    ups = poset.connected_upsets(poset.chain(3))
    assert [sorted(u) for u in ups] == [[2], [1, 2], [0, 1, 2]]


def test_connected_upsets_collider():
    P = poset.from_relation(["a", "b", "c"], [("a", "c"), ("b", "c")])
    ups = poset.connected_upsets(P)
    assert [sorted(u) for u in ups] == [[2], [0, 2], [1, 2], [0, 1, 2]]


def test_connected_upsets_grid_count():
    P = poset.product([poset.chain(2), poset.chain(3)])
    assert len(poset.connected_upsets(P)) == 9


def test_connected_upsets_match_brute_force():
    # random posets of every kind, and disjoint unions of two of them, so
    # that forests, colliders and several components all occur
    rng = np.random.default_rng(59)
    for _ in range(100):
        p = int(rng.integers(1, 11))
        P = random_poset(p, rng)
        if p >= 2 and rng.random() < 0.4:
            k = int(rng.integers(1, p))
            A, B = random_poset(k, rng), random_poset(p - k, rng)
            P = poset.from_relation(range(p), list(A.covers) + [(a + k, b + k) for a, b in B.covers])
        assert poset.connected_upsets(P) == reference_connected_upsets(P)


def test_connected_upsets_guard():
    with pytest.raises(TooLarge):
        poset.connected_upsets(poset.trivial(25))


@pytest.mark.parametrize("p", [1, 2, 5, 8])
def test_count_antichains_chain(p):
    assert poset.count_antichains(poset.chain(p)) == p


def test_count_antichains_is_guarded():
    # trivial(21) has 2 097 151 antichains: counting them one by one took
    # seconds, and trivial(4)^3, with 2^64 - 1, never ended
    for P in (poset.trivial(21), poset.product([poset.trivial(4)] * 3)):
        with pytest.raises(TooLarge, match="antichains"):
            poset.count_antichains(P)
    # a large poset with few antichains is still counted
    assert poset.count_antichains(poset.chain(100)) == 100
    assert poset.count_antichains(poset.trivial(19)) == 2 ** 19 - 1


def test_count_antichains_examples():
    P = poset.product([poset.chain(2), poset.chain(3)])
    assert poset.count_antichains(P) == 9
    assert poset.count_antichains(poset.trivial(3)) == 7


def test_antichains_binomial_formula():
    for p1 in range(1, 5):
        for p2 in range(1, 5):
            P = poset.product([poset.chain(p1), poset.chain(p2)])
            assert poset.count_antichains(P) == math.comb(p1 + p2, p1) - 1


def test_has_collider():
    assert not poset.has_collider(poset.chain(5))
    assert poset.has_collider(poset.from_relation("abc", [("a", "c"), ("b", "c")]))
    # rooted tree with all edges directed away from the root
    tree = poset.from_relation(
        list(range(9)),
        [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (2, 6), (2, 7), (7, 8)])
    assert not poset.has_collider(tree)
    assert poset.is_simplicial(tree)


def test_upsets_vs_size_iff_no_collider():
    rng = np.random.default_rng(42)
    for _ in range(40):
        P = random_poset(int(rng.integers(1, 7)), rng)
        n = len(poset.connected_upsets(P))
        assert n >= P.p
        assert (n == P.p) == (not poset.has_collider(P))


def test_antichains_equal_upsets_with_maximum():
    rng = np.random.default_rng(7)
    for _ in range(30):
        base = random_dag(int(rng.integers(1, 5)), rng)
        # adjoin a top element so a maximum exists
        labels = list(base.labels) + ["top"]
        edges = [(base.labels[a], base.labels[b]) for a, b in base.covers]
        edges += [(lab, "top") for lab in base.labels]
        P = poset.from_relation(labels, edges)
        assert poset.count_antichains(P) == len(poset.connected_upsets(P))


def test_linear_extensions():
    assert len(poset.linear_extensions(poset.chain(3))) == 1
    assert len(poset.linear_extensions(poset.trivial(3))) == 6
    grid = poset.product([poset.chain(2), poset.chain(2)])
    assert len(poset.linear_extensions(grid)) == 2
    with pytest.raises(TooLarge):
        poset.linear_extensions(poset.trivial(13))


def test_linear_extensions_respect_order():
    rng = np.random.default_rng(3)
    P = random_forest(6, rng)
    for ext in poset.linear_extensions(P):
        pos = {x: i for i, x in enumerate(ext)}
        for a, b in P.covers:
            assert pos[a] < pos[b]


def test_count_linear_extensions_matches_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(10):
        P = random_dag(int(rng.integers(1, 7)), rng)
        assert poset.count_linear_extensions(P) == len(poset.linear_extensions(P))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12))
def test_closure_of_reduction_idempotent(pairs):
    edges = [(a, b) for a, b in pairs if a < b]
    P = poset.from_relation(list(range(6)), edges)
    Q = poset.from_relation(list(range(6)), [(a, b) for a, b in P.covers])
    assert np.array_equal(P.leq, Q.leq)
    assert set(P.covers) == set(Q.covers)


def test_product_associative_up_to_relabeling():
    A, B, C = poset.chain(2), poset.trivial(2), poset.chain(3)
    P1 = poset.product([A, B, C])
    P2 = poset.product([poset.product([A, B]), C])
    # same cover structure on flattened indices
    assert P1.p == P2.p
    assert set(P1.covers) == set(P2.covers)


def test_text_format_roundtrip():
    P = poset.from_relation(["lo", "mid", "hi"], [("lo", "mid"), ("mid", "hi")])
    text = poset.format_poset_text(P)
    Q = poset.parse_poset_text(text)
    assert Q.labels == ("lo", "mid", "hi")
    assert set(Q.covers) == set(P.covers)


def test_text_format_comments_and_errors():
    Q = poset.parse_poset_text("# a comment\nelements: a, b\n\na < b  # inline\n")
    assert set(Q.covers) == {(0, 1)}
    with pytest.raises(ParseError):
        poset.parse_poset_text("a < b\n")
    with pytest.raises(ParseError):
        poset.parse_poset_text("elements: a,b\na ? b\n")
    err = None
    try:
        poset.parse_poset_text("elements: a,b\na < z\n")
    except ParseError as exc:
        err = exc
    assert err is not None
    with pytest.raises(ParseError) as dup:
        poset.parse_poset_text("# header\nelements: a,b,a\na < b\n")
    assert dup.value.line == 2


def test_linear_extension_count_matches_listing():
    rng = np.random.default_rng(47)
    for _ in range(30):
        P = random_forest(int(rng.integers(1, 8)), rng)
        exts = poset.linear_extensions(P)
        assert poset.count_linear_extensions(P) == len(exts) == len(set(exts))
        for e in exts:
            pos = {x: i for i, x in enumerate(e)}
            assert all(pos[a] < pos[b] for a, b in P.covers)
    assert poset.count_linear_extensions(poset.trivial(5)) == 120
    assert poset.count_linear_extensions(poset.product([poset.chain(3), poset.chain(3)])) == 42


def test_text_format_names_the_line_of_an_undeclared_label():
    with pytest.raises(ParseError) as err:
        poset.parse_poset_text("elements: a,b\n# a comment\na < b\n\na < z\n")
    assert err.value.line == 5
    assert str(err.value) == "edge references undeclared label 'z' (line 5)"
    with pytest.raises(ParseError) as err:
        poset.parse_poset_text("elements: a,b\ny < b\n")
    assert err.value.line == 2 and "'y'" in str(err.value)


def test_text_format_names_the_line_of_a_self_loop():
    with pytest.raises(ParseError) as err:
        poset.parse_poset_text("elements: a,b\na < b\nb < b  # loop\n")
    assert err.value.line == 3
    assert str(err.value) == "relation contains a cycle: 'b' < 'b' (line 3)"
    # a cycle through several lines is named at the line that closes it
    with pytest.raises(ParseError) as err:
        poset.parse_poset_text("elements: a,b\na < b\nb < a\n")
    assert err.value.line == 3


def test_text_format_rejects_labels_it_cannot_read_back(tmp_path):
    # write_poset wrote these, and read_poset then raised or changed them
    grid = poset.product([poset.chain(2), poset.chain(2)])
    with pytest.raises(ValueError, match=r"\(1, 1\)"):
        poset.write_poset(grid, tmp_path / "grid.txt")
    assert not (tmp_path / "grid.txt").exists()
    for bad in ["a,b", "a<b", "a#b", " a", "a ", "a\nb", "a\u2028b", ""]:
        P = poset.from_relation(["x", bad], [("x", bad)])
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            poset.format_poset_text(P)
    with pytest.raises(ValueError, match="1 and '1'"):
        poset.format_poset_text(poset.from_relation([1, "1"], []))


LABEL_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(st.lists(LABEL_TEXT, min_size=1, max_size=6, unique=True), st.randoms(use_true_random=False))
def test_text_format_round_trips_or_refuses(labels, rand):
    edges = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:] if rand.random() < 0.4]
    P = poset.from_relation(labels, edges)
    try:
        text = poset.format_poset_text(P)
    except ValueError:
        # refused only for a label that cannot be written as it is
        assert any(lab != lab.strip() or lab.splitlines() != [lab] or set(lab) & set(",<#")
                   for lab in labels)
        return
    Q = poset.parse_poset_text(text)
    assert Q.labels == P.labels and Q.covers == P.covers


def test_text_format_round_trips_random_labels(tmp_path):
    rng = np.random.default_rng(18)
    alphabet = list("abcXYZ019_-.:;()[]{}>=+*/\\'\"é€ ") + ["été", "\t"]
    for trial in range(40):
        n, labels = int(rng.integers(1, 9)), set()
        while len(labels) < n:
            lab = "".join(rng.choice(alphabet, size=int(rng.integers(1, 6)))).strip()
            if lab:
                labels.add(lab)
        labels = sorted(labels)
        P = random_dag(len(labels), rng)
        P = poset.from_relation(labels, [(labels[a], labels[b]) for a, b in P.covers])
        path = tmp_path / f"p{trial}.txt"
        poset.write_poset(P, path)
        Q = poset.read_poset(path)
        assert Q.labels == P.labels and Q.covers == P.covers
