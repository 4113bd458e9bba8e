import itertools
import math
import pickle
import re
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndrank import poset
from ndrank.errors import CycleError, ParseError, TooLarge, UnknownLabel

from helpers import (KINDS, random_chain, random_collider, random_dag, random_forest, random_poset,
                     reference_connected_upsets, reference_first_cycle_edge,
                     reference_linear_extensions, reference_product_covers)


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


def test_product_covers_match_the_reference_loop():
    # the covers come from the vectorized _product_covers, which is_monotone
    # reads too; the reference steps one coordinate along a factor's cover
    rng = np.random.default_rng(3)
    for _ in range(60):
        factors = [random_poset(int(rng.integers(1, 5)), rng) for _ in range(rng.integers(2, 4))]
        P = poset.product(factors)
        assert P.covers == tuple(reference_product_covers(factors))
        assert P.labels == tuple(itertools.product(*(f.labels for f in factors)))


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
        want = reference_connected_upsets(P)
        assert poset.connected_upsets(P) == want
        assert poset.count_connected_upsets(P) == len(want)


def test_connected_upsets_guard():
    # each walk is guarded by its work alone, so a long poset with few
    # upsets answers: 25 upsets of a chain, 25 singletons of an antichain
    for P in (poset.chain(25), poset.trivial(25)):
        assert len(poset.connected_upsets(P)) == 25
    assert poset.count_linear_extensions(poset.chain(25)) == 1
    assert poset.linear_extensions(poset.chain(13)) == [tuple(range(13))]


def test_walks_do_not_recurse_per_element():
    # every walk keeps its own stack: a chain longer than the recursion
    # limit is walked, and an antichain as long is refused by its count
    p = sys.getrecursionlimit() + 10
    assert len(poset.connected_upsets(poset.chain(p))) == p
    assert poset.count_linear_extensions(poset.chain(p)) == 1
    assert poset.linear_extensions(poset.chain(p)) == [tuple(range(p))]
    assert poset.count_antichains(poset.chain(p)) == p
    with pytest.raises(TooLarge, match="antichains"):
        poset.count_antichains(poset.trivial(p))


def test_upset_walks_are_guarded_by_their_work(monkeypatch):
    # at the real limit, collider_to_top(24) lists 8 388 608 upsets (about
    # 8 GB) and trivial(24) has 2^24 upsets to count over
    monkeypatch.setattr(poset, "ANTICHAIN_COUNT_LIMIT", 100)
    with pytest.raises(TooLarge, match="upsets"):
        poset.connected_upsets(poset.collider_to_top(9))  # 256 upsets and the empty one
    with pytest.raises(TooLarge, match="upsets"):
        poset.count_linear_extensions(poset.trivial(8))  # 256 upsets
    # a large poset with few upsets is still walked
    assert len(poset.connected_upsets(poset.chain(20))) == 20
    assert poset.count_linear_extensions(poset.chain(20)) == 1


def _upset_count(P):
    """The number of upsets of P, the empty one included, by checking
    every subset."""
    return sum(all(not S >> a & 1 or S >> b & 1 for a, b in P.covers) for S in range(1 << P.p))


def _drawn_poset(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "product":
        return poset.product([random_poset(int(rng.integers(1, 4)), rng) for _ in range(2)])
    if kind == "disconnected":
        A, B = (random_poset(int(rng.integers(1, 6)), rng) for _ in range(2))
        return poset.from_relation(range(A.p + B.p),
                                   list(A.covers) + [(a + A.p, b + A.p) for a, b in B.covers])
    kinds = {"chain": random_chain, "forest": random_forest, "collider": random_collider,
             "dag": random_dag}
    return kinds[kind](int(rng.integers(1, 11)), rng)


@given(st.sampled_from(["chain", "forest", "collider", "dag", "product", "disconnected"]),
       st.integers(0, 2 ** 32 - 1))
def test_upset_walk_matches_brute_force(kind, seed):
    # one walk answers all three: each non-empty upset of P is met once,
    # as the upset of one non-empty antichain
    P = _drawn_poset(kind, seed)
    want = reference_connected_upsets(P)
    assert poset.connected_upsets(P) == want
    assert poset.count_connected_upsets(P) == len(want)
    assert poset.count_antichains(P) + 1 == _upset_count(P)


def test_upset_walk_guard_counts_non_empty_upsets(monkeypatch):
    # at a limit of a connected poset's non-empty upsets every walk
    # answers, and one less refuses them all
    grid = poset.product([poset.chain(3), poset.chain(3)])
    dag = random_dag(7, np.random.default_rng(5))
    for P in (poset.chain(5), poset.collider_to_top(6), grid, dag):
        n = _upset_count(P) - 1
        monkeypatch.setattr(poset, "ANTICHAIN_COUNT_LIMIT", n)
        assert poset.count_antichains(P) == n
        assert poset.count_connected_upsets(P) == len(poset.connected_upsets(P))
        monkeypatch.setattr(poset, "ANTICHAIN_COUNT_LIMIT", n - 1)
        for walk in (poset.connected_upsets, poset.count_connected_upsets, poset.count_antichains):
            with pytest.raises(TooLarge, match=f"more than {n - 1} upsets .*antichains"):
                walk(P)
    # over several components the limit bounds the upsets of all of them
    # together: 5 and 32 here, where P has 6 * 33 - 1 antichains
    P = poset.from_relation(range(11), [(0, 1), (1, 2), (2, 3), (3, 4)]
                            + [(x, 10) for x in range(5, 10)])
    monkeypatch.setattr(poset, "ANTICHAIN_COUNT_LIMIT", 37)
    assert poset.count_connected_upsets(P) == 5 + 32
    monkeypatch.setattr(poset, "ANTICHAIN_COUNT_LIMIT", 36)
    with pytest.raises(TooLarge):
        poset.count_connected_upsets(P)
    monkeypatch.setattr(poset, "ANTICHAIN_COUNT_LIMIT", 6 * 33 - 1)
    assert poset.count_antichains(P) == 6 * 33 - 1


def test_upset_walk_guard_bounds_its_work(monkeypatch):
    # the grid of two 30-chains has C(60, 30) upsets; the walk meets only
    # those it counts, so it refuses after exactly the limit of them, not
    # after walking a share of the grid's subsets.  The masks are counted
    # as they come, so a walk that ignores its guard fails here at once
    grid = poset.product([poset.chain(30), poset.chain(30)])
    walk, walked = poset._upset_masks, [0]

    def counted(P, parts):
        walked[0] = 0
        for mask in walk(P, parts):
            walked[0] += 1
            assert walked[0] <= poset.ANTICHAIN_COUNT_LIMIT, "the walk passed its guard"
            yield mask

    monkeypatch.setattr(poset, "_upset_masks", counted)

    def refused_after(limit):
        monkeypatch.setattr(poset, "ANTICHAIN_COUNT_LIMIT", limit)
        start = time.perf_counter()
        with pytest.raises(TooLarge):
            poset.count_connected_upsets(grid)
        assert walked[0] == limit
        return time.perf_counter() - start

    small = min(refused_after(10_000) for _ in range(3))
    # the work, not the wall time, is bounded: ten times the limit takes
    # five to ten times as long (a fixed cost per walk), so a bound of 50x
    # holds under a line tracer as well as without one
    assert refused_after(100_000) <= 50 * small


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


def test_linear_extensions_are_the_orders_that_respect_every_cover():
    # one level walk counts and lists: on the empty poset, on chains,
    # forests, colliders, DAGs and antichains of up to 7 elements and on
    # products as small, the listing is the sorted filter of all orders
    rng = np.random.default_rng(40)
    posets = [poset.from_relation([], [])]
    posets += [kind(p, rng) for kind in KINDS for p in range(1, 8) for _ in range(2)]
    for _ in range(12):
        a = int(rng.integers(1, 4))
        b = int(rng.integers(1, 7 // a + 1))
        posets.append(poset.product([random_poset(a, rng), random_poset(b, rng)]))
    for P in posets:
        want = reference_linear_extensions(P)
        assert poset.linear_extensions(P) == want
        assert poset.count_linear_extensions(P) == len(want)
    assert poset.linear_extensions(posets[0]) == [()]


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


def test_text_format_names_the_line_closing_the_first_cycle():
    # the whole relation's message named the a-b cycle at the line that
    # closes the c-d one, and a later undeclared label was named at its line
    for text, message in [
        ("elements: a,b,c,d\nc < d\nd < c\na < b\nb < a\n", "cycle through 'c' and 'd' (line 3)"),
        ("elements: a,b,c\na < b\nb < a\na < z\n", "cycle through 'a' and 'b' (line 3)"),
    ]:
        with pytest.raises(ParseError) as err:
            poset.parse_poset_text(text)
        assert str(err.value) == f"relation contains a {message}"
    # the parser bisects over prefixes of the relation with from_relation;
    # blank and comment lines keep a line's number apart from its edge's
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 150:
        p = int(rng.integers(2, 10))
        labels = [f"e{i}" for i in range(p)]
        edges = []
        for _ in range(int(rng.integers(2, 3 * p))):
            a, b = rng.choice(p, size=2, replace=False)
            edges.append((labels[a], labels[b]))
        try:
            poset.from_relation(labels, edges)
            continue
        except CycleError:
            pass
        lines, linenos = ["elements: " + ",".join(labels)], []
        for a, b in edges:
            if rng.random() < 0.3:
                lines.append("# a comment" if rng.random() < 0.5 else "")
            lines.append(f"{a} < {b}")
            linenos.append(len(lines))
        with pytest.raises(ParseError) as err:
            poset.parse_poset_text("\n".join(lines) + "\n")
        k = reference_first_cycle_edge(labels, edges)
        # the message names the cycle that line closes, not one the whole relation holds
        with pytest.raises(CycleError) as first:
            poset.from_relation(labels, edges[:k + 1])
        assert err.value.line == linenos[k]
        assert str(err.value) == f"{first.value} (line {linenos[k]})"
        checked += 1


def test_text_format_refuses_the_empty_poset(tmp_path):
    # "elements: " would be read back as an empty element list, and refused
    E = poset.from_relation([], [])
    with pytest.raises(ValueError, match="no elements"):
        poset.format_poset_text(E)
    with pytest.raises(ValueError, match="no elements"):
        poset.write_poset(E, tmp_path / "empty.txt")
    assert not (tmp_path / "empty.txt").exists()
    with pytest.raises(ParseError, match="empty element list"):
        poset.parse_poset_text("elements: \n")


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


def _walk_under_limit(limit, walk, P):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poset, "ANTICHAIN_COUNT_LIMIT", limit)
        return walk(P)


@pytest.mark.parametrize("call, error, message", [
    (lambda: poset.from_relation(["a", "a"], []), ValueError, "distinct"),
    (lambda: poset.chain(0), ValueError, "positive"),
    (lambda: poset.trivial(0), ValueError, "positive"),
    (lambda: poset.collider_to_top(0), ValueError, "positive"),
    # each of these built a one-element poset or raised a TypeError from range or <
    *[(lambda make=make, p=p: make(p), ValueError, re.escape(f"positive integer (got {p!r})"))
      for make in (poset.chain, poset.trivial, poset.collider_to_top)
      for p in (True, 2.5, np.float64(3.0), "3")],
    (lambda: poset.product([]), ValueError, "at least one factor"),
    (lambda: poset.chain(3).index(4), UnknownLabel, "unknown element 4"),
    # the count is refused by its work: trivial(8) has 256 upsets, past a limit of 100
    (lambda: _walk_under_limit(100, poset.count_linear_extensions, poset.trivial(8)),
     TooLarge, "more than 100 upsets"),
    # 10! extensions, counted over 2^10 downsets before any is listed
    (lambda: poset.linear_extensions(poset.trivial(10)), TooLarge, "1e6"),
    (lambda: poset.parse_poset_text("elements: ,\n"), ParseError, "empty element list"),
    (lambda: poset.parse_poset_text("elements: a,b\na <\n"), ParseError, "expected 'x < y'"),
    (lambda: poset.parse_poset_text("# no header\n\n"), ParseError, "missing 'elements:'"),
], ids=["repeated-label", "chain-0", "trivial-0", "collider-0",
        *[f"{name}-{p!r}" for name in ("chain", "trivial", "collider")
          for p in (True, 2.5, np.float64(3.0), "3")], "no-factor", "unknown-label",
        "count-guard", "listing-guard", "empty-elements", "empty-side", "no-header"])
def test_poset_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("make", [poset.chain, poset.trivial, poset.collider_to_top])
def test_shorthands_take_a_numpy_integer(make):
    P = make(np.int64(3))
    assert P == make(3) and all(type(x) is int for x in P.labels)


def test_poset_compares_and_prints():
    P = poset.chain(2)
    assert P != "chain:2" and P == poset.chain(2)
    assert repr(P) == "Poset(p=2, covers=[(0, 1)])"
