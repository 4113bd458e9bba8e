import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ndrank import cone, isotonic, poset, tensor
from ndrank.errors import NonFiniteInput, NotSimplicial, ParseError, ShapeMismatch

from helpers import random_forest, reference_mobius_inverse


def test_outer_examples():
    T = tensor.outer([[1, 2], [1, 1, 1]])
    assert np.array_equal(T, [[1, 1, 1], [2, 2, 2]])
    assert not tensor.outer([[1, 2], [0, 0], [1, 3]]).any()
    T3 = tensor.outer([[1, 2], [0, 1], [1, 3]])
    assert T3[1, 1, 1] == 6  # last entry across all modes


def test_mobius_matrix_chain_and_trivial():
    M = tensor.mobius_matrix(poset.chain(3))
    # column x holds the indicator of everything above x
    assert np.array_equal(M, [[1, 0, 0], [1, 1, 0], [1, 1, 1]])
    assert np.array_equal(tensor.mobius_matrix(poset.trivial(4)), np.eye(4))


def test_mobius_matrix_collider_columns():
    P = poset.from_relation(["a", "b", "c"], [("a", "c"), ("b", "c")])
    M = tensor.mobius_matrix(P)
    assert np.array_equal(M[:, 0], [1, 0, 1])
    assert np.array_equal(M[:, 1], [0, 1, 1])
    assert np.array_equal(M[:, 2], [0, 0, 1])


def test_mobius_inverse_chain_is_bidiagonal():
    Minv = tensor.mobius_inverse_matrix(poset.chain(3))
    assert np.array_equal(Minv, [[1, 0, 0], [-1, 1, 0], [0, -1, 1]])
    assert np.array_equal(tensor.mobius_inverse_matrix(poset.trivial(5)), np.eye(5))


def test_mobius_inverse_rejects_collider():
    P = poset.from_relation(["a", "b", "c"], [("a", "c"), ("b", "c")])
    with pytest.raises(NotSimplicial):
        tensor.mobius_inverse_matrix(P)


@st.composite
def forests(draw):
    """A forest on 0 to 10 elements: each element is a root or covers one
    earlier element, so chains and antichains are among them."""
    parents = [draw(st.integers(-1, i - 1)) for i in range(draw(st.integers(0, 10)))]
    return poset.from_relation(list(range(len(parents))),
                               [(a, b) for b, a in enumerate(parents) if a >= 0])


@given(st.one_of(st.integers(1, 10).map(poset.chain), st.integers(1, 10).map(poset.trivial),
                 forests(), st.just(poset.from_relation([], []))), st.data())
def test_mobius_inverse_is_the_cover_loop_bitwise(P, data):
    M, want = tensor.mobius_inverse_matrix(P), reference_mobius_inverse(P)
    assert (M.shape, M.dtype, M.tobytes()) == (want.shape, want.dtype, want.tobytes())
    assert M.flags.writeable  # a fresh array, not the shared read-only rows
    # a new top covering an element and a new root makes a collider
    top = P.p + 2
    a = data.draw(st.integers(0, P.p))  # P.p is a second new root
    Q = poset.from_relation(list(range(P.p + 3)), list(P.covers) + [(a, top), (P.p + 1, top)])
    with pytest.raises(NotSimplicial):
        tensor.mobius_inverse_matrix(Q)


def test_mobius_identity_random_forests():
    rng = np.random.default_rng(11)
    for _ in range(25):
        P = random_forest(int(rng.integers(1, 11)), rng)
        M = tensor.mobius_matrix(P)
        Minv = tensor.mobius_inverse_matrix(P)
        assert np.max(np.abs(M @ Minv - np.eye(P.p))) < 1e-12


def test_mobius_of_product_is_kronecker():
    A = poset.chain(2)
    B = poset.from_relation("xyz", [("x", "z"), ("y", "z")])
    P = poset.product([A, B])
    assert np.array_equal(tensor.mobius_matrix(P),
                          np.kron(tensor.mobius_matrix(A), tensor.mobius_matrix(B)))


def test_apply_kronecker_identity_and_rank_one():
    rng = np.random.default_rng(0)
    T = rng.standard_normal((2, 3, 2))
    eye = [np.eye(s) for s in T.shape]
    assert np.allclose(tensor.apply_kronecker(eye, T), T)
    u, v = rng.standard_normal(3), rng.standard_normal(4)
    A, B = rng.standard_normal((3, 3)), rng.standard_normal((4, 4))
    lhs = tensor.apply_kronecker([A, B], np.outer(u, v))
    assert np.allclose(lhs, np.outer(A @ u, B @ v))


def test_apply_kronecker_matches_difference_formulas():
    rng = np.random.default_rng(1)
    T = rng.standard_normal((2, 3))
    maps = [tensor.mobius_inverse_matrix(poset.chain(2)),
            tensor.mobius_inverse_matrix(poset.chain(3))]
    D = tensor.apply_kronecker(maps, T)
    t = T
    expect = np.array([
        [t[0, 0], t[0, 1] - t[0, 0], t[0, 2] - t[0, 1]],
        [t[1, 0] - t[0, 0], t[1, 1] - t[1, 0] - t[0, 1] + t[0, 0],
         t[1, 2] - t[1, 1] - t[0, 2] + t[0, 1]],
    ])
    assert np.allclose(D, expect)


def test_apply_kronecker_linearity():
    rng = np.random.default_rng(2)
    maps = [rng.standard_normal((2, 2)), rng.standard_normal((3, 3))]
    S, T = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
    a, b = 0.7, -1.3
    lhs = tensor.apply_kronecker(maps, a * S + b * T)
    rhs = a * tensor.apply_kronecker(maps, S) + b * tensor.apply_kronecker(maps, T)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def _tensordot_kronecker(maps, T):
    out = T
    for j, A in enumerate(maps):
        out = np.moveaxis(np.tensordot(A, out, axes=(1, j)), 0, j)
    return out


def test_apply_kronecker_matches_tensordot():
    rng = np.random.default_rng(4)
    for i in range(200):
        shape = tuple(int(s) for s in rng.integers(1, 6, size=int(rng.integers(1, 5))))
        T = rng.standard_normal(shape)
        # dense maps agree to rounding
        maps = [rng.standard_normal((int(rng.integers(1, 6)), p)) for p in shape]
        out = tensor.apply_kronecker(maps, T)
        assert np.allclose(out, _tensordot_kronecker(maps, T))
        # maps with at most two +-1 entries a row, as every H-rep row, agree bitwise
        rows = [cone._halfspace_rows(poset.chain(p) if i % 2 else poset.collider_to_top(p))
                for p in shape]
        T = rng.integers(-2, 3, size=shape).astype(float) if i % 3 else T
        assert tensor.apply_kronecker(rows, T).tobytes() == _tensordot_kronecker(rows, T).tobytes()
    # a mode of size zero
    out = tensor.apply_kronecker([np.ones((2, 0)), np.eye(3)], np.zeros((0, 3)))
    assert out.shape == (2, 3) and not out.any()
    with pytest.raises(ShapeMismatch):
        tensor.apply_kronecker([np.eye(2), np.eye(2)], np.zeros((2, 3)))
    with pytest.raises(ShapeMismatch):
        tensor.apply_kronecker([np.eye(2)], np.zeros((2, 3)))


def test_json_roundtrip(tmp_path):
    T = np.arange(12.0).reshape(3, 4) / 7
    path = tmp_path / "t.json"
    tensor.write_tensor(T, path)
    assert np.allclose(tensor.read_tensor(path), T)


def test_json_errors():
    with pytest.raises(ParseError):
        tensor.tensor_from_json("{not json")
    with pytest.raises(ParseError):
        tensor.tensor_from_json('{"shape": [2, 2], "data": [1, 2, 3]}')


def test_csv_matrix(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1, 2.5, 3\n4, 5, 6\n")
    M = tensor.read_tensor(path)
    assert np.array_equal(M, [[1, 2.5, 3], [4, 5, 6]])
    bad = tmp_path / "bad.csv"
    bad.write_text("1, 2\n3, oops\n")
    with pytest.raises(ParseError) as err:
        tensor.read_tensor(bad)
    assert err.value.line == 2


@pytest.mark.parametrize("text, field", [
    ('{"shape": [2.5], "data": [1, 2]}', "shape"),
    ('{"shape": [true, 2], "data": [1, 2]}', "shape"),
    ('{"shape": [-1], "data": []}', "shape"),
    ('{"shape": "ab", "data": [1]}', "shape"),
    ('{"shape": {"n": 2}, "data": [1, 2]}', "shape"),
    ('{"shape": [2], "data": [[1], [2]]}', "data"),
    ('{"shape": [2], "data": [1, true]}', "data"),
    ('{"shape": [2], "data": [1, "2"]}', "data"),
    ('{"shape": [2], "data": 12}', "data"),
    ('{"shape": [1], "data": [1%s]}' % ("0" * 400), "data"),
    # these loaded as non-finite entries, for a later check to refuse or not
    ('{"shape": [2], "data": [1, NaN]}', "data"),
    ('{"shape": [2], "data": [Infinity, 1]}', "data"),
    ('{"shape": [2], "data": [1, -Infinity]}', "data"),
    ('{"shape": [1], "data": [1e400]}', "data"),
    # a key the reader does not read loaded unseen, whatever it held
    ('{"shape": [2], "data": [1, 2], "extra": NaN}', "extra"),
])
def test_json_rejects_malformed_shape_and_data(text, field):
    # these loaded as a vector, a (1, 2) matrix, a flattened nest, or
    # raised a bare ValueError or OverflowError
    with pytest.raises(ParseError, match=f"'{field}'"):
        tensor.tensor_from_json(text)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_json_of_a_non_finite_tensor_is_not_written(bad):
    # tensor_to_json wrote NaN or Infinity, which are not JSON
    with pytest.raises(ValueError, match="not JSON compliant"):
        tensor.tensor_to_json(np.array([1.0, bad]))
    # the largest finite floats are numbers, written and read
    big = np.array([sys.float_info.max, -sys.float_info.max, 1e-308])
    assert tensor.tensor_from_json(tensor.tensor_to_json(big)).tobytes() == big.tobytes()


def test_json_accepts_empty_and_order_0_shapes():
    assert tensor.tensor_from_json('{"shape": [0, 3], "data": []}').shape == (0, 3)
    assert tensor.tensor_from_json('{"shape": [], "data": [2]}') == np.array(2.0)


@pytest.mark.filterwarnings("error")
def test_finite_entries_near_the_float_limit_raise_no_warning():
    # the finiteness probe's dot overflowed on these, and warned
    big = np.full(3, 1e200)
    tensor.require_finite("t", big)
    P = poset.chain(3)
    assert cone.is_monotone(big, P).member
    assert np.array_equal(isotonic.project(big, P), big)
    assert cone.membership_finite_rank(np.full((3, 3), 1e200), [P, P]).member
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFiniteInput):
            tensor.require_finite("t", np.array([1e200, bad]))


@pytest.mark.parametrize("call, error, message", [
    (lambda: tensor.outer([]), ValueError, "at least one vector"),
    (lambda: tensor.outer([[1.0], []]), ValueError, "non-empty vector"),
    (lambda: tensor.outer([[[1.0]]]), ValueError, "non-empty vector"),
    (lambda: tensor.tensor_from_json("[1, 2]"), ParseError, "tensor JSON needs a 'shape' field"),
    (lambda: tensor.matrix_from_csv("1,2\n3\n"), ParseError, "expected 2 columns"),
    (lambda: tensor.matrix_from_csv("# only a comment\n\n"), ParseError, "empty matrix"),
], ids=["no-vector", "empty-vector", "matrix-factor", "json-fields", "csv-width", "csv-empty"])
def test_tensor_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("text, line, column, cell", [
    ("1,2\nx,y,z\n", 2, 1, "x"),  # the first bad cell of several
    ("1,2,3\n4,5,6\n7,8,oops\n", 3, 3, "oops"),  # after good ones
    ("# note\n\n 1 ,\t2\t\n 3 ,  ? \n", 4, 2, "?"),  # padded cells, after skipped lines
    ("1,,3\n", 1, 2, ""),
    # float() reads these, but a file's numbers are finite, as in JSON:
    # nan, inf and 1e400 (inf) loaded, for check_tensor to refuse with no location
    ("nan,1\nnan, NaN ,nope\n", 1, 1, "nan"),
    ("1, inf \n", 1, 2, "inf"),
    ("1,2\n3,4\n-inf,5\n", 3, 1, "-inf"),
    ("# big\n1,1e400\n", 2, 2, "1e400"),
    # float() also reads digit separators, which JSON does not
    ("1,2\n3,1_0\n", 2, 2, "1_0"),
])
def test_csv_reports_the_first_bad_cell(text, line, column, cell):
    with pytest.raises(ParseError) as err:
        tensor.matrix_from_csv(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"not a finite number: {cell!r} (line {line}, column {column})"


def test_read_tensor_takes_json_by_content(tmp_path):
    # a file named for CSV that holds JSON is read as JSON
    path = tmp_path / "t.csv"
    path.write_text('  {"shape": [2], "data": [1, 2]}')
    assert tensor.read_tensor(path).tolist() == [1.0, 2.0]
    csv = tmp_path / "c.csv"
    csv.write_text("# header comment\n1,2\n\n3,4\n")
    assert tensor.read_tensor(csv).tolist() == [[1.0, 2.0], [3.0, 4.0]]
