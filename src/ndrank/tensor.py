"""Dense tensor arithmetic and the linear maps tied to poset structure.

Tensors are plain numpy arrays in row-major layout (last index fastest);
linear maps are dense 2-D arrays.  Mode and index arguments are 0-based, as
in numpy; only rendered labels (``t[1,2]``) and messages count from 1.
Every order-cone facet row is built here, by :func:`_halfspace_rows`.

The membership checks validate their input by :func:`check_tensor`, and
the fits that take posets by :func:`check_fit_input`, which adds that a fit
needs at least one mode and no empty one.
"""

from __future__ import annotations

import functools
import json
import math
import sys

import numpy as np

from .errors import NonFiniteInput, NotSimplicial, ParseError, ShapeMismatch
from .poset import Poset, is_simplicial


def require_finite(name: str, a: np.ndarray) -> None:
    """Raise NonFiniteInput unless every entry of ``a`` is finite."""
    if not np.isfinite(a).all():
        raise NonFiniteInput(f"{name} must be finite (found NaN or inf)")


def _rowdot_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of a with the same row of b, over any
    leading axes."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


# numpy >= 2.0 has the same dot as one call, bitwise equal and twice as fast
_rowdot = getattr(np, "vecdot", _rowdot_matmul)


def poset_list(posets) -> list:
    """One poset per mode as a list: a single Poset stands for the list of
    an order-1 tensor, and an empty sequence for an order-0 one."""
    return [posets] if isinstance(posets, Poset) else list(posets)


def check_tensor(T, posets) -> tuple[np.ndarray, list]:
    """Validate a tensor against one poset per mode.

    Returns T as a float array and the posets as a list (:func:`poset_list`).
    Raises ShapeMismatch unless mode j has as many entries as poset j has
    elements, and NonFiniteInput if T holds NaN or an infinity.
    """
    T = np.asarray(T, dtype=float)
    posets = poset_list(posets)
    if len(posets) != T.ndim:
        raise ShapeMismatch(f"{len(posets)} posets for an order-{T.ndim} tensor")
    for j, P in enumerate(posets):
        if P.p != T.shape[j]:
            raise ShapeMismatch(f"mode {j + 1} has size {T.shape[j]}, poset has {P.p} elements")
    require_finite("tensor", T)
    return T, posets


def check_fit_input(T, posets) -> tuple[np.ndarray, list]:
    """:func:`check_tensor`, and a ShapeMismatch unless T has at least one
    mode and no mode of size 0: a fit has no vector to fit otherwise.  The
    one check of every fit in :mod:`ndrank.factor` that takes posets."""
    T, posets = check_tensor(T, posets)
    if T.ndim == 0:
        raise ShapeMismatch("a fit needs at least one mode")
    if 0 in T.shape:
        raise ShapeMismatch(f"mode {T.shape.index(0) + 1} is empty; a fit needs entries")
    return T, posets


def outer(vectors) -> np.ndarray:
    """Outer product of k vectors: T[i1,...,ik] = prod_j v_j[i_j]."""
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    if not vecs:
        raise ValueError("need at least one vector")
    for v in vecs:
        if v.ndim != 1 or v.size == 0:
            raise ValueError("each factor must be a non-empty vector")
    return functools.reduce(np.multiply.outer, vecs)


def mobius_matrix(P: Poset) -> np.ndarray:
    """Linear map sending each basis vector e_x to the indicator of [x, inf).

    Column x is the indicator of the principal upset of x; for a product
    poset the matrix is the Kronecker product of the factor matrices.
    """
    return P.leq.T.astype(float)


@functools.lru_cache(maxsize=256)
def _halfspace_rows(P: Poset) -> np.ndarray:
    """H-representation rows of C(P): e_m for minimal m, then e_b - e_a for
    covers (a, b) in sorted order.  Every order-cone facet row in the
    package is built here; read-only, as the cached array is shared."""
    mins, covers = P.minimal_elements(), sorted(P.covers)
    A = np.zeros((len(mins) + len(covers), P.p))
    A[range(len(mins)), mins] = 1.0
    for r, (a, b) in enumerate(covers, start=len(mins)):
        A[r, a], A[r, b] = -1.0, 1.0
    A.setflags(write=False)
    return A


def mobius_inverse_matrix(P: Poset) -> np.ndarray:
    """Inverse of the upset-indicator map of a collider-free poset: its H-rep
    rows, each at its +1 entry, so entry (x, y) is 1 if x = y, -1 if y is
    covered by x, 0 otherwise (for a chain, the bidiagonal differencing)."""
    if not is_simplicial(P):
        raise NotSimplicial("the inverse formula requires a collider-free poset")
    H = _halfspace_rows(P)
    M = np.empty_like(H)
    M[np.nonzero(H > 0)[1]] = H
    return M


def apply_kronecker(maps, T) -> np.ndarray:
    """Apply per-mode linear maps A_1 (x) ... (x) A_k to T.

    Result[j1..jk] = sum over i1..ik of A_1[j1,i1] ... A_k[jk,ik] T[i1..ik];
    map j must have as many columns as mode j of T.

    One matmul per mode on the unfolded tensor: map j acts on the leading
    axis, and the transpose moves its output axis to the back, so after k
    steps the axes are back in order.
    """
    T = np.asarray(T, dtype=float)
    maps = [np.asarray(A, dtype=float) for A in maps]
    if len(maps) != T.ndim:
        raise ShapeMismatch(f"got {len(maps)} maps for an order-{T.ndim} tensor")
    for j, A in enumerate(maps):
        if A.ndim != 2 or A.shape[1] != T.shape[j]:
            raise ShapeMismatch(f"map {j + 1} has shape {A.shape}, mode has size {T.shape[j]}")
    out, dims = T, list(T.shape)
    for A in maps:
        # explicit sizes, not -1: a mode of size 0 leaves the rest ambiguous
        out = (A @ out.reshape(dims[0], math.prod(dims[1:]))).T
        dims = dims[1:] + [A.shape[0]]
    return out.reshape(dims)


# ---------------------------------------------------------------------------
# file formats: JSON {"shape": [...], "data": [...row-major...]} and, for
# matrices, headerless CSV with rows along mode 1.  Both JSON readers, this
# one and NDFactorization.from_json, use one decoder, and they and the CSV
# reader one number rule.

def _is_number(x) -> bool:
    # a file's entry: no bool, null, string, NaN, infinity or number past a float's range
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def _json_fields(text: str, keys: tuple, kind: str) -> list:
    """The values of ``keys``, ``"shape"`` among them, in the JSON object
    ``text``; a ParseError for invalid JSON (with its line and column), for
    a value that is not an object, lacks a key (naming the first missing
    one) or has another key (naming the first), and for a shape that is not
    a list of non-negative integers."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    if missing := [k for k in keys if not isinstance(obj, dict) or k not in obj]:
        raise ParseError(f"{kind} JSON needs a {missing[0]!r} field")
    if extra := [k for k in obj if k not in keys]:
        raise ParseError(f"{kind} JSON has an unexpected {extra[0]!r} field")
    shape = obj["shape"]
    # bool is a subclass of int, so the types are compared exactly
    if type(shape) is not list or not all(type(p) is int and p >= 0 for p in shape):
        raise ParseError(f"'shape' must be a list of non-negative integers, got {json.dumps(shape)}")
    return [obj[k] for k in keys]


def tensor_to_json(T) -> str:
    T = np.asarray(T, dtype=float)
    return json.dumps({"shape": list(T.shape), "data": T.ravel().tolist()}, allow_nan=False)


def tensor_from_json(text: str) -> np.ndarray:
    shape, data = _json_fields(text, ("shape", "data"), "tensor")
    if type(data) is not list or not all(map(_is_number, data)):
        raise ParseError("'data' must be a flat list of finite numbers")
    if len(data) != math.prod(shape):
        raise ParseError(f"data length {len(data)} does not match shape {tuple(shape)}")
    return np.array(data, dtype=float).reshape(shape)


def matrix_from_csv(text: str) -> np.ndarray:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        row = []
        for column, cell in enumerate(line.split(","), start=1):
            try:
                # float() ignores the cell's padding, and reads 1_0 as JSON does not
                x = None if "_" in cell else float(cell)
            except ValueError:
                x = None
            # the JSON readers' rule: float() also reads nan, inf and 1e400 (as inf)
            if not _is_number(x):
                raise ParseError(f"not a finite number: {cell.strip()!r}", line=lineno, column=column)
            row.append(x)
        if rows and len(row) != len(rows[0]):
            raise ParseError(f"expected {len(rows[0])} columns, got {len(row)}", line=lineno)
        rows.append(row)
    if not rows:
        raise ParseError("empty matrix file")
    return np.asarray(rows, dtype=float)


def read_tensor(path) -> np.ndarray:
    # utf-8-sig drops the byte-order mark of a spreadsheet's "CSV UTF-8" export
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    if str(path).endswith(".json") or text.lstrip().startswith("{"):
        return tensor_from_json(text)
    return matrix_from_csv(text)


def write_tensor(T, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(tensor_to_json(T))
