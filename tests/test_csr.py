"""The package's CSR type against scipy.sparse, bit for bit.

Matrices are drawn as random triplets with duplicates, empty rows and
explicit zeros. A row holds at most 16 triplets: up to that length scipy
sums duplicates in input order (its per-row sort is stable only there).
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from pnrsim.csr import CSR, as_csr, kron, vstack

from helpers import to_scipy

FINITE = dict(allow_nan=False, allow_infinity=False)
SETTINGS = settings(max_examples=100, deadline=None)


@st.composite
def triplets(draw, n_rows=None, n_cols=None):
    """(data, rows, cols, shape): up to 16 triplets on a small grid, so
    that duplicates and empty rows are common; a fifth of the values are
    zeros, stored explicitly."""
    n = n_rows if n_rows is not None else draw(st.integers(1, 6))
    m = n_cols if n_cols is not None else draw(st.integers(1, 6))
    size = draw(st.integers(0, 16))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size))
    cols = draw(st.lists(st.integers(0, m - 1), min_size=size, max_size=size))
    if draw(st.booleans()):
        value = st.complex_numbers(max_magnitude=1e6, **FINITE)
        dtype = complex
    else:
        value = st.floats(-1e6, 1e6, **FINITE)
        dtype = float
    value = st.one_of(st.just(0.0), value, value, value, value)
    data = draw(st.lists(value, min_size=size, max_size=size))
    return np.array(data, dtype=dtype), np.array(rows, dtype=int), \
        np.array(cols, dtype=int), (n, m)


def pair(t):
    """The package CSR and the scipy csr_matrix of the triplets `t`."""
    data, rows, cols, shape = t
    return (CSR.from_triplets(data, rows, cols, shape),
            sp.csr_matrix((data, (rows, cols)), shape=shape))


def assert_same(got, want):
    """Same shape, dtype, pattern and bytes; `want` is sorted first (scipy
    leaves sparse products and some sums unsorted)."""
    want = want.tocsr()
    want.sort_indices()
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


def assert_same_array(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@SETTINGS
@given(triplets())
def test_triplet_construction(t):
    got, want = pair(t)
    assert_same(got, want)
    assert_same_array(got.toarray(), want.toarray())


@SETTINGS
@given(st.data())
def test_sum_difference_and_scaling(data):
    a = data.draw(triplets())
    b = data.draw(triplets(*a[3]))
    (x, sx), (y, sy) = pair(a), pair(b)
    assert_same(x + y, sx + sy)
    assert_same(x - y, sx - sy)
    assert_same(sum([x, y]), sum([sx, sy]))
    assert_same(-x, -sx)
    for s in (0.5, -1j, 3.0 - 2.0j):
        assert_same(s * x, s * sx)
        assert_same(x * s, sx * s)


@SETTINGS
@given(triplets(), triplets())
def test_kron(a, b):
    (x, sx), (y, sy) = pair(a), pair(b)
    assert_same(kron(x, y), sp.kron(sx, sy, format="csr"))


@SETTINGS
@given(triplets())
def test_transpose_and_conjugate(t):
    x, sx = pair(t)
    assert_same(x.transpose(), sx.transpose())
    assert_same(x.conj(), sx.conj())
    assert_same(x.getH(), sx.getH())


@SETTINGS
@given(st.data())
def test_sparse_product(data):
    a = data.draw(triplets())
    b = data.draw(triplets(n_rows=a[3][1]))
    (x, sx), (y, sy) = pair(a), pair(b)
    assert_same(x @ y, sx @ sy)


@SETTINGS
@given(triplets(), st.integers(1, 5), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_dense_products(t, k, real, seed):
    x, sx = pair(t)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((x.shape[1], k))
    if not real:
        y = y + 1j * rng.standard_normal(y.shape)
    assert_same_array(x @ y[:, 0], sx @ y[:, 0])
    assert_same_array(x @ y, sx @ y)
    # a column of a 2-D product is the product with that column alone
    for c in range(k):
        assert (x @ y)[:, c].tobytes() == (x @ y[:, c]).tobytes()


@SETTINGS
@given(st.data())
def test_vstack(data):
    parts = [data.draw(triplets())]
    parts += data.draw(st.lists(triplets(n_cols=parts[0][3][1]), max_size=3))
    mats = [pair(p) for p in parts]
    assert_same(vstack([m for m, _ in mats]),
                sp.vstack([s for _, s in mats], format="csr"))


def test_large_column_blocks_keep_each_column_bitwise():
    # more columns than one block of products holds
    rng = np.random.default_rng(3)
    s = sp.random(40, 30, density=0.3, random_state=rng, format="csr")
    s = (s + 1j * sp.random(40, 30, density=0.3, random_state=rng)).tocsr()
    x = as_csr(s)
    y = rng.standard_normal((30, 3000)) + 1j * rng.standard_normal((30, 3000))
    assert_same_array(x @ y, s @ y)
    assert_same_array(x @ np.asfortranarray(y), s @ y)


def test_conversions_and_entries():
    s = sp.random(7, 5, density=0.4, random_state=np.random.default_rng(1),
                  format="coo")
    x = as_csr(s, complex)
    assert x.dtype == complex and np.array_equal(x.toarray(), s.toarray())
    assert to_scipy(x).nnz == x.nnz
    dense = s.toarray()
    assert_same(as_csr(dense), sp.csr_matrix(dense))
    rows, cols = np.divmod(np.arange(35), 5)
    assert np.array_equal(x.at(rows, cols), dense.reshape(-1))
    assert not CSR.zeros((3, 3)).at([0, 2], [1, 2]).any()
    assert_same(CSR.diags([0.0, 2.0, -1.0]), sp.diags([0.0, 2.0, -1.0]))
    assert_same(CSR.identity(4, complex), sp.identity(4, dtype=complex))
    y = CSR.from_triplets([1.0, 0.0, 2.0], [0, 1, 1], [1, 0, 2], (2, 3))
    assert y.nnz == 3 and y.eliminate_zeros().nnz == 2
    with pytest.raises(ValueError):
        CSR.from_triplets([1.0], [2], [0], (2, 2))
    with pytest.raises(ValueError):
        x @ np.ones(7)
