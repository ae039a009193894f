"""Compressed sparse row matrices on numpy index arrays.

`CSR` is the package's one sparse type: `data`, `indices` and `indptr`
as in scipy.sparse's csr_matrix, always canonical (each row's column
indices sorted and unique). It gives the values scipy.sparse gives,
bit for bit:

- Each operation keeps or drops explicit zeros as scipy does. Triplet
  construction, scaling, kron and transposes keep them. Sums, differences
  and sparse products drop the entries that come out exactly zero.
- Sums run in scipy's order. Duplicate triplets are summed in input
  order, starting from the first. Product entries are summed in storage
  order, starting from zero, as scipy's compiled kernels do.
- A complex product inside a sparse product is formed as
  (ar br - ai bi, ar bi + ai br) from the real and imaginary parts, as
  those kernels form it; numpy's complex multiply may fuse the terms.
  Scaling and kron multiply with numpy, as scipy does there.

Nothing here imports scipy. `as_csr` reads scipy sparse inputs through
their `tocoo()`.
"""

from __future__ import annotations

import numpy as np


def runs(indptr, idx):
    """Owner (position in idx) and data position of every stored entry of
    the rows (CSR) or columns (CSC) `idx`."""
    lo = indptr[idx]
    count = indptr[idx + 1] - lo
    owner = np.repeat(np.arange(idx.size), count)
    return owner, np.arange(owner.size) + np.repeat(lo - np.cumsum(count) + count,
                                                    count)


def unique(a):
    """The sorted distinct values of `a` (flattened), as np.unique gives
    them. np.unique without return_inverse, and np.union1d, import
    numpy.ma (about 11 ms) on their first call."""
    a = np.sort(a, axis=None)
    first = np.ones(a.size, dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return a[first]


# products a 2-D product forms at a time
_BLOCK = 2 ** 15


class CSR:
    """A canonical compressed sparse row matrix (see the module
    docstring). Treat it as immutable. The one exception is writing new
    values into `data` in place, which keeps the pattern."""

    __slots__ = ("data", "indices", "indptr", "shape", "_row")
    __array_ufunc__ = None      # numpy scalars defer to the reflected operators

    def __init__(self, data, indices, indptr, shape):
        """Wrap canonical arrays as they are, without a check or a copy."""
        self.data, self.indices, self.indptr = data, indices, indptr
        self.shape = (int(shape[0]), int(shape[1]))
        self._row = None

    # construction ----------------------------------------------------

    @classmethod
    def _from_keys(cls, keys, data, shape):
        """From sorted unique keys row * n_cols + col."""
        rows, cols = np.divmod(keys, shape[1])
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
        return cls(data, cols, indptr, shape)

    @classmethod
    def from_triplets(cls, data, rows, cols, shape, dtype=None):
        """Entries data[i] at (rows[i], cols[i]); duplicates are summed in
        input order, starting from the first. scipy sums them in the same
        order while a row holds at most 16 triplets: its per-row sort is
        stable only up to that length."""
        data = np.asarray(data, dtype=dtype).ravel()
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        n, m = int(shape[0]), int(shape[1])
        if not data.size == rows.size == cols.size:
            raise ValueError("data, rows and cols differ in length")
        if data.size and not (0 <= rows.min() and rows.max() < n
                              and 0 <= cols.min() and cols.max() < m):
            raise ValueError(f"triplet index outside the shape {(n, m)}")
        keys, group = np.unique(rows * m + cols, return_inverse=True)
        # -0.0 is the identity of IEEE addition (in both parts of a complex
        # number): each sum starts from its first term, as scipy's does
        vals = -np.zeros(keys.size, dtype=data.dtype)
        np.add.at(vals, group, data)
        return cls._from_keys(keys, vals, (n, m))

    @classmethod
    def from_dense(cls, a):
        """The nonzero entries of a 2-D array."""
        a = np.asarray(a)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {a.shape}")
        rows, cols = np.nonzero(a)
        indptr = np.zeros(a.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=a.shape[0]), out=indptr[1:])
        return cls(a[rows, cols], cols.astype(np.int64), indptr, a.shape)

    @classmethod
    def zeros(cls, shape, dtype=float):
        return cls(np.zeros(0, dtype=dtype), np.zeros(0, dtype=np.int64),
                   np.zeros(int(shape[0]) + 1, dtype=np.int64), shape)

    @classmethod
    def diags(cls, diagonal):
        """The square matrix with the nonzeros of `diagonal` on its main
        diagonal."""
        diagonal = np.asarray(diagonal)
        keep = diagonal != 0
        indptr = np.zeros(diagonal.size + 1, dtype=np.int64)
        np.cumsum(keep, out=indptr[1:])
        return cls(diagonal[keep], np.flatnonzero(keep), indptr,
                   (diagonal.size, diagonal.size))

    @classmethod
    def identity(cls, n, dtype=float):
        return cls.diags(np.ones(n, dtype=dtype))

    # views of the entries ------------------------------------------------

    @property
    def nnz(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def rows(self):
        """The row of every stored entry."""
        if self._row is None:
            self._row = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return self._row

    def _keys(self):
        return self.rows() * self.shape[1] + self.indices

    def at(self, rows, cols):
        """The entries at (rows[i], cols[i]), 0 where none is stored."""
        q = np.asarray(rows, dtype=np.int64) * self.shape[1] + cols
        out = np.zeros(q.shape, dtype=self.dtype)
        if self.nnz:
            keys = self._keys()
            pos = np.minimum(np.searchsorted(keys, q), keys.size - 1)
            hit = keys[pos] == q
            out[hit] = self.data[pos[hit]]
        return out

    def toarray(self):
        out = np.zeros(self.shape, dtype=self.dtype)
        out[self.rows(), self.indices] += self.data    # from +0, as scipy
        return out

    def eliminate_zeros(self):
        """A copy without the stored zeros."""
        keep = self.data != 0
        return CSR._from_keys(self._keys()[keep], self.data[keep], self.shape)

    # algebra ---------------------------------------------------------

    def transpose(self):
        order = np.argsort(self.indices, kind="stable")
        indptr = np.zeros(self.shape[1] + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.indices, minlength=self.shape[1]),
                  out=indptr[1:])
        return CSR(self.data[order], self.rows()[order], indptr, self.shape[::-1])

    def conj(self):
        return CSR(np.conj(self.data), self.indices, self.indptr, self.shape)

    def getH(self):
        return self.transpose().conj()

    def __neg__(self):
        return CSR(-self.data, self.indices, self.indptr, self.shape)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return CSR(self.data * scalar, self.indices, self.indptr, self.shape)

    __rmul__ = __mul__

    def _binop(self, other, op):
        if not isinstance(other, CSR):
            # sum() starts from 0, which scipy adds as a copy
            if np.isscalar(other) and other == 0:
                return self
            return NotImplemented
        if other.shape != self.shape:
            raise ValueError(f"shapes {self.shape} and {other.shape} differ")
        ka, kb = self._keys(), other._keys()
        keys = unique(np.concatenate((ka, kb)))
        va = np.zeros(keys.size, dtype=self.dtype)
        vb = np.zeros(keys.size, dtype=other.dtype)
        va[np.searchsorted(keys, ka)] = self.data
        vb[np.searchsorted(keys, kb)] = other.data
        val = op(va, vb)
        keep = val != 0
        return CSR._from_keys(keys[keep], val[keep], self.shape)

    def __add__(self, other):
        return self._binop(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, np.subtract)

    def __matmul__(self, other):
        if isinstance(other, CSR):
            return self._matmul_sparse(other)
        return self._matmul_dense(np.asarray(other))

    def _matmul_sparse(self, b):
        """Every product A[i, j] B[j, k] in the order of A's entries and
        then of B's row j, summed from zero per (i, k); exact zeros are
        dropped."""
        if self.shape[1] != b.shape[0]:
            raise ValueError(f"shapes {self.shape} and {b.shape} do not align")
        own, at_b = runs(b.indptr, self.indices)
        keys = self.rows()[own] * b.shape[1] + b.indices[at_b]
        keys, group = np.unique(keys, return_inverse=True)
        val = _sum_products(self.data[own], b.data[at_b], group, keys.size)
        keep = val != 0
        return CSR._from_keys(keys[keep], val[keep], (self.shape[0], b.shape[1]))

    def _matmul_dense(self, y):
        """The product with a vector or with each column of a 2-D array:
        each output entry sums its row's products in storage order,
        starting from zero. A 2-D array is taken a block of columns at a
        time, so that the temporaries hold at most _BLOCK products."""
        if y.ndim not in (1, 2) or y.shape[0] != self.shape[1]:
            raise ValueError(f"cannot multiply {self.shape} by {y.shape}")
        n, rows = self.shape[0], self.rows()
        if y.ndim == 1:
            return _sum_products(self.data, y[self.indices], rows, n)
        out = np.empty((n, y.shape[1]), dtype=np.result_type(self.dtype, y.dtype))
        step = max(1, _BLOCK // max(1, self.nnz))
        for lo in range(0, y.shape[1], step):
            x = y[self.indices, lo:lo + step]
            k = x.shape[1]
            group = (rows[:, None] * k + np.arange(k)).ravel()
            out[:, lo:lo + k] = _sum_products(self.data[:, None], x, group,
                                              n * k).reshape(n, k)
        return out


def _sum_products(a, b, group, size):
    """The sums of the products a * b (broadcast) over each index of
    `group` (one per product, in C order), each summed in array order
    starting from zero. Complex products are formed part by part, as
    (ar br - ai bi, ar bi + ai br)."""
    dtype = np.result_type(a, b)
    if dtype.kind != "c":
        # (an empty bincount comes back as integers)
        return np.bincount(group, (a * b).ravel(), minlength=size).astype(dtype)
    a, b = a.astype(complex, copy=False), b.astype(complex, copy=False)
    out = np.empty(size, dtype=complex)
    out.real = np.bincount(group, (a.real * b.real - a.imag * b.imag).ravel(),
                           minlength=size)
    out.imag = np.bincount(group, (a.real * b.imag + a.imag * b.real).ravel(),
                           minlength=size)
    return out


def as_csr(m, dtype=None):
    """`m` (a CSR, a scipy sparse matrix, or a dense 2-D array-like) as a
    CSR, its data cast to `dtype` when given. scipy input is read through
    `tocoo()`, so its duplicates are summed."""
    if isinstance(m, CSR):
        out = m
    elif hasattr(m, "tocoo"):
        coo = m.tocoo()
        out = CSR.from_triplets(coo.data, coo.row, coo.col, coo.shape)
    else:
        out = CSR.from_dense(np.atleast_2d(np.asarray(m)))
    if dtype is not None and out.dtype != dtype:
        out = CSR(out.data.astype(dtype), out.indices, out.indptr, out.shape)
    return out


def kron(a, b):
    """The Kronecker product, its entries multiplied as scipy's kron
    multiplies them."""
    n, m = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    if not (a.nnz and b.nnz):
        return CSR.zeros((n, m))    # float, as scipy's empty kron
    data = (a.data.repeat(b.nnz).reshape(-1, b.nnz) * b.data).ravel()
    rows = (a.rows()[:, None] * b.shape[0] + b.rows()).ravel()
    cols = (a.indices[:, None] * b.shape[1] + b.indices).ravel()
    # a's row i then b's row k: both sorted by column, so a stable sort by
    # row leaves each row sorted
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return CSR(data[order], cols[order], indptr, (n, m))


def vstack(mats):
    """The matrices stacked by rows."""
    if len({m.shape[1] for m in mats}) != 1:
        raise ValueError("vstack needs matrices with equal column counts")
    offsets = np.cumsum([0] + [m.nnz for m in mats[:-1]])
    indptr = np.concatenate([[0]] + [m.indptr[1:] + o
                                     for m, o in zip(mats, offsets)])
    return CSR(np.concatenate([m.data for m in mats]),
               np.concatenate([m.indices for m in mats]), indptr,
               (sum(m.shape[0] for m in mats), mats[0].shape[1]))


def union_pattern(mats):
    """One complex CSR on the union pattern of the nonzeros of `mats`, and
    each matrix's values on that pattern (0 where it has no entry). A
    combination of the matrices is then a few vector operations written
    into the pattern's `data`, with no sparse-object construction."""
    keys = unique(np.concatenate([m._keys()[m.data != 0] for m in mats]))
    pattern = CSR._from_keys(keys, np.zeros(keys.size, dtype=complex),
                             mats[0].shape)
    rows, cols = pattern.rows(), pattern.indices
    return pattern, [m.at(rows, cols) for m in mats]
