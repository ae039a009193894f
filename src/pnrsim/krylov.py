"""Exact Krylov reduction of a linear ODE, and the dense products that
stay on the calling thread.

`krylov_reduction` finds the smallest subspace that holds a start vector
and that each of a few CSR blocks maps into itself: the reachable part of
Kalman's decomposition (J. SIAM Control A 1, 152 (1963)), found by
Krylov projection (Antoulas, Approximation of Large-Scale Dynamical
Systems, SIAM 2005). An ODE y' = sum_k c_k(t) a_k y then moves in that
subspace for any coefficients c_k, so it can be solved on the projected
blocks Q^dag a_k Q and lifted back with Q exactly, not as a truncation.
For one matrix the search is Arnoldi's process, and stopped at a size it
gives the Arnoldi basis and, as Q^dag a Q, the Hessenberg matrix whose
eigenvalues are the Ritz values of the hierarchy's stiffness estimate.

OpenBLAS (0.3.31, as numpy ships it) runs a complex matrix-vector product
of SERIAL_GEMV entries or more on its thread pool, and a complex matrix
product of more than SERIAL_GEMM multiply-adds (m n k: 65,536 stayed on
one thread, 87,240 did not). On a 2-vCPU host a threaded call cost 8-24
ms where the serial one took 12-37 us, so the dense products of a solve
are cut into row blocks below these sizes (`serial_matmul`).
"""

from __future__ import annotations

import math

import numpy as np

SERIAL_GEMV = 4096
SERIAL_GEMM = 65536
# A direction is kept when its residual exceeds BASIS_TOL times the norm
# bound of its block. At 1e-10 the stiff symmetric sweep points dropped
# directions of residual 1e-11 relative; the PNR ranks are the same from
# 1e-10 to 1e-12
BASIS_TOL = 1e-12


def serial_matmul(a, b):
    """a @ b for a dense 2-D `a`, in row blocks of `a` small enough that
    OpenBLAS runs each product on the calling thread: fewer than
    SERIAL_GEMV entries of `a` for a vector or one-column `b`, at most
    SERIAL_GEMM multiply-adds otherwise. Each block is written straight
    into the result."""
    cols = 1 if b.ndim == 1 else b.shape[1]
    limit = SERIAL_GEMV - 1 if cols == 1 else SERIAL_GEMM
    rows = max(1, limit // max(1, a.shape[1] * cols))
    if rows >= a.shape[0]:
        return a @ b
    out = np.empty(a.shape[:1] + b.shape[1:], dtype=np.result_type(a, b))
    for i in range(0, a.shape[0], rows):
        np.matmul(a[i:i + rows], b, out=out[i:i + rows])
    return out


def serial_inner(q, w):
    """q^dag w for dense 2-D q (n x r) and w (n x k), summed over row
    blocks of n each within the sizes of `serial_matmul`."""
    r, k = q.shape[1], w.shape[1]
    limit = SERIAL_GEMV - 1 if min(r, k) == 1 else SERIAL_GEMM
    rows = max(1, limit // max(1, r * k))
    out = np.zeros((r, k), dtype=complex)
    for i in range(0, q.shape[0], rows):
        out += q[i:i + rows].conj().T @ w[i:i + rows]
    return out


def serial_matvec(a):
    """y -> a @ y for a dense `a`: one product below SERIAL_GEMV entries,
    row blocks by `serial_matmul` above."""
    if a.size < SERIAL_GEMV:
        return a.dot
    return lambda y: serial_matmul(a, y)


def _norm_bound(m):
    """sqrt(|m|_1 |m|_inf) of a CSR matrix, a bound on its 2-norm."""
    a = np.abs(m.data)
    rows = np.bincount(m.rows(), a, m.shape[0]).max(initial=0.0)
    cols = np.bincount(m.indices, a, m.shape[1]).max(initial=0.0)
    return math.sqrt(rows * cols)


def krylov_reduction(mats, y0, max_size, partial=False):
    """The reduction of y' = sum_k c_k(t) mats[k] y from y0 (`mats` CSR,
    None entries skipped): (Q, projected, z0) with Q (len(y0) x r) an
    orthonormal basis of the smallest subspace that holds y0 and that
    every matrix maps into itself, `projected` the dense Q^dag m Q in the
    order of `mats` (None where the matrix is None) and z0 = Q^dag y0.
    When r would pass max_size: None, with no projection formed, or, if
    `partial`, the same triple on the max_size directions found so far,
    whose span is then not invariant.

    The basis grows breadth first, as a block Arnoldi: each level applies
    every matrix to the directions the last level found (CSR products,
    one per matrix and direction, kept for the projected blocks),
    orthogonalises the products twice against the basis as one block,
    then each in turn twice against the level's new directions, and keeps
    those whose residual exceeds BASIS_TOL times `_norm_bound` of their
    matrix. Depth first, rounding piles up: 332 directions instead of 81
    on a 582-component PNR hierarchy. The dense products are
    `serial_matmul` and `serial_inner` blocks; no len(y0) x len(y0) array
    is formed."""
    blocks = [m for m in mats if m is not None]
    n = y0.size
    if max_size < 1:
        return None
    floors = [BASIS_TOL * _norm_bound(m) for m in blocks]
    q = np.empty((n, max_size), dtype=complex, order="F")
    prods = [np.empty((n, max_size), dtype=complex, order="F") for _ in blocks]
    y0_norm = np.linalg.norm(y0)
    q[:, 0] = y0 / y0_norm
    lo, r = 0, 1

    def project_out(v, lo):
        return v - serial_matmul(q[:, lo:r], serial_inner(q[:, lo:r], v))
    while lo < r:
        for m, prod in zip(blocks, prods):
            prod[:, lo:r] = m @ q[:, lo:r]
        w = np.hstack([prod[:, lo:r] for prod in prods])
        floor = np.repeat(floors, r - lo)
        size = np.linalg.norm(w, axis=0)
        w = project_out(project_out(w, 0), 0)
        lo = r
        for j in np.flatnonzero(np.linalg.norm(w, axis=0) > floor):
            v = w[:, j:j + 1]
            if r > lo:
                v = project_out(project_out(v, lo), lo)
            h = np.linalg.norm(v)
            if h <= floor[j]:
                continue
            if r == max_size:
                if not partial:
                    return None
                break   # one more level forms the last products, keeps none
            v /= h
            if h < 1e-4 * size[j]:
                # more than four digits cancelled: once more against the
                # whole basis, or rounding shows as lost orthogonality
                v = project_out(v, 0)
                v /= np.linalg.norm(v)
            q[:, r] = v[:, 0]
            r += 1
    q = q[:, :r]
    projected = iter([serial_inner(q, prod[:, :r]) for prod in prods])
    z0 = np.zeros(r, dtype=complex)
    z0[0] = y0_norm
    return q, tuple(None if m is None else next(projected) for m in mats), z0
