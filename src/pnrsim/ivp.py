"""In-package initial-value solvers for the hierarchy ODE.

`rk45` is the Dormand-Prince 5(4) pair and `bdf` the variable-order NDF
of Shampine & Reichelt (SIAM J. Sci. Comput. 18, 1 (1997)); each follows
scipy.integrate's RK45 or BDF step for step, so that states and counts
are the same, without loading scipy.integrate.
Both integrate one segment [t0, t1] from y, write their dense output at
the requested times straight into the caller's rows, and return the
dense-output state at t1, which starts the next segment. Their error and
Newton norms are taken of `lift` of each vector, a linear map to the
coordinates the tolerances refer to (the identity by default), so that a
solve in projected coordinates z takes the steps of the solve of Q z.
Their sums over stages or differences (n x at most 7 by a vector or a
few columns) are np.dot calls while 7 n < SERIAL_GEMV; above, where
OpenBLAS threads them at twice the CPU and with bits that depend on the
thread count, they run in `krylov.serial_matmul`'s row blocks.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError
from .krylov import SERIAL_GEMV, serial_matmul

# Dormand-Prince 5(4): nodes, stage weights, 5th-order weights, the error
# row (5th minus embedded 4th order, on the 7 stages including the FSAL
# one) and the quartic dense-output matrix (Dormand & Prince, J. Comput.
# Appl. Math. 6, 19 (1980); Shampine, Math. Comp. 46, 135 (1986)).
_DP_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
                  1/40])
_DP_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])


def _rms(x):
    """The RMS norm solve_ivp uses, np.linalg.norm(x) / sqrt(x.size), with
    the same sums as np.linalg.norm on a 1-D array but without its wrapper,
    which costs more than the sums at the hierarchy's sizes."""
    if x.dtype.kind == "c":
        r, i = x.real, x.imag
        return math.sqrt(r.dot(r) + i.dot(i)) / x.size ** 0.5
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _identity(x):
    return x


def _with_end(t_eval, t1):
    """`t_eval` with t1 appended unless it already ends there: the
    integrators evaluate the segment end, which starts the next segment,
    whether or not it was requested."""
    if t_eval.size and t_eval[-1] == t1:
        return t_eval
    return np.append(t_eval, t1)


def _initial_step(rhs, t, y, f, t1, max_step, order, rtol, atol, lift):
    """Starting step of Hairer, Norsett & Wanner (Solving ODEs I, II.4) for
    a method whose error estimate is of order `order`, as solve_ivp's
    select_initial_step: an Euler probe at h0 (one rhs call) sizes the
    second derivative, and the step is capped at 100 h0, the span and
    max_step."""
    span = t1 - t
    y_lift = lift(y)
    scale = atol + np.abs(y_lift) * rtol
    d0, d1 = _rms(y_lift / scale), _rms(lift(f) / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = _rms(lift(rhs(t + h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (order + 1))
    return min(100 * h0, h1, span, max_step)


def _too_small(method, t0, t1, t):
    return NumericsError(f"{method} integration on [{t0:.6g}, {t1:.6g}] "
                         f"failed: the step fell below 10 ulp of t = {t:.6g}")


def rk45(rhs, y, t0, t1, t_eval, out, rtol, atol, max_step, lift=_identity):
    """Dormand-Prince 5(4) on [t0, t1] from y, with solve_ivp's RK45
    step by step, so that states and nfev are the same: the starting step
    of `_initial_step`, local extrapolation, the RMS norm of the error
    scaled by atol + rtol max(|y|, |y_new|), step factors 0.9 err^(-1/5)
    clipped to [0.2, 10] with no growth right after a rejection, and the
    quartic dense output onto `t_eval` (sorted, inside the span), written
    into the rows of `out`. Returns the dense-output state at t1 and the
    counts nfev, njev, nlu (both 0) and rejected (steps that failed the
    error test); a step below 10 ulp of t is a NumericsError."""
    rtol = max(rtol, 100 * np.finfo(float).eps)
    t_eval = _with_end(t_eval, t1)
    t, f = t0, rhs(t0, y)
    h_abs = _initial_step(rhs, t, y, f, t1, max_step, 4, rtol, atol, lift)
    nfev, n_rejected, done = 2, 0, 0
    K = np.empty((7, y.size), dtype=complex)
    dot = np.dot if 7 * y.size < SERIAL_GEMV else serial_matmul
    y_lift = lift(y)
    while t < t1:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max_step if h_abs > max_step else max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise _too_small("RK45", t0, t1, t)
            t_new = min(t + h_abs, t1)
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s in range(1, 6):
                K[s] = rhs(t + _DP_C[s] * h,
                           y + dot(K[:s].T, _DP_A[s, :s]) * h)
            y_new = y + h * dot(K[:-1].T, _DP_B)
            K[6] = f_new = rhs(t + h, y_new)
            nfev += 6
            new_lift = lift(y_new)
            scale = atol + np.maximum(np.abs(y_lift), np.abs(new_lift)) * rtol
            err = _rms(lift(dot(K.T, _DP_E)) * h / scale)
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
            n_rejected += 1
        t_old, y_old, t, y, f = t, y, t_new, y_new, f_new
        y_lift = new_lift
        stop = t_eval.searchsorted(t, side="right")
        if stop > done:
            x = (t_eval[done:stop] - t_old) / (t - t_old)
            p = np.cumprod(np.tile(x, (4, 1)), axis=0)
            dense = (t - t_old) * dot(dot(K.T, _DP_P), p) + y_old[:, None]
            out[done:stop] = dense.T[:len(out) - done]
            done = stop
    return dense[:, -1], dict(nfev=nfev, njev=0, nlu=0, rejected=n_rejected)


# The NDF family of Shampine & Reichelt (SIAM J. Sci. Comput. 18, 1 (1997)),
# orders 1-5, with the kappa constants of their Table 1 (order 5 is plain
# BDF): gamma_k = sum 1/j, alpha_k = (1 - kappa_k) gamma_k, and the error
# constants kappa_k gamma_k + 1/(k+1) of the difference-form estimate.
_NDF_KAPPA = np.array([0, -0.1850, -1/9, -0.0823, -0.0415, 0])
_NDF_GAMMA = np.hstack((0, np.cumsum(1 / np.arange(1, 6))))
_NDF_ALPHA = (1 - _NDF_KAPPA) * _NDF_GAMMA
_NDF_ERROR = _NDF_KAPPA * _NDF_GAMMA + 1 / np.arange(1, 7)
_NEWTON_MAXITER = 4


def _change_D(D, order, factor):
    """Rescale the backward differences D[:order+1] in place from step h
    to factor h (Shampine & Reichelt, section 2.3)."""
    def r(f):
        i = np.arange(1, order + 1)[:, None]
        m = np.zeros((order + 1, order + 1))
        m[1:, 1:] = (i - 1 - f * np.arange(1, order + 1)) / i
        m[0] = 1
        return np.cumprod(m, axis=0)
    D[:order + 1] = np.dot(r(factor).dot(r(1)).T, D[:order + 1])


def _newton(rhs, t, y_predict, c, psi, solve, scale, tol, lift):
    """Simplified Newton iteration for y = y_predict + d with
    (I - c J) dy = c f(t, y) - psi - d, at most _NEWTON_MAXITER times,
    stopped when the contraction rate predicts a miss of `tol`. Returns
    whether it converged, the number of rhs calls, y and d."""
    d, y, dy_norm_old = 0, y_predict.copy(), None
    for k in range(_NEWTON_MAXITER):
        f = rhs(t, y)
        if not np.isfinite(f).all():
            break
        dy = solve(c * f - psi - d)
        dy_norm = _rms(lift(dy) / scale)
        rate = None if dy_norm_old is None else dy_norm / dy_norm_old
        if rate is not None and (rate >= 1 or rate ** (_NEWTON_MAXITER - k)
                                 / (1 - rate) * dy_norm > tol):
            break
        y += dy
        d += dy
        if dy_norm == 0 or rate is not None and rate / (1 - rate) * dy_norm < tol:
            return True, k + 1, y, d
        dy_norm_old = dy_norm
    return False, k + 1, y, d


def bdf(rhs, jac, factorize, y, t0, t1, t_eval, out, rtol, atol, max_step,
        lift=_identity):
    """Variable-order NDF on [t0, t1] from y, with solve_ivp's BDF step by
    step, so that states, nfev, njev and nlu are the same: orders 1-5 in
    backward-difference form D, the starting step of `_initial_step` for
    error order 1, D rescaled on every step change (`_change_D`), at most
    4 Newton iterations on `factorize(J, c)`, the solve of I - c J with
    J = `jac(t, y)` (for the hierarchy a dense inverse or splu factors,
    see `hierarchy._newton_algebra`), J refreshed once per step when
    Newton fails before the step is halved, the error test with safety
    0.9 (2 N + 1) / (2 N + n_iter), factors in [0.2, 10] and an order
    change after order + 1 equal steps, and dense output onto `t_eval`
    from the D, order and step after that update, written into the rows of
    `out`. Returns the dense-output state at t1 and the counts nfev, njev,
    nlu and rejected (steps that failed the error test or were halved after
    Newton failed); a step below 10 ulp of t is a NumericsError."""
    eps = np.finfo(float).eps
    t_eval = _with_end(t_eval, t1)
    rtol = max(rtol, 100 * eps)
    newton_tol = max(10 * eps / rtol, min(0.03, rtol ** 0.5))
    t, f = t0, rhs(t0, y)
    h_abs = _initial_step(rhs, t, y, f, t1, max_step, 1, rtol, atol, lift)
    J = jac(t, y)
    D = np.empty((8, y.size), dtype=complex)
    dot = np.dot if 7 * y.size < SERIAL_GEMV else serial_matmul
    D[0], D[1] = y, f * h_abs
    order, n_equal, solve = 1, 0, None
    nfev, njev, nlu, n_rejected, done = 2, 1, 0, 0, 0
    while t < t1:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs > max_step or h_abs < min_step:
            bound = max_step if h_abs > max_step else min_step
            _change_D(D, order, bound / h_abs)
            h_abs, n_equal = bound, 0
        fresh_jac = False
        while True:
            if h_abs < min_step:
                raise _too_small("BDF", t0, t1, t)
            t_new = t + h_abs
            if t_new > t1:
                t_new = t1
                _change_D(D, order, np.abs(t_new - t) / h_abs)
                n_equal, solve = 0, None
            h = t_new - t
            h_abs = np.abs(h)
            y_predict = np.sum(D[:order + 1], axis=0)
            scale = atol + rtol * np.abs(lift(y_predict))
            alpha = _NDF_ALPHA[order]
            psi = dot(D[1:order + 1].T, _NDF_GAMMA[1:order + 1]) / alpha
            c = h / alpha
            while True:
                if solve is None:
                    solve = factorize(J, c)
                    nlu += 1
                converged, n_iter, y_new, d = _newton(
                    rhs, t_new, y_predict, c, psi, solve, scale, newton_tol,
                    lift)
                nfev += n_iter
                if converged or fresh_jac:
                    break
                J, solve, fresh_jac = jac(t_new, y_predict), None, True
                njev += 1
            if converged:
                safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER
                                                           + n_iter)
                scale = atol + rtol * np.abs(lift(y_new))
                error_norm = _rms(_NDF_ERROR[order] * lift(d) / scale)
                if not error_norm > 1:      # NaN passes, as in solve_ivp
                    break
                factor = max(0.2, safety * error_norm ** (-1 / (order + 1)))
            else:
                factor = 0.5
                solve = None
            h_abs *= factor
            _change_D(D, order, factor)
            n_equal = 0
            n_rejected += 1
        n_equal += 1
        t = t_new
        # D becomes the differences of the new step: d is its (order+1)-th
        D[order + 2] = d - D[order + 1]
        D[order + 1] = d
        for i in reversed(range(order + 1)):
            D[i] += D[i + 1]
        if n_equal >= order + 1:
            # order and step from the error estimates at order - 1, order
            # and order + 1
            down = up = np.inf
            if order > 1:
                down = _rms(_NDF_ERROR[order - 1] * lift(D[order]) / scale)
            if order < 5:
                up = _rms(_NDF_ERROR[order + 1] * lift(D[order + 2]) / scale)
            norms = np.array([down, error_norm, up])
            with np.errstate(divide="ignore"):
                factors = norms ** (-1 / np.arange(order, order + 3))
            order += int(np.argmax(factors)) - 1
            factor = min(10, safety * np.max(factors))
            h_abs *= factor
            _change_D(D, order, factor)
            n_equal, solve = 0, None
        stop = t_eval.searchsorted(t, side="right")
        if stop > done:
            k = np.arange(order)
            x = ((t_eval[done:stop] - (t - h_abs * k)[:, None])
                 / (h_abs * (1 + k))[:, None])
            dense = (dot(D[1:order + 1].T, np.cumprod(x, axis=0))
                     + D[0, :, None])
            out[done:stop] = dense.T[:len(out) - done]
            done = stop
    return dense[:, -1], dict(nfev=nfev, njev=njev, nlu=nlu,
                              rejected=n_rejected)
