"""Lockstep trust-region least squares over a stack of starting points.

``least_squares`` runs one unbounded least-squares problem per row of
``x0`` with the trust-region-reflective method (Branch, Coleman & Li, SIAM
J. Sci. Comput. 21, 1999), solving each trust-region subproblem exactly
from one SVD of the Jacobian (Moré, LNM 630, 1978).  The Jacobian is the
forward-difference one.  All rows advance together, and each tick makes
exactly one stacked residual call: it evaluates every running row's trial
point together with the n forward-difference points around it.  A row
that accepts its step takes its new Jacobian from that call; a row that
rejects it discards those points.  The first call evaluates the starts
and their forward-difference points the same way.  Each row keeps its own
trust radius, Levenberg–Marquardt parameter, evaluation count and
termination status, and a row that finishes leaves the state arrays.
A row's residual bits must not depend on which rows share its call.

Per row this is scipy 1.17's ``least_squares(method='trf',
tr_solver='exact', x_scale=1, loss='linear', jac='2-point')`` step for
step, and it reproduces that solver's x, residuals, ``nfev`` and status
bit for bit: every reduction runs through the same BLAS dot and gemv
kernels with the same memory layouts, the stacked SVD is LAPACK's gesdd
per row, and the rare alpha reset takes its square root with the scalar
power the reference uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import dot_rows

EPS = np.finfo(float).eps
_REL_STEP = EPS**0.5  # forward-difference step relative to max(1, |x|)
_RUNNING = -1


@dataclass(frozen=True)
class LsqResult:
    """One row's solution: status 0 (``max_nfev`` reached), 1 (gtol),
    2 (ftol), 3 (xtol) or 4 (ftol and xtol), as scipy numbers them."""

    x: np.ndarray
    fun: np.ndarray
    nfev: int
    status: int


def _norms(x):
    return np.sqrt(dot_rows(x, x))


def _mv(a, x):
    return np.matmul(a, x[..., None])[..., 0]


def _transposed(a):
    return np.ascontiguousarray(a.swapaxes(-1, -2))


def _pick(first, second):
    # Python's max(first, second): the first unless the second is larger
    return np.where(second > first, second, first)


def _rows(mask):
    # an index selecting the rows of ``mask``: a plain slice, so no copy,
    # when that is every row
    return slice(None) if mask.all() else mask


def _alpha_reset(lower, upper):
    # numpy scalar ** 0.5 is C pow, which can differ from the array sqrt
    roots = np.array([v**0.5 for v in lower * upper], dtype=float)
    return _pick(0.001 * upper, roots)


def _phi(alpha, suf, s2, suf2, delta):
    denom = s2 + alpha[:, None]
    p_norm = _norms(suf / denom)
    return p_norm - delta, -np.add.reduce(suf2 / denom**3, axis=1) / p_norm


def _tr_steps(m, uf, s, v, delta, alpha0):
    """Exact trust-region steps and LM parameters for a stack of problems.

    ``uf`` is U^T f, ``s`` the singular values and ``v`` the right singular
    vectors ``(k, n, min(m, n))`` of each row's Jacobian.
    """
    k, n, _ = v.shape
    suf = s * uf
    full = s[:, -1] > EPS * m * s[:, 0] if m >= n else np.zeros(k, dtype=bool)
    steps, alpha = np.empty((k, n)), np.zeros(k)
    j = _rows(full)
    gauss_newton = -_mv(v[j], uf[j] / s[j])
    fits = _norms(gauss_newton) <= delta[j]
    fitted = np.zeros(k, dtype=bool)
    fitted[j] = fits
    steps[fitted] = gauss_newton[fits]
    i = np.flatnonzero(~fitted)
    if not len(i):
        return steps, alpha
    suf, s, d, full = suf[i], s[i], delta[i], full[i]
    s2, suf2, phi_tol = s**2, suf**2, 0.01 * d
    upper = _norms(suf) / d
    lower = np.zeros(len(i))
    if full.any():
        j = _rows(full)
        phi, dphi = _phi(np.zeros(np.count_nonzero(full)), suf[j], s2[j], suf2[j], d[j])
        lower[j] = -phi / dphi
    a = alpha0[i]
    reset = ~full & (a == 0)
    if reset.any():
        a[reset] = _alpha_reset(lower[reset], upper[reset])
    # Newton's method on phi, row by row under a mask.  A row that has
    # converged keeps its alpha and is evaluated again at its last point,
    # so it repeats its own arithmetic; its bounds are no longer read.
    live = np.ones(len(i), dtype=bool)
    at = a
    for _ in range(10):  # scipy's root-finding budget and tolerance (rtol 0.01)
        out = (a < lower) | (a > upper)
        out &= live
        if out.any():
            a[out] = _alpha_reset(lower[out], upper[out])
        at = np.where(live, a, at)
        phi, dphi = _phi(at, suf, s2, suf2, d)
        upper = np.where(phi < 0, at, upper)
        ratio = phi / dphi
        lower = _pick(lower, at - ratio)
        a = np.where(live, at - (phi + d) * ratio / d, a)
        live &= ~(np.abs(phi) < phi_tol)
        if not live.any():
            break
    p = -_mv(v[i], suf / (s2 + a[:, None]))
    steps[i] = p * (d / _norms(p))[:, None]
    alpha[i] = a
    return steps, alpha


def _with_columns(fun, x):
    """``fun`` at every row of ``x`` and at its forward-difference points.

    One residual call on the ``k * (1 + n)`` points: the rows of ``x``
    first, then each row's n points shifted by ``h`` in one coordinate.
    Returns the ``(k, m)`` residuals at ``x``, the ``(k, n, m)`` residuals at
    the shifted points and the ``(k, n)`` divisors ``(x + h) - x``.
    """
    k, n = x.shape
    h = _REL_STEP * ((x >= 0).astype(float) * 2 - 1) * np.maximum(1.0, np.abs(x))
    x_h = x + h
    shifted = np.repeat(x[:, None, :], n, axis=1)
    cols = np.arange(n)
    shifted[:, cols, cols] = x_h
    out = np.asarray(fun(np.concatenate([x, shifted.reshape(k * n, n)])), dtype=float)
    return out[:k], out[k:].reshape(k, n, -1), x_h - x


def _jacobians_t(f, f_shifted, dx):
    """Transposed forward-difference Jacobians ``(k, n, m)``."""
    return (f_shifted - f[:, None, :]) / dx[:, :, None]


def least_squares(fun, x0, *, xtol, ftol, gtol, max_nfev):
    """Minimize ``0.5 * ||fun(x)||^2`` from every row of ``x0``, in lockstep.

    ``fun`` maps a ``(k, n)`` stack of points to a ``(k, m)`` stack of
    residuals, one row per point.  Each call of ``fun`` evaluates ``1 + n``
    points per running row, and a batch makes at most ``max_nfev`` calls.
    A generator: it yields each row's ``LsqResult`` in row order, once that
    row and every earlier row have finished.  A caller that stops asking
    for rows ends the batch, so no later row costs another residual call.
    Raises ``ValueError``, as scipy does, if a start's residuals are not
    finite.
    """
    x = np.array(x0, dtype=float)
    k, n = x.shape
    if not k:
        return
    f, f_shifted, dx = _with_columns(fun, x)
    if not np.isfinite(f).all():
        raise ValueError("residuals are not finite at a starting point")
    m = f.shape[1]
    r = min(m, n)
    # the state of the running rows, one entry per row; a row that finishes
    # leaves every array, and ``rows`` maps entries back to rows of x0
    rows = np.arange(k)
    jac_t = _jacobians_t(f, f_shifted, dx)
    cost = 0.5 * dot_rows(f, f)
    grad = _mv(jac_t, f)
    delta = _norms(x)
    delta[delta == 0] = 1.0
    alpha = np.zeros(k)
    nfev = np.ones(k, dtype=int)
    status = np.full(k, _RUNNING)
    reduction = np.zeros(k)
    uf, s, v = np.empty((k, r)), np.empty((k, r)), np.empty((k, n, r))
    top = np.ones(k, dtype=bool)
    finished, reported = {}, 0
    while True:
        # rows at the head of an outer iteration: the gtol and budget checks
        status[top & (np.abs(grad).max(axis=1) < gtol)] = 1
        ended = top & ((status != _RUNNING) | (nfev == max_nfev))
        if ended.any():
            for j in np.flatnonzero(ended):
                finished[int(rows[j])] = LsqResult(x[j].copy(), f[j].copy(), int(nfev[j]),
                                                   max(int(status[j]), 0))
            going = ~ended
            (rows, x, f, jac_t, cost, grad, delta, alpha, nfev, status, reduction, uf, s, v,
             top) = (state[going] for state in (rows, x, f, jac_t, cost, grad, delta, alpha, nfev,
                                                 status, reduction, uf, s, v, top))
            while reported in finished:
                yield finished.pop(reported)
                reported += 1
            if not len(rows):
                return
        # the rows that go on take one SVD of their new Jacobian
        t = np.flatnonzero(top)
        if len(t):
            u_t, s[t], vt = np.linalg.svd(jac_t[t].swapaxes(-1, -2), full_matrices=False)
            uf[t] = _mv(_transposed(u_t), f[t])
            v[t] = vt.swapaxes(-1, -2)
            reduction[t] = -1.0
        # one trial step for every row, and the forward-difference points
        # around it, in one residual call
        step, alpha = _tr_steps(m, uf, s, v, delta, alpha)
        js = _mv(jac_t.swapaxes(-1, -2), step)
        predicted = -(0.5 * dot_rows(js, js) + dot_rows(step, grad))
        x_new = x + step
        f_new, f_shifted, dx = _with_columns(fun, x_new)
        nfev += 1
        step_norm = _norms(step)
        finite = np.isfinite(f_new).all(axis=1)
        cost_new = 0.5 * dot_rows(f_new, f_new)
        red = cost - cost_new
        ratio = np.zeros_like(red)
        np.divide(red, predicted, out=ratio, where=predicted > 0)
        ratio[(predicted == 0) & (red == 0)] = 1.0
        # the radius update and termination test; a non-finite trial only
        # shrinks the radius
        d_new = np.where(ratio < 0.25, 0.25 * step_norm,
                         np.where((ratio > 0.75) & (step_norm > 0.95 * delta), delta * 2.0, delta))
        ftol_ok = (red < ftol * cost) & (ratio > 0.25)
        xtol_ok = step_norm < xtol * (xtol + _norms(x))
        status = np.where(ftol_ok & xtol_ok, 4, np.where(ftol_ok, 2, np.where(xtol_ok, 3, _RUNNING)))
        status[~finite] = _RUNNING
        going = finite & (status == _RUNNING)
        alpha[going] *= delta[going] / d_new[going]
        delta = np.where(going, d_new, np.where(finite, delta, 0.25 * step_norm))
        reduction[finite] = red[finite]
        # a row retries from the same Jacobian until a step reduces the cost
        top = ~((reduction <= 0) & (status == _RUNNING) & (nfev < max_nfev))
        a = np.flatnonzero(top & (reduction > 0))
        if len(a):
            x[a], f[a], cost[a] = x_new[a], f_new[a], cost_new[a]
            # only accepted rows have finite residuals to difference against
            jac_t[a] = _jacobians_t(f[a], f_shifted[a], dx[a])
            grad[a] = _mv(jac_t[a], f[a])
