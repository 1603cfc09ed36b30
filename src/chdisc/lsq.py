"""Lockstep trust-region least squares over a stack of starting points.

``least_squares`` runs one unbounded least-squares problem per row of
``x0`` with the trust-region-reflective method (Branch, Coleman & Li, SIAM
J. Sci. Comput. 21, 1999), solving each trust-region subproblem exactly
from one SVD of the Jacobian (Moré, LNM 630, 1978).  The Jacobian is the
forward-difference one.  All rows advance together: each tick makes one
stacked residual call for the trial steps of every live row, and one for
the forward-difference columns of every row that accepted a step, while
each row keeps its own trust radius, Levenberg–Marquardt parameter,
evaluation count and termination status.

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


def _alpha_reset(lower, upper):
    # numpy scalar ** 0.5 is C pow, which can differ from the array sqrt
    roots = np.array([v**0.5 for v in lower * upper], dtype=float)
    return _pick(0.001 * upper, roots)


def _phi(alpha, suf, s, delta):
    denom = s**2 + alpha[:, None]
    p_norm = _norms(suf / denom)
    return p_norm - delta, -np.sum(suf**2 / denom**3, axis=1) / p_norm


def _tr_steps(m, uf, s, v, delta, alpha0):
    """Exact trust-region steps and LM parameters for a stack of problems.

    ``uf`` is U^T f, ``s`` the singular values and ``v`` the right singular
    vectors ``(k, n, min(m, n))`` of each row's Jacobian.
    """
    k, n, _ = v.shape
    suf = s * uf
    full = s[:, -1] > EPS * m * s[:, 0] if m >= n else np.zeros(k, dtype=bool)
    steps, alpha = np.empty((k, n)), np.zeros(k)
    fitted = np.zeros(k, dtype=bool)
    i = np.flatnonzero(full)
    if len(i):
        gauss_newton = -_mv(v[i], uf[i] / s[i])
        fits = _norms(gauss_newton) <= delta[i]
        steps[i[fits]] = gauss_newton[fits]
        fitted[i[fits]] = True
    i = np.flatnonzero(~fitted)
    if not len(i):
        return steps, alpha
    suf_i, s_i, d_i, full_i = suf[i], s[i], delta[i], full[i]
    upper = _norms(suf_i) / d_i
    lower = np.zeros(len(i))
    if full_i.any():
        phi, dphi = _phi(np.zeros(full_i.sum()), suf_i[full_i], s_i[full_i], d_i[full_i])
        lower[full_i] = -phi / dphi
    a = alpha0[i].copy()
    reset = ~full_i & (a == 0)
    a[reset] = _alpha_reset(lower[reset], upper[reset])
    live = np.arange(len(i))
    for _ in range(10):  # scipy's root-finding budget and tolerance (rtol 0.01)
        al, lo, up, d = a[live], lower[live], upper[live], d_i[live]
        out = (al < lo) | (al > up)
        if out.any():
            al[out] = _alpha_reset(lo[out], up[out])
        phi, dphi = _phi(al, suf_i[live], s_i[live], d)
        upper[live] = np.where(phi < 0, al, up)
        ratio = phi / dphi
        lower[live] = _pick(lo, al - ratio)
        a[live] = al - (phi + d) * ratio / d
        live = live[~(np.abs(phi) < 0.01 * d)]
        if not len(live):
            break
    p = -_mv(v[i], suf_i / (s_i**2 + a[:, None]))
    steps[i] = p * (d_i / _norms(p))[:, None]
    alpha[i] = a
    return steps, alpha


def _jacobians_t(fun, x, f):
    """Transposed forward-difference Jacobians ``(k, n, m)`` in one call."""
    k, n = x.shape
    h = _REL_STEP * ((x >= 0).astype(float) * 2 - 1) * np.maximum(1.0, np.abs(x))
    shifted = np.repeat(x[:, None, :], n, axis=1)
    cols = np.arange(n)
    shifted[:, cols, cols] = x + h
    df = fun(shifted.reshape(k * n, n)).reshape(k, n, -1) - f[:, None, :]
    return df / ((x + h) - x)[:, :, None]


def least_squares(fun, x0, *, xtol, ftol, gtol, max_nfev, stop=None):
    """Minimize ``0.5 * ||fun(x)||^2`` from every row of ``x0``, in lockstep.

    ``fun`` maps a ``(k, n)`` stack of points to a ``(k, m)`` stack of
    residuals, one row per point.  A row's result is reported once it and
    every earlier row have finished: ``stop(row, result)`` is called in row
    order, and a true return ends the whole batch, so later rows are never
    reported.  Returns the reported ``LsqResult`` list, in row order.
    """
    x = np.array(x0, dtype=float)
    k, n = x.shape
    if not k:
        return []
    f = np.asarray(fun(x), dtype=float)
    m = f.shape[1]
    jac_t = _jacobians_t(fun, x, f)
    cost = 0.5 * dot_rows(f, f)
    grad = _mv(jac_t, f)
    delta = _norms(x)
    delta[delta == 0] = 1.0
    alpha = np.zeros(k)
    nfev = np.ones(k, dtype=int)
    status = np.full(k, _RUNNING)
    reduction = np.zeros(k)
    r = min(m, n)
    uf, s, v = np.empty((k, r)), np.empty((k, r)), np.empty((k, n, r))
    top = np.ones(k, dtype=bool)
    live = np.ones(k, dtype=bool)
    results = []
    while True:
        # rows at the head of an outer iteration: the gtol and budget checks
        t = np.flatnonzero(top)
        status[t[np.abs(grad[t]).max(axis=1) < gtol]] = 1
        ended = t[(status[t] != _RUNNING) | (nfev[t] == max_nfev)]
        live[ended] = False
        while len(results) < k and not live[len(results)]:
            row = len(results)
            results.append(LsqResult(x[row].copy(), f[row].copy(), int(nfev[row]),
                                     max(int(status[row]), 0)))
            if stop is not None and stop(row, results[-1]):
                return results
        if len(results) == k:
            return results
        # the rows that go on take one SVD of their new Jacobian
        t = t[live[t]]
        if len(t):
            u_t, s[t], vt = np.linalg.svd(jac_t[t].swapaxes(-1, -2), full_matrices=False)
            uf[t] = _mv(_transposed(u_t), f[t])
            v[t] = _transposed(vt)
            reduction[t] = -1.0
        # one trial step for every live row, in one residual call
        i = np.flatnonzero(live)
        step, alpha[i] = _tr_steps(m, uf[i], s[i], v[i], delta[i], alpha[i])
        js = _mv(jac_t[i].swapaxes(-1, -2), step)
        predicted = -(0.5 * dot_rows(js, js) + dot_rows(step, grad[i]))
        x_new = x[i] + step
        f_new = np.asarray(fun(x_new), dtype=float)
        nfev[i] += 1
        step_norm = _norms(step)
        finite = np.isfinite(f_new).all(axis=1)
        cost_new = 0.5 * dot_rows(f_new, f_new)
        with np.errstate(divide="ignore", invalid="ignore"):
            red = cost[i] - cost_new
            ratio = np.where(predicted > 0, red / predicted,
                             np.where((predicted == 0) & (red == 0), 1.0, 0.0))
        # the radius update and termination test; a non-finite trial only
        # shrinks the radius
        d = delta[i]
        d_new = np.where(ratio < 0.25, 0.25 * step_norm,
                         np.where((ratio > 0.75) & (step_norm > 0.95 * d), d * 2.0, d))
        ftol_ok = (red < ftol * cost[i]) & (ratio > 0.25)
        xtol_ok = step_norm < xtol * (xtol + _norms(x[i]))
        term = np.where(ftol_ok & xtol_ok, 4, np.where(ftol_ok, 2, np.where(xtol_ok, 3, _RUNNING)))
        term[~finite] = _RUNNING
        status[i] = term
        going = finite & (term == _RUNNING)
        alpha[i[going]] *= d[going] / d_new[going]
        delta[i] = np.where(going, d_new, np.where(finite, d, 0.25 * step_norm))
        reduction[i[finite]] = red[finite]
        # a row retries from the same Jacobian until a step reduces the cost
        retry = (reduction[i] <= 0) & (term == _RUNNING) & (nfev[i] < max_nfev)
        top[:] = False
        top[i[~retry]] = True
        accept = ~retry & (reduction[i] > 0)
        a = i[accept]
        if len(a):
            x[a], f[a], cost[a] = x_new[accept], f_new[accept], cost_new[accept]
            jac_t[a] = _jacobians_t(fun, x[a], f[a])
            grad[a] = _mv(jac_t[a], f[a])
