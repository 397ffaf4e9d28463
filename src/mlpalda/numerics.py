"""Dirichlet expectations and the damped Newton solver used by the trainer.

psi and psi' come from ``scipy.special``: ``psi`` and ``zeta(2, .)``, which is
what ``polygamma(1, .)`` evaluates, minus the ``psi`` call it throws away.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln, psi, zeta

NEWTON_FLOOR = 1e-10
NEWTON_MAX_HALVINGS = 30
# A row stops once its Newton step promises a gain of at most this many
# rounding units of its objective: the exact ``f1 >= f0`` test cannot tell
# such a gain from noise, so further steps only halve down to nothing.
NEWTON_GAIN_ULPS = 8


def dirichlet_expected_log(gamma, out=None):
    """E[log theta] under Dirichlet(gamma): psi(gamma) - psi(sum gamma).

    Works on batched concentration arrays; the simplex axis is the last.
    The result is written into ``out`` when one is given.
    """
    arr = np.asarray(gamma, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("dirichlet_expected_log: empty input")
    if arr.min() > 0.0:  # NaN fails too
        with np.errstate(over="ignore"):  # an overflowing sum is refused below, not warned of
            total = np.sum(arr, axis=-1, keepdims=True)
        # with every entry > 0, a row sum is finite exactly when the row's
        # entries are (finite entries whose sum overflows are refused too)
        if total.max() < np.inf:
            out = psi(arr, out=out)
            out -= psi(total, out=total)
            return out
    raise ValueError("dirichlet_expected_log: argument must be finite and > 0")


# ---------------------------------------------------------------------------
# Damped Newton update for Dirichlet concentration vectors.
#
# The objective for one concentration vector a with aggregated mean-log
# statistics S (one entry per component) over `scale` observations is
#
#   f(a) = scale * (lgamma(sum a) - sum lgamma(a_r)) + sum (a_r - 1) S_r
#
# Its Hessian is diag(h) + z 11^T with h_r = -scale*psi'(a_r) and
# z = scale*psi'(sum a), so the Newton direction has the closed form
# -(g - c)/h with c = (sum g_r/h_r) / (1/z + sum 1/h_r).
#
# Every function below works on rows along the last axis, and a row's
# result never depends on the other rows: a batch of rows gives, bit for
# bit, what each row gives alone.
# ---------------------------------------------------------------------------


def dirichlet_log_normalizer(conc):
    """lgamma(sum a) - sum lgamma(a_r) for every row of ``conc``."""
    conc = np.asarray(conc, dtype=np.float64)
    return gammaln(conc.sum(-1)) - gammaln(conc).sum(-1)


def dirichlet_objective(conc, stats, scale):
    """f(a) for every row of ``conc`` (a scalar for one vector)."""
    conc = np.asarray(conc, dtype=np.float64)
    return scale * dirichlet_log_normalizer(conc) + ((conc - 1.0) * stats).sum(-1)


def dirichlet_gradient(conc, stats, scale):
    conc = np.asarray(conc, dtype=np.float64)
    return scale * (psi(conc.sum(-1, keepdims=True)) - psi(conc)) + stats


def _line_search(conc, direction, stats, scale, f0):
    """Halve each row's step until it stays above the floor and f does not fall.

    Returns the new rows and the indices of the rows for which no step down
    to 2**-NEWTON_MAX_HALVINGS qualified; those rows keep their input.
    """
    new = conc.copy()
    pending = np.arange(len(conc))
    step = 1.0
    for _ in range(NEWTON_MAX_HALVINGS + 1):
        cand = conc[pending] + step * direction[pending]
        ok = np.all(cand > NEWTON_FLOOR, axis=-1)
        f1 = dirichlet_objective(cand[ok], stats[pending[ok]], scale)
        ok[ok] = np.isfinite(f1) & (f1 >= f0[pending[ok]])
        new[pending[ok]] = cand[ok]
        pending = pending[~ok]
        if pending.size == 0:
            break
        step *= 0.5
    return new, pending


def _newton_rows(conc, stats, scale, tol):
    """One damped Newton step on every (R, N) row whose residual is >= ``tol``.

    Returns ``(new, residual, stalled, flat)``: ``residual`` is max |g_r - c|
    at the input (|g| on one-entry rows); a row below ``tol`` is returned as
    it is; ``stalled`` marks rows whose direction was not finite or whose
    halving ran out (returned as they are); ``flat`` marks rows whose step
    promised a gain of at most NEWTON_GAIN_ULPS rounding units of f.
    """
    # stats outside the achievable mean range (sum exp(stats/scale) >= 1) push
    # the maximizer to infinity; the curvature then underflows and the pieces
    # below go non-finite.  Those rows stall; they are not errors.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = dirichlet_gradient(conc, stats, scale)
        h = -scale * zeta(2, conc)
        z = scale * zeta(2, conc.sum(-1, keepdims=True))
        c = (g / h).sum(-1, keepdims=True) / (1.0 / z + (1.0 / h).sum(-1, keepdims=True))
        residual = np.where(np.isfinite(c[:, 0]), np.abs(g - c).max(-1), np.inf)
        if conc.shape[-1] == 1:  # f = (a - 1) S is linear and c = 0/0: g alone tells
            residual = np.abs(g[:, 0])
        direction = -(g - c) / h
        finite = np.all(np.isfinite(direction), axis=-1)

        moving = ~(residual < tol)
        stalled = moving & ~finite
        rows = np.flatnonzero(moving & finite)
        f0 = dirichlet_objective(conc[rows], stats[rows], scale)
        new = conc.copy()
        new[rows], failed = _line_search(conc[rows], direction[rows], stats[rows], scale, f0)
        stalled[rows[failed]] = True
        gain = 0.5 * (g[rows] * direction[rows]).sum(-1)
        flat = np.zeros(len(conc), dtype=bool)
        flat[rows] = gain <= NEWTON_GAIN_ULPS * np.finfo(np.float64).eps * np.abs(f0)
    return new, residual, stalled, flat


def solve_dirichlet_newton(conc, stats, scale, max_iters=50, tol=1e-8):
    """Damped Newton for every concentration row of ``conc`` (..., N) at once.

    A row stops when max |g_r - c| < tol (without taking that step), after
    a step that promised a gain below the objective's rounding, on a stall
    (it keeps its last accepted value) or after ``max_iters`` steps; a
    finished row leaves the working arrays.  A (N,) vector is a one-row
    batch.  Returns ``(out, stalled)``: the solved rows, shaped like
    ``conc``, and the per-row stall mask, shaped ``conc.shape[:-1]``.
    """
    conc = np.asarray(conc, dtype=np.float64)
    stats = np.asarray(stats, dtype=np.float64)
    if conc.ndim < 1 or conc.shape != stats.shape:
        raise ValueError("solve_dirichlet_newton: current/stats must be equal-shape arrays")
    if not np.all(np.isfinite(conc)) or np.any(conc <= 0.0):
        raise ValueError("solve_dirichlet_newton: current concentrations must be > 0")
    if not np.all(np.isfinite(stats)):
        raise ValueError("solve_dirichlet_newton: stats must be finite")
    scale = int(scale)
    if scale < 1:
        raise ValueError("solve_dirichlet_newton: scale must be a positive count")
    out = conc.reshape(-1, conc.shape[-1]).copy()
    st = stats.reshape(out.shape)
    stalled = np.zeros(len(out), dtype=bool)
    idx = np.arange(len(out))
    cur = out
    for _ in range(max_iters):
        cur, residual, stalled_now, flat = _newton_rows(cur, st, scale, tol)
        done = (residual < tol) | stalled_now | flat
        if done.any():
            out[idx[done]] = cur[done]
            stalled[idx[stalled_now]] = True
            keep = ~done
            cur, st, idx = cur[keep], st[keep], idx[keep]
            if idx.size == 0:
                break
    out[idx] = cur
    return out.reshape(conc.shape), stalled.reshape(conc.shape[:-1])
