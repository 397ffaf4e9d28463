"""Dirichlet expectations and the damped Newton solver used by the trainer.

psi and psi' come from ``scipy.special`` (``psi`` and ``polygamma(1, .)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, polygamma, psi

NEWTON_FLOOR = 1e-10
NEWTON_MAX_HALVINGS = 30


def log_sum_exp(v, axis=None):
    """log(sum(exp(v))) with max-shift; -inf entries contribute nothing."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("log_sum_exp: empty input")
    m = np.max(arr, axis=axis, keepdims=True)
    # a row of all -inf must come out as -inf, not nan
    safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(arr - safe), axis=axis, keepdims=True)) + safe
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


def dirichlet_expected_log(gamma, axis=-1):
    """E[log theta] under Dirichlet(gamma): psi(gamma) - psi(sum gamma).

    Works on batched concentration arrays; the simplex axis is ``axis``.
    """
    arr = np.asarray(gamma, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("dirichlet_expected_log: empty input")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("dirichlet_expected_log: argument must be finite and > 0")
    total = np.sum(arr, axis=axis, keepdims=True)
    return psi(arr) - psi(total)


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
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirichletNewtonProblem:
    """One concentration row plus its sufficient statistics.

    ``stats`` holds the summed expected-log-probability statistics
    (sum over observations of psi(gamma_r) - psi(sum gamma)), and ``scale``
    is the number of observations behind that sum.
    """

    current: np.ndarray
    stats: np.ndarray
    scale: int

    def __post_init__(self):
        cur = np.asarray(self.current, dtype=np.float64)
        st = np.asarray(self.stats, dtype=np.float64)
        if cur.ndim != 1 or cur.shape != st.shape:
            raise ValueError("DirichletNewtonProblem: current/stats must be equal-length vectors")
        if not np.all(np.isfinite(cur)) or np.any(cur <= 0.0):
            raise ValueError("DirichletNewtonProblem: current concentrations must be > 0")
        if not np.all(np.isfinite(st)):
            raise ValueError("DirichletNewtonProblem: stats must be finite")
        if int(self.scale) < 1:
            raise ValueError("DirichletNewtonProblem: scale must be a positive count")
        object.__setattr__(self, "current", cur)
        object.__setattr__(self, "stats", st)
        object.__setattr__(self, "scale", int(self.scale))


@dataclass(frozen=True)
class NewtonStep:
    conc: np.ndarray
    stalled: bool
    residual: float = field(default=np.inf)


def dirichlet_objective(conc, stats, scale):
    conc = np.asarray(conc, dtype=np.float64)
    return float(
        scale * (gammaln(conc.sum()) - gammaln(conc).sum()) + ((conc - 1.0) * stats).sum()
    )


def dirichlet_gradient(conc, stats, scale):
    conc = np.asarray(conc, dtype=np.float64)
    return scale * (psi(conc.sum()) - psi(conc)) + stats


def newton_dirichlet_step(problem: DirichletNewtonProblem) -> NewtonStep:
    """One damped shared-structure Newton update.

    The step is halved (up to 30 times) until every component stays above
    the positivity floor and the local objective does not decrease; if no
    such step exists the input is returned unchanged with ``stalled`` set.
    """
    conc, stats, scale = problem.current, problem.stats, problem.scale
    g = dirichlet_gradient(conc, stats, scale)
    # stats outside the achievable mean range (sum exp(stats/scale) >= 1) push
    # the maximizer to infinity; the curvature then underflows and the pieces
    # below go non-finite.  Those trials are rejected, not errors.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h = -scale * polygamma(1, conc)
        z = scale * polygamma(1, conc.sum())
        c = (g / h).sum() / (1.0 / z + (1.0 / h).sum())
        residual = float(np.abs(g - c).max()) if np.isfinite(c) else np.inf
        direction = -(g - c) / h
        if not np.all(np.isfinite(direction)):
            return NewtonStep(conc.copy(), stalled=True, residual=residual)

        f0 = dirichlet_objective(conc, stats, scale)
        step = 1.0
        for _ in range(NEWTON_MAX_HALVINGS + 1):
            cand = conc + step * direction
            if np.all(cand > NEWTON_FLOOR):
                f1 = dirichlet_objective(cand, stats, scale)
                if np.isfinite(f1) and f1 >= f0:
                    return NewtonStep(cand, stalled=False, residual=residual)
            step *= 0.5
    return NewtonStep(conc.copy(), stalled=True, residual=residual)


def solve_dirichlet_newton(conc, stats, scale, max_iters=50, tol=1e-8):
    """Iterate damped Newton steps until max |g_r - c| < tol (or stall)."""
    cur = np.asarray(conc, dtype=np.float64).copy()
    for _ in range(max_iters):
        step = newton_dirichlet_step(DirichletNewtonProblem(cur, stats, scale))
        if step.residual < tol:
            break
        cur = step.conc
        if step.stalled:
            break
    return cur
