"""Tests for the Dirichlet-expectation and Newton-solver layer."""

import math
import warnings

import numpy as np
import pytest
import scipy.optimize
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import mlpalda.numerics as numerics
from mlpalda.numerics import (
    dirichlet_expected_log,
    dirichlet_gradient,
    dirichlet_objective,
    solve_dirichlet_newton,
)


# ---------------------------------------------------------------------------
# scipy's logsumexp, on the inputs the oracle gives it
# ---------------------------------------------------------------------------


def test_log_sum_exp_known_values():
    assert abs(logsumexp(np.array([0.0, 0.0])) - math.log(2.0)) <= 1e-15
    v = np.array([-1000.0, -1000.0, -1000.0])
    assert abs(logsumexp(v) - (-1000.0 + math.log(3.0))) <= 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert logsumexp(np.array([-np.inf, 0.0])) == 0.0
        assert logsumexp(np.array([-np.inf, -np.inf])) == -np.inf


def test_log_sum_exp_of_empty_input_is_minus_inf():
    """A sum over no terms is log 0, so a posterior over no patterns is 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert logsumexp(np.array([])) == -np.inf
        assert math.exp(logsumexp(np.array([])) - 1.0) == 0.0


@given(
    st.lists(st.floats(min_value=-1e8, max_value=1e8), min_size=1, max_size=12),
    st.floats(min_value=-1e6, max_value=1e6),
)
@settings(max_examples=200, deadline=None)
def test_log_sum_exp_shift_invariance(vals, shift):
    v = np.array(vals)
    a = logsumexp(v + shift)
    b = logsumexp(v) + shift
    assert abs(a - b) <= 1e-9 * max(1.0, abs(b))
    # the result can never fall below the max element
    assert logsumexp(v) >= v.max() - 1e-12


def test_log_sum_exp_axis():
    m = np.log(np.array([[1.0, 3.0], [2.0, 2.0]]))
    out = logsumexp(m, axis=1)
    assert np.allclose(out, np.log([4.0, 4.0]), atol=1e-14)


# ---------------------------------------------------------------------------
# dirichlet_expected_log
# ---------------------------------------------------------------------------


def test_dirichlet_expected_log_symmetric():
    gamma = np.array([1.0, 1.0])
    out = dirichlet_expected_log(gamma)
    # psi(1) - psi(2) = -gamma - (1 - gamma) = -1
    assert np.allclose(out, [-1.0, -1.0], atol=1e-13)

    gamma = np.full(5, 3.7)
    out = dirichlet_expected_log(gamma)
    assert np.allclose(out, out[0])
    assert abs(out[0] - (scipy.special.psi(3.7) - scipy.special.psi(5 * 3.7))) <= 1e-12


def test_dirichlet_expected_log_is_negative_and_batched():
    rng = np.random.default_rng(7)
    gamma = rng.gamma(2.0, 2.0, size=(3, 2, 4)) + 0.05
    out = dirichlet_expected_log(gamma)
    assert out.shape == gamma.shape
    # E[log theta] < 0 for any proper Dirichlet
    assert np.all(out < 0.0)
    ref = scipy.special.psi(gamma) - scipy.special.psi(gamma.sum(-1, keepdims=True))
    assert np.allclose(out, ref, atol=1e-12)


def test_dirichlet_expected_log_domain():
    """A zero, negative, NaN or infinite entry anywhere in the batch raises."""
    for bad in (0.0, -1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            dirichlet_expected_log(np.array([1.0, bad]))
        arr = np.ones((3, 2, 4))
        arr[2, 1, 3] = bad
        with pytest.raises(ValueError, match="must be finite and > 0"):
            dirichlet_expected_log(arr)


def test_dirichlet_expected_log_refuses_a_row_sum_that_overflows():
    """Finite entries whose sum overflows raise like an infinite entry, and
    no overflow warning escapes before the refusal (the suite makes every
    RuntimeWarning an error)."""
    with pytest.raises(ValueError, match="must be finite and > 0"):
        dirichlet_expected_log(np.array([[1.0, 2.0], [1e308, 1e308]]))


# ---------------------------------------------------------------------------
# Newton step / solve for Dirichlet concentrations
# ---------------------------------------------------------------------------


def _random_problem(seed, dim=4, scale=25):
    """Synthetic mean-log statistics from an actual Dirichlet sample."""
    rng = np.random.default_rng(seed)
    true = rng.gamma(3.0, 1.0, size=dim) + 0.2
    draws = rng.dirichlet(true, size=scale)
    stats = np.log(draws).sum(axis=0)
    return stats


def _one_step(conc, stats, scale, tol=0.0):
    """One damped Newton step: (new concentrations, stalled)."""
    new, stalled = solve_dirichlet_newton(conc, stats, scale, max_iters=1, tol=tol)
    return new, bool(stalled)


def test_newton_step_zero_gradient_fixed_point():
    conc = np.array([0.7, 1.3, 2.2])
    scale = 13
    # stats chosen so the analytic gradient vanishes at `conc`
    stats = scale * (scipy.special.psi(conc) - scipy.special.psi(conc.sum()))
    assert np.abs(dirichlet_gradient(conc, stats, scale)).max() <= 1e-12
    # a step taken at the optimum goes nowhere
    new, stalled = _one_step(conc, stats, scale)
    assert not stalled
    assert np.allclose(new, conc, atol=1e-12)
    # a row whose residual is below tol is returned without a step
    new, stalled = _one_step(conc, stats, scale, tol=1e-12)
    assert not stalled
    assert np.array_equal(new, conc)


def test_newton_step_reduces_gradient_norm():
    stats = _random_problem(3, dim=3, scale=40)
    conc = np.ones(3)
    g0 = np.abs(dirichlet_gradient(conc, stats, 40)).max()
    new, stalled = _one_step(conc, stats, 40)
    g1 = np.abs(dirichlet_gradient(new, stats, 40)).max()
    assert not stalled
    assert g1 < g0


def test_newton_step_never_decreases_objective():
    for seed in range(8):
        stats = _random_problem(seed, dim=5, scale=30)
        conc = np.ones(5)
        f0 = dirichlet_objective(conc, stats, 30)
        for _ in range(25):
            new, _ = _one_step(conc, stats, 30)
            f1 = dirichlet_objective(new, stats, 30)
            assert f1 >= f0
            conc, f0 = new, f1
        assert np.all(conc > 1e-10)


def test_analytic_gradient_matches_central_differences():
    stats = _random_problem(11, dim=4, scale=20)
    conc = np.array([0.8, 1.1, 2.5, 0.4])
    g = dirichlet_gradient(conc, stats, 20)
    h = 1e-6
    for r in range(4):
        e = np.zeros(4)
        e[r] = h
        fd = (
            dirichlet_objective(conc + e, stats, 20)
            - dirichlet_objective(conc - e, stats, 20)
        ) / (2 * h)
        assert abs(g[r] - fd) <= 1e-5 * max(1.0, abs(fd))


def _gradient_ascent_oracle(conc0, stats, scale, tol=5e-10, max_iters=100_000):
    """Plain backtracking gradient ascent; independent of the Newton path."""
    conc = conc0.copy()
    f = dirichlet_objective(conc, stats, scale)
    step = 1e-2 / scale
    for _ in range(max_iters):
        g = dirichlet_gradient(conc, stats, scale)
        if np.abs(g).max() < tol:
            break
        cand = conc + step * g
        while np.any(cand <= 1e-12) or dirichlet_objective(cand, stats, scale) < f:
            step *= 0.5
            cand = conc + step * g
            if step < 1e-18:
                return conc
        conc = cand
        f = dirichlet_objective(conc, stats, scale)
        step *= 1.5
    return conc


def test_full_solve_matches_gradient_ascent_oracle():
    for seed in (0, 1, 2):
        stats = _random_problem(seed, dim=4, scale=25)
        ours, _ = solve_dirichlet_newton(np.ones(4), stats, 25)
        ref = _gradient_ascent_oracle(np.ones(4), stats, 25)
        # the curvature here is O(scale), so a 5e-6 gradient residual keeps
        # the oracle's argmax within ~1e-7 of the true maximiser
        assert np.abs(dirichlet_gradient(ref, stats, 25)).max() < 5e-6
        assert np.allclose(ours, ref, atol=1e-6)


def test_full_solve_matches_scipy_optimizer():
    stats = _random_problem(5, dim=3, scale=15)

    res = scipy.optimize.minimize(
        lambda a: -dirichlet_objective(a, stats, 15),
        np.ones(3),
        jac=lambda a: -dirichlet_gradient(a, stats, 15),
        method="L-BFGS-B",
        bounds=[(1e-8, None)] * 3,
        options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 5000},
    )
    ours, _ = solve_dirichlet_newton(np.ones(3), stats, 15)
    assert np.allclose(ours, res.x, atol=1e-6)


def test_solve_converges_to_small_residual():
    stats = _random_problem(9, dim=6, scale=60)
    out, _ = solve_dirichlet_newton(np.ones(6), stats, 60)
    assert np.abs(dirichlet_gradient(out, stats, 60)).max() <= 1e-6


def test_newton_problem_validation():
    with pytest.raises(ValueError):
        _one_step(np.array([1.0, -1.0]), np.zeros(2), 3)
    with pytest.raises(ValueError):
        _one_step(np.ones(2), np.zeros(3), 3)
    with pytest.raises(ValueError):
        _one_step(np.ones(2), np.zeros(2), 0)


def test_newton_stalls_gracefully_when_optimum_is_at_infinity():
    # sum(exp(stats/scale)) >= 1 means no finite maximizer exists; the solver
    # must stop on its own and hand back finite positive concentrations
    stats = np.array([-0.05, -0.05])
    out, _ = solve_dirichlet_newton(np.ones(2), stats, 1)
    assert np.all(np.isfinite(out)) and np.all(out > 0)


def test_newton_on_one_component_rows_stalls_only_when_unbounded():
    # one component: f(a) = (a - 1) S is linear and its Hessian singular, so
    # a row with S = 0 (one topic: E[log theta] = 0) is flat and converged
    conc = np.array([[0.5], [1.0], [3.0]])
    out, stalled = solve_dirichlet_newton(conc, np.zeros_like(conc), 7)
    assert np.array_equal(out, conc) and not stalled.any()
    # a gradient S at or above tol leaves f unbounded: that row stalls
    out, stalled = solve_dirichlet_newton(conc, np.array([[0.0], [0.5], [-1e-9]]), 7)
    assert np.array_equal(out, conc) and stalled.tolist() == [False, True, False]


def test_trigamma_through_zeta_is_polygamma_bit_for_bit():
    x = np.geomspace(1e-10, 1e8, 300_001)
    assert np.array_equal(scipy.special.zeta(2, x), scipy.special.polygamma(1, x))


def _record_newton_rows(monkeypatch):
    """Wrap the batched step; each call appends (f before, f after, flat mask)."""
    calls = []
    step = numerics._newton_rows

    def recording(conc, stats, scale, tol):
        out = step(conc, stats, scale, tol)
        calls.append((dirichlet_objective(conc, stats, scale),
                      dirichlet_objective(out[0], stats, scale), out[3]))
        return out

    monkeypatch.setattr(numerics, "_newton_rows", recording)
    return calls


def test_batched_solve_rows_equal_their_one_row_solves(monkeypatch):
    scale = 100
    fixed = np.array([0.7, 1.3, 2.2, 0.5])
    conc = np.ones((5, 4))
    conc[0] = fixed
    stats = np.stack([
        # gradient zero at the start: done on the first step without moving
        scale * (scipy.special.psi(fixed) - scipy.special.psi(fixed.sum())),
        # ordinary problems, which end on the rounding stop rule
        _random_problem(6, dim=4, scale=scale),
        _random_problem(7, dim=4, scale=scale),
        _random_problem(8, dim=4, scale=scale),
        # sum exp(stats / scale) >= 1: the optimum is at infinity and the row stalls
        np.full(4, scale * np.log(0.3)),
    ])
    calls = _record_newton_rows(monkeypatch)
    batch, stalled = solve_dirichlet_newton(conc, stats, scale)
    assert np.any([flat.any() for _, _, flat in calls])
    for r in range(len(conc)):
        alone, alone_stalled = solve_dirichlet_newton(conc[r], stats[r], scale)
        assert np.array_equal(batch[r], alone), r
        assert stalled[r] == alone_stalled
    assert np.array_equal(batch[0], fixed)
    assert stalled.tolist() == [False, False, False, False, True]
    assert np.all(np.isfinite(batch)) and np.all(batch > 0)


@pytest.mark.parametrize("seed,dim", [(6, 20), (3, 10)])
def test_solve_stops_once_the_gain_is_below_rounding(monkeypatch, seed, dim):
    # each halved down to a step the objective cannot see and ran to the
    # 50-iteration cap before the rounding stop rule
    stats = _random_problem(seed, dim=dim, scale=100)
    calls = _record_newton_rows(monkeypatch)
    out, _ = solve_dirichlet_newton(np.ones(dim), stats, 100)
    assert len(calls) <= 12
    assert all(np.all(after >= before) for before, after, _ in calls)
    assert calls[-1][2].all()
    assert np.abs(dirichlet_gradient(out, stats, 100)).max() <= 1e-6


@pytest.mark.parametrize("dim", [4, 20, 200, 2000])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_observation_of_expected_logs_is_maximized_at_its_own_chi(seed, dim):
    # f(a) = E_{Dir(chi)}[log Dir(beta; a)] = -H(Dir(chi)) - KL(Dir(chi) || Dir(a)),
    # so a = chi is its unique maximizer: the smoothed trainer sets eta = chi
    chi = 10.0 ** np.random.default_rng(seed).uniform(-3.0, 3.0, size=(6, dim))
    stats = dirichlet_expected_log(chi)
    np.testing.assert_allclose(dirichlet_gradient(chi, stats, 1), 0.0, rtol=0, atol=1e-12)
    # Newton finds the same point to the accuracy its f-based stop rules
    # resolve: up to 5.7e-7 relative on these rows
    out, _ = solve_dirichlet_newton(np.ones_like(chi), stats, 1)
    np.testing.assert_allclose(out, chi, rtol=1e-6, atol=0)
