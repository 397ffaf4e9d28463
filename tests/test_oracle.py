"""Tests for the exact enumeration oracle on tiny instances.

The Monte Carlo check at the bottom integrates the topic simplices by
sampling instead of enumerating latent assignments, giving an independent
estimate of the same marginal through completely different math.
"""

import math

import numpy as np
import pytest

from mlpalda.model import Dimensions, Document, ModelParams
from mlpalda.oracle import TinyInstance, enumeration_size, exact_log_marginal, exact_posterior_lambda


def _params(C, T, V, K, seed=0, xi=None, rho=None):
    rng = np.random.default_rng(seed)
    alpha = rng.gamma(2.0, 1.0, size=(C, 2, T)) + 0.3
    beta = rng.dirichlet(np.ones(V) * 2.0, size=T)
    return ModelParams(
        alpha=alpha,
        xi=np.full(C, 0.4) if xi is None else np.asarray(xi, dtype=float),
        rho=np.empty(0) if rho is None else np.asarray(rho, dtype=float),
        beta=beta,
    )


def _instance(C=2, T=2, V=3, K=0, n_words=3, seed=0, crowd=None, xi=None, rho=None):
    rng = np.random.default_rng(seed + 100)
    tokens = rng.integers(0, V, size=n_words)
    ids, counts = np.unique(tokens, return_counts=True)
    doc = Document(
        doc_id="tiny",
        word_ids=ids,
        counts=counts,
        true_labels=None,
        crowd_labels=None if crowd is None else np.asarray(crowd, dtype=np.int64),
    )
    dims = Dimensions(D=1, C=C, T=T, V=V, K=K)
    return TinyInstance(doc=doc, params=_params(C, T, V, K, seed, xi, rho), dims=dims)


def test_single_path_instance_is_certain():
    # C=1, T=1, V=1: the only word, topic and class are forced, and the
    # presence mixture integrates out to probability one.
    inst = _instance(C=1, T=1, V=1, K=0, n_words=1, xi=[0.35])
    inst.params.beta[:] = 1.0
    assert abs(exact_log_marginal(inst)) <= 1e-12


def test_annotator_factor_hand_computed():
    # same forced instance plus one annotator voting "present":
    # p(w, y) = xi*rho + (1 - xi)*(1 - rho)
    rho = 0.8
    xi = 0.35
    inst = _instance(C=1, T=1, V=1, K=1, n_words=1, crowd=[[1]], xi=[xi], rho=[rho])
    inst.params.beta[:] = 1.0
    expect = math.log(xi * rho + (1 - xi) * (1 - rho))
    assert abs(exact_log_marginal(inst) - expect) <= 1e-12


def test_uninformative_annotator_costs_exactly_log2():
    base = _instance(C=1, T=2, V=3, K=0, n_words=3, seed=2, xi=[0.3])
    with_coin = _instance(C=1, T=2, V=3, K=1, n_words=3, seed=2, crowd=[[1]], xi=[0.3], rho=[0.5])
    with_coin.params.beta[:] = base.params.beta
    with_coin.params.alpha[:] = base.params.alpha
    a = exact_log_marginal(base)
    b = exact_log_marginal(with_coin)
    assert abs((a - b) - math.log(2.0)) <= 1e-12


def test_summing_over_label_configs_recovers_word_marginal():
    # sum_y p(w, y) = p(w) for one annotator judging a single class
    base = _instance(C=1, T=2, V=3, K=0, n_words=2, seed=5, xi=[0.45])
    total = []
    for vote in (0, 1):
        inst = _instance(C=1, T=2, V=3, K=1, n_words=2, seed=5, crowd=[[vote]], xi=[0.45], rho=[0.77])
        inst.params.beta[:] = base.params.beta
        inst.params.alpha[:] = base.params.alpha
        total.append(exact_log_marginal(inst))
    summed = np.logaddexp(total[0], total[1])
    assert abs(summed - exact_log_marginal(base)) <= 1e-12


def test_topic_permutation_invariance():
    inst = _instance(C=2, T=2, V=4, K=0, n_words=3, seed=7)
    ref = exact_log_marginal(inst)
    perm = [1, 0]
    permuted = TinyInstance(
        doc=inst.doc,
        params=ModelParams(
            alpha=inst.params.alpha[:, :, perm],
            xi=inst.params.xi,
            rho=inst.params.rho,
            beta=inst.params.beta[perm, :],
        ),
        dims=inst.dims,
    )
    assert abs(exact_log_marginal(permuted) - ref) <= 1e-10


def test_class_permutation_invariance():
    crowd = [[1, 0], [0, -1]]
    inst = _instance(C=2, T=2, V=4, K=2, n_words=3, seed=8, crowd=crowd, xi=[0.3, 0.6], rho=[0.8, 0.9])
    ref = exact_log_marginal(inst)
    perm = [1, 0]
    permuted = TinyInstance(
        doc=Document(
            doc_id=inst.doc.doc_id,
            word_ids=inst.doc.word_ids,
            counts=inst.doc.counts,
            crowd_labels=inst.doc.crowd_labels[:, perm],
        ),
        params=ModelParams(
            alpha=inst.params.alpha[perm],
            xi=inst.params.xi[perm],
            rho=inst.params.rho,
            beta=inst.params.beta,
        ),
        dims=inst.dims,
    )
    assert abs(exact_log_marginal(permuted) - ref) <= 1e-10


def test_enumeration_bound_enforced():
    inst = _instance(C=2, T=2, V=3, K=0, n_words=3)
    assert enumeration_size(inst) == 2**2 * 2**3 * 2**3
    big = _instance(C=3, T=4, V=3, K=0, n_words=8)
    with pytest.raises(ValueError):
        exact_log_marginal(big)


def test_posterior_lambda_basics():
    inst = _instance(C=2, T=2, V=4, K=1, n_words=3, seed=9, crowd=[[1, 0]], rho=[0.95])
    post = exact_posterior_lambda(inst)
    assert post.shape == (2,)
    assert np.all(post >= 0.0) and np.all(post <= 1.0)
    # a near-perfect annotator dominates a 3-word document
    assert post[0] > 0.5
    assert post[1] < 0.5


def test_posterior_lambda_reduces_to_prior_when_words_uninformative():
    # both presence rows share one alpha row and there are no annotators,
    # so the words say nothing about lambda
    inst = _instance(C=2, T=2, V=4, K=0, n_words=3, seed=11, xi=[0.25, 0.65])
    inst.params.alpha[:, 0, :] = inst.params.alpha[:, 1, :]
    post = exact_posterior_lambda(inst)
    assert np.allclose(post, [0.25, 0.65], atol=1e-10)


def test_monte_carlo_cross_check():
    # independent estimate: p(w, y) = E_theta[ prod_n mix_n(theta) ] * p(y-part),
    # sampling theta rows from their Dirichlet priors
    inst = _instance(C=2, T=2, V=4, K=1, n_words=3, seed=13, crowd=[[1, -1]], rho=[0.85])
    exact = exact_log_marginal(inst)

    rng = np.random.default_rng(0)
    S = 400_000
    C, T = 2, 2
    alpha, beta, xi, rho = (
        inst.params.alpha,
        inst.params.beta,
        inst.params.xi,
        inst.params.rho,
    )
    tokens = np.repeat(inst.doc.word_ids, inst.doc.counts)
    y = inst.doc.crowd_labels

    total = np.zeros(S)
    for lam in ([0, 0], [0, 1], [1, 0], [1, 1]):
        p_lam = np.prod([xi[i] if lam[i] else 1 - xi[i] for i in range(C)])
        p_y = 1.0
        for j in range(y.shape[0]):
            for i in range(C):
                if y[j, i] == -1:
                    continue
                p_y *= rho[j] if y[j, i] == lam[i] else 1.0 - rho[j]
        # theta draws for the active (i, lam_i) rows only
        theta = np.stack(
            [rng.dirichlet(alpha[i, lam[i]], size=S) for i in range(C)], axis=1
        )  # (S, C, T)
        like = np.ones(S)
        for tok in tokens:
            mix = (theta @ beta[:, tok]).mean(axis=1)  # (S,) average over u
            like *= mix
        total += p_lam * p_y * like
    est = total.mean()
    se = total.std(ddof=1) / math.sqrt(S)
    assert abs(est - math.exp(exact)) <= 5.0 * se + 1e-12
