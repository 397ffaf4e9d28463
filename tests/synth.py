"""Synthetic corpora drawn from the model's own generative process.

Shared by the inference/crowd/acceptance tests.  ``separable_params``
builds parameters where each class, when present, pushes words into its
own vocabulary block, so presence is recoverable from text alone.
"""

import numpy as np

from mlpalda.model import Document, ModelParams


def separable_params(C, T, V, xi=0.45, strength=8.0, base=0.3):
    """Well-separated ground-truth parameters (no annotators attached).

    Topic t owns the t-th block of the vocabulary; class i present pulls
    topics toward topic i mod T, absent toward the last topic.
    """
    if T > V:
        raise ValueError("need at least one word per topic")
    beta = np.full((T, V), 0.02 / V)
    block = V // T
    for t in range(T):
        lo, hi = t * block, (V if t == T - 1 else (t + 1) * block)
        beta[t, lo:hi] += 0.98 / (hi - lo)
    beta /= beta.sum(axis=1, keepdims=True)

    alpha = np.full((C, 2, T), base)
    for i in range(C):
        alpha[i, 1, i % T] = strength
        alpha[i, 0, T - 1] = strength

    xi_vec = np.full(C, float(xi))
    return ModelParams(alpha=alpha, xi=xi_vec, rho=np.zeros(0), beta=beta)


def sample_corpus(params, n_docs, mean_words=60, seed=0, doc_prefix="d"):
    """Draw documents exactly as the generative story says.

    Returns (documents, truth) where truth is the (D, C) presence matrix;
    each document also carries its row in ``true_labels``.
    """
    rng = np.random.default_rng(seed)
    C, _, T = params.alpha.shape
    V = params.beta.shape[1]
    docs = []
    truth = np.zeros((n_docs, C), dtype=np.int64)
    for d in range(n_docs):
        lam = (rng.random(C) < params.xi).astype(np.int64)
        theta = np.stack([rng.dirichlet(params.alpha[i, lam[i]]) for i in range(C)])
        n_words = max(5, int(rng.poisson(mean_words)))
        class_of_word = rng.integers(0, C, size=n_words)
        word_counts = np.zeros(V, dtype=np.int64)
        for i in range(C):
            n_i = int((class_of_word == i).sum())
            if n_i == 0:
                continue
            topic_counts = rng.multinomial(n_i, theta[i])
            for t in np.flatnonzero(topic_counts):
                word_counts += rng.multinomial(topic_counts[t], params.beta[t])
        ids = np.flatnonzero(word_counts)
        docs.append(
            Document(
                doc_id=f"{doc_prefix}{d}",
                word_ids=ids,
                counts=word_counts[ids],
                true_labels=lam,
            )
        )
        truth[d] = lam
    return docs, truth
